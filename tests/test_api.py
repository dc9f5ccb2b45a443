"""Guards for the package layout: public names, traced layers, module roles."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mwns

SRC = Path(mwns.__file__).resolve().parent
REPO = SRC.parents[1]
PIPELINE = ("core", "blockcut", "separators", "blocker", "reducer", "solver", "cli")


def test_every_public_name_resolves():
    for name in mwns.__all__:
        assert hasattr(mwns, name), name


def test_every_traced_function_resolves():
    # the benchmark's --trace 1 wraps these by name; a deletion breaks it
    spec = importlib.util.spec_from_file_location("bench_tracer", REPO / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, fns in tracer.LAYERS.items():
        module = importlib.import_module(f"mwns.{layer}")
        for fn in fns:
            owner = module
            for part in fn.split("."):
                assert hasattr(owner, part), f"mwns.{layer}.{fn}"
                owner = getattr(owner, part)


def imported_modules(tree: ast.AST):
    """Every module an import statement names, and every `module.name` it
    takes from one, with relative imports resolved inside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "mwns." + base if base else "mwns"
            yield base
            yield from (f"{base}.{a.name}" for a in node.names)


@pytest.mark.parametrize("name", PIPELINE)
def test_pipeline_modules_do_not_import_the_witnesses(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    assert "mwns.witness" not in set(imported_modules(tree))


def test_block_layer_sits_below_the_flow_layer():
    tree = ast.parse((SRC / "blockcut.py").read_text())
    assert not {m for m in imported_modules(tree) if m.startswith("mwns.separators")}


def named(tree: ast.AST):
    """Every identifier a module's code uses: variables, attributes and
    imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from filter(None, (node.name, node.asname))


def test_one_flow_network_outside_the_flow_layer_only_in_the_search():
    # the exact search shares one network across its nodes; every other
    # module asks `separators` for its flows
    users = {p.stem for p in SRC.glob("*.py") if "_SplitNet" in set(named(ast.parse(p.read_text())))}
    assert users == {"separators", "solver"}
    assert "_SplitNet" in set(named(ast.parse("from .separators import _SplitNet as net")))
    assert "_SplitNet" in set(named(ast.parse("separators._SplitNet(g)")))


def test_no_module_holds_a_global_statement():
    # state of a call lives in the call or a ContextVar, not in a module global
    def has_global(text: str) -> bool:
        return any(isinstance(node, ast.Global) for node in ast.walk(ast.parse(text)))

    assert not [p.name for p in SRC.glob("*.py") if has_global(p.read_text())]
    assert has_global("def hook(fn):\n    global _hook\n    _hook = fn\n")


def test_no_pipeline_module_holds_an_assert_statement():
    # `python -O` drops asserts, so a check the pipeline relies on raises;
    # the witness constructions keep theirs as internal sanity checks
    def has_assert(text: str) -> bool:
        return any(isinstance(node, ast.Assert) for node in ast.walk(ast.parse(text)))

    assert not [p.name for p in SRC.glob("*.py") if p.name != "witness.py" and has_assert(p.read_text())]
    assert has_assert("def check(z):\n    assert len(z) <= 1\n")


def test_the_import_scan_sees_the_witness_module():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert "mwns.witness" in set(imported_modules(tree))
    assert "mwns.witness" in set(imported_modules(ast.parse("from . import witness")))


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / demo)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_networkx_out():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", "import mwns, sys; sys.exit('networkx' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr or "importing mwns loaded networkx"
