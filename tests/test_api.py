"""Guards for the package layout: public names, traced layers, module roles."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import mwns

from brute import small_instances

SRC = Path(mwns.__file__).resolve().parent
REPO = SRC.parents[1]
PIPELINE = ("core", "blockcut", "separators", "blocker", "reducer", "solver", "cli")
# a subprocess imports the mwns these tests import, installed or not
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))


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


def test_the_reducer_reads_paths_off_block_cut_forests_not_the_flow_layer():
    tree = ast.parse((SRC / "reducer.py").read_text())
    assert not {m for m in imported_modules(tree) if m.startswith("mwns.separators")}


def named(tree: ast.AST, skip: ast.AST | None = None):
    """Every identifier a module's code uses outside the node `skip`:
    variables, attributes, imported names and the dotted parts of strings
    (the tracer names what it wraps)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from filter(None, (node.name, node.asname))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def test_one_flow_network_outside_the_flow_layer_only_in_the_search():
    # the exact search shares one network across its nodes; every other
    # module asks `separators` for its flows
    users = {p.stem for p in SRC.glob("*.py") if "_SplitNet" in set(named(ast.parse(p.read_text())))}
    assert users == {"separators", "solver"}
    assert "_SplitNet" in set(named(ast.parse("from .separators import _SplitNet as net")))
    assert "_SplitNet" in set(named(ast.parse("separators._SplitNet(g)")))


def test_every_public_pipeline_function_has_a_caller_outside_the_tests():
    # a function, class or method that only tests use is a seam the program
    # does not need, private or not: move it to tests/brute.py. Dunder
    # methods are called by the language, so they are not scanned
    paths = [*SRC.glob("*.py"), *(REPO / "bench").glob("*.py"), *(REPO / "demos").glob("*.py")]
    trees = {p: ast.parse(p.read_text()) for p in paths}
    names = {p: set(named(tree)) for p, tree in trees.items()}

    def called(path: Path, fn: ast.AST) -> bool:
        return fn.name in set(named(trees[path], fn)) or any(
            fn.name in used for p, used in names.items() if p != path)

    unused = []
    for name in (*PIPELINE, "graph"):
        path = SRC / f"{name}.py"
        for fn in trees[path].body:
            if (name in PIPELINE and isinstance(fn, (ast.FunctionDef, ast.ClassDef))
                    and fn.name not in mwns.__all__ and not called(path, fn)):
                unused.append(f"{name}.{fn.name}")
            if isinstance(fn, ast.ClassDef):
                unused += [f"{name}.{fn.name}.{m.name}" for m in fn.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
                           and not called(path, m)]
    assert not unused
    tree = ast.parse("def seam(g):\n    return seam(g)\n")
    assert "seam" not in set(named(tree, tree.body[0])) and "seam" in set(named(tree))


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
    tree = ast.parse("from .witness import find_separable_leaf_terminal, threaded_path")
    assert "mwns.witness" in set(imported_modules(tree))
    assert "mwns.witness" in set(imported_modules(ast.parse("from . import witness")))


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO / "demos").glob("*.py")))
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(REPO / "demos" / demo)],
                          capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr


def fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    """`code` run by a new python that imports this checkout's mwns."""
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=ENV, timeout=60)


def test_import_leaves_networkx_out():
    # every public name is resolved, so every layer it lives in is loaded
    proc = fresh_interpreter("import mwns, sys\n"
                             "[getattr(mwns, name) for name in mwns.__all__]\n"
                             "sys.exit('networkx' in sys.modules)")
    assert proc.returncode == 0, proc.stderr or "importing mwns loaded networkx"


def loaded_layers(code: str) -> set[str]:
    """The mwns modules a fresh interpreter holds after running `code`."""
    proc = fresh_interpreter(code + "\nimport sys\n"
                             "print(*sorted(m for m in sys.modules if m.startswith('mwns')))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_parsing_loads_only_the_parse_path():
    assert loaded_layers("from mwns.instance_io import parse_instance") == {
        "mwns", "mwns.graph", "mwns.blockcut", "mwns.core", "mwns.instance_io"}


def test_the_pipeline_never_loads_the_witnesses():
    # the runtime half of the import scan above: no import, eager or deferred, reaches them
    layers = loaded_layers("import mwns.solver, mwns.reducer, mwns.blocker, mwns.cli")
    assert {"mwns.solver", "mwns.reducer", "mwns.blocker", "mwns.cli"} <= layers
    assert "mwns.witness" not in layers


@pytest.mark.parametrize("argv, unloaded", [
    ("verify {f} --solution 4", {"separators", "blocker", "reducer", "solver"}),
    ("dot {f} --bcf", {"separators", "blocker", "reducer", "solver"}),
    ("gen random --n 6 --p 0.4 --terminals 2 --k 1 --seed 1",
     {"separators", "blocker", "reducer", "solver"}),
    ("approx {f} --pivot 4", {"reducer", "solver"}),
])
def test_a_command_loads_only_its_layers(tmp_path, argv, unloaded):
    f = tmp_path / "c6.txt"
    f.write_text("p mwns 6 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 6\ne 1 6\nt 3\nt 5\nk 1\n")
    layers = loaded_layers(f"from mwns.cli import main\nassert main({argv.format(f=f).split()!r}) == 0")
    assert "mwns.cli" in layers and not layers & {f"mwns.{m}" for m in unloaded}


class TestNamespace:
    def test_each_name_is_its_home_modules_binding(self):
        for name in mwns.__all__:
            obj = getattr(mwns, name)
            home = importlib.import_module(obj.__module__)
            assert home.__name__.startswith("mwns.") and getattr(home, name) is obj, name

    def test_dir_and_star_import_cover_all(self):
        assert set(mwns.__all__) <= set(dir(mwns))
        namespace = {}
        exec("from mwns import *", namespace)
        assert set(mwns.__all__) <= namespace.keys()

    def test_an_unknown_name_is_an_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_layer"):
            mwns.no_such_layer

    def test_names_are_looked_up_at_each_access(self, monkeypatch):
        import mwns.solver

        def patched(inst):
            return None

        monkeypatch.setattr(mwns.solver, "solve", patched)
        assert mwns.solve is patched

    def test_submodules_resolve_after_a_bare_import(self):
        proc = fresh_interpreter("import mwns\nmwns.reducer.reduce_terminals\nmwns.gen.random_instance")
        assert proc.returncode == 0, proc.stderr


def outcome(call):
    """A call's answer, or the type of the exception it raised."""
    try:
        return "answer", call()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return "raised", type(exc)


def id_entry_points(inst):
    """Each public entry point that takes vertex ids, on an instance with
    three or more non-terminals u < v < w: name -> (call(X), scalar). A call
    joins the ids X to one of its id sets, or, when scalar, takes min(X) for
    one of its single ids; with X empty it names only vertices of G."""
    g, T, k = inst.graph, inst.terminals, inst.k
    u, v, w = sorted(set(g.vertices) - T)[:3]
    rest = frozenset(g.vertices) - T  # a near-separator, as T is independent

    def one(X, real):
        return min(X) if X else real

    reduced, log, _ = mwns.reduce_terminals(inst, rest)
    answer = mwns.solve(reduced)
    f = mwns.block_cut_forest(g)
    cut = next((c for c in f.cutv if c is not None), u)
    return {
        "Instance": (lambda X: mwns.Instance.of(g, T | X, k), False),
        "is_mwns": (lambda X: mwns.is_mwns(g, T | X, rest - {w}), False),
        "is_mwns S": (lambda X: mwns.is_mwns(g, T, rest | X), False),
        "find_t_cycle": (lambda X: mwns.find_t_cycle(g, T | X), False),
        "has_t_cycle": (lambda X: mwns.has_t_cycle(g, T | X), False),
        "has_two_ivd_paths": (lambda X: mwns.has_two_ivd_paths(g, u, one(X, v)), True),
        "nearly_separated_terminals": (lambda X: mwns.nearly_separated_terminals(g, T | X), False),
        "max_vertex_flow": (lambda X: mwns.max_vertex_flow(g, {u} | X, {v}, T, {w}), False),
        "min_separator": (lambda X: mwns.min_separator(g, {u}, {v}, T, {w} | X), False),
        "enumerate_important_separators": (
            lambda X: mwns.enumerate_important_separators(g, {u}, {v} | X, 2, T), False),
        "path_through_forced_vertex": (
            lambda X: mwns.path_through_forced_vertex(g, {u} | X, {v}, w), False),
        "path_through_forced_vertex t": (
            lambda X: mwns.path_through_forced_vertex(g, {u}, {v}, one(X, w)), True),
        "max_terminals_on_path": (lambda X: mwns.max_terminals_on_path(g, T | X, u, v), False),
        "max_terminals_on_path b": (lambda X: mwns.max_terminals_on_path(g, T, u, one(X, v)), True),
        "gallai_q_paths": (lambda X: mwns.gallai_q_paths(g, {u, v, w} | X), False),
        "blocker_run": (lambda X: mwns.blocker_run(g, T | X, u), False),
        "blocker_run x": (lambda X: mwns.blocker_run(g, T, one(X, u)), True),
        "build_1_redundant": (lambda X: mwns.build_1_redundant(inst, rest | X), False),
        "reduce_terminals": (lambda X: mwns.reduce_terminals(inst, rest | X), False),
        "lift_solution": (lambda X: mwns.lift_solution(log, (answer.solution or rest) | X), False),
        "compression_step": (lambda X: mwns.compression_step(inst, rest | X), False),
        "oracle_opt_x": (lambda X: mwns.oracle_opt_x(g, T | X, u), False),
        "oracle_opt_x x": (lambda X: mwns.oracle_opt_x(g, T, one(X, u)), True),
        "find_separable_leaf_terminal": (
            lambda X: mwns.find_separable_leaf_terminal(g, T, rest | X), False),
        "pushing_lemma_witness": (lambda X: mwns.pushing_lemma_witness(inst, rest | X), False),
        "threaded_path": (lambda X: mwns.threaded_path(g, f, cut, one(X, cut)), True),
        "path_through_vertex_in_block": (
            lambda X: mwns.path_through_vertex_in_block(frozenset(g.vertices), g, u, v, one(X, w)),
            True),
    }


# public names that take no vertex id of a given graph: classes of results
# and records, and the forest built from a graph (or from its own blocks)
NO_IDS = {"Graph", "connected_components", "BlockCutForest", "block_cut_forest", "SolveResult",
          "ReductionLog", "SearchStats", "separating_cut_vertex", "solve", "oracle_solve"}


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(small_instances(9, max_k=2, dense=True), st.sets(st.integers(10, 40), min_size=1, max_size=2))
def test_ids_outside_the_graph_raise_or_change_nothing(inst, X):
    # ROADMAP item 5: every public entry point, given ids outside G, raises
    # ValueError or answers as it does without them; a single id outside G
    # has no answer without it, so it raises
    assume(len(set(inst.graph.vertices) - inst.terminals) >= 3)
    calls = id_entry_points(inst)
    assert {name.split()[0] for name in calls} | NO_IDS == set(mwns.__all__)
    for name, (call, scalar) in calls.items():
        got = outcome(lambda: call(frozenset(X)))
        if scalar or got != outcome(lambda: call(frozenset())):
            assert got == ("raised", ValueError), name
