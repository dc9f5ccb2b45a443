"""Per-layer tracing of `mwns`, installed from outside the package.

`Tracer.install()` replaces each traced function by a wrapper in every
`mwns` module that binds it: the modules import by name, so `has_t_cycle`
must be replaced in `core`, `solver`, `blocker` and `reducer` alike. Each
wrapper keeps a stack of open spans, so a span knows its parent and its self
time is exact: its duration minus the durations of the traced calls nested
directly inside it. `BlockCutForest.subtree_vertices` recurses once per
forest level and is deliberately left unwrapped: a wrapper at every level
would double the stack depth, and deep forests would then fail only when
traced.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from typing import Callable

# layer -> functions (or Class.method) to wrap; the layer is the module name
LAYERS: dict[str, tuple[str, ...]] = {
    "graph": ("Graph.induced", "Graph.without", "connected_components"),
    "blockcut": ("biconnected_blocks", "block_cut_forest"),
    "separators": ("max_vertex_flow", "min_separator", "enumerate_important_separators",
                   "path_through_forced_vertex", "max_terminals_on_path", "gallai_q_paths"),
    "core": ("is_mwns", "has_t_cycle", "find_t_cycle", "nearly_separated_terminals",
             "has_two_ivd_paths"),
    "blocker": ("blocker_run",),
    "reducer": ("reduce_terminals", "build_1_redundant", "apply_rr1", "apply_rr2",
                "apply_rr3", "lift_solution"),
    "solver": ("solve", "compression_step"),
    "instance_io": ("parse_instance",),
}


def _count_fired(name: str):
    def hook(counts: Counter, out) -> None:
        counts[f"{name}.fired"] += out is not None
    return hook


def _count_blocker(counts: Counter, run) -> None:
    for it in run.iterations:
        counts[f"blocker.iterations.{it.case}"] += 1


def _count_search(counts: Counter, result) -> None:
    counts["solver.nodes"] += result.stats.nodes
    counts["solver.leaves"] += result.stats.leaves
    counts["solver.enumerations"] += result.stats.enumerations


def _count_essential(counts: Counter, out) -> None:
    redundant, _ = out
    counts["reducer.essential"] += len(redundant.essential)


def _count_kept(counts: Counter, seps) -> None:
    counts["separators.enumerate_important_separators.kept"] += len(seps)


# counts read off return values: (layer, function) -> hook(counts, result)
HOOKS: dict[tuple[str, str], Callable] = {
    ("separators", "enumerate_important_separators"): _count_kept,
    ("blocker", "blocker_run"): _count_blocker,
    ("reducer", "build_1_redundant"): _count_essential,
    ("reducer", "apply_rr1"): _count_fired("reducer.apply_rr1"),
    ("reducer", "apply_rr2"): _count_fired("reducer.apply_rr2"),
    ("reducer", "apply_rr3"): _count_fired("reducer.apply_rr3"),
    ("solver", "solve"): _count_search,
}

COUNT_NAMES = (
    "separators.enumerate_important_separators.kept",
    "blocker.iterations.a", "blocker.iterations.b", "blocker.iterations.c",
    "reducer.essential",
    "reducer.apply_rr1.fired", "reducer.apply_rr2.fired", "reducer.apply_rr3.fired",
    "solver.nodes", "solver.leaves", "solver.enumerations",
)


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Span and count totals for the wrapped functions, kept in memory."""

    def __init__(self):
        # span name -> [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list] = {name: [0, 0.0, 0.0] for name in span_names()}
        # (parent span or "-", span) -> [calls, inclusive seconds]
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        total = self.spans[name]
        stack, edges, counts = self._stack, self.edges, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += took
                total[0] += 1
                total[1] += took
                total[2] += took - frame[1]
                edge = edges.setdefault((parent, name), [0, 0.0])
                edge[0] += 1
                edge[1] += took
            if hook is not None:
                hook(counts, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "mwns" or key.startswith("mwns."))]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"mwns.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                hook = HOOKS.get((layer, fn))
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._set(cls, attr, self._wrap(name, original, hook))
                    continue
                original = getattr(home, fn)
                wrapped = self._wrap(name, original, hook)
                for m in modules:
                    if m.__dict__.get(fn) is original:
                        self._set(m, fn, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Totals so far, as plain data; later calls keep accumulating."""
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "edges": {f"{p} > {c}": list(v) for (p, c), v in sorted(self.edges.items())},
            "counts": {k: self.counts[k] for k in COUNT_NAMES},
        }


def difference(after: dict, before: dict) -> dict:
    """Per-span and per-count totals accumulated between two snapshots."""
    spans = {k: [a - b for a, b in zip(v, before["spans"][k])]
             for k, v in after["spans"].items()}
    counts = {k: v - before["counts"][k] for k, v in after["counts"].items()}
    edges = {}
    for k, v in after["edges"].items():
        b = before["edges"].get(k, [0, 0.0])
        if v[0] - b[0]:
            edges[k] = [v[0] - b[0], v[1] - b[1]]
    return {"spans": spans, "edges": edges, "counts": counts}


def layer_metrics(load: dict, passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: the instance load plus the median traced pass."""
    def med(get) -> float:
        return get(load) + statistics.median(get(p) for p in passes)

    out: dict[str, tuple[float, str]] = {}
    for name in span_names():
        for i, (suffix, unit) in enumerate((("calls", "count"), ("s", "s"), ("self_s", "s"))):
            out[f"{name}.{suffix}"] = (med(lambda d: d["spans"][name][i]), unit)
    for name in COUNT_NAMES:
        out[name] = (med(lambda d: d["counts"][name]), "count")
    return out
