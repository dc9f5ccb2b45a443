"""Exact, approximate, and preprocessing algorithms for multiway near-separators.

`import mwns` loads no layer: each public name and each submodule is
imported on first access (PEP 562), so a caller pays only for the layers it
reads. Names are looked up in their home module at every access and never
stored here, so a patched `mwns.solver.solve` is what `mwns.solve` gives.
"""

from importlib import import_module

# home module -> the public names it defines; __all__ lists them in this order
_EXPORTS = {
    "graph": ("Graph", "connected_components"),
    "blockcut": ("BlockCutForest", "block_cut_forest"),
    "core": ("Instance", "SolveResult", "is_mwns", "find_t_cycle", "has_t_cycle",
             "has_two_ivd_paths", "nearly_separated_terminals"),
    "separators": ("max_vertex_flow", "min_separator", "enumerate_important_separators",
                   "path_through_forced_vertex", "max_terminals_on_path", "gallai_q_paths"),
    # the pivot-avoiding 14-approximation and its per-iteration trace
    "blocker": ("blocker_run",),
    "reducer": ("ReductionLog", "build_1_redundant", "lift_solution", "reduce_terminals"),
    "solver": ("SearchStats", "compression_step", "oracle_opt_x", "oracle_solve", "solve"),
    # lemma witnesses: the tests call them, the pipeline above never does
    "witness": ("separating_cut_vertex", "path_through_vertex_in_block", "threaded_path",
                "find_separable_leaf_terminal", "pushing_lemma_witness"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "instance_io", "gen", "dot", "cli"))

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
