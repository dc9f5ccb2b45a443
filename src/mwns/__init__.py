"""Exact, approximate, and preprocessing algorithms for multiway near-separators."""

from .graph import Graph, connected_components
from .blockcut import BlockCutForest, block_cut_forest
from .core import (
    Instance,
    SolveResult,
    is_mwns,
    find_t_cycle,
    has_t_cycle,
    has_two_ivd_paths,
    nearly_separated_terminals,
)
from .separators import (
    max_vertex_flow,
    min_separator,
    enumerate_important_separators,
    path_through_forced_vertex,
    max_terminals_on_path,
    gallai_q_paths,
)
# the pivot-avoiding 14-approximation and its per-iteration trace
from .blocker import blocker_run
from .reducer import ReductionLog, build_1_redundant, lift_solution, reduce_terminals
from .solver import SearchStats, compression_step, oracle_opt_x, oracle_solve, solve
# lemma witnesses: the tests call them, the pipeline above never does
from .witness import (find_separable_leaf_terminal, path_through_vertex_in_block,
                      pushing_lemma_witness, separating_cut_vertex, threaded_path)

__all__ = [
    "Graph",
    "connected_components",
    "BlockCutForest",
    "block_cut_forest",
    "separating_cut_vertex",
    "path_through_vertex_in_block",
    "threaded_path",
    "Instance",
    "SolveResult",
    "is_mwns",
    "find_t_cycle",
    "has_t_cycle",
    "has_two_ivd_paths",
    "nearly_separated_terminals",
    "find_separable_leaf_terminal",
    "max_vertex_flow",
    "min_separator",
    "enumerate_important_separators",
    "path_through_forced_vertex",
    "max_terminals_on_path",
    "gallai_q_paths",
    "blocker_run",
    "ReductionLog",
    "build_1_redundant",
    "lift_solution",
    "reduce_terminals",
    "SearchStats",
    "compression_step",
    "oracle_opt_x",
    "oracle_solve",
    "pushing_lemma_witness",
    "solve",
]
