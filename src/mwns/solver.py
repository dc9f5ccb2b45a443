"""Exact decision/search: brute-force oracle, important-separator branching,
and iterative compression above the terminal bound."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from .graph import Graph
from .blockcut import biconnected_blocks
from .blocker import _recording
from .core import (
    Instance,
    SolveResult,
    crowded_blocks,
    has_t_cycle,
    is_mwns,
    terminals_independent,
)
from .reducer import lift_solution, minimalize, reduce_terminals, terminal_bound
from .separators import _SplitNet, enumerate_important_separators

ORACLE_LIMIT = 10**7


@dataclass
class SearchStats:
    """What one `solve` did: counters summed over its searches, and its trace,
    one line per search, each after the lines of its reduction's blocker runs.
    A node that the failed-kernel memo or the budget-1 flow settles counts as
    one node and one leaf, and runs no enumeration."""
    nodes: int = 0
    leaves: int = 0
    enumerations: int = 0
    max_depth: int = 0
    compressions: int = 0  # searches run
    wall_time: float = 0.0
    trace: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        return [
            f"nodes={self.nodes}",
            f"leaves={self.leaves}",
            f"enumerations={self.enumerations}",
            f"max_depth={self.max_depth}",
            f"compressions={self.compressions}",
            f"wall_time={self.wall_time:.3f}",
        ]


def leaf_bound(terminals: int, k: int) -> int:
    """(32|T'|)^k, the most leaves a search with |T'| crowded terminals may reach."""
    return max(1, (32 * terminals) ** k)


def oracle_solve(inst: Instance) -> SolveResult:
    """Ground truth by ascending-size subset enumeration over non-terminals."""
    g, T, k = inst.graph, inst.terminals, inst.k
    if not terminals_independent(g, T):
        return SolveResult.no()
    pool = sorted(v for v in g.vertices if v not in T)
    if sum(math.comb(len(pool), r) for r in range(min(k, len(pool)) + 1)) > ORACLE_LIMIT:
        raise ValueError("instance too large for exhaustive enumeration")
    if not has_t_cycle(g, T):
        return SolveResult.yes(frozenset())
    for r in range(1, k + 1):
        for combo in itertools.combinations(pool, r):
            if is_mwns(g, T, frozenset(combo)):
                return SolveResult.yes(frozenset(combo))
    return SolveResult.no()


def oracle_opt_x(g: Graph, T, x: int) -> int:
    """Minimum size of a near-separator avoiding x, by enumeration."""
    T = frozenset(T)
    if foreign := g.foreign(T | {x}):
        raise ValueError(f"vertices {foreign} of T or x are not in the graph")
    if not terminals_independent(g, T):
        raise ValueError("no near-separator exists: terminals are adjacent")
    pool = sorted(v for v in g.vertices if v not in T and v != x)
    if 2 ** len(pool) > ORACLE_LIMIT:
        raise ValueError("instance too large for exhaustive enumeration")
    for r in range(len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            if is_mwns(g, T, frozenset(combo)):
                return r
    raise AssertionError("deleting every non-terminal always works for independent T")


def _search(g: Graph, T: frozenset[int], k: int, stats: SearchStats, blocks: list[frozenset[int]],
            reduction: str = "kernel") -> frozenset[int] | None:
    """A near-separator of (g, T) of size at most k, or None if none exists.

    Branches on important separators of each crowded terminal, one sharing a
    block with another terminal, taking a whole separator or all but one of
    its vertices; at most (32|T'|)^k leaves, T' the crowded terminals of g.
    `blocks` are g's crowded blocks (those holding two or more terminals),
    read by the caller; g is cut once to their union, the crowded kernel K,
    which keeps exactly its solutions, and every flow runs on one network of
    K. A node is its list of crowded blocks, read where its parent branches:
    a block of a subgraph lies inside a block of K, so deleting `part` from
    the node's kernel U leaves the crowded blocks of g[U - part]. The root is
    `blocks`, since each crowded block of g is 2-connected in g[K] and so one
    of its blocks.

    Two shortcuts skip only subtrees that fail, so a YES is the set the full
    branching finds first. A node's work depends only on its kernel and
    budget, and a kernel that failed at budget b fails at any budget up to b:
    a dict keeps each failed kernel's largest budget, and a node it covers is
    a leaf. At budget 1 one flow from t1 to t2, the two smallest terminals of
    the node's first crowded block, inside that block, comes first: three
    internally disjoint paths leave two after any one deletion (Menger), so
    the node is a leaf; any other value branches.

    Counts go into `stats`, which gains one trace line for the search, tagged
    `reduction` ("full" after `reduce_terminals`); a leaf past the bound raises.
    """
    K = frozenset().union(*blocks)
    g, T = g.induced(K), T & K
    net = _SplitNet(g)
    failed: dict[frozenset[int], int] = {}  # kernel -> the largest budget it failed at
    nodes, leaves = stats.nodes, stats.leaves
    last = leaves + leaf_bound(len(T), k)

    def leaf() -> None:
        stats.leaves += 1
        if stats.leaves > last:
            raise RuntimeError(f"search passed its leaf bound (32|T'|)^k with "
                               f"|T'| = {len(T)}, k = {k}")

    def three_paths(block: frozenset[int]) -> bool:
        t1, t2 = sorted(block & T)[:2]
        return net.flow((t1,), (t2,), (t1, t2), K - block, stop=3) == 3

    def rec(blocks: list[frozenset[int]], budget: int, depth: int) -> frozenset[int] | None:
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        # T stays independent in every node, so a block holding two terminals
        # has three or more vertices: no crowded block iff there is no T-cycle
        if not blocks:
            leaf()
            return frozenset()
        kernel = frozenset().union(*blocks)
        if budget <= failed.get(kernel, 0):
            leaf()  # no budget left, or a kernel that failed with as much
            return None
        if budget == 1 and three_paths(blocks[0]):
            failed[kernel] = 1
            leaf()
            return None
        gone, crowded = K - kernel, kernel & T
        branched = False
        for t in sorted(crowded):
            stats.enumerations += 1
            # t shares a block with a sink, so no separator is empty
            for sep in enumerate_important_separators(g, {t}, crowded - {t}, budget + 1,
                                                      undeletable=T, deleted=gone, net=net):
                parts = [sep] + [sep - {v} for v in sorted(sep)] if len(sep) >= 2 else [sep]
                for part in (p for p in parts if len(p) <= budget):
                    branched = True
                    child = crowded_blocks(biconnected_blocks(g, gone | part), T)
                    sol = rec(child, budget - len(part), depth + 1)
                    if sol is not None:
                        return part | sol
        failed[kernel] = budget
        if not branched:
            leaf()
        return None

    found = rec(blocks, k, 0)
    stats.compressions += 1
    stats.trace.append(f"compress terminals={len(T)} budget={k} nodes={stats.nodes - nodes} "
                       f"leaves={stats.leaves - leaves} reduction={reduction}")
    return found


def compression_step(inst: Instance, s_big, stats: SearchStats | None = None) -> SolveResult:
    """Shrink a (k+1)-size near-separator to size k, or decide NO: the paper's
    step, `reduce_terminals` with Ŝ = s_big, `_search`, then `lift_solution`.
    `build_1_redundant` rejects an Ŝ that meets T, names ids outside G or
    does not separate T, on its one decomposition of G - Ŝ."""
    s_big = frozenset(s_big)
    if len(s_big) != inst.k + 1:
        raise ValueError("need a near-separator of size exactly k+1")
    reduced, log, feasible = reduce_terminals(inst, s_big)
    if not feasible:
        return SolveResult.no()
    blocks = crowded_blocks(biconnected_blocks(reduced.graph), reduced.terminals)
    found = _search(reduced.graph, reduced.terminals, reduced.k,
                    SearchStats() if stats is None else stats, blocks, "full")
    if found is None:
        return SolveResult.no()
    return SolveResult.yes(lift_solution(log, found))


def solve(inst: Instance) -> SolveResult:
    """Exact answer by one `_search` on G, whose root node is G's crowded kernel.

    Only above `terminal_bound(k, k+1)` crowded terminals, where the terminal
    reduction can fire, does iterative compression run to give each step its
    Ŝ. A block of a prefix G[P + T] lies inside a block of G, so no prefix has
    more crowded terminals than G: below the bound no step would reduce.
    The blockers of those reductions trace into the result's stats.
    """
    start = time.monotonic()
    stats = SearchStats()
    token = _recording.set(stats.trace)
    try:
        solution = _decide(inst, stats)
    finally:
        _recording.reset(token)
    stats.wall_time = time.monotonic() - start
    g, T, k = inst.graph, inst.terminals, inst.k
    if solution is not None and not (is_mwns(g, T, solution) and len(solution) <= k):
        raise RuntimeError(f"solver certificate {sorted(solution)} is not a "
                           f"near-separator of size <= {k}")
    return SolveResult(solution, stats)


def _decide(inst: Instance, stats: SearchStats) -> frozenset[int] | None:
    g, T, k = inst.graph, inst.terminals, inst.k
    if not terminals_independent(g, T):
        return None
    # T is independent, so a block holding two terminals carries a T-cycle
    blocks = crowded_blocks(biconnected_blocks(g), T)
    if not blocks:
        return frozenset()
    if k == 0:
        return None
    if len(T & set().union(*blocks)) <= terminal_bound(k, k + 1):
        found = _search(g, T, k, stats, blocks)
        return None if found is None else minimalize(g, T, found)

    pool = sorted(v for v in g.vertices if v not in T)
    current = frozenset(pool[: k + 1])
    for i in range(k + 1, len(pool) + 1):
        if len(current) <= k:
            # the previous solution extended by one vertex already fits the budget
            if i < len(pool):
                current = current | {pool[i]}
            continue
        # compression_step checks that current separates this subgraph
        sub = g.induced(set(pool[:i]) | T)
        result = compression_step(Instance(sub, T, k), current, stats)
        if not result.is_yes:
            return None
        if i < len(pool):
            current = result.solution | {pool[i]}
        else:
            current = result.solution
    return current
