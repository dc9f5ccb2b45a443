"""Problem instances, the near-separator predicate, and T-cycle machinery."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .graph import Graph, connected_components, reachable, shortest_path
from .blockcut import biconnected_blocks, block_cut_forest
from .separators import SeparatorQuery, max_vertex_flow


@dataclass(frozen=True)
class Instance:
    graph: Graph
    terminals: frozenset[int]
    k: int

    def __post_init__(self):
        if not self.terminals <= set(self.graph.vertices):
            raise ValueError("terminals must be vertices of the graph")
        if self.k < 0:
            raise ValueError("budget must be >= 0")

    @staticmethod
    def of(graph: Graph, terminals: Iterable[int], k: int) -> "Instance":
        return Instance(graph, frozenset(terminals), k)

    def is_trivial(self) -> bool:
        return is_mwns(self.graph, self.terminals, frozenset())


@dataclass(frozen=True)
class SolveResult:
    solution: frozenset[int] | None
    stats: object = field(default=None, compare=False)

    @property
    def is_yes(self) -> bool:
        return self.solution is not None

    @staticmethod
    def yes(solution: Iterable[int], stats=None) -> "SolveResult":
        return SolveResult(frozenset(solution), stats)

    @staticmethod
    def no(stats=None) -> "SolveResult":
        return SolveResult(None, stats)

    def __repr__(self) -> str:
        if self.is_yes:
            return f"YES({sorted(self.solution)})"
        return "NO"


def terminals_independent(g: Graph, T: Iterable[int]) -> bool:
    T = frozenset(T)
    return all(not g.has_edge(u, v) for u in T for v in g.neighbors(u) if v in T)


def is_mwns(g: Graph, T: Iterable[int], S: Iterable[int]) -> bool:
    """True iff deleting S leaves the terminals pairwise nearly separated:
    T independent and no block of G-S carries two terminals."""
    T, S = frozenset(T), frozenset(S)
    if S & T:
        raise ValueError("deletion set intersects the terminal set")
    if not terminals_independent(g, T):
        return False
    return all(len(b & T) <= 1 for b in biconnected_blocks(g, exclude=S))


def find_t_cycle(g: Graph, T: Iterable[int]) -> list[int] | None:
    """A simple cycle through two terminals, as a vertex list without the
    closing repeat; a plain edge between two terminals is reported as the
    degenerate 2-element witness. None if neither exists."""
    T = frozenset(T)
    best_edge = None
    for b in sorted(biconnected_blocks(g), key=lambda b: sorted(b)):
        terms = sorted(b & T)
        if len(terms) < 2:
            continue
        t1, t2 = terms[0], terms[1]
        if len(b) == 2:
            if best_edge is None:
                best_edge = [t1, t2]
            continue
        sub = g.induced(b)
        if sub.has_edge(t1, t2):
            # close the edge through a third vertex; 2-connectivity keeps
            # t2 reachable after removing t1
            for w in sorted(sub.neighbors(t1) - {t2}):
                rest = shortest_path(sub, w, [t2], removed={t1})
                if rest is not None:
                    return [t1] + rest
            raise AssertionError("2-connected block lost connectivity")
        value, paths = max_vertex_flow(SeparatorQuery.of(sub, {t1}, {t2}))
        assert value >= 2, "2-connected block must carry two disjoint routes"
        p1, p2 = paths[0], paths[1]
        return p1 + p2[-2:0:-1]
    return best_edge


def has_t_cycle(g: Graph, T: Iterable[int]) -> bool:
    T = frozenset(T)
    return any(len(b & T) >= 2 for b in biconnected_blocks(g) if len(b) >= 3)


def has_two_ivd_paths(g: Graph, t1: int, t2: int) -> bool:
    """Two internally vertex-disjoint t1-t2 paths; an edge counts as two.

    By Menger's theorem this holds exactly when t1 and t2 share a block: a
    block with three or more vertices is 2-connected, and a 2-vertex block
    is the edge itself.
    """
    if t1 == t2:
        raise ValueError("vertices must be distinct")
    return any(t1 in b and t2 in b for b in biconnected_blocks(g))


def _crowded_terminals(blocks: Iterable[frozenset[int]], T: frozenset[int]) -> set[int]:
    """Terminals that share one of `blocks` with another terminal."""
    out: set[int] = set()
    for b in blocks:
        hit = b & T
        if len(hit) >= 2:
            out |= hit
    return out


def nearly_separated_terminals(g: Graph, T: Iterable[int]) -> set[int]:
    """Terminals with no partner reachable by two internally disjoint paths:
    those that share no block of g with another terminal."""
    T = frozenset(T)
    return set(T) - _crowded_terminals(biconnected_blocks(g), T)


def find_separable_leaf_terminal(g: Graph, T: Iterable[int], S: Iterable[int]
                                 ) -> tuple[int, int]:
    """A terminal t and non-terminal v such that S + v separates t from all
    other terminals, following the deepest-terminal argument on the block-cut
    tree of a component of G-S."""
    T, S = frozenset(T), frozenset(S)
    if not is_mwns(g, T, S):
        raise ValueError("S must be a multiway near-separator")
    remaining = g.without(S)
    comps = connected_components(remaining)
    for comp in comps:
        if len(set(comp) & T) == 1:
            # S already separates this terminal; any extra non-terminal keeps it so
            t = min(set(comp) & T)
            extras = sorted(S) or sorted(set(g.vertices) - T)
            if not extras:
                raise ValueError("graph has no non-terminal to return")
            return t, extras[0]
    multi = [c for c in comps if len(set(c) & T) >= 2]
    if not multi:
        raise ValueError("no terminal to separate")
    comp = set(multi[0])
    f = block_cut_forest(remaining.induced(comp))

    def depth_of(t: int) -> tuple[int, int]:
        blocks = [nid for nid in f.blocks_containing(t)]
        return min(f.depth[b] for b in blocks), -t

    t_star = max(sorted(comp & T), key=depth_of)
    top_block = min(f.blocks_containing(t_star), key=lambda b: f.depth[b])
    parent_cut = f.parent[top_block]
    assert parent_cut is not None, "deepest terminal cannot sit in the root block"
    v = f.nodes[parent_cut].vertex
    assert v not in T
    # contract check: S + v separates t* from every other terminal
    reach = reachable(g, [t_star], S | {v})
    assert not (reach & (T - {t_star}))
    return t_star, v
