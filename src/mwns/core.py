"""Problem instances, the near-separator predicate, and T-cycle machinery."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .graph import Graph, shortest_path
from .blockcut import biconnected_blocks


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
    """True iff no two terminals are adjacent; T must lie in g."""
    T = frozenset(T)
    if foreign := g.foreign(T):
        raise ValueError(f"terminals {foreign} are not in the graph")
    return not any(g.neighbors(u) & T for u in T)


def is_mwns(g: Graph, T: Iterable[int], S: Iterable[int]) -> bool:
    """True iff deleting S leaves the terminals pairwise nearly separated: no
    block of G-S carries two terminals (an edge joining two is such a block).
    S must be a set of non-terminal vertices of g."""
    T, S = frozenset(T), frozenset(S)
    if S & T:
        raise ValueError("deletion set intersects the terminal set")
    if foreign := g.foreign(S):
        raise ValueError(f"deletion-set vertices {foreign} are not in the graph")
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
        # the flow layer loads here, its only use, so parsing an instance never does
        from .separators import max_vertex_flow
        value, paths = max_vertex_flow(sub, {t1}, {t2})
        if value < 2:
            raise RuntimeError("2-connected block must carry two disjoint routes")
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
    if t1 == t2 or g.foreign((t1, t2)):
        raise ValueError(f"{t1} and {t2} must be distinct vertices of the graph")
    return any(t1 in b and t2 in b for b in biconnected_blocks(g))


def crowded_blocks(blocks: Iterable[frozenset[int]], T: frozenset[int]) -> list[frozenset[int]]:
    """The `blocks` that hold two or more terminals, in their order."""
    return [b for b in blocks if len(b & T) >= 2]


def crowded_kernel(blocks: Iterable[frozenset[int]], T: frozenset[int]) -> set[int]:
    """The union U of the `blocks` that hold two or more terminals.

    Two terminals lie on a common cycle of G - S only inside one block of G,
    so when `blocks` are those of G, S solves (G, T) iff S & U solves
    (G[U], T & U); T & U are the terminals that share a block with another.
    """
    return set().union(*crowded_blocks(blocks, T))


def nearly_separated_terminals(g: Graph, T: Iterable[int],
                               blocks: Iterable[frozenset[int]] | None = None) -> set[int]:
    """Terminals with no partner reachable by two internally disjoint paths:
    those that share no block of g (`blocks` when given) with another terminal."""
    T = frozenset(T)
    if foreign := g.foreign(T):
        raise ValueError(f"terminals {foreign} are not in the graph")
    return set(T) - crowded_kernel(biconnected_blocks(g) if blocks is None else blocks, T)
