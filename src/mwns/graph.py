"""Undirected simple graphs with stable integer vertex ids."""

from __future__ import annotations

from collections import deque
from typing import Iterable


class Graph:
    """Immutable undirected simple graph on integer vertices >= 1.

    Vertex deletion and induced subgraphs return new Graph objects; the
    adjacency structure of an existing instance never changes, so one
    `index` serves every reader, which need not copy a vertex subset out.
    """

    __slots__ = ("_adj", "_vertices", "_index")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        adj: dict[int, set[int]] = {}
        for v in vertices:
            v = int(v)
            if v < 1:
                raise ValueError(f"vertex ids must be >= 1, got {v}")
            adj.setdefault(v, set())
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u},{v}) references an undeclared vertex")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        self._vertices = tuple(sorted(self._adj))
        self._index = None

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def foreign(self, vs: Iterable[int]) -> list[int]:
        """The ids among `vs` that are not vertices of this graph, ascending."""
        return sorted(frozenset(vs).difference(self._adj))

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def index(self) -> tuple[dict[int, int], list[tuple[int, ...]]]:
        """Vertex -> its position in `vertices`, and per position the ascending
        tuple of its neighbours' positions: built once, shared, not to be modified."""
        if self._index is None:
            pos = {v: i for i, v in enumerate(self._vertices)}
            self._index = pos, [tuple(sorted(map(pos.__getitem__, self._adj[v]))) for v in self._vertices]
        return self._index

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self._vertices for v in sorted(self._adj[u]) if u < v]

    def induced(self, vs: Iterable[int]) -> "Graph":
        keep = set(vs)
        adj = self._adj
        if not keep <= adj.keys():
            raise ValueError(f"unknown vertices {sorted(keep - adj.keys())}")
        sub = Graph.__new__(Graph)  # this graph's ids and edges are already valid
        sub._adj = {v: adj[v] & keep for v in keep}
        sub._vertices = tuple(sorted(keep))
        sub._index = None
        return sub

    def without(self, vs: Iterable[int]) -> "Graph":
        return self.induced(self._adj.keys() - set(vs))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._vertices, frozenset(self.edges())))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def reachable(g: Graph, sources: Iterable[int], removed: Iterable[int] = ()) -> set[int]:
    """Vertices reachable from `sources` in g minus `removed` (sources not in removed)."""
    blocked = set(removed)
    seen = {s for s in sources if s not in blocked}
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w not in seen and w not in blocked:
                seen.add(w)
                queue.append(w)
    return seen


def connected_components(g: Graph) -> list[list[int]]:
    """Maximal connected vertex sets, each sorted; list ordered by smallest member."""
    out = []
    seen: set[int] = set()
    for v in g.vertices:
        if v in seen:
            continue
        comp = reachable(g, [v])
        seen |= comp
        out.append(sorted(comp))
    return out


def shortest_path(g: Graph, start: int, targets: Iterable[int], removed: Iterable[int] = ()) -> list[int] | None:
    """BFS path from `start` to the nearest vertex of `targets`, or None."""
    goal = set(targets)
    blocked = set(removed)
    if start in blocked:
        return None
    if start in goal:
        return [start]
    prev = {start: start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in sorted(g.neighbors(u)):
            if w in prev or w in blocked:
                continue
            prev[w] = u
            if w in goal:
                path = [w]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                return path[::-1]
            queue.append(w)
    return None
