"""The benchmark's own near-separator check, written apart from `mwns`.

S is a multiway near-separator of (G, T) when S avoids T, T is independent,
and no block of G - S holds two terminals. Blocks come from networkx, so a
fault in `mwns.blockcut` cannot hide itself here.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import networkx as nx


def nx_graph(n: int, edges: Iterable[tuple[int, int]]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(edges)
    return g


def violation(g: nx.Graph, T: Iterable[int], S: Iterable[int]) -> str | None:
    """Why S is not a near-separator of (g, T), or None when it is one."""
    T, S = frozenset(T), frozenset(S)
    if not S <= set(g):
        return f"S holds non-vertices {sorted(S - set(g))}"
    if S & T:
        return f"S holds terminals {sorted(S & T)}"
    for a, b in itertools.combinations(sorted(T), 2):
        if g.has_edge(a, b):
            return f"terminals {a} and {b} are adjacent"
    rest = g.subgraph(set(g) - S)
    for block in nx.biconnected_components(rest):
        both = sorted(block & T)
        if len(both) >= 2:
            return f"block of G-S holds terminals {both[:2]}"
    return None


def smallest_separator(g: nx.Graph, T: Iterable[int], avoid: Iterable[int] = (),
                       limit: int | None = None) -> frozenset[int] | None:
    """A smallest near-separator avoiding T and `avoid`, by exhaustive search
    over subsets in ascending size; None if none has at most `limit` vertices."""
    T = frozenset(T)
    pool = sorted(set(g) - T - set(avoid))
    top = len(pool) if limit is None else min(limit, len(pool))
    for r in range(top + 1):
        for combo in itertools.combinations(pool, r):
            if violation(g, T, combo) is None:
                return frozenset(combo)
    return None
