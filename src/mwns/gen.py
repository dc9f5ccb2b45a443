"""Instance generators: seeded random graphs and the multiway-cut reduction."""

from __future__ import annotations

import math
import random

from .graph import Graph
from .core import Instance, terminals_independent

GRAPH_RESAMPLES = 100  # the seeded calls in the tests and demos need at most 2
TERMINAL_DRAWS = 200  # terminal sets drawn per graph


def random_instance(n: int, p: float, terminals: int, k: int, seed: int,
                    independent: bool = True) -> Instance:
    """Reproducible edge-probability graph with a sampled terminal set.

    With independent=True the sampling repeats until the terminal set is an
    independent set (dependent terminals make the instance trivially NO), in
    at most GRAPH_RESAMPLES graphs, and raises ValueError after that, or at
    once when fewer than 0.01 independent sets are expected in all the draws.
    """
    if not 0 <= terminals <= n:
        raise ValueError("terminal count out of range")
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability {p} is outside [0, 1]")
    # each terminal pair is an edge with probability p, independently
    expected = GRAPH_RESAMPLES * TERMINAL_DRAWS * (1 - p) ** math.comb(terminals, 2)
    if independent and expected < 0.01:
        raise ValueError(f"no independent set of {terminals} terminals is likely in "
                         f"{GRAPH_RESAMPLES} graphs with n={n}, p={p} ({expected:.2g} expected)")
    rng = random.Random(seed)
    for _ in range(GRAPH_RESAMPLES):
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < p]
        g = Graph(range(1, n + 1), edges)
        for _ in range(TERMINAL_DRAWS):
            T = frozenset(rng.sample(range(1, n + 1), terminals))
            if not independent or terminals_independent(g, T):
                return Instance(g, T, k)
        # dense graph with no independent choice of this size: resample it
    raise ValueError(f"no independent set of {terminals} terminals turned up in "
                     f"{GRAPH_RESAMPLES} graphs with n={n}, p={p}")


def from_multiway_cut(inst: Instance) -> Instance:
    """Encode a multiway separator instance: consecutive terminals get a fresh
    degree-2 neighbor, so full separation is needed exactly when every
    terminal pair is nearly separated."""
    g, T = inst.graph, sorted(inst.terminals)
    base = max(g.vertices) if g.vertices else 0
    new_vertices = list(g.vertices)
    new_edges = g.edges()
    for i in range(len(T) - 1):
        w = base + 1 + i
        new_vertices.append(w)
        new_edges.append((T[i], w))
        new_edges.append((w, T[i + 1]))
    return Instance(Graph(new_vertices, new_edges), inst.terminals, inst.k)


def pivot_instance(n: int, p: float, terminals: int, seed: int) -> tuple[Instance, int]:
    """Instance plus a vertex x such that {x} is a near-separator: terminals
    are planted one-per-block of a random graph, then x is attached."""
    if n < 2:
        raise ValueError("need at least two vertices")
    rng = random.Random(seed)
    from .blockcut import biconnected_blocks

    edges = [(u, v) for u in range(2, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < p]
    h = Graph(range(2, n + 1), edges)
    blocks = biconnected_blocks(h)
    order = list(h.vertices)
    rng.shuffle(order)
    T: set[int] = set()
    for v in order:
        if len(T) >= terminals:
            break
        if any(v in b and (b & T) for b in blocks):
            continue
        if h.neighbors(v) & T:
            continue
        T.add(v)
    x = 1
    attach = [v for v in h.vertices if rng.random() < 0.5]
    if not attach:
        attach = [order[0]]
    g = Graph(range(1, n + 1), edges + [(x, v) for v in attach])
    k = len([v for v in g.vertices if v not in T]) - 1
    return Instance(g, frozenset(T), max(k, 0)), x
