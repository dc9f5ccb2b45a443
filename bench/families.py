"""Seeded instance families of the benchmark, generated without `mwns`.

Every generator takes a `random.Random` and returns plain `Spec` values, so a
change to `mwns.gen` cannot change a workload. Vertex ids are 1..n, as the
instance file format requires.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Spec:
    """One instance: vertices 1..n, undirected edges, terminals, budget."""

    n: int
    edges: tuple[tuple[int, int], ...]
    terminals: frozenset[int]
    k: int
    pivot: int | None = None  # tree_blocker: the vertex x to avoid
    planted: frozenset[int] = field(default_factory=frozenset)  # petal_reduce: S-hat

    def text(self) -> str:
        """The instance in the `p mwns` line format that `parse_instance` reads."""
        lines = [f"p mwns {self.n} {len(self.edges)}"]
        lines += [f"e {u} {v}" for u, v in self.edges]
        lines += [f"t {t}" for t in sorted(self.terminals)]
        lines.append(f"k {self.k}")
        return "\n".join(lines) + "\n"

    def relabeled(self, rng: random.Random) -> "Spec":
        """The same instance, without pivot or planted set, under a random
        permutation of the vertex ids."""
        perm = list(range(1, self.n + 1))
        rng.shuffle(perm)
        m = dict(zip(range(1, self.n + 1), perm))
        edges = tuple(sorted(tuple(sorted((m[u], m[v]))) for u, v in self.edges))
        return Spec(self.n, edges, frozenset(m[t] for t in self.terminals), self.k)


def _adjacent(edges, u: int, v: int) -> bool:
    return (u, v) in edges or (v, u) in edges


# -- random_solve ------------------------------------------------------------

def edge_probability(rng: random.Random, n: int, p: float, terminals: int, k: int) -> Spec:
    """G(n, p) with an independent terminal set drawn uniformly."""
    while True:
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < p]
        es = set(edges)
        for _ in range(200):
            T = rng.sample(range(1, n + 1), terminals)
            if not any(_adjacent(es, a, b) for a in T for b in T if a < b):
                return Spec(n, tuple(edges), frozenset(T), k)


def multiway_cut_encoding(base: Spec) -> Spec:
    """Join consecutive terminals through a fresh degree-2 vertex each, so a
    near-separator must separate every terminal pair outright."""
    T = sorted(base.terminals)
    edges = list(base.edges)
    for i in range(len(T) - 1):
        w = base.n + 1 + i
        edges += [(T[i], w), (w, T[i + 1])]
    return Spec(base.n + len(T) - 1, tuple(edges), base.terminals, base.k)


# -- tree_blocker --------------------------------------------------------------

BLOCK_SHAPES = {"edge": 2, "triangle": 3, "square": 4, "chorded5": 5, "chorded6": 6}


def block_tree(rng: random.Random, blocks: int, attach: float = 0.1) -> Spec:
    """Blocks glued at random earlier vertices, at most one terminal per
    block, and a pivot (vertex 1) joined to a share `attach` of the others.

    The shapes are a bridge edge, a triangle, a square, a 5-cycle with one
    chord and a 6-cycle with one chord, taken in equal numbers in seeded
    order, so the vertex count does not depend on the seed. Terminals are
    assigned block by block to a vertex whose every block is still
    terminal-free, so a terminal may be a cut vertex. Hence {1} is a
    near-separator and the blocker's precondition holds.
    """
    names = list(BLOCK_SHAPES)
    shapes = [names[i % len(names)] for i in range(blocks)]
    rng.shuffle(shapes)
    edges: list[tuple[int, int]] = []
    members: list[list[int]] = []
    nxt = 3
    for shape in shapes:
        a = rng.randrange(2, nxt)
        size = BLOCK_SHAPES[shape]
        vs = [a] + list(range(nxt, nxt + size - 1))
        nxt += size - 1
        if size == 2:
            edges.append((vs[0], vs[1]))
        else:
            edges += [(vs[i], vs[(i + 1) % size]) for i in range(size)]
            if shape.startswith("chorded"):
                edges.append((vs[0], vs[2]))
        members.append(vs)
    blocks_of: dict[int, list[int]] = {}
    for i, vs in enumerate(members):
        for v in vs:
            blocks_of.setdefault(v, []).append(i)
    has_terminal = [False] * len(members)
    T: set[int] = set()
    for i, vs in enumerate(members):
        if has_terminal[i]:
            continue
        free = [v for v in vs if not any(has_terminal[j] for j in blocks_of[v])]
        if free:
            t = rng.choice(free)
            T.add(t)
            for j in blocks_of[t]:
                has_terminal[j] = True
    rest = list(range(2, nxt))
    joined = rng.sample(rest, max(1, round(attach * len(rest))))
    edges += [(1, v) for v in sorted(joined)]
    return Spec(nxt - 1, tuple(edges), frozenset(T), 0, pivot=1)


def pendant_chain(length: int) -> Spec:
    """Path 2..L; pivot 1 joined to 2, L+1 and L+2; terminals L+1 and L+2
    both joined to L. The block-cut forest of G - 1 is about 2L levels deep."""
    L = length
    edges = [(i, i + 1) for i in range(2, L)]
    edges += [(1, 2), (1, L + 1), (1, L + 2), (L, L + 1), (L, L + 2)]
    return Spec(L + 2, tuple(edges), frozenset({L + 1, L + 2}), 0, pivot=1)


# -- petal_reduce --------------------------------------------------------------

HUB_PAIRS = ((1, 2), (1, 3), (2, 3))


def flower(rng: random.Random, counts: tuple[int, ...], lengths: tuple[int, ...],
           pendant: int) -> Spec:
    """Hubs 1, 2, 3 joined by petal paths; terminals on every second petal
    vertex; the planted solution is the hub set and k = 3.

    `counts` petals go between the hub pairs, in an order the seed rotates;
    the petal lengths are `lengths` in seeded order, so n and the terminal
    count do not depend on the seed. One pendant path of `pendant` vertices
    hangs off a seeded hub: its terminals are nearly separated from the rest.
    """
    shift = rng.randrange(len(HUB_PAIRS))
    pairs = HUB_PAIRS[shift:] + HUB_PAIRS[:shift]
    slots = [pair for pair, c in zip(pairs, counts) for _ in range(c)]
    order = list(lengths)
    rng.shuffle(order)
    rng.shuffle(slots)
    edges: list[tuple[int, int]] = []
    T: set[int] = set()
    nxt = 4
    for (a, b), ln in zip(slots, order, strict=True):
        path = list(range(nxt, nxt + ln))
        nxt += ln
        edges += [(a, path[0]), (path[-1], b)] + list(zip(path, path[1:]))
        T.update(path[1::2])
    tail = list(range(nxt, nxt + pendant))
    nxt += pendant
    edges += [(rng.choice((1, 2, 3)), tail[0])] + list(zip(tail, tail[1:]))
    T.update(tail[1::2])
    return Spec(nxt - 1, tuple(edges), frozenset(T), 3, planted=frozenset({1, 2, 3}))
