"""Constructive witnesses of the paper's lemmas, kept apart from the pipeline.

Nothing in `solve`, `blocker_run` or `reduce_terminals` calls these; the
tests use them to check the structural claims the algorithms rest on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, connected_components, reachable, shortest_path
from .blockcut import BlockCutForest, block_cut_forest
from .core import Instance, is_mwns
from .separators import enumerate_important_separators, path_through_forced_vertex


def separating_cut_vertex(f: BlockCutForest, e: tuple[int, int]) -> tuple[int, frozenset[int], frozenset[int]]:
    """For a tree edge e, the incident cut vertex v and the vertex sets of the
    two sides of the tree split at e (block-endpoint side first). Every path
    between the two sides minus v passes through v."""
    a, b = e
    if f.parent[b] == a:
        par, child = a, b
    elif f.parent[a] == b:
        par, child = b, a
    else:
        raise ValueError(f"({a},{b}) is not a tree edge")
    v = f.cutv[par] if f.cutv[child] is None else f.cutv[child]
    below = f.subtree_vertices(child)
    above = (f.subtree_vertices(f.index.root[par]) - below) | {v}
    return (v, below, above) if f.cutv[child] is None else (v, above, below)


def path_through_vertex_in_block(
    block: frozenset[int], g: Graph, p: int, q: int, t: int
) -> tuple[list[int], list[int]]:
    """Inside a block with >= 3 vertices, a p-t path and a q-t path meeting only at t.

    Their concatenation is a simple p-q path through t.
    """
    if len({p, q, t}) != 3:
        raise ValueError("p, q, t must be distinct")
    if not {p, q, t} <= block:
        raise ValueError("p, q, t must lie in the block")
    if len(block) < 3:
        raise ValueError("block is a single edge")
    path = path_through_forced_vertex(g.induced(block), {p}, {q}, t)
    assert path is not None, "block must be 2-connected"
    i = path.index(t)
    return path[:i + 1], path[i:][::-1]


def threaded_path(
    g: Graph,
    f: BlockCutForest,
    x: int,
    y: int,
    forced: Iterable[tuple[frozenset[int], int]] = (),
) -> list[int] | None:
    """Simple x-y path (x, y cut vertices of one tree) visiting one forced
    vertex per named block on the x-y tree path.

    None when x or y is not a cut vertex of a common tree; ids outside g and
    malformed forced picks raise instead.
    """
    if foreign := g.foreign((x, y)):
        raise ValueError(f"endpoints {foreign} are not in the graph")
    if not (x in f.cut_nodes and y in f.cut_nodes):
        return None
    nx_, ny_ = f.cut_nodes[x], f.cut_nodes[y]
    if f.index.root[nx_] != f.index.root[ny_]:
        return None
    path_nodes = f.tree_path(nx_, ny_)
    picks: dict[frozenset[int], int] = {}
    on_path = {f.sets[nid] for nid in path_nodes if f.cutv[nid] is None}
    for block, v in forced:
        block = frozenset(block)
        if block not in on_path:
            raise ValueError(f"forced pick names block {sorted(block)} off the tree path")
        if block in picks:
            raise ValueError("two forced picks in one block")
        if v not in block:
            raise ValueError(f"forced vertex {v} not inside its block")
        picks[block] = v
    result = [x]
    for i in range(1, len(path_nodes) - 1, 2):
        entry, exit_ = f.cutv[path_nodes[i - 1]], f.cutv[path_nodes[i + 1]]
        block = f.sets[path_nodes[i]]
        pick = picks.get(block)
        if pick is None or pick in (entry, exit_):
            seg = shortest_path(g.induced(block), entry, [exit_])
        else:
            p_side, q_side = path_through_vertex_in_block(block, g, entry, exit_, pick)
            seg = p_side + q_side[-2::-1]
        assert seg is not None
        result.extend(seg[1:])
    return result


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
        return min(f.depth[b] for b in f.blocks_containing(t)), -t

    t_star = max(sorted(comp & T), key=depth_of)
    top_block = min(f.blocks_containing(t_star), key=lambda b: f.depth[b])
    parent_cut = f.parent[top_block]
    assert parent_cut is not None, "deepest terminal cannot sit in the root block"
    v = f.cutv[parent_cut]
    assert v not in T
    # contract check: S + v separates t* from every other terminal
    reach = reachable(g, [t_star], S | {v})
    assert not (reach & (T - {t_star}))
    return t_star, v


@dataclass(frozen=True)
class PushingWitness:
    terminal: int
    separator: frozenset[int]
    solution: frozenset[int]
    kind: str  # "subset" (whole separator inside) | "all-but-one"
    omitted: int | None


def pushing_lemma_witness(inst: Instance, S) -> PushingWitness:
    """Search an optimal solution and an important separator certifying the
    branching rule: either a separator of size <= k inside some optimal
    solution, or one of size <= k+1 all but one vertex of which is inside."""
    g, T, k = inst.graph, inst.terminals, inst.k
    S = frozenset(S)
    if inst.is_trivial() or not is_mwns(g, T, S):
        raise ValueError("need an optimal solution of a non-trivial instance")
    pool = sorted(v for v in g.vertices if v not in T)
    optima = [frozenset(c) for c in itertools.combinations(pool, len(S))
              if is_mwns(g, T, frozenset(c))]
    for t in sorted(T):
        seps = enumerate_important_separators(g, {t}, T - {t}, k + 1, undeletable=T)
        for sep in seps:
            for opt in optima:
                if len(sep) <= k and sep <= opt:
                    return PushingWitness(t, sep, opt, "subset", None)
        for sep in seps:
            for v in sorted(sep):
                for opt in optima:
                    if sep - {v} <= opt:
                        return PushingWitness(t, sep, opt, "all-but-one", v)
    raise AssertionError("pushing lemma witness must exist for an optimal solution")
