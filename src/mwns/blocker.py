"""Recursive 14-approximation for a smallest near-separator avoiding a pivot x.

A run decomposes G-x once, or takes its blocks from the caller, and carries
them across iterations: after deleting Z, only the blocks Z hits are
decomposed again (`blocks_without`). Each iteration builds the block-cut
forest of what is left of G-x from the carried blocks, reading the one graph
G, and makes one bottom-up pass over it (`_routes`). The pass finds, for
every node, the most terminals a path from the node's top vertex down to a
neighbor of x can collect, the deepest node whose closure with x still
carries a T-cycle, and the trees holding such a node. From those counts the
iteration assembles a hitting set Z for the cycles living down there, deletes
it, and recurses on the remainder. Z lies in one tree, so a tree without a
T-cycle stays a component that never gets one: the run stops carrying its
blocks. Nor does it carry the blocks below a cut vertex of Z in the subtree
of the deepest meeting node d: they hang off that vertex only, so what is
left of them makes components below d, where nothing meets (`_carried`).
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass

from .graph import Graph, reachable
from .blockcut import BlockCutForest, biconnected_blocks, block_cut_forest, blocks_without, node_label
from .core import find_t_cycle, is_mwns
from .separators import gallai_q_paths, min_cut


# the list a `solve` in progress collects its trace lines in, None outside one
_recording: ContextVar[list[str] | None] = ContextVar("mwns_recording", default=None)


@dataclass(frozen=True)
class BlockerIteration:
    index: int
    d_label: str  # d's node label, unique in a forest
    case: str  # "a" | "b" | "c"
    z_parts: tuple[frozenset[int], ...]  # Z1..Z5 (empty for cases a/b)
    removed: frozenset[int]

    def trace_line(self) -> str:
        sizes = ",".join(str(len(z)) for z in self.z_parts)
        zs = ",".join(str(v) for v in sorted(self.removed))
        return f"iter={self.index} d={self.d_label} case={self.case} |Z1..Z5|={sizes} Z={{{zs}}}"


@dataclass(frozen=True)
class BlockerRun:
    result: frozenset[int]
    iterations: tuple[BlockerIteration, ...]

    def trace_lines(self) -> list[str]:
        return [it.trace_line() for it in self.iterations]


def _routes(g: Graph, T: frozenset[int], x: int, f: BlockCutForest
            ) -> tuple[list[int], int | None, set[int]]:
    """Terminal counts of the routes down to N(x), in one bottom-up pass over f.

    reach[n] is the largest number of terminals on a path inside n's subtree
    from its top vertex (a cut node's own vertex, a block's parent cut vertex)
    to a neighbor of x, or -1 if there is none. Since {x} nearly separates T,
    every T-cycle of a subtree closure with x passes x, so the closure carries
    one iff two routes from distinct vertices meet in the subtree with two
    terminals between them. The second value is the deepest node (smallest id
    on ties) where that first happens, None if nowhere; the third holds the
    roots of the trees with such a meeting node.
    """
    nbrs = g.neighbors(x)
    free = nbrs.difference(f.cut_nodes)  # neighbors of x in one block each, if in f
    sets, cutv, cut, children, parent, depth = f.sets, f.cutv, f.cut_nodes, f.children, f.parent, f.depth
    reach = [-1] * len(sets)
    deepest = None
    met: set[int] = set()
    tree_met = False
    for nid in range(len(sets) - 1, -1, -1):  # pre-order ids: children first
        v = cutv[nid]
        par = parent[nid]
        # e0 >= e1: the two largest route counts ending here, -1 for none
        if v is not None:
            own = v in T
            e0, e1 = (0 if v in nbrs else -1), -1
            for b in children[nid]:
                r = reach[b] - own  # a block's route counts its top v, unless none
                if r > e0:
                    e0, e1 = r, e0
                elif r > e1:
                    e1 = r
            if e0 >= 0:
                reach[nid] = own + e0
            meet = e1 >= 0 and own + e0 + e1 >= 2
        else:
            # a block of three or more vertices routes any two of its vertices
            # through its terminal t (at most one, or G-x has a T-cycle); the
            # routes from t and from the top vertex are kept apart
            block = sets[nid]
            top = None if par is None else cutv[par]
            t = min(tb) if len(block) >= 3 and (tb := block & T) else None
            # fold in place the routes from the child cut vertices and the other
            # neighbors of x, t's to out_t (tc: t's child node); the top's joins
            # after reach is read, since a route up through it cannot start there
            out_t = e0 = e1 = tc = -1
            if t is not None and t != top:
                if (tc := cut.get(t, -1)) >= 0:
                    out_t = reach[tc]
                elif t in free:
                    out_t = True
            for c in children[nid]:
                if (r := reach[c]) > e1 and c != tc:
                    if r > e0:
                        e0, e1 = r, e0
                    else:
                        e1 = r
            if not free.isdisjoint(block):
                for w in block & free:
                    if w != t:
                        r = w in T
                        if r > e0:
                            e0, e1 = r, e0
                        elif r > e1:
                            e1 = r
            if top is not None:
                # a route from the top vertex leaves the block at another
                # vertex, passing t on the way if t is neither
                best = e0 if t is None or t == top else e0 + (e0 >= 0)
                if out_t > best:  # t's route: none unless t is neither
                    best = out_t
                if best >= 0:
                    reach[nid] = (top in T) + best
                r = (top in T) if top in nbrs else -1
                if top == t:
                    out_t = r
                elif r > e0:
                    e0, e1 = r, e0
                elif r > e1:
                    e1 = r
            # two routes meet here by avoiding t and passing it, or one ends at t
            meet = (e1 >= 0 and e0 + e1 + (t is not None) >= 2
                    or out_t >= 0 and e0 >= 0 and out_t + e0 >= 2)
        if meet:
            tree_met = True
            if deepest is None or depth[nid] >= depth[deepest]:
                deepest = nid
        if par is None:
            if tree_met:
                met.add(nid)
            tree_met = False
    return reach, deepest, met


def _grandchildren(f: BlockCutForest, T: frozenset[int], reach: list[int], v: int) -> frozenset[int]:
    """The members of C(v), the grandchildren of cut vertex v, whose subtree
    reaches a neighbor of x through a terminal."""
    grand = [c for y in f.children[f.cut_nodes[v]] for c in f.children[y]]
    verts = frozenset(f.cutv[c] for c in grand)
    if v in T and verts & T:
        raise RuntimeError(f"terminal cut vertex {v} has terminal grandchildren {sorted(verts & T)}")
    return frozenset(f.cutv[c] for c in grand if reach[c] >= 1)


def _block_children(f: BlockCutForest, T: frozenset[int], reach: list[int], d: int
                    ) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """The non-terminal cut children of block node d whose routes down to a
    neighbor of x carry two or more terminals, one, or none."""
    classes: tuple[set[int], ...] = (set(), set(), set())
    for c in f.children[d]:
        if (v := f.cutv[c]) not in T and reach[c] >= 0:
            classes[2 - min(reach[c], 2)].add(v)
    return tuple(frozenset(s) for s in classes)


def _read_forest(g: Graph, T: frozenset[int], x: int, index: int, f: BlockCutForest
                 ) -> tuple[BlockerIteration | None, set[int], int | None]:
    """The iteration on f, the forest of H = G-x-Z or of some of its trees,
    with Z deleted so far, the roots of f's trees holding a meeting node, and
    the id of the iteration's node d (None with no iteration).

    Once {x} nearly separates T, every T-cycle passes x and shows up in the
    closure of some subtree: no meeting node means no T-cycle is left. g is
    read only within H and from x into H. Only the first forest checks the
    pivot: every later H is a subgraph of the first.
    """
    if index == 0 and any(len(s & T) > 1 for s in f.sets):
        raise ValueError(f"{{{x}}} is not a multiway near-separator; "
                         f"offending cycle in G-x: {find_t_cycle(g.without([x]), T)}")
    reach, d, met = _routes(g, T, x, f)
    if d is None:
        return None, met, None
    v, block = f.cutv[d], f.sets[d]
    if v is not None and v not in T:
        return BlockerIteration(index, node_label(block, v), "a", (), frozenset([v])), met, d
    if v is not None:
        return BlockerIteration(index, node_label(block, v), "b", (), _grandchildren(f, T, reach, v)), met, d

    # d is a block
    t = min(block & T, default=None)  # the pivot check leaves one per block
    d_t = g.induced(block - T)
    c_ge2, c_1, c_0 = _block_children(f, T, reach, d)
    q = c_ge2 | c_1
    _, z1 = gallai_q_paths(d_t, q)

    a_side = c_ge2
    b_side = (c_0 | (g.neighbors(x) & block)) - T
    if a_side and b_side:
        # the endpoints themselves may be cut: nothing is protected
        _, z2, _ = min_cut(d_t, a_side, b_side)
    else:
        z2 = frozenset()

    z3: frozenset[int] = frozenset()
    z4: frozenset[int] = frozenset()
    if t is not None:
        # Q-vertices of the components of d_t - Z1 - Z2 next to t; with no
        # Q-path left there, each holds at most one
        z3 = q & reachable(d_t, g.neighbors(t) & (block - T), z1 | z2)
        t_child = next((c for c in f.children[d] if f.cutv[c] == t), None)
        if t_child is not None and reach[t_child] >= 2:
            z4 = _grandchildren(f, T, reach, t)
            if len(z4) > 1:
                raise RuntimeError(f"terminal {t} has terminal-reaching grandchildren {sorted(z4)} "
                                   "below a cycle-free subtree, not at most one")

    parent = f.parent[d]
    z5: frozenset[int] = frozenset()
    if parent is not None and f.cutv[parent] not in T:
        z5 = frozenset([f.cutv[parent]])

    parts = (frozenset(z1), frozenset(z2), z3, z4, z5)
    removed = frozenset().union(*parts)
    return BlockerIteration(index, node_label(block, None), "c", parts, removed), met, d


def _carried(f: BlockCutForest, met: set[int], d: int, z: frozenset[int]) -> list[frozenset[int]]:
    """The blocks of f's trees holding a meeting node, less those below a
    vertex of z whose cut node lies in the subtree of d, the deepest node
    that meets.

    Such a block lies under a child b of that cut node c, and b's subtree
    joins the rest of f only through c's vertex, which z deletes: what is
    left of it makes whole components of H - z inside b's subtree, below d,
    where nothing meets. Ids are pre-order, so c's subtree is the id range
    up to the first later id no deeper than c.
    """
    sets, cutv, depth, parent = f.sets, f.cutv, f.depth, f.parent
    holes = []  # the id ranges below those cut nodes, all in d's tree
    for v in z:
        if (c := f.cut_nodes.get(v, -1)) < d:
            continue
        up = c
        while depth[up] > depth[d]:
            up = parent[up]
        if up == d:
            end = c + 1
            while end < len(depth) and depth[end] > depth[c]:
                end += 1
            holes.append((c + 1, end))
    holes.sort(reverse=True)
    spans = []
    for root, stop in zip(f.roots, [*f.roots[1:], len(sets)]):
        if root in met:
            lo = root
            while holes and holes[-1][0] < stop:
                start, end = holes.pop()
                if start > lo:  # else the hole lies in one already passed
                    spans.append((lo, start))
                lo = max(lo, end)
            spans.append((lo, stop))
    return [s for lo, hi in spans for s, c in zip(sets[lo:hi], cutv[lo:hi]) if c is None]


def blocker_run(g: Graph, T, x: int, blocks: list[frozenset[int]] | None = None) -> BlockerRun:
    """A near-separator avoiding x, at most 14 times the smallest x-avoiding
    one, as `result`, with the per-iteration trace; `blocks`, if given, are
    the blocks of g - x, in any order."""
    T = frozenset(T)
    if x not in g or x in T:
        raise ValueError(f"pivot {x} must be a non-terminal vertex")
    if missing := g.foreign(T):
        raise ValueError(f"terminals {missing} are not vertices of the graph")
    acc: set[int] = set()
    iterations: list[BlockerIteration] = []
    # the blocks of the trees of H = G-x-Z that can still meet. A tree with
    # no meeting node is a component C of H with no T-cycle in G[C + x], and
    # every later Z lies in the tree of its d, so C stays a component of H
    # that never meets again
    blocks = biconnected_blocks(g, exclude=[x]) if blocks is None else blocks
    index = 0
    while True:
        f = block_cut_forest(g, blocks)
        it, met, d = _read_forest(g, T, x, index, f)
        if it is None:
            break
        z = set(it.removed)
        if not z or z & (T | {x}):  # an empty z would repeat the step forever
            raise RuntimeError(f"blocker iteration {index} removes {sorted(z)}, "
                               "not a nonempty set of non-pivot non-terminals")
        iterations.append(it)
        acc |= z
        blocks = blocks_without(g, _carried(f, met, d, it.removed), z)
        index += 1
    result = frozenset(acc)
    if not is_mwns(g, T, result):
        raise RuntimeError(f"blocker result {sorted(result)} is not a near-separator")
    run = BlockerRun(result, tuple(iterations))
    trace = _recording.get()
    if trace is not None and iterations:
        trace.append(f"blocker x={x}")
        trace += run.trace_lines()
    return run
