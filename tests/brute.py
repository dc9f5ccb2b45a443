"""Independent brute-force oracles the tests check the library against."""

from __future__ import annotations

import inspect
import itertools
import math
import random
from typing import Iterable, NamedTuple

from hypothesis import strategies as st

from mwns.blockcut import (BlockCutForest, VertexIndex, biconnected_blocks, block_cut_forest, blocks_without,
                           nested_cut_pairs)
from mwns.blocker import BlockerIteration, BlockerRun, _read_forest
from mwns.core import Instance, crowded_kernel, is_mwns, terminals_independent
from mwns.graph import Graph, connected_components, reachable
from mwns.reducer import DropComponentTerminal, _apply_step
from mwns.separators import INF, _SplitNet, min_cut, terminals_on_path
from mwns.solver import oracle_opt_x, oracle_solve


def all_simple_paths(g: Graph, a: int, b: int) -> list[list[int]]:
    out: list[list[int]] = []

    def rec(path, used):
        if path[-1] == b:
            out.append(list(path))
            return
        for w in sorted(g.neighbors(path[-1])):
            if w not in used:
                path.append(w)
                used.add(w)
                rec(path, used)
                path.pop()
                used.discard(w)

    if a in g and b in g:
        rec([a], {a})
    return out


def two_ivd_paths_exist(g: Graph, t1: int, t2: int) -> bool:
    """Two internally vertex-disjoint t1-t2 paths, by path enumeration.

    An edge counts: the path may be identical to itself when it has no
    internal vertices.
    """
    paths = all_simple_paths(g, t1, t2)
    for p in paths:
        if len(p) == 2:
            return True
    for p, q in itertools.combinations(paths, 2):
        if not (set(p[1:-1]) & set(q[1:-1])):
            return True
    return False


def all_cycles(g: Graph) -> list[list[int]]:
    """All simple cycles (>= 3 vertices), each listed once."""
    seen = set()
    out = []
    for a in g.vertices:
        for b in sorted(g.neighbors(a)):
            if b < a:
                continue
            for p in all_simple_paths(g, a, b):
                if len(p) >= 3:
                    key = frozenset(p)
                    canon = tuple(sorted(p))
                    if (key, canon) not in seen:
                        seen.add((key, canon))
                        out.append(p)
    # distinct vertex sets may still repeat cycles; good enough for existence tests
    return out


def has_t_cycle_brute(g: Graph, T) -> bool:
    T = frozenset(T)
    return any(len(set(c) & T) >= 2 for c in all_cycles(g))


def blocks_brute(g: Graph) -> list[frozenset[int]]:
    """Blocks as classes of edges joined by common simple cycles, plus the
    isolated vertices."""
    classes = [{frozenset(e)} for e in g.edges()]
    for c in all_cycles(g):
        ring = {frozenset(e) for e in zip(c, c[1:] + c[:1])}
        hit = [cls for cls in classes if cls & ring]
        classes = [cls for cls in classes if not cls & ring] + [set().union(*hit)]
    out = [frozenset().union(*cls) for cls in classes]
    return out + [frozenset([v]) for v in g.vertices if not g.neighbors(v)]


def biconnected_blocks_edge_stack(g: Graph, exclude: Iterable[int] = ()) -> list[frozenset[int]]:
    """Blocks (2-connected subgraphs, bridge edges, isolated vertices) of g minus `exclude`.

    The library's earlier edge-stack low-link, kept as the reference for the
    vertex-stack one: the same blocks in the same order.
    """
    dropped = set(exclude)
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    blocks: list[frozenset[int]] = []
    counter = 0
    for root in g.vertices:
        if root in disc or root in dropped:
            continue
        edge_stack: list[tuple[int, int]] = []
        disc[root] = low[root] = counter
        counter += 1
        # frame: (vertex, parent, iterator over remaining neighbors)
        stack = [(root, 0, iter(sorted(g.neighbors(root))))]
        isolated = True
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w in dropped:
                    continue
                isolated = False
                if w not in disc:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, v, iter(sorted(g.neighbors(w)))))
                    advanced = True
                    break
                elif w != parent and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= disc[pv]:
                    verts = set()
                    while edge_stack:
                        a, b = edge_stack.pop()
                        verts.add(a)
                        verts.add(b)
                        if (a, b) == (pv, v):
                            break
                    blocks.append(frozenset(verts))
        if isolated:
            blocks.append(frozenset([root]))
    return blocks


def biconnected_blocks_vertex_stack(g: Graph, exclude: Iterable[int] = ()) -> list[frozenset[int]]:
    """Blocks (2-connected subgraphs, bridge edges, isolated vertices) of g minus `exclude`.

    The library's vertex-stack low-link as it was before it read shared
    ascending neighbour tuples, kept as the reference for the blocks' order:
    every vertex's neighbours are sorted again on each visit, and excluded
    vertices are skipped by a separate test.
    """
    dropped = set(exclude)
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    blocks: list[frozenset[int]] = []
    for root in g.vertices:
        if root in disc or root in dropped:
            continue
        disc[root] = low[root] = first = len(disc)
        path, iters, starts = [root], [iter(sorted(g.neighbors(root)))], [0]
        pending: list[int] = []
        while path:
            v = path[-1]
            for w in iters[-1]:
                if w in dropped:
                    continue
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    starts.append(len(pending))
                    pending.append(w)
                    path.append(w)
                    iters.append(iter(sorted(g.neighbors(w))))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                path.pop()
                iters.pop()
                start = starts.pop()
                if path:
                    u = path[-1]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        blocks.append(frozenset(pending[start:] + [u]))
                        del pending[start:]
        if len(disc) == first + 1:
            blocks.append(frozenset([root]))
    return blocks


class RefNode(NamedTuple):
    """A node of the reference forest: its id, "block" or "cut", and its vertices."""
    id: int
    kind: str
    vertices: frozenset[int]


class ReferenceForest(NamedTuple):
    nodes: tuple[RefNode, ...]
    parent: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    depth: tuple[int, ...]
    roots: tuple[int, ...]
    index: VertexIndex
    subtree_end: tuple[int, ...]


def block_cut_forest_reference(g: Graph, blocks: list[frozenset[int]] | None = None) -> ReferenceForest:
    """The block-cut forest assembled one `RefNode` at a time, with tuple
    arrays, its vertex index and its subtree ends: a plain copy of the
    constructor that the per-id lists of `BlockCutForest` replace, which
    they must match id for id."""
    if blocks is None:
        blocks = biconnected_blocks(g)
    cuts: set[int] = set()
    owner: set[int] = set()
    for b in blocks:
        cuts |= b & owner
        owner |= b
    blocks = sorted(blocks, key=sorted)
    cut_blocks: dict[int, list[int]] = {c: [] for c in cuts}
    for i, b in enumerate(blocks):
        for c in b & cuts:
            cut_blocks[c].append(i)
    nodes: list[RefNode] = []
    parent: list[int | None] = []
    children: list[list[int]] = []
    depth: list[int] = []
    roots: list[int] = []
    cut_node: dict[int, int] = {}
    placed = [False] * len(blocks)
    for root in range(len(blocks)):
        if placed[root]:
            continue
        work: list[tuple[int, int | None, int, bool]] = [(root, None, 0, True)]
        while work:
            key, par, d, is_block = work.pop()
            nid = len(nodes)
            parent.append(par)
            children.append([])
            depth.append(d)
            if par is None:
                roots.append(nid)
            else:
                children[par].append(nid)
            if is_block:
                placed[key] = True
                nodes.append(RefNode(nid, "block", blocks[key]))
                for c in sorted(blocks[key] & cuts, reverse=True):
                    if c not in cut_node:
                        work.append((c, nid, d + 1, False))
            else:
                cut_node[key] = nid
                nodes.append(RefNode(nid, "cut", frozenset((key,))))
                for j in reversed(cut_blocks[key]):
                    if not placed[j]:
                        work.append((j, nid, d + 1, True))
    end = list(range(1, len(nodes) + 1))
    for nid in reversed(range(len(nodes))):
        par = parent[nid]
        if par is not None and end[nid] > end[par]:
            end[par] = end[nid]
    owns: dict[int, int] = {}
    root_of: list[int] = []
    verts: list[int] = []
    start: list[int] = []
    for nd, par in zip(nodes, parent):
        root_of.append(nd.id if par is None else root_of[par])
        start.append(len(verts))
        own = nd.vertices if nd.kind == "cut" else nd.vertices.difference(cut_node)
        verts += own
        owns.update(dict.fromkeys(own, nd.id))
    start.append(len(verts))
    return ReferenceForest(tuple(nodes), tuple(parent), tuple(map(tuple, children)), tuple(depth),
                           tuple(roots), VertexIndex(owns, tuple(root_of), verts, start), tuple(end))


def rr2_pairs_brute(g: Graph, T, s_star) -> list[tuple[int, int]]:
    """Pairs x < y of non-terminal cut vertices of H = G - S* where one lies
    below the other in the block-cut forest of H, each tree rooted at the
    lexicographically smallest block of its component: y lies below x iff it
    shares x's component and H - x cuts it off from the rest of that block."""
    T = frozenset(T)
    h = g.without(s_star)
    blocks = blocks_brute(h)
    pairs = set()
    for comp in map(set, connected_components(h)):
        root = min((b for b in blocks if b <= comp), key=sorted)
        cuts = [v for v in sorted(comp - T) if len(connected_components(h.induced(comp - {v}))) > 1]
        for x in cuts:
            top = reachable(h, root - {x}, [x])
            pairs |= {(min(x, y), max(x, y)) for y in cuts if y != x and y not in top}
    return sorted(pairs)


def rr2_candidate_pairs(g: Graph, s_star) -> list[tuple[int, int]]:
    """Cut-vertex pairs on a common root-to-leaf path of a fresh block-cut
    forest of G - S*."""
    return nested_cut_pairs(block_cut_forest(g.without(s_star)))


def path_marked_walk(record, x: int, y: int) -> list[int]:
    """`reducer._Record.path_marked` as a parent walk over the record's
    forest f: the marked vertices of the nodes strictly between the cut
    nodes of x and y, which lie on one root-to-leaf path, walked up from the
    deeper one and listed from x, once each."""
    f, marked = record.f, record.marked
    parent = f.parent
    a, b = f.cut_nodes[x], f.cut_nodes[y]
    flip = f.depth[a] < f.depth[b]
    if flip:
        a, b = b, a
    on: list[int] = []
    nid = parent[a]
    while nid != b:
        on.append(nid)
        nid = parent[nid]
    found: list[int] = []
    for nid in reversed(on) if flip else on:
        for t in f.sets[nid] & marked:
            if t not in found:
                found.append(t)
    return found


def free_terminals(g: Graph, T, s_star) -> frozenset[int]:
    """The terminals in no block of G[S* + T] with two terminals, off a
    fresh decomposition of G[S* + T]."""
    T = frozenset(T)
    blocks = biconnected_blocks(g.induced(frozenset(s_star) | T))
    return T.difference(*(b for b in blocks if len(b & T) > 1))


def rr2_reference(inst: Instance, s_star):
    """`apply_rr2` as it was before its index: every call builds the
    candidate pairs, each pair's components of G - {x, y} and each
    region's T-cycle test from scratch."""
    g, T = inst.graph, inst.terminals
    for x, y in rr2_candidate_pairs(g, s_star):
        if x in T or y in T:
            continue
        for comp in connected_components(g.without([x, y])):
            comp_set = frozenset(comp)
            terms = sorted(comp_set & T)
            if len(terms) < 3:
                continue
            region = comp_set | {x, y}
            sub = g.induced(region)
            if not is_mwns(sub, T & region, ()):
                continue  # no T-cycle, and the tree counting needs one terminal per block
            on_path = terminals_on_path(sub, T & comp_set, x, y)
            if on_path is None or len(on_path) < 2:
                continue  # D must join x to y through two terminals
            kept = (on_path[0], on_path[1])
            drop = min(t for t in terms if t not in kept)  # D holds three or more
            step = DropComponentTerminal(drop, x, y, comp_set, kept)
            return _apply_step(inst, step), step
    return None


def fresh_step(g: Graph, T, x: int, index: int) -> BlockerIteration | None:
    """Blocker iteration `index` on G, read off a fresh decomposition of
    G - x: the reference for a run that carries its blocks across iterations
    and drops the trees that cannot meet."""
    f = block_cut_forest(g, biconnected_blocks(g, exclude=[x]))
    return _read_forest(g, frozenset(T), x, index, f)[0]


def blocker_run_reference(g: Graph, T, x: int) -> BlockerRun:
    """`blocker.blocker_run`'s loop as it was when it carried every block of
    a tree with a meeting node, those below d that the deleted Z cuts off
    included: the reference the below-d skip must match on result and
    iterations."""
    T = frozenset(T)
    acc: set[int] = set()
    iterations: list[BlockerIteration] = []
    blocks = biconnected_blocks(g, exclude=[x])
    index = 0
    while True:
        f = block_cut_forest(g, blocks)
        it, met, _ = _read_forest(g, T, x, index, f)
        if it is None:
            break
        iterations.append(it)
        acc |= it.removed
        blocks = [s for root, stop in zip(f.roots, [*f.roots[1:], len(f.sets)]) if root in met
                  for s, c in zip(f.sets[root:stop], f.cutv[root:stop]) if c is None]
        blocks = blocks_without(g, blocks, it.removed)
        index += 1
    result = frozenset(acc)
    assert is_mwns(g, T, result)
    return BlockerRun(result, tuple(iterations))


def routes_reference(g: Graph, T: frozenset[int], x: int, f: BlockCutForest
                     ) -> tuple[list[int], int | None, set[int]]:
    """`blocker._routes` as it was when each block node listed its route
    ends as (vertex, count) pairs before folding them: the reference the
    in-place fold must match on every forest."""
    nbrs = g.neighbors(x)
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
            t = min(block & T, default=None) if len(block) >= 3 else None
            top = None if par is None else cutv[par]
            # routes from the child cut vertices and from the other neighbors
            # of x in the block; the top vertex's own route joins after reach
            # is read, since a route up through the top cannot start there
            ends = [(cutv[c], reach[c]) for c in children[nid]]
            ends += [(w, w in T) for w in block & nbrs if w not in cut]
            out_t = e0 = e1 = -1
            for w, r in ends:
                if w == t:
                    out_t = r
                elif r > e0:
                    e0, e1 = r, e0
                elif r > e1:
                    e1 = r
            if top is not None:
                # a route from the top vertex leaves the block at another
                # vertex, passing t on the way if t is neither
                best = e0 if t is None or t == top else max(out_t, e0 + 1 if e0 >= 0 else -1)
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


def decomposed(call) -> frozenset[int]:
    """The vertex set that a `biconnected_blocks` call recorded by a mock
    decomposes: its `within` set, or all of its graph, less `exclude`."""
    args = inspect.signature(biconnected_blocks).bind(*call.args, **call.kwargs).arguments
    within = args.get("within")
    return frozenset(args["g"].vertices if within is None else within).difference(args.get("exclude", ()))


def forest_vertices(call) -> frozenset[int]:
    """The vertex set of the forest that a `block_cut_forest` call recorded
    by a mock assembles: its blocks' union, or all of its graph."""
    args = inspect.signature(block_cut_forest).bind(*call.args, **call.kwargs).arguments
    blocks = args.get("blocks")
    return frozenset(args["g"].vertices) if blocks is None else frozenset().union(*blocks)


def is_separator(g: Graph, X, Y, S) -> bool:
    X, Y, S = frozenset(X), frozenset(Y), frozenset(S)
    return not (reachable(g, X - S, S) & (Y - S))


def important_separators_brute(g: Graph, X, Y, V8, k: int) -> set[frozenset[int]]:
    X, Y, V8 = frozenset(X), frozenset(Y), frozenset(V8)
    deletable = [v for v in g.vertices if v not in X | Y | V8]
    minimal = []
    for r in range(k + 1):
        for combo in itertools.combinations(deletable, r):
            S = frozenset(combo)
            if is_separator(g, X, Y, S) and all(
                    not is_separator(g, X, Y, S - {v}) for v in S):
                minimal.append(S)
    out = set()
    for S in minimal:
        R = reachable(g, X, S)
        if not any(S2 != S and len(S2) <= len(S) and R < reachable(g, X, S2)
                   for S2 in minimal):
            out.add(S)
    return out


def is_important_by_flow(net: _SplitNet, X: frozenset[int], Y: frozenset[int],
                         protected: frozenset[int], S: frozenset[int],
                         deleted: frozenset[int] = frozenset()) -> bool:
    """Whether S, outside X, Y, `protected` and `deleted`, is an important
    (X,Y)-separator avoiding `protected` in the network's graph - `deleted`:
    with R what X reaches in it minus S, the furthest minimum (R,Y)-cut is S.
    One flood and one flow per set: the per-set reference for the
    enumeration's filter by domination among its candidates."""
    R = frozenset(reachable(net.graph, X, S | deleted))
    value, cut, _ = furthest_min_cut(net.graph, R, Y, protected | R, deleted)
    return value == len(S) and cut == S


class _ReferenceSplitNet(_SplitNet):
    """`_SplitNet` with its build, `augment` and `cut` written plainly: one
    `arc` call per arc pair, a `cap[e] > 0` test and `min` for the
    bottleneck, and a generator per cut set. The library's loops must give
    the same arrays, flows, cuts and paths."""

    def __init__(self, g: Graph):
        vs = g.vertices
        index = {v: i for i, v in enumerate(vs)}
        head: list[int] = []
        base: list[int] = []
        adj: list[list[int]] = [[] for _ in range(2 * len(vs) + 2)]
        through: list[int] = []

        def arc(u: int, w: int, c: int) -> None:
            adj[u].append(len(head))
            head.append(w)
            base.append(c)
            adj[w].append(len(head))
            head.append(u)
            base.append(0)

        for i in range(len(vs)):
            arc(0, 2 * i + 2, 0)
            arc(2 * i + 3, 1, 0)
        for i, v in enumerate(vs):
            through.append(len(head))
            arc(2 * i + 2, 2 * i + 3, 1)
            for w in g.neighbors(v):
                arc(2 * i + 3, 2 * index[w] + 2, INF)
        self.graph, self.index, self.head, self.adj = g, index, head, adj
        self.base, self.through = base, through

    def augment(self, limit: int = INF) -> int:
        cap, head, adj = self.cap, self.head, self.adj
        value = 0
        while value < limit:
            via = [-1] * len(adj)
            via[0] = -2
            queue = [0]
            for u in queue:
                for e in adj[u]:
                    w = head[e]
                    if via[w] == -1 and cap[e] > 0:
                        via[w] = e
                        queue.append(w)
                if via[1] != -1:
                    break
            if via[1] == -1:
                break
            push, node = limit - value, 1
            while node:
                push = min(push, cap[via[node]])
                node = head[via[node] ^ 1]
            node = 1
            while node:
                e = via[node]
                cap[e] -= push
                cap[e ^ 1] += push
                node = head[e ^ 1]
            value += push
        return value

    def cut(self, deleted: frozenset[int], furthest: bool = False
            ) -> tuple[frozenset[int], frozenset[int]]:
        g, head, cap, adj = self.graph, self.head, self.cap, self.adj
        start = back = int(furthest)
        seen = [False] * len(adj)
        seen[start] = True
        queue = [start]
        for u in queue:
            for e in adj[u]:
                if cap[e ^ back] > 0 and not seen[head[e]]:
                    seen[head[e]] = True
                    queue.append(head[e])
        near, far = seen[2 + back::2], seen[3 - back::2]
        cut = frozenset(v for v, a, b in zip(g.vertices, near, far) if a and not b)
        side = frozenset(v for v, out in zip(g.vertices, seen[3::2]) if out != furthest)
        return cut - deleted, side - deleted


def split_net_reference(g: Graph) -> _SplitNet:
    """A network of g on the reference engine; its `flow`, `widen`,
    `cancel` and `paths` are the library's."""
    return _ReferenceSplitNet(g)


def furthest_min_cut(g: Graph, X: frozenset[int], Y: frozenset[int],
                     protected: frozenset[int] = frozenset(), deleted: frozenset[int] = frozenset()
                     ) -> tuple[int | float, frozenset[int], frozenset[int]]:
    """`min_cut` with the minimum cut closest to Y, the one the enumeration
    branches on: its source side is all that Y then no longer reaches."""
    net = _SplitNet(g)
    value = net.flow(X, Y, protected, deleted)
    if value >= INF:
        return math.inf, frozenset(), frozenset()
    return (value, *net.cut(deleted, furthest=True))


def important_separators_closest_cut(g: Graph, X, Y, V8, k: int) -> tuple[frozenset[int], ...]:
    """Important separators as `enumerate_important_separators` found them
    before it branched on the furthest minimum cut: branch on the X-closest
    minimum cut (a cut vertex joins the separator, or the source side grows
    to the cut's reach plus that vertex), then keep each candidate that is
    an inclusion-minimal separator and that no separator of at most its
    size dominates, one flow per candidate vertex. The recursion is bounded
    by n, not by k, so keep the inputs small."""
    X, Y = frozenset(X), frozenset(Y)
    forbidden_base = Y | frozenset(V8)

    def candidates(deleted, X, budget):
        value, cut, reach = min_cut(g, X, Y, forbidden_base | X, deleted)
        if value > budget:  # inf included
            return set()
        if value == 0:
            return {frozenset()}
        X = reach | X
        v = min(cut)
        out = {s | {v} for s in candidates(deleted | {v}, X - {v}, budget - 1)}
        return out | candidates(deleted, X | {v}, budget)

    def important(S):
        if S & (X | forbidden_base) or not is_separator(g, X, Y, S):
            return False
        if any(is_separator(g, X, Y, S - {v}) for v in S):
            return False
        R = frozenset(reachable(g, X, S))
        return all(min_cut(g, R | {v}, Y, forbidden_base | R | {v})[0] > len(S) for v in S)

    if k < 0:
        return ()
    found = candidates(frozenset(), X, k)
    return tuple(sorted((s for s in found if important(s)), key=lambda s: (len(s), sorted(s))))


def max_q_path_packing_brute(g: Graph, Q) -> int:
    Q = frozenset(Q)
    paths = []

    def extend(path, used):
        if len(path) >= 2 and path[-1] in Q:
            paths.append(tuple(path))
            return
        for w in sorted(g.neighbors(path[-1])):
            if w not in used:
                extend(path + [w], used | {w})

    for q in sorted(Q):
        extend([q], {q})
    best = 0

    def search(i, used, count):
        nonlocal best
        best = max(best, count)
        for j in range(i, len(paths)):
            p = paths[j]
            if not (set(p) & used):
                search(j + 1, used | set(p), count + 1)

    search(0, set(), 0)
    return best


def mwns_condition1(g: Graph, T, S) -> bool:
    """No terminal pair with two internally disjoint connecting paths in G-S."""
    T, S = frozenset(T), frozenset(S)
    h = g.without(S)
    return all(not two_ivd_paths_exist(h, t1, t2)
               for t1, t2 in itertools.combinations(sorted(T), 2))


def mwns_condition2(g: Graph, T, S) -> bool:
    """Every terminal pair splits into different components after one more
    non-terminal deletion (the extra vertex may come from S itself)."""
    T, S = frozenset(T), frozenset(S)
    nonterminals = [v for v in g.vertices if v not in T]
    for t1, t2 in itertools.combinations(sorted(T), 2):
        if not any(t2 not in reachable(g, [t1], S | {v}) for v in nonterminals):
            return False
    return True


def mwns_condition3(g: Graph, T, S) -> bool:
    """T independent and G-S free of cycles through two terminals."""
    T, S = frozenset(T), frozenset(S)
    if any(g.has_edge(t1, t2) for t1, t2 in itertools.combinations(sorted(T), 2)):
        return False
    return not has_t_cycle_brute(g.without(S), T)


def multiway_separator_brute(g: Graph, T, k: int) -> bool:
    """Every terminal pair fully disconnected after deleting <= k non-terminals."""
    T = frozenset(T)
    pool = [v for v in g.vertices if v not in T]

    def separated(S):
        for t1, t2 in itertools.combinations(sorted(T), 2):
            if t2 in reachable(g, [t1], S):
                return False
        return True

    return any(separated(frozenset(c))
               for r in range(k + 1) for c in itertools.combinations(pool, r))


def search_lines(stats) -> list[dict[str, str]]:
    """The fields of each `compress ...` line in a solve's trace, one per search."""
    return [dict(field.split("=", 1) for field in line.split()[1:])
            for line in stats.trace if line.startswith("compress ")]


def random_graph(rng, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < p]
    return Graph(range(1, n + 1), edges)


@st.composite
def small_instances(draw, max_n: int, max_k: int = 3, dense: bool = False) -> Instance:
    """A graph on 2..max_n vertices with at most 2n edges (at least n, or all
    pairs if fewer, when dense), an independent terminal set (drawn in order,
    each kept unless adjacent to one already kept) and a budget of 0..max_k."""
    n = draw(st.integers(2, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    fewest = min(n, len(pairs)) if dense else 0
    g = Graph(range(1, n + 1),
              sorted(draw(st.sets(st.sampled_from(pairs), min_size=fewest, max_size=2 * n))))
    T: set[int] = set()
    for t in draw(st.lists(st.integers(1, n), min_size=2, unique=True)):
        if not (g.neighbors(t) & T):
            T.add(t)
    return Instance.of(g, T, draw(st.integers(0, max_k)))


def _gadget(rng, n: int, p: float) -> tuple[Graph, frozenset[int], int]:
    """`random_graph(n, p)` with three independent terminals and an optimum
    of at least 2, which `oracle_solve` finds: (g, terminals, optimum)."""
    while True:
        g = random_graph(rng, n, p)
        ts = frozenset(rng.sample(range(1, n + 1), 3))
        if not terminals_independent(g, ts):
            continue
        best = next(k for k in range(n) if oracle_solve(Instance(g, ts, k)).is_yes)
        if best >= 2:
            return g, ts, best


def _shuffled(rng, edges: list[tuple[int, int]], T: set[int], nxt: int
              ) -> tuple[Graph, frozenset[int]]:
    """The graph on ids 1..nxt-1 with `edges` and terminals `T`, ids shuffled."""
    ids = list(range(1, nxt))
    rng.shuffle(ids)
    name = dict(zip(range(1, nxt), ids))
    return Graph(ids, [(name[u], name[v]) for u, v in edges]), frozenset(name[t] for t in T)


def gadget_union(seed: int, parts: int, n: int, p: float) -> tuple[Graph, frozenset[int], int]:
    """An instance with a known optimum past the oracle's reach: `parts`
    gadgets, each `random_graph(n, p)` with three independent terminals and
    an optimum of at least 2 that `oracle_solve` finds on the gadget alone,
    consecutive ones joined by a path of two new vertices between a
    non-terminal of each, ids shuffled. Every joining edge is a bridge, so
    each T-cycle lies in one gadget, and the optimum is the sum of the
    gadgets' optima. Returns (G, T, opt)."""
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    T: set[int] = set()
    inner: list[list[int]] = []  # the non-terminals of each gadget
    opt = 0
    while len(inner) < parts:
        g, ts, best = _gadget(rng, n, p)
        off = n * len(inner)
        edges += [(u + off, v + off) for u, v in g.edges()]
        T |= {t + off for t in ts}
        inner.append([v + off for v in g.vertices if v not in ts])
        opt += best
    nxt = n * parts + 1
    for a, b in itertools.pairwise(inner):
        edges += [(rng.choice(a), nxt), (nxt, nxt + 1), (nxt + 1, rng.choice(b))]
        nxt += 2
    return (*_shuffled(rng, edges, T, nxt), opt)


def glued_union(seed: int, parts: int, n: int, p: float) -> tuple[Graph, frozenset[int], int]:
    """An instance with a known optimum whose kernel does not fall apart:
    `parts` gadgets drawn as in `gadget_union`, all sharing one non-terminal
    v, taken in a crowded block of each, ids shuffled. The gadgets meet only
    at v, so each block lies in one gadget: a solution that keeps v is one
    per gadget avoiding v, and one that deletes v is v plus one per gadget
    less v. Returns (G, T, opt), where opt is
    min(sum of oracle_opt_x(G_i, T_i, v), 1 + sum of opt(G_i - v))."""
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    T: set[int] = set()
    kept = deleted = 0  # the optimum keeping v; deleting it, v not counted
    nxt = 2  # id 1 is v
    for _ in range(parts):
        g, ts, _ = _gadget(rng, n, p)
        v = rng.choice(sorted(crowded_kernel(biconnected_blocks(g), ts) - ts))
        kept += oracle_opt_x(g, ts, v)
        rest = g.without([v])
        deleted += next(k for k in range(n) if oracle_solve(Instance(rest, ts, k)).is_yes)
        name = {v: 1, **{u: nxt + i for i, u in enumerate(rest.vertices)}}
        nxt += len(rest.vertices)
        edges += [(name[a], name[b]) for a, b in g.edges()]
        T |= {name[t] for t in ts}
    return (*_shuffled(rng, edges, T, nxt), min(kept, 1 + deleted))


def random_block_tree(rng, n_blocks: int) -> tuple[Graph, int]:
    """Glue triangles, squares, and bridge edges at shared cut vertices.

    Produces the deep block-cut structures the flat edge-probability model
    almost never hits. Returns the graph and the next free vertex id.
    """
    vertices = [1]
    edges = []
    nxt = 2
    anchors = [1]
    for _ in range(n_blocks):
        a = rng.choice(anchors)
        kind = rng.choice(["edge", "tri", "sq"])
        if kind == "edge":
            b = nxt
            nxt += 1
            edges.append((a, b))
            vertices.append(b)
            anchors.append(b)
        elif kind == "tri":
            b, c = nxt, nxt + 1
            nxt += 2
            edges += [(a, b), (b, c), (a, c)]
            vertices += [b, c]
            anchors += [b, c]
        else:
            b, c, d = nxt, nxt + 1, nxt + 2
            nxt += 3
            edges += [(a, b), (b, c), (c, d), (d, a)]
            vertices += [b, c, d]
            anchors += [b, c, d]
    return Graph(vertices, edges), nxt


def chorded_block_tree(rng, n_blocks: int, attach: float = 0.1) -> tuple[Graph, frozenset[int], int]:
    """A blocker input shaped like the benchmark's: bridges, triangles,
    squares and 5- and 6-cycles with a chord, each glued at a random earlier
    vertex; block by block, a terminal on a vertex none of whose blocks holds
    one yet; and the pivot 1 joined to a share `attach` of the others, so
    that {1} nearly separates the terminals. Returns (G, T, pivot)."""
    edges: list[tuple[int, int]] = []
    members: list[list[int]] = []
    nxt = 3
    for _ in range(n_blocks):
        size = rng.choice((2, 3, 4, 5, 6))
        vs = [rng.randrange(2, nxt), *range(nxt, nxt + size - 1)]
        nxt += size - 1
        edges += [(vs[0], vs[1])] if size == 2 else list(zip(vs, vs[1:] + vs[:1]))
        if size >= 5:
            edges.append((vs[0], vs[2]))
        members.append(vs)
    blocks_of: dict[int, list[list[int]]] = {}
    for vs in members:
        for v in vs:
            blocks_of.setdefault(v, []).append(vs)
    T: set[int] = set()
    for vs in members:  # a block that holds a terminal leaves no vertex free
        if free := [v for v in vs if all(T.isdisjoint(b) for b in blocks_of[v])]:
            T.add(rng.choice(free))
    edges += [(1, v) for v in range(2, nxt) if rng.random() < attach]
    return Graph(range(1, nxt), edges), frozenset(T), 1
