"""Block-cut forests: biconnected decomposition plus rooted-tree queries."""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from functools import cached_property
from typing import Collection, Iterable, NamedTuple

from .graph import Graph


def biconnected_blocks(g: Graph, exclude: Iterable[int] = (), within: Collection[int] | None = None
                       ) -> list[frozenset[int]]:
    """Blocks (2-connected subgraphs, bridge edges, isolated vertices) of
    g[`within`] (all of g if None) minus `exclude`, in the order of those of
    g.induced(within); `within` must lie in g, `exclude` need not.

    Iterative DFS low-link over vertex positions in g.vertices, neighbours in
    ascending order (g's shared `index`), discovery times in a list by
    position, each DFS path vertex's low-link kept on a stack beside the
    path; a block leaves the stack when the DFS backs up from its highest
    vertex below its cut vertex. No subgraph is materialized, so this is the
    fast path for probing vertex deletions and decomposing vertex subsets.
    """
    (pos, adj), vs = g.index(), g.vertices
    # a vertex left out counts as discovered, at a time above every low-link
    disc: list[int | None] = [None if within is None else sys.maxsize] * len(vs)
    roots: Iterable[int] = range(len(vs))
    if within is not None:
        if missing := g.foreign(within):
            raise ValueError(f"unknown vertices {missing}")
        roots = sorted([pos[v] for v in within])
        for i in roots:
            disc[i] = None
    for v in exclude:
        if (i := pos.get(v)) is not None:
            disc[i] = sys.maxsize
    blocks: list[frozenset[int]] = []
    clock = 0  # the last discovery time
    for root in roots:
        if disc[root] is not None:
            continue
        disc[root] = first = clock = clock + 1
        # the DFS path, and for each path vertex its low-link, its iterator
        # over its remaining neighbours and the length of `pending` on entry
        path, lows, iters, starts = [root], [first], [iter(adj[root])], [0]
        pending: list[int] = []  # vertices (by id) entered and not yet in a block
        while path:
            lv = lows[-1]  # written back before the DFS leaves the vertex for a child
            for w in iters[-1]:
                d = disc[w]
                if d is None:
                    lows[-1] = lv
                    disc[w] = d = clock = clock + 1
                    lows.append(d)
                    starts.append(len(pending))
                    pending.append(vs[w])
                    path.append(w)
                    iters.append(iter(adj[w]))
                    break
                if d < lv:  # the parent too, which leaves the test below alone
                    lv = d
            else:
                path.pop()
                lows.pop()
                iters.pop()
                start = starts.pop()
                if path:
                    u = path[-1]
                    if lv < lows[-1]:
                        lows[-1] = lv
                    if lv >= disc[u]:
                        blocks.append(frozenset(pending[start:] + [vs[u]]))
                        del pending[start:]
        if clock == first:
            blocks.append(frozenset([vs[root]]))
    return blocks


def blocks_without(g: Graph, blocks: Iterable[frozenset[int]], z: Iterable[int]
                   ) -> list[frozenset[int]]:
    """Blocks of H - z, given `blocks`, the blocks of an induced subgraph H of g.

    A block of H - z is 2-connected or an edge in H, so it lies inside one
    block of H: the blocks z misses stay whole, and only the remnant of each
    block z hits is decomposed again, within g, uncopied. A remnant's
    singleton {v} is a block of H - z only if no other big block holds v.
    """
    z = frozenset(z)
    out = [b for b in blocks if b.isdisjoint(z)]
    out += [c for b in blocks if not b.isdisjoint(z) and (rest := b - z)
            for c in biconnected_blocks(g, within=rest)]
    big = [b for b in out if len(b) > 1]
    single = {v for b in out if len(b) == 1 for v in b}.difference(*big)
    return big + [frozenset([v]) for v in sorted(single)]


def node_label(vertices: frozenset[int], cut: int | None) -> str:
    """A node's label: a cut node's vertex `cut`, else a block's sorted vertices in braces."""
    return str(cut) if cut is not None else "{" + ",".join(map(str, sorted(vertices))) + "}"


class VertexIndex(NamedTuple):
    """A forest's `index`: the node owning each vertex, a cut vertex its cut
    node and any other vertex its only block; the root of each node's tree;
    and the vertices by owner in pre-order, node i's from start[i] on, so
    that the id range [lo, hi) owns verts[start[lo]:start[hi]]."""
    owner: dict[int, int]
    root: tuple[int, ...]
    verts: list[int]
    start: list[int]


class BlockCutForest:
    """Rooted block-cut forest of a graph.

    One tree per connected component, bipartite between block nodes and cut
    nodes, rooted at the block whose sorted vertex set is lexicographically
    smallest. Node ids are assigned in pre-order so traversals and traces are
    reproducible across runs. The forest depends only on the set of blocks,
    so `blocks`, when given, may list them in any order; they may also be
    those of an induced subgraph H of `graph`, whose forest this then is;
    else `graph` is decomposed.

    Lists by node id: `sets` its vertex set, `cutv` a cut node's vertex
    (None for a block), `parent`, `children` and `depth`; also `roots`, and
    `cut_nodes` from cut vertex to node id. `index` (built on first read)
    names each vertex's owner node and each node's root.
    """

    def __init__(self, graph: Graph, blocks: list[frozenset[int]] | None = None):
        if blocks is None:
            blocks = biconnected_blocks(graph)
        cuts: set[int] = set()
        owner: set[int] = set()
        for b in blocks:
            cuts |= b & owner
            owner |= b
        # blocks in order of their sorted vertex lists, and their cut vertices;
        # each cut vertex's list of incident blocks comes out in that order too
        blocks = sorted(blocks, key=sorted)
        block_cuts = [b & cuts for b in blocks]
        cut_blocks: dict[int, list[int]] = {c: [] for c in cuts}
        for i, bc in enumerate(block_cuts):
            for c in bc:
                cut_blocks[c].append(i)

        sets: list[frozenset[int]] = []
        cutv: list[int | None] = []
        parent: list[int | None] = []
        children: list[list[int]] = []
        depth: list[int] = []
        roots: list[int] = []
        cut_node: dict[int, int] = {}
        placed = [False] * len(blocks)
        # the first unplaced block is the smallest block of its component and
        # starts with the component's smallest vertex, so trees come out in
        # order of their smallest vertex
        for root in range(len(blocks)):
            if placed[root]:
                continue
            # work items (block index or cut vertex, parent id, depth, is a
            # block) create their node when popped; children pushed in reverse
            # so ids come out in pre-order. A node's only placed neighbour is
            # its parent
            roots.append(len(sets))
            work: list[tuple[int, int | None, int, bool]] = [(root, None, 0, True)]
            while work:
                key, par, d, is_block = work.pop()
                nid = len(sets)
                parent.append(par)
                children.append([])
                depth.append(d)
                if par is not None:
                    children[par].append(nid)
                if is_block:
                    placed[key] = True
                    sets.append(blocks[key])
                    cutv.append(None)
                    for c in sorted(block_cuts[key], reverse=True):
                        if c not in cut_node:
                            work.append((c, nid, d + 1, False))
                else:
                    cut_node[key] = nid
                    sets.append(frozenset((key,)))
                    cutv.append(key)
                    for j in reversed(cut_blocks[key]):
                        if not placed[j]:
                            work.append((j, nid, d + 1, True))

        self.sets, self.cutv, self.cut_nodes = sets, cutv, cut_node
        self.parent, self.children, self.depth, self.roots = parent, children, depth, roots

    @cached_property
    def subtree_end(self) -> tuple[int, ...]:
        """node id -> one past the last id of its subtree: ids are pre-order,
        so node d's subtree is the id range d..subtree_end[d]-1"""
        end = list(range(1, len(self.sets) + 1))
        for nid in reversed(range(len(self.sets))):
            if (par := self.parent[nid]) is not None and end[nid] > end[par]:
                end[par] = end[nid]
        return tuple(end)

    @cached_property
    def index(self) -> VertexIndex:
        cut = self.cut_nodes
        owner: dict[int, int] = {}
        root: list[int] = []
        verts: list[int] = []
        start: list[int] = []
        for nid, (s, c, par) in enumerate(zip(self.sets, self.cutv, self.parent)):
            root.append(nid if par is None else root[par])
            start.append(len(verts))
            own = s if c is not None else s.difference(cut)
            verts += own
            owner.update(dict.fromkeys(own, nid))
        start.append(len(verts))
        return VertexIndex(owner, tuple(root), verts, start)

    # -- basic lookups ----------------------------------------------------

    def _known(self, nid: int) -> int:
        if not 0 <= nid < len(self.sets):
            raise KeyError(f"unknown node id {nid}")
        return nid

    def cut_node_of(self, v: int) -> int:
        if v not in self.cut_nodes:
            raise KeyError(f"vertex {v} is not a cut vertex")
        return self.cut_nodes[v]

    def blocks_containing(self, v: int) -> list[int]:
        """Ids of the block nodes holding v, ascending: its cut node's parent and children, or its owner."""
        if (c := self.cut_nodes.get(v)) is not None:
            return [self.parent[c], *self.children[c]]
        return [self.index.owner[v]] if v in self.index.owner else []

    def tree_edges(self) -> list[tuple[int, int]]:
        return [(p, c) for c, p in enumerate(self.parent) if p is not None]

    def root_of(self, nid: int) -> int:
        return self.index.root[self._known(nid)]

    def tree_path(self, a: int, b: int) -> list[int]:
        """Node ids on the unique tree path from a to b, inclusive."""
        self._known(a), self._known(b)
        up_a, up_b = [a], [b]
        x, y = a, b
        while self.depth[x] > self.depth[y]:
            x = self.parent[x]
            up_a.append(x)
        while self.depth[y] > self.depth[x]:
            y = self.parent[y]
            up_b.append(y)
        while x != y:
            if self.parent[x] is None:  # two roots
                raise ValueError("nodes lie in different trees")
            x = self.parent[x]
            y = self.parent[y]
            up_a.append(x)
            up_b.append(y)
        return up_a + up_b[-2::-1]

    def path_vertices(self, a: int, b: int, among: frozenset[int]) -> list[int]:
        """The vertices of `among` in the nodes on the a-b tree path, node by
        node from a, each listed once."""
        return list(dict.fromkeys(v for n in self.tree_path(a, b) for v in self.sets[n] & among))

    def span_vertices(self, ends: Iterable[int]) -> frozenset[int]:
        """The vertices on simple paths between `ends`, which lie in one tree:
        those of the least subtree holding their owners, or `ends` if it is
        one vertex or none. Ids are pre-order, so the owners' least common
        ancestor is that of the least and greatest id, and each owner walks
        up to the nodes already in the subtree."""
        ends = frozenset(ends)
        ids = [self.index.owner[e] for e in ends]
        if len(ids) < 2:
            return ends
        on = set(self.tree_path(min(ids), max(ids)))
        for n in ids:
            while n not in on:
                on.add(n)
                n = self.parent[n]
        return frozenset().union(*(self.sets[n] for n in on))

    # -- spec queries ------------------------------------------------------

    def subtree_vertices(self, d: int) -> frozenset[int]:
        """Graph vertices of the subtree rooted at node d: d's own and those owned in it."""
        verts, start = self.index.verts, self.index.start
        return self.sets[self._known(d)].union(verts[start[d]:start[self.subtree_end[d]]])


def block_cut_forest(g: Graph, blocks: list[frozenset[int]] | None = None) -> BlockCutForest:
    """The block-cut forest of g, assembled from `blocks` when given (the
    blocks of g or of an induced subgraph of g, in any order) instead of
    decomposing g again."""
    return BlockCutForest(g, blocks)


def nested_cut_pairs(f: BlockCutForest | CutPairReader) -> list[tuple[int, int]]:
    """Cut-vertex pairs of f, a forest or a reader of one, lying on a common
    root-to-leaf path, ascending."""
    pairs = []
    above: list[tuple[int, int]] = []  # (depth, vertex) of the node's cut-vertex ancestors
    for v, depth in zip(f.cutv, f.depth):  # pre-order, so each pair shows up once
        while above and above[-1][0] >= depth:
            above.pop()
        if v is not None:
            pairs += [(min(u, v), max(u, v)) for _, u in above]
            above.append((depth, v))
    return sorted(pairs)


class PairComponent(NamedTuple):
    """A component D of G - {x, y} as `CutPairReader.read` gives it: its
    least vertex, the id ranges of F's nodes whose owned vertices it holds,
    its other vertices as sets, and whether it is `plain`: one piece missing
    S, so that every block of G[D + x + y] and its x-y tree path are F's."""
    least: int
    ranges: tuple[tuple[int, int], ...]
    sets: tuple[frozenset[int], ...]
    plain: bool


_UPPER = -1  # the key of the upper piece; a child block's piece is keyed by its
# node id, and the i-th part of the middle by -2 - i


class CutPairReader:
    """The components of G - {x, y}, for cut vertices x and y on one
    root-to-leaf path of the block-cut forest F of G - S, read off F (the
    block-cut tree of Hopcroft and Tarjan 1973) instead of flooding G, with
    the count of a marked vertex set, which only shrinks, in each of them.

    By F's vertex index (`VertexIndex`) each vertex of G - S is owned by
    one node, and node i's subtree, the id range [i, end[i]), owns a slice
    of `verts`; `before[i]` counts the marked vertices owned below id i.
    Of x and y, one is the ancestor a and the other the descendant b, and
    P - {a, b}, P being their tree, falls into pieces: the subtree of each
    child block of b; of each child block of a but Ba, the one towards b;
    the middle, Ba's subtree less b's; and the upper part, P outside a's
    subtree. When Ba holds b too, Ba - {a, b} may fall apart, and so the
    middle with it. A vertex of P has neighbours only in P and S, so pieces
    join only through the components of G - V(P) next to P, which one flood
    per tree finds, stepping over each other tree of F whole.
    """

    def __init__(self, g: Graph, f: BlockCutForest, marked: frozenset[int]):
        """`f` is the forest of G - S, whose arrays and index the reader shares."""
        self.graph, self.f, self.marked = g, f, marked
        self.sets, self.cutv, self.cut, self.end = f.sets, f.cutv, f.cut_nodes, f.subtree_end
        self.parent, self.children, self.depth, self.roots = f.parent, f.children, f.depth, f.roots
        self.owner, self.root, self.verts, self.start = f.index
        # per node: the marked vertices it owns
        self.owned_m = [len(marked.intersection(self.verts[i:j])) for i, j in itertools.pairwise(self.start)]
        self._sum()
        self.trees: dict[int, tuple[list[tuple], list[tuple[int, int, tuple[int, ...]]]]] = {}
        self._around: dict[int, frozenset[int]] = {}

    def _sum(self) -> None:
        """`before`, the prefix sums of the owned marked vertices by node id;
        and no set counted yet."""
        self.before = [0, *itertools.accumulate(self.owned_m)]
        self.set_m: dict[frozenset[int], int] = {}

    def shrink(self, marked: frozenset[int]) -> None:
        """Recount for `marked`, a subset of those counted so far."""
        if len(marked) == len(self.marked):
            return
        for t in self.marked - marked:
            if (nid := self.owner.get(t)) is not None:  # else t lies in S
                self.owned_m[nid] -= 1
        self.marked = marked
        self._sum()

    def tree_vertices(self, root: int) -> list[int]:
        """The vertices of the tree of F at `root`."""
        return self.verts[self.start[root]:self.start[self.end[root]]]

    def around(self, root: int) -> frozenset[int]:
        """The vertices of S next to the tree of F at `root`."""
        if root not in self._around:
            nbrs, owner = self.graph.neighbors, self.owner
            near = (s for v in self.tree_vertices(root) for s in nbrs(v) if s not in owner)
            self._around[root] = frozenset(near)
        return self._around[root]

    def _tree(self, root: int) -> tuple[list[tuple], list[tuple[int, int, tuple[int, ...]]]]:
        """The components of G - V(P) next to the tree P at `root`, each as
        the id ranges of the other trees of F in it, its vertices in S and
        its least vertex; and P's attachment vertices, those next to S, as
        (owner, vertex, indices of the components next to it)."""
        if root not in self.trees:
            g, owner, end = self.graph, self.owner, self.end
            comps: list[tuple] = []
            label: dict[int, int] = {}  # vertex of S -> its component
            attach = []
            for v in self.tree_vertices(root):
                out = [s for s in g.neighbors(v) if s not in owner]
                for s in out:
                    if s in label:
                        continue
                    stars, trees, todo = {s}, [], [s]
                    while todo:
                        for w in g.neighbors(todo.pop()):
                            if w not in owner:
                                if w not in stars:
                                    stars.add(w)
                                    todo.append(w)
                            elif (r := self.root[owner[w]]) != root and r not in trees:
                                trees.append(r)
                                todo += self.around(r) - stars
                                stars |= self.around(r)
                    label.update(dict.fromkeys(stars, len(comps)))
                    trees.sort()
                    least = min([*stars] + [min(self.tree_vertices(r)) for r in trees])
                    comps.append((tuple((r, end[r]) for r in trees), frozenset(stars), least))
                if out:
                    attach.append((owner[v], v, tuple(sorted({label[s] for s in out}))))
            self.trees[root] = comps, attach
        return self.trees[root]

    def _middle(self, x: int, y: int, a: int, b: int, towards: int
                ) -> tuple[list[tuple[tuple[tuple[int, int], ...], frozenset[int]]], dict[int, int] | None]:
        """The parts of the middle, each as id ranges and the vertices of Ba
        it owns, and the part of each vertex of Ba - {x, y}, or None when the
        middle is whole: when Ba misses y, or Ba - {x, y} is connected."""
        end, sets = self.end, self.sets
        whole = [(((towards, b), (end[b], end[towards])), frozenset())]
        if self.parent[b] != towards or len(sets[towards]) < 4:
            return whole, None
        rest = sets[towards] - {x, y}
        part: dict[int, int] = {}
        count = 0
        for v in rest:  # flood Ba - {x, y}; an edge between vertices of Ba is Ba's
            if v not in part:
                part[v], todo = count, [v]
                while todo:
                    for w in self.graph.neighbors(todo.pop()):
                        if w in rest and w not in part:
                            part[w] = count
                            todo.append(w)
                count += 1
        if count < 2:
            return whole, None
        parts = [((), frozenset(v for v in rest if part[v] == i and v not in self.cut))
                 for i in range(count)]
        for c in self.children[towards]:
            if c != b:  # each subtree hangs off the part of its cut vertex
                i = part[self.cutv[c]]
                parts[i] = (parts[i][0] + ((c, end[c]),), parts[i][1])
        return parts, part

    def read(self, x: int, y: int, least_marked: int) -> list[PairComponent]:
        """The components of G - {x, y} next to both x and y with at least
        `least_marked` marked vertices, by least vertex."""
        end, verts, start, kids = self.end, self.verts, self.start, self.children
        a, b = self.cut[x], self.cut[y]
        if self.depth[a] > self.depth[b]:
            a, b, x, y = b, a, y, x
        towards = kids[a][bisect.bisect_right(kids[a], b) - 1]
        root = self.root[a]
        comps, attach = self._tree(root)
        middle, part = self._middle(x, y, a, b, towards)
        # per piece an attachment vertex joins to components of G - V(P), by
        # key: [ranges, vertices of Ba, next to a, next to b, those components]
        joined: dict[int, list] = {}
        near_a: tuple[int, ...] = ()
        near_b: tuple[int, ...] = ()
        for p, v, ids in attach:
            if p == a:
                near_a = ids
                continue
            if p == b:
                near_b = ids
                continue
            if b < p < end[b]:
                key = kids[b][bisect.bisect_right(kids[b], p) - 1]
                piece = ((key, end[key]),), frozenset(), False, True
            elif a < p < end[a]:
                key = kids[a][bisect.bisect_right(kids[a], p) - 1]
                if key != towards:
                    piece = ((key, end[key]),), frozenset(), True, False
                else:  # the part of v, or of the cut vertex its subtree hangs off
                    if part is not None and p != towards:
                        v = self.cutv[kids[towards][bisect.bisect_right(kids[towards], p) - 1]]
                    key = -2 - (part[v] if part is not None else 0)
                    piece = *middle[-2 - key], True, True
            else:
                key, piece = _UPPER, (((root, a), (end[a], end[root])), frozenset(), True, False)
            if key in joined:
                joined[key][4] += ids
            else:
                joined[key] = [*piece, ids]
        # label[i]: the least index of the components of G - V(P) joined to the i-th
        label = list(range(len(comps)))
        if len(comps) > 1:
            for *_, ids in joined.values():
                if len(labels := {label[i] for i in ids}) > 1:
                    label = [min(labels) if lab in labels else lab for lab in label]
        # group label -> [ranges of pieces, of other trees, vertex sets, least
        # vertex outside the pieces, next to a, next to b]
        groups = {lab: [[], [], [], math.inf, False, False] for lab in label}
        for i, lab in enumerate(label):
            trees, stars, least = comps[i]
            grp = groups[lab]
            grp[1] += trees
            grp[2].append(stars)
            grp[3] = min(grp[3], least)
            grp[4] |= i in near_a
            grp[5] |= i in near_b
        for ranges, share, to_a, to_b, ids in joined.values():
            grp = groups[label[ids[0]]]
            grp[0] += ranges
            if share:
                grp[2].append(share)
                grp[3] = min(grp[3], min(share))
            grp[4] |= to_a
            grp[5] |= to_b
        for i, (ranges, share) in enumerate(middle):  # the parts no vertex joins
            if -2 - i not in joined:
                groups[-2 - i] = [list(ranges), [], [share] if share else [], min(share, default=math.inf),
                                  True, True]
        out = []
        for lab, (pieces, trees, sets, least, to_a, to_b) in groups.items():
            if to_a and to_b and self.count(pieces + trees, sets) >= least_marked:
                least = min([least] + [min(verts[start[lo]:start[hi]])
                                       for lo, hi in pieces if start[lo] < start[hi]])
                out.append(PairComponent(least, (*pieces, *trees), tuple(sets), lab == -2 and part is None))
        return sorted(out) if len(out) > 1 else out

    def count(self, ranges: Iterable[tuple[int, int]], sets: Iterable[frozenset[int]]) -> int:
        """The marked vertices owned in the id `ranges` or lying in `sets`,
        as a `PairComponent` holds them."""
        before, counted = self.before, self.set_m
        n = 0
        for lo, hi in ranges:
            n += before[hi] - before[lo]
        for c in sets:
            if c not in counted:
                counted[c] = len(c & self.marked)
            n += counted[c]
        return n

    def vertices(self, comp: PairComponent) -> frozenset[int]:
        verts, start = self.verts, self.start
        return frozenset().union(*comp.sets, *(verts[start[lo]:start[hi]] for lo, hi in comp.ranges))

    def holds(self, comp: PairComponent, v: int) -> bool:
        """Whether the component holds v: by the id of v's owner if it has
        one in P, else by its sets, which miss P."""
        p = self.owner.get(v, -1)
        return any(lo <= p < hi for lo, hi in comp.ranges) or any(v in c for c in comp.sets)

    def path_marked(self, x: int, y: int) -> list[int]:
        """The marked vertices on the x-y path of F, strictly between x and
        y, in order from x, once each; x and y unmarked."""
        return self.f.path_vertices(self.cut[x], self.cut[y], self.marked)
