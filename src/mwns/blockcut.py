"""Block-cut forests: biconnected decomposition plus rooted-tree queries."""

from __future__ import annotations

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

    def blocks_containing(self, v: int) -> list[int]:
        """Ids of the block nodes holding v, ascending: its cut node's parent and children, or its owner."""
        if (c := self.cut_nodes.get(v)) is not None:
            return [self.parent[c], *self.children[c]]
        return [self.index.owner[v]] if v in self.index.owner else []

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


def nested_cut_pairs(f: BlockCutForest) -> list[tuple[int, int]]:
    """Cut-vertex pairs of f lying on a common root-to-leaf path, ascending."""
    pairs = []
    above: list[tuple[int, int]] = []  # (depth, vertex) of the node's cut-vertex ancestors
    for v, depth in zip(f.cutv, f.depth):  # pre-order, so each pair shows up once
        while above and above[-1][0] >= depth:
            above.pop()
        if v is not None:
            pairs += [(min(u, v), max(u, v)) for _, u in above]
            above.append((depth, v))
    return sorted(pairs)
