"""Block-cut forests: biconnected decomposition plus rooted-tree queries."""

from __future__ import annotations

import sys
from functools import cached_property
from typing import Iterable, NamedTuple

from .graph import Graph


def biconnected_blocks(g: Graph, exclude: Iterable[int] = ()) -> list[frozenset[int]]:
    """Blocks (2-connected subgraphs, bridge edges, isolated vertices) of g minus `exclude`.

    Iterative DFS low-link over a stack of vertices, neighbours in ascending
    order (g's shared tuples); a block leaves the stack when the DFS backs up
    from its highest vertex below its cut vertex. No subgraph is
    materialized, so this is the fast path for predicates that repeatedly
    probe vertex deletions.
    """
    adj = g.ascending_adjacency()
    # an excluded vertex counts as discovered, at a time above every low-link
    disc: dict[int, int] = dict.fromkeys(exclude, sys.maxsize)
    low: dict[int, int] = {}
    blocks: list[frozenset[int]] = []
    for root in g.vertices:
        if root in disc:
            continue
        disc[root] = low[root] = first = len(disc)
        # the DFS path, each path vertex's iterator over its remaining
        # neighbours, and the length of `pending` when it was entered
        path, iters, starts = [root], [iter(adj[root])], [0]
        pending: list[int] = []  # vertices entered and not yet in a block
        while path:
            v = path[-1]
            lv = low[v]  # written back before the DFS leaves v for a child
            for w in iters[-1]:
                if w not in disc:
                    low[v] = lv
                    disc[w] = low[w] = len(disc)
                    starts.append(len(pending))
                    pending.append(w)
                    path.append(w)
                    iters.append(iter(adj[w]))
                    break
                if disc[w] < lv:  # the parent too, which leaves the test below alone
                    lv = disc[w]
            else:
                path.pop()
                iters.pop()
                start = starts.pop()
                if path:
                    u = path[-1]
                    if lv < low[u]:
                        low[u] = lv
                    if lv >= disc[u]:
                        blocks.append(frozenset(pending[start:] + [u]))
                        del pending[start:]
        if len(disc) == first + 1:
            blocks.append(frozenset([root]))
    return blocks


def blocks_without(g: Graph, blocks: Iterable[frozenset[int]], z: Iterable[int]
                   ) -> list[frozenset[int]]:
    """Blocks of H - z, given `blocks`, the blocks of an induced subgraph H of g.

    A block of H - z is 2-connected or an edge in H, so it lies inside one
    block of H: the blocks z misses stay whole, and only the remnant of each
    block z hits is decomposed again. A remnant's singleton {v} is a block of
    H - z only if no other block of two or more vertices holds v.
    """
    z = frozenset(z)
    out = [b for b in blocks if b.isdisjoint(z)]
    out += [c for b in blocks if not b.isdisjoint(z) and (rest := b - z)
            for c in biconnected_blocks(g.induced(rest))]
    big = [b for b in out if len(b) > 1]
    single = {v for b in out if len(b) == 1 for v in b}.difference(*big)
    return big + [frozenset([v]) for v in sorted(single)]


class BCNode(NamedTuple):
    id: int
    kind: str  # "block" | "cut"
    vertices: frozenset[int]

    @property
    def vertex(self) -> int:
        if self.kind != "cut":
            raise ValueError("not a cut node")
        return next(iter(self.vertices))

    def label(self) -> str:
        if self.kind == "cut":
            return str(self.vertex)
        return "{" + ",".join(str(v) for v in sorted(self.vertices)) + "}"


class BlockCutForest:
    """Rooted block-cut forest of a graph.

    One tree per connected component, bipartite between block nodes and cut
    nodes, rooted at the block whose sorted vertex set is lexicographically
    smallest. Node ids are assigned in pre-order so traversals and traces are
    reproducible across runs. The forest depends only on the set of blocks,
    so `blocks`, when given, may list them in any order; they may also be
    those of an induced subgraph H of `graph`, whose forest this then is.
    """

    def __init__(self, graph: Graph, blocks: list[frozenset[int]] | None = None):
        self.graph = graph
        if blocks is None:
            blocks = biconnected_blocks(graph)
        cuts: set[int] = set()
        owner: set[int] = set()
        for b in blocks:
            cuts |= b & owner
            owner |= b
        # blocks in order of their sorted vertex lists; each cut vertex's
        # list of incident blocks then comes out in that order too
        blocks = sorted(blocks, key=sorted)
        cut_blocks: dict[int, list[int]] = {c: [] for c in cuts}
        for i, b in enumerate(blocks):
            for c in b & cuts:
                cut_blocks[c].append(i)

        nodes: list[BCNode] = []
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
                    nodes.append(BCNode(nid, "block", blocks[key]))
                    for c in sorted(blocks[key] & cuts, reverse=True):
                        if c not in cut_node:
                            work.append((c, nid, d + 1, False))
                else:
                    cut_node[key] = nid
                    nodes.append(BCNode(nid, "cut", frozenset((key,))))
                    for j in reversed(cut_blocks[key]):
                        if not placed[j]:
                            work.append((j, nid, d + 1, True))

        self.nodes: tuple[BCNode, ...] = tuple(nodes)
        self.parent: tuple[int | None, ...] = tuple(parent)
        self.children: tuple[tuple[int, ...], ...] = tuple(map(tuple, children))
        self.depth: tuple[int, ...] = tuple(depth)
        self.roots: tuple[int, ...] = tuple(roots)
        self._cut_node = cut_node

    @cached_property
    def _blocks_of(self) -> dict[int, list[int]]:
        """vertex -> ids of the block nodes holding it, ascending"""
        out: dict[int, list[int]] = {}
        for nd in self.nodes:
            if nd.kind == "block":
                for v in nd.vertices:
                    out.setdefault(v, []).append(nd.id)
        return out

    # -- basic lookups ----------------------------------------------------

    def node(self, nid: int) -> BCNode:
        if not 0 <= nid < len(self.nodes):
            raise KeyError(f"unknown node id {nid}")
        return self.nodes[nid]

    def is_cut_vertex(self, v: int) -> bool:
        return v in self._cut_node

    def cut_node_of(self, v: int) -> int:
        return self._cut_node[v]

    def blocks_containing(self, v: int) -> list[int]:
        return list(self._blocks_of.get(v, ()))

    def node_of_vertex(self, v: int) -> int:
        """Cut node for a cut vertex, else the unique block containing v."""
        if v in self._cut_node:
            return self._cut_node[v]
        if v not in self._blocks_of:
            raise KeyError(f"vertex {v} not in decomposed graph")
        return self._blocks_of[v][0]

    def tree_edges(self) -> list[tuple[int, int]]:
        return [(p, c.id) for c in self.nodes if (p := self.parent[c.id]) is not None]

    def root_of(self, nid: int) -> int:
        while self.parent[nid] is not None:
            nid = self.parent[nid]
        return nid

    def tree_path(self, a: int, b: int) -> list[int]:
        """Node ids on the unique tree path from a to b, inclusive."""
        self.node(a), self.node(b)
        if self.root_of(a) != self.root_of(b):
            raise ValueError("nodes lie in different trees")
        up_a, up_b = [a], [b]
        x, y = a, b
        while self.depth[x] > self.depth[y]:
            x = self.parent[x]
            up_a.append(x)
        while self.depth[y] > self.depth[x]:
            y = self.parent[y]
            up_b.append(y)
        while x != y:
            x = self.parent[x]
            y = self.parent[y]
            up_a.append(x)
            up_b.append(y)
        return up_a + up_b[-2::-1]

    # -- spec queries ------------------------------------------------------

    def subtree_vertices(self, d: int) -> frozenset[int]:
        """Graph vertices occurring in blocks of the subtree rooted at node d."""
        self.node(d)
        # ids are pre-order: d's subtree is the id range d..stop-1
        stop = d + 1
        while stop < len(self.nodes) and self.depth[stop] > self.depth[d]:
            stop += 1
        return frozenset().union(*(nd.vertices for nd in self.nodes[d:stop]))


def block_cut_forest(g: Graph, blocks: list[frozenset[int]] | None = None) -> BlockCutForest:
    """The block-cut forest of g, assembled from `blocks` when given (the
    blocks of g or of an induced subgraph of g, in any order) instead of
    decomposing g again."""
    return BlockCutForest(g, blocks)
