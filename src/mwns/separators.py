"""Vertex-capacitated flow, minimum/important separators, and Q-path duality."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, reachable
from .blockcut import block_cut_forest

INF = 1 << 30


class MultiTerminalBlockError(RuntimeError):
    """A block carries two or more terminals where the caller guaranteed at most one."""


@dataclass(frozen=True)
class SeparatorQuery:
    graph: Graph
    sources: frozenset[int]
    sinks: frozenset[int]
    undeletable: frozenset[int] = frozenset()

    @staticmethod
    def of(graph: Graph, sources: Iterable[int], sinks: Iterable[int],
           undeletable: Iterable[int] = ()) -> "SeparatorQuery":
        return SeparatorQuery(graph, frozenset(sources), frozenset(sinks), frozenset(undeletable))


# ---------------------------------------------------------------------------
# flow engine on the split-vertex network
# ---------------------------------------------------------------------------

Group = tuple[Iterable[int], int]  # a source or sink group: its vertices and its arc capacity


class _SplitNet:
    """Residual network of one vertex-flow query, on dense integer node ids.

    Vertex g.vertices[i] is the in-node 2i+2 and the out-node 2i+3, joined by
    an arc of capacity 1, or INF for a protected vertex; each edge uv gives
    the arcs out(u)->in(v) and out(v)->in(u) of capacity INF. Node 0 is the
    super-source and node 1 the super-sink. Each source group is one node fed
    from 0 with the group's capacity that feeds its members' in-nodes, each
    sink group one node fed by its members' out-nodes that feeds 1 with the
    group's capacity. Arc e^1 is the reverse of arc e. Deleted vertices get
    no arcs, as if they were not in g.
    """

    __slots__ = ("vertices", "head", "cap", "adj")

    def __init__(self, g: Graph, sources: list[Group], sinks: list[Group],
                 protected: frozenset[int] = frozenset(), deleted: frozenset[int] = frozenset()):
        vs = g.vertices
        index = {v: i for i, v in enumerate(vs)}
        head: list[int] = []
        cap: list[int] = []
        adj: list[list[int]] = [[] for _ in range(2 * len(vs) + 2 + len(sources) + len(sinks))]

        def arc(u: int, w: int, c: int) -> None:
            adj[u].append(len(head))
            head.append(w)
            cap.append(c)
            adj[w].append(len(head))
            head.append(u)
            cap.append(0)

        for i, v in enumerate(vs):
            if v in deleted:
                continue
            arc(2 * i + 2, 2 * i + 3, INF if v in protected else 1)
            for w in g.neighbors(v):
                if w not in deleted:
                    arc(2 * i + 3, 2 * index[w] + 2, INF)
        node = 2 * len(vs) + 2
        for members, c in sources:
            arc(0, node, c)
            for v in members:
                if v not in deleted:
                    arc(node, 2 * index[v] + 2, INF)
            node += 1
        for members, c in sinks:
            for v in members:
                if v not in deleted:
                    arc(2 * index[v] + 3, node, INF)
            arc(node, 1, c)
            node += 1
        self.vertices, self.head, self.cap, self.adj = vs, head, cap, adj

    def flow(self, stop: int = INF) -> int:
        """Augment along shortest residual paths until none is left or the
        value reaches `stop`; returns the value."""
        head, cap, adj = self.head, self.cap, self.adj
        value = 0
        while value < stop:
            via = [-1] * len(adj)  # arc by which BFS first entered each node
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
            push, node = stop - value, 1
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

    def cut(self, furthest: bool = False) -> tuple[frozenset[int], frozenset[int]]:
        """A minimum cut after a maximum flow, and the vertices whose out-node is
        on its source side: the cut closest to the sources, by a residual search
        forward from 0, or the furthest, by one backward from 1, whose source
        side then also holds the vertices the network leaves out."""
        head, cap, adj = self.head, self.cap, self.adj
        start = back = int(furthest)  # backward, arc e enters u when arc e^1 has room
        seen = [False] * len(adj)
        seen[start] = True
        queue = [start]
        for u in queue:
            for e in adj[u]:
                if cap[e ^ back] > 0 and not seen[head[e]]:
                    seen[head[e]] = True
                    queue.append(head[e])
        vs, near, far = self.vertices, seen[2 + back::2], seen[3 - back::2]  # zip drops groups
        cut = frozenset(v for v, a, b in zip(vs, near, far) if a and not b)
        return cut, frozenset(v for v, out in zip(vs, seen[3::2]) if out != furthest)

    def paths(self) -> list[tuple[int, list[int]]]:
        """The flow as unit walks from 0 to 1 with flow cycles erased: per
        walk, the index of its source group and its graph vertices in order."""
        head, cap, adj = self.head, self.cap, self.adj
        used = [0 if e & 1 else cap[e ^ 1] for e in range(len(head))]
        first_group = 2 * len(self.vertices) + 2
        out = []
        while True:
            walk, pos, node = [0], {0: 0}, 0
            while node != 1:
                for e in adj[node]:
                    if used[e] > 0:
                        used[e] -= 1
                        node = head[e]
                        if node in pos:  # erase the flow cycle just closed
                            for gone in walk[pos[node] + 1:]:
                                del pos[gone]
                            del walk[pos[node] + 1:]
                        else:
                            pos[node] = len(walk)
                            walk.append(node)
                        break
                else:
                    break
            if node != 1:
                return out
            out.append((walk[1] - first_group,
                        [self.vertices[(u - 3) // 2] for u in walk if 2 < u < first_group and u & 1]))


def max_vertex_flow(q: SeparatorQuery) -> tuple[int | float, list[list[int]]]:
    """Min size of an (X,Y)-separator among deletable vertices (inf if none),
    plus unit paths witnessing the matching flow."""
    g, X, Y = q.graph, q.sources, q.sinks
    net = _SplitNet(g, [(X, INF)], [(Y, INF)], X | Y | q.undeletable)
    value = net.flow()
    if value >= INF:
        return math.inf, []
    return value, [path for _, path in net.paths()]


def min_cut(g: Graph, X: frozenset[int], Y: frozenset[int],
            protected: frozenset[int] = frozenset(), deleted: frozenset[int] = frozenset(),
            furthest: bool = False) -> tuple[int | float, frozenset[int], frozenset[int]]:
    """(value, cut, source side) of the vertex flow from X to Y in g minus
    `deleted`, where any vertex outside `protected` may be cut, X and Y
    included: the minimum cut closest to X, or with `furthest` the one closest
    to Y, whose source side is all that Y then no longer reaches. Value inf,
    and both sets empty, if no cut exists."""
    if X | Y <= protected and (X & Y or any(g.has_edge(x, y) for x in X for y in Y)):
        return math.inf, frozenset(), frozenset()  # fast path: the flow would find it too
    net = _SplitNet(g, [(X, INF)], [(Y, INF)], protected, deleted)
    value = net.flow()
    if value >= INF:
        return math.inf, frozenset(), frozenset()
    cut, side = net.cut(furthest)
    return value, cut, side - deleted


def min_separator(q: SeparatorQuery) -> set[int]:
    """Minimum-cardinality (X,Y)-separator disjoint from X, Y and the
    undeletable set; ties broken toward the X side (leftmost cut)."""
    X, Y = q.sources, q.sinks
    value, cut, _ = min_cut(q.graph, X, Y, X | Y | q.undeletable)
    if value is math.inf:
        raise ValueError("no finite separator: source and sink sides touch or "
                         "every cut needs an undeletable vertex")
    return set(cut)


def _is_important(g: Graph, X: frozenset[int], Y: frozenset[int], protected: frozenset[int],
                  S: frozenset[int]) -> bool:
    """Whether S, a set outside X, Y and `protected`, is an important
    (X,Y)-separator avoiding `protected`: with R the vertices X reaches in
    g - S, the furthest minimum (R,Y)-cut is S itself."""
    R = frozenset(reachable(g, X, S))
    value, cut, _ = min_cut(g, R, Y, protected | R, furthest=True)
    return value == len(S) and cut == S


def enumerate_important_separators(q: SeparatorQuery, k: int) -> tuple[frozenset[int], ...]:
    """All important (X,Y)-separators of size <= k avoiding the undeletable set,
    by size, then by sorted members.

    Branches on the furthest minimum cut S_max, of value λ and source side
    R_max (Marx 2006; Cygan et al. 2015, Thm 8.11): v = min(S_max) joins the
    separator (delete v, budget - 1) or stays on the source side (X :=
    R_max + v, which raises λ). Either lowers 2k - λ, so the recursion is at
    most 2k + 2 deep with at most 4^k leaves. Deleting v only promises a
    separator important in G - v, so one flow checks each candidate.
    """
    g, Y, protected = q.graph, q.sinks, q.sinks | q.undeletable

    def candidates(deleted: frozenset[int], X: frozenset[int], budget: int) -> set[frozenset[int]]:
        value, cut, side = min_cut(g, X, Y, protected | X, deleted, furthest=True)
        if value > budget:  # inf included
            return set()
        if value == 0:
            return {frozenset()}
        v = min(cut)
        out = {s | {v} for s in candidates(deleted | {v}, X, budget - 1)}
        return out | candidates(deleted, side | {v}, budget)

    found = candidates(frozenset(), q.sources, k)
    return tuple(sorted((s for s in found if _is_important(g, q.sources, Y, protected, s)),
                        key=lambda s: (len(s), sorted(s))))


# ---------------------------------------------------------------------------
# forced-vertex path test
# ---------------------------------------------------------------------------

def path_through_forced_vertex(g: Graph, A: Iterable[int], B: Iterable[int], t: int
                               ) -> list[int] | None:
    """Simple path from some a in A to some b in B passing through t, or None.

    Realized as a flow of value 2 into the sink t, one unit drawn from the
    group A and one from the group B.
    """
    A, B = frozenset(A), frozenset(B)
    if t in A or t in B:
        raise ValueError("forced vertex must not lie in the endpoint sets")
    if not A or not B or t not in g:
        return None
    net = _SplitNet(g, [(A, 1), (B, 1)], [({t}, INF)], frozenset([t]))
    if net.flow(stop=2) < 2:
        return None
    sides = dict(net.paths())
    return sides[0] + sides[1][-2::-1]


# ---------------------------------------------------------------------------
# terminals on a simple path, via the block-cut tree
# ---------------------------------------------------------------------------

def terminals_on_path(g: Graph, T: Iterable[int], a: int, b: int) -> list[int] | None:
    """Terminals of a simple a-b path carrying the most of them, in path order;
    None when a and b lie in different components.

    Requires every block to carry at most one terminal (raises
    MultiTerminalBlockError otherwise); under that guarantee the optimum
    walks the a-b tree path of the block-cut forest and takes every terminal
    cut vertex on it plus each on-path block's own terminal, all of which
    one path can visit in that order.
    """
    T = frozenset(T)
    if a == b:
        return [a] if a in T else []
    f = block_cut_forest(g)
    for nd in f.nodes:
        if nd.kind == "block" and len(nd.vertices & T) > 1:
            raise MultiTerminalBlockError(
                f"block {sorted(nd.vertices)} carries {sorted(nd.vertices & T)}")
    na, nb_ = f.node_of_vertex(a), f.node_of_vertex(b)
    if f.root_of(na) != f.root_of(nb_):
        return None
    found: list[int] = []
    for nid in f.tree_path(na, nb_):
        for t in f.nodes[nid].vertices & T:
            if t not in found:
                found.append(t)
    return found


def max_terminals_on_path(g: Graph, T: Iterable[int], a: int, b: int) -> int:
    """Maximum number of terminals on a simple a-b path (see terminals_on_path)."""
    found = terminals_on_path(g, T, a, b)
    if found is None:
        raise ValueError("endpoints lie in different components")
    return len(found)


# ---------------------------------------------------------------------------
# Gallai Q-path packing and covering
# ---------------------------------------------------------------------------
def _blossom_matching(adj: list[list[int]]) -> tuple[list[int], set[int]]:
    """Maximum matching of the graph on nodes 0..n-1 with adjacency lists
    `adj` (Edmonds' blossom algorithm), as each node's mate or -1, and its
    Gallai-Edmonds set D, the nodes that some maximum matching leaves
    exposed: the outer nodes of one failed search from each exposed node.
    Raises RuntimeError if such a search augments instead, so the matching
    is checked to be maximum.
    """
    n = len(adj)
    mate = [-1] * n

    def search(root: int) -> tuple[int, list[int], list[bool]]:
        # grow an alternating tree from the exposed root, shrinking each
        # blossom into its base and making all its nodes outer; return the
        # exposed node an augmenting path reaches (or -1), the tree parents
        # and the outer marks
        base = list(range(n))
        parent = [-1] * n
        outer = [False] * n
        outer[root] = True
        queue = [root]

        def common_base(a: int, b: int) -> int:
            up = set()
            while True:
                a = base[a]
                up.add(a)
                if mate[a] == -1:
                    break
                a = parent[mate[a]]
            b = base[b]
            while b not in up:
                b = base[parent[mate[b]]]
            return b

        def mark(v: int, b: int, child: int, blossom: set[int]) -> None:
            while base[v] != b:
                blossom.update((base[v], base[mate[v]]))
                parent[v] = child
                child = mate[v]
                v = parent[child]

        for v in queue:
            for w in adj[v]:
                if base[v] == base[w] or mate[v] == w:
                    continue
                if outer[w]:
                    b = common_base(v, w)
                    blossom: set[int] = set()
                    mark(v, b, w, blossom)
                    mark(w, b, v, blossom)
                    for i in range(n):
                        if base[i] in blossom:
                            base[i] = b
                            if not outer[i]:
                                outer[i] = True
                                queue.append(i)
                elif parent[w] == -1:
                    parent[w] = v
                    if mate[w] == -1:
                        return w, parent, outer
                    outer[mate[w]] = True
                    queue.append(mate[w])
        return -1, parent, outer

    for root in range(n):
        if mate[root] == -1:
            w, parent, _ = search(root)
            while w != -1:  # flip the path from w back to the root
                v = parent[w]
                nxt = mate[v]
                mate[v], mate[w] = w, v
                w = nxt
    D: set[int] = set()
    for root in range(n):
        if mate[root] == -1:
            w, _, outer = search(root)
            if w != -1:
                raise RuntimeError(f"an augmenting path from node {root} remains")
            D.update(i for i in range(n) if outer[i])
    return mate, D


def _q_path_packing(g: Graph, Q: frozenset[int]) -> tuple[list[list[int]], frozenset[int]]:
    """Maximum family of vertex-disjoint paths with both distinct endpoints in
    Q, and a set U with |U| + sum over the components K of G - U of
    floor(|Q ∩ K| / 2) equal to its size.

    Encoded as maximum matching in an auxiliary graph H: a Q vertex is one
    node, any other vertex v two adjacent nodes v', v''; matched pairs stand
    for unused vertices and through-matched pairs for path interiors. U is the
    vertices with a node in A = N(D) - D, for the Gallai-Edmonds set D of H.
    Swapping v' and v'' is an automorphism of H, so both lie in one class; the
    components of G - U and of H - A correspond, each with a node count of
    the parity of its Q count; and H misses c(D) - |A| nodes, c(D) the number
    of components of H[D]. Together these give the identity.
    """
    vertex: list[int] = []  # graph vertex of each node
    first: dict[int, int] = {}  # its first node; a non-Q vertex's second follows
    for v in g.vertices:
        first[v] = len(vertex)
        vertex += [v] if v in Q else [v, v]
    twin = [-1 if v in Q else 2 * first[v] + 1 - i for i, v in enumerate(vertex)]
    adj: list[list[int]] = [[t] if t >= 0 else [] for t in twin]
    for u, v in g.edges():
        for i in range(first[u], first[u] + 2 - (u in Q)):
            for j in range(first[v], first[v] + 2 - (v in Q)):
                adj[i].append(j)
                adj[j].append(i)
    mate, D = _blossom_matching(adj)

    # rotate dead stubs (one copy matched elsewhere, the other exposed) onto
    # pair edges; both copies exposed would leave the pair edge augmenting
    changed = True
    while changed:
        changed = False
        for i, t in enumerate(twin):
            if t >= 0 and mate[t] == -1:
                mate[mate[i]] = -1
                mate[i], mate[t] = t, i
                changed = True

    paths = []
    ends: set[int] = set()
    for q in sorted(Q):
        i = mate[first[q]]
        if q in ends or i == -1:
            continue
        walk = [q]
        while twin[i] >= 0:
            walk.append(vertex[i])
            i = mate[twin[i]]
        walk.append(vertex[i])
        ends.update((q, vertex[i]))
        paths.append(walk)
    A = {j for i in D for j in adj[i]} - D
    return paths, frozenset(vertex[i] for i in A)


def _has_q_path(g: Graph, Q: frozenset[int], removed: Iterable[int] = ()) -> bool:
    gone = set(removed)
    alive = Q - gone
    return any(len(reachable(g, [q], gone) & alive) > 1 for q in alive)


def gallai_q_paths(d_t: Graph, Q: Iterable[int]) -> tuple[list[list[int]], set[int]]:
    """Maximum vertex-disjoint Q-path packing and a cover of at most twice its
    size after which no Q-path remains."""
    Q = frozenset(Q)
    if not Q <= set(d_t.vertices):
        raise ValueError("Q must be a subset of the graph vertices")
    if len(Q) <= 1:
        return [], set()
    packing, U = _q_path_packing(d_t, Q)
    nu = len(packing)
    if nu == 0:
        return [], set()
    cover = set(U)
    for v in d_t.vertices:
        if v in U:
            continue
        comp = reachable(d_t, [v], U)
        if min(comp) == v:  # visit each component once, via its smallest vertex
            hit = sorted(comp & Q)
            cover.update(hit[1:])
    for v in sorted(cover):  # minimalize, smallest ids dropped first
        if not _has_q_path(d_t, Q, cover - {v}):
            cover.discard(v)
    if len(cover) > 2 * nu or _has_q_path(d_t, Q, cover):
        raise RuntimeError(f"Q-path cover {sorted(cover)} is not a hitting set of size <= {2 * nu}")
    return packing, cover
