"""Vertex-capacitated flow, minimum/important separators, and Q-path duality."""

from __future__ import annotations

import math
from itertools import compress
from operator import gt, not_
from typing import Iterable

from .graph import Graph, reachable
from .blockcut import block_cut_forest

INF = 1 << 30


class MultiTerminalBlockError(RuntimeError):
    """A block carries two or more terminals where the caller guaranteed at most one."""


# ---------------------------------------------------------------------------
# flow engine on the split-vertex network
# ---------------------------------------------------------------------------

class _SplitNet:
    """Split-vertex network of one graph, built once and reset for each query,
    whose flow `augment`, `widen` and `cancel` can carry on to a next query.

    Vertex g.vertices[i] is the in-node 2i+2 and the out-node 2i+3, joined by
    its through arc of capacity 1; an edge uv gives arcs out(u)->in(v) and
    out(v)->in(u) of capacity INF. Node 0 is the super-source and node 1 the
    super-sink, with arcs 0->in(v) and out(v)->1 of capacity 0 until a query
    names v a source or sink (INF); a query also gives protected vertices
    through capacity INF and deleted ones 0. Arc e^1 is the reverse of arc e.
    Arcs 4i and 4i + 2 are vertex i's source and sink arcs; then, vertex by
    vertex, its through arc and its edge arcs in g.neighbors order. Each node
    lists its arcs in that build order, and every search scans them in it.
    No capacity goes negative, so a search reads `cap[e]` as "e has room".
    """

    __slots__ = ("graph", "index", "head", "adj", "base", "through", "cap")

    def __init__(self, g: Graph):
        vs = g.vertices
        n = len(vs)
        index = g.index()[0]
        head = [0, 0, 1, 0] * n
        head[::4], head[3::4] = range(2, 2 * n + 2, 2), range(3, 2 * n + 3, 2)
        # 0 and 1 hold the source arcs and the sink arcs' reverses; in(i), out(i) the rest
        adj = [list(range(0, 4 * n, 4)), list(range(3, 4 * n, 4))]
        adj += ([e] for a in range(1, 4 * n, 4) for e in (a, a + 1))
        through: list[int] = []
        for i, v in enumerate(vs):
            vin, vout, e = 2 * i + 2, 2 * i + 3, len(head)
            through.append(e)
            adj[vin].append(e)
            adj[vout].append(e + 1)
            head += (vout, vin)
            for w in g.neighbors(v):
                win, e = 2 * index[w] + 2, e + 2
                adj[vout].append(e)
                adj[win].append(e + 1)
                head += (win, vout)
        base = [0] * len(head)  # reverse arcs 0, edge arcs INF, through arcs 1
        base[4 * n::2] = [INF] * (len(head) // 2 - 2 * n)
        for e in through:
            base[e] = 1
        self.graph, self.index, self.head, self.adj = g, index, head, adj
        self.base, self.through = base, through

    def flow(self, sources: Iterable[int], sinks: Iterable[int],
             protected: Iterable[int] = (), deleted: Iterable[int] = (), stop: int = INF) -> int:
        """Maximum flow from `sources` to `sinks` in g - `deleted`, `protected`
        uncapacitated, by shortest augmenting paths; stops at value `stop`."""
        index, through = self.index, self.through
        cap = self.cap = self.base[:]
        for v in protected:
            cap[through[index[v]]] = INF
        for v in sources:
            cap[4 * index[v]] = INF
        for v in sinks:
            cap[4 * index[v] + 2] = INF
        for v in deleted:
            i = index[v]
            cap[through[i]] = cap[4 * i] = cap[4 * i + 2] = 0
        return self.augment(stop)

    def augment(self, limit: int = INF) -> int:
        """Grow the flow in `cap` by at most `limit`; returns the growth."""
        cap, head, adj = self.cap, self.head, self.adj
        value = 0
        while value < limit:
            via = [-1] * len(adj)  # arc by which BFS first entered each node
            via[0] = -2
            queue = [0]
            for u in queue:
                for e in adj[u]:
                    if cap[e]:
                        w = head[e]
                        if via[w] == -1:
                            via[w] = e
                            queue.append(w)
                if via[1] != -1:
                    break
            else:
                break
            push, node = limit - value, 1
            while node:
                e = via[node]
                if cap[e] < push:
                    push = cap[e]
                node = head[e ^ 1]
            node = 1
            while node:
                e = via[node]
                cap[e] -= push
                cap[e ^ 1] += push
                node = head[e ^ 1]
            value += push
        return value

    def widen(self, sources: Iterable[int]) -> None:
        """Make `sources` uncapacitated sources of the query, keeping the flow."""
        index, through, cap = self.index, self.through, self.cap
        for v in sources:
            i = index[v]
            for e in (4 * i, through[i]):
                cap[e] = INF - cap[e ^ 1]  # capacity INF, less the flow on e

    def cancel(self, v: int) -> None:
        """Take the unit of flow through v, a vertex of capacity 1 that is
        neither source nor sink, back to 0 and 1 along flow-carrying arcs, then
        mark v absent. A flow on arc e, even, is cap[e ^ 1]; walking forward
        takes even arcs, and backward the odd arcs that reverse them."""
        head, adj, cap = self.head, self.adj, self.cap
        i = self.index[v]
        for back in (0, 1):  # forward from in(v), whose one even arc is v's through arc
            node = 2 * i + 2
            while node != 1 - back:
                for e in adj[node]:
                    if e & 1 == back and cap[e ^ 1 ^ back] > 0:
                        cap[e ^ 1 ^ back] -= 1
                        cap[e ^ back] += 1
                        node = head[e]
                        break
                else:
                    raise RuntimeError(f"no flow-carrying arc at network node {node} "
                                       f"while cancelling the unit through {v}")
        cap[self.through[i]] = 0

    def cut(self, deleted: frozenset[int], furthest: bool = False
            ) -> tuple[frozenset[int], frozenset[int]]:
        """(cut, source side) of the maximum flow in `cap`, less `deleted`, by
        one residual search forward from 0 for the closest minimum cut, or
        backward from 1 for the furthest."""
        g, head, cap, adj = self.graph, self.head, self.cap, self.adj
        start = back = int(furthest)  # backward, arc e enters u when arc e^1 has room
        seen = [False] * len(adj)
        seen[start] = True
        queue = [start]
        for u in queue:
            for e in adj[u]:
                if cap[e ^ back]:
                    w = head[e]
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
        vs, out = g.vertices, seen[3::2]
        cut = frozenset(compress(vs, map(gt, seen[2 + back::2], seen[3 - back::2])))
        side = frozenset(compress(vs, map(not_, out) if furthest else out))
        return cut - deleted, side - deleted

    def paths(self) -> list[list[int]]:
        """The flow as unit walks from 0 to 1, flow cycles erased, in graph vertices."""
        head, cap, adj, vs = self.head, self.cap, self.adj, self.graph.vertices
        used = [0 if e & 1 else cap[e ^ 1] for e in range(len(head))]
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
            out.append([vs[(u - 3) // 2] for u in walk[2::2]])  # 0, in, out, ..., out, 1


def _require_vertices(g: Graph, X: frozenset[int], Y: frozenset[int],
                      undeletable: frozenset[int], deleted: frozenset[int]) -> None:
    """The check of a query's ids: a ValueError names those outside g."""
    if foreign := g.foreign(X | Y | undeletable | deleted):
        raise ValueError(f"vertices {foreign} of X, Y, undeletable or deleted are not in the graph")


def max_vertex_flow(g: Graph, X: Iterable[int], Y: Iterable[int], undeletable: Iterable[int] = (),
                    deleted: Iterable[int] = ()) -> tuple[int | float, list[list[int]]]:
    """Min size of an (X,Y)-separator in g - `deleted` outside X, Y and
    `undeletable` (inf if none), plus unit paths witnessing the matching flow."""
    X, Y, undeletable, deleted = frozenset(X), frozenset(Y), frozenset(undeletable), frozenset(deleted)
    _require_vertices(g, X, Y, undeletable, deleted)
    net = _SplitNet(g)
    value = net.flow(X, Y, X | Y | undeletable, deleted)
    if value >= INF:
        return math.inf, []
    return value, net.paths()


def min_cut(g: Graph, X: frozenset[int], Y: frozenset[int],
            protected: frozenset[int] = frozenset(), deleted: frozenset[int] = frozenset()
            ) -> tuple[int | float, frozenset[int], frozenset[int]]:
    """(value, cut, source side) of the vertex flow from X to Y in g minus
    `deleted`, where any vertex outside `protected` may be cut, X and Y
    included: the minimum cut closest to X. Value inf, and both sets empty,
    if no cut exists, as when protected sides touch. A ValueError names ids
    outside g."""
    if foreign := g.foreign(X | Y | protected | deleted):
        raise ValueError(f"vertices {foreign} of X, Y, protected or deleted are not in the graph")
    net = _SplitNet(g)
    value = net.flow(X, Y, protected, deleted)
    if value >= INF:
        return math.inf, frozenset(), frozenset()
    return (value, *net.cut(deleted))


def min_separator(g: Graph, X: Iterable[int], Y: Iterable[int], undeletable: Iterable[int] = (),
                  deleted: Iterable[int] = ()) -> set[int]:
    """Minimum-cardinality (X,Y)-separator in g - `deleted`, disjoint from X,
    Y and `undeletable`; ties broken toward the X side (leftmost cut)."""
    X, Y, undeletable, deleted = frozenset(X), frozenset(Y), frozenset(undeletable), frozenset(deleted)
    _require_vertices(g, X, Y, undeletable, deleted)
    value, cut, _ = min_cut(g, X, Y, X | Y | undeletable, deleted)
    if value is math.inf:
        raise ValueError("no finite separator: source and sink sides touch or "
                         "every cut needs an undeletable vertex")
    return set(cut)


def enumerate_important_separators(g: Graph, X: Iterable[int], Y: Iterable[int], k: int,
                                   undeletable: Iterable[int] = (), deleted: Iterable[int] = (),
                                   net: _SplitNet | None = None) -> tuple[frozenset[int], ...]:
    """All important (X,Y)-separators of size <= k in g - `deleted` avoiding
    `undeletable`, by size, then by sorted members. Every flow runs on `net`,
    a network of g that the caller may share between queries, or a new one.

    Branches on the furthest minimum cut S_max, of value λ and source side
    R_max (Marx 2006; Cygan et al. 2015, Thm 8.11): v = min(S_max) joins the
    separator (delete v, budget - 1) or stays on the source side (X :=
    R_max + v, which raises λ). Either lowers 2k - λ, so the recursion is at
    most 2k + 2 deep with at most 4^k leaves. Deleting v only promises a
    separator important in G - v, so a candidate S stays iff no other one S'
    has |S'| <= |S| and R(S') ⊇ R(S), R(S) being what X reaches in g -
    `deleted` - S. Each separator has an important S* with |S*| <= |S| and
    R(S*) ⊇ R(S), a candidate if |S| <= k, so a non-minimal or dominated S
    fails. An important S stays: a no larger S' reaching further would
    contradict it, and one of equal reach holds N(R(S)) = S, so is S.

    Only the root's flow starts from zero, and each stops at budget + 1. A
    push child keeps its parent's, which stays feasible; a delete child cancels
    its unit through v, and as S_max - v separates G - v, λ - 1 is maximum: it
    augments no further.
    """
    X, Y, undeletable, deleted = frozenset(X), frozenset(Y), frozenset(undeletable), frozenset(deleted)
    _require_vertices(g, X, Y, undeletable, deleted)
    protected = Y | undeletable
    net = net or _SplitNet(g)
    if net.graph is not g:
        raise ValueError("the network was built on another graph than the query's")

    def candidates(gone: frozenset[int], budget: int, value: int) -> set[frozenset[int]]:
        # `net` holds this node's flow of `value`: maximum, or past the budget
        if value > budget:
            return set()
        if value == 0:
            return {frozenset()}
        cut, side = net.cut(gone, furthest=True)
        v = min(cut)
        saved = net.cap[:]
        net.cancel(v)
        out = {s | {v} for s in candidates(gone | {v}, budget - 1, value - 1)}
        net.cap = saved
        net.widen(side | {v})
        return out | candidates(gone, budget, value + net.augment(budget + 1 - value))

    found = candidates(deleted, k, net.flow(X, Y, protected | X, deleted, k + 1))
    reach = [(s, frozenset(reachable(g, X, s | deleted))) for s in found]
    return tuple(sorted((s for s, r in reach
                         if not any(len(s2) <= len(s) and len(r2) >= len(r) and s2 != s and r <= r2
                                    for s2, r2 in reach)),
                        key=lambda s: (len(s), sorted(s))))


# ---------------------------------------------------------------------------
# forced-vertex path test
# ---------------------------------------------------------------------------

def path_through_forced_vertex(g: Graph, A: Iterable[int], B: Iterable[int], t: int
                               ) -> list[int] | None:
    """Simple path from some a in A to some b in B passing through t, or None.

    Realized as a flow of value 2 from t into two fresh apex vertices, one
    joined to all of A and one to all of B: each apex passes one unit, so
    the units run t..a and t..b, disjoint but for t.
    """
    A, B = frozenset(A), frozenset(B)
    if foreign := g.foreign(A | B | {t}):
        raise ValueError(f"vertices {foreign} of A, B or t are not in the graph")
    if t in A or t in B:
        raise ValueError("forced vertex must not lie in the endpoint sets")
    if not A or not B:
        return None
    a0, b0 = g.vertices[-1] + 1, g.vertices[-1] + 2
    h = Graph([*g.vertices, a0, b0], [*g.edges(), *((a0, a) for a in A), *((b0, b) for b in B)])
    net = _SplitNet(h)
    if net.flow({t}, {a0, b0}, {t}, stop=2) < 2:
        return None
    to_a, to_b = sorted(net.paths(), key=lambda p: p[-1] != a0)
    return to_a[-2::-1] + to_b[1:-1]


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
    if foreign := g.foreign((a, b)):
        raise ValueError(f"endpoints {foreign} are not in the graph")
    if a == b:
        return [a] if a in T else []
    f = block_cut_forest(g)
    for block in f.sets:
        if len(block & T) > 1:  # a cut node holds one vertex
            raise MultiTerminalBlockError(f"block {sorted(block)} carries {sorted(block & T)}")
    na, nb_ = f.index.owner[a], f.index.owner[b]
    return f.path_vertices(na, nb_, T) if f.index.root[na] == f.index.root[nb_] else None


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
