"""Vertex-capacitated flow, minimum/important separators, and Q-path duality."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import networkx as nx

from .graph import Graph, connected_components, reachable
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


@dataclass(frozen=True)
class ImportantSeparatorSet:
    separators: tuple[frozenset[int], ...]
    query: SeparatorQuery
    k: int

    def __iter__(self):
        return iter(self.separators)

    def __len__(self):
        return len(self.separators)


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

    def cut(self) -> tuple[frozenset[int], frozenset[int]]:
        """The source-closest minimum cut (vertices whose in-node but not
        out-node the residual network reaches from 0) and the vertices whose
        out-node it reaches."""
        head, cap, adj = self.head, self.cap, self.adj
        seen = [False] * len(adj)
        seen[0] = True
        queue = [0]
        for u in queue:
            for e in adj[u]:
                if cap[e] > 0 and not seen[head[e]]:
                    seen[head[e]] = True
                    queue.append(head[e])
        vs = self.vertices
        cut = frozenset(v for i, v in enumerate(vs) if seen[2 * i + 2] and not seen[2 * i + 3])
        return cut, frozenset(v for i, v in enumerate(vs) if seen[2 * i + 3])

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


def _touching(g: Graph, X: frozenset[int], Y: frozenset[int]) -> bool:
    return bool(X & Y) or any(g.has_edge(x, y) for x in X for y in Y)


def closest_min_cut(g: Graph, X: frozenset[int], Y: frozenset[int],
                    protected: frozenset[int] = frozenset(), deleted: frozenset[int] = frozenset()
                    ) -> tuple[int | float, frozenset[int], frozenset[int]]:
    """(value, X-closest minimum cut, residual reach as graph vertices) of the
    vertex flow from X to Y in g minus `deleted`, where any vertex outside
    `protected` may be cut, X and Y included; value inf if no cut exists."""
    if _touching(g, X, Y) and X | Y <= protected:
        return math.inf, frozenset(), frozenset()  # fast path: the flow would find it too
    net = _SplitNet(g, [(X, INF)], [(Y, INF)], protected, deleted)
    value = net.flow()
    if value >= INF:
        return math.inf, frozenset(), frozenset()
    cut, reach = net.cut()
    return value, cut, reach | X


def min_separator(q: SeparatorQuery) -> set[int]:
    """Minimum-cardinality (X,Y)-separator disjoint from X, Y and the
    undeletable set; ties broken toward the X side (leftmost cut)."""
    X, Y = q.sources, q.sinks
    value, cut, _ = closest_min_cut(q.graph, X, Y, X | Y | q.undeletable)
    if value is math.inf:
        raise ValueError("no finite separator: source and sink sides touch or "
                         "every cut needs an undeletable vertex")
    return set(cut)


def _is_separator(g: Graph, X: frozenset[int], Y: frozenset[int], S: frozenset[int]) -> bool:
    return not (reachable(g, X - S, S) & (Y - S))


def enumerate_important_separators(q: SeparatorQuery, k: int) -> ImportantSeparatorSet:
    """All important (X,Y)-separators of size <= k avoiding the undeletable set.

    Candidates come from the standard branching around the X-closest minimum
    cut (push a cut vertex into the separator, or onto the source side); each
    candidate is then checked against the importance definition directly:
    inclusion-minimal, and no equal-or-smaller separator has a strictly
    larger source-reachable region.
    """
    g, Y, V8 = q.graph, q.sinks, q.undeletable
    forbidden_base = Y | V8

    def candidates(deleted: frozenset[int], X: frozenset[int], budget: int) -> set[frozenset[int]]:
        value, cut, reach = closest_min_cut(g, X, Y, forbidden_base | X, deleted)
        if value is math.inf or value > budget:
            return set()
        if value == 0:
            return {frozenset()}
        X = reach  # fatten the source side to the reach of the closest min cut
        v = min(cut)
        out: set[frozenset[int]] = set()
        for s in candidates(deleted | {v}, X - {v}, budget - 1):
            out.add(s | {v})
        out |= candidates(deleted, X | {v}, budget)
        return out

    if k < 0:
        return ImportantSeparatorSet((), q, k)
    found = candidates(frozenset(), q.sources, k)

    def important(S: frozenset[int]) -> bool:
        if S & (q.sources | forbidden_base):
            return False
        if not _is_separator(g, q.sources, Y, S):
            return False
        for v in S:  # inclusion-minimal
            if _is_separator(g, q.sources, Y, S - {v}):
                return False
        R = frozenset(reachable(g, q.sources, S))
        for v in S:  # a dominating separator would reach past v
            value, _, _ = closest_min_cut(g, R | {v}, Y, forbidden_base | R | {v})
            if value is not math.inf and value <= len(S):
                return False
        return True

    keep = sorted((s for s in found if important(s)), key=lambda s: (len(s), sorted(s)))
    return ImportantSeparatorSet(tuple(keep), q, k)


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

def _q_path_packing(g: Graph, Q: frozenset[int]) -> list[list[int]]:
    """Maximum family of vertex-disjoint paths with both distinct endpoints in Q.

    Encoded as maximum matching in an auxiliary graph: each non-Q vertex v
    becomes a pair v',v'' joined by an edge, matched pairs stand for unused
    vertices and through-matched pairs for path interiors.
    """
    inner = [v for v in g.vertices if v not in Q]
    H = nx.Graph()
    H.add_nodes_from(Q)
    for v in inner:
        H.add_edge(("a", v), ("b", v))
    for u, v in g.edges():
        if u in Q and v in Q:
            H.add_edge(u, v)
        elif u in Q:
            H.add_edge(u, ("a", v))
            H.add_edge(u, ("b", v))
        elif v in Q:
            H.add_edge(v, ("a", u))
            H.add_edge(v, ("b", u))
        else:
            for cu in ("a", "b"):
                for cv in ("a", "b"):
                    H.add_edge((cu, u), (cv, v))
    matching = nx.max_weight_matching(H, maxcardinality=True)
    mate: dict = {}
    for x, y in matching:
        mate[x] = y
        mate[y] = x

    def other(copy):
        tag, v = copy
        return ("b" if tag == "a" else "a", v)

    # rotate dead stubs (one copy matched, the other exposed) onto pair edges
    changed = True
    while changed:
        changed = False
        for v in inner:
            ca, cb = ("a", v), ("b", v)
            for c1, c2 in ((ca, cb), (cb, ca)):
                if c1 in mate and c2 not in mate and mate[c1] != c2:
                    z = mate.pop(c1)
                    mate.pop(z)
                    mate[c1] = c2
                    mate[c2] = c1
                    changed = True

    paths = []
    seen_q: set[int] = set()
    for q in sorted(Q):
        if q in seen_q or q not in mate:
            continue
        walk = [q]
        cur = mate[q]
        while not isinstance(cur, int):
            walk.append(cur[1])
            nxt = other(cur)
            if nxt not in mate:  # stub left by a non-maximum structure
                walk = None
                break
            cur = mate[nxt]
        if walk is None:
            continue
        walk.append(cur)
        seen_q.update((walk[0], walk[-1]))
        paths.append(walk)
    return paths


def _has_q_path(g: Graph, Q: frozenset[int], removed: Iterable[int] = ()) -> bool:
    gone = set(removed)
    alive = Q - gone
    seen: set[int] = set()
    for comp in connected_components(g):
        members = (set(comp) - gone) - seen
        # removal may split a listed component; re-flood the remainder
        while members:
            start = next(iter(members))
            part = reachable(g, [start], gone)
            if len(part & alive) >= 2:
                return True
            members -= part
            seen |= part
    return False


def _cover_value(g: Graph, Q: frozenset[int], U: frozenset[int]) -> int:
    total = len(U)
    seen: set[int] = set()
    for v in g.vertices:
        if v in U or v in seen:
            continue
        comp = reachable(g, [v], U)
        seen |= comp
        total += len(comp & Q) // 2
    return total


def _cover_certificate(g: Graph, Q: frozenset[int], target: int) -> frozenset[int]:
    """A set U with |U| + sum over components K of floor(|Q ∩ K|/2) == target.

    Greedy descent first; exhaustive search over small U as a fallback (the
    duality between packings and such certificates guarantees one exists).
    """
    U: frozenset[int] = frozenset()
    best = _cover_value(g, Q, U)
    while best > target:
        improved = None
        for v in g.vertices:
            if v in U:
                continue
            val = _cover_value(g, Q, U | {v})
            if val < best:
                best, improved = val, U | {v}
                if best == target:
                    break
        if improved is None:
            break
        U = improved
    if best == target:
        return U
    for size in range(1, target + 1):
        for combo in itertools.combinations(g.vertices, size):
            cand = frozenset(combo)
            if _cover_value(g, Q, cand) == target:
                return cand
    raise AssertionError("no packing-matching cover certificate found")


def gallai_q_paths(d_t: Graph, Q: Iterable[int]) -> tuple[list[list[int]], set[int]]:
    """Maximum vertex-disjoint Q-path packing and a cover of at most twice its
    size after which no Q-path remains."""
    Q = frozenset(Q)
    if not Q <= set(d_t.vertices):
        raise ValueError("Q must be a subset of the graph vertices")
    if len(Q) <= 1:
        return [], set()
    packing = _q_path_packing(d_t, Q)
    nu = len(packing)
    if nu == 0:
        return [], set()
    U = _cover_certificate(d_t, Q, nu)
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
