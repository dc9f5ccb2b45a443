"""Recursive 14-approximation for a smallest near-separator avoiding a pivot x.

A run decomposes G-x once and carries its blocks across iterations: after
deleting Z, only the blocks Z hits are decomposed again (`blocks_without`).
Each iteration builds the block-cut forest of what is left of G-x from the
carried blocks, reading the one graph G, and makes one bottom-up pass over it
(`_routes`). The pass finds, for every node, the most terminals a path from
the node's top vertex down to a neighbor of x can collect, and the deepest
node whose closure with x still carries a T-cycle. From those counts the
iteration assembles a hitting set Z for the cycles living down there, deletes
it, and recurses on the remainder.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass

from .graph import Graph, reachable
from .blockcut import BlockCutForest, biconnected_blocks, block_cut_forest, blocks_without
from .core import find_t_cycle, is_mwns
from .separators import gallai_q_paths, min_cut


# the list a `solve` in progress collects its trace lines in, None outside one
_recording: ContextVar[list[str] | None] = ContextVar("mwns_recording", default=None)


@dataclass(frozen=True)
class GrandchildClassification:
    cut_vertex: int
    grandchildren: frozenset[int]
    with_terminal_path: frozenset[int]  # members whose pending subgraph reaches N(x) through a terminal


@dataclass(frozen=True)
class BlockerIteration:
    index: int
    d_node: int
    d_label: str
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
            ) -> tuple[list[int], int | None]:
    """Terminal counts of the routes down to N(x), in one bottom-up pass over f.

    reach[n] is the largest number of terminals on a path inside n's subtree
    from its top vertex (a cut node's own vertex, a block's parent cut vertex)
    to a neighbor of x, or -1 if there is none. Since {x} nearly separates T,
    every T-cycle of a subtree closure with x passes x, so the closure carries
    one iff two routes from distinct vertices meet in the subtree with two
    terminals between them. The second value is the deepest node (smallest id
    on ties) where that first happens, None if nowhere.
    """
    nbrs = g.neighbors(x)
    vertex = {nd.id: v for nd in f.nodes if nd.kind == "cut" for v in nd.vertices}
    reach = [-1] * len(f.nodes)
    deepest = None
    for nid in range(len(f.nodes) - 1, -1, -1):  # pre-order ids: children first
        nd = f.nodes[nid]
        if nd.kind == "cut":
            v = vertex[nid]
            ends = [reach[b] - (v in T) for b in f.children[nid] if reach[b] >= 0]
            if v in nbrs:
                ends.append(0)
            ends.sort(reverse=True)
            if ends:
                reach[nid] = (v in T) + ends[0]
            meet = len(ends) >= 2 and (v in T) + ends[0] + ends[1] >= 2
        else:
            # out[w]: best route count from block vertex w down to N(x)
            out = {w: (w in T) if w in nbrs else -1 for w in nd.vertices}
            for c in f.children[nid]:
                w = vertex[c]
                out[w] = max(out[w], reach[c])
            # a block of three or more vertices routes any two of its vertices
            # through its terminal t (at most one, or G-x has a T-cycle)
            t = min(nd.vertices & T, default=None) if len(nd.vertices) >= 3 else None
            # two routes meet here by avoiding t and passing it, or one ends at t
            ends = sorted((out[w] for w in nd.vertices if w != t and out[w] >= 0), reverse=True)
            meet = (len(ends) >= 2 and ends[0] + ends[1] + (t is not None) >= 2
                    or t is not None and out[t] >= 0 and len(ends) >= 1 and out[t] + ends[0] >= 2)
            par = f.parent[nid]
            if par is not None:
                top = vertex[par]
                reach[nid] = max(((top in T) + out[w] + (t is not None and t not in (top, w))
                                  for w in nd.vertices if w != top and out[w] >= 0), default=-1)
        if meet and (deepest is None or f.depth[nid] >= f.depth[deepest]):
            deepest = nid
    return reach, deepest


def _grandchildren(f: BlockCutForest, T: frozenset[int], reach: list[int], v: int
                   ) -> GrandchildClassification:
    grand = [c for y in f.children[f.cut_node_of(v)] for c in f.children[y]]
    verts = frozenset(f.nodes[c].vertex for c in grand)
    if v in T:
        assert not (verts & T), "grandchildren of a terminal cut vertex are non-terminals"
    carrying = frozenset(f.nodes[c].vertex for c in grand if reach[c] >= 1)
    return GrandchildClassification(v, verts, carrying)


def _block_children(f: BlockCutForest, T: frozenset[int], reach: list[int], d: int
                    ) -> tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]:
    if f.nodes[d].kind != "block":
        raise ValueError("d must be a block node")
    classes: tuple[set[int], ...] = (set(), set(), set(), set())  # reach >= 2, 1, 0, none
    for c in f.children[d]:
        if f.nodes[c].vertex not in T:
            classes[3 if reach[c] < 0 else 2 - min(reach[c], 2)].add(f.nodes[c].vertex)
    c_ge2, c_1, c_0, c_none = (frozenset(s) for s in classes)
    return c_ge2, c_1, c_0, c_none


def classify_grandchildren(g: Graph, T, x: int, f: BlockCutForest, v: int
                           ) -> GrandchildClassification:
    """C(v) and its members reaching a neighbor of x via a terminal-carrying path."""
    T = frozenset(T)
    return _grandchildren(f, T, _routes(g, T, x, f)[0], v)


def classify_block_children(g: Graph, T, x: int, f: BlockCutForest, d: int
                            ) -> tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]:
    """Partition the non-terminal cut children of block node d by the largest
    terminal count on a path from the child down to a neighbor of x."""
    T = frozenset(T)
    return _block_children(f, T, _routes(g, T, x, f)[0], d)


def _step(g: Graph, T: frozenset[int], x: int, index: int,
          blocks: list[frozenset[int]] | None = None) -> BlockerIteration | None:
    # once {x} nearly separates T, every T-cycle passes x and shows up in the
    # closure of some subtree: no meeting node means no T-cycle is left.
    # `blocks` are those of H = G-x-Z, Z deleted so far (g-x if None); g is
    # read only within H and from x into H. Only the first forest checks the
    # pivot: every later H is a subgraph of the first
    f = block_cut_forest(g, biconnected_blocks(g, exclude=[x]) if blocks is None else blocks)
    if index == 0 and any(len(nd.vertices & T) > 1 for nd in f.nodes):
        raise ValueError(f"{{{x}}} is not a multiway near-separator; "
                         f"offending cycle in G-x: {find_t_cycle(g.without([x]), T)}")
    reach, d = _routes(g, T, x, f)
    if d is None:
        return None
    nd = f.nodes[d]
    if nd.kind == "cut" and nd.vertex not in T:
        return BlockerIteration(index, d, nd.label(), "a", (), frozenset([nd.vertex]))
    if nd.kind == "cut":
        cls = _grandchildren(f, T, reach, nd.vertex)
        return BlockerIteration(index, d, nd.label(), "b", (), cls.with_terminal_path)

    # d is a block
    block = nd.vertices
    t = min(block & T, default=None)  # the pivot check leaves one per block
    d_t = g.induced(block - T)
    c_ge2, c_1, c_0, _ = _block_children(f, T, reach, d)
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
        t_child = next((c for c in f.children[d] if f.nodes[c].vertex == t), None)
        if t_child is not None and reach[t_child] >= 2:
            z4 = _grandchildren(f, T, reach, t).with_terminal_path
            assert len(z4) <= 1, "at most one terminal-reaching grandchild below a cycle-free subtree"

    parent = f.parent[d]
    z5: frozenset[int] = frozenset()
    if parent is not None and f.nodes[parent].vertex not in T:
        z5 = frozenset([f.nodes[parent].vertex])

    parts = (frozenset(z1), frozenset(z2), z3, z4, z5)
    removed = frozenset().union(*parts)
    return BlockerIteration(index, d, nd.label(), "c", parts, removed)


def blocker_step(g: Graph, T, x: int) -> set[int]:
    """One iteration's hitting set Z; empty iff no T-cycle on x remains."""
    T = frozenset(T)
    _require_pivot(g, T, x)
    it = _step(g, T, x, 0)
    return set(it.removed) if it else set()


def _require_pivot(g: Graph, T: frozenset[int], x: int) -> None:
    if x not in g or x in T:
        raise ValueError(f"pivot {x} must be a non-terminal vertex")
    if missing := sorted(v for v in T if v not in g):
        raise ValueError(f"terminals {missing} are not vertices of the graph")


def blocker_run(g: Graph, T, x: int) -> BlockerRun:
    """Full run returning the accumulated set and the per-iteration trace."""
    T = frozenset(T)
    _require_pivot(g, T, x)
    acc: set[int] = set()
    iterations: list[BlockerIteration] = []
    blocks = biconnected_blocks(g, exclude=[x])
    index = 0
    while True:
        it = _step(g, T, x, index, blocks)
        if it is None:
            break
        z = set(it.removed)
        if not z or z & (T | {x}):  # an empty z would repeat the step forever
            raise RuntimeError(f"blocker iteration {index} removes {sorted(z)}, "
                               "not a nonempty set of non-pivot non-terminals")
        iterations.append(it)
        acc |= z
        blocks = blocks_without(g, blocks, z)
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


def blocker(g: Graph, T, x: int) -> set[int]:
    """Near-separator avoiding x, at most 14 times the smallest x-avoiding one."""
    return set(blocker_run(g, T, x).result)
