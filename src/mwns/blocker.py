"""Recursive 14-approximation for a smallest near-separator avoiding a pivot x.

Each iteration picks the deepest block-cut-forest node of G-x whose closure
with x still carries a T-cycle, assembles a hitting set Z for the cycles
living down there, deletes it, and recurses on the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, connected_components
from .blockcut import BlockCutForest, block_cut_forest
from .core import find_t_cycle, has_t_cycle, is_mwns
from .separators import closest_min_cut, gallai_q_paths, max_terminals_on_path


_trace_hook = None


def set_trace_hook(fn) -> None:
    """Install a callable receiving one formatted line per blocker iteration."""
    global _trace_hook
    _trace_hook = fn


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


def _reach_count(g: Graph, sub: frozenset[int], T: frozenset[int], x: int,
                 c: int, forest_cache: dict) -> int:
    """Max terminals on a simple c-p path inside G[sub], over p in N(x) & sub.

    -1 when no neighbor of x lies in sub.
    """
    targets = g.neighbors(x) & sub
    if not targets:
        return -1
    key = sub
    if key not in forest_cache:
        gc = g.induced(sub)
        forest_cache[key] = (gc, block_cut_forest(gc))
    gc, f = forest_cache[key]
    return max(max_terminals_on_path(gc, T & sub, c, p, forest=f) for p in sorted(targets))


def classify_grandchildren(g: Graph, T, x: int, f: BlockCutForest, v: int,
                           _cache: dict | None = None) -> GrandchildClassification:
    """C(v) and its members reaching a neighbor of x via a terminal-carrying path."""
    T = frozenset(T)
    vnode = f.cut_node_of(v)
    grand: list[int] = []
    for y in f.children[vnode]:
        for c in f.children[y]:
            grand.append(f.nodes[c].vertex)
    cache = _cache if _cache is not None else {}
    carrying = set()
    for c in sorted(grand):
        sub = f.subtree_vertices(f.cut_node_of(c))
        if _reach_count(g, sub, T, x, c, cache) >= 1:
            carrying.add(c)
    if v in T:
        assert not (set(grand) & T), "grandchildren of a terminal cut vertex are non-terminals"
    return GrandchildClassification(v, frozenset(grand), frozenset(carrying))


def classify_block_children(g: Graph, T, x: int, f: BlockCutForest, d: int,
                            _cache: dict | None = None
                            ) -> tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]:
    """Partition the non-terminal cut children of block node d by the largest
    terminal count on a path from the child down to a neighbor of x."""
    T = frozenset(T)
    if f.nodes[d].kind != "block":
        raise ValueError("d must be a block node")
    cache = _cache if _cache is not None else {}
    c_ge2, c_1, c_0, c_none = set(), set(), set(), set()
    for cnode in f.children[d]:
        c = f.nodes[cnode].vertex
        if c in T:
            continue
        sub = f.subtree_vertices(cnode)
        score = _reach_count(g, sub, T, x, c, cache)
        if score >= 2:
            c_ge2.add(c)
        elif score == 1:
            c_1.add(c)
        elif score == 0:
            c_0.add(c)
        else:
            c_none.add(c)
    return frozenset(c_ge2), frozenset(c_1), frozenset(c_0), frozenset(c_none)


def _deepest_cycle_node(g: Graph, T: frozenset[int], x: int, f: BlockCutForest) -> int | None:
    best = None
    for nd in f.nodes:
        closure = g.induced(f.subtree_vertices(nd.id) | {x})
        if has_t_cycle(closure, T):
            if best is None or (f.depth[nd.id], -nd.id) > (f.depth[best], -best):
                best = nd.id
    return best


def _step(g: Graph, T: frozenset[int], x: int, index: int) -> BlockerIteration | None:
    if not has_t_cycle(g, T):
        return None
    f = block_cut_forest(g.without([x]))
    d = _deepest_cycle_node(g, T, x, f)
    assert d is not None, "a T-cycle on x must show up in some subtree closure"
    nd = f.nodes[d]
    cache: dict = {}
    if nd.kind == "cut" and nd.vertex not in T:
        return BlockerIteration(index, d, nd.label(), "a", (), frozenset([nd.vertex]))
    if nd.kind == "cut":
        cls = classify_grandchildren(g, T, x, f, nd.vertex, cache)
        return BlockerIteration(index, d, nd.label(), "b", (), cls.with_terminal_path)

    # d is a block
    block = nd.vertices
    terms = sorted(block & T)
    assert len(terms) <= 1, "a block of G-x carries at most one terminal"
    d_t = g.induced(block - T)
    c_ge2, c_1, c_0, _ = classify_block_children(g, T, x, f, d, cache)
    q = c_ge2 | c_1
    _, z1 = gallai_q_paths(d_t, q)

    a_side = c_ge2
    b_side = (c_0 | (g.neighbors(x) & block)) - T
    if a_side and b_side:
        # the endpoints themselves may be cut: nothing is protected
        _, z2, _ = closest_min_cut(d_t, a_side, b_side)
    else:
        z2 = frozenset()

    z3: set[int] = set()
    z4: frozenset[int] = frozenset()
    if terms:
        t = terms[0]
        hit = z1 | z2
        for comp in connected_components(d_t.without(hit)):
            comp_set = set(comp)
            if not (g.neighbors(t) & comp_set):
                continue
            in_q = comp_set & q
            if in_q:
                assert len(in_q) == 1, "the Q-path cover leaves one Q vertex per component"
                z3 |= in_q
        child_cuts = {f.nodes[c].vertex for c in f.children[d]}
        if t in child_cuts:
            sub = f.subtree_vertices(f.cut_node_of(t))
            if _reach_count(g, sub, T, x, t, cache) >= 2:
                cls = classify_grandchildren(g, T, x, f, t, cache)
                z4 = cls.with_terminal_path
                assert len(z4) <= 1, "at most one terminal-reaching grandchild below a cycle-free subtree"

    parent = f.parent[d]
    z5: frozenset[int] = frozenset()
    if parent is not None and f.nodes[parent].vertex not in T:
        z5 = frozenset([f.nodes[parent].vertex])

    parts = (frozenset(z1), frozenset(z2), frozenset(z3), z4, z5)
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
    if not is_mwns(g, T, frozenset([x])):
        witness = find_t_cycle(g.without([x]), T)
        raise ValueError(
            f"{{{x}}} is not a multiway near-separator; offending cycle in G-x: {witness}")


def blocker_run(g: Graph, T, x: int, validate: bool = False) -> BlockerRun:
    """Full run returning the accumulated set and the per-iteration trace."""
    T = frozenset(T)
    _require_pivot(g, T, x)
    acc: set[int] = set()
    iterations: list[BlockerIteration] = []
    cur = g
    index = 0
    while True:
        it = _step(cur, T, x, index)
        if it is None:
            break
        z = set(it.removed)
        assert z and not (z & (T | {x})), "each iteration removes non-pivot non-terminals"
        if validate:
            f = block_cut_forest(cur.without([x]))
            closure = cur.induced(f.subtree_vertices(it.d_node) | {x})
            assert is_mwns(closure, T & set(closure.vertices), z & set(closure.vertices))
        iterations.append(it)
        acc |= z
        cur = cur.without(z)
        index += 1
    result = frozenset(acc)
    if not is_mwns(g, T, result):
        raise RuntimeError(f"blocker result {sorted(result)} is not a near-separator")
    run = BlockerRun(result, tuple(iterations))
    if _trace_hook is not None and iterations:
        _trace_hook(f"blocker x={x}")
        for line in run.trace_lines():
            _trace_hook(line)
    return run


def blocker(g: Graph, T, x: int) -> set[int]:
    """Near-separator avoiding x, at most 14 times the smallest x-avoiding one."""
    return set(blocker_run(g, T, x).result)
