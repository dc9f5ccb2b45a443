"""Terminal-bounding preprocessing: reduction rules, marking, and solution lifting."""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .graph import Graph
from .blockcut import BlockCutForest, biconnected_blocks, block_cut_forest, blocks_without, nested_cut_pairs
from .core import Instance, is_mwns, nearly_separated_terminals
from .blocker import blocker_run
from .instance_io import parse_int


# -- log steps ---------------------------------------------------------------

@dataclass(frozen=True)
class DropNearlySeparated:
    t: int

    def serialize(self) -> str:
        return f"rr1 t={self.t}"


@dataclass(frozen=True)
class DropComponentTerminal:
    t: int
    x: int
    y: int
    component: frozenset[int]
    kept: tuple[int, int]

    def serialize(self) -> str:
        comp = ",".join(str(v) for v in sorted(self.component))
        kept = ",".join(str(v) for v in self.kept)
        return f"rr2 x={self.x} y={self.y} drop={self.t} kept={kept} D={{{comp}}}"


@dataclass(frozen=True)
class DropUnmarked:
    removed: frozenset[int]

    def serialize(self) -> str:
        inner = ",".join(str(v) for v in sorted(self.removed))
        return f"rr3 drop={{{inner}}}"


@dataclass(frozen=True)
class EssentialVertex:
    x: int

    def serialize(self) -> str:
        return f"essential x={self.x}"


Step = DropNearlySeparated | DropComponentTerminal | DropUnmarked | EssentialVertex


@dataclass(frozen=True)
class ReductionLog:
    original: Instance
    steps: tuple[Step, ...]

    def serialize(self) -> str:
        return "\n".join(s.serialize() for s in self.steps)

    def replay(self) -> list[Instance]:
        """Instances along the reduction; element 0 is the original, the last
        is the fully reduced instance."""
        out = [self.original]
        cur = self.original
        for step in self.steps:
            cur = _apply_step(cur, step)
            out.append(cur)
        return out

    def reduced(self) -> Instance:
        return self.replay()[-1]


def _apply_step(inst: Instance, step: Step) -> Instance:
    """The instance after `step`; a ValueError names a step no reduction of
    `inst` could write: one naming a vertex outside the graph, dropping a
    vertex that is no terminal, or marking a terminal essential."""
    if isinstance(step, DropComponentTerminal):
        named, dropped = {step.t, step.x, step.y, *step.kept} | step.component, {step.t}
    elif isinstance(step, DropNearlySeparated):
        named = dropped = {step.t}
    elif isinstance(step, DropUnmarked):
        named = dropped = step.removed
    elif isinstance(step, EssentialVertex):
        named, dropped = {step.x}, set()
    else:
        raise TypeError(f"unknown step {step!r}")
    if foreign := inst.graph.foreign(named):
        raise ValueError(f"reduction step {step.serialize()!r} names vertices {foreign} outside its graph")
    if lost := sorted(dropped - inst.terminals):
        raise ValueError(f"reduction step {step.serialize()!r} drops {lost}, which are not terminals")
    if isinstance(step, EssentialVertex):
        if step.x in inst.terminals:
            raise ValueError(f"reduction step {step.serialize()!r} marks the terminal {step.x} essential")
        return Instance(inst.graph.without([step.x]), inst.terminals, max(inst.k - 1, 0))
    return Instance(inst.graph, inst.terminals - dropped, inst.k)


def _ints(fields: dict[str, str], line: str, name: str, count: int | None = 1) -> list[int]:
    """Field `name=` of a step line: `count` comma-separated integers, or a
    braced set of any size when count is None."""
    if name not in fields:
        raise ValueError(f"reduction step {line!r} lacks the field {name}=")
    text = fields[name].strip("{}") if count is None else fields[name]
    try:
        out = [parse_int(v) for v in text.split(",")] if text else []
    except ValueError:
        out = None
    if out is None or count is not None and len(out) != count:
        raise ValueError(f"reduction step {line!r} has a malformed field {name}={fields[name]}")
    return out


def parse_steps(lines: Iterable[str]) -> list[Step]:
    """A log's steps; a step token that is no field of it, or repeats one, is an error."""
    steps: list[Step] = []
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *tokens = line.split()
        if head in ("p", "e", "t", "k"):
            continue  # instance directives share the log file
        fields = dict(tok.split("=", 1) for tok in tokens if "=" in tok)
        if head == "rr1":
            steps.append(DropNearlySeparated(*_ints(fields, line, "t")))
        elif head == "rr2":
            x, y, drop = (_ints(fields, line, name)[0] for name in ("x", "y", "drop"))
            comp = frozenset(_ints(fields, line, "D", None))
            steps.append(DropComponentTerminal(drop, x, y, comp, tuple(_ints(fields, line, "kept", 2))))
        elif head == "rr3":
            steps.append(DropUnmarked(frozenset(_ints(fields, line, "drop", None))))
        elif head == "essential":
            steps.append(EssentialVertex(*_ints(fields, line, "x")))
        else:
            raise ValueError(f"unknown reduction step {line!r}")
        defined = {tok.partition("=")[0] for tok in steps[-1].serialize().split()[1:]}
        seen: set[str] = set()
        for tok in tokens:
            name, eq, _ = tok.partition("=")
            if not eq or name not in defined or name in seen:
                why = "a repeated field" if eq and name in defined else f"not a field of {head}"
                raise ValueError(f"reduction step {line!r} has the token {tok!r}, {why}")
            seen.add(name)
    return steps


# -- individual rules ----------------------------------------------------------

def apply_rr1(inst: Instance, blocks: list[frozenset[int]] | None = None
              ) -> tuple[Instance, tuple[DropNearlySeparated, ...]] | None:
    """Drop every nearly-separated terminal at once, steps in ascending id.

    Such a terminal shares no block with any terminal, so dropping it changes
    no other terminal's verdict: one decomposition reaches the fixpoint that
    dropping the smallest one at a time would reach, with the same steps.
    `blocks`, if given, are those of the instance's graph.
    """
    lonely = nearly_separated_terminals(inst.graph, inst.terminals, blocks)
    if not lonely:
        return None
    steps = tuple(DropNearlySeparated(t) for t in sorted(lonely))
    return Instance(inst.graph, inst.terminals - lonely, inst.k), steps


class PairComponent(NamedTuple):
    """A component D of G - {x, y} as `_Record.read` gives it: its least
    vertex, the id ranges of F's nodes whose owned vertices it holds, its
    other vertices as sets, and whether it is `plain`: one piece missing S*,
    so that every block of G[D + x + y] and its x-y tree path are F's."""
    least: int
    ranges: tuple[tuple[int, int], ...]
    sets: tuple[frozenset[int], ...]
    plain: bool


_UPPER = -1  # the key of the upper piece; a child block's piece is keyed by its
# node id, and the i-th part of the middle by -2 - i


class _Record:
    """RR2's and RR3's record of one G and S*, which stay fixed while T,
    `marked`, shrinks; S* must lie in G. `f` is the block-cut forest F of
    G - S* (the block-cut tree of Hopcroft and Tarjan 1973), built unless
    given. RR3's components of G - S* are its trees, by least vertex, and
    `pairs` lists per pair of S* the indices of those next to both. If
    `separated`, no block of F holds two terminals of the first T, or of
    any later, smaller T.

    RR2 reads the components of G - {x, y}, for cut vertices x and y on one
    root-to-leaf path of F, off F instead of flooding G, with the count of
    T in each. By F's vertex index (`VertexIndex`) each vertex of G - S* is
    owned by one node, and node i's subtree, the id range
    [i, subtree_end[i]), owns a slice of `verts`; `before[i]` counts the
    terminals owned below id i. Of x and y, one is the ancestor a and the
    other the descendant b, and P - {a, b}, P being their tree, falls into
    pieces: the subtree of each child block of b; of each child block of a
    but Ba, the one towards b; the middle, Ba's subtree less b's; and the
    upper part, P outside a's subtree. When Ba holds b too, Ba - {a, b} may
    fall apart, and so the middle with it. A vertex of P has neighbours only
    in P and S*, so pieces join only through the components of G - V(P) next
    to P, which one flood per tree finds, stepping over each other tree of F
    whole.

    RR2's `bound` holds, for the T of its first query with three
    terminals, the terminals of each block of G[S* + T] with two, while
    the block binds them: while two are left and at most one is gone.
    `live` lists the pairs of `nested_cut_pairs`, built when a query first
    finds three terminals outside them. `witnesses` holds every block with
    two terminals a verdict found, with its terminals: a block of G lies in
    a block of any region holding it. A pair whose components all hold
    T-cycles is `asleep`, and `watch` wakes it when one of two terminals of
    a block with two in one of them goes (or, for a pair with a terminal,
    that terminal): till then none can fire."""

    def __init__(self, g: Graph, s_star: frozenset[int], terminals: frozenset[int],
                 f: BlockCutForest | None = None):
        if foreign := g.foreign(s_star):
            raise ValueError(f"S* vertices {foreign} are not in the graph")
        f = block_cut_forest(g, biconnected_blocks(g, s_star)) if f is None else f
        self.graph, self.s_star, self.f, self.marked = g, s_star, f, terminals
        verts = f.index.verts
        # per node: the terminals it owns
        self.owned_m = [len(terminals.intersection(verts[i:j])) for i, j in itertools.pairwise(f.index.start)]
        self._sum()
        self.trees: dict[int, tuple[list[tuple], list[tuple[int, int, tuple[int, ...]]]]] = {}
        self._around: dict[int, frozenset[int]] = {}
        self.separated = all(len(s & terminals) < 2 for s in f.sets)
        self.bound: list[frozenset[int]] | None = None
        self.live: list[tuple[int, int]] | None = None
        self.witnesses: dict[frozenset[int], frozenset[int]] = {}
        self.asleep: set[tuple[int, int]] = set()
        self.watch: dict[int, list[tuple[int, int]]] = {}
        self.components = [frozenset(self.tree_vertices(r)) for r in f.roots]
        self.pairs: dict[tuple[int, int], list[int]] = {
            p: [] for p in itertools.combinations(sorted(s_star), 2)}
        for i, r in enumerate(f.roots):
            for p in itertools.combinations(sorted(self.around(r)), 2):
                self.pairs[p].append(i)

    def _sum(self) -> None:
        """`before`, the prefix sums of the owned terminals by node id; and
        no set counted yet."""
        self.before = [0, *itertools.accumulate(self.owned_m)]
        self.set_m: dict[frozenset[int], int] = {}

    def shrink(self, marked: frozenset[int]) -> None:
        """Recount for `marked`, a subset of T so far, and wake the pairs
        asleep on a terminal now gone."""
        if len(marked) == len(self.marked):
            return
        owner = self.f.index.owner
        for t in self.marked - marked:
            if (nid := owner.get(t)) is not None:  # else t lies in S*
                self.owned_m[nid] -= 1
            for pair in self.watch.pop(t, ()):
                self.asleep.discard(pair)
        self.marked = marked
        self._sum()

    def tree_vertices(self, root: int) -> list[int]:
        """The vertices of the tree of F at `root`."""
        start = self.f.index.start
        return self.f.index.verts[start[root]:start[self.f.subtree_end[root]]]

    def around(self, root: int) -> frozenset[int]:
        """The vertices of S* next to the tree of F at `root`."""
        if root not in self._around:
            nbrs, owner = self.graph.neighbors, self.f.index.owner
            near = (s for v in self.tree_vertices(root) for s in nbrs(v) if s not in owner)
            self._around[root] = frozenset(near)
        return self._around[root]

    def _tree(self, root: int) -> tuple[list[tuple], list[tuple[int, int, tuple[int, ...]]]]:
        """The components of G - V(P) next to the tree P at `root`, each as
        the id ranges of the other trees of F in it, its vertices in S* and
        its least vertex; and P's attachment vertices, those next to S*, as
        (owner, vertex, indices of the components next to it)."""
        if root not in self.trees:
            g, end = self.graph, self.f.subtree_end
            owner, roots = self.f.index.owner, self.f.index.root
            comps: list[tuple] = []
            label: dict[int, int] = {}  # vertex of S* -> its component
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
                            elif (r := roots[owner[w]]) != root and r not in trees:
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
        f = self.f
        end, sets = f.subtree_end, f.sets
        whole = [(((towards, b), (end[b], end[towards])), frozenset())]
        if f.parent[b] != towards or len(sets[towards]) < 4:
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
        parts = [((), frozenset(v for v in rest if part[v] == i and v not in f.cut_nodes))
                 for i in range(count)]
        for c in f.children[towards]:
            if c != b:  # each subtree hangs off the part of its cut vertex
                i = part[f.cutv[c]]
                parts[i] = (parts[i][0] + ((c, end[c]),), parts[i][1])
        return parts, part

    def read(self, x: int, y: int, least_marked: int) -> list[PairComponent]:
        """The components of G - {x, y} next to both x and y with at least
        `least_marked` terminals, by least vertex."""
        f = self.f
        end, kids, (_, roots, verts, start) = f.subtree_end, f.children, f.index
        a, b = f.cut_nodes[x], f.cut_nodes[y]
        if f.depth[a] > f.depth[b]:
            a, b, x, y = b, a, y, x
        towards = kids[a][bisect.bisect_right(kids[a], b) - 1]
        root = roots[a]
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
                        v = f.cutv[kids[towards][bisect.bisect_right(kids[towards], p) - 1]]
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
        """The terminals owned in the id `ranges` or lying in `sets`, as a
        `PairComponent` holds them."""
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
        verts, start = self.f.index.verts, self.f.index.start
        return frozenset().union(*comp.sets, *(verts[start[lo]:start[hi]] for lo, hi in comp.ranges))

    def holds(self, comp: PairComponent, v: int) -> bool:
        """Whether the component holds v: by the id of v's owner if it has
        one in P, else by its sets, which miss P."""
        p = self.f.index.owner.get(v, -1)
        return any(lo <= p < hi for lo, hi in comp.ranges) or any(v in c for c in comp.sets)

    def path_marked(self, x: int, y: int) -> list[int]:
        """The terminals on the x-y path of F, strictly between x and y, in
        order from x, once each; x and y are no terminals."""
        cut = self.f.cut_nodes
        return self.f.path_vertices(cut[x], cut[y], self.marked)


def _checked(inst: Instance, s_star: Iterable[int], record: _Record | None) -> _Record:
    """`record`, shrunk to T, if it was built on inst's graph and S*, for T
    or more terminals; a new record if it is None."""
    s_star = frozenset(s_star)
    if record is None:
        return _Record(inst.graph, s_star, inst.terminals)
    if record.graph is not inst.graph or record.s_star != s_star or not inst.terminals <= record.marked:
        raise ValueError("the record was built on another graph or S*, or for fewer terminals")
    record.shrink(inst.terminals)
    return record


def apply_rr2(inst: Instance, s_star: Iterable[int], record: _Record | None = None
              ) -> tuple[Instance, DropComponentTerminal] | None:
    """Turn a surplus terminal of a cycle-free attachment component into a
    non-terminal.

    Looks for non-terminals x, y and a component D of G-{x,y} with three or
    more terminals, no T-cycle inside G[D + x + y], and an x-y path through
    two distinct terminals; the smallest other terminal of D is dropped.
    Calls on one G and S* whose T only shrinks may share `record` (else
    new). Such a D holds three free terminals, in no block of G[S* + T]
    with two terminals, which x and y, outside S* + T, leave connected.
    Each awake pair's components next to both x and y with three terminals
    are read off the block-cut forest of G - S* and judged afresh. If the
    record is `separated`, one piece of the forest missing S* has no
    T-cycle, and its x-y path is the forest's; any other D is judged by a
    cached witness block that misses x or y and still has two terminals,
    else by a decomposition, whose blocks give a cycle-free D its x-y path."""
    g, T = inst.graph, inst.terminals
    record = _checked(inst, s_star, record)
    if len(T) < 3:
        return None  # x and y are non-terminals, so D would need three of these
    if record.bound is None:
        record.bound = [c for b in biconnected_blocks(g, within=record.s_star | T) if len(c := b & T) > 1]
    record.bound = [c for c in record.bound if len(c - T) < 2 and len(c & T) > 1]
    if len(T.difference(*record.bound)) < 3:
        return None
    if record.live is None:
        record.live = nested_cut_pairs(record.f)
    asleep, watch = record.asleep, record.watch
    witnesses = record.witnesses = {w: wt if wt <= T else wt & T
                                    for w, wt in record.witnesses.items() if len(wt & T) > 1}
    for pair in record.live:
        if pair in asleep:
            continue
        x, y = pair
        if x in T or y in T:
            asleep.add(pair)
            watch.setdefault(x if x in T else y, []).append(pair)
            continue
        held: list[int] = []  # two terminals of a block with two, per D with a T-cycle
        for d in record.read(x, y, 3):
            if d.plain and record.separated:  # the blocks of G[D + x + y] are the forest's
                blocks, path = [], record.path_marked(x, y)
            # a witness block missing x or y stays connected without them,
            # so it lies in D if one of its terminals does
            elif found := next((w for w, wt in witnesses.items() if (x not in w or y not in w)
                                and record.holds(d, next(iter(wt)))), None):
                blocks = [found]
            else:  # D's vertices and the blocks of G[D + x + y]
                comp = record.vertices(d)
                region = biconnected_blocks(g, within=comp | {x, y})
                if not (blocks := [b for b in region if len(b & T) > 1]):
                    f = block_cut_forest(g, region)
                    path = f.path_vertices(f.index.owner[x], f.index.owner[y], comp & T)
            if blocks:
                witnesses.update((b, b & T) for b in blocks)
                held += itertools.islice(blocks[0] & T, 2)
                continue  # a T-cycle, and the tree counting needs one terminal per block
            if len(path) < 2:
                continue  # D must join x to y through two terminals; fewer as T shrinks
            comp = record.vertices(d)
            kept = (path[0], path[1])
            drop = min(t for t in comp & T if t not in kept)  # D holds three or more
            step = DropComponentTerminal(drop, x, y, comp, kept)
            return _apply_step(inst, step), step
        # only T-cycles are left, and each stays one while its two held terminals do
        asleep.add(pair)
        for t in held:
            watch.setdefault(t, []).append(pair)
    return None


def mark_components(inst: Instance, s_star: Iterable[int], record: _Record | None = None
                    ) -> dict[tuple[int, int], list[frozenset[int]]]:
    """Greedy marking: per pair {x,y} in S*, up to k+2 components of G-S*
    holding a path from a neighbor of x to a neighbor of y through a terminal.
    Calls on one G and S* whose T only shrinks may share `record` (else new).
    x joins its neighbours in a component C into one block, as y does, so a
    vertex of C lies on such a path iff it lies in their span in C's tree."""
    g, T, k = inst.graph, inst.terminals, inst.k
    record = _checked(inst, s_star, record)
    comps, f = record.components, record.f
    marked: dict[tuple[int, int], list[frozenset[int]]] = {}
    for (x, y), candidates in record.pairs.items():
        chosen = marked[x, y] = []
        ends = g.neighbors(x) | g.neighbors(y)
        for i in candidates:
            if len(chosen) >= k + 2:
                break
            if not T.isdisjoint(comps[i]) and not T.isdisjoint(f.span_vertices(ends & comps[i])):
                chosen.append(comps[i])
    return marked


def apply_rr3(inst: Instance, s_star: Iterable[int], record: _Record | None = None
              ) -> tuple[Instance, DropUnmarked] | None:
    """Convert terminals outside every marked component to non-terminals.
    Calls on one G and S* may share `record` (see `mark_components`)."""
    marked = mark_components(inst, s_star, record)
    covered: set[int] = set()
    for comps in marked.values():
        for comp in comps:
            covered |= comp
    removed = frozenset(t for t in inst.terminals if t not in covered)
    if not removed:
        return None
    step = DropUnmarked(removed)
    return _apply_step(inst, step), step


# -- 1-redundant construction and the full pipeline ---------------------------

@dataclass(frozen=True)
class RedundantSetResult:
    instance: Instance
    s_star: frozenset[int]
    essential: frozenset[int]
    forest: BlockCutForest = field(compare=False, repr=False)  # of the instance's graph - S*


def build_1_redundant(inst: Instance, s_hat: Iterable[int]) -> tuple[RedundantSetResult, list[EssentialVertex]]:
    """Thicken a known near-separator into a 1-redundant one.

    Per pivot x, an x-avoiding replacement larger than 14k certifies that x
    lies in every solution within budget; such vertices are deleted and the
    budget drops. Others contribute their replacement set plus themselves.

    One decomposition of G - Ŝ checks Ŝ and starts every pivot's blocker,
    on G - (Ŝ - x) - x = G - Ŝ. Essential vertices lie in Ŝ and S* holds the
    rest, so G1 - S* = (G - Ŝ) - (S* - Ŝ): its forest, the result's, comes
    from those blocks, and 1-redundancy is checked on it.
    """
    g, T, k = inst.graph, inst.terminals, inst.k
    s_hat = frozenset(s_hat)
    if not s_hat & T and (foreign := g.foreign(s_hat)):
        raise ValueError(f"deletion-set vertices {foreign} are not in the graph")
    base = biconnected_blocks(g, exclude=s_hat)
    if s_hat & T or any(len(b & T) > 1 for b in base):
        raise ValueError("the provided set is not a multiway near-separator")
    essential: list[int] = []
    s_star: set[int] = set()
    for x in sorted(s_hat):
        s_x = blocker_run(g.without(s_hat - {x}), T, x, blocks=base).result
        if len(s_x) > 14 * k:
            essential.append(x)
        else:
            s_star |= s_x | {x}
    g1 = g.without(essential) if essential else g
    steps = [EssentialVertex(x) for x in essential]
    # each s_x avoids all of Ŝ, so S* holds no essential vertex; a budget
    # already exceeded stays 0, and callers treat it as NO
    out_inst = Instance(g1, T, max(k - len(essential), 0))
    f = block_cut_forest(g1, blocks_without(g1, base, s_star - s_hat))
    result = RedundantSetResult(out_inst, frozenset(s_star), frozenset(essential), f)
    _check_1_redundant(g1, T, result.s_star, f)
    return result, steps


def _check_1_redundant(g: Graph, T: frozenset[int], s_star: frozenset[int], f: BlockCutForest) -> None:
    """Raise, also under python -O, unless S* and each S* - s nearly separate T; f is the forest of g - S*."""
    if any(len(b & T) > 1 for b in f.sets):
        raise RuntimeError("the thickened set is not a near-separator")
    for s in s_star:
        if not _separates_without(g, T, f, s):
            raise RuntimeError(f"dropping {s} breaks the near-separator")


def _separates_without(g: Graph, T: frozenset[int], f: BlockCutForest, s: int) -> bool:
    """Whether S - s nearly separates T, for s in S, given f, the forest of
    g - S with no block of two terminals: putting s back joins, per tree, the
    span of its neighbours into one block with s, and leaves the other blocks."""
    ends: dict[int, list[int]] = {}
    for v in g.neighbors(s) & f.index.owner.keys():
        ends.setdefault(f.index.root[f.index.owner[v]], []).append(v)
    return all(len(f.span_vertices(e) & T) < 2 for e in ends.values())


def terminal_bound(k: int, s_hat_size: int) -> int:
    """Most terminals `reduce_terminals` leaves for budget k and |Ŝ| = s_hat_size.

    At the loop's fixpoint, with G the graph once essential vertices are
    gone, S* the 1-redundant set and s = |S*|:
    - s <= (14k+1)|Ŝ|: each pivot kept adds itself and at most 14k vertices.
    - Every T-cycle meets S* twice (1-redundancy), so every terminal left lies
      in a component of G-S* marked for a pair of S*; RR3 keeps at most
      C(s,2)(k+2) such components.
    - A marked component D with r neighbours in S* keeps no terminal if
      r <= 1 and at most 18r-26 otherwise. Let K be the smallest subtree of
      the block-cut tree of G[D] holding all nodes with a neighbour in S*,
      and the hull of a in S* the part of K spanning a's neighbours.
      A terminal outside K lies behind one cut vertex with no edge to S*, so
      RR1 drops it. G[D+a] has no T-cycle (1-redundancy) and the hull of a
      lies in one of its blocks, since all its cycles through a share a
      neighbour of a: one terminal per hull. Outside the hulls K has at most
      r-2 branch nodes, one terminal each, and 2r-3 paths of degree-2 nodes.
      Split a path at its highest node into two root-to-leaf runs; two
      consecutive cut vertices are never both terminals, so a run's first
      and last non-terminal cut vertices x, y have at most one terminal
      outside them each, and the component of G-{x,y} between them has no
      T-cycle, no edge to S* and an x-y path through all its terminals, so
      RR2 leaves it two: 8 per path, r + (r-2) + 8(2r-3) = 18r-26 in all.
    """
    s = (14 * k + 1) * s_hat_size
    return math.comb(s, 2) * (k + 2) * 18 * s


def reduce_terminals(inst: Instance, s_hat: Iterable[int]) -> tuple[Instance, ReductionLog, bool]:
    """Full preprocessing pipeline; returns (reduced instance, log, feasible).

    Builds the 1-redundant set, then repeats RR1, RR2 and RR3 until none
    fires, leaving at most `terminal_bound(k, |Ŝ|)` terminals. feasible is
    False when more vertices are essential than the budget allows, which
    certifies a NO answer. The rules only shrink T and keep G and S*, so RR2
    and RR3 share one record of G and S*, built on the forest of G - S* that
    the 1-redundancy check read, and RR1 one decomposition of G.
    """
    s_hat = frozenset(s_hat)
    redundant, steps = build_1_redundant(inst, s_hat)
    feasible = inst.k - len(redundant.essential) >= 0
    cur = redundant.instance
    record = _Record(cur.graph, redundant.s_star, cur.terminals, redundant.forest)
    blocks = biconnected_blocks(cur.graph)
    all_steps: list[Step] = list(steps)
    while True:
        fired = apply_rr1(cur, blocks)
        if fired is not None:
            cur, rr1_steps = fired
            all_steps.extend(rr1_steps)
        fired = apply_rr2(cur, redundant.s_star, record)
        if fired is None:
            fired = apply_rr3(cur, redundant.s_star, record)
        if fired is None:
            break
        cur, step = fired
        all_steps.append(step)
    log = ReductionLog(inst, tuple(all_steps))
    if log.reduced() != cur:
        raise RuntimeError("forward replay of the log does not reproduce the reduced instance")
    return cur, log, feasible


def minimalize(g: Graph, T: frozenset[int], S: Iterable[int]) -> frozenset[int]:
    """Inclusion-minimal subset that is still a near-separator, dropping
    smallest ids first."""
    S = set(S)
    for v in sorted(S):
        if is_mwns(g, T, frozenset(S - {v})):
            S.discard(v)
    return frozenset(S)


def lift_solution(log: ReductionLog, solution: Iterable[int]) -> frozenset[int]:
    """Transform a solution of the reduced instance into one for the original.

    Replays the log backwards; terminal-conversion steps need the current
    solution inclusion-minimal, the component rule substitutes its cut vertex
    x when the solution touches the component, and essential vertices are
    unioned back in.

    Going backwards only adds terminals, and a set inclusion-minimal for T
    stays so for any T' ⊇ T: a conversion step finding the solution it last
    minimalized, on the same graph, keeps it as it is. Every stage is checked;
    a stage graph and solution checked before only have their kept blocks
    counted against the new terminals.
    """
    stages = log.replay()
    cur = frozenset(solution)
    final = stages[-1]
    if foreign := final.graph.foreign(cur):
        raise ValueError(f"solution vertices {foreign} are not in the reduced graph")
    # keyed on the id of a stage graph, which `stages` keeps alive
    decomposed: dict[tuple[int, frozenset[int]], list[frozenset[int]]] = {}

    def separates(g: Graph, T: frozenset[int], S: frozenset[int]) -> bool:
        # S lies in g: it starts in the last graph, the stage graphs only
        # grow backwards, and each vertex a step adds was checked in the replay
        blocks = decomposed.get((id(g), S))
        if blocks is None:
            blocks = decomposed[id(g), S] = biconnected_blocks(g, exclude=S)
        return not S & T and all(len(b & T) <= 1 for b in blocks)

    if len(cur) > final.k or not separates(final.graph, final.terminals, cur):
        raise ValueError("not a valid solution of the reduced instance")
    cur = minimalize(final.graph, final.terminals, cur)
    minimal = (final.graph, cur)
    for step, before, after in zip(reversed(log.steps), reversed(stages[:-1]), reversed(stages[1:])):
        if isinstance(step, (DropNearlySeparated, DropUnmarked)):
            if minimal[0] is not after.graph or minimal[1] != cur:
                cur = minimalize(after.graph, after.terminals, cur)
                minimal = (after.graph, cur)
        elif isinstance(step, DropComponentTerminal):
            if cur & step.component:
                cur = (cur - step.component) | {step.x}
        elif isinstance(step, EssentialVertex):
            cur = cur | {step.x}
        if not separates(before.graph, before.terminals, cur):
            raise RuntimeError(f"lift through {step} lost validity")
    if len(cur) > log.original.k:
        raise RuntimeError(f"lifted solution {sorted(cur)} exceeds the budget {log.original.k}")
    return cur
