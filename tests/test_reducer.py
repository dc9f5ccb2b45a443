import contextlib
import itertools
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import mwns.blockcut as blockcut_mod
import mwns.blocker as blocker_mod
import mwns.core as core_mod
import mwns.reducer as reducer
from mwns.blockcut import biconnected_blocks, block_cut_forest, nested_cut_pairs
from mwns.graph import Graph, connected_components
from mwns.core import Instance, is_mwns, nearly_separated_terminals, terminals_independent
from mwns.instance_io import format_instance, parse_instance
from mwns.reducer import (
    DropComponentTerminal,
    DropNearlySeparated,
    DropUnmarked,
    EssentialVertex,
    ReductionLog,
    apply_rr1,
    apply_rr2,
    apply_rr3,
    build_1_redundant,
    lift_solution,
    mark_components,
    minimalize,
    parse_steps,
    reduce_terminals,
    terminal_bound,
)
from mwns.separators import path_through_forced_vertex, terminals_on_path
from mwns.solver import oracle_solve

from brute import (decomposed, forest_vertices, free_terminals, path_marked_walk, random_block_tree, random_graph,
                   rr2_candidate_pairs, rr2_pairs_brute, rr2_reference, small_instances)


def six_cycle_instance(k=1):
    g = Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
    return Instance.of(g, {3, 5}, k)


def chain_of_triangles(parts, extra_edges=(), terminals=(), k=1):
    """Triangles sharing cut vertices: 1-2-3, 3-4-5, 5-6-7, ..."""
    edges = []
    v = 1
    for _ in range(parts):
        a, b, c = v, v + 1, v + 2
        edges += [(a, b), (b, c), (a, c)]
        v += 2
    n = v
    edges += list(extra_edges)
    return Instance.of(Graph(range(1, n + 1), edges), terminals, k)


class TestRR1:
    def test_isolated_terminal_removed(self):
        g = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
        inst = Instance.of(g, {3, 5, 7}, 1)
        out = apply_rr1(inst)
        assert out is not None
        newinst, steps = out
        assert steps == (DropNearlySeparated(7),)
        assert newinst.terminals == frozenset({3, 5})

    def test_terminals_on_common_cycle_stay(self):
        assert apply_rr1(six_cycle_instance()) is None

    def test_terminal_behind_one_cut_vertex_removed(self):
        # terminal 5 reaches the cycle only through cut vertex 4
        g = Graph(range(1, 6), [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)])
        inst = Instance.of(g, {1, 2, 5}, 1)
        # terminals 1, 2 are adjacent on the triangle: RR1 looks at near-separation only
        out = apply_rr1(inst)
        assert out is not None and out[1] == (DropNearlySeparated(5),)

    def test_all_lonely_terminals_fire_ascending(self):
        # ids that a set iterates out of order
        g = Graph(range(1, 41), [])
        inst = Instance.of(g, {40, 9, 2}, 0)
        newinst, steps = apply_rr1(inst)
        assert steps == tuple(DropNearlySeparated(t) for t in (2, 9, 40))
        assert newinst.terminals == frozenset()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_one_call_matches_smallest_first_loop(self, data):
        # dropping the smallest nearly-separated terminal one at a time, as
        # the rule was first stated, reaches the same instance and steps
        inst = data.draw(small_instances(max_n=9))
        want, cur = [], inst
        while True:
            lonely = nearly_separated_terminals(cur.graph, cur.terminals)
            if not lonely:
                break
            want.append(DropNearlySeparated(min(lonely)))
            cur = Instance(cur.graph, cur.terminals - {min(lonely)}, cur.k)
        out = apply_rr1(inst)
        if not want:
            assert out is None
        else:
            assert out == (cur, tuple(want))
            assert apply_rr1(cur) is None


class TestRR2:
    def base_chain(self):
        # 2 - triangles with interior terminals - 10; ends tied through hub 12
        # so that cut vertices 2 and 10 sit on one root-to-leaf path
        inst = chain_of_triangles(5, terminals=(2, 4, 6, 8, 10))
        g = inst.graph
        return inst, g

    def test_long_block_chain_drops_middle_terminal(self):
        # interior terminals 2,4,6,8,10 in consecutive triangle blocks:
        # cut pair (3, 9) cuts out a component with terminals 4, 6, 8
        inst = chain_of_triangles(5, terminals=(2, 4, 6, 8, 10))
        out = apply_rr2(inst, frozenset())
        assert out is not None
        newinst, step = out
        assert step.t not in step.kept
        assert step.t in {4, 6, 8}
        assert newinst.terminals == inst.terminals - {step.t}

    def test_component_with_t_cycle_is_skipped(self):
        # terminals inside one 2-connected block form a T-cycle: rule must not fire
        g = Graph(range(1, 9), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1),
                                (1, 7), (6, 8)])
        inst = Instance.of(g, {2, 4, 5}, 1)
        assert apply_rr2(inst, frozenset()) is None

    def test_separated_plain_component_fires_without_a_decomposition(self):
        # one terminal per triangle: no block of G - S* holds two, so the
        # plain D = {4, ..., 8} of G - {3, 9} has no T-cycle and fires off
        # the forest; RR2 decomposes only G[S* + T], for its bound blocks
        inst = chain_of_triangles(5, terminals=(2, 4, 6, 8, 10))
        record = reducer._Record(inst.graph, frozenset(), inst.terminals)
        assert record.separated
        with mock.patch.object(reducer, "biconnected_blocks", wraps=reducer.biconnected_blocks) as spy, \
                mock.patch.object(reducer, "block_cut_forest", wraps=reducer.block_cut_forest) as forests:
            out = apply_rr2(inst, frozenset(), record)
        assert out is not None and out[1].component == frozenset(range(4, 9)) and (out[1].x, out[1].y) == (3, 9)
        assert [decomposed(c) for c in spy.call_args_list] == [inst.terminals]
        assert forests.call_count == 0

    def test_block_with_two_terminals_is_not_separated(self):
        # the 6-cycle holds the terminals 2, 4 and 5: the record does not
        # separate T, and RR2 does not fire
        g = Graph(range(1, 9), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1), (1, 7), (6, 8)])
        inst = Instance.of(g, {2, 4, 5}, 1)
        record = reducer._Record(g, frozenset(), inst.terminals)
        assert not record.separated
        assert apply_rr2(inst, frozenset(), record) is None
        # the last triangle's terminals 12 and 13 leave no T separated, so
        # the plain D = {4, ..., 8} is judged by a decomposition of its region
        inst = chain_of_triangles(6, terminals=(2, 4, 6, 8, 12, 13))
        record = reducer._Record(inst.graph, frozenset(), inst.terminals)
        assert not record.separated
        with mock.patch.object(reducer, "biconnected_blocks", wraps=reducer.biconnected_blocks) as spy:
            out = apply_rr2(inst, frozenset(), record)
        assert out == rr2_reference(inst, frozenset()) and out[1].component == frozenset(range(4, 9))
        assert [decomposed(c) for c in spy.call_args_list] == [inst.terminals, frozenset(range(3, 10))]

    def test_two_terminals_not_enough(self):
        inst = chain_of_triangles(3, terminals=(2, 4))
        assert apply_rr2(inst, frozenset()) is None

    def test_component_touching_one_side_is_skipped(self):
        # on the path 1-..-9 with terminals 5, 7, 9, the component {5..9} of
        # G-{2,4} touches only 4, so no 2-4 path runs through it; this used
        # to raise "endpoints lie in different components"
        g = Graph(range(1, 10), [(v, v + 1) for v in range(1, 9)])
        assert apply_rr2(Instance.of(g, {5, 7, 9}, 1), []) is None

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.integers(4, 12), st.sampled_from([0.15, 0.25, 0.35]), st.integers(0, 10**6))
    def test_candidate_pairs_match_the_ancestor_reference(self, n, p, seed):
        rng = random.Random(seed)
        g = random_graph(rng, n, p)
        T = frozenset(v for v in g.vertices if rng.random() < 0.2)
        s_star = frozenset(v for v in g.vertices if v not in T and rng.random() < 0.1)
        pairs = [p for p in rr2_candidate_pairs(g, s_star) if not T & set(p)]
        assert pairs == rr2_pairs_brute(g, T, s_star)


class TestMarking:
    def mk(self):
        # S* = {8, 9}; components ABC around them
        g = Graph(range(1, 10), [
            (8, 1), (1, 2), (2, 9),      # component {1,2}: path with terminal 1
            (8, 3), (3, 9),              # component {3}: terminal adjacent to both
            (8, 4), (4, 5),              # component {4,5}: no terminal
            (6, 7),                      # component {6,7}: not attached at all
        ])
        return g

    def test_component_with_terminal_path_marked(self):
        g = self.mk()
        inst = Instance.of(g, {1, 3}, 0)
        marked = mark_components(inst, {8, 9})
        comps = marked[(8, 9)]
        assert frozenset({1, 2}) in comps and frozenset({3}) in comps

    def test_component_without_terminal_never_marked(self):
        g = self.mk()
        inst = Instance.of(g, {1, 3}, 0)
        marked = mark_components(inst, {8, 9})
        assert frozenset({4, 5}) not in marked[(8, 9)]
        assert frozenset({6, 7}) not in marked[(8, 9)]

    def test_greedy_cap_at_k_plus_2(self):
        # k+3 qualifying parallel paths through terminals; only k+2 marked
        k = 1
        edges = []
        terminals = []
        for i in range(k + 3):
            t = 3 + i
            edges += [(1, t), (t, 2)]
            terminals.append(t)
        g = Graph(range(1, 3 + k + 3), edges)
        inst = Instance.of(g, terminals, k)
        marked = mark_components(inst, {1, 2})
        assert len(marked[(1, 2)]) == k + 2
        expect = [frozenset({t}) for t in terminals[:k + 2]]
        assert marked[(1, 2)] == expect

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.integers(4, 12), st.sampled_from([0.2, 0.3, 0.4]), st.integers(0, 10**6))
    def test_block_cut_check_matches_the_per_terminal_paths(self, n, p, seed):
        # RR3 marks a component C of G - {x, y} off C's own block-cut tree:
        # a vertex of C lies on a simple x-y path through C iff it lies in
        # the span of C's neighbours of x and y, checked vertex by vertex
        rng = random.Random(seed)
        g = random_graph(rng, n, p)
        x, y = rng.sample(list(g.vertices), 2)
        for comp in map(frozenset, connected_components(g.without([x, y]))):
            a_side, b_side = g.neighbors(x) & comp, g.neighbors(y) & comp
            if not (a_side and b_side):
                continue  # RR3 reads no component next to one side only
            h = g.induced(comp)
            on_path = {v for v in comp
                       if v in a_side | b_side or path_through_forced_vertex(h, a_side, b_side, v)}
            assert block_cut_forest(h).span_vertices(a_side | b_side) == on_path


class TestRR3:
    def test_unmarked_terminal_component_dropped(self):
        g = Graph(range(1, 7), [(5, 1), (1, 6), (2, 3)])
        # S* = {5, 6}: component {1} qualifies; component {2,3} holds terminal 2
        # but never touches both sides
        inst = Instance.of(g, {1, 2}, 0)
        out = apply_rr3(inst, {5, 6})
        assert out is not None
        newinst, step = out
        assert step == DropUnmarked(frozenset({2}))
        assert newinst.terminals == frozenset({1})

    def test_everything_marked_means_no_change(self):
        g = Graph(range(1, 4), [(2, 1), (1, 3)])
        inst = Instance.of(g, {1}, 0)
        assert apply_rr3(inst, {2, 3}) is None

    def test_no_terminals_no_change(self):
        g = Graph(range(1, 4), [(2, 1), (1, 3)])
        inst = Instance.of(g, set(), 0)
        assert apply_rr3(inst, {2, 3}) is None


def mark_reference(inst: Instance, s_star) -> dict[tuple[int, int], list[frozenset[int]]]:
    """mark_components as first written: every call floods G - S* and tests
    each pair's components terminal by terminal for a path from N(x) to N(y)."""
    g, T, k = inst.graph, inst.terminals, inst.k
    comps = [frozenset(c) for c in connected_components(g.without(s_star))]
    marked = {}
    for x, y in itertools.combinations(sorted(s_star), 2):
        chosen = marked[x, y] = []
        for comp in comps:
            a_side, b_side = g.neighbors(x) & comp, g.neighbors(y) & comp
            if len(chosen) < k + 2 and a_side and b_side and any(
                    t in a_side | b_side
                    or path_through_forced_vertex(g.induced(comp), a_side, b_side, t)
                    for t in sorted(T & comp)):
                chosen.append(comp)
    return marked


class TestRR3Index:
    """reduce_terminals shares one RR3 record of G and S* across its rule
    loop; its marks must equal those of a fresh call."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.integers(0, 10**6), st.sampled_from(["flower", "random"]))
    def test_shared_record_along_shrinking_terminals(self, seed, kind):
        rng = random.Random(seed)
        if kind == "flower":
            petals = [(rng.choice(HUB_PAIRS), rng.randint(2, 7)) for _ in range(rng.randint(2, 8))]
            inst = flower(petals, rng.randint(1, 4))
            g, T, s_star = inst.graph, inst.terminals, frozenset({1, 2, 3})
        else:
            g = random_graph(rng, rng.randint(4, 14), rng.choice([0.15, 0.25, 0.35]))
            T = frozenset(v for v in g.vertices if rng.random() < 0.45)
            s_star = frozenset(v for v in g.vertices if v not in T and rng.random() < 0.35)
        k = rng.randint(0, 2)
        record = reducer._Record(g, s_star, T)
        while True:
            inst = Instance(g, T, k)
            shared = mark_components(inst, s_star, record)
            assert shared == mark_components(inst, s_star) == mark_reference(inst, s_star)
            assert apply_rr3(inst, s_star, record) == apply_rr3(inst, s_star)
            if not T:
                break
            T -= set(rng.sample(sorted(T), min(len(T), rng.randint(1, 3))))

    def test_one_forest_per_pair_and_component(self):
        # six petals on hubs 1 and 2 exceed the k + 2 = 5 marks, RR3 fires and
        # runs again; every call marks off the record's one forest of G - S*
        inst = flower([((1, 2), 7)] * 6 + [((2, 3), 7), ((1, 3), 7)], 4)
        with mock.patch.object(reducer, "block_cut_forest", wraps=reducer.block_cut_forest) as spy, \
                mock.patch.object(reducer, "apply_rr3", wraps=reducer.apply_rr3) as rr3:
            reduced, log, _ = reduce_terminals(inst, {1, 2, 3})
        assert any(isinstance(s, DropUnmarked) for s in log.steps) and rr3.call_count >= 2
        g, s_star = reduced.graph, frozenset({1, 2, 3})
        assert [forest_vertices(c) for c in spy.call_args_list] == [frozenset(g.without(s_star).vertices)]

    @pytest.mark.parametrize("entry", [apply_rr2, mark_components, apply_rr3])
    def test_record_of_another_graph_s_star_or_fewer_terminals_is_refused(self, entry):
        # one check covers all three rules: RR2 and RR3 share the record, and
        # a component RR2 dropped for too few terminals could fire again with more
        inst = chain_of_triangles(5, terminals=(2, 4, 6, 8, 10))
        g, T, s_star = inst.graph, inst.terminals, frozenset({3})
        for record in (reducer._Record(g.without([1]), s_star, T), reducer._Record(g, frozenset({5}), T),
                       reducer._Record(g, s_star, T - {2})):
            with pytest.raises(ValueError, match="another graph or S\\*, or for fewer terminals"):
                entry(inst, s_star, record)
        assert entry(inst, s_star, reducer._Record(g, s_star, T)) == entry(inst, s_star)

    @pytest.mark.parametrize("entry", [apply_rr2, mark_components, apply_rr3])
    def test_s_star_ids_outside_the_graph_are_named(self, entry):
        inst = chain_of_triangles(3, terminals=(2, 4), k=1)
        with pytest.raises(ValueError, match=r"S\* vertices \[99\] are not in the graph"):
            entry(inst, {3, 99})


class TestBuildOneRedundant:
    def test_trivial_instance_empty_sets(self):
        g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
        inst = Instance.of(g, {1, 3}, 1)
        result, steps = build_1_redundant(inst, frozenset())
        assert result.s_star == frozenset() and result.essential == frozenset()
        assert steps == []

    def test_flower_forces_essential_vertex(self):
        # one 6-cycle through x=1 and budget 0: the pivot is unavoidable
        inst = six_cycle_instance(k=0)
        result, steps = build_1_redundant(inst, frozenset({1}))
        assert result.essential == frozenset({1})
        assert steps == [EssentialVertex(1)]
        assert 1 not in result.instance.graph

    def test_fifteen_petals_make_the_pivot_essential_at_k1(self):
        # 15 vertex-disjoint-except-x terminal cycles through x; k = 1
        edges = []
        vertices = [1]
        terminals = []
        nxt = 2
        for _ in range(15):
            a, t1, b, t2, c = nxt, nxt + 1, nxt + 2, nxt + 3, nxt + 4
            nxt += 5
            vertices += [a, t1, b, t2, c]
            terminals += [t1, t2]
            edges += [(1, a), (a, t1), (t1, b), (b, t2), (t2, c), (c, 1)]
        g = Graph(vertices, edges)
        inst = Instance.of(g, terminals, 1)
        result, steps = build_1_redundant(inst, frozenset({1}))
        assert result.essential == frozenset({1})
        # oracle view: the only single-vertex solution is x itself
        assert oracle_solve(inst).solution == frozenset({1})

    def test_size_bound_and_redundancy(self):
        rng = random.Random(103)
        checked = 0
        while checked < 40:
            g = random_graph(rng, rng.randint(4, 10), rng.choice([0.25, 0.4]))
            T = frozenset(rng.sample(list(g.vertices), rng.randint(2, 4)))
            if not terminals_independent(g, T):
                continue
            k = rng.randint(1, 3)
            inst = Instance.of(g, T, k)
            s_hat = frozenset(v for v in g.vertices if v not in T)
            result, _ = build_1_redundant(inst, s_hat)
            checked += 1
            assert len(result.s_star) <= (14 * k + 1) * len(s_hat)
            for s in result.s_star:  # 1-redundancy, directly
                assert is_mwns(result.instance.graph, T, result.s_star - {s})

    def test_rejects_non_separator(self):
        inst = six_cycle_instance()
        with pytest.raises(ValueError):
            build_1_redundant(inst, frozenset({2}) - {2})  # empty but instance non-trivial

    def test_redundancy_check_raises_even_without_asserts(self, monkeypatch):
        # the 1-redundancy check is a raise, not an assert, so it survives
        # python -O; empty blocker results leave S* = {4}, and dropping 4
        # reopens the six-cycle's T-cycle
        import mwns.reducer as reducer_mod

        empty = blocker_mod.BlockerRun(frozenset(), ())
        monkeypatch.setattr(reducer_mod, "blocker_run", lambda g, T, x, blocks: empty)
        with pytest.raises(RuntimeError, match="dropping 4"):
            build_1_redundant(six_cycle_instance(), frozenset({4}))

    def test_redundancy_check_raises_under_python_O(self):
        script = textwrap.dedent('''
            import mwns.reducer as r
            from mwns.blocker import BlockerRun
            from mwns.core import Instance
            from mwns.graph import Graph
            r.blocker_run = lambda g, T, x, blocks: BlockerRun(frozenset(), ())
            c6 = Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
            try:
                r.build_1_redundant(Instance.of(c6, {3, 5}, 1), {4})
            except RuntimeError as e:
                print("dropping 4" in str(e))
            else:
                print("returned")
        ''')
        src = str(Path(reducer.__file__).parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["True"]

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.integers(0, 10**6), st.sampled_from(["flower", "random"]))
    def test_drop_one_on_the_forest_matches_is_mwns(self, seed, kind):
        # S is grown until it separates T; then putting s back into G - S
        # joins, per tree, the span of s's neighbours into one block with s,
        # and S - s separates iff no such span holds two terminals
        rng = random.Random(seed)
        if kind == "flower":
            petals = [(rng.choice(HUB_PAIRS), rng.randint(2, 9)) for _ in range(rng.randint(2, 6))]
            inst = flower(petals, rng.randint(1, 4))
            g, T = inst.graph, inst.terminals
            rest = [v for v in g.vertices if v not in T and v > 3]
            S = {v for v in rest if rng.random() < 0.2} | set(rng.sample([1, 2, 3], rng.randint(0, 3)))
            rest += [1, 2, 3]
        else:
            g = random_graph(rng, rng.randint(3, 14), rng.choice([0.15, 0.25, 0.4]))
            T = set()
            for t in g.vertices:  # independent terminals
                if rng.random() < 0.4 and not g.neighbors(t) & T:
                    T.add(t)
            rest = [v for v in g.vertices if v not in T]
            S = {v for v in rest if rng.random() < 0.3}
        rng.shuffle(rest)
        while not is_mwns(g, T, S):  # every non-terminal separates independent terminals
            S.add(rest.pop())
        f = block_cut_forest(g, biconnected_blocks(g, S))
        for s in S:
            assert reducer._separates_without(g, T, f, s) == is_mwns(g, T, S - {s}), (seed, s)

    def test_nothing_essential_keeps_the_graph(self):
        inst = FLOWERS[0]
        result, steps = build_1_redundant(inst, {1, 2, 3})
        assert not result.essential and not steps
        assert result.instance.graph is inst.graph

    def test_one_decomposition_of_g_minus_s_hat_per_reduction(self):
        # the Ŝ check, every pivot's blocker and the 1-redundancy check read
        # one decomposition of G - Ŝ, and the record the check's forest: up to
        # the record no vertex set is decomposed twice (the others are the
        # blockers' closing checks), and the reducer runs no is_mwns
        s_hat = frozenset({1, 2, 3})
        for inst in FLOWERS:
            order: list[tuple[str, frozenset[int] | None]] = []

            def logged(tag, real):
                def call(*args, **kwargs):
                    order.append((tag, None if tag == "record" else decomposed(mock.call(*args, **kwargs))))
                    return real(*args, **kwargs)
                return call

            with mock.patch.object(reducer, "_Record", side_effect=logged("record", reducer._Record)), \
                    mock.patch.object(reducer, "is_mwns", wraps=reducer.is_mwns) as checks, \
                    contextlib.ExitStack() as spies:
                for tag, mod in (("reducer", reducer), ("blocker", blocker_mod), ("core", core_mod)):
                    spies.enter_context(mock.patch.object(mod, "biconnected_blocks",
                                                          side_effect=logged(tag, biconnected_blocks)))
                reduce_terminals(inst, s_hat)
            upto = order[:order.index(("record", None))]
            sets = [d for _, d in upto]
            assert upto[0] == ("reducer", frozenset(inst.graph.vertices) - s_hat)
            assert [tag for tag, _ in upto[1:]] == ["core"] * len(s_hat)
            assert len(set(sets)) == len(sets)
            assert checks.call_count == 0


class TestReduceAndLift:
    def test_already_reduced_instance_unchanged(self):
        inst = six_cycle_instance()
        reduced, log, feasible = reduce_terminals(inst, frozenset({2, 4}))
        assert feasible
        assert reduced.terminals == inst.terminals and reduced.k == inst.k
        assert reduced.graph == inst.graph
        assert [s for s in log.steps if not isinstance(s, EssentialVertex)] == []

    def test_isolated_terminal_one_rr1_step(self):
        g = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
        inst = Instance.of(g, {3, 5, 7}, 1)
        reduced, log, feasible = reduce_terminals(inst, frozenset({2, 4}))
        assert feasible
        rr1 = [s for s in log.steps if isinstance(s, DropNearlySeparated)]
        assert rr1 == [DropNearlySeparated(7)]
        assert 7 not in reduced.terminals

    def test_rr1_reads_one_decomposition_per_reduction(self):
        # the rule loop never changes G, so every RR1 round reads the blocks
        # of the reduced graph that one decomposition found
        rounds = []
        for inst in FLOWERS:
            with mock.patch.object(reducer, "nearly_separated_terminals",
                                   wraps=nearly_separated_terminals) as spy:
                reduced, _, _ = reduce_terminals(inst, frozenset({1, 2, 3}))
            seen = [c.args[2] for c in spy.call_args_list]
            rounds.append(len(seen))
            assert seen and all(b is seen[0] for b in seen)
            assert sorted(map(sorted, seen[0])) == sorted(map(sorted, biconnected_blocks(reduced.graph)))
        assert max(rounds) >= 3

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(small_instances(max_n=10))
    def test_rr1_with_given_blocks_matches_a_fresh_decomposition(self, inst):
        assert apply_rr1(inst, biconnected_blocks(inst.graph)) == apply_rr1(inst)

    def test_replay_check_raises_even_without_asserts(self, monkeypatch):
        # the log-replay check is a raise, not an assert, so it survives
        # python -O; a replay that ignores the steps keeps terminal 7
        import mwns.reducer as reducer_mod

        monkeypatch.setattr(reducer_mod.ReductionLog, "reduced", lambda log: log.original)
        g = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
        with pytest.raises(RuntimeError, match="forward replay"):
            reduce_terminals(Instance.of(g, {3, 5, 7}, 1), frozenset({2, 4}))

    def test_equivalence_on_random_instances(self):
        rng = random.Random(107)
        checked = 0
        while checked < 60:
            g = random_graph(rng, rng.randint(4, 12), rng.choice([0.2, 0.35]))
            T = frozenset(rng.sample(list(g.vertices), rng.randint(2, min(5, g.n))))
            if not terminals_independent(g, T):
                continue
            k = rng.randint(0, 3)
            inst = Instance.of(g, T, k)
            s_hat = frozenset(v for v in g.vertices if v not in T)
            reduced, log, feasible = reduce_terminals(inst, s_hat)
            checked += 1
            assert reduced.terminals <= T and reduced.k <= k
            assert set(reduced.graph.vertices) <= set(g.vertices)
            want = oracle_solve(inst)
            if not feasible:
                assert not want.is_yes
                continue
            got = oracle_solve(reduced)
            assert got.is_yes == want.is_yes
            if got.is_yes:
                lifted = lift_solution(log, got.solution)
                assert is_mwns(g, T, lifted) and len(lifted) <= k

    def test_marked_pair_covers_every_solution(self):
        # pairs with a full k+2 marking force x or y into every solution
        rng = random.Random(109)
        checked = 0
        while checked < 25:
            g = random_graph(rng, rng.randint(5, 10), rng.choice([0.3, 0.45]))
            T = frozenset(rng.sample(list(g.vertices), rng.randint(2, 4)))
            if not terminals_independent(g, T):
                continue
            k = rng.randint(0, 2)
            inst = Instance.of(g, T, k)
            s_hat = frozenset(v for v in g.vertices if v not in T)
            try:
                reduced, log, feasible = reduce_terminals(inst, s_hat)
            except ValueError:
                continue
            if not feasible:
                continue
            result, _ = build_1_redundant(inst, s_hat)
            full = [(x, y) for (x, y), comps in
                    mark_components(result.instance, result.s_star).items()
                    if len(comps) == inst.k + 2]
            if not full:
                continue
            checked += 1
            pool = [v for v in reduced.graph.vertices if v not in reduced.terminals]
            for r in range(reduced.k + 1):
                for combo in itertools.combinations(pool, r):
                    S = frozenset(combo)
                    if is_mwns(reduced.graph, reduced.terminals, S):
                        assert any(x in S or y in S for x, y in full)

    def test_lift_empty_log(self):
        inst = six_cycle_instance()
        log = ReductionLog(inst, ())
        assert lift_solution(log, frozenset({2})) == frozenset({2})

    def test_lift_through_essential_vertex(self):
        inst = six_cycle_instance(k=0)
        _, log, feasible = reduce_terminals(inst, frozenset({1}))
        assert not feasible  # essential vertex with zero budget certifies NO
        inst2 = six_cycle_instance(k=1)
        reduced, log2, feasible2 = reduce_terminals(inst2, frozenset({1}))
        assert feasible2
        essential = [s for s in log2.steps if isinstance(s, EssentialVertex)]
        if essential:
            lifted = lift_solution(log2, frozenset())
            assert frozenset(e.x for e in essential) <= lifted

    def test_lift_rejects_invalid_solution(self):
        inst = six_cycle_instance()
        log = ReductionLog(inst, ())
        with pytest.raises(ValueError):
            lift_solution(log, frozenset({3}))  # deletes a terminal

    def test_lift_step_check_raises_even_without_asserts(self, monkeypatch):
        # the per-step check is a raise, not an assert, so it survives python -O;
        # a minimalization that drops everything reopens the six-cycle's T-cycle
        import mwns.reducer as reducer_mod

        base = six_cycle_instance()
        inst = Instance.of(Graph(range(1, 8), base.graph.edges()), {3, 5, 7}, 1)
        _, steps = apply_rr1(inst)
        assert steps == (DropNearlySeparated(7),)
        log = ReductionLog(inst, steps)
        monkeypatch.setattr(reducer_mod, "minimalize", lambda g, T, S: frozenset())
        with pytest.raises(RuntimeError, match="lost validity"):
            lift_solution(log, frozenset({4}))

    def test_lift_budget_check_raises_even_without_asserts(self, monkeypatch):
        # the closing budget check is a raise, not an assert, so it survives
        # python -O; a minimalization that adds a vertex overshoots k = 1
        import mwns.reducer as reducer_mod

        log = ReductionLog(six_cycle_instance(), ())
        monkeypatch.setattr(reducer_mod, "minimalize", lambda g, T, S: frozenset(S) | {2})
        with pytest.raises(RuntimeError, match="exceeds the budget"):
            lift_solution(log, frozenset({4}))

    def hub_chain(self):
        """Triangle chain with terminals 2,4,6,8,10 plus two hub vertices 12,13
        joining the chain ends: every terminal keeps a doubly-connected partner
        through a hub, so the chain terminals survive the near-separation rule,
        while the stretch between cut vertices 3 and 9 stays cycle-free."""
        base = chain_of_triangles(5, terminals=(2, 4, 6, 8, 10), k=2)
        g = Graph(range(1, 14),
                  base.graph.edges() + [(2, 12), (10, 12), (2, 13), (10, 13)])
        return Instance.of(g, base.terminals, 2)

    def test_rr2_fires_on_hub_chain(self):
        inst = self.hub_chain()
        out = apply_rr2(inst, frozenset({12, 13}))
        assert out is not None
        _, step = out
        assert (step.x, step.y) == (3, 9)
        assert step.component == frozenset({4, 5, 6, 7, 8})
        assert step.kept == (4, 6) and step.t == 8

    def test_lift_through_component_substitution(self):
        inst = self.hub_chain()
        _, step = apply_rr2(inst, frozenset({12, 13}))
        log = ReductionLog(inst, (step,))
        reduced = log.reduced()
        assert reduced.terminals == inst.terminals - {8}
        # {hub 12, chain vertex 5} is a minimum solution touching the component
        s_prime = frozenset({12, 5})
        assert is_mwns(reduced.graph, reduced.terminals, s_prime)
        lifted = lift_solution(log, s_prime)
        assert 3 in lifted, "the component gets swapped for its cut vertex"
        assert is_mwns(inst.graph, inst.terminals, lifted)
        assert len(lifted) <= inst.k


def criterion_5_instances():
    """The seeded instances of the acceptance suite's reduction criterion,
    each with all its non-terminals as the given near-separator."""
    rng = random.Random(9090)
    done = 0
    while done < 300:
        n = rng.randint(4, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.35]))
        T = frozenset(rng.sample(list(g.vertices), rng.randint(2, min(6, n))))
        if not terminals_independent(g, T):
            continue
        done += 1
        yield Instance.of(g, T, rng.randint(0, 3)), frozenset(v for v in g.vertices if v not in T)


def flower(petals, pendant, k=3):
    """Hubs 1, 2, 3 joined by petal paths of the given lengths between the
    given hub pairs, terminals on every second petal vertex, and a pendant
    path hanging off hub 1; the hubs solve it."""
    edges, T, nxt = [], set(), 4
    for (a, b), length in petals:
        path = list(range(nxt, nxt + length))
        nxt += length
        edges += [(a, path[0]), (path[-1], b)] + list(zip(path, path[1:]))
        T.update(path[1::2])
    tail = list(range(nxt, nxt + pendant))
    nxt += pendant
    edges += [(1, tail[0])] + list(zip(tail, tail[1:]))
    T.update(tail[1::2])
    return Instance.of(Graph(range(1, nxt), edges), T, k)


FLOWERS = (
    flower([((1, 2), 7), ((2, 3), 7), ((1, 3), 7)], 4),
    flower([((1, 2), 7), ((1, 2), 5), ((2, 3), 9), ((1, 3), 5)], 4),
    flower([((1, 2), 9), ((1, 2), 9), ((2, 3), 9), ((1, 3), 9), ((1, 3), 3)], 4),
)


class TestTerminalBound:
    def check_per_component(self, inst, s_hat):
        """terminal_bound's per-component step: a component of G - S* with
        r vertices of S* next to it keeps at most 18r - 26 terminals."""
        reduced, _, feasible = reduce_terminals(inst, s_hat)
        assert len(reduced.terminals) <= terminal_bound(inst.k, len(s_hat))
        if not feasible:
            return
        s_star = build_1_redundant(inst, s_hat)[0].s_star
        g = reduced.graph
        for comp in connected_components(g.without(s_star)):
            r = sum(1 for s in s_star if g.neighbors(s) & set(comp))
            assert len(reduced.terminals & set(comp)) <= max(0, 18 * r - 26)

    def test_criterion_5_instances(self):
        for inst, s_hat in criterion_5_instances():
            self.check_per_component(inst, s_hat)

    def test_flowers(self):
        for inst in FLOWERS:
            self.check_per_component(inst, frozenset({1, 2, 3}))


def reference_reduction(inst: Instance, s_hat) -> tuple[Instance, list]:
    """The rule loop of `reduce_terminals` with the per-call RR2 scan
    `rr2_reference` in place of the indexed RR2."""
    redundant, steps = build_1_redundant(inst, frozenset(s_hat))
    cur, out = redundant.instance, list(steps)
    while True:
        fired = apply_rr1(cur)
        if fired is not None:
            cur, rr1_steps = fired
            out.extend(rr1_steps)
        fired = rr2_reference(cur, redundant.s_star)
        if fired is None:
            fired = apply_rr3(cur, redundant.s_star)
        if fired is None:
            return cur, out
        cur, step = fired
        out.append(step)


HUB_PAIRS = ((1, 2), (2, 3), (1, 3))


def pendant_chain(L, terminals=2):
    """Path 2..L, pivot 1 joined to 2, and terminals L+1, L+2, ... each
    joined to 1 and L."""
    ts = range(L + 1, L + 1 + terminals)
    edges = [(v, v + 1) for v in range(2, L)] + [(1, 2)] + [e for t in ts for e in ((1, t), (L, t))]
    return Instance.of(Graph(range(1, L + 1 + terminals), edges), ts, 1)


def shrinking_case(rng: random.Random, kind: str) -> tuple[Graph, frozenset[int], frozenset[int]]:
    """A graph, terminals and S* for RR2 along shrinking terminals: a flower
    with its hubs as S*, or a block tree or random graph with a few random
    non-terminals as S*."""
    if kind == "flower":
        petals = [(rng.choice(HUB_PAIRS), rng.randint(5, 13)) for _ in range(rng.randint(2, 4))]
        inst = flower(petals, rng.randint(1, 6))
        return inst.graph, inst.terminals, frozenset({1, 2, 3})
    if kind == "block tree":
        g = random_block_tree(rng, rng.randint(3, 10))[0]
    else:
        g = random_graph(rng, rng.randint(5, 12), rng.choice([0.15, 0.25, 0.35]))
    T = frozenset(v for v in g.vertices if rng.random() < 0.45)
    return g, T, frozenset(v for v in g.vertices if v not in T and rng.random() < 0.1)


@st.composite
def rr2_flowers(draw):
    """Flowers with a petal of 11 to 13 vertices and a second petal on the
    same hub pair: the long petal keeps three terminals between two of its
    non-terminal cut vertices, where RR2 fires."""
    pair = draw(st.sampled_from(HUB_PAIRS))
    petals = [(pair, draw(st.integers(11, 13))), (pair, draw(st.integers(5, 13)))]
    petals += draw(st.lists(st.tuples(st.sampled_from(HUB_PAIRS), st.integers(5, 13)), max_size=3))
    return flower(petals, draw(st.integers(1, 6)))


class TestRR2Index:
    """reduce_terminals shares one RR2 index of G and S* across its rule loop;
    its answers must equal the per-call scan's."""

    def check_against_reference(self, inst, s_hat) -> int:
        """Asserts equal logs and reduced instances; returns the RR2 firings."""
        reduced, log, _ = reduce_terminals(inst, s_hat)
        ref_reduced, ref_steps = reference_reduction(inst, s_hat)
        assert list(log.steps) == ref_steps and reduced == ref_reduced
        return sum(isinstance(s, DropComponentTerminal) for s in ref_steps)

    def test_flowers_and_hub_chain_match_the_per_call_scan(self):
        fired = sum(self.check_against_reference(inst, {1, 2, 3}) for inst in FLOWERS)
        fired += self.check_against_reference(TestReduceAndLift().hub_chain(), {12, 13})
        assert fired > 0

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(rr2_flowers())
    def test_random_flowers_match_the_per_call_scan(self, inst):
        assert self.check_against_reference(inst, {1, 2, 3}) > 0

    @pytest.mark.sweep
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.integers(0, 10**6), st.sampled_from(["flower", "block tree", "random"]))
    def test_shared_index_along_shrinking_terminals(self, seed, kind):
        # T shrinks by RR2's own drops where it fires, by up to three random
        # terminals elsewhere; the index is built once, before the first query
        rng = random.Random(seed)
        g, T, s_star = shrinking_case(rng, kind)
        index = reducer._Record(g, s_star, T)
        while T:
            inst = Instance(g, T, 1)
            shared = apply_rr2(inst, s_star, index)
            assert shared == apply_rr2(inst, s_star) == rr2_reference(inst, s_star)
            if index.live is not None:  # filled by the first query with three free terminals
                assert index.live == rr2_candidate_pairs(g, s_star)
            T = shared[0].terminals if shared else T - set(rng.sample(sorted(T), min(len(T), 3)))

    def test_the_record_holds_one_t_across_rule_calls(self):
        # every rule call shrinks the shared record to its T before any
        # exit: after RR2 returns for fewer than three terminals or fewer
        # than three free ones, after it fires or reads in vain, and after
        # RR3's calls between, the record reads each G - {x, y} and counts
        # its terminals as a fresh record of the current T does
        rng = random.Random(35)
        seen = Counter()
        for kind in ("flower", "block tree", "random") * 20:
            g, T, s_star = shrinking_case(rng, kind)
            record = reducer._Record(g, s_star, T)
            pairs = nested_cut_pairs(record.f)
            while T:
                for rule in (apply_rr2, apply_rr3):
                    out = rule(Instance(g, T, 1), s_star, record)
                    if rule is apply_rr2:
                        seen["fired" if out else "few" if len(T) < 3
                             else "bound" if len(T.difference(*record.bound)) < 3 else "read"] += 1
                    fresh = reducer._Record(g, s_star, T)
                    for x, y in pairs:
                        comps = record.read(x, y, 1)
                        assert comps == fresh.read(x, y, 1)
                        assert [record.count(d.ranges, d.sets) for d in comps] == [
                            fresh.count(d.ranges, d.sets) for d in comps]
                    if out:
                        T = out[0].terminals
                        break
                else:
                    T = T - set(rng.sample(sorted(T), min(len(T), 3)))
        assert min(seen[e] for e in ("fired", "few", "bound", "read")) > 0, seen

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.integers(0, 10**6), st.sampled_from(["flower", "block tree", "random"]))
    def test_rr2_fires_only_on_free_terminals(self, seed, kind):
        # a block of G[S* + T] with two terminals misses x and y, which lie
        # outside S* + T, so a D holding one of its terminals holds all of it
        # and, with x and y, a T-cycle: RR2 needs three free terminals
        rng = random.Random(seed)
        g, T, s_star = shrinking_case(rng, kind)
        while T:
            inst = Instance(g, T, 1)
            free, fired = free_terminals(g, T, s_star), rr2_reference(inst, s_star)
            if fired is not None:
                assert fired[1].component & T <= free
            if len(free) < 3:
                assert fired is None
            T = fired[0].terminals if fired else T - set(rng.sample(sorted(T), min(len(T), 3)))

    def test_component_behind_a_firing_one_fires_on_a_later_call(self):
        # G - {2, 3} has two cycle-free components joining 2 to 3, each with
        # three or more terminals: the first fires, and the second, which
        # that call never reached, fires on the next one
        a, b = [2, 4, 5, 6, 7, 8, 9, 10, 3], [2] + list(range(11, 20)) + [3]
        g = Graph(range(1, 20), [(1, 2)] + list(zip(a, a[1:])) + list(zip(b, b[1:])))
        inst, s_star = Instance.of(g, {5, 7, 9, 12, 14, 16, 18}, 1), frozenset({15})
        index = reducer._Record(g, s_star, inst.terminals)
        steps = []
        while (ref := rr2_reference(inst, s_star)) is not None:
            assert apply_rr2(inst, s_star, index) == ref
            inst, step = ref
            steps.append(step)
        assert apply_rr2(inst, s_star, index) is None
        assert [s.component for s in steps[:2]] == [frozenset(a[1:-1]), frozenset(b[1:-1])]

    def test_each_pair_component_decomposed_once(self):
        # two pairs may cut off one region D + x + y; a pair decomposes one
        # at most once per visit for its T-cycle check, and a region found
        # cycle-free takes its x-y path from that decomposition's blocks. A
        # pair is visited again only once it fires or a terminal it sleeps
        # on goes, so a region is decomposed at most once per pair cutting
        # it off and once more per firing of such a pair. The pair (6, 8)
        # fires six times, each visit judging G - 7 afresh; RR2's one
        # decomposition of G[S* + T] is of no region
        wrapped = blockcut_mod.biconnected_blocks
        with mock.patch.object(reducer, "biconnected_blocks", wraps=wrapped) as spy, \
                mock.patch.object(blockcut_mod, "biconnected_blocks", wraps=wrapped) as inner:
            reduced, log, _ = reduce_terminals(FLOWERS[0], {1, 2, 3})
        fired = Counter((s.x, s.y) for s in log.steps if isinstance(s, DropComponentTerminal))
        g, s_star = reduced.graph, build_1_redundant(FLOWERS[0], {1, 2, 3})[0].s_star
        # the one decomposition of G - Ŝ, the one call naming `exclude`,
        # whose blocks the blockers and the record's forest of G - S* reuse
        # (S* = Ŝ here), counts with those RR3 and the blocker make
        excludes = [len(c.args) > 1 or "exclude" in c.kwargs for c in spy.call_args_list]
        record = [decomposed(c) for c, e in zip(spy.call_args_list, excludes) if e]
        assert record == [frozenset(g.vertices) - s_star]
        regions = Counter(decomposed(c) for c, e in zip(spy.call_args_list, excludes) if not e)
        [bound] = [r for r in regions if r <= s_star | FLOWERS[0].terminals]
        assert regions.pop(bound) == 1
        every = regions + Counter(record + [decomposed(c) for c in inner.call_args_list])
        assert fired[6, 8] == 6 and regions[frozenset(g.vertices) - {7}] == 6
        for region, calls in every.items():
            cutting = [p for p in itertools.combinations(sorted(region), 2)
                       if region - set(p) in map(frozenset, connected_components(g.without(p)))]
            allowed = len(cutting) + sum(fired[p] for p in cutting)
            assert regions[region] <= allowed
            if cutting:  # RR3 and the blocker decompose regions that no pair cuts off
                assert calls <= allowed, sorted(region)

    def test_rr2_copies_no_subgraph(self):
        # the bound and every region are decomposed within G, not in a copy
        redundant = build_1_redundant(FLOWERS[0], {1, 2, 3})[0]
        inst, s_star = redundant.instance, redundant.s_star
        record = reducer._Record(inst.graph, s_star, inst.terminals)
        fired = 0
        with mock.patch.object(Graph, "induced", autospec=True, side_effect=Graph.induced) as sub, \
                mock.patch.object(reducer, "biconnected_blocks", wraps=reducer.biconnected_blocks) as spy:
            while (out := apply_rr2(inst, s_star, record)) is not None:
                inst, fired = out[0], fired + 1
        assert sub.call_count == 0 and fired >= 6 and spy.call_count > 1

    def test_index_keeps_no_component_of_a_rejected_pair(self):
        # on the pendant chain with three terminals and S* = {1}, G[S* + T]
        # is a star and binds no terminal, so RR2 reads every pair; each
        # pair's outer component holds a T-cycle through 1, and the index
        # keeps the pairs, asleep, and two terminals each sleeps on: no
        # component
        L = 60
        inst = pendant_chain(L, terminals=3)
        index = reducer._Record(inst.graph, frozenset({1}), inst.terminals)
        assert apply_rr2(inst, {1}, index) is None
        assert index.bound == [] and index.live == nested_cut_pairs(index.f) and len(index.live) > L
        assert index.asleep == set(index.live) and set(index.watch) <= inst.terminals
        assert sorted(p for ps in index.watch.values() for p in ps) == sorted(index.live * 2)

    def test_pendant_chain_decomposes_a_handful_of_regions(self):
        # the first outer region's block {1, L, L+1, L+2, L+3} lies in every
        # later pair's outer region and rejects it without a decomposition;
        # one decomposition per pair would be over 1 600 here
        L = 60
        inst = pendant_chain(L, terminals=3)
        index = reducer._Record(inst.graph, frozenset({1}), inst.terminals)
        with mock.patch.object(reducer, "biconnected_blocks", wraps=reducer.biconnected_blocks) as spy:
            assert apply_rr2(inst, {1}, index) is None
        assert len(index.live) > L and 1 <= spy.call_count <= 3
        assert frozenset({1, L}) | inst.terminals in index.witnesses

    def test_stale_witness_region_is_decomposed_again(self):
        # path 1-..-9 with terminals 3 and 5, a 5-cycle B = 5-10-11-12-13 at 5
        # with terminals 11 and 13, S* = {17} hanging off 12, and a 4-cycle
        # C = 7-14-15-16 at 7 with terminals 14 and 16. Pair (2, 6)
        # decomposes its region, which holds B and touches S*, and caches B;
        # pair (2, 8)'s region holds B and C and is rejected by B
        # undecomposed, and no region with C alone has three terminals. Once
        # 11 and 13 are gone B holds one terminal, and (2, 8)'s region must
        # be decomposed again: C rejects it. Once 14 is gone too, that region
        # is cycle-free and fires through the terminals 3 and 5.
        path, b_cycle, c_cycle = list(range(1, 10)), [5, 10, 11, 12, 13], [7, 14, 15, 16]
        edges = [(u, v) for cyc in (b_cycle, c_cycle) for u, v in zip(cyc, cyc[1:] + cyc[:1])]
        g = Graph(range(1, 18), list(zip(path, path[1:])) + edges + [(12, 17)])
        first = frozenset({2, 3, 4, 5, 6, 10, 11, 12, 13, 17})
        region = first | {7, 8, 14, 15, 16}
        s_star, T = frozenset({17}), frozenset({3, 5, 11, 13, 14, 16})
        index = reducer._Record(g, s_star, T)
        fired = []
        for T in (T, T - {11, 13}, T - {11, 13, 14}):
            while True:
                inst = Instance(g, T, 1)
                with mock.patch.object(reducer, "biconnected_blocks",
                                       wraps=reducer.biconnected_blocks) as spy:
                    shared = apply_rr2(inst, s_star, index)
                assert shared == rr2_reference(inst, s_star)
                regions = [decomposed(c) for c in spy.call_args_list]
                if T == {3, 5, 11, 13, 14, 16}:  # B is cached, (2, 8)'s region is not decomposed
                    # after the one decomposition of G[S* + T], whose edge 5-13 binds 5 and 13
                    assert regions == [s_star | T, first] and shared is None
                elif T == {3, 5, 14, 16}:  # B is stale, the region is decomposed and C rejects it
                    assert regions == [region] and shared is None
                if shared is None:
                    break
                inst, step = shared
                fired.append((step.x, step.y, step.t))
                T = inst.terminals
        assert fired == [(2, 8, 16)]

    @pytest.mark.parametrize("inst, s_hat", [(FLOWERS[0], {1, 2, 3}), (FLOWERS[2], {1, 2, 3}),
                                             (pendant_chain(120, terminals=3), {1})])
    def test_rr2_floods_once_per_tree_not_per_pair(self, inst, s_hat):
        # each pair's components are read off the block-cut forest of G - S*,
        # and only each tree's surroundings are flooded, once: RR2's calls in
        # a reduction look up fewer neighbours than one sweep of G per tree,
        # where a flood of G - {x, y} per pair read would sweep G per pair
        lookups, neighbors, inside, indexes = [], Graph.neighbors, [False], []

        def counted(h, v):
            if inside[0]:
                lookups.append(v)
            return neighbors(h, v)

        def rr2(inst, s_star, index):
            inside[0] = True
            indexes.append(index)
            try:
                return apply_rr2(inst, s_star, index)
            finally:
                inside[0] = False

        with mock.patch.object(Graph, "neighbors", counted), mock.patch.object(reducer, "apply_rr2", rr2), \
                mock.patch.object(reducer._Record, "read", autospec=True, side_effect=reducer._Record.read) as reads:
            reduce_terminals(inst, s_hat)
        index = indexes[-1]
        g, trees = index.graph, len(block_cut_forest(index.graph.without(index.s_star)).roots)
        assert len(index.trees) <= trees and len(lookups) <= (trees + 1) * g.n
        if s_hat == {1}:  # the chain's three terminals share a block of G[S* + T]: no D can fire
            assert reads.call_count == len(lookups) == 0
        else:
            assert len(lookups) < reads.call_count * (g.n - 2)

    def test_pendant_chain_with_three_bound_terminals_reads_no_pair(self):
        # S* holds 1 and L, and each terminal is joined to both: one block
        # of G[S* + T] holds all three, so every D holding a terminal holds
        # a T-cycle, and RR2 lists and reads no pair of the ~L²/2 there are
        inst = pendant_chain(400, terminals=3)
        with mock.patch.object(reducer, "nested_cut_pairs", wraps=reducer.nested_cut_pairs) as pairs, \
                mock.patch.object(reducer._Record, "read", autospec=True, side_effect=reducer._Record.read) as reads:
            reduced, log, feasible = reduce_terminals(inst, {1})
        assert feasible and reduced.terminals == inst.terminals and not log.steps
        assert pairs.call_count == reads.call_count == 0

    def test_pendant_chain_below_three_terminals_floods_nothing(self):
        # G - S* has about L cut vertices on one root-to-leaf path, but with
        # two terminals RR2 cannot fire, so it lists no pair and floods no
        # G - {x, y}; RR3 reads the trees of the one forest of G - S*
        inst = pendant_chain(1200)
        with mock.patch.object(reducer, "block_cut_forest", wraps=reducer.block_cut_forest) as forests, \
                mock.patch.object(reducer, "apply_rr3", wraps=reducer.apply_rr3) as rr3, \
                mock.patch.object(reducer, "nested_cut_pairs", wraps=reducer.nested_cut_pairs) as pairs:
            reduced, log, feasible = reduce_terminals(inst, {1})
        assert feasible and reduced.terminals == inst.terminals and not log.steps
        s_star = build_1_redundant(inst, {1})[0].s_star
        assert pairs.call_count == 0 and rr3.call_count >= 1
        regions = Counter(forest_vertices(c) for c in forests.call_args_list)
        assert regions.pop(frozenset(inst.graph.without(s_star).vertices)) == 1
        assert all(len(r - s_star) == 1 for r in regions)  # RR3's paths through a lone terminal


def reader_cases(seed: int, kind: str, s_kind: str):
    """A graph, terminals and S* for the record's reads: a flower, a block
    tree or a random graph, and S* empty, a few random non-terminals, or
    one vertex of each of several blocks, which touches several trees."""
    rng = random.Random(seed)
    if kind == "flower":
        petals = [(rng.choice(HUB_PAIRS), rng.randint(3, 9)) for _ in range(rng.randint(2, 4))]
        inst = flower(petals, rng.randint(1, 5))
        g, T = inst.graph, inst.terminals
    else:
        if kind == "block tree":
            g = random_block_tree(rng, rng.randint(3, 12))[0]
        else:
            g = random_graph(rng, rng.randint(5, 14), rng.choice([0.15, 0.25, 0.35]))
        T = frozenset(v for v in g.vertices if rng.random() < 0.45)
    if s_kind == "none":
        s_star = frozenset()
    elif s_kind == "random":
        s_star = frozenset(v for v in g.vertices if v not in T and rng.random() < 0.15)
    else:
        blocks = [b for b in biconnected_blocks(g) if len(b) > 1]
        s_star = frozenset(rng.choice(sorted(b)) for b in rng.sample(blocks, min(len(blocks), 3)))
    return g, T, s_star


class TestRecordReads:
    """The record's reads of the block-cut forest of G - S*, for RR2,
    against floods and decompositions of G itself."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.integers(0, 10**6), st.sampled_from(["flower", "block tree", "random"]),
           st.sampled_from(["none", "random", "several"]))
    # a block holding both x and y that falls apart without them, with and
    # without S* next to one of its parts
    @example(seed=25, kind="block tree", s_kind="none")
    @example(seed=25, kind="block tree", s_kind="several")
    @example(seed=5, kind="block tree", s_kind="random")
    @example(seed=806, kind="random", s_kind="none")
    def test_components_verdicts_and_paths_match_g(self, seed, kind, s_kind):
        g, T, s_star = reader_cases(seed, kind, s_kind)
        record = reducer._Record(g, s_star, T)
        blocks = biconnected_blocks(g.without(s_star))
        pairs = rr2_candidate_pairs(g, s_star)
        rng = random.Random(seed)
        for T in (T, frozenset(t for t in T if rng.random() < 0.6)):  # and once T has shrunk
            record.shrink(T)
            for x, y in pairs:
                if x in T or y in T:
                    continue  # RR2 asks for no such pair
                recs = record.read(x, y, 3)
                # F's blocks give a verdict for a D that misses S*, unless D
                # is one of the parts a block holding x and y falls into
                shared = [b for b in blocks if x in b and y in b]
                split = bool(shared) and len(connected_components(g.induced(shared[0] - {x, y}))) > 1
                want = [frozenset(c) for c in connected_components(g.without([x, y]))
                        if len(T.intersection(c)) >= 3
                        and g.neighbors(x).intersection(c) and g.neighbors(y).intersection(c)]
                assert [record.vertices(r) for r in recs] == want
                assert [r.least for r in recs] == [min(c) for c in want]
                for rec, comp in zip(recs, want):
                    assert record.count(rec.ranges, rec.sets) == len(T & comp)
                    assert all(record.holds(rec, v) == (v in comp) for v in g.vertices)
                    assert rec.plain == (s_star.isdisjoint(comp) and not split)
                    if not rec.plain:
                        continue
                    # every block of G[D + x + y] is one of G - S*, so RR2
                    # needs no decomposition of a plain D when those separate T
                    region = g.induced(comp | {x, y})
                    region_blocks = biconnected_blocks(region)
                    assert set(region_blocks) <= set(blocks)
                    if all(len(b & T) < 2 for b in region_blocks):
                        assert record.path_marked(x, y) == terminals_on_path(region, T & comp, x, y)

    def test_path_marked_matches_the_parent_walk(self):
        # RR2 logs the first two vertices of path_marked as `kept=`, so its
        # order from x is checked, not only its set
        rng = random.Random(27)
        chain = pendant_chain(60, 3)
        cases = [("flower", inst.graph, inst.terminals, frozenset({1, 2, 3})) for inst in FLOWERS]
        cases += [("flower", *shrinking_case(rng, "flower")) for _ in range(40)]
        # the chain's terminals hang off its end, off every x-y path; marking
        # every third path vertex as well puts marked vertices on the paths
        cases += [("chain", chain.graph, T, frozenset({1}))
                  for T in (chain.terminals, chain.terminals | set(range(3, 60, 3)))]
        plain = Counter()
        for kind, g, T, s_star in cases:
            record = reducer._Record(g, s_star, T)
            for marked in (T, frozenset(t for t in T if rng.random() < 0.7)):
                record.shrink(marked)
                separated = all(len(s & marked) < 2 for s in record.f.sets)
                for x, y in nested_cut_pairs(record.f):
                    if x in marked or y in marked:
                        continue
                    assert record.path_marked(x, y) == path_marked_walk(record, x, y)
                    assert record.path_marked(y, x) == path_marked_walk(record, y, x)
                    # the components whose x-y path RR2 reads off the forest
                    plain[kind] += separated and any(d.plain for d in record.read(x, y, 3))
        assert plain["flower"] > 0 and plain["chain"] > 0


def reference_lift(log: ReductionLog, solution) -> frozenset[int]:
    """lift_solution as first written: minimalize at every terminal-dropping
    step and check every stage."""
    stages = log.replay()
    final = stages[-1]
    cur = minimalize(final.graph, final.terminals, frozenset(solution))
    for step, before, after in zip(reversed(log.steps), reversed(stages[:-1]),
                                   reversed(stages[1:])):
        if isinstance(step, (DropNearlySeparated, DropUnmarked)):
            cur = minimalize(after.graph, after.terminals, cur)
        elif isinstance(step, DropComponentTerminal):
            if cur & step.component:
                cur = (cur - step.component) | {step.x}
        elif isinstance(step, EssentialVertex):
            cur = cur | {step.x}
        assert not (cur & before.terminals) and is_mwns(before.graph, before.terminals, cur)
    return cur


def small_solutions(inst: Instance, limit: int):
    """Up to `limit` near-separators of size <= k, smallest first; most are
    not inclusion-minimal."""
    pool = [v for v in inst.graph.vertices if v not in inst.terminals]
    sets = (frozenset(c) for r in range(inst.k + 1) for c in itertools.combinations(pool, r))
    return list(itertools.islice(
        (S for S in sets if is_mwns(inst.graph, inst.terminals, S)), limit))


class TestLiftAgainstPerStepReference:
    @settings(derandomize=True, max_examples=120, deadline=None, database=None)
    @given(small_instances(max_n=9))
    def test_rr1_and_pipeline_logs(self, inst):
        # a log of RR1 steps alone, and the full pipeline's
        fired = apply_rr1(inst)
        logs = [ReductionLog(inst, fired[1] if fired else ())]
        s_hat = frozenset(v for v in inst.graph.vertices if v not in inst.terminals)
        _, log, feasible = reduce_terminals(inst, s_hat)
        if feasible:
            logs.append(log)
        for log in logs:
            for S in small_solutions(log.reduced(), 8):
                assert lift_solution(log, S) == reference_lift(log, S)

    def test_flower_logs(self):
        # rr1 runs before and after rr2 substitutions, which undo minimality
        rr2 = 0
        for inst in FLOWERS:
            reduced, log, feasible = reduce_terminals(inst, frozenset({1, 2, 3}))
            assert feasible
            rr2 += sum(isinstance(s, DropComponentTerminal) for s in log.steps)
            for S in small_solutions(reduced, 40):
                assert lift_solution(log, S) == reference_lift(log, S)
        assert rr2

    def test_checks_decompose_each_stage_graph_and_solution_once(self):
        # a lift checks every stage; stages share a graph object until an
        # essential step, and the solution changes at a few steps only
        checks = decompositions = 0
        for inst in FLOWERS:
            reduced, log, _ = reduce_terminals(inst, frozenset({1, 2, 3}))
            for S in small_solutions(reduced, 10):
                with mock.patch.object(reducer, "biconnected_blocks",
                                       wraps=reducer.biconnected_blocks) as spy:
                    lifted = lift_solution(log, S)
                assert lifted == reference_lift(log, S)
                seen = Counter((id(c.args[0]), frozenset(c.kwargs["exclude"]))
                               for c in spy.call_args_list)
                assert max(seen.values()) == 1
                checks += len(log.steps) + 1
                decompositions += len(seen)
        assert decompositions * 2 < checks

    def test_solution_ids_outside_the_reduced_graph_are_named(self):
        log = ReductionLog(six_cycle_instance(k=2), ())
        with pytest.raises(ValueError, match=r"solution vertices \[99\] are not in the reduced graph"):
            lift_solution(log, {4, 99})

    def test_solution_ids_are_named_before_the_budget_is_checked(self):
        # three vertices exceed k = 1, but the unknown id is the first fault
        log = ReductionLog(six_cycle_instance(k=1), ())
        with pytest.raises(ValueError, match=r"solution vertices \[70\] are not in the reduced graph"):
            lift_solution(log, {2, 4, 70})

    def test_a_step_naming_a_vertex_outside_its_graph_fails_the_lift(self):
        # a hand-made rr2 step would substitute 99 for the solution's vertex
        # 4; the replay rejects the step before any stage is checked
        step = DropComponentTerminal(6, 99, 1, frozenset({4}), (3, 5))
        log = ReductionLog(six_cycle_instance(k=1), (step,))
        with pytest.raises(ValueError, match=r"'rr2 x=99 y=1 drop=6 kept=3,5 D=\{4\}' names vertices \[99\]"):
            lift_solution(log, {4})

    @pytest.mark.parametrize("line, message", [
        ("rr1 t=77", r"'rr1 t=77' names vertices \[77\] outside its graph"),
        ("rr1 t=2", r"'rr1 t=2' drops \[2\], which are not terminals"),
        ("rr3 drop={70,71}", r"'rr3 drop=\{70,71\}' names vertices \[70, 71\] outside its graph"),
        ("rr3 drop={3,4}", r"'rr3 drop=\{3,4\}' drops \[4\], which are not terminals"),
        ("rr2 x=2 y=6 drop=4 kept=3,5 D={3,4,5}", r"drops \[4\], which are not terminals"),
        ("essential x=3", r"'essential x=3' marks the terminal 3 essential"),
        ("essential x=9", r"'essential x=9' names vertices \[9\] outside its graph"),
    ])
    def test_a_step_no_reduction_could_write_fails_the_replay(self, line, message):
        # each of these used to lift {4} to {4} on the six-cycle without error
        log = ReductionLog(six_cycle_instance(k=1), tuple(parse_steps([line])))
        with pytest.raises(ValueError, match=message):
            log.replay()
        with pytest.raises(ValueError, match=message):
            lift_solution(log, {4})

    def test_rr1_after_a_substitution_minimalizes_again(self):
        # lifting {1, 2} back through the last rr2 step swaps hub 1 for 14,
        # and the rr1 step before it must drop the now redundant hub 2
        edges = [(1, 8), (1, 15), (1, 21), (2, 4), (2, 20), (3, 7), (3, 14), (4, 5),
                 (5, 6), (6, 7), (8, 9), (9, 10), (10, 11), (11, 12), (12, 13), (13, 14),
                 (14, 19), (15, 16), (16, 17), (17, 18), (18, 19), (19, 20), (21, 22)]
        inst = Instance.of(Graph(range(1, 23), edges), {5, 7, 9, 11, 13, 16, 18, 20, 22}, 3)
        _, log, _ = reduce_terminals(inst, frozenset({1, 2, 3}))
        assert [type(s) for s in log.steps] == [DropNearlySeparated] + [DropComponentTerminal] * 3
        assert lift_solution(log, frozenset({1, 2})) == reference_lift(log, {1, 2}) == {14}


class TestLogSerialization:
    def test_round_trip(self):
        steps = (
            EssentialVertex(4),
            DropNearlySeparated(7),
            DropComponentTerminal(5, 3, 9, frozenset({4, 5, 6, 7, 8}), (4, 6)),
            DropUnmarked(frozenset({2, 11})),
        )
        text = "\n".join(s.serialize() for s in steps)
        assert parse_steps(text.splitlines()) == list(steps)

    @settings(derandomize=True, max_examples=120, deadline=None, database=None)
    @given(small_instances(max_n=9))
    @example(Instance.of(Graph(range(1, 6), [(x, t) for x in (1, 2) for t in (3, 4, 5)]),
                         {3, 4, 5}, 0))
    def test_pipeline_log_round_trips_through_text(self, inst):
        # the text `mwns reduce --log` writes gives back the same steps, and
        # with the instance text they replay to the same reduced instance;
        # on K_{2,3} with k = 0, RR3 keeps k + 2 = 2 of the three terminals
        s_hat = frozenset(v for v in inst.graph.vertices if v not in inst.terminals)
        reduced, log, _ = reduce_terminals(inst, s_hat)
        steps = parse_steps(log.serialize().splitlines())
        assert steps == list(log.steps)
        original = parse_instance(format_instance(log.original))
        assert ReductionLog(original, tuple(steps)).reduced() == reduced

    def test_serialized_shapes(self):
        assert DropNearlySeparated(7).serialize() == "rr1 t=7"
        assert DropUnmarked(frozenset({2, 1})).serialize() == "rr3 drop={1,2}"
        assert EssentialVertex(3).serialize() == "essential x=3"
        s = DropComponentTerminal(5, 3, 9, frozenset({6, 4}), (4, 6)).serialize()
        assert s == "rr2 x=3 y=9 drop=5 kept=4,6 D={4,6}"

    @pytest.mark.parametrize("line, message", [
        ("rr1 x=3", "lacks the field t="),
        ("rr1 t=abc", "malformed field t=abc"),
        ("rr1 t=3,4", "malformed field t=3,4"),
        ("rr2 x=3 drop=5 kept=4,6 D={4,6}", "lacks the field y="),
        ("rr2 x=3 y=9 drop=5 D={4,6}", "lacks the field kept="),
        ("rr2 x=3 y=9 drop=5 kept=4 D={4,6}", "malformed field kept=4"),
        ("rr2 x=3 y=9 drop=5 kept=4,6,8 D={4,6}", "malformed field kept=4,6,8"),
        ("rr2 x=3 y=9 drop=5 kept=4,6 D={4,z}", "malformed field D={4,z}"),
        ("rr3 remove={1}", "lacks the field drop="),
        ("rr3 drop={1,,2}", "malformed field drop={1,,2}"),
        ("essential x=", "malformed field x="),
        ("essential x=+2", "malformed field x=+2"),
        ("rr1 t=1_0", "malformed field t=1_0"),
        ("rr3 drop={1,\u0662}", "malformed field drop={1,\u0662}"),
        ("rr1 t=3 t=4", "token 't=4', a repeated field"),
        ("rr1 t=3 junk", "token 'junk', not a field of rr1"),
        ("rr1 t=3 extra=9", "token 'extra=9', not a field of rr1"),
        ("rr2 x=3 y=9 drop=5 kept=4,6 D={4,6} x=3", "token 'x=3', a repeated field"),
        ("rr3 drop={1} t=2", "token 't=2', not a field of rr3"),
    ])
    def test_malformed_step_names_its_line_and_field(self, line, message):
        with pytest.raises(ValueError) as exc:
            parse_steps(["p mwns 1 0", "k 0", line])
        assert repr(line) in str(exc.value) and message in str(exc.value)

    def test_comments_and_directives_around_steps_parse(self):
        lines = ["# reduction log", "p mwns 9 0", "t 3", "k 1", "rr1 t=3  # first",
                 "", "rr2 D={4,6} kept=4,6 drop=5 y=9 x=3", "essential x=2"]
        assert parse_steps(lines) == [DropNearlySeparated(3),
                                      DropComponentTerminal(5, 3, 9, frozenset({4, 6}), (4, 6)),
                                      EssentialVertex(2)]
