import itertools
import random

import pytest

from mwns.graph import Graph
from mwns.core import Instance, is_mwns, terminals_independent
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
    parse_steps,
    reduce_terminals,
)
from mwns.solver import oracle_solve

from brute import random_graph


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
        newinst, step = out
        assert step == DropNearlySeparated(7)
        assert newinst.terminals == frozenset({3, 5})

    def test_terminals_on_common_cycle_stay(self):
        assert apply_rr1(six_cycle_instance()) is None

    def test_terminal_behind_one_cut_vertex_removed(self):
        # terminal 5 reaches the cycle only through cut vertex 4
        g = Graph(range(1, 6), [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)])
        inst = Instance.of(g, {1, 2, 5}, 1)
        # terminals 1, 2 are adjacent on the triangle: RR1 looks at near-separation only
        out = apply_rr1(inst)
        assert out is not None and out[1].t == 5

    def test_smallest_id_fires_first(self):
        g = Graph(range(1, 4), [])
        inst = Instance.of(g, {1, 2, 3}, 0)
        assert apply_rr1(inst)[1].t == 1


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

    def test_two_terminals_not_enough(self):
        inst = chain_of_triangles(3, terminals=(2, 4))
        assert apply_rr2(inst, frozenset()) is None

    def test_component_touching_one_side_is_skipped(self):
        # on the path 1-..-9 with terminals 5, 7, 9, the component {5..9} of
        # G-{2,4} touches only 4, so no 2-4 path runs through it; this used
        # to raise "endpoints lie in different components"
        g = Graph(range(1, 10), [(v, v + 1) for v in range(1, 9)])
        assert apply_rr2(Instance.of(g, {5, 7, 9}, 1), []) is None


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
        _, step = apply_rr1(inst)
        assert step == DropNearlySeparated(7)
        log = ReductionLog(inst, (step,))
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

    def test_serialized_shapes(self):
        assert DropNearlySeparated(7).serialize() == "rr1 t=7"
        assert DropUnmarked(frozenset({2, 1})).serialize() == "rr3 drop={1,2}"
        assert EssentialVertex(3).serialize() == "essential x=3"
        s = DropComponentTerminal(5, 3, 9, frozenset({6, 4}), (4, 6)).serialize()
        assert s == "rr2 x=3 y=9 drop=5 kept=4,6 D={4,6}"
