import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mwns.graph import Graph, reachable
from mwns.blockcut import biconnected_blocks
from mwns.core import (
    Instance,
    SolveResult,
    crowded_kernel,
    find_t_cycle,
    has_two_ivd_paths,
    is_mwns,
    nearly_separated_terminals,
    terminals_independent,
)
from mwns.separators import max_vertex_flow
from mwns.witness import find_separable_leaf_terminal

from brute import (
    blocks_brute,
    mwns_condition1,
    mwns_condition2,
    mwns_condition3,
    random_graph,
    two_ivd_paths_exist,
)


def six_cycle():
    # x=1, a=2, t1=3, b=4, t2=5, c=6
    return Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])


class TestIsMwns:
    def test_adjacent_terminals_never_separated(self):
        g = Graph(range(1, 4), [(1, 2), (2, 3), (1, 3)])
        assert not is_mwns(g, {1, 2}, set())

    def test_six_cycle_single_deletion(self):
        assert is_mwns(six_cycle(), {3, 5}, {2})
        assert not is_mwns(six_cycle(), {3, 5}, set())

    def test_few_terminals_always_separated(self):
        g = Graph(range(1, 6), [(1, 2), (2, 3), (3, 1), (3, 4)])
        assert is_mwns(g, {2}, set())
        assert is_mwns(g, set(), set())

    def test_rejects_terminal_deletion(self):
        with pytest.raises(ValueError):
            is_mwns(six_cycle(), {3, 5}, {3})

    def test_rejects_deletion_ids_outside_the_graph(self):
        # {4} alone breaks the six-cycle, so only the unknown 99 is wrong
        with pytest.raises(ValueError, match=r"\[99\] are not in the graph"):
            is_mwns(six_cycle(), {3, 5}, {4, 99})

    def test_terminal_independence_names_ids_outside_the_graph(self):
        assert terminals_independent(six_cycle(), {3, 5}) and not terminals_independent(six_cycle(), {3, 4})
        with pytest.raises(ValueError, match=r"terminals \[70, 99\] are not in the graph"):
            terminals_independent(six_cycle(), {3, 99, 70})

    def test_agrees_with_all_three_characterizations(self):
        rng = random.Random(61)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 9), rng.choice([0.25, 0.4]))
            T = frozenset(rng.sample(list(g.vertices), rng.randint(0, g.n)))
            pool = [v for v in g.vertices if v not in T]
            S = frozenset(rng.sample(pool, rng.randint(0, min(2, len(pool)))))
            got = is_mwns(g, T, S)
            assert got == mwns_condition1(g, T, S)
            assert got == mwns_condition3(g, T, S)
            # condition 2 needs a non-terminal to exist somewhere
            if set(g.vertices) - T:
                assert got == mwns_condition2(g, T, S)


class TestFindTCycle:
    def test_six_cycle_is_its_own_witness(self):
        cycle = find_t_cycle(six_cycle(), {3, 5})
        assert cycle is not None and len(cycle) >= 3
        assert len(set(cycle) & {3, 5}) == 2
        closed = cycle + [cycle[0]]
        assert all(six_cycle().has_edge(a, b) for a, b in zip(closed, closed[1:]))

    def test_tree_has_none(self):
        g = Graph(range(1, 6), [(1, 2), (2, 3), (2, 4), (4, 5)])
        assert find_t_cycle(g, {1, 3, 5}) is None

    def test_two_terminals_in_a_clique(self):
        g = Graph(range(1, 5), [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
        cycle = find_t_cycle(g, {1, 2})
        assert cycle is not None and len(cycle) >= 3
        assert {1, 2} <= set(cycle)

    def test_degenerate_terminal_edge_witness(self):
        g = Graph(range(1, 3), [(1, 2)])
        assert find_t_cycle(g, {1, 2}) == [1, 2]

    def test_none_iff_empty_set_is_separator_for_independent_terminals(self):
        rng = random.Random(67)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 8), 0.3)
            T = frozenset(rng.sample(list(g.vertices), rng.randint(0, g.n)))
            if any(g.has_edge(a, b) for a in T for b in T if a < b):
                continue
            assert (find_t_cycle(g, T) is None) == is_mwns(g, T, set())

    def test_short_flow_raises_even_without_asserts(self, monkeypatch):
        # the two-route check is a raise, not an assert, so under python -O a
        # broken flow cannot fall through to an IndexError on the second path
        import mwns.core as core_mod

        monkeypatch.setattr(core_mod, "max_vertex_flow", lambda *query: (1, [[3, 4, 5]]))
        with pytest.raises(RuntimeError, match="two disjoint routes"):
            find_t_cycle(six_cycle(), {3, 5})


class TestHasTwoIvdPaths:
    def test_direct_edge_counts(self):
        g = Graph(range(1, 3), [(1, 2)])
        assert has_two_ivd_paths(g, 1, 2)

    def test_single_internal_route(self):
        g = Graph(range(1, 4), [(1, 2), (2, 3)])
        assert not has_two_ivd_paths(g, 1, 3)

    def test_cycle_gives_two_routes(self):
        g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert has_two_ivd_paths(g, 1, 3)

    def test_equal_vertices_rejected(self):
        with pytest.raises(ValueError):
            has_two_ivd_paths(six_cycle(), 3, 3)


class TestNearlySeparated:
    def test_isolated_terminals(self):
        g = Graph(range(1, 4), [])
        assert nearly_separated_terminals(g, {1, 2, 3}) == {1, 2, 3}

    def test_terminals_on_a_common_cycle(self):
        assert nearly_separated_terminals(six_cycle(), {3, 5}) == set()

    def test_singleton_is_vacuously_separated(self):
        assert nearly_separated_terminals(six_cycle(), {3}) == {3}


@st.composite
def graph_and_terminals(draw, max_n: int):
    """A sparse-to-moderate graph on 2..max_n vertices and a terminal set."""
    n = draw(st.integers(2, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n))
    T = draw(st.sets(st.integers(1, n), min_size=2))
    return Graph(range(1, n + 1), sorted(edges)), frozenset(T)


def flow_two_ivd_paths(g: Graph, t1: int, t2: int) -> bool:
    return g.has_edge(t1, t2) or max_vertex_flow(g, {t1}, {t2})[0] >= 2


def check_against(reference, g: Graph, T: frozenset[int]) -> None:
    for t1, t2 in itertools.combinations(sorted(T), 2):
        assert has_two_ivd_paths(g, t1, t2) == reference(g, t1, t2)
    lonely = {t for t in T if not any(reference(g, t, u) for u in T - {t})}
    assert nearly_separated_terminals(g, T) == lonely


class TestBlockLookupProperties:
    """The block lookups against path enumeration and against vertex flows."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(graph_and_terminals(max_n=8))
    def test_match_path_enumeration(self, case):
        check_against(two_ivd_paths_exist, *case)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(graph_and_terminals(max_n=14))
    def test_match_vertex_flows(self, case):
        check_against(flow_two_ivd_paths, *case)


class TestCrowdedKernel:
    """U, the union of the blocks holding two or more terminals, against the
    brute-force blocks, and S solves (G, T) iff S & U solves (G[U], T & U)."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(graph_and_terminals(max_n=8))
    def test_matches_brute_blocks_and_keeps_every_solution(self, case):
        g, T = case
        U = crowded_kernel(biconnected_blocks(g), T)
        assert U == set().union(*(b for b in blocks_brute(g) if len(b & T) >= 2))
        sub = g.induced(U)
        pool = [v for v in g.vertices if v not in T]
        for r in range(len(pool) + 1):
            for S in itertools.combinations(pool, r):
                assert mwns_condition3(g, T, S) == mwns_condition3(sub, T & U, U.intersection(S))


class TestSeparableLeafTerminal:
    def test_path_between_terminals(self):
        # 4-cycle t1-a-t2-s; deleting s leaves the path t1-a-t2
        g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4), (4, 1)])
        t, v = find_separable_leaf_terminal(g, {1, 3}, {4})
        assert t in {1, 3} and v == 2
        assert 3 not in reachable(g, [1], {4, v})

    def test_terminal_already_isolated_by_s(self):
        g = Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3)])
        # terminal 1 is cut off by S={2}; terminals 4, 6 stay in the cycle part
        t, v = find_separable_leaf_terminal(g, {1, 4, 6}, {2, 5})
        assert t == 1 and v in {2, 5}

    def test_star_of_terminals(self):
        g = Graph(range(1, 5), [(4, 1), (4, 2), (4, 3)])
        t, v = find_separable_leaf_terminal(g, {1, 2, 3}, set())
        assert v == 4 and t in {1, 2, 3}

    def test_contract_always_holds(self):
        rng = random.Random(71)
        checked = 0
        while checked < 60:
            g = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.45]))
            T = frozenset(rng.sample(list(g.vertices), rng.randint(2, g.n)))
            pool = [v for v in g.vertices if v not in T]
            S = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
            if not is_mwns(g, T, S):
                continue
            try:
                t, v = find_separable_leaf_terminal(g, T, S)
            except ValueError:
                continue
            checked += 1
            assert v not in T
            assert not (reachable(g, [t], S | {v}) & (T - {t}))


class TestInstanceAndResult:
    def test_instance_validation(self):
        g = Graph(range(1, 4), [(1, 2)])
        with pytest.raises(ValueError):
            Instance.of(g, {9}, 1)
        with pytest.raises(ValueError):
            Instance.of(g, {1}, -1)

    def test_triviality(self):
        assert Instance.of(six_cycle(), {3, 5}, 1).is_trivial() is False
        assert Instance.of(six_cycle(), {3}, 0).is_trivial() is True

    def test_result_repr(self):
        assert repr(SolveResult.yes({2, 1})) == "YES([1, 2])"
        assert repr(SolveResult.no()) == "NO"
