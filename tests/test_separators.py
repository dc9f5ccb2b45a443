import itertools
import math
import random
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import mwns.separators as separators
from mwns.core import find_t_cycle
from mwns.graph import Graph, reachable
from mwns.separators import (
    INF,
    MultiTerminalBlockError,
    _SplitNet,
    _blossom_matching,
    enumerate_important_separators,
    gallai_q_paths,
    max_terminals_on_path,
    max_vertex_flow,
    min_cut,
    min_separator,
    path_through_forced_vertex,
    terminals_on_path,
)
from mwns.blockcut import biconnected_blocks

from brute import (
    all_simple_paths,
    furthest_min_cut,
    important_separators_brute,
    important_separators_closest_cut,
    is_important_by_flow,
    is_separator,
    max_q_path_packing_brute,
    random_graph,
    split_net_reference,
)


def smallest_separators(g, X, Y, pool):
    """Every minimum-size X-Y separator drawn from pool, by enumeration."""
    for r in range(len(pool) + 1):
        found = [frozenset(c) for c in itertools.combinations(pool, r)
                 if is_separator(g, X, Y, frozenset(c))]
        if found:
            return found
    return []


def assert_closest(g, X, Y, cut, minimum):
    """cut is a minimum separator whose reach from X lies inside the reach of
    every minimum separator: the unique one with the smallest source side."""
    assert cut in minimum
    reach = reachable(g, X - cut, cut)
    assert all(reach <= reachable(g, X - S, S) for S in minimum)


def q_path_exists(g, Q, removed):
    Q = frozenset(Q) - set(removed)
    for a, b in itertools.combinations(sorted(Q), 2):
        if all_simple_paths(g.without(removed), a, b):
            return True
    return False


class TestMaxVertexFlow:
    def test_single_route(self):
        g = Graph(range(1, 4), [(1, 2), (2, 3)])
        value, paths = max_vertex_flow(g, {1}, {3})
        assert value == 1
        assert paths == [[1, 2, 3]]

    def test_two_parallel_routes(self):
        g = Graph(range(1, 5), [(1, 2), (2, 4), (1, 3), (3, 4)])
        value, paths = max_vertex_flow(g, {1}, {4})
        assert value == 2
        assert len(paths) == 2

    def test_undeletable_vertices_make_it_infinite(self):
        g = Graph(range(1, 5), [(1, 2), (2, 4), (1, 3), (3, 4)])
        value, paths = max_vertex_flow(g, {1}, {4}, undeletable={2, 3})
        assert value is math.inf
        # brute force: no deletable subset separates
        assert not any(
            is_separator(g, {1}, {4}, frozenset(c))
            for r in range(3) for c in itertools.combinations([], r))

    def test_touching_endpoint_sets(self):
        g = Graph(range(1, 3), [(1, 2)])
        assert max_vertex_flow(g, {1}, {2})[0] is math.inf

    def test_value_matches_brute_min_separator(self):
        rng = random.Random(17)
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.5]))
            vs = list(g.vertices)
            X = frozenset(rng.sample(vs, rng.randint(1, 2)))
            rest = [v for v in vs if v not in X]
            if not rest:
                continue
            Y = frozenset(rng.sample(rest, rng.randint(1, min(2, len(rest)))))
            value, _ = max_vertex_flow(g, X, Y)
            deletable = [v for v in vs if v not in X | Y]
            best = next((r for r in range(len(deletable) + 1)
                         for c in itertools.combinations(deletable, r)
                         if is_separator(g, X, Y, frozenset(c))), None)
            assert value == (best if best is not None else math.inf)


class TestMinSeparator:
    def test_middle_of_a_path(self):
        g = Graph(range(1, 4), [(1, 2), (2, 3)])
        assert min_separator(g, {1}, {3}) == {2}

    def test_leftmost_tie_break(self):
        g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
        assert min_separator(g, {1}, {4}) == {2}

    def test_disconnected_sides_need_nothing(self):
        g = Graph(range(1, 5), [(1, 2), (3, 4)])
        assert min_separator(g, {1}, {3}) == set()

    def test_adjacent_sides_raise(self):
        g = Graph(range(1, 3), [(1, 2)])
        with pytest.raises(ValueError):
            min_separator(g, {1}, {2})

    def test_touching_protected_sides_have_no_cut(self):
        # an edge or a shared vertex carries the flow itself to INF
        g = Graph(range(1, 4), [(1, 2), (2, 3)])
        for X, Y in (({1}, {2}), ({2}, {2, 3}), ({1, 2}, {2})):
            X, Y = frozenset(X), frozenset(Y)
            for cut in (min_cut, furthest_min_cut):
                assert cut(g, X, Y, X | Y) == (math.inf, frozenset(), frozenset())

    def test_closest_minimum_with_protected_endpoints(self):
        rng = random.Random(43)
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.5]))
            vs = list(g.vertices)
            X = frozenset(rng.sample(vs, rng.randint(1, 2)))
            rest = [v for v in vs if v not in X]
            if not rest:
                continue
            Y = frozenset(rng.sample(rest, rng.randint(1, min(2, len(rest)))))
            V8 = frozenset(rng.sample(vs, rng.randint(0, 2))) - X - Y
            minimum = smallest_separators(g, X, Y, [v for v in vs if v not in X | Y | V8])
            if not minimum:
                with pytest.raises(ValueError):
                    min_separator(g, X, Y, V8)
                continue
            assert_closest(g, X, Y, frozenset(min_separator(g, X, Y, V8)),
                           minimum)

    def test_closest_minimum_with_deletable_endpoints(self):
        # the blocker's Z2: sources and sinks may overlap and may be cut
        rng = random.Random(47)
        for _ in range(150):
            g = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.5]))
            vs = list(g.vertices)
            X = frozenset(rng.sample(vs, rng.randint(1, min(3, len(vs)))))
            Y = frozenset(rng.sample(vs, rng.randint(1, min(3, len(vs)))))
            value, cut, _ = min_cut(g, X, Y)
            minimum = smallest_separators(g, X, Y, vs)
            assert value == len(cut) == len(minimum[0])
            assert_closest(g, X, Y, cut, minimum)
            # the furthest cut: its source side, components of G - cut away
            # from Y, holds the source side of every minimum cut
            value, cut, side = furthest_min_cut(g, X, Y)
            assert value == len(cut) and cut in minimum
            assert not side & (Y | cut) and reachable(g, side, cut) == side
            assert all(reachable(g, X - S, S) <= side for S in minimum)


    @pytest.mark.parametrize("args, foreign", [(({1, 99}, {5}), "[99]"),
                                               (({1}, {5}, {70}), "[70]"),
                                               (({1}, {5}, set(), {99, 70}), "[70, 99]")])
    def test_min_cut_names_ids_outside_the_graph(self, args, foreign):
        g = Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
        assert min_cut(g, frozenset({1}), frozenset({4}), frozenset({1, 4}))[0] == 2
        with pytest.raises(ValueError) as err:
            min_cut(g, *map(frozenset, args))
        assert f"vertices {foreign} of X, Y, protected or deleted are not in the graph" in str(err.value)


class TestImportantSeparators:
    def test_dominated_separator_is_dropped(self):
        g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
        out = enumerate_important_separators(g, {1}, {4}, 1)
        assert [sorted(s) for s in out] == [[3]]

    def test_zero_budget_connected(self):
        g = Graph(range(1, 4), [(1, 2), (2, 3)])
        out = enumerate_important_separators(g, {1}, {3}, 0)
        assert len(out) == 0

    def test_two_vertex_separator(self):
        g = Graph(range(1, 5), [(1, 2), (1, 3), (2, 4), (3, 4)])
        out = enumerate_important_separators(g, {1}, {4}, 2)
        assert [sorted(s) for s in out] == [[2, 3]]

    def test_matches_brute_force_and_4k_bound(self):
        rng = random.Random(23)
        for _ in range(120):
            g = random_graph(rng, rng.randint(2, 9), rng.choice([0.3, 0.5]))
            vs = list(g.vertices)
            X = frozenset(rng.sample(vs, rng.randint(1, 2)))
            rest = [v for v in vs if v not in X]
            if not rest:
                continue
            Y = frozenset(rng.sample(rest, rng.randint(1, min(2, len(rest)))))
            k = rng.randint(0, 4)
            got = set(enumerate_important_separators(g, X, Y, k))
            assert got == important_separators_brute(g, X, Y, frozenset(), k)
            assert len(got) <= 4 ** k


def layered_graph(rng, n: int):
    """The vertices 1..n cut into two or more runs of consecutive ids, the
    layers; each vertex joined to a random vertex of the layer before and of
    the layer after, and up to three more edges between each pair of
    consecutive layers. Returns the graph, its first layer and its last.
    Such graphs nest minimum cuts of several sizes."""
    cuts = sorted(rng.sample(range(2, n), min(n - 2, rng.randint(1, (n - 1) // 2))))
    layers = [list(range(a, b)) for a, b in zip([1] + cuts, cuts + [n + 1])]
    edges = set()
    for a, b in zip(layers, layers[1:]):
        edges |= {(rng.choice(a), v) for v in b} | {(u, rng.choice(b)) for u in a}
        edges |= {(rng.choice(a), rng.choice(b)) for _ in range(rng.randint(0, 3))}
    return Graph(range(1, n + 1), sorted(edges)), frozenset(layers[0]), frozenset(layers[-1])


@st.composite
def separator_queries(draw, max_n: int):
    """A graph on 4..max_n vertices, with one or two sources and one or two
    sinks: an edge-probability graph, sinks not adjacent to a source where
    the graph allows it, or a layered graph from its first layer to its
    last. Plus at most two more undeletable vertices and a budget of 0..3.
    All drawn from one seeded generator: hypothesis draws integers near
    their lower bound, and would leave most graphs at four vertices."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    n = rng.randint(4, max_n)
    if rng.random() < 0.5:
        g, X, Y = layered_graph(rng, n)
    else:
        g = random_graph(rng, n, rng.choice([0.2, 0.3, 0.45]))
        X = frozenset(rng.sample(range(1, n + 1), rng.randint(1, 2)))
        far = [v for v in g.vertices if v not in X and not g.neighbors(v) & X]
        far = far or [v for v in g.vertices if v not in X]
        Y = frozenset(rng.sample(far, min(rng.randint(1, 2), len(far))))
    others = [v for v in g.vertices if v not in X | Y]
    V8 = frozenset(rng.sample(others, min(rng.randint(0, 2), len(others))))
    return g, X, Y, V8, rng.randint(0, 3)


class TestImportantSeparatorProperties:
    @settings(derandomize=True, max_examples=600, deadline=None, database=None)
    @given(separator_queries(max_n=13))
    def test_matches_the_closest_cut_enumeration(self, case):
        g, X, Y, V8, k = case
        got = enumerate_important_separators(g, X, Y, k, V8)
        assert got == important_separators_closest_cut(g, X, Y, V8, k)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(separator_queries(max_n=9))
    def test_matches_brute_force(self, case):
        g, X, Y, V8, k = case
        got = enumerate_important_separators(g, X, Y, k, V8)
        assert set(got) == important_separators_brute(g, X, Y, V8, k)

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(separator_queries(max_n=9))
    def test_one_flow_importance_check_on_every_small_set(self, case):
        # the per-set reference for the enumeration's filter by domination,
        # on every deletable set of at most k vertices
        g, X, Y, V8, k = case
        want = important_separators_brute(g, X, Y, V8, k)
        deletable = [v for v in g.vertices if v not in X | Y | V8]
        for r in range(k + 1):
            for S in map(frozenset, itertools.combinations(deletable, r)):
                assert is_important_by_flow(_SplitNet(g), X, Y, Y | V8, S) == (S in want)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(separator_queries(max_n=13), st.integers(0, 2 ** 32))
    def test_absent_vertices_act_as_a_deleted_copy(self, case, seed):
        # marking D absent on one network of g answers as g - D does, for the
        # enumeration and for each importance check; D may hold undeletable
        # vertices, as a search node's absent set holds terminals
        g, X, Y, V8, k = case
        rng = random.Random(seed)
        others = [v for v in g.vertices if v not in X | Y]
        D = frozenset(rng.sample(others, rng.randint(0, len(others))))
        h = g.without(D)
        net = _SplitNet(g)
        got = enumerate_important_separators(g, X, Y, k, V8, D, net)
        assert got == enumerate_important_separators(h, X, Y, k, V8 - D)
        deletable = [v for v in h.vertices if v not in X | Y | V8]
        copy = _SplitNet(h)
        for r in range(k + 1):
            for S in map(frozenset, itertools.combinations(deletable, r)):
                assert (is_important_by_flow(net, X, Y, Y | V8, S, D)
                        == is_important_by_flow(copy, X, Y, Y | (V8 - D), S))

    def test_a_network_of_another_graph_is_rejected(self):
        g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
        h = g.without({4})
        assert enumerate_important_separators(h, {1}, {3}, 1, net=_SplitNet(h)) == (frozenset({2}),)
        with pytest.raises(ValueError, match="another graph"):
            enumerate_important_separators(h, {1}, {3}, 1, net=_SplitNet(g))

    @pytest.mark.parametrize("field", ["X", "Y", "undeletable", "deleted"])
    def test_ids_outside_the_graph_are_named(self, field):
        g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
        query = {"X": {1}, "Y": {4}, "undeletable": set(), "deleted": set()}
        query[field] = query[field] | {99}
        with pytest.raises(ValueError, match=r"vertices \[99\] of X, Y, undeletable or deleted"):
            enumerate_important_separators(g, query["X"], query["Y"], 1,
                                           query["undeletable"], query["deleted"])

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(separator_queries(max_n=13))
    def test_flow_count_is_bounded_by_k_not_n(self, case):
        # at most 4^k leaves, so at most 4^k - 1 branching nodes, each one
        # `augment` per child on the inherited flow, plus the root's `flow`,
        # which calls `augment` once
        g, X, Y, V8, k = case
        with mock.patch.object(separators._SplitNet, "augment", autospec=True,
                               side_effect=separators._SplitNet.augment) as spy:
            enumerate_important_separators(g, X, Y, k, V8)
        assert 0 < spy.call_count <= 2 * 4 ** k - 1

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(separator_queries(max_n=13), st.integers(0, 2 ** 32))
    def test_only_the_root_flow_starts_from_zero(self, case, seed):
        # the candidates are filtered among themselves, with no flow of their
        # own, so each enumeration runs one cold `flow`, also on a shared
        # network with absent vertices
        g, X, Y, V8, k = case
        others = [v for v in g.vertices if v not in X | Y]
        D = frozenset(random.Random(seed).sample(others, len(others) // 3))
        net = _SplitNet(g)
        for deleted in (frozenset(), D):
            with mock.patch.object(separators._SplitNet, "flow", autospec=True,
                                   side_effect=separators._SplitNet.flow) as spy:
                enumerate_important_separators(g, X, Y, k, V8, deleted, net)
            assert spy.call_count == 1


def checked_flow(net, X, Y, protected, gone):
    """The value of the flow in `net`, once it is checked to be a flow of the
    query (X, Y, `protected`, `gone`): every arc pair holds the capacity a
    cold `flow` of the query gives it, no arc carries a negative flow, and
    every node but 0 and 1 passes on all it takes in."""
    cold = _SplitNet(net.graph)
    cold.flow(X, Y, protected | X, gone, stop=0)  # the query's capacities, no flow
    cap, head = net.cap, net.head
    excess = [0] * len(net.adj)
    for e in range(0, len(cap), 2):
        assert min(cap[e], cap[e ^ 1]) >= 0 and cap[e] + cap[e ^ 1] == cold.cap[e]
        excess[head[e]] += cap[e ^ 1]
        excess[head[e ^ 1]] -= cap[e ^ 1]
    assert not any(excess[2:])
    return excess[1]


class TestWarmStartedBranching:
    """The enumeration's branching on the furthest minimum cut, replayed on
    one network with each child's inherited flow checked against the child's
    own query."""

    @staticmethod
    def replay(g, X, Y, V8, k):
        net, protected = _SplitNet(g), Y | V8
        found = set()

        def node(X, gone, budget, value):
            assert checked_flow(net, X, Y, protected, gone) == value
            assert value == _SplitNet(g).flow(X, Y, protected | X, gone, budget + 1)
            if value > budget:
                return
            if value == 0:
                found.add(gone)
                return
            cut, side = net.cut(gone, furthest=True)
            v = min(cut)
            saved = net.cap[:]
            net.cancel(v)
            # the inherited λ - 1 is maximum, so the enumeration augments no further
            assert checked_flow(net, X, Y, protected, gone | {v}) == value - 1
            assert net.augment() == 0
            node(X, gone | {v}, budget - 1, value - 1)
            net.cap = saved
            net.widen(side | {v})
            node(X | side | {v}, gone, budget, value + net.augment(budget + 1 - value))

        node(X, frozenset(), k, net.flow(X, Y, protected | X, frozenset(), k + 1))
        return found

    @settings(derandomize=True, max_examples=400, deadline=None, database=None)
    @given(separator_queries(max_n=13))
    def test_every_child_inherits_a_flow_of_its_own_query(self, case):
        # a delete child's flow is maximum at λ - 1; a push child's augments
        # to the value of a cold flow on its query, stopped at budget + 1;
        # and the replayed candidates hold every separator enumerated
        g, X, Y, V8, k = case
        found = self.replay(g, X, Y, V8, k)
        assert set(enumerate_important_separators(g, X, Y, k, V8)) <= found

    @pytest.mark.parametrize("edges, dropped", [
        # {2, 4, 6} is inclusion-minimal, but {4, 5, 6} is no larger and its
        # reach {1, 2, 3} strictly holds {1, 3}
        ([(1, 2), (1, 3), (2, 5), (2, 6), (3, 4), (3, 6), (4, 8), (5, 7), (6, 7), (6, 8)],
         {2, 4, 6}),
        # {2, 4, 5, 6} holds the separator {4, 5, 6}, which reaches further
        ([(1, 2), (1, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 7), (4, 8),
          (5, 7), (5, 8), (6, 8)], {2, 4, 5, 6}),
    ])
    def test_a_candidate_that_is_not_important_is_dropped(self, edges, dropped):
        # a delete branch only promises a separator important in G - v; the
        # filter finds its dominator among the other candidates
        g, X, Y, k = Graph(range(1, 9), edges), frozenset({1}), frozenset({7, 8}), 4
        found = self.replay(g, X, Y, frozenset(), k)
        got = enumerate_important_separators(g, X, Y, k)
        assert found - set(got) == {frozenset(dropped)}
        assert got == (frozenset({2, 3}), frozenset({4, 5, 6}))
        assert set(got) == important_separators_brute(g, X, Y, frozenset(), k)
        for S in found:
            assert is_important_by_flow(_SplitNet(g), X, Y, Y, S) == (S in got)

    def test_a_cancel_without_flow_raises_even_without_asserts(self, monkeypatch):
        # the cancel walk's dead end is a raise, not an assert, so it survives
        # python -O; a cut naming the pendant 2, which carries no flow, is one
        g = Graph(range(1, 5), [(1, 2), (1, 3), (3, 4)])
        monkeypatch.setattr(_SplitNet, "cut", lambda net, gone, furthest=False:
                            (frozenset({2}), frozenset({1})))
        with pytest.raises(RuntimeError, match="cancelling the unit through 2"):
            enumerate_important_separators(g, {1}, {4}, 1)


@st.composite
def flow_queries(draw):
    """A graph on 1..12 ids drawn from 1..40, so sparse, often with isolated
    vertices, and a query on it: sources, sinks, protected and deleted sets
    of at most two vertices each, drawn independently so they may overlap,
    and a `stop` value."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ids = sorted(rng.sample(range(1, 41), rng.randint(1, 12)))
    p = rng.choice([0.15, 0.3, 0.5])
    g = Graph(ids, [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:] if rng.random() < p])
    X, Y, P, D = (frozenset(rng.sample(ids, rng.randint(0, min(2, len(ids))))) for _ in range(4))
    return g, X, Y, P, D, rng.choice([0, 1, 2, 3, INF])


class NonNegativeNet(_SplitNet):
    """A network that checks, after each change to its flow, that no
    capacity is negative, and counts the checks."""

    checks = 0

    def check(self) -> None:
        assert min(self.cap) >= 0
        self.checks += 1

    def augment(self, limit=INF):
        value = super().augment(limit)
        self.check()
        return value

    def widen(self, sources):
        super().widen(sources)
        self.check()

    def cancel(self, v):
        super().cancel(v)
        self.check()


class TestEngineAgainstReference:
    """The split network's build, `augment` and `cut` against
    `split_net_reference`, a plain copy of them: every array, flow, cut and
    unit path is the same, so the searches scan arcs in the same order."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(flow_queries())
    def test_same_network_flow_cuts_and_paths(self, case):
        g, X, Y, P, D, stop = case
        net, ref = _SplitNet(g), split_net_reference(g)
        for field in ("head", "adj", "base", "through", "index"):
            assert getattr(net, field) == getattr(ref, field), field
        value = net.flow(X, Y, P, D, stop)
        assert value == ref.flow(X, Y, P, D, stop)
        assert net.cap == ref.cap
        for furthest in (False, True):
            assert net.cut(D, furthest) == ref.cut(D, furthest)
        if value < INF:  # an uncapacitated route carries INF units, too many to walk
            assert net.paths() == ref.paths()

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(separator_queries(max_n=13))
    def test_no_capacity_goes_negative_along_an_enumeration(self, case):
        # the BFS reads `if cap[e]` for `cap[e] > 0`, which only this keeps true
        g, X, Y, V8, k = case
        net = NonNegativeNet(g)
        enumerate_important_separators(g, X, Y, k, V8, net=net)
        assert net.checks > 0

    def test_flow_callers_return_the_reference_witnesses(self, monkeypatch):
        # these callers read the flow itself, not only its cuts, so a changed
        # BFS order would show in their cycles and paths
        rng = random.Random(41)
        queries = []
        for _ in range(300):
            g = random_graph(rng, rng.randint(3, 12), rng.choice([0.25, 0.4, 0.6]))
            vs = list(g.vertices)
            T = rng.sample(vs, rng.randint(2, min(4, len(vs))))
            X, Y = rng.sample(vs, 2)
            t, *rest = rng.sample(vs, 3)
            queries.append((g, T, X, Y, t, rest))

        def witnesses():
            return [(find_t_cycle(g, T), max_vertex_flow(g, {X}, {Y}),
                     path_through_forced_vertex(g, rest[:1], rest[1:], t))
                    for g, T, X, Y, t, rest in queries]

        got = witnesses()
        monkeypatch.setattr(separators, "_SplitNet", split_net_reference)
        assert got == witnesses()
        assert sum(cycle is not None and len(cycle) > 3 for cycle, _, _ in got) > 50
        assert sum(1 < value < math.inf for _, (value, _), _ in got) > 50
        assert sum(path is not None for _, _, path in got) > 100


class TestForcedVertexPath:
    def test_direct_chain(self):
        g = Graph(range(1, 4), [(1, 2), (2, 3)])
        assert path_through_forced_vertex(g, {1}, {3}, 2) == [1, 2, 3]

    def test_star_needs_two_distinct_leaves(self):
        g = Graph(range(1, 5), [(4, 1), (4, 2), (4, 3)])
        assert path_through_forced_vertex(g, {1}, {1}, 4) is None
        assert path_through_forced_vertex(g, {1}, {2}, 4) == [1, 4, 2]

    def test_forced_vertex_in_endpoint_set_rejected(self):
        g = Graph(range(1, 4), [(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            path_through_forced_vertex(g, {2}, {3}, 2)

    def test_agrees_with_path_enumeration(self):
        rng = random.Random(29)
        for _ in range(120):
            g = random_graph(rng, rng.randint(2, 8), rng.choice([0.3, 0.5]))
            vs = list(g.vertices)
            t = rng.choice(vs)
            rest = [v for v in vs if v != t]
            if not rest:
                continue
            A = frozenset(rng.sample(rest, rng.randint(1, min(3, len(rest)))))
            B = frozenset(rng.sample(rest, rng.randint(1, min(3, len(rest)))))
            got = path_through_forced_vertex(g, A, B, t)
            exists = any(t in p
                         for a in sorted(A) for b in sorted(B) if a != b
                         for p in all_simple_paths(g, a, b))
            assert (got is not None) == exists
            if got is not None:
                assert got[0] in A and got[-1] in B and t in got
                assert len(set(got)) == len(got)
                assert all(g.has_edge(u, v) for u, v in zip(got, got[1:]))


class TestMaxTerminalsOnPath:
    def test_two_endpoint_terminals(self):
        g = Graph(range(1, 4), [(1, 2), (2, 3)])
        assert max_terminals_on_path(g, {1, 3}, 1, 3) == 2

    def test_four_cycle_detour_through_terminal(self):
        # a=1, u=2, b=3, t=4 on a cycle; the best 1-3 route goes via 4
        g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert max_terminals_on_path(g, {4}, 1, 3) == 1

    def test_chained_blocks_three_terminals(self):
        # triangles 1-2-3, 3-4-5, 5-6-7 with interior terminals 2, 4, 6
        g = Graph(range(1, 8), [(1, 2), (2, 3), (1, 3),
                                (3, 4), (4, 5), (3, 5),
                                (5, 6), (6, 7), (5, 7)])
        assert max_terminals_on_path(g, {2, 4, 6}, 1, 7) == 3

    def test_same_endpoint(self):
        g = Graph(range(1, 3), [(1, 2)])
        assert max_terminals_on_path(g, set(), 1, 1) == 0
        assert max_terminals_on_path(g, {1}, 1, 1) == 1

    def test_multi_terminal_block_is_rejected(self):
        g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4), (4, 1)])
        with pytest.raises(MultiTerminalBlockError):
            max_terminals_on_path(g, {2, 4}, 1, 3)

    def test_agrees_with_exhaustive_enumeration(self):
        rng = random.Random(37)
        checked = 0
        while checked < 60:
            g = random_graph(rng, rng.randint(2, 10), rng.choice([0.25, 0.4]))
            T = frozenset(rng.sample(list(g.vertices), rng.randint(0, g.n)))
            if any(len(b & T) > 1 for b in biconnected_blocks(g)):
                continue
            a = rng.choice(list(g.vertices))
            others = sorted(reachable(g, [a]) - {a})
            if not others:
                continue
            b = rng.choice(others)
            checked += 1
            want = max(len(set(p) & T) for p in all_simple_paths(g, a, b))
            assert max_terminals_on_path(g, T, a, b) == want


@st.composite
def graph_terminals_and_ends(draw, max_n: int):
    """A graph on 2..max_n vertices, terminals at most one per block (drawn
    in a random order, each kept only if its blocks hold no terminal yet),
    and two path ends, possibly equal or in different components."""
    n = draw(st.integers(2, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    g = Graph(range(1, n + 1), sorted(draw(st.sets(st.sampled_from(pairs), max_size=2 * n))))
    blocks = biconnected_blocks(g)
    T: set[int] = set()
    for v in draw(st.permutations(range(1, n + 1)))[:draw(st.integers(0, n))]:
        if not any(v in b and b & T for b in blocks):
            T.add(v)
    return g, frozenset(T), draw(st.integers(1, n)), draw(st.integers(1, n))


class TestTerminalsOnPath:
    def test_order_along_a_block_chain(self):
        # triangle 1-2-3, bridges 3-4 and 4-5, triangle 5-6-7; terminals 2
        # and 6 inside the triangles, 4 the cut vertex between the bridges
        g = Graph(range(1, 8), [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5),
                                (5, 6), (6, 7), (5, 7)])
        assert terminals_on_path(g, {2, 4, 6}, 1, 7) == [2, 4, 6]
        assert terminals_on_path(g, {2, 4, 6}, 7, 1) == [6, 4, 2]

    def test_different_components(self):
        g = Graph(range(1, 5), [(1, 2), (3, 4)])
        assert terminals_on_path(g, {2, 4}, 1, 3) is None
        with pytest.raises(ValueError):
            max_terminals_on_path(g, {2, 4}, 1, 3)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(graph_terminals_and_ends(max_n=9))
    def test_matches_path_enumeration(self, case):
        g, T, a, b = case
        found = terminals_on_path(g, T, a, b)
        paths = all_simple_paths(g, a, b)
        if found is None:
            assert not paths
            return
        assert len(found) == max(len(set(p) & T) for p in paths)
        assert any([v for v in p if v in found] == found for p in paths)


class TestGallaiQPaths:
    def test_single_path(self):
        g = Graph(range(1, 4), [(1, 2), (2, 3)])
        packing, cover = gallai_q_paths(g, {1, 3})
        assert packing == [[1, 2, 3]]
        assert len(cover) <= 2
        assert not q_path_exists(g, {1, 3}, cover)

    def test_triangle_with_all_vertices_in_q(self):
        g = Graph(range(1, 4), [(1, 2), (2, 3), (1, 3)])
        packing, cover = gallai_q_paths(g, {1, 2, 3})
        assert len(packing) == 1
        assert len(cover) <= 2
        assert not q_path_exists(g, {1, 2, 3}, cover)

    def test_tiny_q(self):
        g = Graph(range(1, 4), [(1, 2), (2, 3)])
        assert gallai_q_paths(g, set()) == ([], set())
        assert gallai_q_paths(g, {2}) == ([], set())

    def test_cover_check_raises_even_without_asserts(self, monkeypatch):
        # the closing checks are a raise, not an assert, so they survive
        # python -O; a Q-path test that always finds a path keeps the whole
        # cover, and the closing check then rejects it
        import mwns.separators as separators_mod

        monkeypatch.setattr(separators_mod, "_has_q_path", lambda g, Q, removed=(): True)
        with pytest.raises(RuntimeError, match="not a hitting set"):
            gallai_q_paths(Graph(range(1, 4), [(1, 2), (2, 3)]), {1, 3})

    def test_star_cover_uses_the_center(self):
        g = Graph(range(1, 6), [(5, 1), (5, 2), (5, 3), (5, 4)])
        packing, cover = gallai_q_paths(g, {1, 2, 3, 4})
        assert len(packing) == 1
        assert cover == {5}

    def test_packing_and_cover_match_brute_force(self):
        rng = random.Random(41)
        for _ in range(120):
            g = random_graph(rng, rng.randint(2, 9), rng.choice([0.25, 0.4, 0.6]))
            Q = frozenset(rng.sample(list(g.vertices), rng.randint(0, g.n)))
            packing, cover = gallai_q_paths(g, Q)
            assert len(packing) == max_q_path_packing_brute(g, Q)
            assert len(cover) <= 2 * len(packing)
            assert not q_path_exists(g, Q, cover)
            used = set()
            for path in packing:
                assert path[0] in Q and path[-1] in Q and path[0] != path[-1]
                assert not (set(path) & used)
                used |= set(path)
                assert all(g.has_edge(u, v) for u, v in zip(path, path[1:]))

    def test_disjoint_gadgets_need_no_search(self):
        # per copy, edges 1-4 2-3 2-5 2-6 4-5 4-6 with every vertex in Q: two
        # disjoint Q-paths, and {2, 4} meets them all; with eight copies a
        # search over vertex subsets for the cover would not finish
        m = 8
        edges = [(6 * c + a, 6 * c + b) for c in range(m)
                 for a, b in ((1, 4), (2, 3), (2, 5), (2, 6), (4, 5), (4, 6))]
        g = Graph(range(1, 6 * m + 1), edges)
        packing, cover = gallai_q_paths(g, g.vertices)
        assert len(packing) == 2 * m
        assert len(cover) <= 4 * m
        assert not q_path_exists(g, g.vertices, cover)


def matching_size(adj):
    H = nx.Graph()
    H.add_nodes_from(range(len(adj)))
    H.add_edges_from((i, j) for i, ns in enumerate(adj) for j in ns)
    return len(nx.max_weight_matching(H, maxcardinality=True))


def check_blossom_matching(adj):
    mate, D = _blossom_matching(adj)
    for i, j in enumerate(mate):
        assert j == -1 or (j in adj[i] and mate[j] == i)
    mu = matching_size(adj)
    assert sum(j != -1 for j in mate) == 2 * mu
    # Gallai-Edmonds: D holds the nodes some maximum matching leaves exposed
    brute = {v for v in range(len(adj))
             if matching_size([[j for j in ns if j != v] if i != v else []
                               for i, ns in enumerate(adj)]) == mu}
    assert D == brute
    return mate, D


def adjacency(g):
    return [[w - 1 for w in sorted(g.neighbors(v))] for v in g.vertices]


class TestBlossomMatching:
    def test_two_triangles_joined_by_an_edge(self):
        g = Graph(range(1, 7), [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6)])
        assert check_blossom_matching(adjacency(g))[1] == set()

    def test_five_cycle_with_a_pendant_path(self):
        g = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (5, 6), (6, 7)])
        check_blossom_matching(adjacency(g))

    def test_perfect_only_through_a_shrunk_cycle(self):
        # stem 8-6-1 into the 5-cycle 1..5 and pendant 7 at 2; the search
        # from 5 shrinks the cycle before it finds its augmenting path
        g = Graph(range(1, 9), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (6, 1), (2, 7), (8, 6)])
        mate, D = check_blossom_matching(adjacency(g))
        assert -1 not in mate and D == set()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.integers(1, 12), st.sampled_from([0.15, 0.3, 0.5, 0.75]), st.integers(0, 2 ** 32))
    def test_matches_networkx_and_the_exposable_nodes(self, n, p, seed):
        check_blossom_matching(adjacency(random_graph(random.Random(seed), n, p)))
