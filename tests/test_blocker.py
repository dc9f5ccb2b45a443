import math
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mwns.graph import Graph, connected_components
from mwns.blockcut import biconnected_blocks, block_cut_forest, node_label
from mwns.core import has_t_cycle, is_mwns
import mwns.blockcut as blockcut_mod
import mwns.blocker as blocker_mod
from mwns.blocker import _block_children, _grandchildren, _routes, blocker_run
from mwns.gen import pivot_instance
from mwns.separators import max_terminals_on_path
from mwns.solver import oracle_opt_x

import brute
from brute import (blocker_run_reference, chorded_block_tree, decomposed, fresh_step, has_t_cycle_brute,
                   random_block_tree, routes_reference)


def six_cycle():
    return Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])


def pivot_suite(count, seed, max_n=14):
    """Instances (g, T, x) with {x} a near-separator and a T-cycle through x."""
    rng = random.Random(seed)
    out = []
    attempt = 0
    while len(out) < count:
        attempt += 1
        inst, x = pivot_instance(rng.randint(4, max_n), rng.choice([0.2, 0.35, 0.5]),
                                 rng.randint(2, 5), rng.randint(0, 10**9))
        g, T = inst.graph, inst.terminals
        if len(T) >= 2:
            out.append((g, T, x))
    return out


def block_tree_pivot(rng, n_blocks):
    """An instance (g, T, x): a glued triangle/square/edge tree of n_blocks
    blocks, terminals one per block and pairwise non-adjacent, and a pivot x
    joined to a random subset; None with fewer than two terminals or joins."""
    h, x = random_block_tree(rng, n_blocks)
    blocks = biconnected_blocks(h)
    T: set[int] = set()
    for v in rng.sample(list(h.vertices), h.n):
        if len(T) < 5 and not any(v in b and b & T for b in blocks) and not h.neighbors(v) & T:
            T.add(v)
    attach = [v for v in h.vertices if rng.random() < 0.45]
    if len(T) < 2 or len(attach) < 2:
        return None
    return Graph(list(h.vertices) + [x], h.edges() + [(x, v) for v in attach]), T, x


def block_tree_suite(count, seed):
    """`count` instances of `block_tree_pivot` of 2 to 8 blocks each."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if (inst := block_tree_pivot(rng, rng.randint(2, 8))) is not None:
            out.append(inst)
    return out


@st.composite
def block_tree_pivots(draw):
    """A `block_tree_pivot` instance of 2 to 12 blocks, drawn from one seeded generator."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    while (inst := block_tree_pivot(rng, rng.randint(2, 12))) is None:
        pass
    return inst


def subtree_reach(g, T, x, f, nid):
    """Reference for reach: the most terminals on a path inside G[subtree of nid]
    from its top vertex (a cut node's own vertex, a block's parent cut vertex)
    to a neighbor of x, by a fresh forest of that subgraph per neighbor; -1 if
    none. A block's route leaves the block, so it does not end at its top."""
    top = nid if f.cutv[nid] is not None else f.parent[nid]
    if top is None:
        return -1
    sub, c = f.subtree_vertices(nid), f.cutv[top]
    return max((max_terminals_on_path(g.induced(sub), T & sub, c, p)
                for p in g.neighbors(x) & sub if p != c or top == nid), default=-1)


def node_of(f, label):
    """The id of the node of forest f with this label; labels are unique in a forest."""
    return next(nid for nid, (s, c) in enumerate(zip(f.sets, f.cutv)) if node_label(s, c) == label)


def blocker_run_on_given_blocks(g, T, x):
    """`blocker_run` handed the blocks of g - x, as `build_1_redundant` hands them."""
    return blocker_run(g, T, x, biconnected_blocks(g, exclude=[x]))


def routes(g, T, x):
    """The forest of G - x and `_routes`' reach on it."""
    f = block_cut_forest(g.without([x]))
    return f, _routes(g, frozenset(T), x, f)[0]


class TestRoutesAgainstClosures:
    """One bottom-up pass over the block-cut forest of G-x against induced
    subtree closures, checked at every blocker step."""

    @pytest.mark.sweep
    def test_every_step_matches_the_closure_oracle(self):
        hand_made = [
            (Graph(range(1, 10), [(2, 3), (3, 4), (4, 5), (5, 6), (3, 7), (7, 8), (8, 9), (1, 6), (1, 9)]),
             {5, 8}, 1),
            (Graph(range(1, 10), [(2, 3), (3, 4), (4, 5), (5, 6), (3, 7), (7, 8), (8, 9), (1, 6), (1, 9)]),
             {3, 5, 8}, 1),
            (Graph(range(1, 12), [(2, 3), (3, 4), (4, 5), (5, 2), (2, 6), (6, 11), (11, 7), (7, 8),
                                  (4, 9), (9, 10), (1, 8), (1, 10)]), {6, 7}, 1),
        ]
        cases = []
        for g, T, x in hand_made + pivot_suite(60, seed=83, max_n=12) + block_tree_suite(60, seed=31337):
            T = frozenset(T)
            cur = g
            for it in blocker_run(g, T, x).iterations:
                # a step finds something exactly while a T-cycle is left
                assert fresh_step(cur, T, x, it.index) == it and has_t_cycle_brute(cur, T)
                f, reach = routes(cur, T, x)
                closures = {nid: cur.induced(f.subtree_vertices(nid) | {x}) for nid in range(len(f.sets))}
                cyclic = [n for n, c in closures.items() if has_t_cycle_brute(c, T)]
                d = node_of(f, it.d_label)
                assert d == max(cyclic, key=lambda n: (f.depth[n], -n))
                closure = set(closures[d].vertices)
                assert is_mwns(closures[d], T & closure, it.removed & closure)
                assert reach == [subtree_reach(cur, T, x, f, nid) for nid in range(len(f.sets))]
                cur = cur.without(it.removed)
                cases.append(it.case)
            assert fresh_step(cur, T, x, 0) is None and not has_t_cycle_brute(cur, T)
        assert len(cases) >= 90 and set(cases) == {"a", "b", "c"}


def test_in_place_fold_matches_the_listed_ends_on_every_forest():
    # every forest a run reads, on chorded block trees, pivot instances and
    # glued block trees: the same reach, deepest meeting node and met trees
    rng = random.Random(2024)
    cases = [chorded_block_tree(rng, rng.randint(5, 60), rng.choice([0.05, 0.1, 0.3])) for _ in range(30)]
    cases += pivot_suite(40, seed=5) + block_tree_suite(40, seed=6)
    seen = []

    def checked(g, T, x, f):
        got = _routes(g, T, x, f)
        assert got == routes_reference(g, T, x, f)
        seen.append(got[1] is not None)
        return got

    with mock.patch.object(blocker_mod, "_routes", side_effect=checked):
        for g, T, x in cases:
            blocker_run(g, T, x)
    assert len(seen) > 2 * len(cases) and 0 < seen.count(False) < len(seen)


class TestClassification:
    """The classes case (b) and case (c) read off `_routes`' reach."""

    def test_no_grandchildren(self):
        # G-x is the path 2-3-4: cut vertex 3 has two block children and no
        # grandchildren
        g = Graph(range(1, 5), [(1, 4), (2, 3), (3, 4)])
        f, reach = routes(g, set(), 1)
        assert _grandchildren(f, frozenset(), reach, 3) == frozenset()

    def test_grandchild_with_terminal_on_route(self):
        # chain 2-3-4-5-6 rooted at block {2,3}: cut 3 has grandchild cut 4,
        # and the route 4-5-6 to x's neighbor 6 carries terminal 5
        g = Graph(range(1, 8), [(7, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 7)])
        T = frozenset({5})
        f, reach = routes(g, T, 1)
        assert _grandchildren(f, T, reach, 3) == frozenset({4})

    def test_grandchild_without_terminal(self):
        g = Graph(range(1, 8), [(7, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 7)])
        f, reach = routes(g, set(), 1)
        assert reach[f.cut_nodes[4]] == 0  # grandchild 4 routes to x, but with no terminal
        assert _grandchildren(f, frozenset(), reach, 3) == frozenset()

    def test_terminal_grandchild_of_a_terminal_raises(self):
        # the edge 3-4 joins two terminals, so {1} is no near-separator and
        # terminal 3's grandchild 4 is a terminal; a raise survives python -O
        g = Graph(range(1, 8), [(7, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 7)])
        f, reach = routes(g, {3, 4}, 1)
        with pytest.raises(RuntimeError, match=r"terminal cut vertex 3 has terminal grandchildren \[4\]"):
            _grandchildren(f, frozenset({3, 4}), reach, 3)

    def test_block_children_partition(self):
        # triangle block {2,3,4} with three hanging chains; x=1 reaches the
        # chain below 4 through terminal 5, the chain below 3 terminal-free,
        # and never reaches the chain below 2
        g = Graph(range(1, 13), [
            (2, 3), (2, 4), (3, 4),
            (4, 5), (5, 12),
            (3, 6), (6, 7),
            (2, 8), (8, 9),
            (1, 12), (1, 7), (1, 10),
            (10, 11),
        ])
        T = frozenset({5})
        f, reach = routes(g, T, 1)
        ge2, one, zero = _block_children(f, T, reach, node_of(f, "{2,3,4}"))
        assert ge2 == frozenset()
        assert one == {4}
        assert zero == {3}  # 2, with no route to x's neighbours, is in no class

    def test_block_children_two_terminal_route(self):
        # the chain below cut 4 carries two terminals before reaching N(x)
        g = Graph(range(1, 9), [
            (2, 3), (2, 4), (3, 4),
            (4, 5), (5, 6), (6, 7), (7, 8),
            (1, 8), (1, 3),
        ])
        T = frozenset({5, 7})
        f, reach = routes(g, T, 1)
        ge2, one, zero = _block_children(f, T, reach, node_of(f, "{2,3,4}"))
        # 4 is the only cut child: 2 and 3 lost their outside attachment with x
        assert (ge2, one, zero) == ({4}, frozenset(), frozenset())


class TestBlockerStep:
    def test_no_cycle_returns_empty(self):
        g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
        run = blocker_run(g, {2, 4}, 1)
        assert run.iterations == () and run.result == frozenset()

    def test_six_cycle_step_hits_every_cycle(self):
        z = blocker_run(six_cycle(), {3, 5}, 1).iterations[0].removed
        assert z and is_mwns(six_cycle(), {3, 5}, z)
        assert not z & {1, 3, 5}

    def test_case_a_non_terminal_cut_vertex(self):
        # r=2 - d=3 - two arms (4-5-6) and (7-8-9) with terminals 5, 8,
        # x=1 adjacent to both arm ends
        g = Graph(range(1, 10), [(2, 3), (3, 4), (4, 5), (5, 6),
                                 (3, 7), (7, 8), (8, 9), (1, 6), (1, 9)])
        T = {5, 8}
        run = blocker_run(g, T, 1)
        assert run.iterations[0].case == "a"
        assert run.iterations[0].removed == frozenset({3})
        assert run.result == frozenset({3})

    def test_case_b_terminal_cut_vertex(self):
        # same chains but the merge vertex is itself a terminal
        g = Graph(range(1, 10), [(2, 3), (3, 4), (4, 5), (5, 6),
                                 (3, 7), (7, 8), (8, 9), (1, 6), (1, 9)])
        T = {3, 5, 8}
        run = blocker_run(g, T, 1)
        first = run.iterations[0]
        assert first.case == "b"
        assert first.removed and not first.removed & set(T)

    def test_case_c_separator_part_fires(self):
        # square block {2,3,4,5}; cut 2 hangs a two-terminal chain to x's
        # neighborhood, cut 4 a terminal-free one: the only mixed cycles cross
        # the block and are cut by the separator part Z2
        g = Graph(range(1, 12), [
            (2, 3), (3, 4), (4, 5), (5, 2),
            (2, 6), (6, 11), (11, 7), (7, 8),
            (4, 9), (9, 10),
            (1, 8), (1, 10),
        ])
        T = {6, 7}
        run = blocker_run(g, T, 1)
        first = run.iterations[0]
        assert first.case == "c"
        z1, z2, z3, z4, z5 = first.z_parts
        assert z2 == frozenset({2})  # the source-side cut vertex is itself deletable
        assert z1 == z3 == z4 == frozenset()
        assert is_mwns(g, T, run.result)

    def test_rejects_invalid_pivot(self):
        g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4), (4, 1), (2, 4)])
        with pytest.raises(ValueError):
            blocker_run(g, {2, 4}, 1)  # G-1 still has the T-cycle 2-3-4

    @pytest.mark.parametrize("run", [blocker_run, blocker_run_on_given_blocks])
    def test_the_pivot_check_reads_the_first_forest(self, run):
        # {x} is checked on the first iteration's forest of G-x, not on a
        # decomposition of its own; `is_mwns` is left to the result
        g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4), (4, 1), (2, 4)])
        with mock.patch.object(blocker_mod, "block_cut_forest", wraps=block_cut_forest) as forests, \
                mock.patch.object(blocker_mod, "is_mwns", wraps=is_mwns) as checks:
            with pytest.raises(ValueError) as exc:
                run(g, {2, 4}, 1)
        assert str(exc.value) == ("{1} is not a multiway near-separator; "
                                  "offending cycle in G-x: [2, 3, 4]")
        assert (forests.call_count, checks.call_count) == (1, 0)

    def test_a_run_decomposes_g_minus_x_once_and_then_only_hit_blocks(self):
        # one full decomposition of G-x per run; after that, each iteration
        # decomposes only the remnants B - Z of the blocks B its Z hits
        for g, T, x in pivot_suite(12, seed=7) + block_tree_suite(12, seed=11):
            sizes = []  # vertices decomposed, per biconnected_blocks call

            def counted(h, exclude=(), within=None):
                sizes.append(len(set(h.vertices if within is None else within) - set(exclude)))
                return biconnected_blocks(h, exclude, within)

            with mock.patch.object(blocker_mod, "block_cut_forest", wraps=block_cut_forest) as forests, \
                    mock.patch.object(blocker_mod, "biconnected_blocks", side_effect=counted) as full, \
                    mock.patch.object(blockcut_mod, "biconnected_blocks", side_effect=counted), \
                    mock.patch.object(blocker_mod, "is_mwns", wraps=is_mwns) as checks:
                run = blocker_run(g, T, x)
            assert full.call_args_list == [mock.call(g, exclude=[x])]
            assert sizes[0] == g.n - 1
            assert forests.call_count == len(run.iterations) + 1
            assert checks.call_count == 1  # the result's check
            cur, hit = g, 0
            for it in run.iterations:
                hit += sum(len(b) for b in biconnected_blocks(cur, [x]) if b & it.removed)
                cur = cur.without(it.removed)
            assert sum(sizes[1:]) <= hit

    def test_a_run_drops_the_trees_that_cannot_meet(self):
        # pivot 1 closes the T-cycles of three paths 5..9, 10..14, 15..19;
        # the paths 2-3-4 and 20-21-22 carry one terminal or none, so their
        # trees never meet, and no forest after the first holds them
        edges = [(1, 2), (2, 3), (3, 4), (20, 21), (21, 22), (1, 22)]
        T = {3}
        for a in (5, 10, 15):
            edges += [(1, a), (a, a + 1), (a + 1, a + 2), (a + 2, a + 3), (a + 3, a + 4), (1, a + 4)]
            T |= {a + 1, a + 3}
        g, T, dead = Graph(range(1, 23), edges), frozenset(T), {2, 3, 4, 20, 21, 22}
        with mock.patch.object(blocker_mod, "block_cut_forest", wraps=block_cut_forest) as forests:
            run = blocker_run(g, T, 1)
        cur = g
        for it in run.iterations:
            assert fresh_step(cur, T, 1, it.index) == it
            cur = cur.without(it.removed)
        assert [it.d_label for it in run.iterations] == ["{5,6}", "{10,11}", "{15,16}"]
        assert forests.call_count == 4
        assert not [b for c in forests.call_args_list[1:] for b in c.args[1] if b & dead]

    def test_a_run_matches_fresh_steps_on_unions_of_block_trees(self):
        # 2-4 block trees, vertex ids shuffled across them, share one pivot:
        # trees that never meet get dropped below and above the live ones
        rng = random.Random(2024)
        runs = dropped = 0
        while runs < 150:
            edges, n = [], 0
            for _ in range(rng.randint(2, 4)):
                h, nxt = random_block_tree(rng, rng.randint(1, 6))
                edges += [(u + n, v + n) for u, v in h.edges()]
                n += nxt - 1
            label = dict(zip(range(1, n + 1), rng.sample(range(2, n + 2), n)))
            h = Graph(range(2, n + 2), [(label[u], label[v]) for u, v in edges])
            blocks = biconnected_blocks(h)
            T = set()
            for v in rng.sample(list(h.vertices), h.n):
                if len(T) < 8 and not any(v in b and b & T for b in blocks) and not h.neighbors(v) & T:
                    T.add(v)
            g = Graph(range(1, n + 2), h.edges() + [(1, v) for v in h.vertices if rng.random() < 0.4])
            T = frozenset(T)
            with mock.patch.object(blocker_mod, "block_cut_forest", wraps=block_cut_forest) as forests:
                run = blocker_run(g, T, 1)
            cur = g
            for it, call in zip(run.iterations, forests.call_args_list):
                assert fresh_step(cur, T, 1, it.index) == it
                # the forest this iteration read left some vertex of H out
                dropped += sum(map(len, call.args[1])) < sum(map(len, biconnected_blocks(cur, [1])))
                cur = cur.without(it.removed)
            assert fresh_step(cur, T, 1, 0) is None
            runs += 1
        assert dropped > 50

    def test_a_run_copies_no_graph_larger_than_a_block(self):
        # every step reads the one G; only case c copies, within one block
        for g, T, x in pivot_suite(12, seed=7) + block_tree_suite(12, seed=11):
            largest = max(len(b) for b in biconnected_blocks(g, [x]))
            with mock.patch.object(Graph, "without", autospec=True, side_effect=Graph.without) as cut, \
                    mock.patch.object(Graph, "induced", autospec=True, side_effect=Graph.induced) as sub:
                blocker_run(g, T, x)
            assert cut.call_count == 0
            assert all(len(set(c.args[1])) <= largest for c in sub.call_args_list)

    def test_case_c_z3_matches_the_component_picks(self):
        # Z3 floods d_t - Z1 - Z2 from t's neighbours once; the reference
        # lists its components and keeps the Q-vertices of those next to t.
        # In the first step of hand_made, Z1 = {15, 16} leaves the Q-vertex 6
        # in a component of d_t that misses t = 13's neighbours, so Z3 is empty
        edges = [(1, 6), (1, 7), (1, 8), (1, 10), (1, 12), (1, 13), (1, 16), (1, 17), (1, 18),
                 (1, 19), (2, 15), (2, 16), (3, 18), (4, 20), (5, 9), (5, 14), (6, 11), (6, 14),
                 (6, 16), (7, 11), (8, 10), (9, 10), (10, 16), (10, 19), (12, 13), (13, 15),
                 (13, 16), (14, 15), (14, 19), (15, 18), (16, 17), (16, 19)]
        hand_made = (Graph(range(1, 21), edges), {7, 13, 17, 18}, 1)
        picked = 0
        for g, T, x in [hand_made] + pivot_suite(60, seed=3) + block_tree_suite(60, seed=5):
            T, cur = frozenset(T), g
            for it in blocker_run(g, T, x).iterations:
                if it.case == "c":
                    f = block_cut_forest(cur.without([x]))
                    d = node_of(f, it.d_label)
                    block = f.sets[d]
                    q = {f.cutv[c] for c in f.children[d]
                         if f.cutv[c] not in T and subtree_reach(cur, T, x, f, c) >= 1}
                    d_t = cur.induced(block - T)
                    hit = it.z_parts[0] | it.z_parts[1]
                    want: set[int] = set()
                    for t in block & T:
                        for comp in connected_components(d_t.without(hit)):
                            if cur.neighbors(t) & set(comp):
                                in_q = set(comp) & q
                                assert len(in_q) <= 1
                                want |= in_q
                    assert it.z_parts[2] == want
                    picked += len(want)
                cur = cur.without(it.removed)
        assert picked > 0

    @pytest.mark.parametrize("run", [blocker_run, blocker_run_on_given_blocks])
    def test_rejects_terminals_outside_the_graph(self, run):
        with pytest.raises(ValueError, match=r"terminals \[99\] are not vertices"):
            run(six_cycle(), {3, 5, 99}, 1)


def counted_nodes(module, name):
    """A patch of module.`name`, a forest builder, that records the node count of each forest it builds."""
    built = []
    make = getattr(module, name)

    def counted(*args, **kwargs):
        f = make(*args, **kwargs)
        built.append(len(f.sets))
        return f

    return mock.patch.object(module, name, side_effect=counted), built


class TestAgainstTheCarryAllReference:
    """`blocker_run` leaves out the blocks that a deleted cut vertex cuts off
    below d; `blocker_run_reference` carries every block of a tree that
    meets. Both must give the same result and iterations."""

    def test_the_suites_match_and_the_skip_builds_fewer_nodes(self):
        # in hand_made, the triangles 3-4-5 and 3-6-7 below the cut vertex 3
        # both meet; the first iteration's d is the first, and its Z5 = {3}
        # lies above d, so the second triangle must still be carried
        edges = [(2, 3), (3, 4), (4, 5), (3, 5), (3, 6), (6, 7), (3, 7)]
        for c, t in ((4, 8), (5, 10), (6, 12), (7, 14)):
            edges += [(c, t), (t, t + 1), (1, t + 1)]
        hand_made = (Graph(range(1, 16), edges), {8, 10, 12, 14}, 1)
        patch_run, run_nodes = counted_nodes(blocker_mod, "block_cut_forest")
        patch_ref, ref_nodes = counted_nodes(brute, "block_cut_forest")
        with patch_run, patch_ref:
            for g, T, x in [hand_made] + pivot_suite(80, seed=13) + block_tree_suite(80, seed=17):
                assert blocker_run(g, T, x) == blocker_run_reference(g, T, x)
        assert sum(run_nodes) < sum(ref_nodes)

    @given(block_tree_pivots())
    @settings(max_examples=150, deadline=None)
    def test_block_tree_pivots_match(self, inst):
        g, T, x = inst
        assert blocker_run(g, T, x) == blocker_run_reference(g, T, x)


class TestBelowDSkip:
    """The blocks below a cut node in d's subtree whose vertex Z deletes are
    neither assembled into the next forest nor decomposed again."""

    @staticmethod
    def cut_off(g, T, x, it):
        """The vertices below the cut nodes in d's subtree, on the forest of
        G - x, whose vertices iteration `it` deletes; less Z."""
        f = block_cut_forest(g, biconnected_blocks(g, exclude=[x]))
        d = node_of(f, it.d_label)
        below = set()
        for v in it.removed & f.cut_nodes.keys():
            if d <= (c := f.cut_nodes[v]) < f.subtree_end[d]:
                below |= f.subtree_vertices(c)
        return below - it.removed

    def spied_run(self, g, T, x):
        """The run, the block lists of the forests it built, and the vertex
        sets `blocks_without` decomposed."""
        with mock.patch.object(blocker_mod, "block_cut_forest", wraps=block_cut_forest) as forests, \
                mock.patch.object(blockcut_mod, "biconnected_blocks", wraps=biconnected_blocks) as parts:
            run = blocker_run(g, T, x)
        assert run == blocker_run_reference(g, T, x)
        return run, [c.args[1] for c in forests.call_args_list], [decomposed(c) for c in parts.call_args_list]

    def test_case_a_drops_the_blocks_below_d(self):
        # the non-terminal cut vertex 3 joins the paths 3-4-5 and 3-6-7, each
        # with one terminal and ending next to pivot 1: d is 3's cut node,
        # four blocks hang below it, and Z = {3} cuts them all off
        g = Graph(range(1, 8), [(2, 3), (3, 4), (4, 5), (3, 6), (6, 7), (1, 5), (1, 7)])
        T = frozenset({4, 6})
        run, forests, parts = self.spied_run(g, T, 1)
        it = run.iterations[0]
        assert (it.case, it.d_label, it.removed) == ("a", "3", {3})
        f = block_cut_forest(g, biconnected_blocks(g, exclude=[1]))
        assert len(f.children[f.cut_nodes[3]]) == 2
        below = self.cut_off(g, T, 1, it)
        assert below == {4, 5, 6, 7}
        assert len(forests) == 2 and forests[1] == [frozenset({2})]
        assert not [s for s in parts if s & below]

    def test_case_c_drops_the_blocks_below_a_child_cut_vertex_in_z1(self):
        # the triangle 2-3-4 routes one terminal down from each of its child
        # cut vertices 3 and 4; Z1 cuts the Q-path 3-4 at one of them, and
        # what hangs below that one is dropped
        g = Graph(range(1, 9), [(2, 3), (3, 4), (2, 4), (3, 5), (5, 6), (4, 7), (7, 8), (1, 6), (1, 8)])
        T = frozenset({5, 7})
        run, forests, parts = self.spied_run(g, T, 1)
        it = run.iterations[0]
        assert (it.case, it.d_label) == ("c", "{2,3,4}")
        assert it.z_parts[0] & {3, 4}
        below = self.cut_off(g, T, 1, it)
        assert below and below <= {5, 6, 7, 8}
        assert len(forests) == 2 and not [b for b in forests[1] if b & below]
        assert not [s for s in parts if s & below]

    def test_no_later_forest_holds_a_cut_off_block_on_the_suites(self):
        cut = 0
        for g, T, x in pivot_suite(40, seed=19) + block_tree_suite(40, seed=23):
            run, forests, parts = self.spied_run(g, T, x)
            cur = g
            for it, blocks in zip(run.iterations, forests[1:]):
                below = self.cut_off(cur, T, x, it)
                assert not [b for b in blocks if b & below]
                cut += len(below)
                cur = cur.without(it.removed)
        assert cut > 0


class TestBlockerContract:
    def test_trivial_instance(self):
        g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
        assert blocker_run(g, {2, 4}, 1).result == set()

    def test_invalid_result_raises_even_without_asserts(self, monkeypatch):
        # the final check is a raise, not an assert, so it survives python -O;
        # a step that finds nothing leaves the six-cycle's T-cycle in place
        import mwns.blocker as blocker_mod

        monkeypatch.setattr(blocker_mod, "_read_forest", lambda g, T, x, index, f: (None, set(), None))
        with pytest.raises(RuntimeError, match="not a near-separator"):
            blocker_run(six_cycle(), {3, 5}, 1)

    def test_empty_iteration_raises_even_without_asserts(self, monkeypatch):
        # a step that removes nothing would rerun on the same graph forever;
        # the progress check is a raise, so it survives python -O too
        import mwns.blocker as blocker_mod

        empty = blocker_mod.BlockerIteration(0, "b0", "c", (), frozenset())
        monkeypatch.setattr(blocker_mod, "_read_forest", lambda g, T, x, index, f: (empty, set(), 0))
        with pytest.raises(RuntimeError, match="removes \\[\\]"):
            blocker_run(six_cycle(), {3, 5}, 1)

    def test_six_cycle_within_factor(self):
        s = blocker_run(six_cycle(), {3, 5}, 1).result
        assert is_mwns(six_cycle(), {3, 5}, s)
        assert len(s) <= 14 * oracle_opt_x(six_cycle(), {3, 5}, 1)

    def test_pendant_chain_deeper_than_the_recursion_limit(self):
        # path 2..L, pivot 1 joined to 2, L+1 and L+2, terminals L+1 and L+2
        # joined to L: the block-cut forest is about 2L levels deep, and the
        # run's second forest comes from the remnant of the hit block {L, L+1, L+2}
        for L in (500, 3000):
            edges = [(v, v + 1) for v in range(2, L)]
            edges += [(1, 2), (1, L + 1), (1, L + 2), (L, L + 1), (L, L + 2)]
            g = Graph(range(1, L + 3), edges)
            assert blocker_run(g, {L + 1, L + 2}, 1).result == {L}

    def test_contract_raises_under_python_O(self):
        # the two stubbed steps above, run in an interpreter that drops asserts
        script = textwrap.dedent('''
            import mwns.blocker as b
            from mwns.graph import Graph
            c6 = Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
            empty = b.BlockerIteration(0, "b0", "c", (), frozenset())
            for step, message in ((lambda g, T, x, index, f: (None, set(), None), "not a near-separator"),
                                  (lambda g, T, x, index, f: (empty, set(), 0), "removes []")):
                b._read_forest = step
                try:
                    b.blocker_run(c6, {3, 5}, 1)
                except RuntimeError as e:
                    print(message in str(e))
                else:
                    print("returned")
        ''')
        src = str(Path(blocker_mod.__file__).parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["True", "True"]

    def test_randomized_ratio_and_validity(self):
        for g, T, x in pivot_suite(60, seed=83, max_n=12):
            run = blocker_run(g, T, x)
            s = run.result
            assert is_mwns(g, T, s) and x not in s and not (s & T)
            opt = oracle_opt_x(g, T, x)
            if opt == 0:
                assert s == frozenset()
            else:
                assert len(s) <= 14 * opt

    def test_per_iteration_opt_drop(self):
        for g, T, x in pivot_suite(40, seed=89, max_n=12):
            run = blocker_run(g, T, x)
            cur = g
            for it in run.iterations:
                before = oracle_opt_x(cur, T, x)
                nxt = cur.without(it.removed)
                after = oracle_opt_x(nxt, T, x)
                assert before - after >= math.ceil(len(it.removed) / 14)
                cur = nxt

    def test_deepest_node_choice_is_maximal(self):
        for g, T, x in pivot_suite(25, seed=97, max_n=11):
            cur = g
            for it in blocker_run(g, T, x).iterations:
                # a step finds something exactly while a T-cycle is left
                assert fresh_step(cur, T, x, it.index) == it and has_t_cycle_brute(cur, T)
                f = block_cut_forest(cur.without([x]))
                d = node_of(f, it.d_label)
                closure = cur.induced(f.subtree_vertices(d) | {x})
                assert has_t_cycle(closure, T & set(closure.vertices))
                for child in f.children[d]:
                    sub = cur.induced(f.subtree_vertices(child) | {x})
                    assert not has_t_cycle(sub, T & set(sub.vertices))
                cur = cur.without(it.removed)

    def test_small_z_parts(self):
        # |Z4| <= 1 and |Z5| <= 1 on every case-c iteration
        for g, T, x in pivot_suite(40, seed=101):
            for it in blocker_run(g, T, x).iterations:
                if it.case == "c":
                    assert len(it.z_parts[3]) <= 1
                    assert len(it.z_parts[4]) <= 1

    def test_trace_format(self):
        run = blocker_run(six_cycle(), {3, 5}, 1)
        for line in run.trace_lines():
            assert re.fullmatch(
                r"iter=\d+ d=\S+ case=[abc] \|Z1\.\.Z5\|=[\d,]* Z=\{[\d,]*\}", line)

    def test_deep_block_tree_instances(self):
        # glued triangle/square trees with a pivot attached: deep forests that
        # exercise terminal cut vertices and multi-level subtree closures
        from mwns.blockcut import biconnected_blocks
        from brute import random_block_tree

        rng = random.Random(31337)
        count = 0
        while count < 60:
            h, nxt = random_block_tree(rng, rng.randint(2, 6))
            order = list(h.vertices)
            rng.shuffle(order)
            blocks = biconnected_blocks(h)
            T: set[int] = set()
            for v in order:
                if len(T) >= rng.randint(2, 5):
                    break
                if any(v in b and (b & T) for b in blocks):
                    continue
                if h.neighbors(v) & T:
                    continue
                T.add(v)
            attach = [v for v in h.vertices if rng.random() < 0.45]
            if len(T) < 2 or len(attach) < 2:
                continue
            x = nxt
            g = Graph(list(h.vertices) + [x], h.edges() + [(x, v) for v in attach])
            if not has_t_cycle(g, T):
                continue
            count += 1
            run = blocker_run(g, T, x)
            s = run.result
            assert is_mwns(g, T, s) and x not in s and not (s & T)
            opt = oracle_opt_x(g, T, x)
            if opt:
                assert len(s) <= 14 * opt
            cur = g
            for it in run.iterations:
                drop = oracle_opt_x(cur, T, x) - oracle_opt_x(cur.without(it.removed), T, x)
                assert drop >= math.ceil(len(it.removed) / 14)
                cur = cur.without(it.removed)
