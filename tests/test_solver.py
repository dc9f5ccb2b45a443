import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import mwns.blocker as blocker_mod
import mwns.separators as separators
import mwns.solver as solver_mod
from mwns.graph import Graph
from mwns.blockcut import biconnected_blocks
from mwns.core import (Instance, SolveResult, crowded_blocks, crowded_kernel, is_mwns,
                       terminals_independent)
from mwns.gen import from_multiway_cut, random_instance
from mwns.solver import (
    compression_step,
    oracle_opt_x,
    oracle_solve,
    solve,
)
from mwns.witness import pushing_lemma_witness

from brute import (gadget_union, glued_union, multiway_separator_brute, mwns_condition3, random_graph,
                   search_lines, small_instances)


def six_cycle_instance(k=1):
    g = Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
    return Instance.of(g, {3, 5}, k)


def cycle_chain(m: int) -> tuple[Graph, frozenset[int]]:
    """m 8-cycles, each with two terminals at distance 3, consecutive cycles
    joined by a bridge between non-terminals: each cycle needs its own
    deletion, so the optimum is m."""
    ring = [(8 * i + j, 8 * i + j % 8 + 1) for i in range(m) for j in range(1, 9)]
    bridges = [(8 * i + 6, 8 * i + 10) for i in range(m - 1)]
    T = frozenset(8 * i + t for i in range(m) for t in (1, 4))
    return Graph(range(1, 8 * m + 1), ring + bridges), T


def check_oracle_suite(seed: int = 127, count: int = 120, min_n: int = 3) -> set[str]:
    """solve against oracle_solve on seeded instances (n <= 12, k <= 3);
    returns the reductions its compression steps ran."""
    rng = random.Random(seed)
    reductions: set[str] = set()
    for _ in range(count):
        g = random_graph(rng, rng.randint(min_n, 12), rng.choice([0.2, 0.35]))
        T = frozenset(rng.sample(list(g.vertices), rng.randint(2, min(5, g.n))))
        k = rng.randint(0, 3)
        inst = Instance.of(g, T, k)
        got = solve(inst)
        assert got.is_yes == oracle_solve(inst).is_yes
        if got.is_yes:
            assert len(got.solution) <= k
            assert not (got.solution & T)
            assert is_mwns(g, T, got.solution)
        reductions |= {line["reduction"] for line in search_lines(got.stats)}
    return reductions


class TestOracle:
    def test_six_cycle_smallest_solution(self):
        assert oracle_solve(six_cycle_instance()).solution == frozenset({1})

    def test_dependent_terminals_are_no(self):
        g = Graph(range(1, 4), [(1, 2), (2, 3), (1, 3)])
        assert not oracle_solve(Instance.of(g, {1, 2}, 3)).is_yes

    def test_no_terminal_cycle_is_yes_empty(self):
        g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
        assert oracle_solve(Instance.of(g, {1, 4}, 0)).solution == frozenset()

    def test_opt_x(self):
        inst = six_cycle_instance()
        assert oracle_opt_x(inst.graph, inst.terminals, 1) == 1

    def test_size_guard(self):
        n = 60
        g = Graph(range(1, n + 1), [(1, 2), (2, 3), (3, 1)])
        with pytest.raises(ValueError):
            oracle_solve(Instance.of(g, set(), 20))


class TestGadgetUnion:
    @pytest.mark.parametrize("seed", range(3))
    def test_solve_meets_the_known_optimum_past_the_oracle(self, seed):
        # three gadgets joined by bridges, 31 vertices: the optimum is the
        # sum of the gadgets' brute-force optima
        g, T, opt = gadget_union(seed, 3, 9, 0.35)
        assert g.n == 31 and opt >= 6
        yes = solve(Instance(g, T, opt)).solution
        assert yes is not None and len(yes) <= opt
        assert is_mwns(g, T, yes) and mwns_condition3(g, T, yes)
        assert not solve(Instance(g, T, opt - 1)).is_yes


class TestGluedUnion:
    @pytest.mark.parametrize("seed", range(4))
    def test_solve_meets_the_known_optimum_of_a_real_search(self, seed):
        # four gadgets sharing one vertex, 33 vertices: each gadget's crowded
        # blocks meet the shared one, so the kernel never falls apart
        g, T, opt = glued_union(seed, 4, 9, 0.35)
        assert g.n == 33 and len(T) == 12
        yes = solve(Instance(g, T, opt)).solution
        assert yes is not None and len(yes) <= opt
        assert is_mwns(g, T, yes) and mwns_condition3(g, T, yes)
        assert not solve(Instance(g, T, opt - 1)).is_yes

    @pytest.mark.parametrize("seed", range(3))
    def test_the_glued_optimum_is_the_oracle_optimum(self, seed):
        # two gadgets of 8 leave 9 non-terminals, in the oracle's reach
        g, T, opt = glued_union(seed, 2, 8, 0.35)
        assert g.n == 15
        assert oracle_solve(Instance(g, T, opt)).is_yes
        assert not oracle_solve(Instance(g, T, opt - 1)).is_yes


class TestCycleChain:
    def test_six_bridged_cycles_need_six_deletions(self):
        # the same kernel recurs under many deletion orders: without the memo
        # of failed kernels the NO visits 1 508 838 nodes
        g, T = cycle_chain(6)
        no = solve(Instance(g, T, 5))
        assert not no.is_yes and no.stats.nodes < 20_000
        yes = solve(Instance(g, T, 6)).solution
        assert yes is not None and len(yes) == 6 and is_mwns(g, T, yes)


class TestBudgetOneVerdict:
    """A budget-1 node runs one flow before it enumerates: three internally
    disjoint paths between two terminals of a crowded block survive any one
    deletion as a T-cycle, so the node fails."""

    def test_three_two_paths_answer_no_without_enumerating(self):
        g = Graph(range(1, 6), [(t, v) for t in (1, 2) for v in (3, 4, 5)])
        got = solve(Instance.of(g, {1, 2}, 1))
        assert not got.is_yes
        assert got.stats.enumerations == 0 and got.stats.nodes == got.stats.leaves == 1

    def test_two_disjoint_paths_still_branch(self):
        # terminals 1 and 4 of a 6-cycle: two paths, so the node enumerates
        g = Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
        got = solve(Instance.of(g, {1, 4}, 1))
        assert got.is_yes and len(got.solution) == 1 and is_mwns(g, {1, 4}, got.solution)
        assert got.stats.enumerations >= 1

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(small_instances(max_n=10, dense=True), st.sampled_from([1, 2]))
    def test_agrees_with_oracle_at_budgets_one_and_two(self, inst, k):
        inst = Instance(inst.graph, inst.terminals, k)
        got = solve(inst)
        assert got.is_yes == oracle_solve(inst).is_yes
        if got.is_yes:
            assert len(got.solution) <= k and is_mwns(inst.graph, inst.terminals, got.solution)


class TestCompressionStep:
    def test_reduced_to_acyclic_is_yes(self):
        g = Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
        inst = Instance.of(g, {3, 5}, 1)
        result = compression_step(inst, frozenset({2, 4}))
        assert result.is_yes
        assert is_mwns(g, inst.terminals, result.solution)
        assert len(result.solution) <= 1

    def test_no_instance_two_disjoint_cycles(self):
        # two vertex-disjoint terminal cycles need two deletions
        g = Graph(range(1, 9), [(1, 2), (2, 3), (3, 4), (4, 1),
                                (5, 6), (6, 7), (7, 8), (8, 5)])
        inst = Instance.of(g, {1, 3, 5, 7}, 1)
        result = compression_step(inst, frozenset({2, 6}))
        assert not result.is_yes
        assert not oracle_solve(inst).is_yes

    def test_bridge_path_between_crowded_blocks_stays_out(self):
        # two terminal six-cycles joined by the non-terminal path 1-7-8-11:
        # the path lies in no crowded block, so no search node keeps it
        rings = [(a + i, a + (i + 1) % 6) for a in (1, 11) for i in range(6)]
        g = Graph(range(1, 17), rings + [(1, 7), (7, 8), (8, 11)])
        T = {3, 5, 13, 15}
        for k in (1, 2):
            inst = Instance.of(g, T, k)
            got = solve(inst)
            assert got.is_yes == oracle_solve(inst).is_yes == (k == 2)
        assert is_mwns(g, T, got.solution) and not got.solution & {7, 8}

    def test_rejects_wrong_size(self):
        inst = six_cycle_instance()
        with pytest.raises(ValueError):
            compression_step(inst, frozenset({2}))

    def test_rejects_a_vertex_outside_the_graph(self):
        # {4} alone breaks the six-cycle, so only the unknown 99 is wrong
        with pytest.raises(ValueError) as exc:
            compression_step(six_cycle_instance(), frozenset({4, 99}))
        assert "[99]" in str(exc.value) and "pivot" not in str(exc.value)

    def test_rejects_non_separator_of_size_k_plus_1(self):
        # terminals 1, 2 with four common neighbours: deleting 3 and 4 leaves
        # the T-cycle 1-5-2-6
        g = Graph(range(1, 7), [(t, v) for t in (1, 2) for v in (3, 4, 5, 6)])
        with pytest.raises(ValueError):
            compression_step(Instance.of(g, {1, 2}, 1), frozenset({3, 4}))


class TestSolve:
    def test_star_with_shortcuts(self):
        g = Graph(range(1, 7), [(1, 2), (1, 3), (1, 4), (5, 2), (5, 3), (6, 3), (6, 4)])
        result = solve(Instance.of(g, {2, 3, 4}, 1))
        assert result.solution == frozenset({1})

    def test_budget_zero_with_cycle(self):
        assert not solve(six_cycle_instance(k=0)).is_yes

    def test_multiway_cut_reduction_matches_separator_answer(self):
        rng = random.Random(113)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 8), rng.choice([0.3, 0.5]))
            T = frozenset(rng.sample(list(g.vertices), rng.randint(2, min(3, g.n))))
            k = rng.randint(0, 2)
            source = Instance.of(g, T, k)
            encoded = from_multiway_cut(source)
            want = multiway_separator_brute(g, T, k)
            got = solve(encoded)
            assert got.is_yes == want
            if got.is_yes:
                assert is_mwns(encoded.graph, T, got.solution)

    def test_agrees_with_oracle_and_respects_budget(self):
        check_oracle_suite()

    def test_full_reduction_in_every_step_agrees_with_oracle(self, monkeypatch):
        # a terminal bound of -1 runs the 1-redundant set, RR2 and RR3 in
        # every compression step, the path the bound otherwise gates off
        monkeypatch.setattr(solver_mod, "terminal_bound", lambda k, size: -1)
        assert check_oracle_suite() == {"full"}
        # the acceptance suite's 500 instances, with about ten times the steps
        assert check_oracle_suite(20240, 500, 4) == {"full"}

    @settings(derandomize=True, max_examples=120, deadline=None, database=None)
    @given(small_instances(max_n=10, dense=True), st.randoms(use_true_random=False))
    def test_agrees_with_oracle_under_relabeling(self, inst, rnd):
        want = oracle_solve(inst).is_yes
        got = solve(inst)
        assert got.is_yes == want
        if got.is_yes:
            assert len(got.solution) <= inst.k and is_mwns(inst.graph, inst.terminals, got.solution)
        order = list(inst.graph.vertices)
        rnd.shuffle(order)
        relabel = dict(zip(inst.graph.vertices, order))
        g = Graph(order, [(relabel[u], relabel[v]) for u, v in inst.graph.edges()])
        assert solve(Instance.of(g, {relabel[t] for t in inst.terminals}, inst.k)).is_yes == want

    def test_monotone_in_budget(self):
        rng = random.Random(131)
        for _ in range(40):
            g = random_graph(rng, rng.randint(4, 10), 0.3)
            T = frozenset(rng.sample(list(g.vertices), rng.randint(2, 4)))
            k = rng.randint(0, 2)
            if solve(Instance.of(g, T, k)).is_yes:
                assert solve(Instance.of(g, T, k + 1)).is_yes

    def test_stats_bound_holds(self):
        rng = random.Random(137)
        for _ in range(40):
            inst = random_instance(rng.randint(5, 12), 0.35, 3, 2, rng.randint(0, 10**9))
            # _search raises past the bound; its trace lines show the counts
            for line in search_lines(solve(inst).stats):
                bound = solver_mod.leaf_bound(int(line["terminals"]), int(line["budget"]))
                assert int(line["leaves"]) <= bound

    def test_boundary_on_deep_block_trees(self):
        # instances built from glued blocks, answered at the exact optimum and
        # one below it: the hard region for the branching search
        from mwns.core import has_t_cycle
        from brute import random_block_tree

        rng = random.Random(99991)
        count = 0
        while count < 30:
            h, _ = random_block_tree(rng, rng.randint(2, 5))
            vs = list(h.vertices)
            extra = []
            for _ in range(rng.randint(0, 3)):
                u, v = rng.sample(vs, 2)
                if not h.has_edge(u, v):
                    extra.append((min(u, v), max(u, v)))
            g = Graph(vs, list(dict.fromkeys(h.edges() + extra)))
            order = list(vs)
            rng.shuffle(order)
            T: set[int] = set()
            for v in order:
                if len(T) >= rng.randint(2, 5):
                    break
                if not (g.neighbors(v) & T):
                    T.add(v)
            if len(T) < 2 or not has_t_cycle(g, T):
                continue
            opt = next((k for k in range(4)
                        if oracle_solve(Instance.of(g, frozenset(T), k)).is_yes), None)
            if not opt:
                continue
            count += 1
            for k, expect in ((opt, True), (opt - 1, False)):
                got = solve(Instance.of(g, frozenset(T), k))
                assert got.is_yes == expect
                if got.is_yes:
                    assert is_mwns(g, T, got.solution) and len(got.solution) <= k

    def test_long_cycle(self):
        # the important-separator branching once recursed once per vertex of
        # such a kernel; its depth is now bounded by the budget
        n = 2000
        g = Graph(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])
        got = solve(Instance.of(g, {1, 1001}, 1))
        assert got.is_yes and len(got.solution) == 1
        assert is_mwns(g, {1, 1001}, got.solution)

    def test_invalid_certificate_raises_even_without_asserts(self, monkeypatch):
        # the final check is a raise, not an assert, so it survives python -O;
        # an empty search answer leaves the six-cycle's T-cycle in place
        monkeypatch.setattr(solver_mod, "_search",
                            lambda g, T, k, stats, kernel, reduction="kernel": frozenset())
        with pytest.raises(RuntimeError, match="certificate"):
            solve(six_cycle_instance())

    def test_invalid_compression_certificate_raises_even_without_asserts(self, monkeypatch):
        # the same check on the iterative-compression path
        monkeypatch.setattr(solver_mod, "terminal_bound", lambda k, size: -1)
        monkeypatch.setattr(solver_mod, "compression_step",
                            lambda inst, s_big, stats=None: SolveResult.yes(frozenset()))
        with pytest.raises(RuntimeError, match="certificate"):
            solve(six_cycle_instance())

    @pytest.mark.parametrize("seed", [0, 5])
    def test_one_network_on_the_kernel_and_no_graph_copy_per_node(self, seed):
        # every flow of the search runs on one network of G's crowded kernel,
        # masked per node, however large the periphery hanging off it: here a
        # 2 000-vertex pendant path and a 500-vertex pendant star
        inst = random_instance(22, .14, 5, 3, seed)
        n = inst.graph.n
        path = [(v, v + 1) for v in range(n, n + 2000)]
        star = [(1, v) for v in range(n + 2001, n + 2501)]
        g = Graph(range(1, n + 2501), inst.graph.edges() + path + star)
        blocks = crowded_blocks(biconnected_blocks(g), inst.terminals)
        kernel = crowded_kernel(blocks, inst.terminals)
        assert 0 < len(kernel) <= n
        with mock.patch.object(separators._SplitNet, "__init__", autospec=True,
                               side_effect=separators._SplitNet.__init__) as builds:
            result = solve(Instance.of(g, inst.terminals, inst.k))
        assert result.stats.nodes > 1
        assert builds.call_count == 1
        assert builds.call_args.args[1].vertices == tuple(sorted(kernel))
        with mock.patch.object(Graph, "__init__", autospec=True, side_effect=Graph.__init__) as new, \
                mock.patch.object(Graph, "induced", autospec=True, side_effect=Graph.induced) as sub:
            stats = solver_mod.SearchStats()
            solver_mod._search(g, inst.terminals, inst.k, stats, blocks)
        assert stats.nodes > 1
        assert new.call_count == 0 and sub.call_count == 1  # the root kernel's copy only
        assert result.solution == solve(inst).solution

    def test_one_decomposition_of_g_per_solve(self):
        # the gate's crowded kernel is the search's root kernel: G is split
        # into blocks once, and every later decomposition is of the kernel
        inst = random_instance(22, .14, 5, 3, 0)
        n = inst.graph.n
        g = Graph(range(1, n + 501), inst.graph.edges() + [(v, v + 1) for v in range(n, n + 500)])
        with mock.patch.object(solver_mod, "biconnected_blocks", wraps=biconnected_blocks) as spy:
            result = solve(Instance.of(g, inst.terminals, inst.k))
        assert result.stats.nodes > 1
        on_g = [c.args[0] is g for c in spy.call_args_list]
        assert on_g[0] and on_g.count(True) == 1

    def test_a_search_node_is_its_kernel(self):
        # the root is the caller's kernel, and each child's kernel is read once,
        # where its parent branches: one decomposition per non-root node
        nodes = 0
        for seed in range(12):
            inst = random_instance(22, .14, 5, 3, seed)
            blocks = crowded_blocks(biconnected_blocks(inst.graph), inst.terminals)
            if not blocks:
                continue
            stats = solver_mod.SearchStats()
            with mock.patch.object(solver_mod, "biconnected_blocks", wraps=biconnected_blocks) as spy:
                solver_mod._search(inst.graph, inst.terminals, inst.k, stats, blocks)
            assert spy.call_count == stats.nodes - 1
            nodes += stats.nodes
        assert nodes > 50

    def test_wrong_no_on_seventeen_vertices(self):
        """solve answers YES at k = 3, where {4, 8, 16} is one solution.

        The compression branching used to enumerate important separators from
        a crowded terminal toward every other terminal, and answered NO here:
        in G - {8, 16} terminal 2 is already nearly separated, yet as a sink
        it left no (10, T - 10)-separator of size <= 2, while the
        (10, {15})-separator {4, 6} leads to a solution. The sinks are now
        the crowded terminals only.
        """
        edges = [(1, 13), (1, 14), (2, 8), (2, 9), (3, 5), (4, 10), (4, 15), (5, 8),
                 (5, 13), (6, 10), (6, 11), (6, 12), (6, 15), (6, 17), (7, 15), (7, 16),
                 (8, 14), (8, 17), (9, 15), (10, 16), (10, 17), (13, 17), (14, 16)]
        g = Graph(range(1, 18), edges)
        T = frozenset({2, 5, 10, 14, 15})
        assert is_mwns(g, T, {4, 8, 16}) and mwns_condition3(g, T, {4, 8, 16})
        assert solve(Instance.of(g, T, 3)).is_yes


class TestSearchGate:
    """solve searches G once while its crowded terminals number at most
    terminal_bound(k, k+1), and compresses only above it."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(small_instances(max_n=10, dense=True), st.randoms(use_true_random=False))
    def test_prefix_crowded_terminals_are_crowded_in_g(self, inst, rnd):
        # a block of G[P] lies inside a block of G, so no prefix of the
        # compression order reaches the bound before G does
        g, T = inst.graph, inst.terminals
        P = T | {v for v in g.vertices if rnd.random() < 0.6}
        crowded = crowded_kernel(biconnected_blocks(g), T) & T
        assert crowded_kernel(biconnected_blocks(g.induced(P)), T) & T <= crowded

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(small_instances(max_n=10, dense=True))
    def test_the_kernel_is_its_own_crowded_kernel(self, inst):
        # why the search's root reuses the caller's kernel K: each crowded
        # block of G is 2-connected in G[K], so a block of it
        g, T = inst.graph, inst.terminals
        kernel = crowded_kernel(biconnected_blocks(g), T)
        assert crowded_kernel(biconnected_blocks(g.induced(kernel)), T) == kernel

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(small_instances(max_n=9, dense=True))
    def test_direct_search_agrees_with_compression(self, inst):
        # dense draws reach the search about five times as often as sparse ones
        g, T, k = inst.graph, inst.terminals, inst.k
        direct = solve(inst)
        with mock.patch.object(solver_mod, "terminal_bound", lambda k, size: -1):
            compressed = solve(inst)
        assert direct.is_yes == compressed.is_yes
        assert {line["reduction"] for line in search_lines(direct.stats)} <= {"kernel"}
        assert {line["reduction"] for line in search_lines(compressed.stats)} <= {"full"}
        for got in (direct, compressed):
            if got.is_yes:
                assert len(got.solution) <= k and is_mwns(g, T, got.solution)
        if direct.is_yes:
            assert not any(is_mwns(g, T, direct.solution - {v}) for v in direct.solution)


def flower_instance():
    # two terminal cycles sharing vertex 1; compressing it runs the blocker
    g = Graph(range(1, 12), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6),
                             (1, 7), (7, 8), (8, 9), (9, 10), (10, 11), (1, 11)])
    return Instance.of(g, {3, 5, 8, 10}, 2)


class TestOneStatsRecord:
    """Each solve fills one SearchStats: counters summed over its searches,
    and a trace that only the solve's own searches and blockers write to."""

    def test_leaf_guard_fires_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "leaf_bound", lambda terminals, k: 0)
        with pytest.raises(RuntimeError, match="leaf bound"):
            solve(six_cycle_instance())

    def test_leaf_guard_raises_under_python_O(self):
        # the guard is a raise, not an assert, so it survives python -O
        script = textwrap.dedent('''
            import mwns.solver as s
            from mwns.core import Instance
            from mwns.graph import Graph
            s.leaf_bound = lambda terminals, k: 0
            c6 = Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
            try:
                s.solve(Instance.of(c6, {3, 5}, 1))
            except RuntimeError as e:
                print("leaf bound" in str(e))
            else:
                print("returned")
        ''')
        src = str(Path(solver_mod.__file__).parents[1])
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["True"]

    def test_counters_sum_over_the_searches(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "terminal_bound", lambda k, size: -1)
        stats = solve(flower_instance()).stats
        lines = search_lines(stats)
        assert stats.compressions == len(lines) >= 2
        assert stats.nodes == sum(int(line["nodes"]) for line in lines)
        assert stats.leaves == sum(int(line["leaves"]) for line in lines)

    def test_a_raising_solve_leaves_no_recording(self, monkeypatch):
        # the first step whose blockers wrote to the solve's trace raises;
        # after that, a blocker run outside any solve writes nowhere
        real, held = solver_mod.compression_step, []

        def step_then_raise(inst, s_big, stats=None):
            result = real(inst, s_big, stats)
            trace = blocker_mod._recording.get()
            if any(line.startswith("blocker x=") for line in trace):
                held.append(trace)
                raise RuntimeError("step failed")
            return result

        monkeypatch.setattr(solver_mod, "terminal_bound", lambda k, size: -1)
        monkeypatch.setattr(solver_mod, "compression_step", step_then_raise)
        with pytest.raises(RuntimeError, match="step failed"):
            solve(flower_instance())
        [trace] = held
        before = list(trace)
        assert blocker_mod._recording.get() is None
        g = six_cycle_instance().graph
        assert blocker_mod.blocker_run(g, {3, 5}, 1).iterations
        assert trace == before

    def test_two_solves_get_disjoint_traces(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "terminal_bound", lambda k, size: -1)
        first = solve(flower_instance())
        kept = list(first.stats.trace)
        second = solve(flower_instance())
        assert any(line.startswith("blocker x=") for line in kept)
        assert first.stats.trace == kept == second.stats.trace
        assert first.stats.trace is not second.stats.trace

    def test_each_full_search_follows_its_own_blocker_lines(self, monkeypatch):
        # a step's lines are its blockers' lines, then its one search line
        real, starts = solver_mod.compression_step, []

        def step(inst, s_big, stats=None):
            starts.append(len(stats.trace))
            return real(inst, s_big, stats)

        monkeypatch.setattr(solver_mod, "terminal_bound", lambda k, size: -1)
        monkeypatch.setattr(solver_mod, "compression_step", step)
        trace = solve(flower_instance()).stats.trace
        assert starts[0] == 0 and len(starts) >= 2
        for a, b in zip(starts, starts[1:] + [len(trace)]):
            *blockers, last = trace[a:b]
            assert last.startswith("compress ") and last.endswith(" reduction=full")
            assert all(line.startswith(("blocker x=", "iter=")) for line in blockers)
        assert any(line.startswith("blocker x=") for line in trace)


class TestPushingWitness:
    def test_six_cycle_has_a_witness(self):
        inst = six_cycle_instance()
        S = oracle_solve(inst).solution
        w = pushing_lemma_witness(inst, S)
        assert w.kind in ("subset", "all-but-one")
        assert w.terminal in inst.terminals

    def test_separated_terminal_gives_subset_witness(self):
        # S={2} fully separates terminal 1 from 5: its reach boundary is an
        # important separator inside an optimal solution
        g = Graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)])
        inst = Instance.of(g, {1, 4}, 2)
        S = oracle_solve(inst).solution
        w = pushing_lemma_witness(inst, S)
        assert w.kind in ("subset", "all-but-one")

    def test_trivial_instance_rejected(self):
        g = Graph(range(1, 4), [(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            pushing_lemma_witness(Instance.of(g, {1, 3}, 1), frozenset())

    def test_witness_everywhere_in_random_suite(self):
        rng = random.Random(139)
        found = 0
        while found < 30:
            g = random_graph(rng, rng.randint(4, 10), rng.choice([0.25, 0.4]))
            T = frozenset(rng.sample(list(g.vertices), rng.randint(2, 4)))
            k = rng.randint(1, 3)
            inst = Instance.of(g, T, k)
            if not terminals_independent(g, T) or inst.is_trivial():
                continue
            best = oracle_solve(inst)
            if not best.is_yes or not best.solution:
                continue
            found += 1
            w = pushing_lemma_witness(inst, best.solution)
            if w.kind == "subset":
                assert w.separator <= w.solution
            else:
                assert w.separator - {w.omitted} <= w.solution
