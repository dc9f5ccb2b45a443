"""Acceptance suite: one test per contract, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
reported empirical ratios.
"""

import itertools
import math
import random

import networkx as nx
import pytest

from mwns.graph import Graph
from mwns.blocker import blocker_run
from mwns.core import Instance, is_mwns, terminals_independent
from mwns.gen import pivot_instance
from mwns.reducer import lift_solution, reduce_terminals
from mwns.separators import enumerate_important_separators, gallai_q_paths
from mwns.solver import leaf_bound, oracle_opt_x, oracle_solve, solve
from mwns.witness import pushing_lemma_witness

from brute import (
    important_separators_brute,
    max_q_path_packing_brute,
    mwns_condition1,
    mwns_condition2,
    mwns_condition3,
    random_graph,
    search_lines,
)
from test_separators import q_path_exists


SOLVER_SUITE_SIZE = 500
BLOCKER_SUITE_SIZE = 300
REDUCTION_SUITE_SIZE = 300
SEPARATOR_QUERIES = 200
GALLAI_QUERIES = 200


@pytest.fixture(scope="module")
def solver_suite():
    """Seeded random instances (n <= 12, p in {0.2, 0.35}, |T| <= 5, k <= 3)
    with solver and oracle results."""
    rng = random.Random(20240)
    out = []
    for _ in range(SOLVER_SUITE_SIZE):
        n = rng.randint(4, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.35]))
        T = frozenset(rng.sample(list(g.vertices), rng.randint(2, min(5, n))))
        k = rng.randint(0, 3)
        inst = Instance.of(g, T, k)
        out.append((inst, solve(inst), oracle_solve(inst)))
    return out


@pytest.fixture(scope="module")
def blocker_suite():
    """Instances where a single pivot vertex is a near-separator (n <= 14):
    half flat random graphs with planted terminals, half deep glued-block
    trees with the pivot attached across subtrees."""
    from mwns.blockcut import biconnected_blocks
    from mwns.core import has_t_cycle
    from brute import random_block_tree

    rng = random.Random(777_000)
    out = []
    while len(out) < BLOCKER_SUITE_SIZE // 2:
        inst, x = pivot_instance(rng.randint(4, 14), rng.choice([0.2, 0.35, 0.5]),
                                 rng.randint(2, 5), rng.randint(0, 10**9))
        if len(inst.terminals) >= 2:
            out.append((inst.graph, inst.terminals, x,
                        blocker_run(inst.graph, inst.terminals, x)))
    while len(out) < BLOCKER_SUITE_SIZE:
        h, nxt = random_block_tree(rng, rng.randint(2, 6))
        if h.n > 13:
            continue
        order = list(h.vertices)
        rng.shuffle(order)
        blocks = biconnected_blocks(h)
        T: set[int] = set()
        for v in order:
            if len(T) >= rng.randint(2, 5):
                break
            if any(v in b and (b & T) for b in blocks) or (h.neighbors(v) & T):
                continue
            T.add(v)
        attach = [v for v in h.vertices if rng.random() < 0.45]
        if len(T) < 2 or len(attach) < 2:
            continue
        x = nxt
        g = Graph(list(h.vertices) + [x], h.edges() + [(x, v) for v in attach])
        if not has_t_cycle(g, T):
            continue
        out.append((g, frozenset(T), x, blocker_run(g, T, x)))
    return out


def test_criterion_1_solver_matches_oracle(solver_suite):
    yes = 0
    for inst, got, want in solver_suite:
        assert got.is_yes == want.is_yes, (inst.graph.edges(), sorted(inst.terminals), inst.k)
        if got.is_yes:
            yes += 1
            assert len(got.solution) <= inst.k
            assert not (got.solution & inst.terminals)
            assert is_mwns(inst.graph, inst.terminals, got.solution)
    print(f"\nPASS criterion 1: solver/oracle agree on {len(solver_suite)} instances "
          f"({yes} YES), every YES verified")


def test_criterion_2_blocker_contract(blocker_suite):
    worst = 0.0
    for g, T, x, run in blocker_suite:
        s = run.result
        assert is_mwns(g, T, s)
        assert x not in s and not (s & T)
        opt = oracle_opt_x(g, T, x)
        if opt == 0:
            assert s == frozenset()
        else:
            assert len(s) <= 14 * opt
            worst = max(worst, len(s) / opt)
    print(f"\nPASS criterion 2: {len(blocker_suite)} pivot instances within factor 14 "
          f"(empirical max ratio {worst:.3f})")


def test_criterion_3_per_iteration_decrease(blocker_suite):
    iterations = 0
    for g, T, x, run in blocker_suite:
        cur = g
        for it in run.iterations:
            before = oracle_opt_x(cur, T, x)
            nxt = cur.without(it.removed)
            after = oracle_opt_x(nxt, T, x)
            assert before - after >= math.ceil(len(it.removed) / 14), (
                g.edges(), sorted(T), x, it)
            cur = nxt
            iterations += 1
    print(f"\nPASS criterion 3: optimum dropped by >= ceil(|Z|/14) on {iterations} iterations")


def test_criterion_4_important_separators_exact():
    rng = random.Random(3141)
    done = 0
    while done < SEPARATOR_QUERIES:
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.25, 0.4]))
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
        done += 1
    print(f"\nPASS criterion 4: enumeration exact on {done} queries, count <= 4^k")


def test_criterion_5_reduction_equivalence():
    rng = random.Random(9090)
    done = 0
    while done < REDUCTION_SUITE_SIZE:
        n = rng.randint(4, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.35]))
        T = frozenset(rng.sample(list(g.vertices), rng.randint(2, min(6, n))))
        if not terminals_independent(g, T):
            continue
        k = rng.randint(0, 3)
        inst = Instance.of(g, T, k)
        s_hat = frozenset(v for v in g.vertices if v not in T)
        reduced, log, feasible = reduce_terminals(inst, s_hat)
        done += 1
        assert reduced.terminals <= T and reduced.k <= k
        assert set(reduced.graph.vertices) <= set(g.vertices)  # induced subgraph
        want = oracle_solve(inst)
        if not feasible:
            assert not want.is_yes
            continue
        got = oracle_solve(reduced)
        assert got.is_yes == want.is_yes
        if got.is_yes:
            lifted = lift_solution(log, got.solution)
            assert is_mwns(g, T, lifted)
            assert len(lifted) <= k and not (lifted & T)
    print(f"\nPASS criterion 5: {done} reductions answer-preserving, lifts verified")


def test_criterion_6_gallai_exact():
    rng = random.Random(6006)
    done = 0
    while done < GALLAI_QUERIES:
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.25, 0.4, 0.6]))
        Q = frozenset(rng.sample(list(g.vertices), rng.randint(0, g.n)))
        packing, cover = gallai_q_paths(g, Q)
        assert len(packing) == max_q_path_packing_brute(g, Q)
        assert len(cover) <= 2 * len(packing)
        assert not q_path_exists(g, Q, cover)
        done += 1
    print(f"\nPASS criterion 6: packing optimal and cover valid on {done} queries")


def test_criterion_7_branching_leaf_bound(solver_suite):
    # _search itself raises past the bound; its trace lines show the counts
    compressions = 0
    for _, got, _ in solver_suite:
        for line in search_lines(got.stats):
            assert int(line["leaves"]) <= leaf_bound(int(line["terminals"]),
                                                     int(line["budget"])), line
            compressions += 1
    print(f"\nPASS criterion 7: leaves within (32|T'|)^k' on {compressions} compressions")


@pytest.mark.sweep
def test_criterion_8_three_characterizations_exhaustive():
    graphs = [g for g in nx.graph_atlas_g() if g.number_of_nodes() <= 6]
    combos = 0
    for ag in graphs:
        n = ag.number_of_nodes()
        mapping = {old: i + 1 for i, old in enumerate(sorted(ag.nodes()))}
        g = Graph(range(1, n + 1), [(mapping[u], mapping[v]) for u, v in ag.edges()])
        vs = list(g.vertices)
        for t_size in range(n + 1):
            for T in itertools.combinations(vs, t_size):
                T = frozenset(T)
                pool = [v for v in vs if v not in T]
                for s_size in range(min(2, len(pool)) + 1):
                    for S in itertools.combinations(pool, s_size):
                        S = frozenset(S)
                        c1 = mwns_condition1(g, T, S)
                        c3 = mwns_condition3(g, T, S)
                        lib = is_mwns(g, T, S)
                        assert c1 == c3 == lib
                        # the separating-vertex view needs a non-terminal to exist
                        if pool:
                            assert mwns_condition2(g, T, S) == c3
                        combos += 1
    print(f"\nPASS criterion 8: all three views agree on {combos} (graph, T, S) combinations "
          f"over every graph with <= 6 vertices")


def test_criterion_9_pushing_witness(solver_suite):
    found = 0
    for inst, _, want in solver_suite:
        if not want.is_yes or not want.solution:
            continue  # trivial or NO
        w = pushing_lemma_witness(inst, want.solution)
        if w.kind == "subset":
            assert len(w.separator) <= inst.k and w.separator <= w.solution
        else:
            assert len(w.separator) <= inst.k + 1
            assert w.separator - {w.omitted} <= w.solution
        found += 1
    print(f"\nPASS criterion 9: pushing witness found on all {found} non-trivial YES instances")
