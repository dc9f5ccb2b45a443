"""Exact solving by important-separator branching, cross-checked by brute force.

Run: python3 demos/05_exact_solver.py
"""

import random

from mwns import Graph, Instance, is_mwns
from mwns.gen import random_instance, from_multiway_cut
from mwns.solver import solve, oracle_solve

# Star with shortcut vertices: only the center nearly separates all leaves.
g = Graph(range(1, 7), [(1, 2), (1, 3), (1, 4), (5, 2), (5, 3), (6, 3), (6, 4)])
inst = Instance.of(g, {2, 3, 4}, 1)
result = solve(inst)
print("star with shortcuts:", result)
for line in result.stats.lines():
    print("  ", line)

# Encoding full multiway separation: fresh degree-2 vertices between
# consecutive terminals force every pair apart. The path 1..5 with terminals
# 1, 3, 5 needs both interior vertices gone.
base = Graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5)])
for k in (1, 2):
    encoded = from_multiway_cut(Instance.of(base, {1, 3, 5}, k))
    print(f"\nencoded separator instance, budget {k}:", solve(encoded))

# Random agreement run.
rng = random.Random(0)
agree = 0
for i in range(30):
    inst = random_instance(rng.randint(5, 11), 0.3, 3, 2, seed=i)
    got, want = solve(inst), oracle_solve(inst)
    assert got.is_yes == want.is_yes
    if got.is_yes:
        assert is_mwns(inst.graph, inst.terminals, got.solution)
    agree += 1
print(f"\n{agree}/30 random instances agree with the brute-force answer")
