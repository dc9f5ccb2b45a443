"""The 14-approximation for a near-separator avoiding a pivot vertex.

When a single vertex x already nearly separates the terminals, every cycle
through two terminals passes x. The blocker removes such cycles bottom-up on
the block-cut forest of G-x and never does more than 14 times worse than the
best x-avoiding set.

Run: python3 demos/03_pivot_blocker.py
"""

from mwns import Graph, is_mwns
from mwns.blocker import blocker_run
from mwns.solver import oracle_opt_x

# A hexagon through x=1 with terminals 3 and 5.
g = Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
T = {3, 5}

run = blocker_run(g, T, 1)
print("iterations:")
for line in run.trace_lines():
    print(" ", line)
print("pivot-avoiding near-separator:", sorted(run.result))
print("still a valid near-separator:", is_mwns(g, T, run.result))
print("optimum avoiding the pivot:", oracle_opt_x(g, T, 1))

# A flower of terminal cycles sharing only x: the approximation stays honest
# even when many disjoint cycles must each lose a vertex.
edges, terminals, nxt = [], [], 2
for _ in range(4):
    a, t1, b, t2, c = range(nxt, nxt + 5)
    nxt += 5
    terminals += [t1, t2]
    edges += [(1, a), (a, t1), (t1, b), (b, t2), (t2, c), (c, 1)]
flower = Graph(range(1, nxt), edges)
run = blocker_run(flower, terminals, 1)
print("\nflower with 4 petals:")
print("  returned", len(run.result), "vertices over", len(run.iterations), "iterations")
print("  optimum avoiding x:", oracle_opt_x(flower, terminals, 1))
