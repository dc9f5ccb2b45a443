"""Vertex flows, important separators, and the Q-path packing/cover pair.

Run: python3 demos/02_separators.py
"""

from mwns import (
    Graph,
    enumerate_important_separators,
    gallai_q_paths,
    max_vertex_flow,
    min_separator,
)

# A ladder: two routes from 1 to 6, one of them longer.
g = Graph(range(1, 7), [(1, 2), (2, 3), (3, 6), (1, 4), (4, 5), (5, 6)])
value, paths = max_vertex_flow(g, {1}, {6})
print("max internally disjoint 1-6 routes:", value)
for p in paths:
    print("  route:", p)
print("leftmost minimum separator:", sorted(min_separator(g, {1}, {6})))

# Important separators prefer larger reach at equal size: on a path, the cut
# closest to the far side dominates.
path = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
for k in (1, 2):
    seps = enumerate_important_separators(path, {1}, {4}, k)
    print(f"important (1,4)-separators of size <= {k}:",
          [sorted(s) for s in seps])

# Gallai duality: a maximum family of disjoint Q-paths and a hitting set at
# most twice as large. On a star all Q-paths cross the center.
star = Graph(range(1, 6), [(5, 1), (5, 2), (5, 3), (5, 4)])
packing, cover = gallai_q_paths(star, {1, 2, 3, 4})
print("star packing:", packing, " cover:", sorted(cover))
