"""Walk through the block-cut forest machinery on small graphs.

Run: python3 demos/01_block_cut_forests.py
"""

from mwns import Graph, block_cut_forest, separating_cut_vertex, threaded_path
from mwns.blockcut import node_label

# Two triangles sharing vertex 3: the classic smallest example with a cut vertex.
g = Graph(range(1, 6), [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
f = block_cut_forest(g)

print("graph edges:", g.edges())
print("decomposition:")
for nid, (vertices, cut, parent, depth) in enumerate(zip(f.sets, f.cutv, f.parent, f.depth)):
    kind = "block" if cut is None else "cut"
    print(f"  node {nid}: {kind:5s} {node_label(vertices, cut):10s} "
          f"parent={'-' if parent is None else parent} depth={depth}")

cut3 = f.cut_nodes[3]
print("vertices below the cut vertex 3:", sorted(f.subtree_vertices(cut3)))

v, left, right = separating_cut_vertex(f, (f.roots[0], cut3))
print(f"splitting the tree at that edge: every path from {sorted(left - {v})} "
      f"to {sorted(right - {v})} must pass through {v}")

# Threading a path through chosen interior vertices, one per block.
chain = Graph(range(1, 10), [(1, 2), (2, 3), (3, 4), (4, 1),
                             (4, 5), (5, 6), (6, 7), (7, 4),
                             (1, 8), (7, 9)])
fc = block_cut_forest(chain)
route = threaded_path(chain, fc, 1, 7,
                      forced=[(frozenset({1, 2, 3, 4}), 3), (frozenset({4, 5, 6, 7}), 6)])
print("\ntwo chained squares, forced through 3 and 6:", route)
