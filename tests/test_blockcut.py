import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mwns.graph import Graph, connected_components
from mwns.blockcut import BlockCutForest, biconnected_blocks, block_cut_forest, blocks_without, node_label
from mwns.blocker import blocker_run
from mwns.dot import forest_to_dot
from mwns.reducer import _Record, reduce_terminals
from mwns.witness import path_through_vertex_in_block, separating_cut_vertex, threaded_path

from brute import (all_simple_paths, biconnected_blocks_edge_stack, biconnected_blocks_vertex_stack,
                   block_cut_forest_reference, chorded_block_tree, random_block_tree, random_graph)
from test_reducer import FLOWERS


def tree_edges(f):
    """The (parent, child) id pairs of f."""
    return [(p, c) for c, p in enumerate(f.parent) if p is not None]


def two_triangles():
    return Graph(range(1, 6), [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])


def test_triangle_is_one_block_no_cuts():
    g = Graph(range(1, 4), [(1, 2), (2, 3), (1, 3)])
    f = block_cut_forest(g)
    assert f.cutv == [None]
    assert f.sets == [frozenset({1, 2, 3})]


def test_shared_vertex_triangles_blocks_at_distance_two():
    f = block_cut_forest(two_triangles())
    blocks = {s for s, c in zip(f.sets, f.cutv) if c is None}
    assert blocks == {frozenset({1, 2, 3}), frozenset({3, 4, 5})}
    assert [c for c in f.cutv if c is not None] == [3]
    # the two blocks sit at distance two with the cut vertex between them
    b1, b2 = [nid for nid, c in enumerate(f.cutv) if c is None]
    assert len(f.tree_path(b1, b2)) == 3


def test_path_graph_every_edge_is_a_block():
    g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
    f = block_cut_forest(g)
    blocks = {s for s, c in zip(f.sets, f.cutv) if c is None}
    assert blocks == {frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})}
    assert {c for c in f.cutv if c is not None} == {2, 3}


def test_isolated_vertex_becomes_singleton_block():
    f = block_cut_forest(Graph([1, 2], [(1, 2)] if False else []))
    assert set(f.sets) == {frozenset({1}), frozenset({2})} and f.cutv == [None, None]
    assert len(f.roots) == 2


def test_subtree_vertices():
    f = block_cut_forest(two_triangles())
    cut3 = f.cut_nodes[3]
    assert f.subtree_vertices(cut3) == frozenset({3, 4, 5})
    assert f.subtree_vertices(f.roots[0]) == frozenset({1, 2, 3, 4, 5})
    g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4)])
    f2 = block_cut_forest(g)
    leaf = f2.sets.index(frozenset({3, 4}))
    assert f2.subtree_vertices(leaf) == frozenset({3, 4})


def test_subtree_vertices_unknown_node():
    f = block_cut_forest(two_triangles())
    with pytest.raises(KeyError):
        f.subtree_vertices(99)


def test_tree_queries_name_an_unknown_node_id():
    f = block_cut_forest(two_triangles())  # blocks {1,2,3} and {3,4,5}, cut vertex 3
    assert len(f.sets) == 3 and f.index.root == (0, 0, 0) and f.cut_nodes == {3: 1}
    for nid in (-1, 3, 99):
        for query in (lambda: f.tree_path(nid, 0), lambda: f.tree_path(0, nid), lambda: f.subtree_vertices(nid)):
            with pytest.raises(KeyError, match=f"unknown node id {nid}"):
                query()


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.integers(2, 8), st.sampled_from([0.2, 0.35, 0.5]), st.integers(0, 10**6))
def test_path_vertices_are_the_union_of_all_simple_paths(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    f = block_cut_forest(g)
    vertices = frozenset(g.vertices)
    for comp in connected_components(g):
        for a, b in itertools.permutations(comp, 2):
            on = f.path_vertices(f.index.owner[a], f.index.owner[b], vertices)
            assert len(on) == len(set(on))
            assert set(on) == set().union(*all_simple_paths(g, a, b))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.integers(1, 8), st.sampled_from([0.2, 0.35, 0.5]), st.integers(0, 10**6))
def test_span_vertices_are_the_union_of_all_simple_paths_between_ends(n, p, seed):
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    f = block_cut_forest(g)
    for comp in connected_components(g):
        for ends in {frozenset(rng.sample(comp, rng.randint(1, len(comp)))) for _ in range(4)}:
            on = set().union(*(q for a, b in itertools.combinations_with_replacement(ends, 2)
                               for q in all_simple_paths(g, a, b)))
            assert f.span_vertices(ends) == on


def test_span_of_no_ends_is_empty():
    f = block_cut_forest(two_triangles())
    assert f.span_vertices(()) == f.span_vertices(iter(())) == frozenset()
    assert f.span_vertices(iter([4])) == frozenset({4})


def test_node_labels_agree_across_the_node_view_the_dot_export_and_the_blocker():
    f = block_cut_forest(two_triangles())
    labels = [node_label(s, c) for s, c in zip(f.sets, f.cutv)]
    assert labels == ["{1,2,3}", "3", "{3,4,5}"]
    dot = forest_to_dot(f)
    assert all(f'label="{label}"' in dot for label in labels)
    # pivot 1 closes the arms 4-5-6 and 7-8-9 off cut vertex 3 (case a, a
    # cut node's label) and the six-cycle 1..6 (case c, a block's)
    arms = Graph(range(1, 10), [(2, 3), (3, 4), (4, 5), (5, 6), (3, 7), (7, 8), (8, 9), (1, 6), (1, 9)])
    six = Graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)])
    assert [it.d_label for it in blocker_run(arms, {5, 8}, 1).iterations] == ["3"]
    assert [it.d_label for it in blocker_run(six, {3, 5}, 1).iterations] == ["{2,3}"]


def test_separating_cut_vertex_examples():
    f = block_cut_forest(two_triangles())
    root = f.roots[0]
    cut3 = f.cut_nodes[3]
    assert separating_cut_vertex(f, (root, cut3)) == (
        3, frozenset({1, 2, 3}), frozenset({3, 4, 5}))
    g = Graph(range(1, 4), [(1, 2), (2, 3)])
    f2 = block_cut_forest(g)
    b12 = f2.sets.index(frozenset({1, 2}))
    cut2 = f2.cut_nodes[2]
    v, y1, y2 = separating_cut_vertex(f2, (b12, cut2))
    assert (v, y1, y2) == (2, frozenset({1, 2}), frozenset({2, 3}))


def test_separating_cut_vertex_property_exhaustive_small():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8), rng.choice([0.25, 0.4, 0.6]))
        f = block_cut_forest(g)
        for e in tree_edges(f):
            v, y1, y2 = separating_cut_vertex(f, e)
            for a in sorted(y1 - {v}):
                for b in sorted(y2 - {v}):
                    for p in all_simple_paths(g, a, b):
                        assert v in p


def test_blocks_match_brute_force_maximal_biconnected():
    rng = random.Random(13)

    def brute_blocks(g):
        vs = g.vertices
        twoconn = []
        for r in range(3, len(vs) + 1):
            for c in itertools.combinations(vs, r):
                sub = g.induced(c)
                if len(connected_components(sub)) != 1:
                    continue
                if all(len(connected_components(sub.without([v]))) == 1 for v in c):
                    twoconn.append(frozenset(c))
        maximal = {s for s in twoconn if not any(s < t for t in twoconn)}
        blocks = set(maximal)
        covered = {frozenset((u, v)) for s in maximal
                   for u in s for v in s if u < v and g.has_edge(u, v)}
        for u, v in g.edges():
            if frozenset((u, v)) not in covered:
                blocks.add(frozenset((u, v)))
        used = set().union(*blocks) if blocks else set()
        blocks.update(frozenset([v]) for v in vs if v not in used)
        return blocks

    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.4, 0.6]))
        assert set(biconnected_blocks(g)) == brute_blocks(g)


@st.composite
def graphs_with_exclusions(draw, max_n: int):
    """A graph on 1..max_n vertices with ids spread over 1..6 max_n, either
    edge-probability or a tree of small blocks, and an excluded set that may
    name ids outside the graph. All drawn from one seeded generator."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if rng.random() < 0.3:
        h, _ = random_block_tree(rng, rng.randint(1, 10))
        h = h.induced(rng.sample(h.vertices, min(h.n, rng.randint(1, max_n))))
    else:
        h = random_graph(rng, rng.randint(1, max_n), rng.choice([0.05, 0.1, 0.2, 0.4]))
    ids = sorted(rng.sample(range(1, 6 * max_n + 1), h.n))
    name = dict(zip(h.vertices, ids))
    g = Graph(ids, [(name[u], name[v]) for u, v in h.edges()])
    exclude = set(rng.sample(range(1, 6 * max_n + 1), rng.randint(0, max_n)))
    return g, exclude & set(ids) if rng.random() < 0.5 else exclude


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(graphs_with_exclusions(max_n=30))
def test_vertex_stack_blocks_equal_the_edge_stack_list(case):
    g, exclude = case
    assert biconnected_blocks(g, exclude) == biconnected_blocks_edge_stack(g, exclude)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(graphs_with_exclusions(max_n=30))
def test_shared_neighbour_tuples_keep_the_block_order(case):
    # the second and third calls read the tuples the first one built
    g, exclude = case
    for dropped in (exclude, set(), set(g.vertices[::3]) | exclude):
        assert biconnected_blocks(g, dropped) == biconnected_blocks_vertex_stack(g, dropped)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(graphs_with_exclusions(max_n=30))
def test_blocks_within_a_vertex_set_equal_those_of_its_induced_copy(case):
    g, exclude = case
    kept = set(g.vertices) - exclude
    for within in (kept, set(g.vertices[::2]), set()):
        assert biconnected_blocks(g, within=within) == biconnected_blocks(g.induced(within))
        # `exclude` may name ids outside g and outside `within`
        assert biconnected_blocks(g, exclude, within) == biconnected_blocks(g.induced(within), exclude)


def test_blocks_within_a_set_naming_a_foreign_id_is_refused():
    g = two_triangles()
    with pytest.raises(ValueError, match=r"unknown vertices \[7, 9\]"):
        biconnected_blocks(g, within={1, 2, 7, 9})
    with pytest.raises(ValueError, match=r"unknown vertices \[7, 9\]"):
        g.induced({1, 2, 7, 9})


def test_blocks_of_a_graph_with_a_huge_vertex_id():
    # ids are unbounded ints >= 1, so no list may be indexed by an id
    big = 10 ** 12
    g = Graph([1, 5, big, big + 1], [(1, 5), (5, big), (1, big), (big, big + 1)])
    assert biconnected_blocks(g) == [frozenset({big, big + 1}), frozenset({1, 5, big})]
    assert biconnected_blocks(g, exclude=[5], within=[1, 5, big]) == [frozenset({1, big})]
    assert biconnected_blocks(g, within=[big + 1]) == [frozenset({big + 1})]


@st.composite
def blocks_and_deletions(draw, max_n: int):
    """A graph g, the blocks of g minus a first deletion set, and a second
    set Z built block by block: each block keeps all its vertices, loses one
    (a bridge loses an end, an edge's far end may be left isolated) or loses
    all of them. Z may also name ids the blocks do not hold."""
    g, first = draw(graphs_with_exclusions(max_n))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    blocks = biconnected_blocks(g, first)
    z = set(rng.sample(range(1, 6 * max_n + 1), rng.randint(0, 2)))
    for b in blocks:
        pick = rng.random()
        if pick < 0.15:
            z |= b
        elif pick < 0.45:
            z.add(rng.choice(sorted(b)))
    return g, first, blocks, z


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(blocks_and_deletions(max_n=30))
def test_carried_blocks_equal_a_fresh_decomposition(case):
    g, first, blocks, z = case
    out = blocks_without(g, blocks, z)
    assert len(out) == len(set(out))
    assert set(out) == set(biconnected_blocks(g, first | z))


def test_carried_blocks_copy_no_subgraph():
    # each remnant is decomposed within g, not in an induced copy
    rng = random.Random(8)
    g, _, x = chorded_block_tree(rng, 40)
    blocks = biconnected_blocks(g, [x])
    with mock.patch.object(Graph, "induced", autospec=True, side_effect=Graph.induced) as sub, \
            mock.patch("mwns.blockcut.biconnected_blocks", wraps=biconnected_blocks) as remnants:
        for _ in range(5):
            blocks = blocks_without(g, blocks, rng.sample(g.vertices, 3))
    assert sub.call_count == 0 and remnants.call_count >= 5
    assert all("within" in c.kwargs for c in remnants.call_args_list)


def test_carried_blocks_of_bridges_isolated_vertices_and_emptied_blocks():
    # triangle {1,2,3}, bridge 3-4, triangle {4,5,6}, pendant edge 6-7, isolated 8
    g = Graph(range(1, 9), [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (4, 6), (6, 7)])
    blocks = biconnected_blocks(g)
    cases = [
        ({4}, [{1, 2, 3}, {5, 6}, {6, 7}, {8}]),  # the bridge loses an end
        ({6}, [{1, 2, 3}, {3, 4}, {4, 5}, {7}, {8}]),  # 7 is left isolated
        ({4, 5, 6}, [{1, 2, 3}, {7}, {8}]),  # a whole block emptied
        ({3, 6}, [{1, 2}, {4, 5}, {7}, {8}]),
        ({8}, [{1, 2, 3}, {3, 4}, {4, 5, 6}, {6, 7}]),
        (set(range(1, 9)), []),
    ]
    for z, want in cases:
        out = blocks_without(g, blocks, z)
        assert sorted(map(sorted, out)) == sorted(map(sorted, want))
        assert set(out) == set(biconnected_blocks(g, z))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(graphs_with_exclusions(max_n=30), st.randoms(use_true_random=False))
def test_forest_from_shuffled_blocks_equals_a_fresh_forest(case, rng):
    g, exclude = case
    h = g.without(exclude)
    blocks = biconnected_blocks(h)
    rng.shuffle(blocks)
    f, fresh = block_cut_forest(h, blocks), block_cut_forest(h)
    assert f.sets == fresh.sets and f.cutv == fresh.cutv and f.parent == fresh.parent
    assert f.children == fresh.children and f.depth == fresh.depth and f.roots == fresh.roots


@st.composite
def forest_inputs(draw):
    """A graph and a shuffled block list to assemble a forest from: the
    blocks of a random graph less an exclusion set, of a chorded block tree
    less its pivot, or of a flower with or without its hubs; or blocks of a
    random graph or a chorded tree carried through a chain of
    `blocks_without`, in shuffled order at each link."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["random", "tree", "flower", "carried"]))
    if kind == "flower":
        g = rng.choice(FLOWERS).graph
        blocks = biconnected_blocks(g, rng.choice([(), (1, 2, 3)]))
    elif kind == "tree" or kind == "carried" and rng.random() < 0.5:
        g, _, x = chorded_block_tree(rng, rng.randint(1, 40))
        blocks = biconnected_blocks(g, [x])
    else:
        g, exclude = draw(graphs_with_exclusions(max_n=30))
        blocks = biconnected_blocks(g, exclude)
    if kind == "carried":
        for _ in range(rng.randint(1, 5)):
            rng.shuffle(blocks)
            blocks = blocks_without(g, blocks, rng.sample(g.vertices, min(g.n, rng.randint(1, 4))))
    rng.shuffle(blocks)
    return g, blocks


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(forest_inputs())
def test_forest_arrays_match_the_node_by_node_reference(case):
    g, blocks = case
    f, ref = block_cut_forest(g, list(blocks)), block_cut_forest_reference(g, list(blocks))
    assert [nd.id for nd in ref.nodes] == list(range(len(f.sets)))
    assert f.sets == [nd.vertices for nd in ref.nodes]
    assert f.cutv == [min(nd.vertices) if nd.kind == "cut" else None for nd in ref.nodes]
    assert (tuple(f.parent), tuple(map(tuple, f.children))) == (ref.parent, ref.children)
    assert (tuple(f.depth), tuple(f.roots)) == (ref.depth, ref.roots)
    assert f.index == ref.index and f.subtree_end == ref.subtree_end


def test_every_forest_the_pipeline_builds_owns_each_vertex_once():
    # the forest is its per-id lists and `index`: no node view is left, and
    # in each forest the blocker and the reduction build, `index` names each
    # vertex's one owner (its cut node, or else its only block) and each
    # node's root
    assert not any(hasattr(BlockCutForest, name)
                   for name in ("nodes", "node", "node_of_vertex", "is_cut_vertex"))
    rng = random.Random(77)
    trees = [chorded_block_tree(rng, 35) for _ in range(12)]
    L = 6000  # the pendant chain: path 2..L, pivot 1, terminals L+1, L+2
    chain = Graph(range(1, L + 3), [(v, v + 1) for v in range(2, L)]
                  + [(1, 2), (1, L + 1), (1, L + 2), (L, L + 1), (L, L + 2)])
    with mock.patch.object(BlockCutForest, "__init__", autospec=True,
                           side_effect=BlockCutForest.__init__) as made:
        iterations = sum(len(blocker_run(g, T, x).iterations) for g, T, x in trees)
        assert blocker_run(chain, {L + 1, L + 2}, 1).result == {L}
        for inst in FLOWERS:
            reduce_terminals(inst, {1, 2, 3})
    assert iterations > 24 and made.call_count > len(trees) + iterations
    for f in {id(c.args[0]): c.args[0] for c in made.call_args_list}.values():
        owner, root, verts, start = f.index
        holders: dict[int, list[int]] = {}
        for nid, s in enumerate(f.sets):
            for v in s:
                holders.setdefault(v, []).append(nid)
        assert owner.keys() == holders.keys() and sorted(verts) == sorted(holders)
        for v, nids in holders.items():
            assert owner[v] == (f.cut_nodes[v] if v in f.cut_nodes else nids[0])
            assert v in f.cut_nodes or len(nids) == 1
        # a parent walk per node would be quadratic on the chain's forest
        assert all(root[nid] == (nid if p is None else root[p]) for nid, p in enumerate(f.parent))
        assert [root[r] for r in f.roots] == list(f.roots)


@pytest.mark.parametrize("closed", [False, True])
def test_blocks_of_a_20000_vertex_path_and_cycle(closed):
    n = 20_000
    g = Graph(range(1, n + 1), [(v, v + 1) for v in range(1, n)] + [(n, 1)] * closed)
    blocks = biconnected_blocks(g)
    assert blocks == biconnected_blocks_edge_stack(g)
    assert blocks == ([frozenset(g.vertices)] if closed else
                      [frozenset((v, v + 1)) for v in range(n - 1, 0, -1)])
    # the path's forest is one tree of depth 2n - 4: a parent walk per node
    # would be quadratic, so the roots are walked at every 1000th node and the last
    f = block_cut_forest(g, blocks)
    check_index(g, f, walked=[*range(0, len(f.sets), 1000), len(f.sets) - 1])
    assert f.span_vertices([1, n]) == frozenset(g.vertices)
    assert f.span_vertices([2, n - 1]) == (frozenset(g.vertices) if closed else frozenset(range(2, n)))


def test_cut_vertex_deletion_changes_component_count():
    rng = random.Random(47)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), 0.35)
        forest = block_cut_forest(g)
        before = len(connected_components(g))
        for v in g.vertices:
            after = len(connected_components(g.without([v])))
            lost_isolated = 1 if not g.neighbors(v) else 0
            if v in forest.cut_nodes:
                assert after > before - lost_isolated
            else:
                assert after <= before


def test_forest_construction_is_deterministic():
    g = two_triangles()
    f1, f2 = block_cut_forest(g), block_cut_forest(g)
    assert f1.sets == f2.sets and f1.cutv == f2.cutv
    assert f1.parent == f2.parent and f1.roots == f2.roots


def test_every_root_is_a_block():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8), 0.3)
        f = block_cut_forest(g)
        assert all(f.cutv[r] is None for r in f.roots)
        for p, c in tree_edges(f):
            cut, block = (p, c) if f.cutv[p] is not None else (c, p)
            assert f.cutv[cut] is not None and f.cutv[block] is None  # one of each
            assert f.sets[cut] == {f.cutv[cut]} and f.cutv[cut] in f.sets[block]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.integers(1, 12), st.sampled_from([0.1, 0.2, 0.35]), st.integers(0, 10**6))
def test_roots_are_smallest_blocks_in_component_order_and_ids_pre_order(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    f = block_cut_forest(g)
    blocks = biconnected_blocks(g)
    comps = connected_components(g)  # ordered by smallest vertex
    assert len(f.roots) == len(comps)
    for r, comp in zip(f.roots, comps):
        assert f.sets[r] == min((b for b in blocks if b <= set(comp)), key=sorted)
    order = []  # a depth-first walk taking children in order
    for r in f.roots:
        stack = [r]
        while stack:
            nid = stack.pop()
            order.append(nid)
            stack.extend(reversed(f.children[nid]))
    assert order == list(range(len(f.sets)))


def check_index(g: Graph, f, walked=None) -> None:
    """f's vertex index against g: the owned slices partition V, each
    vertex's owner is its cut node or its only block, `root` agrees with
    a parent walk at the nodes `walked` (all by default), and a
    root's subtree holds its whole component."""
    owner, root, verts, start = f.index
    assert len(start) == len(f.sets) + 1 and start[0] == 0 and start[-1] == len(verts)
    assert all(lo <= hi for lo, hi in itertools.pairwise(start))
    assert len(verts) == len(g.vertices) and set(verts) == set(g.vertices)
    holders: dict[int, list[int]] = {}
    for nid, s in enumerate(f.sets):
        assert all(owner[v] == nid for v in verts[start[nid]:start[nid + 1]])
        for v in s:
            holders.setdefault(v, []).append(nid)
    for v in g.vertices:
        assert owner[v] == (f.cut_nodes[v] if v in f.cut_nodes else holders[v][0])
        assert f.cutv[owner[v]] is not None or holders[v] == [owner[v]]
    for nid in range(len(f.sets)) if walked is None else walked:
        top = nid
        while f.parent[top] is not None:
            top = f.parent[top]
        assert root[nid] == top
    comps = connected_components(g)  # by least vertex, as the trees come out
    assert [f.subtree_vertices(r) for r in f.roots] == [frozenset(c) for c in comps]


def test_vertex_lookups_and_subtrees_match_a_node_scan():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9), 0.3)
        f = block_cut_forest(g)
        check_index(g, f)
        index = f.index
        # one index, the forest's, which the reducer's record reads as it is
        assert _Record(g, frozenset(), frozenset(), f).f is f and f.index is index
        for v in g.vertices:
            scan = [nid for nid, (s, c) in enumerate(zip(f.sets, f.cutv)) if c is None and v in s]
            assert f.blocks_containing(v) == scan
            assert f.index.owner[v] == (f.cut_nodes[v] if v in f.cut_nodes else scan[0])
        assert f.blocks_containing(99) == [] and 99 not in f.index.owner
        for nid, s in enumerate(f.sets):  # a root first: its query fills the whole tree
            below = set(s)
            stack = list(f.children[nid])
            while stack:
                c = stack.pop()
                below |= f.sets[c]
                stack.extend(f.children[c])
            assert f.subtree_vertices(nid) == below


def test_path_through_vertex_in_block_four_cycle():
    g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4), (4, 1)])
    block = frozenset(range(1, 5))
    p_side, q_side = path_through_vertex_in_block(block, g, 1, 3, 2)
    assert p_side == [1, 2] and q_side == [3, 2]
    p_side, q_side = path_through_vertex_in_block(block, g, 1, 2, 3)
    assert p_side[-1] == 3 and q_side[-1] == 3
    assert set(p_side) & set(q_side) == {3}
    combined = p_side + q_side[-2::-1]
    assert combined[0] == 1 and combined[-1] == 2 and 3 in combined
    assert len(set(combined)) == len(combined)
    for a, b in zip(combined, combined[1:]):
        assert g.has_edge(a, b)


def test_path_through_vertex_in_block_k4_all_triples():
    g = Graph(range(1, 5), [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    block = frozenset(range(1, 5))
    for p, q, t in itertools.permutations(range(1, 5), 3):
        ps, qs = path_through_vertex_in_block(block, g, p, q, t)
        assert ps[0] == p and qs[0] == q and ps[-1] == qs[-1] == t
        assert set(ps) & set(qs) == {t}


def test_path_through_vertex_in_block_errors():
    g = Graph(range(1, 5), [(1, 2), (2, 3), (3, 4), (4, 1)])
    with pytest.raises(ValueError):
        path_through_vertex_in_block(frozenset({1, 2}), g, 1, 2, 3)
    with pytest.raises(ValueError):
        path_through_vertex_in_block(frozenset({1, 2, 3, 4}), g, 1, 1, 3)


def test_threaded_path_plain_chain():
    g = Graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5)])
    f = block_cut_forest(g)
    assert threaded_path(g, f, 2, 4) == [2, 3, 4]


def test_threaded_path_through_forced_interior_vertices():
    # two 4-cycles chained at 4: 1-2-3-4-1 and 4-5-6-7-4
    g = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 6), (6, 7), (7, 4)])
    # pendants turn 1 and 7 into cut vertices without merging the blocks
    gx = Graph(range(1, 10), g.edges() + [(1, 8), (7, 9)])
    f = block_cut_forest(gx)
    b1 = frozenset({1, 2, 3, 4})
    b2 = frozenset({4, 5, 6, 7})
    path = threaded_path(gx, f, 1, 7, forced=[(b1, 3), (b2, 6)])
    assert path[0] == 1 and path[-1] == 7
    assert 3 in path and 6 in path
    assert len(set(path)) == len(path)
    for a, b in zip(path, path[1:]):
        assert gx.has_edge(a, b)


def test_threaded_path_forced_pick_on_cut_vertex_is_noop():
    g = Graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5)])
    f = block_cut_forest(g)
    assert threaded_path(g, f, 2, 4, forced=[(frozenset({2, 3}), 3)]) == [2, 3, 4]


def test_threaded_path_rejects_bad_picks():
    g = Graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5)])
    f = block_cut_forest(g)
    with pytest.raises(ValueError):
        threaded_path(g, f, 2, 4, forced=[(frozenset({4, 5}), 5)])
    with pytest.raises(ValueError):
        threaded_path(g, f, 2, 3, forced=[(frozenset({2, 3}), 2), (frozenset({2, 3}), 3)])


def test_threaded_path_none_for_non_cut_or_split_endpoints():
    g = Graph(range(1, 8), [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7)])
    f = block_cut_forest(g)
    assert threaded_path(g, f, 1, 3) is None   # 1 is not a cut vertex
    assert threaded_path(g, f, 2, 6) is None   # different trees
