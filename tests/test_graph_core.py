"""Graph construction, canonical codes, enumeration, and tree constructions."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_isomorphic,
    cycle_graph,
    dfs_connected,
    path_graph,
    path_tree,
    rooted_level_sequences,
    star_graph,
    star_tree,
)
from treedist import (
    CaterpillarSpec,
    DisconnectedGraphError,
    DuplicateEdgeError,
    GraphError,
    LoopEdgeError,
    NotATreeError,
    Tree,
    VertexRangeError,
    attach_tree,
    bfs_distances,
    build_caterpillar,
    centroids,
    count_trees,
    enumerate_trees,
    format_edge_list,
    from_edge_list,
    is_connected,
    parse_edge_list,
    unit_edit_neighbors,
)
from treedist.graph_core import Graph, _canonical_code, _rooted_catalog, _rooted_code

# Free tree counts for n = 1..12, cross-checked against the Pruefer
# generate-and-dedup oracle for n <= 8 in test_acceptance.
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]


def relabel(g: Graph, perm: list[int]) -> Graph:
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges])


# ---------------------------------------------------------------------------
# from_edge_list / bfs
# ---------------------------------------------------------------------------


def test_from_edge_list_p2():
    g = from_edge_list(2, [(0, 1)])
    assert g.n == 2 and g.m == 1


def test_from_edge_list_p4_degrees():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert g.degrees == (1, 2, 2, 1)


def test_from_edge_list_rejects_loop():
    with pytest.raises(LoopEdgeError):
        from_edge_list(4, [(0, 1), (1, 1)])


def test_from_edge_list_rejects_duplicate_even_reversed():
    with pytest.raises(DuplicateEdgeError):
        from_edge_list(3, [(0, 1), (1, 0)])


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        from_edge_list(3, [(0, 3)])


def test_bfs_distances_path_and_star():
    assert bfs_distances(path_graph(4), 0) == (0, 1, 2, 3)
    assert bfs_distances(star_graph(3), 1) == (1, 0, 2, 2)


def test_bfs_distances_cycle():
    assert bfs_distances(cycle_graph(4), 0) == (0, 1, 2, 1)


def test_bfs_distances_disconnected_reports_unreachable():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError) as err:
        bfs_distances(g, 0)
    assert err.value.unreachable == {2, 3}


def test_tree_rejects_cycle_and_forest():
    with pytest.raises(NotATreeError):
        Tree(cycle_graph(4))
    with pytest.raises(NotATreeError):
        Tree(from_edge_list(4, [(0, 1), (2, 3)]))


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------


def larger_endpoints_cover(g: Graph) -> bool:
    """Whether every vertex 1..n-1 is the larger endpoint of some edge."""
    return {v for _, v in g.edges} >= set(range(1, g.n))


@st.composite
def simple_graphs(draw) -> Graph:
    # Sparse draws: around n edges, where an edge count says least about connectivity.
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    return from_edge_list(n, {(min(p), max(p)) for p in pairs if p[0] != p[1]})


TRIANGLE_AND_ISOLATED = from_edge_list(4, [(0, 1), (1, 2), (0, 2)])


@settings(max_examples=300, deadline=None)
@given(simple_graphs())
@example(TRIANGLE_AND_ISOLATED)
def test_is_connected_matches_dfs_oracle(g):
    assert is_connected(g) == dfs_connected(g)


def test_triangle_and_isolated_vertex_is_not_a_tree():
    g = TRIANGLE_AND_ISOLATED
    assert g.m == g.n - 1 and not larger_endpoints_cover(g)
    assert not is_connected(g)
    with pytest.raises(NotATreeError):
        Tree(g)


def test_path_with_uncovered_labels_is_connected():
    # The path 0-3-1-2: vertex 1 has no smaller neighbour, so the DFS decides.
    g = from_edge_list(4, [(0, 3), (3, 1), (1, 2)])
    assert not larger_endpoints_cover(g)
    assert is_connected(g)
    assert Tree(g).code == path_tree(4).code


def test_covered_labels_with_extra_edges_is_connected():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    assert larger_endpoints_cover(g)
    assert is_connected(g)
    with pytest.raises(NotATreeError):
        Tree(g)


# ---------------------------------------------------------------------------
# Canonical codes
# ---------------------------------------------------------------------------


def test_ahu_code_relabeling_invariance():
    p4 = path_tree(4)
    other = Tree(from_edge_list(4, [(2, 0), (0, 3), (3, 1)]))
    assert brute_force_isomorphic(p4.graph, other.graph)
    assert p4.code == other.code


def test_ahu_code_separates_path_from_star():
    assert path_tree(4).code != star_tree(3).code


def test_ahu_code_random_relabelings():
    rng = random.Random(20240811)
    for tree in enumerate_trees(8):
        perm = list(range(8))
        rng.shuffle(perm)
        assert Tree(relabel(tree.graph, perm)).code == tree.code


def test_ahu_code_complete_invariant_up_to_n7():
    # Oracle: permutation-based isomorphism on every same-order pair.
    for n in range(1, 8):
        trees = list(enumerate_trees(n))
        for a, b in itertools.combinations(trees, 2):
            assert not brute_force_isomorphic(a.graph, b.graph)
            assert a.code != b.code
        codes = {t.code for t in trees}
        assert len(codes) == len(trees)


def test_enumerated_codes_match_canonical_code():
    # Enumerated trees carry codes built from the rooted catalog; the
    # centroid-rooted walk over the edges is the oracle.
    for n in range(1, 15):
        for t in enumerate_trees(n):
            assert t.code == _canonical_code(t.graph)


def test_order_16_codes_are_distinct():
    assert len({t.code for t in enumerate_trees(16)}) == 19320


def test_eleven_distinct_codes_on_seven_vertices():
    codes = {t.code for t in enumerate_trees(7)}
    assert len(codes) == 11


def test_centroids():
    assert centroids(path_graph(5)) == (2,)
    assert centroids(path_graph(4)) == (1, 2)
    assert centroids(star_graph(5)) == (0,)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumeration_counts_1_to_12():
    for n, expected in enumerate(FREE_TREE_COUNTS, start=1):
        assert sum(1 for _ in enumerate_trees(n)) == expected


def test_count_trees_matches_enumeration():
    assert [count_trees(n) for n in range(1, 13)] == FREE_TREE_COUNTS
    for n in range(1, 15):
        assert count_trees(n) == sum(1 for _ in enumerate_trees(n))
    assert count_trees(16) == 19320


def test_count_trees_rejects_empty_order():
    with pytest.raises(GraphError):
        count_trees(0)


def test_rooted_catalog_matches_level_sequence_successor():
    # Oracle: the successor rule lists each size's canonical level sequences in decreasing order.
    catalog = _rooted_catalog(11)
    for k in range(1, 12):
        expected = list(rooted_level_sequences(k))
        assert [tuple(d - 1 for d in seq) for seq, _, _, _ in catalog[k]] == expected
        for seq, (_, edges, _, code) in zip(expected, catalog[k]):
            # A vertex's parent is the last earlier vertex one level up.
            parents = [max(j for j in range(i) if seq[j] == seq[i] - 1) for i in range(1, k)]
            assert sorted(edges) == sorted(zip(parents, range(1, k)))
            assert code == _rooted_code(Graph(k, tuple(sorted(edges))), 0)


def test_enumeration_small_orders_explicit():
    n4 = list(enumerate_trees(4))
    assert len(n4) == 2
    assert {t.code for t in n4} == {path_tree(4).code, star_tree(3).code}


def test_enumeration_emits_valid_trees_with_distinct_codes():
    for n in (6, 9, 11):
        seen = set()
        for t in enumerate_trees(n):
            assert t.n == n and t.graph.m == n - 1
            assert t.code not in seen
            seen.add(t.code)


def test_enumeration_deterministic():
    first = [t.edges for t in enumerate_trees(9)]
    second = [t.edges for t in enumerate_trees(9)]
    assert first == second


# ---------------------------------------------------------------------------
# Caterpillars and attachments
# ---------------------------------------------------------------------------


def test_caterpillar_2222_is_path6():
    t = build_caterpillar(CaterpillarSpec(2, 2, 2, 2))
    assert t.n == 6
    assert t.code == path_tree(6).code


def test_caterpillar_reference_orders():
    assert build_caterpillar(CaterpillarSpec(9, 4, 9, 4)).n == 24
    assert build_caterpillar(CaterpillarSpec(4, 16, 4, 4)).n == 26


def test_caterpillar_spine_degrees():
    rng = random.Random(7)
    specs = [(x, y, z, t) for x in range(1, 9) for y in (2, 5) for z in (2, 7) for t in (2, 6)]
    specs += [tuple(rng.randint(2, 20) for _ in range(4)) for _ in range(200)]
    for x, y, z, t in specs:
        tree = build_caterpillar(CaterpillarSpec(x, y, z, t))
        assert tree.graph.degrees[:4] == (x, y, z, t)
        assert tree.n == x + y + z + t - 2


def test_caterpillar_with_tail_degrees():
    tail = star_tree(3)
    tree = build_caterpillar(CaterpillarSpec(3, 4, 5, 6, tail=tail, tail_root=0))
    assert tree.graph.degrees[:4] == (3, 4, 5, 6)
    assert tree.n == 4 + 2 + 2 + 3 + 4 + tail.n


def test_caterpillar_invalid_spec():
    with pytest.raises(GraphError):
        CaterpillarSpec(0, 2, 2, 2)
    with pytest.raises(GraphError):
        CaterpillarSpec(2, 1, 2, 2)


def test_attach_path_to_path_end_gives_path():
    t = attach_tree(path_tree(3), 2, path_tree(2), 0)
    assert t.code == path_tree(5).code


def test_attach_star_center_to_path_end():
    t = attach_tree(path_tree(2), 1, star_tree(3), 0)
    assert tuple(sorted(t.graph.degrees, reverse=True)) == (4, 2, 1, 1, 1, 1)


def test_attach_leaf_to_path_interior():
    t = attach_tree(path_tree(4), 1, Tree(Graph(1, ())), 0)
    assert tuple(sorted(t.graph.degrees, reverse=True)) == (3, 2, 1, 1, 1)


def test_attach_preserves_treeness_randomized():
    rng = random.Random(99)
    pool = list(enumerate_trees(6)) + list(enumerate_trees(7))
    for _ in range(50):
        host, sub = rng.choice(pool), rng.choice(pool)
        at, root = rng.randrange(host.n), rng.randrange(sub.n)
        joined = attach_tree(host, at, sub, root)
        assert joined.n == host.n + sub.n
        assert joined.graph.m == joined.n - 1
        degs_before = host.graph.degrees[at], sub.graph.degrees[root]
        assert joined.graph.degrees[at] == degs_before[0] + 1
        assert joined.graph.degrees[host.n + root] == degs_before[1] + 1


def test_attach_rejects_bad_vertices():
    with pytest.raises(VertexRangeError):
        attach_tree(path_tree(3), 5, path_tree(2), 0)


# ---------------------------------------------------------------------------
# Unit edits
# ---------------------------------------------------------------------------


def test_unit_edit_neighbors_p3():
    neighbors = list(unit_edit_neighbors(path_graph(3)))
    assert len(neighbors) == 1
    assert neighbors[0].m == 3  # the triangle


def test_unit_edit_neighbors_c4():
    neighbors = list(unit_edit_neighbors(cycle_graph(4)))
    assert len(neighbors) == 6
    assert sum(1 for h in neighbors if h.m == 3) == 4
    assert sum(1 for h in neighbors if h.m == 5) == 2
    assert len({h.edges for h in neighbors}) == 6


def test_unit_edit_neighbors_k3():
    k3 = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    neighbors = list(unit_edit_neighbors(k3))
    assert len(neighbors) == 3
    assert all(h.m == 2 for h in neighbors)


def test_unit_edit_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        list(unit_edit_neighbors(from_edge_list(3, [(0, 1)])))


# ---------------------------------------------------------------------------
# Edge-list format
# ---------------------------------------------------------------------------


def test_edge_list_round_trip():
    for tree in enumerate_trees(7):
        back = parse_edge_list(format_edge_list(tree.graph))
        assert Tree(back).code == tree.code


def test_parse_edge_list_errors():
    with pytest.raises(GraphError):
        parse_edge_list("")
    with pytest.raises(GraphError):
        parse_edge_list("2 1\n")
    with pytest.raises(GraphError):
        parse_edge_list("nope\n")
    with pytest.raises(LoopEdgeError):
        parse_edge_list("2 1\n1 1\n")
