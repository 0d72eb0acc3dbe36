"""Topological index values against closed forms and independent strategies."""

from __future__ import annotations

import math
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_graph, path_graph, star_graph
from treedist import (
    TAU_ZERO,
    DisconnectedGraphError,
    Graph,
    GraphError,
    Tree,
    avg_distance,
    bfs_distances,
    char_poly,
    eigenvalues,
    energy,
    enumerate_trees,
    from_edge_list,
    ifk_entropy,
    ig_entropy,
    randic,
    shannon_entropy,
    spectra,
    wiener,
)


# ---------------------------------------------------------------------------
# Wiener
# ---------------------------------------------------------------------------


def test_wiener_examples():
    assert wiener(path_graph(4)) == 10
    assert wiener(star_graph(3)) == 9
    assert wiener(path_graph(5)) == 20


def test_wiener_paths_closed_form():
    for n in range(2, 11):
        assert wiener(path_graph(n)) == comb(n + 1, 3)


def test_wiener_stars_closed_form():
    # K_{1,q}: q edges at distance 1 plus C(q, 2) leaf pairs at distance 2.
    for q in range(2, 11):
        assert wiener(star_graph(q)) == q + 2 * comb(q, 2)


def test_wiener_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        wiener(from_edge_list(4, [(0, 1), (2, 3)]))


def test_wiener_strategies_agree_on_all_trees_up_to_12():
    for n in range(2, 13):
        for tree in enumerate_trees(n):
            assert wiener(tree) == wiener(Graph(tree.n, tree.edges))


def test_graph_functions_take_a_tree():
    # A tree is a graph: each function gives on it what it gives on the same edges.
    for n in range(2, 10):
        trees = list(enumerate_trees(n))
        graphs = [Graph(t.n, t.edges) for t in trees]
        assert spectra(trees) == spectra(graphs)
        for t, g in zip(trees, graphs):
            assert wiener(t) == wiener(g)
            assert randic(t) == randic(g)
            assert char_poly(t) == char_poly(g)
            assert bfs_distances(t, n - 1) == bfs_distances(g, n - 1)


# ---------------------------------------------------------------------------
# Randic
# ---------------------------------------------------------------------------


def test_randic_stars():
    for q in range(2, 13):
        assert randic(star_graph(q)) == pytest.approx(math.sqrt(q), abs=1e-12)


def test_randic_paths():
    assert randic(path_graph(3)) == pytest.approx(math.sqrt(2), abs=1e-12)
    assert randic(path_graph(4)) == pytest.approx(0.5 + math.sqrt(2), abs=1e-12)
    for n in range(3, 13):
        assert randic(path_graph(n)) == pytest.approx((n - 3) / 2 + math.sqrt(2), abs=1e-12)


def test_randic_rejects_isolated_vertex():
    with pytest.raises(GraphError):
        randic(from_edge_list(3, [(0, 1)]))


# ---------------------------------------------------------------------------
# Energy and spectral entropy
# ---------------------------------------------------------------------------


def test_energy_examples():
    assert energy(from_edge_list(2, [(0, 1)])) == pytest.approx(2.0, abs=1e-10)
    assert energy(star_graph(3)) == pytest.approx(2 * math.sqrt(3), abs=1e-10)
    assert energy(path_graph(4)) == pytest.approx(2 * math.sqrt(5), abs=1e-10)


def test_energy_is_twice_positive_part_on_trees():
    for n in range(2, 11):
        for tree in enumerate_trees(n):
            spec = eigenvalues(tree)
            positive = sum(v for v in spec.values if v > 0)
            assert abs(spec.abs_sum() - 2 * positive) <= 1e-9


def test_ig_entropy_p2_is_log2():
    assert ig_entropy(from_edge_list(2, [(0, 1)])) == pytest.approx(math.log(2), abs=1e-10)


def test_ig_entropy_stars_equal_log2_any_base():
    for q in range(2, 13):
        assert ig_entropy(star_graph(q)) == pytest.approx(math.log(2), abs=1e-9)
    assert ig_entropy(star_graph(5), log_base=2.0) == pytest.approx(1.0, abs=1e-9)


def _ig_inline(g, log_base):
    """The spectral entropy formula as ig_entropy once evaluated it inline."""
    spec = eigenvalues(g)
    e_total = spec.abs_sum()
    weighted = sum(abs(v) * math.log(abs(v)) for v in spec.values if abs(v) > TAU_ZERO)
    return (math.log(e_total) - weighted / e_total) / math.log(log_base)


@pytest.mark.parametrize("log_base", [math.e, 2.0], ids=["e", "2"])
def test_ig_entropy_matches_inline_formula_bit_for_bit(log_base):
    graphs = [t for n in range(2, 10) for t in enumerate_trees(n)] + [cycle_graph(4)]
    for g in graphs:
        expected = _ig_inline(g, log_base)
        assert ig_entropy(g, log_base) == expected
        if log_base == math.e:
            # The searches read Spectrum.entropy directly at the default base.
            assert eigenvalues(g).entropy() == expected


def test_ig_entropy_rejects_edgeless():
    with pytest.raises(GraphError):
        ig_entropy(from_edge_list(2, []))


# ---------------------------------------------------------------------------
# Degree-power entropy
# ---------------------------------------------------------------------------


def test_ifk_entropy_examples():
    assert ifk_entropy(path_graph(4), 1) == pytest.approx(
        math.log(6) - 4 * math.log(2) / 6, abs=1e-12
    )
    assert ifk_entropy(star_graph(3), 1) == pytest.approx(
        math.log(6) - 3 * math.log(3) / 6, abs=1e-12
    )


def test_ifk_entropy_depends_only_on_degree_multiset():
    rng = random.Random(5)
    trees = list(enumerate_trees(8))
    by_degrees: dict[tuple[int, ...], list[Tree]] = {}
    for t in trees:
        by_degrees.setdefault(tuple(sorted(t.degrees)), []).append(t)
    groups = [g for g in by_degrees.values() if len(g) > 1]
    assert groups, "expected degree-multiset collisions at n=8"
    for group in groups:
        for k in range(1, 6):
            values = {round(ifk_entropy(t, k), 12) for t in group}
            assert len(values) == 1
    # relabeling invariance
    for t in rng.sample(trees, 5):
        perm = list(range(t.n))
        rng.shuffle(perm)
        relabeled = from_edge_list(t.n, [(perm[u], perm[v]) for u, v in t.edges])
        for k in (1, 3):
            assert ifk_entropy(relabeled, k) == pytest.approx(
                ifk_entropy(t, k), abs=1e-12
            )


def test_ifk_entropy_errors():
    with pytest.raises(GraphError):
        ifk_entropy(path_graph(4), 0)
    with pytest.raises(GraphError):
        ifk_entropy(from_edge_list(3, []), 1)


# ---------------------------------------------------------------------------
# Shannon entropy
# ---------------------------------------------------------------------------


def test_shannon_entropy_examples():
    assert shannon_entropy([1.0]) == 0.0
    assert shannon_entropy([0.5, 0.5], log_base=2.0) == pytest.approx(1.0, abs=1e-12)
    assert shannon_entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)


def test_shannon_entropy_zero_terms_contribute_nothing():
    assert shannon_entropy([0.5, 0.5, 0.0]) == pytest.approx(math.log(2), abs=1e-12)


def test_shannon_entropy_rejects_bad_vectors():
    with pytest.raises(ValueError):
        shannon_entropy([0.5, -0.5, 1.0])
    with pytest.raises(ValueError):
        shannon_entropy([0.5, 0.6])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=12))
def test_shannon_entropy_bounded_by_log_n(raw):
    total = math.fsum(raw)
    p = [x / total for x in raw]
    h = shannon_entropy(p)
    assert h <= math.log(len(p)) + 1e-12
    uniform = [1.0 / len(p)] * len(p)
    assert shannon_entropy(uniform) == pytest.approx(math.log(len(p)), abs=1e-12)


# ---------------------------------------------------------------------------
# Average distance
# ---------------------------------------------------------------------------


def test_avg_distance_examples():
    assert avg_distance(from_edge_list(2, [(0, 1)])) == pytest.approx(1.0)
    assert avg_distance(cycle_graph(4)) == pytest.approx(8 / 6, abs=1e-12)
    assert avg_distance(path_graph(4)) == pytest.approx(10 / 6, abs=1e-12)


def test_avg_distance_errors():
    with pytest.raises(GraphError):
        avg_distance(from_edge_list(1, []))
    with pytest.raises(DisconnectedGraphError):
        avg_distance(from_edge_list(4, [(0, 1), (2, 3)]))
