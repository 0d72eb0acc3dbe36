"""Eigenvalues, exact characteristic polynomials, and cospectrality."""

from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cycle_graph,
    dense_char_poly,
    path_graph,
    path_tree,
    prufer_decode,
    root_residual_ok,
    scalar_jacobi_eigenvalues,
    star_graph,
    star_tree,
)
from treedist import Graph, GraphError, Tree, char_poly, eigenvalues, enumerate_trees, spectra
from treedist import spectral
from treedist.graph_core import centroids, from_edge_list

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def test_eigenvalues_p2():
    spec = eigenvalues(from_edge_list(2, [(0, 1)]))
    assert spec.values == pytest.approx((1.0, -1.0), abs=1e-10)


def test_eigenvalues_star():
    spec = eigenvalues(star_graph(3))
    assert spec.values == pytest.approx((math.sqrt(3), 0.0, 0.0, -math.sqrt(3)), abs=1e-10)


def test_eigenvalues_p4_golden_ratio():
    spec = eigenvalues(path_graph(4))
    assert spec.values == pytest.approx((PHI, PHI - 1.0, 1.0 - PHI, -PHI), abs=1e-10)


def test_eigenvalues_accuracy_against_exact_roots():
    # Oracle: exact real roots of the integer char poly, evaluated to 30 digits.
    lam = sympy.symbols("lam")
    for tree in enumerate_trees(8):
        coeffs = char_poly(tree)
        poly = sympy.Poly(sum(int(c) * lam**i for i, c in enumerate(coeffs)), lam)
        exact = sorted((float(r.evalf(30)) for r in sympy.real_roots(poly)), reverse=True)
        computed = eigenvalues(tree).values
        assert max(abs(a - b) for a, b in zip(exact, computed)) <= 1e-10


def _path_char_poly_coeffs(n: int) -> tuple[int, ...]:
    # Transfer recurrence p_n = lam * p_{n-1} - p_{n-2}, p_0 = 1, p_1 = lam.
    prev = [1]
    cur = [0, 1]
    for _ in range(n - 1):
        shifted = [0] + cur
        nxt = [a - b for a, b in zip(shifted, prev + [0] * (len(shifted) - len(prev)))]
        prev, cur = cur, nxt
    return tuple(cur)


def test_char_poly_p2():
    assert char_poly(from_edge_list(2, [(0, 1)])) == (-1, 0, 1)


def test_char_poly_star_k13():
    assert char_poly(star_graph(3)) == (0, 0, -3, 0, 1)


def test_char_poly_p4():
    assert char_poly(path_graph(4)) == (1, 0, -3, 0, 1)


def test_char_poly_paths_match_transfer_recurrence():
    for n in range(2, 11):
        assert char_poly(path_graph(n)) == _path_char_poly_coeffs(n)


def test_char_poly_stars_closed_form():
    # K_{1,q}: lam^(q+1) - q * lam^(q-1)
    for q in range(2, 9):
        expected = [0] * (q + 2)
        expected[q + 1] = 1
        expected[q - 1] = -q
        assert char_poly(star_graph(q)) == tuple(expected)


def test_char_poly_structural_coefficients():
    for n in range(2, 9):
        for tree in enumerate_trees(n):
            coeffs = char_poly(tree)
            assert coeffs[n] == 1
            assert coeffs[n - 1] == 0
            assert coeffs[n - 2] == -(n - 1)


def test_spectrum_invariants_trees_up_to_10():
    for n in range(2, 11):
        for tree in enumerate_trees(n):
            spec = eigenvalues(tree)
            vals = spec.values
            assert abs(sum(vals)) <= 1e-9
            assert abs(sum(v * v for v in vals) - 2 * (n - 1)) <= 1e-9
            mirrored = sorted(-v for v in vals)
            assert max(abs(a - b) for a, b in zip(sorted(vals), mirrored)) <= 1e-9


def test_eigenvalues_are_char_poly_roots():
    for n in range(2, 11):
        for tree in enumerate_trees(n):
            coeffs = char_poly(tree)
            for v in eigenvalues(tree).values:
                assert root_residual_ok(coeffs, v)


def test_cospectral_isomorphic_relabeling():
    p4 = path_graph(4)
    other = from_edge_list(4, [(2, 0), (0, 3), (3, 1)])
    assert char_poly(p4) == char_poly(other)


def test_cospectral_rejects_distinct_trees():
    assert char_poly(path_graph(4)) != char_poly(star_graph(3))
    assert char_poly(path_graph(5)) != char_poly(star_graph(4))


def test_isomorphic_enumerated_trees_cospectral_by_code():
    # Same canonical code would mean same tree; spot-check the contrapositive
    # direction on an exact collision census instead: the smallest
    # non-isomorphic cospectral tree pair lives at n = 8, and orders below
    # have none.
    census = {}
    for n in range(4, 10):
        buckets: dict[tuple[int, ...], int] = {}
        for tree in enumerate_trees(n):
            key = char_poly(tree)
            buckets[key] = buckets.get(key, 0) + 1
        census[n] = sum(c * (c - 1) // 2 for c in buckets.values())
    assert census == {4: 0, 5: 0, 6: 0, 7: 0, 8: 1, 9: 5}


def _oracle_graphs_by_order():
    """Every tree on 2..11 vertices, plus C4, K4 and a forest with an isolated vertex."""
    graphs = {n: [t for t in enumerate_trees(n)] for n in range(2, 12)}
    graphs[4] += [cycle_graph(4), from_edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])]
    graphs[5].append(from_edge_list(5, [(0, 1), (1, 2), (1, 3)]))
    return graphs


def _bits(values) -> tuple[bytes, bytes]:
    array = np.asarray(values, dtype=np.float64)
    return array.tobytes(), np.signbit(array).tobytes()


def test_spectra_match_scalar_jacobi_bit_for_bit():
    for n, graphs in _oracle_graphs_by_order().items():
        for g, spec in zip(graphs, spectra(graphs), strict=True):
            assert spec.n == n
            assert _bits(spec.values) == _bits(scalar_jacobi_eigenvalues(g)), g.edges


def test_eigenvalues_is_a_stack_of_one():
    for n in range(1, 10):
        graphs = [t for t in enumerate_trees(n)]
        assert [_bits(eigenvalues(g).values) for g in graphs] == [_bits(s.values) for s in spectra(graphs)]


def test_eigenvalues_of_edgeless_graphs_are_positive_zeros():
    for n in range(1, 6):
        spec = eigenvalues(from_edge_list(n, []))
        assert spec.n == n
        assert _bits(spec.values) == _bits([0.0] * n)
    with pytest.raises(GraphError):
        eigenvalues(from_edge_list(0, []))


def test_spectra_blocks_do_not_change_bits(monkeypatch):
    graphs = [t for t in enumerate_trees(9)]
    whole = [_bits(s.values) for s in spectra(graphs)]
    # Blocks of 5 matrices: 47 trees make ten blocks, the last one short.
    monkeypatch.setattr(spectral, "STACK_BYTES", 5 * 8 * 9 * 9)
    assert [_bits(s.values) for s in spectra(graphs)] == whole


def test_spectra_edge_cases():
    assert spectra([]) == []
    with pytest.raises(GraphError):
        spectra([path_graph(4), path_graph(5)])
    with pytest.raises(GraphError):
        spectra([from_edge_list(0, [])])


def _faddeev_leverrier_graphs() -> list[Graph]:
    """Graphs that are not ``Tree`` objects, so ``char_poly`` takes Faddeev-LeVerrier.

    C3..C10, K2..K6, every tree on 3..7 vertices plus each missing edge
    (unicyclic), and the forest P3 + P4.
    """
    graphs = [cycle_graph(n) for n in range(3, 11)]
    graphs += [from_edge_list(n, combinations(range(n), 2)) for n in range(2, 7)]
    for n in range(3, 8):
        for t in enumerate_trees(n):
            graphs += [from_edge_list(n, t.edges + (e,)) for e in combinations(range(n), 2) if e not in t.edges]
    graphs.append(from_edge_list(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)]))
    return graphs


def test_char_poly_matches_dense_oracle():
    # Trees take the matching recurrence; every other graph takes Faddeev-LeVerrier.
    for graphs in _oracle_graphs_by_order().values():
        for g in graphs:
            assert char_poly(g) == dense_char_poly(g), g.edges
    for g in _faddeev_leverrier_graphs():
        assert not isinstance(g, Tree)
        assert char_poly(g) == dense_char_poly(g), (g.n, g.edges)


def _as_graph(t: Tree) -> Graph:
    """The same edges as a plain ``Graph``, whose ``char_poly`` is Faddeev-LeVerrier."""
    return Graph(t.n, t.edges)


def test_tree_char_poly_matches_faddeev_leverrier():
    for n in range(1, 13):
        for t in enumerate_trees(n):
            assert char_poly(t) == char_poly(_as_graph(t)), t.edges
    for t in random.Random(16).sample(list(enumerate_trees(16)), 200):
        assert char_poly(t) == char_poly(_as_graph(t)), t.edges


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=24).flatmap(
        lambda n: st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n - 2, max_size=n - 2)
    )
)
def test_tree_char_poly_matches_faddeev_leverrier_on_prufer_trees(seq):
    # Labelled trees: the recurrence roots at vertex 0, wherever 0 sits in the tree.
    t = Tree(len(seq) + 2, prufer_decode(tuple(seq), len(seq) + 2))
    assert char_poly(t) == char_poly(_as_graph(t))


def _double_star(a: int, b: int) -> Tree:
    """Adjacent centres 0 and 1 with ``a`` and ``b`` leaves."""
    edges = [(0, 1)] + [(0, 2 + i) for i in range(a)] + [(1, 2 + a + i) for i in range(b)]
    return Tree(a + b + 2, tuple(sorted(edges)))


# Two different rooted halves of 8 vertices, roots 0 and 8, joined by an edge:
# a spider with legs 3, 2, 2 and a broom (path 8-9-10 ending in five leaves).
_SPIDER = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (0, 6), (6, 7)]
_BROOM = [(8, 9), (9, 10)] + [(10, v) for v in range(11, 16)]
_BICENTROIDAL = Tree(16, tuple(sorted(_SPIDER + [(0, 8)] + _BROOM)))


def _sympy_char_poly(g: Graph) -> tuple[int, ...]:
    a = sympy.zeros(g.n, g.n)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1
    return tuple(int(c) for c in reversed(a.charpoly().all_coeffs()))


@pytest.mark.parametrize(
    "tree",
    [path_tree(16), star_tree(15), _double_star(6, 8), _BICENTROIDAL],
    ids=["P16", "K1,15", "double-star-6-8", "bicentroidal-16"],
)
def test_tree_char_poly_matches_sympy(tree):
    assert char_poly(tree) == _sympy_char_poly(tree)


def test_bicentroidal_named_tree_has_two_centroids():
    assert centroids(_BICENTROIDAL) == (0, 8)


def test_char_poly_single_vertex_tree():
    assert char_poly(Tree(1, ())) == (0, 1)
