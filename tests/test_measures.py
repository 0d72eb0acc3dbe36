"""Distance measure, dominance reduction, and the edit-distance/entropy bounds."""

from __future__ import annotations

import math
import random
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cycle_graph, path_graph
from treedist import (
    BridgeEdgeError,
    WIENER_GAP_COEFF,
    avg_distance_increase,
    d_index,
    dominates,
    theorem1_a,
    theorem1_bound,
    theorem1_degeneracy,
    theorem3_bound,
    wiener_deletion_gap,
)
from treedist.graph_core import from_edge_list


# ---------------------------------------------------------------------------
# d_index
# ---------------------------------------------------------------------------


def test_d_index_zero_gap():
    assert d_index(5.0, 5.0, 1.0).distance == 0.0


def test_d_index_unit_ratio():
    expected = 1.0 - math.exp(-1.0)
    assert d_index(1.0, 0.0, 1.0).distance == pytest.approx(expected, abs=1e-15)
    assert d_index(3.0, 1.0, 2.0).distance == pytest.approx(expected, abs=1e-15)


def test_d_index_symmetry_and_fields():
    r1 = d_index(2.0, 7.0, 3.0, kind="W")
    r2 = d_index(7.0, 2.0, 3.0, kind="W")
    assert r1.distance == r2.distance and r1.gap == r2.gap == 5.0
    assert r1.kind == "W"


def test_d_index_stays_below_one():
    r = d_index(1e9, 0.0, 1.0)
    assert 0.0 < r.distance < 1.0
    assert r.distance == math.nextafter(1.0, 0.0)


def test_d_index_validation():
    with pytest.raises(ValueError):
        d_index(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        d_index(1.0, 0.0, -2.0)
    with pytest.raises(ValueError):
        d_index(math.inf, 0.0, 1.0)


def test_d_index_tiny_gap_is_positive():
    assert d_index(1e-9, 0.0, 1.0).distance > 0.0


# ---------------------------------------------------------------------------
# dominates (sigma-free reduction)
# ---------------------------------------------------------------------------


def test_dominates_examples():
    assert not dominates(0.0, 0.3)
    assert dominates(2.0, 2.0)
    assert dominates(0.5, 0.4)
    for sigma in (0.1, 1.0, 10.0):
        assert d_index(0.5, 0.0, sigma).distance >= d_index(0.4, 0.0, sigma).distance


def test_dominates_rejects_negative():
    with pytest.raises(ValueError):
        dominates(-0.1, 0.2)


def test_sigma_free_reduction_randomized():
    rng = random.Random(42)
    for _ in range(1000):
        gap_a = rng.uniform(0.0, 4.0)
        gap_b = rng.uniform(0.0, 4.0)
        sigma = rng.uniform(1.0, 10.0)
        da = d_index(gap_a, 0.0, sigma).distance
        db = d_index(gap_b, 0.0, sigma).distance
        if gap_a > gap_b:
            assert da > db
        elif gap_a < gap_b:
            assert da < db
        else:
            assert da == db
        assert dominates(gap_a, gap_b) == (da >= db)


# Gaps below sqrt(denormal) square to 0.0 and collapse d_index ties, so the
# strategy mixes exact zero with gaps the squaring can represent.
_gap = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=4.0))


# Distinct gaps can round to one distance (3.9999999999999996 and 4.0 do for
# sigma in {0.5, 1, 2}), so only the two implications hold in floats; the
# exact gap comparison stays the verdict.
@settings(max_examples=300, deadline=None)
@given(_gap, _gap, st.floats(min_value=0.5, max_value=20.0))
@example(3.9999999999999996, 4.0, 1.0)
def test_dominates_matches_d_index_order(gap_a, gap_b, sigma):
    da = d_index(gap_a, 0.0, sigma).distance
    db = d_index(gap_b, 0.0, sigma).distance
    if dominates(gap_a, gap_b):
        assert da >= db
    if da > db:
        assert dominates(gap_a, gap_b)


# ---------------------------------------------------------------------------
# Theorem 1: the bound constant and its degeneracy
# ---------------------------------------------------------------------------


def test_theorem1_a_derived_values():
    assert theorem1_a([1.0]) == pytest.approx(2 * math.log(2), abs=1e-9)
    assert theorem1_a([0.5, 0.5]) == pytest.approx(math.log(3) + 2 * math.log(1.5), abs=1e-9)
    assert theorem1_a([0.25] * 4) == pytest.approx(math.log(5) + 4 * math.log(1.25), abs=1e-9)


def test_theorem1_a_rejects_zero_entry():
    with pytest.raises(ValueError):
        theorem1_a([1.0, 0.0])
    with pytest.raises(ValueError):
        theorem1_a([0.3, 0.3])


def test_theorem1_bound_matches_d_index():
    a = theorem1_a([0.5, 0.5])
    assert theorem1_bound([0.5, 0.5], 2.0) == pytest.approx(
        1.0 - math.exp(-(a / 2.0) ** 2), abs=1e-12
    )


def _random_probability_vector(rng: random.Random, size: int) -> list[float]:
    raw = [rng.uniform(0.01, 1.0) for _ in range(size)]
    total = math.fsum(raw)
    return [x / total for x in raw]


def test_theorem1_degeneracy_examples():
    assert theorem1_degeneracy([0.3, 0.7], [0.3, 0.7])
    assert not theorem1_degeneracy([0.3, 0.7], [0.4, 0.6])


def test_theorem1_degeneracy_accepts_only_equal_vectors():
    rng = random.Random(20240810)
    accepted = 0
    for trial in range(2000):
        size = rng.randint(1, 8)
        p = _random_probability_vector(rng, size)
        if trial % 3 == 0:
            q = list(p)
        elif trial % 3 == 1:
            q = [x + rng.uniform(-5e-14, 5e-14) for x in p]
        else:
            q = _random_probability_vector(rng, size)
        try:
            ok = theorem1_degeneracy(p, q)
        except ValueError:
            continue
        if ok:
            accepted += 1
            assert max(abs(a - b) for a, b in zip(p, q)) <= 1e-12
    assert accepted > 100


def test_theorem1_degeneracy_rejects_non_probability():
    with pytest.raises(ValueError):
        theorem1_degeneracy([0.5, 0.6], [0.5, 0.5])


# ---------------------------------------------------------------------------
# Wiener deletion gap and the cubic bound
# ---------------------------------------------------------------------------


def _cycle_wiener(n: int) -> int:
    return n**3 // 8 if n % 2 == 0 else n * (n * n - 1) // 8


def test_wiener_deletion_gap_examples():
    assert wiener_deletion_gap(cycle_graph(4), (0, 1)) == 2
    k3 = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert wiener_deletion_gap(k3, (0, 1)) == 1
    assert wiener_deletion_gap(cycle_graph(5), (0, 1)) == 5


def test_wiener_deletion_gap_cycles_closed_form():
    # W(C_n) and W(P_n) both have closed forms; the gap must match them.
    for n in range(3, 9):
        expected = comb(n + 1, 3) - _cycle_wiener(n)
        assert wiener_deletion_gap(cycle_graph(n), (0, 1)) == expected


def test_wiener_deletion_gap_rejects_bridge():
    with pytest.raises(BridgeEdgeError):
        wiener_deletion_gap(path_graph(4), (1, 2))


def test_wiener_deletion_gap_random_connected_graphs():
    from treedist import is_connected

    rng = random.Random(314)
    checked = 0
    for _ in range(60):
        n = rng.randint(4, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, rng.randint(n, min(len(pairs), 2 * n)))
        g = from_edge_list(n, edges)
        if not is_connected(g):
            continue
        for edge in g.edges:
            if is_connected(g.delete_edge(*edge)):
                assert wiener_deletion_gap(g, edge) >= 1
                checked += 1
    assert checked > 100


def test_avg_distance_increase():
    assert avg_distance_increase(cycle_graph(4), (0, 1)) == pytest.approx(2 / 6, abs=1e-12)


def test_theorem3_bound_small_x_expansion():
    bound = theorem3_bound(2, 1e6)
    expected = (WIENER_GAP_COEFF * 8 / 1e6) ** 2
    assert bound == pytest.approx(expected, rel=1e-6)
    assert expected == pytest.approx(3.0502e-13, rel=1e-3)


def test_theorem3_coefficient():
    assert WIENER_GAP_COEFF == pytest.approx(0.069036, abs=1e-6)


def test_theorem3_bound_monotone_in_n():
    values = [theorem3_bound(n, 50.0) for n in range(2, 51)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_theorem3_bound_validation():
    with pytest.raises(ValueError):
        theorem3_bound(1, 1.0)
    with pytest.raises(ValueError):
        theorem3_bound(5, 0.0)
