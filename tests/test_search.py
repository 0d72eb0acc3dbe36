"""Conjecture verification, collision searches, and construction identities."""

from __future__ import annotations

import ast
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path_tree
from treedist import (
    GraphError,
    Tree,
    attach_tree,
    caterpillar_r_core,
    caterpillar_r_core_exact,
    caterpillar_scan,
    check_wiener_preserving_attachment,
    count_trees,
    d_index,
    enumerate_trees,
    equienergetic_scan,
    fig1_randic_gap,
    find_equal_wiener_pairs,
    from_edge_list,
    ifk_entropy,
    randic,
    smallest_equal_wiener_order,
    verify_conjecture,
    verify_conjecture_detail,
    wiener,
)
from treedist import search
from treedist.graph_core import CaterpillarSpec, build_caterpillar
from treedist.indices import energy, ig_entropy
from treedist.search import CONJECTURE_INDEX_PAIRS, ViolationRecord


def _quad(label: str) -> tuple[int, ...]:
    return tuple(ast.literal_eval(label[1:]))


def _tree_by_code(n: int, code_hex: str) -> Tree:
    for t in enumerate_trees(n):
        if t.code_hex == code_hex:
            return t
    raise AssertionError(f"no tree with code {code_hex} at n={n}")


# ---------------------------------------------------------------------------
# verify_conjecture
# ---------------------------------------------------------------------------


def test_conjecture1_n4_no_violation():
    trees = list(enumerate_trees(4))
    w = sorted(wiener(t) for t in trees)
    r = sorted(randic(t) for t in trees)
    assert w == [9, 10]
    assert abs(r[1] - r[0]) == pytest.approx(0.5 + math.sqrt(2) - math.sqrt(3), abs=1e-12)
    assert verify_conjecture(1, 4) == []


def test_conjecture3_n4_no_violation():
    trees = list(enumerate_trees(4))
    r = [randic(t) for t in trees]
    f = [ifk_entropy(t, 1) for t in trees]
    assert abs(r[0] - r[1]) > abs(f[0] - f[1])
    assert verify_conjecture(3, 4) == []


def test_first_violation_orders():
    # Tool-discovered: conjectures 1 and 3 first fail at n=7, conjecture 2 at n=9.
    for n in range(4, 7):
        assert verify_conjecture(1, n) == []
        assert verify_conjecture(3, n) == []
    for n in range(4, 9):
        assert verify_conjecture(2, n) == []
    assert len(verify_conjecture(1, 7)) == 2
    assert len(verify_conjecture(3, 7)) == 1
    assert len(verify_conjecture(2, 9)) == 3


def test_conjecture1_violations_at_n7_are_equal_wiener():
    violations = verify_conjecture(1, 7)
    margins = sorted(v.margin for v in violations)
    assert margins == pytest.approx([0.12007904077279985, 0.2201675572650026], abs=1e-12)
    for v in violations:
        assert v.gap_a == 0.0
        assert v.index_pair == ("W", "R")
        assert v.code_a <= v.code_b


def test_violation_records_replay():
    for conjecture, n in ((1, 7), (3, 7), (2, 9)):
        for v in verify_conjecture(conjecture, n):
            ta = _tree_by_code(n, v.code_a)
            tb = _tree_by_code(n, v.code_b)
            if conjecture == 1:
                ga = abs(wiener(ta) - wiener(tb))
                gb = abs(randic(ta) - randic(tb))
            elif conjecture == 2:
                ga = abs(energy(ta) - energy(tb))
                gb = abs(ig_entropy(ta) - ig_entropy(tb))
            else:
                ga = abs(randic(ta) - randic(tb))
                gb = abs(ifk_entropy(ta, 1) - ifk_entropy(tb, 1))
            assert abs((gb - ga) - v.margin) <= 1e-12


def test_violations_are_sigma_independent():
    for v in verify_conjecture(1, 7) + verify_conjecture(2, 9):
        for sigma in (0.1, 1.0, 10.0):
            d_a = d_index(v.gap_a, 0.0, sigma).distance
            d_b = d_index(v.gap_b, 0.0, sigma).distance
            assert d_a < d_b


def test_borderline_records_are_separate():
    violations, borderline = verify_conjecture_detail(1, 7)
    assert all(v.margin > 1e-9 for v in violations)
    assert all(0 < b.margin <= 1e-9 for b in borderline)


def _pair_loop_oracle(conjecture, n, float_tol=1e-9):
    """The plain double loop over every tree pair, one record per violating pair."""
    trees = list(enumerate_trees(n))
    kind_a, kind_b = CONJECTURE_INDEX_PAIRS[conjecture]
    values = search._index_values(trees, (kind_a, kind_b))
    a_vals, b_vals = values[kind_a], values[kind_b]
    codes = [t.code_hex for t in trees]
    violations, borderline = [], []
    for i in range(len(trees)):
        for j in range(i + 1, len(trees)):
            gap_a = abs(a_vals[i] - a_vals[j])
            gap_b = abs(b_vals[i] - b_vals[j])
            if gap_a >= gap_b:
                continue
            first, second = (i, j) if codes[i] <= codes[j] else (j, i)
            record = ViolationRecord(
                conjecture=conjecture,
                n=n,
                code_a=codes[first],
                code_b=codes[second],
                index_pair=CONJECTURE_INDEX_PAIRS[conjecture],
                values_a=(a_vals[first], b_vals[first]),
                values_b=(a_vals[second], b_vals[second]),
                gap_a=gap_a,
                gap_b=gap_b,
                margin=gap_b - gap_a,
            )
            (violations if record.margin > float_tol else borderline).append(record)
    key = lambda r: (-r.margin, r.code_a, r.code_b)
    return sorted(violations, key=key), sorted(borderline, key=key)


@pytest.mark.parametrize("float_tol", [1e-9, 0.05])
@pytest.mark.parametrize("conjecture", [1, 2, 3])
def test_pair_sweep_matches_double_loop_oracle(monkeypatch, conjecture, float_tol):
    for n in range(4, 11):
        oracle = _pair_loop_oracle(conjecture, n, float_tol)
        # Blocks of one pair, of 7 pairs (which split rows unevenly), and the default.
        for block in (1, 7, search.PAIR_BLOCK):
            monkeypatch.setattr(search, "PAIR_BLOCK", block)
            # Record equality compares every float with ==, in list order.
            assert verify_conjecture_detail(conjecture, n, float_tol) == oracle, block


def test_pair_sweep_counts_nan_gaps_as_borderline(monkeypatch):
    index_values = search._index_values

    def with_nan(trees, kinds):
        values = index_values(trees, kinds)
        first = values[kinds[0]]
        return {**values, kinds[0]: [math.nan] + first[1:]}

    monkeypatch.setattr(search, "_index_values", with_nan)
    swept = verify_conjecture_detail(3, 7)
    # NaN != NaN, so compare the bit-exact reprs instead.
    assert repr(swept) == repr(_pair_loop_oracle(3, 7))
    assert sum(math.isnan(r.gap_a) for r in swept[1]) == 10


def test_verify_conjecture_validates_input():
    with pytest.raises(ValueError):
        verify_conjecture(4, 7)
    with pytest.raises(ValueError):
        verify_conjecture(1, 3)


# ---------------------------------------------------------------------------
# Equal-Wiener pairs
# ---------------------------------------------------------------------------


def test_equal_wiener_pairs_absent_below_7():
    assert find_equal_wiener_pairs(4) == []
    assert find_equal_wiener_pairs(5) == []
    assert find_equal_wiener_pairs(6) == []


def test_equal_wiener_n5_values():
    values = sorted(wiener(t) for t in enumerate_trees(5))
    assert values == [16, 18, 20]


def test_smallest_equal_wiener_order_is_7():
    n, pairs = smallest_equal_wiener_order()
    assert n == 7
    assert sorted(p.shared_value for p in pairs) == [46.0, 48.0]
    for p in pairs:
        assert p.code_a != p.code_b
        ga = from_edge_list(p.n_a, p.edges_a)
        gb = from_edge_list(p.n_b, p.edges_b)
        ta, tb = Tree(ga.n, ga.edges), Tree(gb.n, gb.edges)
        assert wiener(ga) == wiener(gb) == p.shared_value
        assert wiener(ta) == wiener(tb) == p.shared_value
        assert dict(p.secondary_gaps)["R"] > 1e-6


# ---------------------------------------------------------------------------
# Attachment family
# ---------------------------------------------------------------------------


def test_fig1_randic_gap_values():
    # Frozen from direct evaluation of the displayed difference (30 digits).
    assert fig1_randic_gap(1, 1) == pytest.approx(0.136610822562384625, abs=1e-12)
    assert fig1_randic_gap(4, 4) == pytest.approx(0.110027539465990562, abs=1e-12)


def test_fig1_randic_gap_limit():
    limit = 1 / 3 + 1.5 - 1 / math.sqrt(6) - 3 / math.sqrt(5)
    assert limit == pytest.approx(0.083444256369596499, abs=1e-12)
    assert fig1_randic_gap(10**12, 10**12) == pytest.approx(limit, abs=1e-5)


def test_fig1_randic_gap_validation():
    with pytest.raises(ValueError):
        fig1_randic_gap(0, 3)


def test_attachment_check_identical_data():
    t = path_tree(6)
    assert check_wiener_preserving_attachment(t, t, (0, 3), (0, 3))


def test_attachment_check_crossed_p4_points():
    t = path_tree(4)
    # distance sums: ends 6, interiors 4 -> crossing them must fail
    assert not check_wiener_preserving_attachment(t, t, (0, 1), (1, 0))


def test_attachment_check_requires_equal_wiener():
    with pytest.raises(GraphError):
        star = from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        check_wiener_preserving_attachment(path_tree(5), Tree(star.n, star.edges), (0, 1), (0, 1))


def test_attachment_invariance_on_discovered_pair():
    # The n=7, W=46 pair admits matched attachment data; hanging 50 random
    # (S, R) pairs off both trees must keep the Wiener indices equal.
    n, pairs = smallest_equal_wiener_order()
    pair = next(p for p in pairs if p.shared_value == 46.0)
    ga = from_edge_list(pair.n_a, pair.edges_a)
    gb = from_edge_list(pair.n_b, pair.edges_b)
    ta, tb = Tree(ga.n, ga.edges), Tree(gb.n, gb.edges)
    attach_a, attach_b = (0, 1), (0, 1)
    assert check_wiener_preserving_attachment(ta, tb, attach_a, attach_b)
    rng = random.Random(13)
    pool = [t for k in (2, 3, 4, 5) for t in enumerate_trees(k)]
    for _ in range(50):
        s, r = rng.choice(pool), rng.choice(pool)
        s_root, r_root = rng.randrange(s.n), rng.randrange(r.n)
        grown_a = attach_tree(attach_tree(ta, attach_a[0], s, s_root), attach_a[1], r, r_root)
        grown_b = attach_tree(attach_tree(tb, attach_b[0], s, s_root), attach_b[1], r, r_root)
        assert wiener(grown_a) == wiener(grown_b)


# ---------------------------------------------------------------------------
# Caterpillar scan
# ---------------------------------------------------------------------------


def test_r_core_collision_pair_one_is_7_5():
    assert caterpillar_r_core(9, 4, 9, 4) == pytest.approx(7.5, abs=1e-12)
    assert caterpillar_r_core(4, 16, 4, 4) == pytest.approx(7.5, abs=1e-12)
    assert caterpillar_r_core_exact(9, 4, 9, 4) == Fraction(15, 2)
    assert caterpillar_r_core_exact(4, 16, 4, 4) == Fraction(15, 2)


def test_r_core_collision_pair_two_is_499_36():
    assert caterpillar_r_core_exact(36, 36, 4, 4) == Fraction(499, 36)
    assert caterpillar_r_core_exact(64, 9, 9, 4) == Fraction(499, 36)


def test_r_core_exact_requires_squares():
    with pytest.raises(ValueError):
        caterpillar_r_core_exact(3, 4, 9, 4)


def test_scan_finds_reference_pairs():
    records = caterpillar_scan(scan_limit=64, fixed_t=4)
    found = {frozenset((_quad(p.label_a), _quad(p.label_b))) for p in records}
    assert frozenset({(9, 4, 9, 4), (4, 16, 4, 4)}) in found
    assert frozenset({(36, 36, 4, 4), (64, 9, 9, 4)}) in found
    for p in records:
        qa, qb = _quad(p.label_a), _quad(p.label_b)
        assert qa < qb  # canonical pair order; swap-closed by construction
        assert abs(caterpillar_r_core(*qa) - caterpillar_r_core(*qb)) <= 1e-9
        assert p.exact is True
        assert p.code_a != p.code_b


def test_scan_if1_spine_gap_value():
    records = caterpillar_scan(scan_limit=64, fixed_t=4)
    pair_one = next(
        p for p in records if {_quad(p.label_a), _quad(p.label_b)} == {(9, 4, 9, 4), (4, 16, 4, 4)}
    )
    expected = abs(18 * math.log(9) + 8 * math.log(4) - 16 * math.log(16) - 12 * math.log(4))
    assert dict(pair_one.secondary_gaps)["If1_spine"] == pytest.approx(expected, abs=1e-12)
    assert expected > 10.0


def test_scan_equal_order_mode():
    records = caterpillar_scan(scan_limit=64, fixed_t=4, equal_order_only=True)
    quad_sets = {frozenset((_quad(p.label_a), _quad(p.label_b))) for p in records}
    assert frozenset({(9, 4, 9, 4), (4, 16, 4, 4)}) not in quad_sets
    assert frozenset({(16, 9, 25, 4), (25, 16, 9, 4)}) in quad_sets
    for p in records:
        assert sum(_quad(p.label_a)) == sum(_quad(p.label_b))


def test_scan_drops_isomorphic_reversals():
    # (4, y, z, 4) and (4, z, y, 4) build the same free tree; no record may
    # pair a quadruple with its own reversal.
    for p in caterpillar_scan(scan_limit=64, fixed_t=4):
        qa, qb = _quad(p.label_a), _quad(p.label_b)
        assert qa != tuple(reversed(qb))


def test_scan_deterministic():
    assert caterpillar_scan(scan_limit=64, fixed_t=4) == caterpillar_scan(scan_limit=64, fixed_t=4)


@pytest.mark.parametrize("squares, largest", [(True, 10608), (False, 102)])
def test_scan_size_bound(squares, largest):
    # m candidate degrees build m * (m - 1)^2 quadruples; the largest accepted
    # limit stays within the bound and one more exceeds it.
    def quads(limit):
        m = math.isqrt(limit) if squares else limit
        return m * (m - 1) ** 2

    assert quads(largest) <= search.MAX_SPINE_QUADS < quads(largest + 1)
    assert quads(100) == (810 if squares else 980_100)  # the README's scans to 100
    with pytest.raises(ValueError, match=f"scan_limit must be <= {largest}, got {largest + 1}"):
        caterpillar_scan(scan_limit=largest + 1, perfect_squares_only=squares)


# Keys with many exact ties (a few dyadic values) mixed with arbitrary floats.
_KEYS = st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(-2.0, 2.0)), max_size=40)


@settings(max_examples=200, deadline=None)
@given(keys=_KEYS, tol=st.sampled_from([0.0, 0.25, 0.7]), data=st.data())
def test_near_pairs_matches_brute_force(keys, tol, data):
    brute = {
        frozenset((i, j))
        for i in range(len(keys))
        for j in range(i + 1, len(keys))
        if abs(keys[i] - keys[j]) <= tol
    }
    pairs = [frozenset(p) for p in search._near_pairs(keys, tol)]
    assert all(len(p) == 2 for p in pairs)
    assert len(pairs) == len(set(pairs))  # each unordered pair once
    assert set(pairs) == brute
    # The same keys in another input order give the same pairs.
    perm = data.draw(st.permutations(range(len(keys))))
    shuffled = [keys[k] for k in perm]
    assert {frozenset((perm[i], perm[j])) for i, j in search._near_pairs(shuffled, tol)} == brute


def test_r_core_difference_matches_built_trees():
    # Construction and formula must agree: the Randic difference of two
    # built caterpillars (same tail, same t) equals the r_core difference.
    tail = path_tree(5)
    quad_pairs = [((9, 4, 9, 4), (4, 16, 4, 4)), ((4, 4, 4, 4), (9, 4, 9, 4))]
    for qa, qb in quad_pairs:
        for use_tail in (None, tail):
            ra = randic(build_caterpillar(CaterpillarSpec(*qa, tail=use_tail)))
            rb = randic(build_caterpillar(CaterpillarSpec(*qb, tail=use_tail)))
            core_diff = caterpillar_r_core(*qa) - caterpillar_r_core(*qb)
            assert (ra - rb) == pytest.approx(core_diff, abs=1e-12)


# ---------------------------------------------------------------------------
# Equienergetic scan
# ---------------------------------------------------------------------------


def test_equienergetic_scan_n8_n9():
    records = equienergetic_scan(n_min=8, n_max=9)
    cospectral = [r for r in records if r.cospectral]
    candidates = [r for r in records if not r.cospectral]
    # Exact census: one cospectral pair at n=8, five at n=9 (test_spectral),
    # plus the exactly equienergetic non-cospectral pair at n=9.
    assert len(cospectral) == 6
    assert all(dict(r.secondary_gaps)["Ig"] <= 1e-8 for r in cospectral)
    assert len(candidates) == 1
    cand = candidates[0]
    assert cand.n_a == 9 and cand.candidate is True
    assert cand.shared_value == pytest.approx(6 + 2 * math.sqrt(5), abs=1e-9)
    assert dict(cand.secondary_gaps)["Ig"] == pytest.approx(0.013005923068250436, abs=1e-9)
    assert dict(cand.secondary_gaps)["E"] <= 1e-12


def test_equienergetic_candidate_is_exactly_equienergetic():
    # Independent oracle: exact real roots of both char polys to 50 digits.
    import sympy

    cand = next(r for r in equienergetic_scan(n_min=9, n_max=9) if not r.cospectral)
    lam = sympy.symbols("lam")
    energies = []
    for edges in (cand.edges_a, cand.edges_b):
        from treedist import char_poly

        coeffs = char_poly(from_edge_list(9, edges))
        poly = sympy.Poly(sum(int(c) * lam**i for i, c in enumerate(coeffs)), lam)
        energies.append(sum(abs(r.evalf(50)) for r in sympy.real_roots(poly)))
    assert abs(energies[0] - energies[1]) < 1e-45
    assert abs(energies[0] - (6 + 2 * sympy.sqrt(5)).evalf(50)) < 1e-45


def test_equienergetic_scan_solves_each_spectrum_once(monkeypatch):
    solve = search.spectra
    calls = []

    def counted(graphs):
        calls.append(len(graphs))
        return solve(graphs)

    monkeypatch.setattr(search, "spectra", counted)
    equienergetic_scan(n_min=4, n_max=10)
    assert sum(calls) == sum(count_trees(n) for n in range(4, 11)) == 198
    assert len(calls) == 7


def test_equienergetic_scan_expands_each_char_poly_once(monkeypatch):
    expand = search.char_poly
    expanded = []

    def counted(g):
        expanded.append(g)
        return expand(g)

    monkeypatch.setattr(search, "char_poly", counted)
    records = equienergetic_scan(n_min=4, n_max=11)
    assert len(records) == 44
    # One expansion per distinct tree in the records, not one per pair it is in.
    assert len(expanded) == len({code for r in records for code in (r.code_a, r.code_b)}) == 82


def test_equienergetic_records_are_deterministic_and_distinct():
    records = equienergetic_scan(n_min=8, n_max=9)
    assert records == equienergetic_scan(n_min=8, n_max=9)
    assert all(r.code_a < r.code_b for r in records)
    assert len({(r.code_a, r.code_b) for r in records}) == len(records)
