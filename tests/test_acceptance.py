"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v``; a summary block with one
line per criterion is echoed at the end of the session.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import sympy

import conftest
from conftest import path_graph, prufer_decode, root_residual_ok, star_graph
from treedist import (
    Tree,
    caterpillar_r_core_exact,
    caterpillar_scan,
    char_poly,
    d_index,
    eigenvalues,
    energy,
    enumerate_trees,
    equienergetic_scan,
    find_equal_wiener_pairs,
    from_edge_list,
    ifk_entropy,
    ig_entropy,
    randic,
    theorem1_a,
    theorem1_degeneracy,
    verify_conjecture,
    wiener,
)
from treedist.graph_core import Graph, _canonical_code, is_connected
from treedist.measures import wiener_deletion_gap
from treedist.search import CONJECTURE_INDEX_PAIRS, _index_values

FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]


def _finish(cid: int, title: str, failures: list[str], elapsed: float) -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {cid}: {status} ({elapsed:.2f} s) - {title}"
    if failures:
        line += " :: " + "; ".join(failures)
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert not failures, line


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


# ---------------------------------------------------------------------------
# Criterion 1: closed-form index suite, < 1 s
# ---------------------------------------------------------------------------


def test_criterion_1_closed_forms():
    failures: list[str] = []
    started = time.perf_counter()
    tol = 1e-9

    _check(failures, wiener(path_graph(5)) == 20, "W(P5) != 20")
    _check(failures, wiener(star_graph(3)) == 9, "W(K1,3) != 9")
    for q in range(2, 13):
        star = star_graph(q)
        _check(failures, abs(randic(star) - math.sqrt(q)) <= tol, f"R(K1,{q})")
        _check(failures, abs(ig_entropy(star) - math.log(2)) <= tol, f"Ig(K1,{q})")
    _check(failures, abs(randic(path_graph(4)) - (0.5 + math.sqrt(2))) <= tol, "R(P4)")
    _check(failures, abs(energy(star_graph(3)) - 2 * math.sqrt(3)) <= tol, "E(K1,3)")
    _check(failures, abs(energy(path_graph(4)) - 2 * math.sqrt(5)) <= tol, "E(P4)")
    _check(failures, char_poly(path_graph(4)) == (1, 0, -3, 0, 1), "char_poly(P4)")

    elapsed = time.perf_counter() - started
    _check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s >= 1s")
    _finish(1, "closed-form index suite", failures, elapsed)


# ---------------------------------------------------------------------------
# Criterion 2: caterpillar spine identities, < 10 s
# ---------------------------------------------------------------------------


def test_criterion_2_caterpillar_identities():
    failures: list[str] = []
    started = time.perf_counter()

    records = caterpillar_scan(scan_limit=64, fixed_t=4)
    import ast

    pair_sets = {
        frozenset((tuple(ast.literal_eval(p.label_a[1:])), tuple(ast.literal_eval(p.label_b[1:]))))
        for p in records
    }
    pair_one = frozenset({(9, 4, 9, 4), (4, 16, 4, 4)})
    pair_two = frozenset({(36, 36, 4, 4), (64, 9, 9, 4)})
    _check(failures, pair_one in pair_sets, "pair (9,4,9,4)/(4,16,4,4) not found")
    _check(failures, pair_two in pair_sets, "pair (36,36,4,4)/(64,9,9,4) not found")

    gap_one = caterpillar_r_core_exact(9, 4, 9, 4) - caterpillar_r_core_exact(4, 16, 4, 4)
    gap_two = caterpillar_r_core_exact(36, 36, 4, 4) - caterpillar_r_core_exact(64, 9, 9, 4)
    _check(failures, gap_one == Fraction(0), "exact R_core gap of pair one is not 0")
    _check(failures, gap_two == Fraction(0), "exact R_core gap of pair two is not 0")

    spine_gap = abs(18 * math.log(9) + 8 * math.log(4) - 16 * math.log(16) - 12 * math.log(4))
    _check(failures, spine_gap > 10.0, f"If1 spine separation {spine_gap:.3f} <= 10")

    elapsed = time.perf_counter() - started
    _check(failures, elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s")
    _finish(2, "caterpillar Randic identities", failures, elapsed)


# ---------------------------------------------------------------------------
# Criterion 3: conjecture-1 refutation pattern at the smallest discovered n
# ---------------------------------------------------------------------------


def test_criterion_3_conjecture1_refutation():
    failures: list[str] = []
    started = time.perf_counter()

    smallest = None
    for n in range(4, 17):
        pairs = find_equal_wiener_pairs(n)
        if pairs:
            smallest = (n, pairs)
            break
    _check(failures, smallest is not None, "no equal-Wiener pair up to n=16")
    if smallest is not None:
        n, pairs = smallest
        witnesses = [p for p in pairs if dict(p.secondary_gaps)["R"] > 1e-6]
        _check(failures, bool(witnesses), "no pair with |dR| > 1e-6 at the smallest order")
        violations = verify_conjecture(1, n)
        violation_codes = {(v.code_a, v.code_b) for v in violations}
        for p in witnesses:
            _check(
                failures,
                (p.code_a, p.code_b) in violation_codes,
                f"pair {p.code_a}/{p.code_b} missing from verify_conjecture(1, {n})",
            )
            for sigma in (0.1, 1.0, 10.0):
                d_w = d_index(0.0, 0.0, sigma).distance
                d_r = d_index(dict(p.secondary_gaps)["R"], 0.0, sigma).distance
                _check(failures, d_w < d_r, f"d_W < d_R fails at sigma={sigma}")

    elapsed = time.perf_counter() - started
    _finish(3, "conjecture-1 refutation at smallest discovered order", failures, elapsed)


# ---------------------------------------------------------------------------
# Criterion 4: exhaustive verifier at n = 10, < 60 s, with pair replay
# ---------------------------------------------------------------------------


def test_criterion_4_verifier_scale():
    failures: list[str] = []
    started = time.perf_counter()

    trees = list(enumerate_trees(10))
    _check(failures, len(trees) == 106, f"expected 106 trees, got {len(trees)}")
    pair_count = len(trees) * (len(trees) - 1) // 2
    _check(failures, pair_count == 5565, f"expected 5565 pairs, got {pair_count}")
    for conjecture in (1, 2, 3):
        verify_conjecture(conjecture, 10)

    rng = random.Random(20260810)
    sample = [tuple(rng.sample(range(len(trees)), 2)) for _ in range(100)]
    batch = {cid: tuple(_index_values(trees, CONJECTURE_INDEX_PAIRS[cid]).values()) for cid in (1, 2, 3)}
    recomputed = {
        1: lambda t: (float(wiener(t)), randic(t)),
        2: lambda t: (energy(t), ig_entropy(t)),
        3: lambda t: (randic(t), ifk_entropy(t, 1)),
    }
    for i, j in sample:
        fresh = [Tree(10, trees[k].edges) for k in (i, j)]
        for cid in (1, 2, 3):
            a_vals, b_vals = batch[cid]
            gap_a = abs(a_vals[i] - a_vals[j])
            gap_b = abs(b_vals[i] - b_vals[j])
            direct = [recomputed[cid](t) for t in fresh]
            _check(failures, abs(gap_a - abs(direct[0][0] - direct[1][0])) <= 1e-12, f"gapA replay c{cid}")
            _check(failures, abs(gap_b - abs(direct[0][1] - direct[1][1])) <= 1e-12, f"gapB replay c{cid}")

    elapsed = time.perf_counter() - started
    _check(failures, elapsed < 60.0, f"runtime {elapsed:.2f}s >= 60s")
    _finish(4, "exhaustive verifier at n=10 with replay", failures, elapsed)


# ---------------------------------------------------------------------------
# Criterion 5: enumeration counts, oracle to n = 8, duplicate-free to n = 12
# ---------------------------------------------------------------------------


def test_criterion_5_enumeration():
    failures: list[str] = []
    started = time.perf_counter()

    for n, expected in enumerate(FREE_TREE_COUNTS, start=1):
        count = sum(1 for _ in enumerate_trees(n))
        _check(failures, count == expected, f"count({n}) = {count}, expected {expected}")

    # Independent generate-and-dedup oracle: decode every Pruefer sequence,
    # deduplicate by canonical code.
    for n in range(2, 9):
        classes = set()
        for seq in itertools.product(range(n), repeat=n - 2):
            classes.add(_canonical_code(Graph(n, prufer_decode(seq, n))))
        _check(
            failures,
            len(classes) == FREE_TREE_COUNTS[n - 1],
            f"oracle({n}) = {len(classes)} != {FREE_TREE_COUNTS[n - 1]}",
        )

    for n in range(1, 13):
        codes = [t.code for t in enumerate_trees(n)]
        _check(failures, len(codes) == len(set(codes)), f"duplicate codes at n={n}")

    t12 = time.perf_counter()
    count_12 = sum(1 for _ in enumerate_trees(12))
    t12 = time.perf_counter() - t12
    _check(failures, count_12 == 551, "n=12 count")
    _check(failures, t12 < 10.0, f"n=12 enumeration took {t12:.2f}s >= 10s")

    elapsed = time.perf_counter() - started
    _finish(5, "enumeration counts, oracle, and duplicate-freeness", failures, elapsed)


# ---------------------------------------------------------------------------
# Criterion 6: spectral invariants for every tree with n <= 10
# ---------------------------------------------------------------------------


def test_criterion_6_spectral_invariants():
    failures: list[str] = []
    started = time.perf_counter()

    for n in range(2, 11):
        for tree in enumerate_trees(n):
            vals = eigenvalues(tree).values
            code = tree.code_hex
            _check(failures, abs(sum(vals)) <= 1e-9, f"trace n={n} {code}")
            _check(
                failures,
                abs(sum(v * v for v in vals) - 2 * (n - 1)) <= 1e-9,
                f"sum of squares n={n} {code}",
            )
            mirrored = sorted(-v for v in vals)
            sym_err = max(abs(a - b) for a, b in zip(sorted(vals), mirrored))
            _check(failures, sym_err <= 1e-9, f"symmetry n={n} {code}")
            coeffs = char_poly(tree)
            for v in vals:
                _check(failures, root_residual_ok(coeffs, v), f"residual n={n} {code}")

    elapsed = time.perf_counter() - started
    _finish(6, "spectral invariants for all trees n<=10", failures, elapsed)


# ---------------------------------------------------------------------------
# Criterion 7: deletion gaps, degeneracy, and the bound constant
# ---------------------------------------------------------------------------


def test_criterion_7_bounds_suite():
    failures: list[str] = []
    started = time.perf_counter()

    # Wiener deletion gap >= 1 on every cyclic edge of every tree+chord graph.
    checked = 0
    for n in range(4, 9):
        for tree in enumerate_trees(n):
            non_edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not tree.has_edge(u, v)
            ]
            for chord in non_edges:
                g = tree.add_edge(*chord)
                for edge in g.edges:
                    if not is_connected(g.delete_edge(*edge)):
                        continue
                    gap = wiener_deletion_gap(g, edge)
                    checked += 1
                    if gap < 1:
                        failures.append(f"gap {gap} < 1 on n={n} chord={chord} edge={edge}")
    _check(failures, checked > 1000, f"only {checked} cyclic edges checked")

    # Degeneracy predicate accepts only elementwise-equal probability vectors.
    rng = random.Random(8151)
    accepted = 0
    for trial in range(10_000):
        size = rng.randint(1, 8)
        raw = [rng.uniform(0.01, 1.0) for _ in range(size)]
        total = math.fsum(raw)
        p = [x / total for x in raw]
        style = trial % 3
        if style == 0:
            q = list(p)
        elif style == 1:
            q = [x + rng.uniform(-5e-14, 5e-14) for x in p]
        else:
            raw = [rng.uniform(0.01, 1.0) for _ in range(size)]
            total = math.fsum(raw)
            q = [x / total for x in raw]
        try:
            ok = theorem1_degeneracy(p, q)
        except ValueError:
            continue
        if ok:
            accepted += 1
            diff = max(abs(a - b) for a, b in zip(p, q))
            if diff > 1e-12:
                failures.append(f"accepted pair with max diff {diff}")
    _check(failures, accepted > 1000, f"only {accepted} accepted pairs exercised")

    _check(failures, abs(theorem1_a([1.0]) - 2 * math.log(2)) <= 1e-9, "A((1))")
    _check(
        failures,
        abs(theorem1_a([0.5, 0.5]) - (math.log(3) + 2 * math.log(1.5))) <= 1e-9,
        "A((1/2,1/2))",
    )
    _check(
        failures,
        abs(theorem1_a([0.25] * 4) - (math.log(5) + 4 * math.log(1.25))) <= 1e-9,
        "A((1/4,...))",
    )

    elapsed = time.perf_counter() - started
    _finish(7, "deletion gaps, degeneracy predicate, bound constant", failures, elapsed)


# ---------------------------------------------------------------------------
# Criterion 8: equienergetic scan over n <= 13, < 10 min
# ---------------------------------------------------------------------------


def test_criterion_8_equienergetic_scan():
    failures: list[str] = []
    started = time.perf_counter()

    energy_tol = 1e-8
    records = equienergetic_scan(n_min=4, n_max=13, energy_tol=energy_tol)
    cospectral = [r for r in records if r.cospectral]
    candidates = [r for r in records if not r.cospectral]

    for r in cospectral:
        _check(
            failures,
            dict(r.secondary_gaps)["Ig"] <= 1e-8,
            f"cospectral pair {r.code_a}/{r.code_b} has Ig gap > 1e-8",
        )

    # Tool-discovered: exactly equienergetic non-cospectral pairs at n=9 and
    # n=13 (energies 6+2*sqrt(5) and 6+2*sqrt(13)); both must survive
    # re-verification with spectra recomputed from the record's edges.
    _check(failures, sorted(r.n_a for r in candidates) == [9, 13], "candidate orders != [9, 13]")
    lam = sympy.symbols("lam")
    for r in candidates:
        spec_a = eigenvalues(from_edge_list(r.n_a, r.edges_a))
        spec_b = eigenvalues(from_edge_list(r.n_b, r.edges_b))
        _check(
            failures,
            abs(spec_a.abs_sum() - spec_b.abs_sum()) <= energy_tol,
            f"candidate at n={r.n_a} fails 1e-12 re-verification",
        )
        gaps = dict(r.secondary_gaps)
        _check(failures, "Ig" in gaps and gaps["Ig"] > 0, f"candidate at n={r.n_a} missing Ig gap")
        # Exact oracle: 50-digit energies from the integer char polys agree.
        exact = []
        for edges in (r.edges_a, r.edges_b):
            coeffs = char_poly(from_edge_list(r.n_a, edges))
            poly = sympy.Poly(sum(int(c) * lam**i for i, c in enumerate(coeffs)), lam)
            exact.append(sum(abs(root.evalf(50)) for root in sympy.real_roots(poly)))
        _check(
            failures,
            abs(exact[0] - exact[1]) < 1e-45,
            f"candidate at n={r.n_a} is not exactly equienergetic",
        )

    elapsed = time.perf_counter() - started
    _check(failures, elapsed < 600.0, f"runtime {elapsed:.1f}s >= 600s")
    _finish(8, "equienergetic scan n<=13 with re-verification", failures, elapsed)
