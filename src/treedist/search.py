"""Conjecture verification over enumerated trees and counterexample searches.

Three conjectured inequalities between tree distance measures are checked
pairwise over complete isomorphism-class enumerations:

    1:  d_W  >= d_R      2:  d_E  >= d_Ig      3:  d_R  >= d_If1

Every verdict routes through the sigma-free reduction (compare absolute
index gaps), so no sigma choice can change an outcome.  The searches below
hunt for the structured collisions that refute the conjectures: equal-Wiener
tree pairs, equal-Randic caterpillar spine quadruples, and numerically
equienergetic non-cospectral tree pairs.

The verifier and the tree scans read their per-tree values from one table
per order (``_index_values``), computed once per tree and index: W from
``wiener``, which sums edge cuts on a tree, R and If1 from the degrees, and
E and Ig from one ``spectra`` call.  Every enumerated tree is a ``Graph``,
so each index function takes it directly.

All three scans pair through one sort-and-window sweep (``_near_pairs``)
over the key they collide on, and build their records with ``_tree_pair``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .graph_core import (
    CaterpillarSpec,
    GraphError,
    Tree,
    bfs_distances,
    build_caterpillar,
    enumerate_trees,
)
from .indices import _check_tol, ifk_entropy, randic, wiener
from .spectral import Spectrum, char_poly, spectra

CONJECTURE_INDEX_PAIRS = {1: ("W", "R"), 2: ("E", "Ig"), 3: ("R", "If1")}


# A non-cospectral equienergetic pair whose Ig gap exceeds this is a
# candidate refutation of the energy-entropy conjecture.
CANDIDATE_IG_GAP = 1e-9


@dataclass(frozen=True)
class ViolationRecord:
    """A decisive conjecture violation for one unordered tree pair."""

    conjecture: int
    n: int
    code_a: str
    code_b: str
    index_pair: tuple[str, str]
    values_a: tuple[float, float]
    values_b: tuple[float, float]
    gap_a: float
    gap_b: float
    margin: float


@dataclass(frozen=True)
class CollisionPair:
    """Two non-isomorphic trees sharing one index value (the collision kind)."""

    kind: str
    code_a: str
    code_b: str
    edges_a: tuple[tuple[int, int], ...]
    edges_b: tuple[tuple[int, int], ...]
    n_a: int
    n_b: int
    shared_value: float
    secondary_gaps: tuple[tuple[str, float], ...] = ()
    cospectral: bool | None = None
    exact: bool | None = None
    candidate: bool | None = None
    label_a: str | None = None
    label_b: str | None = None


# Per-tree index functions, and the indices read from the tree's spectrum.
# Lambdas look the function up at call time, so perfbench's tracer sees each call.
_TREE_INDICES = {
    "W": lambda t: float(wiener(t)),
    "R": lambda t: randic(t),
    "If1": lambda t: ifk_entropy(t, 1),
}
_SPECTRUM_INDICES = {"E": Spectrum.abs_sum, "Ig": Spectrum.entropy}


def _near_pairs(keys: Sequence[float], tol: float) -> Iterator[tuple[int, int]]:
    """Every unordered index pair whose keys differ by at most ``tol``, once each.

    The indices are sorted by key, and each is paired with the run of later
    indices that stay within ``tol`` of it.  Tied keys may come in any
    order: the set of pairs is the same, and each scan sorts its records.
    """
    order = sorted(range(len(keys)), key=keys.__getitem__)
    for pos, i in enumerate(order):
        nxt = pos + 1
        while nxt < len(order) and keys[order[nxt]] - keys[i] <= tol:
            yield i, order[nxt]
            nxt += 1


def _tree_pair(kind: str, tree_a: Tree, tree_b: Tree, shared_value: float, **fields) -> CollisionPair:
    """The collision record of two trees, in the order given, with the kind's own ``fields``."""
    return CollisionPair(
        kind=kind,
        code_a=tree_a.code_hex,
        code_b=tree_b.code_hex,
        edges_a=tree_a.edges,
        edges_b=tree_b.edges,
        n_a=tree_a.n,
        n_b=tree_b.n,
        shared_value=shared_value,
        **fields,
    )


def _index_values(trees: list[Tree], kinds: Sequence[str]) -> dict[str, list[float]]:
    """Each tree's value of every index in ``kinds`` (W, R, If1, E, Ig), by kind.

    E and Ig are read from one ``spectra`` call over the trees, made only
    when one of them is asked for.
    """
    specs = spectra(trees) if _SPECTRUM_INDICES.keys() & set(kinds) else []
    return {
        kind: [_TREE_INDICES[kind](t) for t in trees]
        if kind in _TREE_INDICES
        else [_SPECTRUM_INDICES[kind](s) for s in specs]
        for kind in kinds
    }


def verify_conjecture_detail(
    conjecture: int, n: int, float_tol: float = 1e-9
) -> tuple[list[ViolationRecord], list[ViolationRecord]]:
    """All pairs on ``n`` vertices: (decisive violations, borderline near-ties).

    A pair violates when its first-index gap is strictly smaller than its
    second-index gap; the verdict is decisive when the margin clears
    ``float_tol``, borderline otherwise.  Each tree's gaps to all later
    trees are computed as one numpy row, and records are built for the
    violating pairs only.
    """
    _check_tol("float_tol", float_tol)
    if conjecture not in CONJECTURE_INDEX_PAIRS:
        raise ValueError(f"conjecture id must be 1, 2 or 3, got {conjecture}")
    if n < 4:
        raise ValueError(f"conjecture checks need n >= 4, got {n}")
    trees = list(enumerate_trees(n))
    a_vals, b_vals = _index_values(trees, CONJECTURE_INDEX_PAIRS[conjecture]).values()
    codes = [t.code_hex for t in trees]
    a_col = np.array(a_vals, dtype=np.float64)
    b_col = np.array(b_vals, dtype=np.float64)
    violations: list[ViolationRecord] = []
    borderline: list[ViolationRecord] = []
    for i in range(len(trees) - 1):
        gaps_a = np.abs(a_col[i] - a_col[i + 1 :])
        gaps_b = np.abs(b_col[i] - b_col[i + 1 :])
        # Negated so that a NaN gap counts as a violation, as a failed >= does.
        hits = np.flatnonzero(~(gaps_a >= gaps_b))
        for offset, gap_a, gap_b in zip(hits.tolist(), gaps_a[hits].tolist(), gaps_b[hits].tolist()):
            j = i + 1 + offset
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
            if record.margin > float_tol:
                violations.append(record)
            else:
                borderline.append(record)
    key = lambda r: (-r.margin, r.code_a, r.code_b)
    violations.sort(key=key)
    borderline.sort(key=key)
    return violations, borderline


def verify_conjecture(conjecture: int, n: int, float_tol: float = 1e-9) -> list[ViolationRecord]:
    """Decisive violations of the conjecture over all tree pairs on ``n`` vertices."""
    return verify_conjecture_detail(conjecture, n, float_tol)[0]


# ---------------------------------------------------------------------------
# Equal-Wiener pairs
# ---------------------------------------------------------------------------


def find_equal_wiener_pairs(n: int) -> list[CollisionPair]:
    """All non-isomorphic tree pairs on ``n`` vertices with identical Wiener index.

    Each pair carries the gaps of the other indices, read from the
    order's index table.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    trees = list(enumerate_trees(n))
    secondary = ("R", "E", "Ig", "If1")
    values = _index_values(trees, ("W",) + secondary)
    pairs: list[CollisionPair] = []
    for pair in _near_pairs(values["W"], 0.0):
        a, b = sorted(pair, key=lambda i: trees[i].code_hex)
        gaps = tuple((kind, abs(values[kind][a] - values[kind][b])) for kind in secondary)
        pairs.append(_tree_pair("wiener", trees[a], trees[b], values["W"][a], secondary_gaps=gaps))
    pairs.sort(key=lambda p: (p.shared_value, p.code_a, p.code_b))
    return pairs


def smallest_equal_wiener_order(n_start: int = 4, n_stop: int = 16) -> tuple[int, list[CollisionPair]]:
    """First order in ``n_start..n_stop`` where an equal-Wiener pair exists."""
    for n in range(n_start, n_stop + 1):
        pairs = find_equal_wiener_pairs(n)
        if pairs:
            return n, pairs
    raise GraphError(f"no equal-Wiener tree pair up to n={n_stop}")


# ---------------------------------------------------------------------------
# Attachment family (equal-Wiener invariance)
# ---------------------------------------------------------------------------


def fig1_randic_gap(x: float, y: float) -> float:
    """Randic difference of the two-attachment family at end degrees x, y.

    Evaluates the local edge-weight difference around the four affected
    vertices; the limit for large x, y is 1/3 + 3/2 - 1/sqrt(6) - 3/sqrt(5).
    """
    if x < 1 or y < 1:
        raise ValueError(f"degrees must be >= 1, got x={x}, y={y}")
    plus = 1.0 / 3.0 + 1.0 / math.sqrt(3.0 * x) + 1.0 / math.sqrt(3.0 * y) + 1.5 + 1.0 / (2.0 * math.sqrt(y))
    minus = (
        1.0 / math.sqrt(6.0)
        + 1.0 / math.sqrt(2.0 * y)
        + 1.0 / math.sqrt(5.0 * y)
        + 3.0 / math.sqrt(5.0)
        + 1.0 / math.sqrt(5.0 * x)
    )
    return plus - minus


def check_wiener_preserving_attachment(
    t_a: Tree,
    t_b: Tree,
    attach_a: tuple[int, int],
    attach_b: tuple[int, int],
) -> bool:
    """Whether attaching arbitrary trees at the given points preserves Wiener equality.

    True iff each attachment vertex has the same distance sum as its
    counterpart and the two attachment vertices are equally far apart in
    both trees.  Under those conditions every cross term of the expanded
    Wiener sum matches, so any subtrees S and R hung at the two points keep
    W(T) = W(T').
    """
    if t_a.n != t_b.n:
        raise GraphError(f"attachment bases must have equal order, got {t_a.n} and {t_b.n}")
    if wiener(t_a) != wiener(t_b):
        raise GraphError("attachment bases must have equal Wiener index")
    dist_a0 = bfs_distances(t_a, attach_a[0])
    dist_b0 = bfs_distances(t_b, attach_b[0])
    if sum(dist_a0) != sum(dist_b0):
        return False
    dist_a1 = bfs_distances(t_a, attach_a[1])
    dist_b1 = bfs_distances(t_b, attach_b[1])
    if sum(dist_a1) != sum(dist_b1):
        return False
    return dist_a0[attach_a[1]] == dist_b0[attach_b[1]]


# ---------------------------------------------------------------------------
# Caterpillar spine scan (equal Randic, different degree sequence)
# ---------------------------------------------------------------------------


def caterpillar_r_core(x: int, y: int, z: int, t: int) -> float:
    """Spine contribution to the Randic index of the caterpillar family."""
    return (
        (x - 1) / math.sqrt(x)
        + (y - 2) / math.sqrt(y)
        + (z - 2) / math.sqrt(z)
        + (t - 2) / math.sqrt(t)
        + 1.0 / math.sqrt(x * y)
        + 1.0 / math.sqrt(y * z)
        + 1.0 / math.sqrt(z * t)
    )


def caterpillar_r_core_exact(x: int, y: int, z: int, t: int) -> Fraction:
    """Exact rational spine contribution; requires all four degrees square."""
    roots = []
    for v in (x, y, z, t):
        r = math.isqrt(v)
        if r * r != v:
            raise ValueError(f"{v} is not a perfect square; exact form unavailable")
        roots.append(r)
    rx, ry, rz, rt = roots
    return (
        Fraction(x - 1, rx)
        + Fraction(y - 2, ry)
        + Fraction(z - 2, rz)
        + Fraction(t - 2, rt)
        + Fraction(1, rx * ry)
        + Fraction(1, ry * rz)
        + Fraction(1, rz * rt)
    )


def _spine_if1_weight(quad: tuple[int, int, int, int]) -> float:
    """Sum of d*ln(d) over the spine degrees (the If_1 separating statistic)."""
    return sum(d * math.log(d) for d in quad)


# The most spine quadruples one caterpillar scan may build: m candidate
# degrees give m * (m - 1)^2, 980,100 for the all-integer scan to 100.
MAX_SPINE_QUADS = 2**20


def caterpillar_scan(
    scan_limit: int = 100,
    fixed_t: int = 4,
    perfect_squares_only: bool = True,
    equal_order_only: bool = False,
    float_tol: float = 1e-9,
) -> list[CollisionPair]:
    """Distinct spine quadruples with equal Randic core at the fixed last degree.

    Scans (x, y, z, t) with t = fixed_t and coordinates at most scan_limit
    (perfect squares only unless disabled).  Candidate pairs within
    float_tol are kept, isomorphic duplicates (reversed spines) are dropped
    via canonical codes, and all-square pairs are re-checked in exact
    rational arithmetic.  With equal_order_only, only pairs with equal
    vertex counts are kept.  A fixed_t above scan_limit, or more than
    ``MAX_SPINE_QUADS`` quadruples, is refused before any is built.
    """
    _check_tol("float_tol", float_tol)
    if scan_limit < 1:
        raise ValueError(f"scan_limit must be >= 1, got {scan_limit}")
    if fixed_t < 2:
        raise ValueError(f"fixed_t must be >= 2, got {fixed_t}")
    if fixed_t > scan_limit:
        raise ValueError(f"fixed_t must be <= scan_limit {scan_limit}, got {fixed_t}")
    count = math.isqrt(scan_limit) if perfect_squares_only else scan_limit
    if count * (count - 1) ** 2 > MAX_SPINE_QUADS:
        max_count = next(m for m in range(2, MAX_SPINE_QUADS) if (m + 1) * m * m > MAX_SPINE_QUADS)
        largest = (max_count + 1) ** 2 - 1 if perfect_squares_only else max_count
        raise ValueError(f"scan_limit must be <= {largest}, got {scan_limit}")
    # The candidate degrees in increasing order; only the first, 1, is too small for y and z.
    xs = [k * k for k in range(1, count + 1)] if perfect_squares_only else range(1, count + 1)
    yzs = xs[1:]
    quads = [(x, y, z, fixed_t) for x in xs for y in yzs for z in yzs]
    near = _near_pairs([caterpillar_r_core(*q) for q in quads], float_tol)
    pairs = (_caterpillar_pair(quads[i], quads[j], equal_order_only) for i, j in near)
    records = [p for p in pairs if p is not None]
    records.sort(key=lambda p: (p.label_a or "", p.label_b or ""))
    return records


def _caterpillar_pair(
    quad_a: tuple[int, int, int, int], quad_b: tuple[int, int, int, int], equal_order_only: bool
) -> CollisionPair | None:
    quad_a, quad_b = sorted((quad_a, quad_b))
    if equal_order_only and sum(quad_a) != sum(quad_b):
        return None
    tree_a = build_caterpillar(CaterpillarSpec(*quad_a))
    tree_b = build_caterpillar(CaterpillarSpec(*quad_b))
    if tree_a.code == tree_b.code:
        return None
    try:
        exact = caterpillar_r_core_exact(*quad_a) == caterpillar_r_core_exact(*quad_b)
    except ValueError:
        exact = None
    spine_gap = abs(_spine_if1_weight(quad_a) - _spine_if1_weight(quad_b))
    return _tree_pair(
        "randic",
        tree_a,
        tree_b,
        caterpillar_r_core(*quad_a),
        secondary_gaps=(("If1_spine", spine_gap),),
        exact=exact,
        label_a="C{}".format(quad_a),
        label_b="C{}".format(quad_b),
    )


# ---------------------------------------------------------------------------
# Equienergetic scan
# ---------------------------------------------------------------------------


def equienergetic_scan(n_min: int = 4, n_max: int = 10, energy_tol: float = 1e-8) -> list[CollisionPair]:
    """Tree pairs with numerically equal energy, flagged cospectral or not.

    For each order in n_min..n_max, trees whose values in the E column of
    the order's index table lie within energy_tol are paired.  Every pair
    carries its energy gap, an exact cospectrality flag (equal
    characteristic polynomials, expanded once per tree that is in a pair),
    and the spectral entropy gap.  Non-cospectral pairs with a
    decisive entropy gap are marked as candidate refutations of the
    energy-entropy conjecture (Ig gap above ``CANDIDATE_IG_GAP``).
    """
    if n_min < 2:
        raise ValueError(f"n_min must be >= 2, got {n_min}")
    if n_min > n_max:
        raise ValueError(f"n_min {n_min} exceeds n_max {n_max}")
    _check_tol("energy_tol", energy_tol)
    records: list[CollisionPair] = []
    for n in range(n_min, n_max + 1):
        trees = list(enumerate_trees(n))
        values = _index_values(trees, ("E", "Ig"))
        pairs = list(_near_pairs(values["E"], energy_tol))
        paired = {i for pair in pairs for i in pair}
        rows = {i: (values["E"][i], values["Ig"][i], char_poly(trees[i])) for i in paired}
        records.extend(_equienergetic_pair(trees[i], trees[j], rows[i], rows[j]) for i, j in pairs)
    records.sort(key=lambda p: (p.n_a, p.shared_value, p.code_a, p.code_b))
    return records


def _equienergetic_pair(
    tree_a: Tree,
    tree_b: Tree,
    row_a: tuple[float, float, tuple[int, ...]],
    row_b: tuple[float, float, tuple[int, ...]],
) -> CollisionPair:
    """The record of one pair; a row is the tree's (E, Ig, char_poly coefficients)."""
    if tree_a.code_hex > tree_b.code_hex:
        tree_a, tree_b = tree_b, tree_a
        row_a, row_b = row_b, row_a
    (e_a, ig_a, poly_a), (e_b, ig_b, poly_b) = row_a, row_b
    cospectral = poly_a == poly_b
    ig_gap = abs(ig_a - ig_b)
    return _tree_pair(
        "energy",
        tree_a,
        tree_b,
        (e_a + e_b) / 2.0,
        secondary_gaps=(("E", abs(e_a - e_b)), ("Ig", ig_gap)),
        cospectral=cospectral,
        candidate=(not cospectral) and ig_gap > CANDIDATE_IG_GAP,
    )
