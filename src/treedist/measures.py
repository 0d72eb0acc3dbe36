"""Scalar distance measure between graph invariants and related bounds.

The measure d(a, b) = 1 - exp(-((a - b) / sigma)^2) maps an invariant gap
into [0, 1).  Because exp is strictly increasing, comparing two such
distances at any common sigma is equivalent to comparing the raw absolute
gaps; :func:`dominates` exposes that sigma-free reduction, and the
conjecture verdicts in :mod:`treedist.search` make the same gap comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .graph_core import Graph, GraphError, is_connected
from .indices import _check_log_base, _check_tol, check_probability_vector, wiener

# Exponents beyond this would underflow exp() to 0.0 and report a distance
# of exactly 1.0, breaking the open upper bound; clamp just below 1 instead.
_EXP_CLAMP = 700.0

# Leading coefficient (sqrt(2) - 1) / 6 of the cubic Wiener-gap bound.
WIENER_GAP_COEFF = (math.sqrt(2.0) - 1.0) / 6.0

# Orders up to the cube root of the largest float keep the term c n^3 finite.
MAX_THEOREM3_ORDER = int(math.nextafter(math.inf, 0.0) ** (1 / 3))


@dataclass(frozen=True)
class DistanceResult:
    """Distance between two scalar invariant values at a given sigma."""

    value_a: float
    value_b: float
    gap: float
    distance: float
    kind: str | None = None


def d_index(value_a: float, value_b: float, sigma: float, kind: str | None = None) -> DistanceResult:
    """Distance 1 - exp(-(gap/sigma)^2) between two invariant values."""
    _check_tol("sigma", sigma)
    if not (math.isfinite(value_a) and math.isfinite(value_b)):
        raise ValueError(f"invariant values must be finite, got {value_a}, {value_b}")
    gap = abs(value_a - value_b)
    ratio = gap / sigma
    exponent = ratio * ratio
    if not math.isfinite(exponent) or exponent > _EXP_CLAMP:
        distance = math.nextafter(1.0, 0.0)
    else:
        distance = -math.expm1(-exponent)
        if distance >= 1.0:
            # exp underflowed relative to 1.0; keep the bound strict.
            distance = math.nextafter(1.0, 0.0)
    return DistanceResult(value_a, value_b, gap, distance, kind)


def dominates(gap_a: float, gap_b: float) -> bool:
    """True iff gap_a >= gap_b (ties count).

    In exact arithmetic, for every sigma > 0, d_index at gap_a is >= d_index
    at gap_b exactly when this holds, so conjecture checks never need a
    sigma.  In floating point d_index is only non-decreasing in the gap:
    distinct gaps can round to the same distance (3.9999999999999996 and 4.0
    do at sigma = 1).  So a True verdict implies d_a >= d_b, and d_a > d_b
    implies True, but equal distances decide nothing: the exact gap
    comparison is the verdict.
    """
    if gap_a < 0.0 or gap_b < 0.0:
        raise ValueError(f"gaps must be non-negative, got {gap_a}, {gap_b}")
    return gap_a >= gap_b


def theorem1_a(p_prime: Sequence[float], log_base: float = math.e) -> float:
    """The bound constant A = Sum (p_i' log(1 + 1/p_i') + log(p_i' + 1)).

    Entries must be strictly positive: log(1 + 1/p) diverges at 0.
    """
    _check_log_base(log_base)
    check_probability_vector(p_prime)
    if any(x <= 0.0 for x in p_prime):
        raise ValueError("theorem-1 bound needs strictly positive entries")
    total = sum(x * math.log1p(1.0 / x) + math.log1p(x) for x in p_prime)
    return total / math.log(log_base)


def theorem1_bound(p_prime: Sequence[float], sigma: float, log_base: float = math.e) -> float:
    """The entropy-distance bound 1 - exp(-A^2 / sigma^2)."""
    a = theorem1_a(p_prime, log_base)
    return d_index(a, 0.0, sigma).distance


def theorem1_degeneracy(p: Sequence[float], p_prime: Sequence[float]) -> bool:
    """True iff p_i <= p_i' for every coordinate.

    Both arguments must be probability vectors, so acceptance forces
    p = p' (the coordinates sum to 1 on both sides) and the bounded
    distance collapses to 0; the hypothesis is checkable but vacuous.
    """
    check_probability_vector(p)
    check_probability_vector(p_prime)
    if len(p) != len(p_prime):
        raise ValueError(f"length mismatch: {len(p)} vs {len(p_prime)}")
    return all(a <= b for a, b in zip(p, p_prime))


class BridgeEdgeError(GraphError):
    """Deleting the edge would disconnect the graph."""


def wiener_deletion_gap(g: Graph, edge: tuple[int, int]) -> int:
    """Wiener increase W(G - e) - W(G) for a cyclic edge ``e`` (always >= 1)."""
    u, v = edge
    h = g.delete_edge(u, v)
    if not is_connected(h):
        raise BridgeEdgeError(f"edge ({u}, {v}) is a bridge; deletion gap needs a cyclic edge")
    return wiener(h) - wiener(g)


def theorem3_bound(n: int, sigma: float) -> float:
    """Leading-term Wiener-distance bound at unit edit distance.

    Returns 1 - exp(-(c n^3)^2 / sigma^2) with c = (sqrt(2) - 1) / 6.
    Asymptotic: the lower-order terms of the underlying inequality are
    dropped, so this is reported, never asserted against measured values.
    """
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    if n > MAX_THEOREM3_ORDER:
        raise ValueError(f"order must be <= {MAX_THEOREM3_ORDER}, got {n}")
    _check_tol("sigma", sigma)
    return d_index(WIENER_GAP_COEFF * n**3, 0.0, sigma).distance


def avg_distance_increase(g: Graph, edge: tuple[int, int]) -> float:
    """Average-distance increase mu(G - e) - mu(G) for a cyclic edge."""
    gap = wiener_deletion_gap(g, edge)
    pairs = g.n * (g.n - 1) / 2
    return gap / pairs
