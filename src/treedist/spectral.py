"""Adjacency spectra: floating eigenvalues and exact characteristic polynomials.

The eigensolver is a cyclic Jacobi iteration on the dense symmetric 0/1
adjacency matrix.  It is simple, unconditionally convergent, and accurate to
well below 1e-10 at the matrix orders this package works at (n <= 64).

Characteristic polynomials are computed over exact arbitrary-precision
integers (Faddeev-LeVerrier), which makes cospectrality a decidable exact
comparison rather than a floating-point judgement call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, GraphError

# Eigenvalues with |lambda| at or below this are treated as zero downstream
# (spectral entropy excludes them).  Sits well below the smallest non-zero
# tree eigenvalue at desk scale and well above solver error.
TAU_ZERO = 1e-9

OFF_TOL = 1e-12
MAX_SWEEPS = 100


@dataclass(frozen=True)
class Spectrum:
    """All adjacency eigenvalues of a graph, sorted descending."""

    values: tuple[float, ...]
    n: int

    def abs_sum(self) -> float:
        return float(sum(abs(v) for v in self.values))

    def entropy(self) -> float:
        """Spectral entropy log E - (1/E) * Sum |lambda| log |lambda|, natural log.

        Eigenvalues with |lambda| <= TAU_ZERO are excluded; their limit
        contribution x log x -> 0 vanishes, so the exclusion is exact.
        """
        e_total = self.abs_sum()
        weighted = sum(abs(v) * math.log(abs(v)) for v in self.values if abs(v) > TAU_ZERO)
        return math.log(e_total) - weighted / e_total


@dataclass(frozen=True)
class CharPoly:
    """Exact integer characteristic polynomial, coefficients by ascending power.

    ``coeffs[i]`` multiplies ``lambda**i``; the leading coefficient is 1.
    """

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluation_scale(self, x: float) -> float:
        """Magnitude Sum |c_i| |x|^i, the natural scale for root residuals."""
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * abs(x) + abs(c)
        return max(acc, 1.0)


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.float64)
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def _off_norm(a: np.ndarray) -> float:
    return math.sqrt(max(0.0, float(np.sum(a * a) - np.sum(np.diag(a) ** 2))))


def jacobi_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps row by row until the off-diagonal Frobenius norm drops to
    ``OFF_TOL`` or ``MAX_SWEEPS`` is hit.  Returns the diagonal sorted
    descending.
    """
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    # Entries this small cannot push the off-diagonal norm above OFF_TOL,
    # so rotating on them only wastes sweeps (and risks overflow in theta).
    skip_tol = OFF_TOL / (2.0 * n)
    for _ in range(MAX_SWEEPS):
        if _off_norm(a) <= OFF_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[p, q])
                if abs(apq) <= skip_tol:
                    continue
                theta = (float(a[q, q]) - float(a[p, p])) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    values = np.sort(a.diagonal())[::-1]
    return values.copy()


def eigenvalues(g: Graph) -> Spectrum:
    """Adjacency spectrum of ``g``, sorted descending."""
    if g.n < 1:
        raise GraphError("spectrum of the empty graph is undefined")
    if g.m == 0:
        return Spectrum((0.0,) * g.n, g.n)
    vals = jacobi_eigenvalues(adjacency_matrix(g))
    return Spectrum(tuple(float(v) for v in vals), g.n)


def char_poly(g: Graph) -> CharPoly:
    """Exact integer characteristic polynomial of the adjacency matrix.

    Faddeev-LeVerrier over Python integers: the per-step division by k is
    exact for integer matrices, asserted rather than assumed.
    """
    n = g.n
    if n < 1:
        raise GraphError("characteristic polynomial of the empty graph is undefined")
    adj = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        adj[u][v] = 1
        adj[v][u] = 1
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A @ M_{k-1} + c_{n-k+1} * I
        prod = [[sum(adj[i][l] * m[l][j] for l in range(n) if adj[i][l]) for j in range(n)] for i in range(n)]
        ck = coeffs[n - k + 1]
        for i in range(n):
            prod[i][i] += ck
        m = prod
        trace = sum(adj[i][l] * m[l][i] for i in range(n) for l in range(n) if adj[i][l])
        q, r = divmod(-trace, k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        coeffs[n - k] = q
    return CharPoly(tuple(coeffs))


def is_cospectral(a: Graph, b: Graph) -> bool:
    """True iff the two graphs share the exact characteristic polynomial."""
    if a.n != b.n:
        raise GraphError(f"cospectrality needs equal orders, got {a.n} and {b.n}")
    return char_poly(a).coeffs == char_poly(b).coeffs
