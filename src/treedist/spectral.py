"""Adjacency spectra: floating eigenvalues and exact characteristic polynomials.

The eigensolver is a cyclic Jacobi iteration on the dense symmetric 0/1
adjacency matrix.  It is simple, unconditionally convergent, and accurate to
well below 1e-10 at the matrix orders this package works at (n <= 64).
``spectra`` runs it on a stack of same-order matrices at once: each rotation
step is one set of numpy calls over every matrix that needs it, so Python
overhead is paid per step rather than per graph.  Each matrix still gets
exactly the float operations it would get alone, so a spectrum does not
depend on the stack it was solved in, and ``eigenvalues`` is a stack of one.

Characteristic polynomials are computed over exact arbitrary-precision
integers (Faddeev-LeVerrier with neighbour-list products), which makes
cospectrality a decidable exact comparison rather than a floating-point
judgement call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


# Bytes of matrix solved as one stack: a block of trees shares each rotation
# step's numpy calls, and the block bounds the memory the stack and its
# per-step temporaries hold (227 matrices at n = 12).
STACK_BYTES = 1 << 18

# Python's math.hypot, applied per element.  numpy's hypot (the C library's)
# can differ from it in the last bit, and that moves eigenvalues of exactly
# equal energy trees relative to each other.
_hypot = np.frompyfunc(math.hypot, 2, 1)


def _jacobi_stack(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a (T, n, n) stack of symmetric matrices, rows sorted descending.

    Cyclic Jacobi: each sweep visits (p, q) row by row, and rotates a matrix
    at (p, q) only where its entry exceeds ``OFF_TOL / (2n)``; smaller
    entries cannot lift the off-diagonal norm above ``OFF_TOL``.  A matrix
    leaves the sweep loop once its own off-diagonal Frobenius norm is at
    most ``OFF_TOL``, after ``MAX_SWEEPS``, or after a sweep that rotated
    nothing in it: every later sweep would leave it as it is.  Every matrix
    gets exactly the float operations it would get alone, so the result does
    not depend on the stack around it; one step's numpy calls serve the
    whole stack.
    """
    count, n, _ = a.shape
    values = np.empty((count, n))
    live = np.arange(count)
    skip_tol = OFF_TOL / (2.0 * n)
    for _ in range(MAX_SWEEPS):
        diag = np.diagonal(a, axis1=1, axis2=2)
        off = np.sqrt(np.maximum(0.0, np.sum(a * a, axis=(1, 2)) - np.sum(diag**2, axis=1)))
        a, live = _retire(a, live, off <= OFF_TOL, values)
        if not len(live):
            break
        rotated = np.zeros(len(live), dtype=bool)
        for p in range(n - 1):
            for q in range(p + 1, n):
                hit = np.abs(a[:, p, q]) > skip_tol
                if hit.all():
                    _rotate(a, p, q)
                elif hit.any():
                    rows = hit.nonzero()[0]
                    sub = a[rows]
                    _rotate(sub, p, q)
                    a[rows] = sub
                rotated |= hit
        a, live = _retire(a, live, ~rotated, values)
    values[live] = np.diagonal(a, axis1=1, axis2=2)
    return np.sort(values, axis=1)[:, ::-1]


def _rotate(a: np.ndarray, p: int, q: int) -> None:
    """One Jacobi rotation at (p, q) of every matrix in the stack, in place."""
    theta = (a[:, q, q] - a[:, p, p]) / (2.0 * a[:, p, q])
    t = np.copysign(1.0, theta) / (np.abs(theta) + _hypot(1.0, theta).astype(np.float64))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    c, s = c[:, None], s[:, None]
    col_p, col_q = a[:, :, p], a[:, :, q]
    a[:, :, p], a[:, :, q] = c * col_p - s * col_q, s * col_p + c * col_q
    row_p, row_q = a[:, p, :], a[:, q, :]
    a[:, p, :], a[:, q, :] = c * row_p - s * row_q, s * row_p + c * row_q
    a[:, p, q] = 0.0
    a[:, q, p] = 0.0


def _retire(a: np.ndarray, live: np.ndarray, done: np.ndarray, values: np.ndarray):
    """Store the diagonals of the ``done`` matrices and drop them from the stack."""
    if not done.any():
        return a, live
    values[live[done]] = np.diagonal(a[done], axis1=1, axis2=2)
    return a[~done], live[~done]


def spectra(graphs: Sequence[Graph]) -> list[Spectrum]:
    """Adjacency spectra of graphs of one order, each sorted descending.

    The adjacency matrices are solved as stacks of ``STACK_BYTES``; each
    spectrum is bit for bit what ``eigenvalues`` gives for its graph alone.
    """
    if not graphs:
        return []
    n = graphs[0].n
    if n < 1:
        raise GraphError("spectrum of the empty graph is undefined")
    if any(g.n != n for g in graphs):
        raise GraphError(f"spectra needs graphs of one order, got {sorted({g.n for g in graphs})}")
    size = max(1, STACK_BYTES // (8 * n * n))
    out: list[Spectrum] = []
    for start in range(0, len(graphs), size):
        chunk = graphs[start : start + size]
        stack = np.zeros((len(chunk), n, n))
        which = [i for i, g in enumerate(chunk) for _ in g.edges]
        us = [u for g in chunk for u, _ in g.edges]
        vs = [v for g in chunk for _, v in g.edges]
        stack[which, us, vs] = 1.0
        stack[which, vs, us] = 1.0
        out.extend(Spectrum(tuple(row), n) for row in _jacobi_stack(stack).tolist())
    return out


def eigenvalues(g: Graph) -> Spectrum:
    """Adjacency spectrum of ``g``, sorted descending."""
    return spectra([g])[0]


def char_poly(g: Graph) -> tuple[int, ...]:
    """Exact integer characteristic polynomial of the adjacency matrix.

    Coefficients by ascending power: entry i multiplies ``lambda**i``, and
    the last (leading) entry is 1.

    Faddeev-LeVerrier over Python integers: M_k = A M_{k-1} + c_{n-k+1} I
    and c_{n-k} = -tr(A M_k) / k.  Row i of A M is the sum of the rows of M
    at the neighbours of i, so each step costs O(m n) additions, not the
    O(n^3) of a dense product.  The division by k is exact for integer
    matrices, asserted rather than assumed.
    """
    n = g.n
    if n < 1:
        raise GraphError("characteristic polynomial of the empty graph is undefined")
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    zero_row = [0] * n
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [zero_row] * n
    for k in range(1, n + 1):
        ck = coeffs[n - k + 1]
        prod = [[sum(col) for col in zip(*(m[l] for l in nbrs[i]))] or zero_row[:] for i in range(n)]
        for i in range(n):
            prod[i][i] += ck
        m = prod
        trace = sum(m[l][i] for i in range(n) for l in nbrs[i])
        q, r = divmod(-trace, k)
        if r:
            raise ArithmeticError("Faddeev-LeVerrier division was not exact")
        coeffs[n - k] = q
    return tuple(coeffs)
