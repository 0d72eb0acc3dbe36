"""Shared test helpers: graph builders, oracles, and the acceptance summary hook."""

from __future__ import annotations

import math
from itertools import permutations
from typing import Iterator

import numpy as np

from treedist import Graph, Tree, from_edge_list
from treedist.spectral import MAX_SWEEPS, OFF_TOL

# Pass/fail lines recorded by tests/test_acceptance.py, echoed after the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(q: int) -> Graph:
    """Star K_{1,q} with the center labelled 0."""
    return from_edge_list(q + 1, [(0, i) for i in range(1, q + 1)])


def cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path_tree(n: int) -> Tree:
    g = path_graph(n)
    return Tree(g.n, g.edges)


def star_tree(q: int) -> Tree:
    g = star_graph(q)
    return Tree(g.n, g.edges)


def dfs_connected(g: Graph) -> bool:
    """Whether a DFS from vertex 0 reaches every vertex (oracle for ``is_connected``)."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {0} if g.n else set()
    stack = list(seen)
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def rooted_level_sequences(k: int) -> Iterator[tuple[int, ...]]:
    """All canonical level sequences of rooted trees on ``k`` vertices (catalog oracle).

    A level sequence lists vertex depths in preorder with the root at depth
    0; the canonical representative of a class is the lexicographically
    largest one.  Successor rule (Beyer and Hedetniemi, 1980): locate the
    rightmost entry of depth > 1, back up to its parent, and tile the block
    between them to the end.  Sequences come in decreasing order.
    """
    if k <= 0:
        return
    seq = list(range(k))
    while True:
        yield tuple(seq)
        p = next((i for i in range(k - 1, -1, -1) if seq[i] > 1), None)
        if p is None:
            return
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        for i in range(p, k):
            seq[i] = seq[i - (p - q)]


def brute_force_isomorphic(a: Graph, b: Graph) -> bool:
    """Decide isomorphism by trying all vertex permutations (oracle, n <= ~8)."""
    if a.n != b.n or a.m != b.m:
        return False
    if sorted(a.degrees) != sorted(b.degrees):
        return False
    target = set(b.edges)
    for perm in permutations(range(a.n)):
        if all(
            ((perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])) in target
            for u, v in a.edges
        ):
            return True
    return False


def scalar_jacobi_eigenvalues(g: Graph) -> np.ndarray:
    """Adjacency eigenvalues by cyclic Jacobi on one matrix (oracle), sorted descending.

    The rotation order, skip rule and stopping rule are those of the stacked
    solver behind ``spectra``, written with Python float scalars, so the two
    must agree bit for bit.
    """
    a = np.zeros((g.n, g.n), dtype=np.float64)
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy()
    skip_tol = OFF_TOL / (2.0 * n)
    for _ in range(MAX_SWEEPS):
        if math.sqrt(max(0.0, float(np.sum(a * a) - np.sum(np.diag(a) ** 2)))) <= OFF_TOL:
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
    return np.sort(a.diagonal())[::-1].copy()


def root_residual_ok(coeffs: tuple[int, ...], x: float) -> bool:
    """Whether ``x`` is a root of the polynomial to 1e-6 of its natural scale (oracle).

    ``coeffs`` are by ascending power.  The residual p(x) is compared with
    Sum |c_i| |x|^i (at least 1), the size of the terms it cancels.
    """
    value = scale = 0.0
    for c in reversed(coeffs):
        value = value * x + c
        scale = scale * abs(x) + abs(c)
    return abs(value) <= 1e-6 * max(scale, 1.0)


def dense_char_poly(g: Graph) -> tuple[int, ...]:
    """Characteristic polynomial coefficients by dense Faddeev-LeVerrier (oracle).

    Ascending powers, over Python integers, with the full n x n products.
    """
    n = g.n
    adj = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        adj[u][v] = 1
        adj[v][u] = 1
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        prod = [[sum(adj[i][l] * m[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            prod[i][i] += coeffs[n - k + 1]
        m = prod
        trace = sum(adj[i][l] * m[l][i] for i in range(n) for l in range(n))
        q, r = divmod(-trace, k)
        assert r == 0, "Faddeev-LeVerrier division was not exact"
        coeffs[n - k] = q
    return tuple(coeffs)
