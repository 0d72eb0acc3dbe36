"""Topological indices and entropies of graphs.

The Wiener index is an int; every other index is a float.  Logarithms
default to base e; pass ``log_base`` to rescale.  The Wiener index sums
distances over unordered vertex pairs, which is the reading forced by the
average-distance definition mu = W / C(n, 2).
"""

from __future__ import annotations

import math
from typing import Sequence

from .graph_core import Graph, GraphError, Tree, _subtree_sizes, bfs_distances
from .spectral import eigenvalues

PROBABILITY_SUM_TOL = 1e-12


def wiener(g: Graph) -> int:
    """Sum of shortest-path distances over unordered vertex pairs.

    A :class:`Tree` sums s * (n - s) over its edges, ``s`` being the vertex
    count on one side.  Any other graph sums all-pairs BFS distances, and a
    disconnected one raises ``DisconnectedGraphError`` from the first
    ``bfs_distances`` call.
    """
    if isinstance(g, Tree):
        order, _, size = _subtree_sizes(g)
        return sum(size[v] * (g.n - size[v]) for v in order[1:])
    return sum(sum(bfs_distances(g, v)) for v in range(g.n)) // 2


def randic(g: Graph) -> float:
    """Sum over edges of 1 / sqrt(deg(u) * deg(v))."""
    if any(d == 0 for d in g.degrees):
        raise GraphError("Randic index is undefined with isolated vertices")
    return sum(1.0 / math.sqrt(g.degrees[u] * g.degrees[v]) for u, v in g.edges)


def energy(g: Graph) -> float:
    """Graph energy: sum of absolute adjacency eigenvalues."""
    return eigenvalues(g).abs_sum()


def ig_entropy(g: Graph, log_base: float = math.e) -> float:
    """Spectral entropy log E - (1/E) * Sum |lambda| log |lambda|.

    See :meth:`Spectrum.entropy`, rescaled to ``log_base``.
    """
    _check_log_base(log_base)
    if g.m == 0:
        raise GraphError("spectral entropy needs at least one edge (E > 0)")
    return eigenvalues(g).entropy() / math.log(log_base)


def ifk_entropy(g: Graph, k: int = 1, log_base: float = math.e) -> float:
    """Degree-power entropy log(Sum d^k) - (1/Sum d^k) * Sum d^k log d^k.

    Computed in the factored form d^k log d^k = k d^k log d.
    """
    _check_log_base(log_base)
    if k < 1:
        raise GraphError(f"exponent k must be >= 1, got {k}")
    if g.m == 0:
        raise GraphError("degree-power entropy needs at least one edge")
    power_sum = sum(d**k for d in g.degrees)
    weighted = k * sum((d**k) * math.log(d) for d in g.degrees if d > 0)
    return (math.log(power_sum) - weighted / power_sum) / math.log(log_base)


def shannon_entropy(p: Sequence[float], log_base: float = math.e) -> float:
    """Shannon entropy -Sum p_i log p_i of a probability vector."""
    _check_log_base(log_base)
    check_probability_vector(p)
    total = -sum(x * math.log(x) for x in p if x > 0.0)
    return total / math.log(log_base)


def avg_distance(g: Graph) -> float:
    """Average distance mu = W / C(n, 2)."""
    if g.n < 2:
        raise GraphError("average distance needs at least two vertices")
    return wiener(g) / (g.n * (g.n - 1) / 2)


def check_probability_vector(p: Sequence[float], tol: float = PROBABILITY_SUM_TOL) -> None:
    """Reject vectors with non-finite or negative entries or a sum away from 1."""
    if len(p) == 0:
        raise ValueError("probability vector must be non-empty")
    for x in p:
        if not math.isfinite(x):
            raise ValueError(f"probability entries must be finite, got {x}")
        if x < 0.0:
            raise ValueError(f"negative probability entry {x}")
    s = math.fsum(p)
    if abs(s - 1.0) > tol:
        raise ValueError(f"probability entries sum to {s!r}, not 1")


def _check_log_base(base: float) -> None:
    if not (1.0 < base < math.inf):
        raise ValueError(f"log base must be a finite real > 1, got {base}")


def _check_tol(name: str, tol: float) -> None:
    if not (0.0 < tol < math.inf):
        raise ValueError(f"{name} must be a positive finite real, got {tol}")
