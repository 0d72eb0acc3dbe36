"""Topological indices and entropies of graphs.

All index functions return an :class:`IndexValue` tagging the result with
its kind (and, for entropies, the logarithm base).  Logarithms default to
base e; pass ``log_base`` to rescale.  The Wiener index sums distances over
unordered vertex pairs, which is the reading forced by the average-distance
definition mu = W / C(n, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .graph_core import DisconnectedGraphError, Graph, GraphError, Tree, _dfs_order, bfs_distances, is_connected
from .spectral import eigenvalues

PROBABILITY_SUM_TOL = 1e-12


@dataclass(frozen=True)
class IndexValue:
    """A named scalar graph invariant.

    kind is one of ``W`` (Wiener), ``R`` (Randic), ``E`` (energy), ``Ig``
    (spectral entropy), ``If`` (degree-power entropy, with exponent ``k``),
    ``mu`` (average distance).
    """

    kind: str
    value: float
    k: int | None = None
    log_base: float | None = None

    def __float__(self) -> float:
        return float(self.value)


def _require_connected(g: Graph, what: str) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError(f"{what} requires a connected graph")


def wiener(g: Graph) -> IndexValue:
    """Sum of shortest-path distances over unordered vertex pairs."""
    _require_connected(g, "Wiener index")
    total = 0
    for v in range(g.n):
        total += sum(bfs_distances(g, v))
    return IndexValue("W", total // 2)


def wiener_edge_cut(t: Tree) -> int:
    """Tree-only Wiener strategy: sum over edges of s * (n - s).

    ``s`` is the vertex count on one side of the edge.  Independent of the
    all-pairs BFS route and must agree with it exactly.
    """
    n = t.n
    order, parent = _dfs_order(t.graph, 0)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return sum(size[v] * (n - size[v]) for v in order[1:])


def randic(g: Graph) -> IndexValue:
    """Sum over edges of 1 / sqrt(deg(u) * deg(v))."""
    if any(d == 0 for d in g.degrees):
        raise GraphError("Randic index is undefined with isolated vertices")
    total = sum(1.0 / math.sqrt(g.degrees[u] * g.degrees[v]) for u, v in g.edges)
    return IndexValue("R", total)


def energy(g: Graph) -> IndexValue:
    """Graph energy: sum of absolute adjacency eigenvalues."""
    return IndexValue("E", eigenvalues(g).abs_sum())


def ig_entropy(g: Graph, log_base: float = math.e) -> IndexValue:
    """Spectral entropy log E - (1/E) * Sum |lambda| log |lambda|.

    See :meth:`Spectrum.entropy`, rescaled to ``log_base``.
    """
    _check_log_base(log_base)
    if g.m == 0:
        raise GraphError("spectral entropy needs at least one edge (E > 0)")
    return IndexValue("Ig", eigenvalues(g).entropy() / math.log(log_base), log_base=log_base)


def ifk_entropy(g: Graph, k: int = 1, log_base: float = math.e) -> IndexValue:
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
    value = (math.log(power_sum) - weighted / power_sum) / math.log(log_base)
    return IndexValue("If", value, k=k, log_base=log_base)


def shannon_entropy(p: Sequence[float], log_base: float = math.e) -> float:
    """Shannon entropy -Sum p_i log p_i of a probability vector."""
    _check_log_base(log_base)
    check_probability_vector(p)
    total = -sum(x * math.log(x) for x in p if x > 0.0)
    return total / math.log(log_base)


def avg_distance(g: Graph) -> IndexValue:
    """Average distance mu = W / C(n, 2)."""
    if g.n < 2:
        raise GraphError("average distance needs at least two vertices")
    w = wiener(g).value
    return IndexValue("mu", w / (g.n * (g.n - 1) / 2))


def check_probability_vector(p: Sequence[float], tol: float = PROBABILITY_SUM_TOL) -> None:
    """Reject vectors with negative entries or a sum away from 1."""
    if len(p) == 0:
        raise ValueError("probability vector must be non-empty")
    for x in p:
        if x < 0.0:
            raise ValueError(f"negative probability entry {x}")
    s = math.fsum(p)
    if abs(s - 1.0) > tol:
        raise ValueError(f"probability entries sum to {s!r}, not 1")


def _check_log_base(base: float) -> None:
    if not (1.0 < base < math.inf):
        raise ValueError(f"log base must be a finite real > 1, got {base}")
