"""Shared test helpers: graph builders, the isomorphism oracle, and the acceptance summary hook."""

from __future__ import annotations

from itertools import permutations

from treedist import Graph, Tree, from_edge_list

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
    return Tree(path_graph(n))


def star_tree(q: int) -> Tree:
    return Tree(star_graph(q))


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
