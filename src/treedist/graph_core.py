"""Undirected simple graphs, free trees, canonical codes, and tree constructions.

Vertices are dense integers ``0..n-1``.  Graphs are immutable once built;
every edit-style operation returns a new object.  A :class:`Tree` is a
:class:`Graph`, so every graph function takes one directly; it also carries
a canonical code (centroid-rooted AHU encoding) that is equal exactly for
isomorphic trees, which is what deduplication and pair reporting key on
throughout the package.

Free trees are enumerated one isomorphism class at a time by one
composition rule: a root above a multiset of smaller rooted trees.  The
rooted catalog applies it to every smaller rooted tree, taken in decreasing
order of canonical level sequence, so each rooted tree arises once.  A tree
with a single centroid is a root above a multiset of rooted branches of at
most ``(n-1)//2`` vertices, and a bicentroidal tree (even ``n``) an
unordered pair of rooted trees of ``n//2`` vertices joined by an edge; no
duplicates can arise and the stream is deterministic.  Each enumerated
tree's canonical code is built from the catalog's rooted codes of its
branches at the centroid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Base class for graph construction and traversal errors."""


class VertexRangeError(GraphError):
    """A vertex label lies outside ``0..n-1``."""


class LoopEdgeError(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphError):
    """The same unordered edge appears more than once."""


class NotATreeError(GraphError):
    """A graph expected to be a tree is not connected or has the wrong size."""


class DisconnectedGraphError(GraphError):
    """An operation requiring connectivity met unreachable vertices."""

    def __init__(self, message: str, unreachable: Iterable[int] = ()):
        super().__init__(message)
        self.unreachable = frozenset(unreachable)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus a sorted tuple of edges.

    Edges are stored once each as ``(u, v)`` with ``u < v``.  Use
    :func:`from_edge_list` to build a validated instance from raw pairs.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise VertexRangeError(f"edge ({u}, {v}) out of range for n={self.n}")
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def delete_edge(self, u: int, v: int) -> "Graph":
        """Return a copy without edge ``{u, v}`` (which must exist)."""
        if u > v:
            u, v = v, u
        if (u, v) not in self.edges:
            raise GraphError(f"edge ({u}, {v}) not present")
        return Graph(self.n, tuple(e for e in self.edges if e != (u, v)))


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated :class:`Graph` from ``n`` and unordered vertex pairs.

    Rejects out-of-range labels, loops, and duplicate edges (after
    normalising each pair to ``u < v``), each with a distinct error type.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    seen: set[tuple[int, int]] = set()
    normalized: list[tuple[int, int]] = []
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexRangeError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise LoopEdgeError(f"loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdgeError(f"duplicate edge {e}")
        seen.add(e)
        normalized.append(e)
    return Graph(n, tuple(sorted(normalized)))


def bfs_distances(g: Graph, source: int) -> tuple[int, ...]:
    """Hop counts from ``source`` to every vertex of a connected graph."""
    if not (0 <= source < g.n):
        raise VertexRangeError(f"source {source} out of range for n={g.n}")
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    adj = g.adjacency
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    if any(d < 0 for d in dist):
        unreachable = [v for v, d in enumerate(dist) if d < 0]
        raise DisconnectedGraphError(
            f"graph is disconnected; {len(unreachable)} vertices unreachable from {source}",
            unreachable,
        )
    return tuple(dist)


def is_connected(g: Graph) -> bool:
    """True when every vertex is reachable from vertex 0 (or ``n <= 1``)."""
    if g.n <= 1:
        return True
    # Sufficient only: if every v > 0 has a smaller neighbour, walking down reaches 0.
    # With n - 1 edges, as in a Tree, it also puts every endpoint in 0..n-1.
    if {v for u, v in g.edges if 0 <= u < v}.issuperset(range(1, g.n)):
        return True
    return len(_dfs_order(g, 0)[0]) == g.n


@dataclass(frozen=True)
class Tree(Graph):
    """A connected acyclic :class:`Graph`, ``Tree(n, edges)``, with a lazily computed canonical code."""

    def __post_init__(self) -> None:
        if self.m != self.n - 1:
            raise NotATreeError(f"tree on {self.n} vertices needs {self.n - 1} edges, got {self.m}")
        if not is_connected(self):
            raise NotATreeError("graph is not connected")

    @cached_property
    def code(self) -> bytes:
        return _canonical_code(self)

    @property
    def code_hex(self) -> str:
        """Canonical code rendered as lowercase hex (the printable form)."""
        return self.code.hex()


def centroids(g: Graph) -> tuple[int, ...]:
    """The one or two centroid vertices of a tree-shaped graph."""
    n = g.n
    if n == 1:
        return (0,)
    order, parent, size = _subtree_sizes(g)
    result = []
    for v in order:
        heaviest = n - size[v]
        for w in g.adjacency[v]:
            if w != parent[v]:
                heaviest = max(heaviest, size[w])
        if heaviest <= n // 2:
            result.append(v)
    return tuple(sorted(result))


def _dfs_order(g: Graph, root: int) -> tuple[list[int], list[int]]:
    """Preorder vertex list and parent array for a traversal from ``root``."""
    parent = [-1] * g.n
    parent[root] = root
    order = [root]
    stack = [root]
    adj = g.adjacency
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
                stack.append(w)
    return order, parent


def _subtree_sizes(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """Preorder, parent array and subtree vertex counts of a traversal from 0."""
    order, parent = _dfs_order(g, 0)
    size = [1] * g.n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return order, parent, size


def _rooted_code(g: Graph, root: int) -> bytes:
    """AHU encoding of the tree rooted at ``root`` (children codes sorted)."""
    order, parent = _dfs_order(g, root)
    children: list[list[bytes]] = [[] for _ in range(g.n)]
    code: list[bytes] = [b""] * g.n
    for v in reversed(order):
        code[v] = _node_code(children[v])
        if v != root:
            children[parent[v]].append(code[v])
    return code[root]


def _node_code(child_codes: Iterable[bytes]) -> bytes:
    """AHU code of a vertex from the codes of its children, in any order."""
    return b"\x01" + b"".join(sorted(child_codes)) + b"\x00"


def _canonical_code(g: Graph) -> bytes:
    # Bicentroidal trees take the lexicographically smaller rooted code.
    return min(_rooted_code(g, c) for c in centroids(g))


# ---------------------------------------------------------------------------
# Free tree enumeration
# ---------------------------------------------------------------------------


# A catalog rooted tree: its canonical level sequence one level down (root at depth 1),
# its edges (parent, child) from root 0 in preorder labels, its root's sorted child
# codes, and its own rooted code.
_Branch = tuple[tuple[int, ...], tuple[tuple[int, int], ...], tuple[bytes, ...], bytes]


def _branch_sets(
    branches: list[_Branch], total: int, start: int = 0, chosen: tuple[_Branch, ...] = ()
) -> Iterator[tuple[_Branch, ...]]:
    """Multisets of ``branches`` with ``total`` vertices, as non-decreasing index runs in list order."""
    if total == 0:
        yield chosen
        return
    for i in range(start, len(branches)):
        size = len(branches[i][0])
        if size <= total:
            yield from _branch_sets(branches, total - size, i, chosen + (branches[i],))


def _glue(parts: Iterable[_Branch], base: int = 1) -> list[tuple[int, int]]:
    """Edges joining vertex 0 to each branch's root, the branches labelled in turn from ``base``."""
    edges = []
    for seq, branch_edges, _, _ in parts:
        edges.append((0, base))
        for u, v in branch_edges:
            edges.append((base + u, base + v))
        base += len(seq)
    return edges


def _rooted_catalog(max_size: int) -> dict[int, list[_Branch]]:
    """Every rooted tree on 1..``max_size`` vertices, each size in decreasing level-sequence order.

    A tree on k vertices is a root above a multiset of smaller trees.  Drawn
    from every smaller tree in decreasing level-sequence order, the
    multisets give each tree once, as its canonical (largest) sequence, and
    in decreasing order of that sequence.
    """
    catalog: dict[int, list[_Branch]] = {}
    smaller: list[_Branch] = []
    for k in range(1, max_size + 1):
        catalog[k] = []
        for parts in _branch_sets(smaller, k - 1):
            kids = tuple(sorted(b[3] for b in parts))
            seq = (1, *(d + 1 for b in parts for d in b[0]))
            catalog[k].append((seq, tuple(_glue(parts)), kids, _node_code(kids)))
        smaller = sorted(smaller + catalog[k], key=lambda b: b[0], reverse=True)
    return catalog


def _coded_tree(n: int, edges: list[tuple[int, int]], code: bytes) -> Tree:
    tree = Tree(n, tuple(sorted(edges)))
    tree.__dict__["code"] = code  # fills the cached property, as _canonical_code would
    return tree


def enumerate_trees(n: int) -> Iterator[Tree]:
    """Yield every free tree on ``n`` vertices, one isomorphism class each.

    Deterministic order: trees with a single centroid first (multisets of
    rooted branches, largest branch first, each size in catalog order), then
    bicentroidal trees for even ``n``.  Each tree comes with its canonical
    code, built from the catalog's rooted codes of its branches.
    """
    if n < 1:
        raise GraphError(f"tree order must be >= 1, got {n}")
    catalog = _rooted_catalog(n // 2)
    branches = [b for k in range((n - 1) // 2, 0, -1) for b in catalog[k]]
    for parts in _branch_sets(branches, n - 1):
        yield _coded_tree(n, _glue(parts), _node_code(b[3] for b in parts))
    if n % 2 == 0:
        halves = catalog[n // 2]
        for i, (_, edges_i, kids_i, code_i) in enumerate(halves):
            for half_j in halves[i:]:
                _, _, kids_j, code_j = half_j
                edges = [*edges_i, *_glue((half_j,), n // 2)]
                # Root at 0 or at n // 2: the half across the central edge becomes a child.
                code = min(_node_code(kids_i + (code_j,)), _node_code(kids_j + (code_i,)))
                yield _coded_tree(n, edges, code)


def count_trees(n: int) -> int:
    """Number of free trees on ``n`` vertices (OEIS A000055), without enumerating.

    Otter's formula over the rooted counts r(k) (OEIS A000081):
    t(n) = r(n) - sum_{i < n/2} r(i) r(n - i) - [n even] C(r(n/2), 2).
    """
    if n < 1:
        raise GraphError(f"tree order must be >= 1, got {n}")
    # r(k+1) = (1/k) sum_{j=1..k} (sum_{d | j} d r(d)) r(k - j + 1)
    rooted = [0, 1]
    divisor_sums = [0]
    for k in range(1, n):
        divisor_sums.append(sum(d * rooted[d] for d in range(1, k + 1) if k % d == 0))
        rooted.append(sum(divisor_sums[j] * rooted[k - j + 1] for j in range(1, k + 1)) // k)
    total = rooted[n] - sum(rooted[i] * rooted[n - i] for i in range(1, (n + 1) // 2))
    if n % 2 == 0:
        half = rooted[n // 2]
        total -= half * (half - 1) // 2
    return total


# ---------------------------------------------------------------------------
# Constructive families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaterpillarSpec:
    """Spine degrees ``(x, y, z, t)`` of a four-vertex caterpillar spine.

    ``x`` is the degree of the first spine vertex and may be 1 (the spine
    end degenerates to a leaf); the remaining degrees must be at least 2 so
    leaf counts ``y-2``, ``z-2``, ``t-2`` stay non-negative.  An optional
    tail tree hangs off the fourth spine vertex at ``tail_root``.
    """

    x: int
    y: int
    z: int
    t: int
    tail: Tree | None = None
    tail_root: int = 0

    def __post_init__(self) -> None:
        if self.x < 1:
            raise GraphError(f"x must be >= 1, got {self.x}")
        for name, val in (("y", self.y), ("z", self.z), ("t", self.t)):
            if val < 2:
                raise GraphError(f"{name} must be >= 2, got {val}")
        if self.tail is not None and not (0 <= self.tail_root < self.tail.n):
            raise VertexRangeError(f"tail_root {self.tail_root} out of range")

    @property
    def spine(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.z, self.t)


def build_caterpillar(spec: CaterpillarSpec) -> Tree:
    """Construct the caterpillar tree with spine degrees ``(x, y, z, t)``.

    Spine vertices are 0-1-2-3 with degrees x, y, z, t.  Vertex 3 carries
    ``t-2`` leaves plus the tail edge when a tail is present; with no tail
    it carries ``t-1`` leaves so its degree is still exactly ``t``.
    """
    x, y, z, t = spec.spine
    edges: list[tuple[int, int]] = [(0, 1), (1, 2), (2, 3)]
    nxt = 4
    leaf_counts = (x - 1, y - 2, z - 2, t - 2 if spec.tail is not None else t - 1)
    for spine_v, count in enumerate(leaf_counts):
        for _ in range(count):
            edges.append((spine_v, nxt))
            nxt += 1
    if spec.tail is not None:
        offset = nxt
        edges.append((3, offset + spec.tail_root))
        for u, v in spec.tail.edges:
            edges.append((offset + u, offset + v))
        nxt += spec.tail.n
    g = from_edge_list(nxt, edges)
    return Tree(g.n, g.edges)


def attach_tree(host: Tree, at: int, sub: Tree, sub_root: int) -> Tree:
    """Join ``sub`` (relabelled above ``host``) to ``host`` by one new edge."""
    if not (0 <= at < host.n):
        raise VertexRangeError(f"attachment vertex {at} out of range for host n={host.n}")
    if not (0 <= sub_root < sub.n):
        raise VertexRangeError(f"sub_root {sub_root} out of range for sub n={sub.n}")
    offset = host.n
    edges = list(host.edges)
    edges.append((at, offset + sub_root))
    edges.extend((offset + u, offset + v) for u, v in sub.edges)
    g = from_edge_list(host.n + sub.n, edges)
    return Tree(g.n, g.edges)


# ---------------------------------------------------------------------------
# Edge-list file format
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: first line ``n m``, then ``m`` lines ``u v``."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphError(f"non-integer header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphError(f"header announces {m} edges but {len(lines) - 1} lines follow")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"expected edge line 'u v', got {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphError(f"non-integer edge line {ln!r}") from exc
    return from_edge_list(n, edges)


def format_edge_list(g: Graph) -> str:
    """Serialize a graph to the edge-list format (round-trips via parse)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
