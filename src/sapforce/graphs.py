"""Simple undirected graphs on vertices 1..n with bitset adjacency.

Vertices are 1-indexed throughout; bit ``v`` of an adjacency mask stands for
vertex ``v`` (bit 0 is never used).  Graph values are immutable, so every
operation returns a new graph and is safe to call from concurrent code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Collection, Iterable, Iterator, Sequence


class GraphError(ValueError):
    pass


class Graph6Error(GraphError):
    """Malformed graph6 input.  ``offset`` is the first offending byte."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CapExceededError(GraphError):
    """An input exceeds a size limit: a command's cap on an exhaustive search,
    or the range that a result or the built-in enumeration covers."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``adj[v]`` is the neighbor bitset of vertex v."""

    n: int
    adj: tuple[int, ...]
    #: bitset of vertices 1..n
    full_mask: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        if len(self.adj) != self.n + 1 or self.adj[0] != 0:
            raise GraphError("adjacency table must have slots 0..n with slot 0 empty")
        full = (1 << (self.n + 1)) - 2
        object.__setattr__(self, "full_mask", full)
        for v in range(1, self.n + 1):
            a = self.adj[v]
            if a & ~full:
                raise GraphError(f"vertex {v} has neighbors outside 1..{self.n}")
            if a >> v & 1:
                raise GraphError(f"vertex {v} has a self-loop")
        for v in range(1, self.n + 1):
            for u in bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise GraphError(f"adjacency is not symmetric at {{{u},{v}}}")

    # -- construction -------------------------------------------------

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * (n + 1))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * (n + 1)
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"edge {{{u},{v}}} outside 1..{n}")
            if u == v:
                raise GraphError(f"self-loop at {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))

    # -- basic queries ------------------------------------------------

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max((self.degree(v) for v in self.vertices()), default=0)

    def min_degree(self) -> int:
        return min((self.degree(v) for v in self.vertices()), default=0)

    def closed_neighborhood(self, v: int) -> int:
        """Bitset ``N[v] = N(v) + v``."""
        return self.adj[v] | (1 << v)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self.vertices() for v in bits(self.adj[u]) if u < v]

    def non_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v in combinations(self.vertices(), 2) if not self.has_edge(u, v)]

    def num_edges(self) -> int:
        return sum(self.degree(v) for v in self.vertices()) // 2

    # -- derived graphs -----------------------------------------------

    def complement(self) -> "Graph":
        full = self.full_mask
        adj = [0] + [full & ~self.adj[v] & ~(1 << v) for v in self.vertices()]
        return Graph(self.n, tuple(adj))

    def join(self, other: "Graph") -> "Graph":
        """Disjoint union plus all edges between the two vertex sets."""
        n = self.n + other.n
        shift = self.n
        mine = ((1 << (self.n + 1)) - 2)
        theirs = ((1 << (n + 1)) - 2) & ~mine
        adj = [0]
        for v in self.vertices():
            adj.append(self.adj[v] | theirs)
        for v in other.vertices():
            adj.append((other.adj[v] << shift) | mine)
        return Graph(n, tuple(adj))

    def disjoint_union(self, other: "Graph") -> "Graph":
        n = self.n + other.n
        shift = self.n
        adj = [0]
        for v in self.vertices():
            adj.append(self.adj[v])
        for v in other.vertices():
            adj.append(other.adj[v] << shift)
        return Graph(n, tuple(adj))

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph; kept vertices are relabeled 1..k in ascending order."""
        keep = sorted(set(vertices))
        index = {v: i + 1 for i, v in enumerate(keep)}
        adj = [0] * (len(keep) + 1)
        for v in keep:
            for u in bits(self.adj[v]):
                if u in index:
                    adj[index[v]] |= 1 << index[u]
        return Graph(len(keep), tuple(adj))

    def delete_vertex(self, v: int) -> "Graph":
        return self.induced(u for u in self.vertices() if u != v)

    def contract_edge(self, u: int, v: int) -> "Graph":
        """Contract edge {u,v}: merge v into u, drop parallel edges and loops;
        the vertices above v move down by one."""
        if not self.has_edge(u, v):
            raise GraphError(f"cannot contract non-edge {{{u},{v}}}")
        below = (1 << v) - 1
        adj = [0]
        for w in self.vertices():
            if w == v:
                continue
            m = self.adj[w]
            if w == u:
                m = (m | self.adj[v]) & ~(1 << u)
            elif m >> v & 1:
                m |= 1 << u
            m &= ~(1 << v)
            # bit v is clear: the bits above it move down by one
            adj.append(m & below | m >> 1 & ~below)
        return Graph(self.n - 1, tuple(adj))

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply a permutation given as ``perm[old] = new`` (slot 0 ignored)."""
        adj = [0] * (self.n + 1)
        for v in self.vertices():
            m = 0
            for u in bits(self.adj[v]):
                m |= 1 << perm[u]
            adj[perm[v]] = m
        return Graph(self.n, tuple(adj))

    # -- connectivity -------------------------------------------------

    def reach(self, start: int, within: int | None = None) -> int:
        """Bitset of vertices reachable from ``start`` (restricted to ``within``)."""
        allowed = self.full_mask if within is None else within
        return _grow(self.adj, _vertex_mask(self, (start,)) & allowed, allowed)[0]

    def components(self) -> list[frozenset[int]]:
        """Vertex sets of the connected components, ordered by least vertex."""
        return [frozenset(bits(comp)) for comp in self.component_masks()]

    def component_masks(self) -> list[int]:
        return _components(self.adj, self.full_mask)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return self.reach(1) == self.full_mask

    def is_tree(self) -> bool:
        return self.n >= 1 and self.is_connected() and self.num_edges() == self.n - 1

    def is_path_graph(self) -> bool:
        if not self.is_tree():
            return False
        return all(self.degree(v) <= 2 for v in self.vertices())

    def is_forest(self) -> bool:
        return self.num_edges() == self.n - len(self.component_masks())

    def diameter(self) -> int:
        """Longest shortest-path distance; raises on disconnected input."""
        if not self.is_connected():
            raise GraphError("diameter undefined for disconnected graph")
        best = 0
        for s in self.vertices():
            dist = {s: 0}
            frontier = [s]
            while frontier:
                nxt = []
                for v in frontier:
                    for u in bits(self.adj[v]):
                        if u not in dist:
                            dist[u] = dist[v] + 1
                            nxt.append(u)
                frontier = nxt
            best = max(best, max(dist.values()))
        return best

    # -- encoding -----------------------------------------------------

    def to_graph6(self) -> str:
        return encode_graph6(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={self.edges()})"


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of a vertex bitset, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _grow(adj: Sequence[int], seed: int, within: int) -> tuple[int, int]:
    """The component of ``seed`` (a bitset inside ``within``) in ``adj``
    restricted to ``within``, and every vertex adjacent to it: the one
    component walk behind ``reach``, ``_components``, Zplus and the odd
    cycle rule."""
    comp = frontier = seed
    touched = 0
    while frontier:  # bits walked inline: the games call this per component
        low = frontier & -frontier
        frontier ^= low
        touched |= adj[low.bit_length() - 1]
        if not frontier:
            frontier = touched & within & ~comp
            comp |= frontier
    return comp, touched


def _components(adj: Sequence[int], within: int) -> list[int]:
    """The components of ``adj`` restricted to ``within``, by least vertex."""
    out = []
    while within:
        comp = _grow(adj, within & -within, within)[0]
        out.append(comp)
        within &= ~comp
    return out


def _vertex_mask(g: Graph, vertices: Collection[int]) -> int:
    """The bitset of ``vertices``, the one vertex-set-to-bitset conversion;
    a ``ValueError`` names the first vertex outside 1..n."""
    mask = 0
    try:
        for v in vertices:
            mask |= 1 << v
    except ValueError:  # a negative shift count
        mask = -1
    if mask & ~g.full_mask:
        bad = next(v for v in vertices if not 1 <= v <= g.n)
        raise ValueError(f"vertex {bad} outside 1..{g.n}")
    return mask


NonEdgePair = tuple[int, int]


def _pair(u: int, v: int) -> NonEdgePair:
    return (u, v) if u < v else (v, u)


def sorted_non_edge(g: Graph, u: int, v: int) -> NonEdgePair:
    if not (1 <= u <= g.n and 1 <= v <= g.n):
        raise ValueError(f"{{{u},{v}}} outside 1..{g.n}")
    if u == v or g.has_edge(u, v):
        raise ValueError(f"{{{u},{v}}} is not a non-edge")
    return _pair(u, v)


# -- graph6 codec -----------------------------------------------------
#
# Standard printable encoding: N(n) followed by the upper triangle packed
# column-major (x_{0,1}, x_{0,2}, x_{1,2}, x_{0,3}, ...) into 6-bit groups,
# each offset by 63.

_G6_HEADER = ">>graph6<<"
# the largest vertex count the 4-byte form of N(n) holds, so the largest
# order ``encode_graph6`` writes and ``parse_edge_list`` reads
_MAX_ORDER = 258047


def _g6_read_n(data: bytes) -> tuple[int, int]:
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    b0 = data[0]
    if b0 == 126:
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise Graph6Error("truncated 8-byte vertex count", len(data))
            chunk, start = data[2:8], 8
        else:
            if len(data) < 4:
                raise Graph6Error("truncated 4-byte vertex count", len(data))
            chunk, start = data[1:4], 4
        n = 0
        for i, b in enumerate(chunk):
            if not 63 <= b <= 126:
                raise Graph6Error(f"vertex-count byte {b} out of range", (start - len(chunk)) + i)
            n = (n << 6) | (b - 63)
        return n, start
    if not 63 <= b0 <= 126:
        raise Graph6Error(f"header byte {b0} out of range 63..126", 0)
    return b0 - 63, 1


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 string (optional ``>>graph6<<`` prefix allowed)."""
    if isinstance(text, str):
        text = text.encode("ascii", errors="replace")
    if text.startswith(_G6_HEADER.encode()):
        text = text[len(_G6_HEADER):]
    text = text.strip()
    n, start = _g6_read_n(text)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = text[start:]
    if len(body) < nbytes:
        raise Graph6Error(
            f"truncated bit vector: need {nbytes} bytes, found {len(body)}", start + len(body)
        )
    if len(body) > nbytes:
        raise Graph6Error("trailing bytes after bit vector", start + nbytes)
    bitstream = 0
    for i, b in enumerate(body):
        if not 63 <= b <= 126:
            raise Graph6Error(f"bit-vector byte {b} out of range 63..126", start + i)
        bitstream = (bitstream << 6) | (b - 63)
    pad = nbytes * 6 - nbits
    bitstream >>= pad
    adj = [0] * (n + 1)
    # bits arrive most-significant first: (0,1), (0,2), (1,2), (0,3), ...
    pos = nbits - 1
    for col in range(1, n):
        for row in range(col):
            if bitstream >> pos & 1:
                u, v = row + 1, col + 1
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            pos -= 1
    return Graph(n, tuple(adj))


def encode_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= _MAX_ORDER:
        head = bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    else:
        raise Graph6Error(f"vertex counts above {_MAX_ORDER} are not supported")
    nbits = n * (n - 1) // 2
    bitstream = 0
    for col in range(1, n):
        for row in range(col):
            bitstream = (bitstream << 1) | (1 if g.has_edge(row + 1, col + 1) else 0)
    nbytes = (nbits + 5) // 6
    bitstream <<= nbytes * 6 - nbits
    body = bytes(((bitstream >> (6 * (nbytes - 1 - i))) & 63) + 63 for i in range(nbytes))
    return (head + body).decode("ascii")


# -- edge-list text format ---------------------------------------------
#
# First line "n m", then m lines "i j".  ``indexing=0`` accepts 0-based
# vertex labels and converts to the internal 1-based convention.

def parse_edge_list(text: str, indexing: int = 1) -> Graph:
    if indexing not in (0, 1):
        raise GraphError("indexing must be 0 or 1")
    lines = [ln.split("#")[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise GraphError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"expected header 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if n > _MAX_ORDER:
        raise GraphError(f"vertex count {n} exceeds {_MAX_ORDER}")
    if len(lines) - 1 != m:
        raise GraphError(f"header promises {m} edges, found {len(lines) - 1}")
    shift = 1 - indexing
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"expected edge 'i j', got {ln!r}")
        edges.append((int(parts[0]) + shift, int(parts[1]) + shift))
    return Graph.from_edges(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
