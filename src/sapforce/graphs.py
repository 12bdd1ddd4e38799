"""Simple undirected graphs on vertices 1..n with bitset adjacency.

Vertices are 1-indexed throughout; bit ``v`` of an adjacency mask stands for
vertex ``v`` (bit 0 is never used).  Graph values are immutable, so every
operation returns a new graph and is safe to call from concurrent code.

A graph is checked once, where it enters: ``Graph(n, adj)`` checks the
table's range, loops and symmetry, and every parser checks its input text
before it builds one.  Three constructors build tables that are valid by
construction and skip the check through ``Graph._unchecked``:

- ``parse_graph6``, once its bytes are checked: each set bit of the bit
  vector sets both directions of a pair u < v inside 1..n;
- ``Graph.relabel``, once ``perm`` is checked to be a permutation: the image
  of a valid graph under a permutation is valid;
- ``canon._word_graph``: each bit of an adjacency word sets both directions
  of a pair u < v inside 1..n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Sequence


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
        n = self.n
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        adj = tuple(self.adj)  # a list would make the graph unhashable
        object.__setattr__(self, "adj", adj)
        if len(adj) != n + 1 or adj[0] != 0:
            raise GraphError("adjacency table must have slots 0..n with slot 0 empty")
        object.__setattr__(self, "full_mask", (1 << (n + 1)) - 2)
        for v in range(1, n + 1):
            a = adj[v]
            # bits 0 and n + 1 up, tested without an n-bit mask per slot
            if a & 1 or a >> (n + 1):
                raise GraphError(f"vertex {v} has neighbors outside 1..{n}")
            if a >> v & 1:
                raise GraphError(f"vertex {v} has a self-loop")
        for v in range(1, n + 1):
            rest = adj[v]
            while rest:  # bits walked inline: every new graph pays this
                low = rest & -rest
                u = low.bit_length() - 1
                if not adj[u] >> v & 1:
                    raise GraphError(f"adjacency is not symmetric at {{{u},{v}}}")
                rest ^= low

    # -- construction -------------------------------------------------

    @staticmethod
    def _unchecked(n: int, adj: tuple[int, ...]) -> "Graph":
        """A graph whose table is valid by construction, built without the
        checks of ``__post_init__``.  The caller guarantees that ``adj`` is
        a tuple of n + 1 ints with slot 0 empty and every bit inside 1..n,
        that no vertex is its own neighbour, and that u is in ``adj[v]``
        exactly when v is in ``adj[u]``."""
        g = object.__new__(Graph)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        object.__setattr__(g, "full_mask", (1 << (n + 1)) - 2)
        return g

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

    def min_degree(self) -> int:
        return min((self.degree(v) for v in self.vertices()), default=0)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self.vertices() for v in bits(self.adj[u]) if u < v]

    def non_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v in combinations(self.vertices(), 2) if not self.has_edge(u, v)]

    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

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

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph; kept vertices are relabeled 1..k in ascending
        order.  A vertex outside 1..n raises ``ValueError``."""
        keep = list(bits(_vertex_mask(self, vertices)))
        index = {v: i + 1 for i, v in enumerate(keep)}
        adj = [0] * (len(keep) + 1)
        for v in keep:
            for u in bits(self.adj[v]):
                if u in index:
                    adj[index[v]] |= 1 << index[u]
        return Graph(len(keep), tuple(adj))

    def delete_vertex(self, v: int) -> "Graph":
        return self.induced(bits(self.full_mask ^ _vertex_mask(self, (v,))))

    def contract_edge(self, u: int, v: int) -> "Graph":
        """Contract edge {u,v}: merge v into u, drop parallel edges and loops;
        the vertices above v move down by one."""
        if not self.has_edge(u, v):
            raise GraphError(f"cannot contract non-edge {{{u},{v}}}")
        return Graph(self.n - 1, tuple(_contract(self.adj, u, v)))

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply a permutation given as ``perm[old] = new`` (slot 0 ignored)."""
        n = self.n
        if len(perm) != n + 1 or sorted(perm[1:]) != list(range(1, n + 1)):
            raise GraphError(f"perm must list each of 1..{n} once after slot 0")
        adj = [0] * (n + 1)
        for v in self.vertices():
            m = 0
            rest = self.adj[v]
            while rest:  # bits walked inline: corpora relabel every graph
                low = rest & -rest
                rest ^= low
                m |= 1 << perm[low.bit_length() - 1]
            adj[perm[v]] = m
        # a permutation's image of a valid table is valid
        return Graph._unchecked(n, tuple(adj))

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


def _contract(adj: Sequence[int], u: int, v: int) -> list[int]:
    """The adjacency slots 0..n-1 of ``adj`` (slots 0..n) with the edge {u,v}
    contracted: v merged into u, the loop and parallel edges dropped, the
    vertices above v moved down by one.  The one contraction kernel, behind
    ``Graph.contract_edge`` and every state of the minor search."""
    below, above, bu = (1 << v) - 1, -(1 << v), 1 << u
    out = []
    for m in adj:
        if m >> v & 1:
            m |= bu
        # bit v is dropped: the bits above it move down by one
        out.append(m & below | m >> 1 & above)
    m = (adj[u] | adj[v]) & ~bu
    out[u] = m & below | m >> 1 & above
    del out[v]
    return out


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


def _vertex_mask(g: Graph, vertices: Iterable[int]) -> int:
    """The bitset of ``vertices``, the one vertex-set-to-bitset conversion;
    a ``ValueError`` names the first vertex outside 1..n, found before any
    shift by it, so a huge vertex id allocates no huge int."""
    mask = 0
    for v in vertices:
        if not 0 < v <= g.n:
            raise ValueError(f"vertex {v} outside 1..{g.n}")
        mask |= 1 << v
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
# order ``encode_graph6`` writes and ``parse_graphs`` reads in an edge list
_MAX_ORDER = 258047


def _g6_read_n(data: bytes, at: int) -> tuple[int, int]:
    """The vertex count of the graph6 string that starts at ``data[at]`` and
    the offset of its bit vector; error offsets count from ``data[0]``."""
    if len(data) == at:
        raise Graph6Error("empty graph6 string", at)
    b0 = data[at]
    if b0 == 126:
        if len(data) >= at + 2 and data[at + 1] == 126:
            if len(data) < at + 8:
                raise Graph6Error("truncated 8-byte vertex count", len(data))
            chunk, start = data[at + 2:at + 8], at + 8
        else:
            if len(data) < at + 4:
                raise Graph6Error("truncated 4-byte vertex count", len(data))
            chunk, start = data[at + 1:at + 4], at + 4
        n = 0
        for i, b in enumerate(chunk):
            if not 63 <= b <= 126:
                raise Graph6Error(f"vertex-count byte {b} out of range", (start - len(chunk)) + i)
            n = (n << 6) | (b - 63)
        return n, start
    if not 63 <= b0 <= 126:
        raise Graph6Error(f"header byte {b0} out of range 63..126", at)
    return b0 - 63, at + 1


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 string (optional ``>>graph6<<`` prefix allowed)."""
    if isinstance(text, str):
        try:
            text = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error(f"non-ASCII character {text[exc.start]!r}", exc.start) from None
    # whitespace, then the prefix, then whitespace again are skipped; every
    # error offset counts from the start of the caller's text
    text = text.rstrip()
    at = len(text) - len(text.lstrip())
    if text.startswith(_G6_HEADER.encode(), at):
        at = len(text) - len(text[at + len(_G6_HEADER):].lstrip())
    n, start = _g6_read_n(text, at)
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
    # the pairs arrive most-significant first, column by column: {1,2},
    # {1,3}, {2,3}, {1,4}, ...; column v is a run of v - 1 bits, whose bit p
    # is the pair {v - 1 - p, v}
    end = nbits
    for v in range(2, n + 1):
        end -= v - 1
        run = bitstream >> end & ((1 << (v - 1)) - 1)
        while run:
            low = run & -run
            run ^= low
            u = v - low.bit_length()
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    # each set bit sets both directions of a pair inside 1..n, so the table
    # is symmetric, loop-free and in range
    return Graph._unchecked(n, tuple(adj))


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
    adj = g.adj
    for col in range(2, n + 1):
        a = adj[col]
        for row in range(1, col):
            bitstream = bitstream << 1 | a >> row & 1
    nbytes = (nbits + 5) // 6
    bitstream <<= nbytes * 6 - nbits
    body = bytes(((bitstream >> (6 * (nbytes - 1 - i))) & 63) + 63 for i in range(nbytes))
    return (head + body).decode("ascii")


# -- graph files ---------------------------------------------------------
#
# One grammar for every graph file.  Blank lines and ``#`` comments (to the
# end of a line) are dropped.  If the first line left is two tokens of ASCII
# digits, the text is one edge list: ``n m``, then ``m`` lines ``i j``
# naming vertices from ``indexing`` (0 or 1) on.  Otherwise each line is one
# graph6 string.

class _LineError(GraphError):
    """An error on one line of a graph file, in either format, read
    ``line N: reason``; a wrong edge count is on the header line.  ``cli``
    names the file instead: ``path:N: reason``."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line, self.reason = line, reason


def _decimal(token: str, no: int) -> int:
    """A vertex label: ASCII digits only, so no sign, underscore or other
    script's digit slips through ``int``."""
    if not (token.isascii() and token.isdigit()):
        raise _LineError(no, f"expected a decimal number, got {token!r}")
    return int(token)


def parse_graphs(text: str, indexing: int = 1) -> list[Graph]:
    """The graphs in the text of a graph file, by the grammar above.  A text
    with no graph left is an error."""
    if indexing not in (0, 1):
        raise GraphError("indexing must be 0 or 1")
    # a graph6 string holds no '#' or space, so comments go before the
    # header line is looked for
    lines = [(no, ln.split("#")[0].strip()) for no, ln in enumerate(text.splitlines(), 1)]
    lines = [(no, ln) for no, ln in lines if ln]
    if not lines:
        raise GraphError("empty graph file")
    head_no, head = lines[0][0], lines[0][1].split()
    if not (len(head) == 2 and all(tok.isascii() and tok.isdigit() for tok in head)):
        graphs = []
        for no, ln in lines:
            try:
                graphs.append(parse_graph6(ln))
            except GraphError as exc:
                raise _LineError(no, str(exc)) from exc
        return graphs
    n, m = map(int, head)
    if n > _MAX_ORDER:
        raise _LineError(head_no, f"vertex count {n} exceeds {_MAX_ORDER}")
    if len(lines) - 1 != m:
        raise _LineError(head_no, f"header promises {m} edges, found {len(lines) - 1}")
    shift = 1 - indexing
    edges: dict[frozenset[int], tuple[int, int]] = {}
    for no, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise _LineError(no, f"expected edge 'i j', got {ln!r}")
        edge = (_decimal(parts[0], no) + shift, _decimal(parts[1], no) + shift)
        # the checks of ``Graph.from_edges``, made here to name the line
        name = f"edge {{{parts[0]},{parts[1]}}}"
        if not all(1 <= u <= n for u in edge):
            raise _LineError(no, f"{name} outside {indexing}..{n - shift}")
        if edge[0] == edge[1]:
            raise _LineError(no, f"self-loop at {parts[0]}")
        if frozenset(edge) in edges:
            raise _LineError(no, f"{name} is listed twice")
        edges[frozenset(edge)] = edge
    return [Graph.from_edges(n, edges.values())]
