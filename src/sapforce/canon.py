"""Canonical labeling, isomorphism, and small-graph enumeration.

Canonical forms come from an individualize-and-refine search over equitable
ordered partitions; the canonical labeling is the one minimizing the packed
upper-triangle adjacency word.  Enumeration extends each (n-1)-vertex graph
by one new vertex in all possible ways and de-duplicates by canonical form,
which is comfortably fast for the n <= 8 range this project needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .graphs import CapExceededError, Graph, bits


@dataclass(frozen=True)
class CanonicalForm:
    """graph6 string of the canonically relabeled graph."""

    bytes: str


def _refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement; cell order depends only on graph structure."""
    cells = [list(c) for c in cells]
    changed = True
    while changed:
        changed = False
        masks = []
        for c in cells:
            m = 0
            for v in c:
                m |= 1 << v
            masks.append(m)
        for m in masks:
            new_cells: list[list[int]] = []
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                groups: dict[int, list[int]] = {}
                for v in cell:
                    groups.setdefault((adj[v] & m).bit_count(), []).append(v)
                if len(groups) == 1:
                    new_cells.append(cell)
                else:
                    changed = True
                    for key in sorted(groups):
                        new_cells.append(groups[key])
            cells = new_cells
            if changed:
                break
    return cells


def _encode_labeling(adj: tuple[int, ...], order: list[int]) -> int:
    """Pack the relabeled upper triangle into an int, rows first."""
    n = len(order)
    word = 0
    for i in range(n):
        ai = adj[order[i]]
        for j in range(i + 1, n):
            word = (word << 1) | (ai >> order[j] & 1)
    return word


def canonical_labeling(g: Graph) -> list[int]:
    """Vertex order whose relabeling minimizes the adjacency word."""
    if g.n == 0:
        return []
    best: list[int] | None = None
    best_word: int | None = None
    adj = g.adj

    def search(cells: list[list[int]]) -> None:
        nonlocal best, best_word
        cells = _refine(adj, cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [c[0] for c in cells]
            word = _encode_labeling(adj, order)
            if best_word is None or word < best_word:
                best_word, best = word, order
            return
        cell = cells[target]
        for v in sorted(cell):
            rest = [u for u in cell if u != v]
            search(cells[:target] + [[v], rest] + cells[target + 1:])

    search([list(g.vertices())])
    assert best is not None
    return best


def _canonical_relabel(g: Graph) -> Graph:
    perm = [0] * (g.n + 1)
    for new, old in enumerate(canonical_labeling(g), start=1):
        perm[old] = new
    return g.relabel(perm)


def canonical_form(g: Graph) -> CanonicalForm:
    """Equal outputs exactly for isomorphic inputs."""
    return CanonicalForm(_canonical_relabel(g).to_graph6())


def canonical_graph(g: Graph) -> Graph:
    return _canonical_relabel(g)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.num_edges() != h.num_edges():
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_form(g) == canonical_form(h)


@lru_cache(maxsize=None)
def _all_graphs(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of all graphs on n vertices."""
    if n == 0:
        return (Graph.empty(0),)
    if n == 1:
        return (Graph.empty(1),)
    out: dict[str, Graph] = {}
    for base in _all_graphs(n - 1):
        adj_base = base.adj
        for subset in range(1 << (n - 1)):
            adj = [0] * (n + 1)
            for v in range(1, n):
                adj[v] = adj_base[v]
            m = subset << 1  # neighbors of the new vertex n among 1..n-1
            adj[n] = m
            for v in bits(m):
                adj[v] |= 1 << n
            g = Graph(n, tuple(adj))
            cg = canonical_graph(g)
            out.setdefault(cg.to_graph6(), cg)
    return tuple(out[k] for k in sorted(out))


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All isomorphism classes of (possibly disconnected) graphs on n vertices."""
    if not 1 <= n <= 8:
        raise CapExceededError(f"enumeration supports 1..8 vertices, got {n}")
    yield from _all_graphs(n)


def enumerate_connected(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on n vertices."""
    if not 1 <= n <= 8:
        raise CapExceededError(f"enumeration supports 1..8 vertices, got {n}")
    for g in _all_graphs(n):
        if g.is_connected():
            yield g


def enumerate_trees(n: int) -> Iterator[Graph]:
    for g in enumerate_connected(n):
        if g.num_edges() == n - 1:
            yield g
