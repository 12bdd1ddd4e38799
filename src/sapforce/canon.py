"""Canonical labeling, isomorphism, and small-graph enumeration.

Canonical forms come from an individualize-and-refine search over equitable
ordered partitions; the canonical labeling is the first leaf, in search
order, of least packed upper-triangle adjacency word.  The search prunes
with automorphisms, after McKay & Piperno, *Practical graph isomorphism II*
(2014): two leaves with equal words give an automorphism, which sends the
search back to the deepest node the leaves share, and a node skips every
child in the orbit of a child already searched under the automorphisms
found so far that fix its individualized vertices.  Skipped subtrees are
images of searched ones, so the result is that of the full search.

As in nauty, the automorphisms the search finds generate the whole
automorphism group (checked by brute force on every graph with n <= 7);
``automorphism_generators`` returns them.

Enumeration extends each (n-1)-vertex class by a new vertex n, with one
neighbourhood per orbit of the class's automorphism group, keeps only the
extensions in which n has the greatest isomorphism invariant (degree, then
sorted neighbour degrees), and de-duplicates those by canonical word; this
covers the n <= 8 range the project needs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .graphs import CapExceededError, Graph, bits


def _refine(adj: Sequence[int], cells: list[int], stable: frozenset[int]) -> list[int]:
    """Equitable refinement of an ordered partition of vertex bitsets.

    Repeatedly takes the first cell that splits some cell by neighbour count
    and splits every cell by it, pieces in increasing count, so the cell
    order depends only on graph structure.  ``stable`` holds cells already
    known to split no cell; refining only makes cells finer, so they stay
    that way and are never tried.

    The splitter is the first such cell, not the next one in a queue of
    cells waiting to be tried, as in nauty: that would order the cells of
    an equitable partition differently, and the cell order fixes the leaves'
    words and so every canonical form.
    """
    n = len(adj) - 1
    stable = set(stable)
    while len(cells) < n:  # a discrete partition splits nothing
        for m in cells:
            if m in stable:
                continue
            stable.add(m)  # after splitting by m, no cell is split by it
            new_cells: list[int] | None = None  # a copy from the first split on
            for i, cell in enumerate(cells):
                if cell & (cell - 1):
                    low = cell & -cell
                    key = (adj[low.bit_length() - 1] & m).bit_count()
                    rest = cell ^ low
                    while rest:
                        low = rest & -rest
                        if (adj[low.bit_length() - 1] & m).bit_count() != key:
                            break
                        rest ^= low
                    if rest:  # the vertices before ``rest`` all count ``key``
                        groups = {key: cell ^ rest}
                        while rest:
                            low = rest & -rest
                            key = (adj[low.bit_length() - 1] & m).bit_count()
                            groups[key] = groups.get(key, 0) | low
                            rest ^= low
                        if new_cells is None:
                            new_cells = cells[:i]
                        new_cells.extend(groups[key] for key in sorted(groups))
                        continue
                if new_cells is not None:
                    new_cells.append(cell)
            if new_cells is not None:
                cells = new_cells
                break
        else:
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


def _find(root: list[int], x: int) -> int:
    """The root of x in a union-find forest, halving the path to it."""
    while root[x] != x:
        root[x] = x = root[root[x]]
    return x


def _search(n: int, adj: Sequence[int]) -> tuple[list[int], int, list[list[int]]]:
    """The first leaf, in search order, of least adjacency word, that word,
    and the automorphisms found (as images, slot 0 fixed).

    Children of a node are its target cell's vertices in increasing order.
    A leaf whose word equals the first or the best leaf's word gives an
    automorphism mapping that leaf to it, which fixes the vertices the two
    paths share; the rest of the current child of their deepest shared node
    is then the image of a child already searched.
    """
    if n == 0:
        return [], 0, []
    path: list[int] = []
    autos: list[list[int]] = []
    refs: list[tuple[list[int], tuple[int, ...], int]] = []  # first, best leaf

    def leaf(order: list[int]) -> int:
        word = _encode_labeling(adj, order)
        for ref, ref_path, ref_word in refs:
            if word == ref_word:
                image = list(range(n + 1))
                for a, b in zip(ref, order):
                    image[a] = b
                autos.append(image)
                return next(k for k, (u, v) in enumerate(zip(path, ref_path)) if u != v)
        if not refs:
            refs.append((order, tuple(path), word))
        elif word < refs[-1][2]:
            refs[1:] = [(order, tuple(path), word)]
        return len(path)

    def search(cells: list[int], stable: frozenset[int]) -> int:
        """Search below one node; return the depth to resume at."""
        cells = _refine(adj, cells, stable)
        if len(cells) == n:
            return leaf([c.bit_length() - 1 for c in cells])
        target = next(i for i, c in enumerate(cells) if c & (c - 1))
        depth, cell, stable = len(path), cells[target], frozenset(cells)
        # union-find forest of orbits, made when an automorphism fixes path
        root: list[int] | None = None
        merged, searched = 0, []
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if searched:  # the first child is never skipped
                for image in autos[merged:]:
                    if all(image[p] == p for p in path):
                        if root is None:
                            root = list(range(n + 1))
                        for x in range(1, n + 1):
                            root[_find(root, x)] = _find(root, image[x])
                merged = len(autos)
                if root is not None and any(_find(root, u) == _find(root, v) for u in searched):
                    continue
            path.append(v)
            back = search(cells[:target] + [low, cell ^ low] + cells[target + 1:], stable)
            path.pop()
            if back < depth:
                return back
            searched.append(v)
        return depth

    search([(1 << (n + 1)) - 2], frozenset())
    # the recursive helper's closure holds it: drop the cycle, not wait for gc
    del search
    best = refs[-1]
    return best[0], best[2], autos


def canonical_word(g: Graph) -> int:
    """Least adjacency word over all labelings: with ``g.n``, equal exactly
    for isomorphic graphs, and cheaper to get than ``canonical_form``."""
    return _search(g.n, g.adj)[1]


def automorphism_generators(g: Graph) -> list[list[int]]:
    """Automorphisms that generate Aut(g), each as images ``p[v]`` of the
    vertices with ``p[0] == 0``; none for a graph whose group is trivial."""
    return _search(g.n, g.adj)[2]


def _word_graph(n: int, word: int) -> Graph:
    """The graph on n vertices whose adjacency word is ``word``."""
    adj = [0] * (n + 1)
    for i in range(n - 1, 0, -1):  # the last bit is the pair {n-1, n}
        for j in range(n, i, -1):
            if word & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            word >>= 1
    # each bit sets both directions of a pair inside 1..n: valid by construction
    return Graph._unchecked(n, tuple(adj))


def canonical_form(g: Graph) -> str:
    """graph6 string of the canonically relabeled graph: equal exactly for
    isomorphic inputs."""
    return _word_graph(g.n, canonical_word(g)).to_graph6()


def canonical_graph(g: Graph) -> Graph:
    return _word_graph(g.n, canonical_word(g))


def _wins_ties(adj: list[int], degree: list[int], tied: int) -> bool:
    """Whether the last vertex's sorted neighbour degrees are at least those
    of every vertex in the bitset ``tied``, the others of its degree."""
    mine = sorted(degree[u] for u in bits(adj[-1]))
    return all(sorted(degree[u] for u in bits(adj[v])) <= mine for v in bits(tied))


@lru_cache(maxsize=None)
def _all_graphs(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of all graphs on n vertices.

    Every class has a vertex of greatest invariant whose deletion leaves a
    listed (n-1)-vertex class, so it suffices to extend each of those by a
    new vertex n and canonicalize the extensions in which n has the greatest
    invariant.  An automorphism of the parent, extended by n -> n, maps the
    extension by S onto the extension by its image of S: the same class,
    and the same verdict of the invariant filter.  So one S per orbit is
    tried, and its whole orbit is marked done, walked through one table per
    generator p of the images of all 2^(n-1) sets S, the image of S being
    that of S without its top vertex v, plus p(v).  An S is skipped unbuilt,
    with no orbit walk, when n would lose on degree: S is smaller than the
    parent's greatest degree, or holds a vertex of degree |S| or more (one
    bitset test against ``ge``); its orbit loses too.  Only the vertices
    that end with n's degree have their neighbour degrees compared.
    """
    if n <= 1:
        return (Graph.empty(n),)
    new = 1 << n
    out: dict[int, Graph] = {}
    for base in _all_graphs(n - 1):
        # a neighbour set of n, a bitset of 1..n-1, is indexed by mask >> 1,
        # and a generator's table maps each index to its image's
        images = []
        for p in automorphism_generators(base):
            image = [0]
            for v in range(1, n):
                bit = 1 << p[v] >> 1
                image += [t | bit for t in image]
            images.append(image)
        degree = [a.bit_count() for a in base.adj]
        # ge[s]: the parent's vertices of degree at least s
        ge = [sum(1 << v for v in range(1, n) if degree[v] >= s) for s in range(n + 1)]
        least = max(degree)
        done = bytearray(new >> 1)
        for i in range(new >> 1):
            if done[i]:
                continue
            size = i.bit_count()
            m = i << 1
            if size < least or m & ge[size]:
                continue
            done[i] = 1
            orbit = [i]
            for s in orbit:
                for image in images:
                    t = image[s]
                    if not done[t]:
                        done[t] = 1
                        orbit.append(t)
            adj = [a | new if m >> v & 1 else a for v, a in enumerate(base.adj)]
            adj.append(m)
            # the vertices that end with n's degree: n must win on neighbour degrees
            tied = ge[size] | m & ge[size - 1]
            if tied and not _wins_ties(adj, [d + (m >> v & 1) for v, d in enumerate(degree)]
                                       + [size], tied):
                continue
            word = _search(n, adj)[1]
            if word not in out:
                out[word] = _word_graph(n, word)
    return tuple(sorted(out.values(), key=Graph.to_graph6))


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All isomorphism classes of (possibly disconnected) graphs on n vertices."""
    if not 1 <= n <= 8:
        raise CapExceededError(f"enumeration supports 1..8 vertices, got {n}")
    yield from _all_graphs(n)


def enumerate_connected(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on n vertices."""
    for g in enumerate_graphs(n):
        if g.is_connected():
            yield g
