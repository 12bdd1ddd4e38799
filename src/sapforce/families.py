"""Constructors for the named graphs used in tests and the CLI."""

from __future__ import annotations

from itertools import combinations
from typing import Callable

from .graphs import Graph


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(1, n + 1), 2)))


def empty(n: int) -> Graph:
    return Graph.empty(n)


def star(leaves: int) -> Graph:
    """K_{1,leaves} with the center labeled 1."""
    return Graph.from_edges(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


def complete_multipartite(*sizes: int) -> Graph:
    n = sum(sizes)
    part = []
    v = 1
    for s in sizes:
        part.append(list(range(v, v + s)))
        v += s
    edges = []
    for a in range(len(sizes)):
        for b in range(a + 1, len(sizes)):
            edges.extend((u, w) for u in part[a] for w in part[b])
    return Graph.from_edges(n, edges)


def petersen() -> Graph:
    edges = [(i, i % 5 + 1) for i in range(1, 6)]                 # outer C5
    edges += [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]      # inner pentagram
    edges += [(i, i + 5) for i in range(1, 6)]                    # spokes
    return Graph.from_edges(10, edges)


def tetrahedron() -> Graph:
    return complete(4)


def cube() -> Graph:
    # vertices 1..8 as 3-bit words 0..7, edges between words at Hamming distance 1
    edges = []
    for a in range(8):
        for b in range(a + 1, 8):
            if bin(a ^ b).count("1") == 1:
                edges.append((a + 1, b + 1))
    return Graph.from_edges(8, edges)


def octahedron() -> Graph:
    return complete_multipartite(2, 2, 2)


def dodecahedron() -> Graph:
    # generalized Petersen graph GP(10,2)
    edges = [(i, i % 10 + 1) for i in range(1, 11)]                   # outer C10
    edges += [(i, i + 10) for i in range(1, 11)]                      # spokes
    edges += [(i + 10, (i + 1) % 10 + 11) for i in range(1, 11)]      # inner step-2 pentagons
    return Graph.from_edges(20, edges)


def icosahedron() -> Graph:
    # pentagonal antiprism on 1..10 capped by apexes 11 and 12
    edges = [(i, i % 5 + 1) for i in range(1, 6)]                     # ring 1-5
    edges += [(i + 5, i % 5 + 6) for i in range(1, 6)]                # ring 6-10
    edges += [(i, i + 5) for i in range(1, 6)]                        # antiprism band
    edges += [(i, i % 5 + 6) for i in range(1, 6)]
    edges += [(11, i) for i in range(1, 6)]
    edges += [(12, i) for i in range(6, 11)]
    return Graph.from_edges(12, edges)


def kite5() -> Graph:
    """C4 on 2,3,4,5 plus the pendant vertex 1 attached at 2."""
    return Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])


NAMED = {
    "petersen": petersen,
    "tetrahedron": tetrahedron,
    "cube": cube,
    "octahedron": octahedron,
    "dodecahedron": dodecahedron,
    "icosahedron": icosahedron,
    "kite5": kite5,
}


def by_name(name: str, check_order: Callable[[int], None] | None = None) -> Graph:
    """The built-in graph called ``name``.  A sized name (``p<n>``, ``c<n>``,
    ``k<n>``, ``e<n>``, ``k1,<n>``) shows its vertex count to
    ``check_order`` before the graph is built, so a cap can refuse it
    first."""
    key = name.lower()
    if key in NAMED:
        return NAMED[key]()
    # "k1,5" is no k<n>: "1,5" is not all digits
    for prefix, fn, extra in (("p", path, 0), ("c", cycle, 0), ("k", complete, 0),
                              ("e", empty, 0), ("k1,", star, 1)):
        if key.startswith(prefix) and key[len(prefix):].isdigit():
            size = int(key[len(prefix):])
            if check_order is not None:
                check_order(size + extra)
            return fn(size)
    raise KeyError(f"unknown graph name {name!r}")
