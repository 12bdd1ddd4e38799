"""The library's former ``sample_matrix``, kept as the reference.

It builds every entry as a ``Fraction`` and shifts the S_plus diagonal on
those Fractions.  The tests require the library's integer sampler to draw
the same matrices.
"""

from __future__ import annotations

import random
from fractions import Fraction

from sapforce.graphs import Graph
from sapforce.linalg import PatternFamily, RationalMatrix


def reference_sample_matrix(g: Graph, family: PatternFamily, seed: int) -> RationalMatrix:
    """Seeded random matrix fitting the graph pattern: nonzero off-diagonal
    edge entries in [-10, 10], diagonals in [-10, 10] by the family rule,
    and for S_plus a diagonal shift by the largest absolute row sum."""
    rng = random.Random(seed)

    def nonzero() -> int:
        while True:
            v = rng.randint(-10, 10)
            if v:
                return v

    n = g.n
    data = [[Fraction(0)] * n for _ in range(n)]
    for u, v in g.edges():
        val = Fraction(nonzero())
        data[u - 1][v - 1] = val
        data[v - 1][u - 1] = val
    for v in range(1, n + 1):
        if family is PatternFamily.S_ELL:
            diag = 0 if g.degree(v) == 0 else nonzero()
        else:
            diag = rng.randint(-10, 10)
        data[v - 1][v - 1] = Fraction(diag)
    if family is PatternFamily.S_PLUS:
        shift = max(sum(abs(x) for x in row) for row in data)
        for i in range(n):
            data[i][i] += shift
    return RationalMatrix.from_rows(data)
