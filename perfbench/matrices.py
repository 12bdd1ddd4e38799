"""Nullity-rich test matrices and a SAP check that does not use ``linalg``.

``sample_matrix`` almost never returns a singular matrix, and a matrix of
nullity 0 or 1 always has the Strong Arnold Property, so its verdicts are
always "yes".  ``clique_psd`` instead sums one random integer rank-one term
``v v^T`` per clique of an edge clique cover.  The sum is positive
semidefinite with a positive diagonal, so it lies in S_plus; its rank is at
most the number of cliques, so dense graphs get large nullity.  Draws in
which the terms cancel on an edge are rejected, as the matrix would then
not fit the graph.
"""

from __future__ import annotations

import random

from sapforce import Graph, RationalMatrix

ENTRY_VALUES = (-3, -2, -1, 1, 2, 3)


def edge_clique_cover(g: Graph, rng: random.Random) -> list[list[int]]:
    """Cliques covering every edge: grow a random maximal clique around the
    least uncovered edge until none is left."""
    uncovered = set(g.edges())
    cliques = []
    while uncovered:
        u, v = min(uncovered)
        clique = [u, v]
        common = [w for w in g.vertices() if (g.adj[u] & g.adj[v]) >> w & 1]
        rng.shuffle(common)
        for w in common:
            if all(g.has_edge(w, c) for c in clique):
                clique.append(w)
        clique.sort()
        cliques.append(clique)
        uncovered.difference_update((a, b) for i, a in enumerate(clique) for b in clique[i + 1:])
    return cliques


def clique_psd(g: Graph, rng: random.Random) -> RationalMatrix:
    """Seeded PSD matrix fitting ``g`` (no isolated vertices) with one
    rank-one term per cover clique."""
    cliques = edge_clique_cover(g, rng)
    while True:
        data = [[0] * g.n for _ in range(g.n)]
        for clique in cliques:
            vec = {w: rng.choice(ENTRY_VALUES) for w in clique}
            for a in clique:
                for b in clique:
                    data[a - 1][b - 1] += vec[a] * vec[b]
        if all(data[u - 1][v - 1] for u, v in g.edges()):
            return RationalMatrix.from_rows(data)


def sympy_has_sap(g: Graph, a: RationalMatrix) -> bool:
    """SAP by sympy's rank of the system of AX = O, one unknown per non-edge.

    X is symmetric with X[j][h] = X[h][j] = x_{jh} on each non-edge {j,h}
    and zero elsewhere, so entry (i, k) of AX is the sum of A[i][l] x_{lk}
    over the non-edges {l,k}.  A has the property exactly when the only
    solution is x = 0, i.e. the coefficient matrix has full column rank.
    """
    import sympy  # imported here so that it stays out of the measured memory

    n = g.n
    non_edges = [(j, h) for j in range(1, n + 1) for h in range(j + 1, n + 1)
                 if not g.adj[j] >> h & 1]
    if not non_edges:
        return True
    coeff = [[0] * len(non_edges) for _ in range(n * n)]
    for col, (j, h) in enumerate(non_edges):
        for i in range(1, n + 1):
            # x_{jh} appears in entry (i, h) with A[i][j] and in (i, j) with A[i][h]
            coeff[(h - 1) * n + (i - 1)][col] = sympy.Rational(str(a.entries[i - 1][j - 1]))
            coeff[(j - 1) * n + (i - 1)][col] = sympy.Rational(str(a.entries[i - 1][h - 1]))
    return sympy.Matrix(coeff).rank() == len(non_edges)
