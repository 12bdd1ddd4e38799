"""The library's former ``has_sap`` kernel path, kept as the reference.

It eliminates the n x 2n block [DA | D], pivoting in A's n columns, where
DA and D are A's stored integer rows and row scales, and reads a basis of
ker A off the right part of the rows past the rank.  The library ranks A
alone and reads its kernel basis off the echelon rows by back
substitution instead; the tests require both to give the same verdict.
"""

from __future__ import annotations

from math import gcd

from sapforce.graphs import Graph
from sapforce.linalg import RationalMatrix, validate_pattern


def reference_bareiss(m: list[list[int]], cols: int) -> int:
    """Fraction-free elimination of integer rows, in place, pivoting in the
    first ``cols`` columns only; returns the rank.  Every row is updated
    across its full width, so the columns past ``cols`` carry the row
    operations along: on [A | I] they end as the transform T with T A the
    echelon form.  Each entry is a minor of the matrix (Bareiss, 1968), so
    the division by the previous pivot is exact in every column."""
    rows = len(m)
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        piv = m[r][c]
        mr = m[r]
        for i in range(r + 1, rows):
            mi = m[i]
            mic = mi[c]
            for j in range(c + 1, len(mr)):
                mi[j] = (mi[j] * piv - mic * mr[j]) // prev
            mi[c] = 0
        prev = piv
        r += 1
    return r


def reference_kernel_basis(a: RationalMatrix) -> list[list[int]]:
    """A basis of ker A from one elimination of [DA | D].

    Row i starts as [t A | t] with t = d_i e_i, and every step replaces
    rows by combinations of rows, so each row keeps that form; every step
    is invertible, so the final right parts t are independent.  The rows
    past the rank r have t A = 0, hence A t = 0 as A is symmetric: these
    n - r rows, each divided by its gcd, are a basis of ker A.
    """
    n = a.cols
    m = [[*row, *[0] * i, d, *[0] * (n - 1 - i)]
         for i, (row, d) in enumerate(zip(a.ints, a.scales))]
    r = reference_bareiss(m, n)
    return [[x // gcd(*t) for x in t] for t in (row[n:] for row in m[r:])]


def reference_has_sap(g: Graph, a: RationalMatrix) -> bool:
    """The SAP on the kernel system of the [DA | D] basis, ranked as its
    transpose: one row per unknown s_pq (p <= q) of S, one column per
    vertex and edge."""
    validate_pattern(g, a)
    basis = reference_kernel_basis(a)
    k = len(basis)
    if k <= 1:
        return True
    u = list(zip(*basis))
    pairs = [(p, q) for p in range(k) for q in range(p, k)]
    cells = [(u[i - 1], u[j - 1]) for i, j in [(v, v) for v in g.vertices()] + g.edges()]
    system = [[ui[p] * uj[q] + ui[q] * uj[p] for ui, uj in cells] for p, q in pairs]
    return reference_bareiss(system, len(cells)) == len(pairs)
