"""Exact rational matrices and two linear-system views of the SAP.

A symmetric matrix A fitting a graph G has the Strong Arnold Property when
the only symmetric X with A o X = O, I o X = O, AX = O is the zero matrix.

``has_sap`` decides it on the kernel of A (van der Holst, Lovasz and
Schrijver, *The Colin de Verdiere graph parameter*, 1999).  With U an n x k
basis of ker A, the symmetric solutions of AX = O are exactly X = U S U^T
with S symmetric k x k, so the property asks that S = O be the only
symmetric S with u_i^T S u_j = 0 for every edge ij and every i = j: a
system of n + |E| rows in k(k+1)/2 unknowns.

``build_sap_matrix`` keeps the direct form: one variable per non-edge of X
turns AX = O into an n^2 x m linear system whose coefficient matrix Psi, a
plain ``RationalMatrix`` (rows indexed by pairs (i,k), columns by
non-edges), has full column rank exactly when A has the property.  It is
the exported system matrix and the reference the kernel form is tested
against.

All arithmetic is exact: entries are fractions, and after clearing
denominators one fraction-free (Bareiss) elimination loop gives rank,
determinant and, carrying an identity block along, the kernel of A.
There is no tolerance anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .graphs import Graph, NonEdgePair, _vertex_mask, sorted_non_edge


class PatternError(ValueError):
    """A matrix entry disagrees with the graph's zero pattern."""


class PerturbationError(RuntimeError):
    """The diagonal perturbation search hit its doubling cap."""


Entry = Fraction | int | str


def _frac(x: Entry) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable dense matrix of exact rationals (kept in lowest terms)."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Entry]]) -> "RationalMatrix":
        data = tuple(tuple(_frac(x) for x in row) for row in rows)
        ncols = len(data[0]) if data else 0
        if any(len(row) != ncols for row in data):
            raise ValueError("ragged rows")
        return RationalMatrix(len(data), ncols, data)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    def add_scaled_diagonal(self, scale: Entry, positions: Iterable[int]) -> "RationalMatrix":
        """Add ``scale`` to the listed 0-based diagonal positions."""
        s = _frac(scale)
        pos = set(positions)
        data = [list(row) for row in self.entries]
        for i in pos:
            data[i][i] += s
        return RationalMatrix.from_rows(data)

    def _integer_rows(self) -> tuple[list[list[int]], list[int]]:
        out = []
        scales = []
        for row in self.entries:
            mult = lcm(*(x.denominator for x in row)) if row else 1
            scales.append(mult)
            out.append([x.numerator * (mult // x.denominator) for x in row])
        return out, scales

    def rank(self) -> int:
        """Exact rank by fraction-free elimination."""
        return _bareiss(self._integer_rows()[0], self.cols)[0]

    def nullity(self) -> int:
        return self.cols - self.rank()

    def determinant(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        m, scales = self._integer_rows()
        r, sign, last = _bareiss(m, self.cols)
        if r < self.rows:
            return Fraction(0)
        # the last pivot is the determinant of the row-scaled matrix
        return Fraction(sign * last, prod(scales))


def _bareiss(m: list[list[int]], cols: int) -> tuple[int, int, int]:
    """Fraction-free elimination of integer rows, in place, with
    first-nonzero pivoting; returns (rank, sign of the row swaps, last
    pivot).

    Pivots are taken in the first ``cols`` columns only, but every row is
    updated across its full width, so columns past ``cols`` carry the row
    operations along: on [A | I] they end as the transform T with T A the
    echelon form.  Each entry is a minor of the matrix (Bareiss, 1968), so
    the division by the previous pivot is exact in every column.
    """
    rows = len(m)
    sign = 1
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
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
    return r, sign, prev


def rank(m: RationalMatrix) -> int:
    return m.rank()


def nullity(m: RationalMatrix) -> int:
    return m.nullity()


# -- pattern families ----------------------------------------------------

class PatternFamily(Enum):
    S = "S"
    S_ELL = "S_ell"
    S_PLUS = "S_plus"


def validate_pattern(g: Graph, a: RationalMatrix) -> None:
    """Check A is symmetric with off-diagonal support exactly the edge set."""
    if a.rows != g.n or a.cols != g.n:
        raise PatternError(f"matrix is {a.rows}x{a.cols}, graph has {g.n} vertices")
    if not a.is_symmetric():
        raise PatternError("matrix is not symmetric")
    for i in range(g.n):
        for j in range(i + 1, g.n):
            nonzero = a.entries[i][j] != 0
            edge = g.has_edge(i + 1, j + 1)
            if nonzero and not edge:
                raise PatternError(f"entry ({i + 1},{j + 1}) nonzero on a non-edge")
            if edge and not nonzero:
                raise PatternError(f"entry ({i + 1},{j + 1}) zero on an edge")


def sample_matrix(g: Graph, family: PatternFamily, seed: int) -> RationalMatrix:
    """Seeded random matrix fitting the graph pattern.

    Off-diagonal edge entries are nonzero integers in [-10, 10]; diagonals
    are integers in [-10, 10] subject to the family rule.  The PSD family
    shifts the diagonal by the largest absolute row sum, which makes the
    matrix diagonally dominant with nonnegative diagonal, hence positive
    semidefinite, without any eigenvalue computation.
    """
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
    m = RationalMatrix.from_rows(data)
    if family is PatternFamily.S_PLUS:
        shift = max(sum(abs(x) for x in row) for row in m.entries)
        m = m.add_scaled_diagonal(shift, range(n))
    return m


# -- the SAP system matrix ------------------------------------------------

def build_sap_matrix(
    g: Graph,
    a: RationalMatrix,
    order: Sequence[NonEdgePair] | None = None,
) -> RationalMatrix:
    """The system matrix Psi of AX = O over the non-edge variables of X.

    Its columns follow ``order``, a list of every non-edge once, or
    ``g.non_edges()`` when no order is given.  Rows are indexed by pairs
    (i,k) ordered by k then i, so the k-th block of n rows carries the
    equations from column k of AX.  In the column of non-edge {i,j}, block
    i holds column j of A, block j holds column i, and every other block is
    zero.
    """
    validate_pattern(g, a)
    canonical = [sorted_non_edge(g, u, v) for u, v in (order or g.non_edges())]
    if sorted(canonical) != sorted(g.non_edges()) or len(set(canonical)) != len(canonical):
        raise ValueError("order must list every non-edge exactly once")
    n = g.n
    rows = [[Fraction(0)] * len(canonical) for _ in range(n * n)]
    for col, (j, h) in enumerate(canonical):
        for i in range(1, n + 1):
            # block j gets column h of A, block h gets column j
            rows[(j - 1) * n + (i - 1)][col] = a.entries[i - 1][h - 1]
            rows[(h - 1) * n + (i - 1)][col] = a.entries[i - 1][j - 1]
    return RationalMatrix.from_rows(rows)


def has_sap(g: Graph, a: RationalMatrix) -> bool:
    """Exact test of the Strong Arnold Property on the kernel of A.

    Let U be an n x k matrix whose columns are a basis of ker A, and u_i its
    i-th row.  A symmetric X has AX = O exactly when X = U S U^T for a
    symmetric k x k matrix S: every column of X lies in ker A, so X = U T;
    with L a left inverse of U (L U = I), T = L X = L X^T = L T^T U^T, so
    X = U S U^T with S = L T^T, and S = L X L^T is symmetric.  The map
    S -> U S U^T is injective, since L (U S U^T) L^T = S.  Entry (i,j) of
    X is u_i^T S u_j; as A fits G, A o X = O and I o X = O ask it to vanish
    on every edge and on the diagonal.  So A has the property exactly when
    the (n + |E|) x k(k+1)/2 system in the entries s_pq (p <= q) of S has
    full column rank.  Row ij gets u_ip u_jq + u_iq u_jp in column pq: the
    coefficient of s_pq for p < q, and twice it for p = q, a column scaling
    that leaves the rank unchanged.  With k <= 1 the answer is yes: S = (s)
    and s u_i^2 = 0 at a vertex where u_i != 0.

    U comes from one ``_bareiss`` pass over [DA | D], pivoting in A's n
    columns, where the positive diagonal D clears the denominators of A's
    rows (D = I for an integer A).  Row i starts as [t A | t] with t = d_i
    e_i, and every step replaces rows by combinations of rows, so each row
    keeps that form; every step is invertible, so the final right parts t
    are independent.  The rows past the rank r have t A = 0, hence A t = 0
    as A is symmetric: these k = n - r rows, each divided by its gcd, are a
    basis of ker A.
    """
    validate_pattern(g, a)
    n = a.cols
    rows, scales = a._integer_rows()
    m = [row + [d if i == j else 0 for j in range(n)]
         for i, (row, d) in enumerate(zip(rows, scales))]
    r = _bareiss(m, n)[0]
    k = n - r
    if k <= 1:
        return True
    basis = [row[n:] for row in m[r:]]
    u = list(zip(*([x // gcd(*t) for x in t] for t in basis)))
    pairs = [(p, q) for p in range(k) for q in range(p, k)]
    system = []
    for i, j in [(v, v) for v in g.vertices()] + g.edges():
        ui, uj = u[i - 1], u[j - 1]
        system.append([ui[p] * uj[q] + ui[q] * uj[p] for p, q in pairs])
    return _bareiss(system, len(pairs))[0] == len(pairs)


# -- odd cycle determinant -------------------------------------------------

def odd_cycle_matrix(a: Sequence[Entry]) -> RationalMatrix:
    """Two-diagonal cyclic matrix: row s carries a_{s+1} on the diagonal and
    a_{s-1} just left of it (indices wrapping around)."""
    vals = [_frac(x) for x in a]
    n = len(vals)
    if n < 3 or n % 2 == 0:
        raise ValueError("cycle length must be odd and at least 3")
    if any(v == 0 for v in vals):
        raise ValueError("cycle entries must be nonzero")
    rows = [[Fraction(0)] * n for _ in range(n)]
    for s in range(n):
        rows[s][s] = vals[(s + 1) % n]
        rows[s][(s - 1) % n] = vals[(s - 1) % n]
    return RationalMatrix.from_rows(rows)


def odd_cycle_det(a: Sequence[Entry]) -> Fraction:
    """Determinant of the odd-cycle matrix; equals twice the entry product."""
    return odd_cycle_matrix(a).determinant()


# -- diagonal perturbation ---------------------------------------------------

def perturbation_witness(
    g: Graph,
    a: RationalMatrix,
    vertices: Iterable[int],
) -> tuple[Fraction, RationalMatrix]:
    """Find x in 0, 1, 2, 4, ... so that A + x*D_B gains the property.

    The caller supplies a vertex set B that wins the restricted non-edge
    game; the block-triangular structure that the game certifies makes the
    perturbed system nonsingular for all large x, so doubling terminates.
    Hitting the cap signals a bad input set or an implementation fault.
    """
    validate_pattern(g, a)
    marked = sorted(set(vertices))
    _vertex_mask(g, marked)
    if has_sap(g, a):
        return Fraction(0), a
    positions = [v - 1 for v in marked]
    x = Fraction(1)
    for _ in range(64):
        candidate = a.add_scaled_diagonal(x, positions)
        if has_sap(g, candidate):
            return x, candidate
        x *= 2
    raise PerturbationError(
        "no diagonal shift up to 2^63 produced the property; "
        "the vertex set is likely not a valid forcing set"
    )
