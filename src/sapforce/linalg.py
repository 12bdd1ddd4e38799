"""Exact rational matrices and two linear-system views of the SAP.

A symmetric matrix A fitting a graph G has the Strong Arnold Property when
the only symmetric X with A o X = O, I o X = O, AX = O is the zero matrix.

``has_sap`` decides it on the kernel of A (van der Holst, Lovasz and
Schrijver, *The Colin de Verdiere graph parameter*, 1999).  With U an n x k
basis of ker A, the symmetric solutions of AX = O are exactly X = U S U^T
with S symmetric k x k, so the property asks that S = O be the only
symmetric S with u_i^T S u_j = 0 for every edge ij and every i = j: a
system of n + |E| rows in the k(k+1)/2 unknowns s_pq, p <= q.  The basis
read off A's echelon rows is c_t e_t on the row of the t-th free column
f_t, so the rows at the free vertices and at the edges between them kill
the s_tt and the s_pq over adjacent f_p, f_q.  Only the s_pq over
non-adjacent free vertices are left, and with none left the answer is yes
before any basis is built.

``build_sap_matrix`` keeps the direct form: one variable per non-edge of X
turns AX = O into an n^2 x m linear system whose coefficient matrix Psi, a
plain ``RationalMatrix`` (rows indexed by pairs (i,k), columns by
non-edges), has full column rank exactly when A has the property.  It is
the exported system matrix and the reference the kernel form is tested
against.

All arithmetic is exact, and all of it is on integers.  A
``RationalMatrix`` stores each row as integers over one positive row scale,
the lcm of the row's reduced denominators; the integers and the scale then
share no factor, so the stored form of a matrix is unique and equal
matrices compare and hash equal.  An integer row is stored as given, with
scale 1, and no ``Fraction`` is built for it; ``entries`` gives the
Fractions on demand.  One fraction-free (Bareiss) elimination loop over
copies of the integer rows gives its pivot columns, hence the rank, and
the determinant, and its echelon rows give an integer basis of ker A by
back substitution.
``validate_pattern`` checks A on the integer rows, symmetry by cross
multiplication with the row scales, and ``has_sap`` ranks its kernel
system as the transpose.  There is no tolerance anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm, prod
from operator import index
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
    """Immutable dense matrix of exact rationals, stored as integer rows.

    Row i is ``ints[i] / scales[i]``: each scale is the positive lcm of the
    row's reduced denominators, so gcd(row ints, scale) = 1.  Two rows with
    the same values then have the same pair (if ``r / s == r' / s'`` with
    both gcds 1, s divides s' and s' divides s), so the generated ``==``
    and ``hash`` agree with entry-wise equality.  The constructor refuses
    any other pair with a ``ValueError``.  ``entries`` is the same matrix
    as Fractions, built on first use.
    """

    rows: int
    cols: int
    ints: tuple[tuple[int, ...], ...]
    scales: tuple[int, ...]

    def __post_init__(self) -> None:
        if not len(self.ints) == len(self.scales) == self.rows:
            raise ValueError(f"rows = {self.rows}, but {len(self.ints)} integer rows "
                             f"and {len(self.scales)} scales")
        for row, scale in zip(self.ints, self.scales):
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            if scale <= 0:
                raise ValueError(f"row scale {scale} is not positive")
            # an integer row (scale 1) is reduced by definition
            if scale != 1 and gcd(*row, scale) != 1:
                raise ValueError(f"row {list(row)} / {scale} is not reduced")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Entry]]) -> "RationalMatrix":
        ints, scales = [], []
        for row in rows:
            try:
                ints.append(tuple(map(index, row)))
                scales.append(1)
            except TypeError:
                fracs = [_frac(x) for x in row]
                scale = lcm(*(x.denominator for x in fracs))
                ints.append(tuple(x.numerator * (scale // x.denominator) for x in fracs))
                scales.append(scale)
        ncols = len(ints[0]) if ints else 0
        return RationalMatrix(len(ints), ncols, tuple(ints), tuple(scales))

    @cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, d) for x in row)
                     for row, d in zip(self.ints, self.scales))

    def add_scaled_diagonal(self, scale: Entry, positions: Iterable[int]) -> "RationalMatrix":
        """Add ``scale`` to the listed 0-based diagonal positions, each in
        0..min(rows, cols) - 1 (a ``ValueError`` otherwise)."""
        s = _frac(scale)
        last = min(self.rows, self.cols) - 1
        ints, scales = list(self.ints), list(self.scales)
        for i in sorted(set(positions)):
            if not 0 <= i <= last:
                raise ValueError(f"diagonal position {i} outside 0..{last}")
            # row i / d + s e_i = (q row i + p d e_i) / (q d), then reduced
            row = [x * s.denominator for x in ints[i]]
            row[i] += s.numerator * scales[i]
            d = scales[i] * s.denominator
            g = gcd(*row, d)
            ints[i], scales[i] = tuple(x // g for x in row), d // g
        return RationalMatrix(self.rows, self.cols, tuple(ints), tuple(scales))

    def rank(self) -> int:
        """Exact rank by fraction-free elimination."""
        return len(_bareiss([list(row) for row in self.ints], self.cols)[0])

    def nullity(self) -> int:
        return self.cols - self.rank()

    def determinant(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant needs a square matrix")
        pivots, sign, last = _bareiss([list(row) for row in self.ints], self.cols)
        if len(pivots) < self.rows:
            return Fraction(0)
        # the last pivot is the determinant of the row-scaled matrix
        return Fraction(sign * last, prod(self.scales))


def _bareiss(m: list[list[int]], cols: int) -> tuple[list[int], int, int]:
    """Fraction-free elimination of integer rows of width ``cols``, in
    place, with first-nonzero pivoting; returns (the pivot columns in
    ascending order, as many as the rank, sign of the row swaps, last
    pivot).

    The first rank rows end in echelon form, row i starting at the i-th
    pivot column, and the rows past them are zero.  Each entry is a minor
    of the matrix (Bareiss, 1968), so the division by the previous pivot is
    exact.
    """
    rows = len(m)
    sign = 1
    prev = 1
    pivots = []
    for c in range(cols):
        r = len(pivots)
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
            for j in range(c + 1, cols):
                mi[j] = (mi[j] * piv - mic * mr[j]) // prev
            mi[c] = 0
        prev = piv
        pivots.append(c)
    return pivots, sign, prev


def _kernel_basis(m: list[list[int]], free: list[int]) -> list[list[int]]:
    """A basis of the kernel of the integer rows that ``_bareiss`` left in
    ``m``, given ``free``, its free columns (those without a pivot) in
    ascending order: one primitive integer vector per free column, in
    column order.  ``m`` has a row.

    For a free column f, x_f = 1 and every other free coordinate is 0; the
    pivot rows, bottom-up, each fix their pivot coordinate.  A row with
    pivot d at column p asks d x_p + s = 0, where s sums the row times the
    coordinates already set; with g = gcd(s, d), the whole vector is scaled
    by d / g and x_p set to -s / g, so every entry stays an integer.  The
    vector stays primitive: x_p was 0, so if gcd(x) = 1 the new gcd is
    gcd(d / g, s / g) = 1.  Restricted to the free columns the vectors form
    a diagonal with nonzero entries, so they are independent, and there are
    as many as the nullity.
    """
    n = len(m[0])
    pivots = [c for c in range(n) if c not in free]
    basis = []
    for f in free:
        x = [0] * n
        x[f] = 1
        for row, p in zip(reversed(m[:len(pivots)]), reversed(pivots)):
            s = sum(row[j] * x[j] for j in range(p + 1, n))
            if s:
                g = gcd(s, row[p])
                t = row[p] // g
                x = [v * t for v in x]
                x[p] = -s // g
        basis.append(x)
    return basis


def nullity(m: RationalMatrix) -> int:
    return m.nullity()


# -- pattern families ----------------------------------------------------

class PatternFamily(Enum):
    S = "S"
    S_ELL = "S_ell"
    S_PLUS = "S_plus"


def validate_pattern(g: Graph, a: RationalMatrix) -> None:
    """Check A is symmetric with off-diagonal support exactly the edge set.

    Row i of A is ``rows[i] / scales[i]`` with every scale positive, so
    a_ij = a_ji exactly when ``rows[i][j] * scales[j] == rows[j][i] *
    scales[i]``, and a_ij is zero exactly when ``rows[i][j]`` is.
    """
    n = g.n
    if a.rows != n or a.cols != n:
        raise PatternError(f"matrix is {a.rows}x{a.cols}, graph has {n} vertices")
    rows, scales = a.ints, a.scales
    for i in range(n):
        row, d = rows[i], scales[i]
        for j in range(i + 1, n):
            if row[j] * scales[j] != rows[j][i] * d:
                raise PatternError("matrix is not symmetric")
    for i in range(n):
        row, nbrs = rows[i], g.adj[i + 1]
        for j in range(i + 1, n):
            edge = nbrs >> (j + 1) & 1
            if row[j] and not edge:
                raise PatternError(f"entry ({i + 1},{j + 1}) nonzero on a non-edge")
            if edge and not row[j]:
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
    data = [[0] * n for _ in range(n)]
    for u, v in g.edges():
        data[u - 1][v - 1] = data[v - 1][u - 1] = nonzero()
    for v in range(1, n + 1):
        if family is PatternFamily.S_ELL:
            diag = 0 if g.degree(v) == 0 else nonzero()
        else:
            diag = rng.randint(-10, 10)
        data[v - 1][v - 1] = diag
    if family is PatternFamily.S_PLUS:
        shift = max((sum(map(abs, row)) for row in data), default=0)
        for i in range(n):
            data[i][i] += shift
    return RationalMatrix.from_rows(data)


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
    entries = a.entries
    rows = [[0] * len(canonical) for _ in range(n * n)]
    for col, (j, h) in enumerate(canonical):
        for i in range(1, n + 1):
            # block j gets column h of A, block h gets column j
            rows[(j - 1) * n + (i - 1)][col] = entries[i - 1][h - 1]
            rows[(h - 1) * n + (i - 1)][col] = entries[i - 1][j - 1]
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
    that leaves the rank unchanged.  Any basis U gives the same verdict.

    U comes from one ``_bareiss`` pass over DA, A's stored ``ints``, which
    ``validate_pattern`` checked; D is the positive diagonal of A's row
    ``scales`` (D = I for an integer A).  D is invertible, so ker DA = ker
    A and A's rank is DA's.  Let f_1 < ... < f_k be the free columns, where
    ``_bareiss`` found no pivot, and call their vertices free.
    ``_kernel_basis`` reads one primitive integer vector per free column off
    the echelon rows by back substitution; vector t lies in ker A and is
    c_t e_t on the free coordinates, c_t != 0, so the k vectors are
    independent, a basis, and row f_t of U is c_t e_t.

    That basis settles most of the system in advance.  The cell at vertex
    f_t reads c_t^2 s_tt = 0, and the cell of an edge f_t f_s reads
    c_t c_s s_ts = 0: each kills one unknown.  A solution S is zero in the
    killed unknowns, and a solution of the system restricted to the other
    unknowns, extended by zeros, solves the whole system.  So A has the
    property exactly when the columns of the unknowns left open, the s_pq
    with p < q whose free vertices f_p and f_q are not adjacent in G, have
    full rank; a diagonal unknown, or a pair over adjacent free vertices,
    needs no column, since its own cell sets it to zero.  When no pair is
    left open (always so for k <= 1) every unknown is killed, S = O is the
    only solution and the answer is yes, with no basis built.  Otherwise
    the open columns are ranked as their transpose, |pairs| x (n + |E|), so
    the elimination stops as soon as each open s_pq has a pivot.  Only the
    cells that touch a pivot vertex can be nonzero in those rows.
    """
    validate_pattern(g, a)
    m = [list(row) for row in a.ints]
    pivots = _bareiss(m, a.cols)[0]
    free = [c for c in range(a.cols) if c not in pivots]
    pairs = [(p, q) for q in range(len(free)) for p in range(q)
             if not g.has_edge(free[p] + 1, free[q] + 1)]
    if not pairs:
        return True
    u = list(zip(*_kernel_basis(m, free)))
    cells = [(u[i - 1], u[j - 1]) for i, j in [(v, v) for v in g.vertices()] + g.edges()]
    system = [[ui[p] * uj[q] + ui[q] * uj[p] for ui, uj in cells] for p, q in pairs]
    return len(_bareiss(system, len(cells))[0]) == len(pairs)


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
    rows = [[0] * n for _ in range(n)]
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
