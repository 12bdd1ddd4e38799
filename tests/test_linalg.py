import importlib.util
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

from sapforce import families
from sapforce.canon import enumerate_connected, enumerate_graphs
from sapforce.graphs import Graph, parse_graph6
from sapforce.linalg import (PatternError, PatternFamily, PerturbationError,
                             RationalMatrix, _bareiss, _kernel_basis, build_sap_matrix,
                             has_sap, nullity, odd_cycle_det, odd_cycle_matrix,
                             perturbation_witness, sample_matrix, validate_pattern)
from sapforce.sapgame import vc_forcing_number
from sapforce.zeroforcing import Rule

from oracle import sap_oracle
from reference_sampler import reference_sample_matrix
from reference_sap import reference_has_sap, reference_kernel_basis

P4_MATRIX = RationalMatrix.from_rows(
    [[-1, 1, 0, 0], [1, -1, 1, 0], [0, 1, -1, 1], [0, 0, 1, -1]])

P4_SYSTEM = [
    [0, 0, 0], [1, 0, 0], [-1, 1, 0], [1, -1, 0],
    [0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, -1],
    [-1, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0],
    [0, -1, 1], [0, 1, -1], [0, 0, 1], [0, 0, 0],
]


def test_system_matrix_regression():
    sm = build_sap_matrix(families.path(4), P4_MATRIX, [(1, 3), (1, 4), (2, 4)])
    got = [[int(x) for x in row] for row in sm.entries]
    assert got == P4_SYSTEM
    assert sm.rank() == sm.cols == 3


def test_star_submatrix():
    a1, a2, a3 = 2, 3, 5
    a = RationalMatrix.from_rows([[7, a1, a2, a3], [a1, 1, 0, 0],
                                  [a2, 0, 1, 0], [a3, 0, 0, 1]])
    sm = build_sap_matrix(families.star(3), a, [(2, 3), (3, 4), (2, 4)])
    # row (i,k) is row (k - 1) * n + (i - 1); here i = 1 and n = 4
    rows = [[int(x) for x in sm.entries[(k - 1) * 4]] for k in (2, 3, 4)]
    assert rows == [[a2, 0, a3], [a1, a3, 0], [0, a2, a1]]


def test_rank_basics():
    assert RationalMatrix.from_rows([[int(i == j) for j in range(5)]
                                     for i in range(5)]).rank() == 5
    ones = RationalMatrix.from_rows([[1] * 3] * 3)
    assert ones.rank() == 1 and nullity(ones) == 2
    singular = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                         [Fraction(3, 2), 1]])
    assert singular.rank() == 1
    frac = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                     [Fraction(3, 2), 2]])
    assert frac.rank() == 2


def test_constructor_refuses_a_pair_outside_the_stored_form():
    # unchecked, the first compared unequal to from_rows([[1]]) with the same
    # entries, the second had rank 1 as a "2 x 2" matrix, the third had a
    # negative scale
    for args, message in (((1, 1, ((2,),), (2,)), r"row \[2\] / 2 is not reduced"),
                          ((2, 2, ((1,),), (1,)), "rows = 2, but 1 integer rows and 1 scales"),
                          ((1, 1, ((1,),), (-1,)), "row scale -1 is not positive"),
                          ((1, 1, ((1,),), (0,)), "row scale 0 is not positive"),
                          ((1, 2, ((1,),), (1,)), "ragged rows"),
                          ((1, 1, ((1,),), ()), "rows = 1, but 1 integer rows and 0 scales")):
        with pytest.raises(ValueError, match=message):
            RationalMatrix(*args)
    with pytest.raises(ValueError, match="ragged rows"):
        RationalMatrix.from_rows([[1, 2], [Fraction(1, 2)]])
    # an integer row needs no gcd: scale 1 is reduced whatever the row
    assert RationalMatrix(1, 2, ((4, 6),), (1,)) == RationalMatrix.from_rows([[4, 6]])
    assert RationalMatrix(1, 2, ((2, 3),), (6,)) == \
        RationalMatrix.from_rows([[Fraction(1, 3), Fraction(1, 2)]])


def test_add_scaled_diagonal():
    m = RationalMatrix.from_rows([[1, 2], [2, 5]])
    assert m.add_scaled_diagonal(7, [1]) == RationalMatrix.from_rows([[1, 2], [2, 12]])
    # the shifted rows are stored reduced: (1/2, 1) + 3/2 e_1 is (2, 1) with scale 1
    half = RationalMatrix.from_rows([[Fraction(1, 2), 1], [1, Fraction(1, 3)]])
    shifted = half.add_scaled_diagonal(Fraction(3, 2), [0, 1])
    assert shifted == RationalMatrix.from_rows([[2, 1], [1, Fraction(11, 6)]])
    assert shifted.ints == ((2, 1), (6, 11)) and shifted.scales == (1, 6)
    # each position must lie on the diagonal; -1 is not the last entry
    for bad in ([-1], [2], [0, 5]):
        with pytest.raises(ValueError, match=f"diagonal position {max(bad)} outside 0..1"):
            m.add_scaled_diagonal(7, bad)
    with pytest.raises(ValueError, match="diagonal position 1 outside 0..0"):
        RationalMatrix.from_rows([[1, 2, 3]]).add_scaled_diagonal(1, [1])


def test_add_scaled_diagonal_random():
    """Against the same shift on Fractions, for random rational matrices."""
    rng = random.Random(11)
    for _ in range(200):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(c)]
                for _ in range(r)]
        scale = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        positions = rng.sample(range(min(r, c)), rng.randint(0, min(r, c)))
        want = [row[:] for row in rows]
        for i in positions:
            want[i][i] += scale
        got = RationalMatrix.from_rows(rows).add_scaled_diagonal(scale, positions)
        assert got == RationalMatrix.from_rows(want)
        assert got.entries == tuple(map(tuple, want))


def test_rank_metamorphic():
    rng = random.Random(2)
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(c)]
                for _ in range(r)]
        m = RationalMatrix.from_rows(rows)
        base = m.rank()
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert RationalMatrix.from_rows(shuffled).rank() == base
        scaled = [row[:] for row in rows]
        i = rng.randrange(r)
        scaled[i] = [x * Fraction(7, 3) for x in scaled[i]]
        assert RationalMatrix.from_rows(scaled).rank() == base


def test_has_sap_examples():
    k4 = families.complete(4)
    assert has_sap(k4, sample_matrix(k4, PatternFamily.S, 0))
    assert has_sap(families.path(4), P4_MATRIX)
    zero2 = RationalMatrix.from_rows([[0, 0], [0, 0]])
    assert not has_sap(families.empty(2), zero2)


def _refusal(g, rows):
    with pytest.raises(PatternError) as exc:
        validate_pattern(g, RationalMatrix.from_rows(rows))
    return str(exc.value)


def test_pattern_validation():
    p4, k2 = families.path(4), families.complete(2)
    # the shape is checked first, then symmetry, then the pattern
    assert _refusal(p4, [[0, 1, 5], [1, 0, 1], [0, 1, 0]]) == \
        "matrix is 3x3, graph has 4 vertices"
    assert _refusal(p4, [[0, 1, 0]] * 4) == "matrix is 4x3, graph has 4 vertices"
    assert _refusal(p4, [[0, 1, 1, 0], [1, 0, 1, 0],
                         [0, 1, 0, 1], [0, 0, 1, 0]]) == "matrix is not symmetric"
    assert _refusal(p4, [[0, 1, 1, 0], [1, 0, 1, 0],
                         [1, 1, 0, 1], [0, 0, 1, 0]]) == \
        "entry (1,3) nonzero on a non-edge"
    assert _refusal(p4, [[0, 0, 0, 0]] * 4) == "entry (1,2) zero on an edge"
    # the first wrong entry in row order speaks
    assert _refusal(p4, [[0, 1, 0, 0], [1, 0, 0, 1], [0, 0, 0, 1],
                         [0, 1, 1, 0]]) == "entry (2,3) zero on an edge"
    # rational rows with different row scales: neither the integer rows nor
    # the fractions alone decide symmetry, their cross products do
    assert _refusal(k2, [[0, Fraction(1, 2)], [Fraction(1, 3), 0]]) == \
        "matrix is not symmetric"
    assert _refusal(k2, [[Fraction(1, 2), 1], [2, 1]]) == "matrix is not symmetric"
    ok = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                   [Fraction(1, 3), 1]])
    validate_pattern(k2, ok)
    assert (ok.ints, ok.scales) == (((3, 2), (1, 3)), (6, 3))
    assert _refusal(families.empty(2), ok.entries) == \
        "entry (1,2) nonzero on a non-edge"
    assert _refusal(k2, [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]) == \
        "entry (1,2) zero on an edge"


def test_oracle_agreement():
    rng = random.Random(7)
    pool = [g for n in range(1, 5) for g in enumerate_graphs(n)]
    for _ in range(200):
        g = rng.choice(pool)
        a = sample_matrix(g, PatternFamily.S, seed=rng.randrange(10 ** 9))
        assert has_sap(g, a) == sap_oracle(g, a)


def test_sampler_families():
    p4 = families.path(4)
    a = sample_matrix(p4, PatternFamily.S, 3)
    validate_pattern(p4, a)
    assert a == sample_matrix(p4, PatternFamily.S, 3)  # reproducible
    k2k1 = Graph.from_edges(3, [(1, 2)])
    al = sample_matrix(k2k1, PatternFamily.S_ELL, 5)
    assert al.entries[2][2] == 0
    assert al.entries[0][0] != 0 and al.entries[1][1] != 0
    for seed in range(5):
        g = families.kite5()
        ap = sample_matrix(g, PatternFamily.S_PLUS, seed)
        for k in range(1, g.n + 1):
            lead = RationalMatrix.from_rows([row[:k] for row in ap.entries[:k]])
            assert lead.determinant() >= 0
    # the graph on no vertices gets the 0 x 0 matrix in every family
    for family in PatternFamily:
        assert sample_matrix(Graph(0, [0]), family, 0) == RationalMatrix.from_rows([])


def _sample_matches_reference(graphs):
    for idx, g in enumerate(graphs):
        for family in PatternFamily:
            got = sample_matrix(g, family, idx)
            want = reference_sample_matrix(g, family, idx)
            assert got == want and got.entries == want.entries, (g.to_graph6(), family)


def test_sample_matrix_matches_the_fraction_reference(all_graphs_upto_7):
    rng = random.Random("sampler/8")
    _sample_matches_reference(all_graphs_upto_7 + rng.sample(list(enumerate_graphs(8)), 300))


@pytest.mark.slow
def test_sample_matrix_matches_the_fraction_reference_n8():
    """Every graph on 8 vertices, the family rotating with the index."""
    for idx, g in enumerate(enumerate_graphs(8)):
        family = list(PatternFamily)[idx % 3]
        assert sample_matrix(g, family, idx) == reference_sample_matrix(g, family, idx)


def test_odd_cycle_matrix_shape():
    m = odd_cycle_matrix([2, 3, 5])
    assert [[int(x) for x in r] for r in m.entries] == \
        [[3, 0, 5], [2, 5, 0], [0, 3, 2]]


def test_odd_cycle_det_examples():
    assert odd_cycle_det([1, 1, 1]) == 2
    assert odd_cycle_det([2, 3, 5, 7, 11]) == 2 * 2310
    assert odd_cycle_det([1, -1, 1]) == -2
    with pytest.raises(ValueError):
        odd_cycle_det([1, 2])
    with pytest.raises(ValueError):
        odd_cycle_det([1, 0, 1])


def test_odd_cycle_det_random():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.choice([3, 5, 7, 9])
        vals = []
        for _ in range(n):
            v = 0
            while v == 0:
                v = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            vals.append(v)
        prod = Fraction(1)
        for v in vals:
            prod *= v
        assert odd_cycle_det(vals) == 2 * prod


def test_perturbation_witness(k3_join_o4):
    g = k3_join_o4
    a = sample_matrix(g, PatternFamily.S, 99)
    x, perturbed = perturbation_witness(g, a, {4})
    assert has_sap(g, perturbed)
    assert perturbed.nullity() >= a.nullity() - 1
    # already-good matrices return a zero shift
    kite = families.kite5()
    ak = sample_matrix(kite, PatternFamily.S, 1)
    if has_sap(kite, ak):
        x, _ = perturbation_witness(kite, ak, set())
        assert x == 0
    # full complement cover always terminates
    cover = {5, 6, 7}
    x, perturbed = perturbation_witness(g, a, cover)
    assert has_sap(g, perturbed)


def test_block_structure_random():
    rng = random.Random(9)
    pool = [g for n in range(2, 7) for g in enumerate_graphs(n)]
    for _ in range(100):
        g = rng.choice(pool)
        a = sample_matrix(g, PatternFamily.S, rng.randrange(10 ** 9))
        sm = build_sap_matrix(g, a)
        for col, (i, j) in enumerate(g.non_edges()):
            column = tuple(row[col] for row in sm.entries)
            for k in range(1, g.n + 1):
                block = column[(k - 1) * g.n: k * g.n]
                if k == i:
                    assert block == tuple(row[j - 1] for row in a.entries)
                elif k == j:
                    assert block == tuple(row[i - 1] for row in a.entries)
                else:
                    assert all(x == 0 for x in block)


# -- the kernel form of has_sap against the system matrix Psi -----------------

@cache
def _perfbench_clique_psd():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "matrices.py"
    spec = importlib.util.spec_from_file_location("perfbench_matrices", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.clique_psd


def adjacency_matrix(g, sign=lambda u, v: 1):
    return RationalMatrix.from_rows(
        [[sign(min(u, v), max(u, v)) if g.has_edge(u, v) else 0 for v in g.vertices()]
         for u in g.vertices()])


def adjacency_pair(g):
    """The plain and a seeded +-1-signed adjacency matrix of ``g``."""
    rng = random.Random(f"signs/{g.to_graph6()}")
    signs = {e: rng.choice((-1, 1)) for e in g.edges()}
    return [(g, adjacency_matrix(g)), (g, adjacency_matrix(g, lambda u, v: signs[u, v]))]


def clique_psd_draws(g, count):
    """``count`` seeded ``clique_psd`` draws for ``g``."""
    rng = random.Random(f"clique_psd/{g.to_graph6()}")
    return [(g, _perfbench_clique_psd()(g, rng)) for _ in range(count)]


@pytest.fixture(scope="module")
def adjacency_corpus():
    """Plain and seeded +-1-signed adjacency matrices of every graph with
    n <= 7.  Their diagonals are zero, so the I o X = O rows are not implied
    by the A o X = O rows."""
    return [p for n in range(1, 8) for g in enumerate_graphs(n) for p in adjacency_pair(g)]


@pytest.fixture(scope="module")
def clique_psd_corpus():
    """Two nullity-rich ``clique_psd`` draws per connected graph with n <= 7."""
    return [p for n in range(1, 8) for g in enumerate_connected(n)
            for p in clique_psd_draws(g, 2)]


@pytest.fixture(scope="module")
def twin_blowup_corpus():
    """Seeded twin blow-ups A[i][j] = B[phi(i)][phi(j)] s_i s_j, n <= 7, of a
    symmetric B on 2..4 base vertices, kept when the nullity is >= 2; the
    graph is read off A's pattern.  Twins give kernel vectors with disjoint
    supports, so a row ij of the kernel system often pairs u_ip with u_jq
    for p != q alone, and only its cross term ui[q] * uj[p] keeps it
    symmetric in i and j."""
    rng = random.Random("twin_blowup")
    corpus = []
    for _ in range(1000):
        b = rng.randint(2, 4)
        n = rng.randint(b + 1, 7)
        phi = list(range(b)) + [rng.randrange(b) for _ in range(n - b)]
        rng.shuffle(phi)
        base = [[0] * b for _ in range(b)]
        for p in range(b):
            for q in range(p, b):
                base[p][q] = base[q][p] = rng.randint(-2, 2)
        s = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
        rows = [[base[phi[i]][phi[j]] * s[i] * s[j] for j in range(n)] for i in range(n)]
        a = RationalMatrix.from_rows(rows)
        if a.nullity() >= 2:
            g = Graph.from_edges(n, [(i + 1, j + 1) for i in range(n)
                                     for j in range(i + 1, n) if rows[i][j]])
            corpus.append((g, a))
    return corpus


def check_against_system_matrix(corpus):
    """Assert the two forms agree; return the matrices, the "no" verdicts and
    the matrices of nullity >= 2."""
    no = nullity2 = 0
    for g, a in corpus:
        verdict = has_sap(g, a)
        sm = build_sap_matrix(g, a)
        assert verdict == (sm.rank() == sm.cols), (g.to_graph6(), a)
        no += not verdict
        nullity2 += a.nullity() >= 2
    return len(corpus), no, nullity2


def test_kernel_form_matches_system_matrix_on_adjacency(adjacency_corpus):
    assert check_against_system_matrix(adjacency_corpus) == (2504, 346, 540)


def test_kernel_form_matches_system_matrix_on_clique_psd(clique_psd_corpus):
    assert check_against_system_matrix(clique_psd_corpus) == (1992, 124, 1079)


def test_kernel_form_matches_system_matrix_on_twin_blowups(twin_blowup_corpus):
    assert check_against_system_matrix(twin_blowup_corpus) == (758, 203, 758)


def library_kernel(a):
    """The basis ``has_sap`` reads: ``_kernel_basis`` on A's integer rows
    after ``_bareiss``, at the columns where it found no pivot."""
    m = [list(row) for row in a.ints]
    pivots = _bareiss(m, a.cols)[0]
    return _kernel_basis(m, [c for c in range(a.cols) if c not in pivots])


def free_columns(a):
    """The free columns of A's echelon form, found from the column prefixes
    alone: those where the rank of the leading columns does not grow."""
    prefix = [RationalMatrix.from_rows([row[:c] for row in a.entries]).rank()
              for c in range(a.cols + 1)]
    return [c for c in range(a.cols) if prefix[c + 1] == prefix[c]]


def open_pairs(g, free):
    """The pairs of free columns whose vertices are not adjacent in ``g``:
    the unknowns s_pq of the kernel system that no single cell kills."""
    return [(p, q) for p, q in combinations(free, 2) if not g.has_edge(p + 1, q + 1)]


def check_kernel_basis(a):
    """Assert the library basis has n - rank primitive integer vectors, each
    with A u = 0 on the Fraction entries, forming a nonzero diagonal on the
    free columns."""
    basis = library_kernel(a)
    assert len(basis) == a.cols - a.rank()
    for u in basis:
        assert len(u) == a.cols and gcd(*u) == 1
        assert all(sum(x * y for x, y in zip(row, u)) == 0 for row in a.entries)
    on_free = [[u[f] for f in free_columns(a)] for u in basis]
    assert all((x != 0) == (i == j) for i, row in enumerate(on_free) for j, x in enumerate(row))


def check_open_pair_reduction(corpus):
    """Over the matrices of nullity >= 2, with free columns found without
    ``has_sap``: assert that each with no open pair has the property by Psi,
    and return, per number of open pairs, the matrices and the "no"
    verdicts by Psi."""
    seen = Counter()
    no = Counter()
    for g, a in corpus:
        if a.nullity() < 2:
            continue
        pairs = len(open_pairs(g, free_columns(a)))
        sm = build_sap_matrix(g, a)
        verdict = sm.rank() == sm.cols
        assert verdict or pairs, g.to_graph6()
        seen[pairs] += 1
        no[pairs] += not verdict
    return {pairs: (seen[pairs], no[pairs]) for pairs in sorted(seen)}


def test_no_open_pair_means_the_property(adjacency_corpus, clique_psd_corpus,
                                         twin_blowup_corpus):
    """When the free vertices of A's echelon form are pairwise adjacent, the
    cells at them kill every unknown of the kernel system, so A has the
    property; ``has_sap`` answers yes there without a kernel basis.  The
    pinned counts show each corpus reaching both branches, and "no"
    verdicts from one open pair on."""
    assert check_open_pair_reduction(adjacency_corpus) == {
        0: (82, 0), 1: (251, 142), 2: (34, 31), 3: (123, 123), 4: (3, 3), 5: (4, 4),
        6: (21, 21), 7: (1, 1), 8: (1, 1), 9: (2, 2), 10: (14, 14), 15: (2, 2), 21: (2, 2)}
    assert check_open_pair_reduction(clique_psd_corpus) == {
        0: (881, 0), 1: (144, 72), 2: (42, 40), 3: (10, 10), 4: (2, 2)}
    assert check_open_pair_reduction(twin_blowup_corpus) == {
        0: (490, 0), 1: (131, 69), 2: (43, 40), 3: (47, 47), 4: (13, 13), 5: (5, 5),
        6: (20, 20), 9: (2, 2), 10: (2, 2), 12: (1, 1), 14: (1, 1), 15: (2, 2), 21: (1, 1)}


def test_kernel_basis_on_the_corpora(adjacency_corpus, clique_psd_corpus, twin_blowup_corpus):
    """The basis on every matrix of the three n <= 7 corpora, and the verdict
    against the former [DA | D] kernel path."""
    for g, a in adjacency_corpus + clique_psd_corpus + twin_blowup_corpus:
        check_kernel_basis(a)
        assert has_sap(g, a) == reference_has_sap(g, a), g.to_graph6()


def test_kernel_basis_on_rational_rows():
    """Random products B C of rank <= r, row i divided by its own prime, so
    every nonzero row has its own scale; A u = 0 is checked on the
    Fractions, not on the integer rows the basis is read from."""
    rng = random.Random("kernel rows")
    primes = (2, 3, 5, 7, 11, 13, 17, 19)
    rich = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        r = rng.randint(0, n)
        b = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        a = RationalMatrix.from_rows(
            [[Fraction(sum(b[i][t] * c[t][j] for t in range(r)), primes[i]) for j in range(n)]
             for i in range(n)])
        check_kernel_basis(a)
        rich += a.nullity() >= 2 and len(set(a.scales)) == n
    assert rich >= 50


def test_kernel_basis_with_a_free_column_before_a_pivot():
    """The zero first column is free, and so is column 2; the pivot 2 of
    row 0 does not divide s = 3, so the vector is rescaled by 2."""
    a = RationalMatrix.from_rows([[0, 2, 3, 1], [0, 4, 6, 5]])
    assert library_kernel(a) == [[1, 0, 0, 0], [0, -3, 2, 0]]
    check_kernel_basis(a)


@pytest.mark.slow
def test_has_sap_matches_the_reference_kernel_path_on_n8():
    """Verdict and nullity against the former [DA | D] kernel path, which
    ranks the whole k(k+1)/2-column system: plain and signed adjacency
    matrices of all 12,346 graphs on 8 vertices, and one ``clique_psd`` draw
    per connected one.  The matrices of nullity >= 2 with no open pair, which
    ``has_sap`` answers without a kernel basis, are counted too."""
    def check(corpus):
        """The matrices, the "no" verdicts, the matrices of nullity >= 2 and
        those among them with no open pair."""
        no = nullity2 = closed = 0
        for g, a in corpus:
            verdict, k = has_sap(g, a), a.nullity()
            assert verdict == reference_has_sap(g, a), g.to_graph6()
            assert k == len(library_kernel(a)) == len(reference_kernel_basis(a)), g.to_graph6()
            no += not verdict
            nullity2 += k >= 2
            if k >= 2 and not open_pairs(g, free_columns(a)):
                assert verdict, g.to_graph6()
                closed += 1
        return len(corpus), no, nullity2, closed

    assert check([p for g in enumerate_graphs(8) for p in adjacency_pair(g)]) == \
        (24692, 1911, 4666, 1539)
    assert check([p for g in enumerate_connected(8) for p in clique_psd_draws(g, 1)]) == \
        (11117, 503, 5182, 4075)


def test_kernel_form_hand_cases():
    for n in range(2, 7):
        kn, en = families.complete(n), families.empty(n)
        ones = RationalMatrix.from_rows([[1] * n] * n)
        assert ones.nullity() == n - 1 and open_pairs(kn, free_columns(ones)) == []
        assert has_sap(kn, ones)
        # congruent to the all-ones matrix; each row has its own denominator
        ones_scaled = RationalMatrix.from_rows(
            [[Fraction(1, (i + 1) * (j + 1)) for j in range(n)] for i in range(n)])
        assert has_sap(kn, ones_scaled)
        zero = RationalMatrix.from_rows([[0] * n] * n)
        assert len(open_pairs(en, free_columns(zero))) == n * (n - 1) // 2
        assert not has_sap(en, zero)
    p3 = adjacency_matrix(families.path(3))
    assert p3.nullity() == 1 and has_sap(families.path(3), p3)
    # C4: the free vertices 3 and 4 are adjacent, so no pair is left open
    c4 = families.cycle(4)
    a = adjacency_matrix(c4)
    assert a.nullity() == 2 and free_columns(a) == [2, 3] and open_pairs(c4, [2, 3]) == []
    assert has_sap(c4, a)
    # K_{1,3}: the free leaves 3 and 4 leave s_01 open, and of all the cells
    # only the one at the pivot vertex 2, a leaf, holds it
    star3 = families.star(3)
    a = adjacency_matrix(star3)
    assert a.nullity() == 2 and open_pairs(star3, free_columns(a)) == [(2, 3)]
    u = list(zip(*library_kernel(a)))
    cells = [(v, v) for v in star3.vertices()] + star3.edges()
    assert [(i, j) for i, j in cells
            if u[i - 1][0] * u[j - 1][1] + u[i - 1][1] * u[j - 1][0]] == [(2, 2)]
    assert has_sap(star3, a)
    # K_{1,4}: three open pairs over the leaves 3, 4, 5 and no property
    star4 = families.star(4)
    a = adjacency_matrix(star4)
    assert a.nullity() == 3 and len(open_pairs(star4, free_columns(a))) == 3
    assert not has_sap(star4, a)


def test_perturbation_witness_on_non_sap_matrices(adjacency_corpus, clique_psd_corpus):
    """Shifting the diagonal on a winning vertex set of the vertex-cover game
    gives the property back, for every non-SAP matrix on a connected graph
    with n <= 6."""
    ran = []
    for corpus in (adjacency_corpus, clique_psd_corpus):
        failing = [(g, a) for g, a in corpus
                   if g.n <= 6 and g.is_connected() and not has_sap(g, a)]
        for g, a in failing:
            _, cover = vc_forcing_number(g, Rule.Z)
            x, perturbed = perturbation_witness(g, a, cover)
            assert x > 0 and has_sap(g, perturbed), g.to_graph6()
            assert perturbed.nullity() >= a.nullity() - len(cover)
        ran.append(len(failing))
    assert ran == [12, 16]


def test_perturbation_witness_raises_when_no_shift_helps():
    """An empty vertex set shifts no diagonal entry, so a matrix without the
    property lacks it after every doubling."""
    star = parse_graph6("D?{")  # K_{1,4}
    a = adjacency_matrix(star)
    assert not has_sap(star, a)
    with pytest.raises(PerturbationError):
        perturbation_witness(star, a, ())


def test_perturbation_witness_refuses_vertices_outside_the_graph():
    # unchecked, B = {0} would shift position -1, the diagonal entry of vertex 5
    star = parse_graph6("D?{")  # K_{1,4}
    a = adjacency_matrix(star)
    for marked in ({0}, {6}, {2, -1}):
        with pytest.raises(ValueError, match="outside 1..5"):
            perturbation_witness(star, a, marked)


SCALES = (Fraction(3, 2), Fraction(-5, 3), Fraction(7, 4), Fraction(-2, 9), Fraction(1, 6))


def test_rational_multiples_keep_verdict_and_nullity(adjacency_corpus, clique_psd_corpus):
    """c A for c = +-p/q with q > 1, and D A D for a diagonal D of such
    values, have A's verdict and nullity, and the sympy oracle agrees.  Their
    rows carry scales > 1, which the integer matrices of the benchmark never
    do.  The seeded picks include "no" verdicts and nullities >= 2, and J_4."""
    rng = random.Random("rational multiples")
    pool = [(g, a) for g, a in adjacency_corpus + clique_psd_corpus
            if g.n >= 3 and any(map(any, a.ints))]
    no = [p for p in pool if not has_sap(*p)]
    rich = [p for p in pool if has_sap(*p) and p[1].nullity() >= 2]
    picks = rng.sample(no, 15) + rng.sample(rich, 15) + rng.sample(pool, 10)
    picks.append((families.complete(4), RationalMatrix.from_rows([[1] * 4] * 4)))
    seen_no = seen_rich = 0
    for g, a in picks:
        verdict, k = has_sap(g, a), a.nullity()
        c = rng.choice(SCALES)
        d = [rng.choice(SCALES) for _ in range(g.n)]
        ca = RationalMatrix.from_rows([[c * x for x in row] for row in a.entries])
        dad = RationalMatrix.from_rows([[d[i] * x * d[j] for j, x in enumerate(row)]
                                        for i, row in enumerate(a.entries)])
        for b in (ca, dad):
            assert max(b.scales) > 1
            assert has_sap(g, b) == verdict and b.nullity() == k, g.to_graph6()
            assert sap_oracle(g, b) == verdict, g.to_graph6()
        seen_no += not verdict
        seen_rich += k >= 2
    assert seen_no >= 15 and seen_rich >= 16
