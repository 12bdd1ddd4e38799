import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from sapforce import families
from sapforce.canon import enumerate_connected, enumerate_graphs
from sapforce.graphs import Graph, parse_graph6
from sapforce.linalg import (PatternError, PatternFamily, PerturbationError,
                             RationalMatrix, build_sap_matrix, has_sap, nullity,
                             odd_cycle_det, odd_cycle_matrix, perturbation_witness,
                             rank, sample_matrix, validate_pattern)
from sapforce.sapgame import vc_forcing_number
from sapforce.zeroforcing import Rule

from oracle import sap_oracle

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
    assert rank(ones) == 1 and nullity(ones) == 2
    singular = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                         [Fraction(3, 2), 1]])
    assert singular.rank() == 1
    frac = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                                     [Fraction(3, 2), 2]])
    assert frac.rank() == 2


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


def test_pattern_validation():
    p4 = families.path(4)
    bad = RationalMatrix.from_rows([[0, 1, 1, 0], [1, 0, 1, 0],
                                    [1, 1, 0, 1], [0, 0, 1, 0]])
    with pytest.raises(PatternError) as exc:
        validate_pattern(p4, bad)
    assert "(1,3)" in str(exc.value)
    missing = RationalMatrix.from_rows([[0, 0, 0, 0]] * 4)
    with pytest.raises(PatternError):
        validate_pattern(p4, missing)


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


@pytest.fixture(scope="module")
def adjacency_corpus():
    """Plain and seeded +-1-signed adjacency matrices of every graph with
    n <= 7.  Their diagonals are zero, so the I o X = O rows are not implied
    by the A o X = O rows."""
    corpus = []
    for n in range(1, 8):
        for g in enumerate_graphs(n):
            rng = random.Random(f"signs/{g.to_graph6()}")
            signs = {e: rng.choice((-1, 1)) for e in g.edges()}
            corpus += [(g, adjacency_matrix(g)),
                       (g, adjacency_matrix(g, lambda u, v: signs[u, v]))]
    return corpus


@pytest.fixture(scope="module")
def clique_psd_corpus():
    """Two nullity-rich ``clique_psd`` draws per connected graph with n <= 7."""
    clique_psd = _perfbench_clique_psd()
    corpus = []
    for n in range(1, 8):
        for g in enumerate_connected(n):
            rng = random.Random(f"clique_psd/{g.to_graph6()}")
            corpus += [(g, clique_psd(g, rng)) for _ in range(2)]
    return corpus


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


def test_kernel_form_hand_cases():
    for n in range(2, 7):
        ones = RationalMatrix.from_rows([[1] * n] * n)
        assert ones.nullity() == n - 1
        assert has_sap(families.complete(n), ones)
        # congruent to the all-ones matrix; each row has its own denominator
        ones_scaled = RationalMatrix.from_rows(
            [[Fraction(1, (i + 1) * (j + 1)) for j in range(n)] for i in range(n)])
        assert has_sap(families.complete(n), ones_scaled)
        zero = RationalMatrix.from_rows([[0] * n] * n)
        assert not has_sap(families.empty(n), zero)
    p3 = adjacency_matrix(families.path(3))
    assert p3.nullity() == 1 and has_sap(families.path(3), p3)


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
