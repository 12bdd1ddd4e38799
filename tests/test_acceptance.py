"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints one PASS line on
success (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
All arithmetic checks are exact; no tolerances appear anywhere.
"""

import random
import time

import pytest

from sapforce import families
from sapforce.canon import enumerate_connected
from sapforce.graphs import Graph
from sapforce.linalg import (PatternFamily, RationalMatrix, build_sap_matrix,
                             has_sap, odd_cycle_det, perturbation_witness,
                             sample_matrix)
from sapforce.report import survey_graphs
from sapforce.sapgame import is_zsap_zero, sap_forcing_number, vc_forcing_number
from sapforce.xi import XiUnresolvedError, m_small, xi
from sapforce.zeroforcing import Rule, closure, min_zfs

from conftest import diameter, is_forest, max_degree
from oracle import sap_oracle

pytestmark = pytest.mark.acceptance

RULES = (Rule.Z, Rule.ZL, Rule.ZPLUS)
FAMILY_OF_RULE = {Rule.Z: PatternFamily.S, Rule.ZL: PatternFamily.S_ELL,
                  Rule.ZPLUS: PatternFamily.S_PLUS}


def ok(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS: {detail}")


def test_criterion_1_survey_proportions():
    expected = {
        5: (21, (18, 20, 20), ("0.86", "0.95", "0.95")),
        6: (112, (88, 103, 103), ("0.79", "0.92", "0.92")),
        7: (853, (628, 756, 757), ("0.74", "0.89", "0.89")),
    }
    t0 = time.time()
    for n, (total, counts, props) in expected.items():
        row = survey_graphs(list(enumerate_connected(n)), n)
        assert row.total == total, (n, row)
        assert (row.zsap0, row.zsapl0, row.zsapp0) == counts, (n, row)
        assert row.proportions == props, (n, row)
    elapsed = time.time() - t0
    assert elapsed < 300, f"survey took {elapsed:.0f}s, budget is 5 minutes"
    ok("criterion 1", f"survey proportions match for n=5,6,7 "
                      f"(denominators 21/112/853) in {elapsed:.1f}s")


def test_criterion_2_xi_equals_floor_up_to_7():
    t0 = time.time()
    trouble = []
    total = 0
    for n in range(1, 8):
        for g in enumerate_connected(n):
            total += 1
            try:
                cert = xi(g)
            except XiUnresolvedError:
                trouble.append(("unresolved", g.to_graph6()))
                continue
            if cert.value != min_zfs(g, Rule.FLOOR)[0]:
                trouble.append(("exception", g.to_graph6()))
    elapsed = time.time() - t0
    assert not trouble, trouble[:10]
    assert elapsed < 900, f"verification took {elapsed:.0f}s, budget is 15 minutes"
    ok("criterion 2", f"{total} connected graphs up to 7 vertices: zero "
                      f"exceptions, zero unresolved in {elapsed:.1f}s")


def test_criterion_3_system_matrix_regression():
    a = RationalMatrix.from_rows(
        [[-1, 1, 0, 0], [1, -1, 1, 0], [0, 1, -1, 1], [0, 0, 1, -1]])
    sm = build_sap_matrix(families.path(4), a, [(1, 3), (1, 4), (2, 4)])
    printed = [
        [0, 0, 0], [1, 0, 0], [-1, 1, 0], [1, -1, 0],
        [0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, -1],
        [-1, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0],
        [0, -1, 1], [0, 1, -1], [0, 0, 1], [0, 0, 0],
    ]
    assert [[int(x) for x in row] for row in sm.entries] == printed
    assert sm.rank() == 3
    ok("criterion 3", "16x3 system matrix reproduced entry-for-entry, rank 3")


def test_criterion_4_closed_forms():
    for n in (3, 4, 5):
        assert sap_forcing_number(families.empty(n), Rule.Z)[0] == n * (n - 1) // 2
        want = (n - 1) * (n - 2) // 2 - 1
        assert sap_forcing_number(families.star(n), Rule.Z)[0] == want
    g = families.complete(3).join(families.empty(4))
    assert vc_forcing_number(g, Rule.Z)[0] == 1
    cert = xi(g)
    assert cert.value == 4
    ok("criterion 4", "empty-graph and star closed forms for n=3,4,5; "
                      "join example has game value 1 and parameter 4")


def test_criterion_5_spot_values():
    for build in (families.petersen, families.tetrahedron, families.cube,
                  families.octahedron, families.dodecahedron,
                  families.icosahedron):
        assert is_zsap_zero(build(), Rule.Z), build.__name__
    assert min_zfs(families.dodecahedron(), Rule.Z)[0] == 6
    assert min_zfs(families.icosahedron(), Rule.Z)[0] == 6
    kite = families.kite5()
    assert min_zfs(kite, Rule.Z)[0] == 2
    assert m_small(kite) == 2
    assert sap_forcing_number(kite, Rule.Z)[0] == 0
    assert xi(kite).value == 2
    fig = families.outer_triangle_on_wheel8()
    assert min_zfs(fig, Rule.Z)[0] == 3
    assert min_zfs(fig, Rule.FLOOR)[0] == 3
    ok("criterion 5", "Petersen and all platonic solids force from nothing; "
                      "dodecahedron/icosahedron forcing number 6; kite and "
                      "8-vertex figure values check out")


def test_criterion_6_sampling_oracle():
    checked = 0
    for n in range(1, 7):
        for g in enumerate_connected(n):
            for rule in RULES:
                if not is_zsap_zero(g, rule):
                    continue
                family = FAMILY_OF_RULE[rule]
                for seed in range(10):
                    a = sample_matrix(g, family, seed)
                    assert has_sap(g, a), (g.to_graph6(), rule, seed)
                    checked += 1
    ok("criterion 6", f"{checked} sampled matrices across S/S_ell/S_plus all "
                      f"have the property (exact, no tolerance)")


def test_criterion_7_bruteforce_oracle_equivalence():
    rng = random.Random(2026)
    pool = [g for n in range(1, 5) for g in enumerate_connected(n)]
    pool += [families.empty(2), families.empty(3), families.empty(4),
             Graph.from_edges(3, [(1, 2)]), Graph.from_edges(4, [(1, 2)]),
             Graph.from_edges(4, [(1, 2), (3, 4)])]
    agreements = 0
    for _ in range(200):
        g = rng.choice(pool)
        a = sample_matrix(g, PatternFamily.S, seed=rng.randrange(10 ** 9))
        assert has_sap(g, a) == sap_oracle(g, a)
        agreements += 1
    ok("criterion 7", f"rank test agrees with the explicit elimination oracle "
                      f"on {agreements} random matrices (graphs up to 4 vertices)")


def test_criterion_8_odd_cycle_determinant():
    rng = random.Random(8)
    for _ in range(1000):
        n = rng.choice([3, 5, 7, 9])
        vals = []
        for _ in range(n):
            v = 0
            while v == 0:
                v = rng.randint(-20, 20)
            vals.append(v)
        prod = 1
        for v in vals:
            prod *= v
        assert odd_cycle_det(vals) == 2 * prod
    ok("criterion 8", "determinant equals twice the entry product on 1000 "
                      "random odd instances (sizes 3,5,7,9), exactly")


def test_criterion_9_perturbation():
    rng = random.Random(99)
    pool = [g for n in range(4, 8) for g in enumerate_connected(n)
            if not is_zsap_zero(g, Rule.Z)]
    runs = 0
    while runs < 50:
        g = rng.choice(pool)
        vc, witness = vc_forcing_number(g, Rule.Z)
        if vc < 1:
            continue
        a = sample_matrix(g, PatternFamily.S, seed=rng.randrange(10 ** 9))
        x, perturbed = perturbation_witness(g, a, witness)
        assert has_sap(g, perturbed)
        assert perturbed.nullity() >= a.nullity() - len(witness)
        runs += 1
    ok("criterion 9", "50 random graphs with positive vertex-cover game "
                      "value: diagonal perturbation terminates, the result "
                      "has the property, and nullity drops by at most |B|")


def test_criterion_10_property_suites(connected_upto_5, all_graphs_upto_5,
                                      sampled_n6):
    rng = random.Random(10)
    corpus = connected_upto_5 + sampled_n6

    # monotone closure
    for g in corpus:
        verts = list(g.vertices())
        for _ in range(4):
            b1 = {v for v in verts if rng.random() < 0.4}
            b2 = b1 | {v for v in verts if rng.random() < 0.3}
            for rule in RULES:
                assert closure(g, b1, rule)[0] <= closure(g, b2, rule)[0]

    # inequality chains: conventional minima, game-on-non-edges minima, floor
    for g in corpus:
        z = min_zfs(g, Rule.Z)[0]
        zl = min_zfs(g, Rule.ZL)[0]
        zp = min_zfs(g, Rule.ZPLUS)[0]
        fl = min_zfs(g, Rule.FLOOR)[0]
        assert zp <= zl <= z and fl <= z
        if len(g.non_edges()) <= 12:
            s = sap_forcing_number(g, Rule.Z)[0]
            sl = sap_forcing_number(g, Rule.ZL)[0]
            sp = sap_forcing_number(g, Rule.ZPLUS)[0]
            assert sp <= sl <= s

    # join propositions
    k1 = families.complete(1)
    small = [families.empty(2), families.empty(3), families.path(2),
             families.path(3), families.complete(3), families.cycle(4)]
    for _ in range(6):
        g, h = rng.choice(small), rng.choice(small)
        assert sap_forcing_number(g.join(h), Rule.Z)[0] == \
            sap_forcing_number(g.join(k1), Rule.Z)[0] + \
            sap_forcing_number(h.join(k1), Rule.Z)[0]
    for g in all_graphs_upto_5:
        base = sap_forcing_number(g, Rule.Z)[0]
        joined = sap_forcing_number(g.join(k1), Rule.Z)[0]
        assert joined <= base
        if all(g.degree(v) > 0 for v in g.vertices()):
            assert joined == base
        joined_zero = joined == 0
        comps = g.components()
        case1 = all(g.degree(v) > 0 for v in g.vertices()) and base == 0
        case2 = g.n == 1
        if len(comps) == 2 and min(len(c) for c in comps) == 1:
            rest = g.induced(max(comps, key=len))
            case2 = case2 or is_zsap_zero(rest, Rule.Z)
        case3 = g.n == 3 and g.num_edges() == 0
        assert joined_zero == (case1 or case2 or case3)

    # complement-forest rule
    for g in corpus:
        if is_forest(g.complement()) and all(g.degree(v) > 0 for v in g.vertices()):
            assert is_zsap_zero(g, Rule.Z)

    # diameter 2 with maximum degree 3
    for g in corpus:
        if g.n >= 2 and g.is_connected() and max_degree(g) <= 3 and diameter(g) == 2:
            assert is_zsap_zero(g, Rule.Z)

    # vertex deletion bound via the finished-game case
    for g in corpus:
        if g.n < 2:
            continue
        value = xi(g).value
        for v in g.vertices():
            rest = g.delete_vertex(v)
            if rest.n and is_zsap_zero(rest, Rule.Z):
                assert value <= xi(rest).value + 1

    ok("criterion 10", "monotone closure, inequality chains, join "
                       "propositions, complement-forest rule, diameter-2 "
                       "bound, and the vertex-deletion bound hold with zero "
                       "violations on the full n<=5 corpus and a 30-graph "
                       "n=6 sample")
