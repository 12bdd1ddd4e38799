import gc
import importlib
import random
from types import FunctionType

import pytest

from sapforce import families, minors
from sapforce.canon import canonical_form, enumerate_connected
from sapforce.graphs import CapExceededError, Graph, parse_graph6
from sapforce.minors import clique_number, hadwiger, vertex_cover_number
from sapforce.sapgame import is_zsap_zero, vc_forcing_number
from sapforce.xi import (CASE_COMPONENT_MAX, CASE_T3_FAMILY, CASE_TREE,
                         CASE_VC_BOUND, CASE_ZSAP_ZERO, MSizeError,
                         T3FamilyData, XiUnresolvedError, load_t3_family,
                         m_small, t3_minor, xi)
from sapforce.zeroforcing import Rule, is_zfs, min_zfs

from conftest import disjoint_union

# the package exports the function xi under the module's name
xi_module = importlib.import_module("sapforce.xi")


def test_family_data_valid():
    fam = load_t3_family()
    assert len(fam.graphs) == 6
    forms = {canonical_form(g) for g in fam.graphs}
    assert len(forms) == 6
    assert sorted(g.n for g in fam.graphs) == [4, 5, 6, 7, 8, 9]
    # certificates cite members by index and vertex labels: both are fixed
    assert [g.to_graph6() for g in fam.graphs] == \
        ["C~", "DFw", "EBnW", "F@QZo", "G?CZLO", "HhEK@?G"]


def test_t3_minor_examples():
    assert not t3_minor(families.path(7))[0]
    assert t3_minor(families.complete(5))[0]
    for n in range(2, 8):
        for t in filter(Graph.is_tree, enumerate_connected(n)):
            assert not t3_minor(t)[0]


def test_m_small(kite, k3_join_o4):
    assert m_small(kite) == 2
    assert m_small(k3_join_o4) == 5
    with pytest.raises(MSizeError):
        m_small(families.petersen())
    # trees of any size are fine; this one's path cover number is 7
    assert m_small(families.ternary_spider13()) == 7


def test_xi_examples(kite, k3_join_o4):
    for n in (2, 4, 6, 7):
        cert = xi(families.path(n))
        assert cert.value == 1
    cert = xi(k3_join_o4)
    assert cert.value == 4 and cert.case == CASE_VC_BOUND
    assert cert.lower_witness["max_nullity"] == 5
    assert cert.lower_witness["vc_game_value"] == 1
    cert = xi(kite)
    assert cert.value == 2 and cert.case == CASE_ZSAP_ZERO


def test_xi_tree_case():
    # a tree whose complement is not a forest and that is not zsap-zero
    spider7 = Graph.from_edges(7, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 7)])
    cert = xi(spider7)
    assert cert.value == 2
    assert cert.case in (CASE_ZSAP_ZERO, CASE_TREE)
    if cert.case == CASE_TREE:
        assert not is_zsap_zero(spider7, Rule.Z)


def test_xi_component_max():
    g = disjoint_union(families.path(4), families.complete(4))
    cert = xi(g)
    assert cert.case == CASE_COMPONENT_MAX
    assert cert.value == 3
    assert [c.value for c in cert.components] == [1, 3]
    # the record keeps each component's witnesses, in the labeling of g
    rec = cert.to_record(g)
    assert [c["vertices"] for c in rec["components"]] == [[1, 2, 3, 4], [5, 6, 7, 8]]
    for entry in rec["components"]:
        part = g.induced(entry["vertices"])
        assert entry["record"] == xi(part).to_record(part)
        assert entry["record"]["graph6"] == part.to_graph6()
        witness = entry["record"]["upper_witness"]["zero_forcing_witness"]
        assert is_zfs(part, witness, Rule.Z)
    assert [c["record"]["xi"] for c in rec["components"]] == [1, 3]
    # a connected graph's record has no components entry
    assert "components" not in xi(families.path(4)).to_record(families.path(4))


def test_xi_guard():
    with pytest.raises(CapExceededError):
        xi(families.petersen())


def test_xi_record(kite):
    rec = xi(kite).to_record(kite)
    assert set(rec) == {"graph6", "xi", "case", "lower_witness", "upper_witness"}
    assert rec["xi"] == 2
    # a record keeps the labeling it was decided on, canonical or not
    g = parse_graph6("DKo")
    rec = xi(g).to_record(g)
    assert rec["graph6"] == "DKo" != canonical_form(g)
    assert is_zfs(g, rec["upper_witness"]["zero_forcing_witness"], Rule.Z)


def test_t3_case_fires_somewhere(connected_upto_7):
    cases = {}
    for g in connected_upto_7:
        cert = xi(g)
        cases.setdefault(cert.case, 0)
        cases[cert.case] += 1
    assert cases.get(CASE_T3_FAMILY, 0) > 0


def test_clique_case_needs_only_k_floor_plus_one(connected_upto_7, monkeypatch):
    """eta - 1 <= xi <= floor, so asking for K_{floor+1} is the whole clique
    case: check eta <= floor + 1 and that xi never asks for eta itself."""
    for g in connected_upto_7:
        assert hadwiger(g)[0] <= min_zfs(g, Rule.FLOOR)[0] + 1, g.to_graph6()
    calls = []

    def spy(g):
        calls.append(g.to_graph6())
        return hadwiger(g)

    monkeypatch.setattr(minors, "hadwiger", spy)
    monkeypatch.setattr(xi_module, "hadwiger", spy)
    for g in connected_upto_7:
        xi(g)
    assert calls == []


def test_unresolved_error_names_the_hadwiger_number(connected_upto_7, monkeypatch):
    # a family of cliques too big to be minors leaves the t3 case open
    never = T3FamilyData(tuple(families.complete(k) for k in range(8, 14)))
    g = next(g for g in connected_upto_7 if xi(g).case == CASE_T3_FAMILY)
    monkeypatch.setattr(xi_module, "load_t3_family", lambda: never)
    with pytest.raises(XiUnresolvedError) as err:
        xi(g)
    assert err.value.details["clique_minor_order"] == hadwiger(g)[0] == 3
    assert err.value.details["vc_game_value"] == vc_forcing_number(g, Rule.Z)[0]


def test_vc_case_plays_only_covers_of_m_minus_floor(connected_upto_7):
    """Zvc >= M - xi >= m - floor on every connected graph with n <= 7, and
    xi takes the vertex-cover case exactly where the rule on the full game
    value, floor == m - Zvc, would, with that game's witness."""
    for g in connected_upto_7:
        m, floor = min_zfs(g, Rule.Z)[0], min_zfs(g, Rule.FLOOR)[0]
        vc, witness = vc_forcing_number(g, Rule.Z)
        assert vc >= m - floor, g.to_graph6()
        # the rule before the trim, behind the two cases tried first
        untrimmed = not is_zsap_zero(g, Rule.Z) and not g.is_tree() and floor == m - vc
        cert = xi(g)
        assert (cert.case == CASE_VC_BOUND) == untrimmed, g.to_graph6()
        if untrimmed:
            assert cert.lower_witness == {"max_nullity": m, "vc_game_value": vc,
                                          "vc_witness": sorted(witness)}


def test_minor_monotonicity_200_pairs(connected_upto_6):
    rng = random.Random(12)
    pairs = 0
    while pairs < 200:
        g = rng.choice(connected_upto_6)
        h = g
        for _ in range(rng.randint(1, 3)):
            moves = []
            if h.n > 1:
                moves.append("delv")
            if h.edges():
                moves.extend(["dele", "contract"])
            if not moves:
                break
            move = rng.choice(moves)
            if move == "delv":
                h = h.delete_vertex(rng.randint(1, h.n))
            elif move == "contract":
                h = h.contract_edge(*rng.choice(h.edges()))
            else:
                u, v = rng.choice(h.edges())
                adj = list(h.adj)
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
                h = Graph(h.n, tuple(adj))
        if h.n == 0:
            continue
        assert xi(h).value <= xi(g).value
        pairs += 1


def test_vertex_deletion_bound(connected_upto_5, sampled_n6):
    for g in connected_upto_5 + sampled_n6[:10]:
        if g.n < 2:
            continue
        value = xi(g).value
        for v in g.vertices():
            rest = g.delete_vertex(v)
            if rest.n and is_zsap_zero(rest, Rule.Z):
                assert value <= xi(rest).value + 1


def test_beta_complement_bound(connected_upto_6):
    for g in connected_upto_6:
        assert m_small(g) - vertex_cover_number(g.complement()) <= xi(g).value


def test_sandwich(connected_upto_6):
    from sapforce.sapgame import vc_forcing_number
    for g in connected_upto_6:
        m = m_small(g)
        vc = vc_forcing_number(g, Rule.Z)[0]
        value = xi(g).value
        floor = min_zfs(g, Rule.FLOOR)[0]
        z = min_zfs(g, Rule.Z)[0]
        assert m - vc <= value <= floor <= z


def test_tree_floor_equals_xi():
    for n in range(2, 8):
        for t in filter(Graph.is_tree, enumerate_connected(n)):
            assert min_zfs(t, Rule.FLOOR)[0] == xi(t).value


def test_ternary_spider_floor_value():
    # two claims circulate for this 13-vertex tree (exactly 3 vs more than
    # 3); record the computed value without endorsing either text
    t = families.ternary_spider13()
    value = min_zfs(t, Rule.FLOOR)[0]
    assert value in (3, 4)
    assert value > 2  # either way it exceeds every tree's parameter value


def test_xi_pass_leaves_no_cyclic_garbage(connected_upto_6):
    """Recursive helpers must not leave function/closure reference cycles
    behind: with the collector off, a pass of xi (and of the two searches
    xi does not reach) frees everything by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        for g in connected_upto_6:
            xi(g)
            clique_number(g)
            vertex_cover_number(g)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = sorted({f.__qualname__ for f in gc.garbage
                         if isinstance(f, FunctionType) and f.__module__.startswith("sapforce")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert leaked == []
