"""Property-based checks over random graphs and matrices."""

from hypothesis import given, settings
from hypothesis import strategies as st

from sapforce.graphs import Graph, encode_graph6, parse_graph6
from sapforce.linalg import PatternFamily, odd_cycle_det, sample_matrix, validate_pattern
from sapforce.sapgame import is_zsap_zero
from sapforce.zeroforcing import Rule, closure, is_zfs, min_zfs


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    edges = []
    bit = 0
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if mask >> bit & 1:
                edges.append((u, v))
            bit += 1
    return Graph.from_edges(n, edges)


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_complement_involution(g):
    assert g.complement().complement().adj == g.adj
    assert g.num_edges() + g.complement().num_edges() == g.n * (g.n - 1) // 2


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_closure_monotone_and_bounded(g, data):
    b1 = {v for v in g.vertices() if data.draw(st.booleans())}
    extra = {v for v in g.vertices() if data.draw(st.booleans())}
    b2 = b1 | extra
    for rule in (Rule.Z, Rule.ZL, Rule.ZPLUS):
        c1, _ = closure(g, b1, rule)
        c2, _ = closure(g, b2, rule)
        assert b1 <= c1 <= c2 <= frozenset(g.vertices())


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=6))
def test_full_set_always_forces(g):
    for rule in Rule:
        assert is_zfs(g, set(g.vertices()), rule)


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=6))
def test_zsap_zero_flag_chain(g):
    # a finished plain game implies the looped and component variants finish
    if is_zsap_zero(g, Rule.Z):
        assert is_zsap_zero(g, Rule.ZL)
    if is_zsap_zero(g, Rule.ZL):
        assert is_zsap_zero(g, Rule.ZPLUS)


@settings(max_examples=50, deadline=None)
@given(graphs(max_n=9))
def test_graph6_roundtrip(g):
    assert parse_graph6(encode_graph6(g)).adj == g.adj


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9).filter(bool), min_size=3, max_size=9)
       .filter(lambda xs: len(xs) % 2 == 1))
def test_odd_cycle_det_property(vals):
    prod = 1
    for v in vals:
        prod *= v
    assert odd_cycle_det(vals) == 2 * prod


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=6), st.integers(0, 10 ** 6))
def test_sampler_respects_patterns(g, seed):
    for family in PatternFamily:
        a = sample_matrix(g, family, seed)
        validate_pattern(g, a)
        if family is PatternFamily.S_ELL:
            for v in g.vertices():
                zero = a.entries[v - 1][v - 1] == 0
                assert zero == (g.degree(v) == 0)


@settings(max_examples=30, deadline=None)
@given(graphs(max_n=5), st.data())
def test_min_zfs_never_exceeds_order(g, data):
    rule = data.draw(st.sampled_from(list(Rule)))
    value, witness = min_zfs(g, rule)
    assert 0 < value <= g.n
    assert is_zfs(g, witness, rule)
