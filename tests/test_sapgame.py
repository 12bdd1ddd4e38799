import random
from itertools import combinations

import pytest

from sapforce import families
from sapforce.canon import enumerate_connected
from sapforce.graphs import bits
from sapforce.report import compute_report
from sapforce.sapgame import (NonEdgeColoring, OddCycleForce, TripleForce,
                              applicable_forces, complementary_closure,
                              format_sap_trace, is_zsap_zero, local_blue_set,
                              odd_cycle_applications, replay_trace, sap_closure,
                              sap_forcing_number, vc_forcing_number)
from sapforce.zeroforcing import (CONVENTIONAL_RULES, Rule, single_forces,
                                  smallest_winning_set)

# -- the closure that rebuilds its position before every move ---------------
#
# The library's closure keeps one position per call and re-scans only what
# the last move can change.  These functions rebuild everything from the
# coloring at every step instead; the tests below require both to give the
# same final coloring and the same trace, move for move.


def reference_white_adjacency(g, coloring):
    white_adj = [0] * (g.n + 1)
    for u, v in coloring.white_nonedges():
        white_adj[u] |= 1 << v
        white_adj[v] |= 1 << u
    return white_adj


def reference_odd_cycle_applications(g, coloring):
    white_adj = reference_white_adjacency(g, coloring)
    out = []
    for i in g.vertices():
        nbhd = g.adj[i]
        seen = 0
        for v in bits(nbhd):
            if seen >> v & 1:
                continue
            comp = 1 << v
            frontier = comp
            while frontier:
                nxt = 0
                for w in bits(frontier):
                    nxt |= white_adj[w] & nbhd
                frontier = nxt & ~comp
                comp |= frontier
            seen |= comp
            size = comp.bit_count()
            if size < 3 or size % 2 == 0:
                continue
            if any((white_adj[w] & nbhd & comp).bit_count() != 2 for w in bits(comp)):
                continue
            start = (comp & -comp).bit_length() - 1
            cycle = [start]
            prev = None
            cur = start
            while len(cycle) < size:
                nbrs = [w for w in bits(white_adj[cur] & nbhd & comp) if w != prev]
                prev, cur = cur, min(nbrs)
                cycle.append(cur)
            out.append(OddCycleForce(i, tuple(cycle)))
    return out


def reference_local_blue_mask(g, coloring, k):
    mask = g.closed_neighborhood(k)
    for u, v in coloring.blue_nonedges:
        if u == k:
            mask |= 1 << v
        elif v == k:
            mask |= 1 << u
    return mask


def reference_local_blue_set(g, coloring, k):
    return frozenset(bits(reference_local_blue_mask(g, coloring, k)))


def reference_allows(g, cover, k, i):
    if i not in cover or i == k:
        return True
    return g.has_edge(i, k)


def reference_legal_moves(g, coloring, rule, cover=()):
    if rule not in CONVENTIONAL_RULES:
        raise ValueError("the non-edge game runs local games under Z, Zl, or Zplus")

    def moves():
        yield from reference_odd_cycle_applications(g, coloring)
        local_forces = {}
        for a, b in sorted(coloring.white_nonedges()):
            for k, j in ((a, b), (b, a)):
                if k not in local_forces:
                    local_forces[k] = single_forces(g, reference_local_blue_mask(g, coloring, k), rule)
                for f in local_forces[k]:
                    if f.target == j and reference_allows(g, cover, k, f.source):
                        yield TripleForce(k, f.source, j)

    return moves()


def reference_sap_closure(g, blue=(), rule=Rule.Z, cover=(), rng=None):
    touching = [e for e in g.non_edges() if set(e) & set(cover)]
    coloring = NonEdgeColoring.start(g, [*blue, *touching])
    trace = []
    while True:
        moves = reference_legal_moves(g, coloring, rule, cover)
        if rng is None:
            move = next(moves, None)
        else:
            legal = list(moves)
            move = rng.choice(legal) if legal else None
        if move is None:
            return coloring, trace
        coloring = NonEdgeColoring(g, coloring.blue_nonedges | set(move.colored()))
        trace.append(move)


def assert_same_closure(g, blue, rule, cover=(), seed=None):
    rngs = [None, None] if seed is None else [random.Random(seed), random.Random(seed)]
    final, trace = sap_closure(g, blue, rule, cover, rng=rngs[0])
    want_final, want_trace = reference_sap_closure(g, blue, rule, cover, rng=rngs[1])
    assert trace == want_trace, (g.to_graph6(), rule, sorted(blue), cover, seed)
    assert final.blue_nonedges == want_final.blue_nonedges


def test_closure_matches_reference_from_empty_start(connected_upto_7):
    for g in connected_upto_7:
        for rule in CONVENTIONAL_RULES:
            assert_same_closure(g, (), rule)


def test_closure_matches_reference_from_vertex_cover_starts(connected_upto_6):
    for g in connected_upto_6:
        for size in range(3):
            for cover in combinations(g.vertices(), size):
                for rule in (Rule.Z, Rule.ZL):
                    assert_same_closure(g, (), rule, cover)


def test_closure_matches_reference_from_random_starts(connected_upto_7):
    rng = random.Random(61)
    for g in connected_upto_7:
        nes = g.non_edges()
        for rule in CONVENTIONAL_RULES:
            density = rng.random()
            assert_same_closure(g, [e for e in nes if rng.random() < density], rule)


def test_random_order_matches_reference(connected_upto_5):
    """Seeded random mode draws from the full legal move list, so it matches
    only if every list is the reference's, in the reference's order."""
    for idx, g in enumerate(connected_upto_5):
        for rule in CONVENTIONAL_RULES:
            assert_same_closure(g, (), rule, seed=idx)
            _, trace = reference_sap_closure(g, (), rule, rng=random.Random(idx))
            coloring = NonEdgeColoring.start(g)
            for move in trace + [None]:
                want = list(reference_legal_moves(g, coloring, rule))
                assert applicable_forces(g, coloring.blue_nonedges, rule) == want
                assert odd_cycle_applications(g, coloring.blue_nonedges) == \
                    reference_odd_cycle_applications(g, coloring)
                if move is not None:
                    coloring = NonEdgeColoring(g, coloring.blue_nonedges | set(move.colored()))


def assert_moves_match_along_reference_closure(g, blue, rule, cover=(), rng=None):
    """``applicable_forces`` equals the reference's legal moves, in order, at
    every position the reference closure passes through."""
    _, trace = reference_sap_closure(g, blue, rule, cover, rng)
    touching = [e for e in g.non_edges() if set(e) & set(cover)]
    coloring = NonEdgeColoring.start(g, [*blue, *touching])
    for move in trace + [None]:
        want = list(reference_legal_moves(g, coloring, rule, cover))
        assert applicable_forces(g, coloring.blue_nonedges, rule, cover) == want, \
            (g.to_graph6(), rule, sorted(blue), cover, sorted(coloring.blue_nonedges))
        if move is not None:
            coloring = NonEdgeColoring(g, coloring.blue_nonedges | set(move.colored()))


def test_legal_moves_match_reference_at_every_position(connected_upto_5):
    """The game caches only the targets of each local game and derives their
    forcers when asked; these lists pin that derivation: vetoed forcers
    dropped, a Zl self-force after the other forcers of its target, and
    Zplus forcers per white component."""
    rng = random.Random(19)
    for g in connected_upto_5:
        nes = g.non_edges()
        for rule in CONVENTIONAL_RULES:
            for size in range(3):
                for cover in combinations(g.vertices(), size):
                    assert_moves_match_along_reference_closure(g, (), rule, cover)
            for _ in range(4):
                density = rng.random()
                blue = [e for e in nes if rng.random() < density]
                assert_moves_match_along_reference_closure(g, blue, rule)
                assert_moves_match_along_reference_closure(
                    g, blue, rule, rng=random.Random(rng.randrange(1 << 30)))


def test_local_blue_sets():
    p4 = families.path(4)
    assert local_blue_set(p4, (), 4) == frozenset({3, 4})
    assert local_blue_set(p4, [(2, 4)], 4) == frozenset({2, 3, 4})
    assert local_blue_set(families.star(3), (), 2) == frozenset({1, 2})


def test_local_blue_set_refuses_vertices_outside_the_graph():
    # unchecked, k = 0 would give every vertex and k = -1 the answer for vertex 4
    p4 = families.path(4)
    for k in (0, -1, 5):
        with pytest.raises(ValueError, match=f"vertex {k} outside 1..4"):
            local_blue_set(p4, (), k)


def test_local_blue_set_matches_reference(connected_upto_6):
    rng = random.Random(122)
    for g in connected_upto_6:
        nes = g.non_edges()
        for _ in range(3):
            coloring = NonEdgeColoring.start(g, [e for e in nes if rng.random() < 0.5])
            for k in g.vertices():
                assert local_blue_set(g, coloring.blue_nonedges, k) == \
                    reference_local_blue_set(g, coloring, k)


def test_applicable_forces_p4_first_round():
    p4 = families.path(4)
    forces = applicable_forces(p4, (), Rule.Z)
    triples = {(f.k, f.i, f.j) for f in forces if isinstance(f, TripleForce)}
    assert (2, 3, 4) in triples
    assert (3, 2, 1) in triples
    # deeper chains are not single steps; they arise by iterating
    assert (4, 2, 1) not in triples


def test_applicable_forces_star_odd_cycle():
    star = families.star(3)
    forces = applicable_forces(star, (), Rule.Z)
    assert len(forces) == 1
    (cycle,) = forces
    assert isinstance(cycle, OddCycleForce)
    assert cycle.i == 1
    assert sorted(cycle.colored()) == [(2, 3), (2, 4), (3, 4)]


def test_vc_restricted_forces(k3_join_o4):
    g = k3_join_o4
    moves = applicable_forces(g, (), Rule.Z, {4})
    assert any(isinstance(m, OddCycleForce) for m in moves)
    final, _ = sap_closure(g, (), Rule.Z, {4})
    assert final.is_complete()


def test_vc_game_starts_from_and_vetoes_its_cover():
    # cover {1} of P4 colors {1,3} and {1,4}; forcer 1 is not adjacent to
    # 4, so the triple (4: 1->2) of the plain game from that start is vetoed
    p4 = families.path(4)
    assert TripleForce(4, 1, 2) in applicable_forces(p4, [(1, 3), (1, 4)], Rule.Z)
    assert applicable_forces(p4, (), Rule.Z, {1}) == \
        [TripleForce(2, 3, 4), TripleForce(4, 3, 2)]
    final, trace = sap_closure(p4, (), Rule.Z, {1})
    assert final.is_complete() and trace[0] == TripleForce(2, 3, 4)
    assert replay_trace(p4, (), trace, Rule.Z, {1}) == final
    with pytest.raises(ValueError, match="not applicable"):
        replay_trace(p4, (), [TripleForce(4, 1, 2)], Rule.Z, {1})


def test_sap_closure_examples(kite):
    final, trace = sap_closure(families.path(4), (), Rule.Z)
    assert final.is_complete()
    final, trace = sap_closure(kite, (), Rule.Z)
    assert final.is_complete()
    assert isinstance(trace[0], OddCycleForce)
    text = format_sap_trace(trace)
    assert text.splitlines()[0].startswith("step 1: (2->C)")
    # replay verification reproduces the final coloring
    assert replay_trace(kite, (), trace, Rule.Z).blue_nonedges == final.blue_nonedges
    final, trace = sap_closure(families.empty(4), (), Rule.Z)
    assert not final.blue_nonedges and not trace


def test_is_zsap_zero_spot_values():
    for build in (families.petersen, families.tetrahedron, families.cube,
                  families.octahedron, families.dodecahedron, families.icosahedron):
        assert is_zsap_zero(build(), Rule.Z)
    assert not is_zsap_zero(families.empty(2), Rule.Z)


def test_forest_complement_rule(connected_upto_6):
    for g in connected_upto_6:
        if g.complement().is_forest() and all(g.degree(v) > 0 for v in g.vertices()):
            assert is_zsap_zero(g, Rule.Z)


def test_closed_forms():
    for n in (3, 4, 5):
        assert sap_forcing_number(families.empty(n), Rule.Z)[0] == n * (n - 1) // 2
        expected = (n - 1) * (n - 2) // 2 - 1
        assert sap_forcing_number(families.star(n), Rule.Z)[0] == expected


def test_sap_forcing_cap():
    # sap_forcing_number takes no cap; the report refuses Zsap per parameter
    report = compute_report(families.empty(7), ["Zsap", "Z"], [])
    assert report.params == {"Z": 7}
    assert "non-edge count 21 exceeds cap 20" in report.refused["Zsap"]


def test_complementary_closure(k3_join_o4):
    g = k3_join_o4
    assert complementary_closure(g, set()) == frozenset()
    assert complementary_closure(g, {4}) == frozenset({(4, 5), (4, 6), (4, 7)})
    comp_cover = {5, 6, 7}
    assert complementary_closure(g, comp_cover) == frozenset(g.non_edges())


def test_complementary_closure_refuses_vertices_outside_the_graph():
    # unchecked, {0, 9} would give no non-edge: a vertex-cover game from nothing
    p4 = families.path(4)
    for vertices in ({0, 9}, {1, 5}, {-1}):
        with pytest.raises(ValueError, match="outside 1..4"):
            complementary_closure(p4, vertices)


def test_vc_restriction_refuses_vertices_outside_the_graph():
    # unchecked, {0, 9} would color and veto nothing: a plain game from nothing
    p4 = families.path(4)
    for cover in ({0, 9}, {2, 5}, {-1}):
        for call in (lambda: sap_closure(p4, (), Rule.Z, cover),
                     lambda: applicable_forces(p4, (), Rule.Z, cover),
                     lambda: replay_trace(p4, (), [], Rule.Z, cover)):
            with pytest.raises(ValueError, match="outside 1..4"):
                call()


def test_floor_rule_refused_on_every_path():
    # star(3) finishes by one odd cycle application, so no local game runs;
    # the rule must still be refused before the first move
    star = families.star(3)
    _, trace = sap_closure(star, (), Rule.Z)
    for call in (lambda: sap_closure(star, (), Rule.FLOOR),
                 lambda: sap_closure(star, (), Rule.FLOOR, rng=random.Random(0)),
                 lambda: is_zsap_zero(star, Rule.FLOOR),
                 lambda: applicable_forces(star, (), Rule.FLOOR),
                 lambda: replay_trace(star, (), trace, Rule.FLOOR)):
        with pytest.raises(ValueError, match="Z, Zl, or Zplus"):
            call()


def test_coloring_of_another_host_is_refused():
    # {1,4} is a non-edge of P4 but an edge of C4: read on C4 it would be a
    # blue non-edge that does not exist
    c4 = families.cycle(4)
    foreign = NonEdgeColoring.start(families.path(4), [(1, 4)]).blue_nonedges
    for call in (lambda: applicable_forces(c4, foreign, Rule.Z),
                 lambda: local_blue_set(c4, foreign, 1),
                 lambda: odd_cycle_applications(c4, foreign),
                 lambda: sap_closure(c4, foreign, Rule.Z)):
        with pytest.raises(ValueError, match="not a non-edge"):
            call()


def test_vc_game(k3_join_o4):
    value, witness = vc_forcing_number(k3_join_o4, Rule.Z)
    assert value == 1 and len(witness) == 1
    assert next(iter(witness)) in {4, 5, 6, 7}
    with pytest.raises(ValueError):
        vc_forcing_number(k3_join_o4, Rule.ZPLUS)


def reference_vc_forcing_number(g, rule):
    """The former search: the first cover, by size and then in combinations
    order, whose whole vertex-cover closure colors every non-edge."""
    return smallest_winning_set(
        g.vertices(), lambda cover: sap_closure(g, (), rule, cover)[0].is_complete())


def test_vc_forcing_number_matches_reference(all_graphs_upto_7):
    for g in all_graphs_upto_7:
        for rule in (Rule.Z, Rule.ZL):
            assert vc_forcing_number(g, rule) == reference_vc_forcing_number(g, rule), \
                (g.to_graph6(), rule)


def test_vc_zero_iff_zsap_zero(connected_upto_5):
    for g in connected_upto_5:
        assert (vc_forcing_number(g, Rule.Z)[0] == 0) == is_zsap_zero(g, Rule.Z)


def test_triple_monotonicity(connected_upto_6):
    """A forcing triple legal at a position stays legal at every position
    with more blue non-edges, as long as its own non-edge is white there:
    single-step forcing is monotone in the local start set under Z, Zl and
    Zplus."""
    rng = random.Random(23)
    checks = 0
    for g in connected_upto_6:
        nes = g.non_edges()
        for rule in CONVENTIONAL_RULES:
            for _ in range(6 if nes else 0):
                base = {e for e in nes if rng.random() < 0.3}
                extra = base | {e for e in nes if rng.random() < 0.3}
                t1, t2 = ({f for f in applicable_forces(g, blue, rule)
                           if isinstance(f, TripleForce)} for blue in (base, extra))
                for f in t1:
                    if f.colored()[0] not in extra:
                        assert f in t2, (g.to_graph6(), rule, sorted(base), sorted(extra))
                        checks += 1
    assert checks == 16353


def test_order_exploration_matches_deterministic(connected_upto_5, sampled_n6):
    rng = random.Random(31)
    for g in connected_upto_5 + sampled_n6[:10]:
        reference, _ = sap_closure(g, (), Rule.Z)
        for seed in range(3):
            final, _ = sap_closure(g, (), Rule.Z, rng=random.Random(seed))
            assert final.blue_nonedges == reference.blue_nonedges


def check_move_order_independence(graphs) -> int:
    """Play every start set of every graph under each conventional rule in
    policy order and in a seeded random order; return the closure count."""
    closures = 0
    for idx, g in enumerate(graphs):
        nes = g.non_edges()
        for size in range(len(nes) + 1):
            for start in combinations(nes, size):
                for rule in CONVENTIONAL_RULES:
                    final, _ = sap_closure(g, start, rule)
                    shuffled, _ = sap_closure(g, start, rule, rng=random.Random(idx * 7919 + size))
                    assert shuffled.blue_nonedges == final.blue_nonedges, \
                        (g.to_graph6(), rule, start)
                    closures += 1
    return closures


def test_final_coloring_independent_of_move_order(connected_upto_5, connected_upto_6):
    """A seeded random move order ends in the deterministic final coloring
    from every start set (the fact an orbit-pruned Zsap search would need)."""
    graphs = connected_upto_5 + [g for g in connected_upto_6
                                 if g.n == 6 and len(g.non_edges()) <= 6]
    assert check_move_order_independence(graphs) == 7290


@pytest.mark.slow
def test_final_coloring_independent_of_move_order_sparse_n6(connected_upto_6):
    """The rest of n = 6: the connected graphs with more than 6 non-edges."""
    sparse = [g for g in connected_upto_6 if g.n == 6 and len(g.non_edges()) > 6]
    assert len(sparse) == 60
    assert check_move_order_independence(sparse) == 61440


def test_final_coloring_independent_of_move_order_n7(connected_upto_7):
    """From the empty start, a seeded random move order ends in the
    deterministic final coloring on every connected 7-vertex graph."""
    seven = [g for g in connected_upto_7 if g.n == 7]
    closures = 0
    for idx, g in enumerate(seven):
        for r, rule in enumerate(CONVENTIONAL_RULES):
            final, _ = sap_closure(g, (), rule)
            shuffled, _ = sap_closure(g, (), rule, rng=random.Random(idx * 3 + r))
            assert shuffled.blue_nonedges == final.blue_nonedges, (g.to_graph6(), rule)
            closures += 1
    assert closures == 2559


def check_chain_continuation(graphs) -> int:
    """A stronger rule's closure from where a weaker rule stalled (the rules
    ordered as in ``CONVENTIONAL_RULES``) ends in its closure from the empty
    start, the step ``survey_graphs`` takes; return the number of (weaker,
    stronger) pairs checked."""
    checks = 0
    for g in graphs:
        finals = {rule: sap_closure(g, (), rule)[0] for rule in CONVENTIONAL_RULES}
        for weaker, stronger in combinations(CONVENTIONAL_RULES, 2):
            continued, _ = sap_closure(g, finals[weaker].blue_nonedges, stronger)
            assert continued.blue_nonedges == finals[stronger].blue_nonedges, \
                (g.to_graph6(), weaker, stronger)
            checks += 1
    return checks


def test_chain_continuation_matches_empty_start(connected_upto_7):
    assert check_chain_continuation(connected_upto_7) == 2988


@pytest.mark.slow
def test_chain_continuation_matches_empty_start_n8():
    assert check_chain_continuation(enumerate_connected(8)) == 33351


def test_multipartite_flags():
    def partitions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in partitions(total - first, parts - 1):
                if first >= rest[0]:
                    yield (first,) + rest
    for n in range(2, 8):
        for p in range(2, n + 1):
            for sizes in partitions(n, p):
                g = families.complete_multipartite(*sizes)
                assert is_zsap_zero(g, Rule.ZL)
                assert is_zsap_zero(g, Rule.ZPLUS)
                if sizes[0] >= 4:
                    assert not is_zsap_zero(g, Rule.Z)


def test_tree_flags():
    from sapforce.canon import enumerate_trees
    for n in range(2, 8):
        for t in enumerate_trees(n):
            assert is_zsap_zero(t, Rule.ZPLUS)
    spider = families.wide_spider9()
    assert not is_zsap_zero(spider, Rule.ZL)


def test_diameter2_max_degree3(connected_upto_7):
    for g in connected_upto_7:
        if g.n >= 2 and g.max_degree() <= 3 and g.is_connected() and g.diameter() == 2:
            assert is_zsap_zero(g, Rule.Z)
    assert is_zsap_zero(families.petersen(), Rule.Z)


def test_join_proposition_random_pairs():
    rng = random.Random(41)
    k1 = families.complete(1)
    pool = [families.empty(2), families.path(3), families.complete(3),
            families.path(2), families.empty(3), families.cycle(4)]
    for _ in range(8):
        g, h = rng.choice(pool), rng.choice(pool)
        join_value = sap_forcing_number(g.join(h), Rule.Z)[0]
        split = (sap_forcing_number(g.join(k1), Rule.Z)[0]
                 + sap_forcing_number(h.join(k1), Rule.Z)[0])
        assert join_value == split


def test_join_k1_proposition(all_graphs_upto_5):
    k1 = families.complete(1)
    for g in all_graphs_upto_5:
        base = sap_forcing_number(g, Rule.Z)[0]
        joined = sap_forcing_number(g.join(k1), Rule.Z)[0]
        assert joined <= base
        if all(g.degree(v) > 0 for v in g.vertices()):
            assert joined == base


def test_join_k1_zero_characterization(all_graphs_upto_5):
    k1 = families.complete(1)
    for g in all_graphs_upto_5:
        joined_zero = is_zsap_zero(g.join(k1), Rule.Z)
        comps = g.components()
        no_isolated = all(g.degree(v) > 0 for v in g.vertices())
        case1 = no_isolated and is_zsap_zero(g, Rule.Z)
        case2 = g.n == 1
        if len(comps) == 2 and min(len(c) for c in comps) == 1:
            rest = g.induced(max(comps, key=len))
            case2 = case2 or is_zsap_zero(rest, Rule.Z)
        case3 = g.n == 3 and g.num_edges() == 0
        assert joined_zero == (case1 or case2 or case3), g.to_graph6()


def test_vc_bounded_by_complement_cover(connected_upto_6):
    from sapforce.minors import vertex_cover_number
    for g in connected_upto_6:
        beta_bar = vertex_cover_number(g.complement())
        assert vc_forcing_number(g, Rule.Z)[0] <= beta_bar


def test_variant_chain_minima(connected_upto_5, sampled_n6):
    for g in connected_upto_5 + sampled_n6[:8]:
        if len(g.non_edges()) > 14:
            continue
        z = sap_forcing_number(g, Rule.Z)[0]
        zl = sap_forcing_number(g, Rule.ZL)[0]
        zp = sap_forcing_number(g, Rule.ZPLUS)[0]
        assert zp <= zl <= z
