import random
from itertools import combinations, permutations

import pytest

from sapforce import families
from sapforce.canon import enumerate_connected
from sapforce.graphs import Graph, bits
from sapforce.report import compute_report
from sapforce.sapgame import (NonEdgeColoring, OddCycleForce, TripleForce, _Game,
                              _start, format_sap_trace, is_zsap_zero,
                              odd_cycle_applications, replay_trace, sap_closure,
                              sap_forcing_number, vc_forcing_number)
from sapforce.zeroforcing import CONVENTIONAL_RULES, Rule, smallest_winning_set

from conftest import diameter, is_forest, max_degree, wide_spider9
from reference_game import (reference_legal_moves, reference_local_blue_set,
                            reference_odd_cycle_applications, reference_sap_closure)


def assert_same_closure(g, blue, rule, cover=()):
    final, trace = sap_closure(g, blue, rule, cover)
    want_final, want_trace = reference_sap_closure(g, blue, rule, cover)
    assert trace == want_trace, (g.to_graph6(), rule, sorted(blue), cover)
    assert final.blue_nonedges == want_final.blue_nonedges


def closed_coloring(g, blue, rule, cover=()):
    """The blue non-edges where ``_Game.close`` stops."""
    game = _Game(g, blue, rule, sum(1 << v for v in cover))
    done = game.close()
    final = game.coloring()
    assert done == final.is_complete()
    return final.blue_nonedges


def assert_close_matches_sap_closure(g, blue, rule, cover=()):
    """``_Game.close`` plays in rounds, ``sap_closure`` in policy order; by
    the move-order lemma both end in the same coloring."""
    final, _ = sap_closure(g, blue, rule, cover)
    assert closed_coloring(g, blue, rule, cover) == final.blue_nonedges, \
        (g.to_graph6(), rule, sorted(blue), cover)


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
    """Along the reference's seeded random play, every legal move list is the
    reference's, in the reference's order."""
    for idx, g in enumerate(connected_upto_5):
        for rule in CONVENTIONAL_RULES:
            _, trace = reference_sap_closure(g, (), rule, rng=random.Random(idx))
            coloring = NonEdgeColoring.start(g)
            for move in trace + [None]:
                want = list(reference_legal_moves(g, coloring, rule))
                assert list(_start(g, coloring.blue_nonedges, rule, ()).moves()) == want
                assert odd_cycle_applications(g, coloring.blue_nonedges) == \
                    reference_odd_cycle_applications(g, coloring)
                if move is not None:
                    coloring = NonEdgeColoring(g, coloring.blue_nonedges | set(move.colored()))


def assert_moves_match_along_reference_closure(g, blue, rule, cover=(), rng=None):
    """``moves`` yields the reference's legal moves, in order, and its first
    is the first of them, at every position the reference closure passes
    through: both at a position started there and at one position played
    along the reference trace, whose pruned vertices must stay pruned."""
    _, trace = reference_sap_closure(g, blue, rule, cover, rng)
    touching = [e for e in g.non_edges() if set(e) & set(cover)]
    coloring = NonEdgeColoring.start(g, [*blue, *touching])
    played = _start(g, blue, rule, cover)
    for move in trace + [None]:
        want = list(reference_legal_moves(g, coloring, rule, cover))
        where = (g.to_graph6(), rule, sorted(blue), cover, sorted(coloring.blue_nonedges))
        assert list(_start(g, coloring.blue_nonedges, rule, cover).moves()) == want, where
        assert next(_start(g, coloring.blue_nonedges, rule, cover).moves(), None) == \
            (want[0] if want else None), where
        assert list(played.moves()) == want, where
        if move is not None:
            coloring = NonEdgeColoring(g, coloring.blue_nonedges | set(move.colored()))
            played.play(move)


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
    # the local game at k starts with every vertex blue but k's white partners
    p4, star = families.path(4), families.star(3)
    for g, blue, k, want in ((p4, (), 4, {3, 4}), (p4, [(2, 4)], 4, {2, 3, 4}),
                             (star, (), 2, {1, 2})):
        assert set(bits(g.full_mask & ~_start(g, blue, Rule.Z, ()).white[k])) == want


def test_local_blue_set_matches_reference(connected_upto_6):
    rng = random.Random(122)
    for g in connected_upto_6:
        nes = g.non_edges()
        for _ in range(3):
            coloring = NonEdgeColoring.start(g, [e for e in nes if rng.random() < 0.5])
            game = _start(g, coloring.blue_nonedges, Rule.Z, ())
            for k in g.vertices():
                assert frozenset(bits(g.full_mask & ~game.white[k])) == \
                    reference_local_blue_set(g, coloring, k)


def test_applicable_forces_p4_first_round():
    p4 = families.path(4)
    forces = list(_start(p4, (), Rule.Z, ()).moves())
    triples = {(f.k, f.i, f.j) for f in forces if isinstance(f, TripleForce)}
    assert (2, 3, 4) in triples
    assert (3, 2, 1) in triples
    # deeper chains are not single steps; they arise by iterating
    assert (4, 2, 1) not in triples


def test_applicable_forces_star_odd_cycle():
    star = families.star(3)
    forces = list(_start(star, (), Rule.Z, ()).moves())
    assert len(forces) == 1
    (cycle,) = forces
    assert isinstance(cycle, OddCycleForce)
    assert cycle.i == 1
    assert sorted(cycle.colored()) == [(2, 3), (2, 4), (3, 4)]


def triples_to_a_stall(g, blue, rule):
    """Play triples (first legal in policy order) until none is left; return
    the blue non-edges there."""
    blue = set(blue)
    while triples := [m for m in _start(g, blue, rule, ()).moves()
                      if isinstance(m, TripleForce)]:
        blue |= set(triples[0].colored())
    return blue


def test_close_round_hits_one_non_edge_from_both_ends():
    # in P4's first round {2,4} is forced at 2 (3->4) and at 4 (3->2)
    p4 = families.path(4)
    moves = list(_start(p4, (), Rule.Z, ()).moves())
    assert TripleForce(2, 3, 4) in moves and TripleForce(4, 3, 2) in moves
    for rule in CONVENTIONAL_RULES:
        assert closed_coloring(p4, (), rule) == sap_closure(p4, (), rule)[0].blue_nonedges


def test_close_cycle_move_at_a_triple_stall_unlocks_triples():
    # the cube's triples stall with white non-edges left; an odd cycle move
    # there makes new triples legal
    cube = families.cube()
    for rule in CONVENTIONAL_RULES:
        stall = triples_to_a_stall(cube, (), rule)
        cycles = list(_start(cube, stall, rule, ()).moves())
        assert cycles and all(isinstance(m, OddCycleForce) for m in cycles)
        after = stall | set(cycles[0].colored())
        assert any(isinstance(m, TripleForce)
                   for m in _start(cube, after, rule, ()).moves())
        assert closed_coloring(cube, (), rule) == sap_closure(cube, (), rule)[0].blue_nonedges


def test_close_rescans_cycles_made_stale_by_triple_rounds():
    # from this start the cycle {1,2,5} in N(8) is no component until the
    # triples after the first stall color {1,4} and {4,5}; a closure must scan
    # N(8) again at the next stall, as one that kept the cycles found before
    # those rounds stopped 7 non-edges short
    g = Graph.from_edges(8, [(1, 8), (2, 8), (3, 7), (4, 7), (4, 8), (5, 6), (5, 8), (6, 7)])
    start = [(2, 4), (5, 7), (6, 8)]
    assert [m.i for m in _start(g, start, Rule.Z, ()).moves()
            if isinstance(m, OddCycleForce)] == [7]
    final, trace = sap_closure(g, start, Rule.Z)
    assert final.is_complete() and OddCycleForce(8, (1, 2, 5)) in trace
    assert closed_coloring(g, start, Rule.Z) == final.blue_nonedges


def test_close_continues_under_zplus_from_a_zl_stall():
    # a triangle {3,4,7} with the paths 7-5-2 and 7-6-1: Z and Zl stall with
    # two blue non-edges, and Zplus colors all 14 from there
    g = Graph.from_edges(7, [(1, 6), (2, 5), (3, 4), (3, 7), (4, 7), (5, 7), (6, 7)])
    game = _Game(g, (), Rule.ZL)
    assert not game.close()
    stall = game.coloring().blue_nonedges
    assert stall == sap_closure(g, (), Rule.ZL)[0].blue_nonedges and len(stall) == 2
    want = sap_closure(g, (), Rule.ZPLUS)[0].blue_nonedges
    assert len(want) == 14
    assert closed_coloring(g, stall, Rule.ZPLUS) == want
    game.set_rule(Rule.ZPLUS)
    assert game.close() and game.coloring().blue_nonedges == want


def test_close_from_a_vertex_cover_start():
    # the spider with legs 1, 2 and 4-3 at 5, cover {4}: under Z the vetoes
    # leave less blue than the plain game from the same start
    g = Graph.from_edges(5, [(1, 5), (2, 5), (3, 4), (4, 5)])
    start = _start(g, (), Rule.Z, {4}).coloring().blue_nonedges
    assert sap_closure(g, (), Rule.Z, {4})[0].blue_nonedges < \
        sap_closure(g, start, Rule.Z)[0].blue_nonedges
    for rule in (Rule.Z, Rule.ZL):
        assert closed_coloring(g, (), rule, {4}) == \
            sap_closure(g, (), rule, {4})[0].blue_nonedges


def test_vc_restricted_forces(k3_join_o4):
    g = k3_join_o4
    moves = list(_start(g, (), Rule.Z, {4}).moves())
    assert any(isinstance(m, OddCycleForce) for m in moves)
    final, _ = sap_closure(g, (), Rule.Z, {4})
    assert final.is_complete()


def test_vc_game_starts_from_and_vetoes_its_cover():
    # cover {1} of P4 colors {1,3} and {1,4}; forcer 1 is not adjacent to
    # 4, so the triple (4: 1->2) of the plain game from that start is vetoed
    p4 = families.path(4)
    assert TripleForce(4, 1, 2) in list(_start(p4, [(1, 3), (1, 4)], Rule.Z, ()).moves())
    assert list(_start(p4, (), Rule.Z, {1}).moves()) == \
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


def odd_cycles_in(nbhd):
    """Every odd cycle on 3 or 5 vertices of ``nbhd``, written as the game
    writes one: its least vertex, then its lesser neighbor."""
    for size in (3, 5):
        for least, *rest in combinations(bits(nbhd), size):
            for order in permutations(rest):
                if order[0] < order[-1]:
                    yield (least, *order)


def assert_refused_at(g, trace, rule, step):
    with pytest.raises(ValueError) as err:
        replay_trace(g, (), trace, rule)
    assert str(err.value) == f"step {step}: {trace[step - 1]} is not applicable", \
        (g.to_graph6(), rule, trace)


def test_replay_refuses_a_broken_trace_at_its_step(connected_upto_6):
    """``replay_trace`` stops at the first legal move equal to the recorded
    one, so every way to break a trace is pinned at the step it breaks:
    two moves swapped where the later was not legal first, a repeated move,
    a triple given a vertex that does not force there, and a cycle move whose
    cycle is not a white component.  The reference decides what is legal."""
    refused = {"swap": 0, "repeat": 0, "forcer": 0, "cycle": 0}
    for g in connected_upto_6:
        for rule in CONVENTIONAL_RULES:
            _, trace = sap_closure(g, (), rule)
            coloring = NonEdgeColoring.start(g)
            for t, move in enumerate(trace + [None]):
                # the position before step t + 1
                legal = set(reference_legal_moves(g, coloring, rule))
                head = trace[:t]
                if t + 1 < len(trace) and trace[t + 1] not in legal:
                    assert_refused_at(g, head + [trace[t + 1], move, *trace[t + 2:]], rule, t + 1)
                    refused["swap"] += 1
                if t:
                    assert trace[t - 1] not in legal
                    assert_refused_at(g, head + [trace[t - 1], *trace[t:]], rule, t + 1)
                    refused["repeat"] += 1
                if type(move) is TripleForce:
                    for i in g.vertices():
                        if (bad := TripleForce(move.k, i, move.j)) not in legal:
                            assert_refused_at(g, head + [bad], rule, t + 1)
                            refused["forcer"] += 1
                for i in g.vertices():
                    for cycle in odd_cycles_in(g.adj[i]):
                        if (bad := OddCycleForce(i, cycle)) not in legal:
                            assert_refused_at(g, head + [bad], rule, t + 1)
                            refused["cycle"] += 1
                if move is not None:
                    coloring = NonEdgeColoring(g, coloring.blue_nonedges | set(move.colored()))
    assert all(refused.values()), refused


def test_is_zsap_zero_spot_values():
    for build in (families.petersen, families.tetrahedron, families.cube,
                  families.octahedron, families.dodecahedron, families.icosahedron):
        assert is_zsap_zero(build(), Rule.Z)
    assert not is_zsap_zero(families.empty(2), Rule.Z)


def test_forest_complement_rule(connected_upto_6):
    for g in connected_upto_6:
        if is_forest(g.complement()) and all(g.degree(v) > 0 for v in g.vertices()):
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
    # the vertex-cover game on a set starts with every non-edge touching it blue
    g = k3_join_o4
    for cover, want in ((set(), frozenset()), ({4}, frozenset({(4, 5), (4, 6), (4, 7)})),
                        ({5, 6, 7}, frozenset(g.non_edges()))):
        assert _start(g, (), Rule.Z, cover).coloring().blue_nonedges == want


def test_vc_restriction_refuses_vertices_outside_the_graph():
    # unchecked, {0, 9} would color and veto nothing: a plain game from nothing
    p4 = families.path(4)
    for cover in ({0, 9}, {2, 5}, {-1}):
        for call in (lambda: sap_closure(p4, (), Rule.Z, cover),
                     lambda: list(_start(p4, (), Rule.Z, cover).moves()),
                     lambda: replay_trace(p4, (), [], Rule.Z, cover)):
            with pytest.raises(ValueError, match="outside 1..4"):
                call()


def test_floor_rule_refused_on_every_path():
    # star(3) finishes by one odd cycle application, so no local game runs;
    # the rule must still be refused before the first move
    star = families.star(3)
    _, trace = sap_closure(star, (), Rule.Z)
    for call in (lambda: sap_closure(star, (), Rule.FLOOR),
                 lambda: is_zsap_zero(star, Rule.FLOOR),
                 lambda: sap_forcing_number(star, Rule.FLOOR),
                 lambda: list(_start(star, (), Rule.FLOOR, ()).moves()),
                 lambda: replay_trace(star, (), trace, Rule.FLOOR)):
        with pytest.raises(ValueError, match="Z, Zl, or Zplus"):
            call()


def test_coloring_of_another_host_is_refused():
    # {1,4} is a non-edge of P4 but an edge of C4: read on C4 it would be a
    # blue non-edge that does not exist
    c4 = families.cycle(4)
    foreign = NonEdgeColoring.start(families.path(4), [(1, 4)]).blue_nonedges
    for call in (lambda: list(_start(c4, foreign, Rule.Z, ()).moves()),
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
                t1, t2 = ({f for f in _start(g, blue, rule, ()).moves()
                           if isinstance(f, TripleForce)} for blue in (base, extra))
                for f in t1:
                    if f.colored()[0] not in extra:
                        assert f in t2, (g.to_graph6(), rule, sorted(base), sorted(extra))
                        checks += 1
    assert checks == 16353


def test_every_maximal_play_ends_in_the_closure(connected_upto_6):
    """Move-order independence, checked exactly: of all the positions
    reachable from the empty start, the ones with no legal move are one
    coloring, the one ``_Game.close`` ends in."""
    cases = positions = 0
    for g in connected_upto_6:
        for rule in CONVENTIONAL_RULES:
            seen = {frozenset()}
            todo = [frozenset()]
            terminals = set()
            while todo:
                blue = todo.pop()
                moves = list(_start(g, blue, rule, ()).moves())
                if not moves:
                    terminals.add(blue)
                for move in moves:
                    after = blue.union(move.colored())
                    if after not in seen:
                        seen.add(after)
                        todo.append(after)
            assert terminals == {closed_coloring(g, (), rule)}, (g.to_graph6(), rule)
            cases += 1
            positions += len(seen)
    assert (cases, positions) == (429, 37072)


def test_order_exploration_matches_deterministic(connected_upto_5, sampled_n6):
    """``_Game.close`` ends in ``sap_closure``'s coloring from every vertex
    cover of at most two vertices, where the cover's vetoes apply."""
    for g in connected_upto_5 + sampled_n6[:10]:
        for size in range(3):
            for cover in combinations(g.vertices(), size):
                for rule in (Rule.Z, Rule.ZL):
                    assert_close_matches_sap_closure(g, (), rule, cover)


def check_move_order_independence(graphs) -> int:
    """Close every start set of every graph under each conventional rule with
    ``_Game.close`` and with ``sap_closure``; return the closure count."""
    closures = 0
    for g in graphs:
        nes = g.non_edges()
        for size in range(len(nes) + 1):
            for start in combinations(nes, size):
                for rule in CONVENTIONAL_RULES:
                    assert_close_matches_sap_closure(g, start, rule)
                    closures += 1
    return closures


def test_final_coloring_independent_of_move_order(connected_upto_5, connected_upto_6):
    """``_Game.close`` ends in ``sap_closure``'s final coloring from every
    start set (the fact an orbit-pruned Zsap search would need)."""
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
    """From the empty start, ``_Game.close`` ends in ``sap_closure``'s final
    coloring on every connected 7-vertex graph."""
    closures = 0
    for g in connected_upto_7:
        if g.n == 7:
            for rule in CONVENTIONAL_RULES:
                assert_close_matches_sap_closure(g, (), rule)
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
    for n in range(2, 8):
        for t in filter(Graph.is_tree, enumerate_connected(n)):
            assert is_zsap_zero(t, Rule.ZPLUS)
    spider = wide_spider9()
    assert not is_zsap_zero(spider, Rule.ZL)


def test_diameter2_max_degree3(connected_upto_7):
    for g in connected_upto_7:
        if g.n >= 2 and max_degree(g) <= 3 and g.is_connected() and diameter(g) == 2:
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
