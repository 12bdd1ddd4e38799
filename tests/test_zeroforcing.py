import random
from itertools import combinations

import pytest

from sapforce import families, zeroforcing
from sapforce.canon import enumerate_connected, enumerate_graphs
from sapforce.graphs import CapExceededError, Graph, bits, parse_graph6
from sapforce.report import compute_report
from sapforce.zeroforcing import (CONVENTIONAL_RULES, Force, Rule, closure, floor_force_sequence,
                                  format_trace, is_zfs, min_zfs, single_forces,
                                  smallest_winning_set)

from conftest import disjoint_union, outer_triangle_on_wheel8


def test_closure_examples():
    final, trace = closure(families.path(4), {1}, Rule.Z)
    assert final == frozenset({1, 2, 3, 4})
    assert format_trace(trace) == "1->2\n2->3\n3->4"
    final, _ = closure(families.cycle(4), {1}, Rule.Z)
    assert final == frozenset({1})
    k2_k1 = Graph.from_edges(3, [(1, 2)])
    final, _ = closure(k2_k1, set(), Rule.ZL)
    assert final == frozenset()


def test_self_forces_recorded():
    # an isolated edge plus a dominating vertex: Zl self-forces fire
    g = Graph.from_edges(3, [(1, 2), (1, 3)])
    final, trace = closure(g, {1}, Rule.ZL)
    assert final == frozenset({1, 2, 3})
    assert any(f.source == f.target for f in trace)


def test_zplus_uses_components():
    star = families.star(3)
    # plain rule stalls, the component rule forces each leaf separately
    assert closure(star, {1}, Rule.Z)[0] == frozenset({1})
    assert closure(star, {1}, Rule.ZPLUS)[0] == frozenset({1, 2, 3, 4})


def test_is_zfs_examples():
    assert is_zfs(families.path(4), {1}, Rule.Z)
    assert not is_zfs(families.star(3), {2}, Rule.FLOOR)
    pet = families.petersen()
    assert not any(is_zfs(pet, c, Rule.Z) for c in combinations(range(1, 11), 4))


def test_min_zfs_paper_values(kite):
    assert min_zfs(kite, Rule.Z)[0] == 2
    fig = outer_triangle_on_wheel8()
    assert min_zfs(fig, Rule.Z)[0] == 3
    assert min_zfs(fig, Rule.FLOOR)[0] == 3
    assert min_zfs(families.dodecahedron(), Rule.Z)[0] == 6
    assert min_zfs(families.icosahedron(), Rule.Z)[0] == 6


def test_min_zfs_witness_is_zfs(connected_upto_5):
    for g in connected_upto_5:
        for rule in Rule:
            size, witness = min_zfs(g, rule)
            assert len(witness) == size
            assert is_zfs(g, witness, rule)


def test_cap_guard():
    # min_zfs takes no cap; the size refusal sits at the report boundary
    with pytest.raises(CapExceededError, match="vertex count 20 exceeds cap 10"):
        compute_report(families.dodecahedron(), ["Z"])


def test_monotone_closure(connected_upto_5):
    rng = random.Random(7)
    for g in rng.sample(connected_upto_5, 15):
        verts = list(g.vertices())
        for _ in range(8):
            b1 = {v for v in verts if rng.random() < 0.4}
            b2 = b1 | {v for v in verts if rng.random() < 0.3}
            for rule in (Rule.Z, Rule.ZL, Rule.ZPLUS):
                c1, _ = closure(g, b1, rule)
                c2, _ = closure(g, b2, rule)
                assert c1 <= c2


def test_closure_order_independence(connected_upto_6):
    rng = random.Random(13)
    for g in rng.sample(connected_upto_6, 12):
        b = {v for v in g.vertices() if rng.random() < 0.4}
        reference, _ = closure(g, b, Rule.Z)
        for _ in range(10):
            blue = sum(1 << v for v in b)
            while True:
                forces = [f for f in single_forces(g, blue, Rule.Z)
                          if not blue >> f.target & 1]
                if not forces:
                    break
                f = rng.choice(forces)
                blue |= 1 << f.target
            assert frozenset(v for v in g.vertices() if blue >> v & 1) == reference


def test_rule_chains(connected_upto_6):
    for g in connected_upto_6:
        z = min_zfs(g, Rule.Z)[0]
        zl = min_zfs(g, Rule.ZL)[0]
        zp = min_zfs(g, Rule.ZPLUS)[0]
        fl = min_zfs(g, Rule.FLOOR)[0]
        assert zp <= zl <= z
        assert fl <= z


def test_tree_floor_values():
    for n in range(2, 8):
        for t in filter(Graph.is_tree, enumerate_connected(n)):
            expected = 1 if t.is_path_graph() else 2
            assert min_zfs(t, Rule.FLOOR)[0] == expected


def test_floor_disconnected_is_component_max():
    g = disjoint_union(families.path(3), families.cycle(4))
    direct = None
    for size in range(1, g.n + 1):
        combos = (c for c in combinations(list(g.vertices()), size))
        if any(is_zfs(g, c, Rule.FLOOR) for c in combos):
            direct = size
            break
    value, witness = min_zfs(g, Rule.FLOOR)
    assert value == direct == 2  # max(1, 2)
    assert is_zfs(g, witness, Rule.FLOOR)
    # conventional rules add up instead
    assert min_zfs(g, Rule.Z)[0] == 1 + 2


def test_floor_disconnected_witness_is_largest_components(all_graphs_upto_7):
    """On every disconnected graph with n <= 7 the witness of a largest
    component wins the floor game on the whole graph, and no smaller set
    does."""
    checked = 0
    for g in all_graphs_upto_7:
        comps = g.components()
        if len(comps) == 1:
            continue
        largest = max(min_zfs(g.induced(c), Rule.FLOOR)[0] for c in comps)
        value, witness = min_zfs(g, Rule.FLOOR)
        assert value == len(witness) == largest, g.to_graph6()
        assert is_zfs(g, witness, Rule.FLOOR), g.to_graph6()
        assert not any(is_zfs(g, c, Rule.FLOOR)
                       for c in combinations(g.vertices(), value - 1)), g.to_graph6()
        checked += 1
    assert checked == 1252 - 996


def bruteforce_floor_game(g: Graph, blue: frozenset[int]) -> bool:
    """Plain recursive search over play sequences, no memoization."""
    full = g.full_mask
    def run(mask, used, depth):
        if mask == full:
            return True
        if depth > 2 * g.n:
            return False
        moves = []
        for i in g.vertices():
            if not mask >> i & 1 or used >> i & 1:
                continue
            white = g.adj[i] & ~mask
            if white == 0:
                moves.extend((i, j) for j in g.vertices() if not mask >> j & 1)
            elif not white & (white - 1):
                moves.append((i, white.bit_length() - 1))
        # used vertices may still make regular forces
        for i in g.vertices():
            if mask >> i & 1 and used >> i & 1:
                white = g.adj[i] & ~mask
                if white and not white & (white - 1):
                    moves.append((i, white.bit_length() - 1))
        return any(run(mask | (1 << j), used | (1 << i), depth + 1) for i, j in moves)
    return run(sum(1 << v for v in blue), 0, 0)


def test_floor_game_matches_bruteforce(connected_upto_5):
    rng = random.Random(17)
    for g in rng.sample(connected_upto_5, 12):
        for _ in range(6):
            b = frozenset(v for v in g.vertices() if rng.random() < 0.4)
            assert is_zfs(g, b, Rule.FLOOR) == bruteforce_floor_game(g, b)


def test_floor_force_sequence_replay():
    g = disjoint_union(families.cycle(3), families.cycle(3))
    seq = floor_force_sequence(g, {1, 2})
    assert seq is not None
    assert any(f.hop for f in seq)
    blue = sum(1 << v for v in {1, 2})
    for f in seq:
        assert blue >> f.source & 1 and not blue >> f.target & 1
        blue |= 1 << f.target
    assert blue == g.full_mask
    assert "hop: " in format_trace(seq)
    assert floor_force_sequence(families.star(3), {2}) is None


def test_closure_refuses_vertices_outside_the_graph():
    # unchecked, vertex 0 would come back as forced and vertex 7 index past adj
    p4 = families.path(4)
    for blue, bad in (({0}, 0), ({1, 7}, 7), ({-1}, -1)):
        with pytest.raises(ValueError, match=f"vertex {bad} outside 1..4"):
            closure(p4, blue, Rule.Z)


def test_is_zfs_refuses_vertices_outside_the_graph():
    # unchecked, {0, 1} would lose the floor game although {1} forces P4
    p4 = families.path(4)
    assert is_zfs(p4, {1}, Rule.FLOOR)
    for blue, rule in (({0, 1}, Rule.FLOOR), ({1, 99}, Rule.Z), ({0}, Rule.ZPLUS)):
        with pytest.raises(ValueError, match="outside 1..4"):
            is_zfs(p4, blue, rule)


def test_floor_force_sequence_refuses_vertices_outside_the_graph():
    p4 = families.path(4)
    for blue in ({0}, {5}, {1, -2}):
        with pytest.raises(ValueError, match="outside 1..4"):
            floor_force_sequence(p4, blue)


# -- the round loop and plain search the library replaced -------------------
#
# The library closes Z and Zl in place, dropping spent vertices, and refuses
# start sets smaller than the least degree before playing them.  These keep
# the former closure (apply every force of a round, round after round) and
# the plain search over it; the tests below require the same closures and
# the same value and witness.  The floor search remembers lost positions by
# their blue set and never tries a regular force by a spent vertex; the
# former search below remembers (blue, used) pairs and applies such forces
# first, and the tests require the same winning play from every start.


def reference_closure_mask(g: Graph, blue: int, rule: Rule) -> int:
    while forces := single_forces(g, blue, rule):
        for f in forces:
            blue |= 1 << f.target
    return blue


def reference_min_zfs_connected(g: Graph, rule: Rule) -> tuple[int, frozenset[int]]:
    def wins(combo):
        if rule in CONVENTIONAL_RULES:
            return reference_closure_mask(g, sum(1 << v for v in combo), rule) == g.full_mask
        # the floor game: a plain-Z completion, else a winning play
        return (reference_closure_mask(g, sum(1 << v for v in combo), Rule.Z) == g.full_mask
                or floor_force_sequence(g, combo) is not None)
    return smallest_winning_set(g.vertices(), wins)


def reference_floor_free_forces(adj: tuple[int, ...], full: int, blue: int, used: int,
                                trace: list[Force] | None = None) -> int:
    """Apply regular forces by already-used vertices; they cost nothing."""
    changed = True
    while changed and blue != full:
        changed = False
        for i in bits(blue & used):
            w = adj[i] & ~blue & full
            if w and not w & (w - 1):
                blue |= w
                changed = True
                if trace is not None:
                    trace.append(Force(i, w.bit_length() - 1))
    return blue


def reference_floor_game_sequence(g: Graph, start: int) -> list[Force] | None:
    """A winning force sequence for the floor game, or None."""
    adj = g.adj
    full = g.full_mask
    dead: set[tuple[int, int]] = set()

    def search(blue: int, used: int) -> list[Force] | None:
        prefix: list[Force] = []
        blue = reference_floor_free_forces(adj, full, blue, used, prefix)
        if blue == full:
            return prefix
        key = (blue, used)
        if key in dead:
            return None
        white = full & ~blue
        for i in bits(blue & ~used):
            w = adj[i] & white
            if not w:
                for j in bits(white):
                    rest = search(blue | (1 << j), used | (1 << i))
                    if rest is not None:
                        return prefix + [Force(i, j, hop=True)] + rest
            elif not w & (w - 1):
                j = w.bit_length() - 1
                rest = search(blue | w, used | (1 << i))
                if rest is not None:
                    return prefix + [Force(i, j)] + rest
        dead.add(key)
        return None

    found = search(start, 0)
    # the recursive helper's closure holds it: drop the cycle, not wait for gc
    del search
    return found


def assert_floor_play_keeps_the_lemma(g: Graph, start: int, seq: list[Force]) -> None:
    """Replay a winning floor play: every move is legal, no vertex acts
    twice, and a vertex that has acted has no white neighbour at any later
    step."""
    blue, acted = start, 0
    for f in seq:
        for i in bits(acted):
            assert not g.adj[i] & ~blue, (g.to_graph6(), start, seq, f)
        w = g.adj[f.source] & ~blue & g.full_mask
        assert blue >> f.source & 1 and not acted >> f.source & 1, (g.to_graph6(), start, seq)
        assert w == 0 if f.hop else w == 1 << f.target, (g.to_graph6(), start, seq)
        assert not blue >> f.target & 1, (g.to_graph6(), start, seq)
        blue |= 1 << f.target
        acted |= 1 << f.source
    assert blue == g.full_mask


def assert_floor_sequence_matches_reference(g: Graph, start: int) -> bool:
    seq = floor_force_sequence(g, frozenset(bits(start)))
    assert seq == reference_floor_game_sequence(g, start), (g.to_graph6(), start)
    if seq is not None:
        assert_floor_play_keeps_the_lemma(g, start, seq)
    return seq is not None


def test_floor_sequence_matches_reference_from_every_start(all_graphs_upto_7):
    """The same winning play, or the same loss, from every start set of
    every graph with n <= 7; both answers occur."""
    checked = won = 0
    for g in all_graphs_upto_7:
        for start in range(0, g.full_mask + 1, 2):
            won += assert_floor_sequence_matches_reference(g, start)
            checked += 1
    assert checked == 144922
    assert 0 < won < checked


@pytest.mark.slow
def test_floor_sequence_matches_reference_n8():
    checked = 0
    for g in enumerate_connected(8):
        for v in g.vertices():
            for start in (1 << v, 1 << 1 | 1 << v):
                assert_floor_sequence_matches_reference(g, start)
                checked += 1
    assert checked == 16 * 11117


def test_closure_matches_reference_from_every_start(connected_upto_6):
    checked = 0
    for g in connected_upto_6:
        for blue in range(0, g.full_mask + 1, 2):
            for rule in (Rule.Z, Rule.ZL):
                assert zeroforcing._closure_mask(g, blue, rule) == \
                    reference_closure_mask(g, blue, rule), (g.to_graph6(), blue, rule)
                checked += 1
    assert checked == 2 * sum(2 ** g.n for g in connected_upto_6)


def test_min_zfs_matches_reference_search(connected_upto_7):
    """Value and witness of every rule on every connected graph with n <= 7,
    among them K_n, where Z = n - 1 is the least degree itself."""
    for g in connected_upto_7:
        for rule in Rule:
            assert min_zfs(g, rule) == reference_min_zfs_connected(g, rule), \
                (g.to_graph6(), rule)


@pytest.mark.slow
def test_min_zfs_matches_reference_search_n8():
    """The twin-pruned search against the plain loop under every rule."""
    for g in enumerate_connected(8):
        for rule in Rule:
            assert min_zfs(g, rule) == reference_min_zfs_connected(g, rule), \
                (g.to_graph6(), rule)


# -- twin classes -----------------------------------------------------------
#
# ``min_zfs`` plays a start set only when it holds an initial segment of
# every twin class, and starts its sizes at the twin fort bound (the twin
# lemma in the module docstring).  The reference search above plays every
# set from size 0; these pin the classes and the fort rules on small cases.


def reference_twin_classes(g: Graph) -> set[tuple[bool, frozenset[int]]]:
    """Twin classes by their definition: vertices u != v with N(u) = N(v)
    (open) or N[u] = N[v] (closed), grouped."""
    def nbhd(v, closed):
        return set(bits(g.adj[v])) | ({v} if closed else set())
    out = set()
    for closed in (False, True):
        for v in g.vertices():
            twins = frozenset(u for u in g.vertices() if nbhd(u, closed) == nbhd(v, closed))
            if len(twins) > 1:
                out.add((closed, twins))
    return out


def test_twin_filter_matches_its_definition(all_graphs_upto_7):
    """On every graph with n <= 7, with open, closed or no classes as forts:
    a start set passes exactly when it holds an initial segment of every
    class and all but at most one member of each fort class, and the bound
    is the sum of |C| - 1 over the fort classes.  No vertex lies in two
    classes, and swapping two twins is an automorphism."""
    with_twins = 0
    for g in all_graphs_upto_7:
        classes = reference_twin_classes(g)
        members = [sorted(c) for _, c in classes]
        assert sum(map(len, members)) == len(set().union(*members))
        for twin_class in members:
            perm = list(range(g.n + 1))
            perm[twin_class[0]], perm[twin_class[1]] = twin_class[1], twin_class[0]
            assert g.relabel(perm) == g
        for open_forts, closed_forts in ((False, False), (True, True), (False, True)):
            twins, fits, bound = zeroforcing._twin_filter(g, open_forts, closed_forts)
            forts = [closed_forts if closed else open_forts for closed, _ in classes]
            assert twins == sum(1 << v for c in members for v in c)
            assert bound == sum(len(c) - 1 for c, fort in zip(members, forts) if fort)
            for start in range(0, g.full_mask + 1, 2):
                held = [[v for v in c if start >> v & 1] for c in members]
                want = all(h == c[:len(h)] and (not fort or len(h) >= len(c) - 1)
                           for h, c, fort in zip(held, members, forts))
                assert (start & twins in fits) == want, (g.to_graph6(), start)
        with_twins += bool(classes)
    assert 0 < with_twins < len(all_graphs_upto_7)


def test_twin_forts_pin_the_rules():
    """K_{1,3}: its leaves are open twins, a fort under Z but not under Zl
    or Zplus, where the centre alone wins.  K4 with a pendant vertex at 4:
    1, 2 and 3 are closed twins, a fort under Z, Zl and Zplus.  K_{3,3,4}:
    every part is a class of open twins.  Each value and witness is the
    plain search's."""
    star = families.star(3)
    assert min_zfs(star, Rule.ZL) == min_zfs(star, Rule.ZPLUS) == (1, frozenset({1}))
    assert min_zfs(star, Rule.Z) == (2, frozenset({2, 3}))
    pendant = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)])
    assert reference_twin_classes(pendant) == {(True, frozenset({1, 2, 3}))}
    k334 = parse_graph6("IFzf~z{~?")
    for g, values in ((star, {Rule.Z: 2, Rule.ZL: 1, Rule.ZPLUS: 1, Rule.FLOOR: 2}),
                      (pendant, {Rule.Z: 3, Rule.ZL: 3, Rule.ZPLUS: 3, Rule.FLOOR: 3}),
                      (k334, {Rule.Z: 8, Rule.ZL: 6, Rule.ZPLUS: 6, Rule.FLOOR: 7})):
        for rule, value in values.items():
            got = min_zfs(g, rule)
            assert got[0] == value and got == reference_min_zfs_connected(g, rule), \
                (g.to_graph6(), rule)


# -- the per-vertex force loop the kernel replaced --------------------------
#
# The library reads every force off ``_one_neighbour``, which walks the
# vertices of one white group.  This keeps the former loop, which checked
# every blue vertex for a single white neighbour; the tests below require
# the kernel to match its definition and ``single_forces`` to match this
# loop, order included.


def reference_single_forces(g: Graph, blue: int, rule: Rule) -> list[Force]:
    adj = g.adj
    white = g.full_mask & ~blue
    if rule is Rule.ZPLUS:
        groups, seen = [], 0
        for v in bits(white):
            if not seen >> v & 1:
                groups.append(g.reach(v, white))
                seen |= groups[-1]
    else:
        groups = [white]
    out = []
    for group in groups:
        for i in bits(blue):
            w = adj[i] & group
            if w and not w & (w - 1):
                out.append(Force(i, w.bit_length() - 1))
    if rule is Rule.ZL:
        out += [Force(j, j) for j in bits(white) if adj[j] and not adj[j] & white]
    return out


def graphs_upto_6():
    return [g for n in range(1, 7) for g in enumerate_graphs(n)]


def test_one_neighbour_kernel_matches_its_definition():
    checked = 0
    for g in graphs_upto_6():
        for group in range(0, g.full_mask + 1, 2):
            want = sum(1 << v for v in g.vertices() if (g.adj[v] & group).bit_count() == 1)
            assert zeroforcing._one_neighbour(g.adj, group) == want, (g.to_graph6(), group)
            checked += 1
    assert checked == sum(2 ** n * count for n, count in
                          enumerate((1, 2, 4, 11, 34, 156), start=1))


def test_single_forces_match_the_per_vertex_loop():
    for g in graphs_upto_6():
        for blue in range(0, g.full_mask + 1, 2):
            for rule in CONVENTIONAL_RULES:
                assert single_forces(g, blue, rule) == reference_single_forces(g, blue, rule), \
                    (g.to_graph6(), blue, rule)
