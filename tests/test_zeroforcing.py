import random
from itertools import combinations

import pytest

from sapforce import families
from sapforce.graphs import CapExceededError, Graph
from sapforce.report import compute_report
from sapforce.zeroforcing import (Force, Rule, closure, floor_force_sequence,
                                  format_trace, is_zfs, min_zfs, single_forces)


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
    fig = families.outer_triangle_on_wheel8()
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
    from sapforce.canon import enumerate_trees
    for n in range(2, 8):
        for t in enumerate_trees(n):
            expected = 1 if t.is_path_graph() else 2
            assert min_zfs(t, Rule.FLOOR)[0] == expected


def test_floor_disconnected_is_component_max():
    g = families.path(3).disjoint_union(families.cycle(4))
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
    g = families.cycle(3).disjoint_union(families.cycle(3))
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
