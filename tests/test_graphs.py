import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapforce import families
from sapforce.canon import enumerate_connected, enumerate_graphs
from sapforce.graphs import (Graph, Graph6Error, GraphError, _grow, bits,
                             encode_graph6, format_edge_list, parse_edge_list,
                             parse_graph6)


def test_single_vertex_decodes():
    g = parse_graph6("@")
    assert g.n == 1 and g.edges() == []


def test_hand_decoded_p4():
    # 'Ch' = n=4 (67-63), body 'h' = 104-63 = 41 = 101001 on the pair
    # stream (1,2),(1,3),(2,3),(1,4),(2,4),(3,4): edges 12, 23, 34
    g = parse_graph6("Ch")
    assert sorted(g.edges()) == [(1, 2), (2, 3), (3, 4)]


def test_roundtrip_on_connected_5_vertex_corpus():
    corpus = [
        "D?{", "D@s", "D@{", "DBg", "DBk", "DBw", "DB{", "DFw", "DF{", "DJk",
        "DJ{", "DK[", "DK{", "DLo", "DLs", "DL{", "DNw", "DN{", "D]{", "D^{",
        "D~{",
    ]
    assert len(corpus) == 21
    for s in corpus:
        assert encode_graph6(parse_graph6(s)) == s


def test_roundtrip_figure_graph():
    g = families.outer_triangle_on_wheel8()
    again = parse_graph6(encode_graph6(g))
    assert again.adj == g.adj


def test_parse_errors_name_offset():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("")
    assert exc.value.offset == 0
    with pytest.raises(Graph6Error):
        parse_graph6("D")           # truncated bit vector
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("D" + chr(30))  # out-of-range byte
    assert "offset" in str(exc.value)
    with pytest.raises(Graph6Error):
        parse_graph6("@@")          # trailing bytes


def test_header_prefix_accepted():
    g = parse_graph6(">>graph6<<Ch")
    assert g.n == 4


def test_long_form_vertex_count():
    g = families.path(70)
    s = encode_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s).adj == g.adj


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.randoms(use_true_random=False))
def test_roundtrip_random_graphs(n, rnd):
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rnd.random() < 0.4]
    g = Graph.from_edges(n, edges)
    assert parse_graph6(encode_graph6(g)).adj == g.adj


def test_complement_examples():
    assert families.complete(4).complement().num_edges() == 0
    assert sorted(families.path(4).complement().edges()) == [(1, 3), (1, 4), (2, 4)]
    comp = families.octahedron().complement()
    assert comp.num_edges() == 3
    assert all(comp.degree(v) == 1 for v in comp.vertices())


def test_complement_involution_and_edge_count(connected_upto_5):
    for g in connected_upto_5:
        assert g.complement().complement().adj == g.adj
        assert g.num_edges() + g.complement().num_edges() == g.n * (g.n - 1) // 2


def test_join_star_and_counts():
    star = families.complete(1).join(families.empty(3))
    assert sorted(star.edges()) == sorted(families.star(3).edges())
    rng = random.Random(5)
    for _ in range(20):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        g = families.empty(n1) if rng.random() < 0.3 else families.path(n1)
        h = families.empty(n2) if rng.random() < 0.3 else families.complete(n2)
        j = g.join(h)
        assert j.num_edges() == g.num_edges() + h.num_edges() + g.n * h.n


def test_join_k3_o4_shape(k3_join_o4):
    g = k3_join_o4
    assert g.n == 7
    assert g.complement().num_edges() == 6  # the K4-part clique in the complement


def test_components():
    assert families.path(4).components() == [frozenset({1, 2, 3, 4})]
    assert families.empty(3).components() == [frozenset({1}), frozenset({2}), frozenset({3})]
    h = families.cycle(3).disjoint_union(families.empty(1))
    assert h.components() == [frozenset({1, 2, 3}), frozenset({4})]


def test_is_forest_means_every_component_is_a_tree(all_graphs_upto_7):
    assert Graph.empty(0).is_forest()
    for g in all_graphs_upto_7:
        assert g.is_forest() == all(g.induced(c).is_tree() for c in g.components())


def test_contract_and_delete():
    c5 = families.cycle(5)
    t = c5.contract_edge(1, 2)
    assert t.n == 4 and t.num_edges() == 4
    p = families.path(4).delete_vertex(1)
    assert sorted(p.edges()) == [(1, 2), (2, 3)]
    with pytest.raises(GraphError, match="non-edge"):
        families.path(4).contract_edge(1, 3)


def reference_contract_edge(g, u, v):
    """Merge v into u on the whole vertex set, then drop v with ``induced``."""
    merged = (g.adj[u] | g.adj[v]) & ~(1 << u) & ~(1 << v)
    adj = list(g.adj)
    adj[u] = merged
    for w in g.vertices():
        if w != u and merged >> w & 1:
            adj[w] = (adj[w] | (1 << u)) & ~(1 << v)
        else:
            adj[w] &= ~(1 << v)
    adj[v] = 0
    return Graph(g.n, tuple(adj)).induced(w for w in g.vertices() if w != v)


def test_contract_edge_matches_reference_on_every_graph_upto_6():
    checked = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            for a, b in g.edges():
                for u, v in ((a, b), (b, a)):
                    assert g.contract_edge(u, v) == reference_contract_edge(g, u, v), \
                        (g.to_graph6(), u, v)
                    checked += 1
    assert checked == 2760


def test_edge_list_io():
    g = families.kite5()
    text = format_edge_list(g)
    assert parse_edge_list(text).adj == g.adj
    zero_based = "5 5\n0 1\n1 2\n2 3\n3 4\n1 4\n"
    assert parse_edge_list(zero_based, indexing=0).adj == g.adj
    with pytest.raises(GraphError):
        parse_edge_list("2 1\n")      # missing edge line
    with pytest.raises(GraphError):
        parse_edge_list("2 1\n1 1\n")  # self loop


def test_edge_list_refuses_orders_graph6_cannot_write():
    # refused from the header, before an adjacency list of n + 1 ints exists
    for n in (258048, 10 ** 12):
        with pytest.raises(GraphError, match=f"vertex count {n} exceeds 258047"):
            parse_edge_list(f"{n} 0\n")


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(2, (0, 2, 0))  # asymmetric
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(1, 3)])


def reference_reach(g, start, within):
    """Layered breadth-first search from ``start`` inside the vertex bitset
    ``within``, one vertex at a time."""
    if not within >> start & 1:
        return 0
    seen = {start}
    layer = [start]
    while layer:
        next_layer = []
        for v in layer:
            for u in g.vertices():
                if g.has_edge(v, u) and within >> u & 1 and u not in seen:
                    seen.add(u)
                    next_layer.append(u)
        layer = next_layer
    return sum(1 << v for v in seen)


def test_reach_matches_layered_bfs_on_every_graph_upto_6():
    """``reach`` from every start inside the whole vertex set and three
    seeded masks, and the walk's ``touched``: the OR of adj over the component."""
    rng = random.Random(20261018)
    corpus = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    assert len(corpus) == 208
    for g in corpus:
        masks = [g.full_mask] + [rng.getrandbits(g.n) << 1 for _ in range(3)]
        for v in g.vertices():
            for within in masks:
                comp = g.reach(v, within)
                assert comp == reference_reach(g, v, within), (g.to_graph6(), v, within)
                touched = 0
                for w in bits(comp):
                    touched |= g.adj[w]
                assert _grow(g.adj, (1 << v) & within, within) == (comp, touched)


def test_reach_refuses_vertices_outside_the_graph():
    # unchecked, reach(9) would be empty and reach(-1) a negative shift
    p4 = families.path(4)
    assert p4.reach(4) == p4.full_mask
    for start in (0, 5, 9, -1):
        with pytest.raises(ValueError, match=f"vertex {start} outside 1..4"):
            p4.reach(start)
