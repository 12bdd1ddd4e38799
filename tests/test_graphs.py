import random
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapforce import families
from sapforce.canon import _encode_labeling, _word_graph, enumerate_graphs
from sapforce.graphs import (Graph, Graph6Error, GraphError, _g6_read_n, _grow,
                             bits, encode_graph6, parse_edge_list, parse_graph6)

from conftest import disjoint_union, is_forest


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
    # not read as '?' (byte 63, a valid graph6 byte), which made "Aé" "A?"
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A\u00e9")
    assert str(exc.value) == "non-ASCII character '\u00e9' (byte offset 1)"
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("Ch\u00e9\u00e9")
    assert exc.value.offset == 2
    # offsets count the stripped prefix and leading whitespace: the bit
    # vector of "D" (two bytes) ends early at the end of the input
    for text, offset in ((" D\x01", 3), (">>graph6<<  D\x01", 14),
                         ("  >>graph6<< D\x01", 15)):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(text)
        assert str(exc.value) == \
            f"truncated bit vector: need 2 bytes, found 1 (byte offset {offset})"


def test_header_prefix_accepted():
    g = parse_graph6(">>graph6<<Ch")
    assert g.n == 4
    # whitespace may come before the prefix as well as after it
    for text in ("  >>graph6<<Ch", "\t>>graph6<<  Ch\n"):
        assert parse_graph6(text) == g, text


def test_long_form_vertex_count():
    g = families.path(70)
    s = encode_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s).adj == g.adj


def reference_encode_graph6(g):
    """graph6 of ``g`` with one ``has_edge`` query per vertex pair."""
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    else:
        raise Graph6Error("vertex counts above 258047 are not supported")
    nbits = n * (n - 1) // 2
    bitstream = 0
    for col in range(1, n):
        for row in range(col):
            bitstream = (bitstream << 1) | (1 if g.has_edge(row + 1, col + 1) else 0)
    nbytes = (nbits + 5) // 6
    bitstream <<= nbytes * 6 - nbits
    body = bytes(((bitstream >> (6 * (nbytes - 1 - i))) & 63) + 63 for i in range(nbytes))
    return (head + body).decode("ascii")


def test_encoder_matches_reference_on_every_labeled_graph_upto_6():
    checked = 0
    for n in range(0, 7):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            adj = [0] * (n + 1)
            for i, (u, v) in enumerate(pairs):
                if mask >> i & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            g = Graph(n, tuple(adj))
            s = encode_graph6(g)
            assert s == reference_encode_graph6(g), adj
            assert parse_graph6(s) == g
            checked += 1
    assert checked == 1 + 1 + 2 + 8 + 64 + 1024 + 32768


def test_encoder_matches_reference_where_the_header_grows():
    """N(n) is one byte up to n = 62 and four bytes from 63 on."""
    rng = random.Random(20261019)
    for n, head in ((62, 1), (63, 4), (64, 4)):
        g = Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2)
                                 if rng.random() < 0.5])
        s = encode_graph6(g)
        assert s == reference_encode_graph6(g)
        assert len(s) == head + (n * (n - 1) // 2 + 5) // 6
        assert parse_graph6(s) == g


def reference_parse_graph6(text):
    """The adjacency table of a valid graph6 string, one shift of the whole
    bit vector per vertex pair (the library's former all-pairs decoder)."""
    data = text.encode("ascii")
    n, start = _g6_read_n(data, 0)
    nbits = n * (n - 1) // 2
    bitstream = 0
    for b in data[start:]:
        bitstream = (bitstream << 6) | (b - 63)
    bitstream >>= (len(data) - start) * 6 - nbits
    adj = [0] * (n + 1)
    pos = nbits - 1
    for col in range(1, n):
        for row in range(col):
            if bitstream >> pos & 1:
                u, v = row + 1, col + 1
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            pos -= 1
    return n, tuple(adj)


def check_unchecked_paths(text, perm):
    """``parse_graph6`` of ``text`` against the all-pairs reference, and the
    graphs of the three unchecked constructors against ``Graph(n, adj)``:
    the decoded graph, its ``relabel`` by ``perm`` (checked against the
    relabeled edge list too) and ``_word_graph`` of its identity-labeling
    word, which must give the decoded graph back."""
    g = parse_graph6(text)
    assert (g.n, g.adj) == reference_parse_graph6(text), text
    h = g.relabel(perm)
    assert h == Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()]), text
    w = _word_graph(g.n, _encode_labeling(g.adj, list(g.vertices())))
    assert w == g, text
    for made in (g, h, w):
        assert Graph(made.n, made.adj) == made and made.full_mask == g.full_mask, text


def test_unchecked_paths_match_checked_on_every_class_upto_7(all_graphs_upto_7):
    rng = random.Random(20261019)
    corpus = [Graph.empty(0)] + all_graphs_upto_7
    assert len(corpus) == 1 + 1252
    for g in corpus:
        # the enumeration's graphs come from ``_word_graph`` too
        assert Graph(g.n, g.adj) == g
        perm = [0] + rng.sample(range(1, g.n + 1), g.n)
        check_unchecked_paths(g.to_graph6(), perm)


def test_unchecked_paths_match_checked_on_classes8_refs():
    refs = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "classes8.g6"
    lines = [line for line in refs.read_text().splitlines()
             if line and not line.startswith("#")]
    assert len(lines) == 12346
    rng = random.Random(8)
    for text in lines:
        check_unchecked_paths(text, [0] + rng.sample(range(1, 9), 8))


@st.composite
def graph6_bit_vectors(draw):
    """A graph6 string of up to 20 vertices with any bit vector, and a
    permutation of its vertices."""
    n = draw(st.integers(0, 20))
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    vector = draw(st.integers(0, (1 << nbits) - 1)) << (nbytes * 6 - nbits)
    body = bytes(((vector >> (6 * (nbytes - 1 - i))) & 63) + 63 for i in range(nbytes))
    perm = [0] + draw(st.permutations(range(1, n + 1)))
    return chr(n + 63) + body.decode("ascii"), perm


@settings(max_examples=300, derandomize=True)
@given(graph6_bit_vectors())
def test_unchecked_paths_match_checked_on_bit_vectors(case):
    check_unchecked_paths(*case)


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
    h = disjoint_union(families.cycle(3), families.empty(1))
    assert h.components() == [frozenset({1, 2, 3}), frozenset({4})]


def test_is_forest_means_every_component_is_a_tree(all_graphs_upto_7):
    assert is_forest(Graph.empty(0))
    for g in all_graphs_upto_7:
        assert is_forest(g) == all(g.induced(c).is_tree() for c in g.components())


def test_contract_and_delete():
    c5 = families.cycle(5)
    t = c5.contract_edge(1, 2)
    assert t.n == 4 and t.num_edges() == 4
    p = families.path(4).delete_vertex(1)
    assert sorted(p.edges()) == [(1, 2), (2, 3)]
    with pytest.raises(GraphError, match="non-edge"):
        families.path(4).contract_edge(1, 3)


def test_induced_and_delete_vertex_refuse_vertices_outside_the_graph():
    # unchecked, 0 and -1 added an isolated vertex, 5 raised a bare
    # IndexError, and deleting 9 or 0 returned the whole graph
    p4 = families.path(4)
    assert p4.induced([3, 1, 2, 3]) == families.path(3)
    for vertices, bad in (([0, 1, 2], 0), ([-1, 1, 2], -1), ([1, 2, 5], 5)):
        with pytest.raises(ValueError, match=f"vertex {bad} outside 1..4"):
            p4.induced(vertices)
    for v in (9, 0, 5, -1):
        with pytest.raises(ValueError, match=f"vertex {v} outside 1..4"):
            p4.delete_vertex(v)
    # refused before a shift by it: no int of 10**8 bits (12.5 MB) is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="vertex 100000000 outside 1..4"):
            p4.delete_vertex(10 ** 8)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_relabel_refuses_a_list_that_is_not_a_permutation():
    # [0, 1, 1, 2] was refused as "vertex 1 has a self-loop", and the extra
    # slot of [0, 3, 2, 1, 4] was read by nobody
    p3 = families.path(3)
    assert sorted(p3.relabel([0, 2, 1, 3]).edges()) == [(1, 2), (1, 3)]
    assert p3.relabel([7, 1, 2, 3]) == p3  # slot 0 is ignored
    for perm in ([0, 1, 1, 2], [0, 3, 2, 1, 4], [0, 1, 2], [0, 1, 2, 4], [0, 0, 1, 2]):
        with pytest.raises(GraphError) as exc:
            p3.relabel(perm)
        assert str(exc.value) == "perm must list each of 1..3 once after slot 0", perm


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
    assert parse_edge_list("5 5\n1 2\n2 3\n2 5\n3 4\n4 5\n").adj == g.adj
    zero_based = "5 5\n0 1\n1 2\n2 3\n3 4\n1 4\n"
    assert parse_edge_list(zero_based, indexing=0).adj == g.adj
    with pytest.raises(GraphError):
        parse_edge_list("2 1\n")      # missing edge line
    with pytest.raises(GraphError):
        parse_edge_list("2 1\n1 1\n")  # self loop
    # a repeat would leave fewer edges than the header promises
    for text in ("3 2\n1 2\n1 2\n", "3 2\n1 2\n2 1\n"):
        with pytest.raises(GraphError, match="edge {.,.} is listed twice"):
            parse_edge_list(text)


def test_edge_list_labels_are_ascii_decimal():
    # int() read an Arabic-Indic three as 3 and '1_0' as 10, and let a bare
    # "invalid literal" escape for 'x'; each is now refused on its line
    for text, message in (
            ("3 1\n1 \u0663\n", "line 2: expected a decimal number, got '\u0663'"),
            ("12 1\n1_0 2\n", "line 2: expected a decimal number, got '1_0'"),
            ("3 1\n1 x\n", "line 2: expected a decimal number, got 'x'"),
            ("# header\n3 1\n\n2 -1\n", "line 4: expected a decimal number, got '-1'"),
            ("3 +1\n1 2\n", "line 1: expected a decimal number, got '+1'")):
        with pytest.raises(GraphError) as err:
            parse_edge_list(text)
        assert str(err.value) == message


def test_edge_list_refuses_orders_graph6_cannot_write():
    # refused from the header, before an adjacency list of n + 1 ints exists
    for n in (258048, 10 ** 12):
        with pytest.raises(GraphError, match=f"vertex count {n} exceeds 258047"):
            parse_edge_list(f"{n} 0\n")


def test_graph_validation():
    """Each check's message, and which check speaks first."""
    cases = [
        (-1, (0,), "vertex count must be nonnegative"),
        (2, (0, 4), "adjacency table must have slots 0..n with slot 0 empty"),
        (2, (1, 0, 0), "adjacency table must have slots 0..n with slot 0 empty"),
        (3, (0, 0, 0, 16), "vertex 3 has neighbors outside 1..3"),
        (2, (0, 8, 2), "vertex 1 has neighbors outside 1..2"),
        (2, (0, 2, 0), "vertex 1 has a self-loop"),
        # the range and loop checks of every vertex come before any symmetry check
        (3, (0, 4, 1, 0), "vertex 2 has neighbors outside 1..3"),
        # the first pair by vertex, then by neighbour, both ascending
        (3, (0, 12, 2, 0), "adjacency is not symmetric at {3,1}"),
        (3, (0, 0, 2, 2), "adjacency is not symmetric at {1,2}"),
    ]
    for n, adj, message in cases:
        with pytest.raises(GraphError) as exc:
            Graph(n, adj)
        assert str(exc.value) == message, (n, adj)
    with pytest.raises(GraphError, match=r"edge \{1,3\} outside 1..2"):
        Graph.from_edges(2, [(1, 3)])


def test_graph_from_a_list_equals_and_hashes_as_from_a_tuple():
    g, h = Graph(2, [0, 4, 2]), Graph(2, (0, 4, 2))
    assert g == h and g.adj == (0, 4, 2)
    assert hash(g) == hash(h)
    assert len({g, h}) == 1


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
