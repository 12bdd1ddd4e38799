import random
from itertools import combinations

import pytest

import reference_minors
from sapforce import canon, families, minors
from sapforce.canon import enumerate_connected, enumerate_graphs
from sapforce.graphs import Graph, bits
from sapforce.minors import clique_number, hadwiger, has_minor, vertex_cover_number
from sapforce.xi import load_t3_family


def validate_witness(g: Graph, h: Graph, witness) -> None:
    assert len(witness) == h.n
    for a, b in combinations(witness, 2):
        assert not a & b
    for bs in witness:
        assert bs and g.induced(bs).is_connected()
    for u, v in h.edges():
        a, b = witness[u - 1], witness[v - 1]
        assert any(g.has_edge(x, y) for x in a for y in b)


def test_minor_examples():
    ok, wit = has_minor(families.cycle(5), families.complete(3))
    assert ok
    validate_witness(families.cycle(5), families.complete(3), wit)
    assert not has_minor(families.path(6), families.star(3))[0]
    ok, wit = has_minor(families.petersen(), families.complete(5))
    assert ok
    validate_witness(families.petersen(), families.complete(5), wit)


def test_minor_reflexive_and_transitive():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 6)
        edges = [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        assert has_minor(g, g)[0]
        # one random minor step down, then another: still a minor of g
        h = g
        for _ in range(2):
            es = h.edges()
            if es and rng.random() < 0.7:
                h = h.contract_edge(*rng.choice(es)) if rng.random() < 0.5 else \
                    h.delete_vertex(rng.randint(1, h.n))
        if h.n >= 1:
            assert has_minor(g, h)[0]


def reference_embed_subgraph(host: Graph, pattern: Graph) -> list[int] | None:
    """The library's former embedding, kept as the reference: backtrack over
    host vertices ascending, filtering each by use, degree and adjacency to
    the images of earlier pattern neighbours."""
    p_order = sorted(pattern.vertices(), key=pattern.degree, reverse=True)
    image = [0] * (pattern.n + 1)
    used = 0

    def place(idx: int) -> bool:
        nonlocal used
        if idx == len(p_order):
            return True
        p = p_order[idx]
        needed = [q for q in p_order[:idx] if pattern.has_edge(p, q)]
        for v in host.vertices():
            if used >> v & 1:
                continue
            if host.degree(v) < pattern.degree(p):
                continue
            if any(not host.has_edge(v, image[q]) for q in needed):
                continue
            image[p] = v
            used |= 1 << v
            if place(idx + 1):
                return True
            used &= ~(1 << v)
        return False

    return image if place(0) else None


def test_embedding_matches_reference(connected_upto_6):
    """The same first image, or None, on every connected host with n <= 6
    for complete patterns, the T3 family and every graph with n <= 4."""
    patterns = [*(families.complete(p) for p in range(1, 7)), *load_t3_family().graphs,
                *(h for n in range(1, 5) for h in enumerate_graphs(n))]
    found = 0
    for g in connected_upto_6:
        deg = [a.bit_count() for a in g.adj]
        for h in patterns:
            image = minors._embed_subgraph(g.n, g.adj, deg, minors._plan(h))
            assert image == reference_embed_subgraph(g, h), (g.to_graph6(), h.to_graph6())
            found += image is not None
    # 2,786 of the 143 * 30 pairs embed, so both answers are checked
    assert found == 2786


def _width(g: Graph) -> int:
    return minors._width_bound(g.n, g.adj)


def test_width_bound_examples():
    assert _width(families.empty(3)) == 0
    assert _width(families.path(5)) == 1
    assert _width(families.cycle(6)) == 2
    assert _width(families.complete(5)) == 4
    # K4 has no edge to spare: the bound refuses it without a search
    assert has_minor(families.cycle(7), families.complete(4)) == (False, None)


def _seeded_connected(rng: random.Random, n: int) -> Graph:
    """A connected G(n, p) draw, p itself drawn from 0.2..0.8."""
    while True:
        p = rng.uniform(0.2, 0.8)
        g = Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2)
                                 if rng.random() < p])
        if g.is_connected():
            return g


def _larger_seeded() -> list[Graph]:
    """300 seeded connected 8-vertex graphs, then 40 10-vertex ones."""
    rng = random.Random(20261019)
    return [_seeded_connected(rng, n) for n in [8] * 300 + [10] * 40]


def _pinned_patterns() -> list[Graph]:
    return [families.complete(3), families.complete(4), families.complete(5),
            *load_t3_family().graphs]


@pytest.mark.slow
def test_width_test_only_refuses_what_the_search_refuses(connected_upto_7, monkeypatch):
    """has_minor with and without the width test at every contraction state
    gives the same verdict and branch sets on every connected graph with
    n <= 7, and so does hadwiger on 300 seeded connected 8-vertex graphs and
    40 seeded 10-vertex ones; the test fires on every graph without a K4
    minor."""
    patterns = _pinned_patterns()
    width = {g: _width(g) for g in connected_upto_7}
    larger = _larger_seeded()

    def verdicts():
        return ({(g, i): has_minor(g, h)
                 for g in connected_upto_7 for i, h in enumerate(patterns)},
                [hadwiger(g) for g in larger])

    with_test = verdicts()
    # a bound of n never undercuts a least degree, so only the search answers
    monkeypatch.setattr(minors, "_width_bound", lambda n, adj: n)
    without = verdicts()
    assert with_test == without
    no_k4 = [g for g in connected_upto_7 if not without[0][g, 1][0]]
    assert len(no_k4) > 100
    assert all(width[g] <= 2 for g in no_k4)


def test_has_minor_matches_reference(connected_upto_7):
    """The bitset search gives the kept Graph-state search's verdict and
    branch sets for K3, K4, K5 and the six T3 members on every connected
    graph with n <= 7."""
    hits = 0
    for g in connected_upto_7:
        for h in _pinned_patterns():
            got = has_minor(g, h)
            assert got == reference_minors.has_minor(g, h), (g.to_graph6(), h.to_graph6())
            hits += got[0]
    # 3,928 of the 996 * 9 pairs are minors, so both answers are checked
    assert hits == 3928


def test_hadwiger_matches_reference_on_larger_graphs():
    """The same order and branch sets as the kept search on failing searches
    where the memo and the twin rule matter, and on 40 seeded 10-vertex
    graphs."""
    multipartite = families.complete_multipartite
    named = [(multipartite(3, 3, 4), 6), (multipartite(2, 2, 2, 2, 2), 7),
             (families.petersen().complement(), 6), (multipartite(5, 5), 6)]
    for g, eta in named:
        got = hadwiger(g)
        assert got[0] == eta and got == reference_minors.hadwiger(g), g.to_graph6()
    for g in _larger_seeded()[300:]:
        assert hadwiger(g) == reference_minors.hadwiger(g), g.to_graph6()


@pytest.mark.slow
def test_hadwiger_matches_reference_on_every_connected_graph_on_8():
    graphs = list(enumerate_connected(8))
    assert len(graphs) == 11117
    for g in graphs:
        assert hadwiger(g) == reference_minors.hadwiger(g), g.to_graph6()


def test_canonical_words_only_after_a_failure(connected_upto_7, monkeypatch):
    """No K3 or K4 search computes a canonical word, since no state that
    passes the exact width test fails; a failing K7 search on K_{3,3,4}
    compares words, so the memo is alive."""
    calls = []
    search = canon._search
    monkeypatch.setattr(canon, "_search", lambda n, adj: calls.append(n) or search(n, adj))
    hits = sum(has_minor(g, families.complete(p))[0] for g in connected_upto_7 for p in (3, 4))
    assert hits == 1646 and calls == []
    k334 = families.complete_multipartite(3, 3, 4)
    assert has_minor(k334, families.complete(7)) == (False, None)
    assert calls


def test_hadwiger_values(connected_upto_6):
    assert hadwiger(families.complete(5))[0] == 5
    assert hadwiger(families.complete(1))[0] == 1
    for n in (2, 5, 7):
        t = families.star(n - 1) if n > 2 else families.path(2)
        assert hadwiger(t)[0] == 2
    assert hadwiger(families.kite5())[0] == 3
    rng = random.Random(11)
    for g in rng.sample(connected_upto_6, 25):
        eta = hadwiger(g)[0]
        for v in g.vertices():
            if g.n > 1:
                assert hadwiger(g.delete_vertex(v))[0] <= eta
        for e in g.edges():
            adj = list(g.adj)
            adj[e[0]] &= ~(1 << e[1])
            adj[e[1]] &= ~(1 << e[0])
            assert hadwiger(Graph(g.n, tuple(adj)))[0] <= eta


def test_hadwiger_searches_from_the_clique_number(connected_upto_6, monkeypatch):
    """``hadwiger`` asks ``has_minor`` for K_w first, w the clique number,
    then up to the first miss: eta - w + 2 calls, where counting from K_1
    made eta + 1."""
    calls = []
    search = minors.has_minor
    monkeypatch.setattr(minors, "has_minor", lambda g, h: calls.append(h.n) or search(g, h))
    assert hadwiger(Graph.empty(0)) == (0, ()) and calls == [0, 1]
    saved = 0
    for g in connected_upto_6:
        calls.clear()
        eta, omega = hadwiger(g)[0], clique_number(g)
        assert calls == list(range(omega, eta + 2)), g.to_graph6()
        saved += omega - 1
    # counting from K_1 made eta + 1 calls: w - 1 more per graph
    assert len(connected_upto_6) == 143 and saved == 296


def test_hadwiger_branch_sets_form_a_clique_minor(connected_upto_6):
    # checked on bitsets directly, without has_minor
    def connected(g, mask):
        seen = frontier = mask & -mask
        while frontier:
            nxt = 0
            for v in g.vertices():
                if frontier >> v & 1:
                    nxt |= g.adj[v] & mask
            frontier = nxt & ~seen
            seen |= frontier
        return seen == mask

    for g in connected_upto_6:
        eta, branches = hadwiger(g)
        masks = [sum(1 << v for v in b) for b in branches]
        assert eta >= 1 and len(masks) == eta
        assert all(m and connected(g, m) for m in masks)
        for a, b in combinations(masks, 2):
            assert not a & b
            assert any(g.adj[v] & b for v in g.vertices() if a >> v & 1)


def test_caps():
    # the library takes no size cap (the CLI refuses this graph); the
    # independence number of the dodecahedron is 8, so the cover needs 12
    assert vertex_cover_number(families.dodecahedron()) == 12


def test_vertex_cover_values():
    for n in range(2, 7):
        assert vertex_cover_number(families.complete(n)) == n - 1
    assert vertex_cover_number(families.path(4)) == 2
    assert vertex_cover_number(families.empty(5)) == 0
    assert vertex_cover_number(families.petersen()) == 6
    assert vertex_cover_number(families.cycle(7)) == 4


def test_vertex_cover_bruteforce_agreement(connected_upto_5):
    def brute(g):
        for size in range(g.n + 1):
            for combo in combinations(g.vertices(), size):
                s = set(combo)
                if all(u in s or v in s for u, v in g.edges()):
                    return size
        return g.n
    for g in connected_upto_5:
        assert vertex_cover_number(g) == brute(g)


def reference_vertex_cover_number(g: Graph) -> int:
    """The library's former cover search, kept as the reference: branch on
    the vertex of most active edges (it is in the cover, or all of its
    neighbours are), pruned by a greedy matching bound."""
    adj = g.adj
    best = g.n

    def matching_bound(active: int) -> int:
        rem = active
        size = 0
        for v in bits(active):
            if not rem >> v & 1:
                continue
            nb = adj[v] & rem & ~(1 << v)
            if nb:
                u = (nb & -nb).bit_length() - 1
                rem &= ~(1 << v) & ~(1 << u)
                size += 1
        return size

    def bb(active: int, chosen: int) -> None:
        nonlocal best
        pick, pick_deg = 0, 0
        for v in bits(active):
            d = (adj[v] & active).bit_count()
            if d > pick_deg:
                pick, pick_deg = v, d
        if pick_deg == 0:
            best = min(best, chosen)
            return
        if chosen + matching_bound(active) >= best:
            return
        if chosen + 1 < best:
            bb(active & ~(1 << pick), chosen + 1)
        nbrs = adj[pick] & active
        if chosen + nbrs.bit_count() < best:
            bb(active & ~nbrs & ~(1 << pick), chosen + nbrs.bit_count())

    bb(g.full_mask, 0)
    return best


@pytest.mark.slow
def test_vertex_cover_matches_reference_branch_and_bound():
    """n minus the clique number of the complement equals the kept cover
    search on every graph with n <= 8 and on the named larger ones."""
    graphs = [g for n in range(1, 9) for g in enumerate_graphs(n)]
    assert len(graphs) == 13598
    graphs += [families.petersen(), families.dodecahedron(), families.icosahedron(),
               families.cube(), families.complete(10), families.empty(10)]
    for g in graphs:
        assert vertex_cover_number(g) == reference_vertex_cover_number(g), g.to_graph6()


def test_clique_number():
    assert clique_number(families.petersen()) == 2
    assert clique_number(families.complete(6)) == 6
    assert clique_number(families.octahedron()) == 3
