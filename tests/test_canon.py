"""Canonical labeling and enumeration against independent oracles.

The enumeration oracle is Burnside counting over the pair action of the
symmetric group (number of isomorphism classes of all graphs) combined with
the inverse Euler transform (connected classes); neither touches the
canonicalizer.  Canonical-form semantics are checked against brute-force
permutation isomorphism on small graphs.  The pruned search and the filtered
enumeration are checked against a kept reference: the search that visits
every leaf and the enumeration that canonicalizes every extension.  The
refinement is also checked against its first bitset version, which tested
every cell in full, off the partitions the enumeration reaches.
"""

import math
import random
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapforce import canon, families
from sapforce.canon import (automorphism_generators, canonical_form, canonical_word,
                            enumerate_connected, enumerate_graphs)
from sapforce.graphs import CapExceededError, Graph, bits, parse_graph6

from conftest import disjoint_union


# -- reference: every leaf searched, every extension canonicalized ----------

def reference_refine(adj, cells):
    cells = [list(c) for c in cells]
    changed = True
    while changed:
        changed = False
        masks = []
        for c in cells:
            m = 0
            for v in c:
                m |= 1 << v
            masks.append(m)
        for m in masks:
            new_cells = []
            for cell in cells:
                if len(cell) == 1:
                    new_cells.append(cell)
                    continue
                groups = {}
                for v in cell:
                    groups.setdefault((adj[v] & m).bit_count(), []).append(v)
                if len(groups) == 1:
                    new_cells.append(cell)
                else:
                    changed = True
                    for key in sorted(groups):
                        new_cells.append(groups[key])
            cells = new_cells
            if changed:
                break
    return cells


def reference_refine_stable(adj, cells, stable):
    """The bitset refinement as first written: every cell tested in full
    against each splitter, and the cell list copied at every pass."""
    cells = list(cells)
    stable = set(stable)
    while True:
        for m in cells:
            if m in stable:
                continue
            stable.add(m)
            new_cells = []
            for cell in cells:
                if not cell & (cell - 1):
                    new_cells.append(cell)
                    continue
                groups = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    key = (adj[low.bit_length() - 1] & m).bit_count()
                    groups[key] = groups.get(key, 0) | low
                    rest ^= low
                if len(groups) == 1:
                    new_cells.append(cell)
                else:
                    new_cells.extend(groups[key] for key in sorted(groups))
            if len(new_cells) > len(cells):
                cells = new_cells
                break
        else:
            return cells


def reference_word(adj, order):
    n = len(order)
    word = 0
    for i in range(n):
        ai = adj[order[i]]
        for j in range(i + 1, n):
            word = (word << 1) | (ai >> order[j] & 1)
    return word


def reference_labeling(g):
    if g.n == 0:
        return []
    best = best_word = None
    adj = g.adj

    def search(cells):
        nonlocal best, best_word
        cells = reference_refine(adj, cells)
        target = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if target is None:
            order = [c[0] for c in cells]
            word = reference_word(adj, order)
            if best_word is None or word < best_word:
                best_word, best = word, order
            return
        cell = cells[target]
        for v in sorted(cell):
            rest = [u for u in cell if u != v]
            search(cells[:target] + [[v], rest] + cells[target + 1:])

    search([list(g.vertices())])
    return best


def reference_relabel(g):
    perm = [0] * (g.n + 1)
    for new, old in enumerate(reference_labeling(g), start=1):
        perm[old] = new
    return g.relabel(perm)


@lru_cache(maxsize=None)
def reference_all_graphs(n):
    if n <= 1:
        return (Graph.empty(n),)
    out = {}
    for base in reference_all_graphs(n - 1):
        for subset in range(1 << (n - 1)):
            adj = list(base.adj) + [subset << 1]
            for v in bits(subset << 1):
                adj[v] |= 1 << n
            cg = reference_relabel(Graph(n, tuple(adj)))
            out.setdefault(cg.to_graph6(), cg)
    return tuple(out[k] for k in sorted(out))


def burnside_graph_count(n: int) -> int:
    """Isomorphism classes of all graphs on n vertices."""
    total = 0
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    for perm in permutations(range(n)):
        mapped = [index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
        seen = [False] * len(pairs)
        cycles = 0
        for start in range(len(pairs)):
            if seen[start]:
                continue
            cycles += 1
            cur = start
            while not seen[cur]:
                seen[cur] = True
                cur = mapped[cur]
        total += 2 ** cycles
    return total // math.factorial(n)


def connected_counts_from_totals(totals: list[int]) -> list[int]:
    """Inverse Euler transform: totals g_1..g_N to connected counts c_1..c_N."""
    n_max = len(totals)
    g = [1] + totals
    a = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        a[n] = n * g[n] - sum(a[k] * g[n - k] for k in range(1, n))
    c = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        divisor_sum = sum(d * c[d] for d in range(1, n) if n % d == 0)
        c[n] = (a[n] - divisor_sum) // n
    return c[1:]


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.num_edges() != h.num_edges():
        return False
    targets = set(h.edges())
    for perm in permutations(range(1, g.n + 1)):
        lookup = [0] + list(perm)
        if all(tuple(sorted((lookup[u], lookup[v]))) in targets for u, v in g.edges()):
            return True
    return False


def is_automorphism(g: Graph, p) -> bool:
    return (p[0] == 0 and sorted(p) == list(range(g.n + 1))
            and all(sum(1 << p[u] for u in bits(g.adj[v])) == g.adj[p[v]]
                    for v in g.vertices()))


def brute_force_automorphism_count(g: Graph) -> int:
    edges = g.edges()
    return sum(all(g.adj[perm[u - 1]] >> perm[v - 1] & 1 for u, v in edges)
               for perm in permutations(range(1, g.n + 1)))


def generated_order(n: int, gens) -> int:
    group = {tuple(range(n + 1))}
    frontier = list(group)
    while frontier:
        h = frontier.pop()
        for p in gens:
            q = tuple(p[x] for x in h)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return len(group)


def test_enumeration_counts_match_burnside_euler():
    totals = [burnside_graph_count(n) for n in range(1, 8)]
    assert totals == [1, 2, 4, 11, 34, 156, 1044]
    connected = connected_counts_from_totals(totals)
    assert connected == [1, 1, 2, 6, 21, 112, 853]
    for n in range(1, 8):
        assert len(list(enumerate_graphs(n))) == totals[n - 1]
        assert len(list(enumerate_connected(n))) == connected[n - 1]


def test_enumeration_rejects_out_of_range():
    with pytest.raises(CapExceededError):
        list(enumerate_connected(9))
    with pytest.raises(CapExceededError):
        list(enumerate_graphs(0))


def test_labeled_bruteforce_oracle_n5():
    """All 2^10 labeled graphs on 5 vertices fall into exactly 34 classes
    (21 connected); canonical forms agree with permutation isomorphism."""
    pairs = list(combinations(range(1, 6), 2))
    forms = {}
    for mask in range(1 << 10):
        edges = [pairs[i] for i in range(10) if mask >> i & 1]
        g = Graph.from_edges(5, edges)
        forms.setdefault(canonical_form(g), g)
    assert len(forms) == 34
    connected_forms = {k: g for k, g in forms.items() if g.is_connected()}
    assert len(connected_forms) == 21
    # canonical equality must match brute-force isomorphism on a sample
    rng = random.Random(1)
    reps = list(forms.values())
    for _ in range(60):
        a, b = rng.choice(reps), rng.choice(reps)
        assert brute_force_isomorphic(a, b) == (canonical_form(a) == canonical_form(b))


def test_relabeling_invariance():
    g1 = families.path(4)
    g2 = Graph.from_edges(4, [(2, 4), (4, 1), (1, 3)])
    assert canonical_form(g1) == canonical_form(g2)
    assert canonical_form(families.cycle(5)) != canonical_form(families.path(5))


def test_hundred_random_relabelings():
    rng = random.Random(99)
    sample = [families.petersen().induced(range(1, 8)),
              families.kite5(), families.cycle(7),
              families.complete_multipartite(3, 2, 2)]
    for g in sample:
        base = canonical_form(g)
        for _ in range(100):
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            relabeled = g.relabel([0] + perm)
            assert canonical_form(relabeled) == base


def test_canonical_form_decides_isomorphism():
    def iso(g, h):
        return canonical_form(g) == canonical_form(h)

    relabeled_c6 = Graph.from_edges(6, [(2, 5), (5, 1), (1, 6), (6, 3), (3, 4), (4, 2)])
    assert iso(families.cycle(6), relabeled_c6)
    assert not iso(families.cycle(6), families.path(6))
    assert iso(families.octahedron(), families.complete_multipartite(2, 2, 2))
    # the form holds n as well as the canonical word: same word, different
    # n; same degree sequence; same edge count
    e1, e2 = families.empty(1), families.empty(2)
    assert canonical_word(e1) == canonical_word(e2) == 0
    assert not iso(e1, e2)
    two_triangles = disjoint_union(families.cycle(3), families.cycle(3))
    assert not iso(families.cycle(6), two_triangles)
    assert not iso(families.path(4), families.star(3))
    assert iso(two_triangles, Graph.from_edges(
        6, [(1, 4), (4, 6), (6, 1), (2, 3), (3, 5), (5, 2)]))


def test_enumerate_trees_counts():
    # unlabeled trees: 1, 1, 1, 2, 3, 6, 11
    counts = [sum(map(Graph.is_tree, enumerate_connected(n))) for n in range(1, 8)]
    assert counts == [1, 1, 1, 2, 3, 6, 11]


def test_pruned_search_matches_reference(monkeypatch):
    """Same refined partition at every search node, same labeling and word,
    on every graph with n <= 7 and two larger ones, each under three seeded
    relabelings."""
    refine = canon._refine

    def checked_refine(adj, cells, stable):
        out = refine(adj, cells, stable)
        want = reference_refine(adj, [list(bits(c)) for c in cells])
        assert out == [sum(1 << v for v in c) for c in want]
        return out

    monkeypatch.setattr(canon, "_refine", checked_refine)
    corpus = [g for n in range(1, 8) for g in reference_all_graphs(n)]
    # symmetric graphs on which a search that returns above the deepest node
    # two equal leaves share misses the least word
    corpus += [parse_graph6(s) for s in ("I]?BdbB??", "KsrKF|{k[EUK")]
    rng = random.Random(5)
    for g in corpus:
        for _ in range(3):
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            h = g.relabel([0] + perm)
            want = reference_labeling(h)
            assert canon._search(h.n, h.adj)[0] == want
            assert canonical_word(h) == reference_word(h.adj, want)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.booleans(), st.randoms(use_true_random=False))
def test_refine_matches_reference_after_individualizing(n, circulant, rnd):
    """From an equitable partition with random vertices individualized, and
    ``stable`` that partition's cells: the same cells, in the same order, as
    the first bitset refinement and as the list reference.  A circulant graph
    (relabeled) is regular, so refinement starts from a coarse partition."""
    if circulant:
        jumps = {d for d in range(1, n // 2 + 1) if rnd.random() < 0.5}
        label = rnd.sample(range(1, n + 1), n)
        edges = [(label[u], label[v]) for u, v in combinations(range(n), 2)
                 if (v - u) in jumps or (n - (v - u)) in jumps]
    else:
        density = rnd.random()
        edges = [e for e in combinations(range(1, n + 1), 2) if rnd.random() < density]
    g = Graph.from_edges(n, edges)
    equitable = reference_refine_stable(g.adj, [g.full_mask], frozenset())
    cells = list(equitable)
    for v in rnd.sample(range(1, n + 1), rnd.randint(0, n)):
        i = next(i for i, c in enumerate(cells) if c >> v & 1)
        if cells[i] != 1 << v:
            cells[i:i + 1] = [1 << v, cells[i] ^ 1 << v]
    given_cells, stable = list(cells), frozenset(equitable)
    want = reference_refine_stable(g.adj, cells, stable)
    assert canon._refine(g.adj, cells, stable) == want
    assert cells == given_cells
    lists = reference_refine(g.adj, [list(bits(c)) for c in cells])
    assert want == [sum(1 << v for v in c) for c in lists]


def test_filtered_enumeration_matches_reference():
    for n in range(1, 8):
        assert list(enumerate_graphs(n)) == list(reference_all_graphs(n))


@pytest.mark.slow
def test_enumeration_matches_classes8_refs():
    """The 12,346 classes on 8 vertices equal, in order, the list that
    ``perfbench/make_refs.py`` writes."""
    refs = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "classes8.g6"
    want = [line for line in refs.read_text().splitlines()
            if line and not line.startswith("#")]
    assert len(want) == 12346
    assert [g.to_graph6() for g in enumerate_graphs(8)] == want


@pytest.mark.parametrize("n, classes, searches",
                         [(7, 1044, 1090), pytest.param(8, 12346, 13178, marks=pytest.mark.slow)])
def test_enumeration_searches_one_extension_per_orbit(monkeypatch, n, classes, searches):
    """Extensions of a parent that its automorphisms map onto each other are
    canonicalized once: exact counts, since the generators are complete for
    every parent (checked below)."""
    extensions = []
    search = canon._search

    def counted(m, adj):
        if m == n:
            extensions.append(adj)
        return search(m, adj)

    monkeypatch.setattr(canon, "_search", counted)
    canon._all_graphs.cache_clear()
    assert len(list(enumerate_graphs(n))) == classes
    assert len(extensions) == searches


@pytest.mark.parametrize("sizes", [range(1, 7), pytest.param([7], marks=pytest.mark.slow)],
                         ids=["n<=6", "n=7"])
def test_automorphism_generators_generate_the_group(sizes):
    rng = random.Random(14)
    for n in sizes:
        for g in reference_all_graphs(n):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            h = g.relabel([0] + perm)
            gens = automorphism_generators(h)
            assert all(is_automorphism(h, p) for p in gens)
            assert generated_order(n, gens) == brute_force_automorphism_count(h), h.to_graph6()


@pytest.mark.parametrize("g, g6", [(Graph.empty(10), "I????????"),
                                   (families.complete(10), "I~~~~~~~w")], ids=["E10", "K10"])
def test_symmetric_graph_visits_few_leaves(monkeypatch, g, g6):
    leaves = []
    encode = canon._encode_labeling

    def counted(adj, order):
        leaves.append(order)
        return encode(adj, order)

    monkeypatch.setattr(canon, "_encode_labeling", counted)
    assert canonical_form(g) == g6
    assert 0 < len(leaves) <= 20  # a search without pruning visits all 10! leaves
    gens = automorphism_generators(g)
    assert gens and all(is_automorphism(g, p) for p in gens)
