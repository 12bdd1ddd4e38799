"""Minor containment, Hadwiger number, clique number, and vertex cover.

``has_minor`` searches the contraction space of the host graph (memoized
on vertex count and canonical adjacency word).  Every contraction state is
first refused if the pattern's least degree (a lower bound on its
treewidth) exceeds the width of a least-degree elimination of the state (an
upper bound on the state's): treewidth does not grow under minors.  The
bound is exact up to width 2, so a search for K3 or K4 refuses every state
without that minor at once.  Otherwise the search looks for a subgraph
embedding of the pattern at the state; a hit is translated back into
disjoint connected branch sets of the original graph, which is the witness
callers get.  It is the only contraction search: ``hadwiger`` asks it for
K_1, K_2, ... until one is missing and returns the largest order found with
its branch sets.  ``clique_number`` is the only branch and bound; the
vertex cover number is read off it on the complement.  Everything here is
exact and takes no size limit: the searches are exponential in the vertex
count, so callers decide which graphs are small enough.
"""

from __future__ import annotations

from .canon import canonical_word
from .families import complete
from .graphs import Graph, bits

BranchSets = tuple[frozenset[int], ...]


def _embed_subgraph(host: Graph, pattern: Graph) -> list[int] | None:
    """Map pattern vertices to distinct host vertices preserving edges.

    Returns ``image`` with ``image[p]`` the host vertex for pattern vertex p,
    or None.  Ordinary subgraph embedding: host may have extra edges.
    Pattern vertices are placed by degree, highest first; each one tries,
    ascending, the unused host vertices of large enough degree adjacent to
    every image of an earlier pattern neighbour, so the first image found
    is the least in that order.
    """
    p_order = sorted(pattern.vertices(), key=pattern.degree, reverse=True)
    adj = host.adj
    # per step: the host vertices of large enough degree, the earlier steps adjacent
    fits = [sum(1 << v for v in host.vertices() if host.degree(v) >= pattern.degree(p))
            for p in p_order]
    needed = [[t for t in range(idx) if pattern.has_edge(p, p_order[t])]
              for idx, p in enumerate(p_order)]
    steps = len(p_order)
    chosen = [0] * steps
    # a step's candidates are set on the way down to it; step 0 has no constraint
    candidates = list(fits)
    used = 0
    idx = 0
    while idx < steps:
        c = candidates[idx]
        if not c:
            idx -= 1
            if idx < 0:
                return None
            used ^= 1 << chosen[idx]
            continue
        low = c & -c
        candidates[idx] = c ^ low
        chosen[idx] = low.bit_length() - 1
        used |= low
        idx += 1
        if idx < steps:
            c = fits[idx] & ~used
            for t in needed[idx]:
                c &= adj[chosen[t]]
            candidates[idx] = c
    image = [0] * (pattern.n + 1)
    for p, v in zip(p_order, chosen):
        image[p] = v
    return image


def _width_bound(g: Graph) -> int:
    """Width of a least-degree elimination order: an upper bound on tw(g),
    exact when tw(g) <= 2 (a vertex of degree <= 2 is always there, and
    eliminating it is a contraction)."""
    adj = list(g.adj)
    alive = g.full_mask
    width = 0
    while alive:
        v = min(bits(alive), key=lambda u: (adj[u] & alive).bit_count())
        nbrs = adj[v] & alive
        width = max(width, nbrs.bit_count())
        alive &= ~(1 << v)
        for u in bits(nbrs):
            adj[u] |= nbrs & ~(1 << u)
    return width


def has_minor(g: Graph, h: Graph) -> tuple[bool, BranchSets | None]:
    """Decide whether h is a minor of g; on success return branch sets.

    The witness is one connected branch set per pattern vertex (in pattern
    vertex order), pairwise disjoint, with an original edge of g between the
    branch sets of every pattern edge.
    """
    if h.n > g.n or h.num_edges() > g.num_edges():
        return False, None
    if h.n == 0:
        return True, ()
    least = min(map(h.degree, h.vertices()))
    seen: set[tuple[int, int]] = set()

    def dfs(cur: Graph, blobs: list[frozenset[int]]) -> BranchSets | None:
        if cur.n < h.n or cur.num_edges() < h.num_edges():
            return None
        # a minor of cur has treewidth <= tw(cur) <= width, and tw(h) >= least
        if _width_bound(cur) < least:
            return None
        image = _embed_subgraph(cur, h)
        if image is not None:
            return tuple(blobs[image[p] - 1] for p in h.vertices())
        # a class already in ``seen`` had no embedding either: embedding first
        # changes only the work
        key = (cur.n, canonical_word(cur))
        if key in seen:
            return None
        seen.add(key)
        for u, v in cur.edges():
            nxt = cur.contract_edge(u, v)
            merged = blobs[u - 1] | blobs[v - 1]
            nxt_blobs = [merged if w == u else blobs[w - 1]
                         for w in cur.vertices() if w != v]
            found = dfs(nxt, nxt_blobs)
            if found is not None:
                return found
        return None

    witness = dfs(g, [frozenset({v}) for v in g.vertices()])
    # the recursive helper's closure holds it: drop the cycle, not wait for gc
    del dfs
    return (witness is not None), witness


def clique_number(g: Graph) -> int:
    """Exact maximum clique size via branch and bound on bitsets."""
    best = 0

    def grow(clique_size: int, candidates: int) -> None:
        nonlocal best
        if clique_size + candidates.bit_count() <= best:
            return
        if not candidates:
            best = max(best, clique_size)
            return
        while candidates:
            if clique_size + candidates.bit_count() <= best:
                return
            v = (candidates & -candidates).bit_length() - 1
            candidates &= ~(1 << v)
            grow(clique_size + 1, candidates & g.adj[v])

    grow(0, g.full_mask)
    # the recursive helper's closure holds it: drop the cycle, not wait for gc
    del grow
    return best


def hadwiger(g: Graph) -> tuple[int, BranchSets]:
    """Largest p such that g has a complete minor on p vertices, with the
    branch sets of one such minor (found by ``has_minor`` on K_p)."""
    p, witness = 0, ()
    while True:
        hit, branches = has_minor(g, complete(p + 1))
        if not hit:
            return p, witness
        p, witness = p + 1, branches


def vertex_cover_number(g: Graph) -> int:
    """Minimum number of vertices meeting every edge: n minus the largest
    independent set, which is a clique of the complement graph."""
    return g.n - clique_number(g.complement())
