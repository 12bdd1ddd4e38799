"""The library's former contraction search, kept verbatim as the reference.

Every contraction state is a validated ``Graph``, and every state that
passes the width test and has no embedding is memoized by its canonical
word before its children are searched.  The tests require the library's
bitset search to give the same verdict and the same branch sets.
"""

from __future__ import annotations

from sapforce.canon import canonical_word
from sapforce.families import complete
from sapforce.graphs import Graph, bits

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


def hadwiger(g: Graph) -> tuple[int, BranchSets]:
    """Largest p such that g has a complete minor on p vertices, with the
    branch sets of one such minor (found by ``has_minor`` on K_p)."""
    p, witness = 0, ()
    while True:
        hit, branches = has_minor(g, complete(p + 1))
        if not hit:
            return p, witness
        p, witness = p + 1, branches
