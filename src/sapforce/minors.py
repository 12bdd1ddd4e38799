"""Minor containment, Hadwiger number, clique number, and vertex cover.

``has_minor`` searches the contraction space of the host graph depth first,
on plain bitset states: a vertex count, an adjacency list, and one branch
set per vertex, a bitset of original vertices.  No ``Graph`` is built per
state.  Each state's edges {u, v}, u < v, are contracted in ascending
order, v merged into u by the kernel behind ``Graph.contract_edge``.  The
branch sets stay sorted by least original vertex (the merged set keeps u's
place and u's least vertex, and the sets above v move down in order), so
the set of branch sets fixes the labelled state: it is the quotient of the
host by that partition, whatever contraction order reached it.

Every state is first refused if the pattern's least degree (a lower bound
on its treewidth) exceeds the width of a least-degree elimination of the
state (an upper bound on the state's): treewidth does not grow under
minors.  The bound is exact up to width 2, so a search for K3 or K4
refuses every state without that minor at once.  Otherwise the search
looks for a subgraph embedding of the pattern at the state; a hit is
translated back into disjoint connected branch sets of the original graph,
which is the witness callers get.  Two exact prunings leave the first
witness as it would be without them:

- The memo.  A state without an embedding is skipped if a state with the
  same vertex count and canonical word has already failed, its whole
  subtree searched without a hit.  Failed states are recorded post-order,
  and a word is computed only once a state with the same vertex count has
  failed.  This skips exactly what memoizing every state on arrival would:
  a state's descendants have fewer vertices, so an earlier state of its
  class is never its ancestor, and had that state's subtree not failed,
  the search would have stopped.  A search for K3 or K4 computes no word,
  since no state that passes the width test fails there.
- The twin rule.  When two pattern vertices have the same neighbours apart
  from each other, the later one in the embedding's step order must get
  the greater host vertex.  Swapping the images of twins gives another
  embedding, earlier in the order the backtrack tries them, so the first
  embedding found keeps the rule and is unchanged.  This removes K_p's p!
  symmetry and the twins of the T3 family members.

It is the only contraction search: ``hadwiger`` asks it for K_w, K_{w+1},
... from the clique number w (each smaller clique is a subgraph) until one
is missing, and returns the largest order found with its branch sets.
``clique_number`` is the only branch and bound; the vertex cover number is
read off it on the complement.  Everything here is exact and takes no size
limit: the searches are exponential in the vertex count, so callers decide
which graphs are small enough.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import canon
from .families import complete
from .graphs import Graph, _contract, bits

BranchSets = tuple[frozenset[int], ...]


class _Plan(NamedTuple):
    """A pattern's embedding steps, built once per search."""

    #: pattern vertices by degree, highest first: the step order
    order: list[int]
    #: the degree of each step's pattern vertex, so non-increasing
    degrees: list[int]
    #: per step, the earlier steps whose pattern vertices are adjacent to it
    needed: list[list[int]]
    #: per step, the nearest earlier step of a twin, or -1
    twin: list[int]


def _plan(h: Graph) -> _Plan:
    """The embedding steps of pattern h."""
    adj = h.adj
    deg = [a.bit_count() for a in adj]
    order = sorted(h.vertices(), key=deg.__getitem__, reverse=True)
    needed = [[t for t in range(i) if adj[p] >> order[t] & 1] for i, p in enumerate(order)]
    # p and q are twins when N(p) - q == N(q) - p
    twin = [next((t for t in reversed(range(i))
                  if adj[p] & ~(1 << order[t]) == adj[order[t]] & ~(1 << p)), -1)
            for i, p in enumerate(order)]
    return _Plan(order, [deg[p] for p in order], needed, twin)


def _embed_subgraph(n: int, adj: Sequence[int], deg: Sequence[int],
                    plan: _Plan) -> list[int] | None:
    """Map the pattern's vertices to distinct host vertices preserving edges.

    The host is ``adj`` on vertices 1..n, with degrees ``deg``.  Returns
    ``image`` with ``image[p]`` the host vertex for pattern vertex p, or
    None.  Ordinary subgraph embedding: the host may have extra edges.
    Each step tries, ascending, the unused host vertices of large enough
    degree adjacent to every image of an earlier pattern neighbour, and
    above the image of its nearest earlier twin (the module docstring's
    twin rule), so the first image found is the least in that order.
    """
    order, degrees, needed, twin = plan
    # per step: the host vertices of large enough degree
    fits = []
    fit, last = 0, -1
    for d in degrees:
        if d != last:
            fit, last = 0, d
            for v in range(1, n + 1):
                if deg[v] >= d:
                    fit |= 1 << v
        fits.append(fit)
    steps = len(order)
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
            t = twin[idx]
            if t >= 0:
                c &= -(2 << chosen[t])  # the vertices above the twin's image
            candidates[idx] = c
    image = [0] * (steps + 1)
    for p, v in zip(order, chosen):
        image[p] = v
    return image


def _width_bound(n: int, adj: Sequence[int]) -> int:
    """Width of a least-degree elimination order of ``adj`` on vertices
    1..n: an upper bound on its treewidth, exact when that is <= 2 (a
    vertex of degree <= 2 is always there, and eliminating it is a
    contraction)."""
    adj = list(adj)
    alive = (1 << (n + 1)) - 2
    width = 0
    # k vertices left have degree < k, so at most width once k <= width + 1
    while alive.bit_count() > width + 1:
        # the first alive vertex of least alive degree
        rest, least = alive, n
        while rest:
            low = rest & -rest
            rest ^= low
            d = (adj[low.bit_length() - 1] & alive).bit_count()
            if d < least:
                least, pick = d, low
        nbrs = adj[pick.bit_length() - 1] & alive
        width = max(width, least)
        alive ^= pick
        rest = nbrs
        while rest:
            low = rest & -rest
            rest ^= low
            adj[low.bit_length() - 1] |= nbrs ^ low
    return width


def has_minor(g: Graph, h: Graph) -> tuple[bool, BranchSets | None]:
    """Decide whether h is a minor of g; on success return branch sets.

    The witness is one connected branch set per pattern vertex (in pattern
    vertex order), pairwise disjoint, with an original edge of g between the
    branch sets of every pattern edge.

    Memo rule: a state is skipped when a state with as many vertices and
    the same canonical word has failed before it.  The first state to fail
    at a vertex count keeps its adjacency, and the words are computed only
    when a second state of that count arrives; every later failure adds its
    word.  Sound, and the witness unchanged, because a state's verdict
    depends only on its class, an earlier state of the class is never an
    ancestor (contraction lowers the vertex count) and has therefore failed,
    and the branch sets, sorted by least original vertex, fix each labelled
    state, so the search order and the first hit are those of the
    unpruned search.  Twin rule: images of pattern twins ascend in step
    order, since swapping two twins' images gives an embedding the
    backtrack meets earlier (see the module docstring).
    """
    hm = h.num_edges()
    if h.n > g.n or hm > g.num_edges():
        return False, None
    if h.n == 0:
        return True, ()
    plan = _plan(h)
    hn, least = h.n, plan.degrees[-1]
    first_failed: dict[int, Sequence[int]] = {}
    failed_words: dict[int, set[int]] = {}

    def dfs(n: int, adj: list[int], blobs: list[int]) -> BranchSets | None:
        if n < hn:
            return None
        deg = [a.bit_count() for a in adj]
        if sum(deg) < 2 * hm:
            return None
        # a minor of the state has treewidth <= its width, and tw(h) >= least;
        # the width is at least the state's least degree
        if min(deg[1:]) < least and _width_bound(n, adj) < least:
            return None
        image = _embed_subgraph(n, adj, deg, plan)
        if image is not None:
            return tuple(frozenset(bits(blobs[image[p]])) for p in range(1, hn + 1))
        word = None
        if n in first_failed:
            words = failed_words.get(n)
            if words is None:
                words = failed_words[n] = {canon._search(n, first_failed[n])[1]}
            word = canon._search(n, adj)[1]
            if word in words:
                return None
        for u in range(1, n):
            later = adj[u] >> (u + 1) << (u + 1)
            while later:
                low = later & -later
                later ^= low
                v = low.bit_length() - 1
                nxt_blobs = blobs[:v] + blobs[v + 1:]
                nxt_blobs[u] = blobs[u] | blobs[v]
                found = dfs(n - 1, _contract(adj, u, v), nxt_blobs)
                if found is not None:
                    return found
        # the whole subtree failed
        if word is None:
            first_failed[n] = adj
        else:
            words.add(word)
        return None

    witness = dfs(g.n, list(g.adj), [0] + [1 << v for v in g.vertices()])
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
    branch sets of one such minor (found by ``has_minor`` on K_p).  The
    search starts at the clique number, a hit at the root."""
    p = clique_number(g)
    witness = has_minor(g, complete(p))[1]
    while True:
        hit, branches = has_minor(g, complete(p + 1))
        if not hit:
            return p, witness
        p, witness = p + 1, branches


def vertex_cover_number(g: Graph) -> int:
    """Minimum number of vertices meeting every edge: n minus the largest
    independent set, which is a clique of the complement graph."""
    return g.n - clique_number(g.complement())
