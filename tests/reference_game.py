"""The non-edge game rebuilt from its coloring before every move.

The library's closure keeps one position per call and re-scans only what
the last move can change.  These functions rebuild everything from the
coloring at every step instead; the tests require both to give the same
final coloring and the same trace, move for move.  ``reference_sap_closure``
with an ``rng`` picks a uniformly random legal move at every step, drawing
from the full legal move list in policy order.
"""

from sapforce.graphs import bits
from sapforce.sapgame import NonEdgeColoring, OddCycleForce, TripleForce
from sapforce.zeroforcing import CONVENTIONAL_RULES, Rule, single_forces


def reference_white_adjacency(g, coloring):
    white_adj = [0] * (g.n + 1)
    for u, v in coloring.white_nonedges():
        white_adj[u] |= 1 << v
        white_adj[v] |= 1 << u
    return white_adj


def reference_odd_cycle_applications(g, coloring):
    white_adj = reference_white_adjacency(g, coloring)
    out = []
    for i in g.vertices():
        nbhd = g.adj[i]
        seen = 0
        for v in bits(nbhd):
            if seen >> v & 1:
                continue
            comp = 1 << v
            frontier = comp
            while frontier:
                nxt = 0
                for w in bits(frontier):
                    nxt |= white_adj[w] & nbhd
                frontier = nxt & ~comp
                comp |= frontier
            seen |= comp
            size = comp.bit_count()
            if size < 3 or size % 2 == 0:
                continue
            if any((white_adj[w] & nbhd & comp).bit_count() != 2 for w in bits(comp)):
                continue
            start = (comp & -comp).bit_length() - 1
            cycle = [start]
            prev = None
            cur = start
            while len(cycle) < size:
                nbrs = [w for w in bits(white_adj[cur] & nbhd & comp) if w != prev]
                prev, cur = cur, min(nbrs)
                cycle.append(cur)
            out.append(OddCycleForce(i, tuple(cycle)))
    return out


def reference_local_blue_mask(g, coloring, k):
    mask = g.adj[k] | 1 << k
    for u, v in coloring.blue_nonedges:
        if u == k:
            mask |= 1 << v
        elif v == k:
            mask |= 1 << u
    return mask


def reference_local_blue_set(g, coloring, k):
    return frozenset(bits(reference_local_blue_mask(g, coloring, k)))


def reference_allows(g, cover, k, i):
    if i not in cover or i == k:
        return True
    return g.has_edge(i, k)


def reference_legal_moves(g, coloring, rule, cover=()):
    if rule not in CONVENTIONAL_RULES:
        raise ValueError("the non-edge game runs local games under Z, Zl, or Zplus")

    def moves():
        yield from reference_odd_cycle_applications(g, coloring)
        local_forces = {}
        for a, b in sorted(coloring.white_nonedges()):
            for k, j in ((a, b), (b, a)):
                if k not in local_forces:
                    local_forces[k] = single_forces(g, reference_local_blue_mask(g, coloring, k), rule)
                for f in local_forces[k]:
                    if f.target == j and reference_allows(g, cover, k, f.source):
                        yield TripleForce(k, f.source, j)

    return moves()


def reference_start(g, blue=(), cover=()):
    """The start ``blue`` plus every non-edge touching ``cover``."""
    touching = [e for e in g.non_edges() if set(e) & set(cover)]
    return NonEdgeColoring.start(g, [*blue, *touching])


def reference_sap_closure(g, blue=(), rule=Rule.Z, cover=(), rng=None):
    coloring = reference_start(g, blue, cover)
    trace = []
    while True:
        moves = reference_legal_moves(g, coloring, rule, cover)
        if rng is None:
            move = next(moves, None)
        else:
            legal = list(moves)
            move = rng.choice(legal) if legal else None
        if move is None:
            return coloring, trace
        coloring = NonEdgeColoring(g, coloring.blue_nonedges | set(move.colored()))
        trace.append(move)
