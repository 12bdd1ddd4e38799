"""Zero forcing games played on the non-edges of a graph.

A position colors some non-edges blue.  A white non-edge {j,k} turns blue
when, in the local game at k (the conventional game whose initial blue
vertices are N[k] plus the endpoints of blue non-edges at k), some vertex i
forces j in a single step; this is the forcing triple (k: i->j).  Forces are
deliberately restricted to the first round of the local game: any deeper
force chain is reproduced by iterating triples at the same k, because each
colored non-edge at k enlarges the local start set, while single steps keep
a pivot structure that the vertex-cover variant depends on.

The second rule colors a whole odd cycle at once: if the white non-edges
inside the neighborhood of some vertex i have a component that is an odd
cycle C, every non-edge of C turns blue.  The vertex-cover variant starts
from all non-edges touching a chosen vertex set B and forbids triples whose
forcer i lies in B with {i,k} a non-edge; the odd cycle rule is never
restricted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, NonEdgePair, _pair, bits, sorted_non_edge
from .zeroforcing import (CONVENTIONAL_RULES, Rule, single_forces,
                          smallest_winning_set)


@dataclass(frozen=True)
class NonEdgeColoring:
    """Blue/white partition of the non-edges of ``host``."""

    host: Graph
    blue_nonedges: frozenset[NonEdgePair]

    def __post_init__(self) -> None:
        for u, v in self.blue_nonedges:
            sorted_non_edge(self.host, u, v)
            if (u, v) != _pair(u, v):
                raise ValueError(f"non-edge {{{u},{v}}} must be stored sorted")

    @staticmethod
    def start(host: Graph, blue: Iterable[NonEdgePair] = ()) -> "NonEdgeColoring":
        return NonEdgeColoring(host, frozenset(_pair(u, v) for u, v in blue))

    def white_nonedges(self) -> list[NonEdgePair]:
        return [e for e in self.host.non_edges() if e not in self.blue_nonedges]

    def is_complete(self) -> bool:
        return len(self.blue_nonedges) == len(self.host.non_edges())

    def with_blue(self, extra: Iterable[NonEdgePair]) -> "NonEdgeColoring":
        return NonEdgeColoring(self.host, self.blue_nonedges | {_pair(u, v) for u, v in extra})


@dataclass(frozen=True)
class VcRestriction:
    """Forcer veto for the vertex-cover game: blocks (k: i->j) when the
    forcer i is a chosen vertex and {i,k} is a non-edge of the host."""

    vertices: frozenset[int] = frozenset()

    def allows(self, host: Graph, k: int, i: int) -> bool:
        if i not in self.vertices or i == k:
            return True
        return host.has_edge(i, k)


@dataclass(frozen=True)
class TripleForce:
    """Forcing triple (k: i->j); colors the non-edge {j,k}."""

    k: int
    i: int
    j: int

    def colored(self) -> tuple[NonEdgePair, ...]:
        return (_pair(self.j, self.k),)

    def __str__(self) -> str:
        a, b = _pair(self.j, self.k)
        return f"({self.k}: {self.i}->{self.j}) colors {{{a},{b}}}"


@dataclass(frozen=True)
class OddCycleForce:
    """Odd cycle application (i->C); colors every non-edge of the cycle."""

    i: int
    cycle: tuple[int, ...]

    def colored(self) -> tuple[NonEdgePair, ...]:
        c = self.cycle
        return tuple(_pair(c[t], c[(t + 1) % len(c)]) for t in range(len(c)))

    def __str__(self) -> str:
        body = ",".join(f"{{{a},{b}}}" for a, b in sorted(self.colored()))
        return f"({self.i}->C) colors {body}"


SapForce = TripleForce | OddCycleForce


def format_sap_trace(trace: Sequence[SapForce]) -> str:
    return "\n".join(f"step {t}: {f}" for t, f in enumerate(trace, start=1))


def local_blue_mask(g: Graph, coloring: NonEdgeColoring, k: int) -> int:
    mask = g.closed_neighborhood(k)
    for u, v in coloring.blue_nonedges:
        if u == k:
            mask |= 1 << v
        elif v == k:
            mask |= 1 << u
    return mask


def local_blue_set(g: Graph, coloring: NonEdgeColoring, k: int) -> frozenset[int]:
    """Initial blue vertices of the local game at k: N[k] plus blue partners."""
    return frozenset(bits(local_blue_mask(g, coloring, k)))


def _white_adjacency(g: Graph, coloring: NonEdgeColoring) -> list[int]:
    white_adj = [0] * (g.n + 1)
    for u, v in coloring.white_nonedges():
        white_adj[u] |= 1 << v
        white_adj[v] |= 1 << u
    return white_adj


def odd_cycle_applications(g: Graph, coloring: NonEdgeColoring) -> list[OddCycleForce]:
    """All (i->C) moves: components of the white graph inside N(i) that are
    odd cycles, listed with i ascending and cycles by least vertex."""
    white_adj = _white_adjacency(g, coloring)
    out: list[OddCycleForce] = []
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


def _legal_moves(
    g: Graph,
    coloring: NonEdgeColoring,
    rule: Rule,
    restriction: VcRestriction,
) -> Iterator[SapForce]:
    """Every legal move in policy order: odd cycle applications (vertices
    ascending), then forcing triples lexicographic by (non-edge, local-game
    vertex, forcer).  The rule is checked here, before any move is made."""
    if rule not in CONVENTIONAL_RULES:
        raise ValueError("the non-edge game runs local games under Z, Zl, or Zplus")

    def moves() -> Iterator[SapForce]:
        yield from odd_cycle_applications(g, coloring)
        # first-round forces of the local game at k, computed once per k
        local_forces: dict[int, list] = {}
        for a, b in sorted(coloring.white_nonedges()):
            for k, j in ((a, b), (b, a)):
                if k not in local_forces:
                    local_forces[k] = single_forces(g, local_blue_mask(g, coloring, k), rule)
                for f in local_forces[k]:
                    if f.target == j and restriction.allows(g, k, f.source):
                        yield TripleForce(k, f.source, j)

    return moves()


def applicable_triples(
    g: Graph,
    coloring: NonEdgeColoring,
    rule: Rule,
    restriction: VcRestriction = VcRestriction(),
) -> list[TripleForce]:
    """Every forcing triple available at this position, lexicographic by
    (non-edge, local-game vertex, forcer)."""
    return [m for m in _legal_moves(g, coloring, rule, restriction)
            if isinstance(m, TripleForce)]


def applicable_forces(
    g: Graph,
    coloring: NonEdgeColoring,
    rule: Rule,
    restriction: VcRestriction = VcRestriction(),
) -> list[SapForce]:
    """All moves at this position: odd cycle applications, then triples."""
    return list(_legal_moves(g, coloring, rule, restriction))


def sap_closure(
    g: Graph,
    blue: Iterable[NonEdgePair] | NonEdgeColoring = (),
    rule: Rule = Rule.Z,
    restriction: VcRestriction = VcRestriction(),
    rng: random.Random | None = None,
) -> tuple[NonEdgeColoring, list[SapForce]]:
    """Run the game to a fixed point.

    Deterministic by default: every step makes the first legal move in
    policy order.  Passing ``rng`` picks a uniformly random legal move at
    every step instead, which is the order-exploration mode used to probe
    order independence empirically.
    """
    coloring = blue if isinstance(blue, NonEdgeColoring) else NonEdgeColoring.start(g, blue)
    if coloring.host != g:
        raise ValueError("coloring belongs to a different host graph")
    trace: list[SapForce] = []
    while True:
        moves = _legal_moves(g, coloring, rule, restriction)
        if rng is None:
            move = next(moves, None)
        else:
            legal = list(moves)
            move = rng.choice(legal) if legal else None
        if move is None:
            return coloring, trace
        coloring = coloring.with_blue(move.colored())
        trace.append(move)


def replay_trace(
    g: Graph,
    blue: Iterable[NonEdgePair],
    trace: Sequence[SapForce],
    rule: Rule,
    restriction: VcRestriction = VcRestriction(),
) -> NonEdgeColoring:
    """Re-apply a recorded trace, checking every move is legal at its step."""
    coloring = NonEdgeColoring.start(g, blue)
    for t, move in enumerate(trace, start=1):
        if move not in _legal_moves(g, coloring, rule, restriction):
            raise ValueError(f"step {t}: {move} is not applicable")
        coloring = coloring.with_blue(move.colored())
    return coloring


def is_zsap_zero(g: Graph, rule: Rule = Rule.Z) -> bool:
    """Does the empty start color every non-edge?"""
    final, _ = sap_closure(g, (), rule)
    return final.is_complete()


def sap_forcing_number(g: Graph, rule: Rule = Rule.Z) -> tuple[int, frozenset[NonEdgePair]]:
    """Minimum number of initially blue non-edges that force all non-edges."""
    return smallest_winning_set(
        g.non_edges(), lambda combo: sap_closure(g, combo, rule)[0].is_complete())


def complementary_closure(g: Graph, vertices: Iterable[int]) -> frozenset[NonEdgePair]:
    """All non-edges incident to the given vertex set."""
    vs = set(vertices)
    return frozenset(e for e in g.non_edges() if e[0] in vs or e[1] in vs)


def vc_forcing_number(g: Graph, rule: Rule = Rule.Z) -> tuple[int, frozenset[int]]:
    """Minimum vertex set whose complementary closure forces all non-edges
    under the restricted game."""
    if rule not in (Rule.Z, Rule.ZL):
        raise ValueError("the vertex-cover game is defined for rules Z and Zl")

    def wins(combo: tuple[int, ...]) -> bool:
        chosen = frozenset(combo)
        start = complementary_closure(g, chosen)
        return sap_closure(g, start, rule, VcRestriction(chosen))[0].is_complete()

    return smallest_winning_set(g.vertices(), wins)
