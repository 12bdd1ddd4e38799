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
cycle C, every non-edge of C turns blue.  The vertex-cover game takes one
vertex set B, its cover: it starts from all non-edges touching B as well and
forbids triples whose forcer i lies in B with {i,k} a non-edge; the odd
cycle rule is never restricted.

One position (``_Game``) is read by every query and result: the legal
moves in policy order (``_Game.moves``, the one statement of that order)
and the coloring (``_Game.coloring``) that ``sap_closure`` and
``replay_trace`` return.  A closure updates it in place.  One exact fact
says what a move can change.  The local game at k starts from every vertex
but k's white partners, so coloring {j,k} changes the local games at j and
k and no other, and only those two are re-read.  The odd cycles are not
kept: they are scanned when the moves are read.

The move order does not change where a closure ends, although the odd cycle
rule is not monotone (a triple that colors part of a cycle removes that
cycle move).  Lemma: let T be a position with no legal move, and P a play
(under Z, Zl or Zplus, with or without a cover's vetoes) from a start
whose blue non-edges are all blue at T.  Then every move of P colors only
non-edges blue at T.  Proof: take P's first move m that colors a non-edge
white at T, played at a position B; every non-edge blue at B is blue at T.
  - m is a triple (k: i->j).  Single-step forcing is monotone in the local
    start set: the blue vertices only grow, so i's white neighbors (and
    under Zplus the white components) only shrink, and the vetoes are
    fixed.  So m is legal at T, a contradiction.
  - m is (i->C) and every non-edge of C is white at T.  White only shrinks,
    so C is still an odd cycle component of the white graph inside N(i),
    and m is legal at T, a contradiction.
  - m is (i->C) and some non-edge of C is blue at T.  Walking around C
    gives a vertex c whose one C-non-edge is blue at T and whose other,
    {c,d}, is white.  At B, C was a component, so c's white partners in
    N(i) were its two C-neighbors; at T only d is left.  In the local game
    at c, i is blue (i ~ c), not vetoed (a veto needs the non-edge {i,c}),
    and d is its only white neighbor, so the triple (c: i->d) is legal at T
    under Z, hence under Zl and Zplus, a contradiction.
Corollary: from one start, every maximal play ends in the same coloring,
under each of Z, Zl and Zplus, with or without a cover, as each end lies
inside the other.  So ``sap_closure`` plays the first legal move in policy
order, the one order that gives a trace, and ``_Game.close`` plays the
cheapest order: triples to a stall, then one cycle move, and again.  Its
triples come in rounds, every target of the local games at once, and the
odd cycles are scanned only at a stall.  It ends in the same coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from typing import Collection, Iterable, Iterator, Sequence

from .graphs import (Graph, NonEdgePair, _grow, _pair, _vertex_mask, bits,
                     sorted_non_edge)
from .zeroforcing import (CONVENTIONAL_RULES, Rule, _first_winner, _forcers,
                          _targets, smallest_winning_set)


@dataclass(frozen=True)
class NonEdgeColoring:
    """Blue/white partition of the non-edges of ``host``."""

    host: Graph
    blue_nonedges: frozenset[NonEdgePair]

    def __post_init__(self) -> None:
        n, adj = self.host.n, self.host.adj
        for u, v in self.blue_nonedges:
            if not 1 <= u < v <= n or adj[u] >> v & 1:
                sorted_non_edge(self.host, u, v)
                raise ValueError(f"non-edge {{{u},{v}}} must be stored sorted")

    @staticmethod
    def start(host: Graph, blue: Iterable[NonEdgePair] = ()) -> "NonEdgeColoring":
        return NonEdgeColoring(host, frozenset(_pair(u, v) for u, v in blue))

    def white_nonedges(self) -> list[NonEdgePair]:
        return [e for e in self.host.non_edges() if e not in self.blue_nonedges]

    def is_complete(self) -> bool:
        n = self.host.n
        return len(self.blue_nonedges) == n * (n - 1) // 2 - self.host.num_edges()


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


def _odd_cycles(nbhd: int, white: list[int]) -> list[tuple[int, ...]] | None:
    """Components of the white graph inside ``nbhd`` that are odd cycles, by
    least vertex; each starts at its least vertex, then its lesser neighbor.
    None when fewer than three white edges lie inside ``nbhd``: moves only
    remove white edges, so no odd cycle can appear there later either."""
    # a component is a cycle iff every vertex in it has two white neighbors
    ring = 0
    ends = 0
    rest = nbhd
    while rest:
        low = rest & -rest
        rest ^= low
        degree = (white[low.bit_length() - 1] & nbhd).bit_count()
        ends += degree
        if degree == 2:
            ring |= low
    if ends < 6:
        return None
    out: list[tuple[int, ...]] = []
    todo = ring
    while todo:
        comp, reach = _grow(white, todo & -todo, ring)
        todo &= ~comp
        size = comp.bit_count()
        if size % 2 == 0 or reach & nbhd & ~comp:
            continue
        prev = 0
        cur = (comp & -comp).bit_length() - 1
        cycle = [cur]
        while len(cycle) < size:
            step = white[cur] & comp & ~(1 << prev)
            prev, cur = cur, (step & -step).bit_length() - 1
            cycle.append(cur)
        out.append(tuple(cycle))
    return out


def odd_cycle_applications(g: Graph, blue: Iterable[NonEdgePair]) -> list[OddCycleForce]:
    """All (i->C) moves from the start ``blue``: components of the white
    graph inside N(i) that are odd cycles, listed with i ascending and
    cycles by least vertex."""
    return list(takewhile(lambda move: type(move) is OddCycleForce,
                          _start(g, blue, Rule.Z, ()).moves()))


class _Game:
    """A position of the non-edge game; closures update it in place.

    The start colors ``blue`` and every non-edge touching the bitset
    ``cover``.  Holds the white-adjacency masks, per vertex the targets of
    its local game's first round as one bitset, and as one bitset
    ``may_cycle``, the vertices whose neighborhood can still hold an odd
    cycle.  The local game at k has white set ``white[k]``, so
    ``zeroforcing._targets`` reads those targets off k's white partners, not
    off every blue vertex; a move's forcers are derived when they are asked
    for.  Vetoed forcers, those in ``cover`` that are not adjacent to k,
    never count.  A move marks stale only the local games it can change (see
    the module docstring), and each query re-reads those first; the odd
    cycles are scanned when the moves are read.
    """

    def __init__(self, g: Graph, blue: Iterable[NonEdgePair], rule: Rule = Rule.Z,
                 cover: int = 0) -> None:
        self.g = g
        self.set_rule(rule)
        # white[v]: the white non-edge partners of v; a non-edge touching
        # the cover is blue
        uncovered = g.full_mask & ~cover
        self.white = white = [0] + [
            0 if cover >> v & 1 else uncovered & ~g.closed_neighborhood(v)
            for v in g.vertices()]
        for u, v in blue:
            white[u] &= ~(1 << v)
            white[v] &= ~(1 << u)
        # allowed[k]: the vertices not vetoed as forcers in the local game at k
        self.allowed = [0] + [g.full_mask & ~(cover & ~g.closed_neighborhood(k))
                              for k in g.vertices()]
        self.may_cycle = g.full_mask
        # hits[k]: the vertices forced in the first round of the local game at k
        self.hits = [0] * (g.n + 1)

    def set_rule(self, rule: Rule) -> None:
        """Play the local games under ``rule`` from now on: every one is
        re-read; the odd cycles do not depend on the rule."""
        if rule not in CONVENTIONAL_RULES:
            raise ValueError("the non-edge game runs local games under Z, Zl, or Zplus")
        self.rule = rule
        self.stale_forces = self.g.full_mask

    def _refresh_forces(self) -> None:
        adj, rule, white, allowed = self.g.adj, self.rule, self.white, self.allowed
        stale = self.stale_forces
        while stale:
            low = stale & -stale
            stale ^= low
            k = low.bit_length() - 1
            w = white[k]
            self.hits[k] = _targets(adj, w, allowed[k] & ~w, rule) if w else 0
        self.stale_forces = 0

    def _cycle_moves(self) -> Iterator[OddCycleForce]:
        """The odd cycle applications in policy order, scanned as they are
        read: the vertex i ascending, its cycles by least vertex.  A vertex
        whose neighborhood holds too few white non-edges leaves
        ``may_cycle`` for good."""
        adj, white = self.g.adj, self.white
        rest = self.may_cycle
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            if (found := _odd_cycles(adj[i], white)) is None:
                self.may_cycle &= ~low
                continue
            for c in found:
                yield OddCycleForce(i, c)

    def moves(self) -> Iterator[SapForce]:
        """Every legal move, lazily, in policy order; the policy plays the
        first.  Odd cycle applications come first, the vertex i ascending and
        its cycles by least vertex; then the forcing triples, lexicographic
        by (non-edge {a,b} with a < b, local-game vertex a before b, forcer),
        a Zl self-force after the other forcers of its target.  Play no move
        while the generator is still read."""
        yield from self._cycle_moves()
        self._refresh_forces()
        adj, rule, allowed = self.g.adj, self.rule, self.allowed
        hits, white = self.hits, self.white
        # bits are walked inline, and a non-edge forced at neither end is
        # skipped at once: ``sap_closure`` reads only the first move, and a
        # generator per walk costs more than the walk on small graphs
        for a in self.g.vertices():
            rest = white[a] >> (a + 1) << (a + 1)
            while rest:
                low = rest & -rest
                rest ^= low
                b = low.bit_length() - 1
                if not (hits[a] & low or hits[b] >> a & 1):
                    continue
                for k, j in ((a, b), (b, a)):
                    if hits[k] >> j & 1:
                        # the allowed forcers of j at k, and whether j forces
                        # itself under Zl
                        w = white[k]
                        forcers, itself = _forcers(adj, w, allowed[k] & ~w, rule, j)
                        while forcers:
                            bit = forcers & -forcers
                            forcers ^= bit
                            yield TripleForce(k, bit.bit_length() - 1, j)
                        if itself:
                            yield TripleForce(k, j, j)

    def play(self, move: SapForce) -> None:
        """Color the move's non-edges.  Coloring {u,v} changes the local
        games at u and v only."""
        # a triple colors {j,k}: read it off without building colored()
        for u, v in ((move.j, move.k),) if type(move) is TripleForce else move.colored():
            self.white[u] &= ~(1 << v)
            self.white[v] &= ~(1 << u)
            self.stale_forces |= 1 << u | 1 << v

    def close(self) -> bool:
        """Play until no move is legal; does every non-edge end blue?

        Plays triples to a stall, then one cycle move, and again.  Each round
        colors every triple target in ``hits`` at once: a triple stays legal
        while its non-edge is white, so each round is a play, and a non-edge
        forced from both ends is colored twice to the same masks.  The odd
        cycles are scanned only at a stall, up to the first one found.  By
        the lemma in the module docstring the play ends where
        ``sap_closure`` ends."""
        white, hits = self.white, self.hits
        while True:
            self._refresh_forces()
            touched = 0
            for k, hit in enumerate(hits):
                if hit:
                    # color {j,k} for every target j
                    white[k] &= ~hit
                    touched |= hit | 1 << k
                    clear_k = ~(1 << k)
                    while hit:
                        low = hit & -hit
                        hit ^= low
                        white[low.bit_length() - 1] &= clear_k
            if touched:
                self.stale_forces |= touched
                continue
            if (move := next(self._cycle_moves(), None)) is None:
                return not any(white)
            self.play(move)

    def coloring(self) -> NonEdgeColoring:
        """The position as a coloring: blue are the non-edges whose white
        bit is clear."""
        g, white = self.g, self.white
        return NonEdgeColoring(g, frozenset(
            (u, v) for u in g.vertices()
            for v in bits(g.full_mask >> (u + 1) << (u + 1) & ~g.adj[u] & ~white[u])))


def _start(g: Graph, blue: Iterable[NonEdgePair], rule: Rule,
           cover: Collection[int]) -> _Game:
    """The game position at the start, ``blue`` plus every non-edge touching
    ``cover``.  The one check of a start: a pair that is not a non-edge of g
    (``NonEdgeColoring.start``), a cover vertex outside g (``_vertex_mask``)
    or a rule but Z, Zl and Zplus (``_Game``) raises ``ValueError``."""
    return _Game(g, NonEdgeColoring.start(g, blue).blue_nonedges, rule, _vertex_mask(g, cover))


def sap_closure(g: Graph, blue: Iterable[NonEdgePair] = (), rule: Rule = Rule.Z,
                cover: Collection[int] = ()) -> tuple[NonEdgeColoring, list[SapForce]]:
    """Run the game to a fixed point, making the first legal move in policy
    order at every step; a nonempty ``cover`` plays the vertex-cover game on
    that vertex set."""
    game = _start(g, blue, rule, cover)
    trace: list[SapForce] = []
    while (move := next(game.moves(), None)) is not None:
        game.play(move)
        trace.append(move)
    return game.coloring(), trace


def replay_trace(
    g: Graph,
    blue: Iterable[NonEdgePair],
    trace: Sequence[SapForce],
    rule: Rule,
    cover: Collection[int] = (),
) -> NonEdgeColoring:
    """Re-apply a recorded trace, checking every move is legal at its step."""
    game = _start(g, blue, rule, cover)
    for t, move in enumerate(trace, start=1):
        if move not in game.moves():
            raise ValueError(f"step {t}: {move} is not applicable")
        game.play(move)
    return game.coloring()


def is_zsap_zero(g: Graph, rule: Rule = Rule.Z) -> bool:
    """Does the empty start color every non-edge?"""
    final, _ = sap_closure(g, (), rule)
    return final.is_complete()


def sap_forcing_number(g: Graph, rule: Rule = Rule.Z) -> tuple[int, frozenset[NonEdgePair]]:
    """Minimum number of initially blue non-edges that force all non-edges."""
    return smallest_winning_set(g.non_edges(), lambda combo: _Game(g, combo, rule).close())


def _winning_cover(g: Graph, rule: Rule, size: int) -> frozenset[int] | None:
    """The first cover of ``size`` vertices, in ``combinations`` order, whose
    vertex-cover game forces every non-edge, or None."""
    # covers are tried as sums of vertex bits, in the order of their vertices
    cover = _first_winner([1 << v for v in g.vertices()], size,
                          lambda cover: _Game(g, (), rule, sum(cover)).close())
    return None if cover is None else frozenset(b.bit_length() - 1 for b in cover)


def vc_forcing_number(g: Graph, rule: Rule = Rule.Z) -> tuple[int, frozenset[int]]:
    """Minimum vertex set whose vertex-cover game forces all non-edges."""
    if rule not in (Rule.Z, Rule.ZL):
        raise ValueError("the vertex-cover game is defined for rules Z and Zl")
    # the whole vertex set wins: every non-edge starts blue
    return next((size, cover) for size in range(g.n + 1)
                if (cover := _winning_cover(g, rule, size)) is not None)
