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

A closure keeps one position (``_Game``) and updates it in place.  Two
exact facts say what a move can change.  The local game at k starts from
every vertex but k's white partners, so coloring {j,k} changes the local
games at j and k and no other.  The odd cycle rule at i sees only the white
non-edges with both ends in N(i), so coloring {j,k} changes it only at the
common neighbors of j and k.  Only those caches are re-scanned.  The game
itself is unchanged, and so is its policy: the odd cycle rule is not
monotone (a triple that colors part of a cycle removes that cycle move), so
a different move order could give a different trace, and the closure plays
exactly the first legal move in policy order at every step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .graphs import (Graph, NonEdgePair, _grow, _pair, _vertex_mask, bits,
                     sorted_non_edge)
from .zeroforcing import (CONVENTIONAL_RULES, Rule, _forcers, _targets,
                          smallest_winning_set)


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


def local_blue_set(g: Graph, blue: Iterable[NonEdgePair], k: int) -> frozenset[int]:
    """Initial blue vertices of the local game at k from the start ``blue``:
    every vertex but k's white partners."""
    _vertex_mask(g, (k,))
    return frozenset(bits(g.full_mask & ~_start(g, blue, Rule.Z, ())[1].white[k]))


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
    return _start(g, blue, Rule.Z, ())[1].cycle_moves()


class _Game:
    """A position of the non-edge game; closures update it in place move by move.

    The start colors ``blue`` and every non-edge touching the bitset
    ``cover``.  Holds the white-adjacency masks, and per vertex the odd
    cycles of the white graph inside its neighborhood and, as one bitset,
    the vertices its local game forces in its first round.  The local game
    at k has white set ``white[k]``, so ``zeroforcing._targets`` reads those
    targets off k's white partners, not off every blue vertex; a move's
    forcers are derived when they are asked for.  Vetoed forcers, those in
    ``cover`` that are not adjacent to k, never count.  A move marks stale
    only the caches it can change (see the module docstring); each query
    refreshes the stale ones first.
    """

    def __init__(self, g: Graph, blue: Iterable[NonEdgePair], rule: Rule = Rule.Z,
                 cover: int = 0) -> None:
        if rule not in CONVENTIONAL_RULES:
            raise ValueError("the non-edge game runs local games under Z, Zl, or Zplus")
        self.g = g
        self.rule = rule
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
        self.cycles: list[list[tuple[int, ...]]] = [[] for _ in range(g.n + 1)]
        self.has_cycle = 0
        self.may_cycle = g.full_mask
        # hits[k]: the vertices forced in the first round of the local game at k
        self.hits = [0] * (g.n + 1)
        # least[k]: the least non-edge forced at k; ``none`` when there is none
        self.none = (g.n + 1, g.n + 1)
        self.least = [self.none] * (g.n + 1)
        self.stale_cycles = g.full_mask
        self.stale_forces = g.full_mask

    def _refresh_cycles(self) -> None:
        adj, white, cycles = self.g.adj, self.white, self.cycles
        stale = self.stale_cycles & self.may_cycle
        while stale:
            low = stale & -stale
            stale ^= low
            i = low.bit_length() - 1
            found = _odd_cycles(adj[i], white)
            if found is None:
                self.may_cycle &= ~low
            cycles[i] = found or []
            if found:
                self.has_cycle |= low
            else:
                self.has_cycle &= ~low
        self.stale_cycles = 0

    def _refresh_forces(self) -> None:
        adj, rule, white, allowed = self.g.adj, self.rule, self.white, self.allowed
        stale = self.stale_forces
        while stale:
            low = stale & -stale
            stale ^= low
            k = low.bit_length() - 1
            w = white[k]
            hit = _targets(adj, w, allowed[k] & ~w, rule) if w else 0
            self.hits[k] = hit
            # the least non-edge forced at k is {k, its least target}
            j = (hit & -hit).bit_length() - 1
            self.least[k] = self.none if not hit else (j, k) if j < k else (k, j)
        self.stale_forces = 0

    def _forcers(self, k: int, j: int) -> tuple[int, bool]:
        """The allowed forcers of j in the local game at k as a bitset, and
        whether j forces itself under Zl."""
        w = self.white[k]
        return _forcers(self.g.adj, w, self.allowed[k] & ~w, self.rule, j)

    def first_move(self) -> SapForce | None:
        """The policy's move: the least vertex with an odd cycle, its cycle of
        least vertex; else the least white non-edge {a,b} forced at a (first
        allowed forcer), else at b."""
        self._refresh_cycles()
        if self.has_cycle:
            i = (self.has_cycle & -self.has_cycle).bit_length() - 1
            return OddCycleForce(i, self.cycles[i][0])
        self._refresh_forces()
        a, b = min(self.least)
        if a > self.g.n:
            return None
        # {a,b} is the least non-edge forced anywhere, so it is the least
        # one forced at a whenever a forces b
        k, j = (a, b) if self.least[a] == (a, b) else (b, a)
        forcers, _ = self._forcers(k, j)
        # no forcer from outside: j forces itself
        return TripleForce(k, (forcers & -forcers).bit_length() - 1 if forcers else j, j)

    def cycle_moves(self) -> list[OddCycleForce]:
        """Every odd cycle application, vertices ascending, cycles by least vertex."""
        self._refresh_cycles()
        return [OddCycleForce(i, c) for i in bits(self.has_cycle) for c in self.cycles[i]]

    def legal_moves(self) -> list[SapForce]:
        """Every legal move in policy order: odd cycle applications, then
        forcing triples lexicographic by (non-edge, local-game vertex, forcer),
        a Zl self-force after the other forcers of its target."""
        moves: list[SapForce] = list(self.cycle_moves())
        self._refresh_forces()
        hits = self.hits
        for a in self.g.vertices():
            for b in bits(self.white[a] >> (a + 1) << (a + 1)):
                for k, j in ((a, b), (b, a)):
                    if hits[k] >> j & 1:
                        forcers, itself = self._forcers(k, j)
                        moves += [TripleForce(k, i, j) for i in bits(forcers)]
                        if itself:
                            moves.append(TripleForce(k, j, j))
        return moves

    def play(self, move: SapForce) -> None:
        """Color the move's non-edges.  Coloring {u,v} changes the local games
        at u and v only, and the odd cycles only at common neighbors."""
        adj, white = self.g.adj, self.white
        # a triple colors {j,k}: read it off without building colored()
        pairs = ((move.j, move.k),) if type(move) is TripleForce else move.colored()
        for u, v in pairs:
            white[u] &= ~(1 << v)
            white[v] &= ~(1 << u)
            self.stale_forces |= 1 << u | 1 << v
            self.stale_cycles |= adj[u] & adj[v]


def _start(g: Graph, blue: Iterable[NonEdgePair], rule: Rule,
           cover: Collection[int]) -> tuple[NonEdgeColoring, _Game]:
    """The start coloring, ``blue`` plus every non-edge touching ``cover``,
    and the game position on it.  The one check of a start: a pair that is
    not a non-edge of g (``NonEdgeColoring.start``), a cover vertex outside
    g (``_vertex_mask``) or a rule but Z, Zl and Zplus (``_Game``) raises
    ``ValueError``."""
    coloring = NonEdgeColoring.start(g, blue)
    game = _Game(g, coloring.blue_nonedges, rule, _vertex_mask(g, cover))
    if cover:
        coloring = NonEdgeColoring(g, coloring.blue_nonedges | complementary_closure(g, cover))
    return coloring, game


def applicable_forces(
    g: Graph,
    blue: Iterable[NonEdgePair],
    rule: Rule,
    cover: Collection[int] = (),
) -> list[SapForce]:
    """All moves from the start ``blue``, with the non-edges touching
    ``cover`` blue as well: odd cycle applications, then triples."""
    return _start(g, blue, rule, cover)[1].legal_moves()


def sap_closure(
    g: Graph,
    blue: Iterable[NonEdgePair] = (),
    rule: Rule = Rule.Z,
    cover: Collection[int] = (),
    rng: random.Random | None = None,
) -> tuple[NonEdgeColoring, list[SapForce]]:
    """Run the game to a fixed point; a nonempty ``cover`` plays the
    vertex-cover game on that vertex set.

    Deterministic by default: every step makes the first legal move in
    policy order.  Passing ``rng`` picks a uniformly random legal move at
    every step instead, which is the order-exploration mode used to probe
    order independence empirically.
    """
    coloring, game = _start(g, blue, rule, cover)
    trace: list[SapForce] = []
    while True:
        if rng is None:
            move = game.first_move()
        else:
            legal = game.legal_moves()
            move = rng.choice(legal) if legal else None
        if move is None:
            break
        game.play(move)
        trace.append(move)
    return _played(coloring, trace), trace


def replay_trace(
    g: Graph,
    blue: Iterable[NonEdgePair],
    trace: Sequence[SapForce],
    rule: Rule,
    cover: Collection[int] = (),
) -> NonEdgeColoring:
    """Re-apply a recorded trace, checking every move is legal at its step."""
    coloring, game = _start(g, blue, rule, cover)
    for t, move in enumerate(trace, start=1):
        if move not in game.legal_moves():
            raise ValueError(f"step {t}: {move} is not applicable")
        game.play(move)
    return _played(coloring, trace)


def _played(coloring: NonEdgeColoring, trace: Sequence[SapForce]) -> NonEdgeColoring:
    """The coloring after ``trace`` is played from ``coloring``."""
    if not trace:
        return coloring
    colored = coloring.blue_nonedges.union(*(m.colored() for m in trace))
    return NonEdgeColoring(coloring.host, colored)


def is_zsap_zero(g: Graph, rule: Rule = Rule.Z) -> bool:
    """Does the empty start color every non-edge?"""
    final, _ = sap_closure(g, (), rule)
    return final.is_complete()


def sap_forcing_number(g: Graph, rule: Rule = Rule.Z) -> tuple[int, frozenset[NonEdgePair]]:
    """Minimum number of initially blue non-edges that force all non-edges."""
    return smallest_winning_set(
        g.non_edges(), lambda combo: sap_closure(g, combo, rule)[0].is_complete())


def complementary_closure(g: Graph, vertices: Collection[int]) -> frozenset[NonEdgePair]:
    """All non-edges incident to the given vertex set."""
    full = g.full_mask
    return frozenset(_pair(v, u) for v in bits(_vertex_mask(g, vertices))
                     for u in bits(full & ~g.closed_neighborhood(v)))


def vc_forcing_number(g: Graph, rule: Rule = Rule.Z) -> tuple[int, frozenset[int]]:
    """Minimum vertex set whose vertex-cover game forces all non-edges."""
    if rule not in (Rule.Z, Rule.ZL):
        raise ValueError("the vertex-cover game is defined for rules Z and Zl")

    def wins(cover: tuple[int, ...]) -> bool:
        # the deterministic closure, read off the position: no coloring or trace
        game = _Game(g, (), rule, sum(cover))
        while (move := game.first_move()) is not None:
            game.play(move)
        return not any(game.white)

    # covers are tried as sums of vertex bits, in the order of their vertices
    size, cover = smallest_winning_set([1 << v for v in g.vertices()], wins)
    return size, frozenset(b.bit_length() - 1 for b in cover)
