"""Conventional zero forcing games and the minor monotone floor game.

Four color change rules are supported:

* ``Z``      - a blue vertex with exactly one white neighbor forces it.
* ``Zl``     - additionally, a non-isolated white vertex with no white
               neighbors forces itself (recorded as ``i->i``).
* ``Zplus``  - the plain rule applied per component of the white subgraph,
               so white vertices in other components do not block a force.
* ``FloorZ`` - the plain rule plus hops: a blue vertex that has no white
               neighbors and has never forced may force any white vertex.

The first three closures are monotone fixed points.  The floor game is a
real game (the choice of forcer and hop target matters), so membership is
decided by depth-first search over game states with memoization.  Each
vertex acts at most once, by a regular force or by a hop.

Lemma.  In the floor game a vertex that has acted has no white neighbour
from then on: a forcer's one white neighbour turns blue, a hopper had none,
and white only shrinks.  Two consequences:

(a) No vertex that has acted ever has a regular force, so regular forces
    by spent vertices, which the rule would allow, never arise.
(b) Each move turns one vertex blue and spends one, so within one search
    (one start set) the spent vertices number |blue| - |start|, and they
    lie among the idle vertices: the blue ones with no white neighbour.  An
    idle vertex can only ever hop, to any white vertex, so any unspent idle
    vertex can stand in for another.  A position's moves thus depend only on
    its blue set and on how many idle vertices are unspent, which is
    |idle| - |blue| + |start|, so whether it wins depends on its blue set
    alone.  The search remembers lost positions by their blue set; that
    prunes only positions that cannot win, so the first win it finds is the
    one a search without memo finds.  The count of unspent idle vertices
    reads |start| and no other trace of the start, so a blue set lost from
    one start of size s is lost from every start of size s: the searches of
    ``min_zfs`` share one memo per start-set size.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Callable, Sequence, TypeVar

from .graphs import Graph, _components, _grow, _vertex_mask, bits

T = TypeVar("T")


class Rule(Enum):
    Z = "Z"
    ZL = "Zl"
    ZPLUS = "Zplus"
    FLOOR = "FloorZ"


CONVENTIONAL_RULES = (Rule.Z, Rule.ZL, Rule.ZPLUS)
# Reading a member off the class, as in ``Rule.ZL``, costs about as much as
# a whole force step on CPython 3.11; the game loops compare with these.
_Z, _ZL, _ZPLUS, _FLOOR = Rule.Z, Rule.ZL, Rule.ZPLUS, Rule.FLOOR


@dataclass(frozen=True)
class Force:
    """One applied force; ``source == target`` encodes a Zl self-force."""

    source: int
    target: int
    hop: bool = False

    def __str__(self) -> str:
        prefix = "hop: " if self.hop else ""
        return f"{prefix}{self.source}->{self.target}"


def format_trace(forces: list[Force]) -> str:
    return "\n".join(str(f) for f in forces)


def _one_neighbour(adj: Sequence[int], group: int) -> int:
    """The vertices with exactly one neighbour in the bitset ``group``: the
    one force kernel.  A blue vertex forces when it has exactly one white
    neighbour, so every conventional game reads its forces off this, in
    |group| steps: ``single_forces``, the Zplus rounds of ``_closure_mask``
    and the local games of the non-edge game."""
    one = two = 0
    while group:  # bits walked inline: this is the innermost loop of every game
        low = group & -group
        group ^= low
        a = adj[low.bit_length() - 1]
        two |= one & a
        one |= a
    return one & ~two


def _targets(adj: Sequence[int], white: int, allowed: int, rule: Rule) -> int:
    """The white vertices that some single force turns blue, the forcers
    taken from ``allowed`` (blue vertices); a Zl self-force needs no forcer.
    Zplus forces are the Z forces into each white component."""
    if rule is _ZPLUS:
        hit = 0
        for comp in _components(adj, white):
            hit |= _targets(adj, comp, allowed, _Z)
        return hit
    forcers = _one_neighbour(adj, white) & allowed
    zl = rule is _ZL
    hit = 0
    rest = white
    while rest:
        low = rest & -rest
        rest ^= low
        a = adj[low.bit_length() - 1]
        # a forcer next to a white vertex has no other white neighbour
        if a & forcers or zl and a and not a & white:
            hit |= low
    return hit


def _forcers(adj: Sequence[int], white: int, allowed: int, rule: Rule, j: int) -> tuple[int, bool]:
    """The forcers from ``allowed`` of the white vertex j as a bitset, and
    whether j forces itself under Zl, which ``single_forces`` lists after
    them."""
    group = _grow(adj, 1 << j, white)[0] if rule is _ZPLUS else white
    a = adj[j]
    return (_one_neighbour(adj, group) & allowed & a,
            rule is _ZL and a != 0 and not a & white)


def single_forces(g: Graph, blue: int, rule: Rule) -> list[Force]:
    """All forces the rule allows at this exact state; every target is white.

    Z and Zl forces come ascending by source (Zl self-forces after the
    regular ones, ascending); Zplus forces are grouped by white component,
    then ascending by source within each component.
    """
    if rule not in CONVENTIONAL_RULES:
        raise ValueError("single_forces handles conventional rules only")
    adj = g.adj
    white = g.full_mask & ~blue
    groups = _components(adj, white) if rule is _ZPLUS else [white]
    out = [Force(i, (adj[i] & group).bit_length() - 1)
           for group in groups for i in bits(_one_neighbour(adj, group) & blue)]
    if rule is _ZL:
        out += [Force(j, j) for j in bits(white) if adj[j] and not adj[j] & white]
    return out


def _closure_mask(g: Graph, blue: int, rule: Rule) -> int:
    """Apply every available force until none is left.

    Z and Zl closures are least fixed points of monotone rules, so forces
    apply as soon as they are found, in any order.  A blue vertex with no
    white neighbour never forces again (white only shrinks), so it leaves
    ``active`` for good; a forcer leaves it at once.  Zplus plays rounds:
    every target of ``_targets`` turns blue at once."""
    adj = g.adj
    full = g.full_mask
    if rule is _ZPLUS:
        while hit := _targets(adj, full & ~blue, blue, rule):
            blue |= hit
        return blue
    white = full & ~blue
    active = blue
    changed = True
    while changed and white:
        changed = False
        rest = active
        while rest:
            low = rest & -rest
            rest ^= low
            w = adj[low.bit_length() - 1] & white
            if not w & (w - 1):
                # no white neighbour left, or one that it forces now
                active ^= low
                if w:
                    white ^= w
                    active |= w
                    changed = True
        if rule is _ZL:
            rest = white
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                if adj[j] and not adj[j] & white:
                    white ^= low
                    active |= low
                    changed = True
    return full & ~white


def closure(g: Graph, blue: set[int] | frozenset[int], rule: Rule) -> tuple[frozenset[int], list[Force]]:
    """Least fixed point and a replayable trace (first applicable force each step)."""
    if rule not in CONVENTIONAL_RULES:
        raise ValueError("closure is defined for conventional rules only")
    mask = _vertex_mask(g, blue)
    trace: list[Force] = []
    while forces := single_forces(g, mask, rule):
        f = forces[0]
        trace.append(f)
        mask |= 1 << f.target
    return frozenset(bits(mask)), trace


def _floor_game_sequence(g: Graph, start: int, lost: dict[int, set[int]]
                         ) -> list[Force] | None:
    """A winning force sequence for the floor game, or None.  ``lost``
    maps a start-set size to the blue sets known to lose from starts of that
    size (lemma (b)); the search adds the ones it loses."""
    adj = g.adj
    full = g.full_mask
    dead = lost.setdefault(start.bit_count(), set())

    def search(blue: int, used: int) -> list[Force] | None:
        if blue == full:
            return []
        if blue in dead:
            return None
        white = full & ~blue
        for i in bits(blue & ~used):
            w = adj[i] & white
            if not w:
                for j in bits(white):
                    rest = search(blue | (1 << j), used | (1 << i))
                    if rest is not None:
                        return [Force(i, j, hop=True)] + rest
            elif not w & (w - 1):
                j = w.bit_length() - 1
                rest = search(blue | w, used | (1 << i))
                if rest is not None:
                    return [Force(i, j)] + rest
        dead.add(blue)
        return None

    found = search(start, 0)
    # the recursive helper's closure holds it: drop the cycle, not wait for gc
    del search
    return found


def floor_force_sequence(g: Graph, blue: set[int] | frozenset[int]) -> list[Force] | None:
    """A winning play of the floor game from this start set, or None.

    The sequence interleaves regular forces and hops; replaying it forces
    every vertex.  Useful for traces; membership tests should prefer
    ``is_zfs`` which short-circuits through the plain closure.
    """
    return _floor_game_sequence(g, _vertex_mask(g, blue), {})


def _wins(g: Graph, blue: int, rule: Rule, lost: dict[int, set[int]]) -> bool:
    """Does the start bitset ``blue`` force the whole vertex set?  The
    floor game reads and extends the memo ``lost``."""
    if rule is not _FLOOR:
        return _closure_mask(g, blue, rule) == g.full_mask
    # floor game: a plain-Z completion needs no hops and is always a win
    return (_closure_mask(g, blue, _Z) == g.full_mask
            or _floor_game_sequence(g, blue, lost) is not None)


def is_zfs(g: Graph, blue: set[int] | frozenset[int], rule: Rule) -> bool:
    """Can the given start set force the whole vertex set under the rule?"""
    return _wins(g, _vertex_mask(g, blue), rule, {})


def smallest_winning_set(items: Sequence[T], wins: Callable[[tuple[T, ...]], bool]
                         ) -> tuple[int, frozenset[T]]:
    """Size and members of the first subset that wins, trying subsets by
    size and then in ``combinations`` order."""
    for size in range(len(items) + 1):
        for combo in combinations(items, size):
            if wins(combo):
                return size, frozenset(combo)
    raise AssertionError("no subset wins, not even the whole set")


def _min_zfs_connected(g: Graph, rule: Rule) -> tuple[int, frozenset[int]]:
    # Under Z, Zl and FloorZ a start set S with |S| < least degree d has no
    # first move, so it loses (S is not everything: |S| < d < n).  A blue
    # vertex has >= d - (|S| - 1) >= 2 white neighbours, so it cannot force;
    # a Zl self-force needs all >= d neighbours of a white vertex blue; a hop
    # needs a blue vertex whose >= d neighbours are blue too, so |S| >= d + 1.
    # Starting the sizes at d keeps the first winner in (size, combinations)
    # order.  Zplus forces into one white component at a time, so it may
    # move from fewer.  Start sets are the sums of vertex bits in
    # ``combinations`` order, each played as a mask: by ``_closure_mask``,
    # or under FloorZ by ``_wins``, whose searches share one memo of lost
    # blue sets per start-set size (lemma (b)).  The whole vertex set wins,
    # so some size does.
    full = g.full_mask
    vertex_bits = [1 << v for v in g.vertices()]
    lost: dict[int, set[int]] = {}
    for size in range(0 if rule is _ZPLUS else g.min_degree(), g.n + 1):
        for start in map(sum, combinations(vertex_bits, size)):
            if (_wins(g, start, rule, lost) if rule is _FLOOR
                    else _closure_mask(g, start, rule) == full):
                return size, frozenset(bits(start))
    raise AssertionError("the whole vertex set forces itself")


def min_zfs(g: Graph, rule: Rule) -> tuple[int, frozenset[int]]:
    """Minimum zero forcing set size and one witness.

    Disconnected graphs decompose: conventional rules add up component
    minima; the floor rule takes the maximum because hops cross components.
    """
    comps = g.components()
    if len(comps) <= 1:
        return _min_zfs_connected(g, rule)
    pieces = []
    for comp in comps:
        sub = g.induced(comp)
        back = sorted(comp)
        size, wit = _min_zfs_connected(sub, rule)
        pieces.append((size, frozenset(back[v - 1] for v in wit)))
    if rule in CONVENTIONAL_RULES:
        total = sum(size for size, _ in pieces)
        witness = frozenset().union(*(wit for _, wit in pieces))
        return total, witness
    value, best = max(pieces, key=lambda p: p[0])
    # the witness of a largest component wins the whole graph.  Each force
    # turns one vertex blue and each vertex acts at most once, so a winning
    # play there leaves ``value`` vertices that never acted; once it is done
    # none has a white neighbour, so each may hop.  Every other component
    # needs at most ``value`` hops onto its own witness to start a winning
    # play, and that play leaves as many vertices unused as it took hops.
    if not is_zfs(g, best, rule):
        raise AssertionError("a largest component's witness must win the floor game")
    return value, best
