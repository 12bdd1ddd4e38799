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
decided by depth-first search over game states with memoization; a vertex
that performs any force is spent for hopping but regular forces are never
blocked.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Callable, Sequence, TypeVar

from .graphs import Graph, _grow, _vertex_mask, bits

T = TypeVar("T")


class Rule(Enum):
    Z = "Z"
    ZL = "Zl"
    ZPLUS = "Zplus"
    FLOOR = "FloorZ"

    @staticmethod
    def from_label(label: str) -> "Rule":
        for rule in Rule:
            if rule.value.lower() == label.lower():
                return rule
        raise ValueError(f"unknown rule {label!r}; expected one of "
                         f"{[r.value for r in Rule]}")


CONVENTIONAL_RULES = (Rule.Z, Rule.ZL, Rule.ZPLUS)


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


def _force_pairs(g: Graph, blue: int, rule: Rule) -> list[tuple[int, int]]:
    """Every (source, target) force the rule allows at this exact state, in
    the order ``single_forces`` documents.  The one force kernel: the
    conventional closures and the local games of the non-edge game use it."""
    adj = g.adj
    white = g.full_mask & ~blue
    out: list[tuple[int, int]] = []
    # bits are walked inline: this is the innermost loop of every game
    if rule is Rule.Z or rule is Rule.ZL:
        rest = blue
        while rest:
            low = rest & -rest
            rest ^= low
            w = adj[low.bit_length() - 1] & white
            if w and not w & (w - 1):
                out.append((low.bit_length() - 1, w.bit_length() - 1))
        if rule is Rule.ZL:
            rest = white
            while rest:
                low = rest & -rest
                rest ^= low
                j = low.bit_length() - 1
                if adj[j] and not adj[j] & white:
                    out.append((j, j))
    elif rule is Rule.ZPLUS:
        rest = white
        while rest:
            # the white component of the least vertex left, and what it touches
            comp, touched = _grow(adj, rest & -rest, white)
            rest &= ~comp
            sources = blue & touched
            while sources:
                low = sources & -sources
                sources ^= low
                w = adj[low.bit_length() - 1] & comp
                if not w & (w - 1):
                    out.append((low.bit_length() - 1, w.bit_length() - 1))
    else:
        raise ValueError("single_forces handles conventional rules only")
    return out


def single_forces(g: Graph, blue: int, rule: Rule) -> list[Force]:
    """All forces the rule allows at this exact state; every target is white.

    Z and Zl forces come ascending by source (Zl self-forces after the
    regular ones, ascending); Zplus forces are grouped by white component,
    then ascending by source within each component.
    """
    return [Force(i, j) for i, j in _force_pairs(g, blue, rule)]


def _closure_mask(g: Graph, blue: int, rule: Rule) -> int:
    """Apply every available force until none is left.

    Z and Zl closures are least fixed points of monotone rules, so forces
    apply as soon as they are found, in any order.  A blue vertex with no
    white neighbour never forces again (white only shrinks), so it leaves
    ``active`` for good; a forcer leaves it at once.  Zplus plays rounds of
    ``_force_pairs``, which refuses any other rule."""
    if rule is not Rule.Z and rule is not Rule.ZL:
        while pairs := _force_pairs(g, blue, rule):
            for _, j in pairs:
                blue |= 1 << j
        return blue
    adj = g.adj
    full = g.full_mask
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
        if rule is Rule.ZL:
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


def _floor_free_forces(adj: tuple[int, ...], full: int, blue: int, used: int,
                       trace: list[Force] | None = None) -> int:
    """Apply regular forces by already-used vertices; they cost nothing."""
    changed = True
    while changed and blue != full:
        changed = False
        for i in bits(blue & used):
            w = adj[i] & ~blue & full
            if w and not w & (w - 1):
                blue |= w
                changed = True
                if trace is not None:
                    trace.append(Force(i, w.bit_length() - 1))
    return blue


def _floor_game_sequence(g: Graph, start: int) -> list[Force] | None:
    """A winning force sequence for the floor game, or None."""
    adj = g.adj
    full = g.full_mask
    dead: set[tuple[int, int]] = set()

    def search(blue: int, used: int) -> list[Force] | None:
        prefix: list[Force] = []
        blue = _floor_free_forces(adj, full, blue, used, prefix)
        if blue == full:
            return prefix
        key = (blue, used)
        if key in dead:
            return None
        white = full & ~blue
        for i in bits(blue & ~used):
            w = adj[i] & white
            if not w:
                for j in bits(white):
                    rest = search(blue | (1 << j), used | (1 << i))
                    if rest is not None:
                        return prefix + [Force(i, j, hop=True)] + rest
            elif not w & (w - 1):
                j = w.bit_length() - 1
                rest = search(blue | w, used | (1 << i))
                if rest is not None:
                    return prefix + [Force(i, j)] + rest
        dead.add(key)
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
    return _floor_game_sequence(g, _vertex_mask(g, blue))


def is_zfs(g: Graph, blue: set[int] | frozenset[int], rule: Rule) -> bool:
    """Can the given start set force the whole vertex set under the rule?"""
    mask = _vertex_mask(g, blue)
    if rule in CONVENTIONAL_RULES:
        return _closure_mask(g, mask, rule) == g.full_mask
    # floor game: a plain-Z completion needs no hops and is always a win
    if _closure_mask(g, mask, Rule.Z) == g.full_mask:
        return True
    return _floor_game_sequence(g, mask) is not None


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
    # needs a blue vertex whose >= d neighbours are blue too, so |S| >= d + 1;
    # a free floor force needs a vertex that has already acted.  Refusing
    # those sets unplayed keeps the first winner in (size, combinations)
    # order.  Zplus forces into one white component at a time, so it may
    # move from fewer.
    least = 0 if rule is Rule.ZPLUS else g.min_degree()
    return smallest_winning_set(
        g.vertices(), lambda combo: len(combo) >= least and is_zfs(g, combo, rule))


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
