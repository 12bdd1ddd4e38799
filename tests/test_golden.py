"""Golden digests of the deterministic outputs on a small corpus.

Each test hashes one kind of output over every connected graph with at most
six vertices (the xi certificates and Hadwiger branch sets also over the 996
with at most seven, the linear algebra test uses seeded random rational
matrices instead, and a slow test the non-edge game on every connected graph
with eight vertices) and compares the sha256 with a digest recorded from the
reference implementation.  A refactor that keeps every trace, witness, certificate
and determinant byte-identical keeps every digest; any drift changes one.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from sapforce import (RationalMatrix, Rule, closure, enumerate_connected,
                      floor_force_sequence, format_sap_trace, format_trace,
                      hadwiger, min_zfs, sap_closure, sap_forcing_number,
                      survey_graphs, vc_forcing_number, xi)

from reference_game import reference_sap_closure

CONVENTIONAL = (Rule.Z, Rule.ZL, Rule.ZPLUS)


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _sap_lines(graphs):
    for idx, g in enumerate(graphs):
        for rule in CONVENTIONAL:
            for rng in (None, random.Random(idx)):
                # a random play from the test reference, which draws from
                # the legal moves in policy order
                final, trace = (sap_closure(g, (), rule) if rng is None
                                else reference_sap_closure(g, (), rule, rng=rng))
                yield f"{g.to_graph6()} {rule.value} {rng is None}"
                yield format_sap_trace(trace)
                yield repr(sorted(final.blue_nonedges))


def _sap_empty_lines(graphs):
    for g in graphs:
        for rule in CONVENTIONAL:
            final, trace = sap_closure(g, (), rule)
            yield f"{g.to_graph6()} {rule.value}"
            yield format_sap_trace(trace)
            yield repr(sorted(final.blue_nonedges))


def _closure_lines(graphs):
    for g in graphs:
        starts = [{v} for v in g.vertices()] + [{1, v} for v in range(2, g.n + 1)]
        for rule in CONVENTIONAL:
            for start in starts:
                final, trace = closure(g, start, rule)
                yield f"{g.to_graph6()} {rule.value} {sorted(start)} {sorted(final)}"
                yield format_trace(trace)


def _min_zfs_lines(graphs):
    for g in graphs:
        for rule in Rule:
            size, witness = min_zfs(g, rule)
            yield f"{g.to_graph6()} {rule.value} {size} {sorted(witness)}"


def _floor_lines(graphs):
    for g in graphs:
        starts = [min_zfs(g, Rule.FLOOR)[1]] + [{v} for v in g.vertices()]
        for start in starts:
            seq = floor_force_sequence(g, start)
            yield f"{g.to_graph6()} {sorted(start)}"
            yield "None" if seq is None else format_trace(seq)


def _vc_lines(graphs):
    for g in graphs:
        for rule in (Rule.Z, Rule.ZL):
            size, chosen = vc_forcing_number(g, rule)
            yield f"{g.to_graph6()} {rule.value} {size} {sorted(chosen)}"


def _sap_forcing_lines(graphs):
    for g in graphs:
        for rule in CONVENTIONAL:
            size, witness = sap_forcing_number(g, rule)
            yield f"{g.to_graph6()} {rule.value} {size} {sorted(witness)}"


def _hadwiger_lines(graphs):
    for g in graphs:
        eta, branches = hadwiger(g)
        yield f"{g.to_graph6()} {eta} {[sorted(b) for b in branches]}"


def _xi_lines(graphs):
    for g in graphs:
        yield json.dumps(xi(g).to_record(g), sort_keys=True)


def _random_matrices(count: int = 300):
    """Dense, low-rank and repeated-row matrices, square or not, 0..6 wide."""
    rng = random.Random(20261017)

    def entry() -> Fraction:
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    for t in range(count):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        if t % 3 == 2:
            cols = rows
        data = [[entry() for _ in range(cols)] for _ in range(rows)]
        if t % 3 == 1:
            k = rng.randint(0, min(rows, cols))
            left = [[entry() for _ in range(k)] for _ in range(rows)]
            right = [[entry() for _ in range(cols)] for _ in range(k)]
            data = [[sum((left[i][s] * right[s][j] for s in range(k)), Fraction(0))
                     for j in range(cols)] for i in range(rows)]
        elif t % 3 == 2 and rows >= 2 and rng.random() < 0.5:
            data[-1] = [x * rng.randint(-3, 3) for x in data[0]]
        yield RationalMatrix.from_rows(data)


def test_stored_form_is_unique():
    """Each random matrix, and its copies built from Fractions, from strings
    and from ints wherever an entry is an integer, store the same integer
    rows and row scales: every scale positive, coprime to its row."""
    int_rows = mixed_rows = 0
    for m in _random_matrices():
        as_int = [[int(x) if x.denominator == 1 else x for x in row] for row in m.entries]
        as_str = [[str(x) for x in row] for row in m.entries]
        for rows in (m.entries, as_int, as_str):
            copy = RationalMatrix.from_rows(rows)
            assert copy == m and hash(copy) == hash(m) and copy.entries == m.entries
        assert all(d > 0 for d in m.scales)
        assert all(gcd(*row, d) == 1 for row, d in zip(m.ints, m.scales))
        for row in as_int:
            kinds = set(map(type, row))
            int_rows += kinds == {int}
            mixed_rows += kinds == {int, Fraction}
    assert int_rows >= 100 and mixed_rows >= 100


def _linalg_lines():
    for m in _random_matrices():
        det = m.determinant() if m.rows == m.cols else "-"
        yield f"{m.rows}x{m.cols} {m.rank()} {det}"


GOLDEN = {
    "sap_traces": (_sap_lines,
                   "87b2fff59de0727122b8e4fa06fe82900d688c4a224f8e4e4a36de540b6a2d4a"),
    "closure_traces": (_closure_lines,
                       "0c2eab60b28672732217413c240e038d7d0b907ccc3788e8aff8eb07cba1db92"),
    "min_zfs": (_min_zfs_lines,
                "3e0b0ec2c193c5f61ab69b9509860173f24d9124779b56b9482d63ee872319bf"),
    "floor_sequences": (_floor_lines,
                        "7f4808971348e67bb2ee5dcb3ff09c3b576d3fe095776ad801a84c90b5180e8b"),
    "vc_forcing_number": (_vc_lines,
                          "d6e9706a0df4dc95d552a02eebe4ab15d5f17670ef06abd30427da274ff9e383"),
    "sap_forcing_number": (_sap_forcing_lines,
                           "b06bbe1c31577260c05c6ec548d8d4ec0f46770916670ff364959e693e2b613a"),
    "hadwiger": (_hadwiger_lines,
                 "52e1d63222c68b89b1bd767434b92f179ab02804d6b39b591ee8762c5a090024"),
    "xi_records": (_xi_lines,
                   "f9a614f185f02391992992b4a50f80cb292433b026f461acba7a31d1cb53e558"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_graph_outputs(name, connected_upto_6):
    lines, want = GOLDEN[name]
    assert _digest(lines(connected_upto_6)) == want


GOLDEN_N7 = {
    "xi_records": "7e5bd6491e0b823f2a5ac9e405ea77ca6b7f344fcc2bc5acfee847ace35073e3",
    "hadwiger": "d9f05cbe61ce60a8fffa1c737134f117eaf205189f9b5a5d57cf62313ef65a2c",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_N7))
def test_golden_graph_outputs_n7(name, connected_upto_7):
    lines, _ = GOLDEN[name]
    assert _digest(lines(connected_upto_7)) == GOLDEN_N7[name]


def test_golden_rank_and_determinant():
    assert _digest(_linalg_lines()) == (
        "2d324cbd63843f51b62ccb7d3a9bab722995d9b909dc68d37a64095099a831eb")


@pytest.mark.slow
def test_golden_sap_traces_n8():
    """The deterministic empty-start trace and final coloring under Z, Zl and
    Zplus on all 11,117 connected 8-vertex graphs, and their survey row."""
    graphs = list(enumerate_connected(8))
    assert _digest(_sap_empty_lines(graphs)) == (
        "ca3526c1e43c3beded8da45dcc28590ac4991adaeba1fc5df7ffc0e4be7668e2")
    assert survey_graphs(graphs, 8).to_csv().startswith("8,11117,8164,9753,9784,")
