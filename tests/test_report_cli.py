import argparse
import ast
import inspect
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sapforce import families
from sapforce.canon import canonical_form
from sapforce.cli import build_parser, load_graph, main, read_graphs
from sapforce.graphs import GraphError, bits, parse_graph6
from sapforce.report import (CODE_VERSION, VERTEX_CAP, ParameterReport,
                             ReportInvariantError, ResultCache, SurveyRow,
                             compute_report, survey_graphs)
from sapforce.sapgame import is_zsap_zero, sap_closure
from sapforce.xi import load_t3_family, xi
from sapforce.zeroforcing import Rule, is_zfs

from conftest import disjoint_union


def run_cli(*argv):
    return main(list(argv))


def test_report_computation(kite):
    report = compute_report(kite, ["Z", "FloorZ", "Zsap", "Zvc", "xi", "M_small"],
                            ["zsap_zero"])
    assert report.params == {"Z": 2, "FloorZ": 2, "Zsap": 0, "Zvc": 0,
                             "xi": 2, "M_small": 2}
    assert report.flags == {"zsap_zero": True}
    payload = json.loads(report.to_json())
    assert payload["graph6"] == report.graph6


def assert_xi_record_replays(record):
    """Every witness of an xi record holds on the graph of its own graph6."""
    g = parse_graph6(record["graph6"])
    lower, upper = record["lower_witness"], record["upper_witness"]
    if "zero_forcing_witness" in upper:
        witness = upper["zero_forcing_witness"]
        assert len(witness) == lower["max_nullity"] and is_zfs(g, witness, Rule.Z)
    if "floor_witness" in upper:
        witness = upper["floor_witness"]
        assert len(witness) == upper["floor"] and is_zfs(g, witness, Rule.FLOOR)
    if "vc_witness" in lower:
        chosen = frozenset(lower["vc_witness"])
        assert len(chosen) == lower["vc_game_value"]
        assert sap_closure(g, (), Rule.Z, chosen)[0].is_complete()
    if "branch_sets" in lower:
        if record["case"] == "hadwiger":
            order = lower["clique_minor_order"]
            pattern = combinations(range(1, order + 1), 2)
        else:
            member = load_t3_family().graphs[lower["family_member"]]
            order, pattern = member.n, member.edges()
        sets = lower["branch_sets"]
        masks = [sum(1 << v for v in s) for s in sets]
        assert len(masks) == order and all(masks)
        assert len(set().union(*sets)) == sum(map(len, sets)), "branch sets overlap"
        assert all(g.reach(next(bits(m)), m) == m for m in masks)
        assert all(any(g.adj[u] & masks[q - 1] for u in bits(masks[p - 1]))
                   for p, q in pattern)
    parts = record.get("components", [])
    if parts:
        assert sum(1 << v for part in parts for v in part["vertices"]) == g.full_mask
        assert record["xi"] == max(part["record"]["xi"] for part in parts)
    for part in parts:
        sub = g.induced(part["vertices"])
        assert sub.is_connected() and part["record"]["graph6"] == sub.to_graph6()
        assert_xi_record_replays(part["record"])


def test_relabeled_reports_use_one_labeling(connected_upto_7):
    """A relabeled input gives the report of its canonical graph: the same
    graph6 in the report and its xi record, and witnesses that replay there.
    n = 7 is where the t3_family case first fires."""
    rng = random.Random(1)
    params, flags = ["Z", "FloorZ", "xi"], ["zsap_zero"]
    for g in connected_upto_7:
        perm = list(g.vertices())
        rng.shuffle(perm)
        h = g.relabel([0] + perm)
        report = compute_report(h, params, flags)
        record = report.certificates["xi"]
        assert report.graph6 == record["graph6"] == canonical_form(h)
        assert report.to_json() == compute_report(g, params, flags).to_json()
        assert_xi_record_replays(record)


def test_component_max_records_replay(connected_upto_7):
    """A disconnected graph's xi record carries one record per component,
    each of which replays on the component it names."""
    rng = random.Random(2)
    minor_cases = [g for g in connected_upto_7 if xi(g).case in ("hadwiger", "t3_family")]
    for _ in range(20):
        a = rng.choice(minor_cases)
        b = rng.choice([h for h in connected_upto_7 if h.n <= VERTEX_CAP - a.n])
        g = disjoint_union(b, a)
        record = compute_report(g, ["xi"], []).certificates["xi"]
        assert record["case"] == "component_max" and len(record["components"]) == 2
        assert_xi_record_replays(record)


def test_report_validator_catches_violations():
    r = ParameterReport("X", params={"Zplus": 3, "Zl": 1})
    with pytest.raises(ReportInvariantError):
        r.validate()
    r = ParameterReport("X", params={"Zsap": 0}, flags={"zsap_zero": False})
    with pytest.raises(ReportInvariantError):
        r.validate()
    r = ParameterReport("X", params={"xi": 2, "FloorZ": 3, "M_small": 3, "Zvc": 0})
    with pytest.raises(ReportInvariantError):
        r.validate()


def test_survey_row_rounding():
    row = SurveyRow(5, 21, 18, 20, 20)
    assert row.proportions == ("0.86", "0.95", "0.95")
    assert row.to_csv() == "5,21,18,20,20,0.86,0.95,0.95"
    with pytest.raises(ValueError):
        SurveyRow(5, 21, 22, 0, 0)


def test_cache_roundtrip(tmp_path, kite):
    path = tmp_path / "cache.jsonl"
    cache = ResultCache(path)
    r1 = compute_report(kite, ["Z", "Zsap", "xi"], [], cache=cache)
    warm = ResultCache(path)
    assert warm.get(r1.graph6, "Z") == 2
    assert warm.get(r1.graph6, "xi") is None
    # the cache holds counts only: xi is recomputed, so its certificate stays
    r2 = compute_report(kite, ["Z", "Zsap", "xi"], [], cache=warm)
    assert r1.to_json() == r2.to_json()
    # append-only: recomputing does not grow the file
    size = path.stat().st_size
    compute_report(kite, ["Z"], [], cache=ResultCache(path))
    assert path.stat().st_size == size


def test_cache_survives_truncated_last_line(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    assert run_cli("param", "--graph", "p4", "--params", "Z", "--flags", "",
                   "--cache", str(path)) == 0
    with path.open("a") as fh:
        fh.write('{"graph6": "C~", "param": "Zs')  # an interrupted write
    cache = ResultCache(path)
    assert cache.skipped == 1
    capsys.readouterr()
    assert run_cli("param", "--graph", "p4", "--params", "Z,Zl", "--flags", "",
                   "--cache", str(path)) == 0
    assert json.loads(capsys.readouterr().out)["params"] == {"Z": 1, "Zl": 1}
    # the new record starts on its own line, after the partial one
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[2])["param"] == "Zl"
    warm = ResultCache(path)
    assert warm.skipped == 1
    assert warm.get(json.loads(lines[0])["graph6"], "Zl") == 1


def test_cache_skips_records_of_the_wrong_type(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    bad = [{"graph6": "CL", "param": "Z", "value": "x"},  # CL is the 4-path
           {"graph6": [1], "param": "Z", "value": 1},
           {"graph6": "CL", "param": "Z", "value": -5}]  # not a count
    path.write_text("".join(json.dumps(dict(rec, version=CODE_VERSION)) + "\n"
                            for rec in bad))
    assert ResultCache(path).skipped == 3
    assert run_cli("param", "--graph", "p4", "--params", "Z,Zl", "--flags", "",
                   "--cache", str(path)) == 0
    assert json.loads(capsys.readouterr().out)["params"] == {"Z": 1, "Zl": 1}


def test_cli_param_stdout(capsys):
    assert run_cli("param", "--graph", "p4", "--params", "Z,FloorZ,Zsap,Zvc,xi",
                   "--flags", "zsap_zero") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"] == {"Z": 1, "FloorZ": 1, "Zsap": 0, "Zvc": 0, "xi": 1}


def test_cli_param_certificate_uses_the_report_labeling(capsys):
    assert run_cli("param", "--graph", "DKo", "--params", "xi", "--flags", "") == 0
    payload = json.loads(capsys.readouterr().out)
    record = payload["certificates"]["xi"]
    assert payload["graph6"] == record["graph6"] == "DBg"
    assert_xi_record_replays(record)


def test_cli_param_guard(capsys):
    assert run_cli("param", "--graph", "petersen", "--params", "xi") == 3
    err = capsys.readouterr().err
    assert "xi" in err


def test_size_caps_at_the_boundary(capsys):
    # the library computes any size; only the report and the CLI refuse
    assert run_cli("param", "--graph", "dodecahedron") == 3
    assert run_cli("minors", "--graph", "dodecahedron") == 3
    assert "vertex count 20 exceeds cap 10" in capsys.readouterr().err
    assert run_cli("param", "--graph", "e7", "--params", "Zsap,Z", "--flags", "") == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"] == {"Z": 7}
    assert "non-edge count 21" in payload["refused"]["Zsap"]


def test_vertex_cap_refuses_a_huge_empty_graph_quickly(capsys):
    # a sized name is refused before it is built;
    # ``test_graphs.py::test_checking_a_huge_empty_table_is_linear`` times
    # the check of a built one
    start = time.perf_counter()
    assert run_cli("param", "--graph", "e1000000", "--params", "Z", "--flags", "") == 3
    assert time.perf_counter() - start < 10
    assert "vertex count 1000000 exceeds cap 10" in capsys.readouterr().err


def test_vertex_cap_refuses_a_sized_name_before_building_it(capsys):
    # built first, p1000000's rows would hold about n^2/2 bits in all (some
    # 60 GB), and k100000 would list some 5 * 10^9 edges, as host or pattern
    for n, args in (("1000000", ("param", "--graph", "p1000000", "--params", "Z", "--flags", "")),
                    ("100000", ("minors", "--graph", "k100000")),
                    ("100000", ("minors", "--graph", "petersen", "--pattern", "k100000"))):
        start = time.perf_counter()
        assert run_cli(*args) == 3
        assert time.perf_counter() - start < 10
        assert f"vertex count {n} exceeds cap 10" in capsys.readouterr().err
    # a pattern under the cap but larger than the host is simply no minor
    assert run_cli("minors", "--graph", "p4", "--pattern", "k5") == 0
    assert capsys.readouterr().out == "minor: no\n"
    # trace applies no cap, so a named graph over it still plays
    assert run_cli("trace", "--graph", "dodecahedron") == 0
    assert "verdict: all 160 non-edges blue" in capsys.readouterr().out


def test_cli_param_star(capsys):
    assert run_cli("param", "--graph", "k1,4", "--params", "Zsap") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["Zsap"] == 2


def test_cli_trace(capsys, kite):
    assert run_cli("trace", "--graph", "kite5", "--rule", "Z") == 0
    out = capsys.readouterr().out
    assert out.count("step") == 3
    assert "verdict: all 5 non-edges blue" in out
    assert run_cli("trace", "--graph", "e3", "--rule", "Z") == 0
    out = capsys.readouterr().out
    assert "verdict: 3 non-edges remain white" in out
    assert run_cli("trace", "--graph", "k1,3", "--rule", "Z") == 0
    out = capsys.readouterr().out
    assert "(1->C)" in out and "{2,3}" in out
    # labels are read ignoring case
    assert run_cli("trace", "--graph", "p4", "--rule", "zPLUS") == 0
    assert capsys.readouterr().out.endswith("verdict: all 3 non-edges blue\n")


@pytest.mark.parametrize("argv, accepted", [
    (("trace", "--graph", "p4", "--rule", "q"), "'q'; expected one of Z, Zl, Zplus"),
    (("verify-sap", "--graph", "p4", "--family", "t"),
     "'t'; expected one of S, S_ell, S_plus"),
], ids=["trace --rule q", "verify-sap --family t"])
def test_cli_unknown_label_names_the_accepted_values(argv, accepted, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown")
    assert captured.err.rstrip().endswith(accepted)


def test_cli_verify_sap(capsys):
    assert run_cli("verify-sap", "--graph", "petersen", "--family", "S",
                   "--samples", "3", "--seed", "1") == 0
    assert "PASS" in capsys.readouterr().out
    assert run_cli("verify-sap", "--graph", "octahedron", "--family", "S_plus",
                   "--samples", "3", "--seed", "1") == 0
    assert "PASS" in capsys.readouterr().out
    # without the zero game value the verdict makes no promise; note that
    # generic diagonal matrices on an empty graph do have the property
    # (only degenerate ones like the zero matrix fail), so sampling passes
    assert run_cli("verify-sap", "--graph", "e2", "--family", "S",
                   "--samples", "4", "--seed", "1") == 0
    out = capsys.readouterr().out
    assert "not guaranteed" in out and "4/4" in out


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_cli_verify_sap_needs_a_sample(samples, capsys):
    # no sampled matrix can show a pass or a violation
    assert run_cli("verify-sap", "--graph", "petersen", "--samples", samples) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --samples")


def test_cli_survey(tmp_path, capsys):
    out_file = tmp_path / "survey.csv"
    assert run_cli("survey", "--n", "5", "--out", str(out_file)) == 0
    assert out_file.read_text() == capsys.readouterr().out
    text = out_file.read_text().splitlines()
    assert text[0] == SurveyRow.CSV_HEADER
    assert text[1] == "5,21,18,20,20,0.86,0.95,0.95"
    # corpus mode groups by vertex count
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Ch\nD~{\n@\n")
    assert run_cli("survey", "--corpus", str(corpus)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == SurveyRow.CSV_HEADER
    assert len(lines) == 4  # n = 1, 4, 5


def test_cli_survey_guards(capsys):
    assert run_cli("survey", "--n", "9") == 3
    assert run_cli("survey") == 2


def test_cli_survey_corpus_error(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("Ch\n}}}}}}~~~\n")
    assert run_cli("survey", "--corpus", str(bad)) == 2
    assert ":2:" in capsys.readouterr().err


def test_cli_verify_xi(capsys):
    assert run_cli("verify-xi", "--n", "5") == 0
    out = capsys.readouterr().out
    assert "n=5: 21 graphs, 0 exceptions, 0 unresolved" in out
    assert run_cli("verify-xi", "--n", "8") == 3


def test_cli_minors(capsys):
    assert run_cli("minors", "--graph", "petersen", "--pattern", "k5") == 0
    assert "minor: yes" in capsys.readouterr().out
    assert run_cli("minors", "--graph", "p6", "--pattern", "k1,3") == 0
    assert "minor: no" in capsys.readouterr().out
    assert run_cli("minors", "--graph", "kite5") == 0
    assert "largest complete minor: 3" in capsys.readouterr().out
    assert run_cli("minors", "--graph", "petersen") == 0
    assert capsys.readouterr().out == (
        "largest complete minor: 5; branch sets: {1,2}, {3,4}, {5,10}, {6,8}, {7,9}\n")
    # an empty pattern is a bad graph, not a request for the largest clique minor
    assert run_cli("minors", "--graph", "kite5", "--pattern", "") == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "empty graph6 string" in captured.err


def test_cli_input_errors(capsys):
    assert run_cli("param", "--graph", "}}}bogus") == 2
    assert run_cli("param", "--graph", "p4", "--params", "nonsense") == 2


def test_cli_long_literal_graph6(capsys):
    # longer than a file name may be, so the file system cannot look it up
    spec = disjoint_union(families.complete(40), families.complete(40)).to_graph6()
    assert len(spec) > 255
    assert run_cli("verify-sap", "--graph", spec, "--samples", "1") == 0
    assert capsys.readouterr().out == (
        "not guaranteed: the Z game does not finish from an empty start; "
        "1/1 sampled matrices have the property anyway\n")


def test_cli_edge_list_file(tmp_path, capsys):
    f = tmp_path / "kite.txt"
    # the format is read off the first line left once comments are dropped
    for head in ("5 5\n", "5 5  # kite\n", "# kite\n5 5\n"):
        f.write_text(head + "0 1\n1 2\n2 3\n3 4\n1 4\n")
        assert run_cli("param", "--graph", str(f), "--indexing", "0",
                       "--params", "Z") == 0, head
        payload = json.loads(capsys.readouterr().out)
        assert payload["params"]["Z"] == 2


def test_cli_graph6_file_holds_one_graph(tmp_path, capsys):
    f = tmp_path / "p4.g6"
    f.write_text("Ch\n# the path on four vertices\n")
    assert run_cli("param", "--graph", str(f), "--params", "Z", "--flags", "") == 0
    assert json.loads(capsys.readouterr().out)["params"] == {"Z": 1}
    # a list of graphs is a corpus: reporting its first graph alone hid the rest
    f.write_text("Ch\nD~{\n")
    assert run_cli("param", "--graph", str(f), "--params", "Z", "--flags", "") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {f}: 2 graph6 lines, but --graph reads one graph "
                            "(survey --corpus reads a list)\n")


def test_cli_one_file_grammar(tmp_path, capsys):
    f = tmp_path / "graphs.txt"
    # a comment may follow a graph6 line in a corpus as in a --graph file
    f.write_text("Ch # p4\n")
    assert run_cli("survey", "--corpus", str(f)) == 0
    assert capsys.readouterr().out.splitlines()[1] == "4,1,1,1,1,1.00,1.00,1.00"
    assert run_cli("param", "--graph", str(f), "--params", "Z", "--flags", "") == 0
    assert json.loads(capsys.readouterr().out)["params"] == {"Z": 1}
    # a header of non-ASCII digits is no edge list: the line is bad graph6
    f.write_text("\u0663 0\n")
    assert run_cli("param", "--graph", str(f), "--params", "Z", "--flags", "") == 2
    assert capsys.readouterr().err == (
        f"error: {f}:1: non-ASCII character '\u0663' (byte offset 0)\n")
    # an edge listed twice, in either orientation, is refused
    f.write_text("3 2\n1 2\n2 1\n")
    assert run_cli("param", "--graph", str(f), "--params", "Z", "--flags", "") == 2
    assert capsys.readouterr().err == f"error: {f}:3: edge {{2,1}} is listed twice\n"


def test_cli_empty_graph_file_is_refused_by_survey_and_param(tmp_path, capsys):
    # a corpus with no graph once comments and blank lines go printed the
    # CSV header alone and exited 0, while --graph refused the same file
    f = tmp_path / "empty.g6"
    f.write_text("# no graphs here\n\n")
    for argv in (("survey", "--corpus", str(f)), ("param", "--graph", str(f), "--params", "Z")):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {f}: empty graph file\n"


def test_cli_edge_list_label_names_its_line(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    for text, where, message in (
            ("3 1\n1 x\n", 2, "expected a decimal number, got 'x'"),
            ("3 1\n# an edge\n1 2 3\n", 3, "expected edge 'i j', got '1 2 3'"),
            ("3 2\n1 2\n2 4\n", 3, "edge {2,4} outside 1..3"),
            ("3 1\n3 3\n", 2, "self-loop at 3"),
            ("# header\n3 2\n1 2\n", 2, "header promises 2 edges, found 1")):
        f.write_text(text)
        assert run_cli("param", "--graph", str(f), "--params", "Z") == 2
        assert capsys.readouterr().err == f"error: {f}:{where}: {message}\n"
    f.write_text("3 1\n0 3\n")
    assert run_cli("param", "--graph", str(f), "--params", "Z", "--indexing", "0") == 2
    assert capsys.readouterr().err == f"error: {f}:2: edge {{0,3}} outside 0..2\n"


_GRAPH_FILES = ("# kite\n5 5  # five edges\n1 2\n2 3\n3 4\n4 5\n2 5\n",
                "Ch # p4\n\nD~{\n# a comment line\n@\n")
_EDIT = st.tuples(st.sampled_from(("insert", "delete", "replace")),
                  st.integers(0, 60), st.sampled_from("# \t\n0123456789>~?@Ch\u0663\u00e9"))


# the slowest example of either test took under 0.05 s on a 2-core x86 host
@settings(max_examples=300, deadline=1000, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.sampled_from(_GRAPH_FILES), edits=st.lists(_EDIT, max_size=4))
def test_read_graphs_on_mutated_files(tmp_path, text, edits):
    """A mutated graph file either reads as graphs that survive a graph6
    round trip or is refused with an input error; nothing else escapes."""
    for op, at, char in edits:
        at = min(at, len(text))
        tail = text[at:] if op == "insert" else text[at + 1:]
        text = text[:at] + (char if op != "delete" else "") + tail
    f = tmp_path / "mutated.txt"
    f.write_bytes(text.encode())
    try:
        graphs = read_graphs(str(f))
    except (GraphError, ValueError):
        return
    for g in graphs:
        assert parse_graph6(g.to_graph6()) == g


# graph6 literals: small graphs, K_{2,2,2,2,2} at the vertex cap, P11 just
# over it, and the largest order the four-byte header can state
_GRAPH6_SPECS = (b"D~{", b"Ch", b"@", b"I]~v~z~~o", b"JhCGGC@?G?_", b"~}~~")
_BYTE_EDIT = st.tuples(st.sampled_from(("insert", "delete", "replace")), st.integers(0, 60),
                       st.sampled_from([bytes([c]) for c in b"# \t\n0123456789>~?@Ch\x00\x80\xff"]
                                       + ["\u00e9".encode()]))


# the slowest example of either test took under 0.05 s on a 2-core x86 host
@settings(max_examples=300, deadline=1000, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(("literal", "file", "empty", "directory")),
       seed=st.sampled_from(_GRAPH6_SPECS + tuple(t.encode() for t in _GRAPH_FILES)),
       edits=st.lists(_BYTE_EDIT, max_size=4))
def test_param_on_mutated_graph_specs(tmp_path, capsys, kind, seed, edits):
    """``param`` on a mutated ``--graph`` spec, in process: a literal (its
    bytes decoded as the command line would be), a file, an empty path or a
    directory.  It prints a report whose graph6 round-trips to the graph the
    spec names and exits 0, or it exits 2 with one ``error:`` line (its
    byte offset, if any, inside the input) or 3 with one ``refused:`` line;
    nothing else escapes."""
    data = seed
    for op, at, byte in edits:
        at = min(at, len(data))
        tail = data[at:] if op == "insert" else data[at + 1:]
        data = data[:at] + (byte if op != "delete" else b"") + tail
    if kind == "literal":
        # a command line cannot hold a NUL byte
        spec = os.fsdecode(data.replace(b"\x00", b""))
    elif kind == "file":
        spec = str(tmp_path / "spec.txt")
        Path(spec).write_bytes(data)
    else:
        spec = "" if kind == "empty" else str(tmp_path)
    code = main(["param", "--graph", spec, "--params", "Z", "--flags", ""])
    out, err = capsys.readouterr()
    lines = err.splitlines()
    if code == 0:
        g6 = json.loads(out)["graph6"]
        g = parse_graph6(g6)
        assert lines == [] and g.to_graph6() == g6
        assert canonical_form(g) == canonical_form(load_graph(spec))
        # graph6 is ASCII, and a --graph file holds one graph
        assert kind != "literal" or spec.isascii()
        assert kind != "file" or len(read_graphs(spec)) == 1
    else:
        assert (code, len(lines)) in ((2, 1), (3, 1)), (code, err)
        assert lines[0].startswith("error: " if code == 2 else "refused: ")
        # an offset may point just past the end, where more input was due
        offset = re.search(r"byte offset (\d+)\)$", lines[0])
        assert offset is None or int(offset[1]) <= len(data if kind == "file" else spec)


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "sapforce.cli", "param",
                           "--graph", "p4", "--params", "Z"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["params"]["Z"] == 1


def test_cli_param_on_e10_finishes():
    # inside the vertex cap; all 10! labelings of E10 give the same word
    proc = subprocess.run([sys.executable, "-m", "sapforce.cli", "param",
                           "--graph", "e10", "--params", "Z", "--flags", ""],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["params"] == {"Z": 10}


def test_survey_graphs_deterministic(connected_upto_5):
    five = [g for g in connected_upto_5 if g.n == 5]
    row1 = survey_graphs(five, 5)
    row2 = survey_graphs(list(five), 5)
    assert row1 == row2 == SurveyRow(5, 21, 18, 20, 20)


def reference_survey_graphs(graphs, n):
    """The survey as three independent games per graph, each from the empty
    start; ``survey_graphs`` plays each graph once up the rule chain."""
    counts = [0, 0, 0]
    for g in graphs:
        for idx, rule in enumerate((Rule.Z, Rule.ZL, Rule.ZPLUS)):
            if is_zsap_zero(g, rule):
                counts[idx] += 1
    return SurveyRow(n, len(graphs), *counts)


def test_survey_graphs_matches_reference(all_graphs_upto_7):
    """Per graph, on every graph with n <= 7; the one 001 graph fails a
    chain that never plays Zplus."""
    verdicts = Counter()
    for g in all_graphs_upto_7:
        row = survey_graphs([g], g.n)
        assert row == reference_survey_graphs([g], g.n), g.to_graph6()
        verdicts[f"{row.zsap0}{row.zsapl0}{row.zsapp0}"] += 1
    assert verdicts == {"111": 744, "011": 145, "000": 362, "001": 1}


def test_survey_graphs_refuses_another_order():
    with pytest.raises(ValueError, match="on 5 vertices"):
        survey_graphs([families.path(3), families.complete(5)], 3)
    with pytest.raises(ValueError, match="order 8"):
        survey_graphs([families.path(3), families.complete(5)], 8)
    assert survey_graphs([], 8) == SurveyRow(8, 0, 0, 0, 0)


@pytest.mark.slow
def test_survey_graphs_matches_survey8_refs():
    """Per-graph verdicts on all 11,117 connected 8-vertex graphs equal the
    rule-by-rule table that ``perfbench/make_refs.py`` writes."""
    refs = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "survey8.txt"
    rows = [line.split() for line in refs.read_text().splitlines()
            if line and not line.startswith("#")]
    assert len(rows) == 11117
    for g6, *verdicts in rows:
        row = survey_graphs([parse_graph6(g6)], 8)
        assert [row.zsap0, row.zsapl0, row.zsapp0] == [int(v) for v in verdicts], g6


def _args_read(func):
    tree = ast.parse(inspect.getsource(func))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


def test_every_declared_option_is_read():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        declared = {a.dest for a in parser._actions
                    if not isinstance(a, argparse._HelpAction)}
        assert declared == _args_read(parser.get_default("func")), name


# options that each subcommand once accepted and never read
_UNREAD_OPTIONS = {
    ("param", "--graph", "p4"): ("--t3-data",),
    ("trace", "--graph", "p4"): ("--t3-data", "--cache", "--out"),
    ("verify-sap", "--graph", "p4"): ("--t3-data", "--cache", "--out"),
    ("survey", "--n", "4"): ("--graph", "--indexing", "--t3-data", "--cache"),
    ("verify-xi", "--n", "4"): ("--graph", "--indexing", "--t3-data", "--cache", "--out"),
    ("minors", "--graph", "p4"): ("--t3-data", "--cache", "--out"),
}
_USAGE_ERRORS = [base + (opt, "1") for base, opts in _UNREAD_OPTIONS.items()
                 for opt in opts] + [
    ("param", "--params", "Z"),
    ("trace",),
    ("verify-sap",),
    ("minors",),
    ("verify-xi",),
    ("survey", "--n", "4", "--corpus", "{dir}/corpus.g6"),
]
_EXIT_CODES = [(argv, 2, "usage:") for argv in _USAGE_ERRORS] + [
    (("param", "--graph", "p4", "--params", "Z", "--flags", "", "--cache", "{dir}"),
     2, "error:"),
    (("survey", "--corpus", "{dir}"), 2, "error:"),
    (("param", "--graph", "{dir}/empty.txt", "--params", "Z", "--flags", ""),
     2, "error:"),
    (("param", "--graph", "{dir}/blank.txt", "--params", "Z", "--flags", ""),
     2, "error:"),
    # a vertex count no graph6 string can hold is refused from the header
    (("param", "--graph", "{dir}/huge.txt", "--params", "Z", "--flags", ""),
     2, "error:"),
    (("trace", "--graph", "{dir}/huge.txt", "--rule", "Z"), 2, "error:"),
    (("param", "--graph", "A\u00e9", "--params", "Z", "--flags", ""),
     2, "error: non-ASCII character"),
    (("verify-xi", "--n", "8"), 3, "refused:"),
    (("survey", "--n", "9"), 3, "refused:"),
]


@pytest.mark.parametrize("argv, code, prefix", _EXIT_CODES,
                         ids=[" ".join(argv) for argv, _, _ in _EXIT_CODES])
def test_exit_codes(argv, code, prefix, tmp_path, capsys):
    (tmp_path / "corpus.g6").write_text("Ch\n")
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "blank.txt").write_text(" \n\t\n")
    (tmp_path / "huge.txt").write_text("1000000000000 0\n")
    assert run_cli(*(arg.format(dir=tmp_path) for arg in argv)) == code
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize("argv", [("trace",), ("survey", "--corpus", "."),
                                  ("trace", "--graph", "{dir}/huge.txt")],
                         ids=" ".join)
def test_cli_errors_print_no_traceback(argv, tmp_path):
    (tmp_path / "huge.txt").write_text("1000000000000 0\n")
    proc = subprocess.run([sys.executable, "-m", "sapforce.cli",
                           *(arg.format(dir=tmp_path) for arg in argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


_WITHOUT_SYMPY = """
import pkgutil, sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
import sapforce
for mod in pkgutil.iter_modules(sapforce.__path__):
    __import__("sapforce." + mod.name)
from sapforce import RationalMatrix, families, has_sap, xi
from sapforce.cli import main
assert has_sap(families.complete(4), RationalMatrix.from_rows([[1] * 4] * 4))
assert xi(families.kite5()).value == 2
sys.exit(main(["trace", "--graph", "kite5"]))
"""


def test_library_runs_without_sympy():
    """sympy is a test oracle only: no module of the package imports it."""
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SYMPY],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("verdict: all 5 non-edges blue\n")
