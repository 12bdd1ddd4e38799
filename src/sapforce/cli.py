"""Command-line front end.

Subcommands: param, trace, verify-sap, survey, verify-xi, minors; each
declares only the options its ``cmd_*`` function reads.  ``main`` maps every
outcome to its exit code: 0 verified/ok (or ``--help``); 1 property violation
found (a failed check, or ``ReportInvariantError``); 2 input error (an unknown
or missing option, ``GraphError``, ``OSError``, ``ValueError``); 3 size
refusal (``CapExceededError``: a cap set in ``report``, applied by ``param``
and ``minors`` only, or a limit of the theory or of the built-in
enumeration; ``param`` also exits 3 when it refused a parameter).
"""

from __future__ import annotations

import argparse
import os
import sys
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable

from . import families
from .canon import enumerate_connected
from .graphs import (CapExceededError, Graph, GraphError, _LineError, parse_graph6,
                     parse_graphs)
from .linalg import PatternFamily, has_sap, sample_matrix
from .minors import has_minor, hadwiger
from .report import (FLAG_NAMES, PARAM_NAMES, ReportInvariantError, ResultCache,
                     SurveyRow, check_vertex_cap, compute_report, survey_graphs)
from .sapgame import format_sap_trace, is_zsap_zero, replay_trace, sap_closure
from .xi import XI_COMPONENT_LIMIT, XiUnresolvedError, xi
from .zeroforcing import CONVENTIONAL_RULES, Rule, min_zfs

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_GUARD = 3

FAMILY_RULES = {PatternFamily.S: Rule.Z, PatternFamily.S_ELL: Rule.ZL,
                PatternFamily.S_PLUS: Rule.ZPLUS}


def parse_label(label: str, choices: Iterable[Enum], what: str) -> Enum:
    """The member of ``choices`` whose value is ``label``, ignoring case."""
    for choice in choices:
        if choice.value.lower() == label.lower():
            return choice
    raise ValueError(f"unknown {what} {label!r}; expected one of "
                     f"{', '.join(c.value for c in choices)}")


def read_graphs(path: str, indexing: int = 1) -> list[Graph]:
    """The graphs in a file, for ``--graph`` and ``survey --corpus`` alike,
    by the one grammar of ``graphs.parse_graphs``.  An error on a line reads
    ``path:line: ...``, any other ``path: ...``."""
    try:
        return parse_graphs(Path(path).read_text(), indexing)
    except _LineError as exc:
        raise GraphError(f"{path}:{exc.line}: {exc.reason}") from exc
    except GraphError as exc:
        raise GraphError(f"{path}: {exc}") from exc


def load_graph(spec: str, indexing: int = 1,
               check_order: Callable[[int], None] = lambda n: None) -> Graph:
    """Resolve --graph: a file holding one graph (``read_graphs``), a known
    graph name, or a literal graph6 string, tried in that order, so a file
    wins over a name.  A spec the file system cannot even look up (a graph6
    string longer than a file name may be) is not a file.  ``check_order``
    sees the vertex count of every graph returned, and a sized name's also
    before the graph is built (``param`` and ``minors`` pass the vertex
    cap)."""
    if os.path.isfile(spec):
        graphs = read_graphs(spec, indexing)
        if len(graphs) > 1:
            raise GraphError(f"{spec}: {len(graphs)} graph6 lines, but --graph reads one "
                             "graph (survey --corpus reads a list)")
        g = graphs[0]
    else:
        try:
            g = families.by_name(spec, check_order)
        except KeyError:
            g = parse_graph6(spec)
    check_order(g.n)
    return g


def cmd_param(args) -> int:
    g = load_graph(args.graph, args.indexing, check_vertex_cap)
    params = PARAM_NAMES if args.params == "all" else tuple(
        p for p in args.params.split(",") if p)
    flags = FLAG_NAMES if args.flags == "all" else tuple(
        f for f in args.flags.split(",") if f)
    cache = ResultCache(args.cache) if args.cache else None
    report = compute_report(g, list(params), list(flags), cache)
    out = report.to_json()
    if args.out:
        Path(args.out).write_text(out + "\n")
    print(out)
    for name, reason in report.refused.items():
        print(f"refused: parameter {name}: {reason}", file=sys.stderr)
    return EXIT_GUARD if report.refused else EXIT_OK


def cmd_trace(args) -> int:
    g = load_graph(args.graph, args.indexing)
    rule = parse_label(args.rule, CONVENTIONAL_RULES, "rule")
    final, trace = sap_closure(g, (), rule)
    if replay_trace(g, (), trace, rule) != final:
        print("internal error: trace failed replay verification", file=sys.stderr)
        return EXIT_VIOLATION
    text = format_sap_trace(trace)
    if text:
        print(text)
    white = len(final.white_nonedges())
    total = len(g.non_edges())
    if white == 0:
        print(f"verdict: all {total} non-edges blue")
    else:
        print(f"verdict: {white} non-edges remain white")
    return EXIT_OK


def cmd_verify_sap(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    g = load_graph(args.graph, args.indexing)
    family = parse_label(args.family, PatternFamily, "family")
    rule = FAMILY_RULES[family]
    flag = is_zsap_zero(g, rule)
    passes = 0
    failures = []
    for i in range(args.samples):
        a = sample_matrix(g, family, seed=args.seed + i)
        if has_sap(g, a):
            passes += 1
        else:
            failures.append(args.seed + i)
    if flag:
        if passes == args.samples:
            print(f"PASS: game value 0 for rule {rule.value}; "
                  f"{passes}/{args.samples} sampled matrices have the property")
            return EXIT_OK
        print(f"FAIL: game value 0 for rule {rule.value} but seeds {failures} "
              f"produced matrices without the property")
        return EXIT_VIOLATION
    print(f"not guaranteed: the {rule.value} game does not finish from an "
          f"empty start; {passes}/{args.samples} sampled matrices have the "
          f"property anyway")
    return EXIT_OK


def cmd_survey(args) -> int:
    rows: list[SurveyRow] = []
    if args.corpus:
        groups: dict[int, list[Graph]] = {}
        for g in read_graphs(args.corpus):
            groups.setdefault(g.n, []).append(g)
        for n in sorted(groups):
            rows.append(survey_graphs(groups[n], n))
    else:
        rows.append(survey_graphs(list(enumerate_connected(args.n)), args.n))
    text = "\n".join([SurveyRow.CSV_HEADER, *(r.to_csv() for r in rows)]) + "\n"
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return EXIT_OK


def cmd_verify_xi(args) -> int:
    if args.n > XI_COMPONENT_LIMIT:
        raise CapExceededError(
            f"the pipeline only covers graphs on at most {XI_COMPONENT_LIMIT} "
            f"vertices, got {args.n}")
    exceptions = []
    unresolved = []
    total = 0
    for g in enumerate_connected(args.n):
        total += 1
        try:
            cert = xi(g)
        except XiUnresolvedError:
            unresolved.append(g.to_graph6())
            continue
        # the cases that reached the floor game carry its value
        floor = cert.upper_witness.get("floor")
        if floor is None:
            floor = min_zfs(g, Rule.FLOOR)[0]
        if cert.value != floor:
            exceptions.append((g.to_graph6(), cert.value, floor))
    print(f"n={args.n}: {total} graphs, {len(exceptions)} exceptions, "
          f"{len(unresolved)} unresolved")
    for g6, value, floor in exceptions:
        print(f"  exception: {g6}: certified {value}, floor {floor}")
    for g6 in unresolved:
        print(f"  unresolved: {g6}")
    return EXIT_OK if not exceptions and not unresolved else EXIT_VIOLATION


def cmd_minors(args) -> int:
    g = load_graph(args.graph, args.indexing, check_vertex_cap)
    if args.pattern is not None:
        hit, witness = has_minor(g, load_graph(args.pattern, args.indexing, check_vertex_cap))
        if not hit:
            print("minor: no")
            return EXIT_OK
        head = "minor: yes"
    else:
        eta, witness = hadwiger(g)
        head = f"largest complete minor: {eta}"
    sets = ", ".join("{" + ",".join(map(str, sorted(b))) + "}" for b in witness)
    print(f"{head}; branch sets: {sets}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sapforce",
        description="Zero forcing games on non-edges, exact Strong Arnold "
                    "Property checks, and small-graph parameter surveys")
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_options(p):
        p.add_argument("--graph", required=True,
                       help="file path, known graph name, or graph6 string")
        p.add_argument("--indexing", type=int, choices=(0, 1), default=1,
                       help="vertex indexing convention for edge-list files")

    p = sub.add_parser("param", help="compute parameters and flags for one graph")
    graph_options(p)
    p.add_argument("--cache", help="append-only result cache path")
    p.add_argument("--out", help="write output to this path")
    p.add_argument("--params", default="all",
                   help=f"comma list from {','.join(PARAM_NAMES)} (default all)")
    p.add_argument("--flags", default="all",
                   help=f"comma list from {','.join(FLAG_NAMES)} (default all)")
    p.set_defaults(func=cmd_param)

    p = sub.add_parser("trace", help="print the deterministic non-edge forcing trace")
    graph_options(p)
    p.add_argument("--rule", default="Z", help="local game rule: Z, Zl, or Zplus")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("verify-sap", help="sample matrices and check the property")
    graph_options(p)
    p.add_argument("--family", default="S", help="S, S_ell, or S_plus")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_sap)

    p = sub.add_parser("survey", help="proportions of zero game values over connected graphs")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--n", type=int)
    source.add_argument("--corpus", help="graph file: graph6 lines, or one edge list")
    p.add_argument("--out", help="write output to this path")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("verify-xi", help="check the parameter against the floor bound")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_verify_xi)

    p = sub.add_parser("minors", help="minor containment or largest complete minor")
    graph_options(p)
    p.add_argument("--pattern", help="pattern graph to find as a minor")
    p.set_defaults(func=cmd_minors)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors exit 2, --help exits 0
        return exc.code
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ReportInvariantError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
