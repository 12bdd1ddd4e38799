"""The four benchmark workloads and their correctness checks.

Every workload but ``enumerate`` runs in this process, single-threaded, as a
closed loop: one op after another over a pool of inputs made in set-up
from the seed, in whole rounds over the pool until the requested seconds
have passed.  On a shared machine the same round can run a quarter faster
or slower from one stretch to the next, so the rate comes from the median
round and untraced runs report every time at a fixed machine speed (see
``speed.py``).  Outputs are checked against exact answers after the timed
loop.  ``enumerate`` must start cold, so each of its passes runs in a fresh
interpreter (``enum_child.py``).

The reference answers live in ``refs/`` (see ``make_refs.py``).  Relabeling
a graph does not change any of them, so every in-process workload relabels
each input graph by a seeded random permutation.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import sapforce
from sapforce import PatternFamily

from matrices import clique_psd, sympy_has_sap
from spans import Tracer
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"

# (name, unit, better) of every end-to-end metric; BENCHMARK.json lists the same.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p99", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
SETUP_REPEATS = 5
POOL = 1000  # inputs per round where the corpus is larger: about 3 s a round
LATENCY_MIN_SAMPLES = 1000


@dataclass
class Result:
    workload: str
    attempted: int
    failures: list[tuple[str, int]]  # (what went wrong, ops it covers)
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)


@dataclass
class Phase:
    """Timed rounds over a pool of inputs: ``perf_counter_ns`` stamps of each
    round and each op, and every distinct output of each input with the
    number of ops that gave it (the exception, if an op raised).  Keeping
    distinct outputs only holds memory to the pool size, so that peak memory
    does not grow with the number of rounds."""

    pool: int
    round_ns: list[tuple[int, int]]
    op_t0: array
    op_t1: array
    distinct: list[list[list]]

    @property
    def ops(self) -> int:
        return len(self.op_t0)

    @property
    def outcomes(self) -> list[tuple[int, object, int]]:
        """(input index, output, ops that gave it)"""
        return [(k, out, n) for k, outs in enumerate(self.distinct) for out, n in outs]

    def metrics(self, seconds_of=lambda t0, t1: (t1 - t0) / 1e9) -> dict[str, float]:
        """Pool size over the median round, and the p50 and p99 of all op
        latencies, with intervals timed by ``seconds_of``.  A stretch of
        machine noise moves one round, not the median."""
        rounds = [seconds_of(*r) for r in self.round_ns]
        cuts = statistics.quantiles([seconds_of(t0, t1) * 1000
                                     for t0, t1 in zip(self.op_t0, self.op_t1)],
                                    n=100, method="inclusive")
        return {"ops_per_s": self.pool / statistics.median(rounds),
                "op_ms_p50": cuts[49], "op_ms_p99": cuts[98]}


def read_table(path: Path) -> list[list[str]]:
    return [line.split() for line in path.read_text().splitlines()
            if line and not line.startswith("#")]


def stratified_sample(rows: list, key, size: int, rng: random.Random) -> list:
    """``size`` rows drawn so that every value of ``key`` keeps its share of
    the corpus (largest remainders round the quotas), listed in key order.
    The cost of an op depends mostly on the key, so seeds change which
    inputs run, not how much work a round is."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    exact = {k: size * len(g) / len(rows) for k, g in groups.items()}
    quota = {k: int(q) for k, q in exact.items()}
    for k in sorted(exact, key=lambda k: (quota[k] - exact[k], k))[:size - sum(quota.values())]:
        quota[k] += 1
    return [row for k in sorted(groups) for row in rng.sample(groups[k], quota[k])]


def edge_count(g6: str) -> int:
    return sapforce.parse_graph6(g6).num_edges()


def relabel(g: sapforce.Graph, rng: random.Random) -> sapforce.Graph:
    order = list(g.vertices())
    rng.shuffle(order)
    return g.relabel([0] + order)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_rounds(op, inputs: list, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Run ``op`` on every input in turn, in whole rounds, until ``seconds``
    have passed; at least one round, so a run may overshoot by one round."""
    clock = time.perf_counter_ns
    op_t0, op_t1, round_ns = array("q"), array("q"), []
    distinct: list[list[list]] = [[] for _ in inputs]
    began = clock()
    while not round_ns or clock() - began < seconds * 1e9:
        r0 = clock()
        for k, item in enumerate(inputs):
            sid = tracer.begin_op(len(op_t0)) if tracer else 0
            t0 = clock()
            try:
                out = op(item)
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                out = exc
            t1 = clock()
            if tracer:
                tracer.end_op(sid)
            op_t0.append(t0)
            op_t1.append(t1)
            for seen in distinct[k]:
                if seen[0] == out:
                    seen[1] += 1
                    break
            else:
                distinct[k].append([out, 1])
        round_ns.append((r0, clock()))
    return Phase(len(inputs), round_ns, op_t0, op_t1, distinct)


# -- in-process workloads -------------------------------------------------

class Survey:
    """Z, Zl and Zplus games from an empty start on a seeded sample of the
    connected 8-vertex classes, through ``survey_graphs`` as ``sapforce
    survey`` does."""

    name = "survey"

    def setup(self, seed: int, refs: Path) -> list:
        rows = read_table(refs / "survey8.txt")
        rng = random.Random(f"survey/{seed}")
        picks = stratified_sample(rows, lambda r: edge_count(r[0]), min(POOL, len(rows)), rng)
        rng.shuffle(picks)
        return [(relabel(sapforce.parse_graph6(g6), rng), tuple(map(int, verdicts)))
                for g6, *verdicts in picks]

    @staticmethod
    def op(item):
        return sapforce.survey_graphs([item[0]], 8)

    def failures(self, inputs: list, outcomes: list) -> list[tuple[str, int]]:
        bad = []
        for k, row, n in outcomes:
            g, expected = inputs[k]
            got = (row.zsap0, row.zsapl0, row.zsapp0) if isinstance(row, sapforce.SurveyRow) else row
            if got != expected:
                bad.append((f"{g.to_graph6()}: verdicts {got!r}, expected {expected}", n))
        return bad


def _connected_within(g: sapforce.Graph, mask: int) -> bool:
    start = mask & -mask
    seen, frontier = start, start
    while frontier:
        nxt = 0
        for v in range(1, g.n + 1):
            if frontier >> v & 1:
                nxt |= g.adj[v] & mask
        frontier = nxt & ~seen
        seen |= frontier
    return seen == mask


def branch_sets_ok(g: sapforce.Graph, cert: sapforce.XiCertificate) -> bool:
    """Re-check a minor witness: disjoint, connected branch sets with an
    edge of ``g`` between the sets of every pattern edge."""
    lower = cert.lower_witness
    if cert.case == "hadwiger":
        order = lower["clique_minor_order"]
        if cert.value != order - 1:
            return False
        pattern = [(p, q) for p in range(1, order + 1) for q in range(p + 1, order + 1)]
    elif cert.case == "t3_family":
        member = sapforce.load_t3_family().graphs[lower["family_member"]]
        order, pattern = member.n, member.edges()
    else:
        return True
    sets = lower["branch_sets"]
    masks = [sum(1 << v for v in s) for s in sets]
    if len(sets) != order or any(not m for m in masks):
        return False
    union = 0
    for m in masks:
        if union & m:
            return False
        union |= m
    if not all(_connected_within(g, m) for m in masks):
        return False
    return all(any(g.adj[u] & masks[q - 1] for u in sets[p - 1]) for p, q in pattern)


class Certify:
    """``xi`` certificates for every connected class with at most 7 vertices."""

    name = "certify"

    def setup(self, seed: int, refs: Path) -> list:
        rows = read_table(refs / "xi7.txt")
        rng = random.Random(f"certify/{seed}")
        rng.shuffle(rows)
        return [(relabel(sapforce.parse_graph6(g6), rng), case, int(value), int(floor))
                for g6, case, value, floor, *_ in rows]

    @staticmethod
    def op(item):
        return sapforce.xi(item[0])

    def failures(self, inputs: list, outcomes: list) -> list[tuple[str, int]]:
        bad = []
        for k, cert, n in outcomes:
            g, case, value, floor = inputs[k]
            if not isinstance(cert, sapforce.XiCertificate):
                bad.append((f"{g.to_graph6()}: {cert!r}", n))
            elif (cert.case, cert.value) != (case, value) or cert.value != floor:
                bad.append((f"{g.to_graph6()}: {cert.case}={cert.value}, "
                            f"expected {case}={value} with FloorZ {floor}", n))
            elif not branch_sets_ok(g, cert):
                bad.append((f"{g.to_graph6()}: bad branch sets {cert.lower_witness}", n))
        return bad


@dataclass(frozen=True)
class SapInput:
    graph: sapforce.Graph
    matrix: sapforce.RationalMatrix
    family: PatternFamily
    game_zero: bool  # the family's game finishes from an empty start
    nullity: int


class SapCheck:
    """``has_sap`` on seeded 7- and 8-vertex connected graphs.  Three in four
    matrices are nullity-rich ``clique_psd`` draws (family S_plus); the rest
    come from ``sample_matrix`` with the family rotating over S, S_ell,
    S_plus."""

    name = "sap_check"
    GRAPHS_PER_ORDER = POOL // 2
    SYMPY_YES = 24  # "yes" verdicts re-checked by sympy, besides every "no"
    RULE_INDEX = {PatternFamily.S: 0, PatternFamily.S_ELL: 1, PatternFamily.S_PLUS: 2}
    SAMPLED_FAMILIES = (PatternFamily.S, PatternFamily.S_ELL, PatternFamily.S_PLUS)

    def setup(self, seed: int, refs: Path) -> list:
        self.seed = seed
        rng = random.Random(f"sap_check/{seed}")
        rows7 = [(r[0], r[4:]) for r in read_table(refs / "xi7.txt") if r[0][0] == chr(63 + 7)]
        rows8 = [(r[0], r[1:]) for r in read_table(refs / "survey8.txt")]
        picks = [p for corpus in (rows7, rows8)
                 for p in stratified_sample(corpus, lambda r: edge_count(r[0]),
                                            self.GRAPHS_PER_ORDER, rng)]
        inputs = []
        # in key order, so that each edge count gets its share of each kind
        for idx, (g6, verdicts) in enumerate(picks):
            g = relabel(sapforce.parse_graph6(g6), rng)
            if idx % 4 == 3:
                family = self.SAMPLED_FAMILIES[idx // 4 % 3]
                a = sapforce.sample_matrix(g, family, rng.randrange(2**32))
            else:
                family, a = PatternFamily.S_PLUS, clique_psd(g, rng)
            inputs.append(SapInput(g, a, family, verdicts[self.RULE_INDEX[family]] == "1",
                                   sapforce.nullity(a)))
        rng.shuffle(inputs)
        return inputs

    @staticmethod
    def op(item: SapInput):
        return sapforce.has_sap(item.graph, item.matrix)

    def failures(self, inputs: list, outcomes: list) -> list[tuple[str, int]]:
        no = {k for k, verdict, _ in outcomes if verdict is not True}
        yes = sorted({k for k, _, _ in outcomes} - no)
        rng = random.Random(f"sap_check/recheck/{self.seed}")
        recheck = sorted(no | set(rng.sample(yes, min(self.SYMPY_YES, len(yes)))))
        truth = {k: sympy_has_sap(inputs[k].graph, inputs[k].matrix) for k in recheck}
        bad = []
        for k, verdict, n in outcomes:
            item = inputs[k]
            if not isinstance(verdict, bool):
                bad.append((f"{item.graph.to_graph6()}: {verdict!r}", n))
            elif item.game_zero and not verdict:
                bad.append((f"{item.graph.to_graph6()}: no SAP although the "
                            f"{item.family.value} game finishes from nothing", n))
            elif k in truth and verdict != truth[k]:
                bad.append((f"{item.graph.to_graph6()}: has_sap {verdict}, "
                            f"sympy rank says {truth[k]}", n))
        return bad

    @staticmethod
    def nullity2_ratio(inputs: list, outcomes: list) -> float:
        return (sum(n for k, _, n in outcomes if inputs[k].nullity >= 2)
                / sum(n for _, _, n in outcomes))


def run_in_process(w, seed: int, seconds: float, trace: bool, refs: Path) -> Result:
    times = []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter_ns()
            inputs = w.setup(seed, refs)
            times.append(probe.reference_s(t0, time.perf_counter_ns()))
    setup_s = statistics.median(times)
    if not trace:
        with SpeedProbe() as probe:
            phase = timed_rounds(w.op, inputs, seconds)
        rss = peak_rss_mb()
        metrics = {"setup_s": setup_s, **phase.metrics(probe.reference_s), "peak_rss_mb": rss}
        raw = ", ".join(f"{k} {v:.4f}" for k, v in phase.metrics(probe.work_s).items())
        return Result(w.name, phase.ops, w.failures(inputs, phase.outcomes), metrics,
                      [f"latency samples: {phase.ops} ops on {len(inputs)} inputs, "
                       f"{len(phase.round_ns)} rounds",
                       f"wall clock, not speed-corrected: {raw}"])
    tracer = Tracer()
    with SpeedProbe() as probe:
        plain = timed_rounds(w.op, inputs, seconds / 2)
        tracer.install()
        try:
            traced = timed_rounds(w.op, inputs, seconds / 2, tracer)
        finally:
            tracer.uninstall()
    nullity2 = getattr(w, "nullity2_ratio", lambda inputs, outcomes: 0.0)
    rate = (traced.metrics(probe.reference_s)["ops_per_s"]
            / plain.metrics(probe.reference_s)["ops_per_s"])
    metrics = tracer.summary(nullity2_ratio=nullity2(inputs, traced.outcomes),
                             overhead_ratio=rate, seconds_of=probe.reference_s)
    spans_file = OUT / f"spans-{w.name}-seed{seed}.tsv.gz"
    tracer.write(spans_file)
    return Result(w.name, plain.ops + traced.ops,
                  w.failures(inputs, plain.outcomes + traced.outcomes), metrics,
                  [f"untraced ops: {plain.ops}, traced ops: {traced.ops}",
                   f"spans: {len(tracer.end)} written to {spans_file}"])


# -- enumerate ------------------------------------------------------------

EXPECTED_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def _child(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "enum_child.py"), *args],
                          capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def enumerate_failures(report: dict, expected8: list[str]) -> list[tuple[str, int]]:
    """Check one pass: the count at every level, and the 8-vertex list line
    by line against the reference (canonical forms are the cache keys)."""
    bad = []
    for level in report["levels"]:
        n, count = level["n"], level["count"]
        if count != EXPECTED_COUNTS[n]:
            bad.append((f"n={n}: {count} classes, expected {EXPECTED_COUNTS[n]}", count))
    got = report["classes8"]
    for i in range(max(len(got), len(expected8))):
        a = got[i] if i < len(got) else None
        b = expected8[i] if i < len(expected8) else None
        if a != b:
            bad.append((f"n=8 line {i + 1}: {a!r}, reference {b!r}", 1))
    return bad


def run_enumerate(seed: int, seconds: float, trace: bool, refs: Path) -> Result:
    """Cold ``enumerate_graphs(1..8)`` passes, each in a fresh interpreter.
    A pass takes longer than a usual ``--seconds``; at least one always runs.
    Enumeration emits classes in bulk, so there is no per-class latency: the
    latency metrics carry the amortized time per class."""
    expected8 = (refs / "classes8.g6").read_text().splitlines()
    setup_s = statistics.median([_child("--import-only")["import_s"] for _ in range(SETUP_REPEATS)])
    if trace:
        spans_file = OUT / f"spans-enumerate-seed{seed}.tsv.gz"
        plain = _child()
        traced = _child("--trace", str(spans_file))
        passes = [plain, traced]
    else:
        passes = []
        began = time.perf_counter()
        while not passes or time.perf_counter() - began < seconds:
            passes.append(_child())
    failures = [bad for p in passes for bad in enumerate_failures(p, expected8)]
    classes = sum(level["count"] for p in passes for level in p["levels"])

    def rate(ps: list[dict], key: str) -> float:
        return (sum(lv["count"] for p in ps for lv in p["levels"])
                / sum(lv[key] for p in ps for lv in p["levels"]))

    if trace:
        metrics = traced["layers"]
        metrics["trace.overhead_ratio"] = rate([traced], "ref_s") / rate([plain], "ref_s")
        notes = [f"spans: {traced['spans']} written to {spans_file}"]
    else:
        per_class_ms = 1000 / rate(passes, "ref_s")
        metrics = {"setup_s": setup_s, "ops_per_s": rate(passes, "ref_s"),
                   "op_ms_p50": per_class_ms, "op_ms_p99": per_class_ms,
                   "peak_rss_mb": max(p["rss_mb"] for p in passes)}
        notes = [f"passes: {len(passes)}; per level (n, classes, s): "
                 + ", ".join(f"({lv['n']}, {lv['count']}, {lv['s']:.3f})"
                             for lv in passes[0]["levels"]),
                 "latency: amortized per class (classes are emitted in bulk)",
                 f"wall clock, not speed-corrected: ops_per_s {rate(passes, 's'):.4f}"]
    return Result("enumerate", classes, failures, metrics, notes)


WORKLOADS = {
    "enumerate": run_enumerate,
    "survey": lambda *a: run_in_process(Survey(), *a),
    "certify": lambda *a: run_in_process(Certify(), *a),
    "sap_check": lambda *a: run_in_process(SapCheck(), *a),
}
