"""Layer spans for the traced benchmark run.

The tracer wraps the library's public functions at each layer boundary from
outside the library.  It replaces the function object in every ``sapforce``
module that holds it (``sapforce.minors.canonical_form``,
``sapforce.xi.hadwiger``, the package namespace, ...), so calls made inside
the library are caught as well as the benchmark's own.  Two boundaries are
methods and are patched on their class: ``Graph.__post_init__`` (paid by
every graph built) and ``RationalMatrix.rank`` (Bareiss elimination).

Spans stay in compact in-memory arrays while the run is timed; self times,
counts and ratios are computed from them afterwards, and the raw spans are
written out at the end.  A span's self time is its duration minus the time
its direct children cover (calls nest strictly in a single thread).
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

XI_CASES = ("zsap_zero", "tree", "vc_bound", "hadwiger", "t3_family")

# Every per-layer metric, as (name, unit, better); BENCHMARK.json lists the same.
PER_LAYER = [
    ("canon.calls", "count", "lower"),
    ("canon.self_s", "s", "lower"),
    ("canon.call_us_p50", "us", "lower"),
    ("canon.call_us_p99", "us", "lower"),
    ("canon.classes_per_call", "ratio", "higher"),
    ("graphs.graph_new.calls", "count", "lower"),
    ("graphs.graph_new.self_s", "s", "lower"),
    ("minors.hadwiger.calls", "count", "lower"),
    ("minors.hadwiger.self_s", "s", "lower"),
    ("minors.has_minor.calls", "count", "lower"),
    ("minors.has_minor.self_s", "s", "lower"),
    ("minors.canon_calls", "count", "lower"),
    ("minors.canon_s", "s", "lower"),
    ("zeroforcing.min_zfs.calls", "count", "lower"),
    ("zeroforcing.min_zfs.Z.self_s", "s", "lower"),
    ("zeroforcing.min_zfs.FloorZ.self_s", "s", "lower"),
    ("zeroforcing.single_forces.calls", "count", "lower"),
    ("zeroforcing.single_forces.self_s", "s", "lower"),
    ("sapgame.closure.calls", "count", "lower"),
    ("sapgame.closure.self_s", "s", "lower"),
    ("sapgame.moves", "count", "lower"),
    ("sapgame.moves_per_closure", "count", "lower"),
    ("sapgame.odd_cycle.calls", "count", "lower"),
    ("sapgame.odd_cycle.self_s", "s", "lower"),
    ("sapgame.complete_ratio", "ratio", "higher"),
    ("sapgame.vc_game.calls", "count", "lower"),
    ("sapgame.vc_game.self_s", "s", "lower"),
    ("linalg.has_sap.calls", "count", "lower"),
    ("linalg.build.self_s", "s", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.rank.self_s", "s", "lower"),
    ("linalg.cells", "count", "lower"),
    ("linalg.no_sap_ratio", "ratio", "higher"),
    ("linalg.nullity2_ratio", "ratio", "higher"),
    ("xi.calls", "count", "lower"),
    ("xi.self_s", "s", "lower"),
    *((f"xi.case.{c}", "count", "higher") for c in XI_CASES),
    *((f"xi.case_s.{c}", "s", "lower") for c in XI_CASES),
    ("report.survey_graphs.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.coverage", "ratio", "higher"),
]


def _min_zfs_name(args, kwargs) -> str:
    rule = args[1] if len(args) > 1 else kwargs["rule"]
    return f"zeroforcing.min_zfs.{rule.value}"


def _closure_detail(args, result):
    final, trace = result
    return len(trace), final.is_complete()


def _verdict(args, result):
    return bool(result)


def _cells(args, result):
    m = args[0]
    return m.rows * m.cols


def _case(args, result):
    return result.case


# (module, attribute, span name, detail): the functions at each layer boundary.
FUNCTIONS = [
    ("sapforce.canon", "canonical_form", "canon", None),
    ("sapforce.canon", "canonical_graph", "canon", None),
    ("sapforce.minors", "hadwiger", "minors.hadwiger", None),
    ("sapforce.minors", "has_minor", "minors.has_minor", None),
    ("sapforce.zeroforcing", "min_zfs", _min_zfs_name, None),
    ("sapforce.zeroforcing", "single_forces", "zeroforcing.single_forces", None),
    ("sapforce.sapgame", "sap_closure", "sapgame.closure", _closure_detail),
    ("sapforce.sapgame", "odd_cycle_applications", "sapgame.odd_cycle", None),
    ("sapforce.sapgame", "vc_forcing_number", "sapgame.vc_game", None),
    ("sapforce.linalg", "has_sap", "linalg.has_sap", _verdict),
    ("sapforce.linalg", "build_sap_matrix", "linalg.build", None),
    ("sapforce.xi", "xi", "xi", _case),
    ("sapforce.report", "survey_graphs", "report.survey_graphs", None),
]

# (module, class, method, span name, detail)
METHODS = [
    ("sapforce.graphs", "Graph", "__post_init__", "graphs.graph_new", None),
    ("sapforce.linalg", "RationalMatrix", "rank", "linalg.rank", _cells),
]

OP = "op"


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sapforce" or name.startswith("sapforce."))]


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.detail: dict[int, object] = {}
        self._stack = [-1]
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, detail=None):
        """Return ``fn`` recording one span per call.  ``name`` is a span
        name or a function of the call's arguments that gives one; ``detail``
        maps (args, result) to a value kept with the span."""
        fixed = None if callable(name) else self._nid(name)
        name_append, parent_append = self.name.append, self.parent.append
        op_append, start_append = self.op.append, self.start.append
        end, end_append, stack, details = self.end, self.end.append, self._stack, self.detail
        tracer = self

        def traced(*args, **kwargs):
            sid = len(end)
            name_append(fixed if fixed is not None else tracer._nid(name(args, kwargs)))
            parent_append(stack[-1])
            op_append(tracer._op)
            end_append(0)
            stack.append(sid)
            start_append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()
            if detail is not None:
                details[sid] = detail(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every layer boundary in every loaded ``sapforce`` module."""
        modules = _library_modules()
        for mod_name, attr, span, detail in FUNCTIONS:
            orig = getattr(importlib.import_module(mod_name), attr)
            traced = self.wrap(orig, span, detail)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, orig))
        for mod_name, cls_name, attr, span, detail in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(orig, span, detail))
            self._undo.append((cls, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one benchmark op."""
        self._op = op_id
        sid = len(self.end)
        self.name.append(self._nid(OP))
        self.parent.append(self._stack[-1])
        self.op.append(op_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def end_op(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()
        self._op = -1

    def summary(self, classes: int = 0, nullity2_ratio: float = 0.0, overhead_ratio: float = 0.0,
                seconds_of=lambda t0, t1: (t1 - t0) / 1e9) -> dict[str, float]:
        """Every metric in PER_LAYER, with span durations timed by
        ``seconds_of``.  ``classes`` (isomorphism classes emitted),
        ``nullity2_ratio`` and ``overhead_ratio`` come from the workload,
        which is the only place they are known."""
        n = len(self.end)
        dur = [seconds_of(self.start[i], self.end[i]) for i in range(n)]
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        by_name: dict[str, list[int]] = {nm: [] for nm in self.names}
        for i in range(n):
            by_name[self.names[self.name[i]]].append(i)
        calls = {nm: len(spans) for nm, spans in by_name.items()}
        self_s = {nm: sum(dur[i] - covered[i] for i in spans) for nm, spans in by_name.items()}

        def ids(name: str) -> list[int]:
            return by_name.get(name, [])

        def details(name: str) -> list:
            """Details of the spans that returned (a raising call has none)."""
            return [self.detail[i] for i in ids(name) if i in self.detail]

        minors_ids = {self._ids[m] for m in ("minors.hadwiger", "minors.has_minor") if m in self._ids}
        canon_us, minor_canon = [], []
        for i in ids("canon"):
            canon_us.append(dur[i] * 1e6)
            p = self.parent[i]
            while p >= 0 and self.name[p] not in minors_ids:
                p = self.parent[p]
            if p >= 0:
                minor_canon.append(dur[i])

        closures = details("sapgame.closure")
        moves = sum(m for m, _ in closures)
        verdicts = details("linalg.has_sap")
        op_time = sum(dur[i] for i in ids(OP))
        op_covered = sum(covered[i] for i in ids(OP))

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out = {
            "canon.call_us_p50": _percentile(canon_us, 50),
            "canon.call_us_p99": _percentile(canon_us, 99),
            "canon.classes_per_call": ratio(classes, calls.get("canon", 0)),
            "minors.canon_calls": len(minor_canon),
            "minors.canon_s": sum(minor_canon),
            "zeroforcing.min_zfs.calls": sum(c for k, c in calls.items()
                                             if k.startswith("zeroforcing.min_zfs.")),
            "sapgame.moves": moves,
            "sapgame.moves_per_closure": ratio(moves, len(closures)),
            "sapgame.complete_ratio": ratio(sum(1 for _, done in closures if done), len(closures)),
            "linalg.cells": sum(details("linalg.rank")),
            "linalg.no_sap_ratio": ratio(sum(1 for v in verdicts if not v), len(verdicts)),
            "linalg.nullity2_ratio": nullity2_ratio,
            "trace.overhead_ratio": overhead_ratio,
            "trace.coverage": ratio(op_covered, op_time),
        }
        for c in XI_CASES:
            hits = [i for i in ids("xi") if self.detail.get(i) == c]
            out[f"xi.case.{c}"] = len(hits)
            out[f"xi.case_s.{c}"] = sum(dur[i] for i in hits)
        for metric, _, _ in PER_LAYER:
            if metric in out:
                continue
            span, _, field = metric.rpartition(".")
            out[metric] = calls.get(span, 0) if field == "calls" else self_s.get(span, 0.0)
        return out

    def write(self, path: Path) -> None:
        """Write every span as ``id name start_ns end_ns parent op`` (TSV, gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.end)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{self.parent[i]}\t{self.op[i]}\n")
