"""Parameter reports, survey rows, inequality validation, result caching."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Callable

from .canon import canonical_graph
from .graphs import CapExceededError, Graph
from .minors import hadwiger, vertex_cover_number
from .sapgame import _Game, is_zsap_zero, sap_forcing_number, vc_forcing_number
from .xi import m_small, t3_minor, xi
from .zeroforcing import Rule, min_zfs

CODE_VERSION = "0.1.0"

# The parameters are exhaustive searches, exponential in the graph size, and
# the library functions take no size limit; these caps, applied only here,
# keep every report inside bounded time.
VERTEX_CAP = 10
NONEDGE_CAP = 20
_NONEDGE_CAPPED = ("Zsap", "Zsapl", "Zsapp")


class ReportInvariantError(RuntimeError):
    """A computed report violates one of the known inequality chains."""


def _check_cap(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise CapExceededError(f"{what} {value} exceeds cap {limit}")


def check_vertex_cap(n: int) -> None:
    """Refuse a graph with more than ``VERTEX_CAP`` vertices."""
    _check_cap(n, VERTEX_CAP, "vertex count")


@dataclass
class ParameterReport:
    graph6: str
    params: dict[str, int] = field(default_factory=dict)
    flags: dict[str, bool] = field(default_factory=dict)
    certificates: dict[str, object] = field(default_factory=dict)
    refused: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        p, f = self.params, self.flags

        def chain(*names: str) -> None:
            have = [n for n in names if n in p]
            for a, b in zip(have, have[1:]):
                if p[a] > p[b]:
                    raise ReportInvariantError(
                        f"{self.graph6}: expected {a} <= {b}, got {p[a]} > {p[b]}")

        chain("Zplus", "Zl", "Z")
        chain("FloorZ", "Z")
        chain("Zsapp", "Zsapl", "Zsap")
        chain("Zvcl", "Zvc")
        chain("xi", "FloorZ")
        if "Zvc" in p and "beta_complement" in p and p["Zvc"] > p["beta_complement"]:
            raise ReportInvariantError(
                f"{self.graph6}: vertex-cover game value exceeds the complement cover number")
        if "xi" in p and "M_small" in p and "Zvc" in p:
            if p["M_small"] - p["Zvc"] > p["xi"]:
                raise ReportInvariantError(
                    f"{self.graph6}: M - Zvc exceeds xi")
        if "xi" in p and "hadwiger" in p and p["hadwiger"] - 1 > p["xi"]:
            raise ReportInvariantError(
                f"{self.graph6}: clique minor bound exceeds xi")
        for flag, param in (("zsap_zero", "Zsap"), ("zsapl_zero", "Zsapl"),
                            ("zsapp_zero", "Zsapp")):
            if flag in f and param in p and f[flag] != (p[param] == 0):
                raise ReportInvariantError(
                    f"{self.graph6}: flag {flag} disagrees with {param}")

    def to_json(self) -> str:
        payload = {
            "graph6": self.graph6,
            "params": dict(sorted(self.params.items())),
            "flags": dict(sorted(self.flags.items())),
            "certificates": self.certificates,
            "version": CODE_VERSION,
        }
        if self.refused:
            payload["refused"] = self.refused
        return json.dumps(payload, sort_keys=True)


# every parameter but "xi", which compute_report handles with its certificate
_PARAM_COMPUTERS: dict[str, Callable[[Graph], int]] = {
    "Z": lambda g: min_zfs(g, Rule.Z)[0],
    "Zl": lambda g: min_zfs(g, Rule.ZL)[0],
    "Zplus": lambda g: min_zfs(g, Rule.ZPLUS)[0],
    "FloorZ": lambda g: min_zfs(g, Rule.FLOOR)[0],
    "Zsap": lambda g: sap_forcing_number(g, Rule.Z)[0],
    "Zsapl": lambda g: sap_forcing_number(g, Rule.ZL)[0],
    "Zsapp": lambda g: sap_forcing_number(g, Rule.ZPLUS)[0],
    "Zvc": lambda g: vc_forcing_number(g, Rule.Z)[0],
    "Zvcl": lambda g: vc_forcing_number(g, Rule.ZL)[0],
    "beta_complement": lambda g: vertex_cover_number(g.complement()),
    "hadwiger": lambda g: hadwiger(g)[0],
    "M_small": m_small,
}


_FLAG_COMPUTERS: dict[str, Callable[[Graph], bool]] = {
    "zsap_zero": lambda g: is_zsap_zero(g, Rule.Z),
    "zsapl_zero": lambda g: is_zsap_zero(g, Rule.ZL),
    "zsapp_zero": lambda g: is_zsap_zero(g, Rule.ZPLUS),
    "t3_minor": lambda g: t3_minor(g)[0],
}

# the names compute_report accepts; it computes "xi" itself
PARAM_NAMES = (*_PARAM_COMPUTERS, "xi")
FLAG_NAMES = tuple(_FLAG_COMPUTERS)


def compute_report(
    g: Graph,
    params: list[str],
    flags: list[str] | None = None,
    cache: "ResultCache | None" = None,
) -> ParameterReport:
    """Compute the requested fields of a graph on at most ``VERTEX_CAP``
    vertices; a larger graph raises ``CapExceededError``.

    Everything is computed on the canonically relabeled graph, so the
    certificates' witnesses use the labeling of the report's ``graph6``.
    A parameter refused for its size (Zsap, Zsapl and Zsapp beyond
    ``NONEDGE_CAP`` non-edges, or one outside the range where it is known)
    lands in ``report.refused`` with the reason, and the rest are computed.
    """
    check_vertex_cap(g.n)
    g = canonical_graph(g)
    g6 = g.to_graph6()
    report = ParameterReport(g6)
    for name in dict.fromkeys(params):
        if name not in PARAM_NAMES:
            raise ValueError(f"unknown parameter {name!r}; expected one of {PARAM_NAMES}")
        # the cache holds values only; xi's value is reported with its certificate
        store = cache if name != "xi" else None
        cached = store.get(g6, name) if store else None
        if cached is not None:
            report.params[name] = cached
            continue
        try:
            if name in _NONEDGE_CAPPED:
                _check_cap(len(g.non_edges()), NONEDGE_CAP, "non-edge count")
            if name == "xi":
                cert = xi(g)
                report.params[name] = cert.value
                report.certificates["xi"] = cert.to_record(g)
            else:
                report.params[name] = _PARAM_COMPUTERS[name](g)
        except CapExceededError as exc:
            report.refused[name] = str(exc)
            continue
        if store:
            store.put(g6, name, report.params[name])
    for name in dict.fromkeys(flags or []):
        if name not in _FLAG_COMPUTERS:
            raise ValueError(f"unknown flag {name!r}; expected one of {FLAG_NAMES}")
        report.flags[name] = _FLAG_COMPUTERS[name](g)
    report.validate()
    return report


# -- survey rows --------------------------------------------------------

def _round2(count: int, total: int) -> str:
    if total == 0:
        return "0.00"
    return str((Decimal(count) / Decimal(total)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class SurveyRow:
    n: int
    total: int
    zsap0: int
    zsapl0: int
    zsapp0: int

    def __post_init__(self) -> None:
        for c in (self.zsap0, self.zsapl0, self.zsapp0):
            if not 0 <= c <= self.total:
                raise ValueError("survey counts must lie within the total")

    @property
    def proportions(self) -> tuple[str, str, str]:
        return (_round2(self.zsap0, self.total),
                _round2(self.zsapl0, self.total),
                _round2(self.zsapp0, self.total))

    CSV_HEADER = "n,total,zsap0,zsapl0,zsapp0,p_zsap0,p_zsapl0,p_zsapp0"

    def to_csv(self) -> str:
        p = self.proportions
        return (f"{self.n},{self.total},{self.zsap0},{self.zsapl0},"
                f"{self.zsapp0},{p[0]},{p[1]},{p[2]}")


def survey_graphs(graphs: list[Graph], n: int) -> SurveyRow:
    """Count the graphs, all of order ``n`` (else ``ValueError``), whose
    non-edge game finishes from an empty start under Z, Zl and Zplus.

    Each graph is played once up the chain Z, Zl, Zplus on one position:
    Zl continues from where Z stalled, and Zplus from where Zl stalled.  The
    first rule that finishes, and every rule after it, counts a zero; the
    rest are not played.  The verdicts are those of ``is_zsap_zero`` per
    rule because, at every position, a non-edge that a Z move can color a
    Zl move can color too, and one that a Zl move can color a Zplus move can
    (a Zl self-force j->j is a Zplus force from any blue neighbor of j; the
    odd cycle rule is the same under all three).  So the weaker rule's play
    followed by the stronger rule's closure is a maximal play of the
    stronger rule from the empty start, and by the lemma in the ``sapgame``
    docstring it ends in that rule's closure.  A complete coloring has no
    legal move, so a rule that finishes finishes every stronger rule too.
    """
    counts = [0, 0, 0]
    for g in graphs:
        if g.n != n:
            raise ValueError(f"survey of order {n} got {g.to_graph6()} on {g.n} vertices")
        game = _Game(g, ())
        for idx, rule in enumerate((Rule.Z, Rule.ZL, Rule.ZPLUS)):
            game.set_rule(rule)
            if game.close():
                for stronger in range(idx, 3):
                    counts[stronger] += 1
                break
    return SurveyRow(n, len(graphs), *counts)


# -- append-only result cache --------------------------------------------
#
# One JSON record per line, keyed by (canonical graph6, parameter name,
# code version); the file is never rewritten, so it doubles as an audit log.
# Lines that do not hold a record (say, one cut short by an interrupted
# write, or one whose keys are not strings or whose value is not a count,
# an int >= 0) are skipped and counted in ``skipped``.

class ResultCache:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._store: dict[tuple[str, str], int] = {}
        self.skipped = 0
        text = self.path.read_text() if self.path.exists() else ""
        # the next append must not glue its record onto a cut-off line
        self._needs_newline = bool(text) and not text.endswith("\n")
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                key, value = (rec["graph6"], rec["param"]), rec["value"]
                if not (all(type(k) is str for k in key)
                        and type(value) is int and value >= 0):
                    raise TypeError("not a cache record")
            except (ValueError, TypeError, KeyError):
                self.skipped += 1
                continue
            if rec.get("version") == CODE_VERSION:
                self._store[key] = value

    def get(self, graph6: str, param: str) -> int | None:
        return self._store.get((graph6, param))

    def put(self, graph6: str, param: str, value: int) -> None:
        if (graph6, param) in self._store:
            return
        self._store[(graph6, param)] = value
        with self.path.open("a") as fh:
            if self._needs_newline:
                fh.write("\n")
                self._needs_newline = False
            fh.write(json.dumps({"graph6": graph6, "param": param,
                                 "value": value, "version": CODE_VERSION},
                                sort_keys=True) + "\n")
