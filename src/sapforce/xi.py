"""The Colin de Verdiere type parameter for graphs whose components have at
most seven vertices.

For such graphs the maximum nullity equals the zero forcing number, and the
parameter is pinned between lower bounds (maximum nullity when the non-edge
game completes from nothing; maximum nullity minus the vertex-cover game
value; clique minor order minus one; 3 when a forbidden-minor family member
is present) and the upper bound given by the hop-extended forcing number.
The decision procedure tries the cases in a fixed order and reports the
first one that closes the gap, together with machine-checkable witnesses.
The clique-minor case asks only whether K_{f+1} is a minor, f the floor
bound: eta - 1 <= xi (minor monotonicity and xi(K_p) >= p - 1; Barioli,
Fallat and Hogben, ELA 13, 2005) and xi <= f (Barioli et al., J. Graph
Theory 72, 2013), so eta <= f + 1 and such a minor means eta = f + 1.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from functools import cache

from .canon import canonical_form
from .families import complete
from .graphs import CapExceededError, Graph, GraphError, parse_edge_list
from .minors import BranchSets, has_minor, hadwiger
from .sapgame import is_zsap_zero, vc_forcing_number
from .zeroforcing import Rule, min_zfs

XI_COMPONENT_LIMIT = 7


class MSizeError(CapExceededError):
    """Maximum nullity is only available via zero forcing for trees and
    graphs on at most 7 vertices; anything else must be refused loudly."""


class XiUnresolvedError(RuntimeError):
    """None of the decision cases closed the gap (not expected to happen
    for graphs within the supported size)."""

    def __init__(self, g: Graph, details: dict):
        super().__init__(f"no case resolved xi for {g.to_graph6()}: {details}")
        self.graph = g
        self.details = details


class ConfigurationError(RuntimeError):
    """The bundled forbidden-minor data file is missing or malformed."""


def m_small(g: Graph) -> int:
    """Maximum nullity via zero forcing; valid for |G| <= 7 or trees."""
    if g.n > XI_COMPONENT_LIMIT and not g.is_tree():
        raise MSizeError(
            f"maximum nullity is unknown at {g.n} vertices (only trees and "
            f"graphs on at most {XI_COMPONENT_LIMIT} vertices are supported)"
        )
    return min_zfs(g, Rule.Z)[0]


# -- forbidden-minor family -------------------------------------------------

@dataclass(frozen=True)
class T3FamilyData:
    """The six minor-minimal graphs whose presence certifies xi >= 3."""

    graphs: tuple[Graph, ...]


def _parse_family(text: str) -> T3FamilyData:
    lines = [ln for ln in (s.rstrip() for s in text.splitlines())
             if not ln.lstrip().startswith("#")]
    blocks: list[list[str]] = [[]]
    for ln in lines:
        if ln.strip():
            blocks[-1].append(ln)
        elif blocks[-1]:
            blocks.append([])
    blocks = [b for b in blocks if b]
    try:
        graphs = tuple(parse_edge_list("\n".join(b)) for b in blocks)
    except (GraphError, ValueError) as exc:
        raise ConfigurationError(f"bad bundled family data: {exc}") from exc
    if len(graphs) != 6:
        raise ConfigurationError(
            f"bundled family data has {len(graphs)} graphs, expected 6")
    forms = {canonical_form(g) for g in graphs}
    if len(forms) != 6:
        raise ConfigurationError("bundled family data has isomorphic duplicates")
    return T3FamilyData(graphs)


@cache
def load_t3_family() -> T3FamilyData:
    """The bundled family (Hogben and van der Holst, 2007), read once."""
    resource = importlib.resources.files("sapforce").joinpath("data/t3_family.txt")
    try:
        text = resource.read_text()
    except FileNotFoundError as exc:
        raise ConfigurationError("bundled family data file is missing") from exc
    return _parse_family(text)


def t3_minor(g: Graph) -> tuple[bool, tuple[int, BranchSets] | None]:
    """Does the graph contain any family member as a minor?  On success the
    witness is (member index, branch sets)."""
    for idx, member in enumerate(load_t3_family().graphs):
        if member.n > g.n:
            continue
        hit, branches = has_minor(g, member)
        if hit:
            return True, (idx, branches)
    return False, None


# -- certificates -----------------------------------------------------------

CASE_ZSAP_ZERO = "zsap_zero"
CASE_TREE = "tree"
CASE_VC_BOUND = "vc_bound"
CASE_HADWIGER = "hadwiger"
CASE_T3_FAMILY = "t3_family"
CASE_COMPONENT_MAX = "component_max"


@dataclass(frozen=True)
class XiCertificate:
    """Certified value with the case that resolved it and both witnesses."""

    case: str
    value: int
    lower_witness: dict
    upper_witness: dict
    components: tuple["XiCertificate", ...] = field(default=())

    def to_record(self, g: Graph) -> dict:
        """The certificate as a JSON record on ``g``, the graph it was
        decided on: the witnesses use the labeling of its graph6.  A
        component maximum also lists each component's vertices in that
        labeling with the component's own record on its induced graph."""
        record = {
            "graph6": g.to_graph6(),
            "xi": self.value,
            "case": self.case,
            "lower_witness": self.lower_witness,
            "upper_witness": self.upper_witness,
        }
        if self.components:
            record["components"] = [
                {"vertices": sorted(comp), "record": cert.to_record(g.induced(comp))}
                for comp, cert in zip(g.components(), self.components)]
        return record


def _xi_connected(g: Graph) -> XiCertificate:
    if g.n > XI_COMPONENT_LIMIT:
        raise CapExceededError(
            f"xi is only computed for components with at most "
            f"{XI_COMPONENT_LIMIT} vertices, got {g.n}")
    m, m_witness = min_zfs(g, Rule.Z)
    if is_zsap_zero(g, Rule.Z):
        return XiCertificate(
            CASE_ZSAP_ZERO, m,
            {"max_nullity": m, "note": "empty start forces every non-edge, "
                                       "so the parameter equals the maximum nullity"},
            {"zero_forcing_witness": sorted(m_witness)},
        )
    if g.is_tree():
        value = 1 if g.is_path_graph() else 2
        return XiCertificate(
            CASE_TREE, value,
            {"tree": True, "path": value == 1},
            {"tree": True},
        )
    floor, floor_witness = min_zfs(g, Rule.FLOOR)
    upper = {"floor_witness": sorted(floor_witness), "floor": floor}
    vc, vc_witness = vc_forcing_number(g, Rule.Z)
    if floor == m - vc:
        return XiCertificate(
            CASE_VC_BOUND, floor,
            {"max_nullity": m, "vc_game_value": vc,
             "vc_witness": sorted(vc_witness)},
            upper,
        )
    # eta <= floor + 1 (module docstring): ask only for the largest there can be
    hit, branches = has_minor(g, complete(floor + 1))
    if hit:
        return XiCertificate(
            CASE_HADWIGER, floor,
            {"clique_minor_order": floor + 1,
             "branch_sets": [sorted(b) for b in branches]},
            upper,
        )
    if floor == 3:
        hit, witness = t3_minor(g)
        if hit:
            idx, branches = witness
            return XiCertificate(
                CASE_T3_FAMILY, 3,
                {"family_member": idx,
                 "branch_sets": [sorted(b) for b in branches]},
                upper,
            )
    raise XiUnresolvedError(g, {"max_nullity": m, "floor": floor,
                                "vc_game_value": vc,
                                "clique_minor_order": hadwiger(g)[0]})


def xi(g: Graph) -> XiCertificate:
    """Certified parameter value; disconnected input takes the component
    maximum and keeps the per-component certificates."""
    comps = g.components()
    if len(comps) <= 1:
        return _xi_connected(g)
    certs = []
    for comp in comps:
        certs.append(_xi_connected(g.induced(comp)))
    best = max(certs, key=lambda c: c.value)
    return XiCertificate(
        CASE_COMPONENT_MAX, best.value,
        {"component_values": [c.value for c in certs]},
        {"component_values": [c.value for c in certs]},
        components=tuple(certs),
    )
