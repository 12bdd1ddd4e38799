"""Every module imports only names it uses: the library (but for the package
``__init__``, which imports to re-export), the tests and the tools.  The
package exports exactly the names that callers need."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def checked_modules():
    library = [p for p in sorted((ROOT / "src" / "sapforce").glob("*.py"))
               if p.name != "__init__.py"]
    return library + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation names its types inside a string
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, ast.arg):
            notes.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
        for note in notes:
            for part in ast.walk(note) if note is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                             if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in checked_modules()}
    assert {path: names for path, names in found.items() if names} == {}


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["b (line 2)", "os (line 1)"]
    assert unused_imports("from typing import List\ndef f() -> 'List[int]': pass\n") == []


# what ``import sapforce`` binds, its submodules included; a new export is a
# deliberate change to this list
PUBLIC_NAMES = [
    "CapExceededError", "Force", "Graph", "Graph6Error", "GraphError", "MSizeError",
    "NonEdgeColoring", "OddCycleForce", "ParameterReport", "PatternError",
    "PatternFamily", "PerturbationError", "RationalMatrix", "ReportInvariantError",
    "ResultCache", "Rule", "SapForce", "SurveyRow", "T3FamilyData", "TripleForce",
    "XiCertificate", "XiUnresolvedError", "build_sap_matrix", "canon",
    "canonical_form", "canonical_graph", "clique_number", "closure", "compute_report",
    "encode_graph6", "enumerate_connected", "enumerate_graphs", "families",
    "floor_force_sequence", "format_sap_trace", "format_trace", "graphs", "hadwiger",
    "has_minor", "has_sap", "is_zfs", "is_zsap_zero", "linalg", "load_t3_family",
    "m_small", "min_zfs", "minors", "nullity", "odd_cycle_det", "parse_edge_list",
    "parse_graph6", "perturbation_witness", "replay_trace", "report", "sample_matrix",
    "sap_closure", "sap_forcing_number", "sapgame", "survey_graphs", "t3_minor",
    "vc_forcing_number", "vertex_cover_number", "xi", "zeroforcing",
]


def test_public_surface_is_pinned():
    # a fresh interpreter: a test that imports ``sapforce.cli`` binds ``cli``
    proc = subprocess.run(
        [sys.executable, "-c", "import sapforce\n"
         "print(*sorted(n for n in vars(sapforce) if not n.startswith('_')))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout.split() == PUBLIC_NAMES
