"""The committed reference answers, and BENCHMARK.json against the code."""

import json
from collections import Counter

import pytest
from conftest import BENCH, ROOT

REFS = BENCH / "refs"


def table(name):
    return [ln.split() for ln in (REFS / name).read_text().splitlines() if not ln.startswith("#")]


def test_survey_reference_gives_the_n8_row():
    verdicts = [tuple(map(int, r[1:])) for r in table("survey8.txt")]
    assert (len(verdicts), *map(sum, zip(*verdicts))) == (11117, 8164, 9753, 9784)


def test_xi_reference_cases_and_floor():
    rows = table("xi7.txt")
    assert Counter(r[1] for r in rows) == {"zsap_zero": 744, "vc_bound": 138, "hadwiger": 88,
                                          "t3_family": 15, "tree": 11}
    assert all(r[2] == r[3] for r in rows)  # xi = FloorZ


def test_class_list_is_the_connected_superset():
    classes = (REFS / "classes8.g6").read_text().splitlines()
    assert len(classes) == len(set(classes)) == 12346
    assert {r[0] for r in table("survey8.txt")} <= set(classes)


def test_benchmark_json_matches_the_code():
    from spans import PER_LAYER
    from workloads import END_TO_END, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


@pytest.mark.slow
def test_regenerated_references_are_byte_identical(tmp_path):
    from make_refs import write_refs

    write_refs(tmp_path)
    for name in ("classes8.g6", "survey8.txt", "xi7.txt"):
        assert (tmp_path / name).read_bytes() == (REFS / name).read_bytes(), name
