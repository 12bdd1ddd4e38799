"""Each workload's correctness gate must be able to fail.

Every test feeds one workload one wrong reference answer and checks that
the run counts the affected ops as failed and exits nonzero; the controls
check that the committed answers pass.  Run with
``python3 -m pytest perfbench/tests``.
"""

import shutil

import pytest
from conftest import BENCH, run_bench

REFS = BENCH / "refs"


def copy_refs(tmp_path):
    refs = tmp_path / "refs"
    shutil.copytree(REFS, refs)
    return refs


def rows(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def write_rows(path, lines):
    path.write_text("".join(ln + "\n" for ln in lines))


@pytest.mark.parametrize("workload", ["survey", "certify", "sap_check"])
def test_committed_answers_pass(workload):
    code, result = run_bench(workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_flipped_survey_verdict_fails(tmp_path):
    refs = copy_refs(tmp_path)
    lines = rows(refs / "survey8.txt")[:4]
    g6, z, zl, zp = lines[0].split()
    lines[0] = f"{g6} {1 - int(z)} {zl} {zp}"
    write_rows(refs / "survey8.txt", lines)
    code, result = run_bench("survey", refs)
    assert code == 1 and not result["correct"]
    # one graph in four is wrong, and every op on it must count as failed
    assert 0 < result["failed"] < result["attempted"]
    assert result["failed"] >= result["attempted"] // 4


def test_wrong_xi_case_fails(tmp_path):
    refs = copy_refs(tmp_path)
    lines = [ln for ln in rows(refs / "xi7.txt") if " hadwiger " in ln][:4]
    lines[0] = lines[0].replace(" hadwiger ", " vc_bound ")
    write_rows(refs / "xi7.txt", lines)
    code, result = run_bench("certify", refs)
    assert code == 1 and not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_no_sap_on_game_zero_label_fails(tmp_path):
    refs = copy_refs(tmp_path)
    # label every graph as one on which every game finishes from nothing
    for name, keep in (("xi7.txt", 4), ("survey8.txt", 1)):
        lines = [" ".join(ln.split()[:keep] + ["1", "1", "1"]) for ln in rows(refs / name)]
        write_rows(refs / name, lines)
    code, result = run_bench("sap_check", refs, seconds=2)
    assert code == 1 and not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


@pytest.mark.slow
def test_corrupted_class_list_fails(tmp_path):
    refs = copy_refs(tmp_path)
    lines = rows(refs / "classes8.g6")
    lines[100] = lines[101]
    write_rows(refs / "classes8.g6", lines)
    code, result = run_bench("enumerate", refs)
    assert code == 1 and not result["correct"]
    assert result["failed"] == 1


def test_refuses_without_library_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, result = run_bench("survey", script=tmp_path / "perfbench" / "run.py")
    assert code != 0 and result is None
