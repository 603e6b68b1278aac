"""Smoke tests of the benchmark itself: ``python -m pytest bench``.

They run the real command in smoke mode (the same code paths on A2/G2-sized
inputs at depth 3), so they finish in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--seconds", "0.3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(*args):
    done = bench(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", NAMES)
def test_known_answers_hold_on_two_seeds(workload, seed):
    result = result_of("--workload", workload, "--seed", str(seed), "--trace", "0")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_and_spans_cover_the_pass(workload):
    first = result_of("--workload", workload, "--seed", "3", "--trace", "1")
    second = result_of("--workload", workload, "--seed", "3", "--trace", "1")
    # correct also covers: equal counts in two traced passes, and identical
    # outputs between traced and untraced passes
    assert first["correct"] is True and second["correct"] is True
    assert sorted(first["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert first["metrics"]["trace.coverage"]["value"] >= 0.9
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] not in ("s", "ratio")]
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}


def test_all_prints_every_workload():
    result = result_of("--workload", "all", "--seed", "4")
    assert result["correct"] is True
    for name in NAMES:
        assert f"{name}.wall_rel" in result["metrics"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", NAMES[0], "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_answer_checks_catch_wrong_outputs():
    sys.path.insert(0, str(ROOT / "src"))
    import clustermut
    import clustermut.cli  # noqa: F401

    laurent = workloads.LaurentDeep(clustermut, 1, smoke=True)
    outputs = laurent.run(clustermut)
    assert all(ok for _, ok in laurent.check(outputs))
    code, text = outputs[0]
    broken = [(code, text.replace('"confirmed"', '"refuted"'))] + outputs[1:]
    assert not all(ok for _, ok in laurent.check(broken))

    graph = workloads.GraphA(clustermut, 1, smoke=True)
    reports, data = graph.run(clustermut)
    obj = json.loads(data)
    obj["edges"].pop()
    assert not all(ok for _, ok in graph.check((reports, json.dumps(obj).encode())))


def test_compatibility_oracle_rejects_a_corrupted_form():
    rows = [[0, 1, 1], [-1, 0, 0]]
    omega = [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]]
    assert workloads.compatible(omega, rows)
    omega[0][2], omega[2][0] = 2, -2
    assert not workloads.compatible(omega, rows)
    assert workloads.block_count([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]) == 2
    assert workloads.mutate_rows(workloads.mutate_rows(rows, 1), 1) == rows
