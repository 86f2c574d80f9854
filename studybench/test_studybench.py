"""Tests of the study benchmark itself, on tiny variants of each workload.

Run with ``python -m pytest studybench``.  Every benchmark run happens in
subprocesses, so nothing here patches ``rkhs_invlab`` in the test process.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = ("calls", "cells", "n3", "iterations", "failures")


def _run(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "studybench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return done


def _bench(workload, trace, out):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny", "--out", str(out))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    return line


def test_metric_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}",
                            metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None], ["d", 5.0, 9.0, 0, None]]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_study_seeds_follow_workload_seed():
    one = workloads.study_dicts("kernel", 1)
    assert one == workloads.study_dicts("kernel", 1)
    assert [s["seed"] for s in one] != [
        s["seed"] for s in workloads.study_dicts("kernel", 2)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload(workload, tmp_path):
    plain = _bench(workload, 0, tmp_path / "plain.json")
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = [_bench(workload, 1, tmp_path / f"traced{i}.json")
              for i in range(2)]
    assert set(traced[0]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, metric in traced[0]["metrics"].items():
        if name.rsplit(".", 1)[1] in COUNT_SUFFIXES:
            assert metric["value"] == traced[1]["metrics"][name]["value"], name

    for spans_file in (tmp_path / "spans").glob("*.json"):
        spans = json.loads(spans_file.read_text())["spans"]
        assert spans
        for own, (_, start, end, _, _) in zip(tracer.self_times(spans),
                                              spans):
            assert -1e-9 <= own <= end - start + 1e-9

    assert _run("--compare", str(tmp_path / "plain.json"),
                str(tmp_path / "traced0.json")).returncode == 0


def test_compare_reports_deviation_and_verdict_change(tmp_path):
    base = {"studies": [{"kind": "det-rate", "verdict": "pass",
                         "canonical": {"points": [{"x": 1.0,
                                                   "err_mean": 2.0}]}}]}
    changed = json.loads(json.dumps(base))
    changed["studies"][0]["verdict"] = "fail"
    changed["studies"][0]["canonical"]["points"][0]["err_mean"] = 2.5
    (tmp_path / "a.json").write_text(json.dumps(base))
    (tmp_path / "b.json").write_text(json.dumps(changed))
    done = _run("--compare", str(tmp_path / "a.json"),
                str(tmp_path / "b.json"))
    assert done.returncode == 1
    assert "VERDICT study 0 det-rate: pass -> fail" in done.stdout
    assert "max_rel_dev 2.000e-01" in done.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "studybench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "kernel", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
