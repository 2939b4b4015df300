"""Smoke test of the benchmark at a tiny input size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import workloads

# pool prefixes small enough for a pass in well under a second
TINY = {"decompose": 2, "dca_dual": 2, "classify_points": 1}

with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("seed", (run.DEFAULT_SEED, run.HELD_OUT_SEED))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_end_to_end(name, seed):
    assert name in {w["name"] for w in BENCHMARK["workloads"]}
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, report = run.run_benchmark(name, seed, 0, trace, TINY[name])
        assert result["correct"], report["failures"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == _declared(kind)
        assert report["environment"]["nproc"] >= 1


def _corrupt(P, name, out):
    if name == "decompose":
        return dataclasses.replace(out, alpha_bar=out.alpha_bar + P.ExtendedRational.finite(1))
    if name == "dca_dual":
        traces, critical, report = out
        first = traces[0].iterates[0]
        moved = dataclasses.replace(first, x=(first.x[0] + Fraction(1, 2),) + first.x[1:])
        bad = dataclasses.replace(traces[0], iterates=(moved,) + traces[0].iterates[1:])
        return [bad] + traces[1:], critical, report
    return dataclasses.replace(out, stationary=not out.stationary)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_catches_a_corrupted_output(name):
    workload = workloads.WORKLOADS[name]
    P = run.import_program()
    batch = workloads.set_up(P, workload, run.DEFAULT_SEED, TINY[name])
    check = run.load_checker(P, workload)
    op = batch.ops[0]
    out = workload.call(P, op)
    assert check(op, out) == []
    assert check(op, _corrupt(P, name, out))


def test_corrupted_program_fails_the_run(monkeypatch):
    real = run.import_program

    def corrupted():
        P = real()
        classify = P.classify
        P.classify = lambda prob, x: dataclasses.replace(classify(prob, x), critical=False)
        return P

    monkeypatch.setattr(run, "import_program", corrupted)
    result, report = run.run_benchmark("classify_points", run.DEFAULT_SEED, 0, False, 1)
    assert not result["correct"]
    assert result["failed"] >= 1 and report["failed_ratio"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "decompose", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
