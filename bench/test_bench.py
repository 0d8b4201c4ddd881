"""Tests of the benchmark's own loops, at tiny sizes.

    PYTHONPATH=src python3 -m pytest bench -q

The loops must agree with the library checks they mirror, flag a wrong
output, and the command must emit every metric BENCHMARK.json names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import loops  # noqa: E402
import run  # noqa: E402
from pivotlab import checks, counter_graph, experiments, lp  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("star, check", [
    (True, checks.check_technical_star),
    (False, checks.check_technical_bland),
])
def test_lower_bound_step_matches_check(star, check):
    ns, rst, samples, seed = (3, 4), (2,), 4, 11
    rng = Random(seed)
    checked = violations = 0
    for n in ns:
        for v in rst:
            g, idx = counter_graph.build_counter_graph(n, v, v, v)
            start = counter_graph.initial_tree(idx)
            for _ in range(samples):
                run_, bound = loops.lower_bound_step(NullTracer(), g, idx, start, rng, star)
                checked += 1
                violations += run_.pivots < bound
    report = check(ns=ns, rst=rst, samples=samples, seed=seed)
    assert report["details"]["checked"] == checked
    assert report["details"]["total_violations"] == violations
    assert report["passed"] == (violations == 0)


def test_lockstep_matches_check_lp_correspondence():
    instances, seed = 5, 20244
    rng = Random(seed)
    problems = [
        loops.lockstep(NullTracer(), *loops.lp_dag_instance(rng))[0]
        for _ in range(instances)
    ]
    report = checks.check_lp_correspondence(instances=instances, seed=seed)
    assert [p["kind"] for p in report["details"]["problems"]] == [p for p in problems if p]
    assert report["passed"] == (not any(problems))


def test_lockstep_flags_a_diverging_lp_log(monkeypatch):
    solve = lp.random_facet_lp

    def truncated(*args):
        basis, log = solve(*args)
        return basis, log[:-1]

    monkeypatch.setattr(lp, "random_facet_lp", truncated)
    rng = Random(3)
    kinds = set()
    for _ in range(10):
        g, start, run_seed = loops.lp_dag_instance(rng)
        kinds.add(loops.lockstep(NullTracer(), g, start, run_seed)[0])
    assert "pivot-log" in kinds


def test_counter_trial_check_flags_a_wrong_pivot_count(monkeypatch):
    real = experiments.run_trials

    def off_by_one(*args):
        recs = real(*args)
        recs[0].pivots += 1
        return recs

    wl = loops.CounterTrials(seed=1)
    assert wl.op(0, NullTracer()).ok
    monkeypatch.setattr(experiments, "run_trials", off_by_one)
    assert not wl.op(0, NullTracer()).ok


def test_digest_repeats_for_a_seed_and_changes_with_it():
    def run_digest(seed):
        wl = loops.LowerBound(seed)
        return run.digest(wl, run.run_loop(wl, NullTracer(), 0, wl.digest_ops))

    first = run_digest(5)
    assert first == run_digest(5)
    assert first["sha256"] != run_digest(6)["sha256"]


def test_tracer_self_time_subtracts_children():
    tr = Tracer()
    tr.begin_op(0)
    tr.call("experiments.run_trials", sum, range(1000))
    tr.inner("rules.run_rule", 1)
    by_name = tr.self_ns()
    total = by_name["experiments.run_trials"][1]
    assert by_name["experiments.run_trials"][2] == total - 1
    assert by_name["rules.run_rule"] == [1, 1, 1]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_named_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert report["digest"]["sha256"]
    assert {"nproc", "cpu", "python", "commit", "seed", "loadavg"} <= set(report["env"])


def test_failing_run_exits_nonzero_with_a_result(monkeypatch, capsys):
    def raising(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(experiments, "run_trials", raising)
    code = run.main(["--workload", "counter-trials", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "lower-bound", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
