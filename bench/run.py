#!/usr/bin/env python3
"""pivotlab benchmark: one seeded, closed-loop workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports pivotlab from
``src/``. Workloads, metrics and the layer table are described in
``bench/README.md``. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a JSON report with the environment, the sample
count, the failure share, the digest of the seeded pivot logs and per-kind
pivot totals. The exit code is 1 when any operation raised or failed its
output check, 2 when the library cannot be loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import refclock

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
# op time between two reference runs
SEGMENT_NS = 20_000_000
# the untraced share of a traced run, against which tracing overhead is measured
TRACE_BASE_SHARE = 0.25
LAYERS = ("graphs", "rules", "counters", "counter_graph", "lp", "comptrees",
          "experiments", "checks")


def load_library() -> None:
    src = ROOT / "src"
    if not (src / "pivotlab" / "__init__.py").is_file():
        print(f"run.py: no pivotlab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import pivotlab

    if Path(pivotlab.__file__).resolve().parent != src / "pivotlab":
        print(f"run.py: imported pivotlab from {pivotlab.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def setup(workload: str, seed: int):
    """Import the library and build the workload's inputs: counter graphs,
    start trees, optimal distances, LP encodings. Returns the workload and
    the set-up time in reference seconds.

    NumPy is imported before the clock starts. It is a third-party import
    that pivotlab cannot speed up, and loading its shared libraries is the
    most I/O-bound part of set-up, which the reference loop cannot rescale."""
    import numpy  # noqa: F401

    before = refclock.reference_ns(3)
    t0 = time.perf_counter_ns()
    load_library()
    import loops

    wl = loops.WORKLOADS[workload](seed)
    elapsed = time.perf_counter_ns() - t0
    return wl, elapsed * refclock.scale(before, refclock.reference_ns(3)) / 1e9


def setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up time in fresh interpreters, so that imports are counted."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_loop(wl, tr, seconds: float, min_ops: int):
    """Closed loop over ops 0, 1, ... until `seconds` have passed, at least
    `min_ops` ops ran and the last cycle is complete. A raising op is
    recorded as None and the loop goes on. Every `SEGMENT_NS` of op time,
    a reference run rescales the ops since the previous one to reference
    time (`Op.ref_ns`)."""
    ops = []
    t_end = time.perf_counter() + seconds
    i = seg_start = seg_ns = 0
    ref = refclock.reference_ns()
    while True:
        tr.begin_op(i)
        try:
            op = wl.op(i, tr)
        except Exception:  # counted as a failed op; the run goes on
            traceback.print_exc(file=sys.stderr)
            op = None
        if op is not None:
            seg_ns += op.ns
            if i >= wl.digest_ops:
                op.out = op.replay = None  # only the digest prefix keeps outputs
        ops.append(op)
        i += 1
        done = i >= min_ops and i % wl.cycle == 0 and time.perf_counter() >= t_end
        if seg_ns >= SEGMENT_NS or done:
            after = refclock.reference_ns()
            factor = refclock.scale(ref, after)
            for o in ops[seg_start:]:
                if o is not None:
                    o.ref_ns = o.ns * factor
            seg_start, seg_ns, ref = len(ops), 0, after
        if done:
            return ops


def digest(wl, ops) -> dict:
    """SHA-256 of the exact outputs of the first `digest_ops` ops, and their
    pivot totals per kind (rule or instance kind)."""
    h = hashlib.sha256()
    totals: dict[str, int] = {}
    for op in ops[: wl.digest_ops]:
        if op is None:
            h.update(b"raised")
            continue
        h.update(repr(op.out).encode())
        totals[op.kind] = totals.get(op.kind, 0) + op.pivots
    return {"ops": wl.digest_ops, "sha256": h.hexdigest(), "pivots_by_kind": totals}


def end_to_end(ops, setup_s: list[float], ns=lambda op: op.ref_ns) -> dict:
    """End-to-end metrics; times in reference time unless `ns` says otherwise."""
    done = [op for op in ops if op is not None]
    ms = [ns(op) / 1e6 for op in done] or [0.0, 0.0]  # [0, 0]: every op raised
    busy = sum(ms) / 1e3
    return {
        "ops_per_s": (_ratio(len(done), busy), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[-1], "ms"),
        "pivots_per_s": (_ratio(sum(op.pivots for op in done), busy), "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _ratio(a, b) -> float:
    """a / b, or 0 where nothing was measured."""
    return a / b if b else 0.0


def per_layer(wl, base, traced, tr):
    """Per-layer metrics of a traced run, the names of failed checks, and
    the per-name span totals in reference time."""
    import layers
    from spans import layer_busy_s

    problems = []
    done = [op for op in traced if op is not None]
    wall_s = sum(op.ref_ns for op in done) / 1e9
    scale = {i: op.ref_ns / op.ns for i, op in enumerate(traced) if op and op.ns}
    by_name = tr.self_ns(lambda i: scale.get(i, 1.0))
    busy = {layer: layer_busy_s(by_name, layer) for layer in LAYERS}
    m = {f"{layer}.busy_s": (busy[layer], "s") for layer in LAYERS}

    pivots = sum(op.pivots for op in done)
    lp_pivots = sum(op.lp_pivots for op in done)
    lp_solve = by_name.get("lp.random_facet_lp", [0, 0, 0])[1] / 1e6
    follows = tr.durations_ns("comptrees.follow_canonical", lambda i: scale.get(i, 1.0))
    run_trials = by_name.get("experiments.run_trials", [0, 0, 0])
    base_ns = sum(op.ref_ns for op in base if op is not None)
    traced_ns = sum(op.ref_ns for op in traced[:len(base)] if op is not None)
    oracle_s = sum(op.ref_ns for op in done if op.kind in ("bf", "expect")) / 1e9
    m.update({
        "rules.pivots": (pivots, "count"),
        "rules.pivot_us": (_ratio(busy["rules"] * 1e6, pivots), "us"),
        "rules.busy_frac": (_ratio(busy["rules"], wall_s), "frac"),
        "lp.busy_frac": (_ratio(busy["lp"], wall_s), "frac"),
        "lp.pivot_ms": (_ratio(lp_solve, lp_pivots), "ms"),
        "comptrees.follow_ms_p50": (
            statistics.median(follows) / 1e6 if follows else 0.0, "ms"),
        "comptrees.path_len_mean": (
            _ratio(sum(op.path_len for op in done), len(follows)), "count"),
        "comptrees.canonical_frac": (
            _ratio(sum(op.canonical for op in done), len(follows)), "frac"),
        "experiments.trial_overhead_frac": (_ratio(run_trials[2], run_trials[1]), "frac"),
        "trace.wall_s": (wall_s, "s"),
        "trace.oracle_frac": (_ratio(oracle_s, wall_s), "frac"),
        "trace.overhead_frac": (_ratio(traced_ns, base_ns) - 1.0, "frac"),
    })

    counts = layers.replay_counts(
        [op.replay for op in traced[: wl.digest_ops] if op is not None and op.replay]
    )
    if counts is None:
        problems.append("replay")
        counts = {}
    m.update({k: (v, "count") for k, v in counts.items()})
    micro_units = {"_us": "us", "_ms": "ms"}
    for k, v in layers.microbenchmarks().items():
        m[k] = (v, micro_units[k[-3:]])
    speedup, same = layers.pool2_speedup()
    if not same:
        problems.append("pool2")
    m["experiments.pool2_speedup"] = (speedup, "ratio")
    return m, problems, by_name


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "seed": seed,
        "loadavg": os.getloadavg(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's own .git, when it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("counter-trials", "lower-bound", "canonical-paths",
                            "exact-oracles"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    env = None if args.setup_only else environment(args.seed)
    wl, first_setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": first_setup_s}))
        return 0
    from spans import NullTracer, Tracer

    setup_s = [] if args.trace else setup_samples(args.workload, args.seed)
    problems: list[str] = []
    if args.trace:
        base = run_loop(wl, NullTracer(), args.seconds * TRACE_BASE_SHARE,
                        wl.digest_ops)
        tr = Tracer()
        ops = run_loop(wl, tr, args.seconds * (1 - TRACE_BASE_SHARE), len(base))
        metrics, problems, by_name = per_layer(wl, base, ops, tr)
        all_ops = base + ops
    else:
        ops = all_ops = run_loop(wl, NullTracer(), args.seconds, wl.digest_ops)
        metrics = end_to_end(ops, setup_s)
    failed = sum(1 for op in all_ops if op is None or not op.ok) + len(problems)
    attempted = len(all_ops) + (2 if args.trace else 0)  # + replay, pool2 checks
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "samples": len(ops),
        "cycles": len(ops) // wl.cycle,
        "failed_frac": failed / attempted,
        "failed_checks": problems,
        "first_setup_s": first_setup_s,
        "setup_samples_s": setup_s,
        "digest": digest(wl, ops),
    }
    if not args.trace:
        report["wall_metrics"] = {
            k: v for k, (v, _u) in end_to_end(ops, setup_s, lambda op: op.ns).items()
            if k != "setup_s"}
    else:
        report["spans"] = {name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
                           for name, (c, t, s) in sorted(by_name.items())}
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
