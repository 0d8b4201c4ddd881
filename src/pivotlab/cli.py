"""Command-line interface: gen, run, counter, analyze, verify.

Exit codes: 0 on success, 1 on verification failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from random import Random

from . import checks, comptrees, counters, experiments, rules
from .experiments import (
    RULES,
    BadConfigError,
    derive_seed,
    load_instance,
    save_instance,
    summarize,
    write_csv,
    write_trace,
)


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pivotlab",
        description="Randomized simplex pivoting rules on shortest-path instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a counter graph")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--r", type=int, required=True)
    p_gen.add_argument("--s", type=int, required=True)
    p_gen.add_argument("--t", type=int, required=True)
    p_gen.add_argument("--out", type=str, default=None,
                       help="graph JSON path (default: counter_<n>_<r>_<s>_<t>.json)")

    p_run = sub.add_parser("run", help="run pivot-rule trials")
    p_run.add_argument("--rule", required=True, choices=list(RULES))
    p_run.add_argument("--graph", type=str, default=None, help="graph JSON file")
    p_run.add_argument("--n", type=int, default=None)
    p_run.add_argument("--r", type=int, default=None)
    p_run.add_argument("--s", type=int, default=None)
    p_run.add_argument("--t", type=int, default=None)
    p_run.add_argument("--trials", type=int, default=1)
    p_run.add_argument("--start", choices=["auto", "zero", "bfs"], default="auto")
    p_run.add_argument("--trace", type=str, default=None,
                       help="dump trial 0's pivot log as JSON here, with random-facet's "
                            "computation tree, one node per descent")
    p_run.add_argument("--out", type=str, default=None, help="per-trial CSV path")
    p_run.add_argument("--threads", type=int, default=1, help="worker processes")
    _add_seed(p_run)

    p_counter = sub.add_parser("counter", help="randomized counter experiments")
    p_counter.add_argument("--variant", choices=["fresh", "one-perm"],
                           default="fresh")
    p_counter.add_argument("--n", type=int, required=True)
    p_counter.add_argument("--trials", type=int, default=1000)
    p_counter.add_argument("--exact", action="store_true",
                           help="print the exact expectation and exit")
    _add_seed(p_counter)

    p_analyze = sub.add_parser("analyze", help="canonical-path event frequencies")
    p_analyze.add_argument("--graph", type=str, required=True)
    p_analyze.add_argument("--S", type=str, required=True,
                           help="comma-separated bit levels, e.g. 3,1")
    p_analyze.add_argument("--trials", type=int, default=100)
    p_analyze.add_argument("--out", type=str, default=None, help="per-trial CSV path")
    _add_seed(p_analyze)

    p_verify = sub.add_parser("verify", help="run a named verification check")
    p_verify.add_argument("check", choices=sorted(checks.CHECKS))
    p_verify.add_argument("--params", type=str, default=None,
                          help="JSON object of keyword overrides")
    p_verify.add_argument("--out", type=str, default=None, help="report JSON path")
    return parser


def cmd_gen(args) -> int:
    g, idx, _ = load_instance(None, (args.n, args.r, args.s, args.t), "zero")
    out = args.out or f"counter_{args.n}_{args.r}_{args.s}_{args.t}.json"
    sidecar = save_instance(out, g, idx)
    print(f"wrote {out} ({g.n_vertices} vertices, {g.n_edges} edges) and {sidecar}")
    return 0


def cmd_run(args) -> int:
    params = (args.n, args.r, args.s, args.t)
    if args.graph is not None and params != (None,) * 4:
        raise BadConfigError("--graph excludes --n/--r/--s/--t")
    if args.graph is None and None in params:
        raise BadConfigError("run needs --graph or all of --n/--r/--s/--t")
    if args.trials < 1:
        raise BadConfigError("trials must be at least 1")
    if args.threads < 1:
        raise BadConfigError("threads must be at least 1")
    g, _idx, start = load_instance(args.graph, params, args.start)
    # both outputs are opened before the first trial, so that a path that
    # cannot be written fails before any work is done
    with (
        open(args.out, "w", newline="") if args.out else nullcontext() as out,
        open(args.trace, "w", newline="") if args.trace else nullcontext() as trace,
    ):
        records = experiments.run_trials(
            g, start, args.rule, args.trials, args.seed, args.threads
        )
        if out:
            write_csv(records, out)
        if trace:
            write_trace(args.rule, args.seed, g, start, trace)
    summary = summarize([r.pivots for r in records])
    print(
        f"rule={args.rule} trials={summary.trials} mean={summary.mean:.3f} "
        f"stderr={summary.stderr:.3f} min={summary.minimum} max={summary.maximum}"
    )
    if args.trace:
        print(f"wrote trace of trial 0 to {args.trace}")
    return 0


def _fraction_text(f: Fraction) -> str:
    """`num/den` in decimal at any length. str() of an int refuses more
    than sys.get_int_max_str_digits() digits (4300 by default since Python
    3.10.7), a guard against slow conversions of untrusted input; these
    ints are computed here, so the limit is lifted for this conversion."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return f"{f.numerator}/{f.denominator}"
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return f"{f.numerator}/{f.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_counter(args) -> int:
    if args.n < 0:
        raise BadConfigError("--n must be non-negative")
    if args.exact:
        print(_fraction_text(counters.expected_increments(args.n)))
        return 0
    if args.trials < 1:
        raise BadConfigError("--trials must be at least 1")
    if args.n > counters.COUNT_N_MAX:
        raise BadConfigError(
            f"--n must be at most {counters.COUNT_N_MAX} without --exact: "
            f"a count recurses n + 1 frames deep")
    exact = counters.expected_increments(args.n)
    if args.trials * exact > counters.COUNT_INCREMENTS_MAX:
        raise BadConfigError(
            f"{args.trials} trials at --n {args.n} make about "
            f"{float(args.trials * exact):.3g} increments, over the cap of "
            f"{counters.COUNT_INCREMENTS_MAX:.0e}: lower --trials or --n")
    values = []
    for trial in range(args.trials):
        trng = Random(derive_seed(args.seed, trial))
        if args.variant == "fresh":
            values.append(counters.rand_count(range(1, args.n + 1), trng))
        else:
            prio = [0] + rules.random_permutation_fn(args.n, trng)
            values.append(counters.rand_count_one_perm(range(1, args.n + 1), prio))
    mean = sum(values) / len(values)
    print(
        f"variant={args.variant} n={args.n} trials={args.trials} "
        f"mean={mean:.4f} exact={float(exact):.4f}"
    )
    return 0


def cmd_analyze(args) -> int:
    if args.trials < 1:
        raise BadConfigError("--trials must be at least 1")
    try:
        levels = [int(x) for x in args.S.split(",")]
    except ValueError as exc:
        raise BadConfigError(f"--S {args.S!r} is not a list of integers") from exc
    g, idx, _ = load_instance(args.graph, None, "zero")
    if len(set(levels)) < len(levels) or any(i < 1 or i > idx.n for i in levels):
        raise BadConfigError(f"--S levels must be distinct and lie in 1..{idx.n}")
    seeds = [derive_seed(args.seed, trial) for trial in range(args.trials)]
    # the output is opened before the first trial, so that a path that
    # cannot be written fails before any work is done
    with open(args.out, "w", newline="") if args.out else nullcontext() as fh:
        est = comptrees.estimate_canonical_probability(
            g, idx, levels, map(Random, seeds)
        )
        if fh:
            w = csv.writer(fh)
            w.writerow(["trial", "seed", "outcome", "detail", "path_len"])
            # csv writes a None detail as an empty field
            for trial, outcome in enumerate(est.outcomes):
                w.writerow((trial, seeds[trial], *outcome))
    print(f"S={levels} trials={args.trials} counts={est.counts}")
    print(f"canonical frequency {est.canonical_freq:.4f} "
          f"(wilson [{est.wilson_low:.4f}, {est.wilson_high:.4f}])")
    return 0


# the integer --params that may be 0: a seed, and the largest n of a range
# that starts at 0; every other one counts or sizes something
_ZERO_ALLOWED = frozenset({"seed", "n_max"})


def _int_at_least(value, floor: int) -> bool:
    return type(value) is int and value >= floor


def _check_params(check: str, params: dict) -> dict:
    """The --params overrides, typed like the check's defaults: an integer
    default takes a positive int (`seed` and `n_max` may be 0), a tuple
    default a non-empty list of positive ints."""
    signature = inspect.signature(checks.CHECKS[check])
    try:
        signature.bind(**params)
    except TypeError as exc:
        raise BadConfigError(f"--params does not fit check {check!r}: {exc}") from exc
    typed = {}
    for name, value in params.items():
        if isinstance(signature.parameters[name].default, tuple):
            if not (isinstance(value, list) and value
                    and all(_int_at_least(v, 1) for v in value)):
                raise BadConfigError(
                    f"--params {name!r} must be a non-empty list of positive integers"
                )
            value = tuple(value)
        else:
            floor = 0 if name in _ZERO_ALLOWED else 1
            if not _int_at_least(value, floor):
                raise BadConfigError(
                    f"--params {name!r} must be an integer of at least {floor}"
                )
        typed[name] = value
    return typed


def cmd_verify(args) -> int:
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise BadConfigError(f"--params is not valid JSON: {exc}") from exc
    if not isinstance(params, dict):
        raise BadConfigError("--params must be a JSON object")
    params = _check_params(args.check, params)
    # opened before the check runs, so that a path that cannot be written
    # fails before any work is done
    with open(args.out, "w") if args.out else nullcontext() as fh:
        report = checks.run_check(args.check, **params)
        text = json.dumps(report, indent=1, default=str)
        if fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "run": cmd_run,
        "counter": cmd_counter,
        "analyze": cmd_analyze,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except BadConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a missing input file, or an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
