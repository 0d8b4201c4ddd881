"""Seeded experiment execution, per-trial seed derivation, and CSV output.

Per-trial seeds are derived from the master seed through a counter-based
mixing function, so scheduling (sequential or a worker pool) can never
change a trial's stream. Given the same inputs, every column of the result
CSV except the wall-clock timing is reproducible byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass
from random import Random
from typing import TextIO

from . import comptrees, counter_graph, rules
from .graphs import (
    Digraph,
    DisconnectedVertexError,
    NegativeCycleError,
    Policy,
    bfs_tree_policy,
    load_graph_json,
    optimal_distances_list,
    save_graph_json,
)


class BadConfigError(Exception):
    """The experiment configuration is unusable."""


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One step of the splitmix64 mixer; full 64-bit avalanche."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, trial: int) -> int:
    """Trial seed = splitmix64(master xor (trial+1)*golden); order free."""
    return splitmix64((master ^ ((trial + 1) * _GOLDEN)) & _MASK64)


# The rule registry: each rule name and its runner (g, start, rng) -> RunResult.
RULES = {
    "random-facet": rules.random_facet,
    "random-facet-nonrec": rules.random_facet_nonrec,
    "random-facet-1p": lambda g, start, rng: rules.random_facet_one_perm(
        g, start, rules.random_permutation_fn(g.n_edges, rng)
    ),
    # classic lowest-edge-id scan: the highest permutation rank goes to the
    # lowest id
    "bland": lambda g, start, rng: rules.bland_nonrec(
        g, start, [g.n_edges - e for e in range(g.n_edges)]
    ),
    "random-bland": rules.random_bland,
    "dantzig": lambda g, start, rng: rules.dantzig(g, start),
}


def run_rule(
    rule: str, g: Digraph, start: Policy, seed: int
) -> rules.RunResult:
    """One seeded run of a named rule from the given start policy."""
    if rule not in RULES:
        raise BadConfigError(f"unknown rule {rule!r}")
    return RULES[rule](g, start, Random(seed))


@dataclass
class ResultRecord:
    trial: int
    seed: int
    rule: str
    pivots: int
    wall_ns: int


def sidecar_index_path(graph_path: str) -> str:
    if graph_path.endswith(".json"):
        return graph_path[:-5] + ".index.json"
    return graph_path + ".index.json"


# faults of a malformed document; ValueError includes json.JSONDecodeError
_DOCUMENT_ERRORS = (ValueError, KeyError, TypeError)


def load_graph(path: str) -> Digraph:
    """A graph JSON file, checked to have finite shortest distances.

    A document that is not valid JSON, lacks a key, holds a value of the
    wrong type, describes an invalid graph or one with a negative cycle
    raises BadConfigError naming the file and the fault.
    """
    try:
        g = load_graph_json(path)
        optimal_distances_list(g)  # raises NegativeCycleError
    except _DOCUMENT_ERRORS + (DisconnectedVertexError, NegativeCycleError) as exc:
        raise BadConfigError(
            f"cannot load graph {path}: {type(exc).__name__}: {exc}"
        ) from exc
    return g


def load_index(path: str, g: Digraph) -> counter_graph.CounterGraphIndex:
    """The counter-graph index of graph g's sidecar file, rebuilt from its
    parameters. A malformed sidecar, or one whose parameters do not rebuild
    g (its target, edges and costs), raises BadConfigError."""
    try:
        with open(path) as fh:
            p = json.load(fh)["params"]
        params = p["n"], p["r"], p["s"], p["t"]
        # compared before the build, whose cost grows with the size the
        # sidecar claims, not with g
        _, n_edges = counter_graph.counter_graph_size(*params)
        if n_edges != g.n_edges:
            raise BadConfigError(
                f"index {path} does not match the graph: "
                f"{n_edges} edges, the graph has {g.n_edges}"
            )
        h, idx = counter_graph.build_counter_graph(*params)
        if (h.target, h.tails, h.heads, h.costs) != (g.target, g.tails, g.heads, g.costs):
            raise BadConfigError(
                f"index {path} does not match the graph: "
                f"its parameters {params} build another graph"
            )
    except _DOCUMENT_ERRORS as exc:
        raise BadConfigError(
            f"cannot load index {path}: {type(exc).__name__}: {exc}"
        ) from exc
    return idx


def save_instance(path: str, g: Digraph, idx: counter_graph.CounterGraphIndex) -> str:
    """Write g to path and idx's sidecar beside it (its parameters, which
    `load_index` reads back, and its named edge groups); returns its path."""
    save_graph_json(g, path)
    sidecar = sidecar_index_path(path)
    with open(sidecar, "w") as fh:
        json.dump(counter_graph.index_to_json_dict(idx), fh, indent=1)
        fh.write("\n")
    return sidecar


def load_instance(
    graph_path: str | None,
    gen_params: tuple[int, int, int, int] | None,
    start: str,
) -> tuple[Digraph, counter_graph.CounterGraphIndex | None, Policy]:
    """The graph, its counter-graph index when available, and the start
    policy (auto, zero or bfs). The graph is the file at graph_path, or
    else the counter graph of gen_params = (n, r, s, t). A graph file's
    index is its sidecar `<name>.index.json` (see `save_instance`); a zero
    start from a file without one raises BadConfigError naming it."""
    if start not in ("auto", "zero", "bfs"):
        raise BadConfigError(f"unknown start policy {start!r}")
    idx = None
    if graph_path is None:
        try:
            g, idx = counter_graph.build_counter_graph(*gen_params)
        except ValueError as exc:
            raise BadConfigError(
                f"cannot build counter graph {gen_params}: {exc}"
            ) from exc
    else:
        g = load_graph(graph_path)
        sidecar = sidecar_index_path(graph_path)
        if os.path.exists(sidecar):
            idx = load_index(sidecar, g)
        elif start == "zero":
            raise BadConfigError(f"zero start needs the sidecar index {sidecar}")
    if start == "zero" or (start == "auto" and idx is not None):
        return g, idx, counter_graph.initial_tree(idx)
    return g, idx, bfs_tree_policy(g)


def _one_trial(args) -> ResultRecord:
    rule, g, start, trial, master = args
    seed = derive_seed(master, trial)
    t0 = time.perf_counter_ns()
    res = run_rule(rule, g, start, seed)
    wall = time.perf_counter_ns() - t0
    return ResultRecord(trial=trial, seed=seed, rule=rule, pivots=res.pivots,
                        wall_ns=wall)


def run_trials(
    g: Digraph,
    start: Policy,
    rule: str,
    trials: int,
    master_seed: int,
    threads: int = 1,
) -> list[ResultRecord]:
    """Independent seeded trials; results come back in trial order whatever
    the scheduling."""
    jobs = [(rule, g, start, t, master_seed) for t in range(trials)]
    if threads <= 1:
        return [_one_trial(j) for j in jobs]
    # imported here: the pool pulls in multiprocessing, logging and socket,
    # which a sequential run never needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_one_trial, jobs, chunksize=max(1, trials // (4 * threads))))


CSV_FIELDS = ("trial", "seed", "rule", "pivots", "wall_ns")


def write_csv(records: list[ResultRecord], fh: TextIO) -> None:
    """The per-trial CSV, written to a file opened with newline=""."""
    writer = csv.writer(fh)
    writer.writerow(CSV_FIELDS)
    for r in records:
        writer.writerow([r.trial, r.seed, r.rule, r.pivots, r.wall_ns])


@dataclass
class Summary:
    trials: int
    mean: float
    stderr: float
    minimum: int
    maximum: int


def summarize(pivot_counts: list[int]) -> Summary:
    n = len(pivot_counts)
    mean = sum(pivot_counts) / n
    var = (
        sum((x - mean) ** 2 for x in pivot_counts) / (n - 1) if n > 1 else 0.0
    )
    return Summary(
        trials=n,
        mean=mean,
        stderr=math.sqrt(var / n) if n > 1 else 0.0,
        minimum=min(pivot_counts),
        maximum=max(pivot_counts),
    )


def write_trace(
    rule: str, master_seed: int, g: Digraph, start: Policy, fh: TextIO
) -> None:
    """Dump trial 0's pivot log (plus the recursion tree for the facet rule)
    as JSON to fh."""
    trial_seed = derive_seed(master_seed, 0)
    doc: dict = {"rule": rule, "seed": trial_seed}
    if rule == "random-facet":
        run = rules.random_facet(g, start, Random(trial_seed), trace=True)
        tree = comptrees.record_tree(run)
        doc["tree"] = {
            "picked": tree.picked,
            "left": tree.left,
            "right": tree.right,
            "leaving": tree.leaving,
        }
    else:
        # only the facet recursion defines a computation tree
        run = run_rule(rule, g, start, trial_seed)
    doc["pivot_log"] = run.pivot_log
    json.dump(doc, fh)
    fh.write("\n")
