"""Experiment harness: seeding, determinism, CSV, CLI subcommands."""

import contextlib
import csv
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pivotlab
from pivotlab import checks, cli, comptrees, counter_graph, counters, experiments, rules
from pivotlab.checks import UnknownCheckError, run_check
from pivotlab.experiments import (
    RULES,
    BadConfigError,
    derive_seed,
    run_rule,
    run_trials,
    splitmix64,
    summarize,
)
from pivotlab.graphs import Digraph, Policy, load_graph_json, save_graph_json


def parallel_pair():
    return Digraph(2, 1, tails=[0, 0], heads=[1, 1], costs=[5, 2])


def test_splitmix_avalanche_and_determinism():
    assert splitmix64(0) == splitmix64(0)
    assert splitmix64(0) != splitmix64(1)
    seeds = {derive_seed(42, t) for t in range(100)}
    assert len(seeds) == 100
    assert derive_seed(42, 7) == derive_seed(42, 7)


def test_run_rule_names():
    g = parallel_pair()
    start = Policy((0, None))
    # each registry name and the RunResult.rule label its run carries; the
    # CSV rule column and the bench digests depend on these strings
    labels = {
        "random-facet": "random-facet",
        "random-facet-nonrec": "random-facet-nonrec",
        "random-facet-1p": "random-facet-1p",
        "bland": "bland-nonrec",
        "random-bland": "random-bland",
        "dantzig": "dantzig",
    }
    assert list(RULES) == list(labels)
    for rule, label in labels.items():
        res = run_rule(rule, g, start, seed=3)
        assert res.pivots == 1
        assert res.rule == label
    with pytest.raises(BadConfigError):
        run_rule("newton", g, start, seed=3)
    run_parser = cli.build_parser()._subparsers._group_actions[0].choices["run"]
    rule_flag = next(a for a in run_parser._actions if a.dest == "rule")
    assert list(rule_flag.choices) == list(RULES)


def test_single_trial_parallel_pair(tmp_path, capsys):
    gpath = tmp_path / "pair.json"
    save_graph_json(parallel_pair(), str(gpath))
    assert cli.main(["run", "--rule", "dantzig", "--graph", str(gpath),
                     "--start", "bfs", "--seed", "5"]) == 0
    # the breadth-first start picks the lowest edge id, the cost-5 edge
    assert "trials=1 mean=1.000 stderr=0.000 min=1 max=1" in capsys.readouterr().out
    # argparse's choices guard the CLI; the library guards its own callers
    with pytest.raises(BadConfigError):
        experiments.load_instance(str(gpath), None, "greedy")


def test_determinism_modulo_wall_clock(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        assert cli.main(["run", "--rule", "random-facet", "--trials", "12",
                         "--seed", "99", "--n", "2", "--r", "1", "--s", "2",
                         "--t", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    rows1 = list(csv.DictReader(out1.read_text().splitlines()))
    rows2 = list(csv.DictReader(out2.read_text().splitlines()))
    assert len(rows1) == len(rows2) == 12
    for a, b in zip(rows1, rows2):
        for k in ("trial", "seed", "rule", "pivots"):
            assert a[k] == b[k]


def test_parallel_matches_sequential():
    from pivotlab import counter_graph as cg

    g, idx = cg.build_counter_graph(2, 1, 1, 1)
    start = cg.initial_tree(idx)
    seq = run_trials(g, start, "random-facet", 8, master_seed=7, threads=1)
    par = run_trials(g, start, "random-facet", 8, master_seed=7, threads=2)
    assert [(r.trial, r.seed, r.pivots) for r in seq] == [
        (r.trial, r.seed, r.pivots) for r in par
    ]


def test_summarize():
    s = summarize([1, 2, 3])
    assert s.mean == 2
    assert s.minimum == 1 and s.maximum == 3
    assert s.trials == 3
    assert summarize([5]).stderr == 0.0


def test_unknown_check():
    with pytest.raises(UnknownCheckError):
        run_check("no-such-check")


def test_check_registry_small_params():
    assert run_check("recurrence", n_max=50)["passed"]
    assert run_check("counters-equality", n_max=5)["passed"]
    assert run_check(
        "bf-optimal", n_range=(1, 2), r_range=(1, 2), s_range=(1, 2),
        t_range=(1, 2), samples=10, seed=3,
    )["passed"]
    assert run_check("bland-equiv", dag_instances=10, counter_sigmas=3)["passed"]
    assert run_check("switch-identity", counter_runs=4, dag_runs=4)["passed"]


def test_lower_bound_check_passes_a_run_at_its_bound():
    # the counter's increments are a lower bound: a stub run with exactly
    # that many pivots passes, and one with a pivot fewer fails
    _, idx = counter_graph.build_counter_graph(3, 2, 2, 2)
    for fewer, passed in ((0, True), (1, False)):
        def stub(g, start, sigma, fewer=fewer):
            return SimpleNamespace(pivots=checks._counter_bound(idx, sigma) - fewer)

        report = checks._lower_bound_check("stub", (3,), (2,), 5, 1, stub)
        assert report["passed"] is passed
        assert report["details"]["checked"] == 5
        assert report["details"]["total_violations"] == 5 * fewer


def test_switch_identity_reads_each_run_through_record_tree(monkeypatch):
    # the check and the trace reader share one switch-count test: each run
    # whose `comptrees.record_tree` raises AssertionError is a failure
    def refuse(result):
        raise AssertionError("tree has 0 switch nodes")

    monkeypatch.setattr(comptrees, "record_tree", refuse)
    report = run_check("switch-identity", counter_runs=2, dag_runs=3)
    assert not report["passed"]
    assert report["details"] == {"runs": 5, "failures": 5}


def test_cli_gen_and_run(tmp_path, capsys):
    out = tmp_path / "g.json"
    rc = cli.main(["gen", "--n", "1", "--r", "1", "--s", "2", "--t", "1",
                   "--out", str(out)])
    assert rc == 0
    g = load_graph_json(str(out))
    assert g.n_edges == 1 * (2 * 2 + 1 * (2 * 2 + 1 + 3))
    sidecar = json.loads(out.with_suffix(".index.json").read_text())
    assert sidecar["params"] == {"n": 1, "r": 1, "s": 2, "t": 1}
    assert "b1[1]" in sidecar["groups"]

    res_csv = tmp_path / "res.csv"
    # the sidecar index makes the zero start available for graph files
    rc = cli.main([
        "run", "--rule", "random-bland", "--graph", str(out),
        "--trials", "4", "--seed", "11", "--out", str(res_csv), "--start", "zero",
    ])
    assert rc == 0
    rc = cli.main([
        "run", "--rule", "random-bland", "--n", "1", "--r", "1", "--s", "2",
        "--t", "1", "--trials", "4", "--seed", "11", "--out", str(res_csv),
    ])
    assert rc == 0
    rows = list(csv.DictReader(res_csv.read_text().splitlines()))
    assert len(rows) == 4
    assert set(rows[0]) == {"trial", "seed", "rule", "pivots", "wall_ns"}
    capsys.readouterr()


def test_cli_import_does_not_load_numpy():
    # a fresh interpreter, so that no other test's imports count
    src = str(Path(pivotlab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = "import sys, pivotlab.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
    # with NumPy made unimportable, the check that once used it still runs
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "from pivotlab import checks, cli\n"
        "checks.check_well_behaved_prob(n=2, rst=2, trials=200)\n"
        "sys.exit(cli.main(['verify', 'well-behaved-prob']))\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True)


def test_import_does_not_load_the_process_pool():
    # a fresh interpreter, so that no other test's imports count; only
    # run_trials with threads > 1 needs the pool
    src = str(Path(pivotlab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = ("import sys, pivotlab, pivotlab.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_failing_property_is_reported_under_the_repo_config(tmp_path):
    # with warnings as errors, Hypothesis's failure report must not end the
    # session in INTERNALERROR: the failing property is reported FAILED with
    # its example, and the other test still runs
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_passes():
            pass
        """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(pyproject), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "Falsifying example" in out


@pytest.mark.parametrize("nrst", [(1, 1, 1, 1), (1, 2, 2, 3), (2, 2, 3, 3),
                                  (2, 2, 3, 4), (3, 2, 3, 4)])
def test_well_behaved_frequency_matches_permutation_monte_carlo(nrst):
    # the order-statistic sampler against is_well_behaved on uniform
    # permutations, within four combined standard errors
    p = checks.well_behaved_frequency(*nrst, trials=20_000, seed=5)
    g, idx = counter_graph.build_counter_graph(*nrst)
    rng = Random(6)
    trials = 3000
    q = sum(
        rules.is_well_behaved(idx, rules.random_permutation_fn(g.n_edges, rng))
        for _ in range(trials)
    ) / trials
    assert q > 0.01  # enough hits for the normal approximation
    stderr = (p * (1 - p) / 20_000 + q * (1 - q) / trials) ** 0.5
    assert abs(p - q) <= 4 * stderr


def test_cli_counter_exact(capsys):
    rc = cli.main(["counter", "--exact", "--n", "3"])
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out == "14/3"


def test_cli_counter_trials(capsys):
    rc = cli.main(["counter", "--variant", "one-perm", "--n", "4",
                   "--trials", "50", "--seed", "3"])
    assert rc == 0
    assert "mean=" in capsys.readouterr().out


def _decimal_int(text: str) -> int:
    # int() refuses more than sys.get_int_max_str_digits() digits at once
    value = 0
    for at in range(0, len(text), 1000):
        chunk = text[at:at + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_cli_counter_exact_prints_past_the_int_digit_limit(capsys):
    # at n = 1700 the numerator and denominator have about 4790 and 4760
    # digits, past the default limit of 4300 on int-to-str conversion; the
    # value is printed whole and the limit is left as it was
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    assert cli.main(["counter", "--exact", "--n", "1700"]) == 0
    assert get_limit() == limit
    num, den = capsys.readouterr().out.strip().split("/")
    assert len(num) > 4300 and len(den) > 4300
    expected = counters.expected_increments(1700)
    assert (_decimal_int(num), _decimal_int(den)) == (expected.numerator,
                                                      expected.denominator)


def test_cli_counter_refuses_a_count_too_deep_before_any_draw(capsys, monkeypatch):
    # a count over n indices recurses n + 1 frames deep: the largest n
    # allowed runs from here, one more exits 2 on one error line before a
    # single draw
    def no_count(*args, **kwargs):
        raise AssertionError("a count ran")

    n = counters.COUNT_N_MAX
    always_first = SimpleNamespace(randrange=lambda k: 0)
    assert counters.rand_count(range(1, n + 1), always_first) == n
    assert counters.rand_count_one_perm(range(1, n + 1), range(n + 1)) == n
    monkeypatch.setattr(counters, "rand_count", no_count)
    monkeypatch.setattr(counters, "rand_count_one_perm", no_count)
    for variant in ("fresh", "one-perm"):
        argv = ["counter", "--variant", variant, "--n", str(n + 1), "--trials", "1"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_counter_refuses_too_many_increments_before_any_draw(capsys, monkeypatch):
    # a count makes about expected_increments(n) increments, so trials whose
    # estimate passes the cap exit 2 on one error line that names it, before
    # a single draw; the most trials under the cap run
    calls = []

    def stub_count(*args, **kwargs):
        calls.append(args)
        return 0

    monkeypatch.setattr(counters, "rand_count", stub_count)
    monkeypatch.setattr(counters, "rand_count_one_perm", stub_count)
    n = 50
    fits = int(counters.COUNT_INCREMENTS_MAX // counters.expected_increments(n))
    for variant in ("fresh", "one-perm"):
        for trials, code in ((fits, 0), (fits + 1, 2)):
            calls.clear()
            argv = ["counter", "--variant", variant, "--n", str(n),
                    "--trials", str(trials)]
            assert cli.main(argv) == code
            out, err = capsys.readouterr()
            if code == 0:
                assert len(calls) == trials and f"trials={trials}" in out
                continue
            estimate = float(trials * counters.expected_increments(n))
            assert not calls and not out
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"about {estimate:.3g} increments" in err
        # the default 1000 trials at n = 100, about 2.8e10 increments
        assert cli.main(["counter", "--variant", variant, "--n", "100"]) == 2
        assert "about 2.8e+10 increments" in capsys.readouterr().err
        assert not calls


def test_cli_verify_pass_and_fail(tmp_path, capsys):
    rc = cli.main(["verify", "recurrence", "--params", '{"n_max": 30}'])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]
    # exit 1 on a failing check: single-copy multi-edges are almost never
    # well-behaved, far below the one-half threshold
    rc = cli.main([
        "verify", "well-behaved-prob",
        "--params", '{"n": 2, "rst": 1, "trials": 60, "seed": 1}',
    ])
    assert rc == 1
    capsys.readouterr()
    # unknown checks are a usage error via argparse
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "definitely-not-a-check"])
    assert exc.value.code == 2


def test_cli_analyze(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert cli.main(["gen", "--n", "2", "--r", "1", "--s", "1", "--t", "1",
                     "--out", str(out)]) == 0
    events = tmp_path / "events.csv"
    rc = cli.main(["analyze", "--graph", str(out), "--S", "2,1",
                   "--trials", "20", "--seed", "5", "--out", str(events)])
    assert rc == 0
    rows = list(csv.DictReader(events.read_text().splitlines()))
    assert len(rows) == 20
    assert set(rows[0]) == {"trial", "seed", "outcome", "detail", "path_len"}
    assert [int(r["seed"]) for r in rows] == [derive_seed(5, k) for k in range(20)]
    counts: dict[str, int] = {}
    for r in rows:
        counts[r["outcome"]] = counts.get(r["outcome"], 0) + 1
    printed = capsys.readouterr().out
    assert f"counts={counts}" in printed
    assert "canonical frequency" in printed


def _one_edge_graph(target=1, cost="2", vertex_id=1) -> str:
    return json.dumps({
        "target": target,
        "vertices": [{"id": 0, "name": "v0"}, {"id": vertex_id, "name": "v1"}],
        "edges": [{"id": 0, "name": "e0", "tail": 0, "head": 1, "scaled_cost": cost}],
    })


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '{"target": 1, "edges": []}',
        json.dumps({  # 0 -> 1 -> 0 costs -1
            "target": 2,
            "vertices": [{"id": v, "name": f"v{v}"} for v in range(3)],
            "edges": [
                {"id": e, "name": f"e{e}", "tail": t, "head": h, "scaled_cost": c}
                for e, (t, h, c) in enumerate([(0, 1, "-2"), (1, 0, "1"), (0, 2, "0")])
            ],
        }),
        # int() would truncate 2.7 to 2, and true would read as vertex 1
        _one_edge_graph(cost=2.7),
        _one_edge_graph(target=True),
        # == would take true and 1.0 for the id 1
        _one_edge_graph(vertex_id=True),
        _one_edge_graph(vertex_id=1.0),
    ],
    ids=["malformed-json", "missing-key", "negative-cycle", "float-cost", "bool-target",
         "bool-id", "float-id"],
)
def test_cli_bad_graph_file_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for argv in (
        ["run", "--rule", "dantzig", "--graph", str(path)],
        ["analyze", "--graph", str(path), "--S", "1"],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load graph") and err.count("\n") == 1


@functools.lru_cache(maxsize=None)
def _gen_files(params=(2, 1, 1, 1)) -> tuple[str, str]:
    """The graph file and the sidecar `pivotlab gen` writes for params."""
    flags = [f for k, v in zip("nrst", params) for f in (f"--{k}", str(v))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gen", *flags, "--out", path]) == 0
        return Path(path).read_text(), Path(tmp, "g.index.json").read_text()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_graph_with_one_bad_field_is_a_usage_error(data):
    # one id, tail, head or target that is a float, a bool, -1 or past its
    # range, or one cost that is a float or a bool (a negative cost makes a
    # valid graph), and `run --graph` exits 2 on one error line
    doc = json.loads(_gen_files()[0])
    n, m = len(doc["vertices"]), len(doc["edges"])
    field = data.draw(st.sampled_from(
        ["vertex id", "edge id", "tail", "head", "target", "scaled_cost"]))
    junk = st.one_of(st.floats(), st.booleans())
    if field == "target":
        rec = doc
    elif field == "vertex id":
        rec = doc["vertices"][data.draw(st.integers(0, n - 1))]
    else:
        rec = doc["edges"][data.draw(st.integers(0, m - 1))]
    if field != "scaled_cost":
        junk |= st.just(-1) | st.integers(min_value=m if field == "edge id" else n)
    rec[field.split()[-1]] = data.draw(junk)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.json")
        Path(path).write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["run", "--rule", "dantzig", "--graph", path])
    assert rc == 2
    assert err.getvalue().startswith("error: cannot load graph")
    assert err.getvalue().count("\n") == 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_sidecar_with_one_bad_param_is_a_usage_error(data):
    # one of n, r, s, t of a (1,1,1,1) sidecar is a float, a bool, 0 or -1:
    # true would read as 1 and build the graph, and 1.5 would count
    # fractional edges; `run --graph` exits 2 on one error line
    graph, sidecar = _gen_files((1, 1, 1, 1))
    doc = json.loads(sidecar)
    key = data.draw(st.sampled_from("nrst"))
    doc["params"][key] = data.draw(
        st.floats() | st.booleans() | st.sampled_from([0, -1]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        Path(path).write_text(graph)
        Path(tmp, "g.index.json").write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["run", "--rule", "dantzig", "--graph", path])
    assert rc == 2
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1


def test_cli_bad_sidecar_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert cli.main(["gen", "--n", "1", "--r", "1", "--s", "1", "--t", "1",
                     "--out", str(out)]) == 0
    (tmp_path / "g.index.json").write_text('{"params": {"n": 1}}')
    capsys.readouterr()
    for argv in (
        ["run", "--rule", "dantzig", "--graph", str(out)],
        ["analyze", "--graph", str(out), "--S", "1"],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load index") and err.count("\n") == 1


def test_cli_analyze_reads_its_sidecar_like_run(tmp_path, capsys):
    # --trials is checked before any file is read
    missing = str(tmp_path / "nowhere.json")
    assert cli.main(["analyze", "--graph", missing, "--S", "1", "--trials", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --trials") and err.count("\n") == 1
    # a graph copied without its sidecar: one line naming the sidecar sought
    assert cli.main(["gen", "--n", "1", "--r", "1", "--s", "1", "--t", "1",
                     "--out", str(tmp_path / "g.json")]) == 0
    (tmp_path / "lone.json").write_text((tmp_path / "g.json").read_text())
    capsys.readouterr()
    assert cli.main(["analyze", "--graph", str(tmp_path / "lone.json"), "--S", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "lone.index.json") in err


def _assert_sidecar_rejected(capsys, graph: str) -> None:
    for argv in (
        ["run", "--rule", "dantzig", "--graph", graph],
        ["analyze", "--graph", graph, "--S", "1"],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: index") and err.count("\n") == 1


def test_cli_sidecar_of_another_graph_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # each graph gets another's parameters: (1,1,1,1) has fewer edges than
    # (2,1,1,1), while (2,1,1,1) and (1,1,3,1) both have 9 vertices and 16
    # edges, so only their builds tell them apart
    for name, params, other in (("g", (1, 1, 1, 1), (2, 1, 1, 1)),
                                ("h", (2, 1, 1, 1), (1, 1, 3, 1))):
        flags = [f for k, v in zip("nrst", params) for f in (f"--{k}", str(v))]
        assert cli.main(["gen", *flags, "--out", str(tmp_path / f"{name}.json")]) == 0
        (tmp_path / f"{name}.index.json").write_text(
            json.dumps({"params": dict(zip("nrst", other))})
        )
    capsys.readouterr()
    _assert_sidecar_rejected(capsys, str(tmp_path / "h.json"))
    # its own parameters, under a graph with one cost edited
    doc = json.loads((tmp_path / "h.json").read_text())
    doc["edges"][0]["scaled_cost"] = str(int(doc["edges"][0]["scaled_cost"]) + 1)
    (tmp_path / "c.json").write_text(json.dumps(doc))
    (tmp_path / "c.index.json").write_text((tmp_path / "g.index.json").read_text())
    _assert_sidecar_rejected(capsys, str(tmp_path / "c.json"))

    def no_build(*args, **kwargs):
        raise AssertionError("the sidecar's graph was built before its size was checked")

    # the edge count is compared from the closed form, so that a sidecar
    # claiming a huge graph costs no more than a small one
    monkeypatch.setattr(counter_graph, "build_counter_graph", no_build)
    _assert_sidecar_rejected(capsys, str(tmp_path / "g.json"))


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "1", "--r", "1", "--s", "1", "--t", "1", "--seed", "3"],
        ["gen", "--n", "1", "--r", "1", "--s", "1", "--t", "1", "--threads", "2"],
        ["counter", "--n", "3", "--threads", "2"],
        ["counter", "--n", "3", "--out", "x"],
        ["analyze", "--graph", "g.json", "--S", "1", "--threads", "2"],
        ["analyze", "--graph", "g.json", "--S", "1", "--index", "g.index.json"],
        ["verify", "recurrence", "--seed", "3"],
        ["verify", "recurrence", "--threads", "2"],
    ],
    ids=["gen-seed", "gen-threads", "counter-threads", "counter-out",
         "analyze-threads", "analyze-index", "verify-seed", "verify-threads"],
)
def test_cli_unread_flag_is_rejected(tmp_path, monkeypatch, capsys, argv):
    # a flag the subcommand would ignore is an argparse usage error
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert not os.listdir(tmp_path)
    capsys.readouterr()


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["run"])  # missing required --rule
    assert exc.value.code == 2


@pytest.mark.parametrize("rule", RULES)
def test_cli_trace_is_csv_trial_zero(rule, tmp_path, capsys):
    # the trace is the run the CSV reports as trial 0: its seed, the pivot
    # log of that seeded run, and as many pivots as the CSV counts
    trace = tmp_path / "t.json"
    out = tmp_path / "c.csv"
    assert cli.main(["run", "--rule", rule, "--n", "3", "--r", "2",
                     "--s", "2", "--t", "2", "--trace", str(trace),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(trace.read_text())
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert doc["seed"] == int(rows[0]["seed"])
    g, _idx, start = experiments.load_instance(None, (3, 2, 2, 2), "auto")
    run = run_rule(rule, g, start, doc["seed"])
    assert [tuple(p) for p in doc["pivot_log"]] == run.pivot_log
    assert len(doc["pivot_log"]) == int(rows[0]["pivots"])
    assert doc["schema"] == 2
    if rule == "random-facet":
        # one node per descent: the root, then one right child per pivot
        tree = doc["tree"]
        assert len(tree["size"]) - 1 == int(rows[0]["pivots"])
        assert {*map(len, tree.values())} == {len(tree["size"])}
    else:  # only the facet recursion defines a computation tree
        assert "tree" not in doc


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "recurrence", "--params", "{x"],
        ["verify", "recurrence", "--params", "[1]"],
        ["verify", "recurrence", "--params", '{"bogus": 1}'],
        ["verify", "recurrence", "--params", '{"n_max": "x"}'],
        ["verify", "recurrence", "--params", '{"n_max": true}'],
        ["verify", "counters-equality", "--params", '{"n_max": -2}'],
        ["verify", "well-behaved-prob", "--params", '{"trials": 0}'],
        ["verify", "technical-star", "--params", '{"ns": 3}'],
        ["verify", "technical-star", "--params", '{"ns": [3, -1]}'],
        ["verify", "technical-star", "--params", '{"ns": []}'],
        ["verify", "well-behaved-prob", "--params", '{"rst": 0}'],
        ["analyze", "--S", "a", "--graph", "GRAPH"],
        ["analyze", "--S", "9", "--graph", "GRAPH"],
        ["analyze", "--S", "", "--graph", "GRAPH"],
        ["analyze", "--S", ",", "--graph", "GRAPH"],
        ["analyze", "--S", "1,1", "--graph", "GRAPH"],
        ["analyze", "--S", "1", "--trials", "0", "--graph", "GRAPH"],
        ["run", "--rule", "dantzig", "--n", "0", "--r", "1", "--s", "1", "--t", "1"],
        ["run", "--rule", "dantzig", "--graph", "GRAPH", "--n", "5"],
        ["run", "--rule", "dantzig", "--n", "2", "--r", "1"],
        ["run", "--rule", "dantzig"],
        ["run", "--rule", "dantzig", "--n", "1", "--r", "1", "--s", "1", "--t", "1",
         "--threads", "0"],
        ["run", "--rule", "dantzig", "--n", "1", "--r", "1", "--s", "1", "--t", "1",
         "--threads", "-3"],
        ["run", "--rule", "dantzig", "--n", "1", "--r", "1", "--s", "1", "--t", "1",
         "--trials", "0"],
        ["gen", "--n", "0", "--r", "1", "--s", "1", "--t", "1"],
        ["counter", "--n", "-3", "--exact"],
        ["counter", "--n", "5", "--trials", "0"],
        ["counter", "--n", "1200", "--trials", "1"],
        ["counter", "--variant", "one-perm", "--n", "1200", "--trials", "1"],
        ["run", "--rule", "dantzig", "--n", "1", "--r", "1", "--s", "1", "--t", "1",
         "--out", "DIR"],
        ["run", "--rule", "dantzig", "--n", "1", "--r", "1", "--s", "1", "--t", "1",
         "--trace", "DIR"],
        ["gen", "--n", "1", "--r", "1", "--s", "1", "--t", "1", "--out", "DIR"],
        ["analyze", "--S", "1", "--trials", "2", "--graph", "GRAPH", "--out", "DIR"],
        ["verify", "recurrence", "--params", '{"n_max": 5}', "--out", "DIR"],
    ],
    ids=["params-json", "params-list", "params-key", "params-type",
         "params-bool", "params-negative", "params-zero-trials",
         "params-not-a-list", "params-negative-entry", "params-empty-list",
         "params-zero-chain", "levels-text",
         "levels-range", "levels-empty", "levels-comma", "levels-repeated",
         "zero-trials", "counter-params", "run-graph-and-params",
         "run-partial-params", "run-no-graph", "run-zero-threads", "run-negative-threads",
         "run-zero-trials",
         "gen-params", "counter-negative-n",
         "counter-zero-trials", "counter-deep-n", "counter-one-perm-deep-n",
         "run-out-dir", "run-trace-dir", "gen-out-dir",
         "analyze-out-dir", "verify-out-dir"],
)
def test_cli_bad_flag_is_a_usage_error(tmp_path, capsys, argv):
    graph = tmp_path / "g.json"
    assert cli.main(["gen", "--n", "2", "--r", "1", "--s", "1", "--t", "1",
                     "--out", str(graph)]) == 0
    capsys.readouterr()
    places = {"GRAPH": str(graph), "DIR": str(tmp_path)}
    argv = [places.get(a, a) for a in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_run_opens_its_outputs_before_the_first_trial(tmp_path, capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the outputs were opened")

    monkeypatch.setattr(experiments, "run_trials", no_trials)
    for flag in ("--out", "--trace"):
        argv = ["run", "--rule", "random-facet", "--n", "2", "--r", "1", "--s", "1",
                "--t", "1", flag, str(tmp_path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_analyze_and_verify_open_their_outputs_before_any_work(
    tmp_path, capsys, monkeypatch
):
    graph = tmp_path / "g.json"
    assert cli.main(["gen", "--n", "2", "--r", "1", "--s", "1", "--t", "1",
                     "--out", str(graph)]) == 0
    capsys.readouterr()

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the output was opened")

    monkeypatch.setattr(comptrees, "follow_canonical", no_work)
    monkeypatch.setattr(checks, "run_check", no_work)
    for argv in (
        ["analyze", "--graph", str(graph), "--S", "2,1", "--trials", "3"],
        ["verify", "recurrence", "--params", '{"n_max": 5}'],
    ):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
