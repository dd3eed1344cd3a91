"""Self-tests of the benchmark, at tiny problem sizes.

    python3 -m pytest perfbench -q

They run real CLI processes, so they take about two minutes. They sit
outside the package's ``testpaths`` and are not part of its test suite.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

SEED = 3
_results = {}


def _traced(name: str, tmp_path_factory, key=SEED) -> dict:
    """Traced tiny run of one workload, cached per (workload, key)."""
    if (name, key) not in _results:
        work = tmp_path_factory.mktemp(f"{name}_{key}")
        _results[name, key] = run.run_workload(name, SEED, 0.0, True, work, size="tiny")
    return _results[name, key]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_prints_every_metric_with_unit(name, tmp_path_factory, capsys):
    result = _traced(name, tmp_path_factory)
    assert result["problems"] == []
    assert result["fail_ratio"] == 0.0
    run._report(result)
    lines = capsys.readouterr().out.splitlines()
    named = {**run.END_TO_END, "fail_ratio": "ratio", **spans.PER_LAYER}
    for metric, unit in named.items():
        assert any(line.split()[:1] == [metric] and line.split()[2] == unit for line in lines), metric
    assert set(run._metrics(result, trace=False)) == set(run.END_TO_END)
    assert set(run._metrics(result, trace=True)) == set(spans.PER_LAYER)


def test_times_are_scaled_by_the_reference_task(tmp_path_factory):
    measured = {"wall_s": 3.0, "setup_s": 1.0, "compute_s": 1.5, "peak_rss_mb": 100.0}
    # on a machine twice as slow as the nominal one the times halve; memory stays
    halved = run.at_reference_speed(measured, 2.0 * run.REFERENCE_S)
    assert halved == {"wall_s": 1.5, "setup_s": 0.5, "compute_s": 0.75, "peak_rss_mb": 100.0}
    result = _traced("lock", tmp_path_factory)
    assert result["reference_s"] > 0.0
    assert result["end_to_end"] == run.at_reference_speed(result["end_to_end_measured"],
                                                          result["reference_s"])


def test_layers_reach_every_namespace(tmp_path_factory):
    # fitting looks up ring_transmission and find_transmission_dips by its own
    # names; nonzero counts show those namespaces were patched too
    fit = _traced("fit", tmp_path_factory)["per_layer"]
    assert fit["ring.ring_transmission.calls"] > 0
    assert fit["peaks.find_transmission_dips.calls"] > 0
    assert fit["fitting.model_calls"] > fit["fitting.model_calls_reported"] > 0
    assert 0.0 < fit["fitting.useful_start_ratio"] <= 1.0
    assert fit["params.s"] > 0.0 and fit["io.read_csv.rows"] > 0
    assert 0.5 < fit["trace.overhead_ratio"] < 2.0
    sweep = _traced("sweep", tmp_path_factory)["per_layer"]
    for kind in ("lowest", "highest", "follow"):
        assert sweep[f"steady_state.spectrum.{kind}.ns_per_point"] > 0.0
    assert sweep["fitting.fit.calls"] == 0 and sweep["thermal.steps"] == 0
    lock = _traced("lock", tmp_path_factory)["per_layer"]
    assert lock["thermal.steps"] > 0 and lock["steady_state.spectrum.calls"] == 0


def test_exact_counts_repeat_for_a_seed(tmp_path_factory):
    first = _traced("fit", tmp_path_factory)["per_layer"]
    again = _traced("fit", tmp_path_factory, key="again")["per_layer"]
    assert {k: first[k] for k in spans.EXACT_COUNTS} == {k: again[k] for k in spans.EXACT_COUNTS}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_decides_inputs(name, tmp_path):
    def plan(seed, where):
        p = workloads.build(name, seed, tmp_path / where, run.ROOT, size="tiny")
        files = {f.name: f.read_bytes() for f in sorted((tmp_path / where).iterdir())}
        return [c.args for c in p.commands], files

    assert plan(5, "a") == plan(5, "b")
    assert plan(5, "a") != plan(6, "c")


def test_oracle_check_catches_a_wrong_value(tmp_path):
    plan = workloads.build("sweep", SEED, tmp_path / "inputs", run.ROOT, size="tiny")
    command = next(c for c in plan.commands if c.name == "spectrum-default")
    out = tmp_path / "out"
    out.mkdir()
    assert run.spawn(command.args, out, out, trace=False).exit_code == 0
    assert run._check(command, out) == []
    path = out / "spectrum.csv"
    lines = path.read_text().splitlines()
    # corrupt every row in the last digits a %.12g value can hold
    lines[1:] = [f"{x},{float(t) * (1 + 1e-6):.12g}" for x, t in
                 (row.split(",") for row in lines[1:])]
    path.write_text("\n".join(lines) + "\n")
    assert run._check(command, out)


def test_branch_checks_catch_a_wrong_branch(tmp_path):
    # a follow sweep that never leaves the lowest branch, or that runs the
    # other way, must fail the check of its rows
    plan = workloads.build("sweep", SEED, tmp_path / "inputs", run.ROOT, size="tiny")
    out = tmp_path / "out"
    out.mkdir()
    commands = {c.name: c for c in plan.commands}
    for name in ("spectrum-lowest", "spectrum-follow-up", "spectrum-follow-down"):
        assert run.spawn(commands[name].args, out, out, trace=False).exit_code == 0
        assert run._check(commands[name], out) == []
    follow_up = out / "strong_follow-up.csv"
    for wrong in ("strong_lowest.csv", "strong_follow-down.csv"):
        shutil.copy(out / wrong, follow_up)
        assert run._check(commands["spectrum-follow-up"], out), wrong


def test_rerun_that_writes_nothing_fails(tmp_path, monkeypatch):
    plan = workloads.build("lock", SEED, tmp_path / "inputs", run.ROOT, size="tiny")
    out = tmp_path / "out"
    out.mkdir()
    hold = next(c for c in plan.commands if c.name == "lock-hold")
    assert run.spawn(hold.args, out, out, trace=False).exit_code == 0
    assert run._rerun_identical(plan, out, out, []) is True
    real_spawn = run.spawn

    def rerun_does_nothing(args, cwd, scratch, trace):
        return real_spawn(["--version"] if args[0] == "rerun" else args, cwd, scratch, trace)

    monkeypatch.setattr(run, "spawn", rerun_does_nothing)
    problems = []
    assert run._rerun_identical(plan, out, out, problems) is False
    assert problems


_TRACE_BEFORE_IMPORT = """
import collections, json, sys
import spans
before = set(sys.modules)
tracer = spans.Tracer()
spans.install(tracer)
new = [m for m in set(sys.modules) - before if m.split(".")[0] in ("ringcav", "numpy", "scipy")]
assert not new, new
import ringcav.cli
sys.argv = ["ringcav", *sys.argv[1:]]
try:
    ringcav.cli.main()
except SystemExit as exc:
    assert not exc.code, exc.code
print(json.dumps(collections.Counter(s[spans.NAME] for s in tracer.spans)))
"""


def test_tracing_patches_modules_loaded_later(tmp_path):
    # A program whose layers load lazily is traced as fully as one that
    # imports them all up front: here every ringcav module, scipy.optimize
    # included, is imported only after the tracer is installed.
    args = ["empty-cavity", "--points", "1001", "--seed", "1", "--output", "ec.json"]
    env = {"PYTHONPATH": f"{run.HERE}{os.pathsep}{run.ROOT / 'src'}"}
    late = subprocess.run([sys.executable, "-c", _TRACE_BEFORE_IMPORT, *args], cwd=tmp_path,
                          env={**os.environ, **env}, capture_output=True, text=True, timeout=120)
    assert late.returncode == 0, late.stderr
    late_counts = json.loads(late.stdout.splitlines()[-1])
    early = run.spawn(args, tmp_path, tmp_path, trace=True)
    assert early.exit_code == 0, early.stderr
    early_counts = {}
    for span in early.spans:
        early_counts[span[spans.NAME]] = early_counts.get(span[spans.NAME], 0) + 1
    assert late_counts == early_counts
    for name in ("fitting.fit", "fitting.least_squares", "fitting.model",
                 "ring.ring_transmission", "peaks.find_transmission_dips", "params.params_from_dict"):
        assert late_counts.get(name, 0) > 0, name


def test_corrupted_output_raises_fail_ratio(tmp_path, monkeypatch):
    real_spawn = run.spawn

    def spawn_then_truncate(args, cwd, scratch, trace):
        outcome = real_spawn(args, cwd, scratch, trace)
        if args[:3] == ["lock", "--mode", "step"]:
            path = Path(cwd) / "step.csv"
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        return outcome

    monkeypatch.setattr(run, "spawn", spawn_then_truncate)
    result = run.run_workload("lock", SEED, 0.0, False, tmp_path, size="tiny")
    assert result["failed"] == result["rounds"]["untraced"]
    assert result["fail_ratio"] > 0.0
    assert any("step.csv" in p for p in result["problems"])


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lock", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
