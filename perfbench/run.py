"""ringcav benchmark: each workload is a sequence of real CLI commands.

    python3 perfbench/run.py --workload {sweep,fit,lock,all} --seed N \
        --seconds S --trace {0,1} [--out RESULT.json]

Every command runs as ``ringcav ...`` in its own fresh Python process with
``PYTHONPATH=src`` (through ``launch.py``, which marks when ``ringcav.cli``
is imported), one command at a time. A round runs all of a workload's
commands once; rounds repeat while the next one still fits in ``--seconds``.
Inputs come from the seed; outputs go to a scratch directory under
``.perfbench_work/`` that is removed at the end. Every output is checked
outside the timed spans. With ``--trace 1`` untraced and traced rounds
alternate and the per-layer metrics come from the traced ones.

Before each command of an untraced round a fixed reference task runs in a
fresh process of its own. The end-to-end times are reported at the speed at
which the reference task takes ``REFERENCE_S``: each measured time is scaled
by ``REFERENCE_S`` over the run's median reference time, which takes out the
drift of a shared machine's speed. The measured times are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_PARENT = ROOT / ".perfbench_work"

END_TO_END = {"wall_s": "s", "setup_s": "s", "compute_s": "s", "peak_rss_mb": "MB"}
TIMES = ("wall_s", "setup_s", "compute_s")
COMMAND_TIMEOUT_S = 120.0

# The reference task: a fresh interpreter that imports scipy.optimize and
# click. Its work is of the kind that takes most of a command's time (process
# start, loading modules), and it shares no code with ringcav, so a change to
# the program cannot move it.
REFERENCE_CODE = "import scipy.optimize, click"
# Its median spawn-to-exit time on the 2-CPU machine the benchmark was written
# on; the scale of the reported times.
REFERENCE_S = 0.7


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, or the program will not start)."""


@dataclass
class Outcome:
    """One command process."""

    exit_code: int
    wall_s: float  # spawn to exit
    setup_s: float  # spawn until ringcav.cli is imported
    compute_s: float  # import done until the command returned
    rss_mb: float
    stderr: str
    spans: list | None
    module: str | None


def spawn(args: list, cwd: Path, scratch: Path, trace: bool) -> Outcome:
    timing = scratch / "timing.json"
    stderr_path = scratch / "stderr.txt"
    timing.unlink(missing_ok=True)
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []), str(HERE / "launch.py"),
           str(timing), "1" if trace else "0", "--", *args]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        marks = json.loads(timing.read_text())
    except (OSError, ValueError):  # the command died before writing its marks
        marks = {}
    ready, done = marks.get("ready", math.nan), marks.get("done", math.nan)
    return Outcome(
        exit_code=proc.returncode,
        wall_s=end - start,
        setup_s=ready - start,
        compute_s=done - ready,
        rss_mb=usage.ru_maxrss / 1024.0,
        stderr=stderr_path.read_text(errors="replace"),
        spans=marks.get("spans"),
        module=marks.get("module"),
    )


def reference(scratch: Path) -> float:
    """Spawn-to-exit time of one run of the reference task."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_CODE], cwd=scratch, stdin=subprocess.DEVNULL,
                   check=True, timeout=COMMAND_TIMEOUT_S)
    return time.perf_counter() - start


def _digest(paths) -> str | None:
    h = hashlib.sha256()
    for p in paths:
        if not p.is_file():
            return None
        h.update(p.read_bytes())
    return h.hexdigest()


def _check(command, out_dir: Path) -> list:
    try:
        return command.check(out_dir)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return [f"{command.name}: check raised {type(exc).__name__}: {exc}"]


def warm_up(scratch: Path) -> None:
    """Untimed first command: warms the file cache and compiles bytecode."""
    if not (ROOT / "src" / "ringcav" / "cli.py").is_file():
        raise SetupError(f"no ringcav sources under {ROOT / 'src'}")
    outcome = spawn(["--version"], scratch, scratch, trace=False)
    if outcome.exit_code != 0 or outcome.module is None:
        raise SetupError(f"ringcav --version failed ({outcome.exit_code}): {outcome.stderr[-500:]}")
    if not Path(outcome.module).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SetupError(f"ringcav.cli loaded from {outcome.module}, not from this checkout")
    reference(scratch)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 size: str = "full") -> dict:
    """Run one workload's rounds and checks; returns its result record."""
    inputs_dir, out_dir, scratch = work / "inputs", work / "out", work / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    warm_up(scratch)
    plan = workloads.build(name, seed, inputs_dir, ROOT, size)

    untraced, traced, references = [], [], []
    digests, problems = {}, []
    attempted = failed = 0
    measured = last = 0.0
    # at least one round (one of each kind when tracing); the measured times
    # come from untraced rounds only
    while not untraced or (trace and not traced) or measured + last <= seconds:
        traced_round = trace and len(traced) < len(untraced)
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        start = time.perf_counter()
        outcomes = []
        for command in plan.commands:
            if not traced_round:
                references.append(reference(scratch))
            outcomes.append(spawn(command.args, out_dir, scratch, traced_round))
        last = time.perf_counter() - start
        measured += last
        (traced if traced_round else untraced).append(outcomes)
        for command, outcome in zip(plan.commands, outcomes):
            attempted += 1
            digest = _digest([out_dir / p for p in command.outputs])
            if command.name not in digests:
                found = ([f"{command.name}: exit code {outcome.exit_code}: "
                          f"{outcome.stderr.strip()[-300:]}"]
                         if outcome.exit_code != 0 else _check(command, out_dir))
                digests[command.name] = digest if not found else None
                problems += found
            ok = outcome.exit_code == 0 and digest is not None and digest == digests[command.name]
            failed += not ok
        if len(untraced) + len(traced) == 1:
            attempted += 1
            failed += not _rerun_identical(plan, out_dir, scratch, problems)

    result = {
        "workload": name,
        "seed": seed,
        "size": size,
        "inputs": plan.inputs,
        "commands": [["ringcav", *c.args] for c in plan.commands],
        "rerun": ["ringcav", "rerun", plan.rerun],
        "rounds": {"untraced": len(untraced), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "reference_s": statistics.median(references),
        "end_to_end_measured": end_to_end(untraced),
    }
    result["end_to_end"] = at_reference_speed(result["end_to_end_measured"], result["reference_s"])
    if trace:
        result["per_layer"] = per_layer(traced, untraced)
    return result


def _rerun_identical(plan, out_dir: Path, scratch: Path, problems: list) -> bool:
    """Replay one manifest; its outputs must come back byte-identical."""
    try:
        outputs = [out_dir / p for p in json.loads((out_dir / plan.rerun).read_text())["outputs"]]
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"rerun: cannot read {plan.rerun}: {exc}")
        return False
    before = _digest(outputs)
    if before is None:
        problems.append(f"rerun: an output named in {plan.rerun} is missing")
        return False
    # remove them first, so a rerun that writes nothing cannot pass
    for path in outputs:
        if path != out_dir / plan.rerun:
            path.unlink()
    outcome = spawn(["rerun", plan.rerun], out_dir, scratch, trace=False)
    if outcome.exit_code != 0 or _digest(outputs) != before:
        problems.append(f"rerun {plan.rerun}: exit {outcome.exit_code}, "
                        "outputs missing or changed")
        return False
    return True


def _command_sum(rounds: list, field: str) -> float:
    """Sum over the commands of each command's median across rounds."""
    return sum(statistics.median(getattr(o, field) for o in runs) for runs in zip(*rounds))


def end_to_end(rounds: list) -> dict:
    return {
        "wall_s": _command_sum(rounds, "wall_s"),
        "setup_s": statistics.median(o.setup_s for r in rounds for o in r),
        "compute_s": _command_sum(rounds, "compute_s"),
        "peak_rss_mb": max(o.rss_mb for r in rounds for o in r),
    }


def at_reference_speed(measured: dict, reference_s: float) -> dict:
    """The times scaled to a machine on which the reference task takes REFERENCE_S."""
    scale = REFERENCE_S / reference_s
    return {k: v * scale if k in TIMES else v for k, v in measured.items()}


def per_layer(traced: list, untraced: list) -> dict:
    """Per-layer metrics: medians over traced rounds; exact counts from the first."""
    per_round = []
    for outcomes in traced:
        metrics = spans.layer_metrics([(o.compute_s, o.spans or []) for o in outcomes])
        imports = [spans.import_metrics(o.stderr) for o in outcomes]
        for key in imports[0]:
            metrics[key] = statistics.median(i[key] for i in imports)
        per_round.append(metrics)
    out = {}
    for key in spans.PER_LAYER:
        if key in spans.EXACT_COUNTS:
            out[key] = per_round[0][key]
        elif key != "trace.overhead_ratio":
            out[key] = statistics.median(m[key] for m in per_round)
    out["trace.overhead_ratio"] = (_command_sum(traced, "compute_s")
                                   / _command_sum(untraced, "compute_s"))
    return out


def environment(seed: int, seconds: float, trace: bool) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "reference_code": REFERENCE_CODE,
        "reference_scale_s": REFERENCE_S,
    }


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _report(result: dict) -> None:
    r = result
    print(f"workload {r['workload']}  seed {r['seed']}  rounds {r['rounds']}  "
          f"{len(r['commands'])} commands per round")
    print(f"  reference task: median {r['reference_s']:.6f} s; times below are at "
          f"{REFERENCE_S} s (measured in brackets)")
    for key, unit in END_TO_END.items():
        measured = f"  ({r['end_to_end_measured'][key]:.6f})" if key in TIMES else ""
        print(f"  {key:44s} {r['end_to_end'][key]:14.6f} {unit}{measured}")
    print(f"  {'fail_ratio':44s} {r['fail_ratio']:14.6f} ratio "
          f"({r['failed']} of {r['attempted']} commands)")
    for key, value in (r.get("per_layer") or {}).items():
        print(f"  {key:44s} {value:14.6f} {spans.PER_LAYER[key]}")
    for problem in r["problems"]:
        print(f"  problem: {problem}")


def _metrics(result: dict, trace: bool) -> dict:
    if trace:
        return {k: {"value": v, "unit": spans.PER_LAYER[k]} for k, v in result["per_layer"].items()}
    return {k: {"value": result["end_to_end"][k], "unit": u} for k, u in END_TO_END.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result, with provenance")
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    trace = bool(args.trace)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)

    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_PARENT))
    try:
        results = {n: run_workload(n, args.seed, args.seconds, trace, work / n) for n in names}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_PARENT.iterdir()):
            WORK_PARENT.rmdir()

    for result in results.values():
        _report(result)
    if args.out:
        doc = {"environment": environment(args.seed, args.seconds, trace), "workloads": results}
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = _metrics(results[names[0]], trace)
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in _metrics(r, trace).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
