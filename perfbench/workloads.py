"""Workload plans: the ringcav CLI commands each workload runs, and their checks.

A plan is built from the seed alone. Building it writes every input file the
commands read (synthetic fit data, fit specs) into an inputs directory; the
program sees only those files and the command-line flags. Each command
carries a check that reads the command's outputs after it ran and returns a
list of problems (empty when the outputs are correct).

Checks compare against ``tests/oracles.py`` (bracketing root finder, ring
geometric series), which shares no code with the package, and against the
truth each synthetic data set was generated from.
"""
from __future__ import annotations

import importlib.util
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("sweep", "fit", "lock")

# Reference parameter set of the package (NOMINAL in params.py), restated here
# so the checks do not go through the package's own unit conversions.
KAPPA_I_MHZ = 1.7
KAPPA_EX_MHZ = 0.47
GAMMA_PERP_MHZ = 4.0
N_SAT = 12.7
LAMBDA_M = 852e-9
COOPERATIVITY = 1.5
DEFAULT_POWER_W = 30e-12
TAU_TH_S = 10e-3
DT_S = TAU_TH_S / 40.0  # the CLI's default integrator step

# Problem sizes. "full" is what the benchmark measures; "tiny" keeps every
# command and check but shrinks the work, for the benchmark's self-tests.
SIZES = {
    "full": {
        "spectrum_points": 60001,
        "saturation_points": 40000,
        "as2_points": 401,
        "as4_points": 801,
        "sat2_points": 60,
        "ring_points": 3001,
        "step_duration_s": 30.0,
        "scan_rate_tau_per_linewidth": 21.0,
        "scan_span_linewidths": 60.0,
    },
    "tiny": {
        "spectrum_points": 2001,
        "saturation_points": 201,
        "as2_points": 121,
        "as4_points": 161,
        "sat2_points": 30,
        "ring_points": 1001,
        "step_duration_s": 0.5,
        "scan_rate_tau_per_linewidth": 10.0,
        "scan_span_linewidths": 20.0,
    },
}

SAMPLES_PER_OUTPUT = 16


@dataclass
class Command:
    """One CLI invocation: ``ringcav ARGS`` run in the round's output directory."""

    name: str
    args: list
    outputs: list
    check: Callable[[Path], list]


@dataclass
class Plan:
    commands: list
    # manifest replayed once with ``ringcav rerun``; its outputs must come back
    # byte-identical
    rerun: str
    inputs: dict


def load_oracles(root: Path):
    """Import tests/oracles.py of the checkout by path, without touching sys.path."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("ringcav_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build(workload: str, seed: int, inputs_dir: Path, root: Path, size: str = "full") -> Plan:
    """Plan for one workload; writes its input files into inputs_dir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    inputs_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0])
    check_rng = np.random.default_rng([seed, 1])
    oracles = load_oracles(root)
    make = {"sweep": _sweep, "fit": _fit, "lock": _lock}[workload]
    commands, rerun, inputs = make(rng, check_rng, oracles, inputs_dir, SIZES[size])
    return Plan(commands, rerun, inputs)


def _num(v: float) -> str:
    return repr(float(v))


# ------------------------------------------------------------------ physics

def _rates():
    """Total field decay rate kappa (rad/s) and coupling ratio kappa_ex/kappa."""
    kappa = 2.0 * math.pi * (KAPPA_I_MHZ + KAPPA_EX_MHZ) * 1e6
    return kappa, KAPPA_EX_MHZ / (KAPPA_I_MHZ + KAPPA_EX_MHZ)


def _y2(oracles, power_w, n_sat):
    kappa, ratio = _rates()
    return oracles.photon_flux(power_w, LAMBDA_M) / (2.0 * kappa * n_sat) * 2.0 * ratio


def _branches(oracles, y2, nu_hz, cooperativity, atom_offset_hz=0.0,
              gamma_perp_mhz=GAMMA_PERP_MHZ):
    """Every steady-state branch at one probe detuning: intensities u (ascending)
    and their transmissions."""
    kappa, ratio = _rates()
    gamma_perp = 2.0 * math.pi * gamma_perp_mhz * 1e6
    dc = 2.0 * math.pi * nu_hz / kappa
    da = 2.0 * math.pi * (nu_hz - atom_offset_hz) / gamma_perp
    y = math.sqrt(y2)
    us = oracles.intensity_roots_bracketing(y2, dc, da, cooperativity)
    ts = []
    for u in us:
        f = 1.0 + 1j * dc + 4.0 * cooperativity * (1.0 - 1j * da) / (1.0 + da * da + 2.0 * u)
        ts.append(oracles.transmission_from_field(y / (1j * f), y, ratio))
    return us, ts


def _branch_transmissions(oracles, y2, nu_hz, cooperativity, atom_offset_hz=0.0,
                          gamma_perp_mhz=GAMMA_PERP_MHZ):
    """Transmission on every steady-state branch at one probe detuning, low to high u."""
    return _branches(oracles, y2, nu_hz, cooperativity, atom_offset_hz, gamma_perp_mhz)[1]


# ------------------------------------------------------------------ CSV access

def _read_rows(path: Path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), lines[1:]


def _parse(line: str):
    return [float(v) for v in line.split(",")]


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


# ------------------------------------------------------------------ sweep

def _spectrum_check(output, points, span_mhz, power_w, cooperativity, atom_offset_mhz,
                    branch, oracles, samples, window=None):
    """Rows against the oracle under the command's branch policy.

    Seed-chosen sample rows are checked anywhere on the grid, and every row of
    ``window`` (a ``_BranchWindow``) against its oracle branches.
    """
    y2 = _y2(oracles, power_w, N_SAT)
    grid = np.linspace(-span_mhz / 2.0, span_mhz / 2.0, points)
    inside = set(range(window.first, window.first + len(window.grid_mhz))) if window else set()

    def check(out_dir: Path) -> list:
        header, rows = _read_rows(out_dir / output)
        if header != ["detuning_mhz", "transmission"] or len(rows) != points:
            return [f"{output}: header {header} with {len(rows)} rows, want {points}"]
        problems = []
        for i in sorted(set(samples) | inside):
            nu_mhz, t = _parse(rows[i])
            if not _close(nu_mhz, grid[i], 1e-10, 1e-12):
                problems.append(f"{output}[{i}]: detuning {nu_mhz} != {grid[i]}")
                continue
            if i in inside:
                want = window.transmission[branch][i - window.first]
            else:
                ts = _branch_transmissions(oracles, y2, grid[i] * 1e6, cooperativity,
                                           atom_offset_mhz * 1e6)
                if branch != "highest" and len(ts) > 1:
                    problems.append(f"{output}[{i}]: several branches outside the checked window")
                want = ts[-1] if branch == "highest" else ts[0]
            if not _close(t, want, 0.0, 1e-7):
                problems.append(f"{output}[{i}]: T={t}, oracle {want} ({branch})")
        return problems

    return check


@dataclass
class _BranchWindow:
    """Oracle transmissions of every branch policy over grid rows first, first+1, ..."""

    first: int
    grid_mhz: np.ndarray
    transmission: dict  # branch name -> array over the window


def _branch_window(oracles, points, span_mhz, power_w, cooperativity, atom_offset_mhz,
                   coarse=401):
    """The rows of a spectrum's grid that hold every point with several branches.

    A coarse oracle scan finds the bistable points; the window runs from the
    coarse point before the first to the one after the last, both with a
    single root. Over the window the oracle gives every root of every row,
    and walks it up and down by the package's rule (start on the only root,
    then take the root nearest in intensity to the previous one), so the
    followed branches are known exactly, jumps included.
    """
    y2 = _y2(oracles, power_w, N_SAT)
    grid = np.linspace(-span_mhz / 2.0, span_mhz / 2.0, points)
    scale = (points - 1) / (coarse - 1)
    multi = [k for k in range(coarse)
             if len(_branches(oracles, y2, grid[round(k * scale)] * 1e6, cooperativity,
                              atom_offset_mhz * 1e6)[0]) > 1]
    if not multi or multi[0] == 0 or multi[-1] == coarse - 1:
        raise ValueError(f"no bistable window inside the grid at C={cooperativity}, "
                         f"P={power_w} W, atom offset {atom_offset_mhz} MHz")
    first, last = round((multi[0] - 1) * scale), round((multi[-1] + 1) * scale)
    rows = [_branches(oracles, y2, nu * 1e6, cooperativity, atom_offset_mhz * 1e6)
            for nu in grid[first:last + 1]]

    def follow(order):
        out, prev = np.empty(len(rows)), None
        for k in order:
            us, ts = rows[k]
            if prev is None:
                prev = us[0]
            j = int(np.argmin(np.abs(us - prev)))
            prev, out[k] = us[j], ts[j]
        return out

    transmission = {"lowest": np.array([ts[0] for _, ts in rows]),
                    "highest": np.array([ts[-1] for _, ts in rows]),
                    "follow-up": follow(range(len(rows))),
                    "follow-down": follow(range(len(rows) - 1, -1, -1))}
    if not np.any(np.abs(transmission["follow-up"] - transmission["follow-down"]) > 1e-6):
        raise ValueError(f"no hysteresis at C={cooperativity}, P={power_w} W, "
                         f"atom offset {atom_offset_mhz} MHz")
    return _BranchWindow(first, grid[first:last + 1], transmission)


def _saturation_check(output, points, pmin_w, pmax_w, cooperativity, n_sat, oracles, samples):
    powers = np.logspace(math.log10(pmin_w), math.log10(pmax_w), points)

    def check(out_dir: Path) -> list:
        header, rows = _read_rows(out_dir / output)
        want = ["power_w", "transmission_atoms", "transmission_empty"]
        if header != want or len(rows) != points:
            return [f"{output}: header {header} with {len(rows)} rows, want {points}"]
        problems = []
        for i in samples:
            p, t_atoms, t_empty = _parse(rows[i])
            if not _close(p, powers[i], 1e-10):
                problems.append(f"{output}[{i}]: power {p} != {powers[i]}")
                continue
            y2 = _y2(oracles, powers[i], n_sat)
            ref_atoms = _branch_transmissions(oracles, y2, 0.0, cooperativity)[0]
            ref_empty = _branch_transmissions(oracles, y2, 0.0, 0.0)[0]
            if not (_close(t_atoms, ref_atoms, 0.0, 1e-7) and _close(t_empty, ref_empty, 0.0, 1e-7)):
                problems.append(f"{output}[{i}]: ({t_atoms}, {t_empty}) vs oracle "
                                f"({ref_atoms}, {ref_empty})")
        return problems

    return check


def _samples(check_rng, points):
    return sorted(int(i) for i in check_rng.choice(points, size=min(SAMPLES_PER_OUTPUT, points),
                                                   replace=False))


def _sweep(rng, check_rng, oracles, inputs_dir, size):
    n = size["spectrum_points"]
    m = size["saturation_points"]
    c_strong = rng.uniform(4.6, 5.4)
    p_strong = rng.uniform(9e-9, 11e-9)
    p_weak = rng.uniform(25e-12, 35e-12)
    offset = rng.uniform(1.5, 3.5)
    # The atom offset makes the strong spectra asymmetric, so sweeping up and
    # down jump at different folds; at offset 0 both follow the same branch.
    # At C 4.6-5.4 and 9-11 nW the hysteresis is there from about 5.5 MHz.
    strong_offset = rng.uniform(5.8, 6.2)
    # the branches differ only where there are several roots: every row there
    # is checked
    window = _branch_window(oracles, n, 40.0, p_strong, c_strong, strong_offset)
    commands = []
    for branch in ("lowest", "highest", "follow-up", "follow-down"):
        out = f"strong_{branch}.csv"
        commands.append(Command(
            f"spectrum-{branch}",
            ["spectrum", "--cooperativity", _num(c_strong), "--power-w", _num(p_strong),
             "--atom-offset-mhz", _num(strong_offset), "--points", str(n),
             "--branch", branch, "--output", out],
            [out],
            _spectrum_check(out, n, 40.0, p_strong, c_strong, strong_offset, branch, oracles,
                            _samples(check_rng, n), window),
        ))
    commands.append(Command(
        "spectrum-weak-offset",
        ["spectrum", "--power-w", _num(p_weak), "--atom-offset-mhz", _num(offset),
         "--points", str(n), "--output", "weak_offset.csv"],
        ["weak_offset.csv"],
        _spectrum_check("weak_offset.csv", n, 40.0, p_weak, COOPERATIVITY, offset, "lowest",
                        oracles, _samples(check_rng, n)),
    ))
    # n_sat stays nominal: for about 1 in 20 other values the empty-cavity
    # column of this grid fails root certification (exit 3; its cubic has a
    # double root at u = -1/2, ROADMAP item B's solver defect), and a benchmark
    # run must not fail.
    commands.append(Command(
        "saturation-wide",
        ["saturation", "--pmin-w", "1e-12", "--pmax-w", "1e-05", "--points", str(m),
         "--output", "saturation_wide.csv"],
        ["saturation_wide.csv"],
        _saturation_check("saturation_wide.csv", m, 1e-12, 1e-5, COOPERATIVITY, N_SAT, oracles,
                          _samples(check_rng, m)),
    ))
    # the README's default invocations, unchanged by the seed
    commands.append(Command(
        "spectrum-default", ["spectrum"], ["spectrum.csv"],
        _spectrum_check("spectrum.csv", 801, 40.0, DEFAULT_POWER_W, COOPERATIVITY, 0.0,
                        "lowest", oracles, _samples(check_rng, 801)),
    ))
    commands.append(Command(
        "saturation-default", ["saturation"], ["saturation.csv"],
        _saturation_check("saturation.csv", 41, 1e-12, 1e-8, COOPERATIVITY, N_SAT, oracles,
                          _samples(check_rng, 41)),
    ))
    inputs = {"cooperativity": c_strong, "power_w": p_strong, "weak_power_w": p_weak,
              "atom_offset_mhz": offset, "strong_atom_offset_mhz": strong_offset,
              "checked_rows": [window.first, window.first + len(window.grid_mhz) - 1]}
    return commands, "weak_offset.csv.manifest.json", inputs


# ------------------------------------------------------------------ fit

def _write_dataset(path: Path, x, yobs, sigma):
    with open(path, "w") as fh:
        fh.write("x,yobs,sigma\n")
        for row in zip(x, yobs, sigma):
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def _fit_check(output, truth, n_sigma=6.0):
    def check(out_dir: Path) -> list:
        payload = json.loads((out_dir / output).read_text())
        if not payload.get("converged"):
            return [f"{output}: fit did not converge"]
        problems = []
        for name, true_value in truth.items():
            est = payload["estimates"][name]
            sigma = payload["covariance_proxy"][name]
            tol = n_sigma * sigma + 1e-9 * abs(true_value)
            if not (math.isfinite(est) and abs(est - true_value) <= tol):
                problems.append(f"{output}: {name}={est} vs truth {true_value} (tol {tol:.3g})")
        return problems

    return check


def _spectrum_truth_curve(oracles, x_mhz, power_w, cooperativity, gamma_perp_mhz, n_sat,
                          baseline=0.0):
    """Lowest-branch transmission from the oracle root finder, detunings locked."""
    y2 = _y2(oracles, power_w, n_sat)
    return np.array([_branch_transmissions(oracles, y2, nu * 1e6, cooperativity,
                                           gamma_perp_mhz=gamma_perp_mhz)[0]
                     for nu in x_mhz]) + baseline


def _fit(rng, check_rng, oracles, inputs_dir, size):
    noise = 0.005
    commands = []
    inputs = {}

    def add_fit(name, spec, x, y, truth, noise_rng=rng):
        data = inputs_dir / f"{name}.csv"
        fitspec = inputs_dir / f"{name}.fitspec.json"
        yobs = y + noise_rng.normal(0.0, noise, len(x))
        _write_dataset(data, x, yobs, np.full(len(x), noise))
        fitspec.write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n")
        out = f"fit_{name}.json"
        commands.append(Command(
            f"fit-{name}",
            ["fit", "--data", f"../inputs/{data.name}", "--fitspec", f"../inputs/{fitspec.name}",
             "--output", out],
            [out, f"fit_{name}_residuals.csv"],
            _fit_check(out, truth),
        ))
        inputs[name] = truth

    c2, g2 = COOPERATIVITY * rng.uniform(0.9, 1.1), GAMMA_PERP_MHZ * rng.uniform(0.95, 1.05)
    x = np.linspace(-20.0, 20.0, size["as2_points"])
    add_fit("as2", {"model": "atomic_spectrum", "free": ["cooperativity", "gamma_perp_mhz"]},
            x, _spectrum_truth_curve(oracles, x, DEFAULT_POWER_W, c2, g2, N_SAT),
            {"cooperativity": c2, "gamma_perp_mhz": g2})

    # The 4-parameter fit always gets the same data set: for about 1 in 12
    # seed-drawn data sets at 2 nW the optimiser steps onto a model evaluation
    # that fails root certification (exit 3, ROADMAP item B's solver defect),
    # and a benchmark run must not fail.
    fixed = np.random.default_rng([0, 4])
    c4, g4 = COOPERATIVITY * fixed.uniform(0.9, 1.1), GAMMA_PERP_MHZ * fixed.uniform(0.95, 1.05)
    n4, b4 = N_SAT * fixed.uniform(0.9, 1.1), fixed.uniform(-0.01, 0.01)
    x = np.linspace(-20.0, 20.0, size["as4_points"])
    add_fit("as4", {"model": "atomic_spectrum",
                    "free": ["cooperativity", "gamma_perp_mhz", "n_sat", "baseline"],
                    "fixed": {"input_power_w": 2e-9}},
            x, _spectrum_truth_curve(oracles, x, 2e-9, c4, g4, n4, b4),
            {"cooperativity": c4, "gamma_perp_mhz": g4, "n_sat": n4, "baseline": b4}, fixed)

    cs, ns = COOPERATIVITY * rng.uniform(0.9, 1.1), N_SAT * rng.uniform(0.9, 1.1)
    powers = np.logspace(-12.5, -7.5, size["sat2_points"])
    curve = np.array([_branch_transmissions(oracles, _y2(oracles, p, ns), 0.0, cs)[0]
                      for p in powers])
    add_fit("sat2", {"model": "saturation_curve", "free": ["cooperativity", "n_sat"]},
            powers, curve, {"cooperativity": cs, "n_sat": ns})

    ring_truth = {"finesse": rng.uniform(31.0, 37.0), "fsr_mhz": rng.uniform(146.0, 150.0),
                  "dip_transmission": rng.uniform(0.28, 0.36), "nu0_mhz": rng.uniform(-3.0, 3.0)}
    ring_seed = int(rng.integers(0, 2**31))
    commands.append(Command(
        "empty-cavity",
        ["empty-cavity", "--finesse", _num(ring_truth["finesse"]),
         "--fsr-mhz", _num(ring_truth["fsr_mhz"]),
         "--dip-transmission", _num(ring_truth["dip_transmission"]),
         "--nu0-mhz", _num(ring_truth["nu0_mhz"]), "--points", str(size["ring_points"]),
         "--noise", "0.01", "--seed", str(ring_seed), "--output", "empty_cavity.json"],
        ["empty_cavity_data.csv", "empty_cavity.json"],
        _empty_cavity_check(oracles, ring_truth),
    ))
    inputs["empty-cavity"] = dict(ring_truth, seed=ring_seed)
    return commands, "fit_sat2.json.manifest.json", inputs


def _empty_cavity_check(oracles, truth):
    """Fit estimates near the truth, and the synthesized scan follows the oracle ring."""
    fit_check = _fit_check("empty_cavity.json", truth)
    # invert finesse and dip depth to (t, a) as in the package docs: m = ta from
    # the finesse, |t - a| = sqrt(T_dip) (1 - m), undercoupled t > a
    phi = math.pi / truth["finesse"]
    m = ((-phi + math.sqrt(phi * phi + 4.0)) / 2.0) ** 2
    diff = math.sqrt(truth["dip_transmission"]) * (1.0 - m)
    s = math.sqrt(diff * diff + 4.0 * m)
    t, a = (s + diff) / 2.0, (s - diff) / 2.0

    def check(out_dir: Path) -> list:
        problems = fit_check(out_dir)
        header, rows = _read_rows(out_dir / "empty_cavity_data.csv")
        data = np.array([_parse(r) for r in rows])
        ref = oracles.ring_transmission_series(data[:, 0] * 1e6, t, a, truth["fsr_mhz"] * 1e6,
                                               truth["nu0_mhz"] * 1e6)
        # the data carry 0.01 noise; a wrong lineshape shows as a large rms
        rms = float(np.sqrt(np.mean((data[:, 1] - ref) ** 2)))
        if header != ["detuning_mhz", "transmission"] or not rms < 0.015:
            problems.append(f"empty_cavity_data.csv: rms {rms:.4f} from the oracle ring")
        return problems

    return check


# ------------------------------------------------------------------ lock

def _count_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


def _lock(rng, check_rng, oracles, inputs_dir, size):
    kappa, _ = _rates()
    linewidth_hz = kappa / math.pi
    duration = size["step_duration_s"]
    step_lw = rng.uniform(0.3, 0.5)
    step_at = duration * rng.uniform(0.2, 0.5)
    rate = linewidth_hz / (size["scan_rate_tau_per_linewidth"] * rng.uniform(0.95, 1.05) * TAU_TH_S)
    span_mhz = size["scan_span_linewidths"] * linewidth_hz / 1e6
    step_rows = math.ceil(duration / DT_S) + 1

    def step_check(out_dir: Path) -> list:
        metrics = json.loads((out_dir / "step_metrics.json").read_text())
        problems = []
        rows = _count_rows(out_dir / "step.csv")
        if rows != step_rows:
            problems.append(f"step.csv: {rows} rows, want {step_rows}")
        # documented: the lock re-acquires a sub-linewidth step within 10 tau_th
        if not metrics["relock_time_s"] < 10.0 * TAU_TH_S:
            problems.append(f"step: relock took {metrics['relock_time_s']} s")
        return problems

    def scan_check(out_dir: Path) -> list:
        metrics = json.loads((out_dir / "scan_metrics.json").read_text())
        problems = []
        if _count_rows(out_dir / "scan.csv") != _count_rows(out_dir / "scan_up.csv"):
            problems.append("scan: up and down records differ in length")
        # documented: thermal drag makes the downward scan dwell longer
        if not metrics["dwell_ratio"] > 1.0:
            problems.append(f"scan: dwell ratio {metrics['dwell_ratio']} <= 1")
        return problems

    def hold_check(out_dir: Path) -> list:
        metrics = json.loads((out_dir / "lock_metrics.json").read_text())
        if not metrics["rms_resonance_error_hz"] < 0.05 * linewidth_hz:
            return [f"hold: rms resonance error {metrics['rms_resonance_error_hz']} Hz"]
        return []

    commands = [
        Command("lock-step",
                ["lock", "--mode", "step", "--duration-s", _num(duration),
                 "--step-linewidths", _num(step_lw), "--step-at-s", _num(step_at),
                 "--output", "step.csv"],
                ["step.csv", "step_metrics.json"], step_check),
        Command("lock-scan-both",
                ["lock", "--mode", "scan-both", "--scan-rate-hz-per-s", _num(rate),
                 "--span-mhz", _num(span_mhz), "--output", "scan.csv"],
                ["scan.csv", "scan_up.csv", "scan_metrics.json"], scan_check),
        Command("lock-hold", ["lock"], ["lock.csv", "lock_metrics.json"], hold_check),
    ]
    inputs = {"step_linewidths": step_lw, "step_at_s": step_at, "scan_rate_hz_per_s": rate,
              "span_mhz": span_mhz}
    return commands, "lock.csv.manifest.json", inputs
