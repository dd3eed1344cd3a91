"""Command-line front end.

Every command resolves its inputs to a plain dict, runs a pure function of
that dict, and writes each output next to a manifest recording the resolved
dict. ``rerun MANIFEST`` replays the stored dict through the same function,
so outputs regenerate bit-identically (only the manifest timestamp moves).

The resolved dict holds each option under its click parameter name, except
those a command folds into one entry: the parameter document, with the
options named after its keys, and its source (``doc`` and ``inputs``), the
fit specification read from ``--fitspec`` (``fitspec``) and
``empty-cavity``'s synthesis truth (``truth``). ``rerun`` refuses any
other key. So renaming a click parameter changes the manifest format, and
``rerun`` of a manifest written before the rename fails.

Exit codes: 2 invalid input or configuration, 3 solver failure, 4 fit did
not converge, 5 degenerate fit (suppress with --allow-degenerate), 6 lock
lost. Each is the ``exit_code`` of the error's class (see errors.py); one
group handler maps them.
"""
from __future__ import annotations

import gc
import math
import shutil
from dataclasses import fields, replace
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__, fitting, io, ring
from . import steady_state as ss
from . import thermal
from .errors import DegenerateFit, RingcavError
from .params import NOMINAL, SECTION_KEYS, THERMAL_DEFAULTS, merge_document, params_from_dict
from .peaks import measure_splitting
from .units import rad_to_mhz

_BRANCHES = {
    "lowest": ss.LOWEST,
    "highest": ss.HIGHEST,
    "follow-up": ss.BranchPolicy(mode="follow_sweep", direction="up"),
    "follow-down": ss.BranchPolicy(mode="follow_sweep", direction="down"),
}


def _execute(command: str, resolved: dict):
    for path in RUNNERS[command](resolved):
        click.echo(f"wrote {path}")


class _Manifest(dict):
    """A JSON object read from a manifest; a key it lacks makes the manifest invalid."""

    def __missing__(self, key):
        raise ValueError(f"manifest missing key {key!r}")


def _manifest_object(value, where: str = "manifest") -> _Manifest:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must hold a JSON object, got {value!r}")
    return _Manifest(value)


def _check_paths(value, where: str) -> None:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ValueError(f"manifest {where!r} must be a list of paths, got {value!r}")


def _read_manifest(path) -> _Manifest:
    manifest = _manifest_object(io.read_json(path))
    _check_paths(manifest.get("outputs", []), "outputs")
    return manifest


def _json_fits(ptype, value) -> bool:
    """Whether a JSON value is one an option of click type ptype records."""
    if isinstance(ptype, click.Choice):
        return value in ptype.choices
    if isinstance(ptype, click.types.BoolParamType):
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if isinstance(ptype, click.types.IntParamType):
        return isinstance(value, int)
    if isinstance(ptype, click.types.FloatParamType):
        return isinstance(value, (int, float))
    return isinstance(value, str)  # click.Path


def _recorded_keys(command: str) -> set:
    """The resolved keys a command records (see the module docstring)."""
    keys = set()
    for param in main.commands[command].params:
        if param.name == "params_path":
            keys |= {"doc", "inputs"}
        elif param.name == "fitspec_path":
            keys.add("fitspec")
        elif param.name in _EMPTY_FREE:
            keys.add("truth")
        elif param.name not in _DOC_KEYS:
            keys.add(param.name)
    return keys


def _check_resolved(command: str, resolved: dict) -> None:
    """Reject keys the command does not record, and recorded option values of
    the wrong JSON type, before a runner reads them.
    """
    unknown = set(resolved) - _recorded_keys(command)
    if unknown:
        raise ValueError(f"manifest 'resolved' holds keys {command} does not record: "
                         f"{sorted(unknown)}")
    _check_paths(resolved.get("inputs", []), "inputs")
    if command == "empty-cavity" and resolved.get("data") is None:
        truth = _manifest_object(resolved["truth"], "manifest 'truth'")
        if set(truth) != set(_EMPTY_FREE) or not all(_json_fits(click.FLOAT, v) for v in truth.values()):
            raise ValueError(f"manifest 'truth' must map parameters to numbers, exactly "
                             f"{list(_EMPTY_FREE)}, got {truth!r}")
    for param in main.commands[command].params:
        if param.name not in resolved:
            continue
        value = resolved[param.name]
        if value is None and param.default is None and not param.required:
            continue
        values = value if param.nargs == -1 else [value]
        if not isinstance(values, list) or not all(_json_fits(param.type, v) for v in values):
            raise ValueError(f"manifest value {param.name!r} does not fit option "
                             f"{param.opts[0]} ({param.type.name}): {value!r}")


def _check_finite(resolved: dict) -> None:
    """Refuse a NaN or infinite float in a resolved dict, nested dicts included.

    No command reads one as a setting, and the manifest, which records the
    resolved dict as JSON, could not hold it.
    """
    for key, value in resolved.items():
        if isinstance(value, dict):
            _check_finite(value)
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")


#: most points one grid may have: a 10**6-point spectrum takes about 2 s and
#: 270 MB and writes 30 MB of CSV (2-CPU x86-64); a larger grid is refused
#: before anything is allocated
MAX_POINTS = 10 ** 6


def _check_points(points: int, fewest: int = 1) -> None:
    """Refuse a grid of fewer than fewest points, or of more than MAX_POINTS, before it exists."""
    if points < fewest:
        raise ValueError(f"points must be >= {fewest}, got {points!r}")
    if points > MAX_POINTS:
        raise ValueError(f"{points} points is more than MAX_POINTS={MAX_POINTS}")


def _finish(command: str, resolved: dict, inputs: list, outputs: list) -> list:
    """Write one manifest per output; returns outputs + manifest paths."""
    manifest = io.build_manifest(command, resolved, [str(p) for p in inputs],
                                 [str(p) for p in outputs])
    written = list(outputs)
    for out in outputs:
        mpath = io.manifest_path(out)
        io.write_json(mpath, manifest)
        written.append(mpath)
    return [str(p) for p in written]


_DOC_KEYS = set().union(*SECTION_KEYS.values())


def _load_doc(params_path, options: dict) -> dict:
    """The resolved values of a command that reads a parameter document.

    An option named after a document key overrides the file's value when
    given (not None), in the section SECTION_KEYS puts it in; the merged
    document is ``doc``, its file ``inputs``, and the other options follow.
    """
    overrides = {section: {k: v for k, v in options.items() if k in keys and v is not None}
                 for section, keys in SECTION_KEYS.items()}
    rest = {k: v for k, v in options.items() if k not in _DOC_KEYS}
    doc = io.read_json(params_path) if params_path else {}
    if not isinstance(doc, dict):
        raise ValueError("parameter file must hold a JSON object")
    doc = merge_document(merge_document(NOMINAL, doc), overrides)
    return {"doc": doc, "inputs": [params_path] if params_path else [], **rest}


class _Main(click.Group):
    """Reports a package, ValueError or OSError failure as one ``error:`` line.

    The exit status is the error class's ``exit_code`` (2 for the
    built-ins); any other exception is a bug and propagates.

    ``main`` first moves every object alive into the collector's permanent
    generation (``gc.freeze``), which the collections run at interpreter
    exit do not traverse: a command process then takes 7-10 ms from the
    command's return to its exit instead of 28-38 ms (2-CPU x86-64), with
    no ``atexit`` handler or buffer flush skipped. In a process that stays
    alive, such as a test session driving the group through click's
    ``CliRunner``, each call also pins the garbage cycles left by earlier
    ones: the 496-test suite peaked at 200 MB against 186 MB without the
    freeze, in the same 26 s. That cost is accepted; there is no unfreeze
    path.
    """

    def main(self, *args, **kwargs):
        gc.freeze()
        return super().main(*args, **kwargs)

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (RingcavError, ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(getattr(exc, "exit_code", 2))


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main():
    """Fiber ring cavity simulator and estimation tools."""


# ---------------------------------------------------------------- spectrum

def _run_spectrum(r: dict) -> list:
    _check_finite(r)
    cavity, ensemble, drive = params_from_dict(r["doc"])
    if r["noise"] < 0:
        raise ValueError(f"noise must be >= 0, got {r['noise']!r}")
    # a spectrum's detuning grid must be strictly monotone, so of 2 points or more
    _check_points(r["points"], fewest=2)
    half = r["span_mhz"] / 2.0
    grid_mhz = np.linspace(r["center_mhz"] - half, r["center_mhz"] + half, r["points"])
    t = ss.spectrum(
        grid_mhz * 1e6,
        cavity,
        ensemble,
        drive,
        atom_offset_hz=r["atom_offset_mhz"] * 1e6,
        policy=_BRANCHES[r["branch"]],
    )
    if r["noise"] > 0:
        rng = np.random.default_rng(r["seed"])
        t = t + rng.normal(0.0, r["noise"], t.shape)
    out = Path(r["output"])
    io.write_spectrum_csv(out, grid_mhz, t)
    return _finish("spectrum", r, r["inputs"], [out])


@main.command()
@click.option("--params", "params_path", type=click.Path(), default=None,
              help="JSON parameter document; missing keys fall back to the reference set.")
@click.option("--cooperativity", type=float, default=None)
@click.option("--gamma-perp-mhz", type=float, default=None)
@click.option("--n-sat", type=float, default=None)
@click.option("--power-w", "input_power_w", type=float, default=None, help="Probe input power (W).")
@click.option("--y", type=float, default=None, help="Dimensionless drive amplitude.")
@click.option("--span-mhz", type=float, default=40.0, show_default=True)
@click.option("--center-mhz", type=float, default=0.0, show_default=True)
@click.option("--points", type=int, default=801, show_default=True)
@click.option("--atom-offset-mhz", type=float, default=0.0, show_default=True,
              help="Atomic resonance offset from the cavity resonance.")
@click.option("--branch", type=click.Choice(sorted(_BRANCHES)), default="lowest",
              show_default=True)
@click.option("--noise", type=float, default=0.0, show_default=True,
              help="Additive Gaussian noise sigma on the transmission.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=click.Path(), default="spectrum.csv", show_default=True)
def spectrum(params_path, **options):
    """Simulate a probe transmission spectrum and write it as CSV."""
    _execute("spectrum", _load_doc(params_path, options))


# -------------------------------------------------------------- saturation

def _run_saturation(r: dict) -> list:
    _check_finite(r)
    cavity, ensemble, _ = params_from_dict(r["doc"])
    if not (0 < r["pmin_w"] < r["pmax_w"]):
        raise ValueError(f"need 0 < pmin ({r['pmin_w']!r}) < pmax ({r['pmax_w']!r})")
    _check_points(r["points"])
    powers = np.logspace(np.log10(r["pmin_w"]), np.log10(r["pmax_w"]), r["points"])
    t_atoms = fitting.saturation_curve(powers, cavity, ensemble)
    empty = replace(ensemble, cooperativity=0.0)
    t_empty = fitting.saturation_curve(powers, cavity, empty)
    out = Path(r["output"])
    io.write_saturation_csv(out, powers, t_atoms, t_empty)
    return _finish("saturation", r, r["inputs"], [out])


@main.command()
@click.option("--params", "params_path", type=click.Path(), default=None)
@click.option("--cooperativity", type=float, default=None)
@click.option("--gamma-perp-mhz", type=float, default=None)
@click.option("--n-sat", type=float, default=None)
@click.option("--pmin-w", type=float, default=1e-12, show_default=True)
@click.option("--pmax-w", type=float, default=1e-8, show_default=True)
@click.option("--points", type=int, default=41, show_default=True)
@click.option("--output", type=click.Path(), default="saturation.csv", show_default=True)
def saturation(params_path, **options):
    """Simulate on-resonance transmission vs probe power (log-spaced grid)."""
    _execute("saturation", _load_doc(params_path, options))


# --------------------------------------------------------------------- fit

def _unbounded_as_null(doc):
    """The fitspec document with -inf below and +inf above a bounds pair as null.

    JSON has no infinities, and FitSpec reads null as the unbounded side;
    anything malformed is left for FitSpec to refuse.
    """
    bounds = doc.get("bounds") if isinstance(doc, dict) else None
    if not isinstance(bounds, dict):
        return doc
    pairs = {}
    for name, pair in bounds.items():
        if isinstance(pair, list) and len(pair) == 2:
            lo, hi = pair
            pair = [None if lo == -math.inf else lo, None if hi == math.inf else hi]
        pairs[name] = pair
    return {**doc, "bounds": pairs}


def _fitspec_from_doc(doc: dict) -> fitting.FitSpec:
    if not isinstance(doc, dict):
        raise ValueError(f"fitspec must hold a JSON object, got {doc!r}")
    unknown = set(doc) - {f.name for f in fields(fitting.FitSpec)}
    if unknown:
        raise ValueError(f"unknown fitspec keys: {sorted(unknown)}")
    if "model" not in doc or "free" not in doc:
        raise ValueError("fitspec must name 'model' and 'free'")
    return fitting.FitSpec(**doc)


def _fit_payload(result: fitting.FitResult, degenerate: list) -> dict:
    """The fit's JSON output; a flat direction's infinite sigma is written as null."""
    return {
        "estimates": result.estimates,
        "residual_rms": result.residual_rms,
        "covariance_proxy": {name: sigma if math.isfinite(sigma) else None
                             for name, sigma in result.covariance_proxy.items()},
        "n_eval": result.n_eval,
        "n_starts": result.n_starts,
        "converged": result.converged,
        "degenerate_parameters": degenerate,
    }


def _load_dataset(path) -> fitting.Dataset:
    x, yobs, sigma = io.read_dataset_csv(path)
    return fitting.Dataset(x, yobs, sigma)


def _run_fit(r: dict) -> list:
    _check_finite(r)
    r["fitspec"] = _unbounded_as_null(r["fitspec"])  # as the manifest records it
    data = _load_dataset(r["data"])
    spec = _fitspec_from_doc(r["fitspec"])
    degenerate = []
    try:
        result = fitting.fit(data, spec)
    except DegenerateFit as exc:
        if not r["allow_degenerate"]:
            raise
        result = exc.result
        degenerate = list(exc.parameters)
        click.echo(f"warning: {exc}", err=True)
    out = Path(r["output"])
    io.write_json(out, _fit_payload(result, degenerate))
    res_path = out.with_name(out.stem + "_residuals.csv")
    ymodel = fitting.evaluate_model(spec, result.estimates, data.x)
    io.write_residuals_csv(res_path, data.x, data.yobs, ymodel)
    return _finish("fit", r, [r["data"]], [out, res_path])


@main.command()
@click.option("--data", type=click.Path(), required=True,
              help="CSV with x in the first column, observation in the second.")
@click.option("--fitspec", "fitspec_path", type=click.Path(), required=True,
              help="JSON with model, free, and optional fixed/bounds/init.")
@click.option("--allow-degenerate", is_flag=True, default=False,
              help="Report an unconstrained fit instead of failing with code 5.")
@click.option("--output", type=click.Path(), default="fit.json", show_default=True)
def fit(fitspec_path, **options):
    """Fit a registered model to CSV data; writes estimates and residuals."""
    _execute("fit", {"fitspec": io.read_json(fitspec_path), **options})


# ------------------------------------------------------------ empty-cavity

_EMPTY_FREE = ("finesse", "fsr_mhz", "dip_transmission", "nu0_mhz")

#: most FSRs of its truth a synthesized empty-cavity scan may span: the
#: default 340 MHz covers 2.3 at the reference 148 MHz, and at 1e300 MHz the
#: fit's jacobian column norms and squared singular values overflow
MAX_SYNTH_FSRS = 1000


def _run_empty_cavity(r: dict) -> list:
    _check_finite(r)
    if r["noise"] < 0:
        raise ValueError(f"noise must be >= 0, got {r['noise']!r}")
    spec = fitting.FitSpec(model="empty_ring", free=_EMPTY_FREE)
    if r["data"] is not None:
        data = _load_dataset(r["data"])
        inputs = [r["data"]]
    else:
        _check_points(r["points"])
        # a truth outside the model's bounds, such as a vanishing FSR, would
        # overflow the ring's phase; it could not be fit back either
        for name, value in r["truth"].items():
            lo, hi = fitting.MODELS["empty_ring"].bounds[name]
            if not (lo <= value <= hi):
                raise ValueError(f"{name} must be in [{lo!r}, {hi!r}] to synthesize, "
                                 f"got {value!r}")
        fsrs = abs(r["span_mhz"]) / r["truth"]["fsr_mhz"]
        if not (fsrs <= MAX_SYNTH_FSRS):
            raise ValueError(f"span_mhz {r['span_mhz']!r} covers {fsrs:.3g} FSRs of "
                             f"fsr_mhz={r['truth']['fsr_mhz']!r}, more than "
                             f"MAX_SYNTH_FSRS={MAX_SYNTH_FSRS}")
        half = r["span_mhz"] / 2.0
        grid = np.linspace(-half, half, r["points"])
        data = fitting.generate_synthetic(spec, grid, r["truth"],
                                          noise_sigma=r["noise"], seed=r["seed"])
        inputs = []
    # nothing is written until the fit has succeeded, so a refused or failed
    # fit leaves no synthesized data behind without its manifest
    result = fitting.fit(data, spec)
    est = result.estimates
    model = ring.ring_from_lineshape(
        finesse=est["finesse"],
        fsr=est["fsr_mhz"] * 1e6,
        dip_transmission=est["dip_transmission"],
    )
    kappa_i, kappa_ex = ring.rates_from_ring(model)
    payload = _fit_payload(result, [])
    payload["derived"] = {
        "finesse": est["finesse"],
        "fsr_mhz": est["fsr_mhz"],
        # linewidth defined through the finesse, so fwhm * finesse == fsr exactly
        "fwhm_mhz": est["fsr_mhz"] / est["finesse"],
        "kappa_i_mhz": rad_to_mhz(kappa_i),
        "kappa_ex_mhz": rad_to_mhz(kappa_ex),
        "t_coupler": model.t_coupler,
        "a_roundtrip": model.a_roundtrip,
    }
    out = Path(r["output"])
    outputs = []
    if r["data"] is None:
        data_path = out.with_name(out.stem + "_data.csv")
        io.write_spectrum_csv(data_path, data.x, data.yobs)
        outputs.append(data_path)
    io.write_json(out, payload)
    outputs.append(out)
    return _finish("empty-cavity", r, inputs, outputs)


@main.command("empty-cavity")
@click.option("--data", type=click.Path(), default=None,
              help="Measured bare-cavity spectrum CSV; omit to synthesize one.")
@click.option("--finesse", type=float, default=None,
              help="Synthesis truth; defaults derive from the reference rates.")
@click.option("--fsr-mhz", type=float, default=None)
@click.option("--dip-transmission", type=float, default=None)
@click.option("--nu0-mhz", type=float, default=0.0, show_default=True)
@click.option("--span-mhz", type=float, default=340.0, show_default=True,
              help="Synthesized scan width; cover two dips to pin the FSR.")
@click.option("--points", type=int, default=3001, show_default=True)
@click.option("--noise", type=float, default=0.01, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=click.Path(), default="empty_cavity.json",
              show_default=True)
def empty_cavity(**options):
    """Fit the bare ring lineshape and derive decay rates from it."""
    # a truth option counts as given when it was set, even to its default
    source = click.get_current_context().get_parameter_source
    popped = {name: options.pop(name) for name in _EMPTY_FREE}
    given = {name: value for name, value in popped.items()
             if source(name) is not ParameterSource.DEFAULT}
    truth = None
    if options["data"] is None:
        cavity, _, _ = params_from_dict({})
        model = ring.ring_from_rates(cavity)
        truth = {"finesse": model.finesse, "fsr_mhz": cavity.fsr / 1e6,
                 "dip_transmission": model.dip_transmission, "nu0_mhz": 0.0, **given}
    elif given:
        raise ValueError(f"synthesis truth options {sorted(given)} conflict with --data")
    _execute("empty-cavity", {"truth": truth, **options})


# -------------------------------------------------------------------- lock

def _run_lock(r: dict) -> list:
    cavity, _, _ = params_from_dict(r["doc"])
    therm = thermal.ThermalParams(
        tau_th=r["tau_th_s"],
        shift_per_watt=r["shift_per_watt"],
        absorption_fraction=r["absorption_fraction"],
    )
    base = thermal.default_lock_config(cavity, therm)
    config = replace(
        base,
        setpoint=r["setpoint"] if r["setpoint"] is not None else base.setpoint,
        gain_i=r["gain_i"],
        heater_power=r["heater_power_w"],
        dt=r["dt_s"] if r["dt_s"] is not None else base.dt,
    )
    mode = r["mode"]
    if mode not in ("hold", "step"):
        span = r["span_mhz"] * 1e6 if r["span_mhz"] is not None else None
        rate, span = thermal.scan_window(therm, cavity, r["scan_rate_hz_per_s"], span)
    # the thermal and lock settings and a scan's window are checked above,
    # with the library's own messages; an option the mode does not read would
    # otherwise reach only the manifest
    _check_finite(r)
    out = Path(r["output"])
    metrics_path = out.with_name(out.stem + "_metrics.json")
    outputs = [out, metrics_path]

    if mode in ("hold", "step"):
        step = (r["step_at_s"], r["step_linewidths"] * cavity.fwhm_hz) if mode == "step" else None
        series = thermal.lock_loop(r["duration_s"], therm, config, cavity, step=step)
        io.write_timeseries_csv(out, series)
        metrics = dict(series.metrics)
    elif mode == "scan-both":
        down, up, ratio = thermal.scan_pair(therm, config, cavity, rate, span)
        io.write_timeseries_csv(out, down)
        up_path = out.with_name(out.stem + "_up.csv")
        io.write_timeseries_csv(up_path, up)
        outputs = [out, up_path, metrics_path]
        metrics = {
            "dwell_down_s": down.metrics["dwell_s"],
            "dwell_up_s": up.metrics["dwell_s"],
            "dwell_ratio": ratio,
            "max_pull_hz": down.metrics["max_pull_hz"],
        }
    else:
        direction = "down" if mode == "scan-down" else "up"
        series = thermal.scan_experiment(direction, rate, span, therm, config, cavity)
        io.write_timeseries_csv(out, series)
        metrics = dict(series.metrics)
    io.write_json(metrics_path, metrics)
    return _finish("lock", r, r["inputs"], outputs)


def _thermal_option(key: str, **kwargs):
    """The lock option named after a THERMAL_DEFAULTS key, with that default."""
    return click.option("--" + key.replace("_", "-"), type=float,
                        default=THERMAL_DEFAULTS[key], show_default=True, **kwargs)


@main.command()
@click.option("--mode", type=click.Choice(["hold", "step", "scan-up", "scan-down",
                                           "scan-both"]),
              default="hold", show_default=True)
@click.option("--params", "params_path", type=click.Path(), default=None,
              help="JSON parameter document for the cavity section.")
@click.option("--duration-s", type=float, default=0.5, show_default=True)
@_thermal_option("tau_th_s")
@_thermal_option("shift_per_watt",
                 help="Resonance shift per absorbed watt (Hz/W, negative = red).")
@_thermal_option("absorption_fraction")
@_thermal_option("heater_power_w")
@_thermal_option("gain_i", help="Integral gain (Hz of correction per unit error per second).")
@click.option("--setpoint", type=float, default=None,
              help="Probe transmission setpoint; default mid-fringe.")
@click.option("--dt-s", type=float, default=None,
              help="Integrator step; default tau_th/40.")
@click.option("--step-linewidths", type=float, default=0.5, show_default=True)
@click.option("--step-at-s", type=float, default=0.1, show_default=True)
@click.option("--scan-rate-hz-per-s", type=float, default=None,
              help="Heater scan rate; default one linewidth per 10 tau_th.")
@click.option("--span-mhz", type=float, default=None,
              help="Scan span; default 60 linewidths.")
@click.option("--output", type=click.Path(), default="lock.csv", show_default=True)
def lock(params_path, **options):
    """Simulate thermal pulling: closed-loop holds, steps, or open scans."""
    _execute("lock", _load_doc(params_path, options))


# ------------------------------------------------------------------ report

def _report_rows(manifest: dict) -> list:
    rows = []
    resolved = _manifest_object(manifest.get("resolved", {}), "manifest 'resolved'")
    doc = resolved.get("doc")
    if doc:
        cavity, ensemble, _ = params_from_dict(doc)
        g_eff = ss.g_eff_from_nsat(ensemble.n_sat, ensemble.gamma_perp,
                                   ensemble.gamma_par)
        rows += [
            ("finesse", f"{cavity.finesse:.4f}"),
            ("fwhm_mhz", f"{cavity.fwhm_hz / 1e6:.6f}"),
            ("splitting_estimate_mhz",
             f"{ss.splitting_estimate(ensemble.cooperativity, cavity.kappa, ensemble.gamma_perp) / 1e6:.6f}"),
            ("g_eff_mhz", f"{rad_to_mhz(g_eff):.6f}"),
            ("n_eff",
             f"{ss.n_eff_from_c(ensemble.cooperativity, g_eff, cavity.kappa, ensemble.gamma_perp):.4f}"),
        ]
    if manifest.get("command") == "spectrum":
        try:
            cols = io.read_columns_csv(manifest["outputs"][0])
            split = measure_splitting(cols["detuning_mhz"], cols["transmission"])
            rows.append(("measured_splitting_mhz", f"{split:.6f}"))
        except (OSError, KeyError, ValueError, IndexError):
            pass
    if manifest.get("command") == "empty-cavity":
        try:
            payload = io.read_json(manifest["outputs"][-1])
            for key in ("finesse", "fsr_mhz", "fwhm_mhz", "kappa_i_mhz", "kappa_ex_mhz"):
                rows.append((f"fitted_{key}", f"{payload['derived'][key]:.6f}"))
        except (OSError, KeyError, ValueError, IndexError):
            pass
    if manifest.get("command") == "lock":
        try:
            payload = io.read_json(manifest["outputs"][-1])
            for key, value in sorted(payload.items()):
                rows.append((key, f"{value:.6g}"))
        except (OSError, ValueError, AttributeError):
            pass
    return rows


def _run_report(r: dict) -> list:
    outdir = Path(r["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    lines = []
    copied = []
    for mpath in r["manifests"]:
        mpath = Path(mpath)
        if not mpath.is_file():
            raise ValueError(f"manifest not found: {mpath}")
        manifest = _read_manifest(mpath)
        lines.append(f"[{manifest.get('command', '?')}] {mpath}")
        for name, value in _report_rows(manifest):
            lines.append(f"  {name} = {value}")
        for out in manifest.get("outputs", []):
            src = Path(out)
            if src.is_file():
                dest = outdir / src.name
                if src.resolve() != dest.resolve():
                    shutil.copyfile(src, dest)
                copied.append(dest)
                lines.append(f"  bundled {src.name}")
            else:
                lines.append(f"  missing {src}")
        lines.append("")
    summary = outdir / "summary.txt"
    summary.write_text("\n".join(lines), encoding="utf-8")
    return [str(summary)] + [str(p) for p in copied]


@main.command()
@click.argument("manifests", nargs=-1, type=click.Path())
@click.option("--output-dir", type=click.Path(), default="report", show_default=True)
def report(manifests, **options):
    """Summarize prior runs from their manifests and bundle the outputs."""
    if not manifests:
        raise ValueError("give at least one manifest")
    _execute("report", {"manifests": list(manifests), **options})


# ------------------------------------------------------------------- rerun

@main.command()
@click.argument("manifest", type=click.Path())
def rerun(manifest):
    """Re-execute a recorded run; outputs regenerate bit-identically."""
    doc = _read_manifest(manifest)
    command = doc["command"]
    resolved = _manifest_object(doc["resolved"], "manifest 'resolved'")
    if not isinstance(command, str) or command not in RUNNERS:
        raise ValueError(f"manifest names unknown command {command!r}")
    _check_resolved(command, resolved)
    _execute(command, resolved)


RUNNERS = {
    "spectrum": _run_spectrum,
    "saturation": _run_saturation,
    "fit": _run_fit,
    "empty-cavity": _run_empty_cavity,
    "lock": _run_lock,
    "report": _run_report,
}


if __name__ == "__main__":
    main()
