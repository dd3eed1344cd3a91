import json
import re
import warnings

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ringcav import cli, errors, fitting, io, thermal
from ringcav.cli import main
from ringcav.errors import DegenerateFit


@pytest.fixture()
def runner():
    return CliRunner()


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def test_spectrum_writes_csv_and_manifest(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["spectrum", "--output", "s.csv"], catch_exceptions=False)
    assert result.exit_code == 0
    cols = io.read_columns_csv(tmp_path / "s.csv")
    assert list(cols) == ["detuning_mhz", "transmission"]
    assert cols["detuning_mhz"].size == 801
    manifest = io.read_json(tmp_path / "s.csv.manifest.json")
    assert manifest["command"] == "spectrum"
    assert manifest["resolved"]["points"] == 801


def test_spectrum_seed_reproducible(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner.invoke(main, ["spectrum", "--noise", "0.01", "--seed", "5",
                         "--output", "a.csv"], catch_exceptions=False)
    runner.invoke(main, ["spectrum", "--noise", "0.01", "--seed", "5",
                         "--output", "b.csv"], catch_exceptions=False)
    runner.invoke(main, ["spectrum", "--noise", "0.01", "--seed", "6",
                         "--output", "c.csv"], catch_exceptions=False)
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    c = (tmp_path / "c.csv").read_bytes()
    assert a == b
    assert a != c


def test_spectrum_conflicting_drive_exits_2(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["spectrum", "--y", "0.5", "--power-w", "1e-12"])
    assert result.exit_code == 2
    assert "give only one of input_power_w and y" in result.stderr
    assert not list(tmp_path.iterdir())


def test_spectrum_bad_params_file_exits_2(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text('{"cavity": {"bogus_key": 1}}')
    result = runner.invoke(main, ["spectrum", "--params", "p.json"])
    assert result.exit_code == 2
    assert "bogus_key" in result.output or "unknown" in result.output


def test_spectrum_takes_no_fixed_detuning(runner, tmp_path, monkeypatch):
    # the probe scan sets both detunings, so the drive section takes neither
    monkeypatch.chdir(tmp_path)
    assert "--delta-atom-mhz" not in runner.invoke(main, ["spectrum", "--help"]).output
    for key in ("delta_atom_mhz", "delta_cavity_mhz"):
        (tmp_path / "p.json").write_text(json.dumps({"drive": {key: 25}}))
        result = runner.invoke(main, ["spectrum", "--params", "p.json"])
        assert result.exit_code == 2
        assert f"unknown keys in 'drive': ['{key}']" in result.stderr


def test_spectrum_missing_params_file_exits_2(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["spectrum", "--params", "missing.json"])
    assert result.exit_code == 2


def test_rerun_is_byte_identical(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner.invoke(main, ["spectrum", "--noise", "0.02", "--seed", "11",
                         "--output", "s.csv"], catch_exceptions=False)
    before = (tmp_path / "s.csv").read_bytes()
    (tmp_path / "s.csv").unlink()
    result = runner.invoke(main, ["rerun", "s.csv.manifest.json"], catch_exceptions=False)
    assert result.exit_code == 0
    assert (tmp_path / "s.csv").read_bytes() == before


def test_rerun_missing_manifest_exits_2(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["rerun", "nope.manifest.json"])
    assert result.exit_code == 2


def test_saturation_command(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["saturation", "--points", "11",
                                  "--output", "sat.csv"], catch_exceptions=False)
    assert result.exit_code == 0
    cols = io.read_columns_csv(tmp_path / "sat.csv")
    assert list(cols) == ["power_w", "transmission_atoms", "transmission_empty"]
    assert np.ptp(cols["transmission_empty"]) == 0.0


def test_saturation_at_the_benchmarks_pinned_n_sat_exits_0(runner, tmp_path, monkeypatch):
    # the empty-cavity column (C = 0) of this 40 000-point curve has a double
    # root at u = -1/2; the trigonometric/Cardano solver once failed it
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["saturation", "--n-sat", "12.95210292336981", "--pmin-w",
                                  "1e-12", "--pmax-w", "1e-05", "--points", "40000"])
    assert result.exit_code == 0, result.output


def test_saturation_bad_power_range_exits_2(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["saturation", "--pmin-w", "1e-8", "--pmax-w", "1e-12"])
    assert result.exit_code == 2


def test_fit_roundtrip_via_cli(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner.invoke(main, ["spectrum", "--noise", "0.01", "--seed", "1",
                         "--output", "data.csv"], catch_exceptions=False)
    (tmp_path / "fs.json").write_text(json.dumps(
        {"model": "atomic_spectrum", "free": ["cooperativity", "gamma_perp_mhz"]}))
    result = runner.invoke(main, ["fit", "--data", "data.csv", "--fitspec", "fs.json",
                                  "--output", "fit.json"], catch_exceptions=False)
    assert result.exit_code == 0
    payload = io.read_json(tmp_path / "fit.json")
    assert payload["converged"] is True
    assert payload["estimates"]["cooperativity"] == pytest.approx(1.5, abs=0.1)
    assert payload["n_starts"] == fitting.AGREEING_STARTS
    assert (tmp_path / "fit_residuals.csv").exists()


def test_fit_degenerate_exits_5(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner.invoke(main, ["spectrum", "--y", "1e-3", "--output", "weak.csv"],
                  catch_exceptions=False)
    (tmp_path / "fs.json").write_text(json.dumps(
        {"model": "atomic_spectrum", "free": ["cooperativity", "n_sat"]}))
    result = runner.invoke(main, ["fit", "--data", "weak.csv", "--fitspec", "fs.json"])
    assert result.exit_code == 5
    allowed = runner.invoke(main, ["fit", "--data", "weak.csv", "--fitspec", "fs.json",
                                   "--allow-degenerate", "--output", "fit.json"])
    assert allowed.exit_code == 0
    assert io.read_json(tmp_path / "fit.json")["degenerate_parameters"] == ["n_sat"]


def _strict_json(path):
    """The JSON file at path, refusing NaN, Infinity and -Infinity."""
    def refuse(constant):
        raise ValueError(f"{path} holds {constant}")

    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=refuse)


def test_degenerate_fit_writes_flat_sigmas_as_null(runner, tmp_path, monkeypatch):
    # with no atoms the spectrum does not depend on gamma_perp at all, so its
    # sigma is infinite
    monkeypatch.chdir(tmp_path)
    runner.invoke(main, ["spectrum", "--cooperativity", "0", "--noise", "0.01", "--seed", "3",
                         "--points", "201", "--output", "c0.csv"], catch_exceptions=False)
    (tmp_path / "fs.json").write_text(json.dumps(
        {"model": "atomic_spectrum", "free": ["gamma_perp_mhz", "scale"],
         "fixed": {"cooperativity": 0.0}}))
    result = runner.invoke(main, ["fit", "--data", "c0.csv", "--fitspec", "fs.json",
                                  "--allow-degenerate", "--output", "fit.json"],
                           catch_exceptions=False)
    assert result.exit_code == 0
    payload = _strict_json(tmp_path / "fit.json")
    assert payload["degenerate_parameters"] == ["gamma_perp_mhz"]
    assert payload["covariance_proxy"]["gamma_perp_mhz"] is None
    assert payload["covariance_proxy"]["scale"] > 0
    _strict_json(tmp_path / "fit.json.manifest.json")


def test_unbounded_fitspec_bounds_are_recorded_as_null(runner, tmp_path, monkeypatch):
    # json reads -Infinity and Infinity; the manifest writes them as null,
    # which FitSpec reads back as the unbounded sides
    monkeypatch.chdir(tmp_path)
    runner.invoke(main, ["spectrum", "--noise", "0.01", "--seed", "2", "--output", "d.csv"],
                  catch_exceptions=False)
    (tmp_path / "fs.json").write_text(
        '{"model": "atomic_spectrum", "free": ["cooperativity", "baseline"], '
        '"bounds": {"cooperativity": [0.0, Infinity], "baseline": [-Infinity, Infinity]}}')
    result = runner.invoke(main, ["fit", "--data", "d.csv", "--fitspec", "fs.json",
                                  "--output", "fit.json"], catch_exceptions=False)
    assert result.exit_code == 0
    manifest = _strict_json(tmp_path / "fit.json.manifest.json")
    assert manifest["resolved"]["fitspec"]["bounds"] == {
        "cooperativity": [0.0, None], "baseline": [None, None]}
    before = (tmp_path / "fit.json").read_bytes()
    (tmp_path / "fit.json").unlink()
    result = runner.invoke(main, ["rerun", "fit.json.manifest.json"], catch_exceptions=False)
    assert result.exit_code == 0
    assert (tmp_path / "fit.json").read_bytes() == before
    assert _strict_json(tmp_path / "fit.json.manifest.json")["resolved"] == manifest["resolved"]


def test_degenerate_fit_stays_within_its_evaluation_budget(runner, tmp_path, monkeypatch):
    # the data of test_fit_degenerate_exits_5: n_sat is flat, and every start
    # runs up to its bound. The fit must stop there and flag n_sat, using no
    # more model evaluations than scipy's trust-region solver did (224)
    monkeypatch.chdir(tmp_path)
    runner.invoke(main, ["spectrum", "--y", "1e-3", "--output", "weak.csv"],
                  catch_exceptions=False)
    x, yobs, sigma = io.read_dataset_csv(tmp_path / "weak.csv")
    spec = fitting.FitSpec(model="atomic_spectrum", free=("cooperativity", "n_sat"))
    with pytest.raises(DegenerateFit) as exc_info:
        fitting.fit(fitting.Dataset(x, yobs, sigma), spec)
    assert exc_info.value.parameters == ("n_sat",)
    assert exc_info.value.result.converged
    assert exc_info.value.result.n_eval <= 224


def test_fit_bad_fitspec_exits_2(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner.invoke(main, ["spectrum", "--output", "d.csv"], catch_exceptions=False)
    (tmp_path / "fs.json").write_text(json.dumps({"model": "nope", "free": ["x"]}))
    result = runner.invoke(main, ["fit", "--data", "d.csv", "--fitspec", "fs.json"])
    assert result.exit_code == 2


def test_empty_cavity_synthesis(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["empty-cavity", "--output", "ec.json"],
                           catch_exceptions=False)
    assert result.exit_code == 0
    payload = io.read_json(tmp_path / "ec.json")
    der = payload["derived"]
    assert der["finesse"] == pytest.approx(34.1, abs=1.0)
    assert der["fsr_mhz"] == pytest.approx(148.0, abs=1.0)
    assert payload["n_starts"] == fitting.AGREEING_STARTS
    assert payload["n_eval"] >= payload["n_starts"]
    assert (tmp_path / "ec_data.csv").exists()


def test_empty_cavity_refused_fit_writes_nothing(runner, tmp_path, monkeypatch):
    # the fit refuses 5 points for 4 free parameters before the synthesized
    # data is written, so no CSV is left without its manifest
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["empty-cavity", "--points", "5"])
    assert result.exit_code == 2, result.output
    assert "need >= 8 points" in result.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("option, value", [("--finesse", "35"), ("--fsr-mhz", "150"),
                                           ("--dip-transmission", "0.3"), ("--nu0-mhz", "25")])
def test_empty_cavity_rejects_conflicting_inputs(runner, tmp_path, monkeypatch, option, value):
    # every synthesis truth option conflicts with --data, --nu0-mhz included
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text("detuning_mhz,transmission\n0,0.5\n1,0.6\n")
    result = runner.invoke(main, ["empty-cavity", "--data", "d.csv", option, value])
    assert result.exit_code == 2
    assert "conflict with --data" in result.stderr


def test_lock_hold_and_metrics(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["lock", "--mode", "hold", "--duration-s", "0.1",
                                  "--output", "lock.csv"], catch_exceptions=False)
    assert result.exit_code == 0
    cols = io.read_columns_csv(tmp_path / "lock.csv")
    assert list(cols) == ["time_s", "heater_detuning_mhz", "resonance_offset_mhz",
                          "p_circ_w", "probe_transmission"]
    metrics = io.read_json(tmp_path / "lock_metrics.json")
    assert metrics["rms_transmission_error"] < 0.02


def test_lock_scan_both_ratio(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["lock", "--mode", "scan-both",
                                  "--output", "scan.csv"], catch_exceptions=False)
    assert result.exit_code == 0
    metrics = io.read_json(tmp_path / "scan_metrics.json")
    assert metrics["dwell_ratio"] >= 2.0
    assert (tmp_path / "scan_up.csv").exists()


def test_lock_coarse_dt_exits_2(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["lock", "--dt-s", "0.005"])
    assert result.exit_code == 2


def test_lock_lost_exits_6(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["lock", "--mode", "step", "--step-linewidths", "40",
                                  "--duration-s", "0.3"])
    assert result.exit_code == 6


@pytest.mark.parametrize("rate, message", [
    # each step jumps about 6 linewidths, so the up scan never dwells
    ("1e11", "scan_rate=100000000000.0 Hz/s and dt=0.00025 s"),
    ("inf", "scan_rate must be finite"),
])
def test_lock_fast_scan_both_exits_2(runner, tmp_path, monkeypatch, rate, message):
    # a single scan refuses the rate as the pair does
    monkeypatch.chdir(tmp_path)
    for mode in ("scan-both", "scan-up", "scan-down"):
        result = runner.invoke(main, ["lock", "--mode", mode, "--scan-rate-hz-per-s", rate])
        assert result.exit_code == 2, mode
        assert isinstance(result.exception, SystemExit)
        assert message in result.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, message", [
    # the heating would drag the resonance about 2e289 linewidths
    (["--shift-per-watt", "-1e300"], "full-buildup pull of "),
    # one step moves the laser about 1e296 Hz
    (["--scan-rate-hz-per-s", "1e300"], "moves the laser 2.5e+296 Hz, farther than the span"),
    (["--span-mhz", "1e300"], "span of 1e+306 Hz is 2.3e+299 linewidths, too wide"),
])
def test_lock_scan_beyond_representable_detunings_exits_2(runner, tmp_path, monkeypatch,
                                                          args, message):
    # refused before the loop, which would overflow the heater's Lorentzian
    monkeypatch.chdir(tmp_path)
    for mode in ("scan-both", "scan-up", "scan-down"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["lock", "--mode", mode, *args])
        assert result.exit_code == 2, mode
        assert isinstance(result.exception, SystemExit)
        assert message in result.stderr and "half buildup" not in result.stderr
        assert not caught
    assert not list(tmp_path.iterdir())


def test_lock_scan_without_heater_power_exits_2(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["lock", "--mode", "scan-both", "--heater-power-w", "0"])
    assert result.exit_code == 2
    assert "heater_power is 0" in result.stderr


class _NoAllocation:
    def __getattr__(self, name):
        raise AssertionError(f"reached the allocator ({name})")


@pytest.mark.parametrize("args", [
    ["--mode", "scan-up", "--scan-rate-hz-per-s", "1e-3"],  # about 1e15 steps
    ["--dt-s", "1e-12"],  # 5e11 steps of the 0.5 s hold
])
def test_lock_step_cap_exits_2_before_allocating(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(thermal, "np", _NoAllocation())
    monkeypatch.setattr(thermal, "array", _NoAllocation())
    result = runner.invoke(main, ["lock", *args])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"more than MAX_STEPS={thermal.MAX_STEPS}" in result.stderr


def test_lock_step_overflowing_to_inf_exits_2_before_allocating(runner, tmp_path,
                                                               monkeypatch):
    # 1e308 linewidths is a finite option whose size in Hz is inf
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(thermal, "np", _NoAllocation())
    monkeypatch.setattr(thermal, "array", _NoAllocation())
    result = runner.invoke(main, ["lock", "--mode", "step", "--step-linewidths", "1e308"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "error: step time 0.1 s and size inf Hz must be finite" in result.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["spectrum", "saturation", "empty-cavity"])
def test_grid_point_cap_exits_2_before_allocating(runner, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "np", _NoAllocation())
    points = cli.MAX_POINTS + 1
    result = runner.invoke(main, [command, "--points", str(points)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"{points} points is more than MAX_POINTS={cli.MAX_POINTS}" in result.stderr
    assert not list(tmp_path.iterdir())


def test_lock_hold_without_absorption_exits_2(runner, tmp_path, monkeypatch):
    # nothing absorbed, nothing shifts: the hold's heated equilibrium does not exist
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["lock", "--absorption-fraction", "0"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)


# every float option of lock, run in a mode that reads it and in one that does
# not; every mode reads the thermal and lock settings, so a scan stands in there
_LOCK_MODES = {"--duration-s": ("hold", "scan-up"), "--step-linewidths": ("step", "hold"),
               "--step-at-s": ("step", "scan-down"), "--scan-rate-hz-per-s": ("scan-both", "step"),
               "--span-mhz": ("scan-up", "hold")}
_LOCK_FLOATS = [p.opts[0] for p in cli.lock.params
                if isinstance(p.type, click.types.FloatParamType)]


def _no_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("option", _LOCK_FLOATS)
def test_lock_rejects_non_finite_settings(runner, tmp_path, monkeypatch, option, value):
    monkeypatch.chdir(tmp_path)
    for mode in _LOCK_MODES.get(option, ("hold", "scan-up")):
        result = runner.invoke(main, ["lock", "--mode", mode, f"{option}={value}"])
        assert result.exit_code in (2, 6), (mode, result.output)
        assert isinstance(result.exception, SystemExit)
        for path in tmp_path.glob("*.json"):
            json.loads(path.read_text(), parse_constant=_no_constant)


_FLOATS = [(command, p.opts[0]) for command in ("spectrum", "saturation", "empty-cavity")
           for p in main.commands[command].params
           if isinstance(p.type, click.types.FloatParamType)]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command, option", _FLOATS)
def test_non_finite_float_options_exit_2_before_any_work(runner, tmp_path, monkeypatch,
                                                         command, option, value):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, [command, f"{option}={value}"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ") and "must be finite" in result.stderr
    assert not caught
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("option, value", [("--fsr-mhz", "5e-324"),
                                           ("--nu0-mhz", "-1.7976931348623157e+308")])
def test_empty_cavity_truth_outside_the_bounds_exits_2_before_any_work(runner, tmp_path,
                                                                     monkeypatch, option,
                                                                     value):
    # the ring's phase 2 pi (nu - nu0) / fsr would overflow on the grid
    monkeypatch.chdir(tmp_path)
    name = option[2:].replace("-", "_")
    lo, hi = fitting.MODELS["empty_ring"].bounds[name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["empty-cavity", option, value])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == (f"error: {name} must be in [{lo!r}, {hi!r}] to synthesize, "
                             f"got {float(value)!r}\n")
    assert not caught
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("span", ["1e300", "-1e300", "148148"])
def test_empty_cavity_span_beyond_max_synth_fsrs_exits_2(runner, tmp_path, monkeypatch, span):
    # at 1e300 MHz the fit's jacobian norms and squared singular values overflow
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["empty-cavity", "--span-mhz", span])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: span_mhz {float(span)!r} covers ")
    assert f"more than MAX_SYNTH_FSRS={cli.MAX_SYNTH_FSRS}" in result.stderr
    assert not caught
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("source", ["option", "params", "rerun"])
def test_spectrum_y_whose_square_overflows_exits_2(runner, tmp_path, monkeypatch, source):
    # y**2 in steady_state.drive_y2 would raise OverflowError
    monkeypatch.chdir(tmp_path)
    if source == "option":
        args = ["spectrum", "--y", "1.4e154"]
    elif source == "params":
        (tmp_path / "p.json").write_text(json.dumps({"drive": {"y": 1.4e154}}))
        args = ["spectrum", "--params", "p.json"]
    else:
        runner.invoke(main, ["spectrum", "--points", "11", "--y", "0.5", "--output", "s.csv"],
                      catch_exceptions=False)
        manifest = io.read_json("s.csv.manifest.json")
        manifest["resolved"]["doc"]["drive"]["y"] = 1.4e154
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        (tmp_path / "s.csv").unlink()
        args = ["rerun", "m.json"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == (f"error: y must be <= MAX_Y={1.3407807929942596e154!r}, where "
                             f"y**2 is finite, got 1.4e+154\n")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("slot, value", [("fixed", "fsr_mhz"), ("init", "finesse")])
def test_non_finite_fitspec_values_exit_2(runner, tmp_path, monkeypatch, slot, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text("detuning_mhz,transmission\n0,0.5\n1,0.6\n2,0.7\n")
    for number in (float("nan"), float("inf")):
        fitspec = {"model": "empty_ring", "free": ["finesse"], slot: {value: number}}
        (tmp_path / "fs.json").write_text(json.dumps(fitspec))
        result = runner.invoke(main, ["fit", "--data", "d.csv", "--fitspec", "fs.json"])
        assert result.exit_code == 2, result.output
        assert f"{value} must be finite" in result.stderr


@pytest.mark.parametrize("args, message", [
    (["spectrum", "--noise", "-0.1"], "noise must be >= 0"),
    (["empty-cavity", "--noise", "-0.1"], "noise must be >= 0"),
    (["saturation", "--points", "0"], "points must be >= 1"),
    (["spectrum", "--points", "1"], "points must be >= 2"),
])
def test_negative_noise_and_empty_power_grid_exit_2(runner, tmp_path, monkeypatch, args,
                                                    message):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert message in result.stderr
    assert not list(tmp_path.iterdir())


def test_lock_help_defaults_are_the_library_defaults(runner, cavity):
    text = " ".join(runner.invoke(main, ["lock", "--help"]).output.split())
    shown = {}
    for chunk in re.split(r" (?=--[a-z])", text):
        default = re.search(r"\[default: ([^\]]+)\]", chunk)
        if chunk.split()[1] == "FLOAT" and default:
            shown[chunk.split()[0]] = float(default.group(1))
    therm = thermal.ThermalParams()
    config = thermal.default_lock_config(cavity, therm)
    library = {"--tau-th-s": therm.tau_th, "--shift-per-watt": therm.shift_per_watt,
               "--absorption-fraction": therm.absorption_fraction,
               "--heater-power-w": config.heater_power, "--gain-i": config.gain_i}
    # the library takes these three as required arguments: only the CLI defaults them
    cli_only = {"--duration-s", "--step-linewidths", "--step-at-s"}
    assert set(shown) == set(library) | cli_only
    for option, value in library.items():
        assert shown[option] == value, option


def test_report_bundles_outputs(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner.invoke(main, ["spectrum", "--output", "s.csv"], catch_exceptions=False)
    result = runner.invoke(main, ["report", "s.csv.manifest.json",
                                  "--output-dir", "rep"], catch_exceptions=False)
    assert result.exit_code == 0
    summary = (tmp_path / "rep" / "summary.txt").read_text()
    assert "finesse" in summary
    assert "g_eff_mhz" in summary
    assert "n_eff" in summary
    assert (tmp_path / "rep" / "s.csv").exists()


def test_report_requires_manifests(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["report"])
    assert result.exit_code == 2


def test_report_missing_manifest_exits_2(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["report", "ghost.manifest.json"])
    assert result.exit_code == 2


def test_rerun_fit_reproduces_json(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner.invoke(main, ["spectrum", "--noise", "0.01", "--seed", "2",
                         "--output", "d.csv"], catch_exceptions=False)
    (tmp_path / "fs.json").write_text(json.dumps(
        {"model": "atomic_spectrum", "free": ["cooperativity"]}))
    runner.invoke(main, ["fit", "--data", "d.csv", "--fitspec", "fs.json",
                         "--output", "fit.json"], catch_exceptions=False)
    before = (tmp_path / "fit.json").read_bytes()
    result = runner.invoke(main, ["rerun", "fit.json.manifest.json"],
                           catch_exceptions=False)
    assert result.exit_code == 0
    assert (tmp_path / "fit.json").read_bytes() == before


# the resolved keys each command recorded before its options were read from
# click's parsed parameters; rerun of an older manifest needs the same names
_RESOLVED_KEYS = {
    "spectrum": {"atom_offset_mhz", "branch", "center_mhz", "doc", "inputs", "noise",
                 "output", "points", "seed", "span_mhz"},
    "saturation": {"doc", "inputs", "output", "pmax_w", "pmin_w", "points"},
    "fit": {"allow_degenerate", "data", "fitspec", "output"},
    "empty-cavity": {"data", "noise", "output", "points", "seed", "span_mhz", "truth"},
    "lock": {"absorption_fraction", "doc", "dt_s", "duration_s", "gain_i", "heater_power_w",
             "inputs", "mode", "output", "scan_rate_hz_per_s", "setpoint", "shift_per_watt",
             "span_mhz", "step_at_s", "step_linewidths", "tau_th_s"},
}


@pytest.mark.parametrize("args", [
    ["spectrum", "--points", "41", "--output", "out.csv"],
    ["saturation", "--points", "5", "--output", "out.csv"],
    ["fit", "--data", "d.csv", "--fitspec", "fs.json", "--output", "out.json"],
    ["empty-cavity", "--points", "1201", "--output", "out.json"],
    ["lock", "--duration-s", "0.05", "--output", "out.csv"],
], ids=lambda args: args[0])
def test_manifest_records_the_same_resolved_keys(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    if args[0] == "fit":
        runner.invoke(main, ["spectrum", "--points", "201", "--noise", "0.01",
                             "--output", "d.csv"], catch_exceptions=False)
        (tmp_path / "fs.json").write_text(json.dumps(
            {"model": "atomic_spectrum", "free": ["cooperativity"]}))
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    manifest = io.read_json(tmp_path / (args[-1] + ".manifest.json"))
    assert set(manifest["resolved"]) == _RESOLVED_KEYS[args[0]]
    assert cli._recorded_keys(args[0]) == _RESOLVED_KEYS[args[0]]


def test_rerun_refuses_keys_the_command_does_not_record(runner, tmp_path, monkeypatch):
    # a document key belongs inside doc; at the top level it would replay as
    # the document's value, silently
    monkeypatch.chdir(tmp_path)
    runner.invoke(main, ["spectrum", "--points", "11", "--output", "s.csv"],
                  catch_exceptions=False)
    manifest = io.read_json("s.csv.manifest.json")
    manifest["resolved"].update({"cooperativity": 9.0, "bogus": 1})
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    (tmp_path / "s.csv").unlink()
    result = runner.invoke(main, ["rerun", "m.json"])
    assert result.exit_code == 2
    assert result.stderr == ("error: manifest 'resolved' holds keys spectrum does not "
                             "record: ['bogus', 'cooperativity']\n")
    assert not (tmp_path / "s.csv").exists()


# ------------------------------------------------------- exit-code contract

EXIT_CODES = {
    errors.RingcavError: 2,
    errors.NonPositiveRate: 2,
    errors.AmbiguousDrive: 2,
    errors.NoRealRoot: 3,
    errors.NumericalInstability: 3,
    errors.FinesseTooLow: 2,
    errors.NotConverged: 4,
    errors.DegenerateFit: 5,
    errors.ModelEvaluationFailed: 3,
    errors.StepTooCoarse: 2,
    errors.LockLost: 6,
}


def _error_classes(cls=errors.RingcavError):
    return {cls}.union(*(_error_classes(sub) for sub in cls.__subclasses__()))


def test_every_error_class_carries_its_exit_code():
    assert _error_classes() == set(EXIT_CODES)
    for cls, code in EXIT_CODES.items():
        assert cls.exit_code == code, cls


@pytest.mark.parametrize("exc, code", [
    *[(cls(f"{cls.__name__} raised"), code) for cls, code in EXIT_CODES.items()],
    (ValueError("bad value"), 2),
    (OSError("disk gone"), 2),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_group_handler_maps_errors_to_exit_codes(runner, tmp_path, monkeypatch, exc, code):
    def fail(resolved):
        raise exc

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli.RUNNERS, "spectrum", fail)
    result = runner.invoke(main, ["spectrum"])
    assert result.exit_code == code
    assert result.stderr == f"error: {exc}\n"


def test_group_handler_lets_bugs_propagate(runner, tmp_path, monkeypatch):
    def fail(resolved):
        raise RuntimeError("a bug")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(cli.RUNNERS, "spectrum", fail)
    result = runner.invoke(main, ["spectrum"])
    assert isinstance(result.exception, RuntimeError)
    assert result.exit_code == 1


# --------------------------------------------------------- malformed input

@pytest.mark.parametrize("command, manifest, message", [
    ("rerun", [1, 2], "manifest must hold a JSON object"),
    ("rerun", {"command": "spectrum", "resolved": {}}, "manifest missing key 'doc'"),
    ("rerun", {"command": "lock", "resolved": {"mode": "hold"}}, "manifest missing key 'doc'"),
    ("rerun", {"command": "spectrum", "resolved": [1]}, "manifest 'resolved' must hold"),
    ("rerun", {"command": ["spectrum"], "resolved": {}}, "unknown command ['spectrum']"),
    ("report", [1, 2], "manifest must hold a JSON object"),
    ("report", {"command": "spectrum", "resolved": {"doc": 5}},
     "parameter document must be an object"),
])
def test_malformed_manifest_exits_2(runner, tmp_path, monkeypatch, command, manifest, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    result = runner.invoke(main, [command, "m.json"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert message in result.stderr


@pytest.mark.parametrize("command, edit, manifest, message", [
    ("rerun", {"points": "abc"}, None, "manifest value 'points' does not fit option --points"),
    ("rerun", {"output": None}, None, "manifest value 'output' does not fit option --output"),
    ("rerun", {"branch": "sideways"}, None, "manifest value 'branch' does not fit option"),
    ("rerun", {"inputs": 5}, None, "manifest 'inputs' must be a list of paths"),
    ("rerun", None, {"command": "empty-cavity", "resolved": {
        "data": None, "truth": {"finesse": "abc", "fsr_mhz": 148.0, "dip_transmission": 0.32,
                                "nu0_mhz": 0.0},
        "span_mhz": 340.0, "points": 301, "noise": 0.01, "seed": 0, "output": "e.json"}},
     "manifest 'truth' must map parameters to numbers"),
    ("rerun", None, {"command": "empty-cavity", "resolved": {
        "data": None, "truth": {"finesse": 40.0, "bogus": 1.0},
        "span_mhz": 340.0, "points": 301, "noise": 0.01, "seed": 0, "output": "e.json"}},
     "manifest 'truth' must map parameters to numbers, exactly"),
    ("report", None, {"command": "spectrum", "resolved": {}, "outputs": 5},
     "manifest 'outputs' must be a list of paths"),
])
def test_malformed_manifest_values_exit_2(runner, tmp_path, monkeypatch, command, edit,
                                          manifest, message):
    # a value of the wrong JSON type is refused where the manifest is read,
    # not left to raise TypeError inside a runner
    monkeypatch.chdir(tmp_path)
    if manifest is None:
        runner.invoke(main, ["spectrum", "--points", "11", "--output", "s.csv"],
                      catch_exceptions=False)
        manifest = io.read_json("s.csv.manifest.json")
        manifest["resolved"].update(edit)
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    result = runner.invoke(main, [command, "m.json"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert message in result.stderr


@pytest.mark.parametrize("fitspec, message", [
    ([["model"]], "fitspec must hold a JSON object"),
    ({"model": ["empty_ring"], "free": ["finesse"]}, "unknown model"),
    ({"model": "empty_ring", "free": 5}, "free must be a list of parameter names"),
    ({"model": "empty_ring", "free": [1]}, "free must be a list of parameter names"),
    ({"model": "empty_ring", "free": ["finesse"], "fixed": 5}, "fixed must map"),
    ({"model": "empty_ring", "free": ["finesse"], "bounds": {"finesse": [1.0]}},
     "bounds for 'finesse' must be a pair of numbers"),
    ({"model": "atomic_spectrum", "free": ["cooperativity", "cooperativity"]},
     "free names ['cooperativity'] more than once"),
])
def test_malformed_fitspec_exits_2(runner, tmp_path, monkeypatch, fitspec, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text("detuning_mhz,transmission\n0,0.5\n1,0.6\n2,0.7\n")
    (tmp_path / "fs.json").write_text(json.dumps(fitspec))
    result = runner.invoke(main, ["fit", "--data", "d.csv", "--fitspec", "fs.json"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert message in result.stderr


_NOT_NUMBERS = st.one_of(
    st.text("ab1.e-", max_size=4),
    st.none(),
    st.booleans(),
    st.lists(st.text("xy", max_size=2), max_size=3),
    st.dictionaries(st.text("xy", max_size=2), st.integers(), max_size=2),
)
_PARAM_KEYS = [
    ("cavity", "kappa_i_mhz"), ("cavity", "kappa_ex_mhz"), ("cavity", "fsr_mhz"),
    ("cavity", "lambda_p_nm"),
    ("ensemble", "cooperativity"), ("ensemble", "gamma_par_mhz"), ("ensemble", "gamma_d_mhz"),
    ("ensemble", "gamma_perp_mhz"), ("ensemble", "n_sat"),
    ("drive", "input_power_w"), ("drive", "y"),
]


def _invoke_in_scratch_dir(files: dict, args: list):
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, doc in files.items():
            with open(name, "w") as fh:
                json.dump(doc, fh)
        with open("d.csv", "w") as fh:
            fh.write("detuning_mhz,transmission\n0,0.5\n1,0.6\n2,0.7\n")
        return runner.invoke(main, args)


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(_PARAM_KEYS), value=_NOT_NUMBERS)
def test_params_reject_non_numbers(key, value):
    section, name = key
    result = _invoke_in_scratch_dir({"p.json": {section: {name: value}}},
                                    ["spectrum", "--params", "p.json", "--points", "5"])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.stderr
    assert f"{name!r} must be a number" in result.stderr


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("key", _PARAM_KEYS)
def test_params_reject_non_finite_numbers(key, value):
    # json reads NaN, Infinity and -Infinity as floats
    section, name = key
    result = _invoke_in_scratch_dir({"p.json": {section: {name: value}}},
                                    ["spectrum", "--params", "p.json", "--points", "5"])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.stderr
    assert name in result.stderr and "must be finite" in result.stderr


@settings(max_examples=80, deadline=None)
@given(slot=st.sampled_from(["fixed", "init", "bounds", "lower", "upper"]), value=_NOT_NUMBERS)
def test_fitspec_rejects_non_numbers(slot, value):
    # a bound's side may be null, the unbounded side
    assume(value is not None or slot not in ("lower", "upper"))
    fitspec = {"model": "empty_ring", "free": ["finesse"]}
    if slot == "fixed":
        fitspec["fixed"] = {"fsr_mhz": value}
    elif slot == "init":
        fitspec["init"] = {"finesse": value}
    else:
        fitspec["bounds"] = {"finesse": {"bounds": value, "lower": [value, 100.0],
                                         "upper": [1.0, value]}[slot]}
    result = _invoke_in_scratch_dir({"fs.json": fitspec},
                                    ["fit", "--data", "d.csv", "--fitspec", "fs.json"])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.stderr
    assert "must be a" in result.stderr


_EDGE_VALUES = st.sampled_from([0.0, -1.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300,
                                float("nan"), float("inf"), float("-inf")])
_EDGE_FLOATS = st.one_of(_EDGE_VALUES, st.floats())
_EMPTY_CAVITY_OPTIONS = {
    **{option: _EDGE_FLOATS for option in ("--finesse", "--fsr-mhz", "--dip-transmission",
                                           "--nu0-mhz", "--span-mhz", "--noise")},
    # a grid is small, or refused by the cap before any array exists
    "--points": st.one_of(st.integers(1, 400), st.integers(max_value=0),
                          st.integers(min_value=cli.MAX_POINTS + 1)),
    "--seed": st.integers(),
}


@settings(max_examples=80, deadline=None)
@given(options=st.lists(st.sampled_from(sorted(_EMPTY_CAVITY_OPTIONS)), max_size=3, unique=True)
       .flatmap(lambda names: st.fixed_dictionaries(
           {name: _EMPTY_CAVITY_OPTIONS[name] for name in names})))
def test_empty_cavity_runs_or_exits_with_a_documented_code(options):
    args = ["empty-cavity", "--points", "301"]  # a later --points wins
    for option, value in options.items():
        args += [option, str(value)]
    result = _invoke_in_scratch_dir({}, args)
    assert result.exit_code in {0, 2, 3, 4, 5, 6}, (args, result.output, result.exception)
    assert "Traceback" not in result.stderr


# every option that sets a step count is drawn from a window of at most about
# 10**5 steps, or from the edge values, whose counts are a few steps or past
# MAX_STEPS; when not drawn, each is given a cheap value, because the default
# dt (tau_th / 40) and scan rate follow a drawn tau_th
_LOCK_SIZES = {
    "--duration-s": (0.2, st.one_of(_EDGE_VALUES, st.floats(1e-3, 0.5))),
    "--dt-s": (2.5e-4, st.one_of(_EDGE_VALUES, st.floats(2.5e-5, 1e-3))),
    "--scan-rate-hz-per-s": (1e9, st.one_of(_EDGE_VALUES, st.floats(1e8, 1e11))),
    "--span-mhz": (30.0, st.one_of(_EDGE_VALUES, st.floats(1.0, 300.0))),
}
_LOCK_OPTIONS = {
    **{option: _EDGE_FLOATS for option in _LOCK_FLOATS if option not in _LOCK_SIZES},
    **{option: drawn for option, (_, drawn) in _LOCK_SIZES.items()},
}


@settings(max_examples=80, deadline=None)
@given(mode=st.sampled_from(["hold", "step", "scan-up", "scan-down", "scan-both"]),
       options=st.lists(st.sampled_from(sorted(_LOCK_OPTIONS)), max_size=3, unique=True)
       .flatmap(lambda names: st.fixed_dictionaries(
           {name: _LOCK_OPTIONS[name] for name in names})))
@example(mode="step", options={"--step-linewidths": 1e308})  # a step of inf Hz
def test_lock_runs_or_exits_with_a_documented_code(mode, options):
    args = ["lock", "--mode", mode]
    for option, (cheap, _) in _LOCK_SIZES.items():
        args += [option, str(cheap)]  # a later drawn value wins
    for option, value in options.items():
        args += [option, str(value)]
    result = _invoke_in_scratch_dir({}, args)
    assert result.exit_code in {0, 2, 3, 4, 5, 6}, (args, result.output, result.exception)
    assert "Traceback" not in result.stderr
