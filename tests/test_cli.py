import json

import numpy as np
import pytest
from click.testing import CliRunner

from ringcav import fitting, io
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


def test_spectrum_bad_params_file_exits_2(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_text('{"cavity": {"bogus_key": 1}}')
    result = runner.invoke(main, ["spectrum", "--params", "p.json"])
    assert result.exit_code == 2
    assert "bogus_key" in result.output or "unknown" in result.output


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
    assert (tmp_path / "ec_data.csv").exists()


def test_empty_cavity_rejects_conflicting_inputs(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text("detuning_mhz,transmission\n0,0.5\n1,0.6\n")
    result = runner.invoke(main, ["empty-cavity", "--data", "d.csv", "--finesse", "35"])
    assert result.exit_code == 2


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
