"""Checked in a fresh process: which optional numpy and scipy modules ringcav loads, and
how a command process ends."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ringcav
from ringcav import fitting, io

_SRC = str(Path(ringcav.__file__).resolve().parents[1])


def _run(args: list, cwd=None) -> subprocess.CompletedProcess:
    """python ARGS in a fresh process that finds this checkout's ringcav first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120, cwd=cwd)


def _modules_after(statement: str, package: str = "scipy", cwd=None) -> set:
    code = (
        f"import sys; {statement}; print(' '.join(m for m in sys.modules "
        f"if m == {package!r} or m.startswith({package + '.'!r})))"
    )
    done = _run(["-c", code], cwd)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())  # the statement may print too


def test_package_and_numeric_modules_load_no_scipy():
    loaded = _modules_after(
        "import ringcav, ringcav.peaks, ringcav.thermal, ringcav.io, ringcav.units"
    )
    assert loaded == set()


def test_cli_and_a_fit_load_no_scipy():
    # the fit engine is numpy only: a command that fits imports no scipy
    loaded = _modules_after(
        "import numpy as np; import ringcav.cli; from ringcav import fitting; "
        "spec = fitting.FitSpec(model='atomic_spectrum', free=('cooperativity',)); "
        "data = fitting.generate_synthetic(spec, np.linspace(-20.0, 20.0, 41), "
        "{'cooperativity': 1.5}, noise_sigma=0.01, seed=1); "
        "assert abs(fitting.fit(data, spec).estimates['cooperativity'] - 1.5) < 0.2"
    )
    assert loaded == set()


@pytest.mark.parametrize("args, loads", [
    (["spectrum", "--points", "11"], set()),
    (["saturation", "--points", "5"], set()),
    (["lock", "--mode", "hold", "--duration-s", "0.01"], set()),
    (["fit", "--data", "d.csv", "--fitspec", "fs.json"], set()),
    (["empty-cavity", "--noise", "0", "--points", "301"], set()),
    # the probe can fail: a noisy spectrum draws numpy's Gaussian stream
    (["spectrum", "--points", "11", "--noise", "0.01"], {"numpy.random"}),
], ids=["spectrum", "saturation", "lock-hold", "fit", "empty-cavity", "noisy-spectrum"])
def test_a_command_loads_no_module_after_the_cli(tmp_path, args, loads):
    # a command pays only for the work it runs: np.median would import
    # numpy.ma on first use, so the fit's initial guess takes its medians
    # through peaks._median, and the starts' jitter is drawn without
    # numpy.random (fitting._seed0_jitter)
    spec = fitting.FitSpec(model="atomic_spectrum", free=("cooperativity",))
    data = fitting.generate_synthetic(spec, np.linspace(-20.0, 20.0, 41), {"cooperativity": 1.5},
                                      noise_sigma=0.01, seed=1)
    io.write_spectrum_csv(tmp_path / "d.csv", data.x, data.yobs)
    (tmp_path / "fs.json").write_text('{"model": "atomic_spectrum", "free": ["cooperativity"]}')
    done = _run(["-c", "import sys; import ringcav.cli; before = set(sys.modules); "
                       f"assert ringcav.cli.main({args!r}, standalone_mode=False) is None; "
                       "print(' '.join(sorted(set(sys.modules) - before)))"], tmp_path)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.splitlines()[-1].split())  # the command prints too
    if loads:
        assert loads <= loaded, loaded
    else:
        assert loaded == set(), loaded


def test_cli_entry_freezes_the_collector(tmp_path):
    # frozen objects sit in the permanent generation, which the collections
    # at interpreter exit do not traverse
    done = _run(["-c", "import gc; from ringcav.cli import main; "
                       "main(['--version'], standalone_mode=False); "
                       "print(gc.get_freeze_count())"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.splitlines()[-1]) > 0


def test_a_frozen_command_process_still_exits_cleanly(tmp_path):
    # the freeze shortens exit without skipping it: the exit code, every
    # echoed line and every written byte are there
    done = _run(["-m", "ringcav.cli", "spectrum", "--points", "11", "--output", "s.csv"],
                tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "wrote s.csv\nwrote s.csv.manifest.json\n"
    assert done.stderr == ""
    text = (tmp_path / "s.csv").read_bytes()
    assert text.startswith(b"detuning_mhz,transmission\r\n") and text.endswith(b"\r\n")
    assert text.count(b"\r\n") == 12
    assert io.read_columns_csv(tmp_path / "s.csv")["detuning_mhz"].tolist()[::10] == [-20.0, 20.0]
    assert io.read_json(tmp_path / "s.csv.manifest.json")["outputs"] == ["s.csv"]
