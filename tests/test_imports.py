"""Which optional numpy and scipy modules ringcav loads, each checked in a fresh process."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ringcav
from ringcav import fitting, io

_SRC = str(Path(ringcav.__file__).resolve().parents[1])


def _modules_after(statement: str, package: str = "scipy", cwd=None) -> set:
    code = (
        f"import sys; {statement}; print(' '.join(m for m in sys.modules "
        f"if m == {package!r} or m.startswith({package + '.'!r})))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120, cwd=cwd)
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


def test_a_fit_command_loads_no_numpy_ma(tmp_path):
    # np.median imports numpy.ma on first use; the fit's initial guess takes
    # the noise scale's median through peaks._median instead
    spec = fitting.FitSpec(model="atomic_spectrum", free=("cooperativity",))
    data = fitting.generate_synthetic(spec, np.linspace(-20.0, 20.0, 41), {"cooperativity": 1.5},
                                      noise_sigma=0.01, seed=1)
    io.write_spectrum_csv(tmp_path / "d.csv", data.x, data.yobs)
    (tmp_path / "fs.json").write_text('{"model": "atomic_spectrum", "free": ["cooperativity"]}')
    loaded = _modules_after(
        "from ringcav.cli import main; "
        "main(['fit', '--data', 'd.csv', '--fitspec', 'fs.json'], standalone_mode=False)",
        package="numpy.ma", cwd=tmp_path)
    assert (tmp_path / "fit.json").is_file()
    assert loaded == set()
