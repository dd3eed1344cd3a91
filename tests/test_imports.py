"""Which scipy modules importing ringcav loads, each checked in a fresh process."""
import os
import subprocess
import sys
from pathlib import Path

import ringcav

_SRC = str(Path(ringcav.__file__).resolve().parents[1])


def _scipy_modules_after(statement: str) -> set:
    code = (
        f"import sys; {statement}; "
        "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    return set(done.stdout.split())


def test_package_and_numeric_modules_load_no_scipy():
    loaded = _scipy_modules_after(
        "import ringcav, ringcav.peaks, ringcav.thermal, ringcav.io, ringcav.units"
    )
    assert loaded == set()


def test_cli_and_a_fit_load_no_scipy():
    # the fit engine is numpy only: a command that fits imports no scipy
    loaded = _scipy_modules_after(
        "import numpy as np; import ringcav.cli; from ringcav import fitting; "
        "spec = fitting.FitSpec(model='atomic_spectrum', free=('cooperativity',)); "
        "data = fitting.generate_synthetic(spec, np.linspace(-20.0, 20.0, 41), "
        "{'cooperativity': 1.5}, noise_sigma=0.01, seed=1); "
        "assert abs(fitting.fit(data, spec).estimates['cooperativity'] - 1.5) < 0.2"
    )
    assert loaded == set()
