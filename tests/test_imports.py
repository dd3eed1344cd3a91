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


def test_cli_loads_only_what_scipy_optimize_loads():
    # scipy.optimize pulls in scipy.constants itself (through
    # scipy.spatial.transform); ringcav must add nothing to that set
    loaded = _scipy_modules_after("import ringcav.cli")
    assert "scipy.signal" not in loaded
    assert loaded == _scipy_modules_after("import scipy.optimize")
