"""The package loads scipy's assignment kernel without importing scipy.optimize.

``market`` loads the extension module ``scipy.optimize._lsap`` from its file,
so a cold ``import smbandits`` runs none of scipy.optimize's package imports,
and takes the public import when that load fails. Each check runs in a fresh
interpreter, since this one has imported scipy.optimize already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import smbandits

# Prints a digest of the kernel's assignments on random, tie-heavy and
# rectangular matrices, minimised and maximised.
ASSIGNMENTS = """
import hashlib
import numpy as np
from smbandits import market
rng = np.random.default_rng(0)
digest = hashlib.sha256()
for n_r, n_c in [(1, 1), (3, 3), (4, 4), (12, 12), (2, 7), (7, 2), (4, 360), (0, 3)]:
    for w in (rng.uniform(-1, 1, (n_r, n_c)), rng.integers(0, 2, (n_r, n_c)) * 0.5, np.zeros((n_r, n_c))):
        for maximize in (True, False):
            rows, cols = market.linear_sum_assignment(w, maximize=maximize)
            digest.update(rows.tobytes() + cols.tobytes())
print(digest.hexdigest())
"""


def run_python(code: str) -> list[str]:
    """Run ``code`` in a child that imports the package this process imported;
    return its stdout lines."""
    src = str(Path(smbandits.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()


def test_cold_import_skips_scipy_optimize():
    lines = run_python(
        """
import sys
import smbandits, smbandits.cli
from smbandits import instability, market
print([name for name in ("scipy.optimize", "concurrent.futures") if name in sys.modules])
print("scipy.optimize._lsap" in sys.modules)
import scipy.optimize
print(market.linear_sum_assignment is scipy.optimize.linear_sum_assignment)
print(instability.linear_sum_assignment is market.linear_sum_assignment)
"""
    )
    assert lines == ["[]", "True", "True", "True"]


# Two ways the extension load can fail: no scipy found, and a module that
# cannot be built from the spec. The import machinery itself uses neither.
FAILURES = {
    "find_spec": "importlib.util.find_spec = lambda name, package=None: None",
    "module_from_spec": "def fail(spec):\n    raise ImportError(spec.name)\nimportlib.util.module_from_spec = fail",
}


@pytest.mark.parametrize("failure", sorted(FAILURES))
def test_failed_load_takes_the_public_import(failure):
    patched = run_python(
        f"""
import importlib.util, sys
real = importlib.util.find_spec, importlib.util.module_from_spec
{FAILURES[failure]}
from smbandits import instability, market
importlib.util.find_spec, importlib.util.module_from_spec = real
print("scipy.optimize" in sys.modules)
import scipy.optimize
print(market.linear_sum_assignment is scipy.optimize.linear_sum_assignment)
print(instability.linear_sum_assignment is market.linear_sum_assignment)
"""
        + ASSIGNMENTS
    )
    loaded = run_python(ASSIGNMENTS)
    assert patched[:3] == ["True", "True", "True"]
    assert patched[3] == loaded[0]
