"""scipy's results with OpenBLAS pinned to its generic kernel.

numpy forms scipy's DOP853 sums as BLAS products, whose bits follow the
kernel OpenBLAS picks for the CPU.  flatgrav's stepper adds its floats in
the generic kernel's order, the same on every CPU.  So a test file that
holds the two against each other bit for bit runs itself as a script in a
child process with ``OPENBLAS_CORETYPE=Prescott``, prints its scipy results
as JSON, and compares them with flatgrav's, made in the test process.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
GENERIC_CORE = "Prescott"
# the names OpenBLAS prints for it: Katmai where Prescott is its alias
GENERIC_NAMES = {"Prescott", "Katmai"}


def hexes(values):
    """Every float of ``values``, flattened, as float.hex."""
    return [float(v).hex() for v in np.ravel(values)]


def _dynamic_arch() -> bool:
    """Whether numpy's OpenBLAS picks its kernel at run time, so that
    OPENBLAS_CORETYPE can pin it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):      # numpy < 1.25, or no BLAS entry
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def generic_oracle(script: str) -> dict:
    """The JSON that ``python script`` prints on OpenBLAS's generic kernel.

    The child's OpenBLAS libraries must each name that kernel (with
    ``OPENBLAS_VERBOSE=2``); the test skips only where numpy's OpenBLAS is
    not a DYNAMIC_ARCH build, whose kernel cannot be forced.
    """
    if not _dynamic_arch():
        pytest.skip("numpy's OpenBLAS is not a DYNAMIC_ARCH build, so its "
                    "generic kernel cannot be forced")
    env = dict(os.environ, PYTHONPATH=str(SRC),
               OPENBLAS_CORETYPE=GENERIC_CORE, OPENBLAS_VERBOSE="2")
    proc = subprocess.run([sys.executable, script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    cores = re.findall(r"^Core: (\S+)", proc.stderr, re.MULTILINE)
    assert cores and set(cores) <= GENERIC_NAMES, proc.stderr
    return json.loads(proc.stdout)
