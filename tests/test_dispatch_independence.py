"""Reports do not depend on the CPU: neither on numpy's SIMD level nor on
the kernel OpenBLAS picks.

numpy's vector ``log1p`` and ``power`` loops may differ from the C library
by an ulp, and which loop runs depends on the CPU.  The ``density`` and
``electric`` tables are built from floats with ``math`` and ``**``, the C
library's functions, which are what numpy's baseline loops call.  So in a
child with every dispatch target of numpy disabled, the array routes must
give the float routes' values bit for bit, and the subcommands must print
the same bytes as without it.

OpenBLAS's kernels add a product's terms in different orders, with or
without fused multiply-adds.  The DOP853 stepper adds in floats, and the
orbit clocks' whole steps in numpy's pairwise sum, so ``light-deflect``
prints the same bytes, and ``orbit`` the same rows and radii, whichever
kernel OpenBLAS runs: the default, Haswell (FMA) or Prescott (generic).
orbit's clock columns t_m and p_m still come from numpy products inside a
step, and are not compared."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flatgrav.carriers import (ElectricCarrier, RadialCarrier,
                               electric_profile, energy_density,
                               field_divergence, field_intensity,
                               log_potential, ricci_density)
from flatgrav.cli import _geomspace

SRC = Path(__file__).resolve().parents[1] / "src"
SAMPLES = (1, 2, 64, 1000)

# the array routes, one column per closed form, each float as float.hex
COLUMNS = """
import json, sys
import numpy as np
from flatgrav.carriers import (ElectricCarrier, RadialCarrier,
    electric_profile, energy_density, field_divergence, field_intensity,
    log_potential, ricci_density)
field = RadialCarrier(r_o=1.0)
charge = ElectricCarrier(e=1.0, r_e=1.0, r_o=1.0)
tables = {}
for n in map(int, sys.argv[1:]):
    r = np.geomspace(1e-2, 1e2, n)
    cols = [r, energy_density(field, r), field_intensity(field, r),
            field_divergence(field, r), ricci_density(field, r),
            log_potential(field, r), *electric_profile(charge, r)]
    tables[n] = [[float(x).hex() for x in col] for col in cols]
print(json.dumps(tables))
"""


def _umath():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                 # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath


def _dispatch_targets():
    return _umath().__cpu_dispatch__


def _blas_kernels():
    """The default kernel, and those forced by OPENBLAS_CORETYPE that this
    CPU can run."""
    features = _umath().__cpu_features__
    fma = features.get("AVX2") and features.get("FMA3")
    return [None, "Prescott"] + (["Haswell"] if fma else [])


def _child(args, **variables):
    """``python args`` with flatgrav importable, numpy's dispatch and
    OpenBLAS's kernel left to the CPU unless ``variables`` set them."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    env.pop("OPENBLAS_CORETYPE", None)
    env.update({k: v for k, v in variables.items() if v is not None})
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    return proc.stdout


def _baseline(args):
    """``_child`` with numpy running only its baseline loops."""
    return _child(args, NPY_DISABLE_CPU_FEATURES=" ".join(_dispatch_targets()))


def test_array_routes_at_the_baseline_are_the_float_routes():
    tables = json.loads(_baseline(["-c", COLUMNS, *map(str, SAMPLES)]))
    field = RadialCarrier(r_o=1.0)
    charge = ElectricCarrier(e=1.0, r_e=1.0, r_o=1.0)
    for n in SAMPLES:
        radii = _geomspace(1e-2, 1e2, n)
        profile = [electric_profile(charge, x) for x in radii]
        cols = [radii,
                *([form(field, x) for x in radii]
                  for form in (energy_density, field_intensity,
                               field_divergence, ricci_density,
                               log_potential)),
                *([row[k] for row in profile] for k in range(3))]
        assert [[x.hex() for x in col] for col in cols] == tables[str(n)]


@pytest.mark.parametrize("args", [["density"], ["electric"],
                                  ["density", "--samples", "1000"],
                                  ["electric", "--samples", "1000"]])
def test_report_bytes_do_not_depend_on_the_dispatch(args):
    argv = ["-m", "flatgrav.cli", *args]
    assert _baseline(argv) == _child(argv)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_light_deflect_bytes_do_not_depend_on_the_blas_kernel(fmt):
    argv = ["-m", "flatgrav.cli", "light-deflect", "--format", fmt]
    reports = {_child(argv, OPENBLAS_CORETYPE=core)
               for core in _blas_kernels()}
    assert len(reports) == 1


def test_orbit_rows_and_radii_do_not_depend_on_the_blas_kernel():
    argv = ["-m", "flatgrav.cli", "orbit"]
    parts = set()
    for core in _blas_kernels():
        report = json.loads(_child(argv, OPENBLAS_CORETYPE=core))
        table = report["tables"]["trajectory"]
        parts.add(json.dumps([report["rows"], table["phi_rad"],
                              table["r_m"]]))
    assert len(parts) == 1
