"""Reports do not depend on the CPU: neither on numpy's SIMD level nor on
the kernel OpenBLAS picks.

numpy's vector ``log1p`` and ``power`` loops may differ from the C library
by an ulp, and which loop runs depends on the CPU.  The ``density`` and
``electric`` tables are built from floats with ``math`` and ``**``, the C
library's functions, so the subcommands print the same bytes in a child
with every dispatch target of numpy disabled as without it.

OpenBLAS's kernels add a product's terms in different orders, with or
without fused multiply-adds.  The DOP853 stepper adds in floats, and the
orbit clocks with numpy's pairwise sum and ``einsum``, never a BLAS
product, so ``light-deflect`` and the whole ``orbit`` report print the
same bytes whichever kernel OpenBLAS runs: the default, Haswell (FMA) or
Prescott (generic); ``orbit`` at numpy's baseline loops too."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_orbit_rows_and_radii_do_not_depend_on_the_blas_kernel(tmp_path):
    # the json report, and the csv one --out writes with its table
    reports = set()
    for i, core in enumerate(_blas_kernels()):
        for dispatch in (None, " ".join(_dispatch_targets())):
            cpu = dict(OPENBLAS_CORETYPE=core,
                       NPY_DISABLE_CPU_FEATURES=dispatch)
            out = tmp_path / f"orbit{i}{dispatch is None}.csv"
            printed = _child(["-m", "flatgrav.cli", "orbit"], **cpu)
            _child(["-m", "flatgrav.cli", "orbit", "--format", "csv",
                    "--out", str(out)], **cpu)
            table = out.with_name(f"{out.stem}_trajectory.csv")
            reports.add((printed, out.read_bytes(), table.read_bytes()))
    assert len(reports) == 1
