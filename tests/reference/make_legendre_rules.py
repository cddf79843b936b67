"""Write ``src/flatgrav/legendre_rules.f64``: the Gauss-Legendre rules that
``flatgrav.quadrature`` reads.

Run from the repository root (numpy required):

    python tests/reference/make_legendre_rules.py

The file holds the rules n = 16, 32, ..., 1024 on [-1, 1], each as its n
nodes in ascending order then its n weights, as little-endian doubles from
``numpy.polynomial.legendre.leggauss``, which makes the nodes antisymmetric
and the weights symmetric bit for bit.  Rule n starts at double 2*(n - 16).
A process that integrates only floats then needs neither numpy nor the
eigenvalue solve that builds each rule.
"""
import sys
from array import array
from pathlib import Path

import numpy as np

OUT = (Path(__file__).resolve().parents[2] / "src" / "flatgrav"
       / "legendre_rules.f64")
SIZES = [16 << k for k in range(7)]          # 16 ... 1024


def main() -> None:
    table = array("d")
    for n in SIZES:
        x, w = np.polynomial.legendre.leggauss(n)
        table.extend(x.tolist())
        table.extend(w.tolist())
    if sys.byteorder == "big":
        table.byteswap()
    OUT.write_bytes(table.tobytes())
    print(f"wrote {OUT} ({len(table)} doubles)")


if __name__ == "__main__":
    main()
