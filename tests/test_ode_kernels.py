"""The DOP853 step's compiled kernels add as a plain loop adds.

``ode._kernels(n)`` writes each stage sum, error estimate and dense-output
sum of a state of n components as straight-line Python.  Here each kernel
is held bitwise to a left-to-right loop over the same (j, a) pairs, from
0.0, on seeded stages that mix -0.0, subnormal and huge entries in: the
0.0 start decides the sign of a zero sum, and the order of the terms the
rounding, the overflow and the nan of the others.  No scipy is needed.
"""
import math
import random
import struct

import pytest

from flatgrav import ode

LENGTHS = (1, 2, 3, 4, 9, 16)
SPECIAL = (-0.0, 0.0, 5e-324, -2.5e-310, 1e-300, 1.7e308, -1.5e308, 1e300)


def bits(values):
    """The IEEE bits of each float: -0.0 and each nan payload count."""
    return [struct.pack("<d", v) for v in values]


def entry(rng):
    """A float of any magnitude, or one of the special values."""
    if rng.random() < 0.3:
        return rng.choice(SPECIAL)
    return rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(-8, 8)


def stages_of(n, seed):
    """Seeded stages K[i][s] of n components.  Component 0 is all -0.0 and
    component 1 all subnormal, so their sums add zeros or the last bits of
    a float to the 0.0 they start from."""
    rng = random.Random(seed)
    K = [[entry(rng) for _ in range(16)] for _ in range(n)]
    K[0] = [-0.0] * 16
    if n > 1:
        K[1] = [rng.choice((5e-324, -5e-324, 2.5e-310)) for _ in range(16)]
    return K


def loop_sum(pairs, k):
    acc = 0.0
    for j, a in pairs:
        acc += a * k[j]
    return acc


def loop_stages(first, last, fun, t, y, h, K):
    """Stages first, ..., last - 1 as a loop: each stage state, then fun."""
    for s in range(first, last):
        ys = [loop_sum(ode._A[s], K_i) * h + y_i for K_i, y_i in zip(K, y)]
        for K_i, v in zip(K, fun(t + ode.C[s] * h, ys)):
            K_i[s] = v
    return ys


def recording_fun(n, seed):
    """A right-hand side that records each call's (t, state) and returns
    the next n seeded floats: the same values for the same calls."""
    rng, calls = random.Random(seed), []

    def fun(t, y):
        calls.append(bits([t, *y]))
        return [entry(rng) for _ in range(n)]
    return fun, calls


def run_stages(kernel, first, last, n, seed):
    """(calls, returned state, stages) of ``kernel`` on seeded input, each
    as IEEE bits, or of the loop where ``kernel`` is None."""
    rng = random.Random(seed)
    t, h = rng.uniform(-10.0, 10.0), rng.choice((1e-300, 1e-3, 0.7, 1e300))
    # with K[0] all -0.0, stage 1's state is (0.0 + a*-0.0)*h + -0.0 = 0.0
    y = [-0.0] + [entry(rng) for _ in range(n - 1)]
    K = stages_of(n, seed)
    fun, calls = recording_fun(n, seed + 1)
    if kernel is None:
        ys = loop_stages(first, last, fun, t, y, h, K)
    else:
        ys = kernel(fun, t, y, h, K)
    return calls, bits(ys), [bits(K_i) for K_i in K]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", LENGTHS)
def test_stages_1_to_12_add_as_the_loop(n, seed):
    kernel = ode._kernels(n).stages
    assert run_stages(kernel, 1, ode.N_STAGES + 1, n, seed) == \
        run_stages(None, 1, ode.N_STAGES + 1, n, seed)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", LENGTHS)
def test_stages_13_to_15_add_as_the_loop(n, seed):
    kernel = ode._kernels(n).extra
    assert run_stages(kernel, ode.N_STAGES + 1, 16, n, seed) == \
        run_stages(None, ode.N_STAGES + 1, 16, n, seed)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", LENGTHS)
def test_error_and_dense_output_sums_add_as_the_loop(n, seed):
    kernels = ode._kernels(n)
    K = stages_of(n, seed)
    for kernel, pairs in ((kernels.e5, ode.E5), (kernels.e3, ode.E3),
                          *zip(kernels.d, ode.D)):
        assert bits(kernel(K)) == bits([loop_sum(pairs, k) for k in K])


def test_a_sum_of_negative_zeros_is_positive_zero():
    # each term a*k is -0.0, and the loop starts from 0.0: 0.0 + -0.0 is 0.0
    kernels = ode._kernels(1)
    for kernel, pairs in ((kernels.e5, ode.E5), (kernels.e3, ode.E3),
                          *zip(kernels.d, ode.D)):
        K = [[0.0] * 16]
        for j, a in pairs:
            K[0][j] = math.copysign(0.0, -a)
        assert bits(kernel(K)) == bits([0.0])


def test_kernels_are_built_once_per_length():
    assert ode._kernels(3) is ode._kernels(3)
    assert ode._kernels(3) is not ode._kernels(4)
