"""The DOP853 step's compiled kernels add as a plain loop adds.

``ode._kernels(n)`` writes the two kernels of a step for a state of n
components as straight-line Python: ``step`` (stages 1-12 and the error
norm) and ``dense`` (stages 13-15 and the interpolant's coefficients).
Here each is held bitwise to loops over the same (j, a) pairs, from 0.0,
and to the error norm written as a function of the stages, on seeded
stages that mix -0.0, subnormal and huge entries in: the 0.0 start decides
the sign of a zero sum, the order of the terms the rounding, the overflow
and the nan of the others, and the lanes of the sums of squares the
rounding of the norm.  No scipy is needed.
"""
import math
import random
import struct

import pytest

from flatgrav import ode

LENGTHS = (1, 2, 3, 4, 9, 16)
SPECIAL = (-0.0, 0.0, 5e-324, -2.5e-310, 1e-300, 1.7e308, -1.5e308, 1e300)
WIDTH = ode.N_STAGES + 1        # the stages a step keeps in K[i]


def bits(values):
    """The IEEE bits of each float: -0.0 and each nan payload count."""
    return [struct.pack("<d", v) for v in values]


def entry(rng):
    """A float of any magnitude, or one of the special values."""
    if rng.random() < 0.3:
        return rng.choice(SPECIAL)
    return rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(-8, 8)


def stages_of(n, seed):
    """Seeded stages K[i][s], s < 16, of n components.  Component 0 is all
    -0.0 and component 1 all subnormal, so their sums add zeros or the last
    bits of a float to the 0.0 they start from."""
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


def error_norm(K, h, scale):
    """RMS norm of the error estimate, E5 damped by E3 as in dop853, from
    the stages K (K[i][s], component i of stage s), its squares summed by
    ``ode._sum_of_squares`` as scipy squares ``np.linalg.norm``."""
    err5 = [loop_sum(ode.E5, k) / s for k, s in zip(K, scale)]
    err3 = [loop_sum(ode.E3, k) / s for k, s in zip(K, scale)]
    err5_norm_2 = math.sqrt(ode._sum_of_squares(err5)) ** 2
    err3_norm_2 = math.sqrt(ode._sum_of_squares(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return h * err5_norm_2 / math.sqrt(denom * len(scale))


def loop_step(fun, t, y, h, K, atol, rtol):
    """``step`` as loops: stages 1-12 into K, then (y_new, error norm)."""
    y_new = loop_stages(1, ode.N_STAGES + 1, fun, t, y, h, K)
    scale = [atol + max(abs(a), abs(b)) * rtol for a, b in zip(y, y_new)]
    return y_new, error_norm(K, h, scale)


def loop_dense(fun, t, y, y_new, h, K):
    """``dense`` as loops: stages 13-15 into K, then F[6], ..., F[0] and
    the stage at the step's end."""
    loop_stages(ode.N_STAGES + 1, 16, fun, t, y, h, K)
    delta_y = [b - a for a, b in zip(y, y_new)]
    F = [delta_y,
         [h * K_i[0] - d for K_i, d in zip(K, delta_y)],
         [2 * d - h * (K_i[ode.N_STAGES] + K_i[0])
          for K_i, d in zip(K, delta_y)]]
    F += [[h * loop_sum(row, K_i) for K_i in K] for row in ode.D]
    return F[::-1], [K_i[ode.N_STAGES] for K_i in K]


def recording_fun(n, seed, draw=entry):
    """A right-hand side that records each call's (t, state) and returns
    the next n seeded floats: the same values for the same calls."""
    rng, calls = random.Random(seed), []

    def fun(t, y):
        calls.append(bits([t, *y]))
        return [draw(rng) for _ in range(n)]
    return fun, calls


def setup(n, seed):
    """Seeded (t, y, h, atol, rtol) of a step; y[0] is -0.0, so with
    K[0] all -0.0 stage 1's state is (0.0 + a*-0.0)*h + -0.0 = 0.0."""
    rng = random.Random(seed)
    t, h = rng.uniform(-10.0, 10.0), rng.choice((1e-300, 1e-3, 0.7, 1e300))
    y = [-0.0] + [entry(rng) for _ in range(n - 1)]
    atol = rng.choice((1e-300, 1e-12, 1.0, 1e300))
    rtol = rng.choice((0.0, 1e-300, 1e-12, 1.0))
    return t, y, h, atol, rtol


def run_step(n, seed, loop):
    """(calls, y_new, error norm, stages) of ``step`` on seeded input, each
    as IEEE bits, or of ``loop_step`` where ``loop`` is set."""
    t, y, h, atol, rtol = setup(n, seed)
    K = stages_of(n, seed)
    fun, calls = recording_fun(n, seed + 1)
    if loop:
        y_new, norm = loop_step(fun, t, y, h, K, atol, rtol)
    else:
        K = [K_i[:WIDTH] for K_i in K]
        y_new, norm = ode._kernels(n).step(fun, t, y, h, K, atol, rtol)
    return calls, bits(y_new), bits([norm]), [bits(K_i[:WIDTH]) for K_i in K]


def run_dense(n, seed, loop):
    """(calls, F_rev, fy) of ``dense`` on seeded stages 0-12, each as IEEE
    bits, or of ``loop_dense`` where ``loop`` is set."""
    t, y, h, _, _ = setup(n, seed)
    y_new = [entry(random.Random(seed + 2)) for _ in range(n)]
    K = stages_of(n, seed)
    fun, calls = recording_fun(n, seed + 1)
    if loop:
        F_rev, fy = loop_dense(fun, t, y, y_new, h, K)
    else:
        F_rev, fy = ode._kernels(n).dense(fun, t, y, y_new, h,
                                          [K_i[:WIDTH] for K_i in K])
    return calls, [bits(row) for row in F_rev], bits(fy)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", LENGTHS)
def test_stages_1_to_12_add_as_the_loop(n, seed):
    # each fun call's (t, state), y_new, the error norm and the stages
    # written into K
    assert run_step(n, seed, loop=False) == run_step(n, seed, loop=True)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", LENGTHS)
def test_stages_13_to_15_add_as_the_loop(n, seed):
    # each fun call's (t, state), and f at the step's end
    kernel, loop = run_dense(n, seed, loop=False), run_dense(n, seed, True)
    assert kernel[0] == loop[0] and kernel[2] == loop[2]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", LENGTHS)
def test_error_and_dense_output_sums_add_as_the_loop(n, seed):
    # the seven rows F[6], ..., F[0] of the interpolant, and the error norm
    # of stages of comparable size, whose sums of squares round
    # differently in another order
    kernel, loop = run_dense(n, seed, loop=False), run_dense(n, seed, True)
    assert kernel[1] == loop[1]
    step = ode._kernels(n).step
    for draw in range(50):
        rng = random.Random(1000 * seed + draw)
        y = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        k0 = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        norms = []
        for kernel, width in ((step, WIDTH), (loop_step, 16)):
            fun, _ = recording_fun(n, draw, lambda r: r.uniform(-1.0, 1.0))
            K = [[v] * width for v in k0]
            norms.append(kernel(fun, 0.0, y, 0.25, K, 1e-6, 1e-3)[1])
        assert bits(norms[:1]) == bits(norms[1:])


def test_a_sum_of_negative_zeros_is_positive_zero():
    # each term a*k of a dense-output row is -0.0, and the sum starts from
    # 0.0: 0.0 + -0.0 is 0.0, and h*0.0 is 0.0
    dense = ode._kernels(1).dense
    for r, pairs in enumerate(ode.D):
        K = [[0.0] * 16]
        for j, a in pairs:
            K[0][j] = math.copysign(0.0, -a)
        extra = iter([K[0][s]] for s in range(ode.N_STAGES + 1, 16))
        F_rev, _ = dense(lambda t, y: next(extra), 0.0, [0.0], [0.0], 1.0,
                         [K[0][:WIDTH]])
        assert bits(F_rev[len(ode.D) - 1 - r]) == bits([0.0])


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("h, accepted", [(0.05, True), (40.0, False)])
def test_a_step_is_accepted_or_rejected_as_the_loop_decides(n, h, accepted):
    # y' = -y from y_i = i + 1: a short step is accepted (norm < 1), a
    # long one rejected (norm >= 1)
    def fun(t, y):
        return [-v for v in y]
    y = [float(i + 1) for i in range(n)]
    K = [[-v] + [0.0] * ode.N_STAGES for v in y]
    got = ode._kernels(n).step(fun, 0.0, y, h, K, 1e-9, 1e-6)
    want = loop_step(fun, 0.0, y, h, [[-v] + [0.0] * 15 for v in y],
                     1e-9, 1e-6)
    assert bits(got[0]) == bits(want[0])
    assert bits([got[1]]) == bits([want[1]])
    assert (got[1] < 1) == accepted


@pytest.mark.parametrize("n", LENGTHS)
def test_an_all_zero_error_is_zero(n):
    # E5 and E3 both vanish: the norm is 0.0, not 0/0
    K = [[0.0] * WIDTH for _ in range(n)]
    y_new, norm = ode._kernels(n).step(lambda t, y: [0.0] * n, 0.0,
                                       [1.0] * n, 0.5, K, 1e-12, 1e-12)
    assert bits([norm]) == bits([0.0]) and y_new == [1.0] * n


def test_kernels_are_built_once_per_length():
    assert ode._kernels(3) is ode._kernels(3)
    assert ode._kernels(3) is not ode._kernels(4)
