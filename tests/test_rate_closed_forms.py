"""The gyroscope rates are their plain closed forms, bit for bit, in range.

``spin`` forms each rate in units of the orbit radius and rescales it by a
power of two, so that it keeps its digits where a factor such as 2I/r^3 or
r_o/r^3 leaves the normal float range.  Scaling by a power of two is exact,
so wherever every factor stays in range the rates must be the unscaled
forms written below, in the same order of operations, to the last bit.
The configs are seeded and log-uniform in 1e-30..1e30, where every factor
of every form is a normal float.  No numpy or scipy: the oracle is plain
float arithmetic.
"""
import math
import random
import struct

import pytest

from flatgrav.spin import (RotatingFieldSpec, circular_polar_orbit,
                           de_sitter_rate, frame_dragging, geodetic)

N_CONFIGS = 2000


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def drag_oracle(inertia, omega, x):
    r = math.hypot(*x)
    k = 2.0 * inertia / r**3
    h = [c / r for c in x]
    wh = omega[0] * h[0] + omega[1] * h[1] + omega[2] * h[2]
    return tuple(0.5 * k * (3.0 * c * wh - w) for c, w in zip(h, omega))


def geodetic_oracle(r_o, inertia, omega, x, v):
    r3 = math.hypot(*x) ** 3
    k = 2.0 * inertia / r3
    b = [r_o * c / r3 for c in x]                       # grad(G0)
    a = [c / 2.0 - k * g for c, g in zip(v, cross(omega, x))]
    return cross(b, a)                                  # -(a x b)


def de_sitter_oracle(r_o, x, v):
    f = 1.5 * r_o / math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2]) ** 3
    return tuple(f * c for c in cross(x, v))


def orbit_oracle(radius, r_o):
    """nu, the period and the speed of the circular orbit."""
    nu = math.sqrt(r_o / radius**3)
    return nu, 2.0 * math.pi / nu, radius * nu


def configs():
    """(r_o, inertia, omega, x, v, radius), log-uniform with random signs."""
    rng = random.Random(2718)

    def mag():
        return 10.0 ** rng.uniform(-30.0, 30.0)

    def vec():
        return tuple(rng.choice((-1.0, 1.0)) * mag() for _ in range(3))

    return [(mag(), mag(), vec(), vec(), vec(), mag())
            for _ in range(N_CONFIGS)]


CONFIGS = configs()


def bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def assert_bitwise(rows):
    """rows: (config, got, want); every differing config is named."""
    bad = [config for config, got, want in rows if bits(got) != bits(want)]
    assert not bad, f"{len(bad)} of {len(rows)} differ, first {bad[0]}"


def test_frame_dragging_is_the_closed_form():
    rows = []
    for r_o, inertia, omega, x, _, radius in CONFIGS:
        spec = RotatingFieldSpec(r_o, inertia, omega)
        for point in (x, (0.0, 0.0, radius), (radius, 0.0, 0.0)):
            rows.append(((inertia, omega, point), frame_dragging(spec, point),
                         drag_oracle(inertia, omega, point)))
    assert_bitwise(rows)


def test_geodetic_is_the_closed_form():
    rows = []
    for r_o, inertia, omega, x, v, _ in CONFIGS:
        spec = RotatingFieldSpec(r_o, inertia, omega)
        rows.append(((r_o, inertia, omega, x, v), geodetic(spec, x, v),
                     geodetic_oracle(r_o, inertia, omega, x, v)))
    assert_bitwise(rows)


def test_de_sitter_rate_is_the_closed_form():
    rows = [((r_o, x, v), de_sitter_rate(r_o, x, v),
             de_sitter_oracle(r_o, x, v))
            for r_o, _, _, x, v, _ in CONFIGS]
    assert_bitwise(rows)


def test_circular_polar_orbit_is_the_closed_form():
    rows = []
    for r_o, inertia, omega, _, _, radius in CONFIGS:
        position, velocity, nu, period = circular_polar_orbit(radius, r_o)
        x0, v0 = position(0.0), velocity(0.0)
        rows.append(((radius, r_o), (nu, period, v0[2]),
                     orbit_oracle(radius, r_o)))
        # the rates gyro prints, at the orbit's start
        spec = RotatingFieldSpec(r_o, inertia, omega)
        rows.append(((r_o, inertia, omega, radius),
                     geodetic(spec, x0, v0) + de_sitter_rate(r_o, x0, v0),
                     geodetic_oracle(r_o, inertia, omega, x0, v0)
                     + de_sitter_oracle(r_o, x0, v0)))
    assert_bitwise(rows)


@pytest.mark.parametrize("form", [drag_oracle, geodetic_oracle,
                                  de_sitter_oracle, orbit_oracle])
def test_the_configs_give_normal_rates(form):
    # were a rate subnormal or infinite, its bits would be the rounding of
    # the range's edge, and bitwise agreement no longer the right claim
    tiny = 2.0 ** -1022
    for r_o, inertia, omega, x, v, radius in CONFIGS:
        args = {drag_oracle: (inertia, omega, x),
                geodetic_oracle: (r_o, inertia, omega, x, v),
                de_sitter_oracle: (r_o, x, v),
                orbit_oracle: (radius, r_o)}[form]
        assert all(c == 0.0 or tiny <= abs(c) < math.inf
                   for c in form(*args))
