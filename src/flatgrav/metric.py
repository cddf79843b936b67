"""Warped-time / flat-space metric built from a gravitational four-potential.

The metric is assembled from a dimensionless scalar potential ``g0 < 1`` and a
dimensionless 3-vector potential ``gi``.  The time leg of the tetrad absorbs
the whole field; the spatial triad stays the Kronecker delta, so the extracted
3-metric ``gamma_ij = g_0i g_0j / g_00 - g_ij`` is Euclidean by construction
for every admissible potential and gauge.

A rotating central body's field and its first derivatives are written once,
as floats, in ``CentralField.at``, which feeds the metric, the exact
connection (``christoffels``) and ``spin``'s transport and gyroscope rates.
The module imports numpy only inside its array routes (the metric, the
connections, ``gauge_shift`` and ``CentralField.gi``), so the float ones
(``CentralField.at`` and ``g0``, ``proper_time_rate``) run without it.

Geometric units: c = 1, lengths in meters.
"""
from __future__ import annotations

import math
import sys
from typing import (TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence,
                    Tuple)

from .errors import NumericalFailure

if TYPE_CHECKING:  # each array route imports it: the float routes skip it
    import numpy as np

EPS = sys.float_info.epsilon

Vec3 = Sequence[float]


def _zero_vector(x: Vec3) -> np.ndarray:
    import numpy as np
    return np.zeros(3)


class FourPotential(NamedTuple):
    """Gravitational four-potential: scalar part ``g0`` and vector part ``gi``.

    ``g0(x)`` is the ratio of potential energy to passive energy-charge and
    must stay below 1 wherever the metric is evaluated.  ``gi(x)`` returns the
    three spatial components.
    """

    g0: Callable[[Vec3], float]
    gi: Callable[[Vec3], np.ndarray] = _zero_vector


def _radius(x: Vec3) -> Tuple[float, float]:
    """(r, r**3) at the point ``x``, r its ``hypot``.  NumericalFailure at
    the center, and, naming r, where r^3 underflows to 0 (r below
    ~1.1e-108) or overflows (r above ~5.6e102)."""
    r = math.hypot(*x)
    if r <= 0.0:
        raise NumericalFailure("field evaluated at the center")
    try:
        r3 = r**3
    except OverflowError:
        raise NumericalFailure(f"r**3 overflows at r = {r!r}") from None
    if r3 == 0.0:
        raise NumericalFailure(f"r**3 underflows to 0 at r = {r!r}")
    return r, r3


class CentralField:
    """Field of a (rotating) central body: G0 = -r_o/r, G = 2*I*(w x x)/r^3.

    ``inertia`` is the geometrized moment of inertia G*I/c^2 (m^3), and
    ``omega`` the angular velocity in 1/m (SI omega divided by c): a
    3-sequence, or the scalar 0 for no rotation, held as a 3-tuple of
    floats.  The cross-product order gives prograde dragging at the pole: a
    spin there precesses in the sense of the body's rotation.  It serves
    wherever a FourPotential is read.  Equality goes by identity.
    """

    __slots__ = ("r_o", "inertia", "omega")

    def __init__(self, r_o: float, inertia: float = 0.0, omega=0):
        try:
            w = tuple(float(c) for c in omega)
        except TypeError:   # only "no rotation" may be written as a scalar
            w = (0.0, 0.0, 0.0) if omega == 0 else ()
        if len(w) != 3 or not all(map(math.isfinite, w)):
            raise ValueError(f"omega must be 3 finite numbers or the scalar "
                             f"0, got {omega!r}")
        if not (r_o >= 0.0 and inertia >= 0.0):     # NaN too
            raise NumericalFailure("r_o and inertia must be >= 0")
        self.r_o, self.inertia, self.omega = float(r_o), float(inertia), w

    def at(self, x) -> Tuple[float, float, float, Tuple[float, float, float]]:
        """(r, k, 3k/r^2, w x x) at the point ``x``, with k = 2*I/r^3.

        Every term of the field and of its first derivatives is built from
        these: G0 = -r_o/r, d_k G0 = r_o*x_k/r^3, G = k*(w x x), and
        d_k G_i = k*(w x e_k)_i - (3k/r^2)*x_k*(w x x)_i.  r and r^3 are
        ``_radius``'s, with its errors.
        """
        x0, x1, x2 = x
        r, r3 = _radius(x)
        w0, w1, w2 = self.omega
        k = 2.0 * self.inertia / r3
        wx = (w1 * x2 - w2 * x1, w2 * x0 - w0 * x2, w0 * x1 - w1 * x0)
        return r, k, 3.0 * k / (r * r), wx

    def g0(self, x: Vec3) -> float:
        return -self.r_o / self.at(x)[0]

    def gi(self, x: Vec3) -> np.ndarray:
        import numpy as np
        _, k, _, wx = self.at(x)
        return k * np.array(wx)


class SpacetimeMetric(NamedTuple):
    """Tetrad, covariant/contravariant metric, and the extracted 3-metric."""

    tetrad: np.ndarray  # e[alpha, mu], 4x4
    g: np.ndarray       # g_{mu nu}, 4x4
    ginv: np.ndarray    # g^{mu nu}, 4x4
    gamma: np.ndarray   # gamma_{ij}, 3x3

    @property
    def g00(self) -> float:
        return float(self.g[0, 0])


def build_metric(pot: FourPotential, at: Vec3) -> SpacetimeMetric:
    """Evaluate the metric of the warped-time construction at a spatial point.

    The time tetrad leg is e^(o)_mu = delta^(o)_mu + G_mu/(1 - G_0); the
    spatial legs are Kronecker deltas.  Raises NumericalFailure for
    g0 >= 1, where the time warp is singular in the model's own terms, and
    where ``_inverse`` overflows.
    """
    import numpy as np
    x = np.asarray(at, dtype=float)
    G0 = float(pot.g0(x))
    if G0 >= 1.0:
        raise NumericalFailure(f"g0={G0} >= 1 at {x}")
    Gi = np.asarray(pot.gi(x), dtype=float)
    ginv = _inverse(G0, Gi)         # first: it names an overflowing g0

    warp = 1.0 / (1.0 - G0)
    tetrad = np.eye(4)
    tetrad[0, 0] = 1.0 + G0 * warp  # = warp
    tetrad[0, 1:] = Gi * warp

    # g = eta_ab e^a e^b, whose spatial legs are the Kronecker deltas
    g = np.outer(tetrad[0], tetrad[0])
    g[1:, 1:] -= np.eye(3)

    gamma = np.outer(g[0, 1:], g[0, 1:]) / g[0, 0] - g[1:, 1:]
    return SpacetimeMetric(tetrad=tetrad, g=g, ginv=ginv, gamma=gamma)


def _inverse(G0: float, Gi: np.ndarray) -> np.ndarray:
    """g^{mu nu} from the potentials at a point: g^00 = (1 - G0)^2 - Gi.Gi,
    g^0i = Gi, g^ij = -delta_ij.  ``build_metric``'s inverse, and the one
    that ``christoffels`` and ``spin.spin_norm_invariant`` read without
    building the rest of the metric.  NumericalFailure, naming r_o/r =
    -G0, where (1 - G0)^2 overflows (r_o/r above ~1.3e154)."""
    import numpy as np
    try:
        lapse2 = (1.0 - G0) ** 2
    except OverflowError:
        raise NumericalFailure(f"(1 - g0)**2 overflows at r_o/r = "
                               f"{-G0!r}") from None
    ginv = np.empty((4, 4))
    ginv[0, 0] = lapse2 - Gi @ Gi
    ginv[0, 1:] = ginv[1:, 0] = Gi
    ginv[1:, 1:] = -np.eye(3)
    return ginv


def gauge_shift(pot: FourPotential,
                phi: Callable[[Vec3], float]) -> FourPotential:
    """Shift the potential by the gauge gradient: G_mu -> G_mu + d_mu(phi).

    ``phi`` is a static scalar field, so only the spatial components move.
    The gradient is taken by central finite differences with a step of
    1e-6 times the evaluation radius (at least 1e-6).  The result is a plain
    FourPotential: the exact derivatives of a CentralField do not carry over.
    """
    import numpy as np

    def gi(x: Vec3) -> np.ndarray:
        step = 1e-6 * max(float(np.linalg.norm(x)), 1.0)
        grad = np.empty(3)
        for k in range(3):
            dx = np.zeros(3)
            dx[k] = step
            grad[k] = (phi(x + dx) - phi(x - dx)) / (2.0 * step)
        return np.asarray(pot.gi(x), dtype=float) + grad

    return FourPotential(g0=pot.g0, gi=gi)


def christoffels_numeric(pot: FourPotential, at: Vec3,
                         h: Optional[float] = None) -> np.ndarray:
    """Full Christoffel array Gamma[lam, mu, nu] in Cartesian (t, x, y, z).

    Spatial metric derivatives come from central finite differences of the
    potential-built metric; the field is static, so time derivatives vanish.
    Serves as the independent oracle for closed-form connection components.

    The default step h = r*(eps/|g - eta|)^(1/3), at most r/100, balances
    the differences' rounding (eps/h against metric entries of size 1) with
    their truncation ((h/r)^2 against the field's part |g - eta|).
    """
    import numpy as np
    x = np.asarray(at, dtype=float)
    m = build_metric(pot, x)
    if h is None:
        r = max(float(np.linalg.norm(x)), 1.0)
        eta = np.diag([1.0, -1.0, -1.0, -1.0])
        departure = max(float(np.max(np.abs(m.g - eta))), EPS)
        h = r * min((EPS / departure) ** (1.0 / 3.0), 1e-2)
    dg = np.zeros((4, 4, 4))          # dg[sigma, mu, nu]; time slot stays 0
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = h
        dg[k + 1] = (build_metric(pot, x + dx).g
                     - build_metric(pot, x - dx).g) / (2.0 * h)
    return _christoffel(m.ginv, dg)


def christoffels(field: CentralField, at: Vec3) -> np.ndarray:
    """Exact Christoffel array Gamma[lam, mu, nu] in Cartesian (t, x, y, z).

    The metric g00 = (1 - g0)^-2, g0i = g00*gi, gij = g00*gi*gj - delta_ij
    is differentiated in closed form from ``CentralField.at`` and raised
    with ``build_metric``'s inverse of the same potentials
    (``_inverse``); ``christoffels_numeric`` is its finite-difference
    oracle.  The gradients dG_i[k] and dg[sigma] of all three axes are
    formed at once by broadcasting, w x e_k as a literal 3x3 of w's
    components, each product grouped as in the per-axis formulas, so every
    entry rounds as it would there (tests/test_metric.py holds the two
    bitwise).  A plain FourPotential (a gauge-shifted field, say) has no
    exact gradients and is refused with TypeError.
    """
    if not isinstance(field, CentralField):
        raise TypeError(f"christoffels needs a CentralField, got "
                        f"{type(field).__name__}; use christoffels_numeric")
    import numpy as np
    r, k, k_3, wx = field.at(at)
    x = np.asarray(at, dtype=float)
    w0, w1, w2 = field.omega
    G0 = -field.r_o / r
    Gi = k * np.array(wx)
    dG0 = field.r_o * x / r**3                          # dG0[k]
    w_cross = np.array([[0.0, w2, -w1],                 # w x e_k, row k
                        [-w2, 0.0, w0],
                        [w1, -w0, 0.0]])
    dGi = k * w_cross - k_3 * (x[:, None] * wx)         # dGi[k, i]
    warp = 1.0 / (1.0 - G0)
    g00 = warp**2
    dg00 = 2.0 * warp**3 * dG0        # dg00[k]

    dg = np.zeros((4, 4, 4))          # dg[sigma, mu, nu]; time slot stays 0
    dg[1:, 0, 0] = dg00
    dg[1:, 0, 1:] = dg[1:, 1:, 0] = dg00[:, None] * Gi + g00 * dGi
    dGG = dGi[:, :, None] * Gi        # dGG[k, i, j] = dGi[k, i]*Gi[j]
    dg[1:, 1:, 1:] = (dg00[:, None, None] * (Gi[:, None] * Gi)
                      + g00 * (dGG + dGG.transpose(0, 2, 1)))
    return _christoffel(_inverse(G0, Gi), dg)


def _christoffel(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[lam, mu, nu] from the inverse metric and the metric gradient.

    ``dg[sigma, mu, nu]`` = d_sigma g_{mu nu}, with the time slot zero for
    a static field.
    """
    import numpy as np
    brackets = np.einsum("msn->smn", dg) + np.einsum("nsm->smn", dg) - dg
    # brackets[s, m, n] = d_m g_{s n} + d_n g_{s m} - d_s g_{m n}
    return 0.5 * np.einsum("ls,smn->lmn", ginv, brackets)


def proper_time_rate(ldot: float, r_o_over_r: float, energy_ratio: float,
                     max_iter: int = 200) -> float:
    """Solve the nonlinear proper-time relation for dtau/dt by fixed point.

    Iterates X <- 1 - (r_o/r)*(E_m/m)*sqrt(1 - ldot^2/X^2) from X = 1 until
    a step moves X by less than 1e-14.
    ``ldot`` is the coordinate speed dl/dt (c = 1).  For mutually consistent
    ``ldot`` and ``energy_ratio`` the fixed point is 1/(1 + r_o/r).
    """
    if not 0.0 <= ldot < 1.0:
        raise NumericalFailure(f"ldot must satisfy 0 <= ldot < 1, got {ldot}")
    x = 1.0
    for _ in range(max_iter):
        arg = 1.0 - (ldot / x) ** 2
        if arg < 0.0:
            raise NumericalFailure(
                f"implied physical speed exceeds 1 (ldot={ldot}, dtau/dt={x})"
            )
        x_next = 1.0 - r_o_over_r * energy_ratio * math.sqrt(arg)
        if abs(x_next - x) < 1e-14:
            return x_next
        x = x_next
    raise NumericalFailure(f"no fixed point after {max_iter} iterations")
