"""Warped-time / flat-space metric built from a gravitational four-potential.

The metric is assembled from a dimensionless scalar potential ``g0 < 1`` and a
dimensionless 3-vector potential ``gi``.  The time leg of the tetrad absorbs
the whole field; the spatial triad stays the Kronecker delta, so the extracted
3-metric ``gamma_ij = g_0i g_0j / g_00 - g_ij`` is Euclidean by construction
for every admissible potential and gauge.

Geometric units: c = 1, lengths in meters.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidSpeed, NoConvergence, NonPositiveRadius, PotentialOutOfRange

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
EPS = float(np.finfo(float).eps)

Vec3 = np.ndarray


def _zero_vector(x: Vec3) -> Vec3:
    return np.zeros(3)


@dataclass(frozen=True)
class FourPotential:
    """Gravitational four-potential: scalar part ``g0`` and vector part ``gi``.

    ``g0(x)`` is the ratio of potential energy to passive energy-charge and
    must stay below 1 wherever the metric is evaluated.  ``gi(x)`` returns the
    three spatial components.
    """

    g0: Callable[[Vec3], float]
    gi: Callable[[Vec3], Vec3] = _zero_vector


# omega is an array, so == and hash go by identity
@dataclass(frozen=True, eq=False)
class CentralField:
    """Field of a (rotating) central body with its exact first derivatives.

    g0 = -r_o/r and gi = 2*I*(w x x)/r^3.  ``inertia`` is the geometrized
    moment of inertia G*I/c^2 (m^3) and ``omega`` the angular velocity in
    1/m (SI omega divided by c; a scalar 0 means no rotation).  The
    cross-product order is fixed by requiring prograde dragging at the pole:
    a spin there precesses in the same sense as the body's rotation.  It
    serves wherever a FourPotential is read, and ``christoffels`` takes its
    connection from ``dg0`` and ``dgi`` in closed form.
    """

    r_o: float
    inertia: float = 0.0      # geometrized moment of inertia (m^3)
    omega: Vec3 = 0           # angular velocity vector (1/m)

    def __post_init__(self):
        omega = np.array(self.omega, dtype=float)
        if omega.shape != (3,):
            # only "no rotation" may be written as a scalar
            if omega.shape or omega != 0.0:
                raise ValueError(f"omega must be a 3-vector or the scalar 0, "
                                 f"got {self.omega!r}")
            omega = np.zeros(3)
        object.__setattr__(self, "omega", omega)
        if self.r_o < 0.0 or self.inertia < 0.0:
            raise NonPositiveRadius("r_o and inertia must be >= 0")

    def g0(self, x: Vec3) -> float:
        return -self.r_o / _radius(x)

    def gi(self, x: Vec3) -> Vec3:
        return 2.0 * self.inertia * np.cross(self.omega, x) / _radius(x)**3

    def dg0(self, x: Vec3) -> Vec3:
        """d_k g0 = r_o * x_k / r^3."""
        return self.r_o * np.asarray(x, dtype=float) / _radius(x)**3

    def dgi(self, x: Vec3) -> np.ndarray:
        """Jacobian dgi[k, i] = d_k gi_i of the vector potential."""
        x = np.asarray(x, dtype=float)
        r = _radius(x)
        wx = np.cross(self.omega, x)
        # d_k [w x x]_i = [w x e_k]_i, one row per e_k
        w_cross_e = np.cross(self.omega, np.eye(3))
        return 2.0 * self.inertia * (
            w_cross_e / r**3 - 3.0 * np.outer(x, wx) / r**5
        )


def _radius(x: Vec3) -> float:
    r = np.linalg.norm(x)
    if r <= 0.0:
        raise NonPositiveRadius("field evaluated at the center")
    return r


@dataclass(frozen=True)
class SpacetimeMetric:
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
    spatial legs are Kronecker deltas.  Raises PotentialOutOfRange for
    g0 >= 1, where the time warp is singular in the model's own terms.
    """
    x = np.asarray(at, dtype=float)
    G0 = float(pot.g0(x))
    if G0 >= 1.0:
        raise PotentialOutOfRange(f"g0={G0} >= 1 at {x}")
    Gi = np.asarray(pot.gi(x), dtype=float)

    warp = 1.0 / (1.0 - G0)
    tetrad = np.eye(4)
    tetrad[0, 0] = 1.0 + G0 * warp  # = warp
    tetrad[0, 1:] = Gi * warp

    g = ETA[0, 0] * np.outer(tetrad[0], tetrad[0])
    for b in range(1, 4):
        g += ETA[b, b] * np.outer(tetrad[b], tetrad[b])

    ginv = np.empty((4, 4))
    ginv[0, 0] = (1.0 - G0) ** 2 - Gi @ Gi
    ginv[0, 1:] = Gi
    ginv[1:, 0] = Gi
    ginv[1:, 1:] = -np.eye(3)

    gamma = np.outer(g[0, 1:], g[0, 1:]) / g[0, 0] - g[1:, 1:]
    return SpacetimeMetric(tetrad=tetrad, g=g, ginv=ginv, gamma=gamma)


def gauge_shift(pot: FourPotential,
                phi: Callable[[Vec3], float]) -> FourPotential:
    """Shift the potential by the gauge gradient: G_mu -> G_mu + d_mu(phi).

    ``phi`` is a static scalar field, so only the spatial components move.
    The gradient is taken by central finite differences with a step of
    1e-6 times the evaluation radius (at least 1e-6).  The result is a plain
    FourPotential: the exact derivatives of a CentralField do not carry over.
    """
    def gi(x: Vec3) -> Vec3:
        step = 1e-6 * max(float(np.linalg.norm(x)), 1.0)
        grad = np.empty(3)
        for k in range(3):
            dx = np.zeros(3)
            dx[k] = step
            grad[k] = (phi(x + dx) - phi(x - dx)) / (2.0 * step)
        return np.asarray(pot.gi(x), dtype=float) + grad

    return FourPotential(g0=pot.g0, gi=gi)


def metric_gradient_numeric(pot: FourPotential, at: Vec3, h: float) -> np.ndarray:
    """Spatial finite-difference gradient dg[k, mu, nu] of the full metric."""
    x = np.asarray(at, dtype=float)
    dg = np.empty((3, 4, 4))
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = h
        gp = build_metric(pot, x + dx).g
        gm = build_metric(pot, x - dx).g
        dg[k] = (gp - gm) / (2.0 * h)
    return dg


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
    x = np.asarray(at, dtype=float)
    m = build_metric(pot, x)
    if h is None:
        r = max(float(np.linalg.norm(x)), 1.0)
        departure = max(float(np.max(np.abs(m.g - ETA))), EPS)
        h = r * min((EPS / departure) ** (1.0 / 3.0), 1e-2)
    dg3 = metric_gradient_numeric(pot, x, h)
    dg = np.zeros((4, 4, 4))
    dg[1:] = dg3
    return _christoffel(m.ginv, dg)


def christoffels(field: CentralField, at: Vec3) -> np.ndarray:
    """Exact Christoffel array Gamma[lam, mu, nu] in Cartesian (t, x, y, z).

    The metric g00 = (1 - g0)^-2, g0i = g00*gi, gij = g00*gi*gj - delta_ij
    is differentiated in closed form from the field's exact gradients;
    ``christoffels_numeric`` is its finite-difference oracle.  A plain
    FourPotential (a gauge-shifted field, say) has no exact gradients and is
    refused with TypeError.
    """
    if not isinstance(field, CentralField):
        raise TypeError(f"christoffels needs a CentralField, got "
                        f"{type(field).__name__}; use christoffels_numeric")
    x = np.asarray(at, dtype=float)
    G0 = field.g0(x)
    Gi = field.gi(x)
    dG0 = field.dg0(x)                # dG0[k]
    dGi = field.dgi(x)                # dGi[k, i]

    warp = 1.0 / (1.0 - G0)
    g00 = warp**2
    dg00 = 2.0 * warp**3 * dG0        # dg00[k]

    ginv = np.empty((4, 4))
    ginv[0, 0] = (1.0 - G0) ** 2 - Gi @ Gi
    ginv[0, 1:] = ginv[1:, 0] = Gi
    ginv[1:, 1:] = -np.eye(3)

    dg = np.zeros((4, 4, 4))          # dg[sigma, mu, nu]; time slot stays 0
    for k in range(3):
        s = k + 1
        dg[s, 0, 0] = dg00[k]
        row = dg00[k] * Gi + g00 * dGi[k]
        dg[s, 0, 1:] = dg[s, 1:, 0] = row
        dg[s, 1:, 1:] = (dg00[k] * np.outer(Gi, Gi)
                         + g00 * (np.outer(dGi[k], Gi)
                                  + np.outer(Gi, dGi[k])))
    return _christoffel(ginv, dg)


def _christoffel(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[lam, mu, nu] from the inverse metric and the metric gradient.

    ``dg[sigma, mu, nu]`` = d_sigma g_{mu nu}, with the time slot zero for
    a static field.
    """
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
        raise InvalidSpeed(f"ldot must satisfy 0 <= ldot < 1, got {ldot}")
    x = 1.0
    for _ in range(max_iter):
        arg = 1.0 - (ldot / x) ** 2
        if arg < 0.0:
            raise InvalidSpeed(
                f"implied physical speed exceeds 1 (ldot={ldot}, dtau/dt={x})"
            )
        x_next = 1.0 - r_o_over_r * energy_ratio * np.sqrt(arg)
        if abs(x_next - x) < 1e-14:
            return x_next
        x = x_next
    raise NoConvergence(f"no fixed point after {max_iter} iterations")
