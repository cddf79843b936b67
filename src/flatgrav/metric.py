"""Warped-time / flat-space metric built from a gravitational four-potential.

The metric is assembled from a dimensionless scalar potential ``g0 < 1`` and a
dimensionless 3-vector potential ``gi``.  The time leg of the tetrad absorbs
the whole field; the spatial triad stays the Kronecker delta, so the extracted
3-metric ``gamma_ij = g_0i g_0j / g_00 - g_ij`` is Euclidean by construction
for every admissible potential and gauge.

Geometric units: c = 1, lengths in meters.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import InvalidSpeed, NoConvergence, NonPositiveRadius, PotentialOutOfRange

ETA = np.diag([1.0, -1.0, -1.0, -1.0])

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
    name: str = "custom"


def central_potential(r_o: float) -> FourPotential:
    """Static attractive potential g0(r) = -r_o/r of a central energy-charge."""
    if r_o < 0:
        raise NonPositiveRadius(f"r_o must be >= 0, got {r_o}")

    def g0(x: Vec3) -> float:
        r = float(np.linalg.norm(x))
        if r <= 0:
            raise NonPositiveRadius("potential evaluated at the center")
        return -r_o / r

    return FourPotential(g0=g0, name="central")


def rotating_central_potential(r_o: float, inertia: float, omega: Vec3) -> FourPotential:
    """Central potential plus the weak-rotation vector part 2*I*[w x r]/r^3.

    ``inertia`` is the geometrized moment of inertia G*I/c^2 (m^3) and
    ``omega`` the angular velocity in 1/m (SI omega divided by c).  The
    cross-product order is fixed by requiring prograde dragging at the pole:
    a spin there precesses in the same sense as the body's rotation.
    """
    base = central_potential(r_o)
    w = np.asarray(omega, dtype=float)

    def gi(x: Vec3) -> Vec3:
        r = float(np.linalg.norm(x))
        if r <= 0:
            raise NonPositiveRadius("potential evaluated at the center")
        return 2.0 * inertia * np.cross(w, x) / r**3

    return FourPotential(g0=base.g0, gi=gi, name="rotating-central")


def potential_preset(name: str, **params) -> FourPotential:
    """Look up a potential preset by name: central | rotating-central | custom-grid."""
    if name == "central":
        return central_potential(params["r_o"])
    if name == "rotating-central":
        return rotating_central_potential(
            params["r_o"], params["inertia"], params["omega"]
        )
    if name == "custom-grid":
        return FourPotential(
            g0=params["g0"], gi=params.get("gi", _zero_vector), name="custom-grid"
        )
    raise KeyError(f"unknown potential preset {name!r}")


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


def gauge_shift(pot: FourPotential, phi: Callable[[Vec3], float],
                h: Optional[float] = None) -> FourPotential:
    """Shift the potential by the gauge gradient: G_mu -> G_mu + d_mu(phi).

    ``phi`` is a static scalar field, so only the spatial components move.
    The gradient is taken by central finite differences with step ``h``
    (default 1e-6 times the evaluation radius).
    """
    def gi(x: Vec3) -> Vec3:
        step = h if h is not None else 1e-6 * max(float(np.linalg.norm(x)), 1.0)
        grad = np.empty(3)
        for k in range(3):
            dx = np.zeros(3)
            dx[k] = step
            grad[k] = (phi(x + dx) - phi(x - dx)) / (2.0 * step)
        return np.asarray(pot.gi(x), dtype=float) + grad

    return replace(pot, gi=gi, name=pot.name + "+gauge")


def g00_central(r_o: float, r: float) -> float:
    """Central-field time-time component g00 = (1 + r_o/r)^-2."""
    if r <= 0:
        raise NonPositiveRadius(f"r must be > 0, got {r}")
    return (1.0 + r_o / r) ** -2


def dg00_dr_central(r_o: float, r: float) -> float:
    """Radial derivative of the central g00."""
    if r <= 0:
        raise NonPositiveRadius(f"r must be > 0, got {r}")
    return 2.0 * r_o / r**2 * (1.0 + r_o / r) ** -3


@dataclass(frozen=True)
class ChristoffelSet:
    """Nonzero affine connections of the central metric in (t, r, theta, phi).

    Components carry units 1/length where applicable; angular entries are
    evaluated at polar angle ``theta``.
    """

    r_o: float
    r: float
    theta: float
    gamma_r_tt: float
    gamma_t_tr: float
    gamma_r_thth: float
    gamma_r_phph: float
    gamma_th_rth: float
    gamma_ph_rph: float
    gamma_th_phph: float
    gamma_ph_phth: float

    def as_dict(self) -> dict:
        return {
            "r_tt": self.gamma_r_tt,
            "t_tr": self.gamma_t_tr,
            "r_thth": self.gamma_r_thth,
            "r_phph": self.gamma_r_phph,
            "th_rth": self.gamma_th_rth,
            "ph_rph": self.gamma_ph_rph,
            "th_phph": self.gamma_th_phph,
            "ph_phth": self.gamma_ph_phth,
        }


def christoffels_central(r_o: float, r: float, theta: float = np.pi / 2) -> ChristoffelSet:
    """Central-field connection components for g00 = (1 + r_o/r)^-2."""
    if r <= 0:
        raise NonPositiveRadius(f"r must be > 0, got {r}")
    g00 = g00_central(r_o, r)
    dg00 = dg00_dr_central(r_o, r)
    return ChristoffelSet(
        r_o=r_o,
        r=r,
        theta=theta,
        gamma_r_tt=dg00 / 2.0,
        gamma_t_tr=dg00 / (2.0 * g00),
        gamma_r_thth=-r,
        gamma_r_phph=-r * np.sin(theta) ** 2,
        gamma_th_rth=1.0 / r,
        gamma_ph_rph=1.0 / r,
        gamma_th_phph=-np.sin(theta) * np.cos(theta),
        gamma_ph_phth=1.0 / np.tan(theta),
    )


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
    """
    x = np.asarray(at, dtype=float)
    step = h if h is not None else 1e-6 * max(float(np.linalg.norm(x)), 1.0)
    m = build_metric(pot, x)
    dg3 = metric_gradient_numeric(pot, x, step)
    dg = np.zeros((4, 4, 4))
    dg[1:] = dg3
    return _christoffel(m.ginv, dg)


def _christoffel(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[lam, mu, nu] from the inverse metric and the metric gradient.

    ``dg[sigma, mu, nu]`` = d_sigma g_{mu nu}, with the time slot zero for
    a static field.
    """
    brackets = np.einsum("msn->smn", dg) + np.einsum("nsm->smn", dg) - dg
    # brackets[s, m, n] = d_m g_{s n} + d_n g_{s m} - d_s g_{m n}
    return 0.5 * np.einsum("ls,smn->lmn", ginv, brackets)


def proper_time_rate(ldot: float, r_o_over_r: float, energy_ratio: float,
                     tol: float = 1e-14, max_iter: int = 200) -> float:
    """Solve the nonlinear proper-time relation for dtau/dt by fixed point.

    Iterates X <- 1 - (r_o/r)*(E_m/m)*sqrt(1 - ldot^2/X^2) from X = 1.
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
        if abs(x_next - x) < tol:
            return x_next
        x = x_next
    raise NoConvergence(f"no fixed point after {max_iter} iterations")
