"""Thermodynamic-limit ground states on the Bloch circle.

Minimizing the photon field exactly (alpha* = (lambda/omega)*s_x for the
scaled displacement <a>/sqrt(N) = -sqrt(N)*alpha at the energy minimum)
reduces the variational energy per atom to

    e(s_x, s_z) = -u*s_x**2 + v*s_z**2 + delta*s_z + omega_rabi*s_x

on the spin circle s_x**2 + s_z**2 = 1/4 (s_y = 0 at any minimum).  Two
independent routes are provided: ground_state, which solves the stationarity
quartic in the rational coordinate eta, and oracle_grid_minimum, a
brute-force scan with golden-section refinement used to cross-check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels_py as kernels
from .model import ModelParams, ParameterError, validate


class DegenerateManifoldError(ValueError):
    """The stationarity condition vanishes identically (flat manifold)."""


@dataclass(frozen=True)
class BlochPoint:
    """Point on the collective-spin circle, s_x**2 + s_z**2 = 1/4."""

    s_x: float
    s_z: float

    @classmethod
    def from_eta(cls, eta: float) -> "BlochPoint":
        s_x, s_z = kernels.bloch_from_eta(eta)
        return cls(s_x, s_z)

    @classmethod
    def from_angle(cls, theta: float) -> "BlochPoint":
        return cls(0.5 * math.cos(theta), 0.5 * math.sin(theta))

    @property
    def eta(self) -> float:
        return kernels.eta_from_point(self.s_x, self.s_z)

    @property
    def circle_defect(self) -> float:
        return abs(self.s_x**2 + self.s_z**2 - 0.25)


@dataclass(frozen=True)
class QuarticCoeffs:
    """Coefficients of the stationarity quartic in eta, highest power first:

        c4*eta**4 + c3*eta**3 + c2*eta**2 + c1*eta + c0 = 0
    """

    c4: float
    c3: float
    c2: float
    c1: float
    c0: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.c4, self.c3, self.c2, self.c1, self.c0)


@dataclass(frozen=True)
class MeanFieldSolution:
    """Ground-state data in the thermodynamic limit (energies per atom).

    eta is the representative stationary coordinate (+-inf at the (1/2, 0)
    pole, reachable only on the delta = 0 axis) and residual its on-circle
    gradient defect |de/dtheta|.  degenerate marks a tie between distinct
    minima (the representative has the largest s_z, then the largest s_x);
    flat_manifold marks couplings whose energy is constant on the circle.
    """

    point: BlochPoint
    eta: float
    alpha: float
    energy_per_atom: float
    m_over_n: float
    photon_density: float
    residual: float
    degenerate: bool
    flat_manifold: bool = False
    n_local_minima: int = 0


def energy_landscape(params: ModelParams, alpha: float, h: float) -> float:
    """Variational energy per atom at scaled displacement alpha and atomic
    variable h, where s_x = h**2 - 1/2 and s_z = h*sqrt(1 - h**2)."""
    validate(params)
    if not -1.0 <= h <= 1.0:
        raise ParameterError("atomic variable h outside [-1, 1]")
    s_x = h * h - 0.5
    s_z = h * math.sqrt(1.0 - h * h)
    return (
        params.omega * alpha * alpha
        - 2.0 * params.lam * alpha * s_x
        + params.delta * s_z
        + params.omega_rabi * s_x
        + params.v * s_z * s_z
    )


def reduced_energy(params: ModelParams, point: BlochPoint) -> float:
    """Energy per atom on the circle after the photon minimization."""
    validate(params)
    return kernels.reduced_energy(
        params.u, params.v, params.delta, params.omega_rabi, point.s_x, point.s_z
    )


def alpha_star(params: ModelParams, eta: float) -> float:
    """Optimal scaled photon displacement for the point eta:
    alpha = lambda*(eta**2 - 1) / (2*omega*(eta**2 + 1))."""
    validate(params)
    s_x, _ = kernels.bloch_from_eta(eta)
    return params.lam * s_x / params.omega


def stationarity_coeffs(params: ModelParams) -> QuarticCoeffs:
    """Quartic whose real roots are the finite-eta stationary points."""
    validate(params)
    w = params.u + params.v
    rabi = params.omega_rabi
    return QuarticCoeffs(
        c4=params.delta,
        c3=2.0 * (w - rabi),
        c2=0.0,
        c1=-2.0 * (w + rabi),
        c0=-params.delta,
    )


def solve_stationarity(coeffs: QuarticCoeffs) -> tuple[float, ...]:
    """Real roots of the stationarity quartic, ascending, multiples
    collapsed.  Raises DegenerateManifoldError when every coefficient is
    zero (the stationarity condition holds identically)."""
    c = coeffs.as_tuple()
    if max(abs(x) for x in c) == 0.0:
        raise DegenerateManifoldError(
            "stationarity condition vanishes identically; every point of the "
            "circle is stationary"
        )
    return kernels.real_roots(*c)


def _solution_from_kernel(params: ModelParams, s_x, s_z, e, eta, residual,
                          degenerate, flat, n_minima) -> MeanFieldSolution:
    alpha = params.lam * s_x / params.omega
    return MeanFieldSolution(
        point=BlochPoint(s_x, s_z),
        eta=eta,
        alpha=alpha,
        energy_per_atom=e,
        m_over_n=2.0 * s_z,
        photon_density=alpha * alpha,
        residual=residual,
        degenerate=bool(degenerate),
        flat_manifold=bool(flat),
        n_local_minima=int(n_minima),
    )


def ground_state(params: ModelParams) -> MeanFieldSolution:
    """Global minimum of the reduced energy via the stationarity quartic.

    On a flat manifold (delta = omega_rabi = u + v = 0 relative to the
    coupling scale) the conventional point (-1/2, 0) is returned with
    flat_manifold set.
    """
    validate(params)
    out = kernels.solve_point(params.u, params.v, params.delta, params.omega_rabi)
    return _solution_from_kernel(params, *out)


def oracle_grid_minimum(params: ModelParams, n_points: int = 4096) -> MeanFieldSolution:
    """Brute-force minimum over n_points circle angles with golden-section
    refinement; independent of the quartic route.

    The reported residual reflects the refinement limit of a comparison
    search (~1e-8 in angle), not the quartic-root polish.
    """
    validate(params)
    if n_points < 1000:
        raise ParameterError("oracle grid needs at least 1000 points")
    s_x, s_z, e, theta, degenerate, flat, n_minima = kernels.oracle_minimum(
        params.u, params.v, params.delta, params.omega_rabi, n_points
    )
    eta = kernels.eta_from_point(s_x, s_z)
    residual = kernels.grad_residual(
        params.u, params.v, params.delta, params.omega_rabi, eta
    )
    return _solution_from_kernel(
        params, s_x, s_z, e, eta, residual, degenerate, flat, n_minima
    )
