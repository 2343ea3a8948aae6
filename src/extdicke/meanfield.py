"""Thermodynamic-limit ground states on the Bloch circle.

Minimizing the photon field exactly (alpha* = (lambda/omega)*s_x for the
scaled displacement <a>/sqrt(N) = -sqrt(N)*alpha at the energy minimum)
reduces the variational energy per atom to

    e(s_x, s_z) = -u*s_x**2 + v*s_z**2 + delta*s_z + omega_rabi*s_x

on the spin circle s_x**2 + s_z**2 = 1/4 (s_y = 0 at any minimum).  Two
routes find the minima independently: ground_state, which solves the
stationarity quartic in the rational coordinate eta, and
oracle_grid_minimum, a brute-force scan with golden-section refinement used
to cross-check it.  Both report their point by the same tie-break rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels_py as kernels
from .model import ModelParams, ParameterError


@dataclass(frozen=True)
class BlochPoint:
    """Point on the collective-spin circle, s_x**2 + s_z**2 = 1/4."""

    s_x: float
    s_z: float


@dataclass(frozen=True)
class MeanFieldSolution:
    """Ground-state data in the thermodynamic limit (energies per atom).

    eta is the representative stationary coordinate (+-inf at the (1/2, 0)
    pole, reachable only where delta is zero to rounding) and residual its
    on-circle gradient defect |de/dtheta|.  degenerate marks a second
    stationary point, not necessarily a minimum, more than 1e-8 rad away and
    within 1e-10 * S (S the largest coupling) of the lowest minimum; the
    reported point is the one with the largest s_z, then s_x, within
    1e-13 * S of it.  flat_manifold marks a constant energy on the circle.
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
    out = kernels.solve_point(params.u, params.v, params.delta, params.omega_rabi)
    return _solution_from_kernel(params, *out)


def oracle_grid_minimum(params: ModelParams, n_points: int = 4096) -> MeanFieldSolution:
    """Brute-force minimum over n_points circle angles with golden-section
    refinement; it finds its minima without the quartic route and breaks
    ties by the same rule as ground_state.

    The reported residual reflects the refinement limit of a comparison
    search (~1e-8 in angle), not the quartic-root polish.
    """
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
