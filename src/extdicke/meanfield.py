"""Thermodynamic-limit ground states on the Bloch circle.

Minimizing the photon field exactly (alpha* = (lambda/omega)*s_x for the
scaled displacement <a>/sqrt(N) = -sqrt(N)*alpha at the energy minimum)
reduces the variational energy per atom to

    e(s_x, s_z) = -u*s_x**2 + v*s_z**2 + delta*s_z + omega_rabi*s_x

on the spin circle s_x**2 + s_z**2 = 1/4 (s_y = 0 at any minimum).  Two
routes find the stationary points independently: ground_state, which
solves the secular equation of the Lagrange multiplier, one root per
monotone interval, and oracle_grid_minimum, which bisects the sign changes
of de/dtheta on a grid of angles, used to cross-check it.  Both share the
kernel's scaling, flat rule and tie-break rule.
"""

from __future__ import annotations

import math

from . import _kernels_py as kernels
from .model import ModelParams, ParameterError, _integer, record


@record
class BlochPoint:
    """Point on the collective-spin circle, s_x**2 + s_z**2 = 1/4."""

    s_x: float
    s_z: float


@record
class MeanFieldSolution:
    """Ground-state data in the thermodynamic limit (energies per atom).

    eta is the rational coordinate of the point (+inf at (1/2, 0)) and
    residual its on-circle gradient defect |de/dtheta|.  The point is the
    global minimum (of a mirror pair, the one with the larger s_z, then
    s_x).  degenerate marks a second stationary point, not necessarily a
    minimum, more than 1e-8 rad away and within 1e-10 * S (S the largest
    coupling) of its energy.  flat_manifold marks a constant energy on the
    circle.
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


def point_observables(lam, omega, s_x, s_z) -> tuple[float, float, float]:
    """alpha, m/N and the photon density alpha**2 at the spin point."""
    alpha = lam * s_x / omega
    return alpha, 2.0 * s_z, alpha * alpha


def _solution_from_kernel(params: ModelParams, s_x, s_z, e, eta, residual,
                          degenerate, flat, n_minima) -> MeanFieldSolution:
    alpha, m, photons = point_observables(params.lam, params.omega, s_x, s_z)
    return MeanFieldSolution(
        point=BlochPoint(s_x, s_z),
        eta=eta,
        alpha=alpha,
        energy_per_atom=e,
        m_over_n=m,
        photon_density=photons,
        residual=residual,
        degenerate=bool(degenerate),
        flat_manifold=bool(flat),
        n_local_minima=int(n_minima),
    )


def ground_state(params: ModelParams) -> MeanFieldSolution:
    """Global minimum of the reduced energy via the secular equation.

    On a flat manifold (delta = omega_rabi = u + v = 0 relative to the
    coupling scale) the conventional point (-1/2, 0) is returned with
    flat_manifold set.
    """
    out = kernels.solve_point(params.u, params.v, params.delta, params.omega_rabi)
    return _solution_from_kernel(params, *out)


def oracle_grid_minimum(params: ModelParams, n_points: int = 4096) -> MeanFieldSolution:
    """The twin of ground_state whose stationary points are the sign
    changes of de/dtheta on n_points circle angles, each bisected to 1e-8
    rad (its residual reflects that width); the scaling, the flat rule and
    the tie-break are ground_state's.
    """
    n_points = _integer(n_points, "n_points")
    if n_points < 1000:
        raise ParameterError("oracle grid needs at least 1000 points")
    out = kernels.oracle_minimum(params.u, params.v, params.delta, params.omega_rabi,
                                 n_points)
    return _solution_from_kernel(params, *out)
