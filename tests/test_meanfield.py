"""Thermodynamic-limit ground states against closed forms and a brute-force
landscape scan."""

from __future__ import annotations

import math
import random

import pytest

from extdicke.meanfield import (
    BlochPoint,
    energy_landscape,
    grad_residual,
    ground_state,
    oracle_grid_minimum,
    reduced_energy,
    stationary_points,
)
from extdicke.model import ModelParams, ParameterError


def params_u(u, delta=0.0, omega_rabi=0.0, v=0.0, omega=1.0):
    return ModelParams(omega=omega, lam=math.sqrt(u * omega), delta=delta,
                       omega_rabi=omega_rabi, v=v, n_atoms=1)


# --- geometry -----------------------------------------------------------

def on_circle(point):
    return abs(point.s_x ** 2 + point.s_z ** 2 - 0.25) < 1e-14


# --- energy functions ---------------------------------------------------

def test_landscape_reduces_to_circle_energy_at_optimal_field():
    rng = random.Random(5)
    for _ in range(200):
        p = ModelParams(omega=rng.uniform(0.5, 3.0), lam=rng.uniform(0.0, 2.0),
                        delta=rng.uniform(-2.0, 2.0),
                        omega_rabi=rng.uniform(0.0, 2.0),
                        v=rng.uniform(-3.0, 3.0))
        h = rng.uniform(-1.0, 1.0)
        point = BlochPoint(h * h - 0.5, h * math.sqrt(1.0 - h * h))
        assert on_circle(point)
        a = p.lam * point.s_x / p.omega
        assert energy_landscape(p, a, h) == pytest.approx(
            reduced_energy(p.u, p.v, p.delta, p.omega_rabi, point.s_x, point.s_z),
            abs=1e-12)
        # any other field value costs energy
        assert energy_landscape(p, a + 0.3, h) >= energy_landscape(p, a, h)


def test_landscape_rejects_h_outside_domain():
    with pytest.raises(ParameterError):
        energy_landscape(params_u(1.0), 0.0, 1.5)


# --- stationary points ---------------------------------------------------

def test_solve_stationarity_roots_are_stationary():
    rng = random.Random(6)
    for _ in range(100):
        p = ModelParams(omega=1.0, lam=rng.uniform(0.0, 2.0),
                        delta=rng.uniform(-2.0, 2.0),
                        omega_rabi=rng.uniform(0.0, 2.0),
                        v=rng.uniform(-3.0, 3.0))
        scale = max(1.0, p.u + abs(p.v) + p.omega_rabi + abs(p.delta))
        points = stationary_points(p.u, p.v, p.delta, p.omega_rabi)
        assert len(points) in (2, 3, 4) and any(pt[4] for pt in points)
        # one global minimum, or at delta = 0 or rabi = 0 a mirror pair
        assert 1 <= sum(pt[5] for pt in points) <= 2 and all(pt[4] for pt in points if pt[5])
        for theta, s_x, s_z, e, minimum, lowest in points:
            assert on_circle(BlochPoint(s_x, s_z))
            assert grad_residual(p.u, p.v, p.delta, p.omega_rabi, s_x, s_z) < 1e-9 * scale


# --- ground states: closed forms ----------------------------------------

def test_symmetry_broken_lobe():
    # inside the lobe |delta| < u + v the imbalance is m/N = -delta/(u+v)
    u, v, d = 1.0, -0.25, 0.3
    sol = ground_state(params_u(u, delta=d, v=v))
    w = u + v
    assert sol.m_over_n == pytest.approx(-d / w, abs=1e-12)
    assert sol.energy_per_atom == pytest.approx(-u / 4.0 - d * d / (4.0 * w),
                                                abs=1e-12)
    assert sol.degenerate and sol.n_local_minima == 2
    assert sol.point.s_x > 0.0  # reported representative of the +-s_x pair
    assert sol.photon_density == pytest.approx(sol.alpha ** 2, abs=1e-15)


def test_polarized_state_outside_lobe():
    for d in (1.4, -1.4):
        sol = ground_state(params_u(0.3, delta=d))
        assert sol.m_over_n == pytest.approx(-math.copysign(1.0, d), abs=1e-12)
        assert sol.energy_per_atom == pytest.approx(-abs(d) / 2.0, abs=1e-12)
        assert sol.photon_density < 1e-24
        assert not sol.degenerate and sol.n_local_minima == 1


def test_attractive_double_well():
    u, v, r = 1.0, -2.0, 0.5
    w = u + v
    sol = ground_state(params_u(u, v=v, omega_rabi=r))
    assert abs(sol.m_over_n) == pytest.approx(math.sqrt(1.0 - r * r / (w * w)),
                                              abs=1e-12)
    assert sol.energy_per_atom == pytest.approx(r * r / (4.0 * w) + v / 4.0,
                                                abs=1e-12)
    assert sol.degenerate and sol.n_local_minima == 2
    assert sol.point.s_z > 0.0  # representative with m > 0


def test_drive_pinned_state():
    sol = ground_state(params_u(1.0, v=-1.2, omega_rabi=0.5))
    assert sol.point.s_x == pytest.approx(-0.5, abs=1e-12)
    assert sol.m_over_n == pytest.approx(0.0, abs=1e-12)
    assert sol.energy_per_atom == pytest.approx(-0.25 - 0.25, abs=1e-12)
    assert not sol.degenerate and sol.n_local_minima == 1


def test_flat_manifold_flagged():
    sol = ground_state(ModelParams(omega=1.0, lam=0.0))
    assert sol.flat_manifold
    assert (sol.point.s_x, sol.point.s_z) == (-0.5, 0.0)
    assert sol.energy_per_atom == 0.0


# --- solver vs brute-force scan -----------------------------------------

def test_ground_state_matches_grid_oracle():
    rng = random.Random(8)
    for _ in range(120):
        p = ModelParams(omega=1.0, lam=rng.uniform(0.0, 2.2),
                        delta=rng.uniform(-3.0, 3.0),
                        omega_rabi=rng.uniform(0.0, 3.0),
                        v=rng.uniform(-5.0, 5.0))
        scale = max(1.0, p.u + abs(p.v) + p.omega_rabi + abs(p.delta))
        sol = ground_state(p)
        ora = oracle_grid_minimum(p)
        assert abs(sol.energy_per_atom - ora.energy_per_atom) < 1e-8 * scale
        assert sol.residual < 1e-9 * scale
        assert sol.degenerate == ora.degenerate
        assert sol.n_local_minima == ora.n_local_minima


@pytest.mark.parametrize("p", [
    ModelParams(omega=1.0, lam=0.0),  # every coupling 0
    params_u(1.0, v=-1.0),  # u + v = 0: the energy is -u/4 on the circle
    params_u(4.0, delta=1e-15, v=-4.0),  # delta = 2.5e-16 * S, below the flat level
    ModelParams(omega=0.5, lam=2.0, omega_rabi=5e-15, v=-8.0),
])
def test_oracle_and_ground_state_agree_on_a_flat_landscape(p):
    # both routes call the landscape flat and report the conventional
    # point (-1/2, 0) with no minima, field for field
    sol = ground_state(p)
    assert sol.flat_manifold and sol.degenerate and sol.n_local_minima == 0
    assert (sol.point.s_x, sol.point.s_z) == (-0.5, 0.0)
    assert oracle_grid_minimum(p) == sol


def test_maximum_next_to_the_flat_manifold_is_not_reported():
    # at u + v = 0 a detuning of a few 1e-14 * S splits the stationary points
    # s_z = +-1/2 by less than the 1e-13 * S window in which the larger s_z
    # wins; s_z = +1/2 is the maximum there and must not be reported
    for d in (2e-14, 5e-14, 1e-13):
        sol = ground_state(params_u(1.0, delta=d, v=-1.0))
        assert sol.m_over_n == -1.0 and sol.energy_per_atom < -0.25, d


def test_one_minimum_at_the_spinodal():
    # at |delta| = |u + v| without a drive (v < -u) the metastable well has
    # merged with the maximum, and the brute-force route counts one minimum;
    # delta = 1 - 2.74 is u + v in floats, while -1.74 lies one float step
    # inside it, where the well is still there (its curvature is 1.1e-16)
    p = params_u(1.0, delta=1.0 - 2.74, v=-2.74)
    assert ground_state(p).n_local_minima == 1
    assert oracle_grid_minimum(p).n_local_minima == 1
    assert ground_state(params_u(1.0, delta=-1.74, v=-2.74)).n_local_minima == 2


def test_oracle_minimum_point_count_guard():
    with pytest.raises(ParameterError):
        oracle_grid_minimum(params_u(1.0), n_points=100)


def test_solution_fields_are_consistent():
    p = ModelParams(omega=2.0, lam=1.3, delta=0.4, omega_rabi=0.3, v=-0.5)
    sol = ground_state(p)
    assert sol.alpha == pytest.approx(p.lam * sol.point.s_x / p.omega, abs=1e-15)
    assert sol.photon_density == pytest.approx(sol.alpha ** 2, abs=1e-15)
    assert sol.m_over_n == pytest.approx(2.0 * sol.point.s_z, abs=1e-15)
    assert on_circle(sol.point)
    assert sol.energy_per_atom == pytest.approx(
        reduced_energy(p.u, p.v, p.delta, p.omega_rabi, sol.point.s_x, sol.point.s_z),
        abs=1e-13)
