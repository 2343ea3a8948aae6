"""Thermodynamic-limit ground states against closed forms and a brute-force
landscape scan."""

from __future__ import annotations

import math
import random

import pytest

from extdicke.meanfield import (
    BlochPoint,
    DegenerateManifoldError,
    QuarticCoeffs,
    alpha_star,
    energy_landscape,
    ground_state,
    oracle_grid_minimum,
    reduced_energy,
    solve_stationarity,
    stationarity_coeffs,
)
from extdicke.model import ModelParams, ParameterError


def params_u(u, delta=0.0, omega_rabi=0.0, v=0.0, omega=1.0):
    return ModelParams(omega=omega, lam=math.sqrt(u * omega), delta=delta,
                       omega_rabi=omega_rabi, v=v, n_atoms=1)


def random_point(rng):
    theta = rng.uniform(-math.pi, math.pi)
    return BlochPoint(0.5 * math.cos(theta), 0.5 * math.sin(theta))


# --- geometry -----------------------------------------------------------

def test_bloch_point_constructors():
    p = BlochPoint.from_angle(-math.pi / 6.0)
    assert p.s_x == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-15)
    assert p.s_z == pytest.approx(-0.25, abs=1e-15)
    assert p.circle_defect < 1e-15
    q = BlochPoint.from_eta(1.0)
    assert (q.s_x, q.s_z) == (0.0, 0.5)
    assert BlochPoint(0.0, 0.5).eta == pytest.approx(1.0)
    assert BlochPoint.from_eta(math.inf).s_x == 0.5


def test_eta_angle_consistency():
    rng = random.Random(4)
    for _ in range(100):
        p = random_point(rng)
        q = BlochPoint.from_eta(p.eta)
        assert abs(p.s_x - q.s_x) < 1e-12
        assert abs(p.s_z - q.s_z) < 1e-12


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
        assert point.circle_defect < 1e-14
        a = p.lam * point.s_x / p.omega
        assert energy_landscape(p, a, h) == pytest.approx(
            reduced_energy(p, point), abs=1e-12)
        # any other field value costs energy
        assert energy_landscape(p, a + 0.3, h) >= energy_landscape(p, a, h)


def test_landscape_rejects_h_outside_domain():
    with pytest.raises(ParameterError):
        energy_landscape(params_u(1.0), 0.0, 1.5)


def test_alpha_star_matches_spin_projection():
    p = params_u(2.0, omega=4.0)
    eta = 0.7
    point = BlochPoint.from_eta(eta)
    assert alpha_star(p, eta) == pytest.approx(p.lam * point.s_x / p.omega,
                                               abs=1e-15)


# --- stationarity quartic ----------------------------------------------

def test_stationarity_coefficients():
    p = ModelParams(omega=1.0, lam=1.0, delta=0.5, omega_rabi=0.25, v=-0.3)
    w = p.u + p.v
    coeffs = stationarity_coeffs(p)
    assert coeffs.as_tuple() == (0.5, 2.0 * (w - 0.25), 0.0,
                                 -2.0 * (w + 0.25), -0.5)


def test_solve_stationarity_roots_are_stationary():
    from extdicke.meanfield import kernels
    rng = random.Random(6)
    for _ in range(100):
        p = ModelParams(omega=1.0, lam=rng.uniform(0.0, 2.0),
                        delta=rng.uniform(-2.0, 2.0),
                        omega_rabi=rng.uniform(0.0, 2.0),
                        v=rng.uniform(-3.0, 3.0))
        scale = max(1.0, p.u + abs(p.v) + p.omega_rabi + abs(p.delta))
        for eta in solve_stationarity(stationarity_coeffs(p)):
            assert kernels.grad_residual(p.u, p.v, p.delta, p.omega_rabi,
                                         eta) < 1e-9 * scale


def test_solve_stationarity_flat_manifold_raises():
    with pytest.raises(DegenerateManifoldError):
        solve_stationarity(QuarticCoeffs(0.0, 0.0, 0.0, 0.0, 0.0))


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


def test_detuning_mirror_symmetry():
    rng = random.Random(7)
    for _ in range(100):
        p = ModelParams(omega=1.0, lam=rng.uniform(0.0, 2.0),
                        delta=rng.uniform(0.05, 2.0),
                        omega_rabi=rng.uniform(0.0, 2.0),
                        v=rng.uniform(-3.0, 3.0))
        a = ground_state(p)
        b = ground_state(p.replace(delta=-p.delta))
        assert a.energy_per_atom == pytest.approx(b.energy_per_atom, abs=1e-12)
        if not (a.degenerate or b.degenerate):
            assert a.point.s_z == pytest.approx(-b.point.s_z, abs=1e-12)
            assert a.point.s_x == pytest.approx(b.point.s_x, abs=1e-12)


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


def test_oracle_minimum_point_count_guard():
    with pytest.raises(ParameterError):
        oracle_grid_minimum(params_u(1.0), n_points=100)


def test_solution_fields_are_consistent():
    p = ModelParams(omega=2.0, lam=1.3, delta=0.4, omega_rabi=0.3, v=-0.5)
    sol = ground_state(p)
    assert sol.alpha == pytest.approx(p.lam * sol.point.s_x / p.omega, abs=1e-15)
    assert sol.photon_density == pytest.approx(sol.alpha ** 2, abs=1e-15)
    assert sol.m_over_n == pytest.approx(2.0 * sol.point.s_z, abs=1e-15)
    assert sol.point.circle_defect < 1e-14
    q = BlochPoint.from_eta(sol.eta)
    assert abs(q.s_x - sol.point.s_x) < 1e-12
    assert abs(q.s_z - sol.point.s_z) < 1e-12
    assert sol.energy_per_atom == pytest.approx(reduced_energy(p, sol.point),
                                                abs=1e-13)
