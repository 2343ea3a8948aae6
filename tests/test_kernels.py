"""Scalar kernel tests: quartic root finding against the numpy companion
matrix, and solver/scan agreement."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from extdicke.meanfield import kernels

# Every test takes the solver's kernel module as `k`; the "python" id keeps
# the test ids stable.
pytestmark = pytest.mark.parametrize("k", [pytest.param(kernels, id="python")])


def companion_real_roots(coeffs, imag_tol=1e-7):
    """Independent root oracle: eigenvalues of the companion matrix."""
    rts = np.roots(np.asarray(coeffs, dtype=float))
    real = sorted(r.real for r in rts if abs(r.imag) <= imag_tol * (1.0 + abs(r.real)))
    return real


def random_params(rng):
    return (rng.uniform(0.0, 5.0), rng.uniform(-5.0, 5.0),
            rng.uniform(-3.0, 3.0), rng.uniform(0.0, 3.0))


def test_roots_of_constructed_separated_quartics(k):
    rng = random.Random(11)
    for _ in range(400):
        while True:
            roots = sorted(rng.uniform(-3.0, 3.0) for _ in range(4))
            if min(b - a for a, b in zip(roots, roots[1:])) > 0.1:
                break
        coeffs = np.poly(roots)
        found = k.real_roots(*coeffs)
        assert len(found) == 4
        for want, got in zip(roots, found):
            assert abs(want - got) < 5e-9


def test_roots_match_companion_matrix_on_generic_coefficients(k):
    rng = random.Random(12)
    checked = 0
    for _ in range(500):
        coeffs = [rng.uniform(-3.0, 3.0) for _ in range(5)]
        oracle = companion_real_roots(coeffs)
        # companion eigenvalues blur clustered roots; only score clean cases
        if any(b - a < 1e-3 for a, b in zip(oracle, oracle[1:])):
            continue
        found = k.real_roots(*coeffs)
        assert len(found) == len(oracle)
        for want, got in zip(oracle, found):
            assert abs(want - got) < 1e-6 * (1.0 + abs(want))
        checked += 1
    assert checked > 400


def test_roots_known_sets(k):
    # 3*(x+3)(x+1)(x+1/3)(x-1) has roots -3, -1, -1/3, 1
    coeffs = 3.0 * np.poly([-3.0, -1.0, -1.0 / 3.0, 1.0])
    got = k.real_roots(*coeffs)
    np.testing.assert_allclose(got, [-3.0, -1.0, -1.0 / 3.0, 1.0],
                               rtol=0.0, atol=1e-10)
    # multiple roots are reported once, at full precision
    assert k.real_roots(*np.poly([1.0, 1.0, -2.0, -3.0])) == (-3.0, -2.0, 1.0)
    assert k.real_roots(*np.poly([2.0, 2.0, 2.0, -1.0])) == (-1.0, 2.0)
    assert k.real_roots(1.0, 0.0, 0.0, 0.0, 0.0) == (0.0,)
    # no real roots / degenerate degrees
    assert k.real_roots(1.0, 0.0, 0.0, 0.0, 1.0) == ()
    assert k.real_roots(0.0, 0.0, 1.0, 0.0, -4.0) == (-2.0, 2.0)
    assert k.real_roots(0.0, 0.0, 0.0, 2.0, -1.0) == (0.5,)
    assert k.real_roots(0.0, 0.0, 0.0, 0.0, 0.0) == ()


def test_roots_scale_invariance(k):
    rng = random.Random(13)
    for _ in range(100):
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(5)]
        a = k.real_roots(*coeffs)
        b = k.real_roots(*(1e6 * c for c in coeffs))
        c = k.real_roots(*(1e-6 * c for c in coeffs))
        assert len(a) == len(b) == len(c)
        for x, y, z in zip(a, b, c):
            assert abs(x - y) < 1e-9 * (1.0 + abs(x))
            assert abs(x - z) < 1e-9 * (1.0 + abs(x))


def test_bloch_eta_roundtrip(k):
    for eta in (-25.0, -3.0, -1.0, -0.2, 0.0, 0.4, 1.0, 7.5):
        s_x, s_z = k.bloch_from_eta(eta)
        assert abs(s_x * s_x + s_z * s_z - 0.25) < 1e-15
        assert abs(k.eta_from_point(s_x, s_z) - eta) < 1e-12 * (1.0 + abs(eta))
    s_x, s_z = k.bloch_from_eta(math.inf)
    assert (s_x, s_z) == (0.5, 0.0)
    assert k.bloch_from_eta(0.0) == (-0.5, 0.0)


def test_energy_parametrizations_agree(k):
    rng = random.Random(14)
    for _ in range(200):
        u, v, d, r = random_params(rng)
        theta = rng.uniform(-math.pi, math.pi)
        s_x, s_z = 0.5 * math.cos(theta), 0.5 * math.sin(theta)
        e1 = k.reduced_energy(u, v, d, r, s_x, s_z)
        e2 = k.energy_theta(u, v, d, r, theta)
        assert abs(e1 - e2) < 1e-13 * (1.0 + abs(e1))


def test_solve_point_closed_forms(k):
    # symmetry-broken pair below the lobe edge: s_z = -delta/(2(u+v))
    s_x, s_z, e, eta, res, deg, flat, nmin = k.solve_point(1.0, 0.0, 0.5, 0.0)
    assert abs(s_z + 0.25) < 1e-12
    assert abs(s_x - math.sqrt(0.25 - 0.0625)) < 1e-12
    assert abs(e + 0.3125) < 1e-12
    assert deg and not flat and nmin == 2

    # fully polarized state beyond the lobe: |delta| > u + v
    s_x, s_z, e, eta, res, deg, flat, nmin = k.solve_point(0.3, 0.0, -1.0, 0.0)
    assert abs(s_z - 0.5) < 1e-12 and abs(s_x) < 1e-12
    assert abs(e + 0.5) < 1e-12
    assert not deg and nmin == 1
    assert abs(eta - 1.0) < 1e-10

    # attractive v, symmetric double well in s_z: m = +-sqrt(1 - rabi^2/w^2)
    u, v, r = 1.0, -2.0, 0.5
    s_x, s_z, e, eta, res, deg, flat, nmin = k.solve_point(u, v, 0.0, r)
    w = u + v
    assert abs(abs(s_z) - 0.5 * math.sqrt(1.0 - r * r / (w * w))) < 1e-12
    assert abs(e - (r * r / (4.0 * w) + v / 4.0)) < 1e-12
    assert deg and nmin == 2

    # drive-pinned state: single minimum at s_x = -1/2
    s_x, s_z, e, eta, res, deg, flat, nmin = k.solve_point(1.0, -1.2, 0.0, 0.5)
    assert abs(s_x + 0.5) < 1e-12 and abs(s_z) < 1e-12
    assert abs(e - (-1.0 / 4.0 - 0.5 / 2.0)) < 1e-12
    assert not deg and nmin == 1

    # flat landscape: conventional point, flag raised
    s_x, s_z, e, eta, res, deg, flat, nmin = k.solve_point(0.0, 0.0, 0.0, 0.0)
    assert flat and (s_x, s_z) == (-0.5, 0.0)


def test_solver_matches_grid_scan(k):
    rng = random.Random(15)
    for _ in range(250):
        u, v, d, r = random_params(rng)
        scale = max(1.0, u + abs(v) + r + abs(d))
        sol = k.solve_point(u, v, d, r)
        ora = k.oracle_minimum(u, v, d, r, 4096)
        assert abs(sol[2] - ora[2]) < 1e-8 * scale
        assert sol[4] < 1e-9 * scale  # stationarity residual


def test_solver_is_deterministic(k):
    rng = random.Random(16)
    for _ in range(50):
        args = random_params(rng)
        assert k.solve_point(*args) == k.solve_point(*args)
        assert k.real_roots(args[0], args[1], 0.0, args[2], args[3]) == \
            k.real_roots(args[0], args[1], 0.0, args[2], args[3])


def test_residual_zero_only_at_stationary_points(k):
    # at a generic non-stationary angle the normalized gradient is order one
    u, v, d, r = 1.0, 0.3, 0.4, 0.2
    eta = 0.37
    assert k.grad_residual(u, v, d, r, eta) > 1e-3
    sol = k.solve_point(u, v, d, r)
    assert k.grad_residual(u, v, d, r, sol[3]) < 1e-10
