"""Scalar kernel tests: quartic root finding against the numpy companion
matrix, and solver/scan agreement."""

from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from extdicke.meanfield import kernels


def companion_real_roots(coeffs, imag_tol=1e-7):
    """Independent root oracle: eigenvalues of the companion matrix."""
    rts = np.roots(np.asarray(coeffs, dtype=float))
    real = sorted(r.real for r in rts if abs(r.imag) <= imag_tol * (1.0 + abs(r.real)))
    return real


def random_params(rng):
    return (rng.uniform(0.0, 5.0), rng.uniform(-5.0, 5.0),
            rng.uniform(-3.0, 3.0), rng.uniform(0.0, 3.0))


def test_roots_of_constructed_separated_quartics():
    rng = random.Random(11)
    for _ in range(400):
        while True:
            roots = sorted(rng.uniform(-3.0, 3.0) for _ in range(4))
            if min(b - a for a, b in zip(roots, roots[1:])) > 0.1:
                break
        coeffs = np.poly(roots)
        found = kernels.real_roots(*coeffs)
        assert len(found) == 4
        for want, got in zip(roots, found):
            assert abs(want - got) < 5e-9


def test_roots_match_companion_matrix_on_generic_coefficients():
    rng = random.Random(12)
    checked = 0
    for _ in range(500):
        coeffs = [rng.uniform(-3.0, 3.0) for _ in range(5)]
        oracle = companion_real_roots(coeffs)
        # companion eigenvalues blur clustered roots; only score clean cases
        if any(b - a < 1e-3 for a, b in zip(oracle, oracle[1:])):
            continue
        found = kernels.real_roots(*coeffs)
        assert len(found) == len(oracle)
        for want, got in zip(oracle, found):
            assert abs(want - got) < 1e-6 * (1.0 + abs(want))
        checked += 1
    assert checked > 400


def test_roots_known_sets():
    # 3*(x+3)(x+1)(x+1/3)(x-1) has roots -3, -1, -1/3, 1
    coeffs = 3.0 * np.poly([-3.0, -1.0, -1.0 / 3.0, 1.0])
    got = kernels.real_roots(*coeffs)
    np.testing.assert_allclose(got, [-3.0, -1.0, -1.0 / 3.0, 1.0],
                               rtol=0.0, atol=1e-10)
    # multiple roots are reported once, at full precision
    assert kernels.real_roots(*np.poly([1.0, 1.0, -2.0, -3.0])) == (-3.0, -2.0, 1.0)
    assert kernels.real_roots(*np.poly([2.0, 2.0, 2.0, -1.0])) == (-1.0, 2.0)
    assert kernels.real_roots(1.0, 0.0, 0.0, 0.0, 0.0) == (0.0,)
    # no real roots / degenerate degrees
    assert kernels.real_roots(1.0, 0.0, 0.0, 0.0, 1.0) == ()
    assert kernels.real_roots(0.0, 0.0, 1.0, 0.0, -4.0) == (-2.0, 2.0)
    assert kernels.real_roots(0.0, 0.0, 0.0, 2.0, -1.0) == (0.5,)
    assert kernels.real_roots(0.0, 0.0, 0.0, 0.0, 0.0) == ()


def test_root_finding_work_count():
    # Newton inside each monotone bracket needs ~37 evaluations of the
    # stationarity quartic per real_roots call on these points; bisecting
    # every bracket to fp exhaustion needs ~155.  The kernel evaluates its
    # polynomials inline, so the leading coefficient counts them: every
    # Horner pass over the quartic starts with lead * x, and a product of
    # Lead is a plain float, so the roots keep their bits.  A call count,
    # not a time, so it cannot flake.
    calls = 0

    class Lead(float):
        def __mul__(self, other):
            nonlocal calls
            calls += 1
            return float.__mul__(self, other)

    rng = random.Random(18)
    n = 500
    for _ in range(n):
        u, v, d, r = random_params(rng)
        w = u + v
        coeffs = (2.0 * (w - r), 0.0, -2.0 * (w + r), -d)
        assert kernels.real_roots(Lead(d), *coeffs) == kernels.real_roots(d, *coeffs)
    assert 0 < calls / n < 60


def test_bloch_eta_roundtrip():
    for eta in (-25.0, -3.0, -1.0, -0.2, 0.0, 0.4, 1.0, 7.5):
        s_x, s_z = kernels.bloch_from_eta(eta)
        assert abs(s_x * s_x + s_z * s_z - 0.25) < 1e-15
        assert abs(kernels.eta_from_point(s_x, s_z) - eta) < 1e-12 * (1.0 + abs(eta))
    s_x, s_z = kernels.bloch_from_eta(math.inf)
    assert (s_x, s_z) == (0.5, 0.0)
    assert kernels.bloch_from_eta(0.0) == (-0.5, 0.0)


def test_energy_parametrizations_agree():
    rng = random.Random(14)
    for _ in range(200):
        u, v, d, r = random_params(rng)
        theta = rng.uniform(-math.pi, math.pi)
        s_x, s_z = 0.5 * math.cos(theta), 0.5 * math.sin(theta)
        e1 = kernels.reduced_energy(u, v, d, r, s_x, s_z)
        e2 = kernels.energy_theta(u, v, d, r, theta)
        assert abs(e1 - e2) < 1e-13 * (1.0 + abs(e1))


def test_solve_point_closed_forms():
    # symmetry-broken pair below the lobe edge: s_z = -delta/(2(u+v))
    s_x, s_z, e, eta, res, deg, flat, nmin = kernels.solve_point(1.0, 0.0, 0.5, 0.0)
    assert abs(s_z + 0.25) < 1e-12
    assert abs(s_x - math.sqrt(0.25 - 0.0625)) < 1e-12
    assert abs(e + 0.3125) < 1e-12
    assert deg and not flat and nmin == 2

    # fully polarized state beyond the lobe: |delta| > u + v
    s_x, s_z, e, eta, res, deg, flat, nmin = kernels.solve_point(0.3, 0.0, -1.0, 0.0)
    assert abs(s_z - 0.5) < 1e-12 and abs(s_x) < 1e-12
    assert abs(e + 0.5) < 1e-12
    assert not deg and nmin == 1
    assert abs(eta - 1.0) < 1e-10

    # attractive v, symmetric double well in s_z: m = +-sqrt(1 - rabi^2/w^2)
    u, v, r = 1.0, -2.0, 0.5
    s_x, s_z, e, eta, res, deg, flat, nmin = kernels.solve_point(u, v, 0.0, r)
    w = u + v
    assert abs(abs(s_z) - 0.5 * math.sqrt(1.0 - r * r / (w * w))) < 1e-12
    assert abs(e - (r * r / (4.0 * w) + v / 4.0)) < 1e-12
    assert deg and nmin == 2

    # drive-pinned state: single minimum at s_x = -1/2
    s_x, s_z, e, eta, res, deg, flat, nmin = kernels.solve_point(1.0, -1.2, 0.0, 0.5)
    assert abs(s_x + 0.5) < 1e-12 and abs(s_z) < 1e-12
    assert abs(e - (-1.0 / 4.0 - 0.5 / 2.0)) < 1e-12
    assert not deg and nmin == 1

    # flat landscape: conventional point, flag raised
    s_x, s_z, e, eta, res, deg, flat, nmin = kernels.solve_point(0.0, 0.0, 0.0, 0.0)
    assert flat and (s_x, s_z) == (-0.5, 0.0)


def test_solver_matches_grid_scan():
    rng = random.Random(15)
    for _ in range(250):
        u, v, d, r = random_params(rng)
        scale = max(1.0, u + abs(v) + r + abs(d))
        sol = kernels.solve_point(u, v, d, r)
        ora = kernels.oracle_minimum(u, v, d, r, 4096)
        assert abs(sol[2] - ora[2]) < 1e-8 * scale
        assert sol[4] < 1e-9 * scale  # stationarity residual


_MAGNITUDE = st.floats(math.log(1e-12), math.log(1e12)).map(math.exp)  # log-uniform
_SIGNED = st.tuples(st.sampled_from((-1.0, 1.0)), _MAGNITUDE).map(lambda t: t[0] * t[1])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(u=_MAGNITUDE, v=_SIGNED, d=_SIGNED, r=st.one_of(st.just(0.0), _MAGNITUDE),
       d_exp=st.one_of(st.none(), st.floats(-16.0, -12.0)))
def test_solver_matches_oracle_over_full_float_range(u, v, d, r, d_exp):
    # n_minima is not compared: the 4096-point grid can miss a shallow minimum
    if d_exp is not None:
        # |delta| = S * 10**d_exp: delta is zero to rounding or nearly so
        d = math.copysign(max(u, abs(v), r) * 10.0 ** d_exp, d)
    scale = max(u, abs(v), abs(d), r)
    sol = kernels.solve_point(u, v, d, r)
    ora = kernels.oracle_minimum(u, v, d, r, 4096)
    assert abs(sol[2] - ora[2]) <= 1e-8 * scale
    assert sol[4] <= 1e-9 * scale  # stationarity residual
    assert sol[5] == ora[4]  # degenerate


def test_solver_matches_oracle_where_delta_is_zero_to_rounding():
    # |delta| = S * 10**U(-15, -13) straddles the level at which the quartic
    # drops its leading coefficient delta and the eta = inf pole stands in
    # for the far root; the solver must count, tie and place the minima as
    # the brute-force route does on either side of that level
    rng = random.Random(21)
    for _ in range(200):
        u = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
        v = rng.uniform(-3.0, 3.0) * u
        r = 0.0 if rng.random() < 0.5 else u * math.exp(rng.uniform(math.log(1e-3), math.log(3.0)))
        d = rng.choice((-1.0, 1.0)) * max(u, abs(v), r) * 10.0 ** rng.uniform(-15.0, -13.0)
        sol = kernels.solve_point(u, v, d, r)
        ora = kernels.oracle_minimum(u, v, d, r, 4096)
        assert sol[7] == ora[6], (u, v, d, r)  # n_minima
        assert sol[5] == ora[4], (u, v, d, r)  # degenerate
        assert abs(sol[0] - ora[0]) <= 1e-6 and abs(sol[1] - ora[1]) <= 1e-6, (u, v, d, r)


def test_pole_enters_exactly_when_the_quartic_drops_delta():
    # u + v = 3: delta = 3e-14 is below 1e-14 of the quartic's coefficient
    # scale 2|u + v| = 6 but above 1e-14 * S = 2e-14; the mirror minima
    # s_x = +-1/2 tie as they do at delta = 1e-14
    for d in (1e-14, 3e-14):
        s_x, s_z, e, eta, res, deg, flat, nmin = kernels.solve_point(1.0, 2.0, d, 0.0)
        assert (s_x, eta, deg, nmin) == (0.5, math.inf, True, 2)
    # u + v = 0.1: delta = 5e-15 is above 1e-14 * 2|u + v| = 2e-15, so the
    # far root near the pole is kept and the pole must not be counted again
    s_x, s_z, e, eta, res, deg, flat, nmin = kernels.solve_point(1.0, -0.9, 5e-15, 0.0)
    assert math.isfinite(eta) and deg and nmin == 2


def test_pole_readings_leave_out_the_dropped_delta():
    # u + v - rabi = 1e-12: the cubic left when real_roots drops delta has
    # roots near eta = +-1.4e6, where delta*eta**4 would outweigh it; read
    # with delta, p would change sign nowhere and the pole's shallow well,
    # 1 above the minimum at s_x = -1/2, would be the only minimum counted
    for d in (1e-14, -1e-14):
        s_x, s_z, e, eta, res, deg, flat, nmin = kernels.solve_point(1.0, 1e-12, d, 1.0)
        assert (s_x, e, nmin) == (-0.5, -0.75, 2)


def test_flat_level_in_units_of_the_coupling_scale():
    # u + v = 5e-14 * S: the energy rises by (u + v)/4 from the minima
    # s_x = +-1/2 to s_z = +-1/2, some 200 ulps, so the landscape is not flat
    s_x, s_z, e, eta, res, deg, flat, nmin = kernels.solve_point(1.0, -1.0 + 5e-14, 0.0, 0.0)
    assert not flat and nmin == 2
    # delta = 5e-15 * S alone: the whole landscape spans 5e-15 * S, inside
    # the selection window, where ranking by s_z would report the maximum
    # s_z = +1/2; it is flat, with the conventional point
    s_x, s_z, e, eta, res, deg, flat, nmin = kernels.solve_point(1.0, -1.0, 5e-15, 0.0)
    assert flat and (s_x, s_z) == (-0.5, 0.0)


def test_root_acceptance_is_the_rounding_error_bound():
    # ((x - 3)**2 + 1e-13) * (x**2 + 1) has no real root: at the critical
    # point x = 3, |p| = 1e-12 is 2.8e-15 of the term magnitudes there,
    # three times Horner's rounding-error bound 8 * 2**-53
    assert kernels.real_roots(*np.polymul([1.0, -6.0, 9.0 + 1e-13], [1.0, 0.0, 1.0])) == ()
    # the rounded coefficients of (x - 0.1)**2 (x + 2)(x + 3) leave |p| at
    # the double root within that bound, but not within a tenth of it
    got = kernels.real_roots(*np.poly([0.1, 0.1, -2.0, -3.0]))
    assert len(got) == 3 and abs(got[2] - 0.1) < 1e-12


def test_weak_drive_at_the_lobe_edge_has_one_minimum():
    # at |delta| = u + v under a drive of 1e-12 * u the quartic has one real
    # root next to eta = 1 and a complex pair 1e-4 off the axis; the
    # critical point between them is no stationary point, and counting it
    # as one made a single minimum read as two, or as degenerate
    for v in (0.0, -1e-12):
        s_x, s_z, e, eta, res, deg, flat, nmin = kernels.solve_point(1.0, v, -1.0, 1e-12)
        assert (deg, nmin) == (False, 1)
        assert abs(eta - 0.99987) < 1e-5


def test_root_merge_level():
    # the double root -1/8 comes back as copies 1.4e-10 apart (relative),
    # which are one root ...
    got = kernels.real_roots(*(0.125 * np.poly([-0.125, -0.125, 31.5, -0.25])))
    assert len(got) == 3 and abs(got[1] + 0.125) < 1e-9
    # ... while the simple roots 0 and 5e-9 are two
    assert kernels.real_roots(*np.poly([0.0, 5e-9, 1.0, 2.0]))[:2] == (0.0, 5e-9)


def test_root_merge_keeps_the_copy_with_the_smaller_residual(monkeypatch):
    # the polish turns an exact double root into copies; of a chain of
    # copies, each within _DEDUPE_EPS of the next, the one kept has the
    # smallest |p|, which is a later copy in some of these quartics (copies
    # farther apart both stay, a known fault of real_roots)
    rng = np.random.default_rng(30)
    polished = []
    polish = kernels._polish

    def recorded(p, dp, x):
        polished.append(polish(p, dp, x))
        return polished[-1]

    monkeypatch.setattr(kernels, "_polish", recorded)

    def residual(c, x):
        return abs((((c[0] * x + c[1]) * x + c[2]) * x + c[3]) * x + c[4])

    later = 0
    for _ in range(2000):
        r, a, b = rng.integers(-256, 256, size=3) / 4.0
        if len({r, a, b}) < 3:
            continue
        c = tuple(float(x) for x in 1000.0 * np.poly([r, r, a, b]))
        polished.clear()
        got = kernels.real_roots(*c)
        chains = []
        for x in sorted(polished):
            if chains and x - chains[-1][-1] <= kernels._DEDUPE_EPS * max(
                    1.0, abs(x), abs(chains[-1][-1])):
                chains[-1].append(x)
            else:
                chains.append([x])
        for x in set(polished) - set(got):
            kept = [y for y in got for chain in chains if x in chain and y in chain]
            best = min(kept, key=lambda y: residual(c, y))
            assert residual(c, best) <= residual(c, x), (c, x)
            later += best > x
    assert later > 0


def test_selection_window_stays_below_near_critical_splitting():
    # just inside the lobe (u + v = 2e-12, delta = rabi = 0) the minima are
    # s_x = +-1/2 and the maxima s_z = +-1/2 lie (u + v)/4 = 5e-13 higher:
    # a selection window that reaches them lets the rank (largest s_z)
    # report a maximum
    s_x, s_z, e, eta, res, deg, flat, nmin = kernels.solve_point(1.0, -1.0 + 2e-12, 0.0, 0.0)
    assert (s_x, s_z, e) == (0.5, 0.0, -0.25)
    assert deg and nmin == 2


def test_tie_window_in_units_of_the_coupling_scale():
    # the minima s_z = +-1/2 at v = -3 (S = 3) differ by delta: a tie within
    # 1e-10 * S = 3e-10, two distinct states beyond it
    assert kernels.solve_point(1.0, -3.0, 2e-10, 0.0)[5]
    assert not kernels.solve_point(1.0, -3.0, 2e-9, 0.0)[5]


def test_minima_count_matches_the_astroid():
    # two minima exactly inside the astroid
    # rabi**(2/3) + |delta|**(2/3) < |u + v|**(2/3) (Stoner & Wohlfarth,
    # Phil. Trans. R. Soc. A 240, 599, 1948), one on it and outside.  The
    # points sit at a relative distance of 1e-9 to 1e-1 from the curve, on
    # either side, for both signs of u + v, on the delta = 0 and rabi = 0
    # slices and between; on the slices, where the curve is exact in floats,
    # also on it: the cusps |delta| = |u + v| and the pitchfork rabi = |u + v|
    rng = random.Random(20)
    for _ in range(3000):
        u = math.exp(rng.uniform(-3.0, 3.0))
        v = rng.choice((-1.0, 1.0)) * u * rng.uniform(0.1, 3.0) - u
        s = 1.0 + rng.choice((-1.0, 0.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -1.0)
        a = abs(u + v) * s
        points = [(a, 0.0), (0.0, a)]
        if s != 1.0:
            phi = rng.uniform(0.0, 0.5 * math.pi)
            points.append((a * math.sin(phi) ** 3, a * math.cos(phi) ** 3))
        d, r = rng.choice(points)
        d *= rng.choice((-1.0, 1.0))
        assert kernels.solve_point(u, v, d, r)[7] == (2 if s < 1.0 else 1), (u, v, d, r)


def test_zero_readings_between_root_copies_are_skipped():
    # on the astroid's fold under a drive (these couplings lie 3e-17 outside
    # it, by an exact evaluation) the metastable well has merged with a
    # maximum into a double root, which real_roots returns as two or three
    # copies a few 1e-9 apart; p reads exactly 0 between them and has the
    # same sign on both sides, so the copies are no minimum
    for args in ((1.0, -3.25, -2.0423935614765676, 0.03515625),
                 (1.0, -5.0, -3.186647787423918, 0.2109375)):
        assert kernels.solve_point(*args)[7] == 1


def test_mirror_minima_next_to_the_lobe_edge_are_distinct():
    # four float steps inside the lobe edge delta = u + v (rabi = 0) the
    # mirror minima s_x = +-x lie 2*sqrt(8*2**-53) = 6e-8 apart in angle,
    # above the 1e-8 below which two stationary points are one point
    rng = random.Random(18)
    for _ in range(20):
        u = math.exp(rng.uniform(-3.0, 3.0))
        v = rng.uniform(-0.9, 3.0) * u
        sol = kernels.solve_point(u, v, (u + v) * (1.0 - 4.0 * 2.0**-53), 0.0)
        assert sol[5], (u, v)  # degenerate
        assert abs(sol[0]) < 1e-6


def test_overflow_and_underflow_are_not_flat():
    # the quartic coefficients overflow (2*(u+v) = -inf) or underflow (the
    # discriminant of the reduced quadratic) for these unscaled couplings
    for args in ((1.0, -1e308, 1e308, 0.0), (1e-300, -3e-300, 1e-300, 0.0)):
        sol = kernels.solve_point(*args)
        assert not sol[6]  # flat
        assert sol[2] < 0.0 and math.isfinite(sol[2])
        assert sol[4] == 0.0  # residual
    sol = kernels.solve_point(1.0, -1e308, 1e308, 0.0)
    ora = kernels.oracle_minimum(1.0, -1e308, 1e308, 0.0, 4096)
    assert abs(sol[2] - ora[2]) <= 1e-12 * abs(ora[2])
    assert (sol[0], sol[1]) == (0.0, -0.5)
    # e = v/4 + delta*s_z at s_z = -1/2
    assert kernels.solve_point(1e-300, -3e-300, 1e-300, 0.0)[1:3] == (
        -0.5, -0.75e-300 - 0.5e-300)


def test_solver_is_deterministic():
    rng = random.Random(16)
    for _ in range(50):
        args = random_params(rng)
        assert kernels.solve_point(*args) == kernels.solve_point(*args)
        assert kernels.real_roots(args[0], args[1], 0.0, args[2], args[3]) == \
            kernels.real_roots(args[0], args[1], 0.0, args[2], args[3])


def test_residual_zero_only_at_stationary_points():
    # at a generic non-stationary angle the normalized gradient is order one
    u, v, d, r = 1.0, 0.3, 0.4, 0.2
    eta = 0.37
    assert kernels.grad_residual(u, v, d, r, eta) > 1e-3
    sol = kernels.solve_point(u, v, d, r)
    assert kernels.grad_residual(u, v, d, r, sol[3]) < 1e-10
