"""Scalar kernel tests: stationary points against the numpy companion
matrix and closed forms, minima counts against an exact astroid, and
solver/oracle agreement."""

from __future__ import annotations

import math
import random
import types
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from extdicke import meanfield as kernels
from extdicke.model import coupling_scale
from mp_reference import minima as mp_minima


def companion_real_roots(coeffs, imag_tol=1e-7):
    """Independent root oracle: eigenvalues of the companion matrix."""
    rts = np.roots(np.asarray(coeffs, dtype=float))
    real = sorted(r.real for r in rts if abs(r.imag) <= imag_tol * (1.0 + abs(r.real)))
    return real


def quartic_point(eta):
    """The Bloch-circle point (s_x, s_z) of a root eta of the stationarity
    quartic (the map of mp_reference): s_x = (eta**2 - 1)/(2(eta**2 + 1)),
    s_z = eta/(1 + eta**2)."""
    d = 1.0 + eta * eta
    return (eta * eta - 1.0) / (2.0 * d), eta / d


def random_params(rng):
    return (rng.uniform(0.0, 5.0), rng.uniform(-5.0, 5.0),
            rng.uniform(-3.0, 3.0), rng.uniform(0.0, 3.0))


def test_roots_match_companion_matrix_on_generic_coefficients():
    # each stationary point is the quartic_point of a real root of the
    # stationarity quartic delta*eta**4 + 2(w - rabi)*eta**3 - 2(w + rabi)*eta
    # - delta.  The roots run round the circle in the order of the angle
    # atan2(s_z, -s_x), which is cut at (1/2, 0), stationary only at delta = 0
    rng = random.Random(12)
    checked = 0
    for _ in range(500):
        u, v, d, r = random_params(rng)
        w = u + v
        oracle = companion_real_roots([d, 2.0 * (w - r), 0.0, -2.0 * (w + r), -d])
        # companion eigenvalues blur clustered roots; only score clean cases
        if any(b - a < 1e-3 for a, b in zip(oracle, oracle[1:])):
            continue
        found = sorted((p[1:3] for p in kernels.stationary_points(u, v, d, r)),
                       key=lambda p: math.atan2(p[1], -p[0]))
        assert len(found) == len(oracle)
        for want, got in zip(map(quartic_point, oracle), found):
            assert math.dist(want, got) < 1e-6
        checked += 1
    assert checked > 400


def test_roots_known_sets():
    def points(*c):
        return [p[1:3] + p[4:] for p in kernels.stationary_points(*c)]

    q = math.sqrt(3.0) / 4.0
    # rabi = 0 inside the lobe: the axis points s_z = -+1/2 are maxima, the
    # pair at the pole a = 0, s_z = -delta/(2(u + v)), the minima, both
    # global (a = 0, c = u + v > 0)
    assert points(1.0, 0.0, 0.5, 0.0) == [(0.0, -0.5, False, False), (0.0, 0.5, False, False),
                                          (q, -0.25, True, True), (-q, -0.25, True, True)]
    # at the lobe edge the pair has merged into s_z = -1/2, the one minimum
    assert points(1.0, 0.0, 1.0, 0.0) == [(0.0, -0.5, True, True), (0.0, 0.5, False, False)]
    # delta = 0, v < -u: the pair at the pole c = 0, s_x = rabi/(2(u + v)),
    # are the minima, until it merges into s_x = -1/2 at the driven pitchfork
    assert points(1.0, -2.0, 0.0, 0.5) == [(-0.5, 0.0, False, False), (0.5, 0.0, False, False),
                                           (-0.25, q, True, True), (-0.25, -q, True, True)]
    assert points(1.0, -2.0, 0.0, 1.0) == [(-0.5, 0.0, True, True), (0.5, 0.0, False, False)]
    # both zero: the axis points of both couplings; at u + v < 0 the pair
    # s_z = -+1/2 is the global one (c = 0, a = -(u + v) > 0)
    assert points(1.0, 0.0, 0.0, 0.0) == [(0.0, -0.5, False, False), (0.0, 0.5, False, False),
                                          (0.5, 0.0, True, True), (-0.5, 0.0, True, True)]
    assert points(1.0, -2.0, 0.0, 0.0) == [(0.0, -0.5, True, True), (0.0, 0.5, True, True),
                                           (0.5, 0.0, False, False), (-0.5, 0.0, False, False)]
    # on the astroid, 27**(2/3) + 64**(2/3) = 125**(2/3): the global minimum,
    # the global maximum and the double root, an inflection at
    # (s_x, s_z) = ((27/125)**(1/3), -(64/125)**(1/3))/2
    got = points(125.0, 0.0, 64.0, 27.0)
    assert [p[2:] for p in got] == [(True, True), (False, False), (False, False)]
    assert abs(got[2][0] - 0.3) < 1e-15 and abs(got[2][1] + 0.4) < 1e-15
    # inside it (rabi = 0.1): the metastable minimum between the poles is
    # not the global one
    assert [p[2:] for p in points(125.0, 0.0, 64.0, 0.1)] == [
        (True, True), (False, False), (True, False), (False, False)]


def test_root_finding_work_count(monkeypatch):
    # Newton on the concave form of the secular equation takes about five
    # steps a root on these couplings, each with one square root.  A call
    # count, not a time, so it cannot flake.
    calls = 0

    def sqrt(x):
        nonlocal calls
        calls += 1
        return math.sqrt(x)

    counting = types.SimpleNamespace(**vars(math))
    counting.sqrt = sqrt
    monkeypatch.setattr(kernels, "math", counting)
    rng = random.Random(18)
    roots = 0
    for _ in range(500):
        roots += len(kernels.stationary_points(*random_params(rng)))
    assert 0 < calls / roots < 8


def test_solve_point_closed_forms():
    # symmetry-broken pair below the lobe edge: s_z = -delta/(2(u+v))
    s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(1.0, 0.0, 0.5, 0.0)
    assert abs(s_z + 0.25) < 1e-12
    assert abs(s_x - math.sqrt(0.25 - 0.0625)) < 1e-12
    assert abs(e + 0.3125) < 1e-12
    assert deg and not flat and nmin == 2

    # fully polarized state beyond the lobe: |delta| > u + v
    s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(0.3, 0.0, -1.0, 0.0)
    assert abs(s_z - 0.5) < 1e-12 and abs(s_x) < 1e-12
    assert abs(e + 0.5) < 1e-12
    assert not deg and nmin == 1

    # attractive v, symmetric double well in s_z: m = +-sqrt(1 - rabi^2/w^2)
    u, v, r = 1.0, -2.0, 0.5
    s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(u, v, 0.0, r)
    w = u + v
    assert abs(abs(s_z) - 0.5 * math.sqrt(1.0 - r * r / (w * w))) < 1e-12
    assert abs(e - (r * r / (4.0 * w) + v / 4.0)) < 1e-12
    assert deg and nmin == 2

    # drive-pinned state: single minimum at s_x = -1/2
    s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(1.0, -1.2, 0.0, 0.5)
    assert abs(s_x + 0.5) < 1e-12 and abs(s_z) < 1e-12
    assert abs(e - (-1.0 / 4.0 - 0.5 / 2.0)) < 1e-12
    assert not deg and nmin == 1

    # flat landscape: conventional point, flag raised
    s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(0.0, 0.0, 0.0, 0.0)
    assert flat and (s_x, s_z) == (-0.5, 0.0)


def test_solver_matches_grid_scan():
    rng = random.Random(15)
    for _ in range(250):
        u, v, d, r = random_params(rng)
        scale = max(1.0, u + abs(v) + r + abs(d))
        sol = kernels.solve_point(u, v, d, r)
        ora = kernels.oracle_minimum(u, v, d, r, 4096)
        assert abs(sol[2] - ora[2]) < 1e-8 * scale
        assert sol[3] < 1e-9 * scale  # stationarity residual


_MAGNITUDE = st.floats(math.log(1e-12), math.log(1e12)).map(math.exp)  # log-uniform
_SIGNED = st.tuples(st.sampled_from((-1.0, 1.0)), _MAGNITUDE).map(lambda t: t[0] * t[1])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(u=_MAGNITUDE, v=_SIGNED, d=_SIGNED, r=st.one_of(st.just(0.0), _MAGNITUDE),
       d_exp=st.one_of(st.none(), st.floats(-16.0, -12.0)))
def test_solver_matches_oracle_over_full_float_range(u, v, d, r, d_exp):
    # the 4096-point grid can miss a shallow minimum, and then its count
    # and its tie are not compared
    if d_exp is not None:
        # |delta| = S * 10**d_exp: delta is zero to rounding or nearly so
        d = math.copysign(max(u, abs(v), r) * 10.0 ** d_exp, d)
    scale = max(u, abs(v), abs(d), r)
    sol = kernels.solve_point(u, v, d, r)
    ora = kernels.oracle_minimum(u, v, d, r, 4096)
    assert abs(sol[2] - ora[2]) <= 1e-8 * scale
    assert sol[3] <= 1e-9 * scale  # stationarity residual
    if ora[6] == sol[6]:
        assert sol[4] == ora[4]  # degenerate
    else:
        # two minima and the maximum between them within a grid cell or two
        # make one sign change (u = 1, v = -delta = 485165195.4097903, rabi =
        # 0: a mirror pair 6.4e-5 rad apart), and the grid's tie is blind to
        # the well it missed: the 60-digit minima count the wells, and a
        # pair that ties there is degenerate
        wells = mp_minima(u, v, d, r)
        assert len(wells) == sol[6]
        assert sol[4] or wells[-1][0] - wells[0][0] > 1e-10 * scale


def test_solver_matches_oracle_where_delta_is_zero_to_rounding():
    # |delta| = S * 10**U(-15, -13): without a drive the minima are the
    # pair at the pole a = 0, 1e-14 from the axis s_z = 0 or from s_x = +-1/2;
    # the solver must count, tie and place them as the brute-force route does
    rng = random.Random(21)
    for _ in range(200):
        u = math.exp(rng.uniform(math.log(1e-6), math.log(1e6)))
        v = rng.uniform(-3.0, 3.0) * u
        r = 0.0 if rng.random() < 0.5 else u * math.exp(rng.uniform(math.log(1e-3), math.log(3.0)))
        d = rng.choice((-1.0, 1.0)) * max(u, abs(v), r) * 10.0 ** rng.uniform(-15.0, -13.0)
        sol = kernels.solve_point(u, v, d, r)
        ora = kernels.oracle_minimum(u, v, d, r, 4096)
        assert sol[6] == ora[6], (u, v, d, r)  # n_minima
        assert sol[4] == ora[4], (u, v, d, r)  # degenerate
        assert abs(sol[0] - ora[0]) <= 1e-6 and abs(sol[1] - ora[1]) <= 1e-6, (u, v, d, r)


def test_solver_matches_oracle_on_quasi_flat_landscapes():
    # u + v, delta and rabi each at most 1e-7 * u, log-uniform down to
    # 1e-12 * u: e varies on the circle by far less than u, and a search
    # that compares energies places a minimum only to about sqrt(eps) in
    # angle, where the sign of de/dtheta places it to the bisection width;
    # the two routes count the same minima and agree on the tie
    rng = random.Random(30)
    cases = [(18.90325833311412, -18.903258333023413, 7.398041298129185e-09,
              4.884491957252853e-11)]
    for _ in range(200):
        u = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        w, d, r = (u * 10.0 ** rng.uniform(-12.0, -7.0) for _ in range(3))
        cases.append((u, rng.choice((-1.0, 1.0)) * w - u, rng.choice((-1.0, 1.0)) * d, r))
    for c in cases:
        sol, ora = kernels.solve_point(*c), kernels.oracle_minimum(*c, 4096)
        assert (sol[6], sol[4]) == (ora[6], ora[4]), c  # n_minima, degenerate


def test_oracle_reports_the_solvers_half_of_an_exact_mirror_pair():
    # delta = 0 or rabi = 0: the wells are a mirror pair whose energies the
    # oracle evaluates at its bisected points, 1.4e-16 to 1.5e-16 * S apart by
    # rounding; its window takes both, and its rank the solver's half
    for c in ((0.14137437480528453, 0.11197073704356873, -0.18684387920546702, 0.0),
              (0.09052820020585851, 0.07983470439497266, -0.10036890078876923, 0.0),
              (2.4569919153619484, -4.3192072115200775, -0.0, 0.5026413965377384)):
        sol, ora = kernels.solve_point(*c), kernels.oracle_minimum(*c, 4096)
        assert abs(sol[0] - ora[0]) < 1e-8 and abs(sol[1] - ora[1]) < 1e-8, c


def test_tied_wells_inside_the_driven_pitchfork_rank_by_s_z():
    # rabi = |u + v| * (1 - 4.5e-12) with u + v < 0: two wells at s_z of
    # about +-1.5e-6, 3e-6 apart.  At delta = 0 they are a mirror pair and
    # tie exactly, and the upper well is reported; delta = +-1e-18 tilts
    # them by 3e-24, and the well opposite delta is the global minimum, as
    # a 60-digit solve finds, on both sides of delta = 0
    for delta in (0.0, 1e-18, -1e-18):
        c = (1.0, -2.0, delta, 1.0 - 4.5e-12)
        s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(*c)
        assert deg and nmin == 2
        if delta == 0.0:
            assert 1e-6 < s_z < 2e-6
            continue
        wells = mp_minima(*c)
        assert len(wells) == 2 and wells[1][0] - wells[0][0] > 1e-24
        assert abs(s_z - wells[0][2]) < 1e-12 and abs(s_x - wells[0][1]) < 1e-12, delta
        assert math.copysign(1.0, s_z) == -math.copysign(1.0, delta)


def test_lower_of_two_wells_apart_by_rounding_is_reported():
    # two wells 1.3e-7 apart in s_z and 1.6e-13 * S apart in energy (by a
    # 60-digit solve): the lower one, which lies opposite rabi in s_x, is
    # reported; a window of 1e-13 * S with a rank slack of 1e-6 in s_z took
    # the other, by its larger s_z
    c = (2.200131554526787, -1.763247416745692, 0.4368835276764189, 9.625730724253378e-11)
    wells = mp_minima(*c)
    assert len(wells) == 2 and 1.5e-13 < wells[1][0] - wells[0][0] < 1.7e-13
    s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(*c)
    assert abs(s_x - wells[0][1]) < 1e-12 and abs(s_z - wells[0][2]) < 1e-12
    assert abs(e - wells[0][0]) < 1e-15 and deg and nmin == 2


def test_reported_well_lies_opposite_delta_and_rabi():
    # the quadratic part of e is even in s_z and in s_x, so the global
    # minimum has s_z * delta <= 0 and s_x * rabi <= 0, exactly.  50 000
    # seeded couplings, both signs of u + v, |delta| down to 1e-18 * S and
    # rabi down to 1e-16 * S, where the wells +-s_z or +-s_x differ by
    # less than a rounding of their energies
    rng = random.Random(31)
    for _ in range(50000):
        u = math.exp(rng.uniform(-3.0, 3.0))
        v = u * rng.uniform(-3.0, 3.0)
        s = max(u, abs(v))
        d = rng.choice((-1.0, 1.0)) * s * 10.0 ** rng.uniform(-18.0, 0.5)
        r = rng.choice((0.0, s * 10.0 ** rng.uniform(-16.0, 0.5)))
        s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(u, v, d, r)
        assert flat or (s_z * d <= 0.0 and s_x * r <= 0.0), (u, v, d, r)


def test_mirror_wells_where_delta_is_zero_to_rounding():
    # rabi = 0 and |delta| < u + v: the minima are the pair at the pole
    # a = 0, s_z = -delta/(2(u + v)) and s_x = +-1/2 to rounding; they tie,
    # and the one with s_x > 0 is reported
    for u, v, d in ((1.0, 2.0, 1e-14), (1.0, 2.0, 3e-14), (1.0, -0.9, 5e-15)):
        s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(u, v, d, 0.0)
        assert (s_x, s_z) == (0.5, -0.5 * d / (u + v))
        assert deg and nmin == 2


def test_one_minimum_just_outside_the_astroid_cusp():
    # (u, v, rabi) = (1, 1e-12, 1) lies 1e-12 inside the driven pitchfork
    # rabi = u + v, where the astroid is 5.5e-19 wide in delta: |delta| =
    # 1e-14 lies some 2e4 half-widths outside it, so the couplings have one
    # minimum, at s_x = -1/2, and one maximum (as an 80-digit solve of the
    # quartic finds too)
    for d in (1e-14, -1e-14):
        s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(1.0, 1e-12, d, 1.0)
        assert (s_x, e, nmin) == (-0.5, -0.75, 1)
        assert len(kernels.stationary_points(1.0, 1e-12, d, 1.0)) == 2


def test_flat_level_in_units_of_the_coupling_scale():
    # u + v = 5e-14 * S: the energy rises by (u + v)/4 from the minima
    # s_x = +-1/2 to s_z = +-1/2, some 200 ulps, so the landscape is not flat
    s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(1.0, -1.0 + 5e-14, 0.0, 0.0)
    assert not flat and nmin == 2
    # delta = 5e-15 * S alone: the whole landscape spans 5e-15 * S, below
    # the flat level; it is flat, with the conventional point
    s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(1.0, -1.0, 5e-15, 0.0)
    assert flat and (s_x, s_z) == (-0.5, 0.0)


def test_weak_drive_at_the_lobe_edge_has_one_minimum():
    # at |delta| = u + v under a drive of 1e-12 * u the couplings lie just
    # outside the astroid's cusp: one minimum, next to eta = 1, where the
    # stationarity quartic also has a complex pair 1e-4 off the axis
    for v in (0.0, -1e-12):
        s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(1.0, v, -1.0, 1e-12)
        assert (deg, nmin) == (False, 1)
        assert math.dist((s_x, s_z), quartic_point(0.99987)) < 5e-6


def test_selection_window_stays_below_near_critical_splitting():
    # just inside the lobe (u + v = 2e-12, delta = rabi = 0) the minima are
    # s_x = +-1/2 and the maxima s_z = +-1/2 lie (u + v)/4 = 5e-13 higher:
    # the reported point is the marked global minimum, never a maximum
    s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(1.0, -1.0 + 2e-12, 0.0, 0.0)
    assert (s_x, s_z, e) == (0.5, 0.0, -0.25)
    assert deg and nmin == 2


def test_tie_window_in_units_of_the_coupling_scale():
    # the minima s_z = +-1/2 at v = -3 (S = 3) differ by delta: a tie within
    # 1e-10 * S = 3e-10, two distinct states beyond it
    assert kernels.solve_point(1.0, -3.0, 2e-10, 0.0)[4]
    assert not kernels.solve_point(1.0, -3.0, 2e-9, 0.0)[4]


def _astroid_count(w, d, r):
    """2 strictly inside the astroid r**(2/3) + |d|**(2/3) = |w|**(2/3),
    else 1: the sign of (w**2 - d**2 - r**2)**3 - 27*w**2*d**2*r**2 in
    exact rationals, with the first factor positive."""
    w2, d2, r2 = (Fraction(x) ** 2 for x in (w, d, r))
    f = w2 - d2 - r2
    return 2 if f > 0 and f ** 3 > 27 * w2 * d2 * r2 else 1


def test_minima_count_matches_the_astroid():
    # two minima exactly inside the astroid (Stoner & Wohlfarth, Phil.
    # Trans. R. Soc. A 240, 599, 1948) at w = u + v in floats, one on it and
    # outside.  The points sit at a relative distance of 1e-16 to 1e-1 from
    # the curve, on either side, for both signs of u + v, on the delta = 0
    # and rabi = 0 slices and between; on the slices, where the curve is
    # exact in floats, also on it: the cusps |delta| = |u + v| and the
    # pitchfork rabi = |u + v|
    rng = random.Random(20)
    for _ in range(3000):
        u = math.exp(rng.uniform(-3.0, 3.0))
        v = rng.choice((-1.0, 1.0)) * u * rng.uniform(0.1, 3.0) - u
        s = 1.0 + rng.choice((-1.0, 0.0, 1.0)) * 10.0 ** rng.uniform(-16.0, -1.0)
        a = abs(u + v) * s
        points = [(a, 0.0), (0.0, a)]
        if s != 1.0:
            phi = rng.uniform(0.0, 0.5 * math.pi)
            points.append((a * math.sin(phi) ** 3, a * math.cos(phi) ** 3))
        d, r = rng.choice(points)
        d *= rng.choice((-1.0, 1.0))
        assert kernels.solve_point(u, v, d, r)[6] == _astroid_count(u + v, d, r), (u, v, d, r)


def test_points_just_outside_the_fold_have_one_minimum():
    # on the astroid's fold under a drive (these couplings lie 3e-17 outside
    # it, by an exact evaluation) the metastable well has merged with a
    # maximum: no middle root, one minimum
    for args in ((1.0, -3.25, -2.0423935614765676, 0.03515625),
                 (1.0, -5.0, -3.186647787423918, 0.2109375)):
        assert kernels.solve_point(*args)[6] == 1


def test_mirror_minima_next_to_the_lobe_edge_are_distinct():
    # four float steps inside the lobe edge delta = u + v (rabi = 0) the
    # mirror minima s_x = +-x lie 2*sqrt(8*2**-53) = 6e-8 apart in angle,
    # above the 1e-8 below which two stationary points are one point
    rng = random.Random(18)
    for _ in range(20):
        u = math.exp(rng.uniform(-3.0, 3.0))
        v = rng.uniform(-0.9, 3.0) * u
        sol = kernels.solve_point(u, v, (u + v) * (1.0 - 4.0 * 2.0**-53), 0.0)
        assert sol[4], (u, v)  # degenerate
        assert abs(sol[0]) < 1e-6


def test_overflow_and_underflow_are_not_flat():
    # for these unscaled couplings 2*(u+v) overflows (-inf), products of
    # two couplings underflow, or every coupling is subnormal (where the
    # energy, about -0.08 * 2**-1073, rounds to -0.0): neither route calls
    # the landscape flat, and both count the same minima
    for args in ((1.0, -1e308, 1e308, 0.0), (1e-300, -3e-300, 1e-300, 0.0),
                 (5e-324, 1e-323, -5e-324, 0.0)):
        sol, ora = kernels.solve_point(*args), kernels.oracle_minimum(*args, 4096)
        assert not sol[5] and not ora[5], args  # flat
        assert sol[6] == ora[6], args  # n_minima
        assert math.copysign(1.0, sol[2]) < 0.0 and math.isfinite(sol[2])
        assert abs(sol[2] - ora[2]) <= 1e-12 * abs(ora[2])
        assert sol[3] == 0.0  # residual
    assert kernels.solve_point(1.0, -1e308, 1e308, 0.0)[:2] == (0.0, -0.5)
    # e = v/4 + delta*s_z at s_z = -1/2
    assert kernels.solve_point(1e-300, -3e-300, 1e-300, 0.0)[1:3] == (
        -0.5, -0.75e-300 - 0.5e-300)


def test_solver_is_deterministic():
    rng = random.Random(16)
    for _ in range(50):
        args = random_params(rng)
        assert kernels.solve_point(*args) == kernels.solve_point(*args)
        assert kernels.stationary_points(*args) == kernels.stationary_points(*args)


def test_residual_zero_only_at_stationary_points():
    # at a generic non-stationary angle the normalized gradient is order one
    u, v, d, r = 1.0, 0.3, 0.4, 0.2
    assert kernels.grad_residual(u, v, d, r, *quartic_point(0.37)) > 1e-3
    sol = kernels.solve_point(u, v, d, r)
    assert kernels.grad_residual(u, v, d, r, sol[0], sol[1]) < 1e-10


def test_two_minima_just_inside_the_driven_pitchfork():
    # delta = 0 and rabi < |u + v| with v < -u: the pair at the pole c = 0,
    # s_x = rabi/(2(u + v)), s_z = +-sqrt(1/4 - s_x**2), are the minima, down
    # to the last float below the pitchfork rabi = |u + v|, where they merge
    assert kernels.solve_point(0.17154784088234243, -0.4542168168298747,
                               0.0, 0.2826689759475268)[4:] == (True, False, 2)
    rng = random.Random(60)
    for _ in range(1000):
        u = math.exp(rng.uniform(-3.0, 3.0))
        v = -u * rng.uniform(1.1, 4.0)
        r = abs(u + v)
        steps = rng.randint(0, 16)
        for _ in range(steps):
            r = math.nextafter(r, 0.0)
        assert kernels.solve_point(u, v, 0.0, r)[6] == (2 if steps else 1), (u, v, r)


def test_exact_lobe_edges_have_one_minimum_and_no_tie():
    # at rabi = 0 and |delta| = u + v the pair at the pole a = 0 has merged
    # into the axis point s_z = -sign(delta)/2, where a = 0 and c > 0: one
    # minimum, the global one, and no second stationary point near its energy
    rng = random.Random(74)
    for _ in range(4000):
        u = rng.uniform(0.1, 10.0)
        v = rng.uniform(-0.9, 2.0) * u
        d = rng.choice((-1.0, 1.0)) * (u + v)
        s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(u, v, d, 0.0)
        assert (s_x, s_z, deg, nmin) == (0.0, -math.copysign(0.5, d), False, 1), (u, v, d)


def test_minima_mirror_exactly_next_to_the_lobe_edge():
    # up to 16 float steps either side of a lobe edge, undriven or driven
    # by 1e-12 * u: delta -> -delta flips s_z and nothing else, as
    # the points come in an order that depends on |delta| only and the
    # reported one is the marked global minimum
    rng = random.Random(4)
    for _ in range(2000):
        u = rng.uniform(0.1, 10.0)
        v = rng.uniform(-0.9, 2.0) * u
        d = u + v
        for _ in range(rng.randint(1, 16)):
            d = math.nextafter(d, rng.choice((-math.inf, math.inf)))
        r = rng.choice((0.0, 1e-12 * u))
        a, b = kernels.solve_point(u, v, d, r), kernels.solve_point(u, v, -d, r)
        assert repr(b) == repr((a[0], -a[1], a[2], *a[3:])), (u, v, d, r)


def _near_astroid(rng, u, v):
    """A drive and detuning a few float steps off the astroid at w = u + v."""
    w = abs(u + v)
    phi = rng.uniform(0.05, 0.5 * math.pi - 0.05)
    d, r = w * math.sin(phi) ** 3, w * math.cos(phi) ** 3
    for _ in range(rng.randint(0, 8)):
        r = math.nextafter(r, rng.choice((0.0, math.inf)))
    return rng.choice((-1.0, 1.0)) * d, r


def test_hard_families_agree_with_the_oracle():
    # a root within a subnormal distance of its pole (the first case, where
    # s_z = -delta/(2c) keeps few bits of a subnormal c), subnormal drives
    # and detunings, points a few float steps off the astroid, and
    # couplings where the global minimum's two bounds on |a|, rabi and
    # |delta| - (u + v), coincide, with a root the width of delta from
    # the corner; the point lies on the circle and its energy is the
    # brute-force route's to 1e-12 * S
    rng = random.Random(28)
    cases = [(1.0, -2.026090996747101, 6.4e-323, 0.13971169615051093),
             (0.01913118668835189, -0.028995119741264862, -1.28e-321, 0.009863933052912971)]
    for _ in range(40):
        u = math.exp(rng.uniform(-3.0, 3.0))
        v = rng.uniform(-3.0, 3.0) * u
        tiny = rng.choice((5e-324, 6.4e-323, 1e-315, 1e-310))
        cases.append((u, v, rng.choice((-1.0, 1.0)) * tiny, rng.uniform(0.0, 3.0) * u))
        cases.append((u, v, rng.uniform(-3.0, 3.0) * u, tiny))
        cases.append((u, v, *_near_astroid(rng, u, v)))
        d = rng.uniform(0.0, 3.0) * u * rng.choice((1.0, 1e-300, 1e-320))
        cases.append((u, v, rng.choice((-1.0, 1.0)) * d, abs(d - (u + v))))
    for c in cases:
        scale = coupling_scale(*c)
        sol, ora = kernels.solve_point(*c), kernels.oracle_minimum(*c, 4096)
        assert abs(sol[0] ** 2 + sol[1] ** 2 - 0.25) <= 1e-15, c
        assert abs(sol[2] - ora[2]) <= 1e-12 * scale, c


def test_products_of_tiny_couplings_do_not_underflow():
    # |delta| = 1e308 scales u = 1 and the drive into the subnormals, where
    # a product of two of them underflows to 0, and no such product may
    # end up as a divisor
    for r in (0.7 + 0.0001 * i for i in range(1000)):
        s_x, s_z, e, res, deg, flat, nmin = kernels.solve_point(1.0, 0.0, -1e308, r)
        assert (s_z, e, flat, nmin) == (0.5, -0.5e308, False, 1), r
        assert -1e-300 < s_x <= 0.0, r
