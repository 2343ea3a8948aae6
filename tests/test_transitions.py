"""Transition refinement: the turning-rate rule, the kink measure, the
closed-form axis derivatives, and jittered scans checked against the
closed-form critical lines."""

from __future__ import annotations

import math
import random

import pytest
from mp_reference import minima as mp_minima

from extdicke import phases
from extdicke.meanfield import _DISTINCT_ANGLE, ground_state
from extdicke.model import ModelParams
from extdicke.phases import _argmax, _observable_fn, _refine_jump, detect_transitions


def params_u(u, delta=0.0, omega_rabi=0.0, v=0.0):
    return ModelParams(omega=1.0, lam=math.sqrt(u), delta=delta,
                       omega_rabi=omega_rabi, v=v)


# --- closed-form derivatives along each axis ------------------------------

# inside the superradiant lobe with a drive: one smooth, isolated minimum
SMOOTH = ModelParams(omega=1.3, lam=1.1, delta=0.3, omega_rabi=0.2, v=0.15)
# the axis name (the JSON key) of each field
AXIS_NAMES = {"delta": "delta", "omega_rabi": "omega_rabi", "v": "v", "lam": "lambda",
              "omega": "omega"}


def _at(field, t):
    return ground_state(SMOOTH.replace(**{field: t}))


@pytest.mark.parametrize("field", AXIS_NAMES)
def test_energy_slope_is_the_energy_derivative(field):
    axis = AXIS_NAMES[field]
    t = getattr(SMOOTH, field)
    h = 1e-5
    value = _observable_fn(SMOOTH, axis, "energy_slope")(t)[0]
    diff = (_at(field, t + h).energy_per_atom
            - _at(field, t - h).energy_per_atom) / (2.0 * h)
    assert value == pytest.approx(diff, abs=1e-8)


@pytest.mark.parametrize("field", AXIS_NAMES)
def test_turning_rate_is_the_angle_derivative(field):
    axis = AXIS_NAMES[field]
    t = getattr(SMOOTH, field)
    h = 1e-5

    def theta(s):
        p = _at(field, s).point
        return math.atan2(p.s_z, p.s_x)

    _, _, rate = _observable_fn(SMOOTH, axis, "m_over_n")(t)
    diff = (theta(t + h) - theta(t - h)) / (2.0 * h)
    assert rate == pytest.approx(abs(diff), rel=1e-6)


# --- the turning-rate rule and the kink measure ---------------------------

def test_small_drive_rounded_lobe_edges_are_no_transition():
    # a drive of 0.005u rounds the edges at delta = +-2.4; the state turns
    # by about 0.07 rad per scan step there, and no critical line lies at
    # the +-2.66 where a line-fit refinement used to report corners
    p = params_u(2.0, v=0.4, omega_rabi=0.01)
    assert detect_transitions(p, "delta", -4.8, 4.8) == []


@pytest.mark.parametrize("drive, orders", [
    # the rounded edge turns the state at most 2/(3w) * (2 rabi/w)**(-1/3)
    # per unit detuning: 0.53 rad per 0.01 step here, so no record
    (1e-6, []),
    # and 2.5 rad per step, a corner at this resolution
    (1e-8, ["second", "second"]),
])
def test_turning_rate_rule_at_scan_resolution(drive, orders):
    recs = detect_transitions(params_u(1.0, omega_rabi=drive), "delta",
                              -2.0, 2.0, n_scan=401)
    assert [r.order for r in recs] == orders
    for rec, edge in zip(recs, (-1.0, 1.0)):
        assert abs(rec.location - edge) <= 1e-6


def test_refinement_stays_inside_the_range():
    # at omega_rabi = 0 this point sits on the lobe edge delta = u + v, so
    # the flagged cell is the range's first; a refinement that steps below
    # it asks for a negative drive
    recs = detect_transitions(ModelParams(omega=1.0, lam=1.0, v=-0.9, delta=0.1),
                              "omega_rabi", 0.0, 2.0)
    assert all(0.0 <= r.location <= 2.0 for r in recs)


def test_lobe_edge_kink_is_the_limiting_slope_mismatch():
    # no drive: m/N = -delta/(u + v) inside the lobe and -+1 outside, so the
    # slope jumps by 1/(u + v) at each edge
    u, v = 1.0, 0.2
    recs = detect_transitions(params_u(u, v=v), "delta", -2.4, 2.4)
    assert [r.order for r in recs] == ["second", "second"]
    for rec in recs:
        assert rec.kink == pytest.approx(1.0 / (u + v), rel=1e-6)


# --- jittered closed-form scans -------------------------------------------

FAMILIES = ("lobe", "first", "onset", "rabi")
OBSERVABLES = ("m_over_n", "photon_density", "energy_slope", "s_x")


def _jittered_scan(family, observable, rng):
    """A scan whose transitions have closed forms: couplings and window
    each jittered by up to 10 %, u from 0.1 to 10.  Returns the scan, the
    expected (order, location) list, the expected jump or None, and the
    coupling scale."""
    def j():
        return 1.0 + rng.uniform(-0.1, 0.1)

    u = 10.0 ** rng.uniform(-1.0, 1.0)
    jump = None
    if family == "lobe":  # second-order edges at delta = +-(u + v)
        v = 0.2 * u * j()
        w = u + v
        # m/N scans carry a drive of 1e-12 u, far too weak to round an edge
        rabi = 1e-12 * u if observable == "m_over_n" else 0.0
        axis, lo, hi = "delta", -2.0 * w * j(), 2.0 * w * j()
        want = [("second", -w), ("second", w)]
    elif family == "first":  # the wells at +-s_z swap at delta = 0
        v = -2.0 * u * j()
        w = u + v
        rabi = 0.4 * u * j()
        axis, lo, hi = "delta", -u * j(), 1.1 * u * j()
        if observable in ("m_over_n", "energy_slope"):
            want = [("first", 0.0)]
            jump = 2.0 * math.sqrt(1.0 - rabi ** 2 / w ** 2)
            if observable == "energy_slope":  # s_z, half of m/N
                jump *= 0.5
        else:  # continuous across the swap, with a slope that flips sign
            want = [("second", 0.0)]
    elif family == "onset":  # Mott-superfluid pitchfork at v = -u - rabi
        v = 0.0
        rabi = 0.5 * u * j()
        v_c = -u - rabi
        axis, lo, hi = "v", v_c - 0.8 * u * j(), v_c + 0.6 * u * j()
        want = [("second", v_c)]
    else:  # the same onset along the drive, at rabi = |u + v|
        v = -2.0 * u * j()
        rabi = 0.0
        w = abs(u + v)
        axis, lo, hi = "omega_rabi", 0.45 * w * j(), 1.5 * w * j()
        want = [("second", w)]
    p = ModelParams(omega=1.0, lam=math.sqrt(u), v=v, omega_rabi=rabi)
    return (p, axis, lo, hi), want, jump, max(1.0, u + abs(v) + rabi)


def test_jittered_scans_match_closed_forms():
    rng = random.Random(20260)
    failures = []
    for k in range(32):
        family = FAMILIES[k % 4]
        observable = OBSERVABLES[(k // 4) % 4]
        scan, want, jump, scale = _jittered_scan(family, observable, rng)
        recs = detect_transitions(*scan, observable=observable)
        tol = 1e-6 * scale
        got = [(r.order, r.location) for r in recs]
        ok = len(got) == len(want) and all(
            g[0] == w[0] and abs(g[1] - w[1]) <= tol for g, w in zip(got, want))
        if ok and jump is not None:
            ok = abs(recs[0].jump - jump) <= tol
        if not ok:
            failures.append((family, observable, scan, got, want))
    assert failures == []


def test_jittered_scan_records_are_two_spacings_apart():
    rng = random.Random(20260)
    for k in range(32):
        family = FAMILIES[k % 4]
        observable = OBSERVABLES[(k // 4) % 4]
        scan, _, _, _ = _jittered_scan(family, observable, rng)
        spacing = (scan[3] - scan[2]) / 200
        locs = [r.location for r in detect_transitions(*scan, observable=observable)]
        assert all(b - a > 2.0 * spacing for a, b in zip(locs, locs[1:]))


# --- solver work at the critical drive ------------------------------------

CRITICAL_DRIVE = ModelParams(omega=1.0, lam=1.0, v=-2.0, omega_rabi=1.0)


def _counting_solver(monkeypatch):
    """The couplings of every ground_state call the detector makes."""
    calls = []

    def counted(p):
        calls.append((p.omega, p.lam, p.delta, p.omega_rabi, p.v))
        return ground_state(p)

    monkeypatch.setattr(phases, "ground_state", counted)
    return calls


def test_critical_drive_cusp_is_refined_once(monkeypatch):
    # the delta**(1/3) cusp keeps the second difference above the floor
    # over +-0.15, but only its local maximum is refined
    calls = _counting_solver(monkeypatch)
    recs = detect_transitions(CRITICAL_DRIVE, "delta", -1.0, 1.0)
    assert [(r.order, r.location) for r in recs] == [("second", 0.0)]
    assert len(calls) <= 868


@pytest.mark.parametrize("params, axis, t_min, t_max, observable, orders, solves", [
    # the two lobe edges, refined as corners
    (params_u(1.0, v=0.2), "delta", -2.4, 2.4, "m_over_n", ["second"] * 2, 443),
    # the wells swap at delta = 0: a jump bisected down to 1.7e-20
    (params_u(1.0, v=-2.0, omega_rabi=0.5), "delta", -1.0, 1.0, "m_over_n", ["first"], 259),
    # the flat manifold at v = -u, delta = 0: _refine_jump's flat window
    (params_u(1.0, v=-1.0), "delta", -1.0, 1.0, "energy_slope", ["first"], 490),
    # a drive scan with no flag: the scan nodes alone
    (params_u(1.0, v=-2.0, delta=0.3), "omega_rabi", 0.0, 2.0, "s_x", [], 201),
])
def test_detector_solves_each_point_once(monkeypatch, params, axis, t_min, t_max,
                                         observable, orders, solves):
    # the scan, the bisections, the golden-section search and the secants
    # revisit points; each distinct one is solved once
    calls = _counting_solver(monkeypatch)
    recs = detect_transitions(params, axis, t_min, t_max, observable=observable)
    assert [r.order for r in recs] == orders
    assert len(calls) == solves
    assert len(set(calls)) == len(calls)


def test_argmax_stops_at_the_bracket_float_spacing(monkeypatch):
    # the turning rate diverges at delta = 0; a search that runs to
    # adjacent floats there walks down the subnormals
    rate = _observable_fn(CRITICAL_DRIVE, "delta", "m_over_n")
    calls = _counting_solver(monkeypatch)
    t, g = _argmax(lambda t: rate(t)[2], -0.03, 0.01)
    assert abs(t) <= math.ulp(0.03) and g == math.inf
    assert len(calls) <= 100


# --- each tolerance between rounding and physics --------------------------

# the wells at +-s_z swap at delta = 0: m/N jumps, s_x (which they share)
# is continuous with a corner
SWAP = ModelParams(omega=1.0, lam=1.0, v=-2.0, omega_rabi=0.4)


def test_jump_tolerance_sits_between_rounding_and_a_closing_jump():
    # between the coexisting wells s_x differs by rounding only (5.55e-17);
    # near the critical drive the m/N jump 2*sqrt(1 - rabi**2/(u + v)**2)
    # closes, and the smallest jump that
    # test_closing_jumps_are_first_order_at_delta_zero checks, 1e-4, must
    # still be first order.  A tolerance of 0 turns corners into first-order
    # records (13 tests of this file and test_phases.py fail); 1e-5 and 1e-4
    # pass as 1e-6 does
    solve = _observable_fn(SWAP, "delta", "s_x")
    _, rounding = _refine_jump(solve, -0.01, 0.01)
    drive = SWAP.replace(omega_rabi=math.sqrt(1.0 - 0.5e-4 ** 2))
    recs = detect_transitions(drive, "delta", -0.5, 0.55)
    assert [r.order for r in recs] == ["first"]
    assert recs[0].jump == pytest.approx(1e-4, rel=1e-6)
    assert rounding < phases._JUMP_TOL < recs[0].jump


@pytest.mark.parametrize("jump", [1e-4, 3e-4, 1e-3, 3e-3, 1e-2])
def test_closing_jumps_are_first_order_at_delta_zero(jump):
    # just below the critical drive the wells +-s_z swap at delta = 0 with
    # an m/N jump that closes; the well opposite delta is reported on each
    # side, however small the jump, so the swap is one first-order record
    # there, with the jump between the wells of a 60-digit solve at delta
    # = 0, not a corner where one well ends (the astroid, 2e-14 away at 1e-4)
    drive = SWAP.replace(omega_rabi=math.sqrt(1.0 - (jump / 2.0) ** 2))
    recs = detect_transitions(drive, "delta", -0.5, 0.55)
    wells = mp_minima(drive.u, drive.v, 0.0, drive.omega_rabi)
    assert [r.order for r in recs] == ["first"]
    assert abs(recs[0].location) < 1e-15
    assert recs[0].jump == pytest.approx(float(2 * abs(wells[0][2] - wells[1][2])), rel=1e-6)


def test_branch_switch_test_sits_between_rounding_and_the_swap(monkeypatch):
    # the chord test across adjacent floats: on one branch (a lobe edge
    # rounded by a drive of 1e-6 u) the state moves by rounding, and at the
    # swap of the wells s_x follows it across the circle
    chords = []
    bisect = phases._bisect

    def logged(g, a, b):
        l, r = bisect(g, a, b)
        if g.__name__ == "chord":
            chords.append(abs(g(r) - g(l)))
        return l, r

    monkeypatch.setattr(phases, "_bisect", logged)
    assert detect_transitions(params_u(1.0, omega_rabi=1e-6), "delta",
                              -2.0, 2.0, n_scan=401) == []
    rounding = max(chords)
    chords.clear()
    recs = detect_transitions(SWAP, "delta", -1.0, 1.1, observable="s_x")
    assert [r.order for r in recs] == ["second"]
    assert rounding < 0.5 * _DISTINCT_ANGLE < min(chords)


def test_flag_floor_sits_between_rounding_and_the_lobe_edges(monkeypatch):
    # m/N is -delta/(u + v) inside the lobe and -+1 outside: its second
    # difference is rounding except next to the two edges, where the slope
    # jumps by 1/(u + v).  Above the floor only the edges are refined
    p, lo, hi = params_u(1.0, v=0.2), -2.4, 2.4
    f = _observable_fn(p, "delta", "m_over_n")
    ts = [lo + (hi - lo) / 200 * i for i in range(201)]
    fs = [f(t)[0] for t in ts]
    mag = [abs(fs[i] - 2.0 * fs[i + 1] + fs[i + 2]) for i in range(199)]
    cells = list(zip(ts[1:-1], mag))  # (cell centre, |second difference|)
    rounding = max(m for t, m in cells if abs(abs(t) - 1.2) > 0.04)
    corner = min(max(m for t, m in cells if abs(t - edge) <= 0.04) for edge in (-1.2, 1.2))
    f_range = max(fs) - min(fs)
    assert rounding < phases._FLAG_FLOOR * f_range < corner
    calls = _counting_solver(monkeypatch)
    assert [r.order for r in detect_transitions(p, "delta", lo, hi)] == ["second"] * 2
    assert len(calls) <= 443


def test_energy_across_the_lobe_refines_no_cell(monkeypatch):
    # at a lobe edge the energy's slope is continuous and its curvature
    # steps: its second difference steps too, with no outlier to refine
    calls = _counting_solver(monkeypatch)
    assert detect_transitions(params_u(1.0, v=0.2), "delta", -2.4, 2.4,
                              observable="energy") == []
    assert len(calls) == 201


def test_lobe_edges_of_s_x_are_mirror_images():
    # next to a lobe edge the minima are the pair s_x = +-x at the pole of
    # the secular equation, x ~ sqrt of the distance to the edge, and the
    # tie between them goes to s_x > 0 on both sides: both edges are
    # second order, at mirror-image locations with one kink
    recs = detect_transitions(ModelParams(omega=1.0, lam=0.7398303590783157,
                                          v=0.10835274196937934),
                              "delta", -1.4086592819537567, 1.1921287741866455,
                              observable="s_x")
    assert [r.order for r in recs] == ["second", "second"]
    assert recs[0].location == -recs[1].location and recs[0].kink == recs[1].kink


def test_photon_density_is_read_in_its_own_unit():
    # the photon density is (lambda/omega)**2 * s_x**2; at fixed u the
    # unit (lambda/omega)**2 = 4**-j sets the flag floor, so the lobe
    # edges are found at any omega
    for j in (0, 5, 10, 20):
        recs = detect_transitions(ModelParams(omega=4.0**j, lam=2.0**j, v=0.2), "delta",
                                  -2.4, 2.4, observable="photon_density")
        assert [(r.location, r.order) for r in recs] == [(-1.2, "second"), (1.2, "second")]


@pytest.mark.xfail(strict=True, reason="two corners less than four scan cells apart share "
                   "one bracket, which yields one record")
@pytest.mark.parametrize("observable", ["photon_density", "m_over_n", "energy_slope"])
def test_lobe_edges_three_cells_apart_give_two_records(observable):
    # the lobe is 2 (u + v) = 0.0098 wide, 2.9 scan cells: one bracket holds
    # both edges, and the scan reports the + edge of the photon density and
    # the - edge of m/N and of the energy slope, each alone
    p = params_u(0.11918370701542035, v=-0.1142835288328955)
    recs = detect_transitions(p, "delta", -0.22845, 0.44295, observable=observable)
    edge = p.u + p.v
    assert [r.order for r in recs] == ["second", "second"]
    assert all(abs(r.location - x) <= 1e-9 for r, x in zip(recs, (-edge, edge)))
