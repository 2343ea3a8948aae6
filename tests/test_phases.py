"""Phase labels, critical lines, susceptibility, and transition detection."""

from __future__ import annotations

import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mp_reference import minima as mp_minima

from extdicke import phases
from extdicke.meanfield import PhaseLabel, ground_state
from extdicke.model import ModelParams, ParameterError, coupling_scale
from extdicke.sweep import AxisSpec, SweepConfig, run_sweep
from extdicke.phases import (
    classify,
    critical_overlays,
    delta_critical,
    detect_transitions,
    mott_boundary_delta,
    susceptibility_v,
    v_critical,
)


def params_u(u, delta=0.0, omega_rabi=0.0, v=0.0):
    return ModelParams(omega=1.0, lam=math.sqrt(u), delta=delta,
                       omega_rabi=omega_rabi, v=v, n_atoms=1)


# --- closed-form critical lines -----------------------------------------

def test_delta_critical_lobe_edges():
    assert delta_critical(1.0, -0.25) == (-0.75, 0.75)
    assert delta_critical(0.4, 0.0) == (-0.4, 0.4)
    with pytest.raises(ParameterError, match="no superradiant lobe"):
        delta_critical(1.0, -1.5)


def test_mott_boundary_values():
    assert mott_boundary_delta(1.0, -2.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert mott_boundary_delta(1.0, -2.0, 0.5) == pytest.approx(
        0.22509823218728275, abs=1e-14)
    assert mott_boundary_delta(1.0, -1.2, 0.1) == pytest.approx(
        0.045019646437456574, abs=1e-14)
    assert mott_boundary_delta(1.0, -2.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    # drive stronger than |w|: the second minimum never forms
    assert mott_boundary_delta(1.0, -1.4, 0.5) is None
    # for w > 0 the same astroid bounds the swallowtail inside the lobe
    assert mott_boundary_delta(1.0, 0.5, 0.2) == pytest.approx(
        0.9529403029099687, abs=1e-14)
    # a negative drive has no real edge (the formula turns complex)
    with pytest.raises(ParameterError, match="negative Rabi frequency"):
        mott_boundary_delta(1.0, -3.0, -0.5)


def test_astroid_matches_observed_minimum_count():
    edge = mott_boundary_delta(1.0, 0.0, 0.2)
    assert edge == pytest.approx(0.5337570239158691, abs=1e-14)
    inside = ground_state(params_u(1.0, delta=edge - 0.01, omega_rabi=0.2))
    outside = ground_state(params_u(1.0, delta=edge + 0.01, omega_rabi=0.2))
    assert inside.n_local_minima == 2
    assert outside.n_local_minima == 1
    # same check on the attractive side, where the edge bounds the Mott lobe
    edge2 = mott_boundary_delta(1.0, -2.0, 0.5)
    sf = ground_state(params_u(1.0, delta=edge2 - 0.01, omega_rabi=0.5, v=-2.0))
    single = ground_state(params_u(1.0, delta=edge2 + 0.01, omega_rabi=0.5,
                                   v=-2.0))
    assert sf.n_local_minima == 2
    assert single.n_local_minima == 1


def test_v_critical_values():
    assert v_critical(1.0, 0.0, 0.5) == pytest.approx(-1.5, abs=1e-15)
    assert v_critical(1.0, 0.3, 0.0) == pytest.approx(-1.3, abs=1e-15)
    assert v_critical(1.0, 0.3, 0.4) == pytest.approx(-1.9865662555435093,
                                                      abs=1e-14)
    # consistency with the detuning form of the same surface
    u, v, r = 1.0, -2.0, 0.5
    d = mott_boundary_delta(u, v, r)
    assert v_critical(u, d, r) == pytest.approx(v, abs=1e-12)
    with pytest.raises(ParameterError, match="negative Rabi frequency"):
        v_critical(1.0, 0.2, -0.5)


# --- classification ------------------------------------------------------

@pytest.mark.parametrize("v,label", [
    (0.5, PhaseLabel.SUPERRADIANT),
    (0.0, PhaseLabel.SUPERRADIANT),
    (-0.99, PhaseLabel.SUPERRADIANT),
    (-1.01, PhaseLabel.MOTT),
    (-1.2, PhaseLabel.MOTT),
    (-1.49, PhaseLabel.MOTT),
    (-1.51, PhaseLabel.SUPERFLUID),
    (-2.0, PhaseLabel.SUPERFLUID),
    (-3.0, PhaseLabel.SUPERFLUID),
])
def test_classify_windows_on_symmetric_axis(v, label):
    # u = 1, drive 0.5, delta = 0: boundaries sit at v = -1 and v = -1.5
    assert classify(params_u(1.0, omega_rabi=0.5, v=v)) is label


def test_classify_normal_and_polarized():
    assert classify(params_u(0.2, delta=1.0)) is PhaseLabel.NORMAL
    assert classify(params_u(1.0, delta=1.5)) is PhaseLabel.NORMAL
    assert classify(params_u(1.0, delta=0.5)) is PhaseLabel.SUPERRADIANT
    assert classify(params_u(1.0, delta=0.3, omega_rabi=0.2, v=-0.25)) \
        is PhaseLabel.SUPERRADIANT


@pytest.mark.parametrize("delta, m, label", [
    (1.5e-7, 3e-7, PhaseLabel.MOTT),  # inside the round-off guard on m/N
    (1.5e-6, 3e-6, PhaseLabel.NORMAL),  # outside it
])
def test_mott_plateau_ends_at_the_classifier_tolerance(delta, m, label):
    # one minimum past the red line (u = 1, v = -1.5, drive 1): m/N = -2
    # delta, so _CLASSIFY_TOL = 1e-6 sits between the two points and a
    # tenfold change either way moves one label
    p = params_u(1.0, delta=delta, omega_rabi=1.0, v=-1.5)
    sol = ground_state(p)
    assert sol.n_local_minima == 1
    assert -sol.m_over_n == pytest.approx(m, rel=1e-6)
    assert classify(p, sol) is label


def test_classify_flat_manifold():
    assert classify(ModelParams(omega=1.0, lam=0.0)) is PhaseLabel.DEGENERATE


def test_classify_accepts_precomputed_solution():
    p = params_u(1.0, delta=0.5)
    sol = ground_state(p)
    assert classify(p, sol) is PhaseLabel.SUPERRADIANT


@pytest.mark.parametrize("k", range(8, 14))
def test_superfluid_next_to_the_driven_pitchfork(k):
    # delta = 0, |u + v| = rabi + 10**-k: the two wells
    # s_z = +-sqrt(1 - rabi**2/(u + v)**2)/2 sit 6e-7 to 2e-4 apart in s_z,
    # with energies equal to rounding
    p = params_u(1.0, omega_rabi=0.5, v=-1.5 - 10.0 ** -k)
    sol = ground_state(p)
    assert sol.n_local_minima == 2
    assert classify(p, sol) is PhaseLabel.SUPERFLUID


# --- susceptibility ------------------------------------------------------

def test_susceptibility_zero_in_pinned_phase():
    assert abs(susceptibility_v(params_u(1.0, omega_rabi=0.5, v=-1.2))) < 1e-10


def test_susceptibility_matches_lobe_formula():
    # inside the lobe m = -delta/(u+v), so dm/dv = delta/(u+v)^2
    p = params_u(1.0, delta=0.3, v=0.0)
    assert susceptibility_v(p) == pytest.approx(0.3, abs=1e-6)
    p2 = params_u(1.0, delta=-0.2, v=0.5)
    assert susceptibility_v(p2) == pytest.approx(-0.2 / 1.5**2, abs=1e-6)


def test_susceptibility_is_steep_but_quiet_at_the_lobe_tip():
    # where the lobe edge meets the red line (u + v = 1.3e-3, delta = 1e-3,
    # no drive) m/N = -delta/(u + v) is steep (~0.12 across the stencil)
    # but smooth: no first-order line is straddled, so no warning, and the
    # centred difference still reads delta/(u + v)**2 to 1 %.  The step's
    # other bound is rounding: ulp(1)/step must stay far below the 1e-6 to
    # which the lobe formula is met
    p = params_u(1.0, delta=1e-3, v=-1.0 + 1.3e-3)
    hi, lo = _stencil_ends(p)
    assert abs(hi.m_over_n - lo.m_over_n) < phases._STENCIL_JUMP
    assert susceptibility_v(p) == pytest.approx(1e-3 / (p.u + p.v) ** 2, rel=1e-2)
    assert math.ulp(1.0) / phases._STENCIL_STEP < 1e-6


def test_susceptibility_warns_on_flat_stencil():
    # every coupling of the reduced energy is 0, so the step is 0 too
    with pytest.warns(RuntimeWarning):
        assert susceptibility_v(ModelParams(omega=1.0, lam=0.0)) == 0.0


def _stencil_ends(p):
    # susceptibility_v's step
    dv = phases._STENCIL_STEP * coupling_scale(p.u, p.v, p.delta, p.omega_rabi)
    return [ground_state(p.replace(v=p.v + s * dv)) for s in (1.0, -1.0)]


def test_susceptibility_warns_on_jump_across_stencil():
    # v = -u + 5e-5: the upper end is in the lobe (m/N = 0 at delta = 0),
    # the lower end past the first-order line at u + v = 0 (m/N = 1)
    p = params_u(1.0, v=-1.0 + 5e-5)
    hi, lo = _stencil_ends(p)
    assert (hi.m_over_n, lo.m_over_n) == (0.0, 1.0)
    assert not hi.flat_manifold and not lo.flat_manifold
    with pytest.warns(RuntimeWarning, match="straddle"):
        susceptibility_v(p)


def test_susceptibility_is_quiet_across_nearly_tied_wells():
    # in the driven superfluid the wells at +-s_z differ by 2*delta*|s_z|
    # (~3e-13 here): both stencil ends report the well opposite delta, the
    # global minimum of a 60-digit solve, so m/N keeps its sign and the
    # stencil warns of nothing
    p = params_u(1.0, delta=7.51e-13, omega_rabi=0.5, v=-1.5103)
    dv = phases._STENCIL_STEP * coupling_scale(p.u, p.v, p.delta, p.omega_rabi)
    for end, v in zip(_stencil_ends(p), (p.v + dv, p.v - dv)):
        wells = mp_minima(p.u, v, p.delta, p.omega_rabi)
        assert len(wells) == 2 and wells[1][0] - wells[0][0] > 1e-13
        assert end.m_over_n < -0.19 and abs(end.m_over_n - 2 * wells[0][2]) < 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        susceptibility_v(p)


# --- transition detection ------------------------------------------------

def test_detects_clean_second_order_kink():
    # no drive: m/N = -delta/u inside the lobe, -1 outside; slope kink at u
    recs = detect_transitions(params_u(1.0), "delta", 0.5, 1.5)
    assert len(recs) == 1
    assert recs[0].order == "second"
    assert abs(recs[0].location - 1.0) < 1e-6
    assert abs(recs[0].jump) < 1e-6


def test_detects_first_order_jump_with_magnitude():
    p = params_u(1.0, omega_rabi=0.5, v=-2.0)
    recs = detect_transitions(p, "delta", -1.0, 1.0)
    assert len(recs) == 1
    rec = recs[0]
    assert rec.order == "first"
    assert abs(rec.location) < 1e-6
    assert abs(abs(rec.jump) - math.sqrt(3.0)) < 1e-6


def test_jump_closes_at_critical_drive():
    # drive = |u + v|: the jump closes, leaving a continuous sharp feature
    p = params_u(1.0, omega_rabi=1.0, v=-2.0)
    recs = detect_transitions(p, "delta", -1.0, 1.0)
    assert len(recs) == 1
    assert recs[0].order == "second"
    assert abs(recs[0].location) < 1e-6
    assert abs(recs[0].jump) < 1e-6


def test_no_transition_in_smooth_window():
    assert detect_transitions(params_u(1.0, omega_rabi=0.3), "delta",
                              0.1, 0.4) == []
    assert detect_transitions(params_u(0.5), "v", 0.1, 0.9) == []


def test_detect_other_axes_and_observables():
    # sweep the drive through the end point of the first-order line
    p = params_u(1.0, v=-2.0, delta=0.0)
    recs = detect_transitions(p, "omega_rabi", 0.5, 1.5,
                              observable="m_over_n")
    assert len(recs) == 1
    assert abs(recs[0].location - 1.0) < 1e-4

    # across the same first-order line the photon density is continuous
    # (the two wells share s_x^2) but its detuning slope flips sign
    p2 = params_u(1.0, omega_rabi=0.5, v=-2.0)
    recs2 = detect_transitions(p2, "delta", -1.0, 1.0,
                               observable="photon_density")
    assert len(recs2) == 1
    assert recs2[0].order == "second"
    assert abs(recs2[0].location) < 1e-6


def test_lobe_edges_found_from_energy_slope_at_jittered_couplings():
    # no drive: the lobe edges at delta = +-(u + v) are both second order;
    # the anchor walk stalls ~1e-11 off the + edge, where the finest scales
    # see one side of the corner only
    p = ModelParams(omega=1.0, lam=0.9716279515771061, v=0.1888121752571847)
    w = p.u + p.v
    tol = 1e-9 * max(1.0, p.u + abs(p.v))
    recs = detect_transitions(p, "delta", -2.265746103086216,
                              2.379033408240527, observable="energy_slope")
    assert [r.order for r in recs] == ["second", "second"]
    assert abs(recs[0].location + w) <= tol
    assert abs(recs[1].location - w) <= tol


def test_root_law_onset_along_v_is_second_order():
    # at delta = 0 the Mott-superfluid onset v_c = -u - rabi is a pitchfork:
    # m/N grows like sqrt(v_c - v), steep but continuous, with one minimum
    # on the Mott side
    p = ModelParams(omega=1.0, lam=1.7303244829143163,
                    omega_rabi=1.2255030481906881)
    v_c = -p.u - p.omega_rabi
    tol = 1e-9 * max(1.0, p.u + abs(p.v))
    recs = detect_transitions(p, "v", -6.786466156544744, -2.498701926303825)
    assert [r.order for r in recs] == ["second"]
    assert abs(recs[0].location - v_c) <= tol


def test_first_order_jump_through_the_flat_manifold():
    # at delta = rabi = 0 the energy is -(u + v) s_x**2 + v/4: the polarized
    # pair s_z = +-1/2 (m/N = +-1) gives way to the superradiant pair s_z = 0
    # at v = -u, where the energy is flat over the whole circle
    tol = 1e-9 * 2.0
    recs = detect_transitions(params_u(1.0), "v", -1.5, -0.5)
    assert [r.order for r in recs] == ["first"]
    assert abs(recs[0].location + 1.0) <= tol
    assert abs(recs[0].jump - 1.0) <= tol
    # at u + v = 0 the detuning alone tilts the circle, E = v/4 + delta s_z:
    # m/N jumps from +1 to -1 at delta = 0, a scan node on the flat manifold
    recs = detect_transitions(params_u(1.0, v=-1.0), "delta", -1.0, 1.0)
    assert [r.order for r in recs] == ["first"]
    assert abs(recs[0].location) <= tol
    assert abs(recs[0].jump - 2.0) <= tol


@pytest.mark.parametrize("u", [0.5, 2.0])
def test_drive_rounded_lobe_edge_is_no_transition(u):
    # a drive of 0.03u rounds the lobe edges at delta = +-1.2u into a smooth
    # crossover: no scale of the kink refinement may report a kink there
    p = params_u(u, v=0.2 * u, omega_rabi=0.03 * u)
    for obs in ("m_over_n", "photon_density", "energy_slope", "s_x"):
        assert detect_transitions(p, "delta", -2.7 * u, 2.7 * u,
                                  observable=obs) == []


def test_detect_rejects_unknown_names():
    with pytest.raises(ParameterError):
        detect_transitions(params_u(1.0), "detuning", 0.0, 1.0)
    with pytest.raises(ParameterError):
        detect_transitions(params_u(1.0), "delta", 0.0, 1.0,
                           observable="entropy")
    with pytest.raises(ParameterError):
        detect_transitions(params_u(1.0), "delta", 1.0, 1.0)


# --- phase grid and overlays --------------------------------------------

def test_phase_grid_columns():
    dataset = run_sweep(SweepConfig(
        base=params_u(1.0, omega_rabi=0.5),
        axes=(AxisSpec("delta", -2.4, 2.4, 13), AxisSpec("v", -3.0, 1.0, 11))))
    assert len(dataset.rows) == 13 * 11
    cols = {name: k for k, name in enumerate(dataset.columns)}
    labels = [[dataset.rows[11 * i + j][cols["phase_label"]] for j in range(11)]
              for i in range(13)]
    vs = [dataset.rows[j][cols["v"]] for j in range(11)]
    # the delta = 0 column reproduces the known v windows (the classifier
    # keeps v = -u itself on the superradiant side)
    mid = labels[6]
    assert abs(dataset.rows[11 * 6][cols["delta"]]) < 1e-15
    for j, v in enumerate(vs):
        if v >= -1.0:
            assert mid[j] == "Superradiant"
        elif v > -1.5:
            assert mid[j] == "Mott"
        elif v < -1.5:
            assert mid[j] == "Superfluid"


def test_overlays_lie_on_their_lines_and_inside_window():
    u, rabi = 1.0, 0.5
    window_d, window_v = (-2.0, 2.0), (-3.0, 1.0)
    lines = dict(critical_overlays(u, rabi, window_d, window_v))
    assert set(lines) <= {"lobe_plus", "lobe_minus", "red", "astroid_plus",
                          "astroid_minus"}
    assert {"lobe_plus", "lobe_minus", "red", "astroid_plus"} <= set(lines)
    for pts in lines.values():
        for d, v in pts:
            assert window_d[0] - 1e-12 <= d <= window_d[1] + 1e-12
            assert window_v[0] - 1e-12 <= v <= window_v[1] + 1e-12
    for d, v in lines["lobe_plus"]:
        assert d == pytest.approx(u + v, abs=1e-12)
    for d, v in lines["red"]:
        assert v == -u
    for d, v in lines["astroid_plus"]:
        assert d == pytest.approx(mott_boundary_delta(u, v, rabi), abs=1e-12)


def test_astroid_overlay_ends_at_its_cusp():
    # the last v sample rounds past the cusp v = -u - rabi, where |u + v| <
    # rabi and mott_boundary_delta has no edge: it is drawn at the cusp,
    # delta = 0, and both astroid lines end there
    u, rabi, v_lo = 1.7611785596585996, 1.3518952631535905, -7.675208099376349
    lines = dict(critical_overlays(u, rabi, (-3.0 * u, 3.0 * u), (v_lo, u)))
    v_last = lines["astroid_plus"][-1][1]
    assert v_last == v_lo + (-u - rabi - v_lo) * 200 / 200
    assert mott_boundary_delta(u, v_last, rabi) is None
    assert lines["astroid_plus"][-1] == (0.0, v_last)
    assert lines["astroid_minus"][-1] == (0.0, v_last)
    assert len(lines["astroid_plus"]) == len(lines["astroid_minus"]) == 201


_CUSP = (1.7611785596585996, 1.3518952631535905, -7.675208099376349)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(u=st.floats(0.0, 10.0), rabi=st.floats(0.0, 10.0), half=st.floats(0.0, 30.0),
       v_ends=st.lists(st.floats(-30.0, 30.0), min_size=2, max_size=2, unique=True))
@example(u=_CUSP[0], rabi=_CUSP[1], half=3.0 * _CUSP[0], v_ends=[_CUSP[2], _CUSP[0]])
def test_overlays_in_a_symmetric_window_are_mirror_pairs(u, rabi, half, v_ends):
    # the model is symmetric under delta -> -delta: in a window symmetric
    # about delta = 0 each minus line is its plus line mirrored, point for
    # point and bit for bit (a delta of 0.0 turns into -0.0)
    v_lo, v_hi = sorted(v_ends)
    drawn = critical_overlays(u, rabi, (-half, half), (v_lo, v_hi))
    lines = dict(drawn)
    order = ["lobe_plus", "lobe_minus", "red", "astroid_plus", "astroid_minus"]
    assert [name for name, _ in drawn] == [name for name in order if name in lines]
    for name in ("lobe", "astroid"):
        plus = lines.get(f"{name}_plus", [])
        assert repr(lines.get(f"{name}_minus", [])) == repr([(-d, v) for d, v in plus])
    red = [[(-half, -u), (half, -u)]] if v_lo <= -u <= v_hi else []
    assert [pts for name, pts in drawn if name == "red"] == red


def test_overlays_in_an_asymmetric_window_clip_each_side_on_its_own():
    # each side is the whole line, or its mirror image, clipped to the window
    u, rabi, window_v = 1.0, 0.5, (-3.0, 1.0)
    whole = dict(critical_overlays(u, rabi, (-10.0, 10.0), window_v))
    lines = dict(critical_overlays(u, rabi, (-0.5, 0.8), window_v))
    for name in ("lobe", "astroid"):
        line = whole[f"{name}_plus"]
        plus = [(d, v) for d, v in line if -0.5 <= d <= 0.8]
        minus = [(-d, v) for d, v in line if -0.5 <= -d <= 0.8]
        assert 0 < len(plus) < len(line) and 0 < len(minus) < len(line)
        assert lines[f"{name}_plus"] == plus
        assert lines[f"{name}_minus"] == minus
