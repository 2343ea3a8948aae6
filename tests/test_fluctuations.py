"""Quadratic fluctuations about the normal phase, a check that shares no code
with the kernel (Holstein-Primakoff to second order: Emary & Brandes, PRE 67,
066203, 2003).

In the normal phase the photon (frequency omega) and the spin wave (Delta =
delta - v) are coupled by (lambda/2)(a + a^dag)(b + b^dag), and the two normal
modes have

    eps_pm**2 = (omega**2 + Delta**2 +- sqrt((omega**2 - Delta**2)**2
                                            + 4 lambda**2 omega Delta)) / 2.

The finite-N gap tends to eps_-, and N * (E0/N - e_MF) to the zero-point
energy (eps_+ + eps_- - omega - Delta)/2, each with a residual of order 1/N.
eps_- vanishes at the lobe edge delta = u + v.  At a second-order point the
finite-N gap closes as N**(-1/3) (Vidal & Dusuel, EPL 74, 817, 2006); at a
first-order one, where two wells coexist and split only by tunnelling, it
closes exponentially in N.
"""

from __future__ import annotations

import math

import pytest

from extdicke.exact import converge_cutoff
from extdicke.meanfield import ground_state
from extdicke.model import ModelParams
from extdicke.phases import detect_transitions


def normal_modes(omega: float, lam: float, delta: float, v: float) -> tuple[float, float]:
    """eps_+**2 and eps_-**2 about the normal-phase minimum."""
    d = delta - v
    root = math.sqrt((omega**2 - d**2) ** 2 + 4.0 * lam**2 * omega * d)
    return 0.5 * (omega**2 + d**2 + root), 0.5 * (omega**2 + d**2 - root)


def test_finite_n_gap_and_energy_approach_the_normal_modes_as_one_over_n():
    omega, lam, delta, v = 1.0, 0.8, 1.0, 0.1  # u + v = 0.74 < delta: normal
    plus, minus = (math.sqrt(e) for e in normal_modes(omega, lam, delta, v))
    assert minus == pytest.approx(0.374340, abs=1e-6)
    zero_point = 0.5 * (plus + minus - omega - (delta - v))
    assert zero_point == pytest.approx(-0.116713, abs=1e-6)
    gaps, drifts = [], []
    for n in (8, 16, 32, 64, 128, 256):
        p = ModelParams(omega=omega, lam=lam, delta=delta, v=v, n_atoms=n)
        sol = converge_cutoff(p)
        assert sol.converged
        gaps.append(sol.gap - minus)
        drifts.append(n * (sol.energy_per_atom - ground_state(p).energy_per_atom) - zero_point)
    # each residual roughly halves as N doubles: 1.7 at N = 8, 1.97 at 128
    for seq in (gaps, drifts):
        assert all(1.6 <= a / b <= 2.1 for a, b in zip(seq, seq[1:]))


def test_lower_mode_vanishes_at_the_detected_lobe_edge():
    omega, lam, v = 1.0, 0.8, 0.1
    p = ModelParams(omega=omega, lam=lam, v=v)
    edge = p.u + p.v
    assert abs(normal_modes(omega, lam, edge, v)[1]) <= 1e-15
    assert normal_modes(omega, lam, edge + 1e-3, v)[1] > 0.0  # and is real beyond it
    recs = detect_transitions(p, "delta", 0.0, 1.5, observable="photon_density")
    assert [r.order for r in recs] == ["second"]
    assert abs(recs[0].location - edge) <= 1e-9


# second-order points where detect_transitions places a `second` record: the
# lobe edge delta = u + v, the onset v = -u - omega_rabi of the driven
# superfluid from the Mott phase at delta = 0, and the same onset crossed
# along the drive, at omega_rabi = -u - v (u = 1 at omega = 10, where the
# ladders are shorter than at omega = 1)
_CRITICAL = {
    "lobe-edge": (dict(omega=1.0, lam=0.8, v=0.1, delta=0.74), "delta", 0.0, 1.5,
                  "photon_density"),
    "driven-onset": (dict(omega=10.0, lam=math.sqrt(10.0), omega_rabi=0.5, v=-1.5), "v",
                     -2.0, -1.1, "m_over_n"),
    "critical-drive": (dict(omega=10.0, lam=math.sqrt(10.0), omega_rabi=1.0, v=-2.0),
                       "omega_rabi", 0.45, 1.5, "m_over_n"),
}


@pytest.mark.parametrize("name", list(_CRITICAL))
def test_gap_closes_as_n_to_the_minus_one_third_at_second_order_points(name):
    kw, axis, lo, hi, observable = _CRITICAL[name]
    recs = detect_transitions(ModelParams(**kw), axis, lo, hi, observable=observable)
    assert [r.order for r in recs] == ["second"]
    assert abs(recs[0].location - kw[axis]) <= 1e-9
    ns = (16, 32, 64, 128, 256)
    xs = [math.log(n) for n in ns]
    ys = []
    for n in ns:
        sol = converge_cutoff(ModelParams(**kw, n_atoms=n))
        assert sol.converged
        ys.append(math.log(sol.gap))
    # least-squares slope of log gap against log N: -0.312, -0.314 and -0.315
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    assert abs(slope + 1.0 / 3.0) <= 0.05
    # the slope between neighbouring N falls toward -1/3 from above:
    # -0.307 to -0.316 at the lobe edge, -0.302 to -0.322 at the onset and
    # -0.307 to -0.321 at the critical drive
    local = [(b - a) / (d - c) for a, b, c, d in zip(ys, ys[1:], xs, xs[1:])]
    assert all(a > b for a, b in zip(local, local[1:]))
    assert local[-1] > -1.0 / 3.0


def test_gap_closes_exponentially_at_a_first_order_point():
    # fig4's jump: at v = -2u the wells +-s_z swap at delta = 0
    kw = dict(omega=1.0, lam=1.0, v=-2.0, omega_rabi=0.5)
    recs = detect_transitions(ModelParams(**kw), "delta", -1.0, 1.0)
    assert [r.order for r in recs] == ["first"]
    assert abs(recs[0].location) <= 1e-9
    ns = (16, 24, 32, 48, 64)
    ys = []
    for n in ns:
        sol = converge_cutoff(ModelParams(**kw, n_atoms=n))
        assert sol.converged
        ys.append(math.log(sol.gap))
    # d(ln gap)/dN between neighbouring N, from 3.6e-2 at N = 16 to 4.6e-8
    # at 64: -0.26 to -0.29, where a power law N**(-1/3) gives about -0.02
    local = [(b - a) / (d - c) for a, b, c, d in zip(ys, ys[1:], ns, ns[1:])]
    assert all(slope <= -0.2 for slope in local)
