"""The model's exact symmetries, each written once and applied to every
public entry point (metamorphic testing: Chen, Cheung & Yiu, HKUST-CS98-01,
1998; Segura et al., IEEE TSE 42, 805, 2016).

* MIRROR, delta -> -delta.  The reflection s_z -> -s_z of the Bloch circle
  (theta -> -theta; the points s_z = 0 stay put) maps the landscape onto
  itself, so s_z, theta, m/N, J_z and d(m/N)/dv change sign and nothing
  else moves, except the finite-N parity (-1)**(n + m + j), which picks up
  (-1)**N.  At delta = +-0 the landscape is one and the same, and so is
  every result.  There is no
  exemption: however close two wells are, the reported one is the global
  minimum that the kernel marks, which the mirror maps onto its image, and
  exact ties (mirror pairs at delta = 0 or rabi = 0) come from the same
  points in the same order on both sides.
* SCALE, every coupling (omega, lambda, delta, rabi, v) times 2**k.
  Energies, residuals, gaps and every coupling (u, and a location on a
  coupling axis) scale by 2**k, d(m/N)/dv by 2**-k; the rest is unchanged.
* OMEGA, omega times 4**j and lambda times 2**j, which keeps u =
  lambda**2/omega.  The mean field depends on omega only through u and
  lambda/omega: alpha scales by 2**-j, the photon density by 4**-j, and
  the rest is unchanged.  It is no symmetry of the finite-N H, in which
  omega enters on its own.

Mean-field results (the kernel's stationary_points and solve_point,
ground_state, classify, susceptibility_v, run_sweep rows) are compared
field by field by repr, so bit for bit.  detect_transitions: the orders
are identical and the locations are images, exactly where the scan grid
maps onto the image grid and within 1e-9 of a scan step where the mirror
reverses a detuning scan.
converge_cutoff: exact under SCALE, for every 2**k that keeps the couplings
normal floats (k from -500 to 500 at order-one couplings), as it solves H at
unit scale, and exact under MIRROR, as it solves delta < 0 as the image of
|delta|; at delta = -0.0 it gives the +0.0 result unmapped.  Results are
compared by repr, as on the mean-field side.
"""

from __future__ import annotations

import math
import operator
import random
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extdicke.exact import converge_cutoff
from extdicke.meanfield import ground_state, solve_point, stationary_points
from extdicke.model import AXES, ModelParams, coupling_scale
from extdicke.phases import (TransitionRecord, classify, detect_transitions,
                             mott_boundary_delta, susceptibility_v)
from extdicke.sweep import AxisSpec, SweepConfig, run_sweep


class Symmetry:
    """A map of the couplings under which every output transforms by a
    known rule: image(name, x) is the value, at the mapped couplings, of
    the quantity `name` that reads x at the original ones.  The couplings
    are quantities too, so the same rules map the inputs."""

    def __init__(self, name, rules):
        self.name, self.rules = name, rules

    def __repr__(self):
        return self.name

    def image(self, name, x):
        rule = self.rules.get(name)
        return x if rule is None else rule(x)

    def params(self, p):
        return ModelParams(**{f: self.image(f, getattr(p, f)) for f in AXES},
                           n_atoms=p.n_atoms)

    def couplings(self, u, v, delta, rabi):
        return (self.image("u", u), self.image("v", v), self.image("delta", delta),
                self.image("omega_rabi", rabi))


def _reflect(x):
    return -x if x and math.isfinite(x) else x


def _times(e):
    return lambda x: math.ldexp(x, e)


MIRROR = Symmetry("mirror", {"delta": operator.neg, **dict.fromkeys(
    ("s_z", "theta", "m_over_n", "chi", "jz"), _reflect)})


def scale(k):
    return Symmetry(f"2^{k}", {
        **dict.fromkeys(AXES + ("u", "energy_per_atom", "energy", "residual", "gap",
                                "coefficient"), _times(k)),
        "chi": _times(-k)})


def omega(j):
    return Symmetry(f"omega*4^{j}", {"omega": _times(2 * j), "lam": _times(j),
                                     "alpha": _times(-j), "photon_density": _times(-2 * j)})


# The kernel's entry points are cheap and go further: stationary_points
# works in ratios and sums of the couplings, so it reaches 2**+-300, where
# lambda**2 overflows a ModelParams; solve_point also divides the couplings
# by their scale, so it reaches 2**+-900, where products of two couplings
# leave the float range.
MEAN_FIELD = [MIRROR, scale(40), scale(-40), omega(5), omega(10), omega(20)]
STATIONARY = MEAN_FIELD + [scale(300), scale(-300)]
KERNEL = STATIONARY + [scale(900), scale(-900)]
SCANS = [MIRROR, scale(40), scale(-40), omega(10), omega(20)]
FINITE_N = [MIRROR] + [scale(k) for k in (20, -20, 60, -60, 300, -300)]


def _check(sym, where, a, b, delta):
    """b, the result at the image of couplings with detuning delta, is the
    image of a, the result there, bit for bit."""
    want = a if sym is MIRROR and delta == 0.0 else {
        name: sym.image(name, x) for name, x in a.items()}
    assert repr(b) == repr(want), (sym, where, a, b)


# --- the mean-field families ---------------------------------------------

def _params(u, omega_, delta=0.0, omega_rabi=0.0, v=0.0):
    return ModelParams(omega=omega_, lam=math.sqrt(u * omega_), delta=delta,
                       omega_rabi=omega_rabi, v=v)


def _families():
    """(name, ModelParams) at the model's multiple roots and around them,
    u log-uniform in [0.1, 10] and omega in [0.5, 2], 20 points a family;
    then generic couplings and three points inside the lobe."""
    rng = random.Random(2727)
    out = []
    for _ in range(20):
        u = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        p = _params(u, math.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        # exact Omega = 0 lobe edges, and up to 16 float steps off them
        q = p.replace(v=rng.uniform(-0.9, 2.0) * p.u)
        out.append(("lobe edge", q.replace(delta=q.u + q.v)))
        d = q.u + q.v
        for _ in range(rng.randint(1, 16)):
            d = math.nextafter(d, rng.choice((-math.inf, math.inf)))
        out.append(("near lobe edge", q.replace(delta=d)))
        # Omega = 0 cusps on the attractive side: the spinodal |delta| = |u + v|
        q = p.replace(v=-p.u * rng.uniform(1.1, 3.0))
        out.append(("spinodal", q.replace(delta=abs(q.u + q.v))))
        # delta = 0: driven pitchforks rabi = |u + v|, and the first-order
        # line between the wells +-s_z inside the astroid
        q = p.replace(v=rng.uniform(-3.0, 2.0) * p.u)
        w = abs(q.u + q.v)
        out.append(("pitchfork", q.replace(omega_rabi=w)))
        q = p.replace(v=-p.u * rng.uniform(1.2, 3.0))
        w = abs(q.u + q.v)
        out.append(("first-order line", q.replace(omega_rabi=w * rng.uniform(0.0, 0.9))))
        # the astroid delta = mott_boundary_delta, on both sides of u + v = 0
        q = p.replace(v=p.u * rng.choice((rng.uniform(-3.0, -1.1), rng.uniform(-0.9, 2.0))))
        rabi = abs(q.u + q.v) * rng.uniform(0.0, 1.0)
        out.append(("astroid", q.replace(
            omega_rabi=rabi, delta=mott_boundary_delta(q.u, q.v, rabi))))
        # driven double wells tilted by |delta| = 1e-16 u to 1e-11 u, so that
        # their energies differ by about that much
        q = p.replace(v=-p.u * rng.uniform(1.2, 3.0), omega_rabi=0.3 * p.u)
        out.append(("tilted double well", q.replace(
            delta=rng.choice((-1.0, 1.0)) * q.u * 10.0 ** rng.uniform(-16.0, -11.0))))
        # couplings over the full float range
        mag = [math.exp(rng.uniform(math.log(1e-12), math.log(1e12))) for _ in range(4)]
        out.append(("full float range", _params(
            mag[0], 1.0, delta=rng.choice((-1.0, 1.0)) * mag[1],
            omega_rabi=rng.choice((0.0, mag[2])), v=rng.choice((-1.0, 1.0)) * mag[3])))
    out += [("generic", ModelParams(
        omega=1.0, lam=rng.uniform(0.0, 2.0), delta=rng.uniform(0.05, 2.0),
        omega_rabi=rng.uniform(0.0, 2.0), v=rng.uniform(-3.0, 3.0))) for _ in range(100)]
    # inside the superradiant lobe, where d(m/N)/dv has a closed form
    out += [("lobe interior", _params(1.0, 1.0, delta=0.3)),
            ("lobe interior", _params(1.0, 1.0, delta=-0.2, v=0.5)),
            ("lobe interior", _params(2.0, 1.0, delta=0.1, omega_rabi=0.4, v=-0.5))]
    # on the astroid, where the double root must come out once on both
    # sides of the mirror (u = lambda**2/omega is exactly 6.599748423656108)
    out.append(("astroid reproducer", ModelParams(
        omega=7.0, lam=6.7969286420848025, delta=0.6810967850007255,
        omega_rabi=1.6116788397363755, v=-3.449988923136018)))
    return out


FAMILIES = _families()


def _scale_of(p):
    return coupling_scale(p.u, p.v, p.delta, p.omega_rabi)


def _outputs(sol):
    """A MeanFieldSolution's fields by name, the point flattened."""
    fields = dict(vars(sol))
    point = fields.pop("point")
    return {"s_x": point.s_x, "s_z": point.s_z, **fields}


def _apply(sym, run):
    """Check run(p) against run(sym.params(p)) over every family point."""
    for name, p in FAMILIES:
        _check(sym, (name, p), run(p), run(sym.params(p)), p.delta)


@pytest.mark.parametrize("sym", STATIONARY, ids=repr)
def test_stationary_points(sym):
    # the same points in the same order, at the family points and at
    # random couplings
    names = ("theta", "s_x", "s_z", "energy", "minimum", "lowest")
    rng = random.Random(13)
    generic = [(rng.uniform(0.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                rng.uniform(0.0, 2.0)) for _ in range(100)]
    for c in [(p.u, p.v, p.delta, p.omega_rabi) for _, p in FAMILIES] + generic:
        a = [dict(zip(names, x)) for x in stationary_points(*c)]
        b = [dict(zip(names, x)) for x in stationary_points(*sym.couplings(*c))]
        want = a if sym is MIRROR and c[2] == 0.0 else [
            {name: sym.image(name, x) for name, x in point.items()} for point in a]
        assert repr(b) == repr(want), c


@pytest.mark.parametrize("sym", KERNEL, ids=repr)
def test_solve_point(sym):
    names = ("s_x", "s_z", "energy_per_atom", "residual", "degenerate",
             "flat_manifold", "n_local_minima")
    for name, p in FAMILIES:
        c = (p.u, p.v, p.delta, p.omega_rabi)
        a = dict(zip(names, solve_point(*c)))
        b = dict(zip(names, solve_point(*sym.couplings(*c))))
        _check(sym, (name, p), a, b, p.delta)


@pytest.mark.parametrize("sym", MEAN_FIELD, ids=repr)
def test_ground_state(sym):
    _apply(sym, lambda p: _outputs(ground_state(p)))


_MAGNITUDE = st.floats(math.log(1e-12), math.log(1e12)).map(math.exp)  # log-uniform
_SIGNED = st.tuples(st.sampled_from((-1.0, 1.0)), _MAGNITUDE).map(lambda t: t[0] * t[1])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(u=_MAGNITUDE, v=_SIGNED, d=_SIGNED, r=st.one_of(st.just(0.0), _MAGNITUDE))
def test_ground_state_over_the_full_float_range(u, v, d, r):
    p = _params(u, 1.0, delta=d, omega_rabi=r, v=v)
    for sym in MEAN_FIELD:
        _check(sym, p, _outputs(ground_state(p)), _outputs(ground_state(sym.params(p))), d)


@pytest.mark.parametrize("sym", MEAN_FIELD, ids=repr)
def test_classify(sym):
    # the label reads |m/N|, s_x, the minima count and the order of u and
    # -v, which every symmetry here keeps
    _apply(sym, lambda p: {"phase_label": classify(p, ground_state(p))})


@pytest.mark.parametrize("sym", MEAN_FIELD, ids=repr)
def test_susceptibility_v(sym):
    def chi(p):
        sol = ground_state(p)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = susceptibility_v(p)
        return {"chi": value, "warned": len(caught), "s_z": sol.point.s_z,
                "degenerate": sol.degenerate}

    _apply(sym, chi)


def _sweep_rows(config):
    data = run_sweep(config)
    n = len(config.axes)
    return {tuple(row[:n]): dict(zip(data.columns, row)) for row in data.rows}


def _sweep_image(sym, config):
    axes = tuple(AxisSpec(a.name, *sorted((sym.image(a.name, a.min), sym.image(a.name, a.max))),
                          a.count) for a in config.axes)
    return SweepConfig(base=sym.params(config.base), axes=axes)


def _sweeps():
    # each family point and one more along v; and a (delta, v) phase grid
    # with a drive, whose delta nodes are exact mirror images
    for _, p in FAMILIES:
        yield SweepConfig(base=p, axes=(AxisSpec("v", p.v, p.v + 0.5 * _scale_of(p), 2),))
    yield SweepConfig(base=_params(1.0, 1.0, omega_rabi=0.5),
                      axes=(AxisSpec("delta", -3.0, 3.0, 13), AxisSpec("v", -3.0, 1.0, 11)))


@pytest.mark.parametrize("sym", MEAN_FIELD, ids=repr)
def test_run_sweep_rows(sym):
    for config in _sweeps():
        image = _sweep_rows(_sweep_image(sym, config))
        for node, a in _sweep_rows(config).items():
            b = image[tuple(sym.image(axis.name, x) for axis, x in zip(config.axes, node))]
            _check(sym, node, a, b, a.get("delta", config.base.delta))


# --- transitions ----------------------------------------------------------

def _scan(family, observable, rng):
    """A scan across a transition with a closed form, couplings and window
    jittered by up to 10 %, u from 0.1 to 10: (params, axis, lo, hi)."""
    def j():
        return 1.0 + rng.uniform(-0.1, 0.1)

    u = 10.0 ** rng.uniform(-1.0, 1.0)
    if family == "lobe":  # second-order edges at delta = -+(u + v)
        v = 0.2 * u * j()
        w = u + v
        # m/N scans carry a drive of 1e-12 u, far too weak to round an edge
        rabi = 1e-12 * u if observable == "m_over_n" else 0.0
        axis, lo, hi = "delta", -2.0 * w * j(), 2.0 * w * j()
    elif family == "first":  # the wells at +-s_z swap at delta = 0
        v = -2.0 * u * j()
        rabi = 0.4 * u * j()
        axis, lo, hi = "delta", -u * j(), 1.1 * u * j()
    elif family == "onset":  # Mott-superfluid pitchfork at v = -u - rabi
        v = 0.0
        rabi = 0.5 * u * j()
        v_c = -u - rabi
        axis, lo, hi = "v", v_c - 0.8 * u * j(), v_c + 0.6 * u * j()
    else:  # the same onset along the drive, at rabi = |u + v|
        v = -2.0 * u * j()
        rabi = 0.0
        w = abs(u + v)
        axis, lo, hi = "omega_rabi", 0.45 * w * j(), 1.5 * w * j()
    return ModelParams(omega=1.0, lam=math.sqrt(u), v=v, omega_rabi=rabi), axis, lo, hi


def _scans():
    rng = random.Random(4040)
    return [(observable, *_scan(family, observable, rng))
            for family in ("lobe", "first", "onset", "rabi")
            for observable in ("m_over_n", "photon_density", "energy_slope", "s_x", "energy")]


@pytest.fixture(scope="module")
def scans():
    out = [(obs, p, axis, lo, hi, detect_transitions(p, axis, lo, hi, observable=obs))
           for obs, p, axis, lo, hi in _scans()]
    # each scan crosses its transition; the energy has a corner only at
    # the first-order swap
    assert all(c[-1] for c in out if c[0] != "energy")
    assert [r.order for c in out if c[0] == "energy" for r in c[-1]] == ["second"]
    return out


@pytest.mark.parametrize("sym", SCANS, ids=repr)
def test_detect_transitions(sym, scans):
    # OMEGA leaves each solve along a scan as it is; the detector adds a
    # unit for the energy and the photon density, so those are the scans
    # it can change
    cases = [c for c in scans if c[0] in ("energy", "photon_density")
             or sym.image("omega", 1.0) == 1.0]
    for observable, p, axis, lo, hi, recs in cases:
        ends = sorted((sym.image(axis, lo), sym.image(axis, hi)))
        got = detect_transitions(sym.params(p), axis, *ends, observable=observable)
        want = sorted((sym.image(axis, r.location), r.order) for r in recs)
        assert [r.order for r in got] == [order for _, order in want], (p, axis, got, recs)
        # a reversed scan runs over other floats; otherwise the grids map exactly
        tol = 1e-9 * (hi - lo) / 200 if sym.image(axis, lo) > sym.image(axis, hi) else 0.0
        for r, (loc, _) in zip(got, want):
            assert abs(r.location - loc) <= tol, (p, axis, got, recs)
        if sym.image(axis, 1.0) == 1.0:
            # jump and kink are magnitudes of the observable, on a grid that
            # is unchanged
            want = [TransitionRecord(r.location, r.order, observable,
                                     abs(sym.image(observable, r.jump)),
                                     abs(sym.image(observable, r.kink))) for r in recs]
            assert got == want, (p, axis, got, recs)


# --- finite N ---------------------------------------------------------------

def _ladders():
    rng = random.Random(2020)
    return [ModelParams(omega=rng.uniform(0.5, 2.0), lam=rng.uniform(0.0, 2.0),
                        delta=rng.uniform(-1.0, 1.0),
                        omega_rabi=rng.choice([0.0, rng.uniform(0.0, 0.5)]),
                        v=rng.uniform(-1.0, 1.0), n_atoms=rng.randint(1, 16))
            for _ in range(30)]


# 30 seeded ladders (8 of them in extended coherent states, c <= 1/8), one at
# odd N whose ground doublet the solver does not resolve (gap 1.8e-15), where
# the tie rule must give images on the two sides of the mirror, and four more
# in extended coherent states: a superradiant doublet, odd N with a drive,
# the delta = 0 flip sectors and v != 0
LADDERS = _ladders() + [ModelParams(omega=1.0, lam=1.5, delta=0.2, n_atoms=17),
                        ModelParams(omega=10.0, lam=1.5 * math.sqrt(10.0), delta=0.5,
                                    n_atoms=64),
                        ModelParams(omega=2.0, lam=0.5, delta=0.1, omega_rabi=0.05, v=-0.1,
                                    n_atoms=5),
                        ModelParams(omega=1.0, lam=0.3, delta=0.0, omega_rabi=0.1, v=-0.5,
                                    n_atoms=8),
                        ModelParams(omega=1.0, lam=0.4, delta=-0.05, v=0.2, n_atoms=16)]


def _check_ladder(sym, p, a):
    """converge_cutoff at sym.params(p) gives the image of a, its result at
    p, bit for bit."""
    a = vars(a)
    if sym is MIRROR and p.delta != 0.0:
        # the flip J_z -> -J_z maps m + j to N - (m + j) in (-1)**(n + m + j)
        a = {**a, "parity": (-1) ** p.n_atoms * a["parity"]}
    _check(sym, p, a, vars(converge_cutoff(sym.params(p))), p.delta)


@pytest.fixture(scope="module")
def ladders():
    return [(p, converge_cutoff(p)) for p in LADDERS]


@pytest.mark.parametrize("sym", FINITE_N, ids=repr)
def test_converge_cutoff(sym, ladders):
    for p, a in ladders:
        _check_ladder(sym, p, a)


def test_finite_n_scan_is_its_own_mirror_image():
    # a detuning scan symmetric about 0 with finite-N columns, N = 2 on the
    # two-centre basis (c = 0.22) and N = 8 in extended coherent states (c =
    # 0.112): node i is the image of node count - 1 - i, mean-field and
    # exact_N* cells alike, bit for bit; the delta = 0 node is its own image
    # (its finite-N m/N is rounding noise)
    config = SweepConfig(base=ModelParams(omega=10.0, lam=math.sqrt(10.0), v=-0.5),
                         axes=(AxisSpec("delta", -1.0, 1.0, 9),), exact_n=(2, 8))
    rows = list(_sweep_rows(config).values())

    def cells(row):  # the mean-field cells, then each N's under the mean-field names
        yield "mean field", {k: x for k, x in row.items() if not k.startswith("exact_N")}
        for n in config.exact_n:
            prefix = f"exact_N{n}_"
            yield n, {k[len(prefix):]: x for k, x in row.items() if k.startswith(prefix)}

    for a, b in zip(rows, reversed(rows)):
        for (where, x), (_, y) in zip(cells(a), cells(b)):
            _check(MIRROR, (a["delta"], where), x, y, a["delta"])


# order one or 0, so that every coupling times 2**-500 stays a normal float
_ORDER_ONE = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
_SIGNED_ORDER_ONE = st.one_of(_ORDER_ONE, st.floats(-1.0, -0.01))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(omega_=st.floats(0.5, 2.0), lam=st.one_of(st.just(0.0), st.floats(0.1, 2.0)),
       delta=_SIGNED_ORDER_ONE, omega_rabi=_ORDER_ONE, v=_SIGNED_ORDER_ONE,
       n_atoms=st.integers(1, 8), k=st.integers(-500, 500))
@example(1.0, 1.5, 0.0, 0.0, -0.5, 4, -500)
@example(1.0, 1.5, 0.3, 0.2, 0.5, 3, 500)
# MIRROR at delta = 0 solves delta = -0.0, the same H, unmapped
@example(1.0, 1.5, 0.0, 0.0, -0.5, 5, 0)
@example(1.0, 1.5, 0.0, 0.3, -0.5, 5, 0)
def test_converge_cutoff_over_the_full_float_range(omega_, lam, delta, omega_rabi, v,
                                                   n_atoms, k):
    p = ModelParams(omega=omega_, lam=lam, delta=delta, omega_rabi=omega_rabi, v=v,
                    n_atoms=n_atoms)
    a = converge_cutoff(p)
    for sym in (MIRROR, scale(k)):
        _check_ladder(sym, p, a)
