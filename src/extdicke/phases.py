"""Phase structure of the extended Dicke model in the thermodynamic limit.

Phases are named by their order parameters: Normal (fully polarized spin,
no photons beyond fluctuations), Superradiant (macroscopic photon density,
partial polarization), Mott (m = 0 plateau, single energy minimum, photon
condensate locked by attractive v), and Superfluid (broken double well in
s_z at strongly attractive v).  A flat energy manifold is labeled
Degenerate.

Critical lines in the (delta, v) plane at fixed u and omega_rabi:

* lobe edge      delta = +-(u + v)                      (u + v >= 0)
* red line       v = -u
* astroid edge   delta = +-(|u+v|**(2/3) - rabi**(2/3))**(3/2)
                                                        (|u+v| >= rabi)
* inverse form   v_c = -u - (rabi**(2/3) + |delta|**(2/3))**(3/2)

The transition detector walks an observable along one parameter axis,
flags cells where the second difference spikes, then refines each flag with
two independent probes: a largest-jump bisection down to adjacent floats,
whose final difference is a jump only between coexisting states (two
local minima, a tied pair of stationary points, or a flat manifold), and
a two-sided line fit across shrinking scales whose intersection pins a
kink to far below the scan spacing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from .meanfield import MeanFieldSolution, ground_state
from .model import AXES, ModelParams, ParameterError, field_name

# Round-off guard of the classifier on m/N and on the photon density.
_CLASSIFY_TOL = 1e-6
# Smallest jump between coexisting minima (observable units) that makes a
# transition first order, and smallest limiting slope mismatch, relative to
# the scan's mean slope, that makes it second order.
_JUMP_TOL = 1e-6
_KINK_TOL = 1e-3
# Points per critical-line polyline.
_OVERLAY_POINTS = 201
# Observables read straight off a MeanFieldSolution, and where.
_PLAIN_OBSERVABLES = {"m_over_n": "m_over_n", "photon_density": "photon_density",
                      "s_x": "point.s_x", "s_z": "point.s_z",
                      "energy": "energy_per_atom"}


class PhaseLabel(str, Enum):
    NORMAL = "Normal"
    SUPERRADIANT = "Superradiant"
    MOTT = "Mott"
    SUPERFLUID = "Superfluid"
    DEGENERATE = "Degenerate"


def delta_critical(u: float, v: float) -> tuple[float, float]:
    """Detuning edges -+(u + v) of the superradiant lobe at omega_rabi = 0."""
    w = u + v
    if w < 0.0:
        raise ParameterError("no superradiant lobe: u + v < 0")
    return (-w, w)


def mott_boundary_delta(u: float, v: float, omega_rabi: float):
    """Astroid detuning |delta| where the landscape goes from two local
    minima to one, or None when |u + v| < omega_rabi and a second minimum
    never forms.  For v < -u this edge bounds the Mott lobe; for v > -u it
    bounds the hysteresis (swallowtail) region inside the superradiant
    lobe."""
    if omega_rabi < 0.0:
        raise ParameterError("negative Rabi frequency")
    w = abs(u + v)
    if w < omega_rabi:
        return None
    return (w ** (2.0 / 3.0) - omega_rabi ** (2.0 / 3.0)) ** 1.5


def v_critical(u: float, delta: float, omega_rabi: float) -> float:
    """Atom-atom coupling on the astroid at given detuning:
    v_c = -u - (rabi**(2/3) + |delta|**(2/3))**(3/2)."""
    if omega_rabi < 0.0:
        raise ParameterError("negative Rabi frequency")
    return -u - (omega_rabi ** (2.0 / 3.0) + abs(delta) ** (2.0 / 3.0)) ** 1.5


def classify(params: ModelParams,
             solution: MeanFieldSolution | None = None) -> PhaseLabel:
    """Phase label for a mean-field solution (recomputed when omitted).

    Rules, in order: Degenerate on a flat manifold; Mott when m vanishes at
    a single minimum on the attractive side of the red line (v < -u);
    Superfluid when v < -u with a double well; Superradiant when partially
    polarized with macroscopic photons at v >= -u; Normal otherwise.
    Thresholds guard round-off only -- mean-field observables are exact to
    solver precision.
    """
    if solution is None:
        solution = ground_state(params)
    if solution.flat_manifold:
        return PhaseLabel.DEGENERATE
    u = params.u
    m = abs(solution.m_over_n)
    if m <= _CLASSIFY_TOL and solution.n_local_minima == 1 and params.v < -u:
        return PhaseLabel.MOTT
    if params.v < -u and solution.n_local_minima == 2:
        return PhaseLabel.SUPERFLUID
    photon_floor = (_CLASSIFY_TOL * params.lam / params.omega) ** 2
    if (m < 1.0 - _CLASSIFY_TOL and solution.photon_density > photon_floor
            and params.v >= -u):
        return PhaseLabel.SUPERRADIANT
    return PhaseLabel.NORMAL


def susceptibility_v(params: ModelParams) -> float:
    """Centered-difference susceptibility d(m/N)/dv, with step
    1e-4 * max(1, |v|).

    Identically zero across the Mott plateau.  Warns when the stencil
    appears to straddle a first-order line (a jump in m/N above 1/2, a
    sign change of m/N, or a flat manifold at either stencil point); the
    value is still returned.
    """
    dv = 1e-4 * max(1.0, abs(params.v))
    hi = ground_state(params.replace(v=params.v + dv))
    lo = ground_state(params.replace(v=params.v - dv))
    dm = hi.m_over_n - lo.m_over_n
    # m/N also changes sign where the selection window takes the other
    # well at one stencil end only: the wells at +-s_z differ by
    # 2*delta*|s_z|, which can cross _SELECT_EPS * S within the stencil.
    if (hi.flat_manifold or lo.flat_manifold or abs(dm) > 0.5
            or (hi.m_over_n * lo.m_over_n < 0.0
                and min(abs(hi.m_over_n), abs(lo.m_over_n)) > 1e-3)):
        warnings.warn(
            "susceptibility stencil may straddle a first-order boundary",
            RuntimeWarning,
            stacklevel=2,
        )
    return dm / (2.0 * dv)


@dataclass(frozen=True)
class TransitionRecord:
    """One detected transition along a one-parameter sweep.

    jump is the observable's difference across the refined bracket, and 0
    unless the solver sees coexisting states on both sides (see
    _refine_jump); kink is the limiting slope mismatch (0 for a first-order
    record).
    """

    location: float
    order: str  # "first", "second", or "none"
    observable: str
    jump: float
    kink: float


def _observable_fn(base: ModelParams, axis: str, observable: str):
    """t -> (observable value, ground state) along the axis."""
    name = field_name(axis)
    if name not in AXES:
        raise ParameterError(f"unknown sweep axis {axis!r}")

    if observable in _PLAIN_OBSERVABLES:
        get = attrgetter(_PLAIN_OBSERVABLES[observable])

        def value(p: ModelParams, sol: MeanFieldSolution) -> float:
            return get(sol)
    elif observable == "energy_slope":
        # Envelope theorem: at the minimizer the energy derivative along the
        # axis is the explicit partial derivative.
        def value(p: ModelParams, sol: MeanFieldSolution) -> float:
            s_x, s_z = sol.point.s_x, sol.point.s_z
            if name == "delta":
                return s_z
            if name == "omega_rabi":
                return s_x
            if name == "v":
                return s_z * s_z
            if name == "lam":
                return -2.0 * (p.lam / p.omega) * s_x * s_x
            return (p.lam / p.omega) ** 2 * s_x * s_x  # omega
    else:
        raise ParameterError(f"unknown observable {observable!r}")

    def f(t: float) -> tuple[float, MeanFieldSolution]:
        p = base.replace(**{name: t})
        sol = ground_state(p)
        return value(p, sol), sol

    return f


def _fit_line(ts, fs, center):
    """Least-squares line through three points; returns (value at center,
    slope)."""
    tbar = (ts[0] + ts[1] + ts[2]) / 3.0
    fbar = (fs[0] + fs[1] + fs[2]) / 3.0
    num = sum((t - tbar) * (f - fbar) for t, f in zip(ts, fs))
    den = sum((t - tbar) ** 2 for t in ts)
    slope = num / den
    return fbar + slope * (center - tbar), slope


def _bisect(g, a, b):
    """Bisection toward the larger difference of g, down to adjacent
    floats; returns the final bracket."""
    ga, gb = g(a), g(b)
    for _ in range(60):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        gm = g(m)
        if abs(gm - ga) >= abs(gb - gm):
            b, gb = m, gm
        else:
            a, ga = m, gm
    return a, b


def _refine_jump(solve, a0, b0):
    """Location and size of the jump in a bracket, read across the
    adjacent-float bracket that _bisect ends on.

    A first-order jump exchanges the global minimum between coexisting
    states, so the difference counts only when, at both ends, the kernel
    sees two local minima or a second stationary point tied with the
    minimum; at kinks, root-law onsets and smooth branches the jump is 0.

    On a flat manifold every point of the circle is a minimum and the
    observable's value is a convention, and next to one the kernel breaks
    near-ties toward one state.  So when the bisection lands on a flat
    window, the jump is the largest of the difference across the window
    and the jumps bisected on either side of it."""
    def jump(a, b):
        (fa, sa), (fb, sb) = solve(a), solve(b)
        coexist = all(s.n_local_minima >= 2 or s.degenerate for s in (sa, sb))
        return 0.5 * (a + b), abs(fb - fa) if coexist else 0.0

    def f(t):
        return solve(t)[0]

    def flat(t):
        return solve(t)[1].flat_manifold

    a, b = _bisect(f, a0, b0)
    if not (flat(a) or flat(b)):
        return jump(a, b)
    t_flat = a if flat(a) else b
    l = _bisect(flat, a0, t_flat)[0]
    r = _bisect(flat, t_flat, b0)[1]
    # every coupling is monotone along an axis, so the flat window is one
    # interval and the side brackets cannot land on it again
    brackets = [(l, r), _bisect(f, a0, l), _bisect(f, r, b0)]
    return max((jump(a, b) for a, b in brackets), key=lambda x: x[1])


def _refine_kink(f, center, delta0, span, f_scale):
    """Kink localization across shrinking scales.

    At every scale the sampling center is re-anchored to the argmax of the
    local second difference within one step -- a walk that cannot leave the
    candidate's neighborhood or run off a one-sided onset -- and the
    location estimate is the intersection of the two per-side line fits,
    which converges to the corner of the limiting kink rather than to the
    (displaced) curvature peak of a rounded one.  A scale is kept only
    while its curvature signal stands above the noise floor and still
    decays sub-quadratically under halving: a true corner scales like
    delta (root-law onsets even slower), so a near-quadratic drop means
    the scale has resolved a rounded interior (e.g. a crossover smoothed
    by a tiny symmetry-breaking field), where the curvature peak sits off
    the limiting corner.  The reported location is the most scale-stable
    estimate among kept scales.  The kink measure is the largest slope
    mismatch over the kept scales (a lower bound when the one-sided slopes
    diverge): the anchor walk can stall a hair off the corner, and the
    finest scales then see one side of it only."""
    lo = center - 3.0 * delta0
    hi = center + 3.0 * delta0
    c = center
    delta = delta0
    floor = 1e-13 * max(1.0, abs(span))
    noise = 5e-13 * max(1.0, f_scale)
    locs, kinks, reliable, sigs = [], [], [], []
    while delta > floor and len(locs) < 44:
        anchors = [c - delta, c - 0.5 * delta, c, c + 0.5 * delta, c + delta]
        best_t, best_s = c, -1.0
        for t in anchors:
            if not lo <= t <= hi:
                continue
            s = abs(f(t - delta) - 2.0 * f(t) + f(t + delta))
            if s > best_s:
                best_t, best_s = t, s
        c = best_t
        tl = (c - 2.0 * delta, c - 1.5 * delta, c - delta)
        tr = (c + delta, c + 1.5 * delta, c + 2.0 * delta)
        al, bl = _fit_line(tl, tuple(f(t) for t in tl), c)
        ar, br = _fit_line(tr, tuple(f(t) for t in tr), c)
        denom = bl - br
        if abs(denom) > 1e-12 * (abs(bl) + abs(br) + 1e-300):
            x = max(-delta, min(delta, (ar - al) / denom))
        else:
            x = 0.0
        locs.append(c + x)
        kinks.append(abs(br - bl))
        reliable.append(best_s > noise)
        sigs.append(best_s)
        delta *= 0.5
    # the anchor walk keeps the center within a quarter scale of a corner,
    # so a genuine kink measures an exponent of at most ~1.4 here
    smooth_resolved = [False] * len(sigs)
    for k in range(1, len(sigs)):
        if reliable[k] and reliable[k - 1] and sigs[k] > 0.0:
            if math.log2(sigs[k - 1] / sigs[k]) >= 1.6:
                smooth_resolved[k] = True
    usable = [k for k, ok in enumerate(reliable)
              if ok and not smooth_resolved[k]]
    # quadratic decay from the very first halvings means plain smooth
    # curvature, not a rounded corner: report no kink at all
    if not usable or (any(smooth_resolved) and len(usable) < 3):
        return center, 0.0
    best_k, best_score = usable[0], math.inf
    for pos, k in enumerate(usable):
        neighbors = []
        if pos > 0:
            neighbors.append(abs(locs[k] - locs[usable[pos - 1]]))
        if pos + 1 < len(usable):
            neighbors.append(abs(locs[usable[pos + 1]] - locs[k]))
        score = max(neighbors, default=0.0)
        if score <= best_score:
            best_score = score
            best_k = k
    return locs[best_k], max(kinks[k] for k in usable)


def detect_transitions(params: ModelParams, axis: str, t_min: float,
                       t_max: float, *, observable: str = "m_over_n",
                       n_scan: int = 201) -> list[TransitionRecord]:
    """Locate phase boundaries of an observable along one parameter axis.

    Scans n_scan points on [t_min, t_max], flags outliers of the second
    difference, and refines each flag: first-order when the jump between
    coexisting minima exceeds _JUMP_TOL (absolute, in observable units),
    second-order when the limiting slope mismatch exceeds _KINK_TOL times
    the scan's mean slope scale.  Candidates that refine to neither
    (smooth wiggles) are dropped; nearby records merge.  The result is
    sorted by location.  Refinement may evaluate slightly beyond the range
    ends; parameter validation still applies there.
    """
    if not t_max > t_min:
        raise ParameterError("empty sweep range")
    if n_scan < 8:
        raise ParameterError("transition scan needs at least 8 points")
    solve_raw = _observable_fn(params, axis, observable)
    cache: dict[float, tuple[float, MeanFieldSolution]] = {}

    def solve(t: float) -> tuple[float, MeanFieldSolution]:
        hit = cache.get(t)
        if hit is None:
            hit = cache[t] = solve_raw(t)
        return hit

    def f(t: float) -> float:
        return solve(t)[0]

    spacing = (t_max - t_min) / (n_scan - 1)
    ts = [t_min + spacing * i for i in range(n_scan)]
    fs = [f(t) for t in ts]
    f_range = max(fs) - min(fs)
    span = t_max - t_min

    sd = [fs[i] - 2.0 * fs[i + 1] + fs[i + 2] for i in range(n_scan - 2)]
    mags = sorted(abs(x) for x in sd)
    m = len(mags) // 2  # the median, as statistics.median takes it
    med = mags[m] if len(mags) % 2 else (mags[m - 1] + mags[m]) / 2
    floor = max(8.0 * med, 1e-12 * max(1.0, f_range))
    ranked = sorted(range(len(sd)), key=lambda i: (-abs(sd[i]), i))
    picked: list[int] = []
    for i in ranked:
        if abs(sd[i]) <= floor:
            break
        if all(abs(i - p) > 3 for p in picked):
            picked.append(i)
        if len(picked) >= 12:
            break

    kink_floor = _KINK_TOL * max(f_range / span, 1e-300)
    records = []
    for i in sorted(picked):
        a = ts[max(0, i - 1)]
        b = ts[min(n_scan - 1, i + 3)]
        loc_j, jump = _refine_jump(solve, a, b)
        if jump > _JUMP_TOL:
            records.append(TransitionRecord(loc_j, "first", observable, jump, 0.0))
            continue
        loc_k, kink = _refine_kink(f, ts[i + 1], 2.0 * spacing, span, f_range)
        order = "second" if kink > kink_floor else "none"
        records.append(TransitionRecord(loc_k, order, observable, jump, kink))

    # Flagged cells adjacent to the same feature refine to nearly the same
    # place; keep the refinement with the strongest evidence, the measure
    # that classified it (the jump for first order, the kink for second).
    def _strength(r: TransitionRecord) -> tuple[int, float]:
        return {"first": (2, r.jump), "second": (1, r.kink)}.get(r.order, (0, 0.0))

    records.sort(key=lambda r: r.location)
    merged: list[TransitionRecord] = []
    for rec in records:
        if merged and abs(rec.location - merged[-1].location) <= 2.0 * spacing:
            keep = max(merged[-1], rec, key=_strength)
            merged[-1] = keep
        else:
            merged.append(rec)
    return [rec for rec in merged if rec.order != "none"]


def critical_overlays(u: float, omega_rabi: float,
                      delta_range: tuple[float, float],
                      v_range: tuple[float, float]) -> list[tuple[str, list[tuple[float, float]]]]:
    """Critical-line polylines clipped to the given window."""
    d_lo, d_hi = delta_range
    v_lo, v_hi = v_range
    n = _OVERLAY_POINTS
    lines = []

    if v_hi >= -u:  # lobe edge exists for v >= -u
        vs = [max(v_lo, -u) + (v_hi - max(v_lo, -u)) * k / (n - 1) for k in range(n)]
        plus = [(u + v, v) for v in vs if d_lo <= u + v <= d_hi]
        minus = [(-(u + v), v) for v in vs if d_lo <= -(u + v) <= d_hi]
        if plus:
            lines.append(("lobe_plus", plus))
        if minus:
            lines.append(("lobe_minus", minus))

    if v_lo <= -u <= v_hi:
        lines.append(("red", [(d_lo, -u), (d_hi, -u)]))

    v_start = -u - omega_rabi  # astroid reaches delta = 0 here
    if v_start >= v_lo:
        lo = v_lo
        vs = [lo + (min(v_start, v_hi) - lo) * k / (n - 1) for k in range(n)]
        plus, minus = [], []
        for v in vs:
            d = mott_boundary_delta(u, v, omega_rabi)
            if d is None:
                continue
            if d_lo <= d <= d_hi:
                plus.append((d, v))
            if d_lo <= -d <= d_hi:
                minus.append((-d, v))
        if plus:
            lines.append(("astroid_plus", plus))
        if minus:
            lines.append(("astroid_minus", minus))
    return lines
