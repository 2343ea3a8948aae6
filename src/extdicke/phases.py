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
two independent probes: a largest-jump bisection whose bracket differences
are Richardson-extrapolated (a smooth branch extrapolates to zero, a true
jump to its height), and a two-sided line fit across shrinking scales whose
intersection pins a kink to far below the scan spacing.
"""

from __future__ import annotations

import math
import statistics
import warnings
from dataclasses import dataclass
from enum import Enum

from .meanfield import MeanFieldSolution, ground_state
from .model import AXES, ModelParams, ParameterError, field_name, validate


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
    w = abs(u + v)
    if w < omega_rabi:
        return None
    return (w ** (2.0 / 3.0) - omega_rabi ** (2.0 / 3.0)) ** 1.5


def v_critical(u: float, delta: float, omega_rabi: float) -> float:
    """Atom-atom coupling on the astroid at given detuning:
    v_c = -u - (rabi**(2/3) + |delta|**(2/3))**(3/2)."""
    return -u - (omega_rabi ** (2.0 / 3.0) + abs(delta) ** (2.0 / 3.0)) ** 1.5


def classify(params: ModelParams, solution: MeanFieldSolution | None = None,
             tol: float = 1e-6) -> PhaseLabel:
    """Phase label for a mean-field solution (recomputed when omitted).

    Rules, in order: Degenerate on a flat manifold; Mott when m vanishes at
    a single minimum on the attractive side of the red line (v < -u);
    Superfluid when v < -u with a double well; Superradiant when partially
    polarized with macroscopic photons at v >= -u; Normal otherwise.
    Thresholds guard round-off only -- mean-field observables are exact to
    solver precision.
    """
    validate(params)
    if solution is None:
        solution = ground_state(params)
    if solution.flat_manifold:
        return PhaseLabel.DEGENERATE
    u = params.u
    m = abs(solution.m_over_n)
    if m <= tol and solution.n_local_minima == 1 and params.v < -u:
        return PhaseLabel.MOTT
    if params.v < -u and solution.n_local_minima == 2:
        return PhaseLabel.SUPERFLUID
    photon_floor = (tol * params.lam / params.omega) ** 2
    if m < 1.0 - tol and solution.photon_density > photon_floor and params.v >= -u:
        return PhaseLabel.SUPERRADIANT
    return PhaseLabel.NORMAL


def susceptibility_v(params: ModelParams, dv: float | None = None) -> float:
    """Centered-difference susceptibility d(m/N)/dv.

    Identically zero across the Mott plateau.  Warns when the stencil
    appears to straddle a first-order line (large jump in m or a flat
    manifold at either stencil point); the value is still returned.
    """
    validate(params)
    if dv is None:
        dv = 1e-4 * max(1.0, abs(params.v))
    if dv <= 0.0:
        raise ParameterError("nonpositive susceptibility step")
    hi = ground_state(params.replace(v=params.v + dv))
    lo = ground_state(params.replace(v=params.v - dv))
    dm = hi.m_over_n - lo.m_over_n
    suspicious = hi.flat_manifold or lo.flat_manifold or abs(dm) > 0.5
    if not suspicious and abs(dm) > 1e-3:
        if hi.m_over_n * lo.m_over_n < 0.0 and min(abs(hi.m_over_n), abs(lo.m_over_n)) > 1e-3:
            suspicious = True
    if suspicious:
        warnings.warn(
            "susceptibility stencil may straddle a first-order boundary",
            RuntimeWarning,
            stacklevel=2,
        )
    return dm / (2.0 * dv)


@dataclass(frozen=True)
class TransitionRecord:
    """One detected transition along a one-parameter sweep."""

    location: float
    order: str  # "first", "second", or "none"
    observable: str
    jump: float
    kink: float


def _axis_setter(params: ModelParams, axis: str):
    name = field_name(axis)
    if name not in AXES:
        raise ParameterError(f"unknown sweep axis {axis!r}")

    def family(t: float) -> ModelParams:
        return validate(params.replace(**{name: t}))

    return family, name


def _observable_fn(base: ModelParams, axis: str, observable: str):
    family, name = _axis_setter(base, axis)

    if observable in ("m_over_n", "photon_density", "s_x", "s_z", "energy"):
        def f(t: float) -> float:
            sol = ground_state(family(t))
            if observable == "m_over_n":
                return sol.m_over_n
            if observable == "photon_density":
                return sol.photon_density
            if observable == "s_x":
                return sol.point.s_x
            if observable == "s_z":
                return sol.point.s_z
            return sol.energy_per_atom
        return f

    if observable == "energy_slope":
        # Envelope theorem: at the minimizer the energy derivative along the
        # axis is the explicit partial derivative.
        def f(t: float) -> float:
            p = family(t)
            sol = ground_state(p)
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
        return f

    raise ParameterError(f"unknown observable {observable!r}")


def _fit_line(ts, fs, center):
    """Least-squares line through three points; returns (value at center,
    slope)."""
    tbar = (ts[0] + ts[1] + ts[2]) / 3.0
    fbar = (fs[0] + fs[1] + fs[2]) / 3.0
    num = sum((t - tbar) * (f - fbar) for t, f in zip(ts, fs))
    den = sum((t - tbar) ** 2 for t in ts)
    slope = num / den
    return fbar + slope * (center - tbar), slope


def _aitken(d0, d1, d2):
    den = d2 - 2.0 * d1 + d0
    if den == 0.0:
        return d2
    extra = d2 - (d2 - d1) ** 2 / den
    return extra if math.isfinite(extra) else d2


def _refine_jump(f, a, b, span):
    """Bisection toward the largest bracket difference, then a jump estimate
    from symmetric differences D(h) = f(x+h) - f(x-h) on a deep halving
    ladder.  D converges to the jump for a discontinuity but decays
    geometrically for any power-law or smooth branch, so Aitken
    extrapolation of the last three values isolates a genuine jump while
    sending continuous singularities (kinks, root-law onsets) to zero."""
    fa, fb = f(a), f(b)
    width = abs(b - a)
    for _ in range(60):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        fm = f(m)
        if abs(fm - fa) >= abs(fb - fm):
            b, fb = m, fm
        else:
            a, fa = m, fm
    x = 0.5 * (a + b)
    floor_h = 3.0e-10 * max(1.0, abs(span))
    h = max(width / 16.0, 2.0 * floor_h)
    diffs = []
    while h > floor_h and len(diffs) < 48:
        diffs.append(f(x + h) - f(x - h))
        h *= 0.5
    if not diffs:
        return x, abs(fb - fa)
    if len(diffs) < 3:
        return x, abs(diffs[-1])
    return x, abs(_aitken(diffs[-3], diffs[-2], diffs[-1]))


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
    estimate among kept scales; its slope mismatch is the kink measure (a
    lower bound when the one-sided slopes diverge)."""
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
    if any(smooth_resolved) and len(usable) < 3:
        return center, 0.0
    if not usable:
        return center, 0.0
    if len(usable) == 1:
        k = usable[0]
        return locs[k], kinks[k]
    best_k, best_score = usable[0], math.inf
    for pos, k in enumerate(usable):
        neighbors = []
        if pos > 0:
            neighbors.append(abs(locs[k] - locs[usable[pos - 1]]))
        if pos + 1 < len(usable):
            neighbors.append(abs(locs[usable[pos + 1]] - locs[k]))
        score = max(neighbors)
        if score <= best_score:
            best_score = score
            best_k = k
    return locs[best_k], kinks[best_k]


def detect_transitions(params: ModelParams, axis: str, t_min: float,
                       t_max: float, *, observable: str = "m_over_n",
                       n_scan: int = 201, jump_tol: float = 1e-6,
                       kink_tol: float = 1e-3) -> list[TransitionRecord]:
    """Locate phase boundaries of an observable along one parameter axis.

    Scans n_scan points on [t_min, t_max], flags outliers of the second
    difference, and refines each flag: first-order when the extrapolated
    symmetric-difference jump exceeds jump_tol (absolute, in observable
    units), second-order when the limiting slope mismatch exceeds kink_tol
    times the scan's mean slope scale.  Candidates that refine to neither
    (smooth wiggles) are dropped; nearby records merge.  The result is
    sorted by location.  Refinement may evaluate slightly beyond the range
    ends; parameter validation still applies there.
    """
    validate(params)
    if not t_max > t_min:
        raise ParameterError("empty sweep range")
    if n_scan < 8:
        raise ParameterError("transition scan needs at least 8 points")
    f_raw = _observable_fn(params, axis, observable)
    cache: dict[float, float] = {}

    def f(t: float) -> float:
        val = cache.get(t)
        if val is None:
            val = f_raw(t)
            cache[t] = val
        return val

    spacing = (t_max - t_min) / (n_scan - 1)
    ts = [t_min + spacing * i for i in range(n_scan)]
    fs = [f(t) for t in ts]
    f_range = max(fs) - min(fs)
    span = t_max - t_min

    sd = [fs[i] - 2.0 * fs[i + 1] + fs[i + 2] for i in range(n_scan - 2)]
    med = statistics.median(sorted(abs(x) for x in sd))
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

    kink_floor = kink_tol * max(f_range / span, 1e-300)
    records = []
    for i in sorted(picked):
        a = ts[max(0, i - 1)]
        b = ts[min(n_scan - 1, i + 3)]
        loc_j, jump = _refine_jump(f, a, b, span)
        if jump > jump_tol:
            records.append(TransitionRecord(loc_j, "first", observable, jump, 0.0))
            continue
        loc_k, kink = _refine_kink(f, ts[i + 1], 2.0 * spacing, span, f_range)
        order = "second" if kink > kink_floor else "none"
        records.append(TransitionRecord(loc_k, order, observable, jump, kink))

    # Flagged cells adjacent to the same feature refine to nearly the same
    # place; keep the refinement with the strongest evidence.  A record's
    # evidence is the measure that classified it -- the extrapolated jump
    # for first order, the limiting slope mismatch for second order -- and
    # the other field is noise-level by construction, so it must not break
    # ties.
    def _strength(r: TransitionRecord) -> tuple[bool, bool, float]:
        if r.order == "first":
            return (True, True, r.jump)
        if r.order == "second":
            return (True, False, r.kink)
        return (False, False, 0.0)

    records.sort(key=lambda r: r.location)
    merged: list[TransitionRecord] = []
    for rec in records:
        if merged and abs(rec.location - merged[-1].location) <= 2.0 * spacing:
            keep = max(merged[-1], rec, key=_strength)
            merged[-1] = keep
        else:
            merged.append(rec)
    return [rec for rec in merged if rec.order != "none"]


@dataclass(frozen=True)
class PhaseGrid:
    """Classification over a (delta, v) grid, with critical-line overlays.

    labels[i][j] is the phase at deltas[i], vs[j]; overlays is a list of
    (line_id, [(delta, v), ...]) polylines.
    """

    deltas: list[float]
    vs: list[float]
    labels: list[list[str]]
    overlays: list[tuple[str, list[tuple[float, float]]]]


def critical_overlays(u: float, omega_rabi: float,
                      delta_range: tuple[float, float],
                      v_range: tuple[float, float],
                      n: int = 201) -> list[tuple[str, list[tuple[float, float]]]]:
    """Critical-line polylines clipped to the given window."""
    d_lo, d_hi = delta_range
    v_lo, v_hi = v_range
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


def phase_grid(u: float, omega_rabi: float,
               delta_range: tuple[float, float] = (-3.0, 3.0),
               v_range: tuple[float, float] = (-3.0, 1.0),
               resolution: tuple[int, int] = (61, 41),
               omega: float = 1.0) -> PhaseGrid:
    """Classify the ground state over a rectangular (delta, v) grid."""
    if u < 0.0:
        raise ParameterError("negative coupling u")
    nd, nv = resolution
    if nd < 2 or nv < 2:
        raise ParameterError("grid resolution must be at least 2 per axis")
    lam = math.sqrt(u * omega)
    deltas = [delta_range[0] + (delta_range[1] - delta_range[0]) * i / (nd - 1)
              for i in range(nd)]
    vs = [v_range[0] + (v_range[1] - v_range[0]) * j / (nv - 1)
          for j in range(nv)]
    labels = []
    for d in deltas:
        row = []
        for v in vs:
            p = ModelParams(omega=omega, lam=lam, delta=d, omega_rabi=omega_rabi,
                            v=v, n_atoms=1)
            row.append(classify(p).value)
        labels.append(row)
    overlays = critical_overlays(u, omega_rabi, delta_range, v_range)
    return PhaseGrid(deltas=deltas, vs=vs, labels=labels, overlays=overlays)
