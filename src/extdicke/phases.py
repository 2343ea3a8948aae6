"""Phase structure of the extended Dicke model in the thermodynamic limit.

Phases are named by their order parameters (meanfield.phase_label, which
classify reads off a ModelParams): Normal (fully polarized spin, no
photons beyond fluctuations), Superradiant (macroscopic photon density,
partial polarization), Mott (m = 0 plateau, single energy minimum, photon
condensate locked by attractive v), and Superfluid (broken double well in
s_z at strongly attractive v).  A flat energy manifold is labeled
Degenerate.

Critical lines in the (delta, v) plane at fixed u and omega_rabi, which
critical_overlays draws as delta -> -delta mirror pairs (one helper):

* lobe edge      delta = +-(u + v)                      (u + v >= 0)
* red line       v = -u
* astroid edge   delta = +-(|u+v|**(2/3) - rabi**(2/3))**(3/2)
                                                        (|u+v| >= rabi)
* inverse form   v_c = -u - (rabi**(2/3) + |delta|**(2/3))**(3/2)

The transition detector walks an observable along one parameter axis (its
solves memoised by functools.cache), flags cells where the second
difference spikes, and refines each flag: a jump counts only between
coexisting states (two local minima, a tied pair of stationary points, or
a flat manifold); a corner is where the ground state turns on the Bloch
circle by more than a radian within one scan step, or switches branch,
and its kink is the mismatch of the limiting one-sided slopes there.
"""

from __future__ import annotations

import functools
import math
import warnings
from operator import attrgetter

from .meanfield import (_DISTINCT_ANGLE, MeanFieldSolution, PhaseLabel, ground_state,
                        phase_label)
from .model import (AXES, KEYS, MAX_NODES, ModelParams, ParameterError, _integer, _real,
                    coupling_scale, record)

# Smallest jump between coexisting minima that makes a transition first
# order, in the observable's unit (S for the energy, (lambda/omega)**2 for
# the photon density, 1 for the others).
_JUMP_TOL = 1e-6
# susceptibility_v's step (relative to S), and the change of m/N that warns.
_STENCIL_STEP = 1e-4
_STENCIL_JUMP = 0.5
# A flag's |second difference| exceeds _OUTLIER * median and _FLAG_FLOOR * max(unit, f_range).
_OUTLIER = 8.0
_FLAG_FLOOR = 1e-12
# A corner turns the ground state by more than this (radians) in a scan step.
_CORNER_TURN = 1.0
# Points per critical-line polyline.
_OVERLAY_POINTS = 201
# Observables read straight off a MeanFieldSolution, and where.
_PLAIN_OBSERVABLES = {"m_over_n": "m_over_n", "photon_density": "photon_density",
                      "s_x": "point.s_x", "s_z": "point.s_z",
                      "energy": "energy_per_atom"}


def delta_critical(u: float, v: float) -> tuple[float, float]:
    """Detuning edges -+(u + v) of the superradiant lobe at omega_rabi = 0."""
    w = u + v
    if w < 0.0:
        raise ParameterError("no superradiant lobe: u + v < 0")
    return (-w, w)


def omega_critical(u: float, v: float) -> float:
    """Rabi strength |u + v| above which the detuning sweep of the atomic
    population loses its first-order jump."""
    return abs(u + v)


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
    v_c = -u - (rabi**(2/3) + |delta|**(2/3))**(3/2), and -inf where that
    is beyond float range."""
    if omega_rabi < 0.0:
        raise ParameterError("negative Rabi frequency")
    try:
        return -u - (omega_rabi ** (2.0 / 3.0) + abs(delta) ** (2.0 / 3.0)) ** 1.5
    except OverflowError:
        return -math.inf


def classify(params: ModelParams,
             solution: MeanFieldSolution | None = None) -> PhaseLabel:
    """Phase label for a mean-field solution (recomputed when omitted): the
    rule of phase_label, read off params and the solution."""
    if solution is None:
        solution = ground_state(params)
    return phase_label(solution.flat_manifold, solution.m_over_n,
                       solution.n_local_minima, solution.point.s_x,
                       params.u, params.v)


def susceptibility_v(params: ModelParams) -> float:
    """Centered-difference susceptibility d(m/N)/dv, step _STENCIL_STEP * S
    for the coupling scale S of params (omega does not enter m/N).

    Identically zero across the Mott plateau.  Warns when the stencil
    appears to straddle a first-order line (a jump in m/N above
    _STENCIL_JUMP, or a flat manifold at either stencil point); the value
    is still returned, and is 0 where S = 0.
    """
    dv = _STENCIL_STEP * coupling_scale(params.u, params.v, params.delta, params.omega_rabi)
    hi = ground_state(params.replace(v=params.v + dv))
    lo = ground_state(params.replace(v=params.v - dv))
    dm = hi.m_over_n - lo.m_over_n
    if hi.flat_manifold or lo.flat_manifold or abs(dm) > _STENCIL_JUMP:
        warnings.warn(
            "susceptibility stencil may straddle a first-order boundary",
            RuntimeWarning,
            stacklevel=2,
        )
    return dm / (2.0 * dv) if dv > 0.0 else 0.0


@record
class TransitionRecord:
    """One detected transition along a one-parameter sweep.

    jump is the observable's difference across the refined bracket, and 0
    unless the solver sees coexisting states on both sides (see
    _refine_jump).  kink is the difference of the two limiting one-sided
    slopes at a corner, or the larger one-sided secant slope where both
    diverge (see _refine_kink), and 0 for a first-order record.
    """

    location: float
    order: str  # "first" or "second"
    observable: str
    jump: float
    kink: float


def _observable_fn(base: ModelParams, axis: str, observable: str):
    """t -> (observable value, ground state, turning rate) along the axis.

    With (s_x, s_z) = (cos theta, sin theta)/2 the energy on the Bloch
    circle is e(theta) = -u s_x**2 + v s_z**2 + delta s_z + rabi s_x, and
    the minimizer turns at |dtheta*/dt| = |d_t e_theta| / e_thetatheta,
    where e_thetatheta = 2(u+v)(s_x**2 - s_z**2) - delta s_z - rabi s_x.
    Both read off the reported point (inf where e_thetatheta vanishes).
    """
    if axis not in KEYS:
        raise ParameterError(f"unknown sweep axis {axis!r}")
    i = KEYS.index(axis)
    name = AXES[i]
    if observable in _PLAIN_OBSERVABLES:
        get = attrgetter(_PLAIN_OBSERVABLES[observable])
    elif observable != "energy_slope":
        raise ParameterError(f"unknown observable {observable!r}")

    def f(t: float) -> tuple[float, MeanFieldSolution, float]:
        p = base.replace(**{name: t})
        sol = ground_state(p)
        s_x, s_z = sol.point.s_x, sol.point.s_z
        # d(u, v, delta, rabi)/dt along the axis, by COUPLINGS position
        r = p.lam / p.omega
        du, dv, dd, dr = ((-r * r, 0.0, 0.0, 0.0),  # omega
                          (2.0 * r, 0.0, 0.0, 0.0),  # lambda
                          (0.0, 0.0, 1.0, 0.0),  # delta
                          (0.0, 0.0, 0.0, 1.0),  # omega_rabi
                          (0.0, 1.0, 0.0, 0.0))[i]  # v
        e_tt = (2.0 * (p.u + p.v) * (s_x * s_x - s_z * s_z)
                - p.delta * s_z - p.omega_rabi * s_x)
        e_t = 2.0 * (du + dv) * s_x * s_z + dd * s_x - dr * s_z
        rate = abs(e_t) / e_tt if e_tt > 0.0 else math.inf
        if observable == "energy_slope":
            # envelope theorem: at the minimizer the energy derivative along
            # the axis is the explicit partial derivative
            value = -du * s_x * s_x + dv * s_z * s_z + dd * s_z + dr * s_x
        else:
            value = get(sol)
        return value, sol, rate

    return f


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


def _argmax(g, a, b):
    """Largest g on [a, b]: the best of nine evenly spaced points, then a
    golden-section search around it down to the float spacing at a and b
    (next to t = 0 it would otherwise walk down the subnormals).  Seeding
    from the best sample keeps a side where g is 0 from steering the
    search."""
    step = (b - a) / 8.0
    x = max([a + step * k for k in range(8)] + [b], key=g)
    gx = g(x)
    lo, hi = max(a, x - step), min(b, x + step)
    tol = math.ulp(max(abs(a), abs(b)))
    while True:  # probe the longer side at the golden ratio, (3 - 5**0.5)/2
        left = x - lo > hi - x
        p = x - 0.381966 * (x - lo) if left else x + 0.381966 * (hi - x)
        if not lo < p < hi or p == x or hi - lo <= tol:
            return x, gx
        gp = g(p)
        if gp > gx:
            lo, hi = (lo, x) if left else (x, hi)
            x, gx = p, gp
        elif left:
            lo = p
        else:
            hi = p


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
        (fa, sa, _), (fb, sb, _) = solve(a), solve(b)
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


def _refine_kink(solve, a, b, spacing):
    """Location and size of a corner of the observable in [a, b]; the size
    is 0 where the ground state has none.

    The ground state has a corner where it turns by more than a radian
    within one scan step, at the largest turning rate (which diverges at
    lobe edges, root-law onsets and critical-drive cusps), or where it
    switches branch, which a bisection of its chord distance from a finds.
    The size is the difference of the two limiting one-sided slopes, each
    extrapolated linearly from secants over spacing/4 and spacing/8 (the
    longer one cut to fit in [a, b]).  It is 0 when the spacing/8 secants
    do not fit on both sides, and when it does not exceed the
    extrapolation's own correction, as where only the curvature jumps.  Where both sides
    diverge it is the larger secant slope, since two infinite slopes of
    one sign (a critical-drive cusp) leave no difference.  A side diverges
    when its secant rises by more than 2**0.25 on halving the step, the
    midpoint between a finite slope (1) and a root law (2**0.5)."""
    c, rate = _argmax(lambda t: solve(t)[2], a, b)
    if rate * spacing < _CORNER_TURN:
        p0 = solve(a)[1].point

        def chord(t):
            p = solve(t)[1].point
            return math.hypot(p.s_x - p0.s_x, p.s_z - p0.s_z)

        l, r = _bisect(chord, a, b)
        # across adjacent floats a state on one branch stays one point (chord = angle/2)
        if abs(chord(r) - chord(l)) <= 0.5 * _DISTINCT_ANGLE:
            return c, 0.0
        c = 0.5 * (l + r)
    h = 0.25 * spacing
    if min(c - a, b - c) < 0.5 * h:
        return c, 0.0
    fc = solve(c)[0]

    def secant(t):
        return (solve(t)[0] - fc) / (t - c)

    limits, near, rising, err = [], [], [], 0.0
    for end in (a, b):
        far_t = c + max(-h, min(h, end - c))
        far, s = secant(far_t), secant(0.5 * (c + far_t))
        limits.append(2.0 * s - far)
        near.append(abs(s))
        rising.append(abs(s) > 2.0 ** 0.25 * abs(far))
        err = max(err, abs(s - far))
    if all(rising):
        return c, max(near)
    kink = abs(limits[1] - limits[0])
    return c, kink if kink > err else 0.0


def detect_transitions(params: ModelParams, axis: str, t_min: float,
                       t_max: float, *, observable: str = "m_over_n",
                       n_scan: int = 201) -> list[TransitionRecord]:
    """Locate phase boundaries of an observable along one coupling, the
    axis named by its key (see model.COUPLINGS).

    Scans n_scan points on [t_min, t_max] and flags each cell whose
    |second difference| is an outlier and a local maximum: larger than
    every one in the 3 cells to its left and at least as large as every
    one in the 3 cells to its right.  Each flag is refined once, within
    the four scan cells around it: first-order when the jump between
    coexisting minima exceeds _JUMP_TOL in the observable's unit;
    second-order when the ground state turns by more than a radian within
    one scan step, or switches branch, and the limiting slope mismatch
    there exceeds its own extrapolation error.  A flag that refines to
    neither (a smooth wiggle, a crossover rounded by a drive) gives no
    record.  The result is sorted by location.  n_scan is 8 to
    model.MAX_NODES, and t_max - t_min must be a finite float.
    """
    t_min, t_max = _real(t_min, "t_min"), _real(t_max, "t_max")
    n_scan = _integer(n_scan, "n_scan")
    if not t_max > t_min:
        raise ParameterError("empty sweep range")
    if n_scan < 8:
        raise ParameterError("transition scan needs at least 8 points")
    if n_scan > MAX_NODES:
        raise ParameterError(f"n_scan must be at most MAX_NODES = {MAX_NODES}")
    if not math.isfinite(t_max - t_min):
        raise ParameterError(f"t_max - t_min overflows: {t_min!r} to {t_max!r}")
    solve = functools.cache(_observable_fn(params, axis, observable))  # 0.0, -0.0: one key
    spacing = (t_max - t_min) / (n_scan - 1)
    ts = [t_min + spacing * i for i in range(n_scan)]
    fs = [solve(t)[0] for t in ts]
    f_range = max(fs) - min(fs)
    unit = 1.0
    if observable in ("energy", "photon_density"):
        # S or (lambda/omega)**2, the larger at the two ends of the scan (S
        # is convex along an axis, lambda/omega monotone)
        ends = [params.replace(**{AXES[KEYS.index(axis)]: t}) for t in (t_min, t_max)]
        unit = max(coupling_scale(p.u, p.v, p.delta, p.omega_rabi) if observable == "energy"
                   else (p.lam / p.omega) ** 2 for p in ends)

    mag = [abs(fs[i] - 2.0 * fs[i + 1] + fs[i + 2]) for i in range(n_scan - 2)]
    mags = sorted(mag)
    m = len(mags) // 2  # the median, as statistics.median takes it
    med = mags[m] if len(mags) % 2 else (mags[m - 1] + mags[m]) / 2
    floor = max(_OUTLIER * med, _FLAG_FLOOR * max(unit, f_range))
    # a flag is the first of the largest values within 3 cells either side
    flags = [i for i, x in enumerate(mag)
             if x > floor and all(x > y for y in mag[max(0, i - 3):i])
             and all(x >= y for y in mag[i + 1:i + 4])]

    records = []
    for i in flags:
        a = ts[max(0, i - 1)]
        b = ts[min(n_scan - 1, i + 3)]
        loc_j, jump = _refine_jump(solve, a, b)
        if jump > _JUMP_TOL * unit:
            records.append(TransitionRecord(loc_j, "first", observable, jump, 0.0))
            continue
        loc_k, kink = _refine_kink(solve, a, b, spacing)
        if kink > 0.0:
            records.append(TransitionRecord(loc_k, "second", observable, jump, kink))
    return records


def critical_overlays(u: float, omega_rabi: float,
                      delta_range: tuple[float, float],
                      v_range: tuple[float, float]) -> list[tuple[str, list[tuple[float, float]]]]:
    """Critical-line polylines clipped to the given window, drawn as mirror
    pairs: a line of points (d, v), d >= 0, and its image (-d, v)."""
    (d_lo, d_hi), (v_lo, v_hi) = delta_range, v_range
    n = _OVERLAY_POINTS
    lines = []

    def mirror_pair(name, samples):  # <name>_plus, then <name>_minus, each clipped
        for side, sign in (("plus", 1.0), ("minus", -1.0)):
            pts = [(sign * d, v) for d, v in samples if d_lo <= sign * d <= d_hi]
            if pts:
                lines.append((f"{name}_{side}", pts))

    if v_hi >= -u:  # lobe edge exists for v >= -u
        vs = [max(v_lo, -u) + (v_hi - max(v_lo, -u)) * k / (n - 1) for k in range(n)]
        mirror_pair("lobe", [(u + v, v) for v in vs])

    if v_lo <= -u <= v_hi:
        lines.append(("red", [(d_lo, -u), (d_hi, -u)]))

    v_start = -u - omega_rabi  # astroid reaches delta = 0 here
    if v_start >= v_lo:
        vs = [v_lo + (min(v_start, v_hi) - v_lo) * k / (n - 1) for k in range(n)]
        # v <= v_start, so None comes only from a last sample rounded past
        # the cusp, which is delta = 0
        mirror_pair("astroid", [(mott_boundary_delta(u, v, omega_rabi) or 0.0, v) for v in vs])
    return lines
