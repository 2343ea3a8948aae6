"""Scalar hot-path kernels: stationarity-quartic roots, single-point ground
states on the Bloch circle, and the brute-force grid/golden-section oracle.
The two routes find their candidate points independently and pick the
reported one by the same tie-break rule (_select).

Everything here works in the reduced coupling set (u, v, delta, rabi) with
u = lambda**2 / omega.  Energies are per atom in the thermodynamic limit; the
photon observables are reconstructed by the callers from (s_x, lambda, omega).

The Bloch circle is parametrized two ways:

* angle theta with s_x = cos(theta)/2, s_z = sin(theta)/2, and
* the rational variable eta with s_x = (eta**2 - 1) / (2*(eta**2 + 1)),
  s_z = eta / (1 + eta**2); theta = pi - 2*arctan(eta), so eta = +-inf is the
  single point (s_x, s_z) = (1/2, 0).

Stationary points of the reduced energy at finite eta are the real roots of

    delta*eta**4 + 2*(u + v - rabi)*eta**3 - 2*(u + v + rabi)*eta - delta = 0

and the point eta = +-inf is stationary exactly when delta = 0.  In floats
the pole is a candidate exactly when real_roots drops the leading
coefficient delta as zero: the far root, near -2*(u + v - rabi)/delta.

Every polynomial in the root finder, the quartic, its derivatives and the
trimmed lower-degree polynomials, is a zero-padded quartic: a 5-tuple
(c0, c1, c2, c3, c4), highest power first, evaluated inline by the one
Horner expression (((c0*x + c1)*x + c2)*x + c3)*x + c4.  For finite x this
gives the floats of a Horner loop over the unpadded coefficients started
from acc = 0.0: a zero accumulator times x stays a zero, and a zero plus the
first nonzero coefficient is that coefficient exactly, so the leading zeros
change at most the sign of a zero result, which no caller reads (they test
p == 0 or compare |p|).  So one code path serves degrees 1 to 4.
"""

import math

__all__ = [
    "real_roots",
    "bloch_from_eta",
    "eta_from_point",
    "reduced_energy",
    "energy_theta",
    "grad_residual",
    "solve_point",
    "oracle_minimum",
]

TWO_PI = 2.0 * math.pi

# "Zero relative to a scale": a quartic coefficient below this fraction of
# the largest one is dropped when choosing the degree (a root pushed to
# infinity is then the explicit eta = +-inf candidate), and couplings are a
# flat manifold when delta, rabi and u+v all fall below it relative to S.
_REL_COEFF_EPS = 1e-14
# A critical point is a (multiple) root when |p| there is within Horner's
# rounding-error bound: 2n*u = 8 * 2**-53 times the sum of the term
# magnitudes for degree n = 4 (Higham, Accuracy and Stability, eq. 5.3).
_ROOT_ACCEPT = 8 * 2.0**-53
# Roots closer than this (relative) are merged.
_DEDUPE_EPS = 1e-9
# Energy window for reporting degenerate (tied) minima, relative to the
# coupling scale S: energies and their evaluation error are homogeneous of
# degree 1 in the couplings.
_TIE_EPS = 1e-10
# Much tighter window (also relative to S) for *selecting* the reported
# point.  Coordinate ranking may only override the energy ordering between candidates whose
# energies agree to evaluation precision; near-critical couplings produce
# distinct stationary points split by ~1e-11 (far above roundoff, far below
# _TIE_EPS), and the lowest of those must win or the solver returns a
# non-minimal point.
_SELECT_EPS = 1e-13
# Two stationary points are "the same point" below this angular separation.
_DISTINCT_ANGLE = 1e-8
# Coordinate slack when ranking tied minima.  Comparison-based refinement
# locates a smooth minimum only to ~sqrt(eps) in angle, so coordinates of
# exact ties can disagree by ~1e-8 between routes; genuinely distinct tied
# minima in this model are separated by O(1).
_RANK_EPS = 1e-6

_INV_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def _quadratic_roots(a, b, c):
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    s = math.sqrt(disc)
    q = -0.5 * (b + s) if b >= 0.0 else -0.5 * (b - s)
    if q == 0.0:
        # b == 0 and disc == 0: double root at the origin.
        return [0.0]
    r1 = q / a
    r2 = c / q
    return [r1, r2] if r1 <= r2 else [r2, r1]


def _bracketed_newton(p, dp, a, b, fa):
    """Root of the padded polynomial p in [a, b], on which it is monotone
    and changes sign (fa = p(a)); dp holds the padded coefficients of p'.

    Safeguarded Newton (rtsafe; Press et al., Numerical Recipes, sec. 9.4):
    start at the midpoint, narrow the sign bracket at every evaluation, and
    bisect whenever a Newton step leaves the bracket or p' = 0.  Every step
    is at least half the stopping width, so a Newton iterate that creeps up
    on the root from one side still steps across it and closes the bracket.
    Returns the midpoint of the final bracket.
    """
    c0, c1, c2, c3, c4 = p
    d0, d1, d2, d3, d4 = dp
    neg = fa < 0.0
    x = 0.5 * (a + b)
    for _ in range(200):
        fx = (((c0 * x + c1) * x + c2) * x + c3) * x + c4
        if fx == 0.0:
            return x
        if (fx < 0.0) == neg:
            a = x
        else:
            b = x
        # 1e-15 * max(1.0, |a|, |b|); a <= b, so max(|a|, |b|) is b or -a
        m = b if b > -a else -a
        tol = 1e-15 * m if m > 1.0 else 1e-15
        if (b - a) <= tol:
            break
        dfx = (((d0 * x + d1) * x + d2) * x + d3) * x + d4
        if dfx == 0.0:
            x = 0.5 * (a + b)
            continue
        step = fx / dfx
        if abs(step) < 0.5 * tol:
            step = math.copysign(0.5 * tol, step)
        x_new = x - step
        x = x_new if a < x_new < b else 0.5 * (a + b)
    return 0.5 * (a + b)


def _real_roots_desc(p, n):
    """Real roots of the padded polynomial p of degree n (1..4), whose
    leading coefficient p[4 - n] is nonzero.

    Degree >= 3 is handled by splitting the axis at the (recursively found)
    critical points, which bounds one sign change per monotone interval, then
    solving each such interval by bracketed Newton.  Near-multiple roots show
    up as critical points with |p| at the evaluation noise floor and are
    accepted directly.
    """
    c0, c1, c2, c3, c4 = p
    if n == 1:
        return [-c4 / c3]
    if n == 2:
        return _quadratic_roots(c2, c3, c4)

    dp = (0.0, 4.0 * c0, 3.0 * c1, 2.0 * c2, c3)
    crits = sorted(_real_roots_desc(dp, n - 1))
    lead = abs(c0) if n == 4 else abs(c1)
    bound = 1.0 + max(abs(c1) if n == 4 else 0.0, abs(c2), abs(c3), abs(c4)) / lead

    roots = []
    for x in crits:
        # Accept a critical point as a (multiple) root only when |p| is
        # within the rounding error of its evaluation.  A looser bound
        # fabricates roots: a complex pair 1e-4 off the axis, next to a lobe
        # edge under a weak drive, leaves |p| at 7e-13 of the terms.
        ax = abs(x)
        x2 = ax * ax
        x3 = x2 * ax
        mag = abs(c4) + abs(c3) * ax + abs(c2) * x2 + abs(c1) * x3 + abs(c0) * (x3 * ax)
        if abs((((c0 * x + c1) * x + c2) * x + c3) * x + c4) <= _ROOT_ACCEPT * mag:
            roots.append(x)

    pts = [-bound] + [x for x in crits if -bound < x < bound] + [bound]
    vals = [(((c0 * x + c1) * x + c2) * x + c3) * x + c4 for x in pts]
    for i in range(len(pts) - 1):
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(pts[i])
        elif fa * fb < 0.0:
            roots.append(_bracketed_newton(p, dp, pts[i], pts[i + 1], fa))
    if vals[-1] == 0.0:
        roots.append(pts[-1])
    return roots


def _polish(p, dp, x):
    # A few safeguarded Newton steps against the untrimmed quartic p.
    c0, c1, c2, c3, c4 = p
    d0, d1, d2, d3, d4 = dp
    px = (((c0 * x + c1) * x + c2) * x + c3) * x + c4
    for _ in range(3):
        if px == 0.0:
            break
        dpx = (((d0 * x + d1) * x + d2) * x + d3) * x + d4
        if dpx == 0.0:
            break
        x1 = x - px / dpx
        p1 = (((c0 * x1 + c1) * x1 + c2) * x1 + c3) * x1 + c4
        if abs(p1) < abs(px):
            x, px = x1, p1
        else:
            break
    return x


def real_roots(c4, c3, c2, c1, c0):
    """All real roots of c4*x^4 + ... + c0, ascending, multiples collapsed.

    Coefficients small relative to the largest one are treated as exact
    zeros for the degree choice (the corresponding far roots are the
    caller's eta = +-inf candidate); every root is then Newton-polished
    against the full input polynomial.  Of roots within _DEDUPE_EPS *
    max(1, |x|) of each other (copies of a multiple root), the one with the
    smaller |p| is kept.  Returns () when all coefficients vanish.
    """
    p = (c4, c3, c2, c1, c0)
    scale = max(abs(c4), abs(c3), abs(c2), abs(c1), abs(c0))
    if scale == 0.0:
        return ()
    k = 0
    while k < 4 and abs(p[k]) <= _REL_COEFF_EPS * scale:
        k += 1
    j = 4
    while j > k and abs(p[j]) <= _REL_COEFF_EPS * scale:
        j -= 1
    n = j - k
    roots = _real_roots_desc((0.0,) * (4 - n) + p[k:j + 1], n) if n else []
    if j < 4:
        roots.append(0.0)
    if not roots:
        return ()

    dp = (0.0, 4.0 * c4, 3.0 * c3, 2.0 * c2, c1)
    roots = sorted(_polish(p, dp, r) for r in roots)
    out = [roots[0]]
    for r in roots[1:]:
        if r - out[-1] <= _DEDUPE_EPS * max(1.0, abs(r)):
            # Keep the copy with the smaller backward error.
            q = out[-1]
            if (abs((((c4 * r + c3) * r + c2) * r + c1) * r + c0)
                    < abs((((c4 * q + c3) * q + c2) * q + c1) * q + c0)):
                out[-1] = r
        else:
            out.append(r)
    return tuple(out)


def bloch_from_eta(eta):
    """Bloch-circle point (s_x, s_z) for rational parameter eta."""
    if math.isinf(eta):
        return 0.5, 0.0
    d = 1.0 + eta * eta
    return (eta * eta - 1.0) / (2.0 * d), eta / d


def eta_from_point(s_x, s_z):
    """Inverse of bloch_from_eta; the s_x = 1/2 pole maps to +inf."""
    den = 1.0 - 2.0 * s_x
    if den <= 0.0:
        return math.inf
    num = 1.0 + 2.0 * s_x
    if num <= 0.0:
        return 0.0
    mag = math.sqrt(num / den)
    if s_z < 0.0:
        return -mag
    if s_z == 0.0:
        # On the axis the sign is irrelevant (s_z = eta/(1+eta^2) = 0).
        return 0.0 if s_x < 0.0 else math.inf
    return mag


def reduced_energy(u, v, delta, rabi, s_x, s_z):
    """Per-atom energy at the optimal photon displacement, on the circle."""
    return -u * s_x * s_x + v * s_z * s_z + delta * s_z + rabi * s_x


def energy_theta(u, v, delta, rabi, theta):
    return reduced_energy(u, v, delta, rabi, 0.5 * math.cos(theta), 0.5 * math.sin(theta))


def grad_residual(u, v, delta, rabi, eta):
    """|de/dtheta| at the point eta: the stationarity defect on the circle.

    Equals |quartic(eta)| / (2*(1 + eta**2)**2), which stays meaningful (and
    small for polished roots) even at the large eta that arise when delta is
    tiny, where the raw quartic value is dominated by evaluation noise.
    """
    if math.isinf(eta):
        return 0.5 * abs(delta)
    e2 = eta * eta
    lhs = (
        2.0 * (u + v) * eta * (1.0 - e2)
        + 2.0 * rabi * eta * (1.0 + e2)
        + delta * (1.0 - e2 * e2)
    )
    d = 1.0 + e2
    return abs(lhs) / (2.0 * d * d)


def _cyclic_dist(a, b):
    d = abs(a - b)
    return min(d, TWO_PI - d)


def _select(cands, e_min, scale):
    """The tie-break rule of both mean-field routes: the reported point
    among candidates (theta, s_x, s_z, energy, ...), given e_min, the lowest
    local-minimum energy among them.  Returns (rep, degenerate).

    Among the candidates within _SELECT_EPS * scale of e_min, in list
    order, the largest s_z wins, then the largest s_x, each compared with
    _RANK_EPS slack.  degenerate is True when a candidate within
    _TIE_EPS * scale of e_min lies more than _DISTINCT_ANGLE from rep.
    """
    sel_tol = _SELECT_EPS * scale
    sel = [c for c in cands if c[3] <= e_min + sel_tol]
    rep = sel[0]
    for c in sel[1:]:
        if c[2] > rep[2] + _RANK_EPS:
            rep = c
        elif abs(c[2] - rep[2]) <= _RANK_EPS and c[1] > rep[1] + _RANK_EPS:
            rep = c
    tie = e_min + _TIE_EPS * scale
    for c in cands:
        if c[3] <= tie:
            d = abs(c[0] - rep[0])  # _cyclic_dist, written out
            if d > _DISTINCT_ANGLE and TWO_PI - d > _DISTINCT_ANGLE:
                return rep, True
    return rep, False


def solve_point(u, v, delta, rabi):
    """Global minimum of the reduced energy over the Bloch circle.

    Returns (s_x, s_z, energy, eta, residual, degenerate, flat, n_minima):

    * eta is the representative coordinate of the reported point (+-inf for
      the (1/2, 0) pole), residual its on-circle gradient defect;
    * degenerate is True when a second, distinct stationary point ties the
      minimum within 1e-10 * S; the reported point is the energy
      minimum, with exact ties (equal to evaluation precision) broken by
      the largest s_z, then the largest s_x;
    * flat is True when delta, rabi and u+v all vanish (relative to the
      coupling scale S) and the energy is constant on the circle -- the
      conventional point (-1/2, 0) is returned;
    * n_minima counts local minima of the energy on the circle.

    The problem is homogeneous of degree 1 in the couplings, so it is solved
    for the couplings divided by 2**k, the power of two at S, where the
    quartic coefficients can neither overflow nor underflow; the division
    is exact, and energy and residual are scaled back by 2**k.
    """
    k = math.frexp(max(u, abs(v), rabi, abs(delta)))[1]
    u, v = math.ldexp(u, -k), math.ldexp(v, -k)
    delta, rabi = math.ldexp(delta, -k), math.ldexp(rabi, -k)
    w = u + v
    scale = max(u, abs(v), rabi, abs(delta))
    if scale == 0.0 or max(abs(delta), rabi, abs(w)) <= _REL_COEFF_EPS * scale:
        s_x, s_z = -0.5, 0.0
        e = reduced_energy(u, v, delta, rabi, s_x, s_z)
        residual = grad_residual(u, v, delta, rabi, 0.0)
        return (s_x, s_z, math.ldexp(e, k), 0.0, math.ldexp(residual, k),
                True, True, 0)

    c3, c1 = 2.0 * (w - rabi), -2.0 * (w + rabi)
    roots = real_roots(delta, c3, 0.0, c1, -delta)
    cands = []  # (theta, s_x, s_z, energy, eta)
    for r in roots:
        # bloch_from_eta, theta = pi - 2*atan(eta) and reduced_energy,
        # written out; the roots of the scaled quartic are finite
        d = 1.0 + r * r
        s_x = (r * r - 1.0) / (2.0 * d)
        s_z = r / d
        cands.append((math.pi - 2.0 * math.atan(r), s_x, s_z,
                      -u * s_x * s_x + v * s_z * s_z + delta * s_z + rabi * s_x, r))
    if abs(delta) <= _REL_COEFF_EPS * max(abs(delta), abs(c3), abs(c1)):
        # real_roots dropped delta, and with it the far root: the pole
        cands.append((0.0, 0.5, 0.0, reduced_energy(u, v, delta, rabi, 0.5, 0.0), math.inf))
    if not cands:
        # A non-flat landscape has a minimum; reaching here is a solver bug.
        raise RuntimeError(
            f"no stationary point found for couplings {(u, v, delta, rabi)!r}")

    cands.sort()
    n = len(cands)
    n_minima = 0
    e_min = cands[0][3]
    if n == 1:
        n_minima = 1
    else:
        for i in range(n):
            e = cands[i][3]
            if e <= cands[i - 1][3] and e <= cands[(i + 1) % n][3]:
                n_minima += 1
                # the global minimum is a local one
                if e < e_min:
                    e_min = e

    rep, degenerate = _select(cands, e_min, scale)
    residual = grad_residual(u, v, delta, rabi, rep[4])
    return (rep[1], rep[2], math.ldexp(rep[3], k), rep[4],
            math.ldexp(residual, k), degenerate, False, n_minima)


def _golden_min(u, v, delta, rabi, lo, hi):
    # Golden-section minimization, fixed iteration budget, deterministic.
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc = energy_theta(u, v, delta, rabi, c)
    fd = energy_theta(u, v, delta, rabi, d)
    for _ in range(80):
        if b - a <= 1e-10:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = energy_theta(u, v, delta, rabi, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = energy_theta(u, v, delta, rabi, d)
    t = 0.5 * (a + b)
    return t, energy_theta(u, v, delta, rabi, t)


def oracle_minimum(u, v, delta, rabi, n_points):
    """Brute-force minimum of the reduced energy over the Bloch circle.

    Scans n_points uniform angles, refines every grid-local minimum (the
    lowest few) by golden-section search to 1e-10 in angle, and picks among
    the refined minima by solve_point's tie-break rule (_select).  Finding
    the points shares no code with the quartic route.  Returns (s_x, s_z,
    energy, theta, degenerate, flat, n_minima).
    """
    n = int(n_points)
    h = TWO_PI / n
    energies = [energy_theta(u, v, delta, rabi, -math.pi + h * i) for i in range(n)]
    scale = max(u, abs(v), rabi, abs(delta))
    i_lo = min(range(n), key=lambda i: energies[i])
    if max(energies) - energies[i_lo] <= 1e-12 * scale:
        s_x, s_z = -0.5, 0.0
        e = reduced_energy(u, v, delta, rabi, s_x, s_z)
        return (s_x, s_z, e, math.pi, True, True, 0)

    locs = []
    for i in range(n):
        e = energies[i]
        ep = energies[i - 1]
        en = energies[(i + 1) % n]
        if e <= ep and e <= en and (e < ep or e < en):
            locs.append((e, i))
    locs.sort()
    if not locs:
        # A fp-flat plateau hosting the minimum: fall back to the arg min.
        locs = [(energies[i_lo], i_lo)]
    refined = []
    for e, i in locs[:8]:
        t0 = -math.pi + h * i
        refined.append(_golden_min(u, v, delta, rabi, t0 - h, t0 + h))

    # Collapse refinements that landed on the same point.
    clusters = []
    for t, e in refined:
        for k, (tc, ec) in enumerate(clusters):
            if _cyclic_dist(t, tc) <= 1e-6:
                if e < ec:
                    clusters[k] = (t, e)
                break
        else:
            clusters.append((t, e))

    pts = [(t, 0.5 * math.cos(t), 0.5 * math.sin(t), e) for t, e in clusters]
    rep, degenerate = _select(pts, min(e for _, e in clusters), scale)
    return (rep[1], rep[2], rep[3], rep[0], degenerate, False, len(clusters))
