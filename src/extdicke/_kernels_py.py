"""Scalar hot-path kernels: stationarity-quartic roots, single-point ground
states on the Bloch circle, and the brute-force grid/golden-section oracle.

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

and the point eta = +-inf is stationary exactly when delta = 0.
"""

import math

__all__ = [
    "poly_eval",
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

# Degree decay: coefficients below this fraction of the largest one are
# treated as zero when choosing the polynomial degree (roots pushed to
# infinity map onto the explicit eta = +-inf candidate instead).
_REL_COEFF_EPS = 1e-14
# Critical points of the polynomial with |p| below this backward-error level
# count as (collapsed multiple) roots.
_ROOT_ACCEPT = 1e-11
# Roots closer than this (relative) are merged.
_DEDUPE_EPS = 1e-9
# Energy window for reporting degenerate (tied) minima, scaled by max(1, S).
_TIE_EPS = 1e-10
# Much tighter window for *selecting* the reported point.  Coordinate
# ranking may only override the energy ordering between candidates whose
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
# Couplings are a flat manifold when delta, rabi and u+v all vanish at this
# relative level.
_FLAT_EPS = 1e-14

_INV_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def poly_eval(coeffs, x):
    """Horner evaluation; coeffs are highest power first."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


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


def _bisect(coeffs, a, b, fa):
    # fa and f(b) have opposite signs; plain bisection to fp exhaustion.
    neg = fa < 0.0
    for _ in range(200):
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        fm = poly_eval(coeffs, m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == neg:
            a = m
        else:
            b = m
        if (b - a) <= 1e-15 * max(1.0, abs(a), abs(b)):
            break
    return 0.5 * (a + b)


def _real_roots_desc(coeffs):
    """Real roots of coeffs (highest first, leading != 0, degree 1..4).

    Degree >= 3 is handled by splitting the axis at the (recursively found)
    critical points, which bounds one sign change per monotone interval, then
    bisecting.  Near-multiple roots show up as critical points with |p| at
    the evaluation noise floor and are accepted directly.
    """
    n = len(coeffs) - 1
    if n == 1:
        return [-coeffs[1] / coeffs[0]]
    if n == 2:
        return _quadratic_roots(coeffs[0], coeffs[1], coeffs[2])

    deriv = [coeffs[i] * (n - i) for i in range(n)]
    crits = sorted(_real_roots_desc(deriv))
    lead = abs(coeffs[0])
    bound = 1.0 + max(abs(c) for c in coeffs[1:]) / lead

    roots = []
    for x in crits:
        # Accept a critical point as a (multiple) root only when |p| is
        # small relative to the sum of term magnitudes at x -- the scale of
        # the evaluation noise there.  A looser bound fabricates roots: a
        # near-degenerate quartic can have |p(0)| far below the coefficient
        # scale while its true root sits many orders of magnitude away.
        mag = 0.0
        xp = 1.0
        ax = abs(x)
        for c in reversed(coeffs):
            mag += abs(c) * xp
            xp *= ax
        if abs(poly_eval(coeffs, x)) <= _ROOT_ACCEPT * mag:
            roots.append(x)

    pts = [-bound] + [x for x in crits if -bound < x < bound] + [bound]
    vals = [poly_eval(coeffs, x) for x in pts]
    for i in range(len(pts) - 1):
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(pts[i])
        elif fa * fb < 0.0:
            roots.append(_bisect(coeffs, pts[i], pts[i + 1], fa))
    if vals[-1] == 0.0:
        roots.append(pts[-1])
    return roots


def _polish(coeffs, dcoeffs, x):
    # A few safeguarded Newton steps against the untrimmed polynomial.
    p = poly_eval(coeffs, x)
    for _ in range(3):
        if p == 0.0:
            break
        dp = poly_eval(dcoeffs, x)
        if dp == 0.0:
            break
        x1 = x - p / dp
        p1 = poly_eval(coeffs, x1)
        if abs(p1) < abs(p):
            x, p = x1, p1
        else:
            break
    return x


def real_roots(c4, c3, c2, c1, c0):
    """All real roots of c4*x^4 + ... + c0, ascending, multiples collapsed.

    Coefficients small relative to the largest one are treated as exact
    zeros for the degree choice (the corresponding far roots are the
    caller's eta = +-inf candidate); every root is then Newton-polished
    against the full input polynomial.  Returns () when all coefficients
    vanish.
    """
    coeffs = [c4, c3, c2, c1, c0]
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        return ()
    k = 0
    while k < 4 and abs(coeffs[k]) <= _REL_COEFF_EPS * scale:
        k += 1
    cs = coeffs[k:]
    zero_root = False
    while len(cs) > 1 and abs(cs[-1]) <= _REL_COEFF_EPS * scale:
        cs.pop()
        zero_root = True
    if len(cs) > 1:
        roots = _real_roots_desc(cs)
    else:
        roots = []
    if zero_root:
        roots.append(0.0)
    if not roots:
        return ()

    dcoeffs = [4.0 * c4, 3.0 * c3, 2.0 * c2, c1]
    roots = sorted(_polish(coeffs, dcoeffs, r) for r in roots)
    out = [roots[0]]
    for r in roots[1:]:
        if r - out[-1] <= _DEDUPE_EPS * max(1.0, abs(r)):
            # Keep the copy with the smaller backward error.
            if abs(poly_eval(coeffs, r)) < abs(poly_eval(coeffs, out[-1])):
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


def _theta_of_eta(eta):
    if math.isinf(eta):
        return 0.0
    return math.pi - 2.0 * math.atan(eta)


def _cyclic_dist(a, b):
    d = abs(a - b)
    return min(d, TWO_PI - d)


def solve_point(u, v, delta, rabi):
    """Global minimum of the reduced energy over the Bloch circle.

    Returns (s_x, s_z, energy, eta, residual, degenerate, flat, n_minima):

    * eta is the representative coordinate of the reported point (+-inf for
      the (1/2, 0) pole), residual its on-circle gradient defect;
    * degenerate is True when a second, distinct stationary point ties the
      minimum within 1e-10 * max(1, S); the reported point is the energy
      minimum, with exact ties (equal to evaluation precision) broken by
      the largest s_z, then the largest s_x;
    * flat is True when delta, rabi and u+v all vanish (relative to the
      coupling scale S) and the energy is constant on the circle -- the
      conventional point (-1/2, 0) is returned;
    * n_minima counts local minima of the energy on the circle.
    """
    w = u + v
    scale = max(u, abs(v), rabi, abs(delta))
    if scale == 0.0 or max(abs(delta), rabi, abs(w)) <= _FLAT_EPS * scale:
        s_x, s_z = -0.5, 0.0
        e = reduced_energy(u, v, delta, rabi, s_x, s_z)
        return (s_x, s_z, e, 0.0, grad_residual(u, v, delta, rabi, 0.0), True, True, 0)

    roots = real_roots(delta, 2.0 * (w - rabi), 0.0, -2.0 * (w + rabi), -delta)
    cands = []  # (theta, s_x, s_z, energy, eta)
    for r in roots:
        s_x, s_z = bloch_from_eta(r)
        cands.append((_theta_of_eta(r), s_x, s_z, reduced_energy(u, v, delta, rabi, s_x, s_z), r))
    if abs(delta) <= _FLAT_EPS * scale:
        # The (1/2, 0) pole is stationary only on the delta = 0 axis.
        cands.append((0.0, 0.5, 0.0, reduced_energy(u, v, delta, rabi, 0.5, 0.0), math.inf))
    if not cands:  # unreachable for validated couplings; defensive
        s_x, s_z = -0.5, 0.0
        e = reduced_energy(u, v, delta, rabi, s_x, s_z)
        return (s_x, s_z, e, 0.0, grad_residual(u, v, delta, rabi, 0.0), True, True, 0)

    cands.sort()
    n = len(cands)
    n_minima = 0
    if n == 1:
        n_minima = 1
    else:
        for i in range(n):
            e = cands[i][3]
            if e <= cands[i - 1][3] and e <= cands[(i + 1) % n][3]:
                n_minima += 1

    e_min = min(c[3] for c in cands)
    sel_tol = _SELECT_EPS * max(1.0, scale)
    sel = [c for c in cands if c[3] <= e_min + sel_tol]
    rep = sel[0]
    for c in sel[1:]:
        if c[2] > rep[2] + _RANK_EPS:
            rep = c
        elif abs(c[2] - rep[2]) <= _RANK_EPS and c[1] > rep[1] + _RANK_EPS:
            rep = c
    tie_tol = _TIE_EPS * max(1.0, scale)
    degenerate = any(
        c[3] <= e_min + tie_tol and _cyclic_dist(c[0], rep[0]) > _DISTINCT_ANGLE
        for c in cands
    )
    residual = grad_residual(u, v, delta, rabi, rep[4])
    return (rep[1], rep[2], rep[3], rep[4], residual, degenerate, False, n_minima)


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
    lowest few) by golden-section search to 1e-10 in angle, and applies the
    same tie-breaking as solve_point.  Shares no code path with the quartic
    route.  Returns (s_x, s_z, energy, theta, degenerate, flat, n_minima).
    """
    n = int(n_points)
    h = TWO_PI / n
    energies = [energy_theta(u, v, delta, rabi, -math.pi + h * i) for i in range(n)]
    scale = max(u, abs(v), rabi, abs(delta))
    i_lo = min(range(n), key=lambda i: energies[i])
    if max(energies) - energies[i_lo] <= 1e-12 * max(1.0, scale):
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

    e_min = min(e for _, e in clusters)
    sel_tol = _SELECT_EPS * max(1.0, scale)
    sel = [(t, e) for t, e in clusters if e <= e_min + sel_tol]
    rep = sel[0]
    for c in sel[1:]:
        if math.sin(c[0]) > math.sin(rep[0]) + _RANK_EPS:
            rep = c
        elif (
            abs(math.sin(c[0]) - math.sin(rep[0])) <= _RANK_EPS
            and math.cos(c[0]) > math.cos(rep[0]) + _RANK_EPS
        ):
            rep = c
    tie_tol = _TIE_EPS * max(1.0, scale)
    degenerate = any(
        e <= e_min + tie_tol and _cyclic_dist(t, rep[0]) > _DISTINCT_ANGLE
        for t, e in clusters
    )
    theta = rep[0]
    s_x, s_z = 0.5 * math.cos(theta), 0.5 * math.sin(theta)
    return (s_x, s_z, rep[1], theta, degenerate, False, len(clusters))
