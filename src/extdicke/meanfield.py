"""Thermodynamic-limit ground states on the Bloch circle.

Minimizing the photon field exactly (alpha* = (lambda/omega)*s_x for the
scaled displacement <a>/sqrt(N) = -sqrt(N)*alpha at the energy minimum)
reduces the variational energy per atom to the reduced energy

    e = -u*s_x**2 + v*s_z**2 + delta*s_z + rabi*s_x

on the spin circle s_x**2 + s_z**2 = 1/4 (s_y = 0 at any minimum), in the
couplings (u, v, delta, rabi) with u = lambda**2/omega and rabi =
omega_rabi >= 0.  e is stationary where its gradient is normal to the
circle: s_x = -rabi/(2a), s_z = -delta/(2c) with c = a + w, w = u + v,
and the multiplier a a root of the secular equation

    G(a) = (rabi/a)**2 + (delta/c)**2 - 1 = 0

(Gander, Golub & von Matt, Linear Algebra Appl. 114/115, 815, 1989).  G is
convex between its poles a = 0 and c = 0 and beyond them, so it has one
root beyond both (a, c > 0: the global minimum), one before both (the
global maximum), and between them two roots, one double root or none, as
(rabi, delta) lies inside, on or outside the astroid
rabi**(2/3) + |delta|**(2/3) = |w|**(2/3).  The curvature along the circle
at a root is a*s_z**2 + c*s_x**2, so of the middle pair the root next to
a = 0 is a minimum when w > 0 and the root next to c = 0 when w < 0
(Martinez, SIAM J. Optim. 4, 159, 1994).  Where rabi or delta is exactly
0, its pole carries stationary points of its own: the two axis points of
the other coupling, and the pair of eigenvector points where they lie on
the circle.  Every root sits alone in its monotone interval, so no root
is found twice and no coefficient is dropped.

Two routes find the stationary points independently: solve_point (behind
ground_state) from the secular equation, and oracle_minimum (behind
oracle_grid_minimum, the cross-check) from the sign changes of de/dtheta
on a grid of angles.  They share everything else (_solve): the scaling,
the flat rule and the rule for the reported point (_select).
"""

from __future__ import annotations

import math
from enum import Enum

from .model import MAX_NODES, ModelParams, ParameterError, _integer, coupling_scale, record

TWO_PI = 2.0 * math.pi

# "Zero relative to S": the couplings are a flat manifold when delta, rabi
# and u+v all fall below this fraction of the coupling scale S.
_REL_COEFF_EPS = 1e-14
# Energy window for reporting degenerate (tied) minima, relative to the
# coupling scale S: energies and their evaluation error are homogeneous of
# degree 1 in the couplings.
_TIE_EPS = 1e-10
# Two stationary points are "the same point" below this angular separation;
# the oracle bisects each sign change of de/dtheta to this width.
_DISTINCT_ANGLE = 1e-8
# Round-off guard of the phase labels on m/N and on s_x.
_CLASSIFY_TOL = 1e-6


def reduced_energy(u, v, delta, rabi, s_x, s_z):
    """Per-atom energy at the optimal photon displacement, on the circle."""
    return -u * s_x * s_x + v * s_z * s_z + delta * s_z + rabi * s_x


def grad_residual(u, v, delta, rabi, s_x, s_z):
    """|de/dtheta| at the point (s_x, s_z): the stationarity defect on the circle."""
    return abs(2.0 * (u + v) * s_x * s_z + delta * s_x - rabi * s_z)


def _astroid_side(w, d, r):
    """Sign of (w**2 - d**2 - r**2)**3 - 27*w**2*d**2*r**2 for w >= 0 and
    d, r > 0: 1 strictly inside the astroid r**(2/3) + d**(2/3) = w**(2/3),
    0 on it, -1 outside.  Exact: evaluated on the integers that are the
    three floats times one power of two."""
    (a, p), (b, q), (c, n) = w.as_integer_ratio(), d.as_integer_ratio(), r.as_integer_ratio()
    m = max(p, q, n)
    w2, d2, r2 = (a * (m // p)) ** 2, (b * (m // q)) ** 2, (c * (m // n)) ** 2
    f = w2 - d2 - r2
    if f <= 0:
        return -1
    g = f * f * f - 27 * w2 * d2 * r2
    return (g > 0) - (g < 0)


def _split(w, k, k2):
    """t of the least of G between the poles, for the middle root whose
    multiplier is k*(1 + t): there the multiplier's magnitude is
    w * k**(2/3) / (k**(2/3) + k2**(2/3)), here in ratios of the couplings."""
    m = max(k, k2)
    r, r2 = (k / m) ** (1.0 / 3.0), (k2 / m) ** (1.0 / 3.0)
    return w / m / (r * (r * r + r2 * r2)) - 1.0


def _secular_root(k, k2, d0, s, t_max):
    """The root of G on one monotone interval, which starts at t = 0, the
    bound where the term of the coupling k reads 1.

    The root's multiplier for k is k*(1 + t), the other one is k2 + e with
    e = d0 + s*k*t >= 0: s = +1 beyond both poles, where the two grow
    together, and -1 between them, where they add up to |w|.  G = 0 reads
    h(t) = 1 + t - 1/rho = 0, rho = sqrt(x*(2 - x)) and x = e/(k2 + e), and
    1/rho is convex in e, so h is concave: Newton from t = 0, where
    h <= 0, climbs to the first root without passing it (Reinsch's form of
    the secular equation; Gander, Golub & von Matt 1989) and stops where
    the floats stop moving it.  t_max, the least of G between the poles,
    bounds the iterates of a middle root.  Working in ratios to k, not in
    products with it, keeps the bits of a root within a subnormal distance
    of its pole.  Returns (k/multiplier, k2/other multiplier).
    """
    # d0 = 0: both bounds meet at the start, where rho = 0.  The caller then
    # has k >= k2, and with r = t*k/k2 the root has r >= 1/3 (as t <=
    # sqrt(2) - 1) and r*(1 + r)**2 >= k/(2*k2): start at the larger bound
    t = 0.0
    if not d0 > 0.0:
        eps = k2 / k
        t = eps * max(1.0 / 3.0, (2.0 * eps) ** (-1.0 / 3.0) - 1.0)
    for _ in range(100):
        e = d0 + s * k * t
        m2 = k2 + e
        x = e / m2
        rho = math.sqrt(x * (2.0 - x))
        if (1.0 + t) * rho >= 1.0:
            break
        q = k2 / m2
        slope = rho * rho * rho + s * q * q * k / m2  # rho**3 * h'(t)
        if not slope > 0.0:
            break
        step = rho * rho * (1.0 - (1.0 + t) * rho) / slope
        t_next = min(t + step, t_max)
        if not t_next > t:
            break
        t = t_next
    return 1.0 / (1.0 + t), k2 / (k2 + d0 + s * k * t)


def stationary_points(u, v, delta, rabi):
    """Every stationary point of the reduced energy on the circle, each as
    (theta, s_x, s_z, energy, minimum, lowest).

    One point per root of the secular equation (see the module docstring),
    in an order and with s_x values that depend on delta only through
    |delta|, so delta -> -delta flips every s_z and theta and nothing else.
    A root's curvature a*s_z**2 + c*s_x**2 makes it a minimum where it is
    positive; where it is 0 (a cusp of the astroid: a lobe edge or a driven
    pitchfork) the point is a minimum if a, c >= 0.  lowest marks the
    global minimum, where a, c >= 0 (More & Sorensen, SIAM J. Sci. Stat.
    Comput. 4, 553, 1983), or a mirror pair where rabi or delta is 0.
    The work is in ratios and sums of the couplings, so it needs their
    ratios in the float range, as at S ~ 1, where solve_point calls it.
    """
    w = u + v
    big_w, d = abs(w), abs(delta)
    sg = -1.0 if delta < 0.0 else 1.0
    pts = []  # (s_x, s_z, minimum, lowest)
    if rabi == 0.0:
        # the axis points s_z = -+sg/2, at c = +-|delta| and a = c - w
        for c, s_z in ((d, -0.5 * sg), (-d, 0.5 * sg)):
            a = c - w
            pts.append((0.0, s_z, a > 0.0 or (a == 0.0 and c >= 0.0), a >= 0.0 and c >= 0.0))
        if d < big_w:  # the pair at a = 0, c = w
            r = (big_w - d) / big_w
            s_x = 0.5 * math.sqrt(r * (2.0 - r))
            s_z = -0.5 * delta / w
            pts += [(s_x, s_z, w > 0.0, w > 0.0), (-s_x, s_z, w > 0.0, w > 0.0)]
    elif delta == 0.0:
        # the axis points s_x = -+1/2, at a = +-rabi and c = a + w
        for a, s_x in ((rabi, -0.5), (-rabi, 0.5)):
            c = a + w
            pts.append((s_x, 0.0, c > 0.0 or (c == 0.0 and a >= 0.0), a >= 0.0 and c >= 0.0))
        if rabi < big_w:  # the pair at c = 0, a = -w
            r = (big_w - rabi) / big_w
            s_z = 0.5 * math.sqrt(r * (2.0 - r))
            s_x = 0.5 * rabi / w
            pts += [(s_x, s_z, w < 0.0, w < 0.0), (s_x, -s_z, w < 0.0, w < 0.0)]
    else:
        # beyond both poles (a, c > 0, with c - a = w) the global minimum,
        # before both (a, c < 0, with |c| - |a| = -w) the global maximum;
        # each starts at the larger of its bounds |a| >= rabi and
        # |a| >= |delta| -+ w (from |c| >= |delta|)
        for wp, sign, minimum in ((w, -0.5, True), (-w, 0.5, False)):
            lo = d - wp
            if rabi > lo or (rabi == lo and rabi >= d):
                p, q = _secular_root(rabi, d, rabi - lo, 1.0, math.inf)
            else:
                q, p = _secular_root(d, rabi, lo - rabi, 1.0, math.inf)
            pts.append((sign * p, sign * sg * q, minimum, minimum))
        side = _astroid_side(big_w, d, rabi)
        if side >= 0:
            # between the poles a and c have opposite signs, |a| + |c| = |w|
            sx, sz = (0.5, -0.5 * sg) if w > 0.0 else (-0.5, 0.5 * sg)
            if side == 0:  # the double root, at the least of G: an inflection
                pts.append((sx * (rabi / big_w) ** (1.0 / 3.0),
                            sz * (d / big_w) ** (1.0 / 3.0), False, False))
            else:
                p, q = _secular_root(rabi, d, big_w - rabi - d, -1.0, _split(big_w, rabi, d))
                pts.append((sx * p, sz * q, w > 0.0, False))
                q, p = _secular_root(d, rabi, big_w - d - rabi, -1.0, _split(big_w, d, rabi))
                pts.append((sx * p, sz * q, w < 0.0, False))
    out = []
    for s_x, s_z, minimum, lowest in pts:
        # + 0.0 reads a zero coordinate as 0.0, whatever the sign of delta
        s_x, s_z = s_x + 0.0, s_z + 0.0
        out.append((math.atan2(s_z, s_x), s_x, s_z,
                    reduced_energy(u, v, delta, rabi, s_x, s_z), minimum, lowest))
    return out


def _select(cands, minima, scale):
    """The reported point among minima, the local minima of the stationary
    points cands (theta, s_x, s_z, energy, minimum, lowest), and whether a
    point of cands within _TIE_EPS * scale of its energy lies more than
    _DISTINCT_ANGLE from it (degenerate).

    The solver's candidates are the points it marks lowest, and no energy
    is compared.  The oracle marks none, and its candidates are its minima
    within 4 * _DISTINCT_ANGLE**2 * scale of the lowest: bisected to
    _DISTINCT_ANGLE, a point has its energy to _DISTINCT_ANGLE**2 * scale
    (|e''| <= 2 * scale), and 4 covers the rounding of two evaluations.
    The largest s_z wins, then the largest s_x, with no slack on the
    solver's exact mirror pairs and _DISTINCT_ANGLE on the oracle's points.
    """
    best, eps = [c for c in minima if c[5]], 0.0
    if not best:
        eps = _DISTINCT_ANGLE
        top = min([c[3] for c in minima]) + 4.0 * eps * eps * scale
        best = [c for c in minima if c[3] <= top]
    rep = best[0]
    for c in best[1:]:
        if c[2] > rep[2] + eps or (abs(c[2] - rep[2]) <= eps and c[1] > rep[1] + eps):
            rep = c
    tie = rep[3] + _TIE_EPS * scale
    for c in cands:
        if c[3] <= tie:
            d = abs(c[0] - rep[0])  # the cyclic distance is min(d, 2pi - d)
            if d > _DISTINCT_ANGLE and TWO_PI - d > _DISTINCT_ANGLE:
                return rep, True
    return rep, False


def _solve(u, v, delta, rabi, points):
    """The shared path of solve_point and oracle_minimum: the stationary
    points points(u, v, delta, rabi) of the couplings divided by 2**k, the
    power of two at S, where no ratio or sum of them can overflow, then one
    flat rule and one tie-break (_select).  The division is exact, and
    energy and residual are scaled back by 2**k."""
    k = math.frexp(coupling_scale(u, v, delta, rabi))[1]
    u, v = math.ldexp(u, -k), math.ldexp(v, -k)
    delta, rabi = math.ldexp(delta, -k), math.ldexp(rabi, -k)
    scale = coupling_scale(u, v, delta, rabi)
    if scale == 0.0 or max(abs(delta), rabi, abs(u + v)) <= _REL_COEFF_EPS * scale:
        s_x, s_z = -0.5, 0.0
        e = reduced_energy(u, v, delta, rabi, s_x, s_z)
        residual = grad_residual(u, v, delta, rabi, s_x, s_z)
        return s_x, s_z, math.ldexp(e, k), math.ldexp(residual, k), True, True, 0

    cands = points(u, v, delta, rabi)
    minima = [c for c in cands if c[4]]
    rep, degenerate = _select(cands, minima, scale)
    s_x, s_z = rep[1], rep[2]
    residual = grad_residual(u, v, delta, rabi, s_x, s_z)
    return (s_x, s_z, math.ldexp(rep[3], k), math.ldexp(residual, k),
            degenerate, False, len(minima))


def solve_point(u, v, delta, rabi):
    """Global minimum of the reduced energy over the Bloch circle.

    Returns (s_x, s_z, energy, residual, degenerate, flat, n_minima):

    * (s_x, s_z) is the reported point and residual its on-circle gradient
      defect;
    * the point is the global minimum that stationary_points marks (of a
      mirror pair, the one with the largest s_z, then s_x); degenerate is
      True when a second, distinct stationary point ties it within 1e-10 * S;
    * flat is True when delta, rabi and u+v all vanish (relative to the
      coupling scale S) and the energy is constant on the circle -- the
      conventional point (-1/2, 0) is returned;
    * n_minima counts the local minima of the energy on the circle, as
      stationary_points marks them.

    The problem is homogeneous of degree 1 in the couplings, so it is solved
    at unit scale (_solve).
    """
    return _solve(u, v, delta, rabi, stationary_points)


def oracle_minimum(u, v, delta, rabi, n_points):
    """Brute-force minimum of the reduced energy over the Bloch circle, in
    solve_point's tuple and by its scaling, flat rule and tie-break (at
    the resolution of its bisection, see _select).

    Its stationary points are the sign changes of the slope de/dtheta on
    n_points uniform angles, each bisected to _DISTINCT_ANGLE; one from -
    to + is a minimum.  Finding them shares no code with
    stationary_points.  Stationary points that share a grid cell make one
    sign change or none: next to a pitchfork, two minima and the maximum
    between them count as one minimum.
    """
    n = int(n_points)
    h = TWO_PI / n

    def points(u, v, delta, rabi):
        w2 = 2.0 * (u + v)

        def rising(t):  # de/dtheta > 0
            s_x, s_z = 0.5 * math.cos(t), 0.5 * math.sin(t)
            return w2 * s_x * s_z + delta * s_x - rabi * s_z > 0.0

        signs = [rising(-math.pi + h * i) for i in range(n)]
        out = []
        for i in range(n):
            if signs[i - 1] != signs[i]:
                lo, hi = -math.pi + h * (i - 1), -math.pi + h * i
                while hi - lo > _DISTINCT_ANGLE:
                    mid = 0.5 * (lo + hi)
                    if rising(mid) == signs[i]:
                        hi = mid
                    else:
                        lo = mid
                t = 0.5 * (lo + hi)
                s_x, s_z = 0.5 * math.cos(t), 0.5 * math.sin(t)
                out.append((t, s_x, s_z, reduced_energy(u, v, delta, rabi, s_x, s_z),
                            signs[i], False))
        return out

    return _solve(u, v, delta, rabi, points)


@record
class BlochPoint:
    """Point on the collective-spin circle, s_x**2 + s_z**2 = 1/4."""

    s_x: float
    s_z: float


@record
class MeanFieldSolution:
    """Ground-state data in the thermodynamic limit (energies per atom).

    point is the global minimum (of a mirror pair, the one with the larger
    s_z, then s_x) and residual its on-circle gradient defect |de/dtheta|.
    degenerate marks a second stationary point, not necessarily a minimum,
    more than 1e-8 rad away and within 1e-10 * S (S the largest coupling)
    of its energy.  flat_manifold marks a constant energy on the circle.
    """

    point: BlochPoint
    alpha: float
    energy_per_atom: float
    m_over_n: float
    photon_density: float
    residual: float
    degenerate: bool
    flat_manifold: bool = False
    n_local_minima: int = 0


def energy_landscape(params: ModelParams, alpha: float, h: float) -> float:
    """Variational energy per atom at scaled displacement alpha and atomic
    variable h, where s_x = h**2 - 1/2 and s_z = h*sqrt(1 - h**2)."""
    if not -1.0 <= h <= 1.0:
        raise ParameterError("atomic variable h outside [-1, 1]")
    s_x = h * h - 0.5
    s_z = h * math.sqrt(1.0 - h * h)
    return (
        params.omega * alpha * alpha
        - 2.0 * params.lam * alpha * s_x
        + params.delta * s_z
        + params.omega_rabi * s_x
        + params.v * s_z * s_z
    )


def point_observables(lam, omega, s_x, s_z) -> tuple[float, float, float]:
    """alpha, m/N and the photon density alpha**2 at the spin point."""
    alpha = lam * s_x / omega
    return alpha, 2.0 * s_z, alpha * alpha


class PhaseLabel(str, Enum):
    NORMAL = "Normal"
    SUPERRADIANT = "Superradiant"
    MOTT = "Mott"
    SUPERFLUID = "Superfluid"
    DEGENERATE = "Degenerate"


def phase_label(flat_manifold: bool, m_over_n: float, n_local_minima: int,
                s_x: float, u: float, v: float) -> PhaseLabel:
    """Phase label from a ground state's observables and the couplings, as
    floats (a sweep labels its nodes with it, without a ModelParams).

    Rules, in order: Degenerate on a flat manifold; Mott when m vanishes at
    a single minimum on the attractive side of the red line (v < -u);
    Superfluid when v < -u with a double well; Superradiant when partially
    polarized with macroscopic photons at v >= -u (the photon density is
    (lam s_x / omega)**2, so that is s_x off 0 with u > 0); Normal
    otherwise.  Thresholds guard round-off only -- mean-field observables
    are exact to solver precision.
    """
    if flat_manifold:
        return PhaseLabel.DEGENERATE
    m = abs(m_over_n)
    if m <= _CLASSIFY_TOL and n_local_minima == 1 and v < -u:
        return PhaseLabel.MOTT
    if v < -u and n_local_minima == 2:
        return PhaseLabel.SUPERFLUID
    if (m < 1.0 - _CLASSIFY_TOL and u > 0.0 and abs(s_x) > _CLASSIFY_TOL
            and v >= -u):
        return PhaseLabel.SUPERRADIANT
    return PhaseLabel.NORMAL


def _solution(params: ModelParams, s_x, s_z, e, residual,
              degenerate, flat, n_minima) -> MeanFieldSolution:
    alpha, m, photons = point_observables(params.lam, params.omega, s_x, s_z)
    return MeanFieldSolution(
        point=BlochPoint(s_x, s_z),
        alpha=alpha,
        energy_per_atom=e,
        m_over_n=m,
        photon_density=photons,
        residual=residual,
        degenerate=bool(degenerate),
        flat_manifold=bool(flat),
        n_local_minima=int(n_minima),
    )


def ground_state(params: ModelParams) -> MeanFieldSolution:
    """Global minimum of the reduced energy via the secular equation.

    On a flat manifold (delta = omega_rabi = u + v = 0 relative to the
    coupling scale) the conventional point (-1/2, 0) is returned with
    flat_manifold set.
    """
    out = solve_point(params.u, params.v, params.delta, params.omega_rabi)
    return _solution(params, *out)


def oracle_grid_minimum(params: ModelParams, n_points: int = 4096) -> MeanFieldSolution:
    """The twin of ground_state whose stationary points are the sign
    changes of de/dtheta on n_points circle angles (1000 to
    model.MAX_NODES), each bisected to 1e-8 rad (its residual reflects that
    width); the scaling, the flat rule and the tie-break are ground_state's.
    """
    n_points = _integer(n_points, "n_points")
    if n_points < 1000:
        raise ParameterError("oracle grid needs at least 1000 points")
    if n_points > MAX_NODES:
        raise ParameterError(f"n_points must be at most MAX_NODES = {MAX_NODES}")
    out = oracle_minimum(params.u, params.v, params.delta, params.omega_rabi, n_points)
    return _solution(params, *out)
