"""Reference local minima of the reduced energy, solved in mpmath at 60
digits with the float couplings taken as exact.  Tests that name the well a
solver must report compare against these points, not against energies
evaluated at float coordinates, which carry the rounding of those
coordinates (up to 6e-17 * S)."""

from __future__ import annotations

import mpmath


def minima(u, v, delta, rabi, dps=60):
    """The local minima of e = -u*s_x**2 + v*s_z**2 + delta*s_z + rabi*s_x
    on the circle s_x**2 + s_z**2 = 1/4, lowest first, as (energy, s_x,
    s_z) in mpf.  The stationary points are the real roots of
    delta*eta**4 + 2(w - rabi)*eta**3 - 2(w + rabi)*eta - delta, w = u + v,
    with s_x = (eta**2 - 1)/(2(eta**2 + 1)), s_z = eta/(1 + eta**2), and the
    point (1/2, 0) at eta = inf where the leading coefficient vanishes."""
    with mpmath.workdps(dps):
        u, v, d, r = (mpmath.mpf(x) for x in (u, v, delta, rabi))
        w = u + v
        coeffs = [d, 2 * (w - r), 0, -2 * (w + r), -d]
        points = [] if d else [(mpmath.mpf(0.5), mpmath.mpf(0))]
        while coeffs and not coeffs[0]:
            coeffs.pop(0)
        if len(coeffs) > 1:
            for eta in mpmath.polyroots(coeffs, maxsteps=500, extraprec=4 * dps):
                if abs(mpmath.im(eta)) <= mpmath.mpf(10) ** (-dps // 2) * (1 + abs(eta)):
                    eta = mpmath.re(eta)
                    points.append(((eta * eta - 1) / (2 * (eta * eta + 1)), eta / (1 + eta * eta)))
        out = []
        for s_x, s_z in points:
            curvature = 2 * w * (s_x * s_x - s_z * s_z) - d * s_z - r * s_x
            if curvature > 0:
                out.append((-u * s_x * s_x + v * s_z * s_z + d * s_z + r * s_x, s_x, s_z))
        return sorted(out)
