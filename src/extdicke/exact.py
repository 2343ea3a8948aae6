"""Finite-N ground states in a truncated Fock (photon) x Dicke (spin) basis.

States are indexed photon-major: |n, m> -> n*(N+1) + (m + j) with photon
number n <= n_max and magnetic quantum number m = -j..j for j = N/2.  The
parity exp(i*pi*(a^dag a + J_z + j)) is diagonal in this basis with
eigenvalue (-1)**(n + m + j).  It maps a -> -a and J_x -> -J_x, so the
Hamiltonian commutes with it only without a drive (omega_rabi = 0): the drive
term omega_rabi*J_x anticommutes with it and mixes the two sectors.

H is stored by its diagonals (BandedMatrix): it couples |n, m> only to
|n +- 1, m +- 1> and, with a drive, to |n, m +- 1>.

Each symmetry sector is an isometry Q (orthonormal columns on the full
basis, each state in at most one column), and the eigensolve keeps the two
lowest levels of each block Q.T @ H @ Q, itself stored by diagonals.  At
omega_rabi = 0 the sectors are the two parity sectors (0/1 selection
columns); with a drive the whole basis is the only sector.  The spin flip
F: m -> -m keeps J_x, a and J_z**2 and maps J_z -> -J_z, so H(-delta) =
F H(delta) F: delta < 0 is solved at -delta, and then J_z -> -J_z and
parity -> (-1)**N * parity (F maps m + j to N - (m + j)).  At delta = 0 F
is a second symmetry, and each sector splits into its flip-even and
flip-odd halves (see _sectors).  The two states of a flip doublet, split by
far less than the solver resolves, then lie in different sectors; inside
one sector a Lanczos run from one start vector would find only one
combination of them.  E0 and E1 are the two lowest of all the kept levels,
so `gap` is E1 - E0 of H.  The reported `parity` is the ground state's
expectation value of the parity operator: +-1 to rounding at
omega_rabi = 0.  When sector ground energies agree within
_LANCZOS_TOL * ||H||_inf (a tunnelling doublet below the solver's
resolution, or an exact tie), the tie rule reports, at delta >= 0, the
first of those sectors: the even one (the flip-even one, whose <J_z> is 0,
where the flip splits the sectors); at delta < 0, its mirror image.  Every
sector, of any dimension, is solved by one thick-restart Lanczos in numpy
with full reorthogonalisation (_lowest_levels); along a converge_cutoff
ladder each run starts from Q.T applied to the previous cutoff's
psi0 + psi1 of every sector, zero-padded: in the photon-major order the
new states come last.  Every cutoff is solved at unit scale, as
_kernels_py.solve_point solves the mean field: H / 2**k is built from the
couplings divided by 2**k, the power of two at ModelParams.hamiltonian_scale,
so that no entry, norm or square overflows; the division is exact, and E0
and E1 are multiplied back by 2**k.

The mean-field energy per atom is a variational bound for E0/N as N grows;
at finite N the bound that is rigorous for every v is the product-state
expectation, which exceeds the thermodynamic-limit value by
v*(1/4 - s_z**2)/N (see product_state_energy).

numpy is imported inside the functions that use it, so that importing the
package (and every mean-field command) does not load it.  The finite-N path
needs numpy alone: the diagonals, the sector blocks and the matrix-vector
products are numpy arrays and array operations.  It never loads
numpy.random (which loads hashlib and OpenSSL): the generic vectors of the
Lanczos runs are integer hashes of their index (_generic_vector).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .meanfield import MeanFieldSolution, ground_state
from .model import (AXES, DIMENSION_BUDGET, LADDER_EPS, N_MAX_START, ConvergenceError,
                    ModelParams, ParameterError, _integer, basis_dimension, check_ladder, record)

if TYPE_CHECKING:
    import numpy as np

# thick-restart Lanczos: basis size, Ritz vectors kept at a restart, and the
# number of restarts before ConvergenceError
_KRYLOV_DIM = 30
_KEPT_RITZ = 10
_MAX_RESTARTS = 1000
# Resolution relative to ||H||_inf of a Ritz residual (converged), a new
# Lanczos vector's norm (breakdown) and sector ground energies (a tie).
_LANCZOS_TOL = 1e-13
# Weight of the generic vector in a cold Lanczos start, beside the flat one.
_START_WEIGHT = 1e-3
# Largest eigenpair residual ||H x - E x|| accepted, relative to ||H||_inf.
_RESIDUAL_TOL = 1e-9
# Largest photon number a cutoff holds, per photon of cutoff: converge_cutoff's
# one rule for whether a ladder can converge and when it has.
_HEADROOM = 0.8


class BandedMatrix:
    """A real symmetric matrix stored by its diagonals.

    `offsets` ascend, and `diagonals[i]` holds the entries at offset
    offsets[i]: entry t of the diagonal at offset k is H[t, t + k] for
    k >= 0 and H[t - k, t] for k < 0, so the diagonals at k and -k are one
    array and the matrix is exactly symmetric.  `nnz` counts the nonzero
    entries.  H @ x adds the diagonals in ascending offset order, so each
    row is summed in column order, as a CSR matrix-vector product sums it
    (a stored zero adds nothing to a finite sum).
    """

    def __init__(self, dim: int, upper: dict[int, np.ndarray]):
        """`upper` maps each offset k >= 0 to its diagonal (dim - k long)."""
        ks = sorted(upper)
        self.offsets = [-k for k in reversed(ks) if k] + ks
        self.diagonals = [upper[abs(k)] for k in self.offsets]
        self.shape = (dim, dim)

    @property
    def nnz(self) -> int:
        import numpy as np

        return sum(int(np.count_nonzero(d)) for d in self.diagonals)

    def __abs__(self) -> BandedMatrix:
        import numpy as np

        return BandedMatrix(self.shape[0], {k: np.abs(d) for k, d in
                                            zip(self.offsets, self.diagonals)
                                            if k >= 0})

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        dim = self.shape[0]
        y = np.zeros(dim)
        for k, d in zip(self.offsets, self.diagonals):
            if k >= 0:
                y[:dim - k] += d * x[k:]
            else:
                y[-k:] += d * x[:dim + k]
        return y


def _cutoff(params: ModelParams, n_max, budget: int) -> int:
    """n_max as an int: a nonnegative integer photon cutoff whose basis
    fits the budget."""
    nm = _integer(n_max, "photon cutoff")
    if nm < 0:
        raise ParameterError("negative photon cutoff")
    if (dim := basis_dimension(nm, params.n_atoms)) > budget:
        raise ParameterError(f"basis dimension {dim} exceeds the memory budget {budget}")
    return nm


def build_hamiltonian(params: ModelParams, n_max: int,
                      budget: int = DIMENSION_BUDGET) -> BandedMatrix:
    """The Hamiltonian on the basis truncated at n_max photons, by
    diagonals: the diagonal, +-N and +-(N+2) for the coupling, and +-1 for
    the drive.  Refuses dimensions above budget.
    """
    return _hamiltonian(params, _cutoff(params, n_max, budget), 0)


def _hamiltonian(params: ModelParams, nm: int, k: int) -> BandedMatrix:
    """H / 2**k at the cutoff nm, built from the couplings divided by 2**k
    (no ModelParams: omega / 2**k can be subnormal)."""
    import numpy as np

    omega, lam, delta, rabi, v = (math.ldexp(getattr(params, a), -k) for a in AXES)
    na = params.n_atoms
    dim = basis_dimension(nm, na)
    j = 0.5 * na
    m = np.arange(na + 1) - j  # m values, ascending
    n = np.arange(nm + 1)

    upper = {0: (omega * n[:, None] + delta * m[None, :]
                 + (v / na) * m[None, :] ** 2).ravel()}

    # <m+1|J+|m> ladder amplitudes.
    ladder = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))

    def band(cols: slice, amp: np.ndarray, k: int) -> None:
        """Adds amp, laid out photon block by photon block at spin
        columns `cols`, to the diagonal at offset k."""
        d = np.zeros((nm + 1, na + 1))
        d[:amp.shape[0], cols] = amp
        d = d.ravel()[:dim - k]
        # for N = 1 the drive and J- a^dag share offset 1
        upper[k] = upper[k] + d if k in upper else d

    # (omega_rabi/2) * (J+ + J-): |n, m> -> |n, m+1> in each photon block.
    if rabi != 0.0:
        band(slice(None, na), np.tile(0.5 * rabi * ladder, (nm + 1, 1)), 1)

    # (lambda/(2*sqrt(N))) * (J+ + J-)(a^dag + a): photon +-1, spin +-1.
    if lam != 0.0 and nm >= 1:
        g = 0.5 * lam / np.sqrt(na)
        photon = np.sqrt(n[1:])  # sqrt(n+1) for n = 0..nm-1
        amp = g * photon[:, None] * ladder[None, :]
        # J+ a^dag: |n, m> -> |n+1, m+1>; J- a^dag: |n, m+1> -> |n+1, m>
        band(slice(None, na), amp, na + 2)
        band(slice(1, None), amp, na)
    return BandedMatrix(dim, upper)


def _sectors(params: ModelParams, n_max: int
             ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The symmetry sectors the eigensolve treats separately, each as the
    isometry Q (dimension x k, orthonormal columns) whose block of H is
    Q.T @ H @ Q.  A sector is two arrays over the full basis: the column of
    each state (-1 outside the sector) and its coefficient, so that
    Q[s, col[s]] = coef[s]; each state lies in at most one column.

    At omega_rabi = 0 the sectors are the even and the odd sector of
    (-1)**(n + m + j), in that order, as 0/1 selection columns; with a
    drive, the whole basis (Q the identity).  At delta = 0 each of these
    splits once more, into its even and its odd half (in that order) under
    the spin flip m -> -m, whose columns are (|n, m> +- |n, -m>)/sqrt(2)
    and |n, 0>.  For odd N without a drive the flip does not split a
    parity sector: it anticommutes with the parity and maps each sector
    onto the other, so every level is doubly degenerate across the two.
    Columns are photon-major, and within a photon block ordered by m
    (a flip column by its m >= 0 state), so each block is banded.  Empty
    halves are left out.
    """
    import numpy as np

    na = params.n_atoms
    dim = basis_dimension(n_max, na)
    states = np.arange(dim)
    k = states % (na + 1)  # k = m + j
    if params.omega_rabi != 0.0:
        blocks = [states]
    else:
        odd = (states // (na + 1) + k) % 2 == 1
        blocks = [states[~odd], states[odd]]
    flip = params.delta == 0.0 and (params.omega_rabi != 0.0 or na % 2 == 0)
    r = math.sqrt(0.5)
    sectors = []
    for idx in blocks:
        # (states with one column each, sign of the flip partner's coefficient)
        halves = ([(idx[2 * k[idx] >= na], 1.0), (idx[2 * k[idx] > na], -1.0)]
                  if flip else [(idx, 1.0)])
        for rep, sign in halves:
            if not rep.size:
                continue
            partner = rep + na - 2 * k[rep] if flip else rep  # -m for +m
            col = np.full(dim, -1)
            col[partner] = col[rep] = np.arange(rep.size)
            coef = np.zeros(dim)
            coef[partner] = sign * r
            # a state that is its own partner (|n, 0>, or every state of a
            # selection column) has coefficient 1
            coef[rep] = np.where(partner == rep, 1.0, r)
            sectors.append((col, coef))
    return sectors


def _sector_block(h: BandedMatrix, col: np.ndarray,
                  coef: np.ndarray) -> BandedMatrix:
    """Q.T @ h @ Q for the sector (col, coef) of _sectors, by diagonals.

    Each entry H[s, t] adds coef[s] * coef[t] * H[s, t] to the block entry
    (col[s], col[t]).  Only h's upper diagonals are read: H[s, t] and its
    transpose H[t, s] give a block entry and its mirror, so one of the two
    is added to the block's upper triangle (both, to its diagonal, when s
    and t are flip partners in one column).  That triangle is summed by
    bincount, in the order of h's diagonals, and mirrored, so the block is
    exactly symmetric.  For 0/1 selection columns each block entry is one
    entry of h.
    """
    import numpy as np

    dim = h.shape[0]
    states = np.flatnonzero(col >= 0)
    at, cs = col[states], coef[states]
    size = int(at.max()) + 1
    parts: dict[int, list] = {}  # block offset -> [(block rows, values)]
    for k, d in zip(h.offsets, h.diagonals):
        if k < 0:
            continue  # the transpose of the diagonal at -k
        # the sector's states s with s + k in the basis; H[s, s + k] = d[s]
        s = states[:np.searchsorted(states, dim - k)]
        t = s + k
        a, b = at[:s.size], col[t]
        vals = d[s] * (cs[:s.size] * coef[t])
        keep = vals != 0.0  # t in the sector, and no stored zero
        if not keep.any():
            continue
        rows = np.minimum(a, b)[keep]
        off = np.abs(b - a)[keep]
        vals = vals[keep]
        if k:
            vals[off == 0] *= 2.0  # partners in one column
        for o in range(int(off.min()), int(off.max()) + 1):
            sel = off == o
            if sel.any():
                parts.setdefault(o, []).append((rows[sel], vals[sel]))
    return BandedMatrix(size, {
        o: np.bincount(np.concatenate([r for r, _ in ps]),
                       np.concatenate([v for _, v in ps]), size - o)
        for o, ps in parts.items()})


# splitmix64 (Steele, Lea & Flood, OOPSLA 2014): the state's increment and
# the modulus of its arithmetic on Python ints
_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(z):
    """splitmix64's output function of a Python int or a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _generic_vector(dim: int, draw: int) -> np.ndarray:
    """Draw number `draw` of a generic vector of length dim, entries in
    [-1/2, 1/2): entry i is the top 53 bits of the splitmix64 stream keyed
    by (dim, draw) at step i, so the vector is a fixed function of its
    arguments and needs no random number generator.  The entries are
    independent hash outputs, so no symmetry or linear relation of the
    basis holds for a draw."""
    import numpy as np

    key = _splitmix64((dim << 32 | draw) * _GOLDEN64 & _MASK64)
    z = _splitmix64(np.arange(1, dim + 1, dtype=np.uint64)
                    * np.uint64(_GOLDEN64) + np.uint64(key))
    return (z >> 11).astype(float) * 2.0 ** -53 - 0.5


def _orthogonalise(w: np.ndarray, near: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Classical Gram-Schmidt on w, in place: one pass over the rows of `near`
    (the last rows of basis), then one over basis; returns the summed
    coefficients along basis's rows."""
    c = near @ w
    w -= c @ near
    total = basis @ w
    w -= total @ basis
    total[len(basis) - len(near):] += c
    return total


def _lowest_levels(h: BandedMatrix, hnorm: float,
                   start: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest eigenpairs of one sector, ascending (one for a
    one-state sector), by thick-restart Lanczos (Wu & Simon, SIAM J. Matrix
    Anal. Appl. 22, 602 (2000)).

    The Krylov basis holds _KRYLOV_DIM vectors; every orthogonalisation is
    one call of _orthogonalise.  A step takes w = H v_j against v_(j-1) and
    v_j (the three-term Lanczos step), then against the whole basis: full
    reorthogonalisation (Parlett, The Symmetric Eigenvalue Problem (1998),
    ch. 13).  A cycle's first step (after a restart the carried-over residual
    couples to every kept Ritz vector), the step from a breakdown's generic
    vector and that vector itself take both passes over the whole basis.
    Step j writes row j of the projected matrix, whose lower triangle (all
    that eigh reads, UPLO='L') is that of V^T H V.  A restart keeps the
    _KEPT_RITZ lowest Ritz vectors.  The run stops when the residuals
    |beta * s_mi| of both lowest Ritz pairs are at most _LANCZOS_TOL * hnorm,
    or when the basis fills the sector (the Ritz values are then its exact
    spectrum).  Without `start` it begins from the flat vector plus
    _START_WEIGHT of a generic one, so that no symmetry left in the sector
    can keep a level out of the Krylov space (the flat vector alone is even
    under the spin flip, for one).  On a breakdown (beta <= _LANCZOS_TOL *
    hnorm before the sector is exhausted) it continues from a generic vector
    orthogonal to the basis, so an exactly degenerate level can appear
    twice.  The generic vectors are _generic_vector's draws at the sector's
    dimension: draw 0 for the start, draws 1, 2, ... for the breakdowns, so
    the result is deterministic.
    """
    import numpy as np

    dim = h.shape[0]
    nev = min(2, dim)
    size = min(_KRYLOV_DIM, dim)
    draws = 0  # draw 0 is the cold start's; breakdowns take 1, 2, ...
    if start is None:
        start = np.full(dim, 1.0 / math.sqrt(dim)) + _START_WEIGHT * _generic_vector(dim, 0)
    basis = np.empty((size + 1, dim))  # rows are the Krylov vectors
    proj = np.zeros((size, size))  # the lower triangle of V^T H V
    np.divide(start, math.sqrt(start @ start), out=basis[0])
    j = 0
    for _ in range(_MAX_RESTARTS + 1):
        lo = 0  # the cycle's first step couples to every earlier vector
        while j < size:
            w = h @ basis[j]
            proj[j, :j + 1] = _orthogonalise(w, basis[lo:j + 1], basis[:j + 1])
            beta = math.sqrt(w @ w)
            j += 1
            if j == dim:
                break  # the basis spans the sector
            norm, lo = beta, j - 1  # the three-term step
            if beta <= _LANCZOS_TOL * hnorm:
                draws += 1
                w = _generic_vector(dim, draws)
                _orthogonalise(w, basis[:j], basis[:j])
                norm, lo = math.sqrt(w @ w), 0  # it couples to every earlier vector
            np.divide(w, norm, out=basis[j])
        theta, s = np.linalg.eigh(proj[:j, :j])
        if j == dim or np.all(np.abs(beta * s[-1, :nev]) <= _LANCZOS_TOL * hnorm):
            return theta[:nev], basis[:j].T @ s[:, :nev]
        j = keep = _KEPT_RITZ
        basis[:keep] = s[:, :keep].T @ basis[:size]
        basis[keep] = basis[size]
        proj[:keep, :keep] = np.diag(theta[:keep])
    raise ConvergenceError(
        f"Lanczos did not converge at dimension {dim} within "
        f"{_MAX_RESTARTS} restarts"
    )


def _solve_sectors(h: BandedMatrix,
                   sectors: list[tuple[np.ndarray, np.ndarray]],
                   start: np.ndarray | None = None, k: int = 0
                   ) -> tuple[float, float, np.ndarray, np.ndarray]:
    """E0, E1, the ground vector and the next cutoff's start vector of
    H = 2**k * h, solved sector by sector; `sectors` holds the (col, coef)
    pairs that _sectors gives.  A sector that is the whole basis uses h
    itself as its block; every other block comes from _sector_block.
    Q.T @ x is a bincount over col, and Q @ s a gather.

    E0 and E1 are the two lowest of all the sector levels, scaled back by
    2**k.  The ground vector is the lowest sector's, Q @ s in the full
    basis; when sector ground energies agree within _LANCZOS_TOL *
    ||h||_inf it is the first of those sectors', so a tunnelling doublet
    gets a definite, reproducible parity.  ||h||_inf is the largest row sum
    of |h|.  The eigenvalue residual ||h x - E x|| is checked against
    _RESIDUAL_TOL * ||h||_inf, and reported in the units of H.  `start`
    (full basis, possibly shorter than h: it is zero-padded) seeds each
    sector's Lanczos run from Q.T @ start; the returned start holds
    psi0 + psi1 of every sector.
    """
    import numpy as np

    dim = h.shape[0]
    hnorm = float((abs(h) @ np.ones(dim)).max())
    if start is not None:
        start = np.concatenate([start, np.zeros(dim - start.size)])
    levels = []
    grounds = []  # (sector ground energy, vector)
    nxt = np.zeros(dim)
    for col, coef in sectors:
        inside = col >= 0
        at = col[inside]
        size = int(at.max()) + 1
        sub = h if size == dim else _sector_block(h, col, coef)
        w, s = _lowest_levels(
            sub, hnorm, None if start is None else
            np.bincount(at, coef[inside] * start[inside], size))
        vecs = np.zeros((dim, s.shape[1]))
        # added to zeros, as a product sums: a -0.0 of s lands as 0.0
        vecs[inside] += coef[inside, None] * s[at]
        levels.extend(float(x) for x in w)
        grounds.append((float(w[0]), vecs[:, 0]))
        nxt += vecs.sum(axis=1)
    levels.sort()
    e0 = levels[0]
    e1 = levels[1] if len(levels) > 1 else e0
    eg, vec = next(g for g in grounds if g[0] - e0 <= _LANCZOS_TOL * hnorm)
    defect = float(np.linalg.norm(h @ vec - eg * vec))
    if defect > _RESIDUAL_TOL * hnorm:
        raise ConvergenceError(
            f"eigenpair residual {math.ldexp(defect, k):.3e} exceeds "
            f"{_RESIDUAL_TOL:g} * ||H|| = {math.ldexp(_RESIDUAL_TOL * hnorm, k):.3e}")
    return math.ldexp(e0, k), math.ldexp(e1, k), vec, nxt


@record
class ExactSolution:
    """Ground-state observables at a photon cutoff.

    energy is E0 of the truncated H and gap = E1 - E0 >= 0, over all the
    symmetry sectors (parity at omega_rabi = 0, spin flip at delta = 0).
    parity is the ground vector's expectation of (-1)**(n + m + j): +-1 to
    rounding at omega_rabi = 0; on a tie between sectors, the even sector's at
    delta >= 0 and its mirror image at delta < 0 (see the module docstring).
    """

    energy: float
    energy_per_atom: float
    photon_number: float
    jz: float
    jx: float
    parity: float
    gap: float
    n_max_used: int
    n_atoms: int
    converged: bool

    @property
    def m_over_n(self) -> float:
        return 2.0 * self.jz / self.n_atoms

    @property
    def photon_density(self) -> float:
        return self.photon_number / self.n_atoms


def _observables(params: ModelParams, vec: np.ndarray) -> tuple[float, float, float, float]:
    import numpy as np

    na = params.n_atoms
    j = 0.5 * na
    psi = vec.reshape(-1, na + 1)
    prob = psi * psi
    m = np.arange(na + 1) - j
    n = np.arange(psi.shape[0])
    photon = float((prob.sum(axis=1) * n).sum())
    jz = float((prob.sum(axis=0) * m).sum())
    ladder = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    jx = float((psi[:, 1:] * psi[:, :-1] * ladder[None, :]).sum())
    signs = (-1.0) ** (n[:, None] + np.arange(na + 1)[None, :])
    parity = float((prob * signs).sum())
    return photon, jz, jx, parity


def _solve(params: ModelParams, nm: int,
           start: np.ndarray | None) -> tuple[ExactSolution, np.ndarray]:
    """solve_at_cutoff's observables, at unit scale, at a checked cutoff nm
    from the Lanczos start `start` (None for a cold one), and the next start;
    at delta < 0 the starts are those of -delta (see the module docstring)."""
    mirror = params.delta < 0.0
    params = params.replace(delta=-params.delta) if mirror else params
    k = math.frexp(params.hamiltonian_scale)[1]
    e0, e1, vec, nxt = _solve_sectors(_hamiltonian(params, nm, k), _sectors(params, nm),
                                      start, k)
    photon, jz, jx, parity = _observables(params, vec)
    if mirror:
        jz, parity = 0.0 - jz, (-1) ** params.n_atoms * parity
    return ExactSolution(
        energy=e0,
        energy_per_atom=e0 / params.n_atoms,
        photon_number=photon,
        jz=jz,
        jx=jx,
        parity=parity,
        gap=e1 - e0,
        n_max_used=nm,
        n_atoms=params.n_atoms,
        converged=False,
    ), nxt


def solve_at_cutoff(params: ModelParams, n_max: int,
                    budget: int = DIMENSION_BUDGET) -> ExactSolution:
    """Ground-state observables at a fixed photon cutoff, from a cold
    Lanczos start."""
    return _solve(params, _cutoff(params, n_max, budget), None)[0]


def converge_cutoff(params: ModelParams, eps: float = LADDER_EPS,
                    budget: int = DIMENSION_BUDGET) -> ExactSolution:
    """Double the photon cutoff from N_MAX_START until E0 moves by at most
    eps * max(|E0|, params.hamiltonian_scale) and the photon number
    p = max(<a^dag a>, N * alpha**2) fits the cutoff: p < _HEADROOM * n_max.

    The mean-field N * alpha**2 is the large-N limit of <a^dag a> (Emary &
    Brandes, PRE 67, 066203 (2003)); it counts the photons that a small
    cutoff truncates, and where it does not fit the largest cutoff the
    doubling reaches within the budget, the ladder cannot converge: a
    ConvergenceError before any cutoff is solved.  So is a photon energy
    omega at or below _LANCZOS_TOL * N * hamiltonian_scale, the solver's
    resolution of E0: there every photon number is degenerate to that
    resolution, and <a^dag a> is whatever the Lanczos start leaves.  A bad
    eps, or a first cutoff above the budget, is a ParameterError from
    check_ladder.  Returns the observables at the final cutoff; converged
    is False when the budget stops the doubling first.
    """
    eps = check_ladder(eps, (params.n_atoms,), budget)[0]
    n_top = N_MAX_START
    while basis_dimension(2 * n_top, params.n_atoms) <= budget:
        n_top *= 2
    photons = params.n_atoms * ground_state(params).photon_density
    if not photons < _HEADROOM * n_top:
        raise ConvergenceError(
            f"mean-field photon number {photons:.6g} needs a photon cutoff above "
            f"{photons / _HEADROOM:.6g}, and the budget {budget} allows at most n_max {n_top}")
    resolution = _LANCZOS_TOL * params.n_atoms * params.hamiltonian_scale
    if not params.omega > resolution:
        raise ConvergenceError(
            f"photon energy omega = {params.omega:.6g} does not exceed the solver's resolution "
            f"{resolution:.6g} of E0 at N = {params.n_atoms}: the photon field is unresolved")
    # check_ladder checked the first cutoff and n_top bounds the rest to the budget
    sol, start = _solve(params, N_MAX_START, None)
    while sol.n_max_used < n_top:
        nxt, start = _solve(params, 2 * sol.n_max_used, start)
        tol = eps * max(abs(nxt.energy), params.hamiltonian_scale)
        if (abs(nxt.energy - sol.energy) <= tol
                and max(nxt.photon_number, photons) < _HEADROOM * nxt.n_max_used):
            return ExactSolution(**{**vars(nxt), "converged": True})
        sol = nxt
    return sol  # converged stays False: the budget stops the doubling first


def product_state_energy(params: ModelParams, mf: MeanFieldSolution) -> float:
    """Finite-N product-state energy per atom at the mean-field point: the
    thermodynamic value plus v*(1/4 - s_z**2)/N.  A rigorous variational
    upper bound on E0/N for every v and N."""
    s_z = mf.point.s_z
    return mf.energy_per_atom + params.v * (0.25 - s_z * s_z) / params.n_atoms
