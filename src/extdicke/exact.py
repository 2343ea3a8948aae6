"""Finite-N ground states in a truncated Fock (photon) x Dicke (spin) basis.

States are indexed photon-major: |n, m> -> n*(N+1) + (m + j) with photon
number n <= n_max and magnetic quantum number m = -j..j for j = N/2.  The
parity exp(i*pi*(a^dag a + J_z + j)) is diagonal in this basis with
eigenvalue (-1)**(n + m + j).  It maps a -> -a and J_x -> -J_x, so the
Hamiltonian commutes with it only without a drive (omega_rabi = 0): the drive
term omega_rabi*J_x anticommutes with it and mixes the two sectors.

At omega_rabi = 0 the eigensolve therefore runs on each parity sector's
principal submatrix and keeps its two lowest levels; with a drive the whole
basis is the only sector.  At delta = 0 the spin flip m -> -m is a second
symmetry (it keeps J_x, a and J_z**2 and maps J_z -> -J_z), and each sector
splits into its flip-even and flip-odd halves (see _sectors).  The two
states of a flip doublet, split by far less than the solver resolves, then
lie in different sectors; inside one sector a Lanczos run from one start
vector would find only one combination of them.  E0 and E1 are the two
lowest of all the kept levels, so `gap` is E1 - E0 of H.  The reported
`parity` is the ground state's expectation value of the parity operator: a
definite +-1 at omega_rabi = 0.  When sector ground energies agree within
1e-13 * ||H||_inf (a tunnelling doublet below the solver's resolution, or an
exact tie) the first of those sectors is reported: the even one, and where
the flip splits the sectors the flip-even one, whose <J_z> is 0.  Every
sector, of any dimension, is solved by one thick-restart Lanczos in numpy
(_lowest_levels: each step is the three-term recurrence followed by one
Gram-Schmidt pass over the whole Krylov basis); along a converge_cutoff
ladder each run starts from the previous cutoff's psi0 + psi1 per sector,
zero-padded: in the photon-major order the new states come last.

The mean-field energy per atom is a variational bound for E0/N as N grows;
at finite N the bound that is rigorous for every v is the product-state
expectation, which exceeds the thermodynamic-limit value by
v*(1/4 - s_z**2)/N (see product_state_energy).

numpy and scipy are imported inside the functions that use them, so that
importing the package (and every mean-field command) does not load them.
scipy serves only as sparse storage (scipy.sparse): the CSR build, the
sector slicing and folding, and the matrix-vector product; no scipy
eigensolver, dense or iterative, is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .meanfield import MeanFieldSolution
from .model import ModelParams, ParameterError

if TYPE_CHECKING:
    import numpy as np
    import scipy.sparse as sp

DIMENSION_BUDGET = 400_000

# thick-restart Lanczos: basis size, Ritz vectors kept at a restart, and the
# number of restarts before ConvergenceError
_KRYLOV_DIM = 30
_KEPT_RITZ = 10
_MAX_RESTARTS = 1000


class ConvergenceError(RuntimeError):
    """The iterative eigensolver failed to converge."""


@dataclass(frozen=True)
class FockSpinBasis:
    """Truncated photon x collective-spin product basis."""

    n_max: int
    n_atoms: int

    def __post_init__(self):
        if self.n_max < 0:
            raise ParameterError("negative photon cutoff")
        if self.n_atoms < 1:
            raise ParameterError("no atoms")

    @property
    def j(self) -> float:
        return 0.5 * self.n_atoms

    @property
    def dimension(self) -> int:
        return (self.n_max + 1) * (self.n_atoms + 1)


def build_hamiltonian(params: ModelParams, basis: FockSpinBasis,
                      budget: int = DIMENSION_BUDGET) -> sp.csr_matrix:
    """Sparse symmetric Hamiltonian on the truncated basis.

    Built as D + U + U.T with U strictly upper triangular, so the matrix is
    exactly symmetric.  Refuses dimensions above budget.
    """
    import numpy as np
    import scipy.sparse as sp

    if basis.n_atoms != params.n_atoms:
        raise ParameterError("basis and params disagree on the atom number")
    dim = basis.dimension
    if dim > budget:
        raise ParameterError(
            f"basis dimension {dim} exceeds the memory budget {budget}"
        )
    nm = basis.n_max
    na = basis.n_atoms
    j = basis.j
    # entries that overflow are reported by _solve_sectors' norm check
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.arange(na + 1) - j  # m values, ascending
        n = np.arange(nm + 1)

        diag = (
            params.omega * n[:, None]
            + params.delta * m[None, :]
            + (params.v / na) * m[None, :] ** 2
        ).ravel()

        # <m+1|J+|m> ladder amplitudes.
        ladder = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))

        rows = []
        cols = []
        vals = []

        # (omega_rabi/2) * (J+ + J-): |n, m> -> |n, m+1| within each photon block.
        if params.omega_rabi != 0.0 and na >= 1:
            base = (n[:, None] * (na + 1) + np.arange(na)[None, :]).ravel()
            rows.append(base)
            cols.append(base + 1)
            vals.append(np.tile(0.5 * params.omega_rabi * ladder, nm + 1))

        # (lambda/(2*sqrt(N))) * (J+ + J-)(a^dag + a): photon +-1, spin +-1.
        if params.lam != 0.0 and nm >= 1 and na >= 1:
            g = 0.5 * params.lam / np.sqrt(na)
            photon = np.sqrt(n[1:])  # sqrt(n+1) for n = 0..nm-1
            # J+ a^dag: |n, m> -> |n+1, m+1>
            base = (n[:-1, None] * (na + 1) + np.arange(na)[None, :]).ravel()
            amp = (g * photon[:, None] * ladder[None, :]).ravel()
            rows.append(base)
            cols.append(base + (na + 1) + 1)
            vals.append(amp)
            # J- a^dag: |n, m+1> -> |n+1, m>
            rows.append(base + 1)
            cols.append(base + (na + 1))
            vals.append(amp)

        if rows:
            upper = sp.coo_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=(dim, dim),
            )
            h = sp.diags(diag) + upper + upper.T
        else:
            h = sp.diags(diag)
        return h.tocsr()


def _sectors(params: ModelParams, basis: FockSpinBasis
             ) -> list[tuple[np.ndarray, sp.csr_matrix | None]]:
    """The symmetry blocks the eigensolve treats separately, each as
    (indices, fold): the block of H is fold.T @ H[indices][:, indices] @
    fold, or the principal submatrix when fold is None.

    At omega_rabi = 0 the indices are the even and the odd sector of
    (-1)**(n + m + j), in that order; with a drive, the whole basis.  At
    delta = 0 each of these splits once more, into its even and its odd
    half (in that order) under the spin flip m -> -m; fold holds the
    orthonormal (|n, m> +- |n, -m>)/sqrt(2) and |n, 0> columns.  For odd N
    without a drive the flip does not split a parity sector: it
    anticommutes with the parity and maps each sector onto the other, so
    every level is doubly degenerate across the two.  Empty halves are left
    out.
    """
    import numpy as np
    import scipy.sparse as sp

    na = basis.n_atoms
    if params.omega_rabi != 0.0:
        blocks = [np.arange(basis.dimension)]
    else:
        n = np.arange(basis.n_max + 1)
        k = np.arange(na + 1)  # k = m + j
        odd = ((n[:, None] + k[None, :]) % 2).ravel().astype(bool)
        blocks = [np.flatnonzero(~odd), np.flatnonzero(odd)]
    if params.delta != 0.0 or (params.omega_rabi == 0.0 and na % 2 == 1):
        return [(idx, None) for idx in blocks]
    sectors = []
    r = math.sqrt(0.5)
    for idx in blocks:
        photons, k = np.divmod(idx, na + 1)
        partner = np.searchsorted(idx, photons * (na + 1) + na - k)
        rep = np.flatnonzero(2 * k > na)  # m > 0; the flip partner has -m
        mid = np.flatnonzero(2 * k == na)  # m = 0, its own partner
        cols = np.arange(rep.size)
        even = sp.csr_matrix(
            (np.concatenate([np.full(2 * rep.size, r), np.ones(mid.size)]),
             (np.concatenate([rep, partner[rep], mid]),
              np.concatenate([cols, cols, rep.size + np.arange(mid.size)]))),
            shape=(idx.size, rep.size + mid.size))
        odd = sp.csr_matrix(
            (np.concatenate([np.full(rep.size, r), np.full(rep.size, -r)]),
             (np.concatenate([rep, partner[rep]]),
              np.concatenate([cols, cols]))),
            shape=(idx.size, rep.size))
        sectors.extend((idx, fold) for fold in (even, odd) if fold.shape[1])
    return sectors


def _lowest_levels(h: sp.csr_matrix, hnorm: float,
                   start: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest eigenpairs of one sector, ascending (one for a
    one-state sector), by thick-restart Lanczos (Wu & Simon, SIAM J. Matrix
    Anal. Appl. 22, 602 (2000)).

    The Krylov basis holds _KRYLOV_DIM vectors.  Each step orthogonalises
    w = H v_j against v_(j-1) and v_j (the three-term Lanczos step), then
    against the whole basis by one classical Gram-Schmidt pass: Lanczos with
    full reorthogonalisation (Parlett, The Symmetric Eigenvalue Problem
    (1998), ch. 13).  The first step of a cycle and the step from a
    breakdown's generic vector couple to every earlier vector (after a
    restart, the carried-over residual vector couples to every kept Ritz
    vector), so their first pass runs over the whole basis too.  The projected matrix holds the sum of both passes'
    coefficients, so it is V^T H V itself; a restart keeps the _KEPT_RITZ
    lowest Ritz vectors.  The run stops when the residuals |beta * s_mi| of
    both lowest Ritz pairs are at most 1e-13 * hnorm, or when the basis
    fills the sector (the Ritz values are then its exact spectrum).
    Without `start` it begins from the flat vector plus 1e-3 of a generic
    one, so that no symmetry left in the sector can keep a level out of the
    Krylov space (the flat vector alone is even under the spin flip, for
    one).  On a breakdown (beta <= 1e-14 * hnorm before the sector is
    exhausted) it continues from a generic vector orthogonal to the basis,
    so an exactly degenerate level can appear twice.  The generic vectors
    are seeded by the dimension: the result is deterministic.
    """
    import numpy as np

    dim = h.shape[0]
    nev = min(2, dim)
    size = min(_KRYLOV_DIM, dim)
    rng = np.random.default_rng(dim)
    if start is None:
        start = (np.full(dim, 1.0 / math.sqrt(dim))
                 + 1e-3 * rng.standard_normal(dim))
    basis = np.empty((size + 1, dim))  # rows are the Krylov vectors
    proj = np.zeros((size, size))  # V^T H V
    basis[0] = start / np.linalg.norm(start)
    j = 0
    for _ in range(_MAX_RESTARTS + 1):
        lo = 0  # the cycle's first step couples to every earlier vector
        while j < size:
            w = h @ basis[j]
            c = basis[lo:j + 1] @ w
            w -= c @ basis[lo:j + 1]
            c2 = basis[:j + 1] @ w
            w -= c2 @ basis[:j + 1]
            c2[lo:] += c
            proj[:j + 1, j] = proj[j, :j + 1] = c2
            beta = float(np.linalg.norm(w))
            j += 1
            if j == dim:
                break  # the basis spans the sector
            if beta <= 1e-14 * hnorm:
                w = rng.standard_normal(dim)
                w -= (basis[:j] @ w) @ basis[:j]
                w -= (basis[:j] @ w) @ basis[:j]
                basis[j] = w / np.linalg.norm(w)
                lo = 0  # so does the generic vector's
            else:
                basis[j] = w / beta
                lo = j - 1  # the three-term step
        theta, s = np.linalg.eigh(proj[:j, :j])
        if j == dim or np.all(np.abs(beta * s[-1, :nev]) <= 1e-13 * hnorm):
            return theta[:nev], basis[:j].T @ s[:, :nev]
        keep = _KEPT_RITZ
        basis[:keep] = s[:, :keep].T @ basis[:size]
        basis[keep] = basis[size]
        proj[:] = 0.0
        proj[:keep, :keep] = np.diag(theta[:keep])
        j = keep
    raise ConvergenceError(
        f"Lanczos did not converge at dimension {dim} within "
        f"{_MAX_RESTARTS} restarts"
    )


def _solve_sectors(h: sp.csr_matrix,
                   sectors: list[tuple[np.ndarray, sp.csr_matrix | None]],
                   start: np.ndarray | None = None
                   ) -> tuple[float, float, np.ndarray, np.ndarray]:
    """E0, E1, the ground vector and the next cutoff's start vector of h,
    solved sector by sector; `sectors` holds (indices, fold) pairs as
    _sectors gives them.

    E0 and E1 are the two lowest of all the sector levels.  The ground
    vector is the lowest sector's, embedded in the full basis; when
    sector ground energies agree within 1e-13 * ||H||_inf it is the first
    of those sectors', so a tunnelling doublet gets a definite,
    reproducible parity.  An H with non-finite entries is a
    ParameterError.  The eigenvalue residual ||H x - E x|| is checked
    against 1e-9 * ||H||_inf.  `start` (full basis, possibly shorter than
    h: it is zero-padded) seeds each sector's Lanczos run; the returned
    start holds psi0 + psi1 of every sector.
    """
    import numpy as np

    # overflow surfaces as the ParameterError or the ConvergenceError below
    with np.errstate(over="ignore", invalid="ignore"):
        dim = h.shape[0]
        hnorm = float(abs(h).sum(axis=1).max())
        if not math.isfinite(hnorm):
            raise ParameterError(
                f"Hamiltonian entries overflow: ||H||_inf = {hnorm}")
        if start is not None:
            start = np.concatenate([start, np.zeros(dim - start.size)])
        levels = []
        grounds = []  # (sector ground energy, vector, sector indices)
        nxt = np.zeros(dim)
        for idx, fold in sectors:
            sub = h if idx.size == dim else h[idx][:, idx]
            x0 = None if start is None else start[idx]
            if fold is not None:
                sub = (fold.T @ sub @ fold).tocsr()
                x0 = None if x0 is None else fold.T @ x0
            w, vecs = _lowest_levels(sub, hnorm, x0)
            if fold is not None:
                vecs = fold @ vecs
            levels.extend(float(x) for x in w)
            grounds.append((float(w[0]), vecs[:, 0], idx))
            nxt[idx] += vecs.sum(axis=1)
        levels.sort()
        e0 = levels[0]
        e1 = levels[1] if len(levels) > 1 else e0
        eg, psi, idx = next(g for g in grounds if g[0] - e0 <= 1e-13 * hnorm)
        vec = np.zeros(dim)
        vec[idx] = psi
        defect = float(np.linalg.norm(h @ vec - eg * vec))
        if defect > 1e-9 * max(1.0, hnorm):
            raise ConvergenceError(
                f"eigenpair residual {defect:.3e} exceeds 1e-9 * ||H|| = "
                f"{1e-9 * hnorm:.3e}"
            )
        return e0, e1, vec, nxt


@dataclass(frozen=True)
class ExactSolution:
    """Ground-state observables at a photon cutoff.

    energy is E0 of the truncated H and gap = E1 - E0 >= 0, over both parity
    sectors at omega_rabi = 0.  parity is the ground vector's expectation of
    (-1)**(n + m + j): +-1 at omega_rabi = 0, +1 on a cross-sector tie.
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


def _observables(basis: FockSpinBasis, vec: np.ndarray) -> tuple[float, float, float, float]:
    import numpy as np

    na = basis.n_atoms
    j = basis.j
    psi = vec.reshape(basis.n_max + 1, na + 1)
    prob = psi * psi
    m = np.arange(na + 1) - j
    n = np.arange(basis.n_max + 1)
    photon = float((prob.sum(axis=1) * n).sum())
    jz = float((prob.sum(axis=0) * m).sum())
    ladder = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    jx = float((psi[:, 1:] * psi[:, :-1] * ladder[None, :]).sum())
    signs = (-1.0) ** (n[:, None] + np.arange(na + 1)[None, :])
    parity = float((prob * signs).sum())
    return photon, jz, jx, parity


def solve_at_cutoff(params: ModelParams, n_max: int,
                    budget: int = DIMENSION_BUDGET, *,
                    _ladder: list | None = None) -> ExactSolution:
    """Ground-state observables at a fixed photon cutoff.

    `_ladder` is converge_cutoff's private link between the cutoffs of one
    ladder: a one-slot list with the previous cutoff's start vector (None
    for the first cutoff), read as the Lanczos start and overwritten with
    this cutoff's.  Without it the solve starts cold.
    """
    basis = FockSpinBasis(n_max=n_max, n_atoms=params.n_atoms)
    h = build_hamiltonian(params, basis, budget=budget)
    start = _ladder[0] if _ladder is not None else None
    e0, e1, vec, nxt = _solve_sectors(h, _sectors(params, basis), start)
    if _ladder is not None:
        _ladder[0] = nxt
    photon, jz, jx, parity = _observables(basis, vec)
    return ExactSolution(
        energy=e0,
        energy_per_atom=e0 / params.n_atoms,
        photon_number=photon,
        jz=jz,
        jx=jx,
        parity=parity,
        gap=e1 - e0,
        n_max_used=n_max,
        n_atoms=params.n_atoms,
        converged=False,
    )


def converge_cutoff(params: ModelParams, eps: float = 1e-8,
                    n_max_start: int = 8,
                    budget: int = DIMENSION_BUDGET) -> ExactSolution:
    """Double the photon cutoff until the ground energy is stable to
    eps * max(1, |E0|) and the photon population stays below 0.8 * n_max.

    Each cutoff's Lanczos run starts from the previous cutoff's
    psi0 + psi1 per sector, zero-padded.  Returns the observables at the
    final cutoff; converged is False when the dimension budget stops the
    doubling first.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ParameterError(
            f"convergence tolerance must be finite and positive, got {eps!r}")
    if n_max_start < 1:
        raise ParameterError("photon cutoff start must be at least 1")
    ladder = [None]
    sol = solve_at_cutoff(params, n_max_start, budget=budget, _ladder=ladder)
    n_max = n_max_start
    while True:
        n_next = 2 * n_max
        if (n_next + 1) * (params.n_atoms + 1) > budget:
            return sol  # converged stays False: budget hit first
        nxt = solve_at_cutoff(params, n_next, budget=budget, _ladder=ladder)
        stable = abs(nxt.energy - sol.energy) <= eps * max(1.0, abs(nxt.energy))
        headroom = nxt.photon_number < 0.8 * n_next
        if stable and headroom:
            return replace(nxt, converged=True)
        sol = nxt
        n_max = n_next


def product_state_energy(params: ModelParams, mf: MeanFieldSolution) -> float:
    """Finite-N product-state energy per atom at the mean-field point: the
    thermodynamic value plus v*(1/4 - s_z**2)/N.  A rigorous variational
    upper bound on E0/N for every v and N."""
    s_z = mf.point.s_z
    return mf.energy_per_atom + params.v * (0.25 - s_z * s_z) / params.n_atoms
