"""Finite-N ground states in a truncated Fock (photon) x Dicke (spin) basis.

States are indexed photon-major: |n, m> -> n*(N+1) + (m + j) with photon
number n <= n_max and magnetic quantum number m = -j..j for j = N/2.  The
parity exp(i*pi*(a^dag a + J_z + j)) is diagonal in this basis with
eigenvalue (-1)**(n + m + j).  It maps a -> -a and J_x -> -J_x, so the
Hamiltonian commutes with it only without a drive (omega_rabi = 0): the drive
term omega_rabi*J_x anticommutes with it and mixes the two sectors.

At omega_rabi = 0 the eigensolve therefore runs on each parity sector's
principal submatrix and keeps its two lowest levels; with a drive the whole
basis is the only sector.  E0 and E1 are the two lowest of all the kept
levels, so `gap` is E1 - E0 of H.  The reported `parity` is the ground
state's expectation value of the parity operator: a definite +-1 at
omega_rabi = 0.  When the two sector ground energies agree within
1e-13 * ||H||_inf (a tunnelling doublet below the solver's resolution, or an
exact tie) the even sector's ground state is reported.  Dimensions up to
DENSE_CUTOFF are solved densely, larger ones by Lanczos; along a
converge_cutoff ladder each Lanczos run starts from the previous cutoff's
psi0 + psi1 per sector, zero-padded: in the photon-major order the new
states come last.

The mean-field energy per atom is a variational bound for E0/N as N grows;
at finite N the bound that is rigorous for every v is the product-state
expectation, which exceeds the thermodynamic-limit value by
v*(1/4 - s_z**2)/N (see product_state_energy).

numpy and scipy are imported inside the functions that use them, so that
importing the package (and every mean-field command) does not load them.
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

DENSE_CUTOFF = 500
DIMENSION_BUDGET = 400_000


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


def _parity_sectors(params: ModelParams, basis: FockSpinBasis) -> list[np.ndarray]:
    """Index sets of the blocks the eigensolve treats separately: the even
    and the odd sector of (-1)**(n + m + j), in that order, at
    omega_rabi = 0, and the whole basis as the only sector otherwise."""
    import numpy as np

    if params.omega_rabi != 0.0:
        return [np.arange(basis.dimension)]
    n = np.arange(basis.n_max + 1)
    k = np.arange(basis.n_atoms + 1)  # k = m + j
    odd = ((n[:, None] + k[None, :]) % 2).ravel().astype(bool)
    return [np.flatnonzero(~odd), np.flatnonzero(odd)]


def _lowest_levels(h: sp.csr_matrix,
                   start: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The two lowest eigenpairs of one sector, ascending (one for a
    one-state sector): dense up to DENSE_CUTOFF, else Lanczos from `start`,
    or from the flat vector when there is none (deterministic either way)."""
    import numpy as np
    import scipy.sparse.linalg as spla
    from scipy.linalg import eigh

    dim = h.shape[0]
    if dim <= DENSE_CUTOFF:
        return eigh(h.toarray(), subset_by_index=(0, min(1, dim - 1)))
    if start is None:
        start = np.full(dim, 1.0 / np.sqrt(dim))
    try:
        w, vecs = spla.eigsh(h, k=2, which="SA", v0=start, maxiter=10000)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos did not converge at dimension {dim}: {exc}"
        ) from exc
    order = np.argsort(w)
    return w[order], vecs[:, order]


def _solve_sectors(h: sp.csr_matrix, sectors: list[np.ndarray],
                   start: np.ndarray | None = None
                   ) -> tuple[float, float, np.ndarray, np.ndarray]:
    """E0, E1, the ground vector and the next cutoff's start vector of h,
    solved sector by sector.

    E0 and E1 are the two lowest of all the sector levels.  The ground
    vector is the lowest sector's, embedded in the full basis; when the
    sector ground energies agree within 1e-13 * ||H||_inf it is the first
    (even) sector's, so a tunnelling doublet gets a definite, reproducible
    parity.  The eigenvalue residual ||H x - E x|| is checked against
    1e-9 * ||H||_inf.  `start` (full basis, possibly shorter than h: it is
    zero-padded) seeds each sector's Lanczos run; the returned start holds
    psi0 + psi1 of every sector.
    """
    import numpy as np

    dim = h.shape[0]
    hnorm = float(abs(h).sum(axis=1).max())
    if start is not None:
        start = np.concatenate([start, np.zeros(dim - start.size)])
    levels = []
    grounds = []  # (sector ground energy, vector, sector indices)
    nxt = np.zeros(dim)
    for idx in sectors:
        sub = h if len(sectors) == 1 else h[idx][:, idx]
        w, vecs = _lowest_levels(sub, None if start is None else start[idx])
        levels.extend(float(x) for x in w)
        grounds.append((float(w[0]), vecs[:, 0], idx))
        nxt[idx] = vecs.sum(axis=1)
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


def ground_eigenpair(h: sp.csr_matrix) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a Hamiltonian from build_hamiltonian, solved as
    one sector.

    The eigenvalue residual ||H x - E x|| is checked against
    1e-9 * ||H||_inf.
    """
    import numpy as np

    e0, _, vec, _ = _solve_sectors(h, [np.arange(h.shape[0])])
    return e0, vec


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
    e0, e1, vec, nxt = _solve_sectors(h, _parity_sectors(params, basis), start)
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
