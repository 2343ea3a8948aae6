"""Finite-N ground states in a truncated Fock (photon) x Dicke (spin) basis.

States are indexed photon-major: |n, m> -> n*(N+1) + (m + j) with photon
number n <= n_max and magnetic quantum number m = -j..j for j = N/2.  The
parity exp(i*pi*(a^dag a + J_z + j)) is diagonal in this basis with
eigenvalue (-1)**(n + m + j).  It maps a -> -a and J_x -> -J_x, so the
Hamiltonian commutes with it only without a drive (omega_rabi = 0): the drive
term omega_rabi*J_x anticommutes with it and mixes the two sectors.  The
reported `parity` is the ground state's expectation value of this operator:
a definite +-1 only at omega_rabi = 0 with a nondegenerate ground state.

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

DENSE_CUTOFF = 2000
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

    def index(self, n: int, m: float) -> int:
        """Flat index of |n, m>; m may be half-integer for odd N."""
        k = round(m + self.j)
        if not 0 <= n <= self.n_max or not 0 <= k <= self.n_atoms:
            raise IndexError(f"state |{n}, {m}> outside the basis")
        return n * (self.n_atoms + 1) + k


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


def _lowest_pair(h: sp.csr_matrix) -> tuple[float, float, np.ndarray]:
    """Two lowest eigenvalues and the ground vector; dense below
    DENSE_CUTOFF, Lanczos (fixed start vector, deterministic) above."""
    import numpy as np
    import scipy.sparse.linalg as spla
    from scipy.linalg import eigh

    dim = h.shape[0]
    if dim <= DENSE_CUTOFF:
        w, vecs = eigh(h.toarray(), subset_by_index=(0, min(1, dim - 1)))
        e1 = float(w[1]) if dim > 1 else float(w[0])
        return float(w[0]), e1, vecs[:, 0]
    v0 = np.full(dim, 1.0 / np.sqrt(dim))
    try:
        w, vecs = spla.eigsh(h, k=2, which="SA", v0=v0, maxiter=10000)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"Lanczos did not converge at dimension {dim}: {exc}"
        ) from exc
    order = np.argsort(w)
    return float(w[order[0]]), float(w[order[1]]), vecs[:, order[0]]


def ground_eigenpair(h: sp.csr_matrix) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a Hamiltonian from build_hamiltonian.

    The eigenvalue residual ||H x - E x|| is checked against
    1e-9 * ||H||_inf.
    """
    import numpy as np

    e0, _, vec = _lowest_pair(h)
    hnorm = float(abs(h).sum(axis=1).max())
    defect = float(np.linalg.norm(h @ vec - e0 * vec))
    if defect > 1e-9 * max(1.0, hnorm):
        raise ConvergenceError(
            f"eigenpair residual {defect:.3e} exceeds 1e-9 * ||H|| = "
            f"{1e-9 * hnorm:.3e}"
        )
    return e0, vec


@dataclass(frozen=True)
class ExactSolution:
    """Ground-state observables at a photon cutoff."""

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
                    budget: int = DIMENSION_BUDGET) -> ExactSolution:
    """Ground-state observables at a fixed photon cutoff."""
    basis = FockSpinBasis(n_max=n_max, n_atoms=params.n_atoms)
    h = build_hamiltonian(params, basis, budget=budget)
    e0, e1, vec = _lowest_pair(h)
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

    Returns the observables at the final cutoff; converged is False when the
    dimension budget stops the doubling first.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ParameterError(
            f"convergence tolerance must be finite and positive, got {eps!r}")
    if n_max_start < 1:
        raise ParameterError("photon cutoff start must be at least 1")
    sol = solve_at_cutoff(params, n_max_start, budget=budget)
    n_max = n_max_start
    while True:
        n_next = 2 * n_max
        if (n_next + 1) * (params.n_atoms + 1) > budget:
            return sol  # converged stays False: budget hit first
        nxt = solve_at_cutoff(params, n_next, budget=budget)
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
