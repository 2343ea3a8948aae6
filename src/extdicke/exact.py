"""Finite-N ground states in extended coherent states where the photon is
fast, else in a two-centre displaced photon basis x Dicke (spin) basis.

    H = omega a^dag a + (lambda / sqrt(N) (a + a^dag) + omega_rabi) J_x
        + delta J_z + (v / N) J_z**2,   j = N/2.

Where c = lambda / (omega sqrt(N)) <= _ECS_MAX_C and x = (|delta| + |v|)
lambda / omega**2 <= _ECS_MAX_X (ratios of couplings, exact under their
scaling), the basis is the extended coherent states (ECS) of Chen, Zhang,
Liu & Wang, PRA 78, 051801(R) (2008): each J_x eigenstate mu = -j..j has
its own photon states D(-c mu)|n>, n <= n_max, on which the photon energy
and the atom-field coupling are diagonal, omega n - omega c**2 mu**2 +
omega_rabi mu; delta J_z and (v / N) J_z**2 couple the rows mu +- 1, mu +-
2 through fixed overlaps <n|D(-+c)|n'>, <n|D(-+2c)|n'> (_ecs_terms).  P =
n_max + 1, and no mean-field centre.  At large c the rows couple only
through the part of <n|D(c)|n'> near n ~ c**2, far above a small cutoff,
so the ladder's weight rule certifies a wrong answer (omega = 1, lambda =
sqrt(999), delta = 1e3, N = 8: c = 11, 2e-27 of the weight above label 4
at cutoff 8, E0 50 % high).  At large x the spin is fast and spread over
mu, each row's photon sits far from its own displacement and the ladder
climbs (N = 1024, lambda = 3.2, delta = 20.5: cutoff 256 in ECS, 32 on the
Fock basis, 23 times the time).

Elsewhere the photon field of a superradiant or driven ground state sits
near the coherent states |+-beta>, beta = sqrt(N) * |alpha| at the
mean-field minimum (Emary & Brandes, PRE 67, 066203 (2003)), and the photon
basis at cutoff n_max is the span of D(+beta)|n> and D(-beta)|n>, n <=
n_max (the two-centre basis of Chen et al.): n_max counts displaced photons
per centre, the field's fluctuations, not its N * alpha**2 photons (at beta
= 0, the Fock basis).  _photon_basis builds the photon-even states, then the
photon-odd ones, from D(beta)|n> +- (-1)**n D(-beta)|n>, n = 0..n_max in
order, by Gram-Schmidt in an auxiliary Fock space that holds their tails
(_displaced), dropping a state whose remainder is at most _PRUNE (near beta
= 0 the centres' states are nearly dependent); each keeps the label n it
was made from.  Where the centres' states are orthogonal to rounding, the
closed forms a^dag a + beta (a + a^dag) + beta**2 and a + a^dag + 2 beta on
each centre replace it, so no array grows with beta.  With A and X the
matrices of a^dag a and a + a^dag, H = omega A (x) 1 + (lambda / sqrt(N) X
+ omega_rabi) (x) J_x + 1 (x) (delta J_z + (v / N) J_z**2) on the states m
(_two_centre_terms).

In either basis photon operators are dense P x P matrices, a budget bounds
the dimension solved and their P**2 entries (model.basis_size), and the
basis at n_max is the first part of the basis at 2 * n_max (the states a
doubling adds are labelled above n_max).  Each basis writes H as a dense
photon energy (none in ECS), a diagonal and terms S_d (x) M_d that move the
spin state by d, which one assembler, _operators, projects onto the rows of
each symmetry sector (_spin_sectors); one pass, _observables, reads the
photon number, the parity and the spin moments off the ground vector, on
one spin table (_spin_table): <J_z> and <J_x> on the two-centre rows m,
<J_x> and <J_z> on the ECS rows mu.  H is held spin-major
(KroneckerHamiltonian), a vector as an (N + 1) x P array of spin states x
photon states; each sector's operator carries its embedding into that
array, the one map that gathers a start vector and puts a solution back.

The parity exp(i*pi*(a^dag a + J_z + j)) maps a -> -a and J_x -> -J_x: at
omega_rabi = 0 its even and odd sectors are solved apart (_spin_sectors).
The spin flip F (m -> -m on the two-centre basis) keeps J_x, a and J_z**2
and maps J_z -> -J_z, so H(-delta) = F H(delta) F: delta < 0 is solved at
-delta, and then J_z -> -J_z and parity -> (-1)**N * parity.  At delta = 0 F
is a second symmetry, and each sector splits into its flip-even and
flip-odd halves, so the two states of a flip doublet, split by far less than
the solver resolves, lie in different sectors (inside one sector a Lanczos
run from one start vector would find only one combination of them).  E0 and
E1 are the two lowest of all the kept levels, so `gap` is E1 - E0 of H.
The reported `parity` is the ground state's expectation value of the
parity: +-1 to rounding at omega_rabi = 0.  When sector ground energies
agree within _LANCZOS_TOL * ||H||_inf (a tunnelling doublet below the
solver's resolution, or an exact tie), the tie rule reports, at delta >= 0,
the first of those sectors: the even one (the flip-even one, whose <J_z> is
0, where the flip splits the sectors); at delta < 0, its mirror image.
Every sector is solved by one thick-restart Lanczos in numpy with full
reorthogonalisation (_lowest_levels); along a converge_cutoff ladder each
run starts from the previous cutoff's psi0 + psi1 of every sector, carried
to the photon states of the same parity and label (its projection, as the
old basis is the first part of the new).  Every cutoff is solved at unit
scale, as meanfield.solve_point solves the mean field: H / 2**k is built
from the couplings divided by 2**k, the power of two at
ModelParams.hamiltonian_scale, so that no entry, norm or square overflows;
the division is exact, and E0 and E1 are multiplied back by 2**k.

The mean-field energy per atom is a variational bound for E0/N as N grows;
at finite N the rigorous bound for every v is the product-state energy, the
thermodynamic value plus v*(1/4 - s_z**2)/N (product_state_energy).  That
state lies in the two-centre basis at every cutoff (in ECS, up to the
weight cut off).

numpy is imported inside the functions that use it, so that importing the
package (and every mean-field command) does not load it.  The finite-N path
never loads numpy.random (which loads hashlib and OpenSSL): the generic
vectors of the Lanczos runs are integer hashes of their index
(_generic_vector).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .meanfield import MeanFieldSolution, ground_state
from .model import (AXES, DIMENSION_BUDGET, LADDER_EPS, N_MAX_START, ConvergenceError,
                    ModelParams, ParameterError, _integer, basis_size, check_ladder, record)

if TYPE_CHECKING:
    import numpy as np

# thick-restart Lanczos: basis size, Ritz vectors kept at a restart, and the
# number of restarts before ConvergenceError; every _GROW_EVERY restarts
# both sizes double, the basis up to _KRYLOV_MAX vectors
_KRYLOV_DIM = 30
_KEPT_RITZ = 10
_MAX_RESTARTS = 1000
_GROW_EVERY = 50
_KRYLOV_MAX = 120
# Resolution relative to ||H||_inf of a Ritz residual (converged), a new
# Lanczos vector's norm (breakdown) and sector ground energies (a tie).
_LANCZOS_TOL = 1e-13
# Weight of the generic vector in a cold Lanczos start, beside the flat one.
_START_WEIGHT = 1e-3
# Largest eigenpair residual ||H x - E x|| accepted, relative to ||H||_inf.
_RESIDUAL_TOL = 1e-9
# The photon basis: the shortest remainder of a state kept by Gram-Schmidt,
# also the largest error of a displaced state's norm**2; the centres are far
# apart, their states orthogonal to rounding (below 1e-17 by the Laguerre
# form of <n|D(2 beta)|m>), at beta >= sqrt(n_max) + _FAR; the auxiliary
# Fock space reaches (beta + sqrt(2 n_max + 1) + _TAIL)**2 photons, and the
# states' amplitude there must be at most _TAIL_AMPLITUDE.
_PRUNE = 1e-10
_FAR = 5.0
_TAIL = 6.0
_TAIL_AMPLITUDE = 1e-20
# _displaced's recurrence: a band whose first value is below e**_LOG_TINY,
# about the smallest normal float 2**-1022, runs scaled, and a scaled band
# above _BIG = 2**_BIG_EXPONENT is rescaled.
_LOG_TINY = -708.0
_BIG_EXPONENT = 500
_BIG = 2.0 ** _BIG_EXPONENT
# The largest c = lambda / (omega sqrt(N)) and x = (|delta| + |v|) lambda /
# omega**2 whose ladders are solved in ECS.
_ECS_MAX_C = 0.125
_ECS_MAX_X = 1.0


class KroneckerHamiltonian:
    """H on a block of spin rows x photon states, held spin-major.

    A vector is a rows x cols array psi, flattened by rows, and

        H psi = psi a + sd * psi + sum of h * T_o(psi x),  T_o(t)[r] = t[r + o],

    with a the photon energy (a dense symmetric matrix, or None where sd
    holds it), sd the diagonal energies, and for each photon matrix x that
    couples rows its bands (o, h): a row offset and the elements per row and
    photon state (each photon state's spin rows may be their own), read only
    where row r + o exists.  The last row may hold fewer states than the
    others: its missing entries are the last ones of the array, and a vector
    of the `shape` leaves them out.  `embedding` = (rep, par, cr, cp) places a
    vector v of the `shape` in the spin states x photon states, flattened:
    entry e is cr[e] |rep[e]> + cp[e] |par[e]>, two flat positions of that
    array (cp[e] = 0 where they coincide).
    """

    def __init__(self, a, sd, couplings, dim: int, embedding: tuple):
        import numpy as np

        self.a, self.sd, self.embedding = a, sd, embedding
        # the photon matrices stacked, so that one product serves them all
        self.x = np.array([x for x, _ in couplings]) if couplings else None
        self.bands = []  # (rows of H psi, band, photon matrix, rows of psi x)
        for i, (_, bands) in enumerate(couplings):
            for o, h in bands:
                held = np.flatnonzero(h.any(axis=1))  # a band may fill a few rows only
                if held.size:
                    lo, hi = max(-o, 0, held[0]), min(len(h) - max(o, 0), held[-1] + 1)
                    self.bands.append((slice(lo, hi), h[lo:hi], i, slice(lo + o, hi + o)))
        self.shape = (dim, dim)
        self._psi = np.zeros(sd.size)  # the missing entries stay zero

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        dim = self.shape[0]
        if dim == self._psi.size:
            psi = v.reshape(self.sd.shape)
        else:
            self._psi[:dim] = v
            psi = self._psi.reshape(self.sd.shape)
        t = None if self.x is None else psi @ self.x
        y = self.sd * psi if self.a is None else psi @ self.a + self.sd * psi
        for rows, h, i, src in self.bands:
            y[rows] += h * t[i, src]
        return y.ravel()[:dim]


def _cutoff(params: ModelParams, n_max, budget: int, beta: float) -> int:
    """n_max as an int: a nonnegative integer photon cutoff whose basis
    about the centres +-beta (the Fock basis at beta = 0) fits the budget
    (an integer), in its dimension and in the entries of its dense photon
    matrices (basis_size)."""
    nm = _integer(n_max, "photon cutoff")
    budget = _integer(budget, "the memory budget")
    if nm < 0:
        raise ParameterError("negative photon cutoff")
    dim, entries = basis_size(nm, params.n_atoms, bool(beta))
    if dim > budget:
        raise ParameterError(f"basis dimension {dim} exceeds the memory budget {budget}")
    if entries > budget:
        raise ParameterError(f"photon matrices of {entries} entries exceed the memory "
                             f"budget {budget}")
    return nm


def _displaced(beta: float, nm: int) -> np.ndarray:
    """<k|D(beta)|n> for n <= nm, in the Fock states k below a bound that
    holds them (checked by their amplitude on the last one, and by each
    state's norm).

    <j + d|D|j> = beta**d e**(-beta**2/2) sqrt(j!/(j + d)!) L_j^(d)(beta**2)
    and <j|D|j + d> = (-1)**d <j + d|D|j>, with the generalized Laguerre
    polynomial's three-term recurrence in j run on these normalised values,
    every one at most 1 (it is stable where the recurrence in n, D|n> =
    (a^dag - beta) D|n-1> / sqrt(n), is not).  The recurrence is linear at
    each d, so a band whose first value is below the normal floats (at
    small d once beta**2 / 2 passes 708) runs scaled by a power of two
    2**-e, exactly, and is rescaled as it grows: no band starts from zero."""
    import numpy as np

    size = int((beta + math.sqrt(2 * nm + 1) + _TAIL) ** 2) + 1
    x = beta * beta
    d = np.arange(size, dtype=float)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(d[1:]))))
    log_first = d * math.log(beta) - 0.5 * x - 0.5 * log_factorial
    e = np.where(log_first < _LOG_TINY, np.floor(log_first / math.log(2.0)), 0.0).astype(int)
    row = np.exp(log_first - e * math.log(2.0))  # <j + d|D|j> * 2**-e at j = 0
    prev = None
    sign = np.where(np.arange(nm + 1) % 2 == 1, -1.0, 1.0)
    c = np.empty((size, nm + 1))
    for j in range(nm + 1):
        if j:
            nxt = (1.0 + d - x) / np.sqrt(d + 1.0) * row if j == 1 else (
                ((2 * j - 1) + d - x) * row
                - np.sqrt((j - 1) * (j - 1 + d)) * prev) / np.sqrt(j * (j + d))
            big = np.abs(nxt) > _BIG
            if big.any():
                nxt[big] /= _BIG
                row[big] /= _BIG
                e[big] += _BIG_EXPONENT
            prev, row = row, nxt
        psi = np.ldexp(row, e)
        c[j:, j] = psi[:size - j]
        c[j, j + 1:] = sign[1:nm + 1 - j] * psi[1:nm + 1 - j]
    if not np.abs(c[-1]).max() <= _TAIL_AMPLITUDE:
        raise ConvergenceError(f"displaced photon states at beta = {beta:.6g} reach past "
                               f"{size} Fock states")
    if not np.abs(np.einsum("kn,kn->n", c, c) - 1.0).max() <= _PRUNE:
        raise ConvergenceError(f"displaced photon states at beta = {beta:.6g} lose their "
                               f"norm in {size} Fock states")
    return c


def _orthonormal(candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt on the columns in order, each twice against the kept
    ones (_orthogonalise); a column whose remainder is at most _PRUNE is
    dropped.  Returns the kept states as columns and their column indices."""
    import numpy as np

    rows = np.empty((candidates.shape[1], candidates.shape[0]))
    kept = []
    for i, w in enumerate(candidates.T.copy()):
        done = rows[:len(kept)]
        _orthogonalise(w, done, done)
        norm = math.sqrt(w @ w)
        if norm > _PRUNE:
            np.divide(w, norm, out=rows[len(kept)])
            kept.append(i)
    return rows[:len(kept)].T, np.array(kept, dtype=int)


def _photon_basis(beta: float, nm: int) -> tuple:
    """The photon basis at cutoff nm about the centres +-beta (see the module
    docstring), photon-even states first: A, X (dense photon operators),
    each state's photon parity (True for odd) and its label n."""
    import numpy as np

    n = np.arange(nm + 1)
    fock_a = np.diag(np.sqrt(np.arange(1.0, nm + 1.0)), 1)  # a on |0>..|nm>
    fock_x = fock_a + fock_a.T
    if beta == 0.0:  # the Fock states, even photon numbers first
        labels = np.concatenate((n[0::2], n[1::2]))
        return (np.diag(labels.astype(float)), fock_x[np.ix_(labels, labels)],
                labels % 2 == 1, labels)
    if beta >= math.sqrt(nm) + _FAR:
        # (D(beta)|n> +- (-1)**n D(-beta)|n>)/sqrt(2) is orthonormal
        a_even = a_odd = np.diag(n + beta * beta) + beta * fock_x
        x_cross = fock_x + 2.0 * beta * np.eye(nm + 1)
        labels = (n, n)
    else:
        c = _displaced(beta, nm)
        # the photon-even (-odd) part of D(beta)|n> is its even (odd) Fock rows
        (even, n_even), (odd, n_odd) = (_orthonormal(c[r::2]) for r in (0, 1))
        k = np.arange(c.shape[0], dtype=float)
        a_even = even.T @ (k[0::2, None] * even)
        a_odd = odd.T @ (k[1::2, None] * odd)
        a_even, a_odd = 0.5 * (a_even + a_even.T), 0.5 * (a_odd + a_odd.T)
        # (a + a^dag) from the odd Fock states 2i -+ 1 to the even ones 2i
        to_even = np.zeros((even.shape[0], odd.shape[1]))
        to_even[:odd.shape[0]] += np.sqrt(k[1::2, None]) * odd
        to_even[1:] += np.sqrt(k[2::2, None]) * odd[:even.shape[0] - 1]
        x_cross = even.T @ to_even
        labels = (n_even, n_odd)
    pe = a_even.shape[0]
    size = pe + a_odd.shape[0]
    a = np.zeros((size, size))
    a[:pe, :pe], a[pe:, pe:] = a_even, a_odd
    x = np.zeros((size, size))
    x[:pe, pe:] = x_cross
    x[pe:, :pe] = x_cross.T
    return a, x, np.arange(size) >= pe, np.concatenate(labels)


def _spin_sectors(params: ModelParams, ecs: bool = False) -> list[tuple]:
    """The symmetry sectors (see the module docstring), each as its row sets
    and its groups.  A row set is (k, c), row r being c[0, r] |k[0, r]> + s
    c[1, r] |k[1, r]> for spin states k = m + j (mu + j in ECS), c[1, r] = 0
    where k[0, r] has no partner; a group is (photon parity 0 or 1, or None
    for all; its row set; how many of the set's rows it holds; the
    partners' sign s).  On the two-centre basis a parity sector is
    (photon-even x spin-even) + (photon-odd x spin-odd), F pairs m with -m,
    s = +-1, and rows ascend in m.  In ECS the parity pairs mu with -mu, s =
    +-(-1)**(N + n) in the even and the odd sector, F splits the rows by the
    parity of N - mu - j, and rows descend in mu: mu = 0, without a partner,
    is last, and the groups share the largest's rows.  No group is empty."""
    import numpy as np

    na = params.n_atoms
    ks = np.arange(na, -1, -1) if ecs else np.arange(na + 1)
    drive = params.omega_rabi != 0.0
    flip = params.delta == 0.0 and (drive or na % 2 == 0)
    sectors = []
    for s in (0,) if drive else (0, 1):
        for f in (0, 1) if flip else (None,):
            sets, groups = [], []
            for photon in (None,) if drive else (0, 1):
                if ecs:
                    k = ks if f is None else ks[(na - ks) % 2 == f]
                    sign = 0.0 if drive else (-1.0) ** (s + na + photon)
                else:
                    k = ks if drive else ks[ks % 2 == (s + photon) % 2]
                    sign = 0.0 if f is None else (-1.0) ** f
                # a pair by its mu (m) >= 0 with the sign +, > 0 with the sign -
                rep = k[2 * k > na - (sign > 0.0)] if sign else k
                par = na - rep if sign else rep
                if rep.size:
                    sets.append((np.array([rep, par]), np.where(
                        par == rep, [[1.0], [0.0]], math.sqrt(0.5))))
                    groups.append((photon, len(sets) - 1, rep.size, sign))
            if ecs and sets:  # the groups share the rows of the largest
                sets = [max(sets, key=lambda rows: rows[0].shape[1])]
                groups = [(photon, 0, *rest) for photon, _, *rest in groups]
            if sets:
                sectors.append((sets, groups))
    return sectors


def _spin_table(na: int) -> tuple[np.ndarray, np.ndarray]:
    """The spin states' m = -j..j (mu in ECS), and J_x[m - 1, m] (J_z[mu - 1,
    mu] in ECS) at index m + j, 0 past the ends."""
    import numpy as np

    j = 0.5 * na
    m = np.arange(na + 1) - j
    return m, np.concatenate(([0.0], 0.5 * np.sqrt(j * (j + 1.0) - m * (m + 1.0))))


def _two_centre_terms(params: ModelParams, k: int, a: np.ndarray, x: np.ndarray) -> tuple:
    """H / 2**k for _operators on the photon basis of the operators A and X
    (_photon_basis): omega A, delta m + (v / N) m**2, and J_x (x) (lambda /
    sqrt(N) X + omega_rabi) at d = +-1."""
    omega, lam, delta, rabi, v = (math.ldexp(getattr(params, f), -k) for f in AXES)
    na, (m, ladder) = params.n_atoms, _spin_table(params.n_atoms)
    xs = (lam / math.sqrt(na)) * x
    xs.flat[::len(x) + 1] += rabi
    diag = (delta * m + (v / na) * m * m)[:, None].repeat(len(x), axis=1)
    return omega * a, diag, {1: (ladder[1:], xs), -1: (ladder[:-1], xs)}


def _ecs_terms(params: ModelParams, k: int, c: float, overlaps: list) -> tuple:
    """H / 2**k for _operators in ECS from the overlaps <k|D(c)|n>, <k|D(2 c)|n>
    cut to n_max: omega n - omega c**2 mu**2 + omega_rabi mu plus the diagonal of
    (v / N) J_z**2, and delta J_z and (v / N) J_z**2 through G_d = <n|D(-c d)|n'>."""
    import numpy as np

    omega, _, delta, rabi, v = (math.ldexp(getattr(params, f), -k) for f in AXES)
    na, (mu, ladder) = params.n_atoms, _spin_table(params.n_atoms)
    n = np.arange(len(overlaps[0]))
    diag = omega * n + (rabi * mu - omega * c * c * mu * mu
                        + (v / na) * (ladder[:-1] ** 2 + ladder[1:] ** 2))[:, None]
    spin = {1: delta * ladder[1:], 2: (v / na) * np.append(ladder[1:-1] * ladder[2:], 0.0)}
    spin.update({-d: np.concatenate((s[-d:], s[:-d])) for d, s in spin.items()})  # k to k + d
    return None, diag, {d: (s, overlaps[d - 1] if d > 0 else overlaps[-d - 1].T)
                        for d, s in spin.items() if s.any()}


def _operators(a, diag: np.ndarray, terms: dict, odd: np.ndarray,
               sectors: list[tuple]) -> tuple[list, float]:
    """The KroneckerHamiltonian of H = a (x) 1 + diag + sum of S_d (x) M_d on
    each sector of _spin_sectors, and ||H||_inf (the largest row sum of |H|
    on the spin states x photon states of parities `odd`): a dense photon
    energy or None, diag[k, n], and terms {d: (S_d, M_d)}, S_d[k] from spin
    state k to k + d, M_d from photon state n' to n at [n', n], M_-d = P M_d
    P for the partners' signs P.  A sector's entries are its rows x its
    groups' photon states, the groups with more rows first, so the missing
    entries are the last.  A row's diagonal is its rep's; a term from state
    a of row r to state b of row r + o is a band of offset o, of M_d (M_-d
    where b is a partner), times s where a != b.  bincount sums an entry's
    at most two terms, each formed alike for the entry and its transpose:
    the block is exactly symmetric."""
    import numpy as np

    keys, mats = list(terms), list({id(m): m for _, m in terms.values()}.values())
    mat = [next(i for i, x in enumerate(mats) if x is m) for _, m in terms.values()]
    hnorm = np.abs(diag) if a is None else (np.add.reduce(np.abs(a), axis=1)
                                            - np.abs(a.diagonal()) + np.abs(a.diagonal() + diag))
    for s, m in terms.values():
        hnorm += np.abs(s)[:, None] * np.add.reduce(np.abs(m), axis=0)
    span = max(map(abs, keys), default=0)  # the largest row offset
    width = 2 * span + 1
    # a term's band (sign, matrix) by the kinds (rep 0, par 1) of its states
    par = [mat[keys.index(-d)] for d in keys]
    band = np.array([[mat, [i + len(mats) for i in par]], [[i + len(mats) for i in mat], par]],
                    dtype=int).reshape(2, 2, len(keys)) * width
    spin = np.array([s for s, _ in terms.values()]).reshape(len(keys), len(diag))
    term, step = np.arange(len(keys))[:, None], np.array(keys, dtype=int)[:, None] + span
    ops = []
    for sets, groups in sectors:
        groups = [(np.arange(odd.size) if photon is None else (odd == photon).nonzero()[0],
                   *rest) for photon, *rest in groups]
        groups = sorted((g for g in groups if g[0].size), key=lambda g: -g[2])
        if not groups:
            continue
        size, of = groups[0][2], np.array([g[1] for g in groups])  # the first holds most rows
        held = [max([g[2] for g in groups if g[1] == i], default=0) for i in range(len(sets))]
        sets = [(k[:, :n], c[:, :n]) for (k, c), n in zip(sets, held)]
        # the states, reps then partners, coefficients (0 past the end), rows, places
        k, c = (np.concatenate([rows[i] for rows in sets], axis=1) for i in (0, 1))
        place = np.concatenate([np.arange(i * size, i * size + n) for i, n in enumerate(held)])
        place, row, count = np.concatenate((place, place)), place % size, place.size
        k, c, row = k.ravel(), np.concatenate((c[0], c[1], [0.0])), np.concatenate((row, row))
        at = np.zeros(len(diag) + 2 * span, dtype=int) - 1  # the state of spin state k + span
        at[k[count:] + span] = np.arange(count, 2 * count)
        at[k[:count] + span] = np.arange(count)  # a state alone is its row's rep
        to = at[k + step]  # from state e to state to[d, e], d apart; -1 for none
        bins = ((band[np.arange(2 * count) // count, to // count, term] + row[to] - row + span)
                * len(sets) * size + place)
        tab = np.bincount(np.where(to < 0, 0, bins).ravel(), (spin[:, k] * c[:-1] * c[to]).ravel(),
                          2 * len(mats) * width * len(sets) * size
                          ).reshape(2, -1, len(sets), size)  # sign, band, row set, row
        sign = np.array([g[3] for g in groups])
        table = np.zeros((4 + tab.shape[1], size, len(groups)))  # rep, par, cr, s cp, bands
        for g, i in enumerate(of):
            table[:2, :held[i], g], table[2:4, :held[i], g] = sets[i][0] * odd.size, sets[i][1]
        table[3] *= sign
        table[4:] = (tab[0][:, of] + tab[1][:, of] * sign[:, None]).swapaxes(1, 2)
        rep, par, cr, cp, *bands = table.repeat([g[0].size for g in groups], axis=2)
        cols = np.concatenate([g[0] for g in groups])
        rep, par = rep.astype(int) + cols, par.astype(int) + cols
        used = np.logical_or.reduce(tab, axis=(0, 2, 3)).reshape(len(mats), width)
        block = (slice(None),) * 2 if len(groups) == 1 and cols.size == odd.size else (
            cols[:, None], cols)  # the photon states in order, or permuted
        couplings = [(m[block], [(o - span, bands[i * width + o]) for o in on.nonzero()[0]])
                     for i, (m, on) in enumerate(zip(mats, used)) if on.any()]
        dim = sum(g[0].size * g[2] for g in groups)
        ops.append(KroneckerHamiltonian(None if a is None else a[block], diag.ravel()[rep],
                                        couplings, dim,
                                        tuple(t.ravel()[:dim] for t in (rep, par, cr, cp))))
    return ops, float(hnorm.max())


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


def _lowest_levels(h: KroneckerHamiltonian, hnorm: float,
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
    _KEPT_RITZ lowest Ritz vectors.  A run that stalls grows: after every
    _GROW_EVERY restarts the basis and the kept Ritz vectors double, the
    basis up to _KRYLOV_MAX vectors.  The run stops when the residuals
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
    size, keep = min(_KRYLOV_DIM, dim), _KEPT_RITZ
    draws = 0  # draw 0 is the cold start's; breakdowns take 1, 2, ...
    if start is None:
        start = np.full(dim, 1.0 / math.sqrt(dim)) + _START_WEIGHT * _generic_vector(dim, 0)
    basis = np.empty((size + 1, dim))  # rows are the Krylov vectors
    proj = np.zeros((size, size))  # the lower triangle of V^T H V
    np.divide(start, math.sqrt(start @ start), out=basis[0])
    j = 0
    for cycle in range(1, _MAX_RESTARTS + 2):
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
        old, grown = size, basis
        if cycle % _GROW_EVERY == 0 and size < _KRYLOV_MAX:  # size < dim here
            size, keep = min(2 * size, _KRYLOV_MAX, dim), 2 * keep
            grown, proj = np.empty((size + 1, dim)), np.zeros((size, size))
        grown[:keep] = s[:, :keep].T @ basis[:old]
        grown[keep] = basis[old]
        basis, j = grown, keep
        proj[:keep, :keep] = np.diag(theta[:keep])
    raise ConvergenceError(
        f"Lanczos did not converge at dimension {dim} within "
        f"{_MAX_RESTARTS} restarts"
    )


def _solve_sectors(ops: list, hnorm: float, shape: tuple[int, int],
                   start: np.ndarray | None = None, k: int = 0
                   ) -> tuple[float, float, np.ndarray, np.ndarray]:
    """E0, E1, the ground vector and the next cutoff's start vector of
    H = 2**k * h, solved sector by sector; `ops` holds the sector operators
    of _operators and hnorm ||h||_inf, and vectors are held as spin states
    m x photon states (`shape`).

    E0 and E1 are the two lowest of all the sector levels, scaled back by
    2**k.  The ground vector is the lowest sector's; when sector ground
    energies agree within _LANCZOS_TOL * ||h||_inf it is the first of those
    sectors', so a tunnelling doublet gets a definite, reproducible parity.
    The eigenvalue residual ||h x - E x|| is checked against _RESIDUAL_TOL *
    ||h||_inf, and reported in the units of H.  `start` seeds each sector's
    Lanczos run with its part, gathered through the sector's embedding as
    cr * start.flat[rep] + cp * start.flat[par]; the returned start holds
    psi0 + psi1 of every sector.  A sector vector v is put back by adding
    cr * v at rep, then cp * v at par, onto zeros: within a sector the rep
    positions are distinct and so are the par ones, so each position is
    written at most once per statement and, as a product sums, a -0.0 lands
    as 0.0.
    """
    import numpy as np

    levels = []
    grounds = []  # (sector ground energy, operator, vector)
    nxt = np.zeros(shape)
    for op in ops:
        rep, par, cr, cp = op.embedding
        w, s = _lowest_levels(op, hnorm, None if start is None else
                              cr * start.flat[rep] + cp * start.flat[par])
        levels.extend(float(x) for x in w)
        grounds.append((float(w[0]), op, s[:, 0]))
        v = s.sum(axis=1)
        nxt.flat[rep] += cr * v
        nxt.flat[par] += cp * v
    levels.sort()
    e0 = levels[0]
    e1 = levels[1] if len(levels) > 1 else e0
    eg, op, vec = next(g for g in grounds if g[0] - e0 <= _LANCZOS_TOL * hnorm)
    defect = float(np.linalg.norm(op @ vec - eg * vec))
    if defect > _RESIDUAL_TOL * hnorm:
        raise ConvergenceError(
            f"eigenpair residual {math.ldexp(defect, k):.3e} exceeds "
            f"{_RESIDUAL_TOL:g} * ||H|| = {math.ldexp(_RESIDUAL_TOL * hnorm, k):.3e}")
    rep, par, cr, cp = op.embedding
    ground = np.zeros(shape)
    ground.flat[rep] += cr * vec
    ground.flat[par] += cp * vec
    return math.ldexp(e0, k), math.ldexp(e1, k), ground, nxt


@record
class ExactSolution:
    """Ground-state observables at a photon cutoff.

    energy is E0 of H on the truncated basis and gap = E1 - E0 >= 0, over
    all the symmetry sectors (parity at omega_rabi = 0, spin flip at
    delta = 0).  parity is the ground vector's expectation of the parity
    (-1)**(a^dag a + m + j): +-1 to rounding at omega_rabi = 0; on a tie
    between sectors, the even sector's at delta >= 0 and its mirror image at
    delta < 0 (see the module docstring).  n_max_used is the photon cutoff:
    the largest n of the states D(-c mu)|n> of each ECS row mu (see the
    module docstring), else of the states D(+-beta)|n> on each centre (the
    Fock cutoff where beta = 0).  converged says that the ground vector holds at
    most eps above label n_max_used / 2 (converge_cutoff).
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


def _observables(psi: np.ndarray, spin: tuple, photon: np.ndarray, partner: np.ndarray
                 ) -> tuple[float, float, float, float]:
    """<a^dag a>, the spin moments <m> and <J> and the parity of a vector psi
    of spin states x photon states, from the spin table (m, J of _spin_table,
    G), J coupling row m to m + 1 through the photon matrix G (None for 1),
    from photon = a^dag a psi and from partner = the parity applied to psi."""
    m, ladder, g = spin
    band = (psi[:-1] * (psi[1:] if g is None else psi[1:] @ g)).sum(axis=1)
    return (float((psi * photon).sum()), float((psi * psi).sum(axis=1) @ m),
            float(band @ (2.0 * ladder[1:-1])), float((psi * partner).sum()))


def _centre(params: ModelParams) -> float | None:
    """None where the basis is ECS (see the module docstring), else beta =
    sqrt(N) * |alpha|, the photon field's centre at the mean-field minimum."""
    lam, omega = params.lam, params.omega
    if lam / (omega * math.sqrt(params.n_atoms)) <= _ECS_MAX_C and (
            (abs(params.delta) + abs(params.v)) / omega * (lam / omega) <= _ECS_MAX_X):
        return None
    return math.sqrt(params.n_atoms) * abs(ground_state(params).alpha)


def _solve(params: ModelParams, nm: int, beta: float | None, start: tuple | None
           ) -> tuple[ExactSolution, tuple, float]:
    """solve_at_cutoff's observables, at unit scale, at a checked cutoff nm
    about the centres +-beta (in ECS where beta is None), from the Lanczos
    start `start` (None for a cold one), then the next start and the ground
    vector's weight on the labels above nm / 2.  A start is a vector of spin
    states x photon states with each photon state's code 2 * label +
    parity; it is carried over to the photon states of this cutoff with the
    same code.  At delta < 0 the starts are those of -delta (see the module
    docstring)."""
    import numpy as np

    mirror = params.delta < 0.0
    params = params.replace(delta=-params.delta) if mirror else params
    k = math.frexp(params.hamiltonian_scale)[1]
    if beta is None:  # the overlaps <k|D(c)|n>, and <k|D(2c)|n> where (v / N) J_z**2 needs them
        c, labels = params.lam / (params.omega * math.sqrt(params.n_atoms)), np.arange(nm + 1)
        odd = labels % 2 == 1
        overlaps = [_displaced(d * c, nm)[:nm + 1] if c else np.eye(nm + 1)
                    for d in ((1, 2) if params.v else (1,))]
        terms = _ecs_terms(params, k, c, overlaps)
    else:
        a, x, odd, labels = _photon_basis(beta, nm)
        terms = _two_centre_terms(params, k, a, x)
    ops, hnorm = _operators(*terms, odd, _spin_sectors(params, beta is None))
    codes = 2 * labels + odd
    shape = (params.n_atoms + 1, odd.size)
    if start is not None:
        old, old_codes = start
        start = np.zeros(shape)
        _, new_at, old_at = np.intersect1d(codes, old_codes, return_indices=True)
        start[:, new_at] = old[:, old_at]
    e0, e1, vec, nxt = _solve_sectors(ops, hnorm, shape, start, k)
    m, ladder = _spin_table(params.n_atoms)
    if beta is None:  # a is a - c mu on row mu; the parity maps |mu, n> to (-1)**(N + n) |-mu, n>
        fock = np.diag(np.sqrt(labels[1:].astype(float)), 1)
        photon, jx, jz, parity = _observables(
            vec, (m, ladder, overlaps[0]),
            vec * (labels + c * c * m[:, None] ** 2) - (c * m)[:, None] * (vec @ (fock + fock.T)),
            vec[::-1] * (-1.0) ** (params.n_atoms + labels))
    else:
        photon, jz, jx, parity = _observables(
            vec, (m, ladder, None), vec @ a, vec * (-1.0) ** (np.arange(shape[0])[:, None] + odd))
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
    ), (nxt, codes), float((vec * vec).sum(axis=0)[2 * labels > nm].sum())


def solve_at_cutoff(params: ModelParams, n_max: int,
                    budget: int = DIMENSION_BUDGET) -> ExactSolution:
    """Ground-state observables at a fixed photon cutoff, in ECS or in the
    displaced basis about the mean-field centre, from a cold Lanczos start."""
    beta = _centre(params)
    return _solve(params, _cutoff(params, n_max, budget, beta), beta, None)[0]


def converge_cutoff(params: ModelParams, eps: float = LADDER_EPS,
                    budget: int = DIMENSION_BUDGET) -> ExactSolution:
    """Double the photon cutoff from N_MAX_START until the ground vector holds
    at most eps of its weight on the photon states labelled above n_max / 2,
    the states this cutoff added over the one before.

    The basis is ECS or displaced to the mean-field centre beta (see the
    module docstring), so a cutoff holds the field's fluctuations about it,
    and they fill the labels in order (on the Fock basis, beta = 0, the
    labels are photon numbers).  The budget bounds the dimension solved, P *
    (N + 1), and the P**2 entries of the dense photon matrices, on the P
    photon states: n_max + 1 in ECS and on the Fock basis, up to 2 * (n_max
    + 1) about two centres (basis_size).  A photon energy omega at or below _LANCZOS_TOL *
    N * hamiltonian_scale, the solver's resolution of E0, is a
    ConvergenceError before any cutoff is solved: there every photon number
    is degenerate to that resolution, and the photon state is whatever the
    Lanczos start leaves, weight on every label.  A bad eps, or a first
    cutoff above the budget, is a ParameterError from check_ladder.  Returns
    the observables at the final cutoff; converged is False when the budget
    stops the doubling first.
    """
    beta = _centre(params)
    eps = check_ladder(eps, (params.n_atoms,), budget, centred=lambda n: bool(beta))[0]
    resolution = _LANCZOS_TOL * params.n_atoms * params.hamiltonian_scale
    if not params.omega > resolution:
        raise ConvergenceError(
            f"photon energy omega = {params.omega:.6g} does not exceed the solver's resolution "
            f"{resolution:.6g} of E0 at N = {params.n_atoms}: the photon field is unresolved")
    # check_ladder checked the first cutoff against the budget, the loop each doubling
    sol, start, top = _solve(params, N_MAX_START, beta, None)
    while top > eps and max(basis_size(2 * sol.n_max_used, params.n_atoms, bool(beta))) <= budget:
        sol, start, top = _solve(params, 2 * sol.n_max_used, beta, start)
    return ExactSolution(**{**vars(sol), "converged": top <= eps})


def product_state_energy(params: ModelParams, mf: MeanFieldSolution) -> float:
    """Finite-N product-state energy per atom at the mean-field point: the
    thermodynamic value plus v*(1/4 - s_z**2)/N.  A rigorous variational
    upper bound on E0/N for every v and N."""
    s_z = mf.point.s_z
    return mf.energy_per_atom + params.v * (0.25 - s_z * s_z) / params.n_atoms
