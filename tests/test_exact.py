"""Finite-N diagonalization: decoupled limits, an independently built dense
Hamiltonian, solver-path consistency, and the variational product bound."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp

from extdicke import cli, exact
from extdicke.exact import (
    ConvergenceError,
    ExactSolution,
    converge_cutoff,
    product_state_energy,
    solve_at_cutoff,
)
from extdicke.meanfield import ground_state
from extdicke.model import N_MAX_START, ModelParams, ParameterError


def spin_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """J_z and J_x on the states m = -j..j in ascending order, j = n / 2."""
    j = 0.5 * n
    ms = np.arange(-j, j + 1.0)
    ladder = np.sqrt(j * (j + 1.0) - ms[:-1] * (ms[:-1] + 1.0))
    jp = np.diag(ladder, -1)  # raising operator in the m-ascending basis
    return np.diag(ms), 0.5 * (jp + jp.T)


def dense_reference(params: ModelParams, n_max: int = 0, photon=None) -> np.ndarray:
    """Independent construction via Kronecker products of dense operators,
    spin-major (|n, m> at (m + j) * photons + n): on the Fock basis truncated
    at n_max, or on a photon basis given as its (a^dag a, a + a^dag)."""
    n = params.n_atoms
    jz, jx = spin_matrices(n)
    if photon is None:
        a = np.diag(np.sqrt(np.arange(1.0, n_max + 1.0)), 1)
        photon = (a.T @ a, a + a.T)
    num, field = photon
    eye_f = np.eye(num.shape[0])
    eye_s = np.eye(n + 1)
    return (params.omega * np.kron(eye_s, num)
            + (params.lam / math.sqrt(n)) * np.kron(jx, field)
            + params.delta * np.kron(jz, eye_f)
            + params.omega_rabi * np.kron(jx, eye_f)
            + (params.v / n) * np.kron(jz @ jz, eye_f))


def ecs_terms(params: ModelParams, n_max: int):
    """The matrix of A (x) B on the extended coherent states |mu>_x D(-c mu)|n>,
    n <= n_max, c = lambda / (omega sqrt(N)), held mu-major (mu ascending),
    as a function of the spin matrix A and the Fock matrix B, and the Fock
    operators (a^dag a, a + a^dag).  Built apart from the solver: the J_x
    eigenvectors by eigh, phased so that <mu|J_z|mu + 1> > 0, and D(-c mu)
    by scipy's expm on a Fock space whose top the states do not reach."""
    from scipy.linalg import expm

    n = params.n_atoms
    jz, jx = spin_matrices(n)
    mu, vecs = np.linalg.eigh(jx)
    for k in range(1, n + 1):
        if vecs[:, k - 1] @ jz @ vecs[:, k] < 0.0:
            vecs[:, k] *= -1.0
    c = params.lam / (params.omega * math.sqrt(n))
    fock = n_max + 40 + int(4.0 * (c * n) ** 2)
    a = np.diag(np.sqrt(np.arange(1.0, fock + 1.0)), 1)
    states = np.array([expm(-c * x * (a.T - a))[:, :n_max + 1] for x in mu])

    def term(spin, photon):
        size = (n + 1) * (n_max + 1)
        return np.einsum("kl,kfi,fg,lgo->kilo", vecs.T @ spin @ vecs, states, photon, states,
                         optimize=True).reshape(size, size)

    return term, (a.T @ a, a + a.T)


def ecs_reference(params: ModelParams, n_max: int) -> np.ndarray:
    """H on the extended coherent states of ecs_terms."""
    term, (num, field) = ecs_terms(params, n_max)
    jz, jx = spin_matrices(params.n_atoms)
    eye_s, eye_f = np.eye(params.n_atoms + 1), np.eye(len(num))
    return (params.omega * term(eye_s, num)
            + (params.lam / math.sqrt(params.n_atoms)) * term(jx, field)
            + params.delta * term(jz, eye_f)
            + params.omega_rabi * term(jx, eye_f)
            + (params.v / params.n_atoms) * term(jz @ jz, eye_f))


def solver_reference(params: ModelParams, n_max: int) -> np.ndarray:
    """The dense H on the basis solve_at_cutoff uses at n_max: the extended
    coherent states where exact._centre gives None, else the photon basis
    displaced about the mean-field centre."""
    beta = exact._centre(params)
    if beta is None:
        return ecs_reference(params, n_max)
    return dense_reference(params, photon=exact._photon_basis(beta, n_max)[:2])


def test_basis_shape_and_validation():
    # the sectors at cutoff 5 hold every spin state x photon state once
    p = ModelParams(omega=1.0, lam=1.0, n_atoms=4)
    a, x, odd, _ = exact._photon_basis(exact._centre(p), 5)
    ops, _ = exact._operators(*exact._two_centre_terms(p, 0, a, x), odd, exact._spin_sectors(p))
    assert sum(op.shape[0] for op in ops) == 5 * odd.size
    assert solve_at_cutoff(p, 5).n_max_used == 5
    with pytest.raises(ParameterError, match="negative photon cutoff"):
        solve_at_cutoff(p, -1)


def dense(op) -> np.ndarray:
    """The matrix of a linear operator, from its action on the identity's
    columns."""
    return np.column_stack([op @ e for e in np.eye(op.shape[1])])


def sector_isometry(op, photons: int, spins: int) -> np.ndarray:
    """The isometry from a sector of exact._operators to the spin-major
    basis, read from its embedding: sector entry i is cr[i] |rep[i]> +
    cp[i] |par[i]>, flat positions of the spins x photons array."""
    rep, par, cr, cp = op.embedding
    q = np.zeros((spins * photons, op.shape[0]))
    i = np.arange(op.shape[0])
    q[rep, i] += cr
    q[par, i] += cp
    return q


def test_build_rejects_bad_inputs():
    p = ModelParams(omega=1.0, lam=1.0, n_atoms=6)
    with pytest.raises(ParameterError, match="budget"):
        solve_at_cutoff(p, 10, budget=50)


def test_fock_hamiltonian_memory_is_bounded_by_the_budget():
    # in the normal phase (beta = 0) the solver's photon basis is the Fock
    # basis, its a^dag a and a + a^dag are dense P x P matrices, P = n_max +
    # 1, and the budget bounds their P**2 entries as it bounds the
    # dimension: at N = 1 a cutoff of 1999 (dimension 4000) is refused at a
    # budget of 4000, and one whose P**2 fills the budget is solved within
    # 10 times one photon matrix's 8 * budget bytes (8.16 times measured)
    p = ModelParams(omega=1.0, lam=0.3, delta=1.0, n_atoms=1)
    assert exact._centre(p) == 0.0
    with pytest.raises(ParameterError, match="photon matrices of 4000000 entries exceed "
                       "the memory budget 4000$"):
        solve_at_cutoff(p, 1999, budget=4000)
    budget = 400 ** 2
    tracemalloc.start()
    try:
        sol = solve_at_cutoff(p, 399, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.n_max_used == 399
    assert peak <= 10 * 8 * budget
    with pytest.raises(ParameterError, match="photon matrices of 160801 entries exceed "
                       "the memory budget 160000$"):
        solve_at_cutoff(p, 400, budget=budget)


@pytest.mark.parametrize("call", [
    lambda p: solve_at_cutoff(p, 2.5),
    lambda p: solve_at_cutoff(p, math.nan),
    lambda p: solve_at_cutoff(p, math.inf),
    lambda p: solve_at_cutoff(p, True),
    lambda p: solve_at_cutoff(p, "4"),
], ids=["half", "nan", "inf", "bool", "str"])
def test_non_integer_cutoff_is_a_parameter_error(call):
    p = ModelParams(omega=1.0, lam=1.0, n_atoms=2)
    with pytest.raises(ParameterError, match="must be an integer"):
        call(p)


def test_integral_cutoff_of_any_type_is_the_integer_cutoff():
    p = ModelParams(omega=1.0, lam=0.8, delta=0.2, n_atoms=3)
    for n_max in (4.0, np.int64(4)):
        assert solve_at_cutoff(p, n_max) == solve_at_cutoff(p, 4)
        assert type(solve_at_cutoff(p, n_max).n_max_used) is int


def test_integral_float_atom_number_is_the_integer_atom_number():
    p = ModelParams(omega=1.0, lam=0.8, delta=0.2, n_atoms=4.0)
    assert type(p.n_atoms) is int and p.n_atoms == 4
    want = solve_at_cutoff(ModelParams(omega=1.0, lam=0.8, delta=0.2,
                                       n_atoms=4), 4)
    assert solve_at_cutoff(p, 4) == want
    assert type(solve_at_cutoff(p, 4).n_atoms) is int


@pytest.mark.parametrize("n_atoms,n_max,omega_rabi,delta", itertools.product(
    (1, 2, 3, 4), (0, 1, 3, 64), (0.0, 0.3), (0.0, 0.4)))
def test_sectors_are_orthogonal_complete_and_invariant(n_atoms, n_max,
                                                      omega_rabi, delta):
    # each sector is an isometry, the sectors split the basis between them,
    # and H has no matrix element between two of them: a wrong flip
    # partner or parity label breaks one of these even where it leaves the
    # two lowest levels alone.  On the Fock basis (beta = 0; a dense P = 65
    # basis at n_max = 64), on overlapping centres and on far-apart ones
    # (the closed forms)
    p = ModelParams(omega=1.0, lam=0.7, delta=delta, omega_rabi=omega_rabi,
                    v=-0.4, n_atoms=n_atoms)
    for beta in (0.0, 0.8, 9.0):
        a, x, odd, _ = exact._photon_basis(beta, n_max)
        h = dense_reference(p, photon=(a, x))
        hnorm = np.abs(h).sum(axis=1).max()
        ops, norm = exact._operators(*exact._two_centre_terms(p, 0, a, x), odd,
                                     exact._spin_sectors(p))
        assert norm == pytest.approx(hnorm, rel=1e-14)
        photons, dim = odd.size, h.shape[0]
        qs = [sector_isometry(op, photons, n_atoms + 1) for op in ops]
        for q in qs:
            assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-15
        assert np.abs(sum(q @ q.T for q in qs) - np.eye(dim)).max() <= 1e-15
        for i, j in itertools.permutations(range(len(qs)), 2):
            assert np.abs(qs[i].T @ qs[j]).max() <= 1e-15
            assert np.abs(qs[i].T @ h @ qs[j]).max() <= 1e-15 * hnorm
        # each sector is an eigenspace of the symmetries that define it: the
        # parity without a drive, and the spin flip at delta = 0 unless it
        # swaps the two parity sectors (odd N, no drive)
        k, photon = np.divmod(np.arange(dim), photons)
        symmetries = []
        if omega_rabi == 0.0:
            symmetries.append(np.diag((-1.0) ** (k + odd[photon])))
        if delta == 0.0 and (omega_rabi != 0.0 or n_atoms % 2 == 0):
            symmetries.append(np.eye(dim)[(n_atoms - k) * photons + photon])
        if not symmetries:
            assert len(qs) == 1
        for q in qs:
            for sym in symmetries:
                d = q.T @ sym @ q
                assert abs(abs(d[0, 0]) - 1.0) <= 1e-15
                assert np.abs(d - d[0, 0] * np.eye(q.shape[1])).max() <= 1e-15
        # each block applies Q.T H Q and is exactly symmetric (a block with
        # missing entries among them)
        rng = np.random.default_rng(n_atoms * 100 + n_max)
        for op, q in zip(ops, qs):
            v = rng.standard_normal(q.shape[1])
            assert np.abs(op @ v - q.T @ (h @ (q @ v))).max() \
                <= 1e-15 * hnorm * np.abs(v).sum()
            b = dense(op)
            assert (b == b.T).all()


@pytest.mark.parametrize("n_atoms,n_max,omega_rabi,delta", itertools.product(
    (1, 2, 3, 4, 5), (0, 1, 4, 9), (0.0, 0.3), (0.0, 0.4)))
def test_ecs_sectors_are_orthogonal_complete_and_invariant(n_atoms, n_max, omega_rabi,
                                                          delta):
    # the same checks on the ECS sectors (c = 0.1 and, at lambda = 0, c = 0),
    # against H, the parity (-1)**(a^dag a) exp(i pi (J_z + j)) and the flip
    # m -> -m, each built on the Fock basis and carried to the extended
    # coherent states by ecs_terms: every sector sign (the parity's pairs
    # mu, -mu by photon parity, the flip's rows by mu + j) is checked, with
    # the drive, v != 0 and both parities of N
    for c in (0.1, 0.0):
        p = ModelParams(omega=1.0, lam=c * math.sqrt(n_atoms), delta=delta,
                        omega_rabi=omega_rabi, v=-0.4, n_atoms=n_atoms)
        assert exact._centre(p) is None
        term, (num, _) = ecs_terms(p, n_max)
        h = ecs_reference(p, n_max)
        hnorm = np.abs(h).sum(axis=1).max()
        overlaps = [exact._displaced(d * c, n_max)[:n_max + 1] if c else np.eye(n_max + 1)
                    for d in (1, 2)]
        ops, norm = exact._operators(*exact._ecs_terms(p, 0, c, overlaps),
                                     np.arange(n_max + 1) % 2 == 1, exact._spin_sectors(p, True))
        assert norm == pytest.approx(hnorm, rel=1e-13)
        dim = h.shape[0]
        qs = [sector_isometry(op, n_max + 1, n_atoms + 1) for op in ops]
        for q in qs:
            assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-15
        assert np.abs(sum(q @ q.T for q in qs) - np.eye(dim)).max() <= 1e-15
        for i, j in itertools.permutations(range(len(qs)), 2):
            assert np.abs(qs[i].T @ h @ qs[j]).max() <= 1e-13 * hnorm
        symmetries = []
        spins = np.arange(n_atoms + 1)
        if omega_rabi == 0.0:
            symmetries.append(term(np.diag((-1.0) ** spins), np.diag((-1.0) ** np.arange(len(num)))))
        if delta == 0.0 and (omega_rabi != 0.0 or n_atoms % 2 == 0):
            symmetries.append(term(np.eye(n_atoms + 1)[::-1], np.eye(len(num))))
        if not symmetries:
            assert len(qs) == 1
        for q in qs:
            for sym in symmetries:
                d = q.T @ sym @ q
                assert abs(abs(d[0, 0]) - 1.0) <= 1e-13
                assert np.abs(d - d[0, 0] * np.eye(q.shape[1])).max() <= 1e-13
        rng = np.random.default_rng(n_atoms * 100 + n_max)
        for op, q in zip(ops, qs):
            v = rng.standard_normal(q.shape[1])
            assert np.abs(op @ v - q.T @ (h @ (q @ v))).max() <= 1e-13 * hnorm * np.abs(v).sum()
            b = dense(op)
            assert (b == b.T).all()


def test_bands_that_reach_a_matvec_are_counted():
    # a matvec takes one stacked product per photon matrix and one pass per
    # band, so these counts are its work: on the two-centre basis J_x at
    # d = +-1 shares one matrix (two bands); a driven ECS sector with v != 0
    # has G_+-1 and G_+-2, one band each
    p = ModelParams(omega=1.0, lam=1.0, delta=0.3, omega_rabi=0.3, v=-0.2, n_atoms=16)
    a, x, odd, _ = exact._photon_basis(exact._centre(p), 16)
    (op,), _ = exact._operators(*exact._two_centre_terms(p, 0, a, x), odd,
                                exact._spin_sectors(p))
    assert (len(op.x), len(op.bands)) == (1, 2)
    q = ModelParams(omega=10.0, lam=math.sqrt(10.0), delta=0.5, omega_rabi=0.3, v=-0.5,
                    n_atoms=32)
    assert exact._centre(q) is None
    c = q.lam / (q.omega * math.sqrt(q.n_atoms))
    overlaps = [exact._displaced(d * c, 8)[:9] for d in (1, 2)]
    (op,), _ = exact._operators(*exact._ecs_terms(q, 0, c, overlaps), np.arange(9) % 2 == 1,
                                exact._spin_sectors(q, True))
    assert (len(op.x), len(op.bands)) == (4, 4)


def test_converge_cutoff_rejects_bad_ladder_settings():
    p = ModelParams(omega=1.0, lam=1.0, n_atoms=2)
    # a NaN tolerance never reads as stable and an infinite one always does
    for eps in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ParameterError, match="tolerance"):
            converge_cutoff(p, eps=eps)


def test_decoupled_limit_is_a_spin_fock_state():
    # lam = 0: the photon stays in vacuum and the spin part is diagonal,
    # E0/N = min_m (delta*m + v*m^2/N)/N
    p = ModelParams(omega=1.0, lam=0.0, delta=0.7, omega_rabi=0.0, v=-0.3,
                    n_atoms=6)
    sol = solve_at_cutoff(p, n_max=4)
    assert sol.energy_per_atom == pytest.approx(-0.7 / 2.0 - 0.3 / 4.0,
                                                abs=1e-12)
    assert sol.photon_number == pytest.approx(0.0, abs=1e-12)
    assert sol.jz == pytest.approx(-3.0, abs=1e-10)


def test_rabi_only_limit():
    p = ModelParams(omega=1.0, lam=0.0, delta=0.0, omega_rabi=0.9, n_atoms=4)
    sol = solve_at_cutoff(p, n_max=2)
    assert sol.energy_per_atom == pytest.approx(-0.45, abs=1e-12)
    assert sol.jx == pytest.approx(-2.0, abs=1e-10)


def test_matches_independent_dense_construction():
    p = ModelParams(omega=1.0, lam=0.6, delta=0.3, omega_rabi=0.2, v=-0.4,
                    n_atoms=2)
    n_max = 60
    want = np.linalg.eigvalsh(dense_reference(p, n_max))[0]
    sol = solve_at_cutoff(p, n_max=n_max)
    assert sol.energy == pytest.approx(want, abs=1e-10)

    p2 = ModelParams(omega=2.0, lam=1.1, delta=-0.5, omega_rabi=0.7, v=0.8,
                     n_atoms=3)
    want2 = np.linalg.eigvalsh(dense_reference(p2, 50))[0]
    assert solve_at_cutoff(p2, n_max=50).energy == pytest.approx(want2,
                                                                 abs=1e-10)


def test_sparse_path_agrees_with_dense_path():
    # the one driven sector on the Fock basis at cutoff 66: dimension 67*31
    # = 2077 is far above the 30-vector Krylov basis, so the Lanczos run
    # restarts many times; compare against a direct dense solve here
    p = ModelParams(omega=1.0, lam=1.2, delta=0.4, omega_rabi=0.1, v=-0.5,
                    n_atoms=30)
    a, x, odd, _ = exact._photon_basis(0.0, 66)
    (h,), hnorm = exact._operators(*exact._two_centre_terms(p, 0, a, x), odd,
                                   exact._spin_sectors(p))
    assert h.shape[0] == 2077
    d = dense(h)
    assert hnorm == pytest.approx(np.abs(d).sum(axis=1).max(), rel=1e-14)
    levels, vecs = exact._lowest_levels(h, hnorm, None)
    e_dense = np.linalg.eigvalsh(d)[0]
    assert levels[0] == pytest.approx(e_dense, abs=1e-8)
    assert np.linalg.norm(h @ vecs[:, 0] - levels[0] * vecs[:, 0]) < 1e-7


def test_ground_pair_residual_guard():
    p = ModelParams(omega=1.0, lam=0.8, delta=0.25, n_atoms=10)
    a, x, odd, _ = exact._photon_basis(exact._centre(p), 20)
    ops, hnorm = exact._operators(*exact._two_centre_terms(p, 0, a, x), odd,
                                  exact._spin_sectors(p))
    e0, _, vec, _ = exact._solve_sectors(ops, hnorm, (11, odd.size))
    h = dense_reference(p, photon=(a, x))
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-10
    assert np.linalg.norm(h @ vec.ravel() - e0 * vec.ravel()) < 1e-8


def test_sector_solves_match_dense_reference():
    # at omega_rabi = 0 the solve runs per parity sector; E0 and E1 are the
    # two lowest levels of H whichever sectors they come from.  In the first
    # case both lie in the even sector (gap 8.9e-4), so one level per sector
    # would report the odd ground state as E1.
    rng = random.Random(31)
    cases = [ModelParams(omega=1.0, lam=0.3, delta=0.0, v=-1.0, n_atoms=4)]
    for i in range(29):
        cases.append(ModelParams(
            omega=1.0, lam=rng.uniform(0.0, 1.5),
            delta=(-1.0) ** i * rng.uniform(0.0, 1.5),
            v=(-1.0) ** (i // 2) * rng.uniform(0.0, 2.0),
            n_atoms=1 + i % 7))
    for p in cases:
        want = np.linalg.eigvalsh(solver_reference(p, 12))[:2]
        sol = solve_at_cutoff(p, n_max=12)
        assert sol.energy == pytest.approx(want[0], abs=1e-10)
        assert sol.gap == pytest.approx(want[1] - want[0], abs=1e-10)
    # n_max = 0 and N = 1: two one-state sectors, one level each
    p = ModelParams(omega=1.0, lam=0.5, delta=0.3, v=0.2, n_atoms=1)
    want = np.linalg.eigvalsh(solver_reference(p, 0))
    sol = solve_at_cutoff(p, n_max=0)
    assert sol.energy == pytest.approx(want[0], abs=1e-12)
    assert sol.gap == pytest.approx(want[1] - want[0], abs=1e-12)


def _dense_levels(p: ModelParams, n_max: int) -> tuple[float, float, float]:
    """E0, E1 - E0 and ||H||_inf of the independently built dense H on the
    solver's basis at n_max."""
    h = solver_reference(p, n_max)
    w = np.linalg.eigvalsh(h)
    return w[0], w[1] - w[0], float(np.abs(h).sum(axis=1).max())


def test_spin_flip_symmetric_cases_match_dense():
    # at delta = 0 the spin flip m -> -m is a symmetry, with or without a
    # drive, and the flat vector lies in its even class: Lanczos on a whole
    # parity sector from the flat vector alone never sees the odd class,
    # so its gap is wrong whenever E1 is flip-odd
    rng = random.Random(47)
    for i in range(60):
        p = ModelParams(omega=1.0, lam=rng.uniform(0.0, 2.0), delta=0.0,
                        omega_rabi=(0.0, 0.3)[i % 2], v=rng.uniform(-2.0, 1.0),
                        n_atoms=rng.randint(2, 30))
        n_max = rng.randint(1, 30)
        e0, gap, hnorm = _dense_levels(p, n_max)
        sol = solve_at_cutoff(p, n_max)
        assert abs(sol.energy - e0) <= 1e-9 * hnorm, (p, n_max)
        assert abs(sol.gap - gap) <= 1e-9 * hnorm, (p, n_max)
    # the smallest bases: one-state halves, and an empty flip-odd half
    # (N = 2, n_max = 0: the odd parity sector is |0, m = 0> alone)
    for n_atoms, n_max, rabi in itertools.product((1, 2), (0, 1), (0.0, 0.3)):
        p = ModelParams(omega=1.0, lam=0.7, delta=0.0, omega_rabi=rabi,
                        v=-0.4, n_atoms=n_atoms)
        e0, gap, hnorm = _dense_levels(p, n_max)
        sol = solve_at_cutoff(p, n_max)
        assert abs(sol.energy - e0) <= 1e-12 * hnorm, (p, n_max)
        assert abs(sol.gap - gap) <= 1e-12 * hnorm, (p, n_max)


def test_spin_flip_symmetric_ladders_match_dense_at_final_cutoff():
    # warm-started ladders carry psi0 + psi1 from cutoff to cutoff.  With
    # strong attraction (v < 0) the ground state is a flip doublet split by
    # as little as 1e-15: both states must be found (the second one is
    # E1), and the reported one is a flip eigenstate, so <J_z> = 0.  Even N
    # keeps the doublet inside one parity sector.
    rng = random.Random(53)
    for i in range(8):
        p = ModelParams(omega=10.0, lam=rng.uniform(0.4, 2.3), delta=0.0,
                        omega_rabi=(0.0, 0.3)[i % 2], v=rng.uniform(-2.0, -0.5),
                        n_atoms=2 * rng.randint(1, 30))
        sol = converge_cutoff(p)
        e0, gap, hnorm = _dense_levels(p, sol.n_max_used)
        assert abs(sol.energy - e0) <= 1e-9 * hnorm, p
        assert abs(sol.gap - gap) <= 1e-9 * hnorm, p
        assert abs(sol.jz) <= 1e-9 * p.n_atoms, p


@pytest.mark.parametrize("n_atoms,n_max,v", [(4, 3, -1.0), (40, 40, -1.0),
                                             (40, 0, 0.0)])
def test_exactly_degenerate_ground_level_has_zero_gap(n_atoms, n_max, v):
    # lam = delta = 0: H is diagonal.  With v < 0, |0, m = +j> and
    # |0, m = -j> share the ground energy v*N/4 and the even parity sector,
    # so the true gap is 0; the spin flip puts their sum and difference in
    # different sectors.  At (4, 3) every sector fits in the Krylov basis.
    # With v = 0 and n_max = 0, H = 0: every Lanczos step breaks down
    # (beta = 0), and only the generic restarts fill a sector
    # (the Fock-basis H is diagonal here; the solver's ECS basis spans the
    # same states)
    p = ModelParams(omega=1.0, lam=0.0, delta=0.0, v=v, n_atoms=n_atoms)
    h = dense_reference(p, n_max)
    w = np.linalg.eigvalsh(h)
    e0, gap, hnorm = w[0], w[1] - w[0], np.abs(h).sum(axis=1).max()
    assert gap == 0.0
    sol = solve_at_cutoff(p, n_max)
    assert abs(sol.energy - e0) <= 1e-9 * hnorm
    assert abs(sol.gap) <= 1e-9 * hnorm
    assert sol.parity == pytest.approx(1.0, abs=1e-12)


def test_generic_vector_is_deterministic_full_rank_and_asymmetric():
    draw = exact._generic_vector(41, 0)
    assert draw.shape == (41,)
    assert np.array_equal(draw, exact._generic_vector(41, 0))
    assert not np.array_equal(draw, exact._generic_vector(41, 1))
    assert np.abs(draw).max() <= 0.5
    # with H = 0 every Lanczos step breaks down, and the draws alone must
    # span a sector: 41 draws at dimension 41 have full numerical rank
    sv = np.linalg.svd([exact._generic_vector(41, k) for k in range(41)],
                       compute_uv=False)
    assert sv[-1] > 1e-3 * sv[0]
    # no spin-flip or other reversal symmetry for a symmetric start to keep
    assert not np.allclose(draw, draw[::-1])
    assert not np.allclose(draw, -draw[::-1])


class _CountingMatrix:
    """A sector matrix that counts its matrix-vector products."""

    def __init__(self, h):
        self.h = h
        self.shape = h.shape
        self.matvecs = 0

    def __matmul__(self, x):
        self.matvecs += 1
        return self.h @ x


def _check_levels(h, hnorm, levels, vecs):
    """Orthonormal Ritz vectors to 1e-12, residuals to 1e-13 * hnorm."""
    assert np.abs(vecs.T @ vecs - np.eye(vecs.shape[1])).max() <= 1e-12
    for theta, x in zip(levels, vecs.T):
        assert np.linalg.norm(h @ x - theta * x) <= 1e-13 * hnorm


def test_lanczos_breakdown_finds_a_doubled_level_twice():
    # 20 distinct levels, each doubled: the Krylov space of one start vector
    # has dimension 20, so beta vanishes at step 20 before the 30-vector
    # basis fills, and only the generic continuation finds the second copy
    h = sp.diags(np.repeat(np.arange(20.0), 2)).tocsr()
    levels, vecs = exact._lowest_levels(h, 19.0, None)
    assert np.abs(levels).max() <= 1e-12 * 19.0
    _check_levels(h, 19.0, levels, vecs)


# The sha256 of 64 converge_cutoff ladders (odd and even N, the delta = 0
# flip sectors, the drive and the J_z**2 term; N = 15 and 16 in extended
# coherent states, the rest about two centres) and of the breakdown run
# above, levels and vectors: the finite-N path bit for bit.  Its floats come
# out of numpy's BLAS reductions, so the digest holds for one numpy/OpenBLAS
# build, one OpenBLAS kernel family and one thread count (recorded with numpy
# 2.4.6, OpenBLAS 0.3.31, and the Haswell kernels on one thread that
# conftest.py selects on x86-64).
_FINITE_N_BATTERY = "e049b25de7c001a0789cafd87d6c125a8a5b9a254a79ce0e7eb098ea9d0de153"


def test_finite_n_answers_are_pinned_bit_for_bit():
    digest = hashlib.sha256()
    for n, delta, rabi, v in itertools.product((1, 2, 3, 4, 7, 8, 15, 16), (0.0, 0.5),
                                               (0.0, 0.3), (0.0, -0.5)):
        p = ModelParams(omega=10.0, lam=1.5 * math.sqrt(10.0), delta=delta,
                        omega_rabi=rabi, v=v, n_atoms=n)
        digest.update(repr(vars(converge_cutoff(p))).encode())
    h = sp.diags(np.repeat(np.arange(20.0), 2)).tocsr()
    levels, vecs = exact._lowest_levels(h, 19.0, None)
    digest.update(levels.tobytes() + vecs.tobytes())
    assert digest.hexdigest() == _FINITE_N_BATTERY


def test_lanczos_restarts_match_dense_levels(monkeypatch):
    # at the default sizes, and with a basis that grows at every restart
    # (30, 60, then 120 vectors), as a run's does after it stalls
    rng = np.random.default_rng(5)
    a = sp.random(1500, 1500, density=0.004, random_state=rng)
    h = (a + a.T).tocsr()
    hnorm = float(abs(h).sum(axis=1).max())
    want = np.linalg.eigvalsh(h.toarray())[:2]
    eigh = np.linalg.eigh
    for grow_every, first in ((exact._GROW_EVERY, [30, 30, 30]), (1, [30, 60, 120])):
        monkeypatch.setattr(exact, "_GROW_EVERY", grow_every)
        sizes = []  # the Krylov basis of each cycle
        monkeypatch.setattr(np.linalg, "eigh", lambda m: sizes.append(len(m)) or eigh(m))
        counted = _CountingMatrix(h)
        levels, vecs = exact._lowest_levels(counted, hnorm, None)
        monkeypatch.undo()
        assert sizes[:3] == first  # several restarts
        assert np.abs(levels - want).max() <= 1e-12 * hnorm
        _check_levels(h, hnorm, levels, vecs)


def test_stalled_lanczos_grows_its_basis_and_converges():
    # a normal field 0.14 % above a lobe edge at S / omega = 2.9e3: at
    # cutoff 128 (a sector of 4193 states) a 30-vector basis does not
    # converge within 1000 restarts, and a grown one does in a few seconds.
    # The budget stops the ladder there with weight left above label 64
    # (c = 6.7: on the Fock basis)
    p = ModelParams(omega=1.0, lam=53.98013925896088, delta=2918.0400025349118, n_atoms=64)
    assert exact._centre(p) == 0.0
    start = time.perf_counter()
    sol = converge_cutoff(p, budget=129 ** 2)
    assert time.perf_counter() - start <= 10.0
    assert (sol.n_max_used, sol.converged) == (128, False)
    assert sol.photon_number == pytest.approx(5.700642, rel=1e-6)
    assert repr(vars(sol)) == (
        "{'energy': -93377.76041198849, 'energy_per_atom': -1459.0275064373202, "
        "'photon_number': 5.700642243976171, 'jz': -31.99788227720102, 'jx': 0.0, "
        "'parity': 0.9999999999999869, 'gap': 0.04037242477352265, 'n_max_used': 128, "
        "'n_atoms': 64, 'converged': False}")


def test_large_c_stays_on_the_two_centre_basis():
    # where S >> omega (c = 11) the ECS rows couple only through <n|D(c)|n'>
    # near n ~ c**2 = 125: ECS at cutoff 8 holds 2e-27 of its weight above
    # label 4, which the ladder would take as converged, and its E0 is 50 %
    # high.  The ladder stays on the Fock basis (beta = 0)
    p = ModelParams(omega=1.0, lam=math.sqrt(999.0), delta=1e3, n_atoms=8)
    assert p.lam / (p.omega * math.sqrt(p.n_atoms)) > 11.0 and exact._centre(p) == 0.0
    sol = converge_cutoff(p)
    assert repr(vars(sol)) == (
        "{'energy': -4000.4744383698207, 'energy_per_atom': -500.0593047962276, "
        "'photon_number': 3.6032195688867703, 'jz': -3.9959342303159238, 'jx': 0.0, "
        "'parity': 1.0000000000000155, 'gap': 0.06084357768213522, 'n_max_used': 256, "
        "'n_atoms': 8, 'converged': True}")
    ecs, _, top = exact._solve(p, N_MAX_START, None, None)
    assert top < 1e-26
    assert ecs.energy - sol.energy > 0.49 * abs(sol.energy)


# Ladders that climb past the first cutoff, so that every later rung starts
# warm from the one before: the lobe edge at N = 64 (c = 0.1, in extended
# coherent states) without a drive and with a weak one (cutoffs 8, 16).
_WARM_LADDERS = [ModelParams(omega=1.0, lam=0.8, delta=0.74, v=0.1, omega_rabi=rabi,
                             n_atoms=64) for rabi in (0.0, 0.01)]
# sha256 of their repr(vars(converge_cutoff(p))), in order (the same build
# caveat as _FINITE_N_BATTERY above; recorded on one thread, and the same on
# two)
_WARM_LADDER_DIGEST = "52e7520af8418115f3b27310c57989444e5c40a04983e30e5b89606726d37bde"


def test_warm_ladders_are_pinned_bit_for_bit():
    digest = hashlib.sha256()
    for p in _WARM_LADDERS:
        digest.update(repr(vars(converge_cutoff(p))).encode())
    assert digest.hexdigest() == _WARM_LADDER_DIGEST


@pytest.mark.parametrize("params,recorded", [
    (ModelParams(omega=10.0, lam=0.5 * math.sqrt(7.5), delta=0.75,
                 n_atoms=64), 180),
    (ModelParams(omega=10.0, lam=1.5 * math.sqrt(10.0), delta=0.5,
                 n_atoms=64), 180),
    (ModelParams(omega=10.0, lam=1.02 * math.sqrt(10.0), delta=0.5,
                 omega_rabi=0.3, n_atoms=64), 110),
    (_WARM_LADDERS[0], 400),
    (_WARM_LADDERS[1], 260),
], ids=["normal", "superradiant", "driven", "lobe-edge", "lobe-edge-driven"])
def test_lanczos_work_per_ladder_is_pinned(monkeypatch, params, recorded):
    # matvecs over a whole converge_cutoff ladder, within 10 % of the count
    # recorded for this solver: a cheaper step must not buy more iterations.
    # All five are solved in extended coherent states.  The first three stop
    # at the first cutoff; on the lobe-edge ladders the warm starts save work
    # (every rung started cold takes 520 and 340)
    counted = []
    solve = exact._lowest_levels

    def counting(h, hnorm, start):
        counted.append(_CountingMatrix(h))
        return solve(counted[-1], hnorm, start)

    monkeypatch.setattr(exact, "_lowest_levels", counting)
    assert converge_cutoff(params).converged
    assert abs(sum(c.matvecs for c in counted) - recorded) <= 0.1 * recorded


def test_residual_guard_reports_the_bound_it_applies(monkeypatch):
    # the guard's bound is _RESIDUAL_TOL * ||H||_inf, relative at every
    # coupling scale (here ||H||_inf < 1).  It passes a pair converged to
    # the Lanczos resolution (restarted runs on two parity sectors of about
    # 2100 states) and trips on a ground vector spoiled by 1e-6
    # (on the two-centre basis about the mean-field centre, which the ladder
    # leaves for ECS at this c)
    q = ModelParams(omega=10.0, lam=1.5 * math.sqrt(10.0), delta=0.5, n_atoms=64)
    a, x, odd, _ = exact._photon_basis(8.0 * abs(ground_state(q).alpha), 32)
    terms = exact._two_centre_terms(q, 0, a, x)
    ops, hnorm = exact._operators(*terms, odd, exact._spin_sectors(q))
    e0, _, vec, _ = exact._solve_sectors(ops, hnorm, (65, odd.size))
    # the whole basis, as the one sector of q with a drive
    whole, = exact._operators(*terms, odd, exact._spin_sectors(q.replace(omega_rabi=1.0)))[0]
    converged = np.linalg.norm(whole @ vec.ravel() - e0 * vec.ravel()) / hnorm
    p = ModelParams(omega=0.05, lam=0.02, delta=0.03, v=0.01, n_atoms=2)
    hnorm = np.abs(dense_reference(p, 4)).sum(axis=1).max()  # normal: Fock
    assert hnorm < 1.0
    lowest = exact._lowest_levels

    def spoiled(sub, hnorm, start):
        w, s = lowest(sub, hnorm, start)
        s = s.copy()
        s[0] += 1e-6
        return w, s

    monkeypatch.setattr(exact, "_lowest_levels", spoiled)
    with pytest.raises(ConvergenceError) as err:
        solve_at_cutoff(p, 4)
    message = str(err.value)
    tol = exact._RESIDUAL_TOL
    assert message.endswith(f"exceeds {tol:g} * ||H|| = {tol * hnorm:.3e}")
    assert converged < tol < float(message.split()[2]) / hnorm


def test_lanczos_nonconvergence_is_a_convergence_error(monkeypatch, capsys):
    # with no restart allowed a 30-vector basis cannot resolve this doublet
    monkeypatch.setattr(exact, "_MAX_RESTARTS", 0)
    p = ModelParams(omega=10.0, lam=1.5 * math.sqrt(10.0), delta=0.5,
                    n_atoms=16)
    with pytest.raises(ConvergenceError, match="did not converge"):
        solve_at_cutoff(p, 16)
    argv = ["exact-check", "--omega", "10", "--lambda", repr(p.lam),
            "--delta", "0.5", "--n-list", "16"]
    assert cli.main(argv) == cli.EXIT_CONVERGENCE
    assert capsys.readouterr().err.startswith("error: Lanczos did not converge")


def test_parity_is_definite_and_deterministic():
    # a superradiant tunnelling doublet, and an exact cross-sector tie (odd
    # N at delta = 0: the spin flip m -> -m changes the parity), where the
    # even sector is reported
    doublet = converge_cutoff(ModelParams(
        omega=10.0, lam=1.5 * math.sqrt(10.0), delta=0.5, n_atoms=64))
    tie = converge_cutoff(ModelParams(omega=1.0, lam=0.3, delta=0.0, v=-1.0,
                                      n_atoms=5))
    for sol in (doublet, tie):
        assert sol.converged
        assert abs(abs(sol.parity) - 1.0) < 1e-12
        assert sol.gap >= 0.0
    assert tie.parity == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", _WARM_LADDERS, ids=["lobe-edge", "lobe-edge-driven"])
def test_warm_ladder_matches_cold_solve(p):
    # converge_cutoff warm-starts each cutoff from the previous one; a plain
    # solve_at_cutoff at the final cutoff starts cold
    warm = converge_cutoff(p)
    cold = solve_at_cutoff(p, warm.n_max_used)
    assert warm.n_max_used > N_MAX_START
    assert warm.energy == pytest.approx(cold.energy, rel=1e-12)


def test_parity_is_definite_for_unique_ground_state():
    p = ModelParams(omega=10.0, lam=math.sqrt(10.0), delta=0.5, n_atoms=12)
    sol = converge_cutoff(p)
    assert sol.converged
    assert abs(sol.parity) > 1.0 - 1e-6


def test_convergence_flag_under_budget_pressure():
    # superradiant near the lobe edge: the ground vector holds 1.9e-7 of
    # its weight above label 4 at cutoff 8 and 9e-15 above label 8 at 16.
    # The first cutoff's 18 photon states about two centres need 18**2 =
    # 324 matrix entries and the second's 34**2 = 1156, so a budget below
    # 1156 returns the first cutoff unconverged
    p = ModelParams(omega=1.0, lam=1.2, delta=0.5, n_atoms=6)
    ok = converge_cutoff(p, budget=1156)
    assert (ok.n_max_used, ok.converged) == (16, True)
    assert converge_cutoff(p) == ok
    for budget in (324, 1155):
        starved = converge_cutoff(p, budget=budget)
        assert (starved.n_max_used, starved.converged) == (8, False)
        assert starved.energy == pytest.approx(ok.energy, rel=1e-12)


def test_displaced_basis_holds_a_strong_drive_field_at_the_first_cutoff():
    # a strong drive sets the unit of H, and the photon field, alpha**2 =
    # u * N / (4 * omega) = 256 photons, would need a Fock cutoff far above
    # 256.  The displaced basis holds the field about its centre, so its
    # cutoff counts the fluctuations: 2.6e-12 of the weight lies above
    # label 4, and the ladder stops at its first cutoff
    p = ModelParams(omega=1.0, lam=16.0, omega_rabi=1e10, n_atoms=4)
    sol = converge_cutoff(p)
    assert sol.converged and sol.photon_number == pytest.approx(256.0, rel=1e-5)
    assert sol.n_max_used == N_MAX_START


@pytest.mark.parametrize("lam,n_atoms,photons", [(8.0, 4, 64.0), (8.0, 8, 128.0),
                                               (4.0, 8, 32.0)])
def test_mean_field_photon_number_holds_a_truncated_field_open(lam, n_atoms, photons):
    # as above, with N * alpha**2 = u * N / 4 photons: a Fock cutoff of 16
    # would truncate the field (its <a^dag a> read 12.5 of 64).  The
    # displaced basis holds the whole field
    p = ModelParams(omega=1.0, lam=lam, omega_rabi=1e10, n_atoms=n_atoms)
    sol = converge_cutoff(p)
    assert sol.converged and abs(sol.photon_number - photons) <= 1e-3


def test_ladder_that_cannot_converge_is_refused_before_any_cutoff(monkeypatch):
    # N * alpha**2 = 8 photons: the displaced basis holds them at the first
    # cutoff (a Fock cutoff of 8 could not, and this ladder used to be
    # refused), so a budget that allows only that cutoff converges there.
    # Cutoff n about two centres has P = 2 * (n + 1) photon states, and the
    # budget bounds both P * (N + 1) and the P**2 entries of their dense
    # matrices: 324 at n = 8.  A photon energy below the solver's
    # resolution is refused before any cutoff is solved; a first cutoff
    # above the budget stays a ParameterError from check_ladder
    p = ModelParams(omega=1.0, lam=4.0, n_atoms=2)
    assert p.n_atoms * ground_state(p).photon_density == 8.0
    one = converge_cutoff(p, budget=324)
    assert (one.n_max_used, one.converged) == (N_MAX_START, True)
    assert converge_cutoff(p) == one
    assert converge_cutoff(p.replace(lam=0.0), budget=81).n_max_used == N_MAX_START

    def unexpected(*args):
        raise AssertionError("a cutoff was solved")

    monkeypatch.setattr(exact, "_solve", unexpected)
    with pytest.raises(ConvergenceError, match="omega = 1 does not exceed the solver's "
                       "resolution .* at N = 2: the photon field is unresolved$"):
        converge_cutoff(p.replace(v=1e14))
    with pytest.raises(ParameterError, match="atom number 2 needs 54 basis states at the "
                       "first photon cutoff 8, above the memory budget 53$"):
        converge_cutoff(p, budget=53)
    with pytest.raises(ParameterError, match="atom number 2 needs 324 photon matrix entries "
                       "at the first photon cutoff 8, above the memory budget 323$"):
        converge_cutoff(p, budget=323)
    # on the Fock basis (no field) the first cutoff has 9 * 3 states and
    # 9**2 photon matrix entries
    with pytest.raises(ParameterError, match="atom number 2 needs 81 photon matrix entries "
                       "at the first photon cutoff 8, above the memory budget 80$"):
        converge_cutoff(p.replace(lam=0.0), budget=80)


@pytest.mark.parametrize("lam,top", [(4.0, 256), (0.0, 512)], ids=["displaced", "fock"])
def test_the_budget_bounds_every_cutoff_of_the_ladder(monkeypatch, lam, top):
    # at N = 1 the P photon states' dense matrices stop the doubling before
    # the dimension does, at P**2 <= 400000: on the Fock basis P = n + 1
    # (n 512, P 513), about two centres P = 2 * (n + 1) (n 256, P 514).
    # A ladder whose top half never empties climbs to the top cutoff and
    # stops
    p = ModelParams(omega=1.0, lam=lam, n_atoms=1)
    sol = solve_at_cutoff(p, N_MAX_START)
    solved = []

    def unsettled(params, nm, beta, start):
        solved.append(nm)
        return ExactSolution(**{**vars(sol), "n_max_used": nm}), None, 0.5

    monkeypatch.setattr(exact, "_solve", unsettled)
    last = converge_cutoff(p)
    assert solved == [N_MAX_START * 2 ** i for i in range(len(solved))]
    assert (last.n_max_used, last.converged) == (top, False)


def test_ladder_stops_at_the_first_cutoff_whose_top_half_holds_at_most_eps(monkeypatch):
    # the rule reads only the ground vector's weight above half the cutoff:
    # E0 drifts by a whole unit at every cutoff, and the weight is 1e-3 at
    # n_max 8, 2e-8 at 16 and exactly eps at 32, where the ladder stops
    p = ModelParams(omega=1.0, lam=4.0, n_atoms=2)
    sol = solve_at_cutoff(p, N_MAX_START)
    top = {8: 1e-3, 16: 2e-8, 32: 1e-8, 64: 0.0}

    def held(params, nm, beta, start):
        return ExactSolution(**{**vars(sol), "energy": float(nm), "n_max_used": nm}), None, top[nm]

    monkeypatch.setattr(exact, "_solve", held)
    last = converge_cutoff(p, eps=1e-8)
    assert (last.n_max_used, last.energy, last.converged) == (32, 32.0, True)


@pytest.mark.parametrize("params,n_max,eps,moved", [
    # the lobe edge at N = 16 holds 9.2e-5, 7.0e-8 and 3.5e-15 of its
    # weight above half of cutoffs 8, 16 and 32
    (ModelParams(omega=1.0, lam=0.8, delta=0.74, v=0.1, n_atoms=16), 32, 1e-7, 16),
    # the driven onset (u = 1, v = -1.5, omega_rabi = 0.5) at omega = 3, N =
    # 16, on the two-centre basis (c = 0.144), holds 4.7e-9 above half of
    # cutoff 8.  (At omega = 10, N = 256 it is solved in ECS, which holds
    # 4.8e-18 there.)
    (ModelParams(omega=3.0, lam=math.sqrt(3.0), omega_rabi=0.5, v=-1.5, n_atoms=16),
     8, 1e-9, 16),
], ids=["lobe-edge", "driven-onset"])
def test_ladder_eps_window(params, n_max, eps, moved):
    # the default eps stops both ladders where they are held, so any
    # LADDER_EPS in [4.7e-9, 7.0e-8) gives the same cutoffs; a tenfold
    # larger eps stops the lobe edge a cutoff early, a tenfold smaller one
    # the onset a cutoff late
    for tol, want in ((exact.LADDER_EPS, n_max), (eps, moved)):
        sol = converge_cutoff(params, eps=tol)
        assert (sol.n_max_used, sol.converged) == (want, True)


def test_ladder_holds_a_normal_field_where_the_coupling_scale_dwarfs_omega():
    # u / delta = 1 - 3e-4 at delta = 1e10: the normal phase (alpha = 0, so
    # the Fock basis) just inside its lobe edge, where the field is
    # squeezed.  The ground vector holds 1.7e-2 to 3.2e-2 of its weight
    # above half of every cutoff from 8 to 128, so the ladder climbs to the
    # budget's top cutoff, 128 here, and says it has not converged.  E0
    # moves by omega-sized amounts between cutoffs, far below
    # eps * max(|E0|, S) = 400, so a ladder that read E0 stopped at 16 with
    # 1.80 photons, where a cutoff of 64 holds 7.33
    d = 1e10
    p = ModelParams(omega=1.0, lam=math.sqrt(d * (1.0 - 3e-4)), delta=d, n_atoms=8)
    start = time.perf_counter()
    sol = converge_cutoff(p, budget=129 ** 2)
    assert time.perf_counter() - start < 1.0
    assert (sol.n_max_used, sol.converged) == (128, False)
    assert sol.photon_number >= solve_at_cutoff(p, 64).photon_number


def test_product_state_is_an_upper_bound():
    rng = random.Random(21)
    for _ in range(12):
        p = ModelParams(omega=1.0, lam=rng.uniform(0.0, 1.5),
                        delta=rng.uniform(-1.5, 1.5),
                        omega_rabi=rng.uniform(0.0, 1.0),
                        v=rng.uniform(-2.0, 2.0), n_atoms=6)
        mf = ground_state(p)
        bound = product_state_energy(p, mf)
        sol = converge_cutoff(p)
        scale = max(1.0, abs(bound))
        assert sol.energy_per_atom <= bound + 1e-9 * scale


def test_product_bound_equals_mean_field_when_v_zero():
    p = ModelParams(omega=1.0, lam=1.1, delta=0.3, omega_rabi=0.2, v=0.0,
                    n_atoms=7)
    mf = ground_state(p)
    assert product_state_energy(p, mf) == pytest.approx(mf.energy_per_atom,
                                                        abs=1e-15)


def test_finite_size_gap_to_mean_field_shrinks():
    p = ModelParams(omega=10.0, lam=math.sqrt(10.0), delta=0.5, n_atoms=4)
    mf = ground_state(p)
    drift4 = abs(converge_cutoff(p).energy_per_atom - mf.energy_per_atom)
    drift8 = abs(converge_cutoff(p.replace(n_atoms=8)).energy_per_atom
                 - mf.energy_per_atom)
    assert drift8 < drift4


def test_observable_ranges():
    p = ModelParams(omega=1.0, lam=1.4, delta=-0.3, omega_rabi=0.4, v=-0.8,
                    n_atoms=8)
    sol = converge_cutoff(p)
    assert sol.gap >= 0.0
    assert sol.photon_number >= 0.0
    assert abs(sol.jz) <= 4.0 + 1e-10
    assert abs(sol.jx) <= 4.0 + 1e-10
    assert -1.0 <= sol.parity <= 1.0
    assert sol.m_over_n == pytest.approx(2.0 * sol.jz / 8.0, abs=1e-15)
    assert sol.photon_density == pytest.approx(sol.photon_number / 8.0,
                                               abs=1e-15)


# --- extended coherent states (ECS) ----------------------------------------

def two_centre_ladder(p: ModelParams) -> ExactSolution:
    """converge_cutoff on the two-centre basis about the mean-field centre,
    whatever c is."""
    beta = math.sqrt(p.n_atoms) * abs(ground_state(p).alpha)
    sol, start, top = exact._solve(p, N_MAX_START, beta, None)
    while top > exact.LADDER_EPS and sol.n_max_used < 1024:
        sol, start, top = exact._solve(p, 2 * sol.n_max_used, beta, start)
    return ExactSolution(**{**vars(sol), "converged": top <= exact.LADDER_EPS})


def _ecs_battery(count: int = 216) -> list[ModelParams]:
    """Seeded couplings in the ECS region (c = lambda / (omega sqrt(N)) <=
    _ECS_MAX_C, (|delta| + |v|) lambda / omega**2 <= _ECS_MAX_X): N from 1
    to 1024, odd and even, delta = 0 and drives among them, v != 0; every
    third point within 1 % of a lobe edge, and fig4's first-order jump (u =
    1, v = -2, delta = 0, omega_rabi = 0.25 to 0.75)."""
    from extdicke.phases import delta_critical

    rng = random.Random(46)
    small = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32, 48, 64)
    out = [ModelParams(omega=10.0, lam=math.sqrt(10.0), omega_rabi=rabi, v=-2.0, n_atoms=n)
           for n, rabi in zip((7, 8, 16, 31, 64, 128), (0.25, 0.5, 0.75) * 2)]
    while len(out) < count:
        i = len(out)
        n = (128, 256, 1024)[i % 3] if i % 40 == 0 else rng.choice(small)
        omega = rng.choice((1.0, 10.0))
        # (c >= 0.03: below it u << omega at small N, and the solver's
        # resolution 1e-13 * ||H|| leaves the spin state 1e-8 loose)
        lam = rng.uniform(0.03, exact._ECS_MAX_C) * omega * math.sqrt(n)
        u = lam * lam / omega
        v = rng.uniform(-0.8, 0.8) * u
        if i % 3 == 0:
            delta = rng.choice(delta_critical(u, v)) * (1.0 + rng.uniform(-0.01, 0.01))
        else:
            delta = rng.choice((0.0, rng.uniform(-2.0, 2.0) * u))
        if (abs(delta) + abs(v)) * lam / omega ** 2 <= exact._ECS_MAX_X:
            out.append(ModelParams(omega=omega, lam=lam, delta=delta, v=v, n_atoms=n,
                                   omega_rabi=rng.choice((0.0, rng.uniform(0.0, 0.5) * u))))
    return out


def test_ecs_ladders_agree_with_the_two_centre_basis():
    # E0 within eps * max(|E0|, S), photons, J_z and J_x within 1e-8 N and
    # the same parity, wherever the two-centre ladder converges
    agreed = 0
    for p in _ecs_battery():
        assert exact._centre(p) is None, p
        ecs, two = converge_cutoff(p), two_centre_ladder(p)
        assert ecs.converged, p
        if not two.converged:
            continue
        agreed += 1
        assert abs(ecs.energy - two.energy) <= exact.LADDER_EPS * max(
            abs(two.energy), p.hamiltonian_scale), p
        for name in ("photon_number", "jz", "jx"):
            assert abs(getattr(ecs, name) - getattr(two, name)) <= 1e-8 * p.n_atoms, (p, name)
        assert abs(ecs.parity - two.parity) <= 1e-8, p
    assert agreed >= 200


# --- the two-centre displaced photon basis ---------------------------------

@pytest.mark.parametrize("beta,n,k", [(0.3, 0, 5), (1.7, 8, 3), (1.7, 3, 20), (4.0, 16, 30),
                                      (6.5, 12, 2), (6.5, 16, 70)])
def test_displaced_states_match_a_60_digit_reference(beta, n, k):
    # <k|D(beta)|n> = sqrt(n!/k!) beta**(k - n) e**(-beta**2/2) L_n^(k-n)(beta**2)
    with mpmath.workdps(60):
        lo, hi = sorted((k, n))
        b = mpmath.mpf(beta)
        want = (mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(hi)) * b ** (hi - lo)
                * mpmath.exp(-b * b / 2) * mpmath.laguerre(lo, hi - lo, b * b)
                * (-1) ** max(n - k, 0))
    c = exact._displaced(beta, 16)
    assert abs(c[k, n] - float(want)) <= 5e-15
    assert np.abs(c.T @ c - np.eye(17)).max() <= 1e-13  # the tails fit


def test_displaced_states_keep_the_bands_whose_first_value_underflows():
    # at beta = 40, <d|D(beta)|0> = beta**d e**(-800) / sqrt(d!) is below the
    # float range for d <= 21, but <j + d|D(beta)|j> is of order 0.1 once
    # j reaches about beta**2 / 4: those bands run scaled, so each state
    # keeps its norm (started from zero they lost up to 7 % of it)
    c = exact._displaced(40.0, 500)
    assert np.abs(np.einsum("kn,kn->n", c, c) - 1.0).max() <= 1e-10
    with mpmath.workdps(60):
        b = mpmath.mpf(40)
        want = (mpmath.sqrt(mpmath.factorial(460) / mpmath.factorial(480)) * b ** 20
                * mpmath.exp(-b * b / 2) * mpmath.laguerre(460, 20, b * b))
    assert abs(float(want)) > 1e-3
    assert abs(c[480, 460] - float(want)) <= 1e-12


def test_displaced_tail_check_sits_far_above_the_tails_it_keeps(monkeypatch):
    # at _TAIL = 6 the largest amplitude left on the auxiliary space's last
    # Fock state is 3.1e-24 (cutoff 0, beta = 40), 3200 times below
    # _TAIL_AMPLITUDE.  A space that ends at _TAIL = 5.35 leaves 3.8e-20
    # there and is refused; one that ends at 5.5 leaves 4.8e-21 and is kept
    worst = max(np.abs(exact._displaced(beta, nm)[-1]).max()
                for nm in (0, 8, 16, 64) for beta in (0.3, 2.0, 8.0, 40.0))
    assert worst <= 3.2e-24
    monkeypatch.setattr(exact, "_TAIL", 5.35)
    with pytest.raises(ConvergenceError, match="beta = 40 reach past 2149 Fock states$"):
        exact._displaced(40.0, 0)
    monkeypatch.setattr(exact, "_TAIL", 5.5)
    assert np.abs(exact._displaced(40.0, 0)[-1]).max() > 0.1 * exact._TAIL_AMPLITUDE


def test_displaced_norm_check_refuses_states_cut_short(monkeypatch):
    # an auxiliary space that ends at _TAIL = 0 cuts the displaced states
    # short, and the tail check refuses it; past a tail check that lets
    # every amplitude through, the norm check refuses it, also on a ladder's
    # path (two centres at beta = 2.11)
    monkeypatch.setattr(exact, "_TAIL", 0.0)
    with pytest.raises(ConvergenceError, match="beta = 3 reach past 37 Fock states$"):
        exact._displaced(3.0, 4)
    monkeypatch.setattr(exact, "_TAIL_AMPLITUDE", 1.0)
    with pytest.raises(ConvergenceError, match="beta = 3 lose their norm in 37 Fock states$"):
        exact._displaced(3.0, 4)
    with pytest.raises(ConvergenceError,
                       match="beta = 2.11292 lose their norm in 39 Fock states$"):
        solve_at_cutoff(ModelParams(lam=1.5, delta=0.2, n_atoms=8), 8)


def test_photon_basis_is_fock_at_zero_and_grows_by_prefix():
    # at beta = 0 the basis is |0>, |2>, ... then |1>, |3>, ... exactly
    a, x, odd, labels = exact._photon_basis(0.0, 8)
    order = np.array([0, 2, 4, 6, 8, 1, 3, 5, 7])
    assert (labels == order).all() and (odd == (order % 2 == 1)).all()
    assert (a == np.diag(order.astype(float))).all()
    fock = np.diag(np.sqrt(np.arange(1.0, 9.0)), 1)
    assert (x == (fock + fock.T)[np.ix_(order, order)]).all()
    # a cutoff's states are the first of the next cutoff's, state by state
    # (so the ladder's warm start carries them over by label), and the
    # closed forms of far-apart centres continue the Gram-Schmidt basis
    for beta in (0.05, 1.3, 3.0, math.sqrt(8.0) + exact._FAR):
        small, large = exact._photon_basis(beta, 8), exact._photon_basis(beta, 16)
        for parity in (False, True):
            i, j = np.flatnonzero(small[2] == parity), np.flatnonzero(large[2] == parity)
            assert (large[3][j[:i.size]] == small[3][i]).all()
            for m in (0, 1):
                assert np.abs(large[m][np.ix_(j[:i.size], j[:i.size])]
                              - small[m][np.ix_(i, i)]).max() <= 1e-12 * (1.0 + beta * beta)


@pytest.mark.parametrize("params,n_ref", [
    # a weak drive: the ground state is a cat over the wells at +-beta.  A
    # basis about one centre cannot hold the far well, and its E0 (3.3e-6
    # high) and J_z (2.8e-4 off) are stable between cutoffs
    (ModelParams(omega=1.0, lam=1.0, delta=0.2, omega_rabi=1e-8, n_atoms=8), 64),
    # finite_n's driven shape at N = 32 (beta**2 = 0.76): the two centres'
    # states are nearly dependent, and a basis that keeps every direction
    # put E0 53 % off
    (ModelParams(omega=10.0, lam=1.025 * math.sqrt(10.0), delta=0.5, omega_rabi=0.3,
                 n_atoms=32), 24),
], ids=["weak-drive-cat", "driven-32"])
def test_two_centre_ladder_matches_the_fock_reference(params, n_ref):
    # (converge_cutoff solves driven-32, c = 0.057, in ECS; two_centre_ladder
    # keeps its two-centre basis under test)
    h = dense_reference(params, n_ref)
    w, v = np.linalg.eigh(h)
    ground = v[:, 0].reshape(params.n_atoms + 1, n_ref + 1)
    jz = (ground * ground).sum(axis=1) @ (np.arange(params.n_atoms + 1) - 0.5 * params.n_atoms)
    for sol in (converge_cutoff(params), two_centre_ladder(params)):
        assert sol.converged
        assert abs(sol.energy - w[0]) <= 1e-8 * max(abs(w[0]), params.hamiltonian_scale)
        assert abs(sol.jz - jz) <= 1e-8 * params.n_atoms


def test_ladders_agree_with_dense_fock_levels():
    # seeded ladders over N = 1..16, no drive and drives log-uniform in
    # [1e-10, 1] * u, both phases and points within 1 % of a lobe edge,
    # against eigvalsh of the Fock Hamiltonian at a large cutoff
    from extdicke.phases import delta_critical

    rng = random.Random(37)
    for i in range(12):
        n = 1 + (5 * i) % 16
        u = rng.uniform(0.2, 2.0)
        v = rng.uniform(-0.5, 0.5)
        if i % 3 == 0:
            delta = rng.choice(delta_critical(u, v)) * (1.0 + rng.uniform(-0.01, 0.01))
        else:
            delta = rng.uniform(-1.0, 1.0) * (u + abs(v)) * (1.0 if i % 3 == 1 else 2.5)
        p = ModelParams(omega=1.0, lam=math.sqrt(u), delta=delta, v=v, n_atoms=n,
                        omega_rabi=0.0 if i % 2 else u * 10.0 ** rng.uniform(-10.0, 0.0))
        sol = converge_cutoff(p)
        n_ref = min(48, 2500 // (n + 1) - 1)
        e0 = np.linalg.eigvalsh(dense_reference(p, n_ref))[0]
        assert sol.converged, p
        assert abs(sol.energy - e0) <= 1e-8 * max(abs(e0), p.hamiltonian_scale), p
