"""Finite-N diagonalization: decoupled limits, an independently built dense
Hamiltonian, solver-path consistency, and the variational product bound."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
import scipy.sparse as sp

from extdicke import cli, exact
from extdicke.exact import (
    ConvergenceError,
    build_hamiltonian,
    converge_cutoff,
    product_state_energy,
    solve_at_cutoff,
)
from extdicke.meanfield import ground_state
from extdicke.model import ModelParams, ParameterError


def dense_reference(params: ModelParams, n_max: int) -> np.ndarray:
    """Independent construction via Kronecker products of dense operators."""
    n = params.n_atoms
    j = 0.5 * n
    ms = np.arange(-j, j + 1.0)
    jz = np.diag(ms)
    ladder = np.sqrt(j * (j + 1.0) - ms[:-1] * (ms[:-1] + 1.0))
    jp = np.diag(ladder, -1)  # raising operator in the m-ascending basis
    jx = 0.5 * (jp + jp.T)
    num = np.diag(np.arange(n_max + 1.0))
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1.0)), 1)
    field = a + a.T
    eye_f = np.eye(n_max + 1)
    eye_s = np.eye(n + 1)
    return (params.omega * np.kron(num, eye_s)
            + (params.lam / math.sqrt(n)) * np.kron(field, jx)
            + params.delta * np.kron(eye_f, jz)
            + params.omega_rabi * np.kron(eye_f, jx)
            + (params.v / n) * np.kron(eye_f, jz @ jz))


def test_basis_shape_and_validation():
    p = ModelParams(omega=1.0, lam=1.0, n_atoms=4)
    assert build_hamiltonian(p, 5).shape == (6 * 5, 6 * 5)
    with pytest.raises(ParameterError, match="negative photon cutoff"):
        build_hamiltonian(p, -1)


def test_hamiltonian_is_exactly_symmetric():
    p = ModelParams(omega=1.0, lam=0.9, delta=0.3, omega_rabi=0.2, v=-0.6,
                    n_atoms=5)
    h = build_hamiltonian(p, 12)
    assert (h != h.T).nnz == 0


def test_build_rejects_bad_inputs():
    p = ModelParams(omega=1.0, lam=1.0, n_atoms=6)
    with pytest.raises(ParameterError, match="budget"):
        build_hamiltonian(p, 10, budget=50)


@pytest.mark.parametrize("call", [
    lambda p: solve_at_cutoff(p, 2.5),
    lambda p: solve_at_cutoff(p, math.nan),
    lambda p: solve_at_cutoff(p, math.inf),
    lambda p: solve_at_cutoff(p, True),
    lambda p: solve_at_cutoff(p, "4"),
    lambda p: build_hamiltonian(p, 2.5),
    lambda p: converge_cutoff(p, n_max_start=2.5),
    lambda p: converge_cutoff(p, n_max_start=True),
], ids=["half", "nan", "inf", "bool", "str", "build-half", "start-half",
        "start-bool"])
def test_non_integer_cutoff_is_a_parameter_error(call):
    p = ModelParams(omega=1.0, lam=1.0, n_atoms=2)
    with pytest.raises(ParameterError, match="must be an integer"):
        call(p)


def test_integral_cutoff_of_any_type_is_the_integer_cutoff():
    p = ModelParams(omega=1.0, lam=0.8, delta=0.2, n_atoms=3)
    for n_max in (4.0, np.int64(4)):
        assert solve_at_cutoff(p, n_max) == solve_at_cutoff(p, 4)
        assert type(solve_at_cutoff(p, n_max).n_max_used) is int


@pytest.mark.parametrize("n_atoms,n_max,omega_rabi,delta", itertools.product(
    (1, 2, 3, 4), (0, 1, 3), (0.0, 0.3), (0.0, 0.4)))
def test_sectors_are_orthogonal_complete_and_invariant(n_atoms, n_max,
                                                      omega_rabi, delta):
    # each sector is an isometry, the sectors split the basis between them,
    # and H has no matrix element between two of them: a wrong flip
    # partner or parity label breaks one of these even where it leaves the
    # two lowest levels alone
    p = ModelParams(omega=1.0, lam=0.7, delta=delta, omega_rabi=omega_rabi,
                    v=-0.4, n_atoms=n_atoms)
    h = build_hamiltonian(p, n_max).toarray()
    qs = [q.toarray() for q in exact._sectors(p, n_max)]
    dim = h.shape[0]
    assert all(q.shape[0] == dim and q.shape[1] >= 1 for q in qs)
    for q in qs:
        assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-15
    assert np.abs(sum(q @ q.T for q in qs) - np.eye(dim)).max() <= 1e-15
    hnorm = np.abs(h).sum(axis=1).max()
    for a, b in itertools.permutations(range(len(qs)), 2):
        assert np.abs(qs[a].T @ qs[b]).max() <= 1e-15
        assert np.abs(qs[a].T @ h @ qs[b]).max() <= 1e-15 * hnorm
    # each sector is an eigenspace of the symmetries that define it: the
    # parity without a drive, and the spin flip at delta = 0 unless it
    # swaps the two parity sectors (odd N, no drive)
    n, k = np.divmod(np.arange(dim), n_atoms + 1)
    symmetries = []
    if omega_rabi == 0.0:
        symmetries.append(np.diag((-1.0) ** (n + k)))
    if delta == 0.0 and (omega_rabi != 0.0 or n_atoms % 2 == 0):
        symmetries.append(np.eye(dim)[n * (n_atoms + 1) + n_atoms - k])
    if not symmetries:
        assert len(qs) == 1
    for q in qs:
        for sym in symmetries:
            d = q.T @ sym @ q
            assert abs(abs(d[0, 0]) - 1.0) <= 1e-15
            assert np.abs(d - d[0, 0] * np.eye(q.shape[1])).max() <= 1e-15


def test_converge_cutoff_rejects_bad_ladder_settings():
    p = ModelParams(omega=1.0, lam=1.0, n_atoms=2)
    # a NaN tolerance never reads as stable and an infinite one always does
    for eps in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ParameterError, match="tolerance"):
            converge_cutoff(p, eps=eps)
    with pytest.raises(ParameterError, match="cutoff start"):
        converge_cutoff(p, n_max_start=0)


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
    # dimension 67*31 = 2077 is far above the 30-vector Krylov basis, so
    # the Lanczos run restarts many times; compare against a direct dense
    # solve here
    p = ModelParams(omega=1.0, lam=1.2, delta=0.4, omega_rabi=0.1, v=-0.5,
                    n_atoms=30)
    h = build_hamiltonian(p, 66)
    assert h.shape[0] == 2077
    e_sparse, _, vec, _ = exact._solve_sectors(h, [sp.identity(2077, format="csc")])
    e_dense = np.linalg.eigvalsh(h.toarray())[0]
    assert e_sparse == pytest.approx(e_dense, abs=1e-8)
    assert np.linalg.norm(h @ vec - e_sparse * vec) < 1e-7


def test_ground_pair_residual_guard():
    p = ModelParams(omega=1.0, lam=0.8, delta=0.25, n_atoms=10)
    h = build_hamiltonian(p, 20)
    e0, _, vec, _ = exact._solve_sectors(h, [sp.identity(h.shape[0], format="csc")])
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-10
    assert np.linalg.norm(h @ vec - e0 * vec) < 1e-8


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
        want = np.linalg.eigvalsh(dense_reference(p, 12))[:2]
        sol = solve_at_cutoff(p, n_max=12)
        assert sol.energy == pytest.approx(want[0], abs=1e-10)
        assert sol.gap == pytest.approx(want[1] - want[0], abs=1e-10)
    # n_max = 0 and N = 1: two one-state sectors, one level each
    p = ModelParams(omega=1.0, lam=0.5, delta=0.3, v=0.2, n_atoms=1)
    want = np.linalg.eigvalsh(dense_reference(p, 0))
    sol = solve_at_cutoff(p, n_max=0)
    assert sol.energy == pytest.approx(want[0], abs=1e-12)
    assert sol.gap == pytest.approx(want[1] - want[0], abs=1e-12)


def _dense_levels(p: ModelParams, n_max: int) -> tuple[float, float, float]:
    """E0, E1 - E0 and ||H||_inf of the independently built dense H."""
    h = dense_reference(p, n_max)
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
    p = ModelParams(omega=1.0, lam=0.0, delta=0.0, v=v, n_atoms=n_atoms)
    e0, gap, hnorm = _dense_levels(p, n_max)
    assert gap == 0.0
    sol = solve_at_cutoff(p, n_max)
    assert abs(sol.energy - e0) <= 1e-9 * hnorm
    assert abs(sol.gap) <= 1e-9 * hnorm
    assert sol.parity == pytest.approx(1.0, abs=1e-12)


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


def test_lanczos_restarts_match_dense_levels():
    rng = np.random.default_rng(5)
    a = sp.random(1500, 1500, density=0.004, random_state=rng)
    h = (a + a.T).tocsr()
    hnorm = float(abs(h).sum(axis=1).max())
    counted = _CountingMatrix(h)
    levels, vecs = exact._lowest_levels(counted, hnorm, None)
    assert counted.matvecs > 3 * exact._KRYLOV_DIM  # several restarts
    want = np.linalg.eigvalsh(h.toarray())[:2]
    assert np.abs(levels - want).max() <= 1e-12 * hnorm
    _check_levels(h, hnorm, levels, vecs)


@pytest.mark.parametrize("params,recorded", [
    (ModelParams(omega=10.0, lam=0.5 * math.sqrt(7.5), delta=0.75,
                 n_atoms=64), 240),
    (ModelParams(omega=10.0, lam=1.5 * math.sqrt(10.0), delta=0.5,
                 n_atoms=64), 720),
    (ModelParams(omega=10.0, lam=1.02 * math.sqrt(10.0), delta=0.5,
                 omega_rabi=0.3, n_atoms=64), 290),
], ids=["normal", "superradiant", "driven"])
def test_lanczos_work_per_ladder_is_pinned(monkeypatch, params, recorded):
    # matvecs over a whole converge_cutoff ladder, within 10 % of the count
    # recorded for this solver: a cheaper step must not buy more iterations
    counted = []
    solve = exact._lowest_levels

    def counting(h, hnorm, start):
        counted.append(_CountingMatrix(h))
        return solve(counted[-1], hnorm, start)

    monkeypatch.setattr(exact, "_lowest_levels", counting)
    assert converge_cutoff(params).converged
    assert abs(sum(c.matvecs for c in counted) - recorded) <= 0.1 * recorded


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


def test_overflowing_hamiltonian_is_a_parameter_error():
    p = ModelParams(omega=1e308, lam=1.0, n_atoms=2)
    with np.errstate(over="ignore"), pytest.raises(ParameterError, match="overflow"):
        solve_at_cutoff(p, 4)


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


@pytest.mark.parametrize("omega_rabi", [0.0, 0.3])
def test_warm_ladder_matches_cold_solve(omega_rabi):
    # converge_cutoff warm-starts each cutoff from the previous one; a plain
    # solve_at_cutoff at the final cutoff starts cold
    p = ModelParams(omega=10.0, lam=1.02 * math.sqrt(10.0), delta=0.5,
                    omega_rabi=omega_rabi, n_atoms=64)
    warm = converge_cutoff(p)
    cold = solve_at_cutoff(p, warm.n_max_used)
    assert warm.energy == pytest.approx(cold.energy, rel=1e-12)


def test_parity_is_definite_for_unique_ground_state():
    p = ModelParams(omega=10.0, lam=math.sqrt(10.0), delta=0.5, n_atoms=12)
    sol = converge_cutoff(p)
    assert sol.converged
    assert abs(sol.parity) > 1.0 - 1e-6


def test_convergence_flag_under_budget_pressure():
    p = ModelParams(omega=1.0, lam=1.3, delta=0.2, n_atoms=6)
    starved = converge_cutoff(p, budget=100)
    assert not starved.converged
    ok = converge_cutoff(p)
    assert ok.converged and ok.n_max_used > starved.n_max_used


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
