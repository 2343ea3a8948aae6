"""End-to-end acceptance checks, one test per shipped guarantee.

Each test pins an externally visible behavior of the package: transition
locations and orders along parameter scans, closed-form observables inside
and outside the superradiant lobe, solver agreement with a brute-force grid
oracle, the variational bound against exact diagonalization, laboratory
parameter estimates, and byte determinism of the dataset writers.  The
tolerances are part of the contract; loosening one is an API break.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from extdicke import cli
from extdicke.exact import converge_cutoff
from extdicke.meanfield import PhaseLabel, ground_state, oracle_grid_minimum
from extdicke.model import ModelParams, TrapSpec, estimate_from_trap
from extdicke.phases import (
    classify,
    detect_transitions,
    susceptibility_v,
    v_critical,
)

TWO_PI = 2.0 * math.pi

REFERENCE_TRAP = TrapSpec(
    omega_trap=(TWO_PI * 290.0, TWO_PI * 43.0, TWO_PI * 277.0),
    rho_intra=4.2e-9,
    rho_inter=9.7e-9,
    mass=1.45e-25,
    n_atoms=50_000,
    single_coupling=TWO_PI * 10.0,
    cavity_freq=2.51e9,
    g0_max=TWO_PI * 10.6,
    gamma_excited=TWO_PI * 3.0,
)


def params_u(u, delta=0.0, omega_rabi=0.0, v=0.0, n_atoms=1):
    return ModelParams(omega=1.0, lam=math.sqrt(u), delta=delta,
                       omega_rabi=omega_rabi, v=v, n_atoms=n_atoms)


def test_second_order_edges_in_the_small_drive_limit():
    # With no spin-spin interaction and a near-vanishing symmetry-breaking
    # drive, a detuning scan must localize second-order transitions at
    # delta = +-u to 1e-6*u, the lobe interior must follow m/N = -delta/u,
    # and the outside must be dark.
    u = 1.0
    base = params_u(u, omega_rabi=1e-8 * u)
    recs = detect_transitions(base, "delta", -2.0 * u, 2.0 * u, n_scan=401)
    assert [r.order for r in recs] == ["second", "second"]
    assert abs(recs[0].location + u) <= 1e-6 * u
    assert abs(recs[1].location - u) <= 1e-6 * u
    # The drive admixes a deviation ~(rabi/u)/sqrt(1-(delta/u)^2) into the
    # imbalance, growing toward the edges; on |delta| <= 0.6*u it stays
    # below the 1e-8 tolerance.
    for d in np.linspace(-0.6 * u, 0.6 * u, 25):
        sol = ground_state(base.replace(delta=float(d)))
        assert abs(sol.m_over_n - (-d / u)) <= 1e-8
    for mag in np.linspace(1.05 * u, 2.0 * u, 20):
        for sign in (1.0, -1.0):
            sol = ground_state(base.replace(delta=float(sign * mag)))
            assert sol.photon_density <= 1e-12


def test_interaction_shifted_lobe_boundaries():
    # The spin-spin interaction shifts the lobe edges to +-(u + v).
    for v in (0.5, -0.5):
        base = params_u(1.0, v=v)
        w = 1.0 + v
        recs = detect_transitions(base, "delta", -2.5, 2.5, n_scan=401)
        assert [r.order for r in recs] == ["second", "second"]
        assert abs(recs[0].location + w) <= 1e-6
        assert abs(recs[1].location - w) <= 1e-6


def test_mott_window_classification_and_zero_susceptibility():
    # At delta=0, u=1, rabi=0.5 the label sequence along v is
    # Superradiant (v > -1), Mott (-1.5 < v < -1), Superfluid (v < -1.5);
    # the superfluid onset sits at v_c = -u - rabi and the imbalance does
    # not respond to v anywhere inside the Mott window.
    base = params_u(1.0, omega_rabi=0.5)
    for v in (0.5, 0.0, -0.5, -0.9, -0.999):
        assert classify(base.replace(v=v)) is PhaseLabel.SUPERRADIANT
    for v in (-1.001, -1.1, -1.25, -1.4, -1.499):
        assert classify(base.replace(v=v)) is PhaseLabel.MOTT
    for v in (-1.501, -1.75, -2.0, -2.5):
        assert classify(base.replace(v=v)) is PhaseLabel.SUPERFLUID
    assert v_critical(1.0, 0.0, 0.5) == -1.5
    recs = detect_transitions(base, "v", -2.5, -0.5, n_scan=401)
    assert len(recs) == 1
    assert recs[0].order == "second"
    assert abs(recs[0].location - (-1.5)) <= 1e-6
    for v in np.linspace(-1.45, -1.05, 9):
        assert abs(susceptibility_v(base.replace(v=float(v)))) <= 1e-10


def test_first_order_jump_law_and_critical_drive_kink():
    # At u=1, v=-2 the imbalance jump at delta=0 closes with the drive as
    # 2*sqrt(1 - rabi^2/(u+v)^2); at the critical drive rabi = |u+v| the
    # jump is gone and only a continuous kink remains.
    w = -1.0
    for rabi in (0.25, 0.5, 0.75):
        base = params_u(1.0, omega_rabi=rabi, v=-2.0)
        recs = detect_transitions(base, "delta", -1.0, 1.0, n_scan=401)
        assert len(recs) == 1
        assert recs[0].order == "first"
        assert abs(recs[0].location) <= 1e-6
        expected = 2.0 * math.sqrt(1.0 - rabi**2 / w**2)
        assert abs(recs[0].jump - expected) <= 1e-6
    base = params_u(1.0, omega_rabi=1.0, v=-2.0)
    recs = detect_transitions(base, "delta", -1.0, 1.0, n_scan=401)
    assert len(recs) == 1
    assert recs[0].order == "second"
    assert recs[0].jump <= 1e-6
    assert abs(recs[0].location) <= 1e-6


def test_solver_matches_grid_oracle_on_random_draws():
    # The analytic stationarity solver must agree with a brute-force
    # angular grid refinement over the full coupling ranges, and every
    # reported point must satisfy the stationarity condition.
    rng = np.random.default_rng(20250824)
    for _ in range(1000):
        u = float(rng.uniform(0.0, 5.0))
        v = float(rng.uniform(-5.0, 5.0))
        rabi = float(rng.uniform(0.0, 3.0))
        delta = float(rng.uniform(-3.0, 3.0))
        params = params_u(u, delta=delta, omega_rabi=rabi, v=v)
        sol = ground_state(params)
        oracle = oracle_grid_minimum(params, n_points=4096)
        scale = max(1.0, u + abs(v) + rabi + abs(delta))
        assert abs(sol.energy_per_atom - oracle.energy_per_atom) <= 1e-8 * scale
        assert sol.residual <= 1e-9 * scale


def test_exact_diagonalization_variational_bound():
    # The mean-field product state is variational: its energy lies above
    # the exact ground energy per atom, with the gap shrinking as the atom
    # number grows.  Without a drive the exact ground state is a parity
    # eigenstate.
    drifts = []
    for n_atoms in (8, 16, 32):
        params = ModelParams(omega=10.0, lam=math.sqrt(10.0), delta=0.5,
                             omega_rabi=0.0, v=0.0, n_atoms=n_atoms)
        mf = ground_state(params).energy_per_atom
        res = converge_cutoff(params, eps=1e-10)
        assert res.converged
        scale = max(1.0, params.u + abs(params.v)
                    + params.omega_rabi + abs(params.delta))
        assert mf >= res.energy_per_atom - 1e-9 * scale
        assert abs(res.parity) > 1.0 - 1e-6
        drifts.append(abs(mf - res.energy_per_atom))
    assert drifts[0] > drifts[1] > drifts[2]


def test_trap_parameter_estimates():
    # The reference trap specification must reproduce the catalog coupling
    # numbers: lambda = 2.81e4 MHz at the printed precision, u = 0.315 MHz
    # within 1%, a critical photon number of 0.04 within 1%, and
    # v = -0.238 MHz within 5% under the integral convention, with the
    # printed-formula shorthand reported alongside.
    est = estimate_from_trap(REFERENCE_TRAP)
    assert abs(est.lam / 1.0e4 - 2.81) < 0.005
    assert abs(est.u - 0.315) / 0.315 < 0.01
    assert abs(est.n_crit - 0.04) / 0.04 < 0.01
    assert abs(est.v - (-0.238)) / 0.238 < 0.05
    assert est.v_shorthand == pytest.approx(est.v / 2.0, rel=1e-12)


# Small-grid figure runs: the argv and the sha256 of each dataset file it
# writes, recorded at sweep format 17.  A changed digest is a change of
# dataset bytes: it needs a `sweep format` bump in the provenance line and a
# cell-level diff in CHANGES.md (how many cells moved, and by how much), as
# the Newton-kernel, parity-sector and secular-equation changes gave.  The provenance line
# also carries the package version and the format, so a version or format
# bump changes every digest.
_FIGURE_CASES = [
    (["fig2", "--points", "21", "--delta-span", "1.5",
      "--rabi-fracs", "0,0.02,0.05"],
     {"fig2_curve0.csv": "430c68adbbfac80f382a4a07ea807a656d4aa13ebaba26f54596ef73eb77308f",
      "fig2_curve1.csv": "5737a15092a722b71609866e5c24b4d1b66009009ba0bd3f90e02d3a7b27e363",
      "fig2_curve2.csv": "fc084c43f015cbee3dfa340c060f8ac1f5e6bdc484147e9722dcc74e01ed6133"}),
    (["fig3", "--resolution", "13x9"],
     {"fig3_grid.csv": "bf9fb3bb58ab252e483672d6298732e80f32f8746b95c3581ed9e801c40aff87",
      "fig3_overlays.csv": "3485a3a65ce47df2369c5cda631f4bcd941bfd44bf895765765dd34cd213852e"}),
    (["fig4", "--points", "17"],
     {"fig4_curve0.csv": "35d04c223c5b3607f04acce85c4e4695606658f9ff78fa1c3603192f105ec68d",
      "fig4_curve1.csv": "6273900a2a1efae08a518696b732a89835aca9e3484c95660b22060f1c12c5eb",
      "fig4_curve2.csv": "a9d3aa0f48f7127b073d923442cd802ea7cbe9d139306501b6a36686a0a5cff5",
      "fig4_curve3.csv": "bda0faa70d9c6a53766e65803fce7e4b299cb3d8a4c37a627ac12a52916aa94d"}),
]


def test_figure_datasets_are_deterministic(tmp_path, capsys):
    # Every dataset writer must produce byte-identical files across repeat
    # runs.
    for args, digests in _FIGURE_CASES:
        names = list(digests)
        runs = {}
        for tag in ("a", "b"):
            out_dir = tmp_path / (args[0] + tag)
            assert cli.main(args + ["--out-dir", str(out_dir)]) == 0
            runs[tag] = [(out_dir / name).read_bytes() for name in names]
        capsys.readouterr()
        assert runs["a"] == runs["b"]


def test_figure_dataset_bytes_are_pinned(tmp_path, capsys):
    for args, digests in _FIGURE_CASES:
        out_dir = tmp_path / args[0]
        assert cli.main(args + ["--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                for name in digests} == digests


# A small finite-N scan, recorded at sweep format 17: exact_N* cells at
# N = 2 and 4 over a detuning axis through delta = 0, where the spin flip
# splits each parity sector.  Its float cells come out of numpy's BLAS
# reductions, so the digest holds for one numpy/OpenBLAS build and one
# OpenBLAS kernel family (recorded with numpy 2.4.6, OpenBLAS 0.3.31 and the
# Haswell kernels that conftest.py selects on x86-64).
_FINITE_N_SCAN = (
    {"base": {"omega": 10.0, "lambda": 3.1622776601683795, "delta": 0.5,
              "omega_rabi": 0.0, "v": -0.5},
     "axes": [{"name": "delta", "min": -0.5, "max": 0.5, "count": 3}],
     "exact_n": [2, 4]},
    "54e95cf1d4c78e30ba925c89fcf4234f3cf07c43a85e23d0eb121234b11b596b",
)


def test_finite_n_scan_bytes_are_pinned(tmp_path, capsys):
    config, digest = _FINITE_N_SCAN
    (tmp_path / "scan.json").write_text(json.dumps(config))
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", "--config", str(tmp_path / "scan.json"),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
