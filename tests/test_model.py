"""Parameter container, validation, and trap/cavity coupling estimates."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extdicke
from extdicke.model import (
    ModelParams,
    ParameterError,
    TrapSpec,
    estimate_from_trap,
    omega_critical,
    validate,
)

TWO_PI = 2.0 * math.pi

# Reference trap/cavity numbers for a two-component BEC in an optical cavity:
# trap 2*pi*(290, 43, 277) Hz, scattering lengths 4.2 nm (intra) and 9.7 nm
# (inter), mass 1.45e-25 kg, 5e4 atoms, single-atom coupling 2*pi*10 MHz,
# cavity at 2.51e9 MHz, peak coupling 2*pi*10.6 MHz, linewidth 2*pi*3 MHz.
REFERENCE_SPEC = TrapSpec(
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

# frozen oracle values, recomputed by hand from the formulas above
ORACLE_D = (6.317789421036366e-07, 1.6407027931816232e-06, 6.464341043162722e-07)
ORACLE_V = -0.23815603415824568        # angular MHz
ORACLE_LAM = 28099.258924162903
ORACLE_U = 0.3145690645765532
ORACLE_N_CRIT = 0.0400498398006408


def test_u_property():
    assert ModelParams(omega=2.0, lam=3.0).u == 4.5
    assert ModelParams(omega=1.0, lam=0.0).u == 0.0


def test_dict_roundtrip_uses_lambda_key():
    p = ModelParams(omega=2.0, lam=1.5, delta=-0.3, omega_rabi=0.1, v=-0.7,
                    n_atoms=12)
    d = p.to_dict()
    assert d["lambda"] == 1.5 and "lam" not in d
    assert ModelParams.from_dict(d) == p
    assert ModelParams.from_dict({"lam": 1.5, "omega": 2.0}).lam == 1.5


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ParameterError, match="unknown parameter"):
        ModelParams.from_dict({"omega": 1.0, "couplind": 2.0})


def test_replace_accepts_both_spellings():
    p = ModelParams(omega=1.0, lam=1.0)
    assert p.replace(lam=2.0).lam == 2.0
    assert p.replace(**{"lambda": 2.0}).lam == 2.0
    assert p.replace(delta=0.5).lam == 1.0


@pytest.mark.parametrize("kw,msg", [
    (dict(omega=0.0), "cavity frequency"),
    (dict(omega=-1.0), "cavity frequency"),
    (dict(lam=-0.1), "collective coupling"),
    (dict(omega_rabi=-0.2), "Rabi"),
    (dict(n_atoms=0), "atoms"),
    (dict(delta=math.nan), "non-finite"),
    (dict(v=math.inf), "non-finite"),
    (dict(lam=1e160), "non-finite coupling u"),
    (dict(lam=True), "not a number"),
    (dict(n_atoms=True), "positive integer"),
    (dict(n_atoms=math.inf), "positive integer"),
])
def test_validate_rejections(kw, msg):
    # building the parameters is enough: no call of validate is needed
    with pytest.raises(ParameterError, match=msg):
        ModelParams(**{"omega": 1.0, "lam": 1.0, **kw})


_NOT_A_NUMBER = st.one_of(st.booleans(), st.none(), st.text(max_size=3))
_NON_FINITE = st.sampled_from((math.nan, math.inf, -math.inf, 10**400, -10**400))
_NEGATIVE = st.floats(max_value=-1e-300, allow_infinity=False)
_FRACTION = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda x: not x.is_integer())
# For each field: values of the wrong type, non-finite values, and the
# values its domain forbids.
_INVALID = {
    "omega": st.one_of(_NOT_A_NUMBER, _NON_FINITE,
                       st.floats(max_value=0.0, allow_infinity=False)),
    "lam": st.one_of(_NOT_A_NUMBER, _NON_FINITE, _NEGATIVE,
                     st.floats(min_value=1.4e154, allow_infinity=False)),  # u overflows
    "delta": st.one_of(_NOT_A_NUMBER, _NON_FINITE),
    "omega_rabi": st.one_of(_NOT_A_NUMBER, _NON_FINITE, _NEGATIVE),
    "v": st.one_of(_NOT_A_NUMBER, _NON_FINITE),
    "n_atoms": st.one_of(_NOT_A_NUMBER, _NON_FINITE, st.integers(max_value=0), _FRACTION),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=st.one_of([s.map(lambda bad, name=name: (name, bad))
                       for name, s in _INVALID.items()]))
def test_every_invalid_parameter_is_a_parameter_error(case):
    # a typed error, and no other exception, from both ways of building
    name, bad = case
    with pytest.raises(ParameterError):
        ModelParams(**{"omega": 1.0, "lam": 1.0, name: bad})
    with pytest.raises(ParameterError):
        ModelParams.from_dict({"omega": 1.0, "lambda": 1.0,
                               "lambda" if name == "lam" else name: bad})


def test_validate_passthrough_and_coupling():
    p = ModelParams(omega=4.0, lam=2.0, delta=-1.0, omega_rabi=0.0, v=3.0)
    assert validate(p) is p
    assert p.u == 1.0


def test_hbar_is_exact_and_scipy_constants_is_not_imported():
    from scipy.constants import hbar

    assert extdicke.model.hbar == hbar
    code = "import sys, extdicke; print('scipy.constants' in sys.modules)"
    src = str(Path(extdicke.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


_HEAVY_MODULE_PROBE = """
import json, sys

def heavy():
    loaded = {m.split(".")[0] for m in sys.modules} & {"numpy", "scipy", "statistics"}
    solvers = {"scipy.linalg", "scipy.sparse.linalg"} & set(sys.modules)
    return sorted(loaded | solvers)

import extdicke
seen = [heavy()]
from extdicke import cli
seen.append(heavy())
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    seen.append(heavy())
print(json.dumps(seen))
"""


def _heavy_modules_after(commands: list[list[str]]) -> list[list[str]]:
    """In a fresh interpreter: which of numpy, scipy, scipy.linalg,
    scipy.sparse.linalg and statistics are loaded after import extdicke,
    after import extdicke.cli, and after each command."""
    src = str(Path(extdicke.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _HEAVY_MODULE_PROBE,
                          json.dumps(commands)], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout)


def test_numpy_and_scipy_load_only_on_the_finite_n_path(tmp_path):
    from extdicke import cli

    sweep = {"base": {"omega": 1.0, "lambda": 1.0, "omega_rabi": 0.3, "v": -0.2},
             "axes": [{"name": "delta", "min": -1.0, "max": 1.0, "count": 3}]}
    (tmp_path / "mf.json").write_text(json.dumps(sweep))
    (tmp_path / "fn.json").write_text(json.dumps({**sweep, "exact_n": [2]}))

    def run(argv, out):
        return [*argv, "--out", str(tmp_path / out)]

    mean_field = [run(["solve", "--delta", "0.3"], "solve.txt"),
                  run(["boundaries", "--v=-0.5", "--rabi", "0.2"], "b.txt"),
                  run(["scan", "--config", str(tmp_path / "mf.json")], "mf.csv")]
    finite_n_scan = ["scan", "--config", str(tmp_path / "fn.json")]
    check = ["exact-check", "--n-list", "2,4", "--format", "json"]
    # the finite-N path uses scipy only for sparse storage: neither
    # scipy.linalg nor scipy.sparse.linalg may load
    both = ["numpy", "scipy"]
    assert _heavy_modules_after(mean_field + [run(finite_n_scan, "fn.csv")]) \
        == [[], [], [], [], [], both]
    assert _heavy_modules_after([run(check, "check.json")]) == [[], [], both]
    # the lazily loaded finite-N path writes what this process writes
    for argv, out in ((finite_n_scan, "fn.csv"), (check, "check.json")):
        assert cli.main(run(argv, "again_" + out)) == 0
        assert (tmp_path / ("again_" + out)).read_bytes() \
            == (tmp_path / out).read_bytes()


def test_omega_critical_is_abs_w():
    assert omega_critical(1.0, -2.0) == 1.0
    assert omega_critical(0.3, 0.2) == 0.5
    assert omega_critical(0.0, 0.0) == 0.0


def test_estimate_matches_frozen_reference():
    est = estimate_from_trap(REFERENCE_SPEC)
    assert est.v == pytest.approx(ORACLE_V, rel=1e-12)
    assert est.lam == pytest.approx(ORACLE_LAM, rel=1e-12)
    assert est.u == pytest.approx(ORACLE_U, rel=1e-12)
    assert est.n_crit == pytest.approx(ORACLE_N_CRIT, rel=1e-12)
    for got, want in zip((est.metadata["d_x"], est.metadata["d_y"],
                          est.metadata["d_z"]), ORACLE_D):
        assert got == pytest.approx(want, rel=1e-12)
    assert est.metadata["v_shorthand"] == pytest.approx(0.5 * ORACLE_V, rel=1e-12)
    assert est.metadata["v_cyclic_mhz"] == pytest.approx(ORACLE_V / TWO_PI, rel=1e-12)


def test_estimate_scaling_properties():
    base = estimate_from_trap(REFERENCE_SPEC)

    # v is linear in the scattering-length difference and flips sign with it
    flipped = TrapSpec(**{**REFERENCE_SPEC.to_dict(),
                          "rho_intra": REFERENCE_SPEC.rho_inter,
                          "rho_inter": REFERENCE_SPEC.rho_intra})
    assert estimate_from_trap(flipped).v == pytest.approx(-base.v, rel=1e-12)

    # stiffening every trap axis by 4x shrinks each oscillator length by 2x,
    # so the orbital overlap (hence v) grows by 8x
    stiff = TrapSpec(**{**REFERENCE_SPEC.to_dict(),
                        "omega_trap": [4.0 * w for w in REFERENCE_SPEC.omega_trap]})
    assert estimate_from_trap(stiff).v == pytest.approx(8.0 * base.v, rel=1e-12)

    # collective coupling scales as sqrt(N), u and v as N
    quad = TrapSpec(**{**REFERENCE_SPEC.to_dict(),
                       "n_atoms": 4 * REFERENCE_SPEC.n_atoms})
    est4 = estimate_from_trap(quad)
    assert est4.lam == pytest.approx(2.0 * base.lam, rel=1e-12)
    assert est4.u == pytest.approx(4.0 * base.u, rel=1e-12)
    assert est4.v == pytest.approx(4.0 * base.v, rel=1e-12)


def test_trap_spec_json_roundtrip():
    text = json.dumps(REFERENCE_SPEC.to_dict())
    assert TrapSpec.from_json(text) == REFERENCE_SPEC


@pytest.mark.parametrize("patch,msg", [
    (dict(omega_trap=(0.0, 1.0, 1.0)), "trap frequency"),
    (dict(mass=-1e-25), "mass"),
    (dict(n_atoms=0), "atoms"),
    (dict(cavity_freq=0.0), "cavity frequency"),
    (dict(g0_max=0.0), "loss parameters"),
])
def test_estimate_input_validation(patch, msg):
    spec = TrapSpec(**{**REFERENCE_SPEC.to_dict(), **patch})
    with pytest.raises(ParameterError, match=msg):
        estimate_from_trap(spec)


def test_trap_spec_rejects_malformed_dicts():
    good = REFERENCE_SPEC.to_dict()
    with pytest.raises(ParameterError, match="omega_trap"):
        TrapSpec.from_dict({k: v for k, v in good.items() if k != "omega_trap"})
    with pytest.raises(ParameterError, match="omega_trap"):
        TrapSpec.from_dict({**good, "omega_trap": [1.0, 2.0]})
    with pytest.raises(ParameterError, match="bad trap spec"):
        TrapSpec.from_dict({**good, "extra_knob": 1.0})
