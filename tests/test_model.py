"""Parameter container, validation, and trap/cavity coupling estimates."""

from __future__ import annotations

import copy
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
    TrapEstimate,
    TrapSpec,
    estimate_from_trap,
    record,
    validate,
)
from extdicke.phases import omega_critical

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
    with pytest.raises(ParameterError, match=r"unknown parameter keys: \['lam'\]"):
        ModelParams.from_dict({"lam": 1.5, "omega": 2.0})


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ParameterError, match="unknown parameter"):
        ModelParams.from_dict({"omega": 1.0, "couplind": 2.0})


def test_replace_takes_field_names():
    p = ModelParams(omega=1.0, lam=1.0)
    assert p.replace(lam=2.0).lam == 2.0
    with pytest.raises(TypeError, match="lambda"):
        p.replace(**{"lambda": 2.0})
    assert p.replace(delta=0.5).lam == 1.0


@pytest.mark.parametrize("kw,msg", [
    (dict(omega=0.0), "cavity frequency"),
    (dict(omega=-1.0), "cavity frequency"),
    (dict(lam=-0.1), "collective coupling"),
    (dict(omega_rabi=-0.2), "Rabi"),
    (dict(n_atoms=0), "atoms"),
    # a non-finite value or a non-number is named by the one type check
    pytest.param(dict(delta=math.nan), "parameter 'delta' must be a finite number, got nan",
                 id="kw5-non-finite"),
    pytest.param(dict(v=math.inf), "parameter 'v' must be a finite number, got inf",
                 id="kw6-non-finite"),
    (dict(lam=1e160), "non-finite coupling u"),
    pytest.param(dict(lam=True), "parameter 'lam' must be a finite number, got True",
                 id="kw8-not a number"),
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
    assert _fresh(code).strip() == "False"


def _fresh(code: str, *argv: str) -> str:
    """The standard output of code run in a fresh interpreter on this
    package's source."""
    src = str(Path(extdicke.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src}).stdout


_MODULE_PROBE = """
import contextlib, json, sys

def heavy():
    loaded = {m.split(".")[0] for m in sys.modules} & {"numpy", "scipy", "statistics"}
    submodules = {"numpy.random", "scipy.linalg", "scipy.sparse.linalg"}
    return sorted(loaded | (submodules & set(sys.modules)))

def ours():
    return sorted(m for m in sys.modules if m.split(".")[0] == "extdicke")

import extdicke
seen = [[heavy(), ours()]]
from extdicke import cli
seen.append([heavy(), ours()])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(sys.stderr):  # the figures print paths
        assert cli.main(argv) == 0, argv
    seen.append([heavy(), ours()])
print(json.dumps(seen))
"""


def _modules_after(commands: list[list[str]]) -> list[list[list[str]]]:
    """In a fresh interpreter: [heavy modules, extdicke modules] loaded
    after import extdicke, after import extdicke.cli, and after each
    command.  The heavy ones are numpy, numpy.random (which loads hashlib
    and OpenSSL), scipy, scipy.linalg, scipy.sparse.linalg and
    statistics."""
    return json.loads(_fresh(_MODULE_PROBE, json.dumps(commands)))


def _heavy_modules_after(commands: list[list[str]]) -> list[list[str]]:
    return [heavy for heavy, _ in _modules_after(commands)]


def test_numpy_loads_only_on_the_finite_n_path_and_scipy_never(tmp_path):
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
    # the finite-N path needs numpy alone: neither numpy.random nor any
    # scipy module may load
    assert _heavy_modules_after(mean_field + [run(finite_n_scan, "fn.csv")]) \
        == [[], [], [], [], [], ["numpy"]]
    assert _heavy_modules_after([run(check, "check.json")]) == [[], [], ["numpy"]]
    # the lazily loaded finite-N path writes what this process writes
    for argv, out in ((finite_n_scan, "fn.csv"), (check, "check.json")):
        assert cli.main(run(argv, "again_" + out)) == 0
        assert (tmp_path / ("again_" + out)).read_bytes() \
            == (tmp_path / out).read_bytes()


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    sweep = {"base": {"omega": 1.0, "lambda": 1.0, "omega_rabi": 0.3, "v": -0.2},
             "axes": [{"name": "delta", "min": -1.0, "max": 1.0, "count": 3}]}
    (tmp_path / "mf.json").write_text(json.dumps(sweep))

    def out(name):
        return ["--out", str(tmp_path / name)]

    def figure(name, *opts):
        return [name, *opts, "--out-dir", str(tmp_path / name)]

    def package(*names):
        return sorted(["extdicke", "extdicke.cli", "extdicke.meanfield", "extdicke.model"]
                      + [f"extdicke.{name}" for name in names])

    # the bottom layers: model imports no module of the package, meanfield
    # imports model alone, and sweep (which labels phases through meanfield)
    # imports no phases
    def imported(module):
        return json.loads(_fresh(f"import json, sys, {module}; print(json.dumps(sorted("
                                 "m for m in sys.modules if m.split('.')[0] == 'extdicke')))"))

    assert imported("extdicke.model") == ["extdicke", "extdicke.model"]
    assert imported("extdicke.meanfield") == ["extdicke", "extdicke.meanfield",
                                              "extdicke.model"]
    assert imported("extdicke.sweep") == ["extdicke", "extdicke.meanfield",
                                          "extdicke.model", "extdicke.sweep"]
    # importing the package loads no module of it; solve labels its phase
    # through meanfield and loads no phases, boundaries loads phases
    solve = _modules_after([["solve", "--delta", "0.3", *out("s.txt")],
                            ["solve", "--format", "json", *out("s.json")],
                            ["boundaries", "--v=-0.5", *out("b.txt")]])
    assert [ours for _, ours in solve] \
        == [["extdicke"], package(), package(), package(), package("phases")]
    # a scan without exact_n and each figure load no finite-N solver, and
    # only fig3 (for its critical lines) loads phases
    sweeps = _modules_after([["scan", "--config", str(tmp_path / "mf.json"),
                              *out("mf.csv")],
                             figure("fig2", "--points", "5"),
                             figure("fig4", "--points", "5"),
                             figure("fig3", "--resolution", "5x4")])
    assert [ours for _, ours in sweeps[2:]] \
        == [*[package("sweep")] * 3, package("phases", "sweep")]
    check = _modules_after([["exact-check", "--n-list", "2", "--format", "json",
                             *out("c.json")]])
    assert check[-1][1] == package("exact")


# Printed after each step: which of these modules the process has loaded.
# fractions (3 ms to import) and decimal stand for exact arithmetic, which
# the kernel's astroid test does on plain ints.
_DIET_PROBE = """
import sys

def diet():
    return sorted({"dataclasses", "decimal", "fractions", "inspect", "json"}
                  & set(sys.modules))

from extdicke import cli
print(diet())
out, sys.stdout = sys.stdout, sys.stderr  # the figures print paths
for argv in COMMANDS:
    assert cli.main(argv) == 0, argv
    print(diet(), file=out)
"""


def test_mean_field_commands_load_no_dataclasses_inspect_or_needless_json(tmp_path):
    sweep = {"base": {"omega": 1.0, "lambda": 1.0, "omega_rabi": 0.3, "v": -0.2},
             "axes": [{"name": "delta", "min": -1.0, "max": 1.0, "count": 3}]}
    (tmp_path / "mf.json").write_text(json.dumps(sweep))
    commands = [["solve", "--delta", "0.3", "--out", str(tmp_path / "s.txt")],
                ["boundaries", "--v=-0.5", "--out", str(tmp_path / "b.txt")],
                ["solve", "--format", "json", "--out", str(tmp_path / "s.json")],
                ["scan", "--config", str(tmp_path / "mf.json"),
                 "--out", str(tmp_path / "mf.csv")],
                ["fig2", "--points", "5", "--out-dir", str(tmp_path / "fig2")]]
    src = str(Path(extdicke.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", f"COMMANDS = {commands!r}" + _DIET_PROBE],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    # text output reads and writes no JSON; the records need no dataclasses
    assert out.stdout.splitlines() == ["[]", "[]", "[]", *["['json']"] * 3]


def _records():
    """One instance of each record class, built by position from every field."""
    from extdicke.exact import ExactSolution
    from extdicke.meanfield import BlochPoint, MeanFieldSolution
    from extdicke.phases import TransitionRecord
    from extdicke.sweep import AxisSpec, SweepConfig, SweepDataset

    axis = AxisSpec("v", 0.0, 1.0, 2)
    return [ModelParams(2.0, 0.5, -0.25, 0.125, -1.5, 8),
            REFERENCE_SPEC,
            TrapEstimate(1.0, 2.0, 3.0, 0.5, 1e-6, 2e-6, 3e-6, 0.5, 0.125),
            BlochPoint(0.3, -0.4),
            MeanFieldSolution(BlochPoint(0.5, 0.0), 0.5, -0.25, 0.0, 0.25, 1e-17,
                              True, True, 2),
            TransitionRecord(0.5, "first", "m_over_n", 1.0, 0.0),
            axis,
            SweepConfig(ModelParams(), (axis,), (4, 8), 1e-6),
            SweepDataset(("a", "b"), ((1, 2.0),), ("# x",)),
            ExactSolution(-1.5, -0.375, 0.25, -1.0, 0.5, 1.0, 0.125, 16, 4, True)]


def test_records_print_compare_and_freeze_as_frozen_dataclasses():
    for rec in _records():
        cls, values = type(rec), tuple(vars(rec).values())
        assert tuple(vars(rec)) == cls._fields
        text = ", ".join(f"{k}={v!r}" for k, v in vars(rec).items())
        assert repr(rec) == f"{cls.__name__}({text})"
        # by position, by keyword, and from a copy of each value
        same = cls(*[copy.copy(v) for v in values])
        assert cls(**vars(rec)) == rec == same
        assert hash(same) == hash(rec)
        # a record class of the same name and fields is another class
        twin = record(type(cls.__name__, (), {"__annotations__": dict.fromkeys(cls._fields)}))
        assert twin(*values) != rec and rec != twin(*values)
        assert repr(twin(*values)) == repr(rec)
        for name in cls._fields:
            with pytest.raises(AttributeError, match=f"cannot assign to or delete field '{name}'"):
                setattr(rec, name, None)
            with pytest.raises(AttributeError, match=name):
                delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert tuple(vars(rec).values()) == values


def test_record_repr_is_the_dataclass_text():
    from extdicke.exact import ExactSolution

    assert repr(ModelParams(2.0, 0.5, -0.25, 0.125, -1.5, 8)) == (
        "ModelParams(omega=2.0, lam=0.5, delta=-0.25, omega_rabi=0.125, v=-1.5, n_atoms=8)")
    assert repr(ExactSolution(-1.5, -0.375, 0.25, -1.0, 0.5, 1.0, 0.125, 16, 4, True)) == (
        "ExactSolution(energy=-1.5, energy_per_atom=-0.375, photon_number=0.25, "
        "jz=-1.0, jx=0.5, parity=1.0, gap=0.125, n_max_used=16, n_atoms=4, "
        "converged=True)")


def test_record_defaults_and_post_init():
    from extdicke.meanfield import BlochPoint, MeanFieldSolution
    from extdicke.sweep import AxisSpec, SweepConfig, SweepDataset

    assert ModelParams() == ModelParams(1.0, 1.0, 0.0, 0.0, 0.0, 1)
    assert ModelParams(2.0, v=-1.0) == ModelParams(omega=2.0, v=-1.0)
    point = (BlochPoint(0.5, 0.0), 0.5, -0.25, 0.0, 0.25, 0.0, False)
    assert MeanFieldSolution(*point) == MeanFieldSolution(*point, False, 0)
    axes = (AxisSpec("v", 0.0, 1.0, 2),)
    assert SweepConfig(ModelParams(), axes) == SweepConfig(ModelParams(), axes, (), 1e-8)
    assert SweepDataset(("a",), ()).provenance == ()
    # __post_init__ runs on every construction
    with pytest.raises(ParameterError, match="cavity frequency"):
        ModelParams(-1.0)
    with pytest.raises(ParameterError, match="one or two axes"):
        SweepConfig(ModelParams(), axes * 3)
    with pytest.raises(ParameterError, match="exact_eps"):
        SweepConfig(base=ModelParams(), axes=axes, exact_eps=0.0)
    assert type(ModelParams(n_atoms=4.0).n_atoms) is int
    # an estimate has no defaults and hashes by its numbers
    numbers = (1.0, 2.0, 3.0, 0.5, 1e-6, 2e-6, 3e-6, 0.5, 0.125)
    estimate = TrapEstimate(*numbers)
    assert hash(estimate) == hash(TrapEstimate(**dict(zip(TrapEstimate._fields, numbers))))
    with pytest.raises(TypeError):
        TrapEstimate(1.0, 2.0, 3.0, 0.5)


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
    for got, want in zip((est.d_x, est.d_y, est.d_z), ORACLE_D):
        assert got == pytest.approx(want, rel=1e-12)
    assert est.v_shorthand == pytest.approx(0.5 * ORACLE_V, rel=1e-12)
    assert est.v_cyclic_mhz == pytest.approx(ORACLE_V / TWO_PI, rel=1e-12)


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
    # the spec checks its domains when it is built, before any estimate
    with pytest.raises(ParameterError, match=msg):
        TrapSpec(**{**REFERENCE_SPEC.to_dict(), **patch})


def test_trap_spec_rejects_malformed_dicts():
    good = REFERENCE_SPEC.to_dict()
    with pytest.raises(ParameterError, match="omega_trap"):
        TrapSpec.from_dict({k: v for k, v in good.items() if k != "omega_trap"})
    with pytest.raises(ParameterError, match="omega_trap"):
        TrapSpec.from_dict({**good, "omega_trap": [1.0, 2.0]})
    with pytest.raises(ParameterError, match="bad trap spec"):
        TrapSpec.from_dict({**good, "extra_knob": 1.0})
