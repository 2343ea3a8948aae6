"""The package's public names, and how its entry points reject malformed
input."""

import contextlib
import importlib
import io
import math
from pathlib import Path

import pytest

import extdicke
from extdicke import cli, meanfield, phases
from extdicke.exact import converge_cutoff, solve_at_cutoff
from extdicke.meanfield import oracle_grid_minimum
from extdicke.model import ModelParams, ParameterError, TrapSpec
from extdicke.phases import detect_transitions
from extdicke.sweep import AxisSpec, SweepConfig

# each public name and the module that defines it
HOMES = {
    "ModelParams": "model",
    "ParameterError": "model",
    "TrapEstimate": "model",
    "TrapSpec": "model",
    "estimate_from_trap": "model",
    "BlochPoint": "meanfield",
    "MeanFieldSolution": "meanfield",
    "PhaseLabel": "meanfield",
    "energy_landscape": "meanfield",
    "ground_state": "meanfield",
    "oracle_grid_minimum": "meanfield",
    "ConvergenceError": "model",
    "ExactSolution": "exact",
    "converge_cutoff": "exact",
    "product_state_energy": "exact",
    "solve_at_cutoff": "exact",
    "TransitionRecord": "phases",
    "classify": "phases",
    "critical_overlays": "phases",
    "delta_critical": "phases",
    "detect_transitions": "phases",
    "mott_boundary_delta": "phases",
    "omega_critical": "phases",
    "susceptibility_v": "phases",
    "v_critical": "phases",
    "AxisSpec": "sweep",
    "SweepConfig": "sweep",
    "SweepDataset": "sweep",
    "parse_csv": "sweep",
    "run_sweep": "sweep",
    "serialize_csv": "sweep",
    "serialize_json": "sweep",
}


def test_every_exported_name_resolves():
    missing = [name for name in extdicke.__all__ if not hasattr(extdicke, name)]
    assert missing == []
    assert len(set(extdicke.__all__)) == len(extdicke.__all__)


def test_public_names_resolve_lazily_to_their_home_objects():
    assert extdicke.__all__ == ["__version__", *HOMES]
    for name, home in HOMES.items():
        module = importlib.import_module(f"extdicke.{home}")
        assert getattr(extdicke, name) is getattr(module, name), name
    assert set(extdicke.__all__) <= set(dir(extdicke))
    namespace = {}
    exec("from extdicke import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} \
        == set(extdicke.__all__)
    assert all(namespace[name] is getattr(extdicke, name) for name in HOMES)
    with pytest.raises(AttributeError, match="no_such_name"):
        extdicke.no_such_name


def test_shared_names_are_re_exported_as_the_same_objects():
    from extdicke import exact, model, sweep

    assert exact.ConvergenceError is model.ConvergenceError
    assert sweep.dumps_json is model.dumps_json


def _solve_config(tmp_path, text):
    path = tmp_path / "params.json"
    path.write_text(text)
    args = cli.build_parser().parse_args(["solve", "--config", str(path)])
    return cli._params_from_args(args)


def _sweep(axis=AxisSpec("delta", 0.0, 1.0, 3), **kw):
    return SweepConfig(ModelParams(), (axis,), **kw)


_TRAP = dict(omega_trap=(1e3, 1e3, 1e3), rho_intra=5e-9, rho_inter=4e-9, mass=1.45e-25,
             n_atoms=1000, single_coupling=1.0, cavity_freq=1.0, g0_max=1.0,
             gamma_excited=1.0)


@pytest.mark.parametrize("call, message", [
    (lambda tmp: detect_transitions(ModelParams(), "delta", 0.0, 1.0, n_scan=7),
     "at least 8 points"),
    # a count is a whole number, not truncated; a range end a finite number
    (lambda tmp: detect_transitions(ModelParams(), "delta", 0.0, 1.0, n_scan=201.5),
     "n_scan must be an integer, got 201.5"),
    (lambda tmp: detect_transitions(ModelParams(), "delta", 0.0, 1.0, n_scan="201"),
     "n_scan must be an integer, got '201'"),
    (lambda tmp: detect_transitions(ModelParams(), "delta", "0", 1.0),
     "t_min must be a finite number, got '0'"),
    (lambda tmp: detect_transitions(ModelParams(), "delta", 0.0, float("inf")),
     "t_max must be a finite number, got inf"),
    # a count above MAX_NODES is refused before a node list is built, and a
    # range whose width overflows is named by its ends
    (lambda tmp: detect_transitions(ModelParams(), "delta", 0.0, 1.0, n_scan=1e308),
     "n_scan must be at most MAX_NODES = 1000000"),
    (lambda tmp: detect_transitions(ModelParams(), "delta", 0.0, 1.0, n_scan=10**6 + 1),
     "n_scan must be at most MAX_NODES = 1000000"),
    (lambda tmp: detect_transitions(ModelParams(), "delta", -1e308, 1e308),
     r"t_max - t_min overflows: -1e\+308 to 1e\+308"),
    (lambda tmp: oracle_grid_minimum(ModelParams(), n_points=4096.5),
     "n_points must be an integer, got 4096.5"),
    (lambda tmp: oracle_grid_minimum(ModelParams(), n_points="5000"),
     "n_points must be an integer, got '5000'"),
    (lambda tmp: oracle_grid_minimum(ModelParams(), n_points=1e308),
     "n_points must be at most MAX_NODES = 1000000"),
    (lambda tmp: oracle_grid_minimum(ModelParams(), n_points=10**6 + 1),
     "n_points must be at most MAX_NODES = 1000000"),
    (lambda tmp: ModelParams.from_dict([1.0]), "must be a JSON object"),
    (lambda tmp: SweepConfig.from_dict(["base", "axes"]), "must be a JSON object"),
    (lambda tmp: _solve_config(tmp, "[1.0, 2.0]"), "must be a JSON object"),
    # records built in Python check their values as a config read from JSON does
    (lambda tmp: _sweep(AxisSpec("delta", 0.0, 1.0, 2.5)),
     "axis 'delta' count must be an integer, got 2.5"),
    (lambda tmp: _sweep(AxisSpec("delta", "0", 1.0, 3)),
     "axis 'delta' min must be a finite number, got '0'"),
    (lambda tmp: _sweep(exact_eps="1e-8"), "exact_eps must be finite and positive, got '1e-8'"),
    (lambda tmp: _sweep(exact_n=(2.5,)), "exact_n entry must be a positive integer, got 2.5"),
    (lambda tmp: _sweep(exact_n=(100_000,)),
     "exact_n entry 100000 needs 900009 basis states at the first photon cutoff 8, "
     "above the memory budget 400000"),
    # the memory budget is a whole number, checked before anything is built
    (lambda tmp: converge_cutoff(ModelParams(), budget=math.nan),
     "the memory budget must be an integer, got nan"),
    (lambda tmp: converge_cutoff(ModelParams(), budget=True),
     "the memory budget must be an integer, got True"),
    (lambda tmp: solve_at_cutoff(ModelParams(), 4, budget=math.inf),
     "the memory budget must be an integer, got inf"),
    (lambda tmp: solve_at_cutoff(ModelParams(), 4, budget="400000"),
     "the memory budget must be an integer, got '400000'"),
    (lambda tmp: solve_at_cutoff(ModelParams(), 4, budget=2.5),
     "the memory budget must be an integer, got 2.5"),
    (lambda tmp: solve_at_cutoff(ModelParams(), 4, budget=None),
     "the memory budget must be an integer, got None"),
    (lambda tmp: TrapSpec(**{**_TRAP, "mass": "1e-25"}),
     "trap spec 'mass' must be a finite number, got '1e-25'"),
    (lambda tmp: TrapSpec(**{**_TRAP, "omega_trap": (1.0, 2.0)}),
     "trap spec needs 'omega_trap' as 3 numbers"),
    (lambda tmp: TrapSpec(**{**_TRAP, "n_atoms": 2.5}),
     "trap spec 'n_atoms' must be a positive integer, got 2.5"),
], ids=["n_scan_7", "n_scan_fraction", "n_scan_string", "t_min_string", "t_max_inf",
        "n_scan_1e308", "n_scan_above_cap", "range_overflows",
        "n_points_fraction", "n_points_string", "n_points_1e308", "n_points_above_cap",
        "model_params", "sweep_config",
        "solve_config", "axis_count", "axis_bound", "exact_eps", "exact_n",
        "exact_n_budget", "converge_budget_nan", "converge_budget_bool",
        "solve_budget_inf", "solve_budget_string", "solve_budget_fraction",
        "solve_budget_none", "trap_mass", "trap_frequencies", "trap_atoms"])
def test_malformed_input_is_a_parameter_error(call, message, tmp_path, monkeypatch):
    # refused before any node of a transition scan or the oracle's grid is solved
    def unsolved(*args):
        raise AssertionError("a node was solved")

    monkeypatch.setattr(phases, "_observable_fn", unsolved)
    monkeypatch.setattr(meanfield, "oracle_minimum", unsolved)
    with pytest.raises(ParameterError, match=message):
        call(tmp_path)


def test_records_built_in_python_store_checked_values():
    # an integral float count or atom number is stored as the int it equals,
    # and a list of trap frequencies as a tuple of floats
    config = _sweep(AxisSpec("delta", 0, 1, 3.0), exact_n=[4.0])
    assert config.axes == (AxisSpec("delta", 0.0, 1.0, 3),)
    assert type(config.axes[0].count) is int and config.exact_n == (4,)
    spec = TrapSpec(**{**_TRAP, "omega_trap": [1000, 1000, 1000], "n_atoms": 1000.0})
    assert spec.omega_trap == (1e3, 1e3, 1e3) and type(spec.n_atoms) is int


def test_integral_float_counts_are_the_counts_they_equal():
    p = ModelParams(lam=1.2, delta=0.3)
    assert detect_transitions(p, "delta", -1.0, 1.0, n_scan=41.0) \
        == detect_transitions(p, "delta", -1.0, 1.0, n_scan=41)
    assert oracle_grid_minimum(p, n_points=1000.0) == oracle_grid_minimum(p, n_points=1000)
    # an integral float budget is the budget it equals: in the normal phase
    # the photon basis is the Fock basis, whose 25 photon matrix entries at
    # cutoff 4 fit 25.0 and not 24.0 (about two centres it would need 100)
    normal = ModelParams(lam=0.3, delta=1.0, n_atoms=2)
    assert solve_at_cutoff(normal, 4, budget=25.0) == solve_at_cutoff(normal, 4, budget=25)
    with pytest.raises(ParameterError, match="25 entries exceed the memory budget 24$"):
        solve_at_cutoff(normal, 4, budget=24.0)
    q = ModelParams(lam=1.2, delta=0.3, n_atoms=2)
    assert converge_cutoff(q, budget=1e6) == converge_cutoff(q, budget=1_000_000)


def test_readme_quickstart_runs():
    # the first python block under "## Python quickstart", as printed
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text[text.index("## Python quickstart"):].split("```python\n", 1)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block.split("```", 1)[0], {})
    m_over_n, _, label, *records, ladder = [line.split() for line in out.getvalue().splitlines()]
    assert abs(float(m_over_n[0]) + 0.375) <= 1e-15
    assert label == ["Superradiant"]
    assert [r[0] for r in records] == ["second", "second"]
    for record, edge in zip(records, (-0.8, 0.8)):
        assert abs(float(record[1]) - edge) <= 1e-12
    assert ladder[1:] == ["True", "8"]
