"""The package's public names, and how its entry points reject malformed
input."""

import importlib

import pytest

import extdicke
from extdicke import cli
from extdicke.model import ModelParams, ParameterError
from extdicke.phases import detect_transitions
from extdicke.sweep import SweepConfig

# each public name and the module that defines it
HOMES = {
    "ModelParams": "model",
    "ParameterError": "model",
    "TrapEstimate": "model",
    "TrapSpec": "model",
    "estimate_from_trap": "model",
    "omega_critical": "model",
    "BlochPoint": "meanfield",
    "MeanFieldSolution": "meanfield",
    "energy_landscape": "meanfield",
    "ground_state": "meanfield",
    "oracle_grid_minimum": "meanfield",
    "ConvergenceError": "model",
    "ExactSolution": "exact",
    "build_hamiltonian": "exact",
    "converge_cutoff": "exact",
    "product_state_energy": "exact",
    "solve_at_cutoff": "exact",
    "PhaseLabel": "phases",
    "TransitionRecord": "phases",
    "classify": "phases",
    "critical_overlays": "phases",
    "delta_critical": "phases",
    "detect_transitions": "phases",
    "mott_boundary_delta": "phases",
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


@pytest.mark.parametrize("call, message", [
    (lambda tmp: detect_transitions(ModelParams(), "delta", 0.0, 1.0, n_scan=7),
     "at least 8 points"),
    (lambda tmp: ModelParams.from_dict([1.0]), "must be a JSON object"),
    (lambda tmp: SweepConfig.from_dict(["base", "axes"]), "must be a JSON object"),
    (lambda tmp: _solve_config(tmp, "[1.0, 2.0]"), "must be a JSON object"),
], ids=["n_scan_7", "model_params", "sweep_config", "solve_config"])
def test_malformed_input_is_a_parameter_error(call, message, tmp_path):
    with pytest.raises(ParameterError, match=message):
        call(tmp_path)
