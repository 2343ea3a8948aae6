"""The package's public names."""

import importlib

import pytest

import extdicke

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
