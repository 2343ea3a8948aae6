"""Ground states, critical lines, and phase diagrams of an extended Dicke
model: N two-level atoms (a two-component BEC) coupled to one cavity mode,
with a classical Rabi drive and an atom-atom interaction J_z**2 term.

Thermodynamic-limit ground states reduce to a secular equation for the
stationary points on the collective-spin circle, cross-checked by
brute-force scans, with the phase label of each solved point (meanfield),
finite-N exact diagonalization by a matrix-free Lanczos (exact), critical
lines and transition detection (phases), deterministic sweep datasets
(sweep), and a command-line interface (cli), on the parameters and records
of model, which imports none of them.

Importing the package loads none of them: a public name is read from its
home module when first used (PEP 562 __getattr__).
"""

import importlib

__version__ = "0.1.0"

# public name -> module that defines it
_HOMES = {
    **dict.fromkeys(("ModelParams", "ParameterError", "TrapEstimate",
                     "TrapSpec", "estimate_from_trap"), "model"),
    **dict.fromkeys(("BlochPoint", "MeanFieldSolution", "PhaseLabel", "energy_landscape",
                     "ground_state", "oracle_grid_minimum"), "meanfield"),
    "ConvergenceError": "model",
    **dict.fromkeys(("ExactSolution", "converge_cutoff", "product_state_energy",
                     "solve_at_cutoff"), "exact"),
    **dict.fromkeys(("TransitionRecord", "classify", "critical_overlays",
                     "delta_critical", "detect_transitions", "mott_boundary_delta",
                     "omega_critical", "susceptibility_v", "v_critical"), "phases"),
    **dict.fromkeys(("AxisSpec", "SweepConfig", "SweepDataset", "parse_csv",
                     "run_sweep", "serialize_csv", "serialize_json"), "sweep"),
}

__all__ = ["__version__", *_HOMES]


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
