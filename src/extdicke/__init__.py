"""Ground states, critical lines, and phase diagrams of an extended Dicke
model: N two-level atoms (a two-component BEC) coupled to one cavity mode,
with a classical Rabi drive and an atom-atom interaction J_z**2 term.

Thermodynamic-limit ground states reduce to a quartic stationarity problem
on the collective-spin circle (meanfield), cross-checked by brute-force
scans, finite-N sparse diagonalization (exact), phase classification and
transition detection (phases), deterministic sweep datasets (sweep), and a
command-line interface (cli).  The scalar kernels behind the mean-field
solver live in _kernels_py.
"""

__version__ = "0.1.0"

from .model import (
    ModelParams,
    ParameterError,
    TrapEstimate,
    TrapSpec,
    estimate_from_trap,
    omega_critical,
)
from .meanfield import (
    BlochPoint,
    MeanFieldSolution,
    energy_landscape,
    ground_state,
    oracle_grid_minimum,
)
from .exact import (
    ConvergenceError,
    ExactSolution,
    FockSpinBasis,
    build_hamiltonian,
    converge_cutoff,
    product_state_energy,
    solve_at_cutoff,
)
from .phases import (
    PhaseLabel,
    TransitionRecord,
    classify,
    critical_overlays,
    delta_critical,
    detect_transitions,
    mott_boundary_delta,
    susceptibility_v,
    v_critical,
)
from .sweep import (
    AxisSpec,
    SweepConfig,
    SweepDataset,
    parse_csv,
    run_sweep,
    serialize_csv,
    serialize_json,
)

__all__ = [
    "__version__",
    "ModelParams",
    "ParameterError",
    "TrapEstimate",
    "TrapSpec",
    "estimate_from_trap",
    "omega_critical",
    "BlochPoint",
    "MeanFieldSolution",
    "energy_landscape",
    "ground_state",
    "oracle_grid_minimum",
    "ConvergenceError",
    "ExactSolution",
    "FockSpinBasis",
    "build_hamiltonian",
    "converge_cutoff",
    "product_state_energy",
    "solve_at_cutoff",
    "PhaseLabel",
    "TransitionRecord",
    "classify",
    "critical_overlays",
    "delta_critical",
    "detect_transitions",
    "mott_boundary_delta",
    "susceptibility_v",
    "v_critical",
    "AxisSpec",
    "SweepConfig",
    "SweepDataset",
    "parse_csv",
    "run_sweep",
    "serialize_csv",
    "serialize_json",
]
