"""Model parameters and experimental estimates for an extended Dicke model.

The Hamiltonian is

    H = omega a^dag a + (lambda/sqrt(N)) J_x (a^dag + a)
        + delta J_z + omega_rabi J_x + (v/N) J_z^2

for N two-level atoms (a two-component BEC in an optical cavity) with
collective spin j = N/2.  All frequencies are angular MHz (Mrad/s) unless
noted otherwise; hbar = 1 throughout.

Derived couplings: u = lambda**2/omega competes with the atom-atom coupling
v, and the combination w = u + v controls the critical structure.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields

# Exact SI value (h = 6.62607015e-34 J s since 2019), in J s.
hbar = 6.62607015e-34 / (2.0 * math.pi)

# The largest finite float.  A number between -_FLOAT_MAX and _FLOAT_MAX is
# finite: nan and +-inf fail the comparison, and so does an int too large
# for a float (JSON reads a long digit string as one), which math.isfinite
# would meet with an OverflowError.
_FLOAT_MAX = sys.float_info.max

# Couplings a sweep or a transition scan may move, by ModelParams field.
AXES = ("omega", "lam", "delta", "omega_rabi", "v")


class ParameterError(ValueError):
    """A model parameter violates its domain."""


def _real(x, what: str) -> float:
    """float(x) for a finite int or float; a bool, a string, null, any other
    type or a non-finite value is an error rather than something to
    convert."""
    if (isinstance(x, bool) or not isinstance(x, (int, float))
            or not -_FLOAT_MAX <= x <= _FLOAT_MAX):
        raise ParameterError(f"{what} must be a finite number, got {x!r}")
    return float(x)


def _integer(x, what: str) -> int:
    """int(x), except that a bool, a non-number or a float with a fractional
    part (or no finite value) is an error rather than something to
    truncate."""
    if (isinstance(x, bool) or not isinstance(x, (numbers.Integral, float))
            or (isinstance(x, float) and not x.is_integer())):
        raise ParameterError(f"{what} must be an integer, got {x!r}")
    return int(x)


@dataclass(frozen=True)
class ModelParams:
    """Couplings of the extended Dicke Hamiltonian, in angular MHz.

    lam is the collective atom-field coupling (lambda in the Hamiltonian;
    serialized under the JSON key "lambda").  Building one validates it, so
    every ModelParams in existence lies in the model's domain.
    """

    omega: float = 1.0
    lam: float = 0.0
    delta: float = 0.0
    omega_rabi: float = 0.0
    v: float = 0.0
    n_atoms: int = 1

    def __post_init__(self):
        validate(self)

    @property
    def u(self) -> float:
        return self.lam * self.lam / self.omega

    def replace(self, **kw) -> "ModelParams":
        return ModelParams.from_dict({**vars(self), **kw})

    def to_dict(self) -> dict:
        return {
            "omega": self.omega,
            "lambda": self.lam,
            "delta": self.delta,
            "omega_rabi": self.omega_rabi,
            "v": self.v,
            "n_atoms": self.n_atoms,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        """Build from a dict keyed by field or JSON name; if both "lam" and
        "lambda" are given, the later one wins."""
        if not isinstance(data, dict):
            raise ParameterError("model parameters must be a JSON object")
        kw = {field_name(k): v for k, v in data.items()}
        unknown = set(kw) - {*AXES, "n_atoms"}
        if unknown:
            raise ParameterError(f"unknown parameter keys: {sorted(unknown)}")
        return cls(**kw)


def field_name(key: str) -> str:
    """ModelParams field behind a parameter name: the JSON and CLI name
    "lambda" is the field lam; every other name is its own field."""
    return "lam" if key == "lambda" else key


def validate(params: ModelParams) -> ModelParams:
    """Check parameter domains; returns params unchanged or raises
    ParameterError naming the first violated constraint.  ModelParams
    calls it when built."""
    for name in AXES:
        x = getattr(params, name)
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ParameterError(f"parameter {name!r} is not a number")
        if not -_FLOAT_MAX <= x <= _FLOAT_MAX:
            raise ParameterError(f"non-finite parameter {name!r}")
    if params.omega <= 0.0:
        raise ParameterError("nonpositive cavity frequency")
    if params.lam < 0.0:
        raise ParameterError("negative collective coupling")
    if not math.isfinite(params.u):
        raise ParameterError("non-finite coupling u = lambda**2/omega")
    if params.omega_rabi < 0.0:
        # The sign of omega_rabi is a gauge choice (J_x -> -J_x flips it);
        # the nonnegative representative is enforced for uniqueness.
        raise ParameterError("negative Rabi frequency")
    n = params.n_atoms
    if (isinstance(n, bool) or not isinstance(n, numbers.Real)
            or not -_FLOAT_MAX <= n <= _FLOAT_MAX or int(n) != n or n < 1):
        raise ParameterError("the number of atoms must be a positive integer")
    return params


def omega_critical(u: float, v: float) -> float:
    """Rabi strength |u + v| above which the detuning sweep of the atomic
    population loses its first-order jump."""
    return abs(u + v)


@dataclass(frozen=True)
class TrapSpec:
    """Experimental inputs for coupling estimates.

    Trap frequencies are rad/s, scattering lengths are meters, the mass is
    kg; the cavity/atom couplings (single_coupling = lambda-tilde, g0_max,
    gamma_excited) and cavity_freq are angular MHz.
    """

    omega_trap: tuple[float, float, float]
    rho_intra: float
    rho_inter: float
    mass: float
    n_atoms: int
    single_coupling: float
    cavity_freq: float
    g0_max: float
    gamma_excited: float

    def to_dict(self) -> dict:
        return {**vars(self), "omega_trap": list(self.omega_trap)}

    @classmethod
    def from_dict(cls, data: dict) -> "TrapSpec":
        """Build from the JSON form: an object with exactly the field names
        as keys, each a finite number (omega_trap a list of three, n_atoms
        an integer).  Anything else is a ParameterError."""
        if not isinstance(data, dict):
            raise ParameterError("trap spec must be a JSON object")
        names = [f.name for f in fields(cls)]
        if set(data) != set(names):
            raise ParameterError(f"bad trap spec: keys {sorted(map(str, data))}, "
                                 f"expected {names}")
        trap = data["omega_trap"]
        if not isinstance(trap, list) or len(trap) != 3:
            raise ParameterError("trap spec needs 'omega_trap' as 3 numbers")
        kw = {name: _real(x, f"trap spec {name!r}") for name, x in data.items()
              if name != "omega_trap"}
        kw["omega_trap"] = tuple(_real(x, "trap spec 'omega_trap' entry") for x in trap)
        kw["n_atoms"] = _integer(data["n_atoms"], "trap spec 'n_atoms'")
        return cls(**kw)

    @classmethod
    def from_json(cls, text: str) -> "TrapSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class TrapEstimate:
    """Coupling scales derived from a TrapSpec (angular MHz)."""

    v: float
    lam: float
    u: float
    n_crit: float
    metadata: dict = field(default_factory=dict)


def estimate_from_trap(spec: TrapSpec) -> TrapEstimate:
    """Estimate (v, lambda, u, n_crit) from trap and cavity data.

    The atom-atom coupling is N times the difference between the intra- and
    inter-component contact-interaction energies of a normalized Gaussian
    ground-state orbital with oscillator lengths d_i = sqrt(hbar/(m*omega_i)),
    for which int |phi|^4 = (2*pi)**-1.5 / (d_x*d_y*d_z):

        v = N*(rho_intra - rho_inter) * (4*pi*hbar/m) * (2*pi)**-1.5
            / (d_x*d_y*d_z)

    A common shorthand drops the factor 2 relative to this route
    (N*drho*hbar/(sqrt(2*pi)*m*dx*dy*dz)); its value, and the value of v
    read in cyclic MHz instead of Mrad/s, are reported in the metadata.
    """
    wx, wy, wz = spec.omega_trap
    if min(wx, wy, wz) <= 0.0:
        raise ParameterError("nonpositive trap frequency")
    if spec.mass <= 0.0:
        raise ParameterError("nonpositive atomic mass")
    if spec.n_atoms < 1:
        raise ParameterError("no atoms")
    if spec.cavity_freq <= 0.0:
        raise ParameterError("nonpositive cavity frequency")
    if spec.g0_max <= 0.0 or spec.gamma_excited < 0.0:
        raise ParameterError("invalid cavity loss parameters")

    dx = math.sqrt(hbar / (spec.mass * wx))
    dy = math.sqrt(hbar / (spec.mass * wy))
    dz = math.sqrt(hbar / (spec.mass * wz))
    drho = spec.rho_intra - spec.rho_inter
    overlap = (2.0 * math.pi) ** -1.5 / (dx * dy * dz)  # int |phi|^4, 1/m^3
    v_si = spec.n_atoms * drho * (4.0 * math.pi * hbar / spec.mass) * overlap
    v = v_si / 1e6  # rad/s -> Mrad/s (angular MHz)
    v_half = 0.5 * v

    lam = 2.0 * spec.single_coupling * math.sqrt(spec.n_atoms)
    u = lam * lam / spec.cavity_freq
    n_crit = spec.gamma_excited**2 / (2.0 * spec.g0_max**2)

    meta = {
        "d_x": dx,
        "d_y": dy,
        "d_z": dz,
        "v_shorthand": v_half,
        "v_cyclic_mhz": v / (2.0 * math.pi),
    }
    return TrapEstimate(v=v, lam=lam, u=u, n_crit=n_crit, metadata=meta)
