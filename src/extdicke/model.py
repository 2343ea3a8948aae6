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

import math
import numbers
import sys

# Exact SI value (h = 6.62607015e-34 J s since 2019), in J s.
hbar = 6.62607015e-34 / (2.0 * math.pi)

# The largest finite float.  A number between -_FLOAT_MAX and _FLOAT_MAX is
# finite: nan and +-inf fail the comparison, and so does an int too large
# for a float (JSON reads a long digit string as one), which math.isfinite
# would meet with an OverflowError.
_FLOAT_MAX = sys.float_info.max


class ParameterError(ValueError):
    """A model parameter violates its domain."""


# defined here, as dumps_json is, so that reporting a failure loads neither
# the finite-N solver nor the sweeps
class ConvergenceError(RuntimeError):
    """The iterative eigensolver failed to converge."""


def _finite_or_none(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: _finite_or_none(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_none(v) for v in x]
    return x


def dumps_json(obj, **kw) -> str:
    """json.dumps with every non-finite float written as null, so the
    output is strict RFC 8259 (which has no NaN or Infinity)."""
    import json
    return json.dumps(_finite_or_none(obj), allow_nan=False, **kw)


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


def _positive(x, what: str) -> float:
    """float(x) for a finite positive int or float, else a ParameterError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not 0.0 < x <= _FLOAT_MAX:
        raise ParameterError(f"{what} must be finite and positive, got {x!r}")
    return float(x)


def _atoms(x, what: str) -> int:
    """int(x) for a positive whole number of atoms, not truncated."""
    if (isinstance(x, bool) or not isinstance(x, numbers.Real)
            or not 1 <= x <= _FLOAT_MAX or int(x) != x):
        raise ParameterError(f"{what} must be a positive integer, got {x!r}")
    return int(x)


# The cutoff ladder of exact.converge_cutoff, here so that sweeps and the
# CLI read it without loading exact: its default eps and dimension budget,
# and the photon cutoff every ladder starts at.
LADDER_EPS = 1e-8
N_MAX_START = 8
DIMENSION_BUDGET = 400_000
# The most nodes of a sweep's grid, a transition scan or the oracle's circle
# grid: a larger count is refused before anything is built.
MAX_NODES = 10**6


def basis_size(n_max: int, n_atoms: int, centred: bool = False) -> tuple[int, int]:
    """The basis dimension at photon cutoff n_max, P photon states times
    N + 1 J_z, and the P**2 entries of a dense photon matrix: P = n_max + 1
    photon numbers on the Fock basis (the field's centre at 0), at most
    P = 2 * (n_max + 1) about the two centres of a displaced field
    (`centred`)."""
    photons = (n_max + 1) * (2 if centred else 1)
    return photons * (n_atoms + 1), photons * photons


def check_ladder(eps, atom_numbers, budget: int = DIMENSION_BUDGET,
                 names=("convergence tolerance", "atom number", "the memory budget"),
                 centred=lambda n: False):
    """The ladder settings' rule, for converge_cutoff, SweepConfig and
    exact-check: eps a positive finite number, each atom number a distinct
    positive integer whose first cutoff fits the budget (an integer) in its
    dimension and in its photon matrix entries (basis_size; centred(N) says
    whether the ladder at N holds the two centres of a displaced field, and
    the Fock basis is counted where that is not known yet).  The largest N
    that does not fit is reported.
    Returns (float eps, tuple of int atom numbers); an error uses the
    caller's `names` of the three."""
    eps = _positive(eps, names[0])
    ns = tuple(_atoms(n, names[1]) for n in atom_numbers)
    for i, n in enumerate(ns):
        if n in ns[:i]:
            raise ParameterError(f"{names[1]} {n} repeated")
    budget = _integer(budget, names[2])
    for n in sorted(ns, reverse=True):
        dim, entries = basis_size(N_MAX_START, n, centred(n))
        for need, what in ((dim, "basis states"), (entries, "photon matrix entries")):
            if need > budget:
                raise ParameterError(f"{names[1]} {n} needs {need} {what} at the first "
                                     f"photon cutoff {N_MAX_START}, above {names[2]} {budget}")
    return eps, ns


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self.__dict__ == other.__dict__
    return NotImplemented


def _hash(self):
    return hash(tuple(self.__dict__.values()))


def _repr(self):
    fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
    return f"{self.__class__.__qualname__}({fields})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def record(cls):
    """Make cls a frozen record as dataclass(frozen=True) would, without the
    import of inspect that would cost every CLI process about 12 ms.  The
    fields (cls._fields) are the annotated names in order, with class
    attributes as defaults; __init__ stores them in the instance __dict__
    and calls __post_init__ if cls has one."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in cls.__dict__ else n
                       for n in names)
    src = (f"def __init__(self, {params}):\n    _d = self.__dict__\n"
           + "".join(f"    _d[{n!r}] = {n}\n" for n in names)
           + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""))
    namespace = {"_defaults": cls.__dict__}
    exec(src, namespace)
    cls.__init__, cls._fields = namespace["__init__"], names
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


# The five couplings, one row each in the order of ModelParams' fields: the
# field; the key, the coupling's one name outside Python (in a JSON config,
# as a sweep or transition axis, and as a dataset column); the command-line
# flag; and the flag's help.  A coupling's default is its field's.
COUPLINGS = (
    ("omega", "omega", "--omega", "cavity frequency"),
    ("lam", "lambda", "--lambda", "collective coupling"),
    ("delta", "delta", "--delta", "detuning"),
    ("omega_rabi", "omega_rabi", "--rabi", "Rabi drive"),
    ("v", "v", "--v", "atom-atom coupling"),
)
AXES = tuple(row[0] for row in COUPLINGS)
KEYS = tuple(row[1] for row in COUPLINGS)
_FIELD_NAMES = tuple(f"parameter {field!r}" for field in AXES)  # check_couplings' default


def coupling_scale(u, v, delta, rabi):
    """S, the unit of the reduced energy, which omega does not enter."""
    return max(u, abs(v), rabi, abs(delta))


@record
class ModelParams:
    """Couplings of the extended Dicke Hamiltonian (angular MHz; lam is
    lambda, see COUPLINGS) and the atom number; each field default is also
    the default of a config and of the command line.  Building one validates
    it, so every ModelParams in existence lies in the model's domain."""

    omega: float = 1.0
    lam: float = 1.0
    delta: float = 0.0
    omega_rabi: float = 0.0
    v: float = 0.0
    n_atoms: int = 1

    def __post_init__(self):
        validate(self)
        # an integral float atom number (4.0) is kept as the int it equals
        object.__setattr__(self, "n_atoms", int(self.n_atoms))

    @property
    def u(self) -> float:
        return self.lam * self.lam / self.omega

    @property
    def hamiltonian_scale(self) -> float:
        """max(omega, S), the unit of H: S (`coupling_scale`) leaves out omega."""
        return max(self.omega, coupling_scale(self.u, self.v, self.delta, self.omega_rabi))

    def replace(self, **kw) -> "ModelParams":
        """A copy with the fields in kw changed."""
        return ModelParams(**{**vars(self), **kw})

    def to_dict(self) -> dict:
        """The JSON form: each coupling under its key, then n_atoms."""
        return {**{key: getattr(self, field) for field, key in zip(AXES, KEYS)},
                "n_atoms": self.n_atoms}

    @classmethod
    def from_dict(cls, data: dict, flags: dict = None) -> "ModelParams":
        """Build from the JSON form, an object with any of KEYS and n_atoms.
        A coupling comes from `flags` (key -> the command-line (flag, value)
        that overrides data), else from data, else from its field default;
        an error names the flag or the quoted key that gave the bad value."""
        if not isinstance(data, dict):
            raise ParameterError("model parameters must be a JSON object")
        unknown = set(data) - {*KEYS, "n_atoms"}
        if unknown:
            raise ParameterError(f"unknown parameter keys: {sorted(unknown)}")
        flags = flags or {}
        kw = {field: flags[key][1] if key in flags else data.get(key, getattr(cls, field))
              for field, key in zip(AXES, KEYS)}
        check_couplings(*kw.values(), names=[flags[key][0] if key in flags else
                                             repr(key) if key in data else "" for key in KEYS])
        return cls(**kw, n_atoms=data.get("n_atoms", cls.n_atoms))


def check_couplings(omega, lam, delta, omega_rabi, v, names=None) -> float:
    """The couplings' rule, for validate, each sweep node and from_dict:
    returns u = lam*lam/omega or a ParameterError naming the first violated
    constraint.  `names` gives in COUPLINGS order the flag or key ("--lambda",
    "'lambda'") of each coupling, "" for a default, for an error to name.
    Without it a type error names the field and a domain error nothing."""
    typed = names or _FIELD_NAMES  # one call each: a loop over zip costs 15 % more
    _real(omega, typed[0])
    _real(lam, typed[1])
    _real(delta, typed[2])
    _real(omega_rabi, typed[3])
    _real(v, typed[4])
    if omega <= 0.0:
        raise ParameterError(f"{_at(names, 0)}nonpositive cavity frequency")
    if lam < 0.0:
        raise ParameterError(f"{_at(names, 1)}negative collective coupling")
    u = lam * lam / omega
    if not math.isfinite(u):
        raise ParameterError(f"{_at(names, 1) or _at(names, 0)}"
                             "non-finite coupling u = lambda**2/omega")
    if omega_rabi < 0.0:
        # The sign of omega_rabi is a gauge choice (J_x -> -J_x flips it);
        # the nonnegative representative is enforced for uniqueness.
        raise ParameterError(f"{_at(names, 3)}negative Rabi frequency")
    return u


def _at(names, i: int) -> str:
    """The start of a domain error about coupling i: "name: " or ""."""
    return f"{names[i]}: " if names and names[i] else ""


def validate(params: ModelParams) -> ModelParams:
    """Check parameter domains; returns params unchanged or raises
    ParameterError naming the first violated constraint.  ModelParams
    calls it when built."""
    check_couplings(params.omega, params.lam, params.delta, params.omega_rabi,
                    params.v)
    _atoms(params.n_atoms, "the number of atoms")
    return params


@record
class TrapSpec:
    """Experimental inputs for coupling estimates.

    Trap frequencies are rad/s, scattering lengths are meters, the mass is
    kg; the cavity/atom couplings (single_coupling = lambda-tilde, g0_max,
    gamma_excited) and cavity_freq are angular MHz.  Building one checks
    it: every field is a finite number (omega_trap three, n_atoms a positive
    integer), the trap frequencies, mass, cavity_freq and g0_max are
    positive, and gamma_excited is not negative.
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

    def __post_init__(self):
        d = self.__dict__
        trap = d["omega_trap"]
        if not isinstance(trap, (list, tuple)) or len(trap) != 3:
            raise ParameterError("trap spec needs 'omega_trap' as 3 numbers")
        d["omega_trap"] = tuple(_real(x, "trap spec 'omega_trap' entry") for x in trap)
        for name in self._fields[1:]:
            d[name] = (_atoms if name == "n_atoms" else _real)(d[name], f"trap spec {name!r}")
        if min(self.omega_trap) <= 0.0:
            raise ParameterError("nonpositive trap frequency")
        if self.mass <= 0.0:
            raise ParameterError("nonpositive atomic mass")
        if self.cavity_freq <= 0.0:
            raise ParameterError("nonpositive cavity frequency")
        if self.g0_max <= 0.0 or self.gamma_excited < 0.0:
            raise ParameterError("invalid cavity loss parameters")

    def to_dict(self) -> dict:
        return {**vars(self), "omega_trap": list(self.omega_trap)}

    @classmethod
    def from_dict(cls, data: dict) -> "TrapSpec":
        """Build from the JSON form, an object with exactly the field names
        as keys; the spec checks the values."""
        if not isinstance(data, dict):
            raise ParameterError("trap spec must be a JSON object")
        if set(data) != set(cls._fields):
            raise ParameterError(f"bad trap spec: keys {sorted(map(str, data))}, "
                                 f"expected {list(cls._fields)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "TrapSpec":
        import json
        return cls.from_dict(json.loads(text))


@record
class TrapEstimate:
    """Coupling scales derived from a TrapSpec (angular MHz), with the
    oscillator lengths d_x, d_y, d_z (m) behind v, the shorthand value of v
    and v in cyclic MHz (see estimate_from_trap)."""

    v: float
    lam: float
    u: float
    n_crit: float
    d_x: float
    d_y: float
    d_z: float
    v_shorthand: float
    v_cyclic_mhz: float


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
    read in cyclic MHz instead of Mrad/s, are the fields v_shorthand and
    v_cyclic_mhz, beside the oscillator lengths d_x, d_y, d_z.
    The spec checked its values: the one error here is an oscillator volume
    outside the float range.
    """
    wx, wy, wz = spec.omega_trap
    try:  # mass * omega_i or dx*dy*dz can underflow to 0
        dx = math.sqrt(hbar / (spec.mass * wx))
        dy = math.sqrt(hbar / (spec.mass * wy))
        dz = math.sqrt(hbar / (spec.mass * wz))
        overlap = (2.0 * math.pi) ** -1.5 / (dx * dy * dz)  # int |phi|^4, 1/m^3
    except ZeroDivisionError:
        raise ParameterError("trap spec 'mass' and 'omega_trap' give an oscillator "
                             "volume outside the float range") from None
    drho = spec.rho_intra - spec.rho_inter
    v_si = spec.n_atoms * drho * (4.0 * math.pi * hbar / spec.mass) * overlap
    v = v_si / 1e6  # rad/s -> Mrad/s (angular MHz)

    lam = 2.0 * spec.single_coupling * math.sqrt(spec.n_atoms)
    u = lam * lam / spec.cavity_freq
    loss = spec.gamma_excited / spec.g0_max  # squared below without OverflowError
    n_crit = 0.5 * loss * loss
    return TrapEstimate(v=v, lam=lam, u=u, n_crit=n_crit, d_x=dx, d_y=dy, d_z=dz,
                        v_shorthand=0.5 * v, v_cyclic_mhz=v / (2.0 * math.pi))
