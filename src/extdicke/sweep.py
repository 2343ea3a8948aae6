"""Deterministic parameter sweeps over the mean-field (and optionally
finite-N) solvers.

Datasets are plain tables: one row per grid node (axis-major, first axis
outermost), float cells printed with 17 significant digits so identical
configurations produce byte-identical files.  Per-node failures are data:
the error column carries the message and the remaining cells stay empty.
JSON output is strict RFC 8259: non-finite floats are written as null.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from . import __version__
from .exact import converge_cutoff
from .meanfield import ground_state
from .model import AXES, ModelParams, ParameterError, _integer, _real, field_name
from .phases import classify


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: count values from min to max inclusive."""

    name: str
    min: float
    max: float
    count: int

    def values(self) -> list[float]:
        if self.count == 1:
            return [self.min]
        step = (self.max - self.min) / (self.count - 1)
        return [self.min + step * i for i in range(self.count)]


@dataclass(frozen=True)
class SweepConfig:
    """Base parameters plus one or two axes, with optional finite-N columns
    (one block per atom number in exact_n).  Building one validates the
    axes, the atom numbers and the cutoff-ladder settings; the base
    validated itself when it was built."""

    base: ModelParams
    axes: tuple[AxisSpec, ...]
    exact_n: tuple[int, ...] = ()
    exact_eps: float = 1e-8
    exact_n_max_start: int = 8

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ParameterError("sweeps take one or two axes")
        seen = set()
        for axis in self.axes:
            key = field_name(axis.name)
            if key not in AXES:
                raise ParameterError(f"unknown sweep axis {axis.name!r}")
            if key in seen:
                raise ParameterError(f"axis {axis.name!r} repeated")
            seen.add(key)
            if axis.count < 2:
                raise ParameterError("axis count must be at least 2")
            if not (math.isfinite(axis.min) and math.isfinite(axis.max)):
                raise ParameterError(f"axis {axis.name!r} bounds must be finite, "
                                     f"got {axis.min!r} to {axis.max!r}")
            if not axis.max >= axis.min:
                raise ParameterError("axis max below min")
            if not math.isfinite(axis.max - axis.min):
                raise ParameterError(f"axis {axis.name!r} step overflows: "
                                     f"{axis.min!r} to {axis.max!r}")
        for n in self.exact_n:
            if n < 1:
                raise ParameterError("exact_n entries must be positive")
        if not (math.isfinite(self.exact_eps) and self.exact_eps > 0.0):
            raise ParameterError(
                f"exact_eps must be finite and positive, got {self.exact_eps!r}")
        if self.exact_n_max_start < 1:
            raise ParameterError("exact_n_max_start must be at least 1")

    def to_dict(self) -> dict:
        out = {
            "base": self.base.to_dict(),
            "axes": [
                {"name": a.name, "min": a.min, "max": a.max, "count": a.count}
                for a in self.axes
            ],
        }
        if self.exact_n:
            out["exact_n"] = list(self.exact_n)
            out["exact_eps"] = self.exact_eps
            out["exact_n_max_start"] = self.exact_n_max_start
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        """Build from the JSON form; a value of the wrong shape or type is a
        ParameterError, like a value outside its domain."""
        if not isinstance(data, dict):
            raise ParameterError("sweep config must be a JSON object")
        known = {"base", "axes", "exact_n", "exact_eps", "exact_n_max_start"}
        unknown = set(data) - known
        if unknown:
            raise ParameterError(f"unknown sweep config keys: {sorted(unknown)}")
        if "base" not in data or "axes" not in data:
            raise ParameterError("sweep config needs 'base' and 'axes'")
        base = ModelParams.from_dict(data["base"])
        exact_n = data.get("exact_n", [])
        for key, value in (("axes", data["axes"]), ("exact_n", exact_n)):
            if not isinstance(value, list):
                raise ParameterError(f"sweep config {key!r} must be a list, got {value!r}")
        return cls(
            base=base,
            axes=tuple(_axis(a, i) for i, a in enumerate(data["axes"])),
            exact_n=tuple(_integer(n, "exact_n entry") for n in exact_n),
            exact_eps=_real(data.get("exact_eps", 1e-8), "exact_eps"),
            exact_n_max_start=_integer(data.get("exact_n_max_start", 8),
                                       "exact_n_max_start"),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        return cls.from_dict(json.loads(text))


_AXIS_KEYS = ("name", "min", "max", "count")


def _axis(data, i: int) -> AxisSpec:
    """AxisSpec from entry i of a config's "axes" list, which must be an
    object with exactly the keys name, min, max and count."""
    if not isinstance(data, dict):
        raise ParameterError(f"axis {i} must be an object with keys {list(_AXIS_KEYS)}")
    what = f"axis {data.get('name', i)!r}"
    if set(data) != set(_AXIS_KEYS):
        raise ParameterError(f"{what} must have exactly the keys {list(_AXIS_KEYS)}, "
                             f"got {sorted(map(str, data))}")
    return AxisSpec(data["name"], _real(data["min"], f"{what} min"),
                    _real(data["max"], f"{what} max"),
                    _integer(data["count"], f"{what} count"))


@dataclass(frozen=True)
class SweepDataset:
    """Column-named rows plus provenance comment lines."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    provenance: tuple[str, ...] = ()


_MF_COLUMNS = (
    "u",
    "eta",
    "alpha",
    "s_x",
    "s_z",
    "m_over_n",
    "photon_density",
    "energy_per_atom",
    "phase_label",
    "residual",
    "degenerate",
)


def _columns(config: SweepConfig) -> tuple[str, ...]:
    cols = [a.name for a in config.axes]
    cols.extend(_MF_COLUMNS)
    for n in config.exact_n:
        cols.extend(
            (
                f"exact_N{n}_energy_per_atom",
                f"exact_N{n}_photon_density",
                f"exact_N{n}_m_over_n",
                f"exact_N{n}_converged",
            )
        )
    cols.append("error")
    return tuple(cols)


def _solve_node(config: SweepConfig, values: tuple[float, ...]) -> tuple:
    row: list = list(values)
    errors = []
    kw = {axis.name: val for axis, val in zip(config.axes, values)}
    try:
        params = config.base.replace(**kw)
        sol = ground_state(params)
        label = classify(params, sol)
        row.extend(
            (
                params.u,
                sol.eta,
                sol.alpha,
                sol.point.s_x,
                sol.point.s_z,
                sol.m_over_n,
                sol.photon_density,
                sol.energy_per_atom,
                label.value,
                sol.residual,
                sol.degenerate,
            )
        )
    except Exception as exc:  # errors are data
        row.extend([""] * len(_MF_COLUMNS))
        row.extend([""] * (4 * len(config.exact_n)))
        row.append(f"{type(exc).__name__}: {exc}")
        return tuple(row)

    for n in config.exact_n:
        try:
            ex = converge_cutoff(
                params.replace(n_atoms=n),
                eps=config.exact_eps,
                n_max_start=config.exact_n_max_start,
            )
            row.extend(
                (ex.energy_per_atom, ex.photon_density, ex.m_over_n, ex.converged)
            )
        except Exception as exc:
            row.extend(("", "", "", ""))
            errors.append(f"N={n} {type(exc).__name__}: {exc}")
    row.append("; ".join(errors))
    return tuple(row)


def run_sweep(config: SweepConfig) -> SweepDataset:
    """Evaluate the sweep grid node by node, first axis outermost."""
    grids = [axis.values() for axis in config.axes]
    if len(grids) == 1:
        nodes = [(x,) for x in grids[0]]
    else:
        nodes = [(x, y) for x in grids[0] for y in grids[1]]
    rows = [_solve_node(config, node) for node in nodes]
    provenance = (
        f"extdicke sweep format 6, version {__version__}",
        "config " + json.dumps(config.to_dict(), separators=(",", ":")),
    )
    return SweepDataset(columns=_columns(config), rows=tuple(rows),
                        provenance=provenance)


def _format_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def serialize_csv(dataset: SweepDataset) -> str:
    """CSV with '#'-prefixed provenance lines, 17-significant-digit floats."""
    buf = io.StringIO()
    for line in dataset.provenance:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(dataset.columns)
    for row in dataset.rows:
        writer.writerow([_format_cell(x) for x in row])
    return buf.getvalue()


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
    return json.dumps(_finite_or_none(obj), allow_nan=False, **kw)


def serialize_json(dataset: SweepDataset) -> str:
    """JSON document with the same provenance, columns, and rows."""
    doc = {
        "provenance": list(dataset.provenance),
        "columns": list(dataset.columns),
        "rows": dataset.rows,
    }
    return dumps_json(doc, indent=1)


def _parse_cell(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if str(value) == text:  # "-0" is the float -0.0, not the int 0
            return value
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> SweepDataset:
    """Inverse of serialize_csv (cell types inferred; ints and floats that
    print identically round-trip to identical bytes)."""
    provenance = []
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            provenance.append(line[2:])
        elif line.startswith("#"):
            provenance.append(line[1:])
        elif line:
            body.append(line)
    if not body:
        raise ParameterError("empty dataset")
    reader = csv.reader(body)
    rows = list(reader)
    columns = tuple(rows[0])
    parsed = tuple(tuple(_parse_cell(c) for c in row) for row in rows[1:])
    return SweepDataset(columns=columns, rows=parsed, provenance=tuple(provenance))
