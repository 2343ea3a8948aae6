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
from .model import AXES, ModelParams, ParameterError, field_name, validate
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
    (one block per atom number in exact_n)."""

    base: ModelParams
    axes: tuple[AxisSpec, ...]
    exact_n: tuple[int, ...] = ()
    exact_eps: float = 1e-8
    exact_n_max_start: int = 8

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
        known = {"base", "axes", "exact_n", "exact_eps", "exact_n_max_start"}
        unknown = set(data) - known
        if unknown:
            raise ParameterError(f"unknown sweep config keys: {sorted(unknown)}")
        if "base" not in data or "axes" not in data:
            raise ParameterError("sweep config needs 'base' and 'axes'")
        base = ModelParams.from_dict(data["base"])
        axes = tuple(
            AxisSpec(a["name"], float(a["min"]), float(a["max"]),
                     _integer(a["count"], "axis count"))
            for a in data["axes"]
        )
        return cls(
            base=base,
            axes=axes,
            exact_n=tuple(_integer(n, "exact_n entry") for n in data.get("exact_n", ())),
            exact_eps=float(data.get("exact_eps", 1e-8)),
            exact_n_max_start=_integer(data.get("exact_n_max_start", 8),
                                       "exact_n_max_start"),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        return cls.from_dict(json.loads(text))


def _integer(x, what: str) -> int:
    """int(x), except that a bool or a float with a fractional part (or no
    finite value) is an error rather than something to truncate."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise ParameterError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _validate_config(config: SweepConfig) -> None:
    validate(config.base)
    if not 1 <= len(config.axes) <= 2:
        raise ParameterError("sweeps take one or two axes")
    seen = set()
    for axis in config.axes:
        key = field_name(axis.name)
        if key not in AXES:
            raise ParameterError(f"unknown sweep axis {axis.name!r}")
        if key in seen:
            raise ParameterError(f"axis {axis.name!r} repeated")
        seen.add(key)
        if axis.count < 2:
            raise ParameterError("axis count must be at least 2")
        if not axis.max >= axis.min:
            raise ParameterError("axis max below min")
    for n in config.exact_n:
        if n < 1:
            raise ParameterError("exact_n entries must be positive")


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
        params = validate(config.base.replace(**kw))
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
    _validate_config(config)
    grids = [axis.values() for axis in config.axes]
    if len(grids) == 1:
        nodes = [(x,) for x in grids[0]]
    else:
        nodes = [(x, y) for x in grids[0] for y in grids[1]]
    rows = [_solve_node(config, node) for node in nodes]
    provenance = (
        f"extdicke sweep format 1, version {__version__}",
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
        return int(text)
    except ValueError:
        pass
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
