"""Deterministic parameter sweeps over the mean-field (and optionally
finite-N) solvers.

Datasets are plain tables: one row per grid node (axis-major, first axis
outermost), float cells printed with 17 significant digits so identical
configurations produce byte-identical files.  A node's ParameterError or
ConvergenceError is data: the error column carries the message and the
remaining cells stay empty; any other exception stops the sweep.
JSON output is strict RFC 8259: non-finite floats are written as null.

A node's mean-field cells are computed on floats and equal what
ground_state and phases.classify give there, error messages included: its
label is meanfield's phase_label, so a sweep loads no phases module.  Only
the finite-N columns build a ModelParams and load the finite-N solver.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

from . import __version__
from .meanfield import phase_label, point_observables, solve_point
from .model import (AXES, KEYS, LADDER_EPS, MAX_NODES, ConvergenceError, ModelParams,
                    ParameterError, _integer, _real, check_couplings, check_ladder, dumps_json,
                    record)


@record
class AxisSpec:
    """One swept coupling, named by its key: count values from min to max."""

    name: str
    min: float
    max: float
    count: int

    def values(self) -> list[float]:
        """Node i is (min * (n - 1 - i) + max * i) / (n - 1) and the ends are
        min and max, so a symmetric axis is odd about 0; near the float
        maximum the products are taken at 2**-64 scale."""
        if self.count == 1:
            return [self.min]
        last = self.count - 1
        k = 64 if max(abs(self.min), abs(self.max)) * last > 2.0 ** 1000 else 0
        lo, hi = math.ldexp(self.min, -k), math.ldexp(self.max, -k)
        inner = [math.ldexp((lo * (last - i) + hi * i) / last, k) for i in range(1, last)]
        return [self.min, *inner, self.max]


@record
class SweepConfig:
    """Base parameters plus one or two axes, with optional finite-N columns
    (one block per atom number in exact_n).  Building one checks the axes
    (stored with float bounds and an int count) and, through check_ladder,
    the finite-N settings, so a bad one stops a scan before any node runs;
    the base checked itself when it was built."""

    base: ModelParams
    axes: tuple[AxisSpec, ...]
    exact_n: tuple[int, ...] = ()
    exact_eps: float = LADDER_EPS

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ParameterError("sweeps take one or two axes")
        seen, nodes, axes = set(), 1, []
        for axis in self.axes:
            if axis.name not in KEYS:
                raise ParameterError(f"unknown sweep axis {axis.name!r}")
            if axis.name in seen:
                raise ParameterError(f"axis {axis.name!r} repeated")
            seen.add(axis.name)
            what = f"axis {axis.name!r}"
            lo, hi = _real(axis.min, f"{what} min"), _real(axis.max, f"{what} max")
            count = _integer(axis.count, f"{what} count")
            if count < 2:
                raise ParameterError("axis count must be at least 2")
            nodes *= count
            if nodes > MAX_NODES:
                raise ParameterError(f"{what} takes the grid past {MAX_NODES} nodes")
            if not hi >= lo:
                raise ParameterError("axis max below min")
            if not math.isfinite(hi - lo):
                raise ParameterError(f"{what} step overflows: {lo!r} to {hi!r}")
            axes.append(AxisSpec(axis.name, lo, hi, count))
        eps, exact_n = check_ladder(self.exact_eps, self.exact_n,
                                    names=("exact_eps", "exact_n entry", "the memory budget"))
        self.__dict__.update(axes=tuple(axes), exact_n=exact_n, exact_eps=eps)

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
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        """Build from the JSON form, of which this checks the shape (known
        keys, `axes` and `exact_n` lists); the config checks the values."""
        if not isinstance(data, dict):
            raise ParameterError("sweep config must be a JSON object")
        known = {"base", "axes", "exact_n", "exact_eps"}
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
        return cls(base, [_axis(a, i) for i, a in enumerate(data["axes"])], exact_n,
                   data.get("exact_eps", cls.exact_eps))

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        return cls.from_dict(json.loads(text))


_AXIS_KEYS = ("name", "min", "max", "count")


def _axis(data, i: int) -> AxisSpec:
    """AxisSpec from entry i of a config's "axes" list, which must be an
    object with exactly the keys name, min, max and count."""
    if not isinstance(data, dict):
        raise ParameterError(f"axis {i} must be an object with keys {list(_AXIS_KEYS)}")
    if set(data) != set(_AXIS_KEYS):
        raise ParameterError(f"axis {data.get('name', i)!r} must have exactly the keys "
                             f"{list(_AXIS_KEYS)}, got {sorted(map(str, data))}")
    return AxisSpec(*(data[key] for key in _AXIS_KEYS))


@record
class SweepDataset:
    """Column-named rows plus provenance comment lines."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    provenance: tuple[str, ...] = ()


_MF_COLUMNS = (
    "u",
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


def _solve_node(config: SweepConfig, slots: list[int], base: list,
                values: tuple[float, ...]) -> tuple:
    """The row of one node: `base` holds the couplings in AXES order and
    `slots` the AXES position each axis value replaces."""
    row: list = list(values)
    couplings = base.copy()
    for slot, x in zip(slots, values):
        couplings[slot] = x
    omega, lam, delta, rabi, v = couplings
    try:
        u = check_couplings(omega, lam, delta, rabi, v)
        s_x, s_z, e, residual, degenerate, flat, n_minima = solve_point(u, v, delta, rabi)
        alpha, m_over_n, photon_density = point_observables(lam, omega, s_x, s_z)
        label = phase_label(flat, m_over_n, n_minima, s_x, u, v)
        row.extend((u, alpha, s_x, s_z, m_over_n, photon_density, e,
                    label.value, residual, bool(degenerate)))
    except ParameterError as exc:  # errors are data
        row.extend([""] * (len(_MF_COLUMNS) + 4 * len(config.exact_n)))
        row.append(f"{type(exc).__name__}: {exc}")
        return tuple(row)

    errors = []
    if config.exact_n:
        from .exact import converge_cutoff
    for n in config.exact_n:
        try:
            ex = converge_cutoff(ModelParams(*couplings, n_atoms=n), eps=config.exact_eps)
            row.extend(
                (ex.energy_per_atom, ex.photon_density, ex.m_over_n, ex.converged)
            )
        except (ParameterError, ConvergenceError) as exc:
            row.extend(("", "", "", ""))
            errors.append(f"N={n} {type(exc).__name__}: {exc}")
    row.append("; ".join(errors))
    return tuple(row)


def run_sweep(config: SweepConfig) -> SweepDataset:
    """Evaluate the sweep grid node by node, first axis outermost."""
    nodes = itertools.product(*(axis.values() for axis in config.axes))
    slots = [KEYS.index(axis.name) for axis in config.axes]
    base = [getattr(config.base, name) for name in AXES]
    rows = [_solve_node(config, slots, base, node) for node in nodes]
    provenance = (
        f"extdicke sweep format 17, version {__version__}",
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


def _row_format(kinds: tuple[type, ...]) -> tuple[str, list[int]]:
    """The str.format template of a row whose cells have these types, and
    the cells _format_cell converts first: those of any type but float, int
    and str (a bool prints as true or false)."""
    template = ",".join("{:.17g}" if kind is float else "{}" for kind in kinds)
    return template, [i for i, kind in enumerate(kinds)
                      if kind not in (float, int, str)]


def serialize_csv(dataset: SweepDataset) -> str:
    """CSV with '#'-prefixed provenance lines, 17-significant-digit floats.
    A row is written by the template of its cell types; only one whose line
    holds a quote, a line break or a comma inside a cell (or is one empty
    cell) needs CSV quoting, and goes through csv.writer."""
    buf = io.StringIO()
    for line in dataset.provenance:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(dataset.columns)
    formats: dict = {}
    for row in dataset.rows:
        kinds = tuple(map(type, row))
        if kinds not in formats:
            formats[kinds] = _row_format(kinds)
        template, convert = formats[kinds]
        if convert:
            row = list(row)
            for i in convert:
                row[i] = _format_cell(row[i])
        line = template.format(*row)
        if (not line or line.count(",") >= len(row)
                or '"' in line or "\n" in line or "\r" in line):
            writer.writerow([_format_cell(x) for x in row])
        else:
            buf.write(line + "\n")
    return buf.getvalue()


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
    print identically round-trip to identical bytes).  A row whose cell
    count is not the header's is a ParameterError."""
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
    for number, row in enumerate(rows[1:], 1):
        if len(row) != len(columns):
            raise ParameterError(f"dataset row {number} has {len(row)} cells, "
                                 f"the header {len(columns)}")
    parsed = tuple(tuple(_parse_cell(c) for c in row) for row in rows[1:])
    return SweepDataset(columns=columns, rows=parsed, provenance=tuple(provenance))
