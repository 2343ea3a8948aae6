"""Sweep grids, dataset serialization, and config validation."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extdicke.meanfield import ground_state
from extdicke.model import AXES, KEYS, ModelParams, ParameterError
from extdicke.phases import classify
from extdicke.sweep import (
    MAX_NODES,
    AxisSpec,
    SweepConfig,
    SweepDataset,
    parse_csv,
    run_sweep,
    serialize_csv,
    serialize_json,
)

BASE = ModelParams(omega=1.0, lam=1.0, delta=0.0, omega_rabi=0.3, v=-0.2,
                   n_atoms=1)


def small_config(**kw):
    defaults = dict(base=BASE,
                    axes=(AxisSpec("delta", -0.8, 0.8, 5),))
    defaults.update(kw)
    return SweepConfig(**defaults)


# --- axis grids and row values ------------------------------------------

def test_axis_values_inclusive_endpoints():
    axis = AxisSpec("delta", -1.0, 1.0, 5)
    assert axis.values() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert AxisSpec("v", 2.0, 2.0, 1).values() == [2.0]


# bounds anywhere in the float range, as the axis of a config may hold them
_AXIS_BOUND = st.floats(-1.7e308, 1.7e308)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=_AXIS_BOUND, b=_AXIS_BOUND, count=st.integers(2, 400))
@example(-2.292, 1.515, 243)  # min + step * i ended on 1.5149999999999997
@example(1e308, 1.7e308, 5)  # min * (count - 1) overflows
def test_axis_ends_on_its_bounds(a, b, count):
    lo, hi = sorted((a, b))
    nodes = AxisSpec("delta", lo, hi, count).values()
    assert len(nodes) == count and nodes[0] == lo and nodes[-1] == hi
    assert all(math.isfinite(x) for x in nodes)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(half=st.floats(0.0, 1.7e308), count=st.integers(2, 400))
@example(0.11, 11)  # min + step * i put the centre on -1.39e-17
@example(1.7e308, 401)
def test_symmetric_axis_is_odd_about_zero(half, count):
    nodes = AxisSpec("delta", -half, half, count).values()
    assert all(x == -y for x, y in zip(nodes, reversed(nodes)))
    if count % 2:
        assert nodes[count // 2] == 0.0


def test_symmetric_scan_gives_the_tie_rule_well_at_its_centre():
    # at u = 1, v = -2 the wells m/N = +-1 tie at delta = 0, where the tie
    # rule picks +1; 1.1e-16 above it the other well wins.  Node 200 of this
    # axis was 1.1e-16 when nodes were min + step * i
    base = ModelParams(omega=1.0, lam=1.0, v=-2.0)
    dataset = run_sweep(SweepConfig(base, (AxisSpec("delta", -0.9, 0.9, 401),)))
    centre = dict(zip(dataset.columns, dataset.rows[200]))
    assert ground_state(base.replace(delta=1.1102230246251565e-16)).m_over_n == -1.0
    assert centre["delta"] == 0.0
    assert centre["m_over_n"] == ground_state(base).m_over_n == 1.0


def test_single_axis_rows_match_direct_solver():
    dataset = run_sweep(small_config())
    assert dataset.columns[0] == "delta"
    assert dataset.columns[-1] == "error"
    assert len(dataset.rows) == 5
    cols = {name: i for i, name in enumerate(dataset.columns)}
    for row, delta in zip(dataset.rows, AxisSpec("delta", -0.8, 0.8, 5).values()):
        params = BASE.replace(delta=delta)
        sol = ground_state(params)
        assert row[cols["delta"]] == delta
        assert row[cols["u"]] == params.u
        assert row[cols["alpha"]] == sol.alpha
        assert row[cols["s_x"]] == sol.point.s_x
        assert row[cols["s_z"]] == sol.point.s_z
        assert row[cols["m_over_n"]] == sol.m_over_n
        assert row[cols["photon_density"]] == sol.photon_density
        assert row[cols["energy_per_atom"]] == sol.energy_per_atom
        assert row[cols["phase_label"]] == classify(params, sol).value
        assert row[cols["residual"]] == sol.residual
        assert row[cols["degenerate"]] == sol.degenerate
        assert row[cols["error"]] == ""


def test_two_axis_order_first_axis_outermost():
    config = SweepConfig(base=BASE,
                         axes=(AxisSpec("delta", -1.0, 1.0, 3),
                               AxisSpec("v", -0.5, 0.5, 2)))
    dataset = run_sweep(config)
    assert dataset.columns[:2] == ("delta", "v")
    assert len(dataset.rows) == 6
    expect = [(d, v) for d in (-1.0, 0.0, 1.0) for v in (-0.5, 0.5)]
    assert [(row[0], row[1]) for row in dataset.rows] == expect


def test_lambda_axis_has_one_name():
    # the axis and its column are the JSON key; the field name is no axis
    config = SweepConfig(base=BASE, axes=(AxisSpec("lambda", 0.5, 1.5, 3),))
    dataset = run_sweep(config)
    assert dataset.columns[0] == "lambda"
    cols = {name_: i for i, name_ in enumerate(dataset.columns)}
    for row, lam in zip(dataset.rows, (0.5, 1.0, 1.5)):
        assert row[cols["u"]] == lam * lam / BASE.omega
    with pytest.raises(ParameterError, match="unknown sweep axis 'lam'"):
        SweepConfig(base=BASE, axes=(AxisSpec("lam", 0.5, 1.5, 3),))


def test_error_rows_carry_message_and_empty_cells():
    config = SweepConfig(base=BASE, axes=(AxisSpec("omega", -1.0, 1.0, 3),))
    dataset = run_sweep(config)
    bad, zero, good = dataset.rows
    assert "nonpositive cavity frequency" in bad[-1]
    assert "nonpositive cavity frequency" in zero[-1]
    assert all(cell == "" for cell in bad[1:-1])
    assert good[-1] == ""
    assert isinstance(good[dataset.columns.index("energy_per_atom")], float)  # solved normally


def test_exact_columns_appended_per_atom_number():
    config = small_config(
        base=BASE.replace(delta=0.4),
        axes=(AxisSpec("delta", 0.2, 0.6, 2),),
        exact_n=(2, 4),
    )
    dataset = run_sweep(config)
    assert dataset.columns[-1] == "error"
    assert dataset.columns[-9:-1] == (
        "exact_N2_energy_per_atom", "exact_N2_photon_density",
        "exact_N2_m_over_n", "exact_N2_converged",
        "exact_N4_energy_per_atom", "exact_N4_photon_density",
        "exact_N4_m_over_n", "exact_N4_converged",
    )
    cols = {name: i for i, name in enumerate(dataset.columns)}
    for row in dataset.rows:
        assert row[cols["error"]] == ""
        for n in (2, 4):
            assert row[cols[f"exact_N{n}_converged"]] is True
            e_exact = row[cols[f"exact_N{n}_energy_per_atom"]]
            assert math.isfinite(e_exact)
            # finite-N ground energy lies below the variational product bound
            assert e_exact <= row[cols["energy_per_atom"]] + 0.25 * abs(BASE.v) / n + 1e-9


def test_exact_failure_at_one_atom_number_blanks_only_its_cells():
    # at lambda = 1e6 the N = 64 ladder is refused, since the photon energy
    # omega = 1 is below the solver's resolution 1e-13 * N * u of E0 there
    # (its 3600 mean-field photons at lambda = 15, refused by the Fock
    # ladder's budget, now fit a displaced cutoff); N = 2 and the
    # mean-field columns still fill, and at lambda = 1 every column does
    config = small_config(axes=(AxisSpec("lambda", 1.0, 1e6, 2),), exact_n=(2, 64))
    dataset = run_sweep(config)
    cols = {name: i for i, name in enumerate(dataset.columns)}
    (ok, refused) = dataset.rows
    assert ok[cols["error"]] == ""
    assert ok[cols["exact_N64_converged"]] is True
    assert refused[cols["error"]] == (
        "N=64 ConvergenceError: photon energy omega = 1 does not exceed the solver's "
        "resolution 6.4 of E0 at N = 64: the photon field is unresolved")
    assert [refused[cols[f"exact_N64_{name}"]] for name in
            ("energy_per_atom", "photon_density", "m_over_n",
             "converged")] == ["", "", "", ""]
    for row in dataset.rows:
        assert row[cols["exact_N2_converged"]] is True
        assert math.isfinite(row[cols["exact_N2_energy_per_atom"]])
        assert row[cols["phase_label"]] == classify(
            BASE.replace(lam=row[cols["lambda"]])).value
        assert math.isfinite(row[cols["energy_per_atom"]])


@pytest.mark.parametrize("module, name", [("sweep", "phase_label"),
                                          ("exact", "converge_cutoff")])
def test_a_fault_at_a_node_stops_the_sweep(monkeypatch, module, name):
    # only a ParameterError or a ConvergenceError is data; any other
    # exception is a fault in the program, and the sweep raises it
    from extdicke import exact, sweep

    def broken(*args, **kw):
        raise TypeError("broken")

    monkeypatch.setattr({"sweep": sweep, "exact": exact}[module], name, broken)
    with pytest.raises(TypeError, match="broken"):
        run_sweep(small_config(exact_n=(2,)))


def test_an_atom_number_beyond_the_budget_stops_the_config():
    # N = 200000 at the first cutoff 8 needs 9 * 200001 basis states, past
    # the 400000 budget: the config is refused before any node runs
    with pytest.raises(ParameterError, match="exact_n entry 200000 needs 1800009 basis "
                       "states at the first photon cutoff 8, above the memory budget 400000"):
        small_config(exact_n=(2, 200_000))


def test_a_repeated_atom_number_stops_the_config():
    # a repeated entry would write its exact_N columns twice and solve its
    # ladder twice at every node; 2.0 is the atom number 2
    with pytest.raises(ParameterError, match="^exact_n entry 2 repeated$"):
        small_config(exact_n=(2, 2))
    with pytest.raises(ParameterError, match="^exact_n entry 2 repeated$"):
        SweepConfig.from_dict({**small_config().to_dict(), "exact_n": [2, 4, 2.0]})


# --- serialization ------------------------------------------------------

def test_csv_round_trip_is_byte_stable():
    dataset = run_sweep(small_config())
    text = serialize_csv(dataset)
    assert text.startswith("# extdicke sweep format 17")
    again = serialize_csv(parse_csv(text))
    assert again == text


def test_csv_floats_survive_round_trip_exactly():
    dataset = run_sweep(small_config())
    parsed = parse_csv(serialize_csv(dataset))
    assert parsed.columns == dataset.columns
    cols = {name: i for i, name in enumerate(dataset.columns)}
    for row, back in zip(dataset.rows, parsed.rows):
        for key in ("alpha", "s_x", "s_z", "energy_per_atom", "residual"):
            value = row[cols[key]]
            assert float(back[cols[key]]) == value
        assert back[cols["phase_label"]] == row[cols["phase_label"]]
        assert back[cols["degenerate"]] == row[cols["degenerate"]]


def test_json_document_matches_dataset():
    dataset = run_sweep(small_config())
    doc = json.loads(serialize_json(dataset))
    assert doc["columns"] == list(dataset.columns)
    assert len(doc["rows"]) == len(dataset.rows)
    assert doc["rows"][0][0] == dataset.rows[0][0]
    assert any("sweep format" in line for line in doc["provenance"])


def test_provenance_embeds_reloadable_config():
    config = small_config()
    dataset = run_sweep(config)
    line = next(p for p in dataset.provenance if p.startswith("config "))
    reloaded = SweepConfig.from_json(line[len("config "):])
    assert reloaded == config


_MAGNITUDE = st.floats(math.log(1e-6), math.log(1e6)).map(math.exp)  # log-uniform
_SIGNED = st.tuples(st.sampled_from((-1.0, 1.0)), _MAGNITUDE).map(lambda t: t[0] * t[1])


@st.composite
def _sweep_configs(draw):
    """Small 1- and 2-axis sweeps; axes that reach a negative lambda or
    drive give error rows, which must round-trip too."""
    base = ModelParams(omega=draw(_MAGNITUDE), lam=draw(_MAGNITUDE),
                       delta=draw(_SIGNED), omega_rabi=draw(_MAGNITUDE),
                       v=draw(_SIGNED), n_atoms=1)
    names = draw(st.permutations(("delta", "v", "omega_rabi", "lambda")))
    axes = []
    for name in names[:draw(st.integers(1, 2))]:
        lo = draw(_SIGNED)
        axes.append(AxisSpec(name, lo, lo + draw(_MAGNITUDE), draw(st.integers(2, 4))))
    return SweepConfig(base=base, axes=tuple(axes))


_ROUND_TRIP = settings(max_examples=30, deadline=None, derandomize=True,
                       database=None)
# lambda = 0 gives alpha = -0.0, printed "-0", which must not come back as 0
_NEGATIVE_ZERO = SweepConfig(base=BASE, axes=(AxisSpec("lambda", 0.0, 0.0, 2),))


@_ROUND_TRIP
@given(_sweep_configs())
@example(_NEGATIVE_ZERO)
def test_csv_round_trip_property(config):
    text = serialize_csv(run_sweep(config))
    assert serialize_csv(parse_csv(text)) == text


@_ROUND_TRIP
@given(_sweep_configs())
def test_json_is_strict_property(config):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads(serialize_json(run_sweep(config)), parse_constant=reject)
    assert len(doc["rows"]) == math.prod(a.count for a in config.axes)


# Both axes run into the domain's edges: omega through 0 gives
# "nonpositive cavity frequency" rows, lambda below 0 "negative collective
# coupling" rows.
_EDGE_AXES = SweepConfig(base=ModelParams(omega=1.0, lam=1.0, delta=0.2,
                                          omega_rabi=0.3, v=-0.5),
                         axes=(AxisSpec("omega", -1.0, 1.0, 9),
                               AxisSpec("lambda", -1.0, 1.0, 7)))


def _reference_row(config: SweepConfig, values: tuple) -> tuple:
    """A node's mean-field row built through ModelParams, ground_state and
    classify, with the message of whatever they raise."""
    n_mf = 10  # the mean-field columns, u to degenerate
    try:
        params = config.base.replace(
            **{AXES[KEYS.index(axis.name)]: x for axis, x in zip(config.axes, values)})
        sol = ground_state(params)
        label = classify(params, sol).value
    except Exception as exc:
        return (*values, *[""] * n_mf, f"{type(exc).__name__}: {exc}")
    return (*values, params.u, sol.alpha, sol.point.s_x, sol.point.s_z,
            sol.m_over_n, sol.photon_density, sol.energy_per_atom, label,
            sol.residual, sol.degenerate, "")


@_ROUND_TRIP
@given(_sweep_configs())
@example(_EDGE_AXES)
@example(_NEGATIVE_ZERO)
def test_float_node_rows_match_the_model_params_route(config):
    dataset = run_sweep(config)
    for row in dataset.rows:
        values = row[:len(config.axes)]
        # repr tells -0.0 from 0.0, True from 1 and matches nan with nan
        assert list(map(repr, row)) == list(map(repr, _reference_row(config, values)))


def test_domain_edge_scan_bytes_are_pinned():
    dataset = run_sweep(_EDGE_AXES)
    errors = {row[-1] for row in dataset.rows}
    assert errors == {"", "ParameterError: nonpositive cavity frequency",
                      "ParameterError: negative collective coupling"}
    assert hashlib.sha256(serialize_csv(dataset).encode()).hexdigest() \
        == "a473f25b71d25327db70da55020b31814be8cf2edd29d14ba68284f61ba05afe"


def _reference_csv(dataset: SweepDataset) -> str:
    """serialize_csv as csv.writer writes it, every cell by the rule below."""
    def cell(x):
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, float):
            return format(x, ".17g")
        return str(x)

    buf = io.StringIO()
    for line in dataset.provenance:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(dataset.columns)
    for row in dataset.rows:
        writer.writerow([cell(x) for x in row])
    return buf.getvalue()


_CELLS = st.one_of(
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, True,
                     False, 0, -7, "", ",", '"', "\n", "\r", 'a,"b"\r\n']),
    st.floats(), st.integers(), st.text(st.sampled_from('a ,"\n\r#-.e1'),
                                        max_size=5))


@st.composite
def _datasets(draw):
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[_CELLS] * width), max_size=6))
    return SweepDataset(columns=tuple(f"c{i}" for i in range(width)),
                        rows=tuple(rows), provenance=("p",))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_datasets())
@example(SweepDataset(columns=("c",), rows=(("",), (1.5,), (",",))))
@example(SweepDataset(columns=("a", "b"), rows=((True, "x\ry"), (-0.0, '"'))))
def test_serialize_csv_matches_csv_writer(dataset):
    assert serialize_csv(dataset) == _reference_csv(dataset)


def test_parse_csv_rejects_empty_input():
    with pytest.raises(ParameterError, match="empty dataset"):
        parse_csv("")


def test_parse_csv_refuses_a_truncated_file():
    # a file cut inside its third row reads as a short row, not as data
    dataset = run_sweep(small_config())
    lines = serialize_csv(dataset).splitlines(keepends=True)  # 2 provenance lines, header
    cut = "".join(lines[:5]) + lines[5][:40]
    cells = len(lines[5][:40].split(","))
    assert cells < len(dataset.columns) == 12
    with pytest.raises(ParameterError, match=f"^dataset row 3 has {cells} cells, "
                                             "the header 12$"):
        parse_csv(cut)
    # a row with too many cells is refused as well
    with pytest.raises(ParameterError, match="^dataset row 1 has 2 cells, the header 3$"):
        parse_csv("a,b,c\n1,2\n3,4,5,6\n")
    with pytest.raises(ParameterError, match="^dataset row 2 has 4 cells, the header 3$"):
        parse_csv("a,b,c\n1,2,3\n3,4,5,6\n")


def test_parse_csv_reads_provenance_with_and_without_a_space():
    # serialize_csv writes "# line"; a hand-edited "#line" is provenance too
    dataset = parse_csv("# written\n#edited\ndelta,u\n0.5,1\n")
    assert dataset.provenance == ("written", "edited")
    assert dataset.columns == ("delta", "u") and dataset.rows == ((0.5, 1),)


# --- determinism ---------------------------------------------------------

def test_repeat_runs_are_byte_identical():
    config = small_config()
    assert serialize_csv(run_sweep(config)) == serialize_csv(run_sweep(config))


# --- config validation --------------------------------------------------

def test_config_defaults_are_the_ladder_defaults():
    # one source for each ladder default: the config, read from a dict or
    # built directly, and the CLI use the solver's
    from extdicke import cli, exact

    config = SweepConfig.from_dict({"base": BASE.to_dict(),
                                    "axes": [{"name": "delta", "min": 0.0,
                                              "max": 1.0, "count": 2}]})
    assert config.exact_eps == exact.converge_cutoff.__defaults__[0]
    args = cli.build_parser().parse_args(["exact-check"])
    assert (args.eps, args.budget) == (exact.LADDER_EPS, exact.DIMENSION_BUDGET)


def test_config_dict_round_trip():
    config = small_config(exact_n=(2, 4), exact_eps=1e-6)
    again = SweepConfig.from_dict(config.to_dict())
    assert again == config
    assert SweepConfig.from_json(json.dumps(config.to_dict())) == config


def test_config_rejects_unknown_keys_and_missing_fields():
    with pytest.raises(ParameterError, match="unknown sweep config"):
        SweepConfig.from_dict({"base": BASE.to_dict(), "axes": [], "grid": 3})
    with pytest.raises(ParameterError, match="needs 'base' and 'axes'"):
        SweepConfig.from_dict({"base": BASE.to_dict()})


@pytest.mark.parametrize("axes, message", [
    ((), "one or two axes"),
    ((AxisSpec("delta", 0, 1, 2), AxisSpec("v", 0, 1, 2),
      AxisSpec("omega_rabi", 0, 1, 2)), "one or two axes"),
    ((AxisSpec("mass", 0, 1, 2),), "unknown sweep axis"),
    ((AxisSpec("lambda", 0, 1, 2), AxisSpec("lambda", 0, 1, 2)), "repeated"),
    ((AxisSpec("delta", 0, 1, 1),), "at least 2"),
    ((AxisSpec("delta", 1, 0, 2),), "max below min"),
    # built in Python, not read from JSON: the config's own check applies
    pytest.param((AxisSpec("delta", -math.inf, 1.0, 2),),
                 "axis 'delta' min must be a finite number", id="axes6-bounds must be finite"),
    pytest.param((AxisSpec("v", 0.0, math.nan, 2),),
                 "axis 'v' max must be a finite number", id="axes7-bounds must be finite"),
])
def test_bad_axes_rejected(axes, message):
    # building the config is enough: no sweep needs to run
    with pytest.raises(ParameterError, match=message):
        SweepConfig(base=BASE, axes=axes)


def test_node_cap_is_checked_before_any_node_list(monkeypatch):
    # the grid may have MAX_NODES nodes and no more; the axis that takes it
    # past is named before values() builds a list (it raises here)
    def values(axis):
        raise AssertionError(f"node list of {axis.name!r} built")

    monkeypatch.setattr(AxisSpec, "values", values)
    assert MAX_NODES == 10**6
    SweepConfig(base=BASE, axes=(AxisSpec("delta", 0.0, 1.0, MAX_NODES),))
    SweepConfig(base=BASE, axes=(AxisSpec("delta", 0.0, 1.0, 1000), AxisSpec("v", 0.0, 1.0, 1000)))
    for axes, named in (((AxisSpec("delta", 0.0, 1.0, MAX_NODES + 1),), "'delta'"),
                        ((AxisSpec("delta", 0.0, 1.0, 1000), AxisSpec("v", 0.0, 1.0, 1001)), "'v'")):
        with pytest.raises(ParameterError, match=f"axis {named} takes the grid past"):
            SweepConfig(base=BASE, axes=axes)
    axis = {"name": "delta", "min": -1.0, "max": 1.0, "count": 1e308}  # an integral float
    with pytest.raises(ParameterError, match="axis 'delta' takes the grid past"):
        SweepConfig.from_dict({"base": BASE.to_dict(), "axes": [axis]})


_NOT_A_NUMBER = st.one_of(st.sampled_from((None, True, False, "1", [1.0], {})),
                          st.text(max_size=3))
_NOT_FINITE = st.one_of(_NOT_A_NUMBER,
                        st.sampled_from((math.nan, math.inf, -math.inf, -10**400)))
_FRACTION = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda x: not x.is_integer())
_NOT_A_COUNT = st.one_of(_NOT_FINITE, _FRACTION, st.integers(max_value=1))
_AXIS = {"name": "delta", "min": -1.0, "max": 1.0, "count": 3}
_NOT_A_LIST = st.one_of(st.none(), st.integers(), st.text(max_size=3), st.just(_AXIS))
_BAD_AXIS = st.one_of(
    st.tuples(st.sampled_from(("min", "max")), _NOT_FINITE).map(
        lambda kv: {**_AXIS, kv[0]: kv[1]}),
    _NOT_A_COUNT.map(lambda c: {**_AXIS, "count": c}),
    st.sampled_from(tuple(_AXIS)).map(  # a key missing
        lambda key: {k: v for k, v in _AXIS.items() if k != key}),
    st.just({**_AXIS, "step": 0.5}),  # an unknown key
    st.one_of(st.text(max_size=5).filter(lambda n: n not in (*AXES, "lambda")),
              st.integers(), st.none()).map(lambda n: {**_AXIS, "name": n}),
    st.floats(min_value=1e308, allow_infinity=False).map(  # the step overflows
        lambda b: {**_AXIS, "min": -b, "max": b}),
    st.just({**_AXIS, "min": 2.0}),  # max below min
    st.one_of(st.none(), st.integers(), st.text(max_size=3)),  # not an object
)
_MALFORMED = {
    "axes": st.one_of(
        _NOT_A_LIST, st.just([]), st.just([_AXIS] * 3),
        _BAD_AXIS.map(lambda a: [a]),
        _BAD_AXIS.map(lambda a: [{"name": "v", "min": 0.0, "max": 1.0, "count": 2}, a])),
    "exact_n": st.one_of(
        _NOT_A_LIST,
        st.lists(st.one_of(_NOT_FINITE, _FRACTION, st.integers(max_value=0)),
                 min_size=1, max_size=2)),
    "exact_eps": st.one_of(_NOT_FINITE, st.floats(max_value=0.0)),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=st.one_of([s.map(lambda bad, key=key: (key, bad))
                       for key, s in _MALFORMED.items()]))
def test_every_malformed_sweep_config_is_a_parameter_error(case):
    # a typed error, and no other exception, when the config is read: a
    # scan stops before any node runs
    key, bad = case
    with pytest.raises(ParameterError):
        SweepConfig.from_dict({**small_config(exact_n=(4,)).to_dict(), key: bad})


def test_bad_exact_counts_rejected():
    with pytest.raises(ParameterError, match="exact_n"):
        small_config(exact_n=(0,))
    for bad in (2.5, True):  # neither is truncated to an atom number
        with pytest.raises(ParameterError, match="exact_n entry must be a positive integer"):
            SweepConfig.from_dict({**small_config().to_dict(), "exact_n": [bad]})
    # cutoff-ladder settings are checked when the config is built, so a bad
    # one stops a scan before any node runs
    for eps in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ParameterError, match="exact_eps"):
            small_config(exact_n=(4,), exact_eps=eps)
    text = json.dumps({**small_config(exact_n=(4,)).to_dict(), "exact_eps": "NaN"})
    with pytest.raises(ParameterError, match="exact_eps"):
        SweepConfig.from_json(text.replace('"NaN"', "NaN"))  # json.loads takes NaN


def _stated(text: str, lead: str) -> list[str]:
    """The comma-separated names in the backticks that follow lead."""
    return " ".join(text.split(f"{lead} `")[1].split("`")[0].split()).split(", ")


def test_readme_states_the_dataset_header():
    # the README's sweep bullet names the mean-field columns and the block of
    # each atom number once; run_sweep writes them between the axes and error
    text = (Path(__file__).parents[1] / "README.md").read_text()
    bullet = text.split("\n- `sweep` — ")[1].split("\n\n")[0]
    block = _stated(bullet, "the block")
    header = ("delta", *_stated(bullet, "mean-field columns"),
              *(name.replace("<N>", str(n)) for n in (2, 4) for name in block), "error")
    config = small_config(axes=(AxisSpec("delta", 0.2, 0.6, 2),), exact_n=(2, 4))
    assert run_sweep(config).columns == header
