"""Sweep grids, dataset serialization, and config validation."""

from __future__ import annotations

import json
import math

import pytest

from extdicke.meanfield import ground_state
from extdicke.model import ModelParams, ParameterError
from extdicke.phases import classify
from extdicke.sweep import (
    AxisSpec,
    SweepConfig,
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
        assert row[cols["eta"]] == sol.eta
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


def test_lambda_axis_spelled_both_ways():
    for name in ("lambda", "lam"):
        config = SweepConfig(base=BASE, axes=(AxisSpec(name, 0.5, 1.5, 3),))
        dataset = run_sweep(config)
        cols = {name_: i for i, name_ in enumerate(dataset.columns)}
        for row, lam in zip(dataset.rows, (0.5, 1.0, 1.5)):
            assert row[cols["u"]] == lam * lam / BASE.omega


def test_error_rows_carry_message_and_empty_cells():
    config = SweepConfig(base=BASE, axes=(AxisSpec("omega", -1.0, 1.0, 3),))
    dataset = run_sweep(config)
    bad, zero, good = dataset.rows
    assert "nonpositive cavity frequency" in bad[-1]
    assert "nonpositive cavity frequency" in zero[-1]
    assert all(cell == "" for cell in bad[1:-1])
    assert good[-1] == ""
    assert isinstance(good[8], float)  # energy column solved normally


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


# --- serialization ------------------------------------------------------

def test_csv_round_trip_is_byte_stable():
    dataset = run_sweep(small_config())
    text = serialize_csv(dataset)
    assert text.startswith("# extdicke sweep format 1")
    again = serialize_csv(parse_csv(text))
    assert again == text


def test_csv_floats_survive_round_trip_exactly():
    dataset = run_sweep(small_config())
    parsed = parse_csv(serialize_csv(dataset))
    assert parsed.columns == dataset.columns
    cols = {name: i for i, name in enumerate(dataset.columns)}
    for row, back in zip(dataset.rows, parsed.rows):
        for key in ("eta", "alpha", "s_x", "s_z", "energy_per_atom", "residual"):
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


def test_parse_csv_rejects_empty_input():
    with pytest.raises(ParameterError, match="empty dataset"):
        parse_csv("")


# --- determinism ---------------------------------------------------------

def test_repeat_runs_are_byte_identical():
    config = small_config()
    assert serialize_csv(run_sweep(config)) == serialize_csv(run_sweep(config))


# --- config validation --------------------------------------------------

def test_config_dict_round_trip():
    config = small_config(exact_n=(2, 4), exact_eps=1e-6, exact_n_max_start=4)
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
    ((AxisSpec("lambda", 0, 1, 2), AxisSpec("lam", 0, 1, 2)), "repeated"),
    ((AxisSpec("delta", 0, 1, 1),), "at least 2"),
    ((AxisSpec("delta", 1, 0, 2),), "max below min"),
])
def test_bad_axes_rejected(axes, message):
    with pytest.raises(ParameterError, match=message):
        run_sweep(SweepConfig(base=BASE, axes=axes))


def test_bad_exact_counts_rejected():
    with pytest.raises(ParameterError, match="exact_n"):
        run_sweep(small_config(exact_n=(0,)))
    for bad in (2.5, True):  # neither is truncated to an atom number
        with pytest.raises(ParameterError, match="exact_n entry must be an integer"):
            SweepConfig.from_dict({**small_config().to_dict(), "exact_n": [bad]})
