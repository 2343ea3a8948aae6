"""Command-line entry points: exit codes, payloads, and file outputs."""

from __future__ import annotations

import argparse
import json
import math
import random
import time
import warnings
from pathlib import Path

import pytest

from extdicke import __version__, cli, exact
from extdicke.exact import ExactSolution
from extdicke.meanfield import ground_state
from extdicke.sweep import AxisSpec, SweepConfig, parse_csv, run_sweep, serialize_csv

TWO_PI = 2.0 * math.pi

TRAP_JSON = {
    "omega_trap": [TWO_PI * 290.0, TWO_PI * 43.0, TWO_PI * 277.0],
    "rho_intra": 4.2e-9,
    "rho_inter": 9.7e-9,
    "mass": 1.45e-25,
    "n_atoms": 50_000,
    "single_coupling": TWO_PI * 10.0,
    "cavity_freq": 2.51e9,
    "g0_max": TWO_PI * 10.6,
    "gamma_excited": TWO_PI * 3.0,
}

SWEEP_JSON = {
    "base": {"omega": 1.0, "lambda": 1.0, "delta": 0.0, "omega_rabi": 0.3,
             "v": -0.2, "n_atoms": 1},
    "axes": [{"name": "delta", "min": -1.0, "max": 1.0, "count": 5}],
}


def test_version_prints_package_version(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out == f"extdicke {__version__}\n"


def test_help_documents_the_equals_form_for_negative_exponents(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["--help"])
    assert err.value.code == 0
    assert "--v=" in capsys.readouterr().out


def test_negative_exponent_values_may_follow_their_flag(capsys):
    # argparse alone reads -5e-05 after --v as an option and exits 2
    assert cli.main(["solve", "--v", "-5e-05", "--delta", "-1e-3"]) == 0
    spaced = capsys.readouterr()
    assert cli.main(["solve", "--v=-5e-05", "--delta=-1e-3"]) == 0
    assert capsys.readouterr() == spaced
    assert cli.main(["exact-check", "--delta", "-5e-01", "--n-list", "2"]) == 0
    assert cli.main(["boundaries", "--v", "-1E+3"]) == 0


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


# Every subcommand's options as (flags, dest, default, type, choices,
# required), in --help order; -h is left out.
_COUPLING_OPTIONS = [
    (("--config",), "config", None, Path, None, False),
    (("--omega",), "omega", None, float, None, False),
    (("--lambda",), "lambda", None, float, None, False),
    (("--delta",), "delta", None, float, None, False),
    (("--rabi",), "omega_rabi", None, float, None, False),
    (("--v",), "v", None, float, None, False),
]
_OUT = (("--out",), "out", None, None, None, False)
_TEXT_OR_JSON = (("--format",), "format", "text", None, ("text", "json"), False)
_UNITS = (("--units",), "units", "dimensionless", None, ("dimensionless", "mhz"), False)
_PARSER_CONTRACT = {
    "estimate": [(("--config",), "config", None, Path, None, True), _OUT, _TEXT_OR_JSON],
    "solve": [*_COUPLING_OPTIONS, _OUT, _TEXT_OR_JSON],
    "exact-check": [*_COUPLING_OPTIONS,
                    (("--n-list",), "n_list", "8,16,32", None, None, False),
                    (("--eps",), "eps", 1e-08, float, None, False),
                    (("--budget",), "budget", 400000, int, None, False),
                    _OUT, _TEXT_OR_JSON],
    "boundaries": [*_COUPLING_OPTIONS, _OUT, _TEXT_OR_JSON],
    "scan": [(("--config",), "config", None, Path, None, True), _OUT,
             (("--format",), "format", "csv", None, ("csv", "json"), False)],
    "fig2": [(("--u",), "u", None, float, None, False),
             (("--v",), "v", 0.0, float, None, False),
             (("--rabi-fracs",), "rabi_fracs", "0,0.02,0.05", None, None, False),
             (("--delta-span",), "delta_span", 2.0, float, None, False),
             (("--points",), "points", 401, int, None, False),
             _UNITS, (("--out-dir",), "out_dir", "fig2_out", None, None, False)],
    "fig3": [(("--u",), "u", None, float, None, False),
             (("--rabi-frac",), "rabi_frac", 0.5, float, None, False),
             (("--delta-span",), "delta_span", 3.0, float, None, False),
             (("--v-min",), "v_min", -3.0, float, None, False),
             (("--v-max",), "v_max", 1.0, float, None, False),
             (("--resolution",), "resolution", "61x41", None, None, False),
             _UNITS, (("--out-dir",), "out_dir", "fig3_out", None, None, False)],
    "fig4": [(("--u",), "u", None, float, None, False),
             (("--v",), "v", -2.0, float, None, False),
             (("--rabi-fracs",), "rabi_fracs", "0.25,0.5,0.75,1.0", None, None, False),
             (("--delta-span",), "delta_span", 1.0, float, None, False),
             (("--points",), "points", 401, int, None, False),
             _UNITS, (("--out-dir",), "out_dir", "fig4_out", None, None, False)],
}


def test_every_option_keeps_its_flags_dest_default_type_and_choices():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_PARSER_CONTRACT)
    for name, options in _PARSER_CONTRACT.items():
        found = [(tuple(a.option_strings), a.dest, a.default, a.type, a.choices, a.required)
                 for a in sub.choices[name]._actions if a.dest != "help"]
        assert found == options, name
        for got, want in zip(found, options):  # 1 == 1.0, but the types differ
            assert type(got[2]) is type(want[2]), (name, got)



def test_readme_figure_table_matches_the_parser():
    # each row: the flag(s), then each figure's default(s), blank where the
    # command has no such option
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("| Flag | fig2 | fig3 | fig4 | Meaning |")[1].split("\n\n")[0]
    seen = {name: {} for name in cli._FIGURES}
    for line in table.splitlines()[2:]:
        cells = [c.strip().replace("`", "").replace("\u2212", "-") for c in line.split("|")]
        flags = cells[1].split(", ")
        for name, cell in zip(cli._FIGURES, cells[2:5]):
            for flag, value in zip(flags, cell.split(", ") if cell else ()):
                seen[name][flag] = value
    for name, (_, defaults, _) in cli._FIGURES.items():
        assert seen[name].keys() == defaults.keys(), name
        for flag, default in defaults.items():
            value = seen[name][flag]
            if default is None:  # --u, read as 1 when not given
                default = 1.0
            assert (value if isinstance(default, str) else float(value)) == default, flag
    assert {f for row in seen.values() for f in row} == set(cli._FIG_FLAGS)

# --- estimate -----------------------------------------------------------

def test_estimate_json_payload(tmp_path):
    config = tmp_path / "trap.json"
    config.write_text(json.dumps(TRAP_JSON))
    out = tmp_path / "est.json"
    rc = cli.main(["estimate", "--config", str(config), "--format", "json",
                   "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["v"] == pytest.approx(-0.23815603415824568, rel=1e-12)
    assert payload["lambda"] == pytest.approx(28099.258924162903, rel=1e-12)
    assert payload["u"] == pytest.approx(0.3145690645765532, rel=1e-12)
    assert payload["n_crit"] == pytest.approx(0.0400498398006408, rel=1e-12)
    assert payload["v_shorthand"] == pytest.approx(0.5 * payload["v"], rel=1e-12)


def test_estimate_text_to_stdout(tmp_path, capsys):
    config = tmp_path / "trap.json"
    config.write_text(json.dumps(TRAP_JSON))
    assert cli.main(["estimate", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "lambda" in out
    assert "v_cyclic_mhz" in out


@pytest.mark.parametrize("text", [
    json.dumps({**TRAP_JSON, "mass": "abc"}),
    json.dumps([TRAP_JSON]),
    json.dumps({**TRAP_JSON, "mass": math.nan}),  # json writes NaN, reads it back
    json.dumps({**TRAP_JSON, "rho_intra": -math.inf}),
    json.dumps({**TRAP_JSON, "omega_trap": [1.0, "2", 3.0]}),
    json.dumps({**TRAP_JSON, "n_atoms": 2.5}),
    json.dumps({**TRAP_JSON, "g0_max": None}),
], ids=["mass-string", "list", "mass-nan", "rho-inf", "trap-string", "atoms-fraction",
        "g0-null"])
def test_estimate_malformed_spec_exits_2(tmp_path, capsys, text):
    config = tmp_path / "trap.json"
    config.write_text(text)
    assert cli.main(["estimate", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_estimate_missing_file_is_io_error(tmp_path, capsys):
    rc = cli.main(["estimate", "--config", str(tmp_path / "none.json")])
    assert rc == 4
    assert capsys.readouterr().err.startswith("error:")


# --- solve --------------------------------------------------------------

def test_solve_inside_lobe(tmp_path):
    out = tmp_path / "sol.json"
    rc = cli.main(["solve", "--omega", "1", "--lambda", "1", "--delta", "0.5",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["m_over_n"] == pytest.approx(-0.5, abs=1e-9)
    assert payload["phase"] == "Superradiant"
    assert payload["residual"] < 1e-9
    assert payload["flat_manifold"] is False


def test_solve_flat_manifold_exit_code(capsys):
    rc = cli.main(["solve", "--lambda", "0", "--delta", "0", "--rabi", "0",
                   "--v", "0", "--format", "json"])
    assert rc == 3
    captured = capsys.readouterr()
    assert "every spin direction" in captured.err
    assert json.loads(captured.out)["flat_manifold"] is True


def test_solve_config_file_with_flag_override(tmp_path):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"omega": 2.0, "lambda": 1.0, "delta": 0.8}))
    out = tmp_path / "sol.json"
    rc = cli.main(["solve", "--config", str(config), "--delta", "0.0",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    # u = 1/2, delta forced back to 0: symmetric pair with zero imbalance
    assert payload["m_over_n"] == pytest.approx(0.0, abs=1e-12)
    assert payload["degenerate"] is True
    assert payload["photon_density"] == pytest.approx(1.0 / 16.0, rel=1e-9)


@pytest.mark.parametrize("argv", [
    ["solve", "--omega", "-1"],
    ["solve", "--lambda", "-0.5"],
    ["solve", "--lambda", "1e160"],  # u = lambda**2/omega overflows
    ["boundaries", "--omega", "0"],
    ["boundaries", "--omega=-1"],
    ["boundaries", "--rabi=-1"],
    ["exact-check", "--eps", "nan", "--n-list", "2"],
    ["exact-check", "--eps", "0", "--n-list", "2"],
    ["exact-check", "--budget", "-5", "--n-list", "2"],
])
def test_bad_parameters_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_flag_overrides_invalid_config_value(tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"omega": 0}))
    assert cli.main(["solve", "--config", str(config), "--omega", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_config_without_lambda_takes_cli_default(tmp_path):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"omega": 2.0, "v": -0.25}))
    out = tmp_path / "b.json"
    assert cli.main(["boundaries", "--config", str(config), "--format", "json",
                     "--out", str(out)]) == 0
    # lambda = 1 (the --help default), so u = 1/2 and w = u + v = 1/4
    payload = json.loads(out.read_text())
    assert payload["u"] == 0.5
    assert payload["w"] == 0.25


def test_a_config_and_a_scan_base_take_the_same_defaults(tmp_path, capsys):
    # the object leaves lambda out: solve --config and a scan base both take
    # its field default, lambda = 1, so u = 1 on both routes
    point = {"omega": 1.0, "delta": 0.3}
    config = tmp_path / "params.json"
    config.write_text(json.dumps(point))
    assert cli.main(["boundaries", "--config", str(config), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["u"] == 1.0
    assert cli.main(["solve", "--config", str(config), "--format", "json"]) == 0
    solved = json.loads(capsys.readouterr().out)
    config.write_text(json.dumps(
        {"base": point, "axes": [{"name": "v", "min": 0.0, "max": 1.0, "count": 2}]}))
    assert cli.main(["scan", "--config", str(config)]) == 0
    dataset = parse_csv(capsys.readouterr().out)
    row = dict(zip(dataset.columns, dataset.rows[0]))  # v = 0, as in solve
    assert row["u"] == 1.0
    for name in ("energy_per_atom", "photon_density", "m_over_n"):
        assert row[name] == solved[name]


# a value outside each coupling's domain: its flag, key, and the value as
# flag text and as JSON
_BAD_COUPLINGS = [("--omega", "omega", "0", 0.0), ("--lambda", "lambda", "-1", -1.0),
                  ("--delta", "delta", "inf", math.inf), ("--rabi", "omega_rabi", "-1", -1.0),
                  ("--v", "v", "nan", math.nan)]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flag, key, text, value", _BAD_COUPLINGS)
def test_a_bad_coupling_names_its_flag_or_its_key(tmp_path, capsys, flag, key, text,
                                                  value, source):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({key: value}))
    argv = ["solve", flag, text] if source == "flag" else ["solve", "--config", str(config)]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses a non-finite flag value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    named, other = (flag, repr(key)) if source == "flag" else (repr(key), flag)
    assert named in err and other not in err, err


def test_lam_is_neither_a_config_key_nor_an_axis(tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"lam": 1.0}))
    assert cli.main(["solve", "--config", str(config)]) == 2
    assert "unknown parameter keys: ['lam']" in capsys.readouterr().err
    config.write_text(json.dumps(
        {**SWEEP_JSON, "axes": [{"name": "lam", "min": 0.0, "max": 1.0, "count": 2}]}))
    assert cli.main(["scan", "--config", str(config)]) == 2
    assert "unknown sweep axis 'lam'" in capsys.readouterr().err


def test_solve_unknown_config_key_exit_2(tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"omege": 1.0}))
    assert cli.main(["solve", "--config", str(config)]) == 2
    assert "unknown parameter" in capsys.readouterr().err


def test_a_config_that_is_not_an_object_is_refused_by_the_model(tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text("[1.0, 2.0]")
    assert cli.main(["solve", "--config", str(config), "--delta", "0.5"]) == 2
    assert capsys.readouterr().err == "error: model parameters must be a JSON object\n"


def test_solve_invalid_json_exit_2(tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text("{not json")
    assert cli.main(["solve", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_solve_scales_overflowing_couplings_and_is_not_flat(capsys):
    # delta*s_z alone makes the energy non-constant; sums and products of
    # these couplings overflow unless the kernel scales them to unit size
    assert cli.main(["solve", "--omega", "1", "--lambda", "1", "--v=-1e308",
                     "--delta", "1e308", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flat_manifold"] is False
    assert payload["m_over_n"] == -1.0
    assert payload["residual"] == 0.0


def test_solve_photon_density_beyond_float_range_is_null(capsys):
    # u = lambda**2/omega = 1e300 is finite, but alpha**2 ~ 2.5e599 is not
    assert cli.main(["solve", "--omega", "1e-300", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["photon_density"] is None
    assert payload["phase"] == "Superradiant"


def test_scan_photon_density_beyond_float_range_is_no_error(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({**SWEEP_JSON,
                                  "base": {**SWEEP_JSON["base"], "omega": 1e-300}}))
    out = tmp_path / "data.json"
    assert cli.main(["scan", "--config", str(config), "--format", "json",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    cols = doc["columns"]
    assert [row[cols.index("error")] for row in doc["rows"]] == [""] * 5
    assert [row[cols.index("photon_density")] for row in doc["rows"]] == [None] * 5


# --- exact-check and boundaries -----------------------------------------

def test_exact_check_small_systems(tmp_path, capsys):
    out = tmp_path / "check.json"
    rc = cli.main(["exact-check", "--omega", "10", "--lambda",
                   str(math.sqrt(10.0)), "--delta", "0.5", "--n-list", "2,4",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert [r["n_atoms"] for r in payload["rows"]] == [2, 4]
    for row in payload["rows"]:
        assert row["converged"] is True
        assert row["bound_holds"] is True
        assert row["exact_energy_per_atom"] <= row["bound_energy_per_atom"] + 1e-9
    assert capsys.readouterr().err == ""


def test_exact_check_prints_no_sign_of_parity_noise(monkeypatch, capsys):
    # with a drive the parity is an expectation value; one of -1e-16 is
    # solver noise and prints as +0.0000, while JSON keeps the float
    def fake(params, eps, budget):
        return ExactSolution(energy=-1.0, energy_per_atom=-0.5,
                             photon_number=0.0, jz=0.0, jx=-0.5, parity=-1e-16,
                             gap=0.5, n_max_used=4, n_atoms=2, converged=True)

    monkeypatch.setattr(exact, "converge_cutoff", fake)  # cli imports it per run
    argv = ["exact-check", "--rabi", "0.3", "--n-list", "2"]
    assert cli.main(argv) == 0
    row = capsys.readouterr().out.splitlines()[-1]
    assert row.split()[-2] == "+0.0000"
    assert cli.main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["parity"] == -1e-16


def test_exact_check_warns_when_the_budget_stops_the_ladder(capsys):
    # superradiant near the lobe edge, so the basis has two centres: a
    # budget of 400 allows cutoff 8 (18 photon states, 126 basis states,
    # 18**2 photon matrix entries) but not 16 (34**2 = 1156 entries), and
    # cutoff 8 holds 1.9e-7 of the weight above label 4, more than eps
    argv = ["exact-check", "--lambda", "1.2", "--delta", "0.5", "--n-list", "6",
            "--budget", "400"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].split()[:3] == ["6", "8", "False"]
    assert err == ("warning: diagonalization hit the dimension budget before "
                   "reaching the requested tolerance\n")


@pytest.mark.parametrize("argv, code", [
    (["--lambda", "1e200", "--n-list", "2"], 2),  # u = lambda**2/omega = inf
    (["--lambda", "1e154", "--n-list", "2"], 1),  # 5e307 photons
    (["--omega", "1e-300", "--lambda", "1e-10", "--n-list", "2"], 1),  # inf photons
])
def test_exact_check_overflow_is_one_error_line(argv, code, capsys):
    # a coupling or a photon number beyond the float range raises no numpy
    # warning: the model's domain rule and the refusal of a photon energy
    # below the solver's resolution report it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["exact-check", *argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, resolution", [
    (["--lambda", "1e154", "--n-list", "2"], "2e+295"),
    (["--lambda", "1e100", "--n-list", "2"], "2e+187"),
    (["--omega", "1e-12", "--n-list", "1"], "0.1"),
    (["--omega", "1e-12", "--v=1e-160", "--n-list", "1"], "0.1"),
], ids=["lambda-1e154", "lambda-1e100", "omega-1e-12", "omega-1e-12-v"])
def test_exact_check_refuses_a_photon_field_beyond_the_budget(argv, resolution, capsys):
    # N * alpha**2 photons from 2.5e23 to 5e307: a displaced basis holds
    # such a field, so no cutoff budget refuses it.  What stops these ladders
    # is the photon energy omega, below the solver's 1e-13 * N * ||H||
    # resolution of E0 at u = lambda**2 / omega from 1e12 up: one error line
    # before any cutoff is solved, where the ladder used to run for minutes
    # or overflow
    start = time.perf_counter()
    assert cli.main(["exact-check", *argv]) == cli.EXIT_CONVERGENCE
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: photon energy omega = ")
    assert err.endswith(f" does not exceed the solver's resolution {resolution} of E0 at "
                        f"N = {argv[-1]}: the photon field is unresolved\n")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["--omega", "1e308", "--lambda", "1", "--n-list", "2"],
], ids=["omega-1e308"])
def test_exact_check_answers_where_the_hamiltonian_would_overflow(argv, capsys):
    # ||H||_inf is beyond the float range, but H / 2**k is not: the ladder
    # converges with no warning from numpy, and E0 is resolved relative to
    # ||H||_inf as at any other scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["exact-check", *argv, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    (row,) = json.loads(out)["rows"]
    assert row["converged"] is True and math.isfinite(row["exact_energy_per_atom"])


def test_exact_check_refuses_an_unresolved_photon_field(capsys):
    # v = 1e308 beside omega = 1: the photon levels of H / 2**k lie 2**-1023
    # apart, far inside the solver's 1e-13 * N * ||H|| resolution of E0, so
    # <a^dag a> would be whatever the Lanczos start leaves (a converged
    # ladder reported 2.52 photons per atom where the mean field gives
    # 0.25): one error line before any cutoff is solved
    start = time.perf_counter()
    assert cli.main(["exact-check", "--v=1e308", "--n-list", "4",
                     "--format", "json"]) == cli.EXIT_CONVERGENCE
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: photon energy omega = 1 does not exceed the solver's "
                          "resolution 4e+295 of E0 at N = 4")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("n_list", ["8,x", "8.5", "4,nan", ",", "0", "-3",
                                    "8,0", "8,16,8.0"])
def test_exact_check_bad_n_list_names_the_flag(n_list, capsys):
    # a repeated N ("8,16,8.0") would be solved and printed twice
    assert cli.main(["exact-check", "--n-list", n_list]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "--n-list" in err


@pytest.mark.parametrize("flag,value", [("--budget", "-5"), ("--budget", "0"),
                                        ("--budget", "26"),
                                        ("--eps", "0"), ("--eps", "-1e-8"),
                                        ("--eps", "inf")])
def test_exact_check_bad_budget_or_eps_names_the_flag(flag, value, capsys):
    assert cli.main(["exact-check", "--n-list", "2", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert flag in err


def test_exact_check_names_the_budget_the_first_cutoff_needs(capsys):
    # the first cutoff, 8 photons, holds 9 * (N + 1) = 81 states at N = 8 on
    # the Fock basis (lambda = 0: no field), and 9**2 = 81 photon matrix
    # entries at every N
    normal = ["exact-check", "--lambda", "0", "--n-list", "2,8", "--budget"]
    assert cli.main(normal + ["80"]) == 2
    assert capsys.readouterr().err == ("error: --n-list entry 8 needs 81 basis states at "
                                       "the first photon cutoff 8, above --budget 80\n")
    assert cli.main(normal + ["81"]) == 0
    capsys.readouterr()
    assert cli.main(["exact-check", "--lambda", "0", "--n-list", "1", "--budget", "80"]) == 2
    assert capsys.readouterr().err == ("error: --n-list entry 1 needs 81 photon matrix "
                                       "entries at the first photon cutoff 8, above --budget 80\n")
    # about the two centres of a displaced field it holds 2 * 9 photon states:
    # 18 * (N + 1) basis states and 18**2 = 324 photon matrix entries
    for n_list, budget, need in (("2,8", 323, "324 photon matrix entries"),
                                 ("2,20", 377, "378 basis states")):
        assert cli.main(["exact-check", "--n-list", n_list, "--budget", str(budget)]) == 2
        assert capsys.readouterr().err == (f"error: --n-list entry {n_list[2:]} needs {need} "
                                           f"at the first photon cutoff 8, above --budget "
                                           f"{budget}\n")
        assert cli.main(["exact-check", "--n-list", n_list, "--budget", str(budget + 1)]) == 0
        capsys.readouterr()


def test_exact_check_counts_each_first_cutoff_on_the_basis_its_ladder_uses(capsys):
    # lambda = 1.5, delta = 0.2 (omega = 1) is superradiant, but at N = 256
    # the ladder runs in extended coherent states (c = lambda / (omega
    # sqrt(N)) = 0.094): 9 photon states a row, 9 * 257 = 2313 basis states,
    # not the two centres' 18 * 257 = 4626.  c falls as N grows, so the
    # largest N need not hold the largest first basis: N = 128 (c = 0.133)
    # is on the two-centre basis, 18 * 129 = 2322 states
    argv = ["exact-check", "--lambda", "1.5", "--delta", "0.2", "--budget", "2313",
            "--n-list"]
    assert cli.main(argv + ["256"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[2].split()[:3] == ["256", "8", "True"] and err == ""
    assert cli.main(argv + ["128,256"]) == 2
    assert capsys.readouterr().err == ("error: --n-list entry 128 needs 2322 basis states at "
                                       "the first photon cutoff 8, above --budget 2313\n")


def _couplings(scale: float) -> list[str]:
    return ["--omega", str(scale), "--lambda", str(4 * scale),
            "--delta", str(scale), "--rabi", str(0.5 * scale), f"--v={scale}"]


@pytest.mark.parametrize("argv,holds", [
    (_couplings(1e-12) + ["--n-list", "28"], [True]),
    (_couplings(1.0) + ["--n-list", "28"], [True]),
    # a ladder that the budget stops above the product-state bound, at
    # E/N 0.02 (x 1e-12) above it: a tolerance of 1e-9 in absolute terms
    # would hide it at the small scale.  The displaced basis holds the
    # product state at every cutoff, so the solver no longer stops above
    # the bound (at N = 6 and n_max 32 the Fock ladder stopped at -4.2012
    # against -4.2228): the spoiled ladder stands in for one
    (_couplings(1e-12) + ["--n-list", "6", "--budget", "1156"], [False]),
    (_couplings(1.0) + ["--n-list", "6", "--budget", "1156"], [False]),
    (["--omega", "10", "--lambda", "3.1622776601683795", "--delta", "0.5",
      "--n-list", "8,16,32"], [True] * 3),  # the README example
], ids=["tiny", "unit", "tiny-early", "unit-early", "readme"])
def test_exact_check_bound_tolerance_scales_with_the_couplings(argv, holds,
                                                               monkeypatch, capsys):
    if "--budget" in argv:
        solve = exact.converge_cutoff

        def stopped_early(params, eps, budget):
            sol = solve(params, eps=eps, budget=budget)
            bound = exact.product_state_energy(params, ground_state(params))
            return ExactSolution(**{**vars(sol), "converged": False,
                                    "energy_per_atom": bound + 0.02 * params.omega})

        monkeypatch.setattr(exact, "converge_cutoff", stopped_early)
    assert cli.main(["exact-check", *argv]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [not r.endswith("  BOUND VIOLATED") for r in rows] == holds
    assert cli.main(["exact-check", *argv, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["bound_holds"] for r in rows] == holds


def test_exact_check_ladder_is_the_same_at_any_coupling_scale(capsys):
    # at 1e-12 the ladder used to stop at n_max 16 with E/N -2.418e-12,
    # because its stability test on E0 was absolute below |E0| = 1 (on the
    # Fock basis; both scales now converge at the displaced cutoff 8, where
    # the Fock ladder needed 512)
    rows = []
    for scale in (1.0, 1e-12):
        argv = _couplings(scale) + ["--n-list", "28", "--format", "json"]
        assert cli.main(["exact-check", *argv]) == 0
        rows.append(json.loads(capsys.readouterr().out)["rows"][0])
    unit, tiny = rows
    assert (tiny["n_max"], tiny["converged"], tiny["bound_holds"]) == (8, True, True)
    assert (unit["n_max"], unit["converged"]) == (8, True)
    want = 1e-12 * unit["exact_energy_per_atom"]
    assert tiny["exact_energy_per_atom"] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_boundaries_closed_forms(tmp_path):
    out = tmp_path / "b.json"
    rc = cli.main(["boundaries", "--omega", "1", "--lambda", "1", "--v", "-0.5",
                   "--rabi", "0.2", "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["w"] == pytest.approx(0.5)
    assert payload["lobe_delta_minus"] == pytest.approx(-0.5)
    assert payload["lobe_delta_plus"] == pytest.approx(0.5)
    assert payload["omega_critical"] == pytest.approx(0.5)
    expected_mott = (0.5 ** (2.0 / 3.0) - 0.2 ** (2.0 / 3.0)) ** 1.5
    assert payload["mott_delta"] == pytest.approx(expected_mott, rel=1e-12)
    assert payload["v_critical"] == pytest.approx(-1.2, rel=1e-12)


def test_boundaries_without_lobe(tmp_path):
    out = tmp_path / "b.json"
    rc = cli.main(["boundaries", "--omega", "1", "--lambda", "1", "--v", "-2",
                   "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["lobe_delta_minus"] is None
    assert payload["lobe_delta_plus"] is None
    assert payload["mott_delta"] == pytest.approx(1.0)


def test_boundaries_v_critical_beyond_float_range_is_null(capsys):
    # (rabi**(2/3) + |delta|**(2/3))**1.5 ~ 3.9e308 overflows
    assert cli.main(["boundaries", "--delta", "1e308",
                     "--rabi", "1.7976931348623157e308", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["v_critical"] is None


# --- scan ---------------------------------------------------------------

def test_scan_matches_library_sweep(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(SWEEP_JSON))
    out = tmp_path / "data.csv"
    rc = cli.main(["scan", "--config", str(config), "--out", str(out)])
    assert rc == 0
    expected = serialize_csv(run_sweep(SweepConfig.from_dict(SWEEP_JSON)))
    assert out.read_text() == expected


def test_scan_json_format(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(SWEEP_JSON))
    out = tmp_path / "data.json"
    rc = cli.main(["scan", "--config", str(config), "--format", "json",
                   "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 5
    assert doc["columns"][0] == "delta"


def test_json_outputs_are_strict(tmp_path, capsys):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    # at omega = 1e-300 the photon density (lambda*s_x/omega)**2 overflows
    assert cli.main(["solve", "--omega", "1e-300", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payload["photon_density"] is None
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({**SWEEP_JSON, "axes": [
        {"name": "omega", "min": 1e-300, "max": 1.0, "count": 2}]}))
    out = tmp_path / "data.json"
    assert cli.main(["scan", "--config", str(config), "--format", "json",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_constant=reject)
    photons = doc["columns"].index("photon_density")
    assert [row[0] for row in doc["rows"] if row[photons] is None] == [1e-300]


def test_scan_bad_axis_exit_2(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "base": SWEEP_JSON["base"],
        "axes": [{"name": "mass", "min": 0.0, "max": 1.0, "count": 3}],
    }))
    assert cli.main(["scan", "--config", str(config)]) == 2
    assert "unknown sweep axis" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"exact_eps": 0}, {"exact_eps": -1e-8},
                                 {"exact_n_max_start": 0}, {"exact_n": [8, 8]}])
def test_scan_bad_exact_settings_exit_2_before_any_node(bad, tmp_path, capsys):
    # exact_n_max_start is no longer a setting: the ladder always starts at
    # the same cutoff, and a config that sets it names the unknown key; a
    # repeated atom number would solve its ladder twice at each node
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({**SWEEP_JSON, "exact_n": [4], **bad}))
    out = tmp_path / "data.csv"
    assert cli.main(["scan", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(bad)) in err
    assert not out.exists()


_AXIS = SWEEP_JSON["axes"][0]


@pytest.mark.parametrize("axes, named", [
    ([{**_AXIS, "min": -math.inf}], "'delta'"),
    ([{**_AXIS, "min": -1e308, "max": 1e308}], "'delta'"),  # infinite step
    ([{k: v for k, v in _AXIS.items() if k != "min"}], "'delta'"),
    ([{**_AXIS, "min": None}], "'delta'"),
    ([{**_AXIS, "count": "5"}], "'delta'"),
    (_AXIS, "'axes'"),
    ("delta", "'axes'"),
    (["delta"], "axis 0"),
])
def test_scan_malformed_axes_exit_2_before_any_node(axes, named, tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({**SWEEP_JSON, "axes": axes}))  # -inf as -Infinity
    out = tmp_path / "data.csv"
    assert cli.main(["scan", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


def test_scan_refuses_a_grid_past_the_node_cap(tmp_path, capsys, monkeypatch):
    # a count of 1e308 is an integral float, so an integer; the cap refuses
    # it, naming the axis, before any node list is built (values() raises
    # here, where it would allocate until memory runs out)
    def values(axis):
        raise AssertionError(f"node list of {axis.name!r} built")

    monkeypatch.setattr(AxisSpec, "values", values)
    config, out = tmp_path / "sweep.json", tmp_path / "data.csv"
    v_axis = {"name": "v", "min": -1.0, "max": 1.0, "count": 1001}
    for axes, named in (([{**_AXIS, "count": 1e308}], "axis 'delta'"),
                        ([{**_AXIS, "count": 1000}, v_axis], "axis 'v'")):
        config.write_text(json.dumps({**SWEEP_JSON, "axes": axes}))
        assert cli.main(["scan", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "1000000 nodes" in err
        assert not out.exists()


# --- figure commands ----------------------------------------------------

def test_fig2_outputs_and_determinism(tmp_path, capsys):
    args = ["fig2", "--points", "15", "--delta-span", "1.0",
            "--rabi-fracs", "0,0.05"]
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    assert cli.main(args + ["--out-dir", str(d1)]) == 0
    assert cli.main(args + ["--out-dir", str(d2)]) == 0
    capsys.readouterr()
    for name in ("fig2_curve0.csv", "fig2_curve1.csv", "fig2.gp"):
        assert (d1 / name).is_file()
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    script = (d1 / "fig2.gp").read_text()
    assert "fig2_curve0.csv" in script
    assert "using 1:8" in script and "using 1:6" in script
    dataset = parse_csv((d1 / "fig2_curve0.csv").read_text())
    assert len(dataset.rows) == 15


def test_fig3_grid_overlays_script(tmp_path, capsys):
    out_dir = tmp_path / "fig3"
    rc = cli.main(["fig3", "--resolution", "9x7", "--out-dir", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    grid = parse_csv((out_dir / "fig3_grid.csv").read_text())
    assert grid.columns[:2] == ("delta", "v")
    assert len(grid.rows) == 9 * 7
    overlay_lines = (out_dir / "fig3_overlays.csv").read_text().splitlines()
    assert overlay_lines[0] == "line_id,delta,v"
    assert any("," in line for line in overlay_lines[1:])
    script = (out_dir / "fig3.gp").read_text()
    assert "splot" in script and "fig3_overlays.csv" in script


def test_fig4_default_four_drives(tmp_path, capsys):
    out_dir = tmp_path / "fig4"
    rc = cli.main(["fig4", "--points", "11", "--out-dir", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    for i in range(4):
        assert (out_dir / f"fig4_curve{i}.csv").is_file()
    assert "using 1:6" in (out_dir / "fig4.gp").read_text()


def test_u_with_mhz_units_is_refused_before_any_file(tmp_path, capsys):
    # the preset sets u, so an explicit --u would be ignored: it is an error
    # that names both flags, even at --u 1, and no file is written
    for u in ("5", "1"):
        out_dir = tmp_path / u
        rc = cli.main(["fig2", "--units", "mhz", "--u", u, "--points", "5",
                       "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--u" in err and "--units mhz" in err
        assert not out_dir.exists()


def test_fig2_mhz_units_smoke(tmp_path, capsys):
    out_dir = tmp_path / "mhz"
    rc = cli.main(["fig2", "--units", "mhz", "--points", "5",
                   "--rabi-fracs", "0", "--out-dir", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    dataset = parse_csv((out_dir / "fig2_curve0.csv").read_text())
    cols = {name: i for i, name in enumerate(dataset.columns)}
    # the preset uses the rounded experimental couplings 2.81e4 / 2.51e9
    assert dataset.rows[0][cols["u"]] == pytest.approx(
        2.81e4 ** 2 / 2.51e9, rel=1e-12)


# figure options that are not finite, and the error each gives
_NOT_FINITE = {
    ("fig2", "--v", "nan"): "--v must be a finite number, got nan",
    ("fig4", "--v", "inf"): "--v must be a finite number, got inf",
    ("fig3", "--rabi-frac", "inf"): "--rabi-frac must be a finite number, got inf",
    ("fig4", "--rabi-fracs", "0,inf"): "--rabi-fracs must be a finite number, got inf",
    ("fig3", "--v-min=-inf"): "--v-min must be a finite number, got -inf",
}


@pytest.mark.parametrize("argv", [
    ["fig2", "--rabi-fracs", "a,b"],
    ["fig2", "--rabi-fracs", ""],
    ["fig2", "--u", "-1"],
    ["fig2", "--u", "0"],
    ["fig3", "--u", "nan"],
    ["fig4", "--u", "inf"],
    ["fig3", "--resolution", "9"],
    ["fig3", "--resolution", "10xq"],
    ["fig3", "--resolution", "10x"],
    ["fig3", "--resolution", "9.5x7"],
    ["fig2", "--points", "1"],
    ["fig4", "--points", "0"],
    ["fig3", "--resolution", "1x5"],
    ["fig2", "--delta-span", "-1"],
    ["fig3", "--delta-span", "0"],
    ["fig4", "--delta-span", "0"],
    ["fig3", "--v-min", "2", "--v-max", "1"],
    ["fig3", "--v-min", "1", "--v-max", "1"],
    # an option times --u overflows: the detuning axis, 2 * span wide ...
    ["fig2", "--u", "1e308", "--delta-span", "2"],
    ["fig3", "--u", "1e308", "--delta-span", "3"],
    ["fig4", "--u", "1e308"],
    # ... the v axis, its width included ...
    ["fig3", "--u", "1e307", "--v-min", "-100"],
    ["fig3", "--u", "1e307", "--v-min", "-10", "--v-max", "10"],
    ["fig2", "--u", "1e307", "--v", "100"],
    # ... and the drives
    ["fig4", "--u", "1e307", "--rabi-fracs", "0,100"],
    ["fig3", "--u", "1e307", "--rabi-frac", "100"],
    # a non-finite option is not finite, whatever --u is (_NOT_FINITE)
    *map(list, _NOT_FINITE),
])
def test_fig_bad_options_exit_2(argv, capsys, tmp_path):
    out_dir = tmp_path / "x"
    assert cli.main(argv + ["--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    flags = [arg.split("=")[0] for arg in argv]
    for flag in ("--u", "--resolution", "--points", "--delta-span", "--v-min",
                 "--v-max", "--v", "--rabi-frac", "--rabi-fracs"):
        if flag in flags:
            assert flag in err
    if tuple(argv) in _NOT_FINITE:
        assert err == f"error: {_NOT_FINITE[tuple(argv)]}\n"
    assert not out_dir.exists()


_FUZZ_VALUES = ("0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "1e-310", "1e308",
                "-1e308", "1.7976931348623157e308", "nan", "NaN", "inf", "-inf",
                "Infinity", "x", "", "1e", "--", "1,5")


def test_fuzzed_solve_and_boundaries_arguments_exit_cleanly(capsys):
    # extreme, non-finite and malformed couplings, each after its flag or
    # joined to it: every run ends with a documented exit code (0, 2 for a
    # bad parameter, 3 for a degenerate ground state) and no traceback, and
    # every JSON output is strict
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rng = random.Random(2727)
    codes = set()
    for _ in range(400):
        fmt = rng.choice(("text", "json"))
        argv = [rng.choice(("solve", "boundaries")), "--format", fmt]
        for flag in rng.sample(("--omega", "--lambda", "--delta", "--rabi", "--v"),
                               rng.randint(1, 5)):
            value = (rng.choice(_FUZZ_VALUES) if rng.random() < 0.3 else
                     repr(rng.uniform(-2.0 if flag in ("--delta", "--v") else 0.0, 2.0)))
            argv += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argument list
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), argv
        assert "Traceback" not in out + err, argv
        if fmt == "json" and out:
            json.loads(out, parse_constant=reject)
        codes.add(code)
    assert codes == {0, 2, 3}


# the names an error may give an exact-check option by: its flag, or the
# parameter it sets as the model's domain rule names it
_EXACT_CHECK_NAMES = {
    "--omega": ("--omega", "omega", "cavity frequency"),
    "--lambda": ("--lambda", "lambda", "collective coupling"),
    "--delta": ("--delta", "delta"),
    "--rabi": ("--rabi", "Rabi"),
    "--v": ("--v", "'v'"),
    "--eps": ("--eps",),
    "--budget": ("--budget",),
    "--n-list": ("--n-list",),
}


def test_fuzzed_exact_check_arguments_exit_cleanly(capsys):
    # the same for exact-check, at atom numbers up to 4 and a budget that
    # keeps every ladder short: each run ends within 1 s with 0, 1 for a
    # ladder that cannot converge or 2 for a bad option, which the error
    # names
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rng = random.Random(2929)
    codes = set()
    for _ in range(150):
        fmt = rng.choice(("text", "json"))
        options = {
            "--n-list": (rng.choice(("0", "-3", "2.5", "x", "", "1,5"))
                         if rng.random() < 0.1 else
                         ",".join(str(rng.randint(1, 4)) for _ in range(rng.randint(1, 2)))),
            "--budget": (rng.choice(("0", "-5", "x", "1e3", "nan"))
                         if rng.random() < 0.1 else str(rng.randint(1, 3000))),
        }
        for flag in rng.sample(("--omega", "--lambda", "--delta", "--rabi", "--v", "--eps"),
                               rng.randint(1, 6)):
            options[flag] = (rng.choice(_FUZZ_VALUES) if rng.random() < 0.3 else
                             repr(rng.uniform(-2.0 if flag in ("--delta", "--v") else 0.0, 2.0)))
        argv = ["exact-check", "--format", fmt]
        for flag, value in options.items():
            argv += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argument list
            code = exc.code
        assert time.perf_counter() - start < 1.0, argv
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out + err, argv
        if code == 2:
            assert any(name in err for flag in options
                       for name in _EXACT_CHECK_NAMES[flag]), (argv, err)
        if fmt == "json" and out:
            json.loads(out, parse_constant=reject)
        codes.add(code)
    assert codes == {0, 1, 2}


def _reject(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run_cleanly(argv, capsys, codes):
    """cli.main(argv) ends within 1 s with one of the exit codes `codes`
    and no traceback; returns (code, out, err)."""
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argument list
        code = exc.code
    assert time.perf_counter() - start < 1.0, argv
    out, err = capsys.readouterr()
    assert code in codes, (argv, code, err)
    assert "Traceback" not in out + err, argv
    return code, out, err


# extreme, non-finite and malformed JSON values; json.dumps writes the
# non-finite floats as NaN and Infinity, which json.loads reads back
_FUZZ_JSON = (0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308, 1.7976931348623157e308,
              math.nan, math.inf, -math.inf, "x", "", None, True, [], {}, [1.0], -3)

# the names an error may give a config key by: the key, or the quantity the
# domain rule names
_KEY_NAMES = {
    "omega": ("'omega'", "cavity frequency", "/omega"),
    "lambda": ("lambda", "collective coupling"),
    "delta": ("'delta'",),
    "omega_rabi": ("'omega_rabi'", "Rabi"),
    "v": ("'v'",),
    "n_atoms": ("'n_atoms'", "number of atoms"),
}


def test_fuzzed_scan_configs_exit_cleanly(tmp_path, capsys):
    # sweep configs whose base values, axis entries or finite-N settings are
    # extreme, non-finite or malformed, on grids of at most 4 nodes: each
    # run ends with 0 or 2, and 2 names the key at fault and writes no
    # output.  An atom number of 100000 needs 900009 basis states at the
    # first photon cutoff, past the 400000 budget: 2 before any node runs
    rng = random.Random(3030)
    config_path, out = tmp_path / "sweep.json", tmp_path / "data"
    config_path.write_text(json.dumps({**SWEEP_JSON, "exact_n": [100_000]}))
    _, _, err = _run_cleanly(["scan", "--config", str(config_path), "--out", str(out)],
                             capsys, (2,))
    assert "exact_n entry 100000" in err and not out.exists()
    codes = set()
    for _ in range(100):
        out.unlink(missing_ok=True)
        base = {**SWEEP_JSON["base"]}
        axis = {**_AXIS, "count": rng.randint(2, 4)}
        config = {"base": base, "axes": [axis]}
        names = []
        for _ in range(rng.randint(1, 2)):
            where = rng.random()
            if where < 0.5:
                key = rng.choice(list(base))
                base[key] = rng.choice(_FUZZ_JSON)
                names += _KEY_NAMES[key]
            elif where < 0.8:
                key = rng.choice(list(axis))
                # a valid count stays small; 1e308 passes as an integer and
                # is refused by the node cap
                axis[key] = rng.choice(_FUZZ_JSON + ("v", "lambda", "mass") if key != "count"
                                       else (0, 1, -3, 2.5, 5e-324, 1e308, math.nan, math.inf,
                                             "x", None, True, []))
                names += [f"'{key}'", "axis"]
            else:
                key = rng.choice(("exact_n", "exact_eps"))
                config[key] = rng.choice(_FUZZ_JSON + ([1], [2, 1], [100_000]))
                names += [key]
        fmt = rng.choice(("csv", "json"))
        config_path.write_text(json.dumps(config))
        code, _, err = _run_cleanly(["scan", "--config", str(config_path), "--format", fmt,
                                     "--out", str(out)], capsys, (0, 2))
        if config.get("exact_n") == [100_000]:
            assert code == 2, config
        if code == 2:
            assert any(name in err for name in names), (config, err)
            assert not out.exists()
        elif fmt == "json":
            json.loads(out.read_text(), parse_constant=_reject)
        codes.add(code)
    assert codes == {0, 2}


_TRAP_NAMES = {
    "omega_trap": ("'omega_trap'", "trap frequency"),
    "rho_intra": ("'rho_intra'",),
    "rho_inter": ("'rho_inter'",),
    "mass": ("mass",),
    "n_atoms": ("'n_atoms'", "atoms"),
    "single_coupling": ("'single_coupling'",),
    "cavity_freq": ("'cavity_freq'", "cavity frequency"),
    "g0_max": ("'g0_max'", "cavity loss"),
    "gamma_excited": ("'gamma_excited'", "cavity loss"),
}


def test_fuzzed_trap_specs_exit_cleanly(tmp_path, capsys):
    # trap specs with extreme, non-finite or malformed values: each run
    # ends with 0 or 2, 2 names the key at fault, and JSON output is strict
    rng = random.Random(3131)
    spec_path = tmp_path / "trap.json"
    codes = set()
    for _ in range(100):
        spec = {**TRAP_JSON, "omega_trap": list(TRAP_JSON["omega_trap"])}
        names = []
        for _ in range(rng.randint(1, 2)):
            key = rng.choice(list(spec))
            trap = spec["omega_trap"]
            if key == "omega_trap" and isinstance(trap, list) and len(trap) == 3 \
                    and rng.random() < 0.5:
                trap[rng.randrange(3)] = rng.choice(_FUZZ_JSON)
            else:
                spec[key] = rng.choice(_FUZZ_JSON)
            names += _TRAP_NAMES[key]
        fmt = rng.choice(("text", "json"))
        spec_path.write_text(json.dumps(spec))
        code, out, err = _run_cleanly(["estimate", "--config", str(spec_path),
                                       "--format", fmt], capsys, (0, 2))
        if code == 2:
            assert any(name in err for name in names), (spec, err)
        elif fmt == "json":
            json.loads(out, parse_constant=_reject)
        codes.add(code)
    assert codes == {0, 2}


_FIG_OPTIONS = {
    "fig2": ("--u", "--v", "--rabi-fracs", "--delta-span", "--points", "--units"),
    "fig3": ("--u", "--rabi-frac", "--delta-span", "--v-min", "--v-max", "--resolution",
             "--units"),
    "fig4": ("--u", "--v", "--rabi-fracs", "--delta-span", "--points", "--units"),
}


def test_fuzzed_fig_options_exit_cleanly(tmp_path, capsys):
    # figure options drawn from the fuzz values, on grids of at most 5
    # points per axis: each run ends with 0 or 2, and 2 names an option
    # the run was given
    rng = random.Random(3232)
    codes = set()
    for i in range(60):
        command = rng.choice(list(_FIG_OPTIONS))
        options = {"--points": str(rng.randint(2, 5)),
                   "--resolution": f"{rng.randint(2, 5)}x{rng.randint(2, 4)}"}
        for flag in rng.sample(_FIG_OPTIONS[command], rng.randint(1, 3)):
            options[flag] = (rng.choice(_FUZZ_VALUES) if rng.random() < 0.5 else
                             rng.choice(("mhz", "dimensionless", "3", "0.5,1", "-2")))
        given = [flag for flag in options if flag in _FIG_OPTIONS[command]]
        argv = [command, "--out-dir", str(tmp_path / f"out{i}")]
        for flag in given:
            argv += ([f"{flag}={options[flag]}"] if rng.random() < 0.5
                     else [flag, options[flag]])
        code, _, err = _run_cleanly(argv, capsys, (0, 2))
        if code == 2:
            assert any(flag in err for flag in given), (argv, err)
        codes.add(code)
    assert codes == {0, 2}
