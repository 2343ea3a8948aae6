"""Command-line entry points: exit codes, payloads, and file outputs."""

from __future__ import annotations

import json
import math
import warnings

import pytest

from extdicke import __version__, cli
from extdicke.exact import ExactSolution
from extdicke.sweep import SweepConfig, parse_csv, run_sweep, serialize_csv

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


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


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


def test_solve_unknown_config_key_exit_2(tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text(json.dumps({"omege": 1.0}))
    assert cli.main(["solve", "--config", str(config)]) == 2
    assert "unknown parameter" in capsys.readouterr().err


def test_solve_invalid_json_exit_2(tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text("{not json")
    assert cli.main(["solve", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_solve_overflowing_quartic_is_not_flat(capsys):
    # delta*s_z alone makes the energy non-constant; the quartic's
    # coefficients overflow unless the kernel rescales the couplings
    assert cli.main(["solve", "--omega", "1", "--lambda", "1", "--v=-1e308",
                     "--delta", "1e308", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flat_manifold"] is False
    assert payload["m_over_n"] == -1.0
    assert payload["residual"] == 0.0


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

    monkeypatch.setattr(cli, "converge_cutoff", fake)
    argv = ["exact-check", "--rabi", "0.3", "--n-list", "2"]
    assert cli.main(argv) == 0
    row = capsys.readouterr().out.splitlines()[-1]
    assert row.split()[-2] == "+0.0000"
    assert cli.main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["parity"] == -1e-16


@pytest.mark.parametrize("argv, code", [
    (["--omega", "1e308", "--lambda", "1", "--n-list", "2"], 2),  # ||H|| = inf
    (["--lambda", "1e154", "--n-list", "2"], 1),  # residual guard
    (["--v=1e308", "--n-list", "4"], 1),
])
def test_exact_check_overflow_is_one_error_line(argv, code, capsys):
    # numpy overflow inside the build and the eigensolve raises no warning
    # of its own; the norm check and the residual guard report it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["exact-check", *argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("n_list", ["8,x", "8.5", "4,nan", ","])
def test_exact_check_bad_n_list_names_the_flag(n_list, capsys):
    assert cli.main(["exact-check", "--n-list", n_list]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "--n-list" in err


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

    # at delta = 0 (no drive) the ground state sits on the eta = +-inf pole
    assert cli.main(["solve", "--omega", "1", "--lambda", "1", "--delta", "0",
                     "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out, parse_constant=reject)["eta"] is None
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({**SWEEP_JSON,
                                  "base": {**SWEEP_JSON["base"], "omega_rabi": 0.0}}))
    out = tmp_path / "data.json"
    assert cli.main(["scan", "--config", str(config), "--format", "json",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_constant=reject)
    eta = doc["columns"].index("eta")
    assert [row[0] for row in doc["rows"] if row[eta] is None] == [0.0]


def test_scan_bad_axis_exit_2(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "base": SWEEP_JSON["base"],
        "axes": [{"name": "mass", "min": 0.0, "max": 1.0, "count": 3}],
    }))
    assert cli.main(["scan", "--config", str(config)]) == 2
    assert "unknown sweep axis" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"exact_eps": 0}, {"exact_eps": -1e-8},
                                 {"exact_n_max_start": 0}])
def test_scan_bad_exact_settings_exit_2_before_any_node(bad, tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({**SWEEP_JSON, "exact_n": [4], **bad}))
    out = tmp_path / "data.csv"
    assert cli.main(["scan", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: exact_")
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
    assert "using 1:9" in script and "using 1:7" in script
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
    assert "using 1:7" in (out_dir / "fig4.gp").read_text()


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
])
def test_fig_bad_options_exit_2(argv, capsys, tmp_path):
    out_dir = tmp_path / "x"
    assert cli.main(argv + ["--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    for flag in ("--u", "--resolution", "--points", "--delta-span", "--v-min",
                 "--v-max", "--v", "--rabi-frac", "--rabi-fracs"):
        if flag in argv:
            assert flag in err
    assert not out_dir.exists()
