"""Command-line interface.

Subcommands
-----------
estimate     couplings (v, lambda, u, n_crit) from a trap/cavity JSON spec
solve        thermodynamic-limit ground state at one parameter point
exact-check  finite-N diagonalization against the product-state bound
boundaries   closed-form critical lines at given couplings
scan         run a sweep config and write the dataset (CSV or JSON)
fig2         energy and population curves vs detuning for several drives
fig3         phase-diagram grid over (delta, v) with critical-line overlays
fig4         population curves vs detuning across the first-order region

Exit codes: 0 success, 1 finite-N convergence failure, 2 bad
configuration or parameters, 3 degenerate ground-state manifold, 4 I/O
failure.  JSON output is strict RFC 8259: non-finite floats are null.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from . import __version__
from .exact import ConvergenceError, converge_cutoff, product_state_energy
from .meanfield import ground_state
from .model import (
    ModelParams,
    ParameterError,
    TrapSpec,
    _integer,
    estimate_from_trap,
    field_name,
    omega_critical,
)
from .phases import (
    classify,
    critical_overlays,
    delta_critical,
    mott_boundary_delta,
    v_critical,
)
from .sweep import (
    AxisSpec,
    SweepConfig,
    dumps_json,
    run_sweep,
    serialize_csv,
    serialize_json,
)

EXIT_OK = 0
EXIT_CONVERGENCE = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

# cavity-QED numbers (angular MHz) behind --units mhz
_MHZ_OMEGA = 2.51e9
_MHZ_LAMBDA = 2.81e4
_MHZ_N_ATOMS = 50_000

# model parameters a command runs with when neither a flag nor --config sets
# them, by ModelParams field (the defaults --help documents)
_PARAM_DEFAULTS = {"omega": 1.0, "lam": 1.0, "delta": 0.0, "omega_rabi": 0.0,
                   "v": 0.0, "n_atoms": 1}


def _write_text(out, text: str) -> None:
    if out is None or str(out) == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None,
                   help="JSON file with model parameters; explicit flags override it")
    p.add_argument("--omega", type=float, default=None, help="cavity frequency (default 1)")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="collective coupling (default 1)")
    p.add_argument("--delta", type=float, default=None, help="detuning (default 0)")
    p.add_argument("--rabi", type=float, default=None, help="Rabi drive (default 0)")
    p.add_argument("--v", type=float, default=None, help="atom-atom coupling (default 0)")
    p.add_argument("--n-atoms", type=int, default=None, help="atom number (default 1)")


def _params_from_args(args) -> ModelParams:
    """Each parameter from its flag, else from --config, else its default;
    the merged values are validated once, as one ModelParams."""
    values = dict(_PARAM_DEFAULTS)
    if args.config is not None:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ParameterError("parameter config must be a JSON object")
        values.update({field_name(k): v for k, v in loaded.items()})
    flags = {"omega": args.omega, "lam": args.lam, "delta": args.delta,
             "omega_rabi": args.rabi, "v": args.v, "n_atoms": args.n_atoms}
    values.update({k: v for k, v in flags.items() if v is not None})
    return ModelParams.from_dict(values)


def _format_payload(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return dumps_json(payload, indent=2, sort_keys=True) + "\n"
    width = max(len(k) for k in payload)
    lines = []
    for key, value in payload.items():
        if isinstance(value, float):
            lines.append(f"{key:<{width}}  {value:.12g}")
        else:
            lines.append(f"{key:<{width}}  {value}")
    return "\n".join(lines) + "\n"


def cmd_estimate(args) -> int:
    spec = TrapSpec.from_json(Path(args.config).read_text())
    est = estimate_from_trap(spec)
    payload = {
        "v": est.v,
        "v_cyclic_mhz": est.metadata["v_cyclic_mhz"],
        "v_shorthand": est.metadata["v_shorthand"],
        "lambda": est.lam,
        "u": est.u,
        "n_crit": est.n_crit,
        "d_x": est.metadata["d_x"],
        "d_y": est.metadata["d_y"],
        "d_z": est.metadata["d_z"],
    }
    _write_text(args.out, _format_payload(payload, args.format))
    return EXIT_OK


def cmd_solve(args) -> int:
    params = _params_from_args(args)
    sol = ground_state(params)
    label = classify(params, sol)
    payload = {
        "s_x": sol.point.s_x,
        "s_z": sol.point.s_z,
        "eta": sol.eta,
        "alpha": sol.alpha,
        "m_over_n": sol.m_over_n,
        "photon_density": sol.photon_density,
        "energy_per_atom": sol.energy_per_atom,
        "residual": sol.residual,
        "n_local_minima": sol.n_local_minima,
        "degenerate": sol.degenerate,
        "flat_manifold": sol.flat_manifold,
        "phase": label.value,
    }
    _write_text(args.out, _format_payload(payload, args.format))
    if sol.flat_manifold:
        print("warning: every spin direction is a ground state; "
              "reported point is conventional", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_exact_check(args) -> int:
    params = _params_from_args(args)
    n_list = _parse_int_list(args.n_list, "--n-list")
    mf = ground_state(params)
    rows = []
    for n in n_list:
        p_n = params.replace(n_atoms=n)
        sol = converge_cutoff(p_n, eps=args.eps, budget=args.budget)
        bound = product_state_energy(p_n, mf)
        rows.append({
            "n_atoms": n,
            "n_max": sol.n_max_used,
            "converged": sol.converged,
            "exact_energy_per_atom": sol.energy_per_atom,
            "bound_energy_per_atom": bound,
            "bound_holds": sol.energy_per_atom <= bound + 1e-9 * max(1.0, abs(bound)),
            "drift": abs(mf.energy_per_atom - sol.energy_per_atom),
            "photon_density": sol.photon_density,
            "parity": sol.parity,
            "gap": sol.gap,
        })
    if args.format == "json":
        text = dumps_json({"mean_field_energy_per_atom": mf.energy_per_atom,
                           "rows": rows}, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"mean-field energy per atom: {mf.energy_per_atom:.12g}"]
        header = ("n_atoms n_max conv  exact_E/N        bound_E/N        "
                  "drift        parity  gap")
        lines.append(header)
        for r in rows:
            # with a drive parity is an expectation value; one of ~1e-16 is
            # solver noise whose sign is not printed
            parity = round(r["parity"], 4) + 0.0
            lines.append(
                f"{r['n_atoms']:7d} {r['n_max']:5d} {str(r['converged']):5s} "
                f"{r['exact_energy_per_atom']:16.9e} {r['bound_energy_per_atom']:16.9e} "
                f"{r['drift']:12.5e} {parity:+7.4f} {r['gap']:.4e}"
                + ("" if r["bound_holds"] else "  BOUND VIOLATED"))
        text = "\n".join(lines) + "\n"
    _write_text(args.out, text)
    if not all(r["converged"] for r in rows):
        print("warning: diagonalization hit the dimension budget before "
              "reaching the requested tolerance", file=sys.stderr)
    return EXIT_OK


def cmd_boundaries(args) -> int:
    params = _params_from_args(args)
    u = params.u
    v = params.v
    rabi = params.omega_rabi
    payload: dict = {"u": u, "v": v, "omega_rabi": rabi, "w": u + v}
    if u + v >= 0.0:
        lo, hi = delta_critical(u, v)
        payload["lobe_delta_minus"] = lo
        payload["lobe_delta_plus"] = hi
    else:
        payload["lobe_delta_minus"] = None
        payload["lobe_delta_plus"] = None
    payload["omega_critical"] = omega_critical(u, v)
    mott = mott_boundary_delta(u, v, rabi)
    payload["mott_delta"] = mott
    payload["v_critical"] = v_critical(u, params.delta, rabi)
    _write_text(args.out, _format_payload(payload, args.format))
    return EXIT_OK


def cmd_scan(args) -> int:
    config = SweepConfig.from_json(Path(args.config).read_text())
    dataset = run_sweep(config)
    text = serialize_json(dataset) if args.format == "json" else serialize_csv(dataset)
    _write_text(args.out, text)
    return EXIT_OK


def _fig_base(args) -> tuple[ModelParams, float]:
    """Base parameters and the coupling scale u for the figure commands.
    Every axis and drive is in units of u, so --u must be finite and
    positive."""
    if not (math.isfinite(args.u) and args.u > 0.0):
        raise ParameterError(f"--u must be finite and positive, got {args.u}")
    if args.units == "mhz":
        base = ModelParams(omega=_MHZ_OMEGA, lam=_MHZ_LAMBDA, n_atoms=_MHZ_N_ATOMS)
    else:
        base = ModelParams(omega=1.0, lam=math.sqrt(args.u), n_atoms=1)
    return base, base.u


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad {flag}: {exc}") from None
    if not values:
        raise ParameterError(f"empty {flag}")
    return values


def _parse_int_list(text: str, flag: str) -> list[int]:
    """Comma-separated integers; a fractional entry is an error, not
    something to truncate."""
    return [_integer(x, f"{flag} entry") for x in _parse_float_list(text, flag)]


def _parse_resolution(text: str) -> tuple[int, int]:
    """`DxV` for --resolution: two integers joined by `x`."""
    try:
        nd, nv = (float(tok) for tok in text.split("x"))
    except ValueError:
        raise ParameterError(f"bad --resolution {text!r}: expected two "
                             "integers joined by 'x', like 61x41") from None
    return (_grid_count(_integer(nd, "--resolution entry"), "--resolution"),
            _grid_count(_integer(nv, "--resolution entry"), "--resolution"))


def _grid_count(count: int, flag: str) -> int:
    """A grid axis count from `flag`; an axis needs two points."""
    if count < 2:
        raise ParameterError(f"{flag} must give at least 2 points per axis, got {count}")
    return count


_GP_COMMON = """set datafile separator ","
set datafile commentschars "#"
set key left top
set grid
"""


def _times_u(value: float, u: float, flag: str, width: float = 1.0) -> float:
    """A figure option given in units of u, times u.  The product, and an
    axis `width` times it, must be finite: an overflow names --u and the
    option before any output is written."""
    x = value * u
    if not math.isfinite(width * x):
        raise ParameterError(f"{flag} {value:g} times --u {u:g} overflows")
    return x


def _delta_span(args, u: float) -> float:
    """The --delta-span half-range in detuning units; it must be positive,
    and the axis, twice as wide, finite."""
    if not args.delta_span > 0.0:
        raise ParameterError(f"--delta-span must be positive, got {args.delta_span}")
    return _times_u(args.delta_span, u, "--delta-span", width=2.0)


def _detuning_figure(args, stem: str, panels: tuple[tuple[str, str], ...]) -> int:
    """One detuning sweep per drive strength, written as stem_curve<i>.csv,
    and a gnuplot script with one plot per (y label, CSV column name) panel.
    Every option is checked before the output directory is made."""
    base, u = _fig_base(args)
    fracs = _parse_float_list(args.rabi_fracs, "--rabi-fracs")
    span = _delta_span(args, u)
    axis = AxisSpec("delta", -span, span, _grid_count(args.points, "--points"))
    v = _times_u(args.v, u, "--v")
    drives = [_times_u(frac, u, "--rabi-fracs") for frac in fracs]
    configs = [SweepConfig(base=base.replace(v=v, omega_rabi=drive), axes=(axis,))
               for drive in drives]
    datasets = [run_sweep(config) for config in configs]
    columns = datasets[0].columns  # every sweep here has the same columns
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for i, (drive, dataset) in enumerate(zip(drives, datasets)):
        path = out_dir / f"{stem}_curve{i}.csv"
        path.write_text(serialize_csv(dataset))
        written.append((drive, path))
    script = _GP_COMMON + 'set xlabel "detuning"\n'
    for ylabel, name in panels:
        column = columns.index(name) + 1
        plots = ", \\\n     ".join(
            f'"{p.name}" using 1:{column} with lines title "drive = {r:.6g}"'
            for r, p in written)
        script += f'set ylabel "{ylabel}"\nplot {plots}\npause -1\n'
    (out_dir / f"{stem}.gp").write_text(script)
    for r, p in written:
        print(f"wrote {p} (drive {r:.6g})")
    print(f"wrote {out_dir / f'{stem}.gp'}")
    return EXIT_OK


def cmd_fig2(args) -> int:
    return _detuning_figure(args, "fig2", (
        ("energy per atom", "energy_per_atom"),
        ("population imbalance m/N", "m_over_n")))


def cmd_fig3(args) -> int:
    base, u = _fig_base(args)
    rabi = _times_u(args.rabi_frac, u, "--rabi-frac")
    d_span = _delta_span(args, u)
    if not args.v_max > args.v_min:
        raise ParameterError(f"--v-max must exceed --v-min, got "
                             f"{args.v_min} to {args.v_max}")
    v_lo, v_hi = args.v_min * u, args.v_max * u
    if not math.isfinite(v_hi - v_lo):
        raise ParameterError(f"--v-min {args.v_min:g} to --v-max {args.v_max:g} "
                             f"times --u {u:g} overflows")
    nd, nv = _parse_resolution(args.resolution)
    config = SweepConfig(
        base=base.replace(omega_rabi=rabi),
        axes=(AxisSpec("delta", -d_span, d_span, nd),
              AxisSpec("v", v_lo, v_hi, nv)),
    )
    dataset = run_sweep(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid_path = out_dir / "fig3_grid.csv"
    grid_path.write_text(serialize_csv(dataset))

    overlays = critical_overlays(u, rabi, (-d_span, d_span), (v_lo, v_hi))
    lines = ["line_id,delta,v"]
    for line_id, pts in overlays:
        for d, v in pts:
            lines.append(f"{line_id},{d:.17g},{v:.17g}")
        lines.append("")
    overlay_path = out_dir / "fig3_overlays.csv"
    overlay_path.write_text("\n".join(lines).rstrip("\n") + "\n")

    script = (_GP_COMMON
              + 'set xlabel "detuning"\n'
              + 'set ylabel "atom-atom coupling v"\n'
              + "set view map\n"
              + f'splot "{grid_path.name}" using 1:2:9 with points pt 5 palette '
              + 'title "photon density", \\\n'
              + f'      "{overlay_path.name}" using 2:3:(0) with lines '
              + 'lc "black" lw 2 title "critical lines"\n'
              + "pause -1\n")
    (out_dir / "fig3.gp").write_text(script)
    print(f"wrote {grid_path}")
    print(f"wrote {overlay_path}")
    print(f"wrote {out_dir / 'fig3.gp'}")
    return EXIT_OK


def cmd_fig4(args) -> int:
    return _detuning_figure(args, "fig4", (("population imbalance m/N", "m_over_n"),))


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every argument starting with -digit or
    -.digit as a value, never as an option.

    argparse's own test takes only -5 and -0.5 for numbers, so after --v it
    reads -5e-05 or -1E+3 as an unknown option and exits with "expected one
    argument".  No option name here starts with a digit.  Subcommand parsers
    are built with the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="extdicke",
        description="Ground states and phase diagrams of a driven, interacting "
                    "Dicke model in the thermodynamic limit.",
        epilog="A negative value may follow its flag or be joined to it: "
               "--v -5e-05 and --v=-5e-05 are the same.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="couplings from a trap/cavity spec")
    p.add_argument("--config", type=Path, required=True,
                   help="JSON trap/cavity specification")
    p.add_argument("--out", default=None, help="output file ('-' = stdout)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("solve", help="ground state at one parameter point")
    _add_param_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exact-check",
                       help="finite-N energies against the variational bound")
    _add_param_flags(p)
    p.add_argument("--n-list", default="8,16,32",
                   help="comma-separated atom numbers")
    p.add_argument("--eps", type=float, default=1e-8,
                   help="cutoff-doubling convergence tolerance")
    p.add_argument("--budget", type=int, default=400_000,
                   help="largest Hilbert-space dimension to attempt")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_exact_check)

    p = sub.add_parser("boundaries", help="closed-form critical lines")
    _add_param_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_boundaries)

    p = sub.add_parser("scan", help="run a sweep configuration file")
    p.add_argument("--config", type=Path, required=True, help="JSON sweep config")
    p.add_argument("--out", default=None, help="output file ('-' = stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fig2", help="energy/population curves vs detuning")
    p.add_argument("--u", type=float, default=1.0, help="coupling u = lambda^2/omega")
    p.add_argument("--v", type=float, default=0.0, help="atom-atom coupling in units of u")
    p.add_argument("--rabi-fracs", default="0,0.02,0.05",
                   help="drive strengths in units of u, comma-separated")
    p.add_argument("--delta-span", type=float, default=2.0,
                   help="detuning half-range in units of u")
    p.add_argument("--points", type=int, default=401)
    p.add_argument("--units", choices=("dimensionless", "mhz"), default="dimensionless")
    p.add_argument("--out-dir", default="fig2_out")
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("fig3", help="phase-diagram grid over (delta, v)")
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--rabi-frac", type=float, default=0.5,
                   help="drive strength in units of u")
    p.add_argument("--delta-span", type=float, default=3.0,
                   help="detuning half-range in units of u")
    p.add_argument("--v-min", type=float, default=-3.0, help="in units of u")
    p.add_argument("--v-max", type=float, default=1.0, help="in units of u")
    p.add_argument("--resolution", default="61x41", help="grid points, DxV")
    p.add_argument("--units", choices=("dimensionless", "mhz"), default="dimensionless")
    p.add_argument("--out-dir", default="fig3_out")
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("fig4", help="population curves across the first-order region")
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--v", type=float, default=-2.0, help="in units of u")
    p.add_argument("--rabi-fracs", default="0.25,0.5,0.75,1.0",
                   help="drive strengths in units of u, comma-separated")
    p.add_argument("--delta-span", type=float, default=1.0,
                   help="detuning half-range in units of u")
    p.add_argument("--points", type=int, default=401)
    p.add_argument("--units", choices=("dimensionless", "mhz"), default="dimensionless")
    p.add_argument("--out-dir", default="fig4_out")
    p.set_defaults(func=cmd_fig4)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
