"""Seeded workloads of the extdicke benchmark.

A workload is a round of op kinds.  Each round holds every kind once, in an
order shuffled by the seed, and each op gets its own seeded parameters, so
every seed runs the same mix of work.  A workload builds an op's input
(``make``), runs it (``run``) and checks the output outside the timed region
(``check``, which returns a failure reason or None).

Ops call the package through module attributes (``mods.sweep.run_sweep``)
so that the tracer's wrappers, when installed, see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


class Mods:
    """The extdicke modules, imported once; attributes are read per call."""

    def __init__(self):
        for name in ("model", "meanfield", "phases", "sweep", "exact", "cli"):
            setattr(self, name, importlib.import_module(f"extdicke.{name}"))


class Context:
    """What ops share in one run: the modules, a scratch directory inside
    the checkout, the child environment and the span hook."""

    def __init__(self, root: Path, scratch: Path, env: dict, in_process: bool):
        self.root = root
        self.scratch = scratch
        self.env = env
        self.in_process = in_process
        self.mods = Mods()
        self.span = self.no_span
        self._dirs = 0
        self.child_peak_kb = 0  # largest ru_maxrss of a child op
        scratch.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def no_span(name: str):
        return contextlib.nullcontext()

    def new_dir(self, create: bool = True) -> Path:
        self._dirs += 1
        path = self.scratch / f"op{self._dirs}"
        if create:
            path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class Inputs:
    """Op inputs in seeded rounds: two are built up front (they count in
    set-up time), later ones when first used."""

    def __init__(self, workload, seed: int, ctx: Context):
        self.workload = workload
        self.ctx = ctx
        self.rng = random.Random(seed)
        self.ops: list[tuple[str, dict]] = []
        for _ in range(2):
            self._round()

    def _round(self) -> None:
        kinds = list(self.workload.kinds)
        self.rng.shuffle(kinds)
        for kind in kinds:
            self.ops.append((kind, self.workload.make(kind, self.rng, self.ctx)))

    def get(self, i: int) -> tuple[str, dict]:
        while i >= len(self.ops):
            self._round()
        return self.ops[i]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------- phase_map

class PhaseMap:
    """(delta, v) tiles: sweep, CSV write, parse, re-write, overlays.

    The seed draws u (log-uniform over 0.1-10), the drive fraction and the
    spans.  A round holds one tile per quarter of the drive-fraction range,
    and the spans stay in narrow bands, so tile costs have the same spread
    in every seed.
    """

    name = "phase_map"
    kinds = ("drive0", "drive1", "drive2", "drive3")
    round_seconds = traced_round_seconds = 0.8
    min_rounds = 8
    side = 24
    oracle_samples = 3

    def make(self, kind, rng, ctx):
        from extdicke.model import ModelParams
        from extdicke.sweep import AxisSpec, SweepConfig

        quarter = int(kind[-1])
        u = 10.0 ** rng.uniform(-1.0, 1.0)
        rabi = rng.uniform(0.25 * quarter, 0.25 * (quarter + 1)) * u
        d_span = rng.uniform(2.0, 2.5) * u
        v_range = (rng.uniform(-2.5, -2.0) * u, rng.uniform(0.8, 1.2) * u)
        cfg = SweepConfig(
            base=ModelParams(omega=1.0, lam=math.sqrt(u), omega_rabi=rabi),
            axes=(AxisSpec("delta", -d_span, d_span, self.side),
                  AxisSpec("v", v_range[0], v_range[1], self.side)),
        )
        return {"cfg": cfg, "u": u, "rabi": rabi, "d_range": (-d_span, d_span),
                "v_range": v_range,
                "sample": rng.sample(range(self.side * self.side), self.oracle_samples)}

    def run(self, s, ctx):
        sweep = ctx.mods.sweep
        dataset = sweep.run_sweep(s["cfg"])
        text = sweep.serialize_csv(dataset)
        back = sweep.parse_csv(text)
        again = sweep.serialize_csv(back)
        overlays = ctx.mods.phases.critical_overlays(
            s["u"], s["rabi"], s["d_range"], s["v_range"])
        return dataset, text, back, again, overlays

    def check(self, s, out, ctx):
        from extdicke.meanfield import oracle_grid_minimum

        dataset, text, back, again, _ = out
        n = self.side * self.side
        if len(dataset.rows) != n or len(back.rows) != n:
            return f"rows: {len(dataset.rows)} swept, {len(back.rows)} parsed, expected {n}"
        col = {c: i for i, c in enumerate(dataset.columns)}
        errors = [row[col["error"]] for row in dataset.rows if row[col["error"]]]
        if errors:
            return f"error cells: {len(errors)}, first {errors[0]!r}"
        if again != text:
            return "csv round trip: re-serialised bytes differ"
        for k in s["sample"]:
            row = dataset.rows[k]
            p = s["cfg"].base.replace(delta=row[col["delta"]], v=row[col["v"]])
            oracle = oracle_grid_minimum(p, n_points=4096).energy_per_atom
            scale = max(1.0, p.u + abs(p.v) + p.omega_rabi + abs(p.delta))
            if not _close(row[col["energy_per_atom"]], oracle, 1e-8 * scale):
                return (f"oracle: node {k} energy {row[col['energy_per_atom']]!r} "
                        f"vs grid {oracle!r}")
        return None


# -------------------------------------------------------------- transitions

class Transitions:
    """detect_transitions scans with closed-form answers.

    lobe:  second-order lobe edges at delta = +-(u+v), v = 0.2u, with a
           drive of 1e-12*u (m_over_n needs one to pick a sign) or none.
    first: first-order jump at delta = 0 for rabi < |u+v|, v < -u, with the
           jump 2*sqrt(1 - rabi**2/(u+v)**2) in m/N (half that in the slope).
    onset: superfluid onset v_c = -u - rabi on the v axis at delta = 0.
    rabi:  the same onset on the omega_rabi axis, at rabi = |u+v|.

    Each kind has a fixed shape (couplings and window in units of u) and
    the seed draws the scale u.  The problem is homogeneous in the
    couplings, so every seed does the same refinement work; shape jitter of
    a few percent was measured to switch a scan between ~500 and ~4000
    ground_state calls, which made the run-to-run spread too wide.

    detect_transitions fails some of these ops (see README.md): it misses
    one lobe edge at a few percent of scales, and it sometimes calls the
    m_over_n root-law onsets first order.  Those ops count against ok_frac
    and are listed with their check.
    """

    name = "transitions"
    kinds = ("lobe/m_over_n", "lobe/photon_density", "lobe/energy_slope",
             "first/m_over_n", "first/energy_slope",
             "onset/m_over_n", "onset/photon_density", "onset/energy_slope",
             "rabi/m_over_n", "rabi/photon_density", "rabi/energy_slope")
    round_seconds = traced_round_seconds = 1.5
    min_rounds = 5  # at least 30 ops, so op_tail_s has ten beyond it

    def make(self, kind, rng, ctx):
        from extdicke.model import ModelParams

        family, observable = kind.split("/")
        u = 10.0 ** rng.uniform(-0.5, 0.5)
        lam = math.sqrt(u)
        jump = None
        if family == "lobe":
            v = 0.2 * u
            w = u + v
            rabi = 1e-12 * u if observable == "m_over_n" else 0.0
            params = ModelParams(omega=1.0, lam=lam, v=v, omega_rabi=rabi)
            axis, lo, hi = "delta", -2.0 * w, 2.0 * w
            expected = [("second", -w), ("second", w)]
        elif family == "first":
            w = -u
            v = w - u
            rabi = 0.4 * u
            params = ModelParams(omega=1.0, lam=lam, v=v, omega_rabi=rabi)
            axis, lo, hi = "delta", -1.0 * u, 1.1 * u
            expected = [("first", 0.0)]
            jump = 2.0 * math.sqrt(1.0 - rabi**2 / w**2)
            if observable == "energy_slope":
                jump *= 0.5
        elif family == "onset":
            rabi = 0.5 * u
            v = -u - rabi
            params = ModelParams(omega=1.0, lam=lam, omega_rabi=rabi)
            axis, lo, hi = "v", v - 0.8 * u, v + 0.6 * u
            expected = [("second", v)]
        else:  # rabi axis
            w = u
            v = -u - w
            rabi = w
            params = ModelParams(omega=1.0, lam=lam, v=v)
            axis, lo, hi = "omega_rabi", 0.45 * w, 1.5 * w
            expected = [("second", w)]
        return {"params": params, "axis": axis, "lo": lo, "hi": hi,
                "observable": observable, "expected": expected, "jump": jump,
                "scale": max(1.0, u + abs(v) + rabi)}

    def run(self, s, ctx):
        return ctx.mods.phases.detect_transitions(
            s["params"], s["axis"], s["lo"], s["hi"], observable=s["observable"])

    def check(self, s, records, ctx):
        got = [(r.order, r.location) for r in records]
        want = s["expected"]
        tol = 1e-6 * s["scale"]
        if len(got) != len(want) or any(
                g[0] != w[0] or not _close(g[1], w[1], tol) for g, w in zip(got, want)):
            return f"transitions: got {got}, closed form {want}"
        if s["jump"] is not None and not _close(records[0].jump, s["jump"], tol):
            return f"jump: got {records[0].jump!r}, closed form {s['jump']!r}"
        return None


# ----------------------------------------------------------------- finite_n

class FiniteN:
    """converge_cutoff ladders over N and three coupling regimes."""

    name = "finite_n"
    kinds = tuple(f"{regime}/{n}" for regime in ("normal", "superradiant", "driven")
                  for n in (32, 64, 128, 256))
    round_seconds = traced_round_seconds = 4.9
    min_rounds = 4  # at least 30 ops, so op_tail_s has ten beyond it

    def make(self, kind, rng, ctx):
        from extdicke.model import ModelParams

        regime, n = kind.split("/")
        if regime == "normal":  # gapped: u + v well below |delta|
            delta = rng.uniform(0.6, 0.9)
            params = ModelParams(omega=10.0, lam=0.5 * math.sqrt(10.0 * delta),
                                 delta=delta, n_atoms=int(n))
        elif regime == "superradiant":  # quasi-degenerate parity doublet
            params = ModelParams(omega=10.0, lam=1.5 * math.sqrt(10.0),
                                 delta=rng.uniform(0.45, 0.55), n_atoms=int(n))
        else:
            # lam below ~sqrt(10) switches the N=128 ladder between 32 and 64 photons
            params = ModelParams(omega=10.0, lam=math.sqrt(10.0) * rng.uniform(1.0, 1.05),
                                 delta=rng.uniform(0.45, 0.55),
                                 omega_rabi=rng.uniform(0.25, 0.35), n_atoms=int(n))
        return {"params": params}

    def run(self, s, ctx):
        return ctx.mods.exact.converge_cutoff(s["params"])

    def check(self, s, res, ctx):
        from extdicke.exact import product_state_energy
        from extdicke.meanfield import ground_state

        p = s["params"]
        if not res.converged:
            return f"ladder not converged at n_max={res.n_max_used}"
        bound = product_state_energy(p, ground_state(p))
        scale = max(1.0, p.u + abs(p.v) + p.omega_rabi + abs(p.delta))
        if res.energy_per_atom > bound + 1e-9 * scale:
            return f"variational bound: E/N {res.energy_per_atom!r} above {bound!r}"
        return None


# -------------------------------------------------------------- cli_session

_FIG_FILES = {
    "fig2": ([f"fig2_curve{i}.csv" for i in range(3)], 401, ["fig2.gp"]),
    "fig3": (["fig3_grid.csv"], 61 * 41, ["fig3_overlays.csv", "fig3.gp"]),
    "fig4": ([f"fig4_curve{i}.csv" for i in range(4)], 401, ["fig4.gp"]),
}


def _text_fields(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            fields[parts[0]] = parts[1]
    return fields


class CliSession:
    """Fresh `python -m extdicke.cli` processes over the documented commands.

    In a traced run the same commands go through cli.main in-process.
    """

    name = "cli_session"
    kinds = ("solve", "solve-json", "boundaries", "exact-check", "scan",
             "scan-json", "fig2", "fig3", "fig4")
    round_seconds = 7.0
    min_rounds = 5  # at least 30 ops, so op_tail_s has ten beyond it
    traced_round_seconds = 2.0  # cli.main in-process
    scan_shape = (12, 10)

    def make(self, kind, rng, ctx):
        def opts(values: dict) -> list[str]:
            # `--v=-5e-05`, not `--v -5e-05`: argparse takes a negative
            # number in exponent form for an option, not a value.
            return [f"--{key}={float(val)!r}" for key, val in values.items()]

        if kind.startswith("solve"):
            point = {"omega": 10.0 ** rng.uniform(-0.5, 0.5), "lambda": rng.uniform(0.2, 2.0),
                     "delta": rng.uniform(-2.0, 2.0), "omega_rabi": rng.uniform(0.0, 1.0),
                     "v": rng.uniform(-2.0, 1.0)}
            argv = ["solve", *opts({"omega": point["omega"], "lambda": point["lambda"],
                                    "delta": point["delta"], "rabi": point["omega_rabi"],
                                    "v": point["v"]})]
            if kind == "solve-json":
                argv += ["--format", "json"]
            return {"argv": argv, "point": point}
        if kind == "boundaries":
            omega, lam, v = 10.0 ** rng.uniform(-0.5, 0.5), rng.uniform(0.2, 2.0), rng.uniform(-2.0, 1.0)
            argv = ["boundaries", *opts({"omega": omega, "lambda": lam, "v": v,
                                         "rabi": rng.uniform(0.0, 1.0)})]
            return {"argv": argv, "w": lam * lam / omega + v}
        if kind == "exact-check":  # the README example; its cutoffs set peak memory
            return {"argv": ["exact-check", "--omega", "10", "--lambda", "3.1622776601683795",
                             "--delta", "0.5", "--n-list", "8,16,32"]}
        if kind.startswith("scan"):
            out_dir = ctx.new_dir()
            nd, nv = self.scan_shape
            config = {
                "base": {"omega": 1.0, "lambda": rng.uniform(0.5, 1.5),
                         "delta": rng.uniform(-1.0, 1.0), "omega_rabi": rng.uniform(0.0, 0.5),
                         "v": rng.uniform(-1.0, 0.5), "n_atoms": 1},
                "axes": [{"name": "delta", "min": -rng.uniform(1.0, 2.0),
                          "max": rng.uniform(1.0, 2.0), "count": nd},
                         {"name": "v", "min": -rng.uniform(1.5, 2.5),
                          "max": rng.uniform(0.5, 1.0), "count": nv}],
            }
            (out_dir / "sweep.json").write_text(json.dumps(config))
            fmt = "json" if kind == "scan-json" else "csv"
            out = out_dir / f"data.{fmt}"
            argv = ["scan", "--config", str(out_dir / "sweep.json"), "--out", str(out),
                    "--format", fmt]
            return {"argv": argv, "out": out, "dir": out_dir, "nodes": nd * nv}
        out_dir = ctx.new_dir(create=False)
        return {"argv": [kind, "--out-dir", str(out_dir)], "dir": out_dir}

    def run(self, s, ctx):
        argv = s["argv"]
        if ctx.in_process:
            out, err = io.StringIO(), io.StringIO()
            with ctx.span(f"cli.main.{argv[0]}"), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = ctx.mods.cli.main(list(argv))
            return rc, out.getvalue(), err.getvalue()
        with tempfile.TemporaryFile(dir=ctx.scratch) as out, \
                tempfile.TemporaryFile(dir=ctx.scratch) as err:
            proc = subprocess.Popen([sys.executable, "-m", "extdicke.cli", *argv],
                                    cwd=ctx.root, env=ctx.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)  # wait4 gives this child's peak RSS
            proc.returncode = os.waitstatus_to_exitcode(status)
            ctx.child_peak_kb = max(ctx.child_peak_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read().decode(), err.read().decode()

    def check(self, s, out, ctx):
        try:
            return self._check(s, out, ctx)
        finally:  # outputs go; a scan keeps its config for a second run
            if s["argv"][0] == "scan":
                Path(s["out"]).unlink(missing_ok=True)
            elif "dir" in s:
                shutil.rmtree(s["dir"], ignore_errors=True)

    def _check(self, s, out, ctx):
        from extdicke.meanfield import ground_state
        from extdicke.model import ModelParams
        from extdicke.phases import classify
        from extdicke.sweep import parse_csv

        rc, stdout, stderr = out
        cmd = s["argv"][0]
        if rc != 0:
            return f"{cmd}: exit code {rc}: {stderr.strip()[-200:]}"
        if cmd == "solve":
            p = ModelParams.from_dict(s["point"])
            sol = ground_state(p)
            want = {"energy_per_atom": sol.energy_per_atom, "m_over_n": sol.m_over_n,
                    "photon_density": sol.photon_density, "s_x": sol.point.s_x,
                    "s_z": sol.point.s_z}
            if "--format" in s["argv"]:
                got = json.loads(stdout)
                tol = 1e-12
            else:
                got = _text_fields(stdout)
                tol = 1e-11  # text prints 12 significant digits
            for key, val in want.items():
                if not _close(float(got[key]), val, tol * max(1.0, abs(val))):
                    return f"solve: {key} {got[key]!r} vs in-process {val!r}"
            if got["phase"] != classify(p, sol).value:
                return f"solve: phase {got['phase']!r} vs in-process"
            return None
        if cmd == "boundaries":
            got = _text_fields(stdout)
            w = s["w"]
            if not (_close(float(got["w"]), w, 1e-11 * max(1.0, abs(w)))
                    and _close(float(got["omega_critical"]), abs(w), 1e-11 * max(1.0, abs(w)))):
                return f"boundaries: w {got.get('w')!r}, omega_critical {got.get('omega_critical')!r} vs {w!r}"
            return None
        if cmd == "exact-check":
            rows = [line.split() for line in stdout.splitlines()[2:] if line.strip()]
            if len(rows) != 3 or any(r[2] != "True" for r in rows):
                return f"exact-check: rows {rows}"
            if "BOUND VIOLATED" in stdout:
                return "exact-check: bound violated"
            return None
        if cmd == "scan":
            text = Path(s["out"]).read_text()
            if s["argv"][-1] == "json":
                doc = json.loads(text)
                rows, columns = doc["rows"], doc["columns"]
            else:
                dataset = parse_csv(text)
                rows, columns = dataset.rows, dataset.columns
            err = columns.index("error")
            if len(rows) != s["nodes"] or any(r[err] for r in rows):
                return f"scan: {len(rows)} rows (expected {s['nodes']}) or error cells"
            return None
        csvs, n_rows, others = _FIG_FILES[cmd]
        for name in csvs:
            got = len(parse_csv((s["dir"] / name).read_text()).rows)
            if got != n_rows:
                return f"{cmd}: {name} has {got} rows, expected {n_rows}"
        missing = [name for name in others if not (s["dir"] / name).is_file()]
        return f"{cmd}: missing {missing}" if missing else None


WORKLOADS = {wl.name: wl for wl in (CliSession(), PhaseMap(), Transitions(), FiniteN())}
