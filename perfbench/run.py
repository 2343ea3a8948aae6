"""Benchmark of extdicke: four seeded closed-loop workloads, one client.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload finite_n --seed 1 --seconds 40 --trace 0

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs a
fixed op list untraced and traced and reports the per-layer metrics and the
tracer's overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  `--workload all`
runs every workload in turn and prints `<workload>/<metric>` for each;
`--smoke` runs a few ops of each workload, traced and untraced, with every
check on.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)
CLI_COMMANDS = ("solve", "boundaries", "exact-check", "scan", "fig2", "fig3", "fig4")
PER_LAYER = (  # name, unit
    ("cli.interp_s", "s"),
    ("cli.import_s", "s"),
    *((f"cli.main.{cmd}.self_s", "s") for cmd in CLI_COMMANDS),
    ("meanfield.ground_state.calls", "count"),
    ("meanfield.ground_state.us_per_call", "us"),
    ("meanfield.kernel.solve_point.us_per_call", "us"),
    ("model.replace.calls", "count"),
    ("model.replace.per_ground_state", "ratio"),
    ("model.validate.calls", "count"),
    ("model.validate.per_ground_state", "ratio"),
    ("phases.classify.calls", "count"),
    ("phases.classify.self_s", "s"),
    ("phases.detect_transitions.self_s", "s"),
    ("phases.detect_transitions.solves_per_call", "count"),
    ("phases.critical_overlays.self_s", "s"),
    ("sweep.run_sweep.self_s", "s"),
    ("sweep.run_sweep.nodes", "count"),
    ("sweep.serialize_csv.us_per_row", "us"),
    ("sweep.serialize_csv.bytes", "bytes"),
    ("sweep.parse_csv.us_per_row", "us"),
    ("sweep.serialize_json.us_per_row", "us"),
    ("exact.converge_cutoff.cutoffs_per_call", "count"),
    ("exact.solve_at_cutoff.self_s", "s"),
    ("exact.build_hamiltonian.self_s", "s"),
    ("exact.build_hamiltonian.max_dim", "count"),
    ("exact.build_hamiltonian.nnz", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_ops_per_s", "1/s"),
    ("trace.overhead_op_p50_s", "s"),
)
SETUP_SAMPLES = 11
# One client and no worker threads: BLAS threads would compete with the
# benchmark for the two cores and widen the spread of the exact workload.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_SAMPLES = 5
OVERRUN = 1.4  # stop mid-round once op time passes this multiple of the rounds' nominal time


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def fresh(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[:2]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return proc


def environment(load_1m: float) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    import extdicke

    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    backend = getattr(extdicke, "backend_name", None)
    return {
        "backend": backend() if callable(backend) else None,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "load_1m_at_start": load_1m,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREADS},
    }


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least ten samples beyond it:
    (value, percentile, samples)."""
    xs = sorted(latencies)
    n = len(xs)
    pct = max(0, math.floor(100.0 * (n - 10) / n)) if n > 10 else 100
    rank = max(1, math.ceil(pct * n / 100.0))
    return xs[rank - 1], pct, n


def run_op(wl, spec, ctx) -> tuple[float, object, str | None]:
    start = time.perf_counter()
    try:
        out, err = wl.run(spec, ctx), None
    except Exception as exc:  # a failed op still counts in the latencies
        out, err = None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, err


def check_op(wl, spec, out, err, ctx) -> str | None:
    if err is not None:
        return err
    try:
        return wl.check(spec, out, ctx)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def make_context(wl, seed: int, in_process: bool):
    ctx = workloads.Context(ROOT, OUT / f"tmp-{os.getpid()}", child_env(), in_process)
    return ctx, workloads.Inputs(wl, seed, ctx)


def warm_up(wl, seed: int, ctx) -> None:
    """One untimed op from its own seed, so lazy imports and first-call
    set-up in the package finish before timing."""
    import random

    spec = wl.make(wl.kinds[-1], random.Random(f"warm-up {seed}"), ctx)
    _, out, err = run_op(wl, spec, ctx)
    check_op(wl, spec, out, err, ctx)


def setup_sample(workload: str, seed: int) -> float:
    """Time from spawning a fresh interpreter until it has imported extdicke
    and built the workload's inputs."""
    start = time.monotonic()
    proc = fresh([str(HERE / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)])
    return float(proc.stdout.split()[-1]) - start


def planned_ops(wl, seconds: float) -> int:
    """Whole rounds sized to take about `seconds` at the workload's nominal
    speed; min_rounds keeps at least 30 ops, so the tail percentile has ten
    samples beyond it."""
    rounds = max(wl.min_rounds, round(seconds / wl.round_seconds))
    return rounds * len(wl.kinds)


def measure(wl, seed: int, seconds: float, n_ops: int | None = None,
            setup_samples: int = SETUP_SAMPLES) -> dict:
    """Untraced closed loop over a fixed number of ops.  The set-up samples
    are spread between ops so that they see the same machine as the ops."""
    ctx, inputs = make_context(wl, seed, in_process=wl.name != "cli_session")
    limit = math.inf
    if n_ops is None:
        n_ops = planned_ops(wl, seconds)
        limit = OVERRUN * wl.round_seconds * n_ops / len(wl.kinds)
    probes_after = [math.floor((k + 0.5) * n_ops / setup_samples) for k in range(setup_samples)]
    try:
        warm_up(wl, seed, ctx)
        latencies, failures, setup, completed = [], [], [], 0
        for i in range(n_ops):
            if sum(latencies) > limit:
                break
            kind, spec = inputs.get(i)
            dt, out, err = run_op(wl, spec, ctx)
            latencies.append(dt)
            completed += err is None
            reason = check_op(wl, spec, out, err, ctx)
            if reason is not None:
                failures.append({"op": i, "kind": kind, "check": reason})
            setup += [setup_sample(wl.name, seed) for k in probes_after if k == i]
        if wl.name == "cli_session":
            peak_kb = ctx.child_peak_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup += [setup_sample(wl.name, seed) for _ in range(setup_samples - len(setup))]
    finally:
        ctx.close()
    return {"latencies": latencies, "failures": failures, "completed": completed,
            "peak_rss_mb": peak_kb / 1024.0, "setup_samples": setup}


def end_to_end(run: dict) -> dict:
    lat = run["latencies"]
    value, pct, n = tail(lat)
    metrics = {
        "setup_s": statistics.median(run["setup_samples"]),
        "ops_per_s": run["completed"] / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": value,
        "ok_frac": (len(lat) - len(run["failures"])) / len(lat),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    run["tail"] = {"percentile": pct, "samples": n, "beyond": n - math.ceil(pct * n / 100.0)}
    return metrics


def traced(wl, seed: int, seconds: float, rounds: int | None = None) -> dict:
    """A fixed op list, each op run untraced and traced (alternating which
    goes first), so counts repeat exactly and overhead is paired."""
    from tracer import Instrumentation, Tracer

    ctx, inputs = make_context(wl, seed, in_process=True)
    tr = Tracer()
    inst = Instrumentation(tr)
    if rounds is None:
        rounds = max(1, round(seconds / (2.0 * wl.traced_round_seconds)))
    n_ops = rounds * len(wl.kinds)
    lat = {False: [], True: []}
    failures = []
    try:
        warm_up(wl, seed, ctx)
        for i in range(n_ops):
            kind, spec = inputs.get(i)
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                if on:
                    tr.op = i
                    ctx.span = tr.span
                    inst.install()
                try:
                    dt, out, err = run_op(wl, spec, ctx)
                finally:
                    inst.remove()
                    ctx.span = ctx.no_span
                lat[on].append(dt)
                reason = check_op(wl, spec, out, err, ctx)
                if reason is not None:
                    failures.append({"op": i, "kind": kind, "traced": on, "check": reason})
    finally:
        inst.remove()
        ctx.close()

    interp = []
    for _ in range(PROBE_SAMPLES):
        start = time.monotonic()
        fresh(["-c", "pass"])
        interp.append(time.monotonic() - start)
    imports = [float(fresh(["-c", "import time; t = time.perf_counter(); import extdicke; "
                                  "print(time.perf_counter() - t)"]).stdout)
               for _ in range(PROBE_SAMPLES)]

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{wl.name}-seed{seed}.csv"
    tr.write_spans(span_file)
    metrics = layer_metrics(tr, statistics.median(interp), statistics.median(imports))
    metrics["trace.overhead_ops_per_s"] = len(lat[True]) / sum(lat[True]) - len(lat[False]) / sum(lat[False])
    metrics["trace.overhead_op_p50_s"] = statistics.median(lat[True]) - statistics.median(lat[False])
    absent = [name for name, _ in PER_LAYER
              if any(name.startswith(a + ".") for a in inst.absent)]
    return {"metrics": metrics, "failures": failures, "attempted": 2 * n_ops,
            "absent": absent, "absent_targets": inst.absent, "span_file": str(span_file),
            "untraced_ops_per_s": len(lat[False]) / sum(lat[False]),
            "untraced_op_p50_s": statistics.median(lat[False])}


def layer_metrics(tr, interp_s: float, import_s: float) -> dict:
    def tot(name):
        return tr.totals.get(name, [0, 0.0, 0.0])

    def per(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    gs_calls, gs_time, _ = tot("meanfield.ground_state")
    m = {"cli.interp_s": interp_s, "cli.import_s": import_s}
    for cmd in CLI_COMMANDS:
        m[f"cli.main.{cmd}.self_s"] = tot(f"cli.main.{cmd}")[2]
    m["meanfield.ground_state.calls"] = gs_calls
    m["meanfield.ground_state.us_per_call"] = per(gs_time, gs_calls, 1e6)
    kern = tot("meanfield.kernel.solve_point")
    m["meanfield.kernel.solve_point.us_per_call"] = per(kern[1], kern[0], 1e6)
    for name in ("model.replace", "model.validate"):
        m[f"{name}.calls"] = tot(name)[0]
        m[f"{name}.per_ground_state"] = per(tot(name)[0], gs_calls)
    m["phases.classify.calls"] = tot("phases.classify")[0]
    m["phases.classify.self_s"] = tot("phases.classify")[2]
    m["phases.detect_transitions.self_s"] = tot("phases.detect_transitions")[2]
    m["phases.detect_transitions.solves_per_call"] = per(
        tr.nested_calls("phases.detect_transitions", "meanfield.ground_state"),
        tot("phases.detect_transitions")[0])
    m["phases.critical_overlays.self_s"] = tot("phases.critical_overlays")[2]
    m["sweep.run_sweep.self_s"] = tot("sweep.run_sweep")[2]
    m["sweep.run_sweep.nodes"] = tr.counts.get("sweep.run_sweep.nodes", 0)
    for name in ("serialize_csv", "parse_csv", "serialize_json"):
        m[f"sweep.{name}.us_per_row"] = per(tot(f"sweep.{name}")[1],
                                            tr.counts.get(f"sweep.{name}.rows", 0), 1e6)
    m["sweep.serialize_csv.bytes"] = tr.counts.get("sweep.serialize_csv.bytes", 0)
    m["exact.converge_cutoff.cutoffs_per_call"] = per(
        tr.nested_calls("exact.converge_cutoff", "exact.solve_at_cutoff"),
        tot("exact.converge_cutoff")[0])
    m["exact.solve_at_cutoff.self_s"] = tot("exact.solve_at_cutoff")[2]
    m["exact.build_hamiltonian.self_s"] = tot("exact.build_hamiltonian")[2]
    m["exact.build_hamiltonian.max_dim"] = tr.maxima.get("exact.build_hamiltonian.max_dim", 0)
    m["exact.build_hamiltonian.nnz"] = tr.counts.get("exact.build_hamiltonian.nnz", 0)
    m["trace.spans"] = len(tr.spans)
    return m


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}})


def print_failures(failures: list[dict]) -> None:
    for f in failures:
        print(f"FAILED op {f['op']} ({f['kind']}): {f['check']}")


def save(record: dict, name: str) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def run_one(workload: str, seed: int, seconds: int, trace: int, load_1m: float) -> int:
    wl = workloads.WORKLOADS[workload]
    env = environment(load_1m)
    print("env " + json.dumps(env, sort_keys=True))
    if trace:
        res = traced(wl, seed, seconds)
        units = dict(PER_LAYER)
        print_failures(res["failures"])
        for name in res["absent"]:
            print(f"absent {name}: its target is gone from extdicke")
        print(f"overhead: untraced {res['untraced_ops_per_s']:.4g} ops/s, "
              f"p50 {res['untraced_op_p50_s']:.4g} s; spans in {res['span_file']}")
        for name, unit in PER_LAYER:
            print(f"{workload}/{name} = {res['metrics'][name]:.6g} {unit}")
        attempted, failed, metrics = res["attempted"], len(res["failures"]), res["metrics"]
        extra = {k: res[k] for k in ("absent", "absent_targets", "span_file",
                                     "untraced_ops_per_s", "untraced_op_p50_s")}
    else:
        run = measure(wl, seed, seconds)
        samples = run["setup_samples"]
        metrics = end_to_end(run)
        units = dict(END_TO_END)
        print_failures(run["failures"])
        t = run["tail"]
        print(f"op_tail_s is p{t['percentile']} of {t['samples']} ops "
              f"({t['beyond']} beyond); setup samples {[round(x, 4) for x in samples]}")
        for name, unit in END_TO_END:
            print(f"{workload}/{name} = {metrics[name]:.6g} {unit}")
        attempted, failed = len(run["latencies"]), len(run["failures"])
        extra = {"tail": t, "setup_samples": samples, "latencies": run["latencies"]}
        res = run
    save({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
          "env": env, "metrics": metrics, "units": units, "failures": res["failures"],
          **extra}, f"result-{workload}-seed{seed}-trace{trace}.json")
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in turn, each in its own fresh process."""
    metrics, attempted, failed = {}, 0, 0
    lines = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr)
            return proc.returncode
        out = proc.stdout.splitlines()
        lines += [f"{name}: {line}" for line in out[:-1] if not line.startswith(f"{name}/")]
        res = json.loads(out[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        for key, val in res["metrics"].items():
            metrics[f"{name}/{key}"] = val
    print("\n".join(lines))
    for key, val in metrics.items():
        print(f"{key} = {val['value']:.6g} {val['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def smoke(names: list[str], seed: int) -> int:
    """A few ops of each workload, untraced and traced, every check on; also
    checks that the emitted metric names match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]})
    emitted = ({n for n, _ in END_TO_END}, {n for n, _ in PER_LAYER})
    problems = []
    if declared != emitted:
        problems.append(f"BENCHMARK.json metrics differ from the emitted ones: "
                        f"{declared[0] ^ emitted[0] | declared[1] ^ emitted[1]}")
    attempted = 0
    for name in names:
        wl = workloads.WORKLOADS[name]
        run = measure(wl, seed, 0, n_ops=max(3, len(wl.kinds)), setup_samples=1)
        res = traced(wl, seed, 0, rounds=1)
        attempted += len(run["latencies"]) + res["attempted"]
        for f in run["failures"] + res["failures"]:
            problems.append(f"{name} op {f['op']} ({f['kind']}): {f['check']}")
        print(f"smoke {name}: {len(run['latencies'])} ops untraced, {res['attempted']} "
              f"in the traced pass, absent {res['absent_targets']}")
    for p in problems:
        print("SMOKE FAILED " + p)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(problems), "metrics": {}}))
    return 1 if problems else 0


def probe(workload: str, seed: int) -> int:
    """Set-up sample: import the package, build the inputs, report the time."""
    wl = workloads.WORKLOADS[workload]
    _, inputs = make_context(wl, seed, in_process=True)
    ready = time.monotonic()
    inputs.ctx.close()
    print(f"{ready:.9f}")
    return 0


def main() -> int:
    load_1m = os.getloadavg()[0]
    for var in BLAS_THREADS:  # before numpy loads, here and in every child
        os.environ[var] = "1"
    names = tuple(workloads.WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*names, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="a few ops of each workload, every check on")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "extdicke" / "__init__.py").is_file():
        print(f"error: no extdicke sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    if args.probe:
        return probe(args.workload, args.seed)
    if args.smoke:
        return smoke(list(names) if args.workload == "all" else [args.workload], args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace, load_1m)


if __name__ == "__main__":
    sys.exit(main())
