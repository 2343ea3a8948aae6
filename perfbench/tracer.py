"""Span tracer that wraps the public names of each extdicke module.

Spans are recorded from the benchmark's own code: ``Instrumentation`` replaces
every binding of a traced function, in every loaded ``extdicke`` module,
with a wrapper that records one span per call.  A name that a module no
longer has is reported as absent instead of raising, so the benchmark keeps
running after refactors that delete internals.

Each span has a name, start, end, parent span and op id.  Spans stay in
memory until ``write_spans`` is called at the end of a run.  Self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

MODULES = ("model", "meanfield", "phases", "sweep", "exact", "cli")


def _rows_of_arg(args, kwargs, out):
    ds = args[0] if args else kwargs.get("dataset")
    return {"rows": len(ds.rows)}


def _csv_counts(args, kwargs, out):
    counts = _rows_of_arg(args, kwargs, out)
    counts["bytes"] = len(out.encode())
    return counts


def _hamiltonian_counts(args, kwargs, out):
    return {"nnz": int(out.nnz), "max_dim": int(out.shape[0])}


# (span name, home module, attribute path, counts taken from the call).
# A plain attribute is replaced wherever an extdicke module bound it; a
# dotted path (class method, kernel module) is replaced on its owner only.
TARGETS = (
    ("model.replace", "model", "ModelParams.replace", None),
    ("model.validate", "model", "validate", None),
    ("meanfield.ground_state", "meanfield", "ground_state", None),
    ("meanfield.kernel.solve_point", "meanfield", "kernels.solve_point", None),
    ("phases.classify", "phases", "classify", None),
    ("phases.detect_transitions", "phases", "detect_transitions", None),
    ("phases.critical_overlays", "phases", "critical_overlays", None),
    ("sweep.run_sweep", "sweep", "run_sweep",
     lambda a, k, out: {"nodes": len(out.rows)}),
    ("sweep.serialize_csv", "sweep", "serialize_csv", _csv_counts),
    ("sweep.serialize_json", "sweep", "serialize_json", _rows_of_arg),
    ("sweep.parse_csv", "sweep", "parse_csv",
     lambda a, k, out: {"rows": len(out.rows)}),
    ("exact.build_hamiltonian", "exact", "build_hamiltonian", _hamiltonian_counts),
    ("exact.solve_at_cutoff", "exact", "solve_at_cutoff", None),
    ("exact.converge_cutoff", "exact", "converge_cutoff", None),
    ("exact.product_state_energy", "exact", "product_state_energy", None),
)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.op = -1
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}  # "name.key" -> summed count
        self.maxima: dict[str, float] = {}  # "name.key" -> largest count
        self._stack: list[list] = []  # [span id, child seconds]
        self._next = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append((sid, name, start, end, parent, self.op))
            tot = self.totals.setdefault(name, [0, 0.0, 0.0])
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - frame[1]

    def add_counts(self, name: str, counts: dict) -> None:
        for key, val in counts.items():
            full = f"{name}.{key}"
            self.counts[full] = self.counts.get(full, 0) + val
            self.maxima[full] = max(self.maxima.get(full, 0), val)

    def wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                tracer.add_counts(name, counter(args, kwargs, out))
            return out

        return wrapper

    def nested_calls(self, ancestor: str, name: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        by_id = {s[0]: (s[1], s[4]) for s in self.spans}
        n = 0
        for sid, span_name, _, _, parent, _ in self.spans:
            if span_name != name:
                continue
            while parent >= 0:
                pname, parent = by_id[parent]
                if pname == ancestor:
                    n += 1
                    break
        return n

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,op\n")
            for sid, name, start, end, parent, op in sorted(self.spans):
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{op}\n")


def _extdicke_modules() -> list:
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "extdicke" or key.startswith("extdicke."))]


class Instrumentation:
    """Wrappers for every TARGETS entry; install() and remove() swap them in
    and out so untraced ops run the original functions."""

    def __init__(self, tracer: Tracer):
        self.absent: list[str] = []
        self._patches: list[tuple] = []  # (owner, attr, original, wrapper)
        homes = {}
        for mod_name in MODULES:
            try:
                homes[mod_name] = importlib.import_module(f"extdicke.{mod_name}")
            except ImportError:
                homes[mod_name] = None
        modules = _extdicke_modules()
        for name, home, path, counter in TARGETS:
            owner = homes[home]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = tracer.wrap(name, original, counter)
            owners = [owner] if parents else [
                mod for mod in modules if vars(mod).get(attr) is original]
            for own in owners:
                self._patches.append((own, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
