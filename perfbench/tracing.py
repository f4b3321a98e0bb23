"""Spans around the program's layers, and the per-layer metrics built from them.

The layers are the modules of ``invinsert``.  ``Tracer.install`` replaces
every public function bound in each module with a wrapper that records a
span: name, parent, start, end, and the ``getrusage`` deltas of system time
and minor page faults.  A function is wrapped in every module that binds it
(``synth`` binds ``certify_nonneg`` from ``exact``, ``exact`` binds scipy's
``linprog``), so calls are seen whichever module makes them.  Spans stay in
one flat array in memory and are written out when the run ends.

Run as a script, this traces every workload and writes one JSON file::

    python3 perfbench/tracing.py [--seconds S] [--seed N] [--out FILE]

It runs each workload twice in a fresh process, untraced and traced, prints
the per-layer table and the tracing overhead (traced minus untraced wall_s),
and writes the spans and counters of every workload to FILE (default
``perfbench/out/trace.json``).
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import workloads

PACKAGE = "invinsert"
LAYERS = ("cli", "greedy", "bounds", "exact", "synth", "hilbert", "compose")
# a span's row: parent is the row offset of the enclosing span, or -1; while
# the span is open, sys_s and minflt hold the readings at its start
FIELDS = ("name", "parent", "end", "sys_s", "minflt", "extra", "start")

# numbers a span keeps from its call, beyond its times
EXTRA = {
    "exact.linprog": lambda args, kwargs, result: kwargs["A_ub"].shape[0],
    "exact.certify_nonneg": lambda args, kwargs, result: result.grid_points,
    "compose.compose_solve": lambda args, kwargs, result: result.queries_used,
}

PER_LAYER = {  # name -> unit; every one is better lower
    "cli.self_s": "s",
    "greedy.run_s": "s",
    "greedy.sys_s": "s",
    "greedy.minflt": "count",
    "greedy.runs": "count",
    "bounds.s": "s",
    "exact.search_s": "s",
    "exact.searches": "count",
    "exact.lp_solve_s": "s",
    "exact.lp_solves": "count",
    "exact.lp_rows": "count",
    "exact.certify_s": "s",
    "exact.grid_points": "count",
    "exact.minflt": "count",
    "synth.synthesize_s": "s",
    "synth.factor_s": "s",
    "synth.factor_calls": "count",
    "synth.phases_s": "s",
    "synth.self_s": "s",
    "hilbert.run_schedule_s": "s",
    "hilbert.run_schedule_calls": "count",
    "hilbert.transform_calls": "count",
    "hilbert.phase_stage_s": "s",
    "compose.solve_s": "s",
    "compose.self_s": "s",
    "compose.solves": "count",
    "compose.queries": "count",
}


class Tracer:
    """Records a span for every call of a wrapped function while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.clear()

    def clear(self) -> None:
        # one flat row of FIELDS per span
        self.rows = array("d")

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                origin = value.__module__ or ""
                if origin.startswith(PACKAGE + "."):
                    name = f"{origin.rsplit('.', 1)[-1]}.{value.__name__}"
                else:  # a function of another package, such as scipy's linprog
                    name = f"{layer}.{attr}"
                if name not in wrappers:
                    wrappers[name] = self._wrap(name, value)
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[name])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        sid = len(self.names)
        self.names.append(name)
        extra = EXTRA.get(name)
        tracer, stack = self, self._stack
        getrusage, now = resource.getrusage, time.perf_counter

        def traced(*args, **kwargs):
            usage = getrusage(resource.RUSAGE_SELF)
            i = len(tracer.rows)
            tracer.rows.extend((sid, stack[-1] if stack else -1, 0.0, usage.ru_stime, usage.ru_minflt, 0.0, now()))
            stack.append(i)
            value = 0
            try:
                result = fn(*args, **kwargs)
                if extra is not None:
                    value = extra(args, kwargs, result)
                return result
            finally:
                row = tracer.rows
                row[i + 2] = now()
                usage = getrusage(resource.RUSAGE_SELF)
                row[i + 3] = usage.ru_stime - row[i + 3]
                row[i + 4] = usage.ru_minflt - row[i + 4]
                row[i + 5] = value
                stack.pop()

        return traced

    def table(self) -> np.ndarray:
        """The spans recorded since ``clear``, one row of FIELDS each."""
        return np.frombuffer(self.rows).reshape(-1, len(FIELDS))

    def spans(self) -> list:
        """[name, parent row, start, end, sys_s, minflt, extra] per span."""
        return [
            [self.names[int(s)], int(p) // len(FIELDS), t0, t1, sys_s, int(f), int(e)]
            for s, p, t1, sys_s, f, e, t0 in self.table().tolist()
        ]

    def metrics(self) -> dict:
        """The per-layer metrics of the spans recorded since ``clear``."""
        sid, parent, end, sys_s, minflt, extra, start = self.table().T
        sid = sid.astype(np.int64)
        parent = np.where(parent >= 0, parent // len(FIELDS), -1).astype(np.int64)
        dur = end - start
        span_name = np.asarray(self.names, dtype=str)[sid]
        layer = np.asarray([LAYERS.index(n.split(".", 1)[0]) for n in self.names], dtype=np.int64)[sid]
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=sid.size)
        self_time = dur - children
        top = ~nested | (layer[np.maximum(parent, 0)] != layer)  # outermost span of its layer

        def of(name):
            return span_name == name

        def in_layer(name):
            return layer == LAYERS.index(name)

        def total(values, mask):
            return float(values[mask].sum())

        return {
            "cli.self_s": total(self_time, in_layer("cli")),
            "greedy.run_s": total(dur, of("greedy.greedy_run")),
            "greedy.sys_s": total(sys_s, of("greedy.greedy_run")),
            "greedy.minflt": int(minflt[of("greedy.greedy_run")].sum()),
            "greedy.runs": int(of("greedy.greedy_run").sum()),
            "bounds.s": total(dur, in_layer("bounds") & top),
            "exact.search_s": total(dur, of("exact.search_free_series")),
            "exact.searches": int(of("exact.search_free_series").sum()),
            "exact.lp_solve_s": total(dur, of("exact.linprog")),
            "exact.lp_solves": int(of("exact.linprog").sum()),
            "exact.lp_rows": int(extra[of("exact.linprog")].sum()),
            "exact.certify_s": total(dur, of("exact.certify_nonneg")),
            "exact.grid_points": int(extra[of("exact.certify_nonneg")].sum()),
            "exact.minflt": int(minflt[in_layer("exact") & top].sum()),
            "synth.synthesize_s": total(dur, of("synth.synthesize_exact")),
            "synth.factor_s": total(dur, of("synth.spectral_factor")),
            "synth.factor_calls": int(of("synth.spectral_factor").sum()),
            "synth.phases_s": total(dur, of("synth.phases_from_states")),
            "synth.self_s": total(self_time, in_layer("synth")),
            "hilbert.run_schedule_s": total(dur, of("hilbert.run_schedule")),
            "hilbert.run_schedule_calls": int(of("hilbert.run_schedule").sum()),
            "hilbert.transform_calls": int((of("hilbert.to_momentum") | of("hilbert.to_position")).sum()),
            "hilbert.phase_stage_s": total(dur, of("hilbert.apply_momentum_phases")),
            "compose.solve_s": total(dur, of("compose.compose_solve")),
            "compose.self_s": total(self_time, in_layer("compose")),
            "compose.solves": int(of("compose.compose_solve").sum()),
            "compose.queries": int(extra[of("compose.compose_solve")].sum()),
        }


def _run(here, workload: str, args, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(here / "run.py"), "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(trace)],
        cwd=here.parent, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description="Trace every workload into one JSON file.")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=str(here / "out" / "trace.json"))
    args = parser.parse_args(argv)

    doc = {"seconds": args.seconds, "seed": args.seed, "workloads": {}}
    for workload in workloads.WORKLOADS:
        plain = _run(here, workload, args, 0)
        traced = _run(here, workload, args, 1)
        detail = json.loads((here / "out" / f"trace-{workload}.json").read_text())
        traced_wall = statistics.median(p["wall_s"] for p in detail["passes"])
        doc["workloads"][workload] = {
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "traced_wall_s": traced_wall,
            "overhead_s": traced_wall - plain["metrics"]["wall_s"]["value"],
            "passes": detail["passes"],
            "last_pass_spans": detail["last_pass_spans"],
        }
    Path(args.out).write_text(json.dumps(doc))

    names = list(doc["workloads"])
    rows = [("wall_s untraced", [w["end_to_end"]["wall_s"]["value"] for w in doc["workloads"].values()]),
            ("wall_s traced", [w["traced_wall_s"] for w in doc["workloads"].values()]),
            ("tracing overhead_s", [w["overhead_s"] for w in doc["workloads"].values()])]
    rows += [(m, [w["per_layer"][m]["value"] for w in doc["workloads"].values()]) for m in PER_LAYER]
    print(f"{'metric':28s}" + "".join(f"{n:>16s}" for n in names))
    for label, values in rows:
        print(f"{label:28s}" + "".join(f"{v:16.6g}" for v in values))
    print(f"spans and counters written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
