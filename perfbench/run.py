"""Benchmark of the invinsert command line, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports the program from its ``src/``.
One pass calls ``invinsert.cli.main(argv)`` in this process for each command
of the workload, with stdout captured.  The first pass warms up and is not
timed; timed passes then repeat until they have taken S seconds.  Every
output of every pass is checked against the benchmark's own references
between passes, outside the timed interval.  The last line of stdout is
the result as one JSON object.  See README.md in this directory.
"""

import os

# One BLAS and OpenMP thread, set before numpy is imported: a second
# OpenBLAS thread spins on small products and makes CPU time and wall time
# move with the host's load (README.md, "Thread pinning").
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7

_libc = ctypes.CDLL(ctypes.util.find_library("c"))


def import_program():
    """The checkout's own ``invinsert.cli``, never an installed copy."""
    if not (SRC / "invinsert" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    from invinsert import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported invinsert from {cli.__file__}, not {SRC}")
    return cli


def setup(workload: str, seed: int):
    """Import the program and load and check the workload's fixed inputs."""
    cli = import_program()
    return cli, workloads.build(workload, seed, OUT / workload)


def measure_setup(workload: str) -> float:
    """Seconds from starting a fresh interpreter to the end of ``setup``."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - t0


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def release_heap() -> None:
    """Hand freed heap back to the system between commands.

    A user runs each command in a fresh process.  Without this, what one
    command freed but the allocator kept would add to the next command's
    resident peak, by a different amount in every process.
    """
    gc.collect()
    _libc.malloc_trim(0)


def run_command(cli, step):
    """Run one command; return (exit code or None, stdout, artifact, wall, cpu)."""
    release_heap()
    buf = io.StringIO()
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(step.argv))
    except Exception:  # a crash fails this command; the run goes on
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    artifact = None
    if rc in step.codes and step.artifact:
        artifact = Path(step.artifact).read_text()
    return rc, buf.getvalue(), artifact, wall, cpu


class Tally:
    """Commands and checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_checks = 0

    def record(self, ok: bool, what: str, detail: str, check: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_checks += check
            print(f"perfbench: FAILED {what}: {detail}", file=sys.stderr)


def check_outputs(tally: Tally, steps, outputs) -> None:
    for step, (rc, stdout, artifact) in zip(steps, outputs):
        tally.record(rc in step.codes, " ".join(step.argv), f"exit code {rc}", check=False)
        for name, check in step.checks:
            try:
                check(rc, json.loads(stdout)["results"], artifact)
                ok, detail = True, ""
            except (checks.CheckError, LookupError, TypeError, ValueError) as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            tally.record(ok, name, detail, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli, steps = setup(args.workload, args.seed)
    if args.setup_only:
        print(time.monotonic())
        return 0
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    tally = Tally()

    def run_pass():
        """Run every step once; return wall and CPU seconds, layers, outputs."""
        if tracer:
            tracer.clear()
        wall = cpu = 0.0
        outputs = []  # (exit code, stdout, artifact) per step
        for step in steps:
            rc, stdout, artifact, w, c = run_command(cli, step)
            outputs.append((rc, stdout, artifact))
            wall += w
            cpu += c
        return wall, cpu, tracer.metrics() if tracer else None, outputs

    check_outputs(tally, steps, run_pass()[3])  # warm-up, not timed
    # Passes repeat until they have taken --seconds.  Set-up samples and
    # checks run between passes and are not counted in that time; one
    # set-up sample before each pass meets the same host load as the pass.
    passes, setup_samples, measured = [], [], 0.0
    while not passes or measured < args.seconds:
        if not tracer and len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(measure_setup(args.workload))
        t0 = time.monotonic()
        wall, cpu, layers, outputs = run_pass()
        measured += time.monotonic() - t0
        passes.append((wall, cpu, layers))
        check_outputs(tally, steps, outputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    while not tracer and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(measure_setup(args.workload))

    if tracer:
        metrics = {}
        for name, unit in tracing.PER_LAYER.items():
            middle = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = {"value": middle(p[2][name] for p in passes), "unit": unit}
        trace_file = OUT / f"trace-{args.workload}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "passes": [{"wall_s": w, "cpu_s": c, "layers": m} for w, c, m in passes],
            "last_pass_spans": tracer.spans(),
        }))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p[0] for p in passes), "unit": "s"},
            "cpu_s": {"value": statistics.median(p[1] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }
    print(json.dumps({
        "correct": tally.failed_checks == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
