"""The benchmark's workloads: the commands of one pass and the checks of each.

A pass is a fixed list of ``invinsert`` command lines.  The seed only picks
the answers j that the greedy check replays; the commands, and so the work
the program does, are the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

INPUTS = Path(__file__).resolve().parent / "inputs"

GREEDY_SIZES = (64, 256, 1024, 2048, 4096)  # the paper's table
GREEDY_K = 6
REPLAYED_ANSWERS = 8

SEARCHES = ((3, 52), (3, 56), (3, 57), (4, 100))  # (k, N): 52, 56 found; 57 not
K2_SWEEPS = ("2..10", "1024..1024")

# (N, k, fixed free-series input or None) and (M, k, h) for compose --all
SYNTHESES = ((6, 2, None), (52, 3, "free-52-3.json"), (150, 4, "free-150-4.json"))
COMPOSITIONS = ((6, 2, 4), (52, 3, 2))

Check = Callable[[int, dict, str], None]  # (exit code, results, artifact text)


@dataclass(frozen=True)
class Step:
    """One command line, the exit codes it may end with, and its checks."""

    argv: list
    checks: list  # of (name, Check)
    artifact: str | None = None  # a file the checks read after the command ran
    codes: tuple = (0,)


def greedy_table(out: Path, rng: np.random.Generator) -> list[Step]:
    steps = []
    for n in GREEDY_SIZES:
        path = str(out / f"greedy-{n}.json")
        js = tuple(int(j) for j in np.sort(rng.choice(n, REPLAYED_ANSWERS, replace=False)))
        steps.append(Step(
            ["greedy", "--n", str(n), "--k", str(GREEDY_K), "--format", "json", "--emit-schedule", path],
            [
                (f"greedy {n} published table", lambda rc, r, w, n=n: checks.greedy_table(r, n)),
                (f"greedy {n} one-query closed form", lambda rc, r, w, n=n: checks.greedy_one_query(r, n)),
                (f"greedy {n} under overlap bound", lambda rc, r, w, n=n: checks.greedy_under_bound(r, n)),
                (f"greedy {n} schedule replay", lambda rc, r, w, n=n, js=js: checks.greedy_replay(r, w, n, GREEDY_K, js)),
            ],
            artifact=path,
        ))
    for n in GREEDY_SIZES:
        steps.append(Step(
            ["bound", "--n", str(n), "--format", "json"],
            [(f"bound {n}", lambda rc, r, w, n=n: checks.bound_report(r, n))],
        ))
    return steps


def exact_search(out: Path, rng: np.random.Generator) -> list[Step]:
    steps = [
        Step(
            ["exact", "search", "--k", str(k), "--n", str(n)],
            [
                (f"search ({n},{k}) classes", lambda rc, r, w, n=n, k=k: checks.search_classes(r, n, k)),
                (f"search ({n},{k}) verdict", lambda rc, r, w, n=n, k=k: checks.search_verdict(rc, r, n, k)),
            ],
            codes=(0, 2),
        )
        for k, n in SEARCHES
    ]
    steps += [
        Step(
            ["exact", "feasible", "--k", "2", "--n-range", span, "--format", "json"],
            [
                (f"k=2 {span} verdicts", lambda rc, r, w: checks.k2_verdicts(rc, r)),
                (f"k=2 {span} paper boundary", lambda rc, r, w: checks.k2_paper_boundary(r)),
            ],
            codes=(0, 2),
        )
        for span in K2_SWEEPS
    ]
    return steps


def synth_compose(out: Path, rng: np.random.Generator) -> list[Step]:
    steps = []
    schedules = {}
    for n, k, series in SYNTHESES:
        path = schedules[n, k] = str(out / f"schedule-{n}-{k}.json")
        argv = ["exact", "synth", "--n", str(n), "--k", str(k), "--out", path]
        if series:
            argv += ["--series", str(INPUTS / series)]
        steps.append(Step(
            argv,
            [
                (f"synth ({n},{k}) report", lambda rc, r, w: checks.synth_report(rc, r, w)),
                (f"synth ({n},{k}) dense simulation", lambda rc, r, w, n=n, k=k: checks.schedule_exact(w, n, k)),
            ],
            artifact=path,
        ))
    for (n, k), path in schedules.items():
        steps.append(Step(
            ["verify", "--schedule", path, "--format", "json"],
            [(f"verify ({n},{k})", lambda rc, r, w: checks.verify_agrees(r, w))],
            artifact=path,
        ))
    for m, k, h in COMPOSITIONS:
        steps.append(Step(
            ["compose", "--m", str(m), "--k", str(k), "--h", str(h), "--all", "--schedule", schedules[m, k]],
            [(f"compose ({m},{k},{h})", lambda rc, r, w, m=m, k=k, h=h: checks.compose_runs(rc, r, m, k, h))],
        ))
    return steps


def load_inputs() -> None:
    """Check every fixed free-series input the way a found series is checked."""
    for n, k, series in SYNTHESES:
        if series:
            try:
                checks.free_series_file((INPUTS / series).read_text(), n, k)
            except (checks.CheckError, OSError, KeyError, ValueError) as exc:
                raise SystemExit(f"perfbench: fixed input {series} is unusable: {exc}") from exc


WORKLOADS = {
    "greedy-table": greedy_table,
    "exact-search": exact_search,
    "synth-compose": synth_compose,
}


def build(name: str, seed: int, out: Path) -> list[Step]:
    """The steps of one pass of workload ``name``; inputs are checked first."""
    if name == "synth-compose":
        load_inputs()
    out.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](out, np.random.default_rng(seed))
