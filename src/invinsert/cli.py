"""Command-line front end: simulation, bounds, feasibility, synthesis, composition.

Exit codes: 0 success, 1 failed stage, 2 infeasible or empty result,
64 usage error, 65 malformed input file.  JSON reports carry full-precision
values; CSV tables round probabilities to 4 decimal places.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, bounds, compose, exact, greedy, hilbert, synth
from .errors import (
    CompositionError, ContractError, FactorizationError, SchemaError, SolverError,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64
EXIT_SCHEMA = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _report(command: str, params: dict, results) -> dict:
    return {
        "command": command,
        "params": params,
        "results": results,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _emit_json(report: dict) -> None:
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")


def _emit_csv(header: list, rows: list) -> None:
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        sys.stdout.write(",".join(str(v) for v in row) + "\n")


def _grid_override(value):
    env = os.environ.get("INVINSERT_GRID")
    if value is not None:
        return value
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise SchemaError(f"INVINSERT_GRID must be an integer, got {env!r}") from exc
    return None


def _parse_range(text: str) -> range:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise _UsageError(f"expected a range like 2..10, got {text!r}") from exc
    if hi < lo:
        raise _UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


def cmd_greedy(args) -> int:
    trace = greedy.greedy_run(args.n, args.k, keep_states=False)
    if args.emit_schedule:
        hilbert.save_schedule(trace.phase_schedule, args.emit_schedule)
    rows = [
        (ell, f"{trace.probs[ell]:.4f}", f"{2.0**ell / args.n:.6g}")
        for ell in range(1, args.k + 1)
    ]
    if args.format == "csv":
        _emit_csv(["ell", "prob", "classical_2k_over_n"], rows)
    else:
        _emit_json(
            _report(
                "greedy",
                {"n": args.n, "k": args.k},
                {
                    "probs": trace.probs.tolist(),
                    "classical": [2.0**ell / args.n for ell in range(args.k + 1)],
                    "schedule_file": args.emit_schedule,
                },
            )
        )
    return EXIT_OK


def cmd_bound(args) -> int:
    report = bounds.bound_report(args.n, args.epsilon)
    if args.format == "csv":
        rows = [
            (ell, f"{report.per_ell[ell]:.6g}", f"{report.per_ell[ell] ** 2:.6g}")
            for ell in range(report.min_queries + 1)
        ]
        _emit_csv(["ell", "overlap_bound", "bound_squared"], rows)
    else:
        _emit_json(
            _report(
                "bound",
                {"n": args.n, "epsilon": args.epsilon},
                {
                    "harmonic_exact": report.harmonic.exact,
                    "harmonic_approx": report.harmonic.approx,
                    "per_ell": report.per_ell.tolist(),
                    "min_queries": report.min_queries,
                    "asymptotic_ln": report.asymptotic,
                    "asymptotic_log2": report.asymptotic_log2,
                },
            )
        )
    return EXIT_OK


def _feasible_one(task) -> bool:
    n, k, grid = task
    if k == 1:
        return exact.k1_feasible(n)
    if k == 2:
        return exact.k2_feasible(n, grid)[0]
    return exact.search_free_series(n, k, grid) is not None


def cmd_exact_feasible(args) -> int:
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    grid = _grid_override(args.grid)
    ns = list(_parse_range(args.n_range))
    tasks = [(n, args.k, grid) for n in ns]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            flags = list(pool.map(_feasible_one, tasks))
    else:
        flags = [_feasible_one(t) for t in tasks]
    if args.format == "csv":
        _emit_csv(["n", "feasible"], [(n, str(f).lower()) for n, f in zip(ns, flags)])
    else:
        _emit_json(
            _report(
                "exact feasible",
                {"k": args.k, "n_range": args.n_range},
                {"n": ns, "feasible": flags},
            )
        )
    return EXIT_OK if any(flags) else EXIT_INFEASIBLE


def cmd_exact_search(args) -> int:
    grid = _grid_override(args.grid)
    found = exact.search_free_series(args.n, args.k, grid)
    params = {"k": args.k, "n": args.n, "grid": grid}
    if found is None:
        _emit_json(_report("exact search", params, {"found": False}))
        return EXIT_INFEASIBLE
    free, certs = found
    if args.out:
        exact.save_series(free, args.out)
    _emit_json(
        _report(
            "exact search",
            params,
            {
                "found": True,
                "free": {name: s.to_dict() for name, s in free.items()},
                "certificates": {str(ell): c.to_dict() for ell, c in certs.items()},
                "out": args.out,
            },
        )
    )
    return EXIT_OK


def _load_free_series(n: int, k: int, paths: list) -> dict:
    """Resolve series files against the chain's free slots."""
    needed = exact.chain_free_names(n, k)
    loaded: dict[str, exact.CosineSeries] = {}
    for path in paths:
        for key, series in exact.load_series(path).items():
            if key in needed:
                loaded[key] = series
            else:
                # bare object: key is the class letter; match the unfilled slot
                slots = [
                    name
                    for name in needed
                    if name.startswith(key) and name not in loaded
                ]
                if len(slots) != 1:
                    raise SchemaError(
                        f"{path}: cannot place a bare class-{key} series; "
                        f"name it explicitly (one of {sorted(needed)})"
                    )
                loaded[slots[0]] = series
    return loaded


def _free_series(n: int, k: int, grid, paths) -> dict | None:
    """The free series from the files at ``paths``, or from the search when
    no file is given; None when the search finds none."""
    if paths:
        return _load_free_series(n, k, paths)
    if not exact.chain_free_names(n, k):
        return {}
    found = exact.search_free_series(n, k, grid)
    return None if found is None else found[0]


def cmd_exact_synth(args) -> int:
    grid = _grid_override(args.grid)
    free = _free_series(args.n, args.k, grid, args.series)
    if free is None:
        _emit_json(_report("exact synth", {"n": args.n, "k": args.k}, {"found": False}))
        return EXIT_INFEASIBLE
    schedule, report = synth.synthesize_exact(args.n, args.k, free, grid)
    hilbert.save_schedule(schedule, args.out)
    _emit_json(
        _report(
            "exact synth",
            {"n": args.n, "k": args.k, "out": args.out},
            report,
        )
    )
    return EXIT_OK if report["exact"] else EXIT_INFEASIBLE


def cmd_verify(args) -> int:
    schedule = hilbert.load_schedule(args.schedule)
    n = schedule.n
    success = np.concatenate([p for _, p in hilbert.run_all_answers(schedule)]).tolist()
    columns = [synth.v_column(stage, n) for stage in schedule.stages]
    if args.format == "json":
        _emit_json(
            _report(
                "verify",
                {"schedule": args.schedule},
                {
                    "n": n,
                    "k": schedule.k,
                    "success_probs": success,
                    "min_success_prob": min(success),
                    "v_columns": [
                        [[float(c.real), float(c.imag)] for c in col] for col in columns
                    ],
                },
            )
        )
    else:
        sys.stdout.write(f"n={n} k={schedule.k}\n")
        for j, prob in enumerate(success):
            sys.stdout.write(f"success[j={j}] = {prob:.12f}\n")
        header = ["x"] + [f"V{ell}" for ell in range(1, schedule.k + 1)]
        sys.stdout.write("\t".join(header) + "\n")
        for x in range(2 * n):
            row = [str(x)] + [f"{columns[ell].real[x]:.4f}" for ell in range(schedule.k)]
            sys.stdout.write("\t".join(row) + "\n")
    return EXIT_OK


def cmd_compose(args) -> int:
    if args.h < 1:
        raise _UsageError(f"--h must be at least 1, got {args.h}")
    n_total = args.m**args.h
    if args.j is not None and not 0 <= args.j < n_total:
        raise _UsageError(f"--j must lie in 0..{n_total - 1}, got {args.j}")
    if args.schedule:
        schedule = hilbert.load_schedule(args.schedule)
        if schedule.n != args.m or schedule.k != args.k:
            raise SchemaError(
                f"{args.schedule}: schedule is for (n={schedule.n}, k={schedule.k}), "
                f"expected ({args.m}, {args.k})"
            )
    else:
        grid = _grid_override(None)
        free = _free_series(args.m, args.k, grid, None)
        if free is None:
            _emit_json(_report("compose", {"m": args.m, "k": args.k}, {"found": False}))
            return EXIT_INFEASIBLE
        schedule, _ = synth.synthesize_exact(args.m, args.k, free, grid)
    hidden = range(n_total) if args.all else [args.j]
    runs = [
        {
            "hidden_j": run.hidden_j,
            "found_j": run.found_j,
            "queries_used": run.queries_used,
            "per_level": [list(level) for level in run.per_level],
        }
        for run in compose.compose_all(args.m, args.k, args.h, schedule, hidden)
    ]
    ok = all(r["found_j"] == r["hidden_j"] for r in runs)
    _emit_json(
        _report(
            "compose",
            {"m": args.m, "k": args.k, "h": args.h},
            {"n": n_total, "all_recovered": ok, "runs": runs},
        )
    )
    return EXIT_OK if ok else EXIT_INFEASIBLE


def cmd_rate(args) -> int:
    value = compose.rate(args.k, args.m)
    sys.stdout.write(f"{value:.4f}\n")
    if args.sort_items:
        # sorting n items by repeated insertion costs n log2(n) comparisons
        # classically; the iterated subroutine scales that by the rate
        queries = args.sort_items * value * math.log2(args.sort_items)
        sys.stdout.write(f"sort_queries={queries:.1f}\n")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="invinsert")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("greedy", help="run the greedy algorithm")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit-schedule", metavar="FILE")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_greedy)

    p = sub.add_parser("bound", help="invariant overlap bound and query count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("exact", help="exact-algorithm feasibility and synthesis")
    esub = p.add_subparsers(dest="exact_command", required=True)

    pf = esub.add_parser("feasible", help="feasibility sweep over n")
    pf.add_argument("--k", type=int, required=True)
    pf.add_argument("--n-range", required=True, metavar="A..B")
    pf.add_argument("--grid", type=int)
    pf.add_argument("--jobs", type=int, default=1)
    pf.add_argument("--format", choices=["csv", "json"], default="csv")
    pf.set_defaults(func=cmd_exact_feasible)

    ps = esub.add_parser("search", help="search the free series for one n")
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--grid", type=int)
    ps.add_argument("--out", metavar="FILE")
    ps.set_defaults(func=cmd_exact_search)

    py = esub.add_parser("synth", help="synthesize a verified schedule")
    py.add_argument("--n", type=int, required=True)
    py.add_argument("--k", type=int, required=True)
    py.add_argument("--series", action="append", metavar="FILE")
    py.add_argument("--grid", type=int)
    py.add_argument("--out", required=True, metavar="FILE")
    py.set_defaults(func=cmd_exact_synth)

    p = sub.add_parser("verify", help="re-simulate a schedule file")
    p.add_argument("--schedule", required=True, metavar="FILE")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compose", help="iterate an exact subroutine")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--j", type=int)
    group.add_argument("--all", action="store_true")
    p.add_argument("--schedule", metavar="FILE")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("rate", help="queries per log2(N) of the iterated subroutine")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sort-items", type=int, metavar="N",
                   help="also print the implied query count for sorting N items")
    p.set_defaults(func=cmd_rate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"invinsert: {exc}\n")
        return EXIT_USAGE
    except (SchemaError, FileNotFoundError) as exc:
        sys.stderr.write(f"invinsert: {exc}\n")
        return EXIT_SCHEMA
    except (ContractError, FactorizationError, CompositionError, SolverError, ValueError) as exc:
        sys.stderr.write(f"invinsert: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
