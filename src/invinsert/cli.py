"""Command-line front end: simulation, bounds, feasibility, synthesis, composition.

Exit codes: 0 success, 1 failed stage or unwritable output file,
2 infeasible or empty result, 64 usage error, 65 malformed or unreadable
input file.  JSON reports carry full-precision values; CSV tables round
probabilities to 4 decimal places.
"""

from __future__ import annotations

import argparse
import datetime
import errno
import functools
import math
import os
import sys

import numpy as np

from . import __version__, bounds, compose, exact, greedy, hilbert, synth
from .errors import (
    CompositionError, ContractError, FactorizationError, SchemaError, SolverError,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64
EXIT_SCHEMA = 65

# compose --all: a record per answer, 51 MiB peak RSS at 2^16 (--m 2 --k 1 --h 16, fresh process)
ALL_ANSWERS_MAX = 2**16


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit_report(command: str, params: dict, results) -> None:
    hilbert.write_json(
        {
            "command": command,
            "params": params,
            "results": results,
            "tool_version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
        sys.stdout,
    )


def _emit_csv(header: list, rows: list) -> None:
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        sys.stdout.write(",".join(str(v) for v in row) + "\n")


def _parse_range(text: str) -> range:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise _UsageError(f"expected a range like 2..10, got {text!r}") from exc
    if hi < lo:
        raise _UsageError(f"empty range {text!r}")
    if lo < 2:
        raise _UsageError(f"--n-range must start at 2 or more, got {text!r}")
    return range(lo, hi + 1)


def _at_least(flag: str, lo: int):
    """An argparse type for integers of at least ``lo``; a smaller one raises
    _UsageError, which argparse lets through, as it does ``_out_path``'s OSError."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise _UsageError(f"{flag} must be at least {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _epsilon(text: str) -> float:
    """An argparse type for ``bound --epsilon``: a float in (0, 1]; NaN too raises _UsageError."""
    value = float(text)
    if not 0 < value <= 1:
        raise _UsageError(f"--epsilon must lie in (0, 1], got {value}")
    return value


_epsilon.__name__ = "float"  # argparse names the type in "invalid float value"


def _out_path(path: str) -> str:
    """An output path, checked as the arguments are parsed: before any work,
    and without making the file, raise the OSError that opening it would."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.EISDIR if os.path.isdir(path) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    return path


def cmd_greedy(args) -> int:
    probs, stages = greedy.greedy_run(args.n, args.k)
    if args.emit_schedule:
        hilbert.save_schedule(stages, args.emit_schedule)
    rows = [
        (ell, f"{probs[ell]:.4f}", f"{2.0**ell / args.n:.6g}")
        for ell in range(1, args.k + 1)
    ]
    if args.format == "csv":
        _emit_csv(["ell", "prob", "classical_2k_over_n"], rows)
    else:
        _emit_report(
            "greedy",
            {"n": args.n, "k": args.k},
            {
                "probs": probs.tolist(),
                "classical": [2.0**ell / args.n for ell in range(args.k + 1)],
                "schedule_file": args.emit_schedule,
            },
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
        _emit_report(
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
    return EXIT_OK


def _feasible_one(task) -> bool:
    return exact.search_free_series(*task) is not None


def cmd_exact_feasible(args) -> int:
    ns = list(_parse_range(args.n_range))
    tasks = [(n, args.k, args.grid) for n in ns]
    jobs = min(args.jobs, len(tasks))  # a worker per N at most
    if jobs > 1:
        # spawned, not forked: a search leaves HiGHS threads running
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        with ProcessPoolExecutor(jobs, mp_context=get_context("spawn")) as pool:
            flags = list(pool.map(_feasible_one, tasks))
    else:
        flags = [_feasible_one(t) for t in tasks]
    if args.format == "csv":
        _emit_csv(["n", "feasible"], [(n, str(f).lower()) for n, f in zip(ns, flags)])
    else:
        _emit_report(
            "exact feasible",
            {"k": args.k, "n_range": args.n_range},
            {"n": ns, "feasible": flags},
        )
    return EXIT_OK if any(flags) else EXIT_INFEASIBLE


def cmd_exact_search(args) -> int:
    found = exact.search_free_series(args.n, args.k, args.grid)
    params = {"k": args.k, "n": args.n, "grid": args.grid}
    if found is None:
        _emit_report("exact search", params, {"found": False})
        return EXIT_INFEASIBLE
    free, certs = found
    if args.out:
        exact.save_series(free, args.out)
    _emit_report(
        "exact search",
        params,
        {
            "found": True,
            "free": exact.series_docs(free),
            "certificates": {str(ell): c.to_dict() for ell, c in certs.items()},
            "out": args.out,
        },
    )
    return EXIT_OK


def _load_free_series(n: int, k: int, paths: list) -> dict:
    """Resolve series files against the chain's free slots; a bare series
    fills the one unfilled slot of its class.  Raises SchemaError naming the
    file when a series has no slot, fills a slot already filled or does not
    fit its slot, or a slot stays empty."""
    needed = exact.chain_free_names(n, k)
    loaded: dict[str, np.ndarray] = {}
    for path in paths:
        if not needed:
            raise SchemaError(f"{path}: a {k}-query chain has no free series")
        for key, doc in exact.load_series(path).items():
            slots = [name for name in needed if key in (name, name[0])]
            empty = [name for name in slots if name not in loaded]
            if slots and not empty:
                raise SchemaError(f"{path}: {', '.join(slots)} given more than once")
            if len(empty) != 1:
                raise SchemaError(
                    f"{path}: cannot place series {key!r}; "
                    f"name it explicitly (one of {list(needed)})"
                )
            name = empty[0]
            if (doc["n"], doc["klass"]) != (n, name[0]):
                raise SchemaError(
                    f"{path}: {name} is a class-{doc['klass']} series for "
                    f"N={doc['n']}, expected class {name[0]} for N={n}"
                )
            loaded[name] = doc["coeffs"]
    if missing := [name for name in needed if name not in loaded]:
        raise SchemaError(f"{', '.join(map(str, paths))}: no series for {missing}")
    return loaded


def _free_series(n: int, k: int, grid, paths) -> dict | None:
    """The free series from the files at ``paths``, or from the search when
    no file is given; None when the search finds none."""
    if paths:
        return _load_free_series(n, k, paths)
    found = exact.search_free_series(n, k, grid)
    return None if found is None else found[0]


def cmd_exact_synth(args) -> int:
    free = _free_series(args.n, args.k, args.grid, args.series)
    if free is None:
        _emit_report("exact synth", {"n": args.n, "k": args.k}, {"found": False})
        return EXIT_INFEASIBLE
    stages, report = synth.synthesize_exact(args.n, args.k, free, args.grid)
    hilbert.save_schedule(stages, args.out)
    _emit_report(
        "exact synth",
        {"n": args.n, "k": args.k, "out": args.out},
        report,
    )
    return EXIT_OK if report["exact"] else EXIT_INFEASIBLE


def cmd_verify(args) -> int:
    stages = hilbert.load_schedule(args.schedule)
    _, report = synth.schedule_report(stages)
    if args.format == "json":
        _emit_report("verify", {"schedule": args.schedule}, report)
    else:
        n, k, columns = report["n"], report["k"], synth.v_column(stages)
        sys.stdout.write(f"n={n} k={k}\n")
        for j, prob in enumerate(report["success_probs"]):
            sys.stdout.write(f"success[j={j}] = {prob:.12f}\n")
        header = ["x"] + [f"V{ell}" for ell in range(1, k + 1)]
        sys.stdout.write("\t".join(header) + "\n")
        for x in range(2 * n):
            row = [str(x)] + [f"{columns[ell, x].real:.4f}" for ell in range(k)]
            sys.stdout.write("\t".join(row) + "\n")
    return EXIT_OK


def cmd_compose(args) -> int:
    n_total = args.m**args.h
    if n_total >= 2**63:  # hidden indices are int64
        raise _UsageError(f"--h {args.h}: M^h = {args.m}^{args.h} must be below 2^63")
    if args.all and n_total > ALL_ANSWERS_MAX:
        raise _UsageError(
            f"--all: M^h = {args.m}^{args.h} answers, more than {ALL_ANSWERS_MAX}; use --j"
        )
    if args.j is not None and not 0 <= args.j < n_total:
        raise _UsageError(f"--j must lie in 0..{n_total - 1}, got {args.j}")
    params = {"m": args.m, "k": args.k, "h": args.h}
    if args.schedule:
        stages = hilbert.load_schedule(args.schedule)
        if stages.shape != (args.k, 2 * args.m):
            raise SchemaError(
                f"{args.schedule}: schedule is for (n={stages.shape[1] // 2}, "
                f"k={stages.shape[0]}), expected ({args.m}, {args.k})"
            )
    else:
        free = _free_series(args.m, args.k, None, None)
        if free is None:
            _emit_report("compose", params, {"found": False})
            return EXIT_INFEASIBLE
        stages, _ = synth.synthesize_exact(args.m, args.k, free)
    hidden = np.arange(n_total) if args.all else np.array([args.j])
    found, queries = compose.compose_all(stages, args.h, hidden)
    runs = [
        {"hidden_j": j, "found_j": found_j, "queries_used": queries}
        for j, found_j in zip(hidden.tolist(), found.tolist())
    ]
    ok = bool(np.array_equal(found, hidden))
    _emit_report("compose", params, {"n": n_total, "all_recovered": ok, "runs": runs})
    return EXIT_OK if ok else EXIT_INFEASIBLE


def cmd_rate(args) -> int:
    value = compose.rate(args.k, args.m)
    sys.stdout.write(f"{value:.4f}\n")
    if args.sort_items is not None:
        # sorting n items by repeated insertion costs n log2(n) comparisons
        # classically; the iterated subroutine scales that by the rate
        queries = args.sort_items * value * math.log2(args.sort_items)
        sys.stdout.write(f"sort_queries={queries:.1f}\n")
    return EXIT_OK


def build_parser() -> _Parser:
    """The argument parser.  Each subcommand names its ``cmd_*`` handler,
    which ``main`` looks up when it runs, so one parser serves every call."""
    parser = _Parser(prog="invinsert")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("greedy", help="run the greedy algorithm")
    p.add_argument("--n", type=_at_least("--n", 2), required=True)
    p.add_argument("--k", type=_at_least("--k", 1), required=True)
    p.add_argument("--emit-schedule", type=_out_path, metavar="FILE")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(handler="cmd_greedy")

    p = sub.add_parser("bound", help="invariant overlap bound and query count")
    p.add_argument("--n", type=_at_least("--n", 2), required=True)
    p.add_argument("--epsilon", type=_epsilon, default=1.0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(handler="cmd_bound")

    p = sub.add_parser("exact", help="exact-algorithm feasibility and synthesis")
    esub = p.add_subparsers(dest="exact_command", required=True)

    pf = esub.add_parser("feasible", help="feasibility sweep over n")
    pf.add_argument("--k", type=_at_least("--k", 1), required=True)
    pf.add_argument("--n-range", required=True, metavar="A..B")
    pf.add_argument("--grid", type=int)
    pf.add_argument("--jobs", type=_at_least("--jobs", 1), default=1)
    pf.add_argument("--format", choices=["csv", "json"], default="csv")
    pf.set_defaults(handler="cmd_exact_feasible")

    ps = esub.add_parser("search", help="search the free series for one n")
    ps.add_argument("--k", type=_at_least("--k", 1), required=True)
    ps.add_argument("--n", type=_at_least("--n", 2), required=True)
    ps.add_argument("--grid", type=int)
    ps.add_argument("--out", type=_out_path, metavar="FILE")
    ps.set_defaults(handler="cmd_exact_search")

    py = esub.add_parser("synth", help="synthesize a verified schedule")
    py.add_argument("--n", type=_at_least("--n", 2), required=True)
    py.add_argument("--k", type=_at_least("--k", 1), required=True)
    py.add_argument("--series", action="append", metavar="FILE")
    py.add_argument("--grid", type=int)
    py.add_argument("--out", required=True, type=_out_path, metavar="FILE")
    py.set_defaults(handler="cmd_exact_synth")

    p = sub.add_parser("verify", help="re-simulate a schedule file")
    p.add_argument("--schedule", required=True, metavar="FILE")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(handler="cmd_verify")

    p = sub.add_parser("compose", help="iterate an exact subroutine")
    p.add_argument("--m", type=_at_least("--m", 2), required=True)
    p.add_argument("--k", type=_at_least("--k", 1), required=True)
    p.add_argument("--h", type=_at_least("--h", 1), required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--j", type=int)
    group.add_argument("--all", action="store_true")
    p.add_argument("--schedule", metavar="FILE")
    p.set_defaults(handler="cmd_compose")

    p = sub.add_parser("rate", help="queries per log2(N) of the iterated subroutine")
    p.add_argument("--k", type=_at_least("--k", 1), required=True)
    p.add_argument("--m", type=_at_least("--m", 2), required=True)
    p.add_argument("--sort-items", type=_at_least("--sort-items", 1), metavar="N",
                   help="also print the implied query count for sorting N items")
    p.set_defaults(handler="cmd_rate")

    return parser


@functools.cache
def _parser() -> _Parser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return globals()[args.handler](args)
    except _UsageError as exc:
        sys.stderr.write(f"invinsert: {exc}\n")
        return EXIT_USAGE
    except SchemaError as exc:
        sys.stderr.write(f"invinsert: {exc}\n")
        return EXIT_SCHEMA
    except (ContractError, FactorizationError, CompositionError, SolverError, ValueError, OSError) as exc:
        sys.stderr.write(f"invinsert: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
