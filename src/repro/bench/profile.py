"""``python -m repro.bench.profile`` — cProfile a top-k workload.

Builds a named problem instance (:mod:`repro.bench.workloads`), runs a
batch of queries through the chosen index — one of the two reductions,
the binary-search baseline, or the full serving engine — under
:mod:`cProfile`, and prints the top-N functions by cumulative time.
This is the first stop when a bench regresses: the hot frames name the
layer (ladder probe, ground fetch, cache, dispatch) to look at next.

Examples
--------
::

    python -m repro.bench.profile
    python -m repro.bench.profile --index theorem1 --n 5000 --queries 400
    python -m repro.bench.profile --index serving --sort tottime --top 40
    python -m repro.bench.profile --json
    python -m repro.bench.profile --compare columnar,legacy --json

``--compare columnar,legacy`` times the same workload once per mode
instead of profiling: the reduction built as usual, and built with
``columnar=False`` (the paper's structure-only path).  It is the
one-command answer to "how much does the columnar core buy here?", so
it takes ``--index theorem1`` or ``theorem2`` — the indexes with a
columnar switch.  ``--json`` switches either output to a
machine-readable document.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import time
from typing import Callable, List

from repro.bench.workloads import PROBLEMS, make_problem

INDEXES = ("theorem1", "theorem2", "baseline", "serving")
COMPARE_MODES = ("columnar", "legacy")


def _build_runner(args, columnar: bool = True) -> Callable[[], None]:
    """The profiled body: build the index, answer every query.

    ``columnar`` reaches the two reductions only (``--compare legacy``).
    """
    problem = make_problem(args.problem, args.n, seed=args.seed)
    predicates = problem.predicates(args.queries, seed=args.seed + 1)

    if args.index == "theorem1":
        from repro.core.theorem1 import WorstCaseTopKIndex

        def run() -> None:
            index = WorstCaseTopKIndex(
                problem.elements, problem.prioritized_factory, seed=args.seed,
                columnar=columnar,
            )
            for predicate in predicates:
                index.query(predicate, args.k)

    elif args.index == "theorem2":
        from repro.core.theorem2 import ExpectedTopKIndex

        def run() -> None:
            index = ExpectedTopKIndex(
                problem.elements,
                problem.prioritized_factory,
                problem.max_factory,
                seed=args.seed,
                columnar=columnar,
            )
            for predicate in predicates:
                index.query(predicate, args.k)

    elif args.index == "baseline":
        from repro.core.baseline import BinarySearchTopKIndex

        def run() -> None:
            index = BinarySearchTopKIndex(
                problem.elements, problem.prioritized_factory
            )
            for predicate in predicates:
                index.query(predicate, args.k)

    else:  # serving: the full batched/cached/replicated front door
        from repro.serving.engine import serving_engine

        def run() -> None:
            engine = serving_engine(
                problem.elements,
                problem.prioritized_factory,
                problem.max_factory,
                seed=args.seed,
            )
            with engine:
                batch = [(p, args.k) for p in predicates]
                for _ in range(args.rounds):
                    engine.serve(batch)

    return run


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.profile", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--problem", default="range1d", choices=sorted(PROBLEMS),
        help="workload from the problem registry (default: range1d)",
    )
    parser.add_argument(
        "--index", default="theorem2", choices=INDEXES,
        help="which index answers the queries (default: theorem2)",
    )
    parser.add_argument("--n", type=int, default=2000, help="dataset size")
    parser.add_argument("--queries", type=int, default=200, help="query count")
    parser.add_argument("--k", type=int, default=10, help="answer size k")
    parser.add_argument(
        "--rounds", type=int, default=2,
        help="serving only: how many times the batch repeats (warm cache)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--top", type=int, default=25, help="functions to print (default: 25)"
    )
    parser.add_argument(
        "--sort", default="cumulative",
        choices=("cumulative", "tottime", "ncalls"),
        help="pstats sort key (default: cumulative)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit a machine-readable JSON document instead of text",
    )
    parser.add_argument(
        "--compare", default=None, metavar="MODES",
        help="comma-separated modes from {columnar,legacy}: time the "
        "workload once per mode instead of profiling",
    )
    args = parser.parse_args(argv)

    config = {
        "index": args.index, "problem": args.problem, "n": args.n,
        "queries": args.queries, "k": args.k, "seed": args.seed,
    }

    if args.compare is not None:
        modes = [mode.strip() for mode in args.compare.split(",") if mode.strip()]
        unknown = [mode for mode in modes if mode not in COMPARE_MODES]
        if not modes or unknown:
            parser.error(
                f"--compare takes modes from {set(COMPARE_MODES)}, got {args.compare!r}"
            )
        if args.index not in ("theorem1", "theorem2"):
            parser.error("--compare needs --index theorem1 or theorem2")
        return _run_compare(args, modes, config)

    run = _build_runner(args)
    profiler = cProfile.Profile()
    profiler.enable()
    began = time.perf_counter()
    run()
    wall_seconds = time.perf_counter() - began
    profiler.disable()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort)
    if args.as_json:
        frames = []
        for func in stats.fcn_list[: args.top]:  # already sorted
            cc, nc, tottime, cumtime, _ = stats.stats[func]
            filename, line, name = func
            frames.append({
                "function": f"{filename}:{line}({name})",
                "ncalls": nc,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            })
        print(json.dumps(
            {**config, "sort": args.sort, "wall_seconds": round(wall_seconds, 6),
             "frames": frames},
            indent=2,
        ))
    else:
        print(
            f"# profile: index={args.index} problem={args.problem} "
            f"n={args.n} queries={args.queries} k={args.k} seed={args.seed}"
        )
        stats.print_stats(args.top)
    return 0


def _run_compare(args, modes: List[str], config: dict) -> int:
    """Time the workload once per mode; no profiler in the timed region."""
    timings = {}
    for mode in modes:
        run = _build_runner(args, columnar=mode == "columnar")
        began = time.perf_counter()
        run()
        timings[mode] = time.perf_counter() - began

    doc = {**config, "modes": {
        mode: {"wall_seconds": round(seconds, 6)}
        for mode, seconds in timings.items()
    }}
    if "columnar" in timings and "legacy" in timings and timings["columnar"] > 0:
        doc["speedup"] = round(timings["legacy"] / timings["columnar"], 2)

    if args.as_json:
        print(json.dumps(doc, indent=2))
    else:
        print(
            f"# compare: index={args.index} problem={args.problem} "
            f"n={args.n} queries={args.queries} k={args.k} seed={args.seed}"
        )
        for mode, seconds in timings.items():
            print(f"{mode:>10}: {seconds * 1e3:9.2f} ms")
        if "speedup" in doc:
            print(f"{'speedup':>10}: {doc['speedup']:8.2f}x (legacy / columnar)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via -m
    sys.exit(main())
