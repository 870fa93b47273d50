"""The repo benchmark: four closed-loop workloads, one command.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed S [--workload W] [--seconds T]
        [--trace [0|1]] [--quick] [--json OUT]

Each workload runs in a fresh ``worker.py`` process, so set-up time and
peak memory belong to that workload alone.  Without ``--workload`` all
four run in turn.  The worker finds the library under ``src/`` of the
checkout holding this file; no install or ``PYTHONPATH`` is needed.

Untraced (the default, ``--trace 0``): prints every end-to-end metric
by name with its unit, then one JSON line with ``correct``,
``attempted``, ``failed`` and the end-to-end ``metrics``.

Traced (``--trace`` or ``--trace 1``): runs the same fixed op count
twice, untraced and then traced, in two fresh processes.  It prints the
per-layer metrics, with tracing overhead (traced vs untraced
``ops_per_s``) and unattributed client-loop time, and writes the spans to
``.bench_out/trace-<workload>-s<seed>.json``.

``--json OUT`` appends this pass to ``OUT`` (a ``{"passes": [...]}``
document, created if missing), with git sha, Python version and seed;
``compare.py`` reads two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("read-hot", "read-cold", "mixed-rw", "em-direct")
DEFAULT_SECONDS = 10
#: Stack builds per untraced pass; ``setup_s`` is their median.
SETUP_BUILDS = 3
#: Every process this command starts must end within this many seconds.
TIME_LIMIT_S = 170.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_worker(workload: str, args, trace: bool, builds: int,
               deadline: float) -> dict:
    """One worker pass; returns its JSON document or raises RuntimeError."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--builds", str(builds),
    ]
    if args.quick:
        command.append("--quick")
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        command += [
            "--trace", "--trace-out",
            str(OUT_DIR / f"trace-{workload}-s{args.seed}.json"),
        ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(
            f"{workload}: worker exceeded {timeout:.0f} s and was stopped"
        ) from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload}: worker exited {done.returncode}\n{done.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def measure(workload: str, args, deadline: float) -> dict:
    """End-to-end metrics, or per-layer metrics when tracing."""
    if not args.trace:
        return run_worker(workload, args, trace=False, builds=SETUP_BUILDS,
                          deadline=deadline)
    plain = run_worker(workload, args, trace=False, builds=1, deadline=deadline)
    traced = run_worker(workload, args, trace=True, builds=1, deadline=deadline)
    untraced_rate = plain["end_to_end"]["ops_per_s"]["value"]
    traced_rate = traced["end_to_end"]["ops_per_s"]["value"]
    traced["per_layer"]["trace.overhead_pct"] = {
        "value": (untraced_rate / traced_rate - 1.0) * 100.0 if traced_rate else 0.0,
        "unit": "%",
    }
    traced["correct"] = traced["correct"] and plain["correct"]
    traced["untraced"] = plain
    return traced


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(doc: dict, names: List[str], key: str) -> None:
    """Human-readable lines: ``workload  metric  value unit``."""
    workload = doc["workload"]
    for name in names:
        metric = doc[key][name]
        print(f"{workload:10s} {name:42s} {fmt(metric['value']):>14s} {metric['unit']}")
    if key == "end_to_end":
        extra = doc["extra"]
        for name, metric in extra.items():
            if name == "setup_runs_s":
                continue
            print(f"{workload:10s} {name:42s} {fmt(metric['value']):>14s} {metric['unit']}")
        print(f"{workload:10s} read percentiles cover {extra['read_samples']['value']} "
              f"fast-window samples: {extra['read_p90_beyond']['value']} beyond p90, "
              f"{extra['read_p99_beyond']['value']} beyond p99")
    if doc["errors"]:
        print(f"{workload:10s} errors: {doc['errors']}")
    if doc.get("truncated"):
        print(f"{workload:10s} stopped early at the safety deadline")


def append_json(path: Path, entry: dict) -> None:
    doc = {"passes": []}
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    doc["passes"].append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured phase length at the reference rate")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=(0, 1), help="per-layer traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and op counts (smoke test)")
    parser.add_argument("--json", type=Path, default=None, dest="json_out",
                        help="append this pass to a JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    key = "per_layer" if args.trace else "end_to_end"
    names = [metric["name"] for metric in spec[key]]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    deadline = time.monotonic() + TIME_LIMIT_S * (1 if args.workload else len(workloads))

    docs = []
    for workload in workloads:
        try:
            doc = measure(workload, args, deadline)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(doc, names, key)
        docs.append(doc)

    if args.json_out is not None:
        append_json(args.json_out, {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
            "trace": bool(args.trace),
            "workloads": {doc["workload"]: doc for doc in docs},
        })

    if len(docs) == 1:
        metrics = {name: docs[0][key][name] for name in names}
    else:
        metrics = {
            f"{doc['workload']}.{name}": doc[key][name]
            for doc in docs for name in names
        }
    print(json.dumps({
        "correct": all(doc["correct"] for doc in docs),
        "attempted": sum(doc["attempted"] for doc in docs),
        "failed": sum(doc["failed"] for doc in docs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
