"""``python -m perf run | trace | compare`` — run the benchmark across
workloads, each in a fresh interpreter, and compare result sets.

    PYTHONPATH=src python -m perf run [--seed N] [--workload NAME] [--runs K]
    PYTHONPATH=src python -m perf trace [--seed N] [--workload NAME]
    python -m perf compare A.json B.json

``run`` writes ``perf/results/<sha>/run-<UTC time>.json`` (every
repetition's samples, the inputs and the environment) and exits
non-zero if any output failed its check. ``trace`` writes one
Perfetto trace per workload to ``perf/results/trace-<workload>.json``
and a summary of the per-layer metrics beside the run results.
``compare`` prints one row per workload and end-to-end metric with a
verdict under the bounds of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

from .run import DETAIL_PREFIX, ROOT, load_benchmark
from .workloads import DEFAULT_SEED

RUN_PY = os.path.join(ROOT, "perf", "run.py")
#: A workload run that exceeds this is killed and reported as failed.
RUN_TIMEOUT_S = 180


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def spawn(workload: str, seed: int, seconds: float, trace: bool,
          env: Dict[str, str]) -> dict:
    """Run one workload in a fresh interpreter; parse its result."""
    cmd = [sys.executable, RUN_PY, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "correct": False,
                "error": f"timed out after {RUN_TIMEOUT_S}s"}
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith(DETAIL_PREFIX):
        return {"workload": workload, "correct": False,
                "error": f"exit {done.returncode} without a result"}
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len(DETAIL_PREFIX):])
    result["correct"] = result["correct"] and done.returncode == 0
    return result


def _meta(args, env: Dict[str, str]) -> dict:
    import numpy

    return {"git_sha": git_sha(), "seed": args.seed,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(),
            "stripped_env": sorted(k for k in os.environ if k not in env),
            "utc": datetime.datetime.now(datetime.timezone.utc).isoformat()}


def _default_out(kind: str, sha: str) -> str:
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%SZ")
    return os.path.join(ROOT, "perf", "results", sha[:7],
                        f"{kind}-{stamp}.json")


def _write(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")


def _print_matrix(results: Dict[str, list], declared: List[dict]) -> None:
    """One row per metric, one column per workload: the median over
    runs, or ``missing``."""
    print(f"{'metric':<30}" + "".join(f"{n:>16}" for n in results)
          + "  unit")
    for metric in declared:
        name, cells = metric["name"], []
        for workload, runs in results.items():
            runs = [r for r in runs if "metrics" in r]
            if not runs or any(name in r["detail"]["missing"] for r in runs):
                cells.append("missing")
            else:
                value = statistics.median(r["metrics"][name]["value"]
                                          for r in runs)
                cells.append(f"{value:.5g}")
        print(f"{name:<30}" + "".join(f"{c:>16}" for c in cells)
              + f"  {metric['unit']}")


def cmd_run_or_trace(args, trace: bool) -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    workloads = [args.workload] if args.workload else names
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    meta = _meta(args, env)
    meta["seconds"] = benchmark["run_seconds"]
    results: Dict[str, list] = {w: [] for w in workloads}
    ok = True
    for _ in range(1 if trace else args.runs):
        for workload in workloads:
            result = spawn(workload, args.seed, meta["seconds"], trace, env)
            results[workload].append(result)
            ok = ok and result["correct"]
            if "error" in result:
                print(f"{workload}: {result['error']}", file=sys.stderr)
    _print_matrix(results, benchmark["per_layer" if trace else "end_to_end"])
    for workload, runs in results.items():
        print(f"{workload}: {len(runs)} run(s), "
              f"{sum(r.get('attempted', 0) for r in runs)} outputs checked, "
              f"{sum(r.get('failed', 0) for r in runs)} failed")
    _write(args.out or _default_out("trace" if trace else "run",
                                    meta["git_sha"]),
           {"meta": meta, "kind": "trace" if trace else "run",
            "workloads": results})
    if not ok:
        print("perf: a correctness check failed", file=sys.stderr)
    return 0 if ok else 1


def spread(values: List[float]) -> float:
    """Interquartile range over the median (0 for fewer than 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    """Verdict for B against A: better, worse, same or unresolved.

    When either side's spread exceeds the bound the medians cannot
    decide; only complete separation (every run of one side beats
    every run of the other) gives a verdict then.
    """
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / med_a
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def _values(result_set: dict, workload: str, metric: str) -> List[float]:
    return [r["metrics"][metric]["value"]
            for r in result_set["workloads"].get(workload, ())
            if "metrics" in r and metric in r["metrics"]]


def cmd_compare(args) -> int:
    benchmark = load_benchmark()
    with open(args.a, encoding="utf-8") as fh:
        set_a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        set_b = json.load(fh)
    print(f"{'workload':<16} {'metric':<12} {'A median':>12} "
          f"{'B median':>12} {'change':>8} {'spread':>7} {'bound':>6}  "
          f"verdict")
    verdicts = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            a = _values(set_a, workload, metric["name"])
            b = _values(set_b, workload, metric["name"])
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            verdicts.append(result)
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{workload:<16} {metric['name']:<12} {med_a:>12.5g} "
                  f"{med_b:>12.5g} {(med_b - med_a) / med_a:>+8.1%} "
                  f"{max(spread(a), spread(b)):>7.1%} "
                  f"{metric['bound']:>6.0%}  {result}")
    return 1 if "worse" in verdicts else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
        cmd.add_argument("--workload")
        cmd.add_argument("--out", help="result file to write")
        if name == "run":
            cmd.add_argument("--runs", type=int, default=1,
                             help="runs per workload, interleaved")
    cmp = sub.add_parser("compare")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return cmd_compare(args)
    return cmd_run_or_trace(args, trace=args.command == "trace")


if __name__ == "__main__":
    sys.exit(main())
