"""Run one benchmark workload in this process and print its result.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``. The line
before it, prefixed ``perf-detail``, holds the inputs, every
repetition's samples and the run's environment. A readable table goes
to standard error. The exit code is 0 when every output checked out,
1 when one did not and 2 when the program under test is absent.

``--trace 0`` sets the workload up, then runs fixed-work repetitions
for ``S`` seconds, the first of them an untimed warm-up, each after
the reference loop (:func:`reference_s`), then times five fresh
set-ups in new interpreters (``--setup-probe``) for ``setup_s``.
``--trace 1`` alternates untraced and traced repetitions instead and
writes the spans to ``perf/results/trace-NAME.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if __name__ == "__main__":
    # Running as a script puts perf/ first on the path; import the
    # benchmark as the ``perf`` package and the program from src/.
    sys.path[0] = ROOT
    sys.path.insert(1, SRC)

from perf.layers import TARGETS, layer_metrics  # noqa: E402
from perf.spans import (  # noqa: E402
    Tracer,
    wrapper_cost_ns,
    write_chrome_trace,
)
from perf.workloads import WORKLOADS, make_inputs  # noqa: E402

SETUP_PROBES = 5
#: Untimed repetitions run first for at least this long (and at least
#: one), inside the run's ``--seconds``: a fresh process pays one-off
#: costs for its first repetitions (first-touch page faults until the
#: allocator's mmap threshold adapts, lazily built tables), measured
#: at up to 50% on one sample.
WARMUP_S = 2.0
DETAIL_PREFIX = "perf-detail "


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure_setup(name: str, seed: int, count: int) -> list:
    """Seconds from starting a fresh interpreter until workload
    ``name`` is ready for its first repetition, ``count`` times."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
                code = proc.wait(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe of {name} failed (exit {code})")
        samples.append(elapsed)
    return samples


def reference_s() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes now.

    The host's speed drifts by up to 2x in phases from under a second
    to minutes long, so a repetition's wall is reported relative to
    this loop, timed just before it. The loop is the benchmark's own
    code: a change to the program cannot move it. Its parts are the
    kinds of work the workloads do: dictionary updates, sorting,
    streaming over an array larger than the caches (16 MB) and
    allocating many small objects. Together they followed every
    workload's wall more closely than the first two parts alone.
    """
    import numpy as np

    keys = np.random.default_rng(0).integers(0, 1 << 20, 200_000)
    big = np.random.default_rng(1).random(2_000_000)
    start = time.perf_counter()
    counts = {}
    for i in range(40_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    for _ in range(2):
        np.unique(keys, return_counts=True)
        np.argsort(keys, kind="stable")
    for _ in range(8):
        np.add(big, 1.0, out=big)
        big.sum()
    del big
    names = {i: str(i) for i in range(120_000)}
    del names
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Largest max-RSS of this process and its reaped children."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def run_workload(name: str, inputs: dict, seconds: float, trace: bool,
                 workdir: str, seed: int = 0, probes: int = SETUP_PROBES,
                 trace_path: str = None, warmup_s: float = WARMUP_S):
    """Set up workload ``name`` on ``inputs``, then warm up and run
    timed repetitions for ``seconds`` in all, and return ``(values,
    summary, detail)``; ``values`` maps each metric to its value
    (``None`` when missing)."""
    workload = WORKLOADS[name](inputs, workdir)
    tracer = Tracer() if trace else None
    untraced, traced = [], []

    def rep(traced_rep: bool = False):
        # Every repetition starts from a collected heap, so garbage
        # left by the previous one is not charged to it.
        gc.collect()
        ref = reference_s()
        if not traced_rep:
            result = workload.rep()
        else:
            tracer.run = len(traced)
            tracer.install(TARGETS)
            try:
                result = workload.rep()
            finally:
                tracer.uninstall()
        result.ref_s = ref
        return result

    start = time.perf_counter()
    workload.setup()
    main_setup_s = time.perf_counter() - start
    try:
        warmups = []
        start = time.perf_counter()
        while not warmups or time.perf_counter() - start < warmup_s:
            warmups.append(rep())  # outputs checked all the same
        last = time.perf_counter()
        while True:
            if tracer is None or len(untraced) <= len(traced):
                untraced.append(rep())
            else:
                traced.append(rep(traced_rep=True))
            now = time.perf_counter()
            # Stop when another repetition like the last would overrun.
            if (now + (now - last) - start > seconds
                    and (tracer is None or traced)):
                break
            last = now
    finally:
        workload.close()

    reps = warmups + untraced + traced
    kinds = (["warmup"] * len(warmups) + ["untraced"] * len(untraced)
             + ["traced"] * len(traced))
    detail = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "op": workload.op, "inputs": inputs,
        "main_setup_s": main_setup_s,
        "reps": [dict(kind=kind, wall_s=r.wall_s, ref_s=r.ref_s, ops=r.ops,
                      ops_per_s=r.ops_per_s, attempted=r.attempted,
                      failed=r.failed, **r.extras)
                 for kind, r in zip(kinds, reps)],
    }
    if tracer is None:
        rss = peak_rss_mb()
        samples = measure_setup(name, seed, probes) if probes else []
        detail["setup_samples_s"] = samples
        values = {
            "setup_s": statistics.median(samples) if samples else None,
            "wall_rel": statistics.median(r.wall_rel for r in untraced),
            "peak_rss_mb": rss,
        }
    else:
        spans = tracer.spans
        values = layer_metrics(name, traced, untraced, spans, tracer.counts,
                               workload.setup_extras, tracer.missing,
                               span_cost_ns=wrapper_cost_ns())
        detail["missing_targets"] = tracer.missing
        if trace_path:
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            write_chrome_trace(spans, trace_path, metadata={
                "workload": name, "seed": seed,
                "traced_reps": len(traced)})
            detail["trace_file"] = os.path.relpath(trace_path, ROOT)
    failed = sum(r.failed for r in reps)
    summary = {"correct": failed == 0,
               "attempted": sum(r.attempted for r in reps),
               "failed": failed}
    return values, summary, detail


def _table(values: dict, units: dict) -> str:
    lines = []
    for metric, unit in units.items():
        value = values.get(metric)
        shown = "missing" if value is None else f"{value:.6g}"
        lines.append(f"  {metric:<34} {shown:>14} {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perf: the program is missing ({SRC}/repro); run from a "
              f"full checkout", file=sys.stderr)
        return 2
    # The program receives only the generated inputs: no knob from the
    # caller's environment may change what it runs.
    stripped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in stripped:
        del os.environ[key]
    workdir = os.path.join(ROOT, ".perf_work", str(os.getpid()))
    os.makedirs(workdir)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    inputs = make_inputs(args.workload, args.seed)
    try:
        if args.setup_probe:
            workload = WORKLOADS[args.workload](inputs, workdir)
            workload.setup()
            print("ready", flush=True)
            workload.close()
            return 0
        benchmark = load_benchmark()
        declared = benchmark["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        trace_path = os.path.join(ROOT, "perf", "results",
                                  f"trace-{args.workload}.json")
        values, summary, detail = run_workload(
            args.workload, inputs, args.seconds, bool(args.trace), workdir,
            seed=args.seed, trace_path=trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy

    missing = sorted(m for m in units if values.get(m) is None)
    detail.update(stripped_env=stripped, missing=missing,
                  python=platform.python_version(),
                  numpy=numpy.__version__, cpu_count=os.cpu_count())
    summary["metrics"] = {
        m: {"value": values.get(m) or 0.0, "unit": u}
        for m, u in units.items()}
    print(f"perf: {args.workload} seed {args.seed}: "
          f"{summary['attempted']} checked, {summary['failed']} failed\n"
          + _table(values, units), file=sys.stderr)
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
