"""Benchmark of argbayes: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports argbayes from ``src/``. Each
repetition runs in a fresh single-threaded interpreter (perfbench/worker.py),
one at a time, so every repetition pays the cold caches a CLI invocation
pays. Repetitions continue until S seconds have passed and a minimum number
has run. Repetition r uses recorded input set (N + r) mod K, where K is the
number of input sets in perfbench/refs/; every unit's output is checked
against that reference.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
layer metrics of BENCHMARK.json with ``--trace 1``. A traced run alternates
untraced and traced repetitions on the same input sets and reports the
tracing overhead as ``trace.overhead_s``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# Fewest repetitions of an untraced run. The request-latency tail is the
# percentile with ten requests beyond it in this many repetitions, so the
# reported percentile does not depend on how fast the code runs.
MIN_REPS = {"crossval-votes10": 3, "exact-directed4": 12, "semantics-random": 3}
MIN_TRACED_PAIRS = 2
TAIL_BEYOND = 10
# No repetition starts after this many seconds, and a worker still running
# at KILL_AFTER_S is killed, so that a run ends within three minutes.
LAST_START_S = 120.0
KILL_AFTER_S = 170.0
WORKER_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(workload: str, input_set: int, flags: list[str],
          kill_at: float) -> tuple[float, dict | None]:
    """Run one worker; return its set-up seconds and its report (None if it
    failed). Set-up runs from the spawn to the worker's READY line."""
    work_dir = WORK / f"work-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--input-set", str(input_set), "--work-dir", str(work_dir), *flags]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **WORKER_ENV})
    killer = threading.Timer(max(kill_at - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    if ready.strip() != "READY" or proc.returncode != 0 or not lines:
        print(f"perfbench: {workload} input set {input_set} exited with "
              f"code {proc.returncode}", file=sys.stderr)
        return setup_s, None
    return setup_s, json.loads(lines[-1])


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} "
            f"python={platform.python_version()} numpy={metadata.version('numpy')}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few units per repetition, one repetition minimum "
                         "(smoke test)")
    args = ap.parse_args()

    refs = HERE / "refs" / f"{args.workload}.json"
    if args.workload not in MIN_REPS or not refs.is_file():
        ap.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "argbayes" / "__init__.py").is_file():
        print(f"perfbench: no argbayes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    n_sets = len(json.loads(refs.read_text())["sets"])
    print(f"perfbench: machine {machine()}")

    t0 = time.monotonic()
    kill_at = t0 + KILL_AFTER_S
    min_reps = 1 if args.tiny else (
        MIN_TRACED_PAIRS if args.trace else MIN_REPS[args.workload])
    flags = ["--tiny"] if args.tiny else []
    plain, traced, setups = [], [], []
    attempted = failed = 0
    rep = 0
    # After the minimum, start another repetition only if it is expected to
    # end within the measuring time.
    while rep < min_reps or (time.monotonic() - t0) * (rep + 1) / rep <= args.seconds:
        if time.monotonic() - t0 > LAST_START_S:
            break
        input_set = (args.seed + rep) % n_sets
        runs = [(plain, flags)] + ([(traced, flags + ["--trace"])] if args.trace else [])
        for sink, fl in runs:
            setup_s, report = spawn(args.workload, input_set, fl, kill_at)
            if report is None:
                attempted += 1
                failed += 1
                continue
            setups.append(setup_s)
            attempted += report["attempted"]
            failed += report["failed"]
            for err in report["errors"]:
                print(f"perfbench: input set {input_set}: {err}", file=sys.stderr)
            sink.append(report)
        rep += 1
    if not plain or (args.trace and not traced):
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1

    med = statistics.median
    if args.trace:
        samples: dict[str, list[float]] = {}
        for report in traced:
            for name, v in report["layers"].items():
                samples.setdefault(name, []).append(v)
        values = {name: med(vs) for name, vs in samples.items()
                  if len(vs) == len(traced)}
        values["trace.overhead_s"] = (med(r["run_s"] for r in traced)
                                      - med(r["run_s"] for r in plain))
        WORK.mkdir(exist_ok=True)
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps([r["spans"] for r in traced], indent=1))
        print(f"perfbench: span tables of {len(traced)} traced repetitions "
              f"written to {spans.relative_to(ROOT)}")
        declared = bench["per_layer"]
    else:
        latencies = [x for r in plain for x in r["latencies_ms"]]
        n_min = min_reps * plain[0]["attempted"]
        tail_p = max(50.0, 100.0 * (1 - TAIL_BEYOND / n_min))
        values = {
            "setup_s": med(setups),
            "run_s": med(r["run_s"] for r in plain),
            "run_cpu_s": med(r["run_cpu_s"] for r in plain),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
            "throughput_per_s": med(r["work"] / r["run_s"] for r in plain),
            "request_ms_p50": percentile(latencies, 50),
            "request_ms_tail": percentile(latencies, tail_p),
            "ok_ratio": (attempted - failed) / attempted,
        }
        print(f"perfbench: request_ms_tail is p{tail_p:.2f} of "
              f"{len(latencies)} requests pooled over {len(plain)} repetitions")
        declared = bench["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: missing metrics: {', '.join(missing)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
