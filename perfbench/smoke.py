"""Smoke test of the benchmark.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and checks that the result line is correct and names every declared metric
with its unit and a numeric value. Then checks that the benchmark fails
without printing a result in a directory that holds only BENCHMARK.json
and perfbench/. Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORK


def run(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check(bench: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result.get("correct") and result.get("failed") == 0
            and result.get("attempted", 0) >= 1):
        problems.append(f"{where}: not correct: {proc.stderr.strip()}")
    metrics = result.get("metrics", {})
    for m in bench["per_layer" if trace else "end_to_end"]:
        got = metrics.get(m["name"])
        if not (isinstance(got, dict) and got.get("unit") == m["unit"]
                and isinstance(got.get("value"), (int, float))):
            problems.append(f"{where}: metric {m['name']} is {got!r}")
    return problems


def check_bare() -> list[str]:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "crossval-votes10", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["without sources: the benchmark printed a result or exited 0"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare()
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems += check(bench, w["name"], trace)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
