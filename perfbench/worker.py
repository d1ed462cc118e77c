"""One timed repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --input-set I [--trace]
                                [--tiny] [--record] --work-dir DIR

Imports argbayes from the checkout's ``src/``, builds the inputs of input
set I, prints ``READY`` (the parent times set-up up to this line), runs every
unit of work once while timing it, and prints one JSON line: timings, peak
memory, the number of units that raised or mismatched the recorded
reference, and with ``--trace`` the layer metrics and the span table. With
``--record`` it prints the unit outputs instead of checking them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"

# Floats are compared with this tolerance, so that a change that reorders a
# sum (for example a vectorised reduction) is not counted as a failure.
# Integers and strings are compared exactly.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# crossval-votes10: one `argbayes crossval` request per train size, one
# repeat each, plus one `argbayes gibbs` request on all observations.
CROSSVAL_SWEEPS = 5
GIBBS_SWEEPS, GIBBS_BURN_IN = 10, 2
TRAIN_SIZES = range(24)

# exact-directed4: requests per repetition and observations per request.
# Few requests per repetition give many short repetitions in a run, so the
# median spans most input sets and outlasts short slowdowns of the host.
EXACT_ARGS = 4
EXACT_REQUESTS = 3
EXACT_OBS = 20
EXACT_LABEL_P = 0.75

# semantics-random: frameworks per repetition; argument counts cycle over
# 8..16 and modes alternate; the attack probability per pair is drawn per
# framework from one of DENSITY_STRATA equal slices of these ranges, in turn,
# so every repetition holds the same mix of sparse and dense frameworks
# (the mix repeats every 90 frameworks). Repetitions are short, so that one
# run goes through every input set.
# Sparse symmetric frameworks have thousands of admissible sets, which the
# preferred semantics compares pairwise; these ranges keep that below ~3000.
FRAMEWORKS = 360
DIRECTED_DENSITY = (0.10, 0.30)
SYMMETRIC_DENSITY = (0.25, 0.45)
DENSITY_STRATA = 5

# Units kept by --tiny (a prefix of each repetition, so references still apply).
TINY_UNITS = {"crossval-votes10": 4, "exact-directed4": 2, "semantics-random": 18}


def _run_cli(argv):
    from argbayes import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as f:
        return list(csv.reader(f))[1:]


def crossval_votes10(input_set: int, work_dir: Path):
    """Units: `argbayes gibbs`, then `argbayes crossval` per train size.

    The split-plan seed (the CLI ``--seed``) is the input set."""
    data = SRC / "argbayes" / "data"
    votes, config = str(data / "synthetic_votes.csv"), str(data / "experiment.cfg")
    with open(votes, newline="") as f:
        n_args = len(next(csv.reader(f))) - 1
    free = n_args * (n_args - 1) // 2
    common = ["--votes", votes, "--config", config, "--seed", str(input_set)]
    units = []

    def gibbs_output(rc, out):
        kept = GIBBS_SWEEPS - GIBBS_BURN_IN
        hist = sorted([a, round(float(p) * kept)]
                      for a, p in _read_csv(out / "histogram.csv"))
        trace = [int(v) for _, v in _read_csv(out / "trace.csv")]
        return {"rc": rc, "histogram": hist,
                "new_flags": [b - a for a, b in zip([0] + trace, trace)]}

    def curve_output(rc, out):
        (size, mean, std), = _read_csv(out / "learning_curve.csv")
        return {"rc": rc, "train_size": int(size),
                "mean_accuracy": float(mean), "stddev": float(std)}

    def unit(argv, fmt, work):
        out = work_dir / f"u{len(units)}"
        argv = [*argv, *common, "--out-dir", str(out)]
        units.append((lambda: _run_cli(argv), lambda rc: fmt(rc, out), work))

    # work: Gibbs single-site updates (sweeps x free variables)
    unit(["gibbs", "--iterations", str(GIBBS_SWEEPS),
          "--burn-in", str(GIBBS_BURN_IN)], gibbs_output, GIBBS_SWEEPS * free)
    for size in TRAIN_SIZES:
        unit(["crossval", "--train-sizes", str(size), "--repeats", "1",
              "--iterations", str(CROSSVAL_SWEEPS), "--burn-in", "0"],
             curve_output, CROSSVAL_SWEEPS * free)
    return units


def exact_directed4(input_set: int, work_dir: Path):
    """Units: exact posterior, MAP, one sequential update and the predictive
    of all subsets, for seeded observations on a directed 4-argument space."""
    import numpy as np
    from argbayes import inference
    from argbayes.model import ModelConfig

    rng = np.random.default_rng([4, input_set])
    space = inference.AttackVariableSpace.create(EXACT_ARGS, mode="directed")
    cfg = ModelConfig(semantics="complete", family="exponential", w=2.0)
    n_sub = 1 << EXACT_ARGS
    probes = np.random.default_rng(2019).random((3, 1 << len(space.variables)))

    def observation():
        return inference.Observation(int(rng.integers(0, n_sub)),
                                     int(rng.random() < EXACT_LABEL_P))

    def request(obs, extra):
        post = inference.exact_posterior(obs, space, cfg)
        best = inference.map_estimate(obs, space, cfg)
        post2 = inference.sequential_update(post, extra, space, cfg)
        pred = [inference.posterior_predictive(e, post2, space, cfg)
                for e in range(n_sub)]
        return post, best, post2, pred

    def summary(post):
        p = np.array([post.entries[a] for a in sorted(post.entries)])
        return [float(x) for x in probes @ p] + [float(p.max())]

    def output(result):
        post, best, post2, pred = result
        return {"map": ["".join(map(str, a)) for a in best],
                "posterior": summary(post), "updated": summary(post2),
                "predictive": pred}

    # work: assignments scored (posterior, MAP, update, 2^n predictive)
    work = (3 + n_sub) * (1 << len(space.free_indices))
    units = []
    for _ in range(EXACT_REQUESTS):
        obs = inference.merge_observations([observation() for _ in range(EXACT_OBS)])
        extra = observation()
        units.append((lambda o=obs, x=extra: request(o, x), output, work))
    return units


def semantics_random(input_set: int, work_dir: Path):
    """Units: extensions of one distinct random framework under all four
    semantics."""
    import numpy as np
    from argbayes import af

    rng = np.random.default_rng([16, input_set])
    seen = set()
    frameworks = []
    while len(frameworks) < FRAMEWORKS:
        k = len(frameworks)
        n, symmetric = 8 + k % 9, k % 2 == 1
        lo, hi = SYMMETRIC_DENSITY if symmetric else DIRECTED_DENSITY
        stratum = (k // 18 + rng.random()) % DENSITY_STRATA
        p = lo + (hi - lo) * stratum / DENSITY_STRATA
        drawn = np.argwhere(rng.random((n, n)) < p).tolist()
        pairs = [(a, b) for a, b in drawn if (a < b if symmetric else a != b)]
        key = (n, symmetric, tuple(pairs))
        if key not in seen:
            seen.add(key)
            frameworks.append(af.ArgumentationFramework.from_pairs(
                n, pairs, symmetric=symmetric))

    def output(exts):
        """Extension count per semantics, then a digest of every extension
        mask as plain integers."""
        masks = json.dumps([[int(m) for m in e] for e in exts])
        return ([len(e) for e in exts]
                + [hashlib.blake2b(masks.encode(), digest_size=4).hexdigest()])

    # work: one framework
    return [(lambda fw=fw: tuple(af.extensions(fw, s) for s in af.SEMANTICS),
             output, 1)
            for fw in frameworks]


WORKLOADS = {
    "crossval-votes10": crossval_votes10,
    "exact-directed4": exact_directed4,
    "semantics-random": semantics_random,
}


def same(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same(g, w) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(same(got[k], want[k]) for k in want))
    return got == want


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--input-set", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import argbayes
    if Path(argbayes.__file__).resolve().parent != SRC / "argbayes":
        raise SystemExit(f"argbayes imported from {argbayes.__file__}, not {SRC}")
    work_dir = Path(args.work_dir)
    units = WORKLOADS[args.workload](args.input_set, work_dir)
    if args.tiny:
        units = units[:TINY_UNITS[args.workload]]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    print("READY", flush=True)

    results, latencies = [], []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for call, _, _ in units:
        t0 = time.perf_counter()
        try:
            results.append(tracer.call("request", call) if tracer else call())
        except Exception as e:  # a unit that raises counts as failed
            results.append(e)
        latencies.append((time.perf_counter() - t0) * 1e3)
    run_s = time.perf_counter() - wall0
    run_cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs, errors = [], []
    for i, ((_, fmt, _), r) in enumerate(zip(units, results)):
        if isinstance(r, Exception):
            outputs.append(None)
            errors.append(f"unit {i} raised {type(r).__name__}: {r}")
            continue
        try:
            outputs.append(fmt(r))
        except (OSError, ValueError) as e:
            outputs.append(None)
            errors.append(f"unit {i} output unreadable: {e}")
    if args.record:
        if errors:
            raise SystemExit("; ".join(errors))
        print(json.dumps({"outputs": outputs}))
        return 0

    refs = json.loads((REFS / f"{args.workload}.json").read_text())["sets"]
    want = refs[args.input_set]
    for i, got in enumerate(outputs):
        if got is not None and not (i < len(want) and same(got, want[i])):
            ref = want[i] if i < len(want) else None
            errors.append(f"unit {i} output {json.dumps(got)[:300]} differs "
                          f"from the reference {json.dumps(ref)[:300]}")
    report = {
        "run_s": run_s, "run_cpu_s": run_cpu_s, "peak_rss_mb": peak_rss_mb,
        "latencies_ms": latencies, "work": sum(w for _, _, w in units),
        "attempted": len(units), "failed": len(errors), "errors": errors[:5],
    }
    if tracer:
        report["layers"] = tracer.metrics()
        report["spans"] = tracer.span_table()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
