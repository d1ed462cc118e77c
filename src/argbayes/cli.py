"""Command-line entry point.

Subcommands: semantics, posterior, gibbs, predict, crossval, synth, demo.
Exit codes: 0 success, 1 usage error (an unknown or missing flag, a bad
--train-sizes) or failed demo check, 2 data/schema/config error, including a
bad value of any config flag, 3 capacity error, 4 degenerate evidence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io
from .af import SEMANTICS, extensions
from .demo import DEMO_CASES, run_demo
from .errors import ArgBayesError
from .gibbs import convergence_trace, run_gibbs
from .harness import SplitPlan, cross_validate, synthetic_experiment
from .inference import AttackVariableSpace, exact_posterior, posterior_predictive
from .model import FAMILIES


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}") from None


def _format_subset(mask: int, names) -> str:
    return "{" + ", ".join(name for i, name in enumerate(names) if mask >> i & 1) + "}"


def _one_of(values) -> str:
    return "{" + ",".join(values) + "}"


def _add_model_flags(p):
    p.add_argument("--config", help="flat key = value configuration file")
    p.add_argument("--semantics", metavar=_one_of(SEMANTICS))
    p.add_argument("--family", metavar=_one_of(FAMILIES))
    p.add_argument("--w")
    p.add_argument("--lambda", help="prior: one value or comma list")
    p.add_argument("--mode", metavar=_one_of(io.SPACE_MODES))
    p.add_argument("--convention", metavar=_one_of(io.CONVENTION_MODES))


def _add_gibbs_flags(p):
    p.add_argument("--iterations")
    p.add_argument("--burn-in")
    p.add_argument("--seed")
    p.add_argument("--chains")


def _resolve_run_config(args) -> io.RunConfig:
    base = io.load_config(args.config) if args.config else io.RunConfig()
    flags = {k: v for k, v in vars(args).items() if k in io.CONFIG_KEYS and v is not None}
    return io.resolve_config(flags, base)


def _load_observation_space(args, run: io.RunConfig):
    obs, names = io.load_votes(args.votes, run.convention)
    space = AttackVariableSpace.create(len(names), mode=run.mode, priors=run.priors)
    return obs, names, space


def _cmd_semantics(args) -> int:
    af = io.load_framework(args.framework)
    names = af.names or tuple(str(i) for i in range(af.n))
    for ext in extensions(af, args.semantics or io.RunConfig().model.semantics):
        print(_format_subset(ext, names))
    return 0


def _cmd_posterior(args) -> int:
    run = _resolve_run_config(args)
    obs, names, space = _load_observation_space(args, run)
    post = exact_posterior(obs, space, run.model)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    io.save_posterior(out_dir / "posterior.csv", post)
    print(f"wrote {out_dir / 'posterior.csv'} "
          f"({len(post.entries)} assignments over {len(names)} arguments)")
    return 0


def _cmd_gibbs(args) -> int:
    run = _resolve_run_config(args)
    obs, names, space = _load_observation_space(args, run)
    print(f"seed = {run.gibbs.seed}")
    hist = run_gibbs(obs, space, run.model, run.gibbs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    post = hist.to_posterior()
    io.save_posterior(out_dir / "histogram.csv", post)
    trace = convergence_trace(hist)
    io.save_table(out_dir / "trace.csv", ["iteration", "distinct_assignments"],
                  [[i + 1, v] for i, v in enumerate(trace)])
    print(f"wrote {out_dir / 'histogram.csv'} and {out_dir / 'trace.csv'}")
    return 0


def _cmd_predict(args) -> int:
    run = _resolve_run_config(args)
    obs, names, space = _load_observation_space(args, run)
    post = io.load_posterior(args.posterior, kind="exact")
    rows = []
    for o in obs:
        p1 = posterior_predictive(o.subset, post, space, run.model)
        rows.append([_format_subset(o.subset, names), o.label, p1])
        print(f"{_format_subset(o.subset, names)}\tlabel={o.label}\tp(acceptable)={p1:.6f}")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        io.save_table(out_dir / "predictions.csv",
                      ["subset", "label", "p_acceptable"], rows)
    return 0


def _cmd_crossval(args) -> int:
    run = _resolve_run_config(args)
    obs, names, space = _load_observation_space(args, run)
    plan = SplitPlan(seed=run.gibbs.seed, train_sizes=args.train_sizes,
                     repeats_per_size=args.repeats)
    print(f"seed = {plan.seed}")
    points = cross_validate(obs, plan, space, run.model, run.gibbs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    io.save_table(out_dir / "learning_curve.csv",
                  ["train_size", "mean_accuracy", "stddev"],
                  [[p.train_size, p.mean_accuracy, p.stddev] for p in points])
    for p in points:
        print(f"train_size={p.train_size}\tmean_accuracy={p.mean_accuracy:.4f}"
              f"\tstddev={p.stddev:.4f}")
    return 0


def _cmd_synth(args) -> int:
    run = _resolve_run_config(args)
    af = io.load_framework(args.framework) if args.framework else None
    space = AttackVariableSpace.create(args.n_args if af is None else af.n,
                                       mode=run.mode, priors=run.priors)
    if af is None:
        rng = np.random.default_rng(run.gibbs.seed)
        truth = tuple(int(b) for b in rng.integers(0, 2, size=len(space.variables)))
    else:
        truth = space.assignment_from_attacks(af.attacks)
    print(f"seed = {run.gibbs.seed}")
    report = synthetic_experiment(truth, space, run.model, args.n_obs,
                                  run.gibbs, seed=run.gibbs.seed)
    print(f"true assignment        = {''.join(map(str, report.true_assignment))}")
    print(f"posterior mass on truth = {report.posterior_mass_on_truth:.6f}")
    print(f"MAP Hamming distance    = {report.map_hamming_distance}")
    print(f"predictive accuracy     = {report.predictive_accuracy:.4f}")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        io.save_table(out_dir / "recovery.csv",
                      ["true_assignment", "posterior_mass_on_truth",
                       "map_hamming_distance", "predictive_accuracy", "n_obs"],
                      [["".join(map(str, report.true_assignment)),
                        report.posterior_mass_on_truth,
                        report.map_hamming_distance,
                        report.predictive_accuracy, report.n_obs]])
    return 0


def _cmd_demo(args) -> int:
    lines, ok = run_demo(args.case)
    for line in lines:
        print(line.render())
    return 0 if ok else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="argbayes",
                     description="Bayesian direct and inverse inference over "
                                 "abstract argumentation frameworks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semantics", help="enumerate extensions of a framework file")
    p.add_argument("--framework", required=True)
    p.add_argument("--semantics", metavar=_one_of(SEMANTICS))
    p.set_defaults(func=_cmd_semantics)

    p = sub.add_parser("posterior", help="exact posterior over attack assignments")
    p.add_argument("--votes", required=True)
    _add_model_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("gibbs", help="approximate posterior via Gibbs sampling")
    p.add_argument("--votes", required=True)
    _add_model_flags(p)
    _add_gibbs_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_gibbs)

    p = sub.add_parser("predict", help="score subsets with the posterior predictive")
    p.add_argument("--votes", required=True, help="subsets to score")
    p.add_argument("--posterior", required=True, help="posterior CSV")
    _add_model_flags(p)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("crossval", help="cross-validation learning curve")
    p.add_argument("--votes", required=True)
    _add_model_flags(p)
    _add_gibbs_flags(p)
    p.add_argument("--train-sizes", required=True, type=_int_list,
                   help="comma list of sizes")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_crossval)

    p = sub.add_parser("synth", help="synthetic ground-truth recovery experiment")
    _add_model_flags(p)
    _add_gibbs_flags(p)
    p.add_argument("--n-args", type=int, default=3)
    p.add_argument("--n-obs", type=int, default=50)
    p.add_argument("--framework", help="use this framework as the ground truth")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("demo", help="check the built-in worked examples")
    p.add_argument("--case", choices=sorted(DEMO_CASES))
    p.set_defaults(func=_cmd_demo)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return int(e.code or 0)
    except ArgBayesError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


def main() -> None:
    sys.exit(run())
