"""Experiment harness: cross-validation learning curves, synthetic
ground-truth recovery, and Gibbs convergence studies.

Held-out scoring follows the accuracy reading of the linear parameter:
an observation labelled 1 contributes its posterior predictive probability,
a label-0 observation contributes the complement, and the report is the
weighted mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import af, inference
from .errors import PlanError
from .gibbs import GibbsConfig, SampleHistogram, convergence_trace, run_gibbs
from .inference import (
    AttackVariableSpace,
    Assignment,
    Observation,
    PosteriorDistribution,
    exact_posterior,
    map_estimate,
    merge_observations,
    posterior_predictive,
    subset_thetas,
)
from .model import ModelConfig


@dataclass(frozen=True)
class SplitPlan:
    seed: int
    train_sizes: tuple[int, ...]
    repeats_per_size: int = 10

    def __post_init__(self):
        if self.seed < 0:
            raise PlanError(f"seed must be nonnegative, got {self.seed}")
        if self.repeats_per_size < 1:
            raise PlanError("repeats_per_size must be at least 1")
        if any(s < 0 for s in self.train_sizes):
            raise PlanError("train sizes must be nonnegative")


@dataclass(frozen=True)
class LearningCurvePoint:
    train_size: int
    mean_accuracy: float
    stddev: float


def predictive_score(test: list[Observation], post: PosteriorDistribution,
                     space: AttackVariableSpace, cfg: ModelConfig) -> float:
    """Weighted mean per-observation accuracy under the prediction family."""
    total = 0.0
    weight = 0
    for o in test:
        p1 = posterior_predictive(o.subset, post, space, cfg)
        total += o.weight * (p1 if o.label == 1 else 1.0 - p1)
        weight += o.weight
    return total / weight if weight else 0.0


def _use_exact(space: AttackVariableSpace, method: str) -> bool:
    """Method "exact", or "auto" with few enough free variables to enumerate."""
    return method == "exact" or (method == "auto"
                                 and len(space.free_indices) <= inference.EXACT_CAP)


def _infer(train: list[Observation], space: AttackVariableSpace, cfg: ModelConfig,
           g: GibbsConfig, method: str) -> PosteriorDistribution:
    if _use_exact(space, method):
        return exact_posterior(train, space, cfg)
    return run_gibbs(train, space, cfg, g).to_posterior()


def cross_validate(dataset: list[Observation], plan: SplitPlan,
                   space: AttackVariableSpace, cfg: ModelConfig,
                   g: GibbsConfig, method: str = "auto") -> list[LearningCurvePoint]:
    """Seeded train/test splits per (size, repeat) cell; mean and unbiased
    stddev of the held-out accuracy per train size."""
    if not dataset:
        raise PlanError("dataset is empty")
    if any(s >= len(dataset) for s in plan.train_sizes):
        raise PlanError("train sizes must be smaller than the dataset")
    streams = np.random.SeedSequence(plan.seed).spawn(
        len(plan.train_sizes) * plan.repeats_per_size)
    points = []
    cell = 0
    for size in plan.train_sizes:
        scores = []
        for _ in range(plan.repeats_per_size):
            rng = np.random.default_rng(streams[cell])
            gibbs_seed = int(rng.integers(0, 2**63))
            idx = rng.choice(len(dataset), size=size, replace=False)
            chosen = set(int(i) for i in idx)
            train = merge_observations([dataset[i] for i in sorted(chosen)])
            test = [o for i, o in enumerate(dataset) if i not in chosen]
            post = _infer(train, space, cfg, replace(g, seed=gibbs_seed), method)
            scores.append(predictive_score(test, post, space, cfg))
            cell += 1
        mean = float(np.mean(scores))
        std = float(np.std(scores, ddof=1)) if len(scores) > 1 else 0.0
        points.append(LearningCurvePoint(size, mean, std))
    return points


def sample_observations(true_att: Assignment, space: AttackVariableSpace,
                        cfg: ModelConfig, n_obs: int, rng) -> list[Observation]:
    """Generative draws: subset d uniform over all 2^n subsets, label from
    Bernoulli(theta_{d|truth}). No draws means no enumeration."""
    if not n_obs:
        return []
    n = space.n_args
    thetas = subset_thetas(true_att, space, cfg).tolist()
    obs = []
    for _ in range(n_obs):
        d = int(rng.integers(0, 1 << n))
        label = 1 if rng.random() < thetas[d] else 0
        obs.append(Observation(d, label))
    return obs


def sample_participant_votes(true_att: Assignment, space: AttackVariableSpace,
                             cfg: ModelConfig, n_participants: int,
                             flip_prob: float, rng) -> list[Observation]:
    """Vote-matrix-shaped data: each participant picks an extension of the
    true framework uniformly and flips each cell independently."""
    exts = af.extensions_for_attacks(space.n_args, space.attacks_of(true_att),
                                     cfg.semantics)
    n = space.n_args
    obs = []
    for _ in range(n_participants):
        e = exts[int(rng.integers(0, len(exts)))] if exts else 0
        noisy = e
        for a in range(n):
            if rng.random() < flip_prob:
                noisy ^= 1 << a
        obs.append(Observation(noisy, 1))
    return obs


@dataclass(frozen=True)
class RecoveryReport:
    true_assignment: Assignment
    posterior_mass_on_truth: float
    map_hamming_distance: int
    predictive_accuracy: float
    n_obs: int


def synthetic_experiment(true_att: Assignment, space: AttackVariableSpace,
                         cfg: ModelConfig, n_obs: int, g: GibbsConfig,
                         seed: int, n_test: int = 50,
                         method: str = "auto") -> RecoveryReport:
    """Sample from the generative model, infer, and report recovery metrics."""
    if n_obs < 0:
        raise PlanError(f"n_obs must be nonnegative, got {n_obs}")
    rng = np.random.default_rng(seed)
    train = merge_observations(
        sample_observations(true_att, space, cfg, n_obs, rng))
    test = merge_observations(
        sample_observations(true_att, space, cfg, n_test, rng))
    post = _infer(train, space, cfg, g, method)
    if _use_exact(space, method):
        best = map_estimate(train, space, cfg)[0]
    else:
        best = max(post.entries, key=lambda a: (post.entries[a], a))
    hamming = sum(x != y for x, y in zip(best, true_att))
    return RecoveryReport(
        true_assignment=true_att,
        posterior_mass_on_truth=post.prob(true_att),
        map_hamming_distance=hamming,
        predictive_accuracy=predictive_score(test, post, space, cfg),
        n_obs=n_obs,
    )


@dataclass
class ConvergenceStudy:
    traces: dict[int, list[int]] = field(default_factory=dict)
    distinct_counts: dict[int, int] = field(default_factory=dict)

    @property
    def plateau_ok(self) -> bool:
        """Distinct assignments at the largest training size do not exceed
        the count with no training data."""
        if not self.distinct_counts:
            return True
        sizes = sorted(self.distinct_counts)
        return self.distinct_counts[sizes[-1]] <= self.distinct_counts[sizes[0]]


def convergence_study(dataset: list[Observation], train_sizes: list[int],
                      space: AttackVariableSpace, cfg: ModelConfig,
                      g: GibbsConfig) -> ConvergenceStudy:
    """Gibbs run per training size (seeded subsample of the dataset);
    records the distinct-assignment trace of each run."""
    study = ConvergenceStudy()
    for size in sorted(train_sizes):
        rng = np.random.default_rng(np.random.SeedSequence((g.seed, size)))
        if size > len(dataset):
            raise PlanError(f"train size {size} exceeds dataset size {len(dataset)}")
        idx = rng.choice(len(dataset), size=size, replace=False)
        train = merge_observations([dataset[int(i)] for i in sorted(idx)])
        hist = run_gibbs(train, space, cfg, g)
        trace = convergence_trace(hist)
        study.traces[size] = trace
        study.distinct_counts[size] = trace[-1] if trace else 0
    return study
