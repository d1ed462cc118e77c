"""Exact Bayesian inference over attack assignments.

An attack variable space fixes the ordered list of attack variables (one per
directed or unordered argument pair), a Bernoulli prior per variable, and
optional clamps for edges known in advance. An assignment is a tuple with one
bit per variable; clamped bits always carry their clamp value, so the known
part of the relation and the inferred part share one code path.

All likelihood accumulation happens in log space; impossible factors are
-inf and surface as zero posterior mass.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .errors import CapacityError, DegenerateEvidenceError, InputError

#: Largest number of free variables exact enumeration will accept (2^k states).
EXACT_CAP = 20

Assignment = tuple[int, ...]


@dataclass(frozen=True)
class Observation:
    """One acceptability datum: a subset mask, its 0/1 label, and a
    repetition weight for merged duplicates."""

    subset: int
    label: int
    weight: int = 1

    def __post_init__(self):
        if self.label not in (0, 1):
            raise InputError(f"label must be 0 or 1, got {self.label}")
        if self.weight < 1:
            raise InputError(f"weight must be positive, got {self.weight}")


def merge_observations(obs: list[Observation]) -> list[Observation]:
    """Accumulate weights of identical (subset, label) pairs, keeping first-seen order."""
    acc: dict[tuple[int, int], int] = {}
    for o in obs:
        key = (o.subset, o.label)
        acc[key] = acc.get(key, 0) + o.weight
    return [Observation(s, l, w) for (s, l), w in acc.items()]


@dataclass(frozen=True)
class AttackVariableSpace:
    n_args: int
    mode: str  # "directed" | "symmetric"
    variables: tuple[tuple[int, int], ...]
    priors: tuple[float, ...]
    clamps: tuple[tuple[int, int], ...] = ()  # (variable index, forced bit)

    @classmethod
    def create(cls, n_args: int, mode: str = "symmetric",
               priors: float | list[float] | tuple[float, ...] = 0.5,
               clamps: dict[int, int] | None = None,
               include_self_loops: bool = False) -> "AttackVariableSpace":
        if n_args < 0:
            raise InputError(f"argument count n_args must be nonnegative, got {n_args}")
        if mode == "directed":
            variables = tuple((i, j) for i in range(n_args) for j in range(n_args)
                              if include_self_loops or i != j)
        elif mode == "symmetric":
            variables = tuple((i, j) for i in range(n_args) for j in range(i + 1, n_args))
        else:
            raise InputError(f"unknown variable-space mode {mode!r}")
        if isinstance(priors, (int, float)):
            priors = (float(priors),) * len(variables)
        else:
            priors = tuple(float(x) for x in priors)
        if len(priors) != len(variables):
            raise InputError(
                f"{len(priors)} priors given for {len(variables)} variables")
        for lam in priors:
            if not 0.0 <= lam <= 1.0:
                raise InputError(f"prior {lam} outside [0,1]")
        clamp_items = tuple(sorted((clamps or {}).items()))
        for idx, bit in clamp_items:
            if not 0 <= idx < len(variables):
                raise InputError(f"clamp index {idx} out of range")
            if bit not in (0, 1):
                raise InputError(f"clamp value must be 0 or 1, got {bit}")
        return cls(n_args=n_args, mode=mode, variables=variables,
                   priors=priors, clamps=clamp_items)

    @property
    def clamp_map(self) -> dict[int, int]:
        return dict(self.clamps)

    @property
    def free_indices(self) -> list[int]:
        clamped = {i for i, _ in self.clamps}
        return [i for i in range(len(self.variables)) if i not in clamped]

    def check(self, att: Assignment) -> None:
        if len(att) != len(self.variables):
            raise InputError(
                f"assignment length {len(att)} != variable count {len(self.variables)}")
        for b in att:
            if b not in (0, 1):
                raise InputError(f"assignment bits must be 0 or 1, got {b}")
        for idx, bit in self.clamps:
            if att[idx] != bit:
                raise InputError(
                    f"assignment violates clamp on variable {idx} (must be {bit})")

    def attacks_of(self, att: Assignment) -> tuple[tuple[int, int], ...]:
        """Directed attack pairs realized by an assignment (symmetric pairs expand
        to both directions)."""
        pairs = [p for bit, p in zip(att, self.variables) if bit]
        if self.mode == "symmetric":
            pairs += [(b, a) for a, b in pairs]
        return tuple(sorted(pairs))

    def assignments(self):
        """All assignments consistent with the clamps, lexicographic over free bits."""
        free = self.free_indices
        clamp = self.clamp_map
        base = [clamp.get(i, 0) for i in range(len(self.variables))]
        for bits in itertools.product((0, 1), repeat=len(free)):
            out = list(base)
            for i, b in zip(free, bits):
                out[i] = b
            yield tuple(out)

    def assignment_from_attacks(self, attacks) -> Assignment:
        """Bit encoding of a concrete attack relation."""
        attacks = set(tuple(p) for p in attacks)
        bits = []
        for (a, b) in self.variables:
            if self.mode == "symmetric":
                bits.append(1 if ((a, b) in attacks or (b, a) in attacks) else 0)
            else:
                bits.append(1 if (a, b) in attacks else 0)
        return tuple(bits)


@dataclass(frozen=True)
class PosteriorDistribution:
    """Probability per assignment; ``kind`` distinguishes exact enumeration
    from a Gibbs sample histogram."""

    entries: dict[Assignment, float] = field(default_factory=dict)
    kind: str = "exact"

    def __post_init__(self):
        for p in self.entries.values():
            if p < 0:
                raise InputError("posterior probabilities must be nonnegative")
        total = sum(self.entries.values())
        if self.entries and abs(total - 1.0) > 1e-9:
            raise InputError(f"posterior mass sums to {total}, not 1")

    def prob(self, att: Assignment) -> float:
        return self.entries.get(att, 0.0)


def theta(d: int, att: Assignment, space: AttackVariableSpace,
          cfg: model.ModelConfig, family: str | None = None) -> float:
    """Acceptability parameter for subset d under the framework of ``att``;
    InputError for d outside [0, 2^n)."""
    space.check(att)
    fam = family or cfg.family
    w = cfg.w if fam == "exponential" else None
    return model.theta_for_attacks(d, space.n_args, space.attacks_of(att),
                                   cfg.semantics, fam, w)


def acceptability_likelihood(obs: list[Observation], att: Assignment,
                             space: AttackVariableSpace,
                             cfg: model.ModelConfig) -> list[float]:
    """``weight * log p(label | subset)`` per observation under the framework
    of ``att``, in observation order, scored in one vectorised step. The list
    stops at the first zero factor, whose term is -inf. No observations means
    no enumeration; a subset mask outside [0, 2^n) raises InputError."""
    if not obs:
        return []
    space.check(att)
    n = space.n_args
    subsets = np.fromiter((o.subset for o in obs), np.int64, len(obs))
    if subsets.min() < 0 or subsets.max() >= 1 << n:
        raise InputError(f"subset mask outside the {n}-argument space")
    dist = model._agreement_stats(n, space.attacks_of(att), cfg.semantics)
    w = cfg.w if cfg.family == "exponential" else None
    labels = np.fromiter((o.label for o in obs), np.intp, len(obs))
    weights = np.fromiter((o.weight for o in obs), np.int64, len(obs))
    terms = weights * model.log_likelihood_table(n, cfg.family, w)[labels, dist[subsets]]
    zero = np.flatnonzero(terms == -np.inf)
    if zero.size:
        terms = terms[:zero[0] + 1]
    return terms.tolist()


def attack_prior_log(att: Assignment, space: AttackVariableSpace) -> float:
    """Log prior: product of Bernoulli(lambda_m) factors over unclamped variables."""
    space.check(att)
    clamped = {i for i, _ in space.clamps}
    lp = 0.0
    for i, (bit, lam) in enumerate(zip(att, space.priors)):
        if i in clamped:
            continue
        p = lam if bit else 1.0 - lam
        if p == 0.0:
            return -math.inf
        lp += math.log(p)
    return lp


def joint_log_likelihood(obs: list[Observation], att: Assignment,
                         space: AttackVariableSpace, cfg: model.ModelConfig) -> float:
    """Weighted log product of acceptability likelihoods; -inf on any zero factor."""
    total = 0.0
    for t in acceptability_likelihood(obs, att, space, cfg):
        total += t  # sequential: np.sum adds pairwise and can move the last bit
    return total


def _log_normalize(log_masses: dict[Assignment, float]) -> dict[Assignment, float]:
    finite = [v for v in log_masses.values() if v > -math.inf]
    if not finite:
        raise DegenerateEvidenceError(
            "all assignments have zero posterior mass; the observations "
            "contradict every attack relation under the deterministic family")
    mx = max(finite)
    unnorm = {k: (math.exp(v - mx) if v > -math.inf else 0.0)
              for k, v in log_masses.items()}
    z = sum(unnorm.values())
    return {k: v / z for k, v in unnorm.items()}


def _check_cap(space: AttackVariableSpace, cap: int) -> None:
    k = len(space.free_indices)
    if k > cap:
        raise CapacityError(
            f"{k} free attack variables exceed the exact-inference cap of {cap}")


def unnormalized_log_masses(obs: list[Observation], space: AttackVariableSpace,
                            cfg: model.ModelConfig,
                            cap: int = EXACT_CAP) -> dict[Assignment, float]:
    """Log(prior * likelihood) per consistent assignment."""
    _check_cap(space, cap)
    out = {}
    for att in space.assignments():
        lp = attack_prior_log(att, space)
        if lp > -math.inf:
            lp += joint_log_likelihood(obs, att, space, cfg)
        out[att] = lp
    return out


def exact_posterior(obs: list[Observation], space: AttackVariableSpace,
                    cfg: model.ModelConfig, cap: int = EXACT_CAP) -> PosteriorDistribution:
    """Normalized posterior over all assignments consistent with the clamps."""
    masses = unnormalized_log_masses(obs, space, cfg, cap=cap)
    return PosteriorDistribution(entries=_log_normalize(masses), kind="exact")


def sequential_update(post: PosteriorDistribution, new_obs: Observation,
                      space: AttackVariableSpace,
                      cfg: model.ModelConfig) -> PosteriorDistribution:
    """Multiply an exact posterior by one new observation's likelihood and
    renormalize; equivalent to batch inference on the concatenated data."""
    if post.kind != "exact":
        raise InputError("sequential update requires an exact posterior")
    log_masses = {}
    for att, p in post.entries.items():
        if p == 0.0:
            log_masses[att] = -math.inf
            continue
        term, = acceptability_likelihood([new_obs], att, space, cfg)
        log_masses[att] = math.log(p) + term
    return PosteriorDistribution(entries=_log_normalize(log_masses), kind="exact")


def _argmax_set(scores: dict[Assignment, float]) -> list[Assignment]:
    best = max(scores.values())
    if best == -math.inf:
        # every assignment scores zero; the maximum is attained by all
        return sorted(scores)
    return sorted(k for k, v in scores.items() if v == best)


def ml_estimate(obs: list[Observation], space: AttackVariableSpace,
                cfg: model.ModelConfig, cap: int = EXACT_CAP) -> list[Assignment]:
    """All assignments maximizing the joint likelihood, lexicographic order."""
    _check_cap(space, cap)
    scores = {att: joint_log_likelihood(obs, att, space, cfg)
              for att in space.assignments()}
    return _argmax_set(scores)


def map_estimate(obs: list[Observation], space: AttackVariableSpace,
                 cfg: model.ModelConfig, cap: int = EXACT_CAP) -> list[Assignment]:
    """All assignments maximizing prior * likelihood, lexicographic order."""
    masses = unnormalized_log_masses(obs, space, cfg, cap=cap)
    return _argmax_set(masses)


def evidence(e: int, space: AttackVariableSpace, cfg: model.ModelConfig,
             cap: int = EXACT_CAP) -> float:
    """Marginal probability that subset e is labelled acceptable, averaging
    the likelihood over the attack prior."""
    _check_cap(space, cap)
    total = 0.0
    for att in space.assignments():
        p = math.exp(attack_prior_log(att, space))
        if p:
            total += p * theta(e, att, space, cfg)
    return total


def ml_prediction(att: Assignment, space: AttackVariableSpace,
                  cfg: model.ModelConfig) -> list[int]:
    """Most likely acceptability label per subset, indexed by subset mask.

    A subset is labelled 1 when its parameter exceeds 0.5; exact ties go to 0
    (they cannot occur in the w >= 2 regime the guarantee covers).
    """
    space.check(att)
    n = space.n_args
    w = cfg.w if cfg.family == "exponential" else None
    dist = model._agreement_stats(n, space.attacks_of(att), cfg.semantics)
    return (model.theta_table(n, cfg.family, w)[dist] > 0.5).astype(int).tolist()


def posterior_predictive(e: int, post: PosteriorDistribution,
                         space: AttackVariableSpace, cfg: model.ModelConfig,
                         family: str | None = None) -> float:
    """p(subset e is acceptable | data): posterior-weighted average of the
    acceptability parameter, by default under the prediction family."""
    fam = family or cfg.prediction_family
    total = 0.0
    for att, p in post.entries.items():
        if p:
            total += p * theta(e, att, space, cfg, family=fam)
    return total
