"""Systematic-scan Gibbs sampler over attack assignments.

Each sweep resamples every free variable in lexicographic order from its full
conditional (prior factor times the likelihood of all observations, with all
other bits at their freshest values). A chain's state is one int, variable i
of m at bit m - 1 - i; clamped bits are set at the start and never flipped.
The chain starts from a uniform draw of the free bits, or, when that has zero
mass, from a prior draw of finite mass (``_start``). A sweep runs in windows
of L free variables: the 2^L - 1 states ``state ^ subset`` of the window's
bits that its updates can reach are scored in one batch before them. One
state is recorded per sweep; those after the burn-in form the histogram of
bit tuples. Seeding uses numpy SeedSequence, with per-chain substreams so
multi-chain runs stay reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .errors import DegenerateEvidenceError, InputError
from .inference import (
    AttackVariableSpace,
    Assignment,
    Observation,
    PosteriorDistribution,
    acceptability_likelihood,
    likelihood_terms,
)


@dataclass(frozen=True)
class GibbsConfig:
    iterations: int = 10_000
    burn_in: int = 1_000
    seed: int = 0
    chains: int = 1

    def __post_init__(self):
        if self.iterations < 1:
            raise InputError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise InputError("burn-in must satisfy 0 <= B < I")
        if self.chains < 1:
            raise InputError("chains must be positive")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class SampleHistogram:
    """Occurrence counts of assignments sampled after burn-in, plus a
    per-iteration flag marking sweeps that produced a previously unseen
    assignment (flags from multiple chains are concatenated in chain order)."""

    counts: dict[Assignment, int] = field(default_factory=dict)
    new_flags: list[int] = field(default_factory=list)
    iterations: int = 0
    burn_in: int = 0
    chains: int = 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def to_posterior(self) -> PosteriorDistribution:
        total = self.total
        entries = {att: c / total for att, c in self.counts.items()}
        return PosteriorDistribution.from_entries(entries, kind="sampled")


def gibbs_conditional(m: int, space: AttackVariableSpace, terms0: list[float],
                      terms1: list[float]) -> tuple[float, float]:
    """Normalized (p0, p1) for variable m, given the likelihood terms of the
    assignments with m at 0 and at 1, each added to the log prior in
    observation order."""
    logp = list(space.log_priors[m])
    for b, terms in enumerate((terms0, terms1)):
        for t in terms:
            logp[b] += t
    if logp[0] == -math.inf and logp[1] == -math.inf:
        raise DegenerateEvidenceError(
            f"both values of variable {m} have zero conditional mass")
    try:  # exp(-inf) = 0 gives p1 = 1; exp(inf) or above the float range, p1 = 0
        p1 = 1.0 / (1.0 + math.exp(logp[0] - logp[1]))
    except OverflowError:
        p1 = 0.0
    return 1.0 - p1, p1


#: Most prior draws that look for a start of finite mass.
START_DRAWS = 1024


def _start(obs, space, cfg, rng) -> tuple[Assignment, list[float]]:
    """Initial state and its likelihood terms: a uniform draw of the free
    bits. When that has zero mass (a bit outside its prior's support, or a
    zero likelihood factor), both values of a variable may have zero
    conditional mass, so the first of up to START_DRAWS prior draws from the
    same RNG with a finite likelihood replaces it, if there is one. A uniform
    draw of finite mass draws nothing more."""
    free, clamp = space.free_indices, space.clamp_map
    lam = np.array(space.priors)[free]
    state = np.array([clamp.get(i, 0) for i in range(len(space.variables))])

    def scored(bits):
        state[free] = bits
        att = tuple(state.tolist())
        return att, acceptability_likelihood(obs, att, space, cfg)

    bits = rng.integers(0, 2, size=len(free))
    first = scored(bits)
    if -math.inf not in first[1][-1:] and np.all((0 < lam) & (lam < 1) | (bits == lam)):
        return first
    for _ in range(START_DRAWS if free else 0):
        drawn = scored(rng.random(len(free)) < lam)
        if -math.inf not in drawn[1][-1:]:
            return drawn
    return first


def _window_depth(n: int) -> int:
    """Free variables per window at n arguments: the L of least measured
    kernel cost per update, cost(B = 2^L - 1) / L (BENCH_13.json)."""
    return 3 if n <= 11 else 1


def _rows(states: list[int], m: int) -> np.ndarray:
    """Bit rows [len(states), m] of int states, variable i from bit m - 1 - i."""
    pad = -m % 8
    raw = b"".join((s << pad).to_bytes((m + pad) // 8, "big") for s in states)
    return np.unpackbits(np.frombuffer(raw, np.uint8).reshape(len(states), -1),
                         axis=1, count=m)


def _run_chain(obs, space, cfg, iterations, burn_in, rng):
    m = len(space.variables)
    att, terms = _start(obs, space, cfg, rng)
    state = int("0" + "".join(map(str, att)), 2)
    counts: dict[int, int] = {}
    seen: set[int] = set()
    new_flags: list[int] = []
    memo = {state: terms}
    free, depth = space.free_indices, _window_depth(space.n_args)
    windows = [[(i, 1 << (m - 1 - i)) for i in free[lo:lo + depth]]
               for lo in range(0, len(free), depth)]
    for it in range(1, iterations + 1):
        for window in windows:
            if len(memo) >= 1 << 12:  # bounds the terms one chain keeps
                memo = {state: memo[state]}
            reach = {state}
            for _, bit in window:
                reach |= {s ^ bit for s in reach}
            new = [s for s in reach if s not in memo]
            if new:
                scored = likelihood_terms(obs, _rows(new, m), space, cfg)
                memo.update(zip(new, scored.tolist()))
            for i, bit in window:
                _, p1 = gibbs_conditional(i, space, memo[state & ~bit], memo[state | bit])
                state = state | bit if rng.random() < p1 else state & ~bit
        new_flags.append(int(state not in seen))
        seen.add(state)
        if it > burn_in:
            counts[state] = counts.get(state, 0) + 1
    keys = map(tuple, _rows(list(counts), m).tolist())
    return dict(zip(keys, counts.values())), new_flags


def run_gibbs(obs: list[Observation], space: AttackVariableSpace,
              cfg: model.ModelConfig, g: GibbsConfig) -> SampleHistogram:
    """Algorithm: random initial assignment, of finite mass where one is
    found (``_start``), I full sweeps, histogram over the post-burn-in
    samples. Identical seed and inputs give identical output."""
    hist = SampleHistogram(iterations=g.iterations, burn_in=g.burn_in,
                           chains=g.chains)
    streams = np.random.SeedSequence(g.seed).spawn(g.chains)
    for ss in streams:
        rng = np.random.default_rng(ss)
        counts, flags = _run_chain(obs, space, cfg, g.iterations, g.burn_in, rng)
        for att, c in counts.items():
            hist.counts[att] = hist.counts.get(att, 0) + c
        hist.new_flags.extend(flags)
    return hist


def convergence_trace(hist: SampleHistogram) -> list[int]:
    """Cumulative count of distinct assignments seen through each iteration."""
    return list(itertools.accumulate(hist.new_flags))
