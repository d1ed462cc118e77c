"""Exact Bayesian inference over attack assignments.

An attack variable space fixes the ordered list of attack variables (one per
directed or unordered argument pair), a Bernoulli prior per variable, and
optional clamps for edges known in advance. An assignment is a tuple with one
bit per variable; clamped bits always carry their clamp value, so the known
part of the relation and the inferred part share one code path.

All likelihood accumulation happens in log space; impossible factors are
-inf and surface as zero posterior mass.

Exact inference scores all 2^k assignments in one array pass: bit rows
become attack masks, and the batched kernel gives each framework's distance
table. Reductions over the log-prior and log-likelihood vectors keep the
scalar steps of a per-assignment loop, so results are bit-identical to one.
A posterior is bit rows and a probability vector; ``entries`` is a view of
them built on first read. It keeps its rows' tables per (space, semantics)
when they fit in 64 MB, so repeated predictions are column gathers.

The process keeps the scored form of its most recent (space, semantics):
bit rows, log prior and, when they fit, tables, all read-only. Later
posterior, MAP, ML and evidence calls on it read them, not the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import af, model
from .errors import CapacityError, DegenerateEvidenceError, InputError

#: Largest number of free variables exact enumeration will accept (2^k states).
EXACT_CAP = 20

#: Frameworks x subsets per chunk of the batched kernel, and the largest
#: distance tables (one byte per entry and subset) a posterior or ``_scored`` keeps.
_CHUNK_ENTRIES, _RETAIN_BYTES = 1 << 20, 1 << 26

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

    def check(self, att: Assignment | np.ndarray) -> np.ndarray:
        """The assignment (or array of bit rows) as rows; InputError unless
        each has one 0/1 bit per variable and keeps the clamps."""
        rows = np.atleast_2d(att)
        if rows.shape[1] != len(self.variables):
            raise InputError(
                f"assignment length {rows.shape[1]} != variable count {len(self.variables)}")
        if (bad := rows[(rows != 0) & (rows != 1)]).size:
            raise InputError(f"assignment bits must be 0 or 1, got {bad[0]}")
        for idx, bit in self.clamps:
            if (rows[:, idx] != bit).any():
                raise InputError(
                    f"assignment violates clamp on variable {idx} (must be {bit})")
        return rows

    def attacks_of(self, att: Assignment) -> tuple[tuple[int, int], ...]:
        """Directed attack pairs realized by an assignment (symmetric pairs expand
        to both directions)."""
        pairs = [p for bit, p in zip(att, self.variables) if bit]
        if self.mode == "symmetric":
            pairs += [(b, a) for a, b in pairs]
        return tuple(sorted(pairs))

    @cached_property
    def log_priors(self) -> tuple[tuple[float, float], ...]:
        """(log(1 - lambda), log lambda) per variable; -inf for a zero factor."""
        return tuple(tuple(math.log(p) if p else -math.inf for p in (1.0 - lam, lam))
                     for lam in self.priors)

    @cached_property
    def attack_weights(self) -> np.ndarray:
        """Read-only int64 [m, n] whose row i holds the attack-mask bits that
        variable i sets: bit rows ``@`` it are their frameworks' attack masks."""
        weights = np.zeros((len(self.variables), self.n_args), dtype=np.int64)
        for i, (a, b) in enumerate(self.variables):
            weights[i, a] |= 1 << b
            if self.mode == "symmetric":
                weights[i, b] |= 1 << a
        weights.flags.writeable = False
        return weights

    def assignment_bits(self) -> np.ndarray:
        """``assignments()`` as rows of a uint8 array."""
        free = self.free_indices
        rows = np.arange(1 << len(free))
        bits = np.zeros((len(rows), len(self.variables)), dtype=np.uint8)
        for idx, bit in self.clamps:
            bits[:, idx] = bit
        for j, i in enumerate(free):
            bits[:, i] = (rows >> (len(free) - 1 - j)) & 1
        return bits

    def assignments(self):
        """All assignments consistent with the clamps, lexicographic over free bits."""
        return map(tuple, self.assignment_bits().tolist())

    def assignment_from_attacks(self, attacks) -> Assignment:
        """Bit encoding of a concrete attack relation; InputError for a pair
        with no variable, or in symmetric mode for a pair without its reverse."""
        attacks = set(tuple(p) for p in attacks)
        known = set(self.variables)
        if self.mode == "symmetric":
            known |= {(b, a) for a, b in known}
        for a, b in sorted(attacks):
            if (a, b) not in known:
                raise InputError(f"attack ({a}, {b}) has no variable in the "
                                 f"{self.mode} space over {self.n_args} arguments")
            if self.mode == "symmetric" and (b, a) not in attacks:
                raise InputError(f"symmetric attack ({a}, {b}) lacks its reverse ({b}, {a})")
        return tuple(int(p in attacks) for p in self.variables)


@dataclass(frozen=True, eq=False)
class PosteriorDistribution:
    """Read-only probability ``probs[i]`` (float64 [N]) of bit row ``bits[i]``
    (uint8 [N, m]); ``kind`` tells exact enumeration from a Gibbs histogram."""

    bits: np.ndarray
    probs: np.ndarray
    kind: str = "exact"
    # (space, semantics) -> distance tables of the rows' frameworks
    _tables: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.bits.ndim != 2 or len(self.bits) != len(self.probs):
            raise InputError("a posterior needs one bit row per probability")
        if not (np.isfinite(self.probs) & (self.probs >= 0)).all():
            raise InputError("posterior probabilities must be finite and nonnegative")
        if abs(self.probs.sum() - 1.0) > 1e-9:
            raise InputError(f"posterior mass sums to {self.probs.sum()}, not 1")
        self.bits.flags.writeable = self.probs.flags.writeable = False

    @classmethod
    def from_entries(cls, entries: dict[Assignment, float],
                     kind: str = "exact") -> "PosteriorDistribution":
        """Posterior of an assignment -> probability mapping, rows in its order."""
        widths = {len(att) for att in entries} or {0}
        if len(widths) > 1:
            raise InputError(f"assignment length differs between keys: {sorted(widths)}")
        bits = np.array(list(entries), dtype=np.int64).reshape(len(entries), *widths)
        if ((bits != 0) & (bits != 1)).any():
            raise InputError("assignment bits must be 0 or 1")
        return cls(bits.astype(np.uint8), np.fromiter(entries.values(), float), kind)

    @cached_property
    def entries(self) -> dict[Assignment, float]:
        """Probability per assignment, in row order."""
        return dict(zip(map(tuple, self.bits.tolist()), self.probs.tolist()))

    def prob(self, att: Assignment) -> float:
        return self.entries.get(att, 0.0)


def likelihood_terms(obs: list[Observation], bits: np.ndarray,
                     space: AttackVariableSpace, cfg: model.ModelConfig) -> np.ndarray:
    """``weight * log p(label | subset)`` of each observation [S] under the
    framework of each bit row [B, m], as [B, S], from one kernel call per
    chunk of rows; a zero factor is -inf. No observations means no
    enumeration; a subset mask outside [0, 2^n) raises InputError."""
    if not obs:
        return np.zeros((len(bits), 0))
    n = space.n_args
    subsets, labels, weights = np.array([(o.subset, o.label, o.weight) for o in obs]).T
    if (subsets >> n).any():
        raise InputError(f"subset mask outside the {n}-argument space")
    dist = _tables(bits, space, cfg.semantics, subsets)
    return weights * model.log_likelihood_table(n, cfg.family, cfg.w)[labels, dist]


def acceptability_likelihood(obs: list[Observation], att: Assignment,
                             space: AttackVariableSpace,
                             cfg: model.ModelConfig) -> list[float]:
    """``likelihood_terms`` of one assignment, as a list."""
    return likelihood_terms(obs, space.check(att), space, cfg)[0].tolist()


def _ordered_sum(terms) -> float:
    """Left-to-right float sum from 0.0, as ``accumulate`` adds. np.sum adds
    pairwise and the builtin sum compensates (Python 3.12): either can move
    the last bit."""
    return float(np.add.accumulate(np.append(0.0, terms))[-1])


def _log_normalize(rows, log_masses: np.ndarray) -> np.ndarray:
    """Probability of each of ``rows`` from its log mass, through math.exp
    (np.exp can differ from it in the last bit)."""
    finite = log_masses[log_masses > -math.inf]
    if not finite.size:
        raise DegenerateEvidenceError(
            "all assignments have zero posterior mass: every attack relation "
            "the prior allows gives some observation zero likelihood")
    unnorm = np.fromiter(map(math.exp, memoryview(log_masses - finite.max())),
                         float, len(rows))
    return unnorm / _ordered_sum(unnorm)


def _tables(bits: np.ndarray, space: AttackVariableSpace, semantics: str,
            subsets: np.ndarray | list[int] | None = None) -> np.ndarray:
    """Distance tables (or their ``subsets`` columns) of the frameworks of
    bit rows, through the batched kernel a chunk of rows at a time; n + 1
    marks no extension. S subsets take the least popcount against a chunk's
    E extensions, unless its whole tables cost less (B x n x 2^n < S x E).
    A symmetric space asks the kernel for stable in place of the equal preferred,
    and takes grounded as the one-hot mask of the unattacked arguments."""
    n, chunks, symmetric = space.n_args, [], space.mode == "symmetric"
    semantics = "stable" if symmetric and semantics == "preferred" else semantics
    step = max(1, _CHUNK_ENTRIES >> n)
    for lo in range(0, max(len(bits), 1), step):
        att = bits[lo:lo + step] @ space.attack_weights
        is_ext = (np.arange(1 << n) == ((att == 0) << np.arange(n)).sum(axis=1)[:, None]
                  if symmetric and semantics == "grounded" else af.extension_matrix(att, semantics))
        if subsets is not None:
            flat = np.flatnonzero(is_ext)
            if len(subsets) * len(flat) <= is_ext.size * n:
                # row r's extensions are flat[bounds[r]:bounds[r + 1]]
                bounds = np.searchsorted(flat, np.arange(len(is_ext) + 1) << n)
                has = bounds[:-1] < bounds[1:]
                pop = np.bitwise_count(np.asarray(subsets)[:, None] ^ (flat & ((1 << n) - 1)))
                dist = np.full((len(is_ext), len(subsets)), n + 1, dtype=np.int8)
                dist[has] = np.minimum.reduceat(pop, bounds[:-1][has], axis=1).T
                chunks.append(dist)
                continue
        dist = np.full(is_ext.shape[::-1], n + 1, dtype=np.int8)
        dist[is_ext.T] = 0
        dist = model.distance_to_extension(dist).T
        chunks.append(dist if subsets is None else dist[:, subsets])
    return np.concatenate(chunks)


def _columns(memo: dict, space: AttackVariableSpace, semantics: str,
             subsets: list[int], bits) -> np.ndarray:
    """Distances of subset masks (columns) under the framework of each row of
    ``bits()``, from whole tables that ``memo`` keeps when they fit."""
    for d in subsets:
        if not 0 <= d < 1 << space.n_args:
            raise InputError(f"subset mask {d} outside the {space.n_args}-argument space")
    key = (space, semantics)
    if key not in memo:
        rows = bits()
        if len(rows) << space.n_args > _RETAIN_BYTES:
            return _tables(rows, space, semantics, subsets)
        memo[key] = _tables(rows, space, semantics)
        memo[key].flags.writeable = False
    return memo[key][:, subsets]


def _log_prior(bits: np.ndarray, space: AttackVariableSpace) -> np.ndarray:
    """Log prior of every bit row, adding factors in variable order."""
    lp = np.zeros(len(bits))
    for i in space.free_indices:
        log0, log1 = space.log_priors[i]
        lp += np.where(bits[:, i] == 1, log1, log0)
    return lp


def _log_likelihood(obs: list[Observation], dist: np.ndarray,
                    space: AttackVariableSpace, cfg: model.ModelConfig) -> np.ndarray:
    """Ordered sum of ``likelihood_terms`` per row of the observations'
    distances, adding one observation's column at a time."""
    table = model.log_likelihood_table(space.n_args, cfg.family, cfg.w)
    ll = np.zeros(len(dist))
    for j, o in enumerate(obs):
        ll += o.weight * table[o.label][dist[:, j]]
    return ll


@lru_cache(maxsize=1)
def _scored(space: AttackVariableSpace, semantics: str):
    """Read-only bit rows of all assignments and their log prior, with the
    memo of their tables under ``semantics`` that ``_columns`` fills."""
    bits = space.assignment_bits()
    prior = _log_prior(bits, space)
    bits.flags.writeable = prior.flags.writeable = False
    return bits, prior, {}


def _exact_scores(obs: list[Observation], space: AttackVariableSpace,
                  cfg: model.ModelConfig):
    """Bit rows of all assignments, their log prior and log likelihood, and
    the memo of their tables, from the space's cached scoring. No
    observations means no kernel call."""
    if (k := len(space.free_indices)) > EXACT_CAP:
        raise CapacityError(
            f"{k} free attack variables exceed the exact-inference cap of {EXACT_CAP}")
    bits, prior, memo = _scored(space, cfg.semantics)
    ll = np.zeros(len(bits))
    if obs:
        dist = _columns(memo, space, cfg.semantics, [o.subset for o in obs], lambda: bits)
        ll = _log_likelihood(obs, dist, space, cfg)
    return bits, prior, ll, memo


def exact_posterior(obs: list[Observation], space: AttackVariableSpace,
                    cfg: model.ModelConfig) -> PosteriorDistribution:
    """Normalized posterior over all assignments consistent with the clamps."""
    bits, prior, ll, memo = _exact_scores(obs, space, cfg)
    return PosteriorDistribution(bits, _log_normalize(bits, prior + ll), "exact", memo)


def sequential_update(post: PosteriorDistribution, new_obs: Observation,
                      space: AttackVariableSpace,
                      cfg: model.ModelConfig) -> PosteriorDistribution:
    """Multiply an exact posterior by one new observation's likelihood and
    renormalize; equivalent to batch inference on the concatenated data."""
    if post.kind != "exact":
        raise InputError("sequential update requires an exact posterior")
    dist = _columns(post._tables, space, cfg.semantics, [new_obs.subset],
                    lambda: space.check(post.bits))
    p = post.probs
    log_p = np.full(len(p), -math.inf)
    log_p[p > 0] = np.fromiter(map(math.log, memoryview(p[p > 0])), float)
    log_masses = log_p + _log_likelihood([new_obs], dist, space, cfg)
    return PosteriorDistribution(post.bits, _log_normalize(post.bits, log_masses),
                                 "exact", dict(post._tables))


def _argmax_set(bits: np.ndarray, scores: np.ndarray) -> list[Assignment]:
    # when every score is -inf, every row attains the maximum
    return sorted(map(tuple, bits[scores == scores.max()].tolist()))


def ml_estimate(obs: list[Observation], space: AttackVariableSpace,
                cfg: model.ModelConfig) -> list[Assignment]:
    """All assignments maximizing the joint likelihood, lexicographic order."""
    bits, _, ll, _ = _exact_scores(obs, space, cfg)
    return _argmax_set(bits, ll)


def map_estimate(obs: list[Observation], space: AttackVariableSpace,
                 cfg: model.ModelConfig) -> list[Assignment]:
    """All assignments maximizing prior * likelihood, lexicographic order."""
    bits, prior, ll, _ = _exact_scores(obs, space, cfg)
    return _argmax_set(bits, prior + ll)


def evidence(e: int, space: AttackVariableSpace, cfg: model.ModelConfig) -> float:
    """Marginal probability that subset e is labelled acceptable, averaging
    the likelihood over the attack prior."""
    bits, log_prior, _, memo = _exact_scores([], space, cfg)
    prior = np.fromiter(map(math.exp, memoryview(log_prior)), float, len(bits))
    return posterior_predictive(e, PosteriorDistribution(bits, prior, "exact", memo),
                                space, cfg, cfg.family)


def subset_thetas(att: Assignment, space: AttackVariableSpace,
                  cfg: model.ModelConfig) -> np.ndarray:
    """Parameter of every subset mask under the framework of ``att``, from
    its distance table as a batch of one of ``_tables``."""
    dist = _tables(space.check(att), space, cfg.semantics)[0]
    return model.theta_table(space.n_args, cfg.family, cfg.w)[dist]


def ml_prediction(att: Assignment, space: AttackVariableSpace,
                  cfg: model.ModelConfig) -> list[int]:
    """Most likely acceptability label per subset, indexed by subset mask.

    A subset is labelled 1 when its parameter exceeds 0.5; exact ties go to 0
    (they cannot occur in the w >= 2 regime the guarantee covers).
    """
    return (subset_thetas(att, space, cfg) > 0.5).astype(int).tolist()


def posterior_predictive(e: int, post: PosteriorDistribution,
                         space: AttackVariableSpace, cfg: model.ModelConfig,
                         family: str | None = None) -> float:
    """p(subset e is acceptable | data): posterior-weighted average of the
    acceptability parameter, by default under the prediction family."""
    dist = _columns(post._tables, space, cfg.semantics, [e],
                    lambda: space.check(post.bits))[:, 0]
    theta = model.theta_table(space.n_args, family or cfg.prediction_family, cfg.w)
    terms = post.probs * theta[dist]
    return _ordered_sum(terms[post.probs != 0])
