"""Acceptability parameters and the Bernoulli observation likelihood.

Three parameter families map the best agreement between an observed subset
and any extension of a framework to a probability:

* deterministic: 1 exactly when the subset is an extension, else 0
* linear: best agreement divided by the argument count
* exponential: (w^s - 1) / (w^n - 1) for best agreement s and w > 1

Agreement between an extension e and a subset d counts arguments correctly
inside (tp) and correctly outside (tn) of d relative to e, so the best
agreement is n minus the Hamming distance from d to the nearest extension.
Each framework gets one distance table over all 2^n subset masks; the
distance n + 1 marks a framework with no extension (possible under stable
semantics), for which every family gives 0. Parameters and log likelihood
factors are tables indexed by that distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import af
from .errors import InputError

FAMILIES = ("deterministic", "linear", "exponential")


@dataclass(frozen=True)
class ModelConfig:
    """Fixed model choices: semantics, parameter family and its w, plus the
    family used for posterior prediction (defaults to linear, which reads as
    an accuracy)."""

    semantics: str = "complete"
    family: str = "exponential"
    w: float | None = 2.0
    prediction_family: str = "linear"

    def __post_init__(self):
        if self.semantics not in af.SEMANTICS:
            raise InputError(f"unknown semantics {self.semantics!r}")
        if self.family not in FAMILIES:
            raise InputError(f"unknown parameter family {self.family!r}")
        if self.prediction_family not in FAMILIES:
            raise InputError(f"unknown prediction family {self.prediction_family!r}")
        needs_w = self.family == "exponential" or self.prediction_family == "exponential"
        if needs_w:
            if self.w is None:
                raise InputError("exponential family requires w")
            if not 1 < self.w < math.inf:
                raise InputError(f"w must be finite and exceed 1, got {self.w}")


@lru_cache(maxsize=None)
def _flips(n: int) -> tuple[np.ndarray, ...]:
    """Per argument a, the index array mapping each subset mask to the mask
    with bit a flipped."""
    idx = np.arange(1 << n)
    return tuple(idx ^ (1 << a) for a in range(n))


def distance_to_extension(dist: np.ndarray) -> np.ndarray:
    """Relax int8 ``dist`` in place into the Hamming distance from each subset
    mask to the nearest extension, and return it. The first axis runs over
    the 2^n masks (so a flip gathers whole rows), any other over frameworks;
    entries start at 0 on extensions and n + 1 elsewhere, so a framework with
    no extension stays at n + 1. One pass per argument relaxes each entry
    against its neighbour across that bit; Hamming distance is a sum over
    bits, so n passes are exact."""
    for flip in _flips(len(dist).bit_length() - 1):
        np.minimum(dist, dist[flip] + 1, out=dist)
    return dist


@lru_cache(maxsize=1 << 12)
def _agreement_stats(n: int, attacks: tuple[tuple[int, int], ...],
                     semantics: str) -> np.ndarray:
    """Read-only ``distance_to_extension`` table of one framework.
    ``attacks`` must be sorted, as the cache is keyed by it."""
    exts = af.extensions_for_attacks(n, attacks, semantics)
    dist = np.full(1 << n, n + 1, dtype=np.int8)
    dist[list(exts)] = 0
    dist = distance_to_extension(dist)
    dist.flags.writeable = False
    return dist


@lru_cache(maxsize=None)
def theta_table(n: int, family: str, w: float | None) -> np.ndarray:
    """Read-only parameter value by distance k to the nearest extension:
    0..n, then 0 at n + 1 for a framework with no extension. Only the
    exponential family reads ``w``."""
    if family == "deterministic":
        values = [1.0] + [0.0] * n
    elif family == "linear":
        values = [(n - k) / n if n else 1.0 for k in range(n + 1)]
    elif family == "exponential":
        if n == 0:
            values = [1.0]
        elif n * (lw := math.log(w)) < 700.0:
            values = [math.expm1((n - k) * lw) / math.expm1(n * lw) for k in range(n + 1)]
        else:  # w^n overflows a float; the -1 terms are below resolution
            values = [math.exp(-k * lw) for k in range(n + 1)]
    else:
        raise InputError(f"unknown parameter family {family!r}")
    table = np.array(values + [0.0])
    table.flags.writeable = False
    return table


def theta_for_attacks(d: int, n: int, attacks: tuple[tuple[int, int], ...],
                      semantics: str, family: str, w: float | None) -> float:
    """Parameter for subset mask d: its distance in the framework's table,
    then the parameter at that distance; InputError for a relation that
    ``af.extensions_for_attacks`` rejects or d outside [0, 2^n)."""
    dist = _agreement_stats(n, tuple(sorted(attacks)), semantics)
    if not 0 <= d < len(dist):
        raise InputError(f"subset mask {d} outside the {n}-argument space")
    return float(theta_table(n, family, w)[dist[d]])


@lru_cache(maxsize=None)
def log_likelihood_table(n: int, family: str, w: float | None) -> np.ndarray:
    """Read-only log Bernoulli(theta) per label (rows 0 and 1) and distance
    to the nearest extension (columns 0..n + 1, as in ``theta_table``).

    Each entry is ``math.log`` of 1 - theta or theta, -inf for a zero factor,
    so a gathered term equals a per-observation loop's bit for bit.
    """
    def log(p):
        return math.log(p) if p > 0.0 else -math.inf

    thetas = theta_table(n, family, w).tolist()
    table = np.array([[log(1.0 - t) for t in thetas], [log(t) for t in thetas]])
    table.flags.writeable = False
    return table
