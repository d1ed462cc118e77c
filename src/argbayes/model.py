"""Acceptability parameters and the Bernoulli observation likelihood.

Three parameter families map the best agreement between an observed subset
and any extension of a framework to a probability:

* deterministic: 1 exactly when the subset is an extension, else 0
* linear: best agreement divided by the argument count
* exponential: (w^s - 1) / (w^n - 1) for best agreement s and w > 1

Agreement between an extension e and a subset d counts arguments correctly
inside (tp) and correctly outside (tn) of d relative to e.
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
            if not self.w > 1:
                raise InputError(f"w must exceed 1, got {self.w}")


def agreement(e: int, d: int, n: int) -> tuple[int, int]:
    """(tp, tn): arguments in both e and d, and in neither, within n."""
    full = (1 << n) - 1
    if (e | d) & ~full:
        raise InputError("subset mask references arguments beyond n")
    tp = af.popcount(e & d)
    tn = af.popcount(~e & ~d & full)
    return tp, tn


def _exponential_ratio(s: int, n: int, w: float) -> float:
    lw = math.log(w)
    if n * lw < 700.0:
        return math.expm1(s * lw) / math.expm1(n * lw)
    # w^n overflows a float; the -1 terms are below resolution
    return math.exp((s - n) * lw)


def theta_value(s_max: int | None, is_extension: bool, n: int,
                family: str, w: float | None) -> float:
    """Parameter value from the best agreement count.

    ``s_max`` is None when the framework has no extension at all (possible
    under stable semantics); all families then return 0.
    """
    if s_max is None:
        return 0.0
    if family == "deterministic":
        return 1.0 if is_extension else 0.0
    if family == "linear":
        return s_max / n if n else 1.0
    if family == "exponential":
        if n == 0:
            return 1.0
        return _exponential_ratio(s_max, n, w)
    raise InputError(f"unknown parameter family {family!r}")


def best_agreement(exts: np.ndarray, subsets: np.ndarray,
                   n: int) -> tuple[np.ndarray, np.ndarray]:
    """Best tp+tn over the extension masks ``exts`` (at least one) for each
    subset mask, and whether each subset is itself an extension."""
    full = (1 << n) - 1
    d = subsets[:, None]
    s = np.bitwise_count(exts & d) + np.bitwise_count(~exts & ~d & full)
    return s.max(axis=1), (exts == d).any(axis=1)


@lru_cache(maxsize=1 << 20)
def _agreement_stats(n: int, attacks: tuple[tuple[int, int], ...],
                     semantics: str, d: int) -> tuple[int | None, bool]:
    """(best tp+tn over extensions, whether d itself is an extension)."""
    exts = af.extensions_for_attacks(n, attacks, semantics)
    if not exts:
        return None, False
    s_max, is_ext = best_agreement(np.asarray(exts, dtype=np.int64),
                                   np.array([d], dtype=np.int64), n)
    return int(s_max[0]), bool(is_ext[0])


def theta_for_attacks(d: int, n: int, attacks: tuple[tuple[int, int], ...],
                      semantics: str, family: str, w: float | None) -> float:
    s_max, is_ext = _agreement_stats(n, tuple(sorted(attacks)), semantics, d)
    return theta_value(s_max, is_ext, n, family, w)


def acceptability_likelihood_value(label: int, theta: float) -> float:
    """Bernoulli(theta) evaluated at label."""
    if label not in (0, 1):
        raise InputError(f"label must be 0 or 1, got {label}")
    return theta if label == 1 else 1.0 - theta


@lru_cache(maxsize=None)
def log_likelihood_table(n: int, family: str, w: float | None) -> np.ndarray:
    """log Bernoulli(theta) per label (rows 0 and 1) and agreement class
    (columns): best agreement 0..n for a subset that is not an extension,
    n + 1 for an extension, n + 2 for a framework with no extension.

    Each entry is ``math.log`` of the scalar factor, -inf for a zero factor,
    so a gathered term equals a per-observation loop's bit for bit.
    """
    thetas = [theta_value(s, False, n, family, w) for s in range(n + 1)]
    thetas += [theta_value(n, True, n, family, w),
               theta_value(None, False, n, family, w)]

    def log(p):
        return math.log(p) if p > 0.0 else -math.inf

    return np.array([[log(acceptability_likelihood_value(label, t)) for t in thetas]
                     for label in (0, 1)])
