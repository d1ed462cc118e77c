"""Abstract argumentation frameworks and extension enumeration.

Arguments are dense indices 0..n-1; subsets of arguments are n-bit masks.
External string identifiers are mapped to indices once at the I/O boundary.
All functions here are pure; enumeration results are cached by the attack
relation, so repeated queries (e.g. from a Gibbs sweep) are cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import CapacityError, InputError

SEMANTICS = ("grounded", "complete", "preferred", "stable")

#: Largest argument count accepted by extension enumeration (2^n subsets).
ENUMERATION_CAP = 16

def bits_of(mask: int) -> list[int]:
    """Indices of set bits, ascending."""
    out = []
    a = 0
    while mask:
        if mask & 1:
            out.append(a)
        mask >>= 1
        a += 1
    return out


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for a in indices:
        m |= 1 << a
    return m


@dataclass(frozen=True)
class ArgumentationFramework:
    """A set of n arguments plus a directed attack relation.

    ``symmetric`` marks frameworks whose relation is closed under reversal
    and irreflexive; construction enforces both properties in that mode.
    """

    n: int
    attacks: frozenset[tuple[int, int]]
    names: tuple[str, ...] | None = None
    symmetric: bool = False

    def __post_init__(self):
        if self.n < 0:
            raise InputError("argument count must be nonnegative")
        if self.names is not None and len(self.names) != self.n:
            raise InputError("names length does not match argument count")
        for (a, b) in self.attacks:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise InputError(f"attack ({a},{b}) references an argument out of range")
            if self.symmetric:
                if a == b:
                    raise InputError(f"self-attack ({a},{a}) not allowed in symmetric mode")
                if (b, a) not in self.attacks:
                    raise InputError(f"symmetric mode requires ({b},{a}) to accompany ({a},{b})")

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]],
                   names: tuple[str, ...] | None = None,
                   symmetric: bool = False) -> "ArgumentationFramework":
        pairs = set(tuple(p) for p in pairs)
        if symmetric:
            pairs |= {(b, a) for (a, b) in pairs}
        return cls(n=n, attacks=frozenset(pairs), names=names, symmetric=symmetric)

    def attack_key(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.attacks))


@lru_cache(maxsize=1 << 18)
def _extensions_cached(n: int, attacks: tuple[tuple[int, int], ...],
                       semantics: str) -> tuple[int, ...]:
    att_from = [0] * max(n, 1)
    att_to = [0] * max(n, 1)
    for (a, b) in attacks:
        att_from[a] |= 1 << b
        att_to[b] |= 1 << a

    if semantics == "grounded":
        # least fixed point of the characteristic function, from the empty set
        s = 0
        while True:
            attacked = 0
            for a in bits_of(s):
                attacked |= att_from[a]
            nxt = 0
            for a in range(n):
                if att_to[a] & ~attacked == 0:
                    nxt |= 1 << a
            if nxt == s:
                return (s,)
            s = nxt

    size = 1 << n
    subsets = np.arange(size, dtype=np.int64)
    attacked = np.zeros(size, dtype=np.int64)
    for a in range(n):
        member = -((subsets >> a) & 1)  # 0 or all-ones
        attacked |= member & att_from[a]
    cf = (attacked & subsets) == 0

    if semantics == "stable":
        keep = cf & (attacked == (subsets ^ (size - 1)))
        return tuple(subsets[keep].tolist())

    defended = np.zeros(size, dtype=np.int64)
    for a in range(n):
        ok = (att_to[a] & ~attacked) == 0
        defended |= ok.astype(np.int64) << a

    if semantics == "complete":
        keep = cf & (defended == subsets)
        return tuple(subsets[keep].tolist())
    if semantics == "preferred":
        adm = cf & ((subsets & defended) == subsets)
        cand = subsets[adm]
        inside = (cand[:, None] & cand[None, :]) == cand[:, None]
        strictly = inside & (cand[:, None] != cand[None, :])
        maximal = ~strictly.any(axis=1)
        return tuple(cand[maximal].tolist())
    raise InputError(f"unknown semantics {semantics!r}")


def extensions(af: ArgumentationFramework, semantics: str,
               cap: int = ENUMERATION_CAP) -> tuple[int, ...]:
    """All extensions of ``af`` under ``semantics``, as sorted bit masks.

    Grounded semantics yields exactly one extension; stable may yield none.
    """
    if semantics not in SEMANTICS:
        raise InputError(f"unknown semantics {semantics!r}")
    if af.n > cap:
        raise CapacityError(
            f"{af.n} arguments exceed the enumeration cap of {cap}")
    return _extensions_cached(af.n, af.attack_key(), semantics)


def extensions_for_attacks(n: int, attacks: tuple[tuple[int, int], ...],
                           semantics: str) -> tuple[int, ...]:
    """Cached enumeration entry point keyed directly by the attack relation."""
    if n > ENUMERATION_CAP:
        raise CapacityError(f"{n} arguments exceed the enumeration cap of {ENUMERATION_CAP}")
    return _extensions_cached(n, tuple(sorted(attacks)), semantics)
