"""Abstract argumentation frameworks and extension enumeration.

Arguments are dense indices 0..n-1; subsets of arguments are n-bit masks.
External string identifiers are mapped to indices once at the I/O boundary.
One kernel, ``extension_matrix``, enumerates extensions of a batch of
frameworks over the same arguments on all 2^n subset masks at once, in O(2^n)
time and uint16 memory per framework (attacked sets by subset doubling, defence
by one gather, into a held workspace for a batch of one: not thread-safe);
preferred adds n passes over 2^n/64 packed words. ``_extensions_cached`` is its
batch of one for complete and stable, keyed by the attack relation. Grounded is
the meet of the complete extensions, and preferred the complete ones with no
complete strict superset (Dung 1995, AIJ 77): m^2 subset tests over the m complete
masks, or the packed passes when m^2 > 2^n. A symmetric irreflexive relation needs
neither: its preferred extensions are its stable ones (the maximal conflict-free
sets), its grounded one its unattacked arguments (Coste-Marquis et al. 2005).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

from .errors import CapacityError, InputError

SEMANTICS = ("grounded", "complete", "preferred", "stable")

#: Largest argument count accepted by extension enumeration (2^n subsets).
ENUMERATION_CAP = 16

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

    @cached_property
    def attack_key(self) -> tuple[tuple[int, int], ...]:
        """The attack pairs, sorted: this framework's key in the extension cache."""
        return tuple(sorted(self.attacks))


@lru_cache(maxsize=1 << 16)
def _extensions_cached(n: int, attacks: tuple[tuple[int, int], ...]) -> tuple:
    """Extensions under each of ``SEMANTICS``, in that order, as sorted masks."""
    if n > ENUMERATION_CAP:
        raise CapacityError(f"{n} arguments exceed the enumeration cap of {ENUMERATION_CAP}")
    att_from = [0] * n
    for (a, b) in attacks:
        att_from[a] |= 1 << b
    att = np.array([att_from], dtype=np.uint16)
    c, s = (np.flatnonzero(m[0]) for m in extension_matrix(att, ("complete", "stable")))
    if all(a != b and att_from[b] >> a & 1 for (a, b) in attacks):  # symmetric irreflexive
        p, g = s, mask_of(a for a in range(n) if not att_from[a])
    else:  # c[i] has no strict superset in c if its only superset is itself
        p = (np.flatnonzero(extension_matrix(att, "preferred")[0]) if len(c) ** 2 > 1 << n
             else c[((c[:, None] & c) == c[:, None]).sum(axis=1) == 1])
        g = np.bitwise_and.reduce(c)
    return (int(g),), *(tuple(x.tolist()) for x in (c, p, s))


def _lookup(n: int, key: tuple[tuple[int, int], ...], semantics: str) -> tuple[int, ...]:
    if semantics not in SEMANTICS:
        raise InputError(f"unknown semantics {semantics!r}")
    return _extensions_cached(n, key)[SEMANTICS.index(semantics)]


def extensions(af: ArgumentationFramework, semantics: str) -> tuple[int, ...]:
    """All extensions of ``af`` under ``semantics``, as sorted bit masks.

    Grounded semantics yields exactly one extension; stable may yield none.
    """
    return _lookup(af.n, af.attack_key, semantics)


def extensions_for_attacks(n: int, attacks: tuple[tuple[int, int], ...],
                           semantics: str) -> tuple[int, ...]:
    """Cached enumeration entry point keyed directly by the attack relation;
    InputError for a negative n or a pair outside range(n)."""
    key = tuple(sorted(attacks))
    if n < 0 or any(not 0 <= x < n for pair in key for x in pair):
        raise InputError(f"attacks {key} are not pairs of arguments in range({n})")
    return _lookup(n, key, semantics)


@lru_cache(maxsize=None)
def _subset_masks(n: int) -> np.ndarray:
    """Read-only uint16 column [2^n, 1] of the subset masks themselves."""
    subsets = np.arange(1 << n, dtype=np.uint16)[:, None]
    subsets.flags.writeable = False
    return subsets


#: Per bit a < 6, the positions of a 64-subset word whose subsets leave a clear.
_WORD_CLEAR = np.array([0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
                        0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF],
                       dtype="<u8")
#: The defence gather's index and result for one framework (2^n <= 2^16 entries).
_WORKSPACE = np.empty(1 << 16, np.intp), np.empty(1 << 16, np.uint16)


def extension_matrix(att_from: np.ndarray, semantics: str | tuple[str, ...]):
    """Bool [B, 2^n] extension indicator of B frameworks, given as attack
    masks per argument: ``att_from[b, a]`` is whom a attacks, [B, n]. Masks
    are uint16, which holds every subset within the cap. ``semantics`` is one
    name, or a tuple of names for a tuple of matrices; a stage runs only if a
    name needs it. Grounded is the least complete extension, preferred an
    admissible set with no admissible strict superset.
    """
    names = (semantics,) if isinstance(semantics, str) else semantics
    if any(name not in SEMANTICS for name in names):
        raise InputError(f"unknown semantics {semantics!r}")
    batch, n = att_from.shape
    if n > ENUMERATION_CAP:
        raise CapacityError(f"{n} arguments exceed the enumeration cap of {ENUMERATION_CAP}")
    att_from = np.asarray(att_from, dtype=np.uint16)
    subsets, full = _subset_masks(n), (1 << n) - 1
    # subset-major [2^n, B]: the subsets with top bit a are those below 2^a plus a
    attacked = np.empty((1 << n, batch), dtype=np.uint16)
    attacked[0] = 0  # the doubling writes every other row
    for a in range(n):
        np.bitwise_or(attacked[:1 << a], att_from[:, a], out=attacked[1 << a:2 << a])
    cf = (attacked & subsets) == 0
    out = {}
    if "stable" in names:
        out["stable"] = (cf & (attacked == (subsets ^ full))).T
    if names != ("stable",):
        # s leaves a undefended when an argument s does not attack attacks a
        index, defended = (buf[:attacked.size].reshape(attacked.shape)
                           if batch == 1 else np.empty(attacked.shape, buf.dtype)
                           for buf in _WORKSPACE)
        np.bitwise_xor(attacked, full, out=index, casting="unsafe")
        if batch > 1:
            index *= batch
            index += np.arange(batch)
        np.take(attacked.ravel(), index, out=defended, mode="clip")  # raise mode would buffer
        defended ^= full
    if "complete" in names or "grounded" in names:
        complete = cf & (defended == subsets)
        out["complete"] = complete.T
    if "grounded" in names:
        # complete rows keep their subset, the others turn all-ones under the AND
        least = np.bitwise_and.reduce(subsets | (complete - np.uint16(1)), axis=0)
        out["grounded"] = (subsets == least).T
    if "preferred" in names:
        # admissible sets, framework-major, 64 subsets per little-endian word
        words = np.zeros((batch, max(8, (1 << n) >> 3)), dtype=np.uint8)
        words[:, :((1 << n) + 7) >> 3] = np.packbits(
            (cf & ((subsets & defended) == subsets)).T.copy(), axis=1, bitorder="little")
        adm = words.view("<u8")
        # larger[s]: some admissible strict superset of s differs from s only in
        # the bits passed so far; pass a adds the supersets through s | bit a
        larger = np.zeros_like(adm)
        for a in range(min(n, 6)):
            larger |= ((adm | larger) >> np.uint64(1 << a)) & _WORD_CLEAR[a]
        for a in range(6, n):
            shape = (batch, 1 << (n - a - 1), 2, 1 << (a - 6))  # [.., bit a clear/set, ..]
            pairs = larger.reshape(shape)
            pairs[:, :, 0] |= adm.reshape(shape)[:, :, 1] | pairs[:, :, 1]
        out["preferred"] = np.unpackbits((adm & ~larger).view(np.uint8), axis=1,
                                         count=1 << n, bitorder="little").view(bool)
    return out[semantics] if isinstance(semantics, str) else tuple(out[s] for s in names)
