"""Independent brute-force reference implementations used only by tests.

Everything here works on explicit frozensets and quantifier loops, straight
from the textual definitions, deliberately sharing no code with the package's
bitmask enumeration. The one exception is ``loop_extension_matrix``, a batched
numpy reference with one pass per argument, which still shares no code with
the package's O(2^n) kernel.
"""

from itertools import chain, combinations

import numpy as np


def all_subsets(n):
    universe = list(range(n))
    return [frozenset(c) for c in chain.from_iterable(
        combinations(universe, k) for k in range(n + 1))]


def attacks_set(attacks, s, a):
    return any((b, a) in attacks for b in s)


def conflict_free(attacks, s):
    return not any((a, b) in attacks for a in s for b in s)


def acceptable(attacks, a, s):
    attackers = [b for (b, x) in attacks if x == a]
    return all(attacks_set(attacks, s, b) for b in attackers)


def admissible(attacks, s):
    return conflict_free(attacks, s) and all(acceptable(attacks, a, s) for a in s)


def complete_extensions(n, attacks):
    return [s for s in all_subsets(n)
            if admissible(attacks, s)
            and all((a in s) for a in range(n) if acceptable(attacks, a, s))]


def preferred_extensions(n, attacks):
    adm = [s for s in all_subsets(n) if admissible(attacks, s)]
    return [s for s in adm if not any(s < t for t in adm)]


def stable_extensions(n, attacks):
    return [s for s in all_subsets(n)
            if conflict_free(attacks, s)
            and all(attacks_set(attacks, s, a) for a in range(n) if a not in s)]


def grounded_extension(n, attacks):
    comp = complete_extensions(n, attacks)
    return min(comp, key=len)


def brute_extensions(n, attacks, semantics):
    attacks = set(attacks)
    if semantics == "complete":
        return set(complete_extensions(n, attacks))
    if semantics == "preferred":
        return set(preferred_extensions(n, attacks))
    if semantics == "stable":
        return set(stable_extensions(n, attacks))
    if semantics == "grounded":
        return {grounded_extension(n, attacks)}
    raise ValueError(semantics)


def to_mask(s):
    m = 0
    for a in s:
        m |= 1 << a
    return m


def all_directed_relations(n, self_loops=False):
    pairs = [(i, j) for i in range(n) for j in range(n) if self_loops or i != j]
    for k in range(1 << len(pairs)):
        yield frozenset(p for i, p in enumerate(pairs) if (k >> i) & 1)


def all_symmetric_relations(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for k in range(1 << len(pairs)):
        chosen = [p for i, p in enumerate(pairs) if (k >> i) & 1]
        yield frozenset(chosen) | frozenset((b, a) for (a, b) in chosen)


def maximal_conflict_free_sets(n, attacks):
    """Maximal conflict-free sets of a symmetric irreflexive relation: the
    maximal independent sets of its attack graph, found as the maximal
    cliques of the complement graph by Bron-Kerbosch with pivoting. Unlike the
    subset enumerations above, this scales to 16 arguments at low density."""
    compatible = {a: {b for b in range(n) if b != a and (a, b) not in attacks}
                  for a in range(n)}
    found = []

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            found.append(frozenset(clique))
            return
        pivot = max(candidates | excluded,
                    key=lambda u: len(compatible[u] & candidates))
        for v in list(candidates - compatible[pivot]):
            expand(clique | {v}, candidates & compatible[v], excluded & compatible[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand(set(), set(range(n)), set())
    return found


def loop_extension_matrix(att_from, semantics):
    """Bool [B, 2^n] extension indicator of B frameworks, given as attack
    masks per argument (``att_from[b, a]``: whom a attacks, [B, n]), by one
    pass per argument over all 2^n subset masks for the attacked and the
    defended sets, and one per argument for the preferred superset check."""
    att_from = np.asarray(att_from, dtype=np.uint16)
    batch, n = att_from.shape
    att_to = np.zeros_like(att_from)  # att_to[b, a]: who attacks a
    for a in range(n):
        for x in range(n):
            att_to[:, x] |= (att_from[:, a] >> x & 1) << a
    subsets = np.arange(1 << n, dtype=np.uint16)
    members = -((subsets >> np.arange(n, dtype=np.uint16)[:, None]) & 1)
    full = (1 << n) - 1
    attacked = np.zeros((batch, 1 << n), dtype=np.uint16)
    for a in range(n):
        attacked |= members[a] & att_from[:, a, None]
    cf = (attacked & subsets) == 0
    if semantics == "stable":
        return cf & (attacked == (subsets ^ full))
    unattacked, defended = ~attacked, np.zeros_like(attacked)
    for a in range(n):
        defended |= ((att_to[:, a, None] & unattacked) == 0).astype(np.uint16) << a
    complete = cf & (defended == subsets)
    if semantics == "complete":
        return complete
    if semantics == "grounded":
        least = np.bitwise_and.reduce(np.where(complete, subsets, full), axis=1)
        return subsets == least[:, None]
    if semantics != "preferred":
        raise ValueError(semantics)
    adm = cf & ((subsets & defended) == subsets)
    # larger[s]: some admissible strict superset of s differs from s only in
    # the bits passed so far; pass a adds the supersets through s | bit a
    larger = np.zeros_like(adm)
    for a in range(n):
        shape = (batch, 1 << (n - a - 1), 2, 1 << a)  # [.., bit a clear/set, ..]
        pairs = larger.reshape(shape)
        pairs[:, :, 0] |= adm.reshape(shape)[:, :, 1] | pairs[:, :, 1]
    return adm & ~larger
