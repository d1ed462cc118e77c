import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from argbayes import af as af_module
from argbayes.af import (
    ENUMERATION_CAP,
    SEMANTICS,
    ArgumentationFramework,
    _extensions_cached,
    extension_matrix,
    extensions,
    extensions_for_attacks,
    mask_of,
)
from argbayes.errors import CapacityError, InputError
from argbayes.inference import AttackVariableSpace
from argbayes.model import theta_for_attacks

from oracle import (
    all_directed_relations,
    all_symmetric_relations,
    brute_extensions,
    grounded_extension,
    loop_extension_matrix,
    maximal_conflict_free_sets,
    to_mask,
)

MUTUAL = [(0, 1), (1, 0)]


def af_of(n, pairs, symmetric=False):
    return ArgumentationFramework.from_pairs(n, pairs, symmetric=symmetric)


def assert_matches_oracle(n, pairs, symmetric=False):
    af = af_of(n, pairs, symmetric=symmetric)
    for semantics in SEMANTICS:
        expected = {to_mask(s) for s in brute_extensions(n, af.attacks, semantics)}
        assert set(extensions(af, semantics)) == expected, \
            (n, sorted(af.attacks), semantics)


@st.composite
def frameworks(draw):
    n = draw(st.integers(0, 7))
    symmetric = draw(st.booleans())
    pairs = [(a, b) for a in range(n) for b in range(n)
             if not symmetric or a < b]  # directed relations may hold self-loops
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [p for p, keep in zip(pairs, present) if keep], symmetric


@settings(max_examples=300, deadline=None)
@given(frameworks())
def test_kernel_matches_oracle_on_random_frameworks(framework):
    assert_matches_oracle(*framework)


@st.composite
def relations(draw, n):
    """A directed relation that may hold self-loops, or a symmetric one."""
    if draw(st.booleans()):
        pairs = [(a, b) for a in range(n) for b in range(n)]
    else:
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        pairs += [(b, a) for a, b in pairs]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return sorted(p for p, keep in zip(pairs, present) if keep)


@st.composite
def batches(draw):
    n = draw(st.integers(0, 7))
    return n, draw(st.lists(relations(n), min_size=1, max_size=4))


def attack_columns(n, batch):
    att_from = np.zeros((len(batch), n), dtype=np.int64)
    for row, pairs in enumerate(batch):
        for a, b in pairs:
            att_from[row, a] |= 1 << b
    return att_from


# the 3-cycle and the self-attacker have no stable extension
@settings(max_examples=150, deadline=None)
@given(batches())
@example((3, [[(0, 1), (1, 2), (2, 0)], [], [(0, 0)], [(0, 1), (1, 0)]]))
@example((0, [[]]))
def test_batched_kernel_matches_single_kernel_and_oracle(batch):
    n, frameworks = batch
    att_from = attack_columns(n, frameworks)
    for semantics in SEMANTICS:
        matrix = extension_matrix(att_from, semantics)
        assert matrix.shape == (len(frameworks), 1 << n)
        for row, pairs in zip(matrix, frameworks):
            got = tuple(np.flatnonzero(row).tolist())
            assert got == extensions_for_attacks(n, tuple(pairs), semantics)
            assert set(got) == {to_mask(s) for s in
                                brute_extensions(n, frozenset(pairs), semantics)}


def test_batched_kernel_at_the_enumeration_cap():
    full = (1 << 16) - 1
    att_from = attack_columns(16, [[], MUTUAL])
    preferred = extension_matrix(att_from, "preferred")
    assert np.flatnonzero(preferred[0]).tolist() == [full]
    assert np.flatnonzero(preferred[1]).tolist() == [full ^ 0b10, full ^ 0b01]
    grounded = extension_matrix(att_from, "grounded")
    assert np.flatnonzero(grounded[1]).tolist() == [full ^ 0b11]
    with pytest.raises(CapacityError):
        extension_matrix(attack_columns(17, [[]]), "complete")
    with pytest.raises(InputError):
        extension_matrix(att_from, "ideal")


def random_columns(n, frameworks):
    """att_from [B, n] of seeded random relations, one per (symmetric,
    density, seed): symmetric and irreflexive, or directed with self-loops."""
    att_from = np.zeros((len(frameworks), n), dtype=np.int64)
    for row, (symmetric, density, seed) in enumerate(frameworks):
        rel = np.random.default_rng(seed).random((n, n)) < density
        if symmetric:
            rel = np.triu(rel, 1)
            rel |= rel.T
        att_from[row] = (rel.astype(np.int64) << np.arange(n)).sum(axis=1)
    return att_from


@st.composite
def random_batches(draw):
    n = draw(st.one_of(st.integers(0, 12), st.integers(6, 12)))
    framework = st.tuples(st.booleans(), st.floats(0, 0.5), st.integers(0, 2**32 - 1))
    return n, draw(st.lists(framework, min_size=1, max_size=8))


# 64 subsets fill one packed word at n = 6; from n = 7 on, preferred also
# pairs words, and at the cap every pass runs
@settings(max_examples=200, deadline=None)
@given(random_batches())
@example((6, [(False, 0.1, 1), (True, 0.2, 2), (False, 0.0, 3)]))
@example((7, [(True, 0.1, 4), (False, 0.05, 5), (False, 0.3, 6)]))
@example((16, [(True, 0.05, 7), (False, 0.02, 8)]))
def test_batched_kernel_matches_the_per_argument_loop(batch):
    att_from = random_columns(*batch)
    for semantics in SEMANTICS:
        expected = loop_extension_matrix(att_from, semantics)
        got = extension_matrix(att_from, semantics)
        assert got.dtype == bool and np.array_equal(got, expected), semantics
    # one call for several names shares its stages and gives each name its matrix
    for names in (SEMANTICS, SEMANTICS[::-1], ("stable",), ("preferred", "grounded")):
        for semantics, got in zip(names, extension_matrix(att_from, names), strict=True):
            assert np.array_equal(got, loop_extension_matrix(att_from, semantics)), names


FULL16 = (1 << 16) - 1


@pytest.mark.parametrize("semantics", SEMANTICS)
def test_single_kernel_at_the_cap_without_attacks(semantics):
    # every subset is admissible: a pairwise comparison of admissible sets
    # would need 2^32 entries; the kernel stays within 2 s
    _extensions_cached.cache_clear()
    start = time.perf_counter()
    assert extensions(af_of(16, []), semantics) == (FULL16,)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("semantics,expected", [
    ("grounded", (FULL16 ^ 0b11,)),
    ("complete", (FULL16 ^ 0b11, FULL16 ^ 0b10, FULL16 ^ 0b01)),
    ("preferred", (FULL16 ^ 0b10, FULL16 ^ 0b01)),
    ("stable", (FULL16 ^ 0b10, FULL16 ^ 0b01)),
])
def test_single_kernel_at_the_cap_with_one_mutual_pair(semantics, expected):
    # 3 * 2^14 = 49,152 admissible sets; the kernel stays within 2 s
    _extensions_cached.cache_clear()
    start = time.perf_counter()
    assert extensions(af_of(16, MUTUAL), semantics) == expected
    assert time.perf_counter() - start < 2.0


@st.composite
def sparse_symmetric_frameworks(draw):
    n = draw(st.integers(10, 16))
    density = draw(st.floats(0.02, 0.3))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    draws = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return n, [p for p, u in zip(pairs, draws) if u < density]


@settings(max_examples=60, deadline=None)
@given(sparse_symmetric_frameworks())
@example((16, []))
@example((16, [(0, 1)]))
def test_symmetric_preferred_and_stable_are_maximal_conflict_free(framework):
    # Coste-Marquis, Devred & Marquis (2005): in a symmetric irreflexive
    # framework the preferred (and the stable) extensions are exactly the
    # maximal conflict-free sets; the oracle finds those without the kernel
    n, pairs = framework
    af = af_of(n, pairs, symmetric=True)
    expected = sorted(to_mask(s) for s in maximal_conflict_free_sets(n, af.attacks))
    assert list(extensions(af, "preferred")) == expected
    assert list(extensions(af, "stable")) == expected


def test_maximal_conflict_free_oracle_matches_brute_preferred():
    for n in (0, 1, 2, 3, 4):
        for attacks in all_symmetric_relations(n):
            assert set(maximal_conflict_free_sets(n, attacks)) == \
                brute_extensions(n, attacks, "preferred")


@settings(max_examples=60, deadline=None)
@given(sparse_symmetric_frameworks())
@example((16, []))
@example((16, [(0, 1)]))
def test_packed_preferred_passes_on_symmetric_frameworks(framework):
    # extensions() answers preferred on these by the theorem, so call the
    # kernel's packed preferred passes directly
    n, pairs = framework
    attacks = frozenset(pairs) | {(b, a) for a, b in pairs}
    got = np.flatnonzero(extension_matrix(attack_columns(n, [attacks]), "preferred")[0])
    assert got.tolist() == sorted(to_mask(s) for s in maximal_conflict_free_sets(n, attacks))


@settings(max_examples=40, deadline=None)
@given(sparse_symmetric_frameworks())
@example((16, [(0, 1), (2, 3)]))
def test_symmetric_grounded_is_the_unattacked_arguments(framework):
    n, pairs = framework
    af = af_of(n, pairs, symmetric=True)
    unattacked = mask_of(a for a in range(n) if all(x != a for _, x in af.attacks))
    assert extensions(af, "grounded") == (unattacked,)
    assert unattacked == to_mask(grounded_extension(n, af.attacks))


def kernel_names(monkeypatch, n, pairs):
    """The extensions of (n, pairs) under each semantics from a cold cache,
    and the semantics names that ``_extensions_cached`` asked the kernel for."""
    asked, kernel = [], af_module.extension_matrix
    monkeypatch.setattr(af_module, "extension_matrix",
                        lambda att_from, names: asked.append(names) or kernel(att_from, names))
    _extensions_cached.cache_clear()
    got = {semantics: extensions(af_of(n, pairs), semantics) for semantics in SEMANTICS}
    return got, asked


@pytest.mark.parametrize("n,pairs", [
    (0, []), (1, []), (3, MUTUAL), (4, MUTUAL + [(1, 2), (2, 1), (2, 3), (3, 2)]),
    (5, [(0, 4), (4, 0), (1, 3), (3, 1), (2, 3), (3, 2)])])
def test_directed_framework_with_symmetric_relation_takes_the_shortcut(monkeypatch, n, pairs):
    got, asked = kernel_names(monkeypatch, n, pairs)
    assert asked == [("complete", "stable")]
    for semantics in SEMANTICS:
        assert set(got[semantics]) == {
            to_mask(s) for s in brute_extensions(n, pairs, semantics)}, semantics


def test_directed_framework_at_the_cap_without_attacks_takes_the_shortcut(monkeypatch):
    got, asked = kernel_names(monkeypatch, 16, [])
    assert asked == [("complete", "stable")]
    assert got == {semantics: (FULL16,) for semantics in SEMANTICS}


@pytest.mark.parametrize("n,pairs,preferred,stable", [
    (1, [(0, 0)], {0}, set()),
    (3, MUTUAL + [(2, 2)], {0b01, 0b10}, set()),
    (3, [(0, 0), (1, 2), (2, 1)], {0b010, 0b100}, set())])
def test_symmetric_relation_with_a_self_loop_takes_the_general_path(
        monkeypatch, n, pairs, preferred, stable):
    got, asked = kernel_names(monkeypatch, n, pairs)
    # the mutual pair's 3 complete extensions need 9 > 2^3 subset tests, so at
    # n = 3 the packed passes answer preferred
    assert asked == [("complete", "stable")] + ["preferred"] * (n == 3)
    assert (set(got["preferred"]), set(got["stable"])) == (preferred, stable)
    for semantics in SEMANTICS:
        assert set(got[semantics]) == {
            to_mask(s) for s in brute_extensions(n, pairs, semantics)}, semantics


# 7 mutual pairs and the chain 14 -> 15 -> 0: 3^7 complete and 2^7 preferred
# extensions, so the 2187^2 subset tests would cost more than the packed passes
MUTUAL7_CHAIN = [(a, a ^ 1) for a in range(14)] + [(14, 15), (15, 0)]


def test_many_complete_extensions_take_the_packed_preferred_passes(monkeypatch):
    got, asked = kernel_names(monkeypatch, 16, MUTUAL7_CHAIN)
    assert asked == [("complete", "stable"), "preferred"]
    assert [len(got[semantics]) for semantics in SEMANTICS] == [1, 2187, 128, 128]
    assert got["grounded"] == (1 << 14,)
    assert got["preferred"] == got["stable"]


@st.composite
def directed_frameworks(draw):
    """Mutual pairs over a random pairing of the arguments, which multiply the
    complete extensions by 3 each, maybe a self-attacker, and sparse directed
    attacks that may self-loop."""
    n = draw(st.integers(0, 12))
    order = draw(st.permutations(range(n)))
    pairs = [(order[i + j], order[i + 1 - j])
             for i in range(0, 2 * draw(st.integers(0, n // 2) | st.just(n // 2)), 2)
             for j in (0, 1)]
    if n and draw(st.booleans()):
        pairs.append((order[-1], order[-1]))
    density = draw(st.sampled_from((0.0, 0.02, 0.05, 0.15)))
    draws = draw(st.lists(st.floats(0, 1), min_size=n * n, max_size=n * n))
    return n, pairs + [p for p, u in zip(itertools.product(range(n), repeat=2), draws)
                       if u < density]


@settings(max_examples=120, deadline=None)
@given(directed_frameworks())
@example((16, [(a, a + 1) for a in range(15)]))  # acyclic: one complete extension
@example((16, MUTUAL7_CHAIN))
def test_directed_preferred_are_the_maximal_complete_extensions(framework):
    # Dung (1995): extensions() keeps the complete extensions with no complete
    # strict superset, or asks the packed passes when m^2 > 2^n; both must
    # give the passes' own answer and the oracles'
    n, pairs = framework
    fw = af_of(n, pairs)
    att_from = attack_columns(n, [fw.attacks])
    packed = np.flatnonzero(extension_matrix(att_from, "preferred")[0]).tolist()
    assert list(extensions(fw, "preferred")) == packed
    assert packed == np.flatnonzero(loop_extension_matrix(att_from, "preferred")[0]).tolist()
    if n <= 12:  # the brute oracle, not the examples at the cap
        assert set(packed) == {to_mask(s) for s in brute_extensions(n, fw.attacks, "preferred")}


def test_kernel_results_are_never_views_of_its_workspace():
    first = extension_matrix(random_columns(16, [(False, 0.1, 1)]), SEMANTICS)
    kept = [m.copy() for m in first]
    later = [extension_matrix(random_columns(8, [(True, 0.2, 2)]), SEMANTICS)]
    frameworks = [(seed % 2 == 0, 0.15, seed) for seed in range(5)]
    later.append(extension_matrix(random_columns(12, frameworks), SEMANTICS))
    # 3 x 2^16 entries, three times the workspace
    beyond = [(seed % 2 == 1, 0.1, seed) for seed in range(3)]
    later.append(extension_matrix(random_columns(16, beyond), SEMANTICS))
    for was, now in zip(kept, first, strict=True):
        assert np.array_equal(was, now)
    for result in [first] + later:
        for m in result:
            assert not any(np.shares_memory(m, buf) for buf in af_module._WORKSPACE)
            assert not any(np.shares_memory(m, other) for other in first if other is not m)
    for m in first:
        for result in later:
            assert not any(np.shares_memory(m, other) for other in result)
    for (n, frameworks), batched in zip(((12, frameworks), (16, beyond)), later[1:]):
        singles = [extension_matrix(random_columns(n, [f]), SEMANTICS) for f in frameworks]
        for semantics, got, *rows in zip(SEMANTICS, batched, *singles, strict=True):
            assert np.array_equal(got, np.concatenate(rows)), (n, semantics)


class TestBasicPredicates:
    """Frameworks of the conflict-freeness, acceptability and characteristic
    function checks, stated through the kernel: each matches the oracle under
    every semantics and shows its property in the extensions."""

    def test_conflict_free_singleton(self):
        assert_matches_oracle(2, MUTUAL)
        assert mask_of({0}) in extensions(af_of(2, MUTUAL), "stable")

    def test_conflict_free_mutual_attack_pair(self):
        assert_matches_oracle(2, MUTUAL)
        for semantics in SEMANTICS:
            assert mask_of({0, 1}) not in extensions(af_of(2, MUTUAL), semantics)

    def test_conflict_free_empty_relation(self):
        assert_matches_oracle(3, [])
        for semantics in SEMANTICS:
            assert extensions(af_of(3, []), semantics) == (mask_of({0, 1, 2}),)

    def test_defended_argument_is_acceptable(self):
        # 2 defends 0 against 1
        assert_matches_oracle(3, [(1, 0), (2, 1)])
        assert extensions(af_of(3, [(1, 0), (2, 1)]), "grounded") == (mask_of({0, 2}),)

    def test_undefended_attack(self):
        assert_matches_oracle(2, [(1, 0)])
        for semantics in SEMANTICS:
            assert all(not e & mask_of({0}) for e in extensions(af_of(2, [(1, 0)]), semantics))

    def test_unattacked_argument_vacuously_acceptable(self):
        assert_matches_oracle(3, [(0, 1)])
        assert extensions(af_of(3, [(0, 1)]), "grounded") == (mask_of({0, 2}),)

    def test_characteristic_no_attacks(self):
        # the characteristic function maps the empty set to everything
        assert_matches_oracle(2, [])
        assert extensions(af_of(2, []), "grounded") == (mask_of({0, 1}),)

    def test_characteristic_mutual_attack_empty_input(self):
        # ... and here to the empty set, its least fixed point
        assert_matches_oracle(2, MUTUAL)
        assert extensions(af_of(2, MUTUAL), "grounded") == (0,)

    def test_characteristic_defends_transitively(self):
        assert_matches_oracle(3, [(0, 1), (1, 2)])
        assert extensions(af_of(3, [(0, 1), (1, 2)]), "grounded") == (mask_of({0, 2}),)

    def test_out_of_range_subset_rejected(self):
        # subset masks enter through the model; the attack space of 2 arguments
        # has one symmetric variable
        assert_matches_oracle(2, [])
        space = AttackVariableSpace.create(2, mode="symmetric")
        with pytest.raises(InputError):
            theta_for_attacks(1 << 5, 2, space.attacks_of((0,)), "complete",
                              "exponential", 2.0)


class TestConstruction:
    def test_attack_index_out_of_range(self):
        with pytest.raises(InputError):
            af_of(2, [(0, 5)])

    @pytest.mark.parametrize("n,attacks", [(3, ((0, 5),)), (3, ((5, 0),)), (-1, ())])
    def test_attack_relation_entry_checks_like_construction(self, n, attacks):
        # the relation-keyed entry point rejects what ArgumentationFramework does
        with pytest.raises(InputError):
            af_of(n, attacks)
        with pytest.raises(InputError):
            extensions_for_attacks(n, attacks, "stable")
        with pytest.raises(InputError):  # the model's entry point, through its table
            theta_for_attacks(0, n, attacks, "complete", "linear", None)

    def test_symmetric_mode_rejects_self_attack(self):
        with pytest.raises(InputError):
            af_of(2, [(0, 0)], symmetric=True)

    def test_symmetric_mode_closes_pairs(self):
        af = af_of(2, [(0, 1)], symmetric=True)
        assert af.attacks == frozenset({(0, 1), (1, 0)})

    def test_directed_mode_allows_self_attack(self):
        af = af_of(1, [(0, 0)])
        assert extensions(af, "stable") == ()


class TestExtensions:
    def test_no_attacks_complete(self):
        af = af_of(2, [])
        assert extensions(af, "complete") == (mask_of({0, 1}),)

    def test_mutual_attack_complete(self):
        af = af_of(2, [(0, 1), (1, 0)])
        assert set(extensions(af, "complete")) == {0, mask_of({0}), mask_of({1})}

    def test_self_attacker_has_no_stable_extension(self):
        af = af_of(1, [(0, 0)])
        assert extensions(af, "stable") == ()

    def test_grounded_is_unique(self):
        for attacks in all_directed_relations(3):
            af = af_of(3, attacks)
            assert len(extensions(af, "grounded")) == 1

    def test_cap_enforced(self):
        af = af_of(ENUMERATION_CAP + 1, [])
        with pytest.raises(CapacityError):
            extensions(af, "complete")

    def test_unknown_semantics_rejected(self):
        with pytest.raises(InputError):
            extensions(af_of(2, []), "semistable")

    def test_all_four_semantics_share_one_kernel_call(self, monkeypatch):
        calls = []
        kernel = af_module.extension_matrix
        monkeypatch.setattr(af_module, "extension_matrix",
                            lambda *args: calls.append(args) or kernel(*args))
        fw = af_of(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (5, 6)])
        _extensions_cached.cache_clear()
        got = {semantics: extensions(fw, semantics) for semantics in SEMANTICS}
        info = _extensions_cached.cache_info()
        assert (info.misses, info.hits, len(calls)) == (1, 3, 1)
        for semantics in SEMANTICS:
            assert set(got[semantics]) == {
                to_mask(s) for s in brute_extensions(9, fw.attacks, semantics)}
        with pytest.raises(InputError):
            extensions(fw, "semistable")
        with pytest.raises(InputError):
            extensions_for_attacks(9, tuple(fw.attacks), "ideal")
        with pytest.raises(CapacityError):
            extensions_for_attacks(ENUMERATION_CAP + 1, (), "grounded")


@pytest.mark.parametrize("semantics", ["grounded", "complete", "preferred", "stable"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_matches_brute_force_all_directed(n, semantics):
    for attacks in all_directed_relations(n, self_loops=True):
        af = af_of(n, attacks)
        expected = {to_mask(s) for s in brute_extensions(n, attacks, semantics)}
        assert set(extensions(af, semantics)) == expected, (attacks, semantics)


@pytest.mark.parametrize("semantics", ["grounded", "complete", "preferred", "stable"])
def test_matches_brute_force_n4_symmetric(semantics):
    for attacks in all_symmetric_relations(4):
        af = af_of(4, attacks, symmetric=True)
        expected = {to_mask(s) for s in brute_extensions(4, attacks, semantics)}
        assert set(extensions(af, semantics)) == expected


def test_semantics_inclusion_hierarchy():
    # preferred subset of complete, stable subset of preferred, grounded
    # contained in every complete extension
    for n in (2, 3, 4):
        for attacks in itertools.islice(all_directed_relations(n), 0, None, 3):
            af = af_of(n, attacks)
            complete = set(extensions(af, "complete"))
            preferred = set(extensions(af, "preferred"))
            stable = set(extensions(af, "stable"))
            grounded = extensions(af, "grounded")[0]
            assert preferred <= complete
            assert stable <= preferred
            for ext in complete:
                assert grounded & ~ext == 0


def test_symmetric_preferred_equals_stable():
    for n in (2, 3, 4):
        for attacks in all_symmetric_relations(n):
            af = af_of(n, attacks, symmetric=True)
            assert set(extensions(af, "preferred")) == set(extensions(af, "stable"))


@pytest.mark.parametrize("semantics", ["complete", "preferred", "stable"])
def test_symmetric_irreflexive_extension_sets_distinct(semantics):
    # distinct symmetric irreflexive relations produce distinct extension sets
    for n in (2, 3, 4):
        seen = {}
        for attacks in all_symmetric_relations(n):
            key = frozenset(extensions(af_of(n, attacks, symmetric=True), semantics))
            assert key not in seen, (n, attacks, seen[key])
            seen[key] = attacks
