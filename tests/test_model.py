import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argbayes import af, model
from argbayes.errors import InputError
from argbayes.inference import (
    AttackVariableSpace,
    Observation,
    acceptability_likelihood,
    subset_thetas,
)
from argbayes.model import (
    ModelConfig,
    log_likelihood_table,
    theta_for_attacks,
    theta_table,
)

from oracle import all_directed_relations


def space3():
    return AttackVariableSpace.create(3, mode="symmetric")


@st.composite
def frameworks(draw):
    n = draw(st.integers(0, 6))
    arg = st.integers(0, max(n - 1, 0))
    attacks = draw(st.sets(st.tuples(arg, arg))) if n else set()
    return n, tuple(sorted(attacks)), draw(st.sampled_from(af.SEMANTICS))


class TestAgreement:
    """The distance table: Hamming distance from each subset mask to the
    nearest extension, n + 1 without an extension."""

    def test_perfect_agreement(self):
        # no attacks: the one complete extension is every argument
        dist = model._agreement_stats(3, (), "complete")
        assert dist.tolist() == [3 - bin(d).count("1") for d in range(8)]
        assert dist.dtype == np.int8 and not dist.flags.writeable

    def test_total_disagreement(self):
        # a self-attacker has no stable extension, so no subset agrees at all
        assert model._agreement_stats(1, ((0, 0),), "stable").tolist() == [2, 2]
        assert model.theta_table(1, "linear", None)[2] == 0.0

    def test_partial(self):
        # mutual attack: complete extensions {}, {0}, {1}
        assert model._agreement_stats(2, ((0, 1), (1, 0)), "complete").tolist() == \
            [0, 0, 0, 1]

    @settings(max_examples=200, deadline=None)
    @given(frameworks())
    def test_bounds(self, framework):
        # brute force: n minus the best tp + tn over the extensions
        n, key, semantics = framework
        exts = af.extensions_for_attacks(n, key, semantics)
        full = (1 << n) - 1
        want = [n - max(((e & d).bit_count() + (~e & ~d & full).bit_count()
                         for e in exts), default=-1)
                for d in range(1 << n)]
        assert model._agreement_stats(n, key, semantics).tolist() == want

    def test_out_of_range(self):
        space = AttackVariableSpace.create(2, mode="symmetric")
        for d in (-1, 1 << 2):
            with pytest.raises(InputError):
                theta_for_attacks(d, 2, space.attacks_of((0,)), "complete",
                                  "exponential", 2.0)
            with pytest.raises(InputError):
                acceptability_likelihood([Observation(0, 1), Observation(d, 1)], (0,),
                                         space, ModelConfig())


class TestModelConfig:
    def test_w_must_exceed_one(self):
        with pytest.raises(InputError):
            ModelConfig(family="exponential", w=1.0)

    @pytest.mark.parametrize("family,prediction_family",
                             [("exponential", "linear"), ("linear", "exponential")])
    def test_w_must_be_finite(self, family, prediction_family):
        # at w = inf, theta would be nan at distance 0
        with pytest.raises(InputError, match="w"):
            ModelConfig(family=family, w=math.inf, prediction_family=prediction_family)

    def test_w_required_for_exponential(self):
        with pytest.raises(InputError):
            ModelConfig(family="exponential", w=None)

    def test_linear_needs_no_w(self):
        cfg = ModelConfig(family="linear", w=None, prediction_family="linear")
        assert cfg.family == "linear"

    def test_unknown_semantics(self):
        with pytest.raises(InputError):
            ModelConfig(semantics="nope")


class TestTheta:
    def test_no_attacks_linear_singleton(self):
        cfg = ModelConfig(family="linear", w=None)
        assert subset_thetas((0, 0, 0), space3(), cfg)[0b001] == pytest.approx(1 / 3)

    def test_no_attacks_exponential_singleton(self):
        cfg = ModelConfig(family="exponential", w=2.0)
        assert subset_thetas((0, 0, 0), space3(), cfg)[0b001] == pytest.approx(1 / 7)

    def test_one_attack_exponential_singleton(self):
        cfg = ModelConfig(family="exponential", w=2.0)
        assert subset_thetas((1, 0, 0), space3(), cfg)[0b001] == pytest.approx(3 / 7)

    def test_deterministic_is_extension_indicator(self):
        cfg = ModelConfig(family="deterministic", w=None,
                          prediction_family="deterministic")
        # no attacks: the only complete extension is everything
        assert subset_thetas((0, 0, 0), space3(), cfg)[0b111] == 1.0
        assert subset_thetas((0, 0, 0), space3(), cfg)[0b011] == 0.0

    def test_empty_extension_set_gives_zero(self):
        # a self-attacker has no stable extension
        cfg = ModelConfig(semantics="stable", family="linear", w=None)
        assert theta_for_attacks(0, 1, ((0, 0),), "stable", "linear", None) == 0.0
        assert theta_for_attacks(0, 1, ((0, 0),), "stable", "exponential", 2.0) == 0.0

    def test_range_and_certainty_condition(self):
        # theta in [0,1]; theta == 1 exactly when some extension agrees on all
        # n arguments, i.e. the subset is itself an extension
        from argbayes.af import extensions_for_attacks
        for family, w in (("deterministic", None), ("linear", None),
                          ("exponential", 2.0)):
            for attacks in all_directed_relations(3):
                exts = extensions_for_attacks(3, tuple(sorted(attacks)), "complete")
                for d in range(8):
                    t = theta_for_attacks(d, 3, tuple(sorted(attacks)),
                                          "complete", family, w)
                    assert 0.0 <= t <= 1.0
                    assert (t == 1.0) == (d in exts)

    def test_monotone_in_agreement(self):
        for family, w in (("linear", None), ("exponential", 2.0),
                          ("exponential", 100.0)):
            values = [theta_table(5, family, w)[5 - s] for s in range(6)]
            assert values == sorted(values)

    def test_overflow_safe_exponential(self):
        t = theta_table(10, "exponential", 1e200)[10 - 9]
        assert t == pytest.approx(1e-200, rel=1e-6)
        assert theta_table(10, "exponential", 1e200)[10 - 10] == pytest.approx(1.0)


class TestLimits:
    def test_exponential_to_deterministic_large_w(self):
        worst = 0.0
        for attacks in all_directed_relations(3):
            key = tuple(sorted(attacks))
            for d in range(8):
                hi = theta_for_attacks(d, 3, key, "complete", "exponential", 1e6)
                det = theta_for_attacks(d, 3, key, "complete", "deterministic", None)
                worst = max(worst, abs(hi - det))
        assert worst < 1e-3

    def test_exponential_to_linear_small_w(self):
        worst = 0.0
        for attacks in all_directed_relations(3):
            key = tuple(sorted(attacks))
            for d in range(8):
                lo = theta_for_attacks(d, 3, key, "complete", "exponential", 1 + 1e-6)
                lin = theta_for_attacks(d, 3, key, "complete", "linear", None)
                worst = max(worst, abs(lo - lin))
        assert worst < 1e-3


def test_off_extension_theta_below_half_for_w_at_least_two():
    from argbayes.af import extensions_for_attacks
    for w in (2.0, 3.0, 10.0):
        for attacks in all_directed_relations(3):
            key = tuple(sorted(attacks))
            exts = extensions_for_attacks(3, key, "complete")
            for d in range(8):
                if d not in exts:
                    t = theta_for_attacks(d, 3, key, "complete", "exponential", w)
                    assert t < 0.5, (attacks, d, w)


class TestLikelihood:
    # at n = 3, w = 2 and distance 2, theta = (2^1 - 1) / (2^3 - 1) = 1/7
    def test_positive_label(self):
        assert math.exp(log_likelihood_table(3, "exponential", 2.0)[1, 2]) == \
            pytest.approx(1 / 7)

    def test_negative_label(self):
        assert math.exp(log_likelihood_table(3, "exponential", 2.0)[0, 2]) == \
            pytest.approx(6 / 7)

    def test_contradicting_certain_extension(self):
        cfg = ModelConfig(family="deterministic", w=None,
                          prediction_family="deterministic")
        t = subset_thetas((0, 0, 0), space3(), cfg)[0b111]
        assert t == 1.0
        # label 0 on an extension (distance 0) is a zero factor
        assert log_likelihood_table(3, "deterministic", None)[0, 0] == -math.inf

    def test_bad_label(self):
        with pytest.raises(InputError):
            Observation(0, 2)

    @pytest.mark.parametrize("table", [theta_table, log_likelihood_table])
    def test_tables_are_read_only_and_read_w_only_for_exponential(self, table):
        for family in model.FAMILIES:
            with pytest.raises(ValueError):
                table(4, family, 2.0)[..., 0] = 0.5
        for family in ("deterministic", "linear"):
            assert table(4, family, None).tobytes() == table(4, family, 100.0).tobytes()
