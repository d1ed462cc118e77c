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
    joint_log_likelihood,
    theta,
)
from argbayes.model import (
    ModelConfig,
    acceptability_likelihood_value,
    theta_for_attacks,
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
                theta(d, (0,), space, ModelConfig())
            with pytest.raises(InputError):
                joint_log_likelihood([Observation(0, 1), Observation(d, 1)], (0,),
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
        assert theta(0b001, (0, 0, 0), space3(), cfg) == pytest.approx(1 / 3)

    def test_no_attacks_exponential_singleton(self):
        cfg = ModelConfig(family="exponential", w=2.0)
        assert theta(0b001, (0, 0, 0), space3(), cfg) == pytest.approx(1 / 7)

    def test_one_attack_exponential_singleton(self):
        cfg = ModelConfig(family="exponential", w=2.0)
        assert theta(0b001, (1, 0, 0), space3(), cfg) == pytest.approx(3 / 7)

    def test_deterministic_is_extension_indicator(self):
        cfg = ModelConfig(family="deterministic", w=None,
                          prediction_family="deterministic")
        # no attacks: the only complete extension is everything
        assert theta(0b111, (0, 0, 0), space3(), cfg) == 1.0
        assert theta(0b011, (0, 0, 0), space3(), cfg) == 0.0

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
            from argbayes.model import theta_value
            values = [theta_value(s, s == 5, 5, family, w) for s in range(6)]
            assert values == sorted(values)

    def test_overflow_safe_exponential(self):
        from argbayes.model import theta_value
        t = theta_value(9, False, 10, "exponential", 1e200)
        assert t == pytest.approx(1e-200, rel=1e-6)
        assert theta_value(10, True, 10, "exponential", 1e200) == pytest.approx(1.0)


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
    def test_positive_label(self):
        assert acceptability_likelihood_value(1, 1 / 7) == pytest.approx(1 / 7)

    def test_negative_label(self):
        assert acceptability_likelihood_value(0, 1 / 7) == pytest.approx(6 / 7)

    def test_contradicting_certain_extension(self):
        cfg = ModelConfig(family="deterministic", w=None,
                          prediction_family="deterministic")
        t = theta(0b111, (0, 0, 0), space3(), cfg)
        assert acceptability_likelihood_value(0, t) == 0.0

    def test_bad_label(self):
        with pytest.raises(InputError):
            acceptability_likelihood_value(2, 0.5)
