import itertools
import math
import re

import pytest

from argbayes.af import extensions_for_attacks
from argbayes.errors import CapacityError, DegenerateEvidenceError, InputError
from argbayes.inference import (
    AttackVariableSpace,
    Observation,
    PosteriorDistribution,
    evidence,
    exact_posterior,
    joint_log_likelihood,
    map_estimate,
    merge_observations,
    ml_estimate,
    ml_prediction,
    posterior_predictive,
    sequential_update,
    theta,
    unnormalized_log_masses,
)
from argbayes.model import ModelConfig

from oracle import all_directed_relations

CFG = ModelConfig(semantics="complete", family="exponential", w=2.0)


def sym3(priors=0.5, clamps=None):
    return AttackVariableSpace.create(3, mode="symmetric", priors=priors,
                                      clamps=clamps)


def dir_space(n, priors=0.5):
    return AttackVariableSpace.create(n, mode="directed", priors=priors)


class TestSpace:
    def test_directed_variable_order(self):
        assert dir_space(2).variables == ((0, 1), (1, 0))

    def test_symmetric_variable_order(self):
        assert sym3().variables == ((0, 1), (0, 2), (1, 2))

    def test_priors_broadcast(self):
        assert sym3().priors == (0.5, 0.5, 0.5)

    def test_negative_argument_count(self):
        with pytest.raises(InputError):
            AttackVariableSpace.create(-2)

    def test_prior_length_mismatch(self):
        with pytest.raises(InputError):
            AttackVariableSpace.create(3, priors=[0.5, 0.5])

    def test_clamped_assignments_fixed(self):
        space = sym3(clamps={0: 1})
        assert all(att[0] == 1 for att in space.assignments())
        assert len(list(space.assignments())) == 4

    def test_clamp_violation_rejected(self):
        space = sym3(clamps={0: 1})
        with pytest.raises(InputError):
            space.check((0, 0, 0))

    def test_symmetric_attacks_expand(self):
        assert sym3().attacks_of((1, 0, 0)) == ((0, 1), (1, 0))

    def test_assignment_round_trip(self):
        space = sym3()
        for att in space.assignments():
            assert space.assignment_from_attacks(space.attacks_of(att)) == att

    @pytest.mark.parametrize("space, attacks, message", [
        (sym3(), [(0, 1)], "(0, 1) lacks its reverse (1, 0)"),
        (sym3(), [(0, 0)], "(0, 0) has no variable"),
        (sym3(), [(0, 3), (3, 0)], "(0, 3) has no variable"),
        (dir_space(3), [(0, 1), (2, 2)], "(2, 2) has no variable"),
        (dir_space(3), [(1, 5)], "(1, 5) has no variable"),
    ])
    def test_relation_outside_the_space_rejected(self, space, attacks, message):
        with pytest.raises(InputError, match=re.escape(message)):
            space.assignment_from_attacks(attacks)


class TestPrior:
    # with no observations, the unnormalized log mass is the log prior
    def test_uniform(self):
        space = sym3()
        prior = unnormalized_log_masses([], space, CFG)
        for att in space.assignments():
            assert math.exp(prior[att]) == pytest.approx(0.125)

    def test_product_of_lambdas(self):
        prior = unnormalized_log_masses([], sym3(priors=(0.1, 0.15, 0.2)), CFG)
        assert math.exp(prior[(1, 1, 1)]) == pytest.approx(0.003)
        assert math.exp(prior[(0, 0, 0)]) == pytest.approx(0.9 * 0.85 * 0.8)

    def test_clamped_variable_contributes_factor_one(self):
        space = sym3(priors=(0.1, 0.5, 0.5), clamps={0: 1})
        assert math.exp(unnormalized_log_masses([], space, CFG)[(1, 0, 0)]) == \
            pytest.approx(0.25)

    def test_sums_to_one(self):
        space = sym3(priors=(0.3, 0.6, 0.9))
        prior = unnormalized_log_masses([], space, CFG)
        assert sum(math.exp(prior[a]) for a in space.assignments()) == pytest.approx(1.0)


class TestJointLikelihood:
    def test_empty_observations(self):
        assert joint_log_likelihood([], (0, 0, 0), sym3(), CFG) == 0.0

    def test_two_argument_mutual_attack(self):
        space = AttackVariableSpace.create(2, mode="symmetric")
        obs = [Observation(0, 1), Observation(3, 1)]
        assert joint_log_likelihood(obs, (1,), space, CFG) == pytest.approx(math.log(1 / 3))

    def test_zero_factor_gives_minus_inf(self):
        space = AttackVariableSpace.create(2, mode="symmetric")
        obs = [Observation(0, 1), Observation(3, 1)]
        assert joint_log_likelihood(obs, (0,), space, CFG) == -math.inf

    def test_weight_multiplies(self):
        space = sym3()
        obs1 = [Observation(1, 1, weight=3)]
        obs2 = [Observation(1, 1)] * 3
        for att in space.assignments():
            assert joint_log_likelihood(obs1, att, space, CFG) == pytest.approx(
                joint_log_likelihood(obs2, att, space, CFG))


class TestMergeObservations:
    def test_merges_weights(self):
        merged = merge_observations([Observation(1, 1), Observation(1, 1)])
        assert merged == [Observation(1, 1, 2)]

    def test_distinct_labels_not_merged(self):
        merged = merge_observations([Observation(1, 1), Observation(1, 0)])
        assert len(merged) == 2


class TestExactPosterior:
    def test_no_observations_returns_prior(self):
        space = sym3(priors=(0.1, 0.15, 0.2))
        post = exact_posterior([], space, CFG)
        prior = unnormalized_log_masses([], space, CFG)
        for att in space.assignments():
            assert post.prob(att) == pytest.approx(math.exp(prior[att]))

    def test_single_observation_masses(self):
        # one observation ({a},1), uniform priors: unnormalized masses
        # proportional to (1/7, 3/7, 3/7, 1, 1, 3/7, 3/7, 1) / 8
        space = sym3()
        masses = unnormalized_log_masses([Observation(1, 1)], space, CFG)
        expected = {
            (0, 0, 0): 1 / 7, (1, 0, 0): 3 / 7, (0, 1, 0): 3 / 7,
            (1, 1, 0): 1.0, (0, 0, 1): 1.0, (1, 0, 1): 3 / 7,
            (0, 1, 1): 3 / 7, (1, 1, 1): 1.0,
        }
        for att, v in expected.items():
            assert math.exp(masses[att]) == pytest.approx(v / 8, abs=1e-15)

    def test_normalized(self):
        space = sym3(priors=(0.2, 0.5, 0.9))
        post = exact_posterior([Observation(5, 1), Observation(2, 0)], space, CFG)
        assert sum(post.entries.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(p >= 0 for p in post.entries.values())

    def test_capacity_error(self):
        space = AttackVariableSpace.create(8, mode="directed")  # 56 variables
        with pytest.raises(CapacityError):
            exact_posterior([], space, CFG)

    def test_degenerate_deterministic_evidence(self):
        cfg = ModelConfig(family="deterministic", w=None,
                          prediction_family="deterministic")
        space = AttackVariableSpace.create(2, mode="symmetric")
        obs = [Observation(0, 1), Observation(3, 1)]  # no relation explains both
        with pytest.raises(DegenerateEvidenceError):
            exact_posterior(obs, space, cfg)

    def test_posterior_mass_concentrates_with_cycles(self):
        space = sym3(priors=(0.1, 0.15, 0.2))
        obs = [Observation(1, 1, 20), Observation(2, 1, 20), Observation(4, 1, 20)]
        post = exact_posterior(obs, space, CFG)
        assert post.prob((1, 1, 1)) >= 0.99


class TestPosteriorArrays:
    def test_entries_view_rows_in_order(self):
        space = sym3(priors=(0.2, 0.5, 0.9))
        post = exact_posterior([Observation(5, 1)], space, CFG)
        assert list(post.entries) == list(space.assignments())
        assert list(post.entries.values()) == post.probs.tolist()
        assert post.entries is post.entries
        with pytest.raises(ValueError):
            post.probs[0] = 1.0
        with pytest.raises(ValueError):
            post.bits[0, 0] = 1

    @pytest.mark.parametrize("p", [math.nan, math.inf, -0.5])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(InputError, match="finite and nonnegative"):
            PosteriorDistribution.from_entries({(0,): p, (1,): 1.0})

    def test_rejects_mass_other_than_one(self):
        with pytest.raises(InputError, match="sums to"):
            PosteriorDistribution.from_entries({(0,): 0.5, (1,): 0.25})
        with pytest.raises(InputError, match="sums to"):
            PosteriorDistribution.from_entries({})


class TestSequentialUpdate:
    def test_constant_likelihood_leaves_posterior_unchanged(self):
        space = sym3(priors=(0.1, 0.15, 0.2))
        post = exact_posterior([Observation(1, 1)], space, CFG)
        # the full set {a,b,c} has theta 1 under no attacks only; use an
        # observation whose theta is constant across assignments instead:
        # with deterministic weights this is hard, so check against batch.
        updated = sequential_update(post, Observation(2, 1), space, CFG)
        batch = exact_posterior([Observation(1, 1), Observation(2, 1)], space, CFG)
        for att in space.assignments():
            assert updated.prob(att) == pytest.approx(batch.prob(att), abs=1e-12)

    def test_order_invariance(self):
        space = sym3(priors=(0.3, 0.5, 0.7))
        obs = [Observation(1, 1), Observation(6, 0), Observation(2, 1)]
        batch = exact_posterior(obs, space, CFG)
        for perm in itertools.permutations(obs):
            post = exact_posterior([], space, CFG)
            for o in perm:
                post = sequential_update(post, o, space, CFG)
            for att in space.assignments():
                assert post.prob(att) == pytest.approx(batch.prob(att), abs=1e-12)

    def test_requires_exact_kind(self):
        post = PosteriorDistribution.from_entries({(0,): 1.0}, kind="sampled")
        space = AttackVariableSpace.create(2, mode="symmetric")
        with pytest.raises(InputError):
            sequential_update(post, Observation(0, 1), space, CFG)


class TestEstimates:
    def test_two_argument_ml(self):
        space = dir_space(2)
        obs = [Observation(0, 1), Observation(3, 1)]
        assert ml_estimate(obs, space, CFG) == [(1, 1)]

    def test_no_observations_all_tied(self):
        space = sym3()
        assert len(ml_estimate([], space, CFG)) == 8

    def test_map_equals_ml_under_uniform_prior(self):
        space = sym3()
        obs = [Observation(1, 1), Observation(3, 0)]
        assert map_estimate(obs, space, CFG) == ml_estimate(obs, space, CFG)

    def test_extreme_prior_dominates(self):
        space = sym3(priors=(1.0, 1.0, 1.0))
        obs = [Observation(1, 1)]
        assert map_estimate(obs, space, CFG) == [(1, 1, 1)]

    def test_map_agrees_with_posterior_argmax(self):
        space = sym3(priors=(0.2, 0.6, 0.8))
        obs = [Observation(1, 1), Observation(2, 1), Observation(7, 0)]
        post = exact_posterior(obs, space, CFG)
        best = max(post.entries.values())
        argmax = sorted(a for a, p in post.entries.items()
                        if p == pytest.approx(best))
        assert map_estimate(obs, space, CFG) == argmax

    def test_true_relation_among_ml_on_noiseless_data(self):
        # labelling every subset by extension membership makes the encoding
        # of the generating relation an ML estimate
        space = sym3()
        for truth in space.assignments():
            exts = set(extensions_for_attacks(3, space.attacks_of(truth), "complete"))
            obs = [Observation(d, 1 if d in exts else 0) for d in range(8)]
            assert truth in ml_estimate(obs, space, CFG)


class TestInverseProblemVsML:
    # Note: the inverse-solution => ML property can fail for directed
    # relations (a relation with fewer extensions wins on the label-0
    # observations), so it is checked on symmetric spaces, where extension
    # sets identify the relation uniquely.
    @pytest.mark.parametrize("n", [3, 4])
    def test_every_inverse_solution_is_ml(self, n):
        space = AttackVariableSpace.create(n, mode="symmetric")
        all_assignments = list(space.assignments())
        ext_of = {att: frozenset(extensions_for_attacks(n, space.attacks_of(att),
                                                        "complete"))
                  for att in all_assignments}
        for target in all_assignments:
            obs = [Observation(d, 1 if d in ext_of[target] else 0)
                   for d in range(1 << n)]
            inverse_solutions = {att for att in all_assignments
                                 if ext_of[att] == ext_of[target]}
            ml = set(ml_estimate(obs, space, CFG))
            assert inverse_solutions <= ml

    def test_ml_exists_where_inverse_has_no_solution(self):
        space = dir_space(2)
        target = frozenset({0, 3})  # {} and {a,b} acceptable: unrealizable
        for att in space.assignments():
            exts = frozenset(extensions_for_attacks(2, space.attacks_of(att),
                                                    "complete"))
            assert exts != target
        obs = [Observation(0, 1), Observation(3, 1)]
        assert ml_estimate(obs, space, CFG) == [(1, 1)]


class TestEvidence:
    def test_hand_enumeration_one_variable(self):
        space = AttackVariableSpace.create(2, mode="symmetric")
        # theta_{a|no attack} = 1/3 (sole extension {a,b}), theta_{a|attack} = 1
        assert theta(1, (0,), space, CFG) == pytest.approx(1 / 3)
        assert theta(1, (1,), space, CFG) == pytest.approx(1.0)
        assert evidence(1, space, CFG) == pytest.approx(0.5 * 1 / 3 + 0.5 * 1.0)

    def test_all_clamped_prior_is_point_mass(self):
        space = sym3(clamps={0: 1, 1: 1, 2: 0})
        att = (1, 1, 0)
        for e in range(8):
            assert evidence(e, space, CFG) == pytest.approx(theta(e, att, space, CFG))

    def test_degenerate_zero_prior(self):
        space = sym3(priors=(0.0, 0.0, 0.0))
        for e in range(8):
            assert evidence(e, space, CFG) == pytest.approx(
                theta(e, (0, 0, 0), space, CFG))


class TestMLPrediction:
    def test_mutual_attack_two_arguments(self):
        space = dir_space(2)
        labels = ml_prediction((1, 1), space, CFG)
        assert [d for d, l in enumerate(labels) if l] == [0, 1, 2]

    def test_no_attacks_three_arguments(self):
        space = dir_space(3)
        labels = ml_prediction((0,) * 6, space, CFG)
        assert [d for d, l in enumerate(labels) if l] == [7]

    def test_deterministic_family_gives_indicator(self):
        cfg = ModelConfig(family="deterministic", w=None,
                          prediction_family="deterministic")
        space = dir_space(3)
        for attacks in itertools.islice(all_directed_relations(3), 0, None, 9):
            att = space.assignment_from_attacks(attacks)
            exts = set(extensions_for_attacks(3, space.attacks_of(att), "complete"))
            labels = ml_prediction(att, space, cfg)
            assert {d for d, l in enumerate(labels) if l} == exts

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_extensions_and_unique_for_w2(self, n):
        space = dir_space(n)
        for att in space.assignments():
            exts = set(extensions_for_attacks(n, space.attacks_of(att), "complete"))
            labels = ml_prediction(att, space, CFG)
            assert {d for d, l in enumerate(labels) if l} == exts
            # uniqueness of the likelihood maximizer: no subset sits at 0.5
            for d in range(1 << n):
                assert theta(d, att, space, CFG) != pytest.approx(0.5, abs=1e-12)


class TestPosteriorPredictive:
    def test_point_mass(self):
        space = sym3()
        post = PosteriorDistribution.from_entries({(1, 1, 1): 1.0}, kind="exact")
        for e in range(8):
            expected = theta(e, (1, 1, 1), space, CFG, family="linear")
            assert posterior_predictive(e, post, space, CFG) == pytest.approx(expected)

    def test_uniform_mixture_of_zero_and_one(self):
        space = AttackVariableSpace.create(2, mode="symmetric")
        cfg = ModelConfig(family="deterministic", w=None,
                          prediction_family="deterministic")
        post = PosteriorDistribution.from_entries({(0,): 0.5, (1,): 0.5}, kind="exact")
        # {a,b} is an extension only without the attack
        assert posterior_predictive(3, post, space, cfg) == pytest.approx(0.5)

    def test_concentrated_posterior_predicts_full_triangle(self):
        space = sym3(priors=(0.1, 0.15, 0.2))
        obs = [Observation(1, 1, 20), Observation(2, 1, 20), Observation(4, 1, 20)]
        post = exact_posterior(obs, space, CFG)
        assert posterior_predictive(1, post, space, CFG) == pytest.approx(
            theta(1, (1, 1, 1), space, CFG, family="linear"), abs=1e-6)

    def test_prediction_family_override(self):
        space = sym3()
        post = PosteriorDistribution.from_entries({(0, 0, 0): 1.0}, kind="exact")
        lin = posterior_predictive(1, post, space, CFG, family="linear")
        exp = posterior_predictive(1, post, space, CFG, family="exponential")
        assert lin == pytest.approx(1 / 3)
        assert exp == pytest.approx(1 / 7)
