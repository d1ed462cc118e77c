import numpy as np
import pytest

from argbayes.errors import PlanError
from argbayes.gibbs import GibbsConfig
from argbayes.harness import (
    ConvergenceStudy,
    SplitPlan,
    convergence_study,
    cross_validate,
    predictive_score,
    sample_observations,
    sample_participant_votes,
    synthetic_experiment,
)
from argbayes.inference import (
    AttackVariableSpace,
    Observation,
    PosteriorDistribution,
    exact_posterior,
)
from argbayes.model import ModelConfig

CFG = ModelConfig(semantics="complete", family="exponential", w=2.0)
G = GibbsConfig(iterations=200, burn_in=50, seed=0)


def sym3(priors=0.5):
    return AttackVariableSpace.create(3, mode="symmetric", priors=priors)


def cycle_dataset(cycles=4):
    out = []
    for _ in range(cycles):
        out += [Observation(1, 1), Observation(2, 1), Observation(4, 1)]
    return out


class TestSplitPlan:
    def test_repeats_positive(self):
        with pytest.raises(PlanError):
            SplitPlan(seed=0, train_sizes=(1,), repeats_per_size=0)

    def test_sizes_nonnegative(self):
        with pytest.raises(PlanError):
            SplitPlan(seed=0, train_sizes=(-1,))

    def test_seed_nonnegative(self):
        with pytest.raises(PlanError, match="seed"):
            SplitPlan(seed=-1, train_sizes=(1,))


class TestPredictiveScore:
    def test_point_mass_deterministic_prediction(self):
        space = sym3()
        post = PosteriorDistribution.from_entries({(1, 1, 1): 1.0}, kind="exact")
        # under the full triangle, each singleton is an extension: linear
        # prediction probability is 1 for singletons
        score = predictive_score([Observation(1, 1), Observation(2, 1)],
                                 post, space, CFG)
        assert score == pytest.approx(1.0)

    def test_label_zero_uses_complement(self):
        space = sym3()
        post = PosteriorDistribution.from_entries({(0, 0, 0): 1.0}, kind="exact")
        p1 = predictive_score([Observation(1, 1)], post, space, CFG)
        p0 = predictive_score([Observation(1, 0)], post, space, CFG)
        assert p0 == pytest.approx(1.0 - p1)

    def test_weighted_mean(self):
        space = sym3()
        post = PosteriorDistribution.from_entries({(0, 0, 0): 1.0}, kind="exact")
        a = predictive_score([Observation(1, 1, 3), Observation(7, 1, 1)],
                             post, space, CFG)
        b = predictive_score([Observation(1, 1), Observation(1, 1),
                              Observation(1, 1), Observation(7, 1)],
                             post, space, CFG)
        assert a == pytest.approx(b)


class TestCrossValidate:
    def test_empty_dataset(self):
        with pytest.raises(PlanError):
            cross_validate([], SplitPlan(0, (0,)), sym3(), CFG, G)

    def test_size_must_leave_test_data(self):
        data = cycle_dataset(1)
        with pytest.raises(PlanError):
            cross_validate(data, SplitPlan(0, (len(data),)), sym3(), CFG, G)

    def test_deterministic(self):
        data = cycle_dataset(3)
        plan = SplitPlan(7, (0, 4), repeats_per_size=3)
        a = cross_validate(data, plan, sym3(), CFG, G)
        b = cross_validate(data, plan, sym3(), CFG, G)
        assert a == b

    def test_zero_train_size_scores_prior(self):
        data = cycle_dataset(2)
        plan = SplitPlan(1, (0,), repeats_per_size=2)
        (point,) = cross_validate(data, plan, sym3(), CFG, G, method="exact")
        prior = exact_posterior([], sym3(), CFG)
        expected = predictive_score(data, prior, sym3(), CFG)
        assert point.mean_accuracy == pytest.approx(expected)
        # both repeats see the identical split, so no spread
        assert point.stddev == pytest.approx(0.0, abs=1e-12)

    def test_single_repeat_stddev_zero(self):
        data = cycle_dataset(2)
        plan = SplitPlan(1, (2,), repeats_per_size=1)
        (point,) = cross_validate(data, plan, sym3(), CFG, G, method="exact")
        assert point.stddev == 0.0

    def test_training_on_consistent_data_helps(self):
        data = cycle_dataset(4)
        plan = SplitPlan(3, (0, 9), repeats_per_size=4)
        points = cross_validate(data, plan, sym3(), CFG, G, method="exact")
        assert points[1].mean_accuracy > points[0].mean_accuracy

    def test_gibbs_method_runs(self):
        data = cycle_dataset(2)
        plan = SplitPlan(5, (3,), repeats_per_size=2)
        (point,) = cross_validate(data, plan, sym3(), CFG, G, method="gibbs")
        assert 0.0 <= point.mean_accuracy <= 1.0


class TestSampling:
    def test_sample_observations_reproducible(self):
        space = sym3()
        a = sample_observations((1, 0, 1), space, CFG, 20,
                                np.random.default_rng(3))
        b = sample_observations((1, 0, 1), space, CFG, 20,
                                np.random.default_rng(3))
        assert a == b

    def test_labels_track_theta(self):
        # theta of the full set under no attacks is 1: labels all 1
        space = sym3()
        obs = sample_observations((0, 0, 0), space, CFG, 200,
                                  np.random.default_rng(0))
        for o in obs:
            if o.subset == 7:
                assert o.label == 1

    def test_participant_votes_noise_free(self):
        space = sym3()
        obs = sample_participant_votes((1, 1, 1), space, CFG, 50, 0.0,
                                       np.random.default_rng(1))
        # extensions of the triangle: empty set and the three singletons
        assert {o.subset for o in obs} <= {0, 1, 2, 4}
        assert all(o.label == 1 for o in obs)

    def test_participant_votes_full_noise_flips_everything(self):
        space = sym3()
        obs = sample_participant_votes((0, 0, 0), space, CFG, 10, 1.0,
                                       np.random.default_rng(1))
        # sole extension is {a,b,c}; flipping every cell yields the empty set
        assert {o.subset for o in obs} == {0}


class TestSyntheticExperiment:
    def test_noiseless_consistent_data_recovers_truth(self):
        # strongly consistent data: singletons accepted repeatedly
        space = sym3(priors=0.5)
        report = synthetic_experiment((1, 1, 1), space, CFG, n_obs=120,
                                      g=G, seed=9, method="exact")
        assert report.map_hamming_distance == 0
        assert report.posterior_mass_on_truth > 0.5
        assert 0.0 <= report.predictive_accuracy <= 1.0

    def test_reproducible(self):
        space = sym3()
        a = synthetic_experiment((1, 0, 1), space, CFG, 30, G, seed=4)
        b = synthetic_experiment((1, 0, 1), space, CFG, 30, G, seed=4)
        assert a == b

    def test_gibbs_path(self):
        space = sym3()
        g = GibbsConfig(iterations=2000, burn_in=200, seed=2)
        report = synthetic_experiment((1, 1, 0), space, CFG, n_obs=120,
                                      g=g, seed=9, method="gibbs")
        assert report.map_hamming_distance == 0
        assert report.posterior_mass_on_truth > 0.9

    def test_negative_n_obs(self):
        with pytest.raises(PlanError):
            synthetic_experiment((1, 1, 0), sym3(), CFG, -1, G, seed=0)


class TestConvergenceStudy:
    def test_traces_and_counts(self):
        data = cycle_dataset(6)
        g = GibbsConfig(iterations=300, burn_in=0, seed=8)
        study = convergence_study(data, [0, 12], sym3(), CFG, g)
        assert set(study.traces) == {0, 12}
        assert all(len(t) == 300 for t in study.traces.values())
        assert study.distinct_counts[0] == study.traces[0][-1]

    def test_more_data_fewer_distinct(self):
        data = cycle_dataset(8)
        g = GibbsConfig(iterations=500, burn_in=0, seed=8)
        study = convergence_study(data, [0, 24], sym3(), CFG, g)
        assert study.distinct_counts[24] < study.distinct_counts[0]
        assert study.plateau_ok

    def test_size_exceeding_dataset(self):
        with pytest.raises(PlanError):
            convergence_study(cycle_dataset(1), [99], sym3(), CFG, G)

    def test_empty_study_plateau(self):
        assert ConvergenceStudy().plateau_ok
