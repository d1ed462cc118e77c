"""The scored form of the most recent (space, semantics) is kept per process.

Exact calls on a space read its bit rows, log prior and distance tables from
one cache entry, so repeated posterior, MAP, ML and evidence calls make no
further kernel call; the outputs equal those of the same calls on a cold
cache, bit for bit.
"""

import numpy as np
import pytest

from argbayes import af, inference, model
from argbayes.inference import (
    AttackVariableSpace,
    Observation,
    evidence,
    exact_posterior,
    map_estimate,
    ml_estimate,
    posterior_predictive,
    sequential_update,
    unnormalized_log_masses,
)

CFG = model.ModelConfig(semantics="complete", family="exponential", w=2.0)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Number of ``af.extension_matrix`` calls made so far, as a list of one."""
    calls = [0]
    kernel = af.extension_matrix

    def counted(*args, **kwargs):
        calls[0] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(af, "extension_matrix", counted)
    return calls


def seeded_obs(space, cfg, seed, count=20):
    """Observations drawn from a random true assignment, so that every
    family gives them a nonzero likelihood under some assignment."""
    rng = np.random.default_rng(seed)
    bits = space.assignment_bits()
    truth = tuple(bits[rng.integers(len(bits))].tolist())
    thetas = inference.subset_thetas(truth, space, cfg)
    subsets = rng.integers(0, 1 << space.n_args, count)
    return [Observation(int(d), int(rng.random() < thetas[d])) for d in subsets]


def test_requests_on_one_space_make_one_kernel_call(kernel_calls):
    space = AttackVariableSpace.create(4, mode="directed")
    requests = [seeded_obs(space, CFG, seed, count=21) for seed in range(3)]
    kernel_calls[0] = 0
    for *obs, extra in requests:
        post = exact_posterior(obs, space, CFG)
        map_estimate(obs, space, CFG)
        post2 = sequential_update(post, extra, space, CFG)
        for e in range(1 << space.n_args):
            posterior_predictive(e, post2, space, CFG)
    assert kernel_calls[0] == 1


def test_evidence_of_every_subset_makes_one_kernel_call(kernel_calls):
    space = AttackVariableSpace.create(3, mode="directed", priors=0.3)
    for e in range(1 << space.n_args):
        evidence(e, space, CFG)
    assert kernel_calls[0] == 1


def test_another_semantics_or_space_evicts_the_entry(kernel_calls):
    space = AttackVariableSpace.create(3, mode="directed")
    other = AttackVariableSpace.create(3, mode="directed", priors=0.4)
    preferred = model.ModelConfig(semantics="preferred")
    obs = seeded_obs(space, CFG, 5)
    kernel_calls[0], calls = 0, []
    for s, cfg in [(space, CFG), (space, CFG), (space, preferred), (space, CFG),
                   (other, CFG), (other, CFG), (space, CFG)]:
        map_estimate(obs, s, cfg)
        calls.append(kernel_calls[0])
        assert inference._scored.cache_info().currsize == 1
    assert calls == [1, 1, 2, 3, 4, 4, 5]


def test_cached_arrays_are_read_only():
    space = AttackVariableSpace.create(3, mode="symmetric", priors=0.2)
    post = exact_posterior(seeded_obs(space, CFG, 1), space, CFG)
    bits, prior, memo = inference._scored(space, CFG.semantics)
    assert post.bits is bits and post._tables is memo
    for array in (bits, prior, memo[(space, CFG.semantics)]):
        with pytest.raises(ValueError):
            array[0] = 1


def outputs(space, cfg, obs, extra, fresh):
    """Every exact output on one space; ``fresh`` empties the cache before
    each call."""
    def call(f, *args):
        if fresh:
            inference._scored.cache_clear()
        return f(*args)

    post = call(exact_posterior, obs, space, cfg)
    post2 = call(sequential_update, post, extra, space, cfg)
    return (list(post.entries.items()), list(post2.entries.items()),
            [call(posterior_predictive, e, post2, space, cfg) for e in range(1 << space.n_args)],
            call(map_estimate, obs, space, cfg), call(ml_estimate, obs, space, cfg),
            list(call(unnormalized_log_masses, obs, space, cfg).items()),
            [call(evidence, e, space, cfg) for e in range(1 << space.n_args)],
            list(call(exact_posterior, [], space, cfg).entries.items()))


@pytest.mark.parametrize("space, cfg", [
    (AttackVariableSpace.create(3, mode="directed", priors=0.3, clamps={2: 1}), CFG),
    (AttackVariableSpace.create(4, mode="symmetric", priors=0.6),
     model.ModelConfig(semantics="stable", family="linear")),
    (AttackVariableSpace.create(3, mode="directed"),
     model.ModelConfig(semantics="preferred", family="deterministic", w=None)),
])
def test_warm_outputs_equal_cold_outputs(space, cfg):
    *obs, extra = seeded_obs(space, cfg, 3, count=7)
    assert outputs(space, cfg, obs, extra, False) == outputs(space, cfg, obs, extra, True)


def test_space_over_the_retain_bound_is_scored_on_every_call(monkeypatch, kernel_calls):
    space = AttackVariableSpace.create(3, mode="directed", priors=0.3)
    *obs, extra = seeded_obs(space, CFG, 4, count=6)
    kept = outputs(space, CFG, obs, extra, True)
    monkeypatch.setattr(inference, "_RETAIN_BYTES", 0)
    inference._scored.cache_clear()
    before = kernel_calls[0]
    exact_posterior(obs, space, CFG)
    one_call = kernel_calls[0] - before
    map_estimate(obs, space, CFG)
    assert kernel_calls[0] - before == 2 * one_call
    assert outputs(space, CFG, obs, extra, False) == kept
