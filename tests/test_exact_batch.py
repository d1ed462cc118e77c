"""Batched exact inference against a per-assignment reference.

The reference enumerates the assignments itself, scores each one through its
own prior loop and the scalar functions (``joint_log_likelihood``, ``theta``,
``acceptability_likelihood``), and normalizes, sums and maximizes over a dict
in assignment order, so ``==`` checks that scoring all frameworks of a space
in one array pass changes no bit of any output.
"""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from argbayes import af, inference, model
from argbayes.errors import DegenerateEvidenceError, InputError
from argbayes.gibbs import GibbsConfig, run_gibbs
from argbayes.inference import (
    AttackVariableSpace,
    Observation,
    PosteriorDistribution,
    acceptability_likelihood,
    evidence,
    exact_posterior,
    joint_log_likelihood,
    map_estimate,
    ml_estimate,
    posterior_predictive,
    sequential_update,
    theta,
    unnormalized_log_masses,
)


def ref_assignments(space):
    free = space.free_indices
    for bits in itertools.product((0, 1), repeat=len(free)):
        att = dict(space.clamps)
        att.update(zip(free, bits))
        yield tuple(att[i] for i in range(len(space.variables)))


def ref_prior_log(att, space):
    clamped = {i for i, _ in space.clamps}
    lp = 0.0
    for i, (bit, lam) in enumerate(zip(att, space.priors)):
        if i in clamped:
            continue
        p = lam if bit else 1.0 - lam
        if p == 0.0:
            return -math.inf
        lp += math.log(p)
    return lp


def ref_log_masses(obs, space, cfg):
    out = {}
    for att in ref_assignments(space):
        lp = ref_prior_log(att, space)
        if lp > -math.inf:
            lp += joint_log_likelihood(obs, att, space, cfg)
        out[att] = lp
    return out


def ref_normalize(log_masses):
    finite = [v for v in log_masses.values() if v > -math.inf]
    if not finite:
        raise DegenerateEvidenceError("all assignments have zero posterior mass")
    mx = max(finite)
    unnorm = {k: (math.exp(v - mx) if v > -math.inf else 0.0)
              for k, v in log_masses.items()}
    z = 0.0
    for v in unnorm.values():
        z += v
    return {k: v / z for k, v in unnorm.items()}


def test_normaliser_adds_left_to_right():
    # a compensated sum (the builtin from Python 3.12 on) gives 1 + 1e-15
    # here, where adding left to right leaves 1.0
    unnorm = [1.0] + [1e-16] * 10
    assert math.fsum(unnorm) != 1.0
    post = inference._log_normalize(list(range(11)), np.log(unnorm))
    assert post[0] == 1.0 / inference._ordered_sum(unnorm) == 1.0



@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=False),
    st.floats(-1e-300, 1e-300, allow_subnormal=True),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, 1e300, -1e300))), max_size=40))
@example([])
@example([-0.0])
@example([-0.0, -0.0])
@example([1e300, 1e300, -math.inf])
def test_ordered_sum_is_a_left_to_right_loop(terms):
    total = 0.0
    for t in terms:
        total += t
    with np.errstate(over="ignore", invalid="ignore"):  # the loop overflows silently
        got = inference._ordered_sum(np.array(terms, dtype=float))
    assert type(got) is float
    if math.isnan(total):
        assert math.isnan(got)
    else:
        assert got == total and math.copysign(1.0, got) == math.copysign(1.0, total)


def ref_argmax_set(scores):
    best = max(scores.values())
    if best == -math.inf:
        return sorted(scores)
    return sorted(k for k, v in scores.items() if v == best)


def ref_evidence(e, space, cfg):
    total = 0.0
    for att in ref_assignments(space):
        p = math.exp(ref_prior_log(att, space))
        if p:
            total += p * theta(e, att, space, cfg)
    return total


def ref_sequential(entries, new_obs, space, cfg):
    log_masses = {}
    for att, p in entries.items():
        if p == 0.0:
            log_masses[att] = -math.inf
            continue
        term, = acceptability_likelihood([new_obs], att, space, cfg)
        log_masses[att] = math.log(p) + term
    return ref_normalize(log_masses)


def ref_predictive(e, entries, space, cfg, family=None):
    fam = family or cfg.prediction_family
    total = 0.0
    for att, p in entries.items():
        if p:
            total += p * theta(e, att, space, cfg, family=fam)
    return total


def outcome(f, *args):
    """The value of f(*args), or the type of the error it raises."""
    try:
        return f(*args)
    except (DegenerateEvidenceError, InputError) as e:
        return type(e)


MAX_FREE = 7


@st.composite
def spaces(draw):
    n = draw(st.integers(0, 4))
    mode = draw(st.sampled_from(("directed", "symmetric")))
    loops = mode == "directed" and draw(st.booleans())
    m = (n * n if loops else n * (n - 1)) if mode == "directed" else n * (n - 1) // 2
    priors = draw(st.lists(st.sampled_from((0.0, 0.2, 0.5, 0.9, 1.0)),
                           min_size=m, max_size=m))
    clamped = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    free = [i for i in range(m) if not clamped[i]]
    clamps = {i: draw(st.integers(0, 1))
              for i in sorted(set(range(m)) - set(free[:MAX_FREE]))}
    return AttackVariableSpace.create(n, mode=mode, priors=priors, clamps=clamps,
                                      include_self_loops=loops)


configs = st.builds(model.ModelConfig,
                    semantics=st.sampled_from(af.SEMANTICS),
                    family=st.sampled_from(model.FAMILIES),
                    w=st.sampled_from((1.5, 2.0, 3.0)),
                    prediction_family=st.sampled_from(model.FAMILIES))


def observations(n, max_size=6):
    return st.lists(st.builds(Observation, st.integers(0, (1 << n) - 1),
                              st.integers(0, 1), st.integers(1, 3)),
                    max_size=max_size)


@st.composite
def problems(draw):
    space = draw(spaces())
    return space, draw(configs), draw(observations(space.n_args))


# a directed 3-cycle has no stable extension; under the deterministic family
# the label-1 observation of a non-extension contradicts every relation
CYCLE = AttackVariableSpace.create(3, mode="directed", priors=0.5,
                                   clamps={0: 1, 1: 0, 2: 0, 3: 1})
STABLE = model.ModelConfig(semantics="stable", family="exponential", w=2.0)
DETERMINISTIC = model.ModelConfig(semantics="complete", family="deterministic",
                                  w=None, prediction_family="linear")
DEGENERATE = [Observation(0b011, 1), Observation(0b101, 1)]
EMPTY = AttackVariableSpace.create(0, mode="directed")


@settings(max_examples=150, deadline=None)
@given(problems())
@example((CYCLE, STABLE, [Observation(1, 0, 2), Observation(0, 1)]))
@example((CYCLE, DETERMINISTIC, DEGENERATE))
@example((EMPTY, model.ModelConfig(), []))
@example((EMPTY, DETERMINISTIC, [Observation(0, 1), Observation(0, 0)]))
def test_masses_posterior_and_estimates(problem):
    space, cfg, obs = problem
    masses = ref_log_masses(obs, space, cfg)
    assert list(unnormalized_log_masses(obs, space, cfg).items()) == list(masses.items())
    assert unnormalized_log_masses([], space, cfg) == \
        {att: ref_prior_log(att, space) for att in masses}
    assert map_estimate(obs, space, cfg) == ref_argmax_set(masses)
    ml = {att: joint_log_likelihood(obs, att, space, cfg) for att in masses}
    assert ml_estimate(obs, space, cfg) == ref_argmax_set(ml)
    got = outcome(lambda: list(exact_posterior(obs, space, cfg).entries.items()))
    want = outcome(lambda: list(ref_normalize(masses).items()))
    assert got == want


@settings(max_examples=100, deadline=None)
@given(spaces(), configs)
@example(EMPTY, DETERMINISTIC)
def test_evidence(space, cfg):
    for e in range(1 << space.n_args):
        assert evidence(e, space, cfg) == ref_evidence(e, space, cfg)


@settings(max_examples=150, deadline=None)
@given(problems(), st.builds(Observation, st.integers(0, 15), st.integers(0, 1),
                             st.integers(1, 3)),
       st.sampled_from(af.SEMANTICS))
@example((CYCLE, DETERMINISTIC, [Observation(0b101, 1)]), Observation(0, 1), "grounded")
@example((EMPTY, model.ModelConfig(), []), Observation(0, 1), "stable")
def test_sequential_update_and_predictive(problem, new_obs, other_semantics):
    space, cfg, obs = problem
    try:
        post = exact_posterior(obs, space, cfg)
    except DegenerateEvidenceError:
        return
    n = space.n_args
    new_obs = Observation(new_obs.subset % (1 << n), new_obs.label, new_obs.weight)
    other = model.ModelConfig(semantics=other_semantics, family=cfg.family, w=cfg.w,
                              prediction_family=cfg.prediction_family)
    entries = dict(post.entries)
    for e in range(1 << n):
        assert posterior_predictive(e, post, space, cfg) == \
            ref_predictive(e, entries, space, cfg)
        assert posterior_predictive(e, post, space, cfg, family=cfg.family) == \
            ref_predictive(e, entries, space, cfg, family=cfg.family)
        # the same posterior under another semantics needs other tables
        assert posterior_predictive(e, post, space, other) == \
            ref_predictive(e, entries, space, other)
    got = outcome(sequential_update, post, new_obs, space, cfg)
    want = outcome(ref_sequential, entries, new_obs, space, cfg)
    if isinstance(want, dict):
        assert list(got.entries.items()) == list(want.items())
        for e in range(1 << n):
            assert posterior_predictive(e, got, space, cfg) == \
                ref_predictive(e, want, space, cfg)
    else:
        assert got is want


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(0, 2**32 - 1))
def test_predictive_on_gibbs_histogram(problem, seed):
    space, cfg, obs = problem
    if not space.free_indices:
        return
    try:
        hist = run_gibbs(obs, space, cfg, GibbsConfig(12, 2, seed=seed))
    except DegenerateEvidenceError:
        return
    post = hist.to_posterior()
    entries = dict(post.entries)
    for e in range(1 << space.n_args):
        assert posterior_predictive(e, post, space, cfg) == \
            ref_predictive(e, entries, space, cfg)


@settings(max_examples=100, deadline=None)
@given(problems(), st.lists(st.builds(Observation, st.integers(0, 15),
                                      st.integers(0, 1), st.integers(1, 3)),
                            max_size=4))
def test_sequential_chain_equals_batch(problem, more):
    space, cfg, obs = problem
    n = space.n_args
    more = [Observation(o.subset % (1 << n), o.label, o.weight) for o in more]
    try:
        batch = exact_posterior(obs + more, space, cfg).entries
    except DegenerateEvidenceError:
        batch = DegenerateEvidenceError
    try:
        post = exact_posterior(obs, space, cfg)
        for o in more:
            post = sequential_update(post, o, space, cfg)
        chain = post.entries
    except DegenerateEvidenceError:
        chain = DegenerateEvidenceError
    if batch is DegenerateEvidenceError or chain is DegenerateEvidenceError:
        assert batch is chain
        return
    assert list(chain) == list(batch)
    for att, p in batch.items():
        assert math.isclose(chain[att], p, rel_tol=1e-9, abs_tol=1e-12)


def test_posterior_keeps_its_tables():
    space = AttackVariableSpace.create(3, mode="directed", priors=0.4)
    cfg = model.ModelConfig()
    post = exact_posterior([Observation(3, 1), Observation(4, 0)], space, cfg)
    tables = post._tables[(space, cfg.semantics)]
    assert tables.shape == (1 << len(space.variables), 1 << space.n_args)
    updated = sequential_update(post, Observation(1, 1), space, cfg)
    assert updated._tables[(space, cfg.semantics)] is tables
    hist = run_gibbs([Observation(3, 1)], space, cfg, GibbsConfig(10, 2, seed=1))
    sampled = hist.to_posterior()
    assert not sampled._tables
    posterior_predictive(5, sampled, space, cfg)
    assert sampled._tables[(space, cfg.semantics)].shape == \
        (len(sampled.entries), 1 << space.n_args)


def test_chunked_rebuild_equals_kept_tables(monkeypatch):
    space = AttackVariableSpace.create(3, mode="directed", priors=0.3)
    cfg = model.ModelConfig(semantics="preferred")
    obs = [Observation(3, 1), Observation(5, 0, 2), Observation(6, 1)]

    def outputs():
        post = exact_posterior(obs, space, cfg)
        return (post._tables != {}, list(post.entries.items()),
                [posterior_predictive(e, post, space, cfg) for e in range(8)],
                list(sequential_update(post, Observation(1, 1), space, cfg).entries.items()),
                evidence(3, space, cfg), map_estimate(obs, space, cfg))
    kept = outputs()
    # keep no tables, and score 5 frameworks of 8 subsets per chunk
    monkeypatch.setattr(inference, "_RETAIN_BYTES", 0)
    monkeypatch.setattr(inference, "_CHUNK_ENTRIES", 40)
    inference._scored.cache_clear()
    rebuilt = outputs()
    assert kept[0] and not rebuilt[0]
    assert kept[1:] == rebuilt[1:]


def test_exact_inference_at_twenty_free_variables_within_bound():
    # directed 5-argument space: 20 attack variables, 2^20 assignments
    space = AttackVariableSpace.create(5, mode="directed", priors=0.5)
    rng = np.random.default_rng(20)
    obs = [Observation(int(rng.integers(0, 32)), int(rng.random() < 0.75))
           for _ in range(20)]
    cfg = model.ModelConfig()
    start = time.perf_counter()
    post = exact_posterior(obs, space, cfg)
    p = posterior_predictive(0b00111, post, space, cfg)
    elapsed = time.perf_counter() - start
    assert len(post.entries) == 1 << 20
    assert 0.0 <= p <= 1.0
    assert elapsed < 60.0, f"k = 20 exact inference took {elapsed:.1f} s"


@pytest.mark.parametrize("key, error", [
    ((1, 0), "length"),
    ((1, 0, 2), "0 or 1"),
    ((0, 0, 1), "clamp"),
])
def test_predictive_rejects_bad_keys(key, error):
    space = AttackVariableSpace.create(3, mode="symmetric", clamps={0: 1})
    with pytest.raises(InputError, match=error):
        post = PosteriorDistribution.from_entries({(1, 1, 0): 0.5, key: 0.5})
        posterior_predictive(1, post, space, model.ModelConfig())
