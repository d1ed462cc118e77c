"""The vectorised likelihood path against a per-observation reference.

The reference scores one observation at a time through the scalar model
functions and sums in observation order, so ``==`` checks that batching the
observations changes no bit of the joint log likelihood or of the Gibbs
conditional.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from argbayes import af, model
from argbayes.errors import DegenerateEvidenceError
from argbayes.gibbs import GibbsConfig, gibbs_conditional, run_gibbs
from argbayes.inference import AttackVariableSpace, Observation, joint_log_likelihood


def reference_log_terms(obs, att, space, cfg):
    w = cfg.w if cfg.family == "exponential" else None
    for o in obs:
        t = model.theta_for_attacks(o.subset, space.n_args, space.attacks_of(att),
                                    cfg.semantics, cfg.family, w)
        p = model.acceptability_likelihood_value(o.label, t)
        if p == 0.0:
            yield -math.inf
            return
        yield o.weight * math.log(p)


def reference_joint(obs, att, space, cfg):
    total = 0.0
    for t in reference_log_terms(obs, att, space, cfg):
        total += t
    return total


def reference_conditional(m, current, obs, space, cfg):
    lam = space.priors[m]
    logp = [math.log(1 - lam) if lam < 1 else -math.inf,
            math.log(lam) if lam > 0 else -math.inf]
    for b in (0, 1):
        if logp[b] == -math.inf:
            continue
        att_b = current[:m] + (b,) + current[m + 1:]
        for t in reference_log_terms(obs, att_b, space, cfg):
            logp[b] += t
    if logp[0] == -math.inf and logp[1] == -math.inf:
        raise DegenerateEvidenceError("both values have zero conditional mass")
    if logp[0] == -math.inf:
        return 0.0, 1.0
    if logp[1] == -math.inf:
        return 1.0, 0.0
    p1 = 1.0 / (1.0 + math.exp(logp[0] - logp[1]))
    return 1.0 - p1, p1


@st.composite
def problems(draw):
    n = draw(st.integers(1, 4))
    mode = draw(st.sampled_from(("directed", "symmetric")))
    n_vars = n * (n - 1) if mode == "directed" else n * (n - 1) // 2
    priors = draw(st.lists(st.sampled_from((0.0, 0.2, 0.5, 0.9, 1.0)),
                           min_size=n_vars, max_size=n_vars))
    space = AttackVariableSpace.create(n, mode=mode, priors=priors)
    att = tuple(draw(st.lists(st.integers(0, 1), min_size=n_vars, max_size=n_vars)))
    family = draw(st.sampled_from(model.FAMILIES))
    cfg = model.ModelConfig(semantics=draw(st.sampled_from(af.SEMANTICS)),
                            family=family,
                            w=draw(st.sampled_from((1.5, 2.0, 3.0))),
                            prediction_family="linear")
    obs = draw(st.lists(st.builds(Observation, st.integers(0, (1 << n) - 1),
                                  st.integers(0, 1), st.integers(1, 3)),
                        max_size=8))
    return obs, att, space, cfg


# a directed 3-cycle has no stable extension, so under stable semantics the
# first label-1 observation is a zero factor; under deterministic complete
# semantics the first label-1 non-extension is. Both come mid-list.
CYCLE = AttackVariableSpace.create(3, mode="directed", priors=0.5)
CYCLE_ATT = CYCLE.assignment_from_attacks([(0, 1), (1, 2), (2, 0)])
STABLE = model.ModelConfig(semantics="stable", family="exponential", w=2.0)
DETERMINISTIC = model.ModelConfig(semantics="complete", family="deterministic",
                                  w=None, prediction_family="linear")
CYCLE_OBS = [Observation(1, 0, 2), Observation(0, 1), Observation(1, 1),
             Observation(0, 0)]


@settings(max_examples=300, deadline=None)
@given(problems())
@example((CYCLE_OBS, CYCLE_ATT, CYCLE, STABLE))
@example((CYCLE_OBS, CYCLE_ATT, CYCLE, DETERMINISTIC))
def test_likelihood_matches_per_observation_reference(problem):
    obs, att, space, cfg = problem
    assert joint_log_likelihood(obs, att, space, cfg) == \
        reference_joint(obs, att, space, cfg)
    for m in range(len(space.variables)):
        try:
            want = reference_conditional(m, att, obs, space, cfg)
        except DegenerateEvidenceError:
            want = DegenerateEvidenceError
        try:
            got = gibbs_conditional(m, att, obs, space, cfg)
        except DegenerateEvidenceError:
            got = DegenerateEvidenceError
        assert got == want


def test_chain_matches_per_observation_reference():
    # the memo must not change a single draw: replay the chain's RNG stream
    # through the reference conditional
    space = AttackVariableSpace.create(4, mode="symmetric", priors=0.3)
    obs = [Observation(3, 1, 2), Observation(5, 0), Observation(12, 1)]
    cfg = model.ModelConfig()
    g = GibbsConfig(40, 10, seed=8)
    hist = run_gibbs(obs, space, cfg, g)

    rng = np.random.default_rng(np.random.SeedSequence(g.seed).spawn(1)[0])
    state = [int(b) for b in rng.integers(0, 2, size=len(space.variables))]
    counts = {}
    for it in range(1, g.iterations + 1):
        for m in space.free_indices:
            _, p1 = reference_conditional(m, tuple(state), obs, space, cfg)
            state[m] = 1 if rng.random() < p1 else 0
        if it > g.burn_in:
            counts[tuple(state)] = counts.get(tuple(state), 0) + 1
    assert hist.counts == counts
