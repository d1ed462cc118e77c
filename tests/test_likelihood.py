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

from argbayes import af, inference, model
from argbayes.errors import DegenerateEvidenceError
from argbayes.gibbs import START_DRAWS, GibbsConfig, gibbs_conditional, run_gibbs
from argbayes.inference import (AttackVariableSpace, Observation, acceptability_likelihood,
                                likelihood_terms)


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
    assert inference._ordered_sum(acceptability_likelihood(obs, att, space, cfg)) == \
        reference_joint(obs, att, space, cfg)
    for m in range(len(space.variables)):
        try:
            want = reference_conditional(m, att, obs, space, cfg)
        except DegenerateEvidenceError:
            want = DegenerateEvidenceError
        rows = np.array([att, att], dtype=np.uint8)
        rows[:, m] = (0, 1)
        try:
            got = gibbs_conditional(m, space, *likelihood_terms(obs, rows, space, cfg).tolist())
        except DegenerateEvidenceError:
            got = DegenerateEvidenceError
        assert got == want


def reference_start(obs, space, cfg, rng):
    """``gibbs._start`` through the reference likelihood: a uniform draw of
    the free bits, replaced by the first of up to START_DRAWS prior draws of
    finite likelihood when it has zero mass."""
    free, clamp = space.free_indices, space.clamp_map
    lam = np.array(space.priors)[free]
    state = [clamp.get(i, 0) for i in range(len(space.variables))]

    def scored(bits):
        for i, b in zip(free, bits.tolist()):
            state[i] = int(b)
        return list(state), reference_joint(obs, tuple(state), space, cfg) > -math.inf

    bits = rng.integers(0, 2, size=len(free))
    first, finite = scored(bits)
    if finite and np.all((0 < lam) & (lam < 1) | (bits == lam)):
        return first
    for _ in range(START_DRAWS if free else 0):
        drawn, finite = scored(rng.random(len(free)) < lam)
        if finite:
            return drawn
    return first


def reference_chain(obs, space, cfg, g):
    """``run_gibbs`` replayed on the same RNG streams through the reference
    conditional, one state at a time."""
    counts, new_flags = {}, []
    for ss in np.random.SeedSequence(g.seed).spawn(g.chains):
        rng = np.random.default_rng(ss)
        state, seen = reference_start(obs, space, cfg, rng), set()
        for it in range(1, g.iterations + 1):
            for m in space.free_indices:
                _, p1 = reference_conditional(m, tuple(state), obs, space, cfg)
                state[m] = 1 if rng.random() < p1 else 0
            new_flags.append(int(tuple(state) not in seen))
            seen.add(tuple(state))
            if it > g.burn_in:
                counts[tuple(state)] = counts.get(tuple(state), 0) + 1
    return counts, new_flags


@st.composite
def chains(draw):
    n = draw(st.integers(2, 7))
    mode = draw(st.sampled_from(("directed", "symmetric")))
    n_vars = n * (n - 1) if mode == "directed" else n * (n - 1) // 2
    priors = draw(st.lists(st.sampled_from((0.0, 0.2, 0.5, 0.9, 1.0)),
                           min_size=n_vars, max_size=n_vars))
    clamps = draw(st.dictionaries(st.integers(0, n_vars - 1), st.integers(0, 1),
                                  max_size=n_vars // 2))
    space = AttackVariableSpace.create(n, mode=mode, priors=priors, clamps=clamps)
    cfg = model.ModelConfig(semantics=draw(st.sampled_from(af.SEMANTICS)),
                            family=draw(st.sampled_from(model.FAMILIES)),
                            w=draw(st.sampled_from((1.5, 2.0, 3.0))),
                            prediction_family="linear")
    subsets = st.integers(0, (1 << n) - 1)
    obs = draw(st.lists(st.builds(Observation, subsets, st.integers(0, 1),
                                  st.integers(1, 3)), max_size=6))
    # a repeated subset, sometimes with the other label
    obs += [Observation(o.subset, draw(st.integers(0, 1)), draw(st.integers(1, 3)))
            for o in obs[:draw(st.integers(0, 2))]]
    g = GibbsConfig(draw(st.integers(2, 5)), 1, seed=draw(st.integers(0, 99)),
                    chains=draw(st.integers(1, 2)))
    return obs, space, cfg, g


# 5 free variables: a window of 3, then a partial window of 2
PARTIAL = AttackVariableSpace.create(4, mode="symmetric", priors=0.3, clamps={4: 1})
# 66 variables, more than a 64-bit word holds, with the first and last clamped
WIDE = AttackVariableSpace.create(12, mode="symmetric", clamps={0: 1, 65: 1})


@settings(max_examples=60, deadline=None)
@given(chains())
@example(([Observation(3, 1, 2), Observation(5, 0), Observation(12, 1)],
          AttackVariableSpace.create(4, mode="symmetric", priors=0.3),
          model.ModelConfig(), GibbsConfig(40, 10, seed=8)))
@example(([Observation(3, 1, 2), Observation(5, 0), Observation(3, 0)],
          PARTIAL, model.ModelConfig(), GibbsConfig(20, 4, seed=1, chains=2)))
@example(([Observation(0b11, 0), Observation(0b100000000101, 1, 2), Observation(4095, 1)],
          WIDE, model.ModelConfig(), GibbsConfig(3, 1, seed=2, chains=2)))
@example((CYCLE_OBS, CYCLE, STABLE, GibbsConfig(6, 1, seed=3)))
@example((CYCLE_OBS[:2], CYCLE, DETERMINISTIC, GibbsConfig(6, 1, seed=5)))
def test_chain_matches_per_observation_reference(problem):
    # the windows must not change a single draw: replay the chain's RNG
    # streams through the reference conditional
    obs, space, cfg, g = problem
    try:
        hist = run_gibbs(obs, space, cfg, g)
        got = hist.counts, hist.new_flags
    except DegenerateEvidenceError:
        got = DegenerateEvidenceError
    try:
        want = reference_chain(obs, space, cfg, g)
    except DegenerateEvidenceError:
        want = DegenerateEvidenceError
    assert got == want


def reference_tables(bits, space, semantics):
    """Each row's ``model._agreement_stats`` table, from its attack pairs."""
    return np.array([model._agreement_stats(space.n_args, space.attacks_of(tuple(row)),
                                            semantics) for row in bits.tolist()],
                    dtype=np.int8).reshape(len(bits), 1 << space.n_args)


@st.composite
def batches(draw):
    n = draw(st.integers(0, 8))
    mode = draw(st.sampled_from(("directed", "symmetric")))
    space = AttackVariableSpace.create(n, mode=mode)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from((0.0, 0.1, 0.3, 0.6)))
    bits = (rng.random((draw(st.integers(1, 6)), len(space.variables))) < density)
    return space, bits.astype(np.uint8), draw(st.sampled_from(af.SEMANTICS)), rng


# a directed 3-cycle has no stable extension, and the 16-argument framework
# with no attacks has one extension, the full set
CYCLE_BITS = np.array([CYCLE_ATT, CYCLE_ATT, (0,) * 6], dtype=np.uint8)
EMPTY16 = AttackVariableSpace.create(16, mode="symmetric")


@settings(max_examples=150, deadline=None)
@given(batches())
@example((CYCLE, CYCLE_BITS, "stable", np.random.default_rng(0)))
@example((CYCLE, CYCLE_BITS[:2], "stable", np.random.default_rng(1)))
@example((EMPTY16, np.zeros((2, 120), dtype=np.uint8), "preferred",
          np.random.default_rng(2)))
@example((EMPTY16, np.zeros((1, 120), dtype=np.uint8), "stable",
          np.random.default_rng(3)))
def test_observed_distances_equal_table_gathers(problem):
    # S subsets against E extensions in B rows take the least popcount when
    # S x E <= B x n x 2^n, and whole tables otherwise: check a subset count
    # on each side of that switch
    space, bits, semantics, rng = problem
    want = reference_tables(bits, space, semantics)
    switch = want.size * space.n_args // max(int((want == 0).sum()), 1)
    for count in {1, switch, switch + 1}:
        if 0 < count <= 4096:
            subsets = rng.integers(0, 1 << space.n_args, count)
            assert np.array_equal(inference._tables(bits, space, semantics, subsets),
                                  want[:, subsets])
    assert np.array_equal(inference._tables(bits, space, semantics), want)
