"""Reference worked examples for the three-argument and two-argument models.

Each case pins down known-good values (parameter tables, sequential posterior
masses, ML estimates, posterior convergence) and compares them against the
implementation, returning a line-per-check report. The CLI `demo` subcommand
and the regression suite both run these.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .inference import (
    AttackVariableSpace,
    Observation,
    exact_posterior,
    joint_log_likelihood,
    ml_estimate,
    theta,
    unnormalized_log_masses,
)
from .model import ModelConfig

import math

#: Subset masks for {a}, {b}, {c} in display order: {}, {a}, {b}, {c},
#: {a,b}, {a,c}, {b,c}, {a,b,c}.
SUBSET_ORDER = (0, 1, 2, 4, 3, 5, 6, 7)
SUBSET_NAMES = ("{}", "{a}", "{b}", "{c}", "{a,b}", "{a,c}", "{b,c}", "{a,b,c}")

#: Symmetric assignments (att_ab, att_ac, att_bc) in display order.
ASSIGNMENT_ORDER = (
    (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
    (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1),
)

#: Best agreement count (tp+tn over complete extensions) per assignment and
#: subset, in the orders above. Linear parameters are s/3 and exponential
#: parameters are (w^s - 1)/(w^3 - 1).
AGREEMENT_TABLE = {
    (0, 0, 0): (0, 1, 1, 1, 2, 2, 2, 3),
    (1, 0, 0): (2, 2, 2, 3, 1, 3, 3, 2),
    (0, 1, 0): (2, 2, 3, 2, 3, 1, 3, 2),
    (1, 1, 0): (3, 3, 2, 2, 2, 2, 3, 2),
    (0, 0, 1): (2, 3, 2, 2, 3, 3, 1, 2),
    (1, 0, 1): (3, 2, 3, 2, 2, 3, 2, 2),
    (0, 1, 1): (3, 2, 2, 3, 3, 2, 2, 2),
    (1, 1, 1): (3, 3, 3, 3, 2, 2, 2, 1),
}

#: Unnormalized posterior masses for the sequential-update walkthrough:
#: observations ({a},1), then ({b},1), then ({c},1) with w=2. Each entry is
#: (exponent of 1/7, exponent of 3/7); the prior product multiplies in.
SEQUENTIAL_MASS_EXPONENTS = {
    1: ((1, 0), (0, 1), (0, 1), (0, 0), (0, 0), (0, 1), (0, 1), (0, 0)),
    2: ((2, 0), (0, 2), (0, 1), (0, 1), (0, 1), (0, 1), (0, 2), (0, 0)),
    3: ((3, 0), (0, 2), (0, 2), (0, 2), (0, 2), (0, 2), (0, 2), (0, 0)),
}

#: Two-argument directed case: observations {({},1), ({a,b},1)} with w=2 and
#: uniform priors. Joint likelihood per assignment (att_ab, att_ba).
TWO_ARG_LIKELIHOODS = {
    (0, 0): Fraction(0),
    (1, 0): Fraction(1, 9),
    (0, 1): Fraction(1, 9),
    (1, 1): Fraction(1, 3),
}

FIGURE3_PRIORS = (0.1, 0.15, 0.2)

TOLERANCE = 1e-12


@dataclass
class CheckLine:
    label: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        suffix = f"  ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.label}{suffix}"


def three_arg_space(priors=0.5) -> AttackVariableSpace:
    return AttackVariableSpace.create(3, mode="symmetric", priors=priors)


def cycle_observations(n_cycles: int) -> list[Observation]:
    """({a},1), ({b},1), ({c},1) repeated n_cycles times, weight-merged."""
    return [Observation(1, 1, n_cycles), Observation(2, 1, n_cycles),
            Observation(4, 1, n_cycles)]


def check_parameter_table(w: float = 2.0) -> list[CheckLine]:
    """Linear and exponential parameter values for all 64 (assignment, subset)
    pairs of the three-argument symmetric model under complete semantics."""
    space = three_arg_space()
    lines = []
    for family in ("linear", "exponential"):
        cfg = ModelConfig(semantics="complete", family=family, w=w)
        worst = 0.0
        for att in ASSIGNMENT_ORDER:
            for pos, d in enumerate(SUBSET_ORDER):
                s = AGREEMENT_TABLE[att][pos]
                if family == "linear":
                    expected = s / 3
                else:
                    expected = (w ** s - 1) / (w ** 3 - 1)
                worst = max(worst, abs(theta(d, att, space, cfg) - expected))
        lines.append(CheckLine(
            f"{family} parameter table (64 entries, w={w})",
            worst < TOLERANCE, f"max |delta| = {worst:.2e}"))
    return lines


def check_sequential_update(priors=FIGURE3_PRIORS, w: float = 2.0) -> list[CheckLine]:
    """Unnormalized masses after 1, 2 and 3 singleton observations match the
    reference proportionalities, up to one shared scale factor."""
    space = three_arg_space(priors)
    cfg = ModelConfig(semantics="complete", family="exponential", w=w)
    obs_stream = [Observation(1, 1), Observation(2, 1), Observation(4, 1)]
    lines = []
    for k in (1, 2, 3):
        masses = unnormalized_log_masses(obs_stream[:k], space, cfg)
        worst = 0.0
        for att, (e17, e37) in zip(ASSIGNMENT_ORDER, SEQUENTIAL_MASS_EXPONENTS[k]):
            prior = 1.0
            for bit, lam in zip(att, space.priors):
                prior *= lam if bit else 1 - lam
            expected = (1 / 7) ** e17 * (3 / 7) ** e37 * prior
            got = math.exp(masses[att])
            worst = max(worst, abs(got - expected))
        lines.append(CheckLine(
            f"sequential posterior masses after {k} observation(s)",
            worst < TOLERANCE, f"max |delta| = {worst:.2e}"))
    return lines


def check_posterior_convergence(n_cycles: int = 20,
                                priors=FIGURE3_PRIORS) -> list[CheckLine]:
    """With repeated singleton observations, the posterior concentrates on
    the full triangle (1,1,1)."""
    space = three_arg_space(priors)
    cfg = ModelConfig(semantics="complete", family="exponential", w=2.0)
    post = exact_posterior(cycle_observations(n_cycles), space, cfg)
    mass = post.prob((1, 1, 1))
    return [CheckLine(
        f"posterior mass on (1,1,1) after {n_cycles} observation cycles >= 0.99",
        mass >= 0.99, f"mass = {mass:.6f}")]


def check_two_arg_ml(w: float = 2.0) -> list[CheckLine]:
    """Noisy two-argument case: no attack relation reproduces the observed
    acceptability exactly, yet the mutual attack is the unique ML estimate."""
    space = AttackVariableSpace.create(2, mode="directed", priors=0.5)
    cfg = ModelConfig(semantics="complete", family="exponential", w=w)
    obs = [Observation(0, 1), Observation(3, 1)]
    lines = []
    worst = 0.0
    for att, expected in TWO_ARG_LIKELIHOODS.items():
        got = math.exp(joint_log_likelihood(obs, att, space, cfg))
        worst = max(worst, abs(got - float(expected)))
    lines.append(CheckLine("two-argument joint likelihoods (0, 1/9, 1/9, 1/3)",
                           worst < TOLERANCE, f"max |delta| = {worst:.2e}"))
    estimates = ml_estimate(obs, space, cfg)
    lines.append(CheckLine("unique ML estimate is the mutual attack (1,1)",
                           estimates == [(1, 1)], f"estimates = {estimates}"))
    return lines


DEMO_CASES = {
    "table1": check_parameter_table,
    "example6": check_sequential_update,
    "figure3": check_posterior_convergence,
    "theorem2": check_two_arg_ml,
}


def run_demo(case: str | None = None) -> tuple[list[CheckLine], bool]:
    cases = [case] if case else list(DEMO_CASES)
    lines: list[CheckLine] = []
    for name in cases:
        lines.extend(DEMO_CASES[name]())
    return lines, all(l.ok for l in lines)
