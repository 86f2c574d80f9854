"""Every study check and every verify check can fail: a mutation for each.

A check that no wrong estimator can fail says nothing about its claim
(mutation analysis: DeMillo, Lipton and Sayward, "Hints on test data
selection", 1978).  So for each check of the five study kinds, ``MUTATIONS``
names one change to the program, applied by monkeypatching at tiny size,
under which that check fails, while the unmutated study passes it.  Two
checks are already failed this way by tests in test_experiments.py, named
in ``ELSEWHERE``.  ``VERIFY_MUTATIONS`` does the same for each check that
``verify.run_all()`` reports, at the verify seed.  Each table must name
exactly the checks the studies or ``verify`` report, so a new check comes
with its mutation.  Four checks have one more test, for a mutation that
an earlier form of the check, or another check, passed: tripled noise in
the grid replicates (lemma-check's mean-matches-continuous), tripled and
shrunken noise on both designs (stat-rate's risk-matches-exact, where
slope-matches-theory passes both), a wrong basis (reproducing-property)
and swapped loss-factor variants (loss-factor-bounds).  worst-case-conversion
has two more: a bias at one fixed truth in place of the supremum, and
Tikhonov past its qualification, where the derived gamma no longer fits.

A mutation replaces a function in the namespace the check reads it from:
``experiments``' own for the study checks, among them
``experiments._grid_learn``, gamma-study's fit, and
``experiments.FilterSpec``, with which ``StudyConfig._scheduled_filters``,
the one home of the a-priori schedules, builds each scheduled filter
(median-error-decreasing fails it at 1/lambda); ``verify``'s own for most
verify checks; ``rates.derived_gamma``, the one home of gamma, which
``statistical_exponents`` reads; ``rkhs._gram_entries``, which
``gram_matrix`` reads; ``experiments.estimator_learn``, which
``equivalence_deviations`` reads; and ``regularization._FAMILIES``, which
declares the constants that ``certify_filter`` certifies.

Eight identity checks were retired because no mutation could fail them;
each held for any input of the code it called, so only roundoff moved it.
From the studies:

- lemma-check's ``bias-variance-identity``: mean ||x_i - t||^2 equals
  ||mean x - t||^2 + mean ||x_i - mean x||^2 for any rows x_i;
- gamma-study's ``kernel-vs-parameter-norm``: sqrt(sum g_j^2 / mu_j) against
  ||g / sigma||, equal for every g as sigma_j = sqrt(mu_j);
- equivalence-check's ``isometry``: ||A f||_K = ||f||, the same identity
  at g = A f, which ``verify``'s range-norm-isometry holds;
- equivalence-check's ``pullback_roundtrip``: (g / sigma) sigma = g, the
  definition of the pullback f = g / sigma.

From ``verify``:

- ``power-law-decay-bounds``: mu_j against d j^-b, the builder's own
  formula;
- ``forward-linearity``: sigma * f is linear in f for any sigma;
- ``gram-positive-semidefinite``: ``gram_matrix`` forms a a', symmetric
  and positive semi-definite for any a;
- ``feature-map-unitary-quotient``: a signed permutation of the features
  leaves any dot product unchanged, so it compared ``kernel_eval`` with
  its own formula.

``kernel-closed-form`` took their place: the Gram matrix against the
Brownian-bridge covariance min(x, x') - x x', which no formula of the
program restates.

lemma-check's ``risk-above-lower-bound`` and ``perturbed-error-below-risk``
were retired as well.  The first held the Monte-Carlo risk above
sigma^2/n ||L||_HS^2 + bias^2, which on iid designs sits below the risk by
the design's own variance, so there a third of the spread passed it.  The
second restated the identity of ``rates.delta_of``'s docstring.  stat-rate's
risk-matches-exact judges the risk against its exact value, and
tests/test_rates.py holds both inequalities to ``rates.paper_risk``.
The Monte-Carlo mutations run on the midpoint grid, and risk-matches-exact's
on iid designs too.
"""

import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from rkhs_invlab import (FilterSpec, PerturbationSpec, SpectralProblem,
                         StudyConfig, experiments, rates, regularization,
                         rkhs, run_study, spectral_model, verify)

SEED = 314
VERIFY_SEED = 20260809  # the default seed of ``rkhs-invlab verify``


def problem(size):
    return {"J": size, "b": 2.0, "d": 1.0, "r": 1.0,
            "w_spec": [1.0 / j for j in range(1, size + 1)]}


# One config of each kind that passes every check, at tiny size.
# stat-rate's pooled z read tripled noise as 2.65 (grid) and 1.35 (iid) at
# 10 replicates, and reads 13.6 and 5.0 at 200.
CONFIGS = {
    "stat-rate": {"kind": "stat-rate", "problem": problem(20),
                  "design": "grid", "sigma": 0.1,
                  "n_grid": [100, 200, 400, 800, 1600],
                  "schedule": {"c": 1.0, "exponent": 1.0 / 3.5},
                  "replicates": 200, "seed": SEED},
    "det-rate": {"kind": "det-rate", "problem": problem(40),
                 "delta_grid": [1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2],
                 "schedule": {"c": 1.0, "exponent": 2.0 / 3.0},
                 "seed": SEED},
    "lemma-check": {"kind": "lemma-check", "problem": problem(20),
                    "design": "grid", "sigma": 0.1, "n": 100,
                    "lambda": 0.05, "replicates": 20, "seed": SEED},
    "gamma-study": {"kind": "gamma-study", "problem": problem(40),
                    "n_grid": [25, 50, 100, 200], "lambda": 1e-3,
                    "seed": SEED},
    "equivalence-check": {"kind": "equivalence-check",
                          "problem": problem(40), "design": "grid",
                          "n": 60, "lambda": 1e-3, "seed": SEED},
}


def scaled(factor):
    """The function's result times ``factor``."""
    return lambda original: lambda *args: factor * original(*args)


def tripled_noise(original):
    """Replicates drawn at three times the config's sigma."""
    return lambda config, *args: original(
        dataclasses.replace(config, sigma=3.0 * config.sigma), *args)


def spread_scaled(factor):
    """Replicate rows whose spread about their mean is ``factor`` times
    the original's: the noise scale times ``factor``."""
    def mutate(original):
        def rows(*args):
            out = original(*args)
            mean = out.mean(axis=0)
            return mean + factor * (out - mean)
        return rows
    return mutate


def inverted(original):
    """A filter built at 1/lambda: along stat-rate's schedule lambda grows
    with n."""
    return lambda kind, lam: original(kind, 1.0 / lam)


def wrong_lambda(scale):
    """An ``estimator_learn`` fit at ``scale`` times the study's lambda."""
    return lambda original: lambda problem, filt, samples: original(
        problem, FilterSpec("tikhonov", scale * filt.lam), samples)


def wrong_grid_lambda(scale):
    """A ``_grid_learn`` fit at ``scale(n)`` times the study's lambda."""
    return lambda original: lambda problem, filt, y, n: original(
        problem, FilterSpec("tikhonov", scale(n) * filt.lam), y, n)


# (kind, check) -> (name in experiments, mutation of that function)
MUTATIONS = {
    ("stat-rate", "slope-matches-theory"):
        ("_replicate_coeffs", scaled(1.3)),
    ("stat-rate", "median-error-decreasing"):
        ("FilterSpec", inverted),
    ("stat-rate", "risk-matches-exact"):
        ("_replicate_coeffs", spread_scaled(1.0 / 3.0)),
    ("det-rate", "slope-matches-theory"):
        ("solve_continuous", scaled(1.3)),
    ("lemma-check", "mean-matches-continuous"):
        ("_replicate_coeffs", scaled(1.3)),
    # lambda n / 25 moves the fit further from the continuous one as n
    # grows; at 1.1 lambda the fit past n = J does not depend on n, so
    # error-decreasing would fail on a tie only
    ("gamma-study", "error-decreasing"):
        ("_grid_learn", wrong_grid_lambda(lambda n: n / 25.0)),
    ("gamma-study", "final-error-below-tenth"):
        ("_grid_learn", wrong_grid_lambda(lambda n: 1.1)),
    ("equivalence-check", "methods_equivalence"):
        ("estimator_learn", wrong_lambda(1.1)),
}

# (kind, check) -> the test in test_experiments.py that fails it
ELSEWHERE = {
    ("gamma-study", "exact-for-n-above-J"):
        "test_gamma_study_fails_with_a_wrong_lambda",
    ("equivalence-check", "representer_oracle"):
        "test_representer_oracle_catches_unscaled_lambda",
}


def check_flags(kind, **entries):
    report = run_study(StudyConfig.from_dict({**CONFIGS[kind], **entries}))
    return {c["name"]: c["passed"] for c in report.checks}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_every_check_has_a_mutation_and_passes_without_it(kind):
    flags = check_flags(kind)
    assert set(flags) == {check for k, check in MUTATIONS | ELSEWHERE
                          if k == kind}
    assert all(flags.values()), flags


@pytest.mark.parametrize("kind, check", sorted(MUTATIONS))
def test_mutation_fails_its_check(kind, check, monkeypatch):
    name, mutate = MUTATIONS[kind, check]
    monkeypatch.setattr(experiments, name, mutate(getattr(experiments, name)))
    assert not check_flags(kind)[check]


def test_tripled_noise_fails_mean_matches_continuous(monkeypatch):
    # a z over the sample standard error passed tripled noise in the grid
    # replicates, as the mean's deviation and that error triple together
    monkeypatch.setattr(experiments, "_replicate_coeffs",
                        tripled_noise(experiments._replicate_coeffs))
    assert not check_flags("lemma-check")["mean-matches-continuous"]


@pytest.mark.parametrize("design", ["grid", "iid-uniform"])
@pytest.mark.parametrize("mutate", [tripled_noise, spread_scaled(1.0 / 3.0)],
                         ids=["tripled-noise", "third-of-the-spread"])
def test_wrong_noise_scale_fails_risk_matches_exact(design, mutate,
                                                    monkeypatch):
    # slope-matches-theory passes both on both designs: the risk's slope
    # hardly moves when the variance is scaled
    monkeypatch.setattr(experiments, "_replicate_coeffs",
                        mutate(experiments._replicate_coeffs))
    flags = check_flags("stat-rate", design=design)
    assert not flags["risk-matches-exact"]


def test_checks_failed_elsewhere_are_tested_there():
    source = Path(__file__).with_name("test_experiments.py").read_text()
    for test in ELSEWHERE.values():
        assert f"\ndef {test}(" in source, test


def squared_spectrum(original):
    """The function run on the problem with mu_j^2 for mu_j: where it
    reads sigma_j = sqrt(mu_j), it reads mu_j."""
    return lambda problem, *args: original(
        SpectralProblem(mu=problem.mu ** 2), *args)


def last_mode_dropped(original):
    """A sine series summed over modes 1 ... J - 1 only."""
    return lambda problem, coeffs, x: original(
        problem, [*coeffs[:-1], 0.0], x)


def delta_over(factor):
    """A perturbation of ``factor`` times the spec's delta."""
    return lambda original: lambda problem, y, spec, seed: original(
        problem, y, PerturbationSpec(factor * spec.delta, spec.mode,
                                     spec.index, spec.filter), seed)


def shared_stream(original):
    """Outputs drawn from one shared stream: each call takes the next
    substream, whatever replicate index it names."""
    calls = itertools.count()
    return lambda problem, f, design, sigma, seed, index: original(
        problem, f, design, sigma, seed, index=next(calls))


def noise_scaled(factor):
    """Outputs with ``factor`` times the noise std."""
    return lambda original: lambda problem, f, design, sigma, seed, index: (
        original(problem, f, design, factor * sigma, seed, index=index))


def off_midpoints(original):
    """The grid at (i - 0.3)/n in place of the midpoints (i - 0.5)/n."""
    return lambda scheme, n: original(scheme, n) + 0.2 / n


def tikhonov_qualification(q):
    """Tikhonov declared of qualification ``q`` in place of 1."""
    return lambda families: {**families, "tikhonov":
                             families["tikhonov"]._replace(qualification=q)}


def lambda_floored(floor):
    """A kernel solve at max(lambda, ``floor``): a stabilising jitter."""
    return lambda original: lambda problem, samples, lam: original(
        problem, samples, max(lam, floor))


def cancelling_delta(original):
    """Delta(n) as sqrt(sigma^2/n + eps^2) - eps, whose difference
    cancels where sigma^2/n is small against eps^2."""
    def delta_of(n, sigma, eps):
        original(n, sigma, eps)  # its parameter checks
        return math.sqrt(sigma ** 2 / n + eps ** 2) - eps
    return delta_of


def reciprocal(original):
    """The function's result turned upside down."""
    return lambda *args: 1.0 / original(*args)


def nominal_gamma(original):
    """gamma as the nominal r + 1/2, blind to b and the qualification."""
    return lambda r, b, q: r + 0.5


# check -> (module, name in it, mutation of what the name holds)
VERIFY_MUTATIONS = {
    "parseval-quadrature":
        (verify, "basis_matrix", scaled(1.0 / math.sqrt(2.0))),
    "range-norm-isometry": (verify, "forward_data", squared_spectrum),
    "reproducing-property": (verify, "eval_function", last_mode_dropped),
    "kernel-closed-form": (rkhs, "_gram_entries", squared_spectrum),
    "perturbation-norm-exact": (verify, "perturb_data", delta_over(1.01)),
    "seeded-streams-bit-identical":
        (verify, "sample_outputs", shared_stream),
    "grid-riemann-order": (verify, "sample_design", off_midpoints),
    "filter-certificates":
        (regularization, "_FAMILIES", tikhonov_qualification(2.0)),
    "kernel-vs-parameter-tikhonov":
        (experiments, "estimator_learn", wrong_lambda(1.1)),
    "representer-small-lambda-limit":
        (verify, "kernel_tikhonov", lambda_floored(1e-4)),
    "sample-noise-bridge-identities":
        (verify, "delta_of", cancelling_delta),
    "loss-factor-bounds": (verify, "loss_factor_tau", reciprocal),
    "worst-case-conversion": (rates, "derived_gamma", nominal_gamma),
    "monte-carlo-risk-matches-exact":
        (verify, "sample_outputs", noise_scaled(3.0)),
}


@pytest.fixture(scope="module")
def verify_checks():
    """Each check of ``verify.ALL_CHECKS`` by the name it reports, with its
    unmutated result at the verify seed."""
    results = [(check, check(VERIFY_SEED)) for check in verify.ALL_CHECKS]
    return {result.name: (check, result) for check, result in results}


def test_every_verify_check_has_a_mutation_and_passes_without_it(
        verify_checks):
    assert set(verify_checks) == set(VERIFY_MUTATIONS)
    failed = {name: result.detail
              for name, (_, result) in verify_checks.items()
              if not result.passed}
    assert not failed, failed


@pytest.mark.parametrize("name", sorted(VERIFY_MUTATIONS))
def test_mutation_fails_its_verify_check(name, verify_checks, monkeypatch):
    module, attribute, mutate = VERIFY_MUTATIONS[name]
    check, _ = verify_checks[name]
    monkeypatch.setattr(module, attribute,
                        mutate(getattr(module, attribute)))
    result = check(VERIFY_SEED)
    assert not result.passed, result.detail


def test_wrong_basis_fails_reproducing_property(monkeypatch):
    # a basis without its sqrt(2), wherever it is read: the series side
    # sums np.sin on exactly reduced angles, so eval_function's blocked
    # read of the wrong basis fails the check
    original = spectral_model.basis_matrix

    def basis_matrix(problem, x, out=None):
        return original(problem, x, out) / math.sqrt(2.0)

    for module in (spectral_model, verify):
        monkeypatch.setattr(module, "basis_matrix", basis_matrix)
    result = verify.check_reproducing_property(VERIFY_SEED)
    assert not result.passed, result.detail


def test_swapped_loss_factor_variants_fail_their_check(monkeypatch):
    # each variant holds (1, 2) and (1, 3) and tends to 1 as b grows, but
    # as r -> 0 the general one tends to 1 + 1/b and Tikhonov to 1 + 2/b
    original = verify.loss_factor_tau
    other = {"general": "tikhonov", "tikhonov": "general"}
    monkeypatch.setattr(verify, "loss_factor_tau",
                        lambda r, b, variant="general": original(
                            r, b, other[variant]))
    result = verify.check_loss_factors(VERIFY_SEED)
    assert not result.passed, result.detail


def test_fixed_truth_bias_fails_worst_case_conversion(monkeypatch):
    # the bias at the fixed truth w_j = 1/j, smoother than its nominal r,
    # in place of the supremum over the source ball: its delta-slope reads
    # 1.41 against 0.8
    def fixed_truth_bias(problem, filt, r):
        j = np.arange(1, problem.size + 1)
        residual = 1.0 - filt.on_spectrum(problem) * problem.mu
        return float(np.linalg.norm(residual * problem.mu ** r / j)), 1

    for module in (rates, verify):
        monkeypatch.setattr(module, "worst_case_bias", fixed_truth_bias)
    result = verify.check_worst_case_conversion(VERIFY_SEED)
    assert not result.passed, result.detail


def test_tikhonov_past_its_qualification_fails_worst_case_conversion():
    # at r = 1.5 > q = 1 Tikhonov's bias saturates at lambda^q, so the
    # n-rate falls short of alpha and the delta-slope of its conversion
    fits = verify._conversion_fits(1.5, 2.0)
    worst = max(abs(fit - theory) for fit, theory in fits.values())
    assert worst > verify._CONVERSION_TOL, fits
