"""Every study check can fail: a mutation for each one.

A check that no wrong estimator can fail says nothing about its claim
(mutation analysis: DeMillo, Lipton and Sayward, "Hints on test data
selection", 1978).  So for each check of the five study kinds, ``MUTATIONS``
names one change to the program, applied by monkeypatching at tiny size,
under which that check fails, while the unmutated study passes it.  Two
checks are already failed this way by tests in test_experiments.py, named
in ``ELSEWHERE``.  The table must name exactly the checks the studies
report, so a new check comes with its mutation.

Four identity checks were retired from the studies because no mutation
could fail them; each held for any input, so only roundoff moved it:

- lemma-check's ``bias-variance-identity``: mean ||x_i - t||^2 equals
  ||mean x - t||^2 + mean ||x_i - mean x||^2 for any rows x_i;
- gamma-study's ``kernel-vs-parameter-norm``: sqrt(sum g_j^2 / mu_j) against
  ||g / sigma||, equal for every g as sigma_j = sqrt(mu_j);
- equivalence-check's ``isometry``: ||A f||_K = ||f||, the same identity
  at g = A f, which ``verify``'s range-norm-isometry holds;
- equivalence-check's ``pullback_roundtrip``: (g / sigma) sigma = g, the
  definition of ``correspondence_pullback``, whose round trip
  test_rkhs.py holds.

The Monte-Carlo mutations run on the midpoint grid.  On iid designs the
risk exceeds the continuous variance-plus-bias bound by the design's own
variance, so there a third of the spread still passes
``risk-above-lower-bound`` and ten times Delta(n) still passes
``perturbed-error-below-risk``.
"""

from pathlib import Path

import pytest

from rkhs_invlab import FilterSpec, StudyConfig, experiments, run_study

SEED = 314


def problem(size):
    return {"J": size, "b": 2.0, "d": 1.0, "r": 1.0,
            "w_spec": [1.0 / j for j in range(1, size + 1)]}


# One config of each kind that passes every check, at tiny size.
CONFIGS = {
    "stat-rate": {"kind": "stat-rate", "problem": problem(20),
                  "design": "grid", "sigma": 0.1,
                  "n_grid": [100, 200, 400, 800, 1600],
                  "schedule": {"c": 1.0, "exponent": 1.0 / 3.5},
                  "replicates": 10, "seed": SEED},
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
    """A schedule that gives 1/lambda: lambda grows with n."""
    return lambda *args: 1.0 / original(*args)


def wrong_lambda(scale):
    """A Tikhonov fit at ``scale(n)`` times the study's lambda."""
    return lambda original: lambda problem, filt, samples: original(
        problem, FilterSpec("tikhonov", scale(samples.size) * filt.lam),
        samples)


# (kind, check) -> (name in experiments, mutation of that function)
MUTATIONS = {
    ("stat-rate", "slope-matches-theory"):
        ("_replicate_coeffs", scaled(1.3)),
    ("stat-rate", "median-error-decreasing"):
        ("lambda_schedule", inverted),
    ("det-rate", "slope-matches-theory"):
        ("solve_continuous", scaled(1.3)),
    ("lemma-check", "risk-above-lower-bound"):
        ("_replicate_coeffs", spread_scaled(1.0 / 3.0)),
    ("lemma-check", "mean-matches-continuous"):
        ("_replicate_coeffs", scaled(1.3)),
    ("lemma-check", "perturbed-error-below-risk"):
        ("delta_of", scaled(10.0)),
    # lambda n / 25 moves the fit further from the continuous one as n
    # grows; at 1.1 lambda the distances past n = J tie to within 5e-12,
    # so error-decreasing would fail by roundoff only
    ("gamma-study", "error-decreasing"):
        ("estimator_learn", wrong_lambda(lambda n: n / 25.0)),
    ("gamma-study", "final-error-below-tenth"):
        ("estimator_learn", wrong_lambda(lambda n: 1.1)),
    ("equivalence-check", "methods_equivalence"):
        ("estimator_learn", wrong_lambda(lambda n: 1.1)),
}

# (kind, check) -> the test in test_experiments.py that fails it
ELSEWHERE = {
    ("gamma-study", "exact-for-n-above-J"):
        "test_gamma_study_fails_with_a_wrong_lambda",
    ("equivalence-check", "representer_oracle"):
        "test_representer_oracle_catches_unscaled_lambda",
}


def check_flags(kind):
    report = run_study(StudyConfig.from_dict(CONFIGS[kind]))
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


def test_checks_failed_elsewhere_are_tested_there():
    source = Path(__file__).with_name("test_experiments.py").read_text()
    for test in ELSEWHERE.values():
        assert f"\ndef {test}(" in source, test
