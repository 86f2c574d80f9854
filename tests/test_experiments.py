"""Monte-Carlo studies against the public single-replicate path."""

import math

import numpy as np
import pytest

from rkhs_invlab import (FilterSpec, NoiseModel, StudyConfig, estimator_paper,
                         lambda_schedule, problem_from_descriptor,
                         run_study, sample_design, sample_outputs)

J = 20
SEED = 314
SIGMA = 0.1
REPLICATES = 20
PROBLEM = {"J": J, "b": 2.0, "d": 1.0, "r": 1.0,
           "w_spec": [1.0 / j for j in range(1, J + 1)]}
DESIGNS = ("grid", "iid-uniform")
MODEL, TRUTH = problem_from_descriptor(dict(PROBLEM, seed=SEED))


def stat_rate_config(design):
    return StudyConfig.from_dict({
        "kind": "stat-rate", "problem": PROBLEM, "design": design,
        "sigma": SIGMA, "n_grid": [50, 100, 200],
        "schedule": {"c": 1.0, "exponent": 1.0 / 3.5},
        "replicates": REPLICATES, "seed": SEED})


def lemma_check_config(design):
    return StudyConfig.from_dict({
        "kind": "lemma-check", "problem": PROBLEM, "design": design,
        "sigma": SIGMA, "n": 100, "lambda": 0.05,
        "replicates": REPLICATES, "seed": SEED})


def public_coeffs(design, n, filt, index):
    """One replicate through sample_design -> sample_outputs -> estimator."""
    points = sample_design(design, n, SEED, index=index)
    samples = sample_outputs(MODEL, TRUTH, points,
                             NoiseModel(kind="gaussian", sigma=SIGMA),
                             SEED, scheme=design, index=index)
    return estimator_paper(MODEL, filt, samples).coeffs


@pytest.mark.parametrize("design", DESIGNS)
def test_stat_rate_matches_public_path(design):
    config = stat_rate_config(design)
    report = run_study(config)
    assert [p["x"] for p in report.points] == list(config.n_grid)
    for point_idx, (n, point) in enumerate(zip(config.n_grid,
                                               report.points)):
        lam = lambda_schedule("by-n", 1.0, 1.0 / 3.5, n)
        filt = FilterSpec.tikhonov(lam)
        errors = np.array([
            float(np.sum((public_coeffs(design, n, filt,
                                        point_idx * REPLICATES + rep)
                          - TRUTH.coeffs) ** 2))
            for rep in range(REPLICATES)])
        assert point["lambda"] == lam
        assert point["err_mean"] == float(errors.mean())
        assert point["err_se"] == float(errors.std(ddof=1)
                                        / math.sqrt(REPLICATES))
        assert point["err_median"] == float(np.median(errors))


@pytest.mark.parametrize("design", DESIGNS)
def test_lemma_check_matches_public_path(design):
    report = run_study(lemma_check_config(design))
    filt = FilterSpec.tikhonov(0.05)
    rows = np.array([public_coeffs(design, 100, filt, rep)
                     for rep in range(REPLICATES)])
    mean = rows.mean(axis=0)
    point = report.points[0]
    assert point["mc_bias2"] == float(np.sum((mean - TRUTH.coeffs) ** 2))
    assert point["mc_var"] == float(np.mean(np.sum((rows - mean) ** 2,
                                                   axis=1)))


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("make_config", [stat_rate_config,
                                         lemma_check_config],
                         ids=["stat-rate", "lemma-check"])
def test_repeated_runs_are_identical(make_config, design):
    config = make_config(design)
    first = run_study(config).canonical_dict()
    assert run_study(config).canonical_dict() == first
