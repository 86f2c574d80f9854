"""Study runs and the ``run`` command.

Monte-Carlo studies are checked, on iid designs, against the public
single-replicate path (also across batch boundaries), for the exact
variance of their rows and for the peak memory of one batch; on the
midpoint grid, for the law of their moment draws (mean, variance and
correlation against the grid Gram matrix), for rows that do not depend on
the other replicates and for building no basis;
on both, for determinism and the JSON round trip; stat-rate's pooled
exact-risk z, its median against ``np.median`` and the numpy.ma import it
avoids; the kernel-side study kinds for verdict, determinism and the JSON
round trip; config validation (a Monte-Carlo kind needs two replicates,
and the retired entries are refused), the problem builder's agreement with
it, the config echo and each check's fixed threshold;
``rkhs-invlab run`` for its exit codes, overflow and running out of
memory included.
"""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from rkhs_invlab import (FilterSpec, NumericalError, ParameterError,
                         SampleSet, StudyConfig, StudyReport, ValidationError,
                         basis_matrix,
                         equivalence_deviations, estimator_learn,
                         estimator_paper, eval_function, experiments,
                         fit_rate, forward_data, kernel_tikhonov,
                         paper_risk, paper_variance,
                         problem_from_descriptor, run_study,
                         sample_design, sample_outputs, spectral_model,
                         write_report)
from rkhs_invlab.cli import main
from rkhs_invlab.regularization import _grid_learn

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
    samples = sample_outputs(MODEL, TRUTH, points, SIGMA, SEED, index=index)
    return estimator_paper(MODEL, filt, samples)


def budget_cases(budgets):
    """iid runs at the default batch budget, then under each of
    ``budgets`` basis entries per batch."""
    return ([pytest.param(None, id="iid-uniform")]
            + [pytest.param(cells, id=f"iid-uniform-budget{cells}")
               for cells in budgets])


def assert_matches_public(value, expected):
    # an iid batch's factor tables sum in another order than the public
    # path's GEMV (gaps up to 8.6e-16 relative on these inputs)
    np.testing.assert_allclose(value, expected, rtol=1e-12, atol=0)


# At J = 20 one n-point design is 20 n entries.  For stat-rate (n = 50, 100,
# 200), 3,000 entries give 7 batches of 3 designs with a last one of 2 at
# n = 50, and a design larger than the budget at n = 200.  For lemma-check
# (n = 100), 6,000 give a last batch of 2 and 1,500 one over the budget.
@pytest.mark.parametrize("cells", budget_cases([3000]))
def test_stat_rate_matches_public_path(cells, monkeypatch):
    if cells is not None:
        monkeypatch.setattr(experiments, "_BATCH_CELLS", cells)
    config = stat_rate_config("iid-uniform")
    report = run_study(config)
    assert [p["x"] for p in report.points] == list(config.n_grid)
    for point_idx, (n, point) in enumerate(zip(config.n_grid,
                                               report.points)):
        lam = 1.0 * float(n) ** (-1.0 / 3.5)
        filt = FilterSpec("tikhonov", lam)
        errors = np.array([
            float(np.sum((public_coeffs("iid-uniform", n, filt,
                                        point_idx * REPLICATES + rep)
                          - TRUTH) ** 2))
            for rep in range(REPLICATES)])
        assert point["lambda"] == lam
        assert_matches_public(point["err_mean"], float(errors.mean()))
        assert_matches_public(point["err_se"],
                              float(errors.std(ddof=1)
                                    / math.sqrt(REPLICATES)))
        assert_matches_public(point["err_median"], float(np.median(errors)))


@pytest.mark.parametrize("cells", budget_cases([6000, 1500]))
def test_lemma_check_matches_public_path(cells, monkeypatch):
    if cells is not None:
        monkeypatch.setattr(experiments, "_BATCH_CELLS", cells)
    report = run_study(lemma_check_config("iid-uniform"))
    filt = FilterSpec("tikhonov", 0.05)
    rows = np.array([public_coeffs("iid-uniform", 100, filt, rep)
                     for rep in range(REPLICATES)])
    mean = rows.mean(axis=0)
    point = report.points[0]
    assert_matches_public(point["mc_bias2"],
                          float(np.sum((mean - TRUTH) ** 2)))
    assert_matches_public(point["mc_var"],
                          float(np.mean(np.sum((rows - mean) ** 2, axis=1))))


# Grid replicates draw the moment u'Y / n from its law N(M y, sigma^2 / n M),
# M = u'u / n, instead of point samples, so they are held to that law at a
# fixed seed: 4,000 draws at J = 40, with odd and even n below, at and above
# J.  The oracle M is the basis product, not the alias map the path uses.
# w_j = j^3 makes the data y_j = j^-1 j^-2 w_j = 1 on every mode, so a wrong
# class sum, sign or weight moves a mean by many standard errors.
LAW_J, LAW_DRAWS = 40, 4000
LAW_PROBLEM = {"J": LAW_J, "b": 2.0, "d": 1.0, "r": 1.0,
               "w_spec": [float(j) ** 3 for j in range(1, LAW_J + 1)]}
LAW_MODEL, LAW_TRUTH = problem_from_descriptor(dict(LAW_PROBLEM, seed=SEED))


def chi2_quantile(dof, z):
    """The chi-square quantile with ``dof`` degrees of freedom at the
    standard normal quantile z (Wilson and Hilferty)."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + z * math.sqrt(c)) ** 3


@pytest.mark.parametrize("n", [7, 25, 40, 41, 80, 81])
def test_grid_replicates_follow_the_moment_law(n):
    filt = FilterSpec("tikhonov", 0.05)
    config = StudyConfig.from_dict(dict(lemma_check_config("grid").to_dict(),
                                        problem=LAW_PROBLEM,
                                        replicates=LAW_DRAWS, n=n))
    rows = experiments._replicate_coeffs(config, LAW_MODEL, LAW_TRUTH, filt,
                                         n, range(LAW_DRAWS))
    u = basis_matrix(LAW_MODEL, sample_design("grid", n))
    gram = u.T @ u / n
    response = filt.response(LAW_MODEL)
    mean = response * (gram @ forward_data(LAW_MODEL, LAW_TRUTH))
    var = response ** 2 * SIGMA ** 2 / n * np.diag(gram)
    np.testing.assert_allclose(
        paper_variance(LAW_MODEL, filt, LAW_TRUTH, SIGMA, n, "grid"), var,
        rtol=1e-13, atol=1e-13 * np.max(var))
    # one independent normal per alias class: min(n, J) of them, family
    # level 1% for the means and 1% for the variances
    z_max = experiments._sidak_z(min(n, LAW_J), 0.01)
    live = np.diag(gram) > 0.5  # D_m is 1 or 2 there and 0 elsewhere
    assert np.all(rows[:, ~live] == 0.0)
    z = (rows.mean(axis=0) - mean)[live] / np.sqrt(var[live] / LAW_DRAWS)
    assert np.max(np.abs(z)) <= z_max
    # (R - 1) s^2 / var is chi-square with R - 1 degrees of freedom
    dof = LAW_DRAWS - 1
    ratio = rows.var(axis=0, ddof=1)[live] / var[live]
    assert np.min(ratio) >= chi2_quantile(dof, -z_max) / dof  # 0.92-0.93
    assert np.max(ratio) <= chi2_quantile(dof, z_max) / dof   # 1.07-1.08
    # the modes of one class share their normal: correlation +-1, the sign
    # of their Gram entry
    for j, k in zip(*np.nonzero(np.triu(np.abs(gram) > 0.5, 1))):
        corr = np.corrcoef(rows[:, j], rows[:, k])[0, 1]
        assert corr == pytest.approx(np.sign(gram[j, k]), abs=1e-12)


@pytest.mark.parametrize("n", [40, 81])
def test_iid_replicates_have_the_exact_variance(n):
    # each row is a mean of n iid terms; from n = 40 on they are close
    # enough to normal for the chi-square law of the sample variance (at
    # n = 7 the rows' heavier tails widen its spread past these bounds)
    filt = FilterSpec("tikhonov", 0.05)
    config = StudyConfig.from_dict(dict(
        lemma_check_config("iid-uniform").to_dict(), problem=LAW_PROBLEM,
        replicates=LAW_DRAWS, n=n))
    rows = experiments._replicate_coeffs(config, LAW_MODEL, LAW_TRUTH, filt,
                                         n, range(LAW_DRAWS))
    var = paper_variance(LAW_MODEL, filt, LAW_TRUTH, SIGMA, n, "iid-uniform")
    z_max = experiments._sidak_z(LAW_J, 0.01)
    dof = LAW_DRAWS - 1
    ratio = rows.var(axis=0, ddof=1) / var
    assert np.min(ratio) >= chi2_quantile(dof, -z_max) / dof
    assert np.max(ratio) <= chi2_quantile(dof, z_max) / dof


def test_grid_row_does_not_depend_on_the_other_replicates():
    filt = FilterSpec("tikhonov", 0.05)
    config = lemma_check_config("grid")
    rows = experiments._replicate_coeffs(config, MODEL, TRUTH, filt, 7,
                                         range(REPLICATES))
    for index in (0, 5, REPLICATES - 1):
        alone = experiments._replicate_coeffs(config, MODEL, TRUTH, filt, 7,
                                              [index])
        assert np.array_equal(alone[0], rows[index])
    assert np.array_equal(experiments._replicate_coeffs(
        config, MODEL, TRUTH, filt, 7, range(5, 12)), rows[5:12])


@pytest.mark.parametrize("make_config", [
    stat_rate_config, lemma_check_config,
    lambda design: StudyConfig.from_dict(KERNEL_STUDIES["gamma-study"])],
    ids=["stat-rate", "lemma-check", "gamma-study"])
def test_grid_studies_build_no_basis(make_config, monkeypatch):
    def no_basis(*args, **kwargs):
        raise AssertionError("a grid study evaluated the basis")

    # every blocked basis read (_basis_blocks) looks the name up here
    monkeypatch.setattr(spectral_model, "basis_matrix", no_basis)
    run_study(make_config("grid"))


@pytest.mark.parametrize("count, level, expected", [
    (200, 0.01, 4.0545), (200, 0.001, 4.5647), (1, 0.05, 1.9600)])
def test_sidak_threshold(count, level, expected):
    z = experiments._sidak_z(count, level)
    assert z == pytest.approx(expected, abs=5e-5)
    # the largest of count independent |z| exceeds z with probability level
    family = 1.0 - (1.0 - math.erfc(z / math.sqrt(2.0))) ** count
    assert family == pytest.approx(level, rel=1e-9)


def test_lemma_check_z_max_is_family_wise():
    # each z divides by its exact standard error, so it is normal
    report = run_study(lemma_check_config("grid"))
    threshold = {c["name"]: c["threshold"] for c in report.checks}
    assert threshold["mean-matches-continuous"] == experiments._sidak_z(
        J, experiments._Z_FAMILY_LEVEL)


@pytest.mark.parametrize("design", DESIGNS)
def test_stat_rate_pools_its_exact_risk_z(design):
    config = stat_rate_config(design)
    report = run_study(config)
    for point, filt in zip(report.points, config._scheduled_filters()):
        exact = paper_risk(MODEL, filt, TRUTH, SIGMA, point["x"], design)
        assert point["exact_risk"] == exact
        assert point["z"] == (point["err_mean"] - exact) / point["err_se"]
    check = {c["name"]: c for c in report.checks}["risk-matches-exact"]
    pooled = sum(p["z"] for p in report.points) / math.sqrt(3)
    assert (check["value"], check["threshold"]) == (abs(pooled), 3.0)
    assert report.theory["exact_slope"] == fit_rate(
        [(1.0 / p["x"], p["exact_risk"]) for p in report.points]).slope


@pytest.mark.parametrize("design", DESIGNS)
def test_stat_rate_z_is_zero_without_spread(design):
    # a cutoff above the spectrum annihilates every mode, so each replicate
    # is 0 and err_mean is the exact risk ||f||^2 up to roundoff, while the
    # sample standard error is roundoff alone (z read -4.36 as their ratio)
    raw = dict(stat_rate_config(design).to_dict(), filter="cutoff",
               schedule={"c": 100.0, "exponent": 0.01})
    report = run_study(StudyConfig.from_dict(raw))
    assert [p["z"] for p in report.points] == [0.0, 0.0, 0.0]
    assert report.points[0]["exact_risk"] == pytest.approx(
        float(TRUTH @ TRUTH), rel=1e-14)


@pytest.mark.parametrize("design", DESIGNS)
def test_median_equals_numpy_median(design):
    # the squared errors of a 200-replicate stat-rate point at n = 50
    config = StudyConfig.from_dict(dict(stat_rate_config(design).to_dict(),
                                        replicates=200))
    filt = FilterSpec("tikhonov", 1.0 * 50.0 ** (-1.0 / 3.5))
    rows = experiments._replicate_coeffs(config, MODEL, TRUTH, filt, 50,
                                         range(200))
    errors = np.sum((rows - TRUTH) ** 2, axis=1)
    rng = np.random.default_rng(5)
    # the 200 errors of a stat-rate point and their first 199, then odd and
    # even counts with ties and a single entry
    for values in (errors, errors[:199], rng.random(7), rng.random(8),
                   rng.integers(0, 3, 10).astype(float),
                   rng.integers(0, 3, 11).astype(float), np.array([2.5])):
        median = experiments._median(values)
        assert type(median) is float
        assert median == float(np.median(values))


def test_median_is_nan_when_any_entry_is_nan():
    for values in ([math.nan, 1.0, 2.0], [1.0, math.nan], [0.5, 1.0, math.nan],
                   [math.nan]):
        assert math.isnan(experiments._median(np.array(values)))


def test_stat_rate_imports_no_numpy_ma(tmp_path):
    # np.median imports numpy.ma on first use (numpy >= 2), 16-17 ms of a
    # fresh process; stat-rate's median must not
    probe = ("import json, sys\n"
             "import numpy\n"
             "before = 'numpy.ma' in sys.modules\n"
             "from rkhs_invlab import StudyConfig, run_study\n"
             "for raw in json.loads(sys.argv[1]):\n"
             "    run_study(StudyConfig.from_dict(raw))\n"
             "print(json.dumps([before, 'numpy.ma' in sys.modules]))\n")
    configs = [stat_rate_config(design).to_dict() for design in DESIGNS]
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(configs)],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120, check=True)
    before, after = json.loads(done.stdout.splitlines()[-1])
    if before:
        pytest.skip("import numpy already loads numpy.ma (numpy < 2)")
    assert not after


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("make_config", [stat_rate_config,
                                         lemma_check_config],
                         ids=["stat-rate", "lemma-check"])
def test_repeated_runs_are_identical(make_config, design):
    config = make_config(design)
    first = run_study(config).canonical_dict()
    assert run_study(config).canonical_dict() == first


def replicate_run(n, replicates):
    """A call of _replicate_coeffs for an iid lemma-check at J = 200."""
    size = 200
    raw = {"kind": "lemma-check", "design": "iid-uniform", "sigma": SIGMA,
           "problem": {"J": size, "b": 2.0, "d": 1.0, "r": 1.0,
                       "w_spec": [1.0 / j for j in range(1, size + 1)]},
           "n": n, "lambda": 0.05, "replicates": replicates, "seed": SEED}
    config = StudyConfig.from_dict(raw)
    problem, truth = problem_from_descriptor(dict(raw["problem"], seed=SEED))
    filt = FilterSpec("tikhonov", 0.05)
    return lambda: experiments._replicate_coeffs(config, problem, truth,
                                                 filt, n, range(replicates))


@pytest.mark.parametrize("cells", [1000, 10_000_000])
def test_iid_rows_do_not_depend_on_the_batch_budget(cells, monkeypatch):
    # 37 replicates of 100 points at J = 200 go in batches of 32 and 5 by
    # default, one design at a time under 1,000 entries and all in one
    # batch under 10^7.  The factor tables are per point and every product
    # is per design, so each row is the same bit for bit.
    run = replicate_run(100, 37)
    default = run()
    monkeypatch.setattr(experiments, "_BATCH_CELLS", cells)
    assert np.array_equal(run(), default)


def replicate_peak(n, replicates):
    """Rows and ``tracemalloc`` peak of one _replicate_coeffs call at
    J = 200, after a warm-up call that keeps the lazy ``numpy.random``
    import out of the peak."""
    run = replicate_run(n, replicates)
    run()
    tracemalloc.start()
    try:
        rows = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (replicates, 200)
    return rows, peak


def test_iid_batch_peak_memory_is_one_batch():
    # 12 replicates of 800 points at J = 200 are three batches of four
    # designs.  The call holds one batch's worth of factor tables (9 + 13
    # complex entries, 44 doubles, per point), which every batch reuses,
    # and one design's two weighted copies of its 9 low rows (18 per point
    # of the design, 4.5 per batch point).  With the points, the angle
    # reduction's units and the 1,024-point workspace of the high rows the
    # peak measures 68 entries per batch point, against the 200 of its
    # basis.  The bound, 75 entries per point plus 10%, fails if a batch
    # allocates tables of its own (156 measured) or if the high rows of the
    # whole batch are formed complex before they are split into planes (87)
    assert experiments._BATCH_CELLS // (800 * 200) == 4
    rows, peak = replicate_peak(800, 12)
    assert peak <= 1.1 * 75 * 4 * 800 * 8 + rows.nbytes


def assert_survives_json(report, tmp_path):
    path = tmp_path / "report.json"
    write_report(report, "json", path)
    back = StudyReport.from_dict(json.loads(path.read_text()))
    assert back.canonical_dict() == report.canonical_dict()
    assert back.recompute_checks() == back.checks


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("make_config", [stat_rate_config,
                                         lemma_check_config],
                         ids=["stat-rate", "lemma-check"])
def test_monte_carlo_report_survives_json(make_config, design, tmp_path):
    assert_survives_json(run_study(make_config(design)), tmp_path)


KERNEL_J = 40
KERNEL_PROBLEM = {"J": KERNEL_J, "b": 2.0, "d": 1.0, "r": 1.0,
                  "w_spec": [1.0 / j for j in range(1, KERNEL_J + 1)]}
DELTAS = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2]


def det_rate_raw(filter_kind):
    return {"kind": "det-rate", "problem": KERNEL_PROBLEM,
            "filter": filter_kind, "delta_grid": DELTAS,
            "schedule": {"c": 1.0, "exponent": 2.0 / 3.0}, "seed": SEED}


KERNEL_STUDIES = {
    "gamma-study": {"kind": "gamma-study", "problem": KERNEL_PROBLEM,
                    "design": "grid", "n_grid": [25, 50, 100, 200],
                    "lambda": 1e-3, "seed": SEED},
    "equivalence-check": {"kind": "equivalence-check",
                          "problem": KERNEL_PROBLEM, "design": "grid",
                          "n": 60, "lambda": 1e-3, "seed": SEED},
    **{f"det-rate-{kind}": det_rate_raw(kind)
       for kind in ("tikhonov", "cutoff", "landweber")},
}


# One valid config of each kind, setting as few entries as it can.
BASE_RAW = {"stat-rate": stat_rate_config("grid").to_dict(),
            "det-rate": det_rate_raw("tikhonov"),
            "lemma-check": lemma_check_config("grid").to_dict(),
            "gamma-study": KERNEL_STUDIES["gamma-study"],
            "equivalence-check": KERNEL_STUDIES["equivalence-check"]}

# Entries each kind never reads, each with a valid non-default value.
# theory, gamma, perturbation and perturbation_index, the entries of
# det-rate's retired converted theory and perturbation choice, are read by
# no kind and refused as unknown keys; stat-rate's four are in RETIRED.
UNREAD = {
    "stat-rate": {"delta_grid": [0.1, 0.2], "lambda": 0.3, "n": 7},
    "det-rate": {"design": "iid-uniform", "sigma": 5.0, "replicates": 1000,
                 "lambda": 0.3, "n": 7, "n_grid": [10, 20], "gamma": 1.75,
                 "perturbation_index": 2},
    "lemma-check": {"n_grid": [10, 20], "delta_grid": [0.1, 0.2],
                    "schedule": {"c": 1.0, "exponent": 0.5},
                    "perturbation": "random-unit", "theory": "converted"},
    "gamma-study": {"sigma": 0.1, "replicates": 10, "filter": "cutoff",
                    "n": 7, "delta_grid": [0.1, 0.2],
                    "schedule": {"c": 1.0, "exponent": 0.5}},
    "equivalence-check": {"sigma": 0.1, "replicates": 10,
                          "filter": "cutoff", "n_grid": [10, 20],
                          "schedule": {"c": 1.0, "exponent": 0.5}},
}

# A config of each kind that sets every entry the kind reads away from its
# default.
FULL_RAW = {
    "stat-rate": dict(BASE_RAW["stat-rate"], filter="cutoff",
                      design="iid-uniform", replicates=3),
    "det-rate": dict(BASE_RAW["det-rate"], filter="landweber"),
    "lemma-check": dict(BASE_RAW["lemma-check"], filter="cutoff",
                        design="iid-uniform"),
    "gamma-study": BASE_RAW["gamma-study"],
    "equivalence-check": dict(BASE_RAW["equivalence-check"],
                              design="iid-uniform"),
}


@pytest.mark.parametrize("kind", sorted(FULL_RAW))
def test_read_entries_are_accepted_and_round_trip(kind):
    config = StudyConfig.from_dict(FULL_RAW[kind])
    assert StudyConfig.from_dict(config.to_dict()) == config


# The exact config echo of FULL_RAW: the entries each kind reads, so
# det-rate echoes no design, sigma or replicates, and gamma-study and
# equivalence-check no filter, sigma or replicates.
FULL_ECHO = {
    "stat-rate": {"kind": "stat-rate", "problem": PROBLEM,
                  "filter": "cutoff", "design": "iid-uniform",
                  "sigma": SIGMA, "n_grid": [50, 100, 200],
                  "schedule": {"c": 1.0, "exponent": 1.0 / 3.5},
                  "replicates": 3, "seed": SEED},
    "det-rate": {"kind": "det-rate", "problem": KERNEL_PROBLEM,
                 "filter": "landweber", "delta_grid": DELTAS,
                 "schedule": {"c": 1.0, "exponent": 2.0 / 3.0},
                 "seed": SEED},
    "lemma-check": {"kind": "lemma-check", "problem": PROBLEM,
                    "filter": "cutoff", "design": "iid-uniform",
                    "sigma": SIGMA, "lambda": 0.05, "n": 100,
                    "replicates": REPLICATES, "seed": SEED},
    "gamma-study": {"kind": "gamma-study", "problem": KERNEL_PROBLEM,
                    "n_grid": [25, 50, 100, 200], "lambda": 1e-3,
                    "seed": SEED},
    "equivalence-check": {"kind": "equivalence-check",
                          "problem": KERNEL_PROBLEM, "design": "iid-uniform",
                          "lambda": 1e-3, "n": 60, "seed": SEED},
}


@pytest.mark.parametrize("kind", sorted(FULL_ECHO))
def test_config_echo_is_pinned(kind):
    assert StudyConfig.from_dict(FULL_RAW[kind]).to_dict() == FULL_ECHO[kind]


@pytest.mark.parametrize("name", sorted(FULL_RAW))
def test_config_echo_is_what_the_kind_reads(name):
    raw = FULL_RAW[name]
    reads = {"kind", "problem", "seed",
             *experiments._STUDIES[raw["kind"]].reads}
    assert set(StudyConfig.from_dict(raw).to_dict()) == reads


# Each entry each kind reads, with a value its rule refuses.
INVALID_READS = {
    "stat-rate": {"filter": "bogus", "design": "bogus", "sigma": -0.1,
                  "n_grid": [100, 50],
                  "schedule": {"c": 1.0, "exponent": -0.5},
                  "replicates": 0},
    "det-rate": {"filter": "bogus", "delta_grid": [0.2, 0.1],
                 "schedule": {"c": 0.0, "exponent": 0.5}},
    "lemma-check": {"filter": "bogus", "design": "bogus", "sigma": -0.1,
                    "n": 0, "lambda": -0.05, "replicates": 1},
    "gamma-study": {"n_grid": [25, 25], "lambda": 0.0},
    "equivalence-check": {"design": "bogus", "n": 0, "lambda": -1e-3},
}


@pytest.mark.parametrize("kind, entry", [
    (kind, entry) for kind, entries in INVALID_READS.items()
    for entry in entries])
def test_invalid_read_entry_is_named_and_exits_two(kind, entry, tmp_path):
    raw = dict(BASE_RAW[kind], **{entry: INVALID_READS[kind][entry]})
    with pytest.raises(ValidationError) as info:
        StudyConfig.from_dict(raw)
    assert info.value.fields == (entry,)
    assert run_cli(tmp_path, raw) == 2
    assert not (tmp_path / "out").exists()


# name -> (kind, retired entries, the fields named).  det-rate's converted
# theory is gone: verify's worst-case-conversion judges the n -> delta
# conversion.  det-rate always perturbs along the filter's worst mode, and
# every check is held to the fixed threshold of its kind: a tolerances
# entry is refused even where it sets the old values, or nothing
# (lemma-check's row is empty).  A retired entry is refused whatever it
# holds, a value its old rule refused included.
RETIRED = {
    "classical": ("det-rate", {"theory": "classical"}, ("theory",)),
    "theory-bogus": ("det-rate", {"theory": "bogus"}, ("theory",)),
    "gamma-negative": ("det-rate", {"gamma": -1.75}, ("gamma",)),
    "perturbation-bogus": ("det-rate", {"perturbation": "bogus"},
                           ("perturbation",)),
    "converted": ("det-rate", {"theory": "converted", "gamma": 1.75},
                  ("gamma", "theory")),
    "gamma": ("det-rate", {"gamma": 1.75}, ("gamma",)),
    "perturbation": ("det-rate", {"perturbation": "filter-adversarial"},
                     ("perturbation",)),
    "perturbation-fixed-mode": (
        "det-rate", {"perturbation": "fixed-mode", "perturbation_index": 1},
        ("perturbation", "perturbation_index")),
    "perturbation_index": ("det-rate", {"perturbation_index": 1},
                           ("perturbation_index",)),
    # each retired entry set on a stat-rate config
    **{f"unread-stat-rate-{entry}": ("stat-rate", {entry: value}, (entry,))
       for entry, value in (("perturbation", "random-unit"),
                            ("perturbation_index", 2),
                            ("theory", "converted"), ("gamma", 1.75))},
    **{f"tolerances-{kind}": (
        kind, {"tolerances": dict.fromkeys(experiments._STUDIES[kind]
                                           .thresholds, 1.0)},
        ("tolerances",)) for kind in sorted(experiments._STUDIES)},
}


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_det_rate_entries_are_refused(name, tmp_path):
    kind, retired, fields = RETIRED[name]
    raw = dict(BASE_RAW[kind], **retired)
    with pytest.raises(ValidationError) as info:
        StudyConfig.from_dict(raw)
    assert info.value.fields == fields
    assert run_cli(tmp_path, raw) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["stat-rate", "lemma-check"])
@pytest.mark.parametrize("replicates", [1, None], ids=["one", "default"])
def test_monte_carlo_kinds_refuse_a_single_replicate(kind, replicates,
                                                     tmp_path):
    # one replicate has no spread: no standard error and no z.  stat-rate
    # ran with it and reported err_se 0, where its risk z is undefined
    raw = dict(BASE_RAW[kind], replicates=replicates)
    if replicates is None:
        del raw["replicates"]  # the entry's default is 1
    with pytest.raises(ValidationError) as info:
        StudyConfig.from_dict(raw)
    assert info.value.fields == ("replicates",)
    assert run_cli(tmp_path, raw) == 2


@pytest.mark.parametrize("schedule", [{}, None], ids=["empty", "null"])
def test_empty_schedule_is_accepted_where_unread(schedule):
    raw = lemma_check_config("grid").to_dict()
    assert (StudyConfig.from_dict(dict(raw, schedule=schedule))
            == StudyConfig.from_dict(raw))


def test_problem_seed_is_accepted_and_echoed():
    raw = dict(KERNEL_STUDIES["equivalence-check"],
               problem=dict(KERNEL_PROBLEM, seed=3))
    assert StudyConfig.from_dict(raw).to_dict()["problem"]["seed"] == 3


# The check each fixed threshold of a kind bounds, at a config that runs
# that check: stat-rate ranks its medians past five grid points.
# lemma-check's row is empty, as its one threshold follows J
# (test_lemma_check_z_max_is_family_wise).
THRESHOLD_CHECKS = {
    "stat-rate": ({"n_grid": [50, 100, 200, 400, 800]},
                  {"slope": "slope-matches-theory",
                   "risk_z": "risk-matches-exact",
                   "rank_corr": "median-error-decreasing"}),
    "det-rate": ({}, {"slope": "slope-matches-theory"}),
    "gamma-study": ({}, {"exact": "exact-for-n-above-J"}),
    "equivalence-check": ({}, {name: name for name in (
        "methods_equivalence", "representer_oracle")}),
    "lemma-check": ({}, {"z_max": "mean-matches-continuous"}),
}
# The thresholds no _STUDIES row holds, as they follow the problem.
J_THRESHOLDS = {
    "lemma-check": {"z_max": experiments._sidak_z(
        J, experiments._Z_FAMILY_LEVEL)},
}


@pytest.mark.parametrize("kind", sorted(THRESHOLD_CHECKS))
def test_every_check_is_held_to_its_kinds_threshold(kind):
    entries, names = THRESHOLD_CHECKS[kind]
    report = run_study(StudyConfig.from_dict(dict(BASE_RAW[kind], **entries)))
    thresholds = {c["name"]: c["threshold"] for c in report.checks}
    assert ({name: thresholds[check] for name, check in names.items()}
            == dict(experiments._STUDIES[kind].thresholds,
                    **J_THRESHOLDS.get(kind, {})))


@pytest.mark.parametrize("name", sorted(KERNEL_STUDIES))
def test_kernel_side_study_passes_repeats_and_survives_json(name, tmp_path):
    config = StudyConfig.from_dict(KERNEL_STUDIES[name])
    report = run_study(config)
    assert report.verdict, report.checks
    assert run_study(config).canonical_dict() == report.canonical_dict()
    assert_survives_json(report, tmp_path)


# gamma-study at the size above and at the benchmark's: J = 200 with
# n = 25 ... 3200, where n = 400 and up are past J.
GAMMA_STUDIES = {
    "J40": KERNEL_STUDIES["gamma-study"],
    "J200": dict(KERNEL_STUDIES["gamma-study"],
                 problem={"J": 200, "b": 2.0, "d": 1.0, "r": 1.0,
                          "w_spec": [1.0 / j for j in range(1, 201)]},
                 n_grid=[25 * 2 ** k for k in range(8)]),
}
GAMMA_CHECKS = ("error-decreasing", "final-error-below-tenth",
                "exact-for-n-above-J")


def kernel_solve_fit(problem, filt, samples):
    """The Tikhonov fit f = g / sigma from kernel_tikhonov's n-by-n solve."""
    _, g = kernel_tikhonov(problem, samples, filt.lam)
    return g / problem.sigma_sv


def on_grid_samples(fit):
    """A fit of a sample set, ``estimator_learn``'s signature, as a
    gamma-study fit (``_grid_learn``'s): it reads the exact outputs of the
    clean data y on the n-point midpoint grid."""
    def grid_fit(problem, filt, y, n):
        design = sample_design("grid", n)
        return fit(problem, filt,
                   SampleSet(design, eval_function(problem, y, design)))
    return grid_fit


def once_per_n(fit):
    """``fit``, computed once per sample size and then reused."""
    fits = {}

    def cached(problem, filt, y, n):
        if n not in fits:
            fits[n] = fit(problem, filt, y, n)
        return fits[n]
    return cached


def gamma_flags(label, fit, monkeypatch):
    """(name, passed) of every check of a gamma-study fitted by ``fit``."""
    monkeypatch.setattr(experiments, "_grid_learn", fit)
    report = run_study(StudyConfig.from_dict(GAMMA_STUDIES[label]))
    return tuple((c["name"], c["passed"]) for c in report.checks)


@pytest.mark.parametrize("label", sorted(GAMMA_STUDIES))
def test_gamma_study_flags_do_not_depend_on_solver_or_roundoff(
        label, monkeypatch):
    # a relative change of 4e-16 per coefficient, about two ulps, moves
    # the roundoff-level distances past n = J; the old rank-correlation
    # check ranked them, and read -0.8 under the J-space fit at J = 40
    flags = set()
    for fit in (_grid_learn, on_grid_samples(estimator_learn),
                on_grid_samples(kernel_solve_fit)):
        fit = once_per_n(fit)
        flags.add(gamma_flags(label, fit, monkeypatch))
        for draw in range(20):
            rng = np.random.default_rng(draw)
            flags.add(gamma_flags(
                label, lambda p, filt, y, n, fit=fit, rng=rng:
                fit(p, filt, y, n)
                * (1.0 + 4e-16 * rng.standard_normal(p.size)), monkeypatch))
    assert flags == {tuple((name, True) for name in GAMMA_CHECKS)}


@pytest.mark.parametrize("label", sorted(GAMMA_STUDIES))
@pytest.mark.parametrize("scale", [
    pytest.param(lambda n: 1.0 / n, id="lambda-for-lambda-n"),
    pytest.param(lambda n: 1.1, id="1.1-lambda")])
def test_gamma_study_fails_with_a_wrong_lambda(label, scale, monkeypatch):
    # both leave a distance of 1.2e-4 to 1.2e-3 of the continuous norm at
    # every n past J
    flags = dict(gamma_flags(
        label, lambda p, filt, y, n: _grid_learn(
            p, FilterSpec("tikhonov", scale(n) * filt.lam), y, n),
        monkeypatch))
    assert not flags["exact-for-n-above-J"]


def test_gamma_study_fit_matches_kernel_tikhonov():
    raw = KERNEL_STUDIES["gamma-study"]
    problem, truth = problem_from_descriptor(dict(raw["problem"],
                                                  seed=raw["seed"]))
    y = forward_data(problem, truth)
    for n in raw["n_grid"]:
        samples = sample_outputs(problem, truth, sample_design("grid", n),
                                 seed=raw["seed"])
        g = forward_data(problem, _grid_learn(
            problem, FilterSpec("tikhonov", raw["lambda"]), y, n))
        _, reference = kernel_tikhonov(problem, samples, raw["lambda"])
        assert (np.linalg.norm(g - reference)
                <= 1e-10 * np.linalg.norm(reference)), n


def test_landweber_det_rate_records_applied_lambda():
    # Landweber runs round(1/lambda) iterations, so the applied lambda is
    # 1/m, not the scheduled delta^(2/3)
    report = run_study(StudyConfig.from_dict(det_rate_raw("landweber")))
    for point in report.points:
        scheduled = 1.0 * point["x"] ** (2.0 / 3.0)
        assert point["lambda"] == 1.0 / round(1.0 / scheduled)


@pytest.mark.parametrize("raw", [stat_rate_config("grid").to_dict(),
                                 det_rate_raw("tikhonov")],
                         ids=["stat-rate", "det-rate"])
def test_rate_studies_refuse_ones_source(raw, tmp_path):
    # w = (1, ..., 1) has source radius sqrt(J): no fixed source element
    raw = dict(raw, problem=dict(raw["problem"], w_spec="ones"))
    with pytest.raises(ValidationError) as info:
        StudyConfig.from_dict(raw)
    assert info.value.fields == ("problem.w_spec",)
    assert run_cli(tmp_path, raw) == 2
    assert not (tmp_path / "out").exists()


BAD_FIELDS = {
    # gamma-study always fits on the midpoint grid
    "gamma-study-iid": (dict(KERNEL_STUDIES["gamma-study"],
                             design="iid-uniform"), "design"),
    # tolerances is no entry, so it is named as an unknown key whatever it
    # holds: a check's threshold is the fixed one of its kind
    **{f"tolerance-{name}": (dict(det_rate_raw("tikhonov"),
                                  tolerances={"slope": value}), "tolerances")
       for name, value in (("string", "abc"), ("bool", True),
                           ("nan", math.nan), ("inf", math.inf),
                           ("null", None))},
    "tolerances-number": (dict(det_rate_raw("tikhonov"), tolerances=5),
                          "tolerances"),
    # a value of the wrong type is named, not compared into a TypeError
    "lambda-string": (dict(KERNEL_STUDIES["equivalence-check"],
                           **{"lambda": "abc"}), "lambda"),
    "n-string": (dict(KERNEL_STUDIES["equivalence-check"], n="ten"), "n"),
    "n-bool": (dict(KERNEL_STUDIES["equivalence-check"], n=True), "n"),
    "n_grid-strings": (dict(KERNEL_STUDIES["gamma-study"],
                            n_grid=["a", "b"]), "n_grid"),
    "delta_grid-strings": (dict(det_rate_raw("tikhonov"),
                                delta_grid=["a", "b"]), "delta_grid"),
    "schedule-c-string": (dict(det_rate_raw("tikhonov"),
                               schedule={"c": "x", "exponent": 0.5}),
                          "schedule"),
    "schedule-exponent-string": (dict(det_rate_raw("tikhonov"),
                                      schedule={"c": 1.0, "exponent": "x"}),
                                 "schedule"),
    # types are checked before float(), int(), tuple() or dict() runs
    "config-number": (5, "config"),
    "config-null": (None, "config"),
    "sigma-list": (dict(det_rate_raw("tikhonov"), sigma=[1]), "sigma"),
    "replicates-list": (dict(det_rate_raw("tikhonov"), replicates=[1]),
                        "replicates"),
    "seed-list": (dict(det_rate_raw("tikhonov"), seed=[1]), "seed"),
    "n_grid-number": (dict(KERNEL_STUDIES["gamma-study"], n_grid=5),
                      "n_grid"),
    "delta_grid-number": (dict(det_rate_raw("tikhonov"), delta_grid=5),
                          "delta_grid"),
    "problem-number": (dict(det_rate_raw("tikhonov"), problem=5), "problem"),
    "schedule-number": (dict(det_rate_raw("tikhonov"), schedule=5),
                        "schedule"),
    # a misspelt entry of a nested config is named, not dropped or echoed
    "schedule-unknown-key": (dict(det_rate_raw("tikhonov"),
                                  schedule={"c": 1.0, "exponent": 0.5,
                                            "exponet": 0.9}), "schedule"),
    "problem-unknown-key": (dict(det_rate_raw("tikhonov"),
                                 problem=dict(KERNEL_PROBLEM, sede=3)),
                            "problem.sede"),
    # the problem's seed is an integer, not truncated, read as 1 or left
    # to raise out of int()
    **{f"problem-seed-{name}": (dict(det_rate_raw("tikhonov"),
                                     problem=dict(KERNEL_PROBLEM, seed=seed)),
                                "problem.seed")
       for name, seed in (("float", 3.7), ("bool", True), ("string", "abc"),
                          ("null", None))},
    # the decay exponent must exceed 1, not fail later inside run_study
    **{f"problem-b-{b}": (dict(det_rate_raw("tikhonov"),
                               problem=dict(KERNEL_PROBLEM, b=b)),
                          "problem.b")
       for b in (1.0, 0.5)},
    # d and r are finite, not NaN or infinite numbers that build a problem
    # of NaN or infinite eigenvalues and truths; b is no integer beyond the
    # float range, which float() and math.isfinite raise on
    **{f"problem-{key}-{name}": (dict(det_rate_raw("tikhonov"),
                                      problem=dict(KERNEL_PROBLEM,
                                                   **{key: value})),
                                 f"problem.{key}")
       for key, name, value in (("r", "nan", math.nan), ("r", "inf", math.inf),
                                ("d", "inf", math.inf),
                                ("b", "1e400", 10 ** 400))},
    "problem-J-list": (dict(det_rate_raw("tikhonov"),
                            problem=dict(KERNEL_PROBLEM, J=[KERNEL_J])),
                       "problem.J"),
    # an explicit source element is J finite numbers, not NaN in a report,
    # an unnamed conversion error or booleans read as 1.0 and 0.0
    **{f"w_spec-{name}": (dict(det_rate_raw("tikhonov"),
                               problem=dict(KERNEL_PROBLEM, w_spec=w_spec)),
                          "problem.w_spec")
       for name, w_spec in (
           ("null", [1.0, None] + [0.0] * (KERNEL_J - 2)),
           ("string", ["a"] * KERNEL_J),
           ("bool", [True, False] * (KERNEL_J // 2)),
           ("inf", [math.inf] + [0.0] * (KERNEL_J - 1)),
           ("1e400", [10 ** 400] + [0.0] * (KERNEL_J - 1)),
           ("length", [1.0] * (KERNEL_J - 1)),
           # only the names resolve_w_spec resolves
           ("unknown-name", "bogus"))},
    "sigma-nan": (dict(lemma_check_config("grid").to_dict(),
                       sigma=math.nan), "sigma"),
    # the config narrows the library's sigma and delta rows (>= 0) to > 0
    "sigma-zero": (dict(lemma_check_config("grid").to_dict(), sigma=0.0),
                   "sigma"),
    "delta_grid-zero": (dict(det_rate_raw("tikhonov"),
                             delta_grid=[0.0, 1e-3]), "delta_grid"),
    # an integer float() cannot hold is named, not an OverflowError
    "sigma-1e400": (dict(lemma_check_config("grid").to_dict(),
                         sigma=10 ** 400), "sigma"),
    "lambda-1e400": (dict(lemma_check_config("grid").to_dict(),
                          **{"lambda": 10 ** 400}), "lambda"),
    # Landweber's round(1/lambda) steps, not an OverflowError at run time
    "lambda-landweber-1e-310": (dict(lemma_check_config("grid").to_dict(),
                                     filter="landweber",
                                     **{"lambda": 1e-310}), "lambda"),
    # a sample count is at most 2**53, the library's n rule: grid studies
    # raised out of grid_aliasing at n = 2**62 and beyond
    **{f"n-{name}": (dict(lemma_check_config("grid").to_dict(), n=n), "n")
       for name, n in (("2**53+1", 2 ** 53 + 1), ("2**62", 2 ** 62),
                       ("1e30", 10 ** 30))},
    **{f"n_grid-{name}": (dict(stat_rate_config("grid").to_dict(),
                               n_grid=[100, n]), "n_grid")
       for name, n in (("2**53+1", 2 ** 53 + 1), ("1e30", 10 ** 30))},
    # values refused instead of silently coerced
    "replicates-float": (dict(det_rate_raw("tikhonov"), replicates=2.5),
                         "replicates"),
    "replicates-string": (dict(det_rate_raw("tikhonov"), replicates="3"),
                          "replicates"),
    "replicates-bool": (dict(det_rate_raw("tikhonov"), replicates=True),
                        "replicates"),
    "seed-bool": (dict(det_rate_raw("tikhonov"), seed=True), "seed"),
    # only the three filter families exist; none is echoed unchecked
    **{f"filter-{name}": (dict(raw, filter="bogus"), "filter")
       for name, raw in (("gamma-study", KERNEL_STUDIES["gamma-study"]),
                         ("equivalence-check",
                          KERNEL_STUDIES["equivalence-check"]),
                         ("det-rate", det_rate_raw("tikhonov")))},
    # tolerances is refused whatever names it holds: those of no kind's
    # checks and those of the retired identity checks
    **{f"tolerance-name-{label}": (dict(BASE_RAW[kind],
                                        tolerances={name: 1e-12}),
                                   "tolerances")
       for label, kind, name in (
           ("stat-rate", "stat-rate", "slpoe"),
           ("det-rate", "det-rate", "slpoe"),
           ("lemma-check", "lemma-check", "slope"),
           ("gamma-study", "gamma-study", "identity"),
           ("equivalence-check", "equivalence-check", "norm_equality"),
           ("lemma-check-identity", "lemma-check", "identity"),
           ("gamma-study-norm_equality", "gamma-study", "norm_equality"),
           *((f"equivalence-check-{name}", "equivalence-check", name)
             for name in ("isometry", "pullback_roundtrip")))},
    # an entry the kind does not read would be echoed without effect
    **{f"unread-{kind}-{entry}": (dict(BASE_RAW[kind], **{entry: value}),
                                  entry)
       for kind, entries in UNREAD.items()
       for entry, value in entries.items()},
    # Landweber is valid on spectra bounded by 1, and mu_1 = d: both entries
    # are named, not a run-time ModelError that names neither
    **{f"landweber-d-{kind}": (dict(raw, filter="landweber",
                                    problem=dict(raw["problem"], d=2.0)),
                               ("filter", "problem.d"))
       for kind, raw in (("stat-rate", stat_rate_config("grid").to_dict()),
                         ("lemma-check",
                          lemma_check_config("iid-uniform").to_dict()),
                         ("det-rate", det_rate_raw("tikhonov")))},
    # a schedule whose lambda under- or overflows at a grid point, or whose
    # Landweber 1/lambda overflows, is named, not a run-time ParameterError
    # that names no entry or an overflow reported as a numerical failure
    **{f"schedule-{name}": (dict(det_rate_raw(kind), delta_grid=grid,
                                 schedule={"c": 1.0, "exponent": 2.0}),
                            "schedule")
       for name, kind, grid in (
           ("tikhonov-underflow", "tikhonov", [1e-200, 1e-3]),
           ("landweber-underflow", "landweber", [1e-200, 1e-3]),
           ("landweber-1/lambda-overflow", "landweber", [1e-155, 1e-3]),
           ("tikhonov-overflow", "tikhonov", [1e-3, 1e200]))},
    "schedule-stat-rate-underflow": (
        dict(stat_rate_config("grid").to_dict(),
             schedule={"c": 1.0, "exponent": 400.0}), "schedule"),
}


@pytest.mark.parametrize("name", sorted(BAD_FIELDS))
def test_invalid_field_is_named_and_exits_two(name, tmp_path):
    raw, bad = BAD_FIELDS[name]
    with pytest.raises(ValidationError) as info:
        StudyConfig.from_dict(raw)
    assert info.value.fields == ((bad,) if isinstance(bad, str) else bad)
    assert run_cli(tmp_path, raw) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(
    name for name, (raw, bad) in BAD_FIELDS.items()
    if isinstance(bad, str) and bad.startswith("problem.")))
def test_problem_fault_is_named_by_the_builder(name):
    # the study config and the public builder judge a problem by one rule
    raw, bad = BAD_FIELDS[name]
    key = bad.removeprefix("problem.")
    with pytest.raises(ParameterError, match=re.escape(repr(key))):
        problem_from_descriptor(raw["problem"])


@pytest.mark.parametrize("raw", [
    dict(det_rate_raw("landweber"), problem=dict(KERNEL_PROBLEM, d=d))
    for d in (0.5, 1.0, 1.0 + 1e-13)] + [
    dict(det_rate_raw("tikhonov"), problem=dict(KERNEL_PROBLEM, d=4.0))])
def test_cross_entry_rules_accept_their_bounds(raw):
    # mu_1 = d up to 1 (and its roundoff) for Landweber, any d for the
    # other families
    assert run_study(StudyConfig.from_dict(raw)).verdict


def test_largest_sample_count_is_accepted():
    raw = dict(lemma_check_config("grid").to_dict(), n=2 ** 53)
    assert StudyConfig.from_dict(raw).n == 2 ** 53


def run_cli(tmp_path, raw, *extra):
    path = tmp_path / "config.json"
    path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    return main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out"), *extra])


def test_cli_run_exit_zero_on_pass(tmp_path):
    assert run_cli(tmp_path, det_rate_raw("tikhonov")) == 0
    back = json.loads((tmp_path / "out" / "det-rate.report.json").read_text())
    assert back["verdict"] is True


def test_cli_run_exit_one_on_failed_verdict(tmp_path):
    # lambda = delta^(1/4) over-smooths: the error's delta-slope reads 0.39
    # against the classical 4/3
    assert run_cli(tmp_path, det_rate_raw("tikhonov"),
                   "--set", "schedule.exponent=0.25") == 1
    back = json.loads((tmp_path / "out" / "det-rate.report.json").read_text())
    assert [c["passed"] for c in back["checks"]] == [False]


@pytest.mark.parametrize("case", ["missing-file", "invalid-json",
                                  "unknown-key", "bad-set-path",
                                  "set-tolerance-string",
                                  "set-tolerance-nan"])
def test_cli_run_exit_two_on_malformed_input(case, tmp_path):
    if case == "missing-file":
        code = main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "out")])
    elif case == "invalid-json":
        code = run_cli(tmp_path, "{not json")
    elif case == "unknown-key":
        code = run_cli(tmp_path, dict(det_rate_raw("tikhonov"), colour=1))
    elif case == "bad-set-path":
        code = run_cli(tmp_path, det_rate_raw("tikhonov"),
                       "--set", "schedule.nope=1")
    else:
        # no config entry holds a tolerance, so the path does not exist,
        # whatever the value
        value = "abc" if case == "set-tolerance-string" else "NaN"
        code = run_cli(tmp_path, det_rate_raw("tikhonov"),
                       "--set", f"tolerances.slope={value}")
    assert code == 2
    assert not (tmp_path / "out").exists()


def test_cli_run_names_a_schedule_set_to_underflow(tmp_path, capsys):
    # c delta^400 is 0.0 at every grid point
    assert run_cli(tmp_path, det_rate_raw("tikhonov"),
                   "--set", "schedule.exponent=400") == 2
    assert not (tmp_path / "out").exists()
    assert "offending fields: ['schedule']" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--d", "inf"], ["--d", "nan"], ["--d", "0"], ["--b", "nan"],
    ["--b", "inf"], ["--b", "1"], ["--J", "0"]])
def test_cli_info_exit_two_on_a_model_parameter_at_fault(args, capsys):
    # the rules of descriptor_faults: d = inf printed Infinity eigenvalues
    # and NaN norms
    assert main(["info", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {args[0][2:]} must be ")


@pytest.mark.parametrize("count", ["-1", "0"])
def test_cli_info_refuses_lambda_points_below_one(count, capsys):
    with pytest.raises(SystemExit) as info:
        main(["info", "--lambda-points", count])
    assert info.value.code == 2
    assert "--lambda-points" in capsys.readouterr().err


def test_cli_run_exit_three_on_numerical_failure(tmp_path, monkeypatch,
                                                 capsys):
    def singular(*args, **kwargs):
        raise NumericalError("kernel system is singular: Singular matrix")

    monkeypatch.setattr(experiments, "kernel_tikhonov", singular)
    assert run_cli(tmp_path, KERNEL_STUDIES["equivalence-check"]) == 3
    assert not (tmp_path / "out").exists()
    assert ("numerical failure: kernel system is singular"
            in capsys.readouterr().err)


def test_cli_run_exit_three_on_memory_error(tmp_path, monkeypatch, capsys):
    # raised, not allocated: under overcommit an allocation of any size
    # can succeed and fail only when written
    message = "Unable to allocate 7.28 TiB for an array"

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(experiments, "_replicate_coeffs", out_of_memory)
    assert run_cli(tmp_path, lemma_check_config("iid-uniform").to_dict()) == 3
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"


# A finite sigma passes validation but can overflow a study's squared
# errors: before, stat-rate then exited 2 from its rate fit, and
# lemma-check raised OverflowError out of sigma ** 2 and exited 1.
OVERFLOWS = {
    "stat-rate-1e200": dict(stat_rate_config("grid").to_dict(), sigma=1e200),
    "lemma-check-1e160": dict(lemma_check_config("grid").to_dict(),
                              sigma=1e160),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_cli_run_exit_three_on_overflow(name, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may escape
        assert run_cli(tmp_path, OVERFLOWS[name]) == 3
    assert not (tmp_path / "out").exists()
    assert "numerical failure" in capsys.readouterr().err


IID_EQUIVALENCE = {"kind": "equivalence-check",
                   "problem": {"J": 60, "b": 2.0, "d": 1.0, "r": 1.0,
                               "w_spec": "unit-random"},
                   "design": "iid-uniform", "n": 40, "lambda": 0.01}


def representer_oracle(report):
    return {c["name"]: c["value"] for c in report.checks}["representer_oracle"]


@pytest.mark.parametrize("seed", range(6))
def test_iid_equivalence_check_passes(seed):
    # on iid designs the Gram matrix is near-singular, so the representer
    # coefficients beta are not identifiable; the range element g is
    config = StudyConfig.from_dict(dict(IID_EQUIVALENCE, seed=seed))
    report = run_study(config)
    assert report.verdict, report.checks
    assert representer_oracle(report) <= 1e-10
    assert run_study(config).canonical_dict() == report.canonical_dict()


def test_iid_equivalence_check_converges_at_n_equal_j():
    raw = dict(IID_EQUIVALENCE, n=100, seed=0)
    raw["problem"] = dict(raw["problem"], J=100)
    raw["lambda"] = 1e-3
    assert representer_oracle(run_study(StudyConfig.from_dict(raw))) <= 1e-10


def test_equivalence_check_on_zero_truth():
    # y = 0 gives g = 0: every deviation reads exactly 0.0, not NaN
    raw = dict(KERNEL_STUDIES["equivalence-check"],
               problem=dict(KERNEL_PROBLEM, w_spec=[0.0] * KERNEL_J))
    report = run_study(StudyConfig.from_dict(raw))
    assert report.verdict, report.checks
    assert representer_oracle(report) == 0.0


def representer_deviation(raw):
    seed = raw.get("seed", 0)
    problem, truth = problem_from_descriptor(dict(raw["problem"], seed=seed))
    design = sample_design(raw["design"], raw["n"], seed)
    samples = sample_outputs(problem, truth, design, seed=seed)
    return equivalence_deviations(problem, samples,
                                  raw["lambda"])["representer_oracle"]


@pytest.mark.parametrize("raw", [KERNEL_STUDIES["equivalence-check"],
                                 dict(IID_EQUIVALENCE, seed=0)],
                         ids=["grid", "iid"])
def test_representer_oracle_catches_unscaled_lambda(raw, monkeypatch):
    # solving at lambda / n puts lambda, not lambda n, on the kernel
    # system's diagonal
    assert representer_deviation(raw) <= 1e-10
    solve = experiments.kernel_tikhonov
    monkeypatch.setattr(
        experiments, "kernel_tikhonov",
        lambda problem, samples, lam: solve(problem, samples,
                                            lam / samples.size))
    assert representer_deviation(raw) >= 1e-4


@pytest.mark.parametrize("scheme", ["grid", "iid-uniform"])
def test_blocked_equivalence_deviations_match_the_basis(small_blocks,
                                                        scheme):
    # the optimality residual and the moment summed over blocks of 3
    # points, and the blocked learn-n solve, against the same sums over the
    # whole basis.  Both deviations are roundoff (1e-15 to 9e-15 here),
    # and blocking moved them by at most 5e-16 at seeds 0-4
    problem, truth = small_blocks
    lam, sigma = 1e-3, problem.sigma_sv
    samples = sample_outputs(problem, truth,
                             sample_design(scheme, 50, seed=5), 0.1, seed=5)
    u, y = basis_matrix(problem, samples.design), samples.outputs
    phi = u * sigma
    learn = np.linalg.solve(phi.T @ phi / 50 + lam * np.eye(40),
                            phi.T @ y / 50)
    _, g = kernel_tikhonov(problem, samples, lam)
    residual = sigma * (u.T @ (u @ g - y)) / 50 + lam * g / sigma
    expected = {
        "methods_equivalence": max(
            np.linalg.norm(sigma * learn - g) / np.linalg.norm(g),
            abs(np.linalg.norm(g / sigma) - np.linalg.norm(learn))
            / np.linalg.norm(learn)),
        "representer_oracle": np.linalg.norm(residual)
        / (np.linalg.norm(sigma * (u.T @ y)) / 50)}
    assert equivalence_deviations(problem, samples, lam) == pytest.approx(
        expected, rel=0, abs=2e-15)
