"""Study runs and the ``run`` command.

Monte-Carlo studies are checked against the public single-replicate path
(also across iid batch and grid chunk boundaries), for determinism, for the
JSON round trip and for the peak memory of one iid batch or grid chunk;
the kernel-side study kinds for verdict, determinism and the JSON round
trip; config validation and ``rkhs-invlab run`` for their exit codes.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from rkhs_invlab import (FilterSpec, NoiseModel, NumericalError,
                         StudyConfig, StudyReport, ValidationError,
                         equivalence_deviations, estimator_learn,
                         estimator_paper, experiments, forward_data,
                         kernel_tikhonov, lambda_schedule,
                         problem_from_descriptor, run_study, sample_design,
                         sample_outputs, write_report)
from rkhs_invlab.cli import main
from rkhs_invlab.spectral_model import _FACTOR_WIDTH

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
                             SEED, index=index)
    return estimator_paper(MODEL, filt, samples)


# The module constant that sizes the replicate groups of each design: basis
# entries per iid batch, replicates (output columns) per grid chunk.
GROUP_SIZES = {"grid": "_CHUNK_WIDTH", "iid-uniform": "_BATCH_CELLS"}


def group_cases(iid_budgets, grid_widths):
    """(design, size) cases: the default group sizes on both designs, then
    iid runs under ``iid_budgets`` basis entries per batch and grid runs
    in chunks of ``grid_widths`` replicates."""
    return ([pytest.param(design, None, id=design) for design in DESIGNS]
            + [pytest.param("iid-uniform", cells,
                            id=f"iid-uniform-budget{cells}")
               for cells in iid_budgets]
            + [pytest.param("grid", width, id=f"grid-width{width}")
               for width in grid_widths])


def assert_matches_public(value, expected):
    # a grid chunk's GEMM and an iid batch's factor tables sum in another
    # order than the public path's GEMV (gaps up to 2.1e-15 relative on the
    # grid and 9.1e-16 on iid designs, on these inputs)
    np.testing.assert_allclose(value, expected, rtol=1e-12, atol=0)


# At J = 20 one n-point design is 20 n entries.  For stat-rate (n = 50, 100,
# 200), 3,000 entries give 7 batches of 3 designs with a last one of 2 at
# n = 50, and a design larger than the budget at n = 200.  For lemma-check
# (n = 100), 6,000 give a last batch of 2 and 1,500 one over the budget.
# The 20 grid replicates go in chunks of 16 and 4 by default; in 7, 7 and 6
# at width 7, one at a time at width 1, and in one chunk of 20 at width 32.
@pytest.mark.parametrize("design, size", group_cases([3000], [7]))
def test_stat_rate_matches_public_path(design, size, monkeypatch):
    if size is not None:
        monkeypatch.setattr(experiments, GROUP_SIZES[design], size)
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
                          - TRUTH) ** 2))
            for rep in range(REPLICATES)])
        assert point["lambda"] == lam
        assert_matches_public(point["err_mean"], float(errors.mean()))
        assert_matches_public(point["err_se"],
                              float(errors.std(ddof=1)
                                    / math.sqrt(REPLICATES)))
        assert_matches_public(point["err_median"], float(np.median(errors)))


@pytest.mark.parametrize("design, size",
                         group_cases([6000, 1500], [32, 1]))
def test_lemma_check_matches_public_path(design, size, monkeypatch):
    if size is not None:
        monkeypatch.setattr(experiments, GROUP_SIZES[design], size)
    report = run_study(lemma_check_config(design))
    filt = FilterSpec.tikhonov(0.05)
    rows = np.array([public_coeffs(design, 100, filt, rep)
                     for rep in range(REPLICATES)])
    mean = rows.mean(axis=0)
    point = report.points[0]
    assert_matches_public(point["mc_bias2"],
                          float(np.sum((mean - TRUTH) ** 2)))
    assert_matches_public(point["mc_var"],
                          float(np.mean(np.sum((rows - mean) ** 2, axis=1))))


@pytest.mark.parametrize("count, level, expected", [
    (200, 0.01, 4.0545), (200, 0.001, 4.5647), (1, 0.05, 1.9600)])
def test_sidak_threshold(count, level, expected):
    z = experiments._sidak_z(count, level)
    assert z == pytest.approx(expected, abs=5e-5)
    # the largest of count independent |z| exceeds z with probability level
    family = 1.0 - (1.0 - math.erfc(z / math.sqrt(2.0))) ** count
    assert family == pytest.approx(level, rel=1e-9)


def test_lemma_check_default_z_max_is_family_wise():
    report = run_study(lemma_check_config("grid"))
    threshold = {c["name"]: c["threshold"] for c in report.checks}
    assert threshold["mean-matches-continuous"] == experiments._sidak_z(
        J, experiments._Z_FAMILY_LEVEL)


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("make_config", [stat_rate_config,
                                         lemma_check_config],
                         ids=["stat-rate", "lemma-check"])
def test_repeated_runs_are_identical(make_config, design):
    config = make_config(design)
    first = run_study(config).canonical_dict()
    assert run_study(config).canonical_dict() == first


def replicate_run(design, n, replicates):
    """A call of _replicate_coeffs for a lemma-check at J = 200."""
    size = 200
    raw = {"kind": "lemma-check", "design": design, "sigma": SIGMA,
           "problem": {"J": size, "b": 2.0, "d": 1.0, "r": 1.0,
                       "w_spec": [1.0 / j for j in range(1, size + 1)]},
           "n": n, "lambda": 0.05, "replicates": replicates, "seed": SEED}
    config = StudyConfig.from_dict(raw)
    problem, truth = problem_from_descriptor(dict(raw["problem"], seed=SEED))
    filt = FilterSpec.tikhonov(0.05)
    return lambda: experiments._replicate_coeffs(config, problem, truth,
                                                 filt, n, range(replicates))


@pytest.mark.parametrize("cells", [1000, 10_000_000])
def test_iid_rows_do_not_depend_on_the_batch_budget(cells, monkeypatch):
    # 37 replicates of 100 points at J = 200 go in batches of 32 and 5 by
    # default, one design at a time under 1,000 entries and all in one
    # batch under 10^7.  The factor tables are per point and every product
    # is per design, so each row is the same bit for bit.
    run = replicate_run("iid-uniform", 100, 37)
    default = run()
    monkeypatch.setattr(experiments, "_BATCH_CELLS", cells)
    assert np.array_equal(run(), default)


def replicate_peak(design, n, replicates):
    """Rows and ``tracemalloc`` peak of one _replicate_coeffs call at
    J = 200, after a warm-up call that keeps the lazy ``numpy.random``
    import out of the peak."""
    run = replicate_run(design, n, replicates)
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
    # designs.  The call holds one batch's worth of factor tables (16 + 13
    # complex entries, 58 doubles, per point), which every batch reuses,
    # and one design's product with them (2 x 13 per point of the design,
    # 6.5 per batch point); with the points and the angle reduction's
    # temporaries that measures 82 entries per batch point, against the
    # 200 of its basis.  The bound, 4 x 16 + 2 x 13 = 90 entries per point
    # plus 10%, fails if a batch allocates tables of its own
    assert experiments._BATCH_CELLS // (800 * 200) == 4
    highs = 200 // _FACTOR_WIDTH + 1
    rows, peak = replicate_peak("iid-uniform", 800, 12)
    assert peak <= (1.1 * (4 * _FACTOR_WIDTH + 2 * highs) * 4 * 800 * 8
                    + rows.nbytes)


def test_grid_chunk_peak_memory_is_basis_and_one_chunk():
    # 64 replicates at n = 3200 share one 5.1 MB basis, and their outputs
    # pass through chunks of _CHUNK_WIDTH columns: all 64 output vectors at
    # once (1.6 MB) would exceed the 10% margin
    n = 3200
    assert 1 < experiments._CHUNK_WIDTH < 64
    rows, peak = replicate_peak("grid", n, 64)
    assert peak <= (1.1 * (n * 200 + experiments._CHUNK_WIDTH * n) * 8
                    + rows.nbytes)


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
# det-rate reads gamma only under the converted theory and
# perturbation_index only for a fixed-mode perturbation.
UNREAD = {
    "stat-rate": {"delta_grid": [0.1, 0.2], "lambda": 0.3, "n": 7,
                  "perturbation": "random-unit", "perturbation_index": 2,
                  "theory": "converted", "gamma": 1.75},
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

# The tolerances each kind reads, and the check each one bounds.
TOLERANCE_CHECKS = {
    "stat-rate": {"slope": "slope-matches-theory"},
    "det-rate": {"slope": "slope-matches-theory"},
    "lemma-check": {"z_max": "mean-matches-continuous",
                    "identity": "bias-variance-identity"},
    "gamma-study": {"norm_equality": "kernel-vs-parameter-norm",
                    "exact": "exact-for-n-above-J"},
    "equivalence-check": {name: name for name in (
        "isometry", "pullback_roundtrip", "methods_equivalence",
        "representer_oracle")},
}

# A config of each kind that sets every entry the kind reads away from its
# default.
FULL_RAW = {
    "stat-rate": dict(BASE_RAW["stat-rate"], filter="cutoff",
                      design="iid-uniform", replicates=3),
    "det-rate": dict(BASE_RAW["det-rate"], filter="landweber",
                     perturbation="fixed-mode", perturbation_index=2,
                     theory="converted", gamma=1.75),
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


# The exact config echo of FULL_RAW: None, empty grids and, off det-rate,
# det-rate's perturbation and theory are left out.
FULL_ECHO = {
    "stat-rate": {"kind": "stat-rate", "problem": PROBLEM,
                  "filter": "cutoff", "design": "iid-uniform",
                  "sigma": SIGMA, "n_grid": [50, 100, 200],
                  "schedule": {"c": 1.0, "exponent": 1.0 / 3.5},
                  "replicates": 3, "seed": SEED, "tolerances": {}},
    "det-rate": {"kind": "det-rate", "problem": KERNEL_PROBLEM,
                 "filter": "landweber", "design": "grid", "sigma": 0.0,
                 "delta_grid": DELTAS,
                 "schedule": {"c": 1.0, "exponent": 2.0 / 3.0},
                 "perturbation": "fixed-mode", "perturbation_index": 2,
                 "theory": "converted", "gamma": 1.75, "replicates": 1,
                 "seed": SEED, "tolerances": {}},
    "lemma-check": {"kind": "lemma-check", "problem": PROBLEM,
                    "filter": "cutoff", "design": "iid-uniform",
                    "sigma": SIGMA, "lambda": 0.05, "n": 100,
                    "replicates": REPLICATES, "seed": SEED,
                    "tolerances": {}},
    "gamma-study": {"kind": "gamma-study", "problem": KERNEL_PROBLEM,
                    "filter": "tikhonov", "design": "grid", "sigma": 0.0,
                    "n_grid": [25, 50, 100, 200], "lambda": 1e-3,
                    "replicates": 1, "seed": SEED, "tolerances": {}},
    "equivalence-check": {"kind": "equivalence-check",
                          "problem": KERNEL_PROBLEM, "filter": "tikhonov",
                          "design": "iid-uniform", "sigma": 0.0,
                          "lambda": 1e-3, "n": 60, "replicates": 1,
                          "seed": SEED, "tolerances": {}},
}


@pytest.mark.parametrize("kind", sorted(FULL_ECHO))
def test_config_echo_is_pinned(kind):
    assert StudyConfig.from_dict(FULL_RAW[kind]).to_dict() == FULL_ECHO[kind]


# Each entry each kind reads, with a value its rule refuses.  det-rate
# reads gamma under the converted theory and perturbation_index for a
# fixed-mode perturbation, so those two cases set that entry as well.
INVALID_READS = {
    "stat-rate": {"filter": "bogus", "design": "bogus", "sigma": -0.1,
                  "n_grid": [100, 50],
                  "schedule": {"c": 1.0, "exponent": -0.5},
                  "replicates": 0},
    "det-rate": {"filter": "bogus", "delta_grid": [0.2, 0.1],
                 "schedule": {"c": 0.0, "exponent": 0.5},
                 "perturbation": "bogus", "perturbation_index": 0,
                 "theory": "bogus", "gamma": -1.75},
    "lemma-check": {"filter": "bogus", "design": "bogus", "sigma": -0.1,
                    "n": 0, "lambda": -0.05, "replicates": 1},
    "gamma-study": {"n_grid": [25, 25], "lambda": 0.0},
    "equivalence-check": {"design": "bogus", "n": 0, "lambda": -1e-3},
}
READ_CONTEXT = {"gamma": {"theory": "converted"},
                "perturbation_index": {"perturbation": "fixed-mode"}}


@pytest.mark.parametrize("kind, entry", [
    (kind, entry) for kind, entries in INVALID_READS.items()
    for entry in entries])
def test_invalid_read_entry_is_named_and_exits_two(kind, entry, tmp_path):
    raw = dict(BASE_RAW[kind], **READ_CONTEXT.get(entry, {}),
               **{entry: INVALID_READS[kind][entry]})
    with pytest.raises(ValidationError) as info:
        StudyConfig.from_dict(raw)
    assert info.value.fields == (entry,)
    assert run_cli(tmp_path, raw) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("schedule", [{}, None], ids=["empty", "null"])
def test_empty_schedule_is_accepted_where_unread(schedule):
    raw = lemma_check_config("grid").to_dict()
    assert (StudyConfig.from_dict(dict(raw, schedule=schedule))
            == StudyConfig.from_dict(raw))


def test_problem_seed_is_accepted_and_echoed():
    raw = dict(KERNEL_STUDIES["equivalence-check"],
               problem=dict(KERNEL_PROBLEM, seed=3))
    assert StudyConfig.from_dict(raw).to_dict()["problem"]["seed"] == 3


@pytest.mark.parametrize("kind", sorted(TOLERANCE_CHECKS))
def test_every_known_tolerance_sets_its_check(kind):
    names = TOLERANCE_CHECKS[kind]
    # distinct values, so each check shows which tolerance bounded it
    values = {name: 0.5 + i for i, name in enumerate(sorted(names))}
    report = run_study(StudyConfig.from_dict(
        dict(BASE_RAW[kind], tolerances=values)))
    thresholds = {c["name"]: c["threshold"] for c in report.checks}
    assert {name: thresholds[check] for name, check in names.items()} == values


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
                "kernel-vs-parameter-norm", "exact-for-n-above-J")


def kernel_solve_fit(problem, filt, samples):
    """The gamma-study fit f = g / sigma from kernel_tikhonov's n-by-n
    solve, a stand-in for the J-space estimator_learn."""
    g = kernel_tikhonov(problem, samples, filt.lam).g_coeffs
    return g / problem.sigma_sv


def once_per_n(fit):
    """``fit``, computed once per sample size and then reused."""
    fits = {}

    def cached(problem, filt, samples):
        if samples.size not in fits:
            fits[samples.size] = fit(problem, filt, samples)
        return fits[samples.size]
    return cached


def gamma_flags(label, fit, monkeypatch):
    """(name, passed) of every check of a gamma-study fitted by ``fit``."""
    monkeypatch.setattr(experiments, "estimator_learn", fit)
    report = run_study(StudyConfig.from_dict(GAMMA_STUDIES[label]))
    return tuple((c["name"], c["passed"]) for c in report.checks)


@pytest.mark.parametrize("label", sorted(GAMMA_STUDIES))
def test_gamma_study_flags_do_not_depend_on_solver_or_roundoff(
        label, monkeypatch):
    # a relative change of 4e-16 per coefficient, about two ulps, moves
    # the roundoff-level distances past n = J; the old rank-correlation
    # check ranked them, and read -0.8 under the J-space fit at J = 40
    flags = set()
    for fit in (estimator_learn, kernel_solve_fit):
        fit = once_per_n(fit)
        flags.add(gamma_flags(label, fit, monkeypatch))
        for draw in range(20):
            rng = np.random.default_rng(draw)
            flags.add(gamma_flags(
                label, lambda p, filt, s, fit=fit, rng=rng: fit(p, filt, s)
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
        label, lambda p, filt, s: estimator_learn(
            p, FilterSpec.tikhonov(scale(s.size) * filt.lam), s),
        monkeypatch))
    assert not flags["exact-for-n-above-J"]


def test_gamma_study_fit_matches_kernel_tikhonov():
    raw = KERNEL_STUDIES["gamma-study"]
    problem, truth = problem_from_descriptor(dict(raw["problem"],
                                                  seed=raw["seed"]))
    for n in raw["n_grid"]:
        samples = sample_outputs(problem, truth, sample_design("grid", n),
                                 NoiseModel(), raw["seed"])
        g = forward_data(problem, estimator_learn(
            problem, FilterSpec.tikhonov(raw["lambda"]), samples))
        reference = kernel_tikhonov(problem, samples, raw["lambda"]).g_coeffs
        assert (np.linalg.norm(g - reference)
                <= 1e-10 * np.linalg.norm(reference)), n


def test_landweber_det_rate_records_applied_lambda():
    # Landweber runs round(1/lambda) iterations, so the applied lambda is
    # 1/m, not the scheduled delta^(2/3)
    report = run_study(StudyConfig.from_dict(det_rate_raw("landweber")))
    for point in report.points:
        scheduled = lambda_schedule("by-delta", 1.0, 2.0 / 3.0, point["x"])
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
    # gamma-study always samples the midpoint grid
    "gamma-study-iid": (dict(KERNEL_STUDIES["gamma-study"],
                             design="iid-uniform"), "design"),
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
    "perturbation_index-string": (dict(det_rate_raw("tikhonov"),
                                       perturbation="fixed-mode",
                                       perturbation_index="abc"),
                                  "perturbation_index"),
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
    "problem-J-list": (dict(det_rate_raw("tikhonov"),
                            problem=dict(KERNEL_PROBLEM, J=[KERNEL_J])),
                       "problem.J"),
    "gamma-list": (dict(det_rate_raw("tikhonov"), theory="converted",
                        gamma=[1.75]), "gamma"),
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
           ("length", [1.0] * (KERNEL_J - 1)),
           # only the names resolve_w_spec resolves
           ("unknown-name", "bogus"))},
    "sigma-nan": (dict(lemma_check_config("grid").to_dict(),
                       sigma=math.nan), "sigma"),
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
    # a tolerance the kind does not read would be ignored, not applied
    **{f"tolerance-name-{kind}": (dict(BASE_RAW[kind],
                                       tolerances={name: 1e-12}),
                                  "tolerances")
       for kind, name in (("stat-rate", "slpoe"), ("det-rate", "slpoe"),
                          ("lemma-check", "slope"),
                          ("gamma-study", "identity"),
                          ("equivalence-check", "norm_equality"))},
    # an entry the kind does not read would be echoed without effect
    **{f"unread-{kind}-{entry}": (dict(BASE_RAW[kind], **{entry: value}),
                                  entry)
       for kind, entries in UNREAD.items()
       for entry, value in entries.items()},
}


@pytest.mark.parametrize("name", sorted(BAD_FIELDS))
def test_invalid_field_is_named_and_exits_two(name, tmp_path):
    raw, bad = BAD_FIELDS[name]
    with pytest.raises(ValidationError) as info:
        StudyConfig.from_dict(raw)
    assert info.value.fields == (bad,)
    assert run_cli(tmp_path, raw) == 2
    assert not (tmp_path / "out").exists()


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
    raw = dict(det_rate_raw("tikhonov"), tolerances={"slope": 0.15})
    assert run_cli(tmp_path, raw, "--set", "tolerances.slope=1e-12") == 1


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
        raw = dict(det_rate_raw("tikhonov"), tolerances={"slope": 0.15})
        value = "abc" if case == "set-tolerance-string" else "NaN"
        code = run_cli(tmp_path, raw, "--set", f"tolerances.slope={value}")
    assert code == 2
    assert not (tmp_path / "out").exists()


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
    samples = sample_outputs(problem, truth, design, NoiseModel(), seed)
    return equivalence_deviations(problem, samples, raw["lambda"],
                                  seed=seed)["representer_oracle"]


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
