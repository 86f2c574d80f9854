"""Filters, the four reconstructions and kernel solves.

A test named after an invariant of ``verify.ALL_CHECKS`` only runs that
check, at a second seed where the check draws random inputs; the check
holds the invariant's set-up and tolerance.
"""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from rkhs_invlab import (DomainError, FilterSpec, ModelError, ParameterError,
                         SampleSet, basis_matrix, build_power_law_problem,
                         certify_filter, equivalence_deviations,
                         estimator_learn, estimator_paper, fit_rate,
                         forward_data, kernel_tikhonov, make_source_solution,
                         sample_design, sample_outputs, solve_continuous,
                         spectral_model, verify)
from rkhs_invlab.regularization import _FAMILIES, _grid_learn


def clean_samples(problem, truth, design):
    return sample_outputs(problem, truth, np.asarray(design, dtype=float),
                          seed=0)


@pytest.fixture
def two_mode():
    problem = build_power_law_problem(2, 2.0, 1.0)
    truth = make_source_solution(problem, 0.5, [1.0, 1.0])  # f = (1, 0.5)
    return problem, truth


KINDS = ("tikhonov", "cutoff", "landweber")


class TestFilterValue:
    def test_tikhonov(self):
        assert FilterSpec("tikhonov", 1.0).value(1.0) == pytest.approx(0.5)

    def test_cutoff(self):
        filt = FilterSpec("cutoff", 0.25)
        assert filt.value(0.5) == pytest.approx(2.0)
        assert filt.value(0.2) == 0.0

    def test_landweber_geometric_sum(self):
        # m = 2: 1 + (1 - t) at t = 0.5
        assert FilterSpec("landweber", 0.5).value(0.5) == pytest.approx(1.5)

    def test_domain_and_model_errors(self):
        with pytest.raises(DomainError):
            FilterSpec("tikhonov", 1.0).value(0.0)
        message = ("landweber requires a spectrum bounded by 1; rescale the "
                   "problem so mu_1 <= 1")
        with pytest.raises(ModelError, match=re.escape(message)):
            FilterSpec("landweber", 1 / 3).value(1.5)
        with pytest.raises(ModelError, match=re.escape(message)):
            FilterSpec("landweber", 1 / 3).on_spectrum(
                build_power_law_problem(10, 2.0, 4.0))
        # the bound allows roundoff, and the other families have none
        assert FilterSpec("landweber", 1.0).value(1.0 + 1e-13) > 0.0
        for kind in ("tikhonov", "cutoff"):
            assert FilterSpec(kind, 1.0).value(1e300) > 0.0

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("lam", [0.0, -0.1, math.nan, math.inf, -math.inf,
                                     "0.1", True, None])
    def test_lambda_is_a_finite_number_above_zero(self, kind, lam):
        with pytest.raises(ParameterError, match="lambda"):
            FilterSpec(kind, lam)

    @pytest.mark.parametrize("lam", [1e-310, 5e-324])
    def test_landweber_refuses_lambda_of_infinite_reciprocal(self, lam):
        # round(1/lambda) would raise OverflowError; the other families
        # take any finite lambda > 0, and Landweber the smallest normal one
        with pytest.raises(ParameterError, match="lambda"):
            FilterSpec("landweber", lam)
        for kind in ("tikhonov", "cutoff"):
            assert FilterSpec(kind, lam).lam == lam
        assert FilterSpec("landweber", 2.0 ** -1022).lam == 2.0 ** -1022

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_family_name_builds_its_filter(self, kind):
        # a filter is its family name and its lambda, stored as a float
        assert [f.name for f in dataclasses.fields(FilterSpec)] == [
            "kind", "lam"]
        for lam in (1, np.float64(1.0), np.int64(1)):
            filt = FilterSpec(kind, lam)
            assert (filt.kind, type(filt.lam)) == (kind, float)
            assert filt == FilterSpec(kind, 1.0)

    def test_unknown_family_is_refused(self):
        with pytest.raises(ParameterError, match="'bogus'"):
            FilterSpec(kind="bogus", lam=0.1)

    def test_landweber_runs_round_one_over_lambda_iterations(self):
        for lam, m in ((0.3, 3), (5.0, 1), (0.7, 1), (0.26, 4),
                       (0.0049, 204)):
            filt = FilterSpec("landweber", lam)
            assert filt.lam == 1.0 / m
            # m iterations: the t -> 0 limit of the geometric sum is m
            assert filt.at_eigenvalues(np.zeros(1))[0] == m

    def test_landweber_one_over_m_gives_m_back(self):
        for m in range(1, 10_001):
            filt = FilterSpec("landweber", 1.0 / m)
            assert filt.lam == 1.0 / m
            assert FilterSpec("landweber", filt.lam) == filt
            assert filt.at_eigenvalues(np.zeros(1))[0] == m

    def test_landweber_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        for m in (1, 2, 7, 40):
            filt = FilterSpec("landweber", 1.0 / m)
            for t in rng.uniform(1e-6, 1.0, 20):
                direct = sum((1.0 - t) ** k for k in range(m))
                assert filt.value(float(t)) == pytest.approx(direct, rel=1e-10)


class TestFilterCertificates:
    def test_all_kinds_certify(self):
        result = verify.check_filter_certificates(0)
        assert result.passed, result.detail


class TestFamilies:
    @pytest.mark.parametrize("kind, qualification, bound", [
        ("tikhonov", 1.0, math.inf), ("cutoff", math.inf, math.inf),
        ("landweber", math.inf, 1.0)])
    def test_row(self, kind, qualification, bound):
        # the one table of families: a config's filter entry, FilterSpec
        # and certify_filter all read it
        assert tuple(_FAMILIES) == KINDS
        assert _FAMILIES[kind].qualification == qualification
        assert _FAMILIES[kind].spectrum_bound == bound

    def test_tikhonov_constants_are_exact(self):
        # nu^nu (1 - nu)^(1 - nu) rounds to 0.5000000000000001 at nu = 1/2
        assert [_FAMILIES["tikhonov"].c_nu(nu) for nu in (0.0, 0.5, 1.0)] \
            == [1.0, 0.5, 1.0]

    # The margins of certify_filter(kind, problem) at its default sweep,
    # pinned at three models.  Sweeping Landweber over [mu_J, mu_1] instead
    # of lambda = 1/m moves E at (200, 3, 0.5) to 3.1e-8; margins below an
    # ulp of 1 are held to 1e-15.
    MARGINS = {
        (100, 2.0, 1.0): {
            "tikhonov": (9.999000099991662e-05, 9.999000099991662e-05, 0.0),
            "cutoff": (0.0, 0.0, -1.0504284772726981e-16),
            "landweber": (0.0, -2.220446049250313e-16,
                          -1.0484228688354839e-16)},
        (200, 3.0, 0.5): {
            "tikhonov": (1.249999842523053e-07, 1.249999842523053e-07, 0.0),
            "cutoff": (0.0, 0.0, -1.8187146614999435e-17),
            "landweber": (0.0, -2.220446049250313e-16,
                          -3.0973127897614184e-18)},
        (50, 1.5, 1.0): {
            "tikhonov": (0.002820449688343829, 0.002820449688343829, 0.0),
            "cutoff": (0.0, 0.0, -1.1049818984450954e-16),
            "landweber": (0.0, -2.220446049250313e-16,
                          -1.106597052094777e-16)},
    }

    @pytest.mark.parametrize("model", sorted(MARGINS))
    @pytest.mark.parametrize("kind", KINDS)
    def test_certify_filter_margins(self, model, kind):
        margins = certify_filter(kind, build_power_law_problem(*model))
        assert (margins["D"], margins["E"], margins["qualification"]) == \
            pytest.approx(self.MARGINS[model][kind], rel=1e-12, abs=1e-15)

    def test_certify_filter_stops_at_the_qualification(self, monkeypatch):
        # Tikhonov's C_nu lambda^nu bound fails for nu > 1 (saturation)
        problem = build_power_law_problem(100, 2.0, 1.0)
        monkeypatch.setitem(_FAMILIES, "tikhonov", _FAMILIES[
            "tikhonov"]._replace(qualification=1.5, c_nu=lambda nu: 1.0))
        assert certify_filter("tikhonov", problem)["qualification"] < -1e-3


class TestSolveContinuous:
    def test_single_mode(self):
        problem = build_power_law_problem(1, 2.0, 1.0)
        y = forward_data(problem, [1.0])
        estimate = solve_continuous(problem, FilterSpec("tikhonov", 1.0), y)
        npt.assert_allclose(estimate, [0.5], rtol=1e-15)

    def test_cutoff_reproduces_truth(self, two_mode):
        problem, truth = two_mode
        y = forward_data(problem, truth)
        estimate = solve_continuous(
            problem, FilterSpec("cutoff", problem.mu[-1]), y)
        npt.assert_allclose(estimate, truth, rtol=1e-14)

    def test_zero_data(self, two_mode):
        problem, _ = two_mode
        estimate = solve_continuous(problem, FilterSpec("tikhonov", 0.3),
                                    np.zeros(2))
        npt.assert_array_equal(estimate, np.zeros(2))

    def test_boundedness_sanity(self):
        # |s(t) t| <= 1 implies the clean reconstruction never exceeds the
        # truth norm for the Tikhonov family
        problem = build_power_law_problem(30, 2.0, 1.0)
        truth = make_source_solution(problem, 1.0,
                                     np.arange(1, 31, dtype=float) ** -1.0)
        y = forward_data(problem, truth)
        for lam in (problem.mu[0], 10 * problem.mu[0]):
            estimate = solve_continuous(problem, FilterSpec("tikhonov", lam),
                                        y)
            assert np.linalg.norm(estimate) <= np.linalg.norm(truth)


class TestEstimatorPaper:
    def test_single_sample(self):
        # one noiseless sample at 0.5: moment = sqrt2 * sqrt2 = 2, s = 0.5
        problem = build_power_law_problem(1, 2.0, 1.0)
        truth = make_source_solution(problem, 1.0, [1.0])
        samples = clean_samples(problem, truth, sample_design("grid", 1))
        estimate = estimator_paper(problem, FilterSpec("tikhonov", 1.0),
                                   samples)
        npt.assert_allclose(estimate, [1.0], rtol=1e-12)

    def test_zero_outputs(self, two_mode):
        problem, _ = two_mode
        samples = SampleSet(design=np.array([0.3, 0.6]), outputs=np.zeros(2))
        estimate = estimator_paper(problem, FilterSpec("tikhonov", 0.5),
                                   samples)
        npt.assert_array_equal(estimate, np.zeros(2))

    def test_grid_approaches_continuous_second_order(self):
        # noiseless midpoint grids: the empirical moment aliases high modes
        # with weights sigma_j ~ j^-2 (b = 4), so the distance to the
        # continuous solution decays at least quadratically in n
        problem = build_power_law_problem(256, 4.0, 1.0)
        j = np.arange(1, 257, dtype=float)
        truth = make_source_solution(problem, 0.25, np.ones(256))  # y_j = j^-3
        filt = FilterSpec("tikhonov", 0.05)
        target = solve_continuous(problem, filt, forward_data(problem, truth))
        points = []
        for n in (8, 16, 32, 64, 128):
            samples = clean_samples(problem, truth, sample_design("grid", n))
            estimate = estimator_paper(problem, filt, samples)
            points.append((n, float(np.linalg.norm(estimate - target))))
        slope = fit_rate(points).slope
        assert slope <= -1.75


class TestEstimatorLearn:
    def test_single_sample_closed_form(self):
        # K(0.5, 0.5) = 2, beta = sqrt2 / 3, coeffs = sqrt2 * beta = 2/3
        problem = build_power_law_problem(1, 2.0, 1.0)
        truth = make_source_solution(problem, 1.0, [1.0])
        samples = clean_samples(problem, truth, sample_design("grid", 1))
        estimate = estimator_learn(problem, FilterSpec("tikhonov", 1.0),
                                   samples)
        npt.assert_allclose(estimate, [2.0 / 3.0], rtol=1e-12)

    def test_zero_outputs(self, two_mode):
        problem, _ = two_mode
        samples = SampleSet(design=np.array([0.3, 0.6]), outputs=np.zeros(2))
        estimate = estimator_learn(problem, FilterSpec("tikhonov", 0.5),
                                   samples)
        npt.assert_allclose(estimate, np.zeros(2), atol=1e-15)

    def test_two_point_worked_example(self, two_mode):
        # independent 2x2 oracle: K = [[1.5, .5], [.5, 1.5]], K + I has
        # determinant 6, beta = (K + I)^{-1} y via the explicit inverse
        problem, truth = two_mode
        samples = clean_samples(problem, truth, sample_design("grid", 2))
        y = samples.outputs
        inverse = np.array([[2.5, -0.5], [-0.5, 2.5]]) / 6.0
        beta_oracle = inverse @ y
        npt.assert_allclose(beta_oracle, [0.510110, 0.156557], atol=5e-7)
        u = basis_matrix(problem, samples.design)
        coeffs_oracle = problem.sigma_sv * (u.T @ beta_oracle)
        estimate = estimator_learn(problem, FilterSpec("tikhonov", 0.5),
                                   samples)
        npt.assert_allclose(estimate, coeffs_oracle, rtol=1e-12)

    def test_matrix_function_route_matches_parameter_side(self):
        # two brute-force oracles: s applied to the J-by-J empirical
        # covariance (1/n) sum phi phi' and then to the empirical moment, and
        # s applied to the n-by-n Gram side K/n and moved across the sampling
        # operator, coeffs = sigma * u' V s(e) V' y / n; n = 12 < J < n = 40
        problem = build_power_law_problem(25, 2.0, 0.9)
        truth = make_source_solution(problem, 1.0,
                                     np.arange(1, 26, dtype=float) ** -1.0)
        rng = np.random.default_rng(41)
        for n in (12, 40):
            design = rng.random(n)
            samples = clean_samples(problem, truth, design)
            u = basis_matrix(problem, design)
            phi = u * problem.sigma_sv  # rows are feature vectors
            eigs, vecs = np.linalg.eigh(phi.T @ phi / n)
            moment = phi.T @ samples.outputs / n
            kernel = (u * problem.mu) @ u.T
            kernel = 0.5 * (kernel + kernel.T)
            gram_eigs, gram_vecs = np.linalg.eigh(kernel / n)
            for filt in (FilterSpec("cutoff", 0.05),
                         FilterSpec("landweber", 1 / 25),
                         FilterSpec("tikhonov", 0.07)):
                oracle = vecs @ (filt.at_eigenvalues(eigs)
                                 * (vecs.T @ moment))
                beta = gram_vecs @ (filt.at_eigenvalues(gram_eigs)
                                    * (gram_vecs.T @ samples.outputs)) / n
                gram_oracle = problem.sigma_sv * (u.T @ beta)
                estimate = estimator_learn(problem, filt, samples)
                for reference in (oracle, gram_oracle):
                    npt.assert_allclose(estimate, reference,
                                        rtol=1e-9, atol=1e-12)

    def test_matches_paper_estimator_on_fine_midpoint_grid(self):
        # for n > J the sine basis is orthonormal on the midpoint grid, so
        # the empirical covariance is diag(mu) and learn-n equals paper-n
        problem = build_power_law_problem(50, 2.0, 1.0)
        truth = make_source_solution(problem, 1.0,
                                     np.arange(1, 51, dtype=float) ** -1.0)
        samples = sample_outputs(problem, truth, sample_design("grid", 5000),
                                 0.1, seed=3)
        # 0.003 lies strictly between mu_18 and mu_19, so the cutoff keeps
        # the same modes on both sides
        for filt in (FilterSpec("tikhonov", 0.003),
                     FilterSpec("cutoff", 0.003)):
            learn = estimator_learn(problem, filt, samples)
            paper = estimator_paper(problem, filt, samples)
            assert (np.linalg.norm(learn - paper)
                    <= 1e-12 * np.linalg.norm(paper)), filt.kind

    def test_landweber_rejects_large_empirical_spectrum(self):
        # repeated points make the Gram eigenvalue reach K(x, x) ~ 2 sum(mu)
        problem = build_power_law_problem(30, 2.0, 1.0)
        truth = make_source_solution(problem, 1.0,
                                     np.arange(1, 31, dtype=float) ** -1.0)
        design = np.full(4, 0.5)
        samples = clean_samples(problem, truth, design)
        with pytest.raises(ModelError):
            estimator_learn(problem, FilterSpec("landweber", 0.1), samples)


TIKHONOV_SOLVE_NS = (25, 199, 200, 201, 3200)


def covariance_and_moment(problem, samples):
    """C = Phi' Phi / n and m = Phi' y / n for the feature rows Phi."""
    phi = basis_matrix(problem, samples.design) * problem.sigma_sv
    n = samples.size
    return phi.T @ phi / n, phi.T @ samples.outputs / n


@pytest.fixture(scope="module")
def j200_samples():
    """Exact samples at J = 200 on both designs, keyed by (design, n)."""
    problem = build_power_law_problem(200, 2.0, 1.0)
    truth = make_source_solution(problem, 1.0,
                                 np.arange(1, 201, dtype=float) ** -1.0)
    samples = {(scheme, n): clean_samples(
        problem, truth, sample_design(scheme, n, seed=n))
        for scheme in ("grid", "iid-uniform") for n in TIKHONOV_SOLVE_NS}
    return problem, samples


class TestTikhonovSolve:
    """learn-n's Tikhonov fit is one linear solve of (C + lambda I) f = m."""

    @pytest.mark.parametrize("scheme", ["grid", "iid-uniform"])
    @pytest.mark.parametrize("n", TIKHONOV_SOLVE_NS)
    def test_tikhonov_solve_matches_eigendecomposition(self, j200_samples,
                                                       scheme, n):
        # f = V (e + lambda)^{-1} V' m, with (e, V) = eigh(C)
        problem, samples = j200_samples
        cov, moment = covariance_and_moment(problem, samples[scheme, n])
        eigs, vecs = np.linalg.eigh(cov)
        for lam in (1e-3, 0.3):
            oracle = vecs @ ((vecs.T @ moment) / (eigs + lam))
            estimate = estimator_learn(problem, FilterSpec("tikhonov", lam),
                                       samples[scheme, n])
            assert (np.linalg.norm(estimate - oracle)
                    <= 1e-12 * np.linalg.norm(oracle)), lam

    @pytest.mark.parametrize("scheme", ["grid", "iid-uniform"])
    @pytest.mark.parametrize("n", TIKHONOV_SOLVE_NS)
    def test_tikhonov_solve_residual_at_small_lambda(self, j200_samples,
                                                     scheme, n):
        # at lambda = 1e-6 the solve and the eigendecomposition part within
        # the conditioning of C + lambda I, so hold the normal equations
        problem, samples = j200_samples
        cov, moment = covariance_and_moment(problem, samples[scheme, n])
        lam = 1e-6
        estimate = estimator_learn(problem, FilterSpec("tikhonov", lam),
                                   samples[scheme, n])
        residual = cov @ estimate + lam * estimate - moment
        assert np.linalg.norm(residual) <= 1e-14 * np.linalg.norm(moment)

    def test_tikhonov_solve_leaves_samples_unchanged(self, j200_samples):
        problem, samples = j200_samples
        for key in (("grid", 200), ("iid-uniform", 201)):
            design = samples[key].design.copy()
            outputs = samples[key].outputs.copy()
            for filt in (FilterSpec("tikhonov", 1e-3),
                         FilterSpec("cutoff", 1e-3),
                         FilterSpec("landweber", 1e-2)):
                estimator_learn(problem, filt, samples[key])
            npt.assert_array_equal(samples[key].design, design)
            npt.assert_array_equal(samples[key].outputs, outputs)


# each filter at a lambda whose filter amplifies roundoff by at most 1e3
BLOCK_FILTERS = (("tikhonov", 1e-3), ("cutoff", 1e-3), ("landweber", 1e-2))


@pytest.mark.parametrize("scheme", ["grid", "iid-uniform"])
def test_blocked_estimators_match_the_basis(small_blocks, scheme):
    # moments and covariances summed over blocks of 3 points, against sums
    # over the whole basis.  Measured: estimator_paper within 5.5e-16 of
    # the largest coefficient, estimator_learn within 1.4e-15 (Tikhonov),
    # 8.5e-15 (cutoff) and 2.2e-15 (Landweber), at seeds 0-4
    problem, truth = small_blocks
    samples = sample_outputs(problem, truth,
                             sample_design(scheme, 50, seed=5), 0.1, seed=5)
    u = basis_matrix(problem, samples.design)
    phi = u * problem.sigma_sv
    cov, moment = phi.T @ phi / 50, phi.T @ samples.outputs / 50
    eigs, vecs = np.linalg.eigh(cov)
    cases = [(estimator_paper(problem, FilterSpec("tikhonov", 1e-3), samples),
              FilterSpec("tikhonov", 1e-3).response(problem)
              * (u.T @ samples.outputs / 50))]
    for kind, lam in BLOCK_FILTERS:
        filt = FilterSpec(kind, lam)
        expected = (np.linalg.solve(cov + lam * np.eye(40), moment)
                    if kind == "tikhonov" else
                    vecs @ (filt.at_eigenvalues(eigs) * (vecs.T @ moment)))
        cases.append((estimator_learn(problem, filt, samples), expected))
    for estimate, expected in cases:
        npt.assert_allclose(estimate, expected, rtol=0,
                            atol=1e-13 * np.max(np.abs(expected)))


@pytest.mark.parametrize("path", ["estimator_learn", "sample_outputs"])
def test_blocked_peak_memory_is_one_block(path):
    # n J = 8 _BLOCK_CELLS and 7 points more: 9 blocks, the last ragged.
    # Beyond one block (2 MB) the peak holds the J-by-J covariance with the
    # product that is added to it (320 kB each), or the n-vectors of the
    # outputs and their noise, and the per-block temporaries of the
    # basis: measured 2.74 MB for estimator_learn and 2.35 MB for
    # sample_outputs.  A second block (4.75 MB when a block outlives the
    # next) or the full basis (16.8 MB) fails the bound.
    problem = build_power_law_problem(200, 2.0, 1.0)
    truth = make_source_solution(problem, 1.0,
                                 np.arange(1, 201, dtype=float) ** -1.0)
    cells = spectral_model._BLOCK_CELLS
    n = 8 * cells // 200 + 7
    design = sample_design("iid-uniform", n, seed=3)
    samples = sample_outputs(problem, truth, design, 0.1, seed=3)
    run = {"estimator_learn": lambda: estimator_learn(
               problem, FilterSpec("tikhonov", 1e-3), samples),
           "sample_outputs": lambda: sample_outputs(
               problem, truth, design, 0.1, seed=3)}[path]
    run()
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * (cells + 2 * 200 ** 2 + 4 * n)


GRID_LEARN_NS = (1, 2, 3, 7, 25, 60, 200, 401, 3200)


@pytest.mark.parametrize("size", [40, 200])
@pytest.mark.parametrize("kind, lam", BLOCK_FILTERS)
def test_grid_learn_matches_estimator_learn(kind, lam, size):
    # the closed form per alias class against the J-space solve or
    # eigendecomposition on the grid's exact outputs, below, at and above
    # n = J; both refuse the same grids, with the same message
    problem = build_power_law_problem(size, 2.0, 1.0)
    truth = make_source_solution(problem, 1.0,
                                 np.arange(1, size + 1, dtype=float) ** -1.0)
    y = forward_data(problem, truth)
    filt = FilterSpec(kind, lam)
    refused = []
    for n in GRID_LEARN_NS:
        samples = clean_samples(problem, truth, sample_design("grid", n))
        try:
            reference = estimator_learn(problem, filt, samples)
        except ModelError as exc:
            with pytest.raises(ModelError, match=re.escape(str(exc))):
                _grid_learn(problem, filt, y, n)
            refused.append(n)
            continue
        fit = _grid_learn(problem, filt, y, n)
        assert (np.linalg.norm(fit - reference)
                <= 1e-12 * np.linalg.norm(reference)), n
    # where 2n - 1 <= J alias class 1 holds modes 1 and 2n - 1, so its
    # eigenvalue exceeds Landweber's spectrum bound mu_1 = 1
    expected = [n for n in GRID_LEARN_NS if 2 * n - 1 <= size]
    assert refused == (expected if kind == "landweber" else []), refused


class TestKernelTikhonov:
    def test_two_point_worked_example(self, two_mode):
        problem, truth = two_mode
        samples = clean_samples(problem, truth, sample_design("grid", 2))
        beta, _ = kernel_tikhonov(problem, samples, 0.5)  # lambda n = 1
        npt.assert_allclose(beta, [0.510110, 0.156557], atol=5e-7)

    def test_zero_data(self, two_mode):
        problem, _ = two_mode
        samples = SampleSet(design=np.array([0.2, 0.8]), outputs=np.zeros(2))
        beta, g_coeffs = kernel_tikhonov(problem, samples, 0.5)
        npt.assert_allclose(beta, np.zeros(2), atol=1e-15)
        npt.assert_allclose(g_coeffs, np.zeros(2), atol=1e-15)

    def test_scalar_case(self):
        # (K + lambda n) beta = y with K = 2, lambda n = 1, y = sqrt2
        problem = build_power_law_problem(1, 2.0, 1.0)
        truth = make_source_solution(problem, 1.0, [1.0])
        samples = clean_samples(problem, truth, sample_design("grid", 1))
        beta, _ = kernel_tikhonov(problem, samples, 1.0)
        npt.assert_allclose(beta, [math.sqrt(2.0) / 3.0], rtol=1e-14)

    def test_pullback_matches_estimator_learn(self):
        result = verify.check_methods_equivalence(43)
        assert result.passed, result.detail

    def test_rejects_nonpositive_lambda(self, two_mode):
        problem, truth = two_mode
        samples = clean_samples(problem, truth, sample_design("grid", 2))
        for lam in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(ParameterError, match="lambda"):
                kernel_tikhonov(problem, samples, lam)

    def test_interpolation_limit(self):
        result = verify.check_representer_limit(47)
        assert result.passed, result.detail

    def test_small_lambda_cauchy(self):
        result = verify.check_representer_limit(53)
        assert result.passed, result.detail


def representer_residual(problem, samples, lam):
    return equivalence_deviations(problem, samples, lam)["representer_oracle"]


class TestRepresenterResidual:
    """The closed-form Tikhonov solve zeroes the first-order residual of the
    penalized empirical risk, to roundoff."""

    def test_residual_vanishes_on_jittered_design(self):
        problem = build_power_law_problem(30, 2.0, 1.0)
        truth = make_source_solution(problem, 1.0,
                                     np.arange(1, 31, dtype=float) ** -1.0)
        rng = np.random.default_rng(59)
        n = 8
        design = (np.arange(1, n + 1) - 0.5) / n + rng.uniform(-0.2, 0.2, n) / n
        samples = sample_outputs(problem, truth, design, 0.2, seed=59)
        assert representer_residual(problem, samples, 0.15) <= 1e-10

    def test_residual_vanishes_on_grid(self):
        problem = build_power_law_problem(200, 2.0, 1.0)
        truth = make_source_solution(problem, 1.0,
                                     np.arange(1, 201, dtype=float) ** -1.0)
        samples = clean_samples(problem, truth, sample_design("grid", 400))
        assert representer_residual(problem, samples, 1e-3) <= 1e-10


class TestErmRepresenterSolve:
    """The square-loss ERM's representer solution is the closed-form kernel
    Tikhonov solve, read through its first-order residual."""

    def test_rejects_negative_lambda(self):
        problem = build_power_law_problem(5, 2.0, 1.0)
        samples = SampleSet(design=np.array([0.3]), outputs=np.array([1.0]))
        with pytest.raises(ParameterError):
            representer_residual(problem, samples, -0.1)
