"""Norms, the exact paper-n variance and risk, the worst cases over the
source ball, the n <-> delta bridge, conversion theorems and slope
fitting.

A test named after an invariant of ``verify.ALL_CHECKS`` only runs that
check, at a second seed where the check draws random inputs; the check
holds the invariant's set-up and tolerance.
"""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from rkhs_invlab import (DomainError, FilterSpec, NumericalError,
                         ParameterError, PerturbationSpec, RateExponents,
                         ShapeError, StudyConfig, ValidationError,
                         build_power_law_problem, classical_exponents,
                         convert_lower, convert_upper, delta_of,
                         derived_gamma, estimator_paper, experiments,
                         fit_rate, forward_data, hs_norm, loss_factor_tau,
                         make_source_solution, n_of, operator_norm,
                         paper_risk, paper_variance, perturb_data,
                         problem_from_descriptor, sample_design,
                         sample_outputs, solve_continuous,
                         statistical_exponents, verify, worst_case_bias,
                         worst_case_error, worst_case_risk)
from rkhs_invlab.cli import main


def house_problem(size=60, b=2.0, d=1.0, r=1.0):
    problem = build_power_law_problem(size, b, d)
    j = np.arange(1, size + 1, dtype=float)
    return problem, make_source_solution(problem, r, j ** -1.0)


class TestHsNorm:
    def test_single_mode(self):
        problem = build_power_law_problem(1, 2.0, 1.0)
        assert hs_norm(problem, FilterSpec("tikhonov", 1.0)) == pytest.approx(
            0.5)

    def test_two_modes(self):
        # s = (0.5, 0.8): 0.25*1 + 0.64*0.25 = 0.41
        problem = build_power_law_problem(2, 2.0, 1.0)
        assert hs_norm(problem, FilterSpec("tikhonov", 1.0)) == pytest.approx(
            math.sqrt(0.41), rel=1e-14)

    def test_cutoff_above_spectrum(self):
        problem = build_power_law_problem(3, 2.0, 1.0)
        assert hs_norm(problem, FilterSpec("cutoff", 2.0)) == 0.0

    def test_operator_norm(self):
        problem = build_power_law_problem(2, 2.0, 1.0)
        # responses s*sigma = (0.5, 0.4)
        assert operator_norm(problem, FilterSpec("tikhonov", 1.0)) == \
            pytest.approx(0.5)
        assert operator_norm(problem, filt := FilterSpec("tikhonov", 1.0)) <= \
            hs_norm(problem, filt)


class TestPaperVariance:
    @pytest.mark.parametrize("size", [1, 2, 37, 200])
    def test_iid_matches_midpoint_quadrature(self, size):
        # u_j^2 g^2 is a cosine series of frequencies below 4J, which the
        # midpoint rule on more than 2J points integrates exactly
        problem, truth = house_problem(size)
        filt = FilterSpec("tikhonov", 0.05)
        sigma, n = 0.1, 800
        points = 4 * size + 7
        x = (np.arange(1, points + 1) - 0.5) / points
        modes = np.arange(1, size + 1)
        u = math.sqrt(2.0) * np.sin(np.pi * np.outer(x, modes))
        y = forward_data(problem, truth)
        moment = np.mean(u ** 2 * ((u @ y) ** 2)[:, None], axis=0)
        expected = (filt.response(problem) ** 2 / n
                    * (moment + sigma ** 2 - y ** 2))
        npt.assert_allclose(paper_variance(problem, filt, truth, sigma, n,
                                           "iid-uniform"),
                            expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("sigma, n, design", [
        (math.nan, 10, "grid"), (math.inf, 10, "grid"), (-0.1, 10, "grid"),
        ("0.1", 10, "grid"), (0.1, 0, "grid"), (0.1, 2.5, "iid-uniform"),
        (0.1, 10.0, "grid"), (0.1, True, "grid"), (0.1, 10, "sobol")])
    def test_refusals(self, sigma, n, design):
        problem, truth = house_problem(4)
        for function in (paper_variance, paper_risk):
            with pytest.raises(ParameterError):
                function(problem, FilterSpec("tikhonov", 0.1), truth, sigma,
                         n, design)


def dense_quadratic_risk(problem, filt, r, w, sigma, n):
    """The iid paper-n risk at f = mu^r w as w'Qw + sigma^2/n sum c, with
    c_j = s(mu_j)^2 mu_j, D = diag(mu^(r + 1/2)) and the dense
    Q = diag((1 - s mu)^2 mu^(2r)) + D (diag(sum c - c) + H) D / n, where
    H_kl = -c_{|k-l|/2} / 2 for even k - l != 0, plus c_{(k+l)/2} / 2 for
    even k + l: E[u_j^2 u_k u_l] summed against c, by product to sum."""
    mu, s = problem.mu, filt.on_spectrum(problem)
    c = s ** 2 * mu
    k = np.arange(1, problem.size + 1)
    diff, total = k[:, None] - k[None, :], k[:, None] + k[None, :]
    hankel = np.zeros((problem.size, problem.size))
    lag = (diff % 2 == 0) & (diff != 0)
    hankel[lag] -= 0.5 * c[np.abs(diff[lag]) // 2 - 1]
    pair = total % 2 == 0
    hankel[pair] += 0.5 * c[total[pair] // 2 - 1]
    d = mu ** (r + 0.5)
    q = (np.diag((1.0 - s * mu) ** 2 * mu ** (2.0 * r))
         + d[:, None] * (np.diag(c.sum() - c) + hankel) * d[None, :] / n)
    return float(w @ q @ w + sigma ** 2 / n * c.sum())


# Replicates of the paper-n estimate drawn through the study path at J = 40.
# w_j = 1/j weighs the variance; w_j = j^3 makes y_j = 1 on every mode, so
# below n = J the grid's aliased mean r (M y) is far from f_lam.
RISK_J, RISK_DRAWS = 40, 4000
RISK_TRUTHS = {"w=1/j": [1.0 / j for j in range(1, RISK_J + 1)],
               "w=j^3": [float(j) ** 3 for j in range(1, RISK_J + 1)]}
RISK_CASES = [(design, n) for design in ("grid", "iid-uniform")
              for n in (25, 81)]


class TestPaperRisk:
    @pytest.mark.parametrize("truth_name", sorted(RISK_TRUTHS))
    @pytest.mark.parametrize("design, n", RISK_CASES)
    def test_paper_risk_matches_monte_carlo(self, design, n, truth_name):
        raw = {"kind": "lemma-check", "design": design, "sigma": 0.1,
               "problem": {"J": RISK_J, "b": 2.0, "d": 1.0, "r": 1.0,
                           "w_spec": RISK_TRUTHS[truth_name]},
               "n": n, "lambda": 0.05, "replicates": RISK_DRAWS, "seed": 314}
        problem, truth = problem_from_descriptor(dict(raw["problem"],
                                                      seed=314))
        filt = FilterSpec("tikhonov", 0.05)
        rows = experiments._replicate_coeffs(
            StudyConfig.from_dict(raw), problem, truth, filt, n,
            range(RISK_DRAWS))
        errors = np.sum((rows - truth) ** 2, axis=1)
        z = ((errors.mean() - paper_risk(problem, filt, truth, 0.1, n, design))
             / (errors.std(ddof=1) / math.sqrt(RISK_DRAWS)))
        # family level 1% over the cases (|z| <= 1.54 measured)
        assert abs(z) <= experiments._sidak_z(
            len(RISK_CASES) * len(RISK_TRUTHS), 0.01)

    @pytest.mark.parametrize("n", [100, 800, 3200])
    def test_paper_risk_matches_dense_quadratic_form(self, n):
        # two computations that share no code: the correlation sums of
        # paper_variance against a dense J-by-J Q (gaps up to 5.8e-16)
        problem, truth = house_problem(200)
        filt = FilterSpec("tikhonov", n ** (-1.0 / 3.5))
        w = 1.0 / np.arange(1, 201)
        assert paper_risk(problem, filt, truth, 0.1, n, "iid-uniform") == \
            pytest.approx(dense_quadratic_risk(problem, filt, 1.0, w, 0.1, n),
                          rel=1e-14)

    @pytest.mark.parametrize("kind", ["tikhonov", "cutoff", "landweber"])
    @pytest.mark.parametrize("n", [10, 100, 800])
    def test_paper_risk_bounds_the_lemma(self, kind, n):
        # the lemma's sigma^2/n ||L||_HS^2 + bias^2: below the iid risk by
        # E[g^2 u_j^2] - y_j^2 >= 0 per mode (Cauchy-Schwarz), and the grid
        # risk itself for n > J = 60
        problem, truth = house_problem(60)
        filt = FilterSpec(kind, 0.05)
        f_lam = solve_continuous(problem, filt, forward_data(problem, truth))
        lower = (0.01 / n * hs_norm(problem, filt) ** 2
                 + float(np.sum((f_lam - truth) ** 2)))
        assert paper_risk(problem, filt, truth, 0.1, n, "iid-uniform") > lower
        if n > problem.size:
            assert paper_risk(problem, filt, truth, 0.1, n, "grid") == \
                pytest.approx(lower, rel=1e-14)

    @pytest.mark.parametrize("kind", ["tikhonov", "cutoff", "landweber"])
    @pytest.mark.parametrize("n", [100, 800, 3200])
    def test_dominance_identity_is_the_grid_paper_risk(self, kind, n):
        # delta_of's docstring: at the worst-case truth mu^r e_j*, (bias +
        # Delta(n) ||L||_HS)^2 is the grid risk for n > J, so the error of
        # any perturbation of norm Delta(n), at most (bias + Delta(n)
        # ||L||_op)^2, is below it
        problem = build_power_law_problem(60, 2.0, 1.0)
        filt = FilterSpec(kind, 0.05)
        hs = hs_norm(problem, filt)
        bias, mode = worst_case_bias(problem, filt, 0.5)
        eps = bias / hs
        truth = unit_source(problem, 0.5, mode)
        risk = paper_risk(problem, filt, truth, 0.1, n, "grid")
        assert (eps * hs + delta_of(n, 0.1, eps) * hs) ** 2 == \
            pytest.approx(risk, rel=1e-14)
        assert operator_norm(problem, filt) < hs


FAMILIES = ["tikhonov", "cutoff", "landweber"]


def unit_source(problem, r, j):
    """The source mu^r e_j, at the mode j from 1."""
    w = np.zeros(problem.size)
    w[j - 1] = 1.0
    return make_source_solution(problem, r, w)


class TestWorstCase:
    """Each closed form against an oracle of its own, at J = 50."""

    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("r", [0.5, 1.5])
    def test_bias_is_the_largest_unit_source_bias(self, kind, r):
        # at lambda = 0.05 and r = 1/2 modes 4 and 5 tie under Tikhonov
        problem = build_power_law_problem(50, 2.0, 1.0)
        filt = FilterSpec(kind, 0.03)
        biases = [float(np.linalg.norm(
            solve_continuous(problem, filt, forward_data(problem, f)) - f))
            for f in (unit_source(problem, r, j) for j in range(1, 51))]
        bias, mode = worst_case_bias(problem, filt, r)
        assert bias == pytest.approx(max(biases), rel=1e-14)
        assert mode == int(np.argmax(biases)) + 1

    @pytest.mark.parametrize("kind", FAMILIES)
    @pytest.mark.parametrize("n", [51, 64, 800])
    def test_risk_is_the_grid_paper_risk_at_the_worst_mode(self, kind, n):
        # for n > J the grid Gram matrix is I and the variance does not
        # depend on the truth
        problem = build_power_law_problem(50, 2.0, 1.0)
        filt = FilterSpec(kind, 0.05)
        _, mode = worst_case_bias(problem, filt, 0.5)
        truth = unit_source(problem, 0.5, mode)
        assert worst_case_risk(problem, filt, 0.5, 0.1, n) == pytest.approx(
            paper_risk(problem, filt, truth, 0.1, n, "grid"), rel=1e-14)

    @pytest.mark.parametrize("n", [1, 49, 50])
    def test_risk_refuses_n_up_to_J(self, n):
        problem = build_power_law_problem(50, 2.0, 1.0)
        with pytest.raises(DomainError):
            worst_case_risk(problem, FilterSpec("tikhonov", 0.05), 0.5, 0.1,
                            n)

    @pytest.mark.parametrize("sigma, n", [
        (math.nan, 51), (-0.1, 51), (math.inf, 51), ("0.1", 51),
        (0.1, 51.5), (0.1, math.inf), (0.1, math.nan), (0.1, True)],
        ids=["sigma-nan", "sigma-negative", "sigma-inf", "sigma-str",
             "n-fraction", "n-inf", "n-nan", "n-bool"])
    def test_risk_refuses_invalid_sigma_and_n(self, sigma, n):
        # sigma = NaN returned NaN, and n = 51.5 and n = inf a number
        problem = build_power_law_problem(50, 2.0, 1.0)
        with pytest.raises(ParameterError, match="sigma must|n must"):
            worst_case_risk(problem, FilterSpec("tikhonov", 0.05), 0.5,
                            sigma, n)

    @pytest.mark.parametrize("delta", [-1.0, math.nan, math.inf, "0.1"])
    def test_error_refuses_invalid_delta(self, delta):
        # delta = -1 returned 4.46 and delta = NaN returned NaN
        problem = build_power_law_problem(50, 2.0, 1.0)
        with pytest.raises(ParameterError, match="delta must"):
            worst_case_error(problem, FilterSpec("tikhonov", 0.05), 0.5,
                             delta)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_delta_term_is_the_filter_adversarial_error(self, kind):
        problem = build_power_law_problem(50, 2.0, 1.0)
        filt = FilterSpec(kind, 0.05)
        spec = PerturbationSpec(delta=0.37, mode="filter-adversarial",
                                filter=filt)
        adversarial = perturb_data(problem, np.zeros(50), spec)
        bias, _ = worst_case_bias(problem, filt, 0.5)
        term = math.sqrt(worst_case_error(problem, filt, 0.5, 0.37)) - bias
        assert term == pytest.approx(float(np.linalg.norm(
            solve_continuous(problem, filt, adversarial))), rel=1e-14)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_error_bounds_every_unit_source_and_perturbation(self, kind):
        problem = build_power_law_problem(50, 2.0, 1.0)
        filt = FilterSpec(kind, 0.05)
        delta = 0.37
        # attained where the worst bias and ||L||_op share a mode, so the
        # bound gets roundoff's slack
        bound = worst_case_error(problem, filt, 0.5, delta) * (1 + 1e-14)
        for j in range(1, 51):
            for sign in (1.0, -1.0):
                truth = sign * unit_source(problem, 0.5, j)
                y = forward_data(problem, truth)
                for spec in (
                        PerturbationSpec(delta=delta, mode="random-unit"),
                        PerturbationSpec(delta=delta, mode="fixed-mode",
                                         index=j),
                        PerturbationSpec(delta=delta,
                                         mode="filter-adversarial",
                                         filter=filt)):
                    y_delta = perturb_data(problem, y, spec, seed=j)
                    error = solve_continuous(problem, filt, y_delta) - truth
                    assert float(np.sum(error ** 2)) <= bound

    def test_derived_gamma_saturates_at_the_qualification(self):
        assert derived_gamma(0.5, 2.0, 1.0) == 1.25
        assert derived_gamma(1.5, 2.0, 1.0) == 1.75
        assert derived_gamma(1.5, 2.0, math.inf) == 2.25

    @pytest.mark.parametrize("r, b", [(math.nan, 2.0), (-1.0, 2.0),
                                      (0.5, 0.5)])
    def test_derived_gamma_refuses_what_the_model_refuses(self, r, b):
        # NaN gave gamma = NaN and b = 1/2 a gamma of no model
        with pytest.raises(ParameterError, match="^r must" if b > 1
                           else "^b must"):
            derived_gamma(r, b, 1.0)

    def test_conversion_check(self):
        result = verify.check_worst_case_conversion(0)
        assert result.passed, result.detail

    @pytest.mark.parametrize("r, b", [(0.25, 2.0), (0.5, 3.0)])
    def test_conversion_fits_hold_beyond_the_verify_point(self, r, b):
        # the derived gamma away from verify's r = 1/2, b = 2: gamma 1.0 and
        # 1.1667, delta-slope 0.5 and 0.8571 on the fast branch
        fits = verify._conversion_fits(r, b)
        worst = max(abs(fit - theory) for fit, theory in fits.values())
        assert worst <= verify._CONVERSION_TOL, fits


class TestBridge:
    def test_delta_examples(self):
        assert delta_of(1, 1.0, 0.0) == pytest.approx(1.0)
        assert delta_of(4, 1.0, 0.0) == pytest.approx(0.5)
        assert delta_of(1, 1.0, 1.0) == pytest.approx(
            math.sqrt(2.0) - 1.0, rel=1e-14)
        # Delta(1) = sigma at eps = 0 for every float sigma: the bridge
        # raised NumericalError where sigma^2 under- or overflows
        assert delta_of(1, 1e-200, 0.0) == 1e-200
        assert delta_of(1, 1e200, 0.0) == 1e200
        # Delta(1) ~ sigma^2 / (2 eps) where t = eps / sigma is large: the
        # bridge raised NumericalError where t^2 overflows
        assert delta_of(1, 1.0, 1e160) == pytest.approx(5e-161, rel=1e-15)

    def test_n_examples(self):
        value, floor = n_of(1.0, 1.0, 0.0)
        assert value == pytest.approx(1.0) and floor == 1
        value, floor = n_of(0.1, 1.0, 1.0)
        assert value == pytest.approx(1.0 / 0.21, rel=1e-12) and floor == 4

    def test_domain_errors(self):
        # n must be a finite number >= 1 and delta a finite number > 0;
        # NaN, inf and True are neither: Delta(inf) divided by zero at
        # eps = 0, and True was read as n = 1
        for bad in (0, math.nan, math.inf, True):
            with pytest.raises(DomainError):
                delta_of(bad, 1.0, 0.5)
            with pytest.raises(DomainError):
                n_of(bad, 1.0, 0.5)
        # values beyond the float range: N(1e-300) at sigma = 0.1 and
        # N(1e-10) at sigma = 1e200 overflow, as (delta / sigma)^2
        # underflows to 0, and Delta(1e300) = 1e-450 at sigma = 1e-300 and
        # Delta(1e300) ~ 5e-331 at sigma = 1e-10, eps = 1e10 underflow: a
        # numerical failure, not a ZeroDivisionError or a 0.  At eps = 1e308
        # the denominator t + hypot(1, t) of Delta(1) overflows
        for call in (lambda: n_of(1e-300, 0.1, 0.0),
                     lambda: n_of(1e-10, 1e200, 0.0),
                     lambda: delta_of(1e300, 1e-300, 0.0),
                     lambda: delta_of(1e300, 1e-10, 1e10),
                     lambda: delta_of(1, 1.0, 1e308)):
            with pytest.raises(NumericalError):
                call()

    @pytest.mark.parametrize("sigma, epsilon", [
        (0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5), (math.inf, 0.5),
        (1.0, -0.5), (1.0, math.nan), (1.0, math.inf)])
    def test_parameter_errors(self, sigma, epsilon):
        # sigma must be a finite number > 0 and eps a finite number >= 0:
        # an infinite sigma gave Delta(1) = NaN and N(delta) an overflow
        with pytest.raises(ParameterError):
            delta_of(4, sigma, epsilon)
        with pytest.raises(ParameterError):
            n_of(0.5, sigma, epsilon)

    def test_conjugate_identity_randomized(self):
        result = verify.check_rate_identities(71)
        assert result.passed, result.detail

    def test_exact_inversion_over_integer_range(self):
        result = verify.check_rate_identities(0)
        assert result.passed, result.detail


class TestConversionTheorems:
    def test_upper_fast_branch(self):
        got = convert_upper(RateExponents(alpha=1.0, p=1.0, gamma=1.0))
        assert got == (2.0, 2.0, "fast")

    def test_upper_slow_branch_tikhonov_numbers(self):
        got = convert_upper(RateExponents(alpha=2 / 3.5, p=1 / 3.5, gamma=1.5))
        assert got.exponent == 1.0
        assert got.lambda_exponent == 0.5
        assert got.case == "slow"

    def test_upper_boundary_is_fast(self):
        got = convert_upper(RateExponents(alpha=1.0, p=0.5, gamma=1.0))
        assert got.case == "fast" and got.exponent == 2.0
        stat = statistical_exponents(1.0, 2.0, "tikhonov")
        assert stat.gamma == 1.75 and stat.p * stat.gamma == 0.5
        assert convert_upper(stat) == (2.0 * stat.alpha, 2.0 * stat.p, "fast")

    def test_lower_fast_branch_tikhonov_numbers(self):
        got = convert_lower(RateExponents(alpha=4 / 3, p_star=2 / 3, gamma=1.5))
        assert got.exponent == pytest.approx(2 / 3, rel=1e-15)
        assert got.lambda_exponent == pytest.approx(1 / 3, rel=1e-15)
        assert got.case == "fast"

    def test_lower_slow_branch(self):
        got = convert_lower(RateExponents(alpha=1.0, p_star=1.0, gamma=0.5))
        assert got.exponent == pytest.approx(2 / 3, rel=1e-15)
        assert got.lambda_exponent == pytest.approx(2 / 3, rel=1e-15)
        assert got.case == "slow"

    def test_lower_halving(self):
        got = convert_lower(RateExponents(alpha=2.0, p_star=2.0, gamma=1.0))
        assert got.exponent == 1.0 and got.case == "fast"

    def test_upper_tie_reached_by_rounding_is_fast(self):
        # p = 1/1.9 and the derived gamma = 0.95: p*gamma is 1/2 up to one
        # ulp
        stat = statistical_exponents(0.25, 2.5, "tikhonov")
        assert stat.gamma == 0.95
        assert stat.p * stat.gamma < 0.5
        got = convert_upper(stat)
        assert got == (2.0 * stat.alpha, 2.0 * stat.p, "fast")
        slow = stat.alpha / (1.0 - stat.p * stat.gamma)
        assert got.exponent == pytest.approx(slow, rel=1e-15)

    def test_lower_tie_reached_by_rounding_is_fast(self):
        # a bundle built here at the nominal gamma = r + 1/2, which no
        # library function gives: it puts p_star*gamma on the boundary 1,
        # and at r = 0.45 the product rounds to 1 - 2^-53
        r = 0.45
        classical = RateExponents(alpha=4 * r / (2 * r + 1),
                                  p_star=2 / (2 * r + 1), gamma=r + 0.5)
        assert classical.p_star * classical.gamma < 1.0
        got = convert_lower(classical)
        assert got == (classical.alpha / 2.0, classical.p_star / 2.0, "fast")
        slow = classical.alpha / (1.0 + classical.p_star * classical.gamma)
        assert got.exponent == pytest.approx(slow, rel=1e-15)

    def test_shortfall_beyond_roundoff_stays_slow(self):
        assert convert_upper(RateExponents(alpha=1.0, p=0.5,
                                           gamma=1.0 - 1e-12)).case == "slow"
        assert convert_lower(RateExponents(alpha=1.0, p_star=1.0,
                                           gamma=1.0 - 1e-12)).case == "slow"

    @pytest.mark.parametrize("name", ["alpha", "gamma", "p", "p_star"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf, "1"])
    def test_exponents_are_finite_numbers_above_zero(self, name, value):
        exponents = dict(alpha=1.0, gamma=1.0, p=0.5, p_star=1.0)
        with pytest.raises(ParameterError, match=name):
            RateExponents(**dict(exponents, **{name: value}))

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            RateExponents(alpha=-1.0, gamma=1.0)
        with pytest.raises(ParameterError):
            convert_upper(RateExponents(alpha=1.0, gamma=1.0))
        with pytest.raises(ParameterError):
            convert_lower(RateExponents(alpha=1.0, gamma=1.0, p=0.5))


class TestLossFactor:
    def test_worked_values(self):
        assert loss_factor_tau(1.0, 2.0, "general") == pytest.approx(7 / 6,
                                                                     rel=1e-15)
        assert loss_factor_tau(1.0, 2.0, "tikhonov") == pytest.approx(4 / 3,
                                                                      rel=1e-15)

    def test_bounds_and_asymptote(self):
        result = verify.check_loss_factors(0)
        assert result.passed, result.detail

    @pytest.mark.parametrize("rate", [loss_factor_tau, statistical_exponents,
                                      classical_exponents])
    @pytest.mark.parametrize("r, b", [
        (math.nan, 2.0), (math.inf, 2.0), (0.0, 2.0), (1.0, math.nan),
        (1.0, math.inf), (1.0, 1.0), ("1", 2.0), (1.0, True)])
    def test_r_and_b_follow_the_model_rules(self, rate, r, b):
        # the rules of spectral_model.descriptor_faults: b = inf gave
        # tau = 1, r = NaN gave NaN exponents; "tikhonov" is a variant of
        # the loss factor and a family of the exponents
        with pytest.raises(ParameterError, match="r must|b must"):
            rate(r, b, "tikhonov")

    def test_errors(self):
        with pytest.raises(ParameterError):
            loss_factor_tau(0.0, 2.0)
        with pytest.raises(ParameterError):
            loss_factor_tau(1.0, 1.0)
        with pytest.raises(ParameterError):
            loss_factor_tau(1.0, 2.0, "spectral")


class TestFitRate:
    def test_exact_power_law(self):
        points = [(x, 4.0 * x ** -2.0) for x in (1.0, 2.0, 4.0, 8.0)]
        fit = fit_rate(points)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(4.0), abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)

    def test_linear(self):
        fit = fit_rate([(x, 0.37 * x) for x in (1.0, 3.0, 9.0)])
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_repeated_x_rejected(self):
        with pytest.raises(ShapeError):
            fit_rate([(2.0, 1.0), (2.0, 3.0)])

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("coord", ["x", "y"])
    def test_nonpositive_or_nonfinite_rejected(self, bad, coord):
        # a NaN passes x <= 0, and an infinite y gave a NaN slope
        points = [(1.0, 1.0), (2.0, 4.0), (4.0, 16.0)]
        points[1] = (bad, 4.0) if coord == "x" else (2.0, bad)
        with pytest.raises(DomainError):
            fit_rate(points)

    def test_two_points_zero_stderr(self):
        fit = fit_rate([(1.0, 1.0), (2.0, 4.0)])
        assert fit.stderr == 0.0

    def test_noisy_fit_has_stderr(self):
        rng = np.random.default_rng(73)
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        ys = xs ** -1.5 * np.exp(rng.normal(0.0, 0.1, xs.size))
        fit = fit_rate(list(zip(xs, ys)))
        assert fit.stderr > 0.0
        assert abs(fit.slope + 1.5) < 0.5


# The a-priori schedules of StudyConfig._scheduled_filters: c n^-a along a
# stat-rate config's n_grid ("by-n") and c delta^a along a det-rate
# config's delta_grid ("by-delta").
SCHEDULE_PROBLEM = {"J": 4, "b": 2.0, "d": 1.0, "r": 1.0,
                    "w_spec": [1.0, 0.5, 0.25, 0.125]}
SCHEDULE_RAW = {
    "by-n": {"kind": "stat-rate", "problem": SCHEDULE_PROBLEM, "sigma": 0.1,
             "replicates": 2},
    "by-delta": {"kind": "det-rate", "problem": SCHEDULE_PROBLEM}}
SCHEDULE_GRID = {"by-n": "n_grid", "by-delta": "delta_grid"}


def scheduled_lambdas(kind, c, exponent, grid):
    """The lambda of each grid point of the ``kind`` config with schedule
    (c, exponent) along ``grid``."""
    config = StudyConfig.from_dict(dict(
        SCHEDULE_RAW[kind], schedule={"c": c, "exponent": exponent},
        **{SCHEDULE_GRID[kind]: grid}))
    return [filt.lam for filt in config._scheduled_filters()]


class TestLambdaSchedule:
    def test_by_n(self):
        lams = scheduled_lambdas("by-n", 1.0, 2 / 7, [1, 128])
        assert lams[1] == pytest.approx(0.25, rel=1e-12)
        assert lams[1] == 1.0 * 128.0 ** (-2 / 7)
        assert scheduled_lambdas("by-n", 0.7, 0.5, [1, 4]) == pytest.approx(
            [0.7, 0.35])

    def test_by_delta(self):
        lams = scheduled_lambdas("by-delta", 1.0, 0.5, [0.04, 0.09])
        assert lams == pytest.approx([0.2, 0.3])
        assert lams[0] == 1.0 * 0.04 ** 0.5

    def test_errors(self):
        with pytest.raises(ValidationError) as info:
            scheduled_lambdas("by-n", -1.0, 0.5, [2, 4])
        assert info.value.fields == ("schedule",)

    @pytest.mark.parametrize("kind", ["by-n", "by-delta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_constant_exponent_and_argument_are_finite(self, kind, bad,
                                                       slot):
        # NaN would pass a `<= 0` test and give a NaN lambda; the config
        # names the schedule for c (slot 0) and the exponent (slot 1), and
        # the grid for one of its entries (slot 2)
        args = [0.5, 0.5, [4, 8]]
        if slot < 2:
            args[slot] = bad
        else:
            args[2] = [bad, 8]
        with pytest.raises(ValidationError) as info:
            scheduled_lambdas(kind, *args)
        assert info.value.fields == (
            "schedule" if slot < 2 else SCHEDULE_GRID[kind],)


class TestStatisticalExponents:
    def test_reference_values(self):
        exps = statistical_exponents(1.0, 2.0, "tikhonov")
        assert exps.alpha == pytest.approx(2 / 3.5, rel=1e-15)
        assert exps.p == pytest.approx(1 / 3.5, rel=1e-15)
        assert exps.p_star == pytest.approx(2 / 3, rel=1e-15)
        assert exps.gamma == 1.75

    def test_classical_rate_shares_p_star_and_gamma(self):
        # past Tikhonov's qualification q = 1 its gamma saturates at
        # q + 1/2 + 1/(2b); the other families' does not
        for kind, gamma in (("tikhonov", 1.75), ("cutoff", 2.25),
                            ("landweber", 2.25)):
            stat = statistical_exponents(1.5, 2.0, kind)
            classical = classical_exponents(1.5, 2.0, kind)
            assert classical.alpha == pytest.approx(1.5, rel=1e-15)
            assert (classical.p_star, classical.gamma) == (stat.p_star,
                                                           gamma)

    @pytest.mark.parametrize("rate", [statistical_exponents,
                                      classical_exponents])
    def test_unknown_family_is_refused(self, rate):
        with pytest.raises(ParameterError, match="unknown filter kind"):
            rate(1.0, 2.0, "spectral")


def conversion(gamma, upper, lower):
    """One family's entry of the ``rates`` payload: gamma, then (branch,
    exponent, lambda exponent) of the upper and of the lower conversion."""
    return {"gamma": gamma,
            "upper_conversion": dict(zip(
                ("branch", "delta_exponent", "lambda_delta_exponent"),
                upper)),
            "lower_conversion": dict(zip(
                ("branch", "n_exponent", "lambda_n_exponent"), lower))}


# The JSON payload of ``rkhs-invlab rates --r 1 --b 2``, where every family
# has the derived gamma = 1.75 and p*gamma = 1/2 puts the upper conversion
# on the fast branch, and of ``--r 1.5 --b 2``, past Tikhonov's
# qualification q = 1: its gamma saturates at 1.75, so both of its
# conversions turn slow (p*gamma = 0.389, p_star*gamma = 0.875), while
# cutoff and Landweber, of unbounded q, stay fast.
FAST_R1 = conversion(1.75, ("fast", 1.1428571428571428, 0.5714285714285714),
                     ("fast", 0.6666666666666666, 0.3333333333333333))
FAST_R15 = conversion(2.25, ("fast", 1.3333333333333333, 0.4444444444444444),
                      ("fast", 0.75, 0.25))
RATES_PAYLOADS = {
    "1": {
        "inputs": {"b": 2.0, "r": 1.0, "variant": "general"},
        "tau": 1.1666666666666667,
        "statistical": {"alpha": 0.5714285714285714,
                        "p": 0.2857142857142857},
        "conversions": {"tikhonov": FAST_R1, "cutoff": FAST_R1,
                        "landweber": FAST_R1},
    },
    "1.5": {
        "inputs": {"b": 2.0, "r": 1.5, "variant": "general"},
        "tau": 1.125,
        "statistical": {"alpha": 0.6666666666666666,
                        "p": 0.2222222222222222},
        "conversions": {
            "tikhonov": conversion(
                1.75, ("slow", 1.0909090909090908, 0.3636363636363636),
                ("slow", 0.8, 0.26666666666666666)),
            "cutoff": FAST_R15, "landweber": FAST_R15},
    },
}


@pytest.mark.parametrize("r", sorted(RATES_PAYLOADS),
                         ids=["r1-b2", "r1.5-b2-past-tikhonov-q"])
def test_cli_rates_payload_is_pinned(r, capsys):
    assert main(["rates", "--r", r, "--b", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == RATES_PAYLOADS[r]


def test_cli_rates_refuses_the_retired_gamma_option(capsys):
    # gamma is derived from the family, so --gamma is an unknown argument
    with pytest.raises(SystemExit) as exit_info:
        main(["rates", "--r", "0.5", "--b", "2", "--gamma", "1.25"])
    assert exit_info.value.code == 2
    assert "--gamma" in capsys.readouterr().err


def test_cli_rates_exit_two_on_negative_r(capsys):
    assert main(["rates", "--r", "-1", "--b", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["--r", "nan", "--b", "2"],
    ["--r", "inf", "--b", "2"], ["--r", "1", "--b", "inf"],
    ["--r", "1", "--b", "nan"], ["--r", "0", "--b", "2"],
    ["--r", "1", "--b", "1"], ["--r", "1", "--b", "0.5"]])
def test_cli_rates_exit_two_on_bad_input(args, capsys):
    # NaN r printed NaN exponents, b = inf printed tau = 1; r = 0 and
    # b <= 1 sit outside the model
    assert main(["rates", *args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


# The decay exponent b of the Monte-Carlo set-up's eigenvalues d j**(-b).
MC_DECAY = 2.0


@pytest.fixture(scope="module")
def mc_setup():
    problem, truth = house_problem(size=30, b=MC_DECAY, d=1.0, r=1.0)
    filt = FilterSpec("tikhonov", 0.08)
    sigma, n, replicates = 0.1, 60, 2000
    design = sample_design("grid", n)
    rows = np.array([
        estimator_paper(problem, filt,
                        sample_outputs(problem, truth, design, sigma,
                                       seed=11, index=rep))
        for rep in range(replicates)])
    return problem, truth, filt, sigma, n, rows


class TestMonteCarloRateProperties:
    """Desk-scale versions of the Monte-Carlo rate inequalities."""

    def test_risk_lower_bound(self):
        result = verify.check_mini_monte_carlo(11)
        assert result.passed, result.detail

    def test_mean_matches_continuous(self, mc_setup):
        # each z over the exact standard error: over the sample one, tripled
        # noise passed (1.94), where this reads 5.85
        problem, truth, filt, sigma, n, rows = mc_setup
        f_lam = solve_continuous(problem, filt, forward_data(problem, truth))
        comp_se = np.sqrt(paper_variance(problem, filt, truth, sigma, n,
                                         "grid") / rows.shape[0])
        z = np.abs(rows.mean(axis=0) - f_lam) / np.where(
            comp_se > 0, comp_se, np.inf)
        assert np.max(z) <= 3.0

    def test_sample_bias_variance_identity(self, mc_setup):
        problem, truth, filt, sigma, n, rows = mc_setup
        err2 = np.sum((rows - truth) ** 2, axis=1)
        mean_coeffs = rows.mean(axis=0)
        bias2 = float(np.sum((mean_coeffs - truth) ** 2))
        variance = float(np.mean(np.sum((rows - mean_coeffs) ** 2, axis=1)))
        assert abs(err2.mean() - (bias2 + variance)) <= 1e-10 * err2.mean()

    def test_perturbed_error_below_sampled_risk(self, mc_setup):
        # against the exact risk of the sampled estimator, not a Monte-Carlo
        # mean plus three standard errors
        problem, truth, filt, sigma, n, _ = mc_setup
        risk = paper_risk(problem, filt, truth, sigma, n, "grid")
        y = forward_data(problem, truth)
        bias = float(np.linalg.norm(solve_continuous(problem, filt, y)
                                    - truth))
        dmax = delta_of(n, sigma, bias / hs_norm(problem, filt))
        for spec in (PerturbationSpec(delta=dmax, mode="random-unit"),
                     PerturbationSpec(delta=dmax, mode="fixed-mode", index=1),
                     PerturbationSpec(delta=dmax, mode="filter-adversarial",
                                      filter=filt)):
            y_delta = perturb_data(problem, y, spec, seed=79)
            det = solve_continuous(problem, filt, y_delta)
            det_err2 = float(np.sum((det - truth) ** 2))
            assert det_err2 <= risk

    def test_variance_sweep_slope_bound(self, mc_setup):
        # MC variance against lambda must not fall faster than the
        # -(1 + 1/b) envelope (fit margin 0.15); the per-replicate moments
        # are recovered by unwinding the fixed filter elementwise
        problem, truth, filt, sigma, n, rows = mc_setup
        moments = rows / problem.sigma_sv / filt.on_spectrum(problem)
        lams = np.exp(np.linspace(math.log(10 * problem.mu[-1]),
                                  math.log(problem.mu[0]), 20))
        variances = []
        for lam in lams:
            sweep = FilterSpec("tikhonov", lam)
            coeffs = moments * sweep.on_spectrum(problem) * problem.sigma_sv
            center = coeffs.mean(axis=0)
            variances.append(float(np.mean(np.sum((coeffs - center) ** 2,
                                                  axis=1))))
        slope = fit_rate(list(zip(lams, variances))).slope
        assert slope >= -(1.0 + 1.0 / MC_DECAY) - 0.15
