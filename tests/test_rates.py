"""Norms, the n <-> delta bridge, conversion theorems and slope fitting.

A test named after an invariant of ``verify.ALL_CHECKS`` only runs that
check, at a second seed where the check draws random inputs; the check
holds the invariant's set-up and tolerance.
"""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from rkhs_invlab import (DomainError, FilterSpec, ModelError, ParameterError,
                         PerturbationSpec, RateExponents, ShapeError,
                         build_power_law_problem, classical_exponents,
                         convert_lower, convert_upper, delta_of,
                         epsilon_lambda, estimator_paper, fit_rate,
                         forward_data, hs_norm, lambda_schedule,
                         loss_factor_tau, make_source_solution, n_of,
                         operator_norm, perturb_data, sample_design,
                         sample_outputs, solve_continuous,
                         statistical_exponents, verify)
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


class TestEpsilonLambda:
    def test_single_mode_unit(self):
        problem = build_power_law_problem(1, 2.0, 1.0)
        truth = make_source_solution(problem, 1.0, [1.0])
        assert epsilon_lambda(problem, FilterSpec("tikhonov", 1.0),
                              truth) == pytest.approx(1.0, rel=1e-14)

    def test_cutoff_zero_bias(self):
        problem, truth = house_problem(5)
        assert epsilon_lambda(problem, FilterSpec("cutoff", problem.mu[-1]),
                              truth) == pytest.approx(0.0, abs=1e-14)

    def test_zero_truth(self):
        problem = build_power_law_problem(4, 2.0, 1.0)
        truth = make_source_solution(problem, 1.0, np.zeros(4))
        assert epsilon_lambda(problem, FilterSpec("tikhonov", 0.3),
                              truth) == 0.0

    def test_degenerate_filter(self):
        problem, truth = house_problem(4)
        with pytest.raises(ModelError):
            epsilon_lambda(problem, FilterSpec("cutoff", 5.0), truth)


class TestBridge:
    def test_delta_examples(self):
        assert delta_of(1, 1.0, 0.0) == pytest.approx(1.0)
        assert delta_of(4, 1.0, 0.0) == pytest.approx(0.5)
        assert delta_of(1, 1.0, 1.0) == pytest.approx(
            math.sqrt(2.0) - 1.0, rel=1e-14)

    def test_n_examples(self):
        value, floor = n_of(1.0, 1.0, 0.0)
        assert value == pytest.approx(1.0) and floor == 1
        value, floor = n_of(0.1, 1.0, 1.0)
        assert value == pytest.approx(1.0 / 0.21, rel=1e-12) and floor == 4

    def test_domain_errors(self):
        # n must be at least 1 and delta positive; NaN is neither
        for bad in (0, math.nan):
            with pytest.raises(DomainError):
                delta_of(bad, 1.0, 0.5)
            with pytest.raises(DomainError):
                n_of(bad, 1.0, 0.5)

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
        stat = statistical_exponents(1.0, 2.0, gamma=1.75)
        assert stat.p * stat.gamma == 0.5
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
        # p = 1/1.9 and gamma = 0.95: p*gamma is 1/2 up to one ulp
        stat = statistical_exponents(0.25, 2.5, gamma=0.95)
        assert stat.p * stat.gamma < 0.5
        got = convert_upper(stat)
        assert got == (2.0 * stat.alpha, 2.0 * stat.p, "fast")
        slow = stat.alpha / (1.0 - stat.p * stat.gamma)
        assert got.exponent == pytest.approx(slow, rel=1e-15)

    def test_lower_tie_reached_by_rounding_is_fast(self):
        # the nominal gamma = r + 1/2 always puts p_star*gamma on the
        # boundary 1; at r = 0.45 the product rounds to 1 - 2^-53
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
        # tau = 1, r = NaN gave NaN exponents
        with pytest.raises(ParameterError, match="r must|b must"):
            rate(r, b)

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


class TestLambdaSchedule:
    def test_by_n(self):
        assert lambda_schedule("by-n", 1.0, 2 / 7, 128) == pytest.approx(0.25,
                                                                         rel=1e-12)
        assert lambda_schedule("by-n", 0.7, 0.5, 1) == pytest.approx(0.7)

    def test_by_delta(self):
        assert lambda_schedule("by-delta", 1.0, 0.5, 0.04) == pytest.approx(0.2)

    def test_errors(self):
        with pytest.raises(ParameterError):
            lambda_schedule("by-n", -1.0, 0.5, 2)
        with pytest.raises(ParameterError):
            lambda_schedule("by-x", 1.0, 0.5, 2)

    @pytest.mark.parametrize("kind", ["by-n", "by-delta"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_constant_exponent_and_argument_are_finite(self, kind, bad,
                                                       slot):
        # NaN would pass a `<= 0` test and return a NaN lambda
        args = [0.5, 0.5, 4.0]
        args[slot] = bad
        with pytest.raises(ParameterError, match="finite number > 0"):
            lambda_schedule(kind, *args)


class TestStatisticalExponents:
    def test_reference_values(self):
        exps = statistical_exponents(1.0, 2.0)
        assert exps.alpha == pytest.approx(2 / 3.5, rel=1e-15)
        assert exps.p == pytest.approx(1 / 3.5, rel=1e-15)
        assert exps.p_star == pytest.approx(2 / 3, rel=1e-15)
        assert exps.gamma == pytest.approx(1.5)

    def test_classical_rate_shares_p_star_and_gamma(self):
        stat = statistical_exponents(1.0, 2.0, gamma=0.75)
        classical = classical_exponents(1.0, 2.0, gamma=0.75)
        assert classical.alpha == pytest.approx(4 / 3, rel=1e-15)
        assert (classical.p_star, classical.gamma) == (stat.p_star, 0.75)


# The JSON payload of ``rkhs-invlab rates --r 1 --b 2``, with the default
# gamma = r + 1/2 and with --gamma 0.75, which moves the lower conversion
# to its slow branch.
RATES_PAYLOAD = {
    "inputs": {"b": 2.0, "gamma": 1.5, "r": 1.0, "variant": "general"},
    "lower_conversion": {"branch": "fast",
                         "lambda_n_exponent": 0.3333333333333333,
                         "n_exponent": 0.6666666666666666},
    "statistical": {"alpha": 0.5714285714285714,
                    "p": 0.2857142857142857},
    "tau": 1.1666666666666667,
    "upper_conversion": {"branch": "slow", "delta_exponent": 1.0,
                         "lambda_delta_exponent": 0.5},
}
RATES_PAYLOAD_GAMMA = {
    **RATES_PAYLOAD,
    "inputs": dict(RATES_PAYLOAD["inputs"], gamma=0.75),
    "lower_conversion": {"branch": "slow",
                         "lambda_n_exponent": 0.4444444444444444,
                         "n_exponent": 0.8888888888888888},
    "upper_conversion": {"branch": "slow",
                         "delta_exponent": 0.7272727272727273,
                         "lambda_delta_exponent": 0.36363636363636365},
}


@pytest.mark.parametrize("extra, expected", [
    ([], RATES_PAYLOAD), (["--gamma", "0.75"], RATES_PAYLOAD_GAMMA)],
    ids=["default-gamma", "gamma-0.75"])
def test_cli_rates_payload_is_pinned(extra, expected, capsys):
    assert main(["rates", "--r", "1", "--b", "2", *extra]) == 0
    assert json.loads(capsys.readouterr().out) == expected


def test_cli_rates_exit_two_on_negative_r(capsys):
    assert main(["rates", "--r", "-1", "--b", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["--r", "nan", "--b", "2"],
    ["--r", "inf", "--b", "2"], ["--r", "1", "--b", "inf"],
    ["--r", "1", "--b", "nan"], ["--r", "1", "--b", "2", "--gamma", "nan"],
    ["--r", "1", "--b", "2", "--gamma", "inf"],
    ["--r", "1", "--b", "2", "--gamma", "0"]])
def test_cli_rates_exit_two_on_bad_input(args, capsys):
    # NaN r printed NaN exponents, b = inf printed tau = 1
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
        problem, truth, filt, sigma, n, rows = mc_setup
        f_lam = solve_continuous(problem, filt, forward_data(problem, truth))
        comp_se = rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
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
        problem, truth, filt, sigma, n, rows = mc_setup
        err2 = np.sum((rows - truth) ** 2, axis=1)
        se = err2.std(ddof=1) / math.sqrt(err2.size)
        dmax = delta_of(n, sigma, epsilon_lambda(problem, filt, truth))
        y = forward_data(problem, truth)
        for spec in (PerturbationSpec(delta=dmax, mode="random-unit"),
                     PerturbationSpec(delta=dmax, mode="fixed-mode", index=1),
                     PerturbationSpec(delta=dmax, mode="filter-adversarial",
                                      filter=filt)):
            y_delta = perturb_data(problem, y, spec, seed=79)
            det = solve_continuous(problem, filt, y_delta)
            det_err2 = float(np.sum((det - truth) ** 2))
            assert det_err2 <= err2.mean() + 3.0 * se

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

    def test_epsilon_scaling_report(self):
        result = verify.check_epsilon_report(0)
        assert result.passed, result.detail
