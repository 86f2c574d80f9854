"""Design schemes, noisy outputs, bounded perturbations, reproducibility.

A test named after an invariant of ``verify.ALL_CHECKS`` only runs that
check, at a second seed where the check draws random inputs; the check
holds the invariant's set-up and tolerance.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from rkhs_invlab import (FilterSpec, ParameterError, PerturbationSpec,
                         SampleSet, ShapeError, basis_matrix,
                         build_power_law_problem, eval_function, forward_data,
                         make_source_solution, perturb_data, sample_design,
                         sample_outputs, streams, verify)


@pytest.fixture
def two_mode_truth():
    problem = build_power_law_problem(2, 2.0, 1.0)
    truth = make_source_solution(problem, 0.5, [1.0, 1.0])  # f = (1, 0.5)
    return problem, truth


class TestSampleDesign:
    def test_midpoint_grid(self):
        npt.assert_array_equal(sample_design("grid", 2), [0.25, 0.75])
        npt.assert_array_equal(sample_design("grid", 1), [0.5])

    def test_uniform_mean(self):
        design = sample_design("iid-uniform", 1000, seed=7)
        assert abs(design.mean() - 0.5) < 0.05
        assert np.all((design >= 0.0) & (design <= 1.0))

    def test_empty_and_unknown(self):
        # a float n gave a grid that is not a midpoint grid: 2.5 read as
        # the points 0.2, 0.6 and 1.0.  n is refused by its rule, as every
        # function that takes a sample count refuses it
        for n in (0, 2.5, 2.0, True):
            with pytest.raises(ParameterError, match="^n must"):
                sample_design("grid", n)
        npt.assert_array_equal(sample_design("grid", np.int64(2)),
                               [0.25, 0.75])
        with pytest.raises(ParameterError):
            sample_design("sobol", 4)

    def test_replicate_streams_differ(self):
        a = sample_design("iid-uniform", 16, seed=1, index=0)
        b = sample_design("iid-uniform", 16, seed=1, index=1)
        assert not np.array_equal(a, b)


class TestSampleOutputs:
    def test_noiseless_grid_values(self, two_mode_truth):
        # y = (1, 0.25); y(0.25) = 1 + 0.25 sqrt(2), y(0.75) = 1 - 0.25 sqrt(2)
        problem, truth = two_mode_truth
        samples = sample_outputs(problem, truth, sample_design("grid", 2),
                                 seed=0)
        expected = [1.0 + 0.25 * math.sqrt(2.0), 1.0 - 0.25 * math.sqrt(2.0)]
        npt.assert_allclose(samples.outputs, expected, rtol=1e-12)

    def test_noiseless_equals_evaluation(self, two_mode_truth):
        problem, truth = two_mode_truth
        design = sample_design("iid-uniform", 50, seed=3)
        samples = sample_outputs(problem, truth, design, seed=3)
        exact = eval_function(problem, forward_data(problem, truth), design)
        npt.assert_allclose(samples.outputs, exact, rtol=1e-14)

    def test_noise_is_clean_plus_sigma_z(self, two_mode_truth):
        # the replicate's (seed, NOISE_STREAM, index) normals, bit for bit
        problem, truth = two_mode_truth
        design = sample_design("iid-uniform", 50, seed=3)
        clean = sample_outputs(problem, truth, design).outputs
        z = streams.generator(3, streams.NOISE_STREAM, 4).standard_normal(50)
        samples = sample_outputs(problem, truth, design, 0.3, seed=3, index=4)
        npt.assert_array_equal(samples.outputs, clean + 0.3 * z)

    def test_noise_mean_clt(self):
        # 1e4 replicates of a single noisy sample at x = 0.5; the sample
        # mean must sit within 3 sigma / sqrt(replicates) of y(0.5)
        problem = build_power_law_problem(1, 2.0, 1.0)
        truth = make_source_solution(problem, 1.0, [1.0])
        design = np.array([0.5])
        replicates = 10_000
        total = 0.0
        for rep in range(replicates):
            samples = sample_outputs(problem, truth, design, 0.1, seed=21,
                                     index=rep)
            total += samples.outputs[0]
        target = math.sqrt(2.0)  # y(0.5) = sigma_1 f_1 u_1(0.5)
        assert abs(total / replicates - target) <= 3.0 * 0.1 / 100.0

    def test_reproducible_bit_identical(self):
        result = verify.check_reproducibility(9)
        assert result.passed, result.detail

    @pytest.mark.parametrize("scheme", ["grid", "iid-uniform"])
    def test_blocked_outputs_match_the_basis(self, small_blocks, scheme):
        # a GEMV per block of 3 points, then the same noise: measured within
        # 3.2e-16 of the largest output
        problem, truth = small_blocks
        design = sample_design(scheme, 50, seed=5)
        samples = sample_outputs(problem, truth, design, 0.1, seed=5, index=2)
        expected = basis_matrix(problem, design) @ forward_data(problem,
                                                                truth)
        expected += 0.1 * streams.generator(
            5, streams.NOISE_STREAM, 2).standard_normal(50)
        npt.assert_allclose(samples.outputs, expected, rtol=0,
                            atol=1e-14 * np.max(np.abs(expected)))


class TestPerturbData:
    def test_zero_delta_unchanged(self, two_mode_truth):
        problem, truth = two_mode_truth
        y = forward_data(problem, truth)
        y_delta = perturb_data(problem, y,
                               PerturbationSpec(delta=0.0, mode="random-unit"))
        npt.assert_array_equal(y_delta, y)

    def test_adversarial_mode_selection(self, two_mode_truth):
        # Tikhonov lambda = 1: responses s(mu) sigma = (0.5, 0.4), so the
        # perturbation lands on mode 1
        problem, truth = two_mode_truth
        y = forward_data(problem, truth)  # (1, 0.25)
        spec = PerturbationSpec(delta=0.3, mode="filter-adversarial",
                                filter=FilterSpec("tikhonov", 1.0))
        npt.assert_allclose(perturb_data(problem, y, spec),
                            [1.3, 0.25], rtol=1e-15)

    def test_fixed_mode_addition(self, two_mode_truth):
        problem, truth = two_mode_truth
        y = forward_data(problem, truth)  # (1, 0.25)
        spec = PerturbationSpec(delta=0.3, mode="fixed-mode", index=2)
        y_delta = perturb_data(problem, y, spec)
        npt.assert_allclose(y_delta, [1.0, 0.55], rtol=1e-14)

    def test_norm_exact_all_modes(self):
        result = verify.check_perturbation_norms(31)
        assert result.passed, result.detail

    def test_parameter_errors(self, two_mode_truth):
        problem, truth = two_mode_truth
        y = forward_data(problem, truth)
        for delta in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match="delta"):
                PerturbationSpec(delta=delta, mode="random-unit")
        with pytest.raises(ShapeError):
            perturb_data(problem, y,
                         PerturbationSpec(delta=0.1, mode="fixed-mode",
                                          index=3))

    @pytest.mark.parametrize("index", [2.5, True, np.float64(2.0), 0, None],
                             ids=["2.5", "True", "float64", "0", "None"])
    def test_fixed_mode_index_is_a_positive_integer(self, index):
        # a float index reached perturb_data and raised an IndexError there,
        # and True perturbed mode 1
        with pytest.raises(ParameterError, match="index"):
            PerturbationSpec(delta=0.1, mode="fixed-mode", index=index)


class TestGridRiemannProperty:
    def test_empirical_square_risk_second_order(self):
        result = verify.check_riemann_slope(0)
        assert result.passed, result.detail


class TestSampleSetValidation:
    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            SampleSet(design=np.array([0.5]), outputs=np.zeros(2))

    def test_noise_model_validation(self, two_mode_truth):
        # a negative or NaN sigma is refused, not read as noiseless, and an
        # infinite one, not turned into infinite outputs
        problem, truth = two_mode_truth
        design = sample_design("grid", 2)
        for sigma in (-0.2, math.nan, math.inf):
            with pytest.raises(ParameterError):
                sample_outputs(problem, truth, design, sigma)
