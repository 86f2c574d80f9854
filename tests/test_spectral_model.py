"""Diagonal model: construction, source solutions, forward map, evaluation.

A test named after an invariant of ``verify.ALL_CHECKS`` only runs that
check, at a second seed where the check draws random inputs; the check
holds the invariant's set-up and tolerance.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from rkhs_invlab import (DomainError, FilterSpec, ParameterError,
                         PerturbationSpec, SampleSet, ShapeError,
                         SpectralProblem, basis_matrix,
                         build_power_law_problem, estimator_learn,
                         estimator_paper, eval_function, forward_data,
                         make_source_solution, perturb_data,
                         problem_from_descriptor, resolve_w_spec,
                         sample_design, solve_continuous, spectral_model,
                         verify)
from rkhs_invlab.spectral_model import (_basis_blocks, _sine_factor_tables,
                                       _split_modes, descriptor_faults,
                                       grid_aliasing)


class TestBuildPowerLawProblem:
    def test_power_law_values(self):
        problem = build_power_law_problem(3, 2.0, 1.0)
        npt.assert_allclose(problem.mu, [1.0, 0.25, 1.0 / 9.0], rtol=1e-15)
        npt.assert_allclose(problem.sigma_sv ** 2, problem.mu, rtol=1e-15)

    def test_single_mode(self):
        problem = build_power_law_problem(1, 2.0, 1.0)
        npt.assert_allclose(problem.mu, [1.0])

    def test_rejects_flat_decay(self):
        with pytest.raises(ParameterError):
            build_power_law_problem(2, 1.0, 1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            build_power_law_problem(0, 2.0, 1.0)
        with pytest.raises(ParameterError):
            build_power_law_problem(2, 2.0, -1.0)
        with pytest.raises(ParameterError):
            build_power_law_problem(2, 0.5, 1.0)

    @pytest.mark.parametrize("key, value", [
        ("J", 0), ("J", 2.0), ("J", True), ("b", math.nan), ("b", math.inf),
        ("b", 1.0), ("d", math.inf), ("d", math.nan), ("d", 0.0),
        ("d", "1")])
    def test_parameters_follow_the_descriptor_rules(self, key, value):
        # one rule per parameter: d = inf built infinite eigenvalues, and a
        # descriptor with the same key is refused by descriptor_faults
        args = dict({"J": 3, "b": 2.0, "d": 1.0}, **{key: value})
        with pytest.raises(ParameterError, match=f"^{key} must be"):
            build_power_law_problem(args["J"], args["b"], args["d"])
        assert descriptor_faults(dict(args, r=1.0, w_spec="ones")) == [key]

    def test_kernel_bound_constant(self):
        problem = build_power_law_problem(50, 2.0, 1.0)
        assert problem.kernel_bound_sq == pytest.approx(
            2.0 * np.sum(problem.mu), rel=1e-15)

    def test_immutable(self):
        problem = build_power_law_problem(4, 2.0, 1.0)
        with pytest.raises(ValueError):
            problem.mu[0] = 7.0

    def test_direct_construction_validates_monotonicity(self):
        with pytest.raises(ParameterError):
            SpectralProblem(mu=np.array([0.25, 1.0]))


class TestMakeSourceSolution:
    def test_half_smoothness_by_hand(self):
        # mu^0.5 * w with mu = (1, 1/4), w = (1, 1): (1, 0.5)
        problem = build_power_law_problem(2, 2.0, 1.0)
        truth = make_source_solution(problem, 0.5, [1.0, 1.0])
        npt.assert_allclose(truth, [1.0, 0.5], rtol=1e-15)

    def test_zero_source(self):
        problem = build_power_law_problem(5, 2.0, 1.0)
        truth = make_source_solution(problem, 1.0, np.zeros(5))
        npt.assert_array_equal(truth, np.zeros(5))

    def test_unit_eigenvalue_passthrough(self):
        problem = build_power_law_problem(1, 2.0, 1.0)
        truth = make_source_solution(problem, 1.0, [2.0])
        npt.assert_allclose(truth, [2.0])

    def test_length_mismatch(self):
        problem = build_power_law_problem(3, 2.0, 1.0)
        with pytest.raises(ShapeError):
            make_source_solution(problem, 1.0, [1.0, 2.0])

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf, "1", None])
    def test_r_follows_the_descriptor_rule(self, r):
        problem = build_power_law_problem(3, 2.0, 1.0)
        with pytest.raises(ParameterError, match="^r must be"):
            make_source_solution(problem, r, np.ones(3))


class TestForwardData:
    def test_componentwise_product(self):
        # sigma = (1, 0.5): (1, 0.5) maps to (1, 0.25)
        problem = build_power_law_problem(2, 2.0, 1.0)
        y = forward_data(problem, [1.0, 0.5])
        npt.assert_allclose(y, [1.0, 0.25], rtol=1e-15)

    def test_zero(self):
        problem = build_power_law_problem(3, 2.0, 1.0)
        npt.assert_array_equal(forward_data(problem, np.zeros(3)),
                               np.zeros(3))

    def test_unit_singular_value(self):
        problem = build_power_law_problem(1, 2.0, 1.0)
        npt.assert_allclose(forward_data(problem, [3.0]), [3.0])

    def test_shape_error(self):
        problem = build_power_law_problem(3, 2.0, 1.0)
        with pytest.raises(ShapeError):
            forward_data(problem, [1.0])


def exact_basis(x, size):
    """sqrt(2) sin(j pi x) from the stdlib, with j x reduced mod 2 exactly.

    The reduced r is folded to |r| <= 1/2 with its sign, so only the final
    float(r), pi * r and sin round.
    """
    half = Fraction(1, 2)
    out = np.empty((len(x), size))
    for i, point in enumerate(x):
        exact = Fraction(float(point))
        for j in range(1, size + 1):
            r = exact * j % 2
            if r > 1:
                r -= 2
            if r > half:
                r = 1 - r
            elif r < -half:
                r = -1 - r
            out[i, j - 1] = math.sqrt(2.0) * math.sin(math.pi * float(r))
    return out


EDGE_POINTS = [0.0, 0.5, 1.0, 0.5 + 2.0 ** -52, 0.5 - 2.0 ** -52, 1e-9,
               1.0 - 1e-9]


def max_errors(x, size):
    """Max abs error of basis_matrix and of the textbook form at x."""
    x = np.asarray(x, dtype=float)
    exact = exact_basis(x, size)
    j = np.arange(1, size + 1)
    textbook = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, j))
    got = basis_matrix(build_power_law_problem(size, 2.0, 1.0), x)
    return (float(np.max(np.abs(got - exact))),
            float(np.max(np.abs(textbook - exact))))


class TestBasisMatrix:
    @pytest.mark.parametrize("x", [
        (np.arange(1, 3201) - 0.5) / 3200,
        np.random.default_rng(5).random(3200),
        0.3,
    ], ids=["grid", "iid", "scalar"])
    def test_matches_direct_expression(self, x):
        # the recurrence and the textbook form each sit within 1.5e-13 of the
        # exact basis at J = 200, so they agree to the sum of the two bounds
        problem = build_power_law_problem(200, 2.0, 1.0)
        j = np.arange(1, 201)
        expected = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, j))
        got = basis_matrix(problem, x)
        assert got.shape == expected.shape
        npt.assert_allclose(got, expected, rtol=0, atol=3e-13)

    def test_error_bound_at_j200(self):
        x = np.concatenate([np.random.default_rng(5).random(240), EDGE_POINTS,
                            (np.arange(1, 54) - 0.5) / 53])
        err, textbook_err = max_errors(x, 200)
        assert err <= 1.5e-13
        assert err <= textbook_err

    def test_no_worse_than_textbook_at_j1000(self):
        x = np.concatenate([np.random.default_rng(6).random(53), EDGE_POINTS])
        err, textbook_err = max_errors(x, 1000)
        assert err <= textbook_err

    def test_endpoints_give_exact_zeros(self):
        problem = build_power_law_problem(200, 2.0, 1.0)
        assert np.all(basis_matrix(problem, [0.0, 1.0]) == 0.0)

    def test_scalar_and_single_mode_shapes(self):
        problem = build_power_law_problem(200, 2.0, 1.0)
        row = basis_matrix(problem, 0.3)
        assert row.shape == (1, 200)
        assert np.max(np.abs(row - exact_basis([0.3], 200))) <= 1.5e-13
        x = [0.2, 0.7, 1.0]
        single = basis_matrix(build_power_law_problem(1, 2.0, 1.0), x)
        assert single.shape == (3, 1)
        npt.assert_allclose(single, exact_basis(x, 1), rtol=0, atol=1e-15)

    def test_peak_allocation_is_one_buffer(self):
        # one n-by-J buffer and O(n) work vectors, no second n-by-J array
        problem = build_power_law_problem(200, 2.0, 1.0)
        x = np.random.default_rng(7).random(3200)
        tracemalloc.start()
        try:
            basis_matrix(problem, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * x.size * problem.size * 8


class TestGridAliasing:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 25, 50, 100, 199, 200, 201,
                                   400, 801])
    def test_matches_basis_product(self, n):
        # M = u'u / n on the midpoint grid: D_m sign_j sign_k where modes j
        # and k share the alias class m, 0 elsewhere (gaps up to 8.9e-14,
        # at n = 1).  n = 1..7 alias every mode, 199..201 a few past n = J,
        # and 400 and 801 none.
        problem = build_power_law_problem(200, 2.0, 1.0)
        u = basis_matrix(problem, (np.arange(1, n + 1) - 0.5) / n)
        classes, signs, weights = grid_aliasing(problem, n)
        same = classes[:, None] == classes[None, :]
        gram = same * np.outer(signs, signs) * weights[:, None]
        npt.assert_allclose(gram, u.T @ u / n, rtol=0, atol=1e-12)
        assert set(weights) <= {0.0, 1.0, 2.0}
        assert np.all((weights == 0) == (classes == 0))


def factor_basis(x, size):
    """u_j(x) rebuilt from the sine factor tables by angle addition."""
    low, high = _sine_factor_tables(build_power_law_problem(size, 2.0, 1.0),
                                    np.asarray(x, dtype=float))
    a, c, sign = _split_modes(size)
    # low[c] = cos + i sin at c pi x, high = the (sin, cos) planes at
    # 16 a pi x, and sin((16 a +- c) pi x) = sin cos +- cos sin
    return math.sqrt(2.0) * (high[0][a] * low[c].real
                             + sign[:, None] * high[1][a] * low[c].imag).T


# Where the reduction of 16 pi x changes branch: 16 x mod 2 wraps at
# x = m/8, folds at odd m/16 and reflects at odd m/32; one ulp either side.
REDUCTION_POINTS = ([m / 32 for m in range(33)]
                    + [np.nextafter(m / 16, side) for m in range(17)
                       for side in (0.0, 1.0)])


class TestSineFactorTables:
    def factor_errors(self, x, size):
        """Max abs error of the rebuilt basis and of basis_matrix at x."""
        exact = exact_basis(x, size)
        basis = basis_matrix(build_power_law_problem(size, 2.0, 1.0), x)
        return (float(np.max(np.abs(factor_basis(x, size) - exact))),
                float(np.max(np.abs(basis - exact))))

    def test_error_bound_at_j200(self):
        x = np.concatenate([np.random.default_rng(8).random(240),
                            EDGE_POINTS, REDUCTION_POINTS])
        err, basis_err = self.factor_errors(x, 200)
        assert err <= 1.5e-13
        assert err <= basis_err

    @pytest.mark.parametrize("size", [1, 8, 9, 15, 16, 17, 248, 255, 256,
                                      1000])
    def test_doubling_matches_sequential_powers(self, size):
        # The low table has 9 rows at every J (blocks of 1, 1, 2 and 4 and
        # one row of the next).  J = 1 and 8 have one high row, 9 to 17 two,
        # 248 sixteen (whole blocks), 255 and 256 seventeen and 1000
        # sixty-three: every doubling block, whole or cut short, against
        # z**k by one multiply per row.  Both round about once per
        # multiply, so row k may differ by k ulp of 1 (0.38 k measured);
        # x = 0 and x = 1 give exact zeros for every mode
        x = np.concatenate([np.random.default_rng(10).random(97),
                            EDGE_POINTS, REDUCTION_POINTS])
        low, high = _sine_factor_tables(
            build_power_law_problem(size, 2.0, 1.0), x)
        assert low.shape == (9, x.size)
        assert high.shape == (2, (size + 7) // 16 + 1, x.size)
        for table, first in ((low, 1.0), (high[0] + 1j * high[1], 1.0j)):
            assert np.all(table[0] == first)
            unit = table[1] / first if len(table) > 1 else None
            power = table[0].copy()
            for k, row in enumerate(table[1:], 1):
                power *= unit
                npt.assert_allclose(row, power, rtol=0, atol=k * 2.0 ** -52)
        ends = factor_basis([0.0, 1.0], size)
        assert ends.shape == (2, size)
        assert np.all(ends == 0.0)

    def test_fills_the_tables_it_is_given(self):
        # 2,500 points are three chunks of the high powers, the last one
        # short; each point's entries are its own, whatever the chunking
        x = np.random.default_rng(11).random(2500)
        problem = build_power_law_problem(200, 2.0, 1.0)
        out = (np.empty((9, x.size), dtype=complex),
               np.empty((2, 13, x.size)))
        low, high = _sine_factor_tables(problem, x, out)
        assert low is out[0] and high is out[1]
        pieces = [_sine_factor_tables(problem, part)
                  for part in np.split(x, [700, 1900])]
        npt.assert_array_equal(low, np.hstack([p[0] for p in pieces]))
        npt.assert_array_equal(high, np.concatenate([p[1] for p in pieces],
                                                    axis=2))

    def test_no_worse_than_basis_matrix_at_j1000(self):
        # (1000 + 7) // 16 + 1 = 63 high rows, more than the 9 low ones
        x = np.concatenate([np.random.default_rng(9).random(53),
                            EDGE_POINTS, REDUCTION_POINTS])
        err, basis_err = self.factor_errors(x, 1000)
        assert err <= basis_err

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 16, 17, 24, 25, 200])
    def test_split_covers_each_mode_once(self, size):
        # j = 16 a + sign c with c = 0..8: 7, 8, 24 and 25 sit on either
        # side of the change of a at 16 a + 8 -> 16 (a + 1) - 7, 16 is c = 0
        # and 9 and 17 are its neighbours.  Each mode is one triple, and an
        # (a, c) entry serves at most the two modes 16 a +- c
        a, c, sign = _split_modes(size)
        assert np.array_equal(16 * a + sign * c, np.arange(1, size + 1))
        assert np.all((-7 <= sign * c) & (sign * c <= 8))
        assert np.all((sign == 0) == (c == 0))
        assert a[-1] == (size + 7) // 16
        x = np.concatenate([np.random.default_rng(12).random(61),
                            EDGE_POINTS, REDUCTION_POINTS])
        basis = basis_matrix(build_power_law_problem(size, 2.0, 1.0), x)
        npt.assert_allclose(factor_basis(x, size), basis, rtol=0,
                            atol=1.5e-13)


class TestEvalFunction:
    def test_two_mode_value(self):
        # u_1(1/4) = sqrt(2) sin(pi/4) = 1, u_2(1/4) = sqrt(2) sin(pi/2)
        problem = build_power_law_problem(2, 2.0, 1.0)
        value = eval_function(problem, [1.0, 0.25], 0.25)
        assert value == pytest.approx(1.0 + 0.25 * math.sqrt(2.0), rel=1e-12)

    def test_zero_coefficients(self):
        problem = build_power_law_problem(2, 2.0, 1.0)
        assert eval_function(problem, [0.0, 0.0], 0.7) == 0.0

    def test_vanishes_at_origin(self):
        problem = build_power_law_problem(1, 2.0, 1.0)
        assert eval_function(problem, [1.0], 0.0) == 0.0

    def test_domain_error(self):
        # NaN fails x >= 0 and x <= 1 alike, so it is refused too
        problem = build_power_law_problem(1, 2.0, 1.0)
        for x in (1.5, -0.1, math.nan, [0.5, math.nan]):
            with pytest.raises(DomainError):
                eval_function(problem, [1.0], x)

    def test_parseval_on_fine_grid(self):
        result = verify.check_parseval(11)
        assert result.passed, result.detail


@pytest.mark.parametrize("scheme", ["grid", "iid-uniform"])
def test_basis_blocks_are_rows_of_the_basis(small_blocks, scheme,
                                            monkeypatch):
    # the recurrence acts on each point alone: bit for bit
    problem, _ = small_blocks
    x = sample_design(scheme, 50, seed=5)
    blocks = [(rows, block.copy()) for rows, block in
              _basis_blocks(problem, x)]
    assert [(rows.start, rows.stop) for rows, _ in blocks] == [
        (start, min(start + 3, 50)) for start in range(0, 50, 3)]
    npt.assert_array_equal(np.vstack([block for _, block in blocks]),
                           basis_matrix(problem, x))
    # a point whose basis row alone exceeds the budget is a block of its own
    monkeypatch.setattr(spectral_model, "_BLOCK_CELLS", 1)
    assert [block.shape for _, block in _basis_blocks(problem, x[:4])] == [
        (1, 40)] * 4


def test_blocked_eval_function_matches_the_basis(small_blocks):
    # one GEMV per block of 3 points against one on the whole basis:
    # measured within 6.3e-16 of the largest value
    problem, truth = small_blocks
    x = sample_design("iid-uniform", 50, seed=5)
    expected = basis_matrix(problem, x) @ truth
    npt.assert_allclose(eval_function(problem, truth, x), expected, rtol=0,
                        atol=1e-14 * np.max(np.abs(expected)))


class TestDescriptors:
    def test_ones_and_unit_random(self):
        npt.assert_array_equal(resolve_w_spec("ones", 3), np.ones(3))
        w = resolve_w_spec("unit-random", 64, seed=5)
        assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-12)
        npt.assert_array_equal(w, resolve_w_spec("unit-random", 64, seed=5))
        assert not np.array_equal(w, resolve_w_spec("unit-random", 64, seed=6))

    def test_missing_key(self):
        with pytest.raises(ParameterError):
            problem_from_descriptor({"J": 3, "b": 2.0})

    @pytest.mark.parametrize("key, value", [
        ("J", 3.7), ("J", 3.0), ("J", True), ("J", "3"),
        ("seed", 3.7), ("seed", True), ("seed", None)])
    def test_non_integer_is_refused_by_name(self, key, value):
        # not truncated to 3 or read as 1
        descriptor = dict({"J": 3, "b": 2.0, "d": 1.0, "r": 1.0,
                           "w_spec": "unit-random", "seed": 3}, **{key: value})
        with pytest.raises(ParameterError, match=repr(key)):
            problem_from_descriptor(descriptor)

    @pytest.mark.parametrize("key", ["b", "d", "r"])
    @pytest.mark.parametrize("value", ["2", True, None])
    def test_non_number_is_refused_by_name(self, key, value):
        # not converted to 2.0 or read as 1.0
        descriptor = dict({"J": 3, "b": 2.0, "d": 1.0, "r": 1.0,
                           "w_spec": "ones"}, **{key: value})
        with pytest.raises(ParameterError, match=repr(key)):
            problem_from_descriptor(descriptor)

    @pytest.mark.parametrize("b", [2, 2.0, np.int64(2), np.float64(2.0)])
    def test_numbers_of_any_type_are_read(self, b):
        problem, truth = problem_from_descriptor(
            {"J": 3, "b": b, "d": np.float32(0.5), "r": 1, "w_spec": "ones"})
        npt.assert_array_equal(problem.mu, 0.5 * np.arange(1.0, 4.0) ** -2.0)
        npt.assert_array_equal(truth, problem.mu)


# Every model element is the (J,) array of its sine-basis coordinates.
ELEMENTS = {
    "forward_data": lambda p, f, s: forward_data(p, f),
    "perturb_data": lambda p, f, s: perturb_data(
        p, forward_data(p, f), PerturbationSpec(delta=0.1)),
    "make_source_solution": lambda p, f, s: make_source_solution(
        p, 1.0, np.ones(p.size)),
    "solve_continuous": lambda p, f, s: solve_continuous(
        p, FilterSpec("tikhonov", 0.1), forward_data(p, f)),
    "estimator_paper": lambda p, f, s: estimator_paper(
        p, FilterSpec("tikhonov", 0.1), s),
    "estimator_learn": lambda p, f, s: estimator_learn(
        p, FilterSpec("tikhonov", 0.1), s),
}


@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_model_element_is_coefficient_array(name):
    problem = build_power_law_problem(7, 2.0, 1.0)
    f = np.linspace(1.0, 0.1, 7)
    samples = SampleSet(design=[0.1, 0.4, 0.8], outputs=[1.0, -0.5, 0.25])
    element = ELEMENTS[name](problem, f, samples)
    assert type(element) is np.ndarray
    assert element.shape == (7,) and element.dtype == float
