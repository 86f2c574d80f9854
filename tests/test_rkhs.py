"""Kernel evaluation, Gram matrices and the range norm.

A test named after an invariant of ``verify.ALL_CHECKS`` only runs that
check, at a second seed where the check draws random inputs; the check
holds the invariant's set-up and tolerance.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest

from rkhs_invlab import (DomainError, ShapeError, SpectralProblem,
                         basis_matrix, build_power_law_problem, gram_matrix,
                         kernel_eval, rkhs_norm, verify)


@pytest.fixture
def two_mode():
    return build_power_law_problem(2, 2.0, 1.0)


class TestKernelEval:
    def test_center_value(self, two_mode):
        # u_1(0.5) = sqrt(2), u_2(0.5) = 0: K = 1*2 + 0.25*0
        assert kernel_eval(two_mode, 0.5, 0.5) == pytest.approx(2.0, rel=1e-14)

    def test_vanishes_at_boundary(self, two_mode):
        assert kernel_eval(two_mode, 0.0, 0.37) == pytest.approx(0.0, abs=1e-15)

    def test_cross_value(self, two_mode):
        # 1*u1(.25)u1(.75) + 0.25*u2(.25)u2(.75) = 1 + 0.25*sqrt2*(-sqrt2)
        assert kernel_eval(two_mode, 0.25, 0.75) == pytest.approx(0.5, rel=1e-12)

    def test_domain_error(self, two_mode):
        for x in (-0.1, 1.5, math.nan):
            with pytest.raises(DomainError):
                kernel_eval(two_mode, x, 0.5)
            with pytest.raises(DomainError):
                gram_matrix(two_mode, [0.5, x])


class TestGramMatrix:
    def test_two_point_matrix(self, two_mode):
        gram = gram_matrix(two_mode, [0.25, 0.75])
        npt.assert_allclose(gram.entries, [[1.5, 0.5], [0.5, 1.5]], atol=1e-12)

    def test_single_boundary_point(self, two_mode):
        gram = gram_matrix(two_mode, [0.0])
        npt.assert_allclose(gram.entries, [[0.0]], atol=1e-15)

    def test_repeated_point_rank_one(self):
        problem = build_power_law_problem(1, 2.0, 1.0)
        gram = gram_matrix(problem, [0.5, 0.5])
        npt.assert_allclose(gram.entries, [[2.0, 2.0], [2.0, 2.0]], rtol=1e-12)
        eigs = np.linalg.eigvalsh(gram.entries)
        assert eigs[0] >= -1e-10 * eigs[-1]

    def test_empty_point_set(self, two_mode):
        with pytest.raises(ShapeError):
            gram_matrix(two_mode, [])

    def test_brownian_bridge_closed_form(self):
        result = verify.check_kernel_closed_form(13)
        assert result.passed, result.detail

    @pytest.mark.parametrize("n", [7, 60, 400])
    def test_one_product_is_exactly_symmetric(self, n):
        # a a' with a = u diag(sigma) runs as one syrk, whose triangle is
        # mirrored.  u diag(mu) u' sums the same J products in another
        # order: both lie within 3e-15 of the exact product of the float
        # basis (measured against long double), and 1.6e-15 apart
        problem = build_power_law_problem(200, 2.0, 1.0)
        points = np.random.default_rng(n).random(n)
        entries = gram_matrix(problem, points).entries
        npt.assert_array_equal(entries, entries.T)
        u = basis_matrix(problem, points)
        expected = (u * problem.mu) @ u.T
        npt.assert_allclose(entries, expected, rtol=0,
                            atol=4e-15 * np.max(np.abs(expected)))


class TestRangeNorm:
    def test_two_mode_norm(self, two_mode):
        # 1/1 + 0.25/0.25 = 2
        assert rkhs_norm(two_mode, [1.0, 0.5]) == pytest.approx(
            math.sqrt(2.0), rel=1e-14)

    def test_zero(self, two_mode):
        assert rkhs_norm(two_mode, [0.0, 0.0]) == 0.0

    def test_eigenvalue_four(self):
        problem = SpectralProblem(mu=np.array([4.0]))
        assert rkhs_norm(problem, [2.0]) == pytest.approx(1.0, rel=1e-15)

    def test_partial_isometry(self):
        result = verify.check_partial_isometry(17)
        assert result.passed, result.detail


class TestReproducingStructure:
    def test_evaluation_equals_kernel_pairing(self):
        result = verify.check_reproducing_property(23)
        assert result.passed, result.detail
