"""Kernel structure carried by the range of the diagonal operator.

The feature map sends a point x to the vector with coordinates
(phi_x)_j = sigma_j u_j(x), so the induced kernel is

    K(x, x') = sum_j mu_j u_j(x) u_j(x'),

and the range of A, equipped with the minimal-preimage norm
||g||_K = sqrt(sum_j g_j**2 / mu_j), is a reproducing kernel Hilbert space.
Because every sigma_j is positive the operator has trivial null space and
the correspondence between a range element g and its preimage f reduces to
the componentwise division f_j = g_j / sigma_j.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .spectral_model import basis_matrix


@dataclass(frozen=True)
class GramMatrix:
    """Kernel matrix on a point set, built by ``gram_matrix``.

    The entries are a a' with a = u diag(sigma), exactly symmetric and
    positive semi-definite by construction; the constructor checks shapes
    only.
    """

    points: np.ndarray
    entries: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).copy()
        ent = np.asarray(self.entries, dtype=float).copy()
        if pts.ndim != 1 or pts.size == 0:
            raise ShapeError("point set must be a nonempty 1-d sequence")
        if ent.shape != (pts.size, pts.size):
            raise ShapeError("entries must be n-by-n for n points")
        pts.setflags(write=False)
        ent.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "entries", ent)


def kernel_eval(problem, x, x2):
    """K(x, x2) = sum_j mu_j u_j(x) u_j(x2) for x, x2 in [0, 1]; a point
    outside raises ``DomainError`` (``basis_matrix``)."""
    ux = basis_matrix(problem, x)[0]
    ux2 = basis_matrix(problem, x2)[0]
    return float(np.sum(problem.mu * ux * ux2))


def gram_matrix(problem, points):
    """Kernel matrix with entries K(x_i, x_j) over the point set; a point
    outside [0, 1] raises ``DomainError`` (``basis_matrix``)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 1 or points.size == 0:
        raise ShapeError("point set must be a nonempty 1-d sequence")
    entries = _gram_entries(problem, basis_matrix(problem, points))
    return GramMatrix(points=points, entries=entries)


def _gram_entries(problem, u):
    """u diag(mu) u' for the basis u = basis_matrix(points), formed as
    a a' with a = u diag(sigma): numpy computes a product of an array with
    its own transpose by one symmetric rank-k update (syrk) and copies one
    triangle to the other, so the result is exactly symmetric."""
    features = u * problem.sigma_sv
    return features @ features.T


def rkhs_norm(problem, g_coeffs):
    """Minimal-preimage norm sqrt(sum_j g_j**2 / mu_j) of a range element."""
    g_coeffs = np.asarray(g_coeffs, dtype=float)
    if g_coeffs.shape != (problem.size,):
        raise ShapeError("coefficient length does not match the problem")
    return float(np.sqrt(np.sum(g_coeffs ** 2 / problem.mu)))


def correspondence_pullback(problem, g_coeffs):
    """Map a range element back to parameter space: f_j = g_j / sigma_j."""
    g_coeffs = np.asarray(g_coeffs, dtype=float)
    if g_coeffs.shape != (problem.size,):
        raise ShapeError("coefficient length does not match the problem")
    return g_coeffs / problem.sigma_sv
