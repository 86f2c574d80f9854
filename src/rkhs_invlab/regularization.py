"""Spectral filters and the four regularized reconstructions.

A filter family s_lambda defines the regularized reconstruction in four
guises, all computed here, each returned as the (J,) array of its
coordinates in the sine basis:

  continuous     f_lam   : coeffs_j = s(mu_j) sigma_j y_j        (full data)
  noisy-delta    f_lam_d : same formula applied to perturbed data
  paper-n        fhat    : s applied to B, data replaced by the empirical
                           moment (1/n) sum_i Y_i phi_{X_i}
  learn-n        fhat_l  : s applied to the empirical covariance
                           (1/n) Phi' Phi, a J-by-J matrix since the kernel
                           K = Phi Phi' has rank at most J, then to the
                           empirical moment (1/n) Phi' y: one linear solve
                           for Tikhonov, an eigendecomposition otherwise.

On the noiseless midpoint grid learn-n splits into the alias classes of
``grid_aliasing`` and has a closed form in O(J), ``_grid_learn``, which
gamma-study fits with.  The dense n-by-n Tikhonov solve (K + lambda n I)
beta = y is ``kernel_tikhonov``, the one n-by-n solve.  It serves only as
the kernel-side reference of equivalence-check and ``verify``: they check
learn-n against it and measure its first-order optimality for the
penalized empirical risk.  Every other study fit runs in J-space.

Each filter family is one row of ``_FAMILIES``: Tikhonov s(t) = 1/(t +
lambda), of qualification 1; spectral cutoff s(t) = 1/t for t >= lambda and
Landweber s(t) = sum_{k<m} (1-t)^k, m = round(1/lambda), on spectra bounded
by 1, both of unbounded qualification (certified to 8).
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DomainError, ModelError, NumericalError, ParameterError,
                     ShapeError)
from .rkhs import _gram_entries
from .spectral_model import (_basis_blocks, _refuse_faults, basis_matrix,
                             grid_aliasing, grid_gram_product)

_QUALIFICATION_CAP = 8.0


def _landweber(t, lam):
    """The m = round(1/lambda) step geometric sum (1 - (1-t)^m)/t, stable
    via expm1/log1p; the t -> 0 limit is m, at t = 1 the value is 1."""
    m = round(1.0 / lam)
    out = np.full_like(t, float(m))
    pos = t > 0
    with np.errstate(divide="ignore"):
        out[pos] = -np.expm1(m * np.log1p(-np.minimum(t[pos], 1.0))) / t[pos]
    return out


class _Family(NamedTuple):
    """One filter family: s_lambda(t) on t >= 0 as ``value(t, lam)``, the
    largest spectrum value it is valid on, its qualification q and its
    certified C_nu as ``c_nu(nu)``: C_nu lambda^nu dominates t^nu
    |1 - t s(t)| at each Hoelder exponent nu <= q.  Every family has
    D = E = 1: t s(t) <= 1 and lambda s(t) <= 1."""

    value: Callable
    spectrum_bound: float
    qualification: float
    c_nu: Callable

    def beyond(self, t):
        """True where t exceeds the spectrum bound beyond roundoff."""
        return t > self.spectrum_bound + 1e-12


_FAMILIES = {
    # nu^nu (1 - nu)^(1 - nu), whose formula rounds up at nu = 1/2
    "tikhonov": _Family(lambda t, lam: 1.0 / (t + lam), math.inf, 1.0,
                        lambda nu: 0.5 if nu == 0.5 else 1.0),
    "cutoff": _Family(
        lambda t, lam: np.where(t >= lam, 1.0 / np.where(t > 0, t, 1.0), 0.0),
        math.inf, math.inf, lambda nu: 1.0),
    # (nu/e)^nu, which is 1 at nu = 0
    "landweber": _Family(_landweber, 1.0, math.inf,
                         lambda nu: (nu / math.e) ** nu),
}


@dataclass(frozen=True)
class FilterSpec:
    """The spectral filter s_lambda of the family ``kind``, a name of
    ``_FAMILIES``, at ``lam``: a finite number > 0, stored as a float.
    Landweber runs m = round(1/lambda) iterations, at least one, so its
    lambda is stored as 1/m, and 1/lambda must be finite.
    ``certify_filter`` checks the family's constants."""

    kind: str
    lam: float

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ParameterError(f"unknown filter kind: {self.kind!r}")
        _refuse_faults(**{"lambda": self.lam})
        lam = float(self.lam)
        if self.kind == "landweber":
            steps = 1.0 / lam
            if not math.isfinite(steps):
                raise ParameterError(
                    f"landweber lambda must have a finite 1/lambda: {lam!r}")
            lam = 1.0 / max(1, round(steps))
        object.__setattr__(self, "lam", lam)

    def value(self, t):
        """s_lambda(t) for t > 0 (scalar or array)."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr <= 0.0):
            raise DomainError("filter argument t must be positive")
        out = self._evaluate(t_arr)
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    def _evaluate(self, t):
        """s_lambda on a float array of t >= 0; refuses a t beyond the
        family's spectrum bound."""
        family = _FAMILIES[self.kind]
        if np.any(family.beyond(t)):
            raise ModelError(f"{self.kind} requires a spectrum bounded by "
                             f"{family.spectrum_bound:g}; rescale the "
                             f"problem so mu_1 <= {family.spectrum_bound:g}")
        return family.value(t, self.lam)

    def at_eigenvalues(self, eigs):
        """Filter applied to empirical eigenvalues; clips roundoff negatives.

        Uses the analytic limits at t = 0 (Tikhonov 1/lambda, cutoff 0,
        Landweber m), needed when s acts on rank-deficient matrices.
        """
        return self._evaluate(np.clip(np.asarray(eigs, dtype=float), 0.0,
                                      None))

    def on_spectrum(self, problem):
        """s_lambda(mu_j) over the problem spectrum, validating the model."""
        return self._evaluate(problem.mu)

    def response(self, problem):
        """s_lambda(mu_j) sigma_j: singular values of s(B) A*."""
        return self.on_spectrum(problem) * problem.sigma_sv


def certify_filter(kind, problem, n_lambda=50, n_t=10_000):
    """Numerically verify the three filter bounds on a log t-grid.

    Sweeps ``n_lambda`` filters across [mu_J, mu_1] (Landweber's at
    lambda = 1/m, m = 1 ... 10,000) and C_nu at the half-integers nu up to
    min(q, _QUALIFICATION_CAP); returns the worst signed margins,
    nonnegative where the declared constants hold.
    """
    t = np.exp(np.linspace(np.log(problem.mu[-1]), np.log(problem.mu[0]), n_t))
    if kind == "landweber":
        # every m from 1 up, which a sweep over [mu_J, mu_1] misses where
        # mu_1 < 1
        lams = 1.0 / np.unique(np.geomspace(1, 10_000, n_lambda).astype(int))
    else:
        lams = np.exp(np.linspace(np.log(problem.mu[-1]),
                                  np.log(problem.mu[0]), n_lambda))
    filters = [FilterSpec(kind, lam) for lam in lams]
    family = _FAMILIES[kind]
    top = min(family.qualification, _QUALIFICATION_CAP)
    margin_d = margin_e = margin_q = np.inf
    for filt in filters:
        s = filt.value(t)
        margin_d = min(margin_d, 1.0 - np.max(np.abs(t * s)))
        margin_e = min(margin_e, 1.0 - np.max(np.abs(filt.lam * s)))
        residual = np.abs(1.0 - t * s)
        for nu in np.arange(int(2 * top) + 1) / 2.0:
            lhs = np.max(t ** nu * residual)
            margin_q = min(margin_q, family.c_nu(nu) * filt.lam ** nu - lhs)
    return {"D": float(margin_d), "E": float(margin_e),
            "qualification": float(margin_q)}


def solve_continuous(problem, filt, y):
    """f = s(B) A* y in coordinates: coeffs_j = s(mu_j) sigma_j y_j."""
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.size,):
        raise ShapeError("data length does not match the problem")
    return filt.response(problem) * y


def estimator_paper(problem, filt, samples):
    """s(B) applied to the empirical moment (1/n) sum_i Y_i phi_{X_i}.

    coeffs_j = s(mu_j) sigma_j (1/n) sum_i Y_i u_j(X_i), the sum
    accumulated over blocks of the basis (``_basis_blocks``).
    """
    moment = np.zeros(problem.size)
    for rows, u in _basis_blocks(problem, samples.design):
        moment += u.T @ samples.outputs[rows]
    return filt.response(problem) * (moment / samples.size)


def estimator_learn(problem, filt, samples):
    """Classical kernel estimator s(A_x* A_x) A_x* y, computed in J-space.

    With feature rows Phi = u diag(sigma), A_x* A_x is the J-by-J empirical
    covariance C = Phi' Phi / n and A_x* y the moment m = Phi' y / n.
    Tikhonov is one linear solve, f = (C + lambda I)^{-1} m; cutoff and
    Landweber take the eigendecomposition C = V diag(e) V' and return
    f = V s(e) V' m.  C and m are sums over the samples, accumulated over
    blocks of the basis (``_basis_blocks``), so the memory is
    O(block J + J^2) with blocks of at most ``_BLOCK_CELLS`` entries, and
    no n-by-J array is formed.  The cost is O(n J^2 + J^3);
    ``kernel_tikhonov`` is the dense n-by-n reference.
    """
    n = samples.size
    cov = np.zeros((problem.size, problem.size))
    moment = np.zeros(problem.size)
    for rows, phi in _basis_blocks(problem, samples.design):
        phi *= problem.sigma_sv
        cov += phi.T @ phi
        moment += phi.T @ samples.outputs[rows]
    cov /= n
    moment /= n
    if filt.kind == "tikhonov":
        cov.flat[::problem.size + 1] += filt.lam
        try:
            return np.linalg.solve(cov, moment)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise NumericalError(
                f"covariance system is singular: {exc}") from exc
    eigs, vecs = np.linalg.eigh(cov)
    return vecs @ (filt.at_eigenvalues(eigs) * (vecs.T @ moment))


def _grid_learn(problem, filt, y, n):
    """learn-n on the noiseless n-point midpoint grid, for the clean data
    y = A f: what ``estimator_learn`` returns on the outputs y(x_i), in
    O(J) and with no basis, covariance or solve.

    On the grid the covariance is diag(sigma) M diag(sigma), with the grid
    Gram matrix M of ``grid_aliasing``, and the moment is
    diag(sigma) M y.  Restricted to the modes S_m of alias class m, with
    signs s_j and weight D_m, the covariance is D_m v v' with v = sigma s,
    and the moment is D_m alpha_m v with alpha_m = sum_{k in S_m} s_k y_k.
    So the moment lies on the class's one eigenvector v, of eigenvalue
    t_m = D_m sum_{k in S_m} mu_k, and the fit is
    f_j = s_lambda(t_m) sigma_j (M y)_j.  Class 0 (D_0 = 0) gives 0.
    A t_m beyond the family's spectrum bound raises ``ModelError``, as
    ``estimator_learn`` does on that eigenvalue.
    """
    classes, _, weights = grid_aliasing(problem, n)
    eigs = weights * np.bincount(classes, problem.mu)[classes]
    return (filt.at_eigenvalues(eigs) * problem.sigma_sv
            * grid_gram_product(problem, n, y))


def kernel_tikhonov(problem, samples, lam):
    """Solve (K + lambda n I) beta = y; return the pair (beta, g_coeffs) of
    the (n,) weights and the (J,) range element g = sum beta_i K_{x_i}.

    This dense n-by-n solve is the kernel-side reference: the range element
    g comes back in output-basis coordinates g_j = mu_j sum_i beta_i
    u_j(x_i), and pulling g back to parameter space must reproduce the
    J-space Tikhonov ``estimator_learn`` solution.
    """
    _refuse_faults(**{"lambda": lam})
    n = samples.size
    u = basis_matrix(problem, samples.design)
    system = _gram_entries(problem, u)
    system.flat[::n + 1] += lam * n
    try:
        beta = np.linalg.solve(system, samples.outputs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"kernel system is singular: {exc}") from exc
    return beta, problem.mu * (u.T @ beta)

