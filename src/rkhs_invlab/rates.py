"""Rate calculus: operator norms, the n <-> delta bridge, and slope fits.

In the diagonal model the reconstruction operator L = s(B) A* has singular
values s(mu_j) sigma_j, so

    ||L||_HS  = sqrt(sum_j s(mu_j)^2 mu_j),
    ||L||_op  = max_j s(mu_j) sigma_j.

The bridge between a sample count n and a noise level delta at fixed
filter parameter lambda is

    Delta(n) = sqrt(sigma^2/n + eps^2) - eps
             = sigma (1/n) / (sqrt(1/n + t^2) + t),
    N(delta) = sigma^2 / (delta^2 + 2 delta eps) = 1 / (q^2 + 2 q t),

with eps = ||f_lam - f_true|| / ||L||_HS, t = eps / sigma and q = delta /
sigma; the two maps are exact inverses.  Both are evaluated in the second,
sigma-scaled form, so sigma^2 is never formed: Delta(1) = sigma at eps = 0
for every float sigma > 0.  Delta's root is hypot(sqrt(1/n), t), so t^2 is
not formed either: Delta(1) = 5e-161 at sigma = 1, eps = 1e160.  Its
denominator t + hypot overflows near t = 9e307, so Delta(1) at sigma = 1,
eps = 1e308 (about 5e-309) raises.  Delta takes a finite n >= 1 and N a
finite delta > 0, booleans refused (``DomainError``), and both sigma > 0
and eps by their ``_RULES`` rows.  Where a square, a denominator or the
result leaves the float range (Delta(1e300) = 1e-450 at sigma = 1e-300,
eps = 0) they raise NumericalError.  eps is taken at the worst case over
the source ball {mu^r w : ||w|| <= 1}, bias over ||L||_HS.

Worst cases over that ball, exact in O(J) as the filter is diagonal:

    bias     = max_j |1 - s(mu_j) mu_j| mu_j^r, attained at one mode,
    risk     = bias^2 + sigma^2/n ||L||_HS^2   (midpoint grid, n > J),
    error    = (bias + delta ||L||_op)^2       (data error of norm delta),
    gamma    = min(r, q) + 1/2 + 1/(2b)        (eps ~ lambda^gamma),

with q the family's qualification (``regularization._FAMILIES``).  The
error bound is attained where the bias and ||L||_op share a mode.

Rate conversion between squared-error exponents:

  upper bounds, n -> delta (error O(n^-alpha), lambda_n ~ n^-p,
  eps ~ lambda^gamma, gamma the family's derived one):
      p*gamma >= 1/2 : exponent 2*alpha,        lambda_delta ~ delta^(2p)
      p*gamma <  1/2 : exponent alpha/(1-p*gamma),
                       lambda_delta ~ delta^(p/(1-p*gamma))

  lower bounds, delta -> n (error Omega(delta^alpha), lambda ~ delta^pstar):
      pstar*gamma >= 1 : exponent alpha/2,      lambda_n ~ n^(-pstar/2)
      pstar*gamma <  1 : exponent alpha/(1+pstar*gamma),
                         lambda_n ~ n^(-pstar/(1+pstar*gamma))

The loss factor tau = (2r+1+1/b)/(2r+1) (Tikhonov variant: 2/b in place of
1/b) measures how much slower the sample-count-optimal rate is than the
noise-level-optimal one under the same source smoothness.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalError, ParameterError, ShapeError
from .regularization import _FAMILIES
from .sampling import _DESIGNS
from .spectral_model import (_finite_number, _positive_number, _refuse_faults,
                             forward_data, grid_aliasing, grid_gram_product)


def hs_norm(problem, filt):
    """Hilbert-Schmidt norm of the reconstruction operator."""
    s = filt.on_spectrum(problem)
    return float(np.sqrt(np.sum(s ** 2 * problem.mu)))


def operator_norm(problem, filt):
    """Spectral norm max_j s(mu_j) sigma_j of the reconstruction operator."""
    return float(np.max(filt.response(problem)))


def paper_variance(problem, filt, f_true, sigma, n, design):
    """Variances of the J coefficients r_j (1/n) sum_i u_j(x_i) Y_i of one
    paper-n estimate, r_j = s(mu_j) sigma_j, with data y = A f_true.

    On the midpoint grid only the noise varies: r_j**2 sigma**2 D_m / n,
    D_m from ``grid_aliasing``.  On iid designs each point adds one
    independent u_j(x) (g(x) + sigma zeta), g = sum_k y_k u_k, so the
    variance is r_j**2 / n (E[g**2 u_j**2] + sigma**2 - y_j**2).  As
    E[u_j**2 u_k u_l] = [k = l] - [|k - l| = 2j] / 2 + [k + l = 2j] / 2,
    E[g**2 u_j**2] is ||y||**2 - sum_k y_k y_{k+2j} + sum_{k+l=2j} y_k y_l
    / 2: one correlation and one convolution of y, with no basis.
    """
    _refuse_faults(sigma=sigma, n=n)
    if design not in _DESIGNS:
        raise ParameterError(f"unknown design scheme: {design!r}")
    y = forward_data(problem, f_true)
    weight = filt.response(problem) ** 2 / n
    if design == "grid":
        return weight * sigma ** 2 * grid_aliasing(problem, n)[2]
    # the lags 2j of the autocorrelation, and the sums over k + l = 2j,
    # which the convolution holds at index 2j - 2
    lagged = np.correlate(np.pad(y, (0, 2 * y.size)), y, "valid")[2::2]
    paired = np.convolve(y, y)[::2]
    return weight * (y @ y - lagged + 0.5 * paired + sigma ** 2 - y ** 2)


def paper_risk(problem, filt, f_true, sigma, n, design):
    """Exact risk of one paper-n estimate: ||r (M y) - f_true||**2 plus the
    summed ``paper_variance``, with r_j = s(mu_j) sigma_j, y = A f_true and
    M the grid Gram matrix on the midpoint grid (any n), I on iid designs."""
    variance = paper_variance(problem, filt, f_true, sigma, n, design)
    y = forward_data(problem, f_true)
    if design == "grid":
        y = grid_gram_product(problem, n, y)
    bias2 = np.sum((filt.response(problem) * y - f_true) ** 2)
    return float(bias2 + np.sum(variance))


def worst_case_bias(problem, filt, r):
    """max_j |1 - s(mu_j) mu_j| mu_j^r over the source ball, and the mode
    j (from 1) that attains it."""
    _refuse_faults(r=r)
    mu = problem.mu
    bias = np.abs(1.0 - filt.on_spectrum(problem) * mu) * mu ** r
    j = int(np.argmax(bias))
    return float(bias[j]), j + 1


def derived_gamma(r, b, q):
    """The exponent of the worst-case eps ~ lambda^gamma of a family of
    qualification q: min(r, q) + 1/2 + 1/(2b).  r and b must pass their
    rules (``spectral_model._RULES``)."""
    _refuse_faults(r=r, b=b)
    return min(r, q) + 0.5 + 0.5 / b


def worst_case_risk(problem, filt, r, sigma, n):
    """Worst-case paper-n risk on the midpoint grid, bias^2 + sigma^2/n
    ||L||_HS^2; exact for n > J only, where the grid Gram matrix is I."""
    _refuse_faults(sigma=sigma, n=n)
    if not n > problem.size:
        raise DomainError(f"n must exceed J = {problem.size}, got {n!r}")
    bias, _ = worst_case_bias(problem, filt, r)
    return bias ** 2 + sigma ** 2 / n * hs_norm(problem, filt) ** 2


def worst_case_error(problem, filt, r, delta):
    """(bias + delta ||L||_op)^2, a bound on the squared error of the
    continuous reconstruction over the source ball and every data error of
    norm delta; the bound is attained where bias and ||L||_op share a mode."""
    _refuse_faults(delta=delta)
    bias, _ = worst_case_bias(problem, filt, r)
    return (bias + delta * operator_norm(problem, filt)) ** 2


def _check_bridge(sigma, epsilon):
    """sigma and eps as Python floats, whose quotients over- and underflow
    without numpy's warnings: both pass their ``_RULES`` rows, and
    sigma > 0."""
    _refuse_faults(sigma=sigma, epsilon=epsilon)
    if sigma == 0:
        raise ParameterError("sigma must be > 0 in the bridge, got 0")
    return float(sigma), float(epsilon)


def _bridge_value(formula, evaluate):
    """evaluate(), if a finite float > 0; a NumericalError where a square,
    a denominator or the quotient of ``formula`` under- or overflows."""
    try:
        value = evaluate()
    except ZeroDivisionError:
        value = math.nan
    if not 0.0 < value < math.inf:  # NaN included
        raise NumericalError(f"{formula} under- or overflows")
    return value


def delta_of(n, sigma, epsilon):
    """Largest noise level whose error is dominated by the n-sample risk.

    Delta(n) = sigma (1/n) / (sqrt(1/n + t^2) + t) with t = eps / sigma
    and the root taken as hypot(sqrt(1/n), t); equals sqrt(sigma^2/n +
    eps^2) - eps by conjugate rationalization.  At eps = bias / ||L||_HS,
    (bias + Delta ||L||_HS)^2 is the grid ``paper_risk`` for n > J, above
    every error at noise level Delta as ||L||_op <= ||L||_HS.
    """
    sigma, epsilon = _check_bridge(sigma, epsilon)
    if not (_finite_number(n) and n >= 1):  # NaN and booleans included
        raise DomainError(f"n must be a finite number >= 1, got {n!r}")
    v, t = 1.0 / float(n), epsilon / sigma
    return _bridge_value("Delta(n)", lambda: sigma * (
        v / (math.hypot(math.sqrt(v), t) + t)))


def n_of(delta, sigma, epsilon):
    """Largest sample count dominated by noise level delta; also its floor.

    N(delta) = 1 / (q^2 + 2 q t) = sigma^2 / (delta^2 + 2 delta eps) with
    q = delta / sigma and t = eps / sigma; exact inverse of :func:`delta_of`.
    """
    sigma, epsilon = _check_bridge(sigma, epsilon)
    if not (_finite_number(delta) and delta > 0):  # NaN and booleans included
        raise DomainError(f"delta must be a finite number > 0, got {delta!r}")
    q, t = float(delta) / sigma, epsilon / sigma
    value = _bridge_value("N(delta)", lambda: 1.0 / (q * q + 2.0 * q * t))
    return value, int(math.floor(value))


@dataclass(frozen=True)
class RateExponents:
    """Exponent bundle for the conversion theorems.

    ``alpha`` is the squared-error rate exponent, ``p`` the sample-count
    schedule exponent (lambda_n ~ n^-p), ``p_star`` the noise-level
    schedule exponent (lambda_delta ~ delta^p_star), ``gamma`` the bias
    ratio exponent (eps ~ lambda^gamma).  Each given exponent is a finite
    number > 0.
    """

    alpha: float
    gamma: float
    p: float | None = None
    p_star: float | None = None

    def __post_init__(self):
        for name in ("alpha", "gamma", "p", "p_star"):
            value = getattr(self, name)
            if value is not None and not _positive_number(value):
                raise ParameterError(f"{name} must be a finite number > 0, "
                                     f"got {value!r}")


class ConvertedRate(NamedTuple):
    exponent: float
    lambda_exponent: float
    case: str


# Relative tolerance of a branch boundary: p*gamma = 1/2 or p_star*gamma
# = 1 is often reached only up to the roundoff of the exponent arithmetic
# (r = 1/4, b = 5/2, gamma = 0.95 gives p*gamma = 0.49999999999999994).
_TIE_RTOL = 4.0 * np.finfo(float).eps


def _at_least(value, bound):
    """value >= bound, counting a relative shortfall of _TIE_RTOL as a tie."""
    return value >= bound * (1.0 - _TIE_RTOL)


def convert_upper(exponents):
    """Squared-error upper rate in delta from one in n.

    Boundary p*gamma = 1/2 belongs to the fast branch, and so does any
    p*gamma within a relative 4 eps (a few ulps) below it.  Both branches
    give the same exponent at the boundary, so the tie rule decides only
    the ``case`` label.
    """
    if exponents.p is None:
        raise ParameterError("convert_upper requires the schedule exponent p")
    p, gamma, alpha = exponents.p, exponents.gamma, exponents.alpha
    if _at_least(p * gamma, 0.5):
        return ConvertedRate(2.0 * alpha, 2.0 * p, "fast")
    return ConvertedRate(alpha / (1.0 - p * gamma),
                         p / (1.0 - p * gamma), "slow")


def convert_lower(exponents):
    """Squared-error lower rate in n from one in delta.

    Boundary p_star*gamma = 1 belongs to the fast branch, and so does any
    p_star*gamma within a relative 4 eps (a few ulps) below it.  Both
    branches give the same exponent at the boundary, so the tie rule
    decides only the ``case`` label.
    """
    if exponents.p_star is None:
        raise ParameterError("convert_lower requires the schedule exponent "
                             "p_star")
    p_star, gamma, alpha = exponents.p_star, exponents.gamma, exponents.alpha
    if _at_least(p_star * gamma, 1.0):
        return ConvertedRate(alpha / 2.0, p_star / 2.0, "fast")
    return ConvertedRate(alpha / (1.0 + p_star * gamma),
                         p_star / (1.0 + p_star * gamma), "slow")


def loss_factor_tau(r, b, variant="general"):
    """Exponent ratio between noise-level-optimal and converted rates.

    general:  (2r + 1 + 1/b) / (2r + 1), always in (1, 2);
    tikhonov: (2r + 1 + 2/b) / (2r + 1), always in (1, 3).  r and b must
    pass their rules (``spectral_model._RULES``).
    """
    _refuse_faults(r=r, b=b)
    if variant == "general":
        return (2.0 * r + 1.0 + 1.0 / b) / (2.0 * r + 1.0)
    if variant == "tikhonov":
        return (2.0 * r + 1.0 + 2.0 / b) / (2.0 * r + 1.0)
    raise ParameterError(f"unknown variant: {variant!r}")


def statistical_exponents(r, b, kind):
    """Exponent bundle of the sample-count-optimal schedule of the filter
    family ``kind``, a name of ``regularization._FAMILIES``.

    alpha = 2r/(2r+1+1/b) with lambda_n ~ n^(-1/(2r+1+1/b)); the
    noise-level-optimal schedule exponent p_star = 2/(2r+1) is attached for
    lower-rate conversion, and gamma is ``derived_gamma`` at the family's
    qualification q.  Only gamma depends on the family.  r and b must pass
    their rules (``spectral_model._RULES``).
    """
    _refuse_faults(r=r, b=b)
    if kind not in _FAMILIES:
        raise ParameterError(f"unknown filter kind: {kind!r}")
    denom = 2.0 * r + 1.0 + 1.0 / b
    return RateExponents(alpha=2.0 * r / denom, p=1.0 / denom,
                         p_star=2.0 / (2.0 * r + 1.0),
                         gamma=derived_gamma(r, b,
                                             _FAMILIES[kind].qualification))


def classical_exponents(r, b, kind):
    """Exponent bundle of the classical noise-level rate of the filter
    family ``kind``.

    alpha = 4r/(2r+1): the squared error ~ delta^alpha of the
    noise-level-optimal schedule lambda_delta ~ delta^p_star, with p_star
    and gamma as ``statistical_exponents`` gives them.
    """
    stat = statistical_exponents(r, b, kind)
    return RateExponents(alpha=4.0 * r / (2.0 * r + 1.0), gamma=stat.gamma,
                         p_star=stat.p_star)


@dataclass(frozen=True)
class RateFit:
    """Ordinary least squares in log-log coordinates."""

    slope: float
    intercept: float
    stderr: float
    points: tuple


def fit_rate(points):
    """Fit log y = slope * log x + intercept; needs >= 2 distinct x and
    finite coordinates > 0."""
    pts = [(float(x), float(y)) for x, y in points]
    if len({x for x, _ in pts}) < 2:
        raise ShapeError("rate fit needs at least two distinct x values")
    if not all(0.0 < v < math.inf for pt in pts for v in pt):  # NaN included
        raise DomainError("rate fit needs finite, strictly positive "
                          "coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    n = lx.size
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    if n > 2:
        residuals = ly - (slope * lx + intercept)
        stderr = float(np.sqrt(np.sum(residuals ** 2) / (n - 2) / sxx))
    else:
        stderr = 0.0
    return RateFit(slope=slope, intercept=intercept, stderr=stderr,
                   points=tuple(pts))

