"""Rate calculus: operator norms, the n <-> delta bridge, and slope fits.

In the diagonal model the reconstruction operator L = s(B) A* has singular
values s(mu_j) sigma_j, so

    ||L||_HS  = sqrt(sum_j s(mu_j)^2 mu_j),
    ||L||_op  = max_j s(mu_j) sigma_j.

The bridge between a sample count n and a noise level delta at fixed
filter parameter lambda is

    Delta(n) = (sigma^2/n) / (sqrt(sigma^2/n + eps^2) + eps)
             = sqrt(sigma^2/n + eps^2) - eps,
    N(delta) = sigma^2 / (delta^2 + 2 delta eps),

with eps = ||f_lam - f_true|| / ||L||_HS; the two maps are exact inverses.

Rate conversion between squared-error exponents:

  upper bounds, n -> delta (error O(n^-alpha), lambda_n ~ n^-p,
  eps ~ lambda^gamma):
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

from .errors import DomainError, ModelError, ParameterError, ShapeError
from .regularization import solve_continuous
from .spectral_model import (_finite_number, _positive_number, _refuse_faults,
                             forward_data)


def hs_norm(problem, filt):
    """Hilbert-Schmidt norm of the reconstruction operator."""
    s = filt.on_spectrum(problem)
    return float(np.sqrt(np.sum(s ** 2 * problem.mu)))


def operator_norm(problem, filt):
    """Spectral norm max_j s(mu_j) sigma_j of the reconstruction operator."""
    return float(np.max(filt.response(problem)))


def epsilon_lambda(problem, filt, f_true):
    """Reconstruction bias over HS norm: ||f_lam - f_true|| / ||L||_HS."""
    hs = hs_norm(problem, filt)
    if hs == 0.0:
        raise ModelError("filter annihilates the whole spectrum; the "
                         "bias-to-HS ratio is undefined")
    f_lam = solve_continuous(problem, filt, forward_data(problem, f_true))
    bias = float(np.linalg.norm(f_lam - f_true))
    return bias / hs


def _check_bridge(sigma, epsilon):
    """Refuse a noise std that is not a finite number > 0 or an eps that
    is not a finite number >= 0."""
    if not _positive_number(sigma):
        raise ParameterError(
            f"sigma must be a finite number > 0, got {sigma!r}")
    if not (_finite_number(epsilon) and epsilon >= 0.0):
        raise ParameterError(
            f"epsilon must be a finite number >= 0, got {epsilon!r}")


def delta_of(n, sigma, epsilon):
    """Largest noise level whose error is dominated by the n-sample risk.

    Delta(n) = (sigma^2/n) / (sqrt(sigma^2/n + eps^2) + eps); equals
    sqrt(sigma^2/n + eps^2) - eps by conjugate rationalization.
    """
    _check_bridge(sigma, epsilon)
    if not n >= 1:  # NaN included
        raise DomainError(f"n must be at least 1, got {n!r}")
    v = sigma ** 2 / float(n)
    return v / (math.sqrt(v + epsilon ** 2) + epsilon)


def n_of(delta, sigma, epsilon):
    """Largest sample count dominated by noise level delta; also its floor.

    N(delta) = sigma^2 / (delta^2 + 2 delta eps); exact inverse of
    :func:`delta_of`.
    """
    _check_bridge(sigma, epsilon)
    if not delta > 0.0:  # NaN included
        raise DomainError(f"delta must be positive, got {delta!r}")
    value = sigma ** 2 / (delta ** 2 + 2.0 * delta * epsilon)
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
    pass their rules (``spectral_model._MODEL_RULES``).
    """
    _refuse_faults(r=r, b=b)
    if variant == "general":
        return (2.0 * r + 1.0 + 1.0 / b) / (2.0 * r + 1.0)
    if variant == "tikhonov":
        return (2.0 * r + 1.0 + 2.0 / b) / (2.0 * r + 1.0)
    raise ParameterError(f"unknown variant: {variant!r}")


def statistical_exponents(r, b, gamma=None):
    """Exponent bundle of the sample-count-optimal schedule.

    alpha = 2r/(2r+1+1/b) with lambda_n ~ n^(-1/(2r+1+1/b)); the
    noise-level-optimal schedule exponent p_star = 2/(2r+1) is attached for
    lower-rate conversion.  gamma defaults to the nominal Tikhonov value
    r + 1/2.  r and b must pass their rules (``spectral_model._MODEL_RULES``).
    """
    _refuse_faults(r=r, b=b)
    denom = 2.0 * r + 1.0 + 1.0 / b
    return RateExponents(alpha=2.0 * r / denom, p=1.0 / denom,
                         p_star=2.0 / (2.0 * r + 1.0),
                         gamma=(r + 0.5) if gamma is None else float(gamma))


def classical_exponents(r, b, gamma=None):
    """Exponent bundle of the classical noise-level rate.

    alpha = 4r/(2r+1): the squared error ~ delta^alpha of the
    noise-level-optimal schedule lambda_delta ~ delta^p_star, with p_star
    and gamma as ``statistical_exponents`` gives them.
    """
    stat = statistical_exponents(r, b, gamma)
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


def lambda_schedule(kind, c, exponent, value):
    """A-priori filter schedules: by-n gives c*n^-exponent, by-delta
    gives c*delta^exponent."""
    for name, number in (("constant", c), ("exponent", exponent),
                         ("argument", value)):
        if not _positive_number(number):
            raise ParameterError(
                f"schedule {name} must be a finite number > 0: {number!r}")
    if kind == "by-n":
        return c * float(value) ** (-exponent)
    if kind == "by-delta":
        return c * float(value) ** exponent
    raise ParameterError(f"unknown schedule kind: {kind!r}")
