"""Built-in property suite behind the ``verify`` CLI subcommand.

``ALL_CHECKS`` is the one home of the library's desk-scale invariants:
each check states one documented identity or bound together with its
set-up and tolerance, and the unit tests keep edge cases, worked values
and error paths only.  ``range-norm-isometry`` is the one home of the
range-norm isometry ||A f||_K = ||f||, and ``kernel-closed-form`` of the
kernel's values against the Brownian-bridge covariance; no study repeats
them.  ``kernel-vs-parameter-tikhonov`` runs the study function
``equivalence_deviations`` instead of a copy of it.  Every check has a
mutation of the program in tests/test_mutations.py under which it fails,
so no check here holds for any input of the code it calls.  The whole
suite runs in about a second.
Checks are deterministic given the seed; each returns its name, a pass
flag and a one-line numeric detail.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .experiments import equivalence_deviations
from .rates import (delta_of, epsilon_lambda, fit_rate, hs_norm,
                    loss_factor_tau, n_of)
from .regularization import (_FAMILIES, FilterSpec, certify_filter,
                             estimator_paper, kernel_tikhonov,
                             solve_continuous)
from .rkhs import gram_matrix, kernel_eval, rkhs_norm
from .sampling import (PerturbationSpec, perturb_data, sample_design,
                       sample_outputs)
from .spectral_model import (basis_matrix, build_power_law_problem,
                             eval_function, forward_data,
                             make_source_solution)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _house_problem(size=100, b=2.0, d=1.0, r=1.0):
    problem = build_power_law_problem(size, b, d)
    j = np.arange(1, size + 1, dtype=float)
    truth = make_source_solution(problem, r, j ** -1.0)
    return problem, truth


def check_parseval(seed):
    problem = build_power_law_problem(40, 2.0, 1.0)
    rng = streams.generator(seed, streams.GENERIC_STREAM, 1)
    coeffs = rng.standard_normal(40)
    grid = (np.arange(10_000) + 0.5) / 10_000
    values = basis_matrix(problem, grid) @ coeffs
    quad = float(np.mean(values ** 2))
    exact = float(np.sum(coeffs ** 2))
    rel = abs(quad - exact) / exact
    return _result("parseval-quadrature", rel < 1e-3, f"rel={rel:.2e}")


def check_partial_isometry(seed):
    problem = build_power_law_problem(80, 2.0, 1.0)
    rng = streams.generator(seed, streams.GENERIC_STREAM, 3)
    worst = 0.0
    for _ in range(100):
        f = rng.standard_normal(80)
        norm_f = float(np.linalg.norm(f))
        worst = max(worst, abs(rkhs_norm(problem, forward_data(problem, f))
                               - norm_f) / norm_f)
    return _result("range-norm-isometry", worst <= 1e-10, f"max rel={worst:.2e}")


def check_reproducing_property(seed):
    problem = build_power_law_problem(50, 2.0, 1.0)
    rng = streams.generator(seed, streams.GENERIC_STREAM, 4)
    worst = 0.0
    for _ in range(25):
        g = rng.standard_normal(50)
        x = float(rng.random())
        direct = eval_function(problem, g, x)
        u = basis_matrix(problem, x)[0]
        series = float(np.sum(g * u))
        worst = max(worst, abs(direct - series) / max(1.0, abs(direct)))
    return _result("reproducing-property", worst <= 1e-10, f"max={worst:.2e}")


def check_kernel_closed_form(seed):
    """At b = 2 and d = pi^-2 the untruncated kernel
    sum_j 2 sin(j pi x) sin(j pi x') / (pi j)^2 is min(x, x') - x x', the
    Brownian-bridge covariance (Wahba, Spline Models for Observational
    Data, 1990).  The J-term sums drop sum_{j>J} 2 / (pi j)^2 < 2/(pi^2 J)
    at most, and read about half of that."""
    size = 100
    problem = build_power_law_problem(size, 2.0, math.pi ** -2)
    rng = streams.generator(seed, streams.GENERIC_STREAM, 5)
    points = rng.random(40)
    closed = np.minimum.outer(points, points) - np.outer(points, points)
    gap = float(np.max(np.abs(gram_matrix(problem, points).entries
                              - closed)))
    for i in range(10):
        gap = max(gap, abs(kernel_eval(problem, points[i], points[i + 10])
                           - closed[i, i + 10]))
    bound = 2.0 / (math.pi ** 2 * size)
    return _result("kernel-closed-form", gap < bound,
                   f"max gap={gap:.2e} bound={bound:.2e}")


def check_perturbation_norms(seed):
    problem, truth = _house_problem(60)
    y = forward_data(problem, truth)
    filt = FilterSpec("tikhonov", 0.05)
    worst = 0.0
    for spec in (PerturbationSpec(delta=0.37, mode="random-unit"),
                 PerturbationSpec(delta=0.37, mode="fixed-mode", index=3),
                 PerturbationSpec(delta=0.37, mode="filter-adversarial",
                                  filter=filt)):
        y_delta = perturb_data(problem, y, spec, seed)
        worst = max(worst, abs(float(np.linalg.norm(y_delta - y)) - 0.37))
    return _result("perturbation-norm-exact", worst <= 1e-14,
                   f"max dev={worst:.2e}")


def check_reproducibility(seed):
    problem, truth = _house_problem(40)
    design = sample_design("iid-uniform", 64, seed, index=7)
    first = sample_outputs(problem, truth, design, 0.3, seed, index=7)
    second = sample_outputs(problem, truth, design, 0.3, seed, index=7)
    same = (np.array_equal(first.design, second.design)
            and np.array_equal(first.outputs, second.outputs))
    return _result("seeded-streams-bit-identical", same, "bit-identical")


def check_riemann_slope(seed):
    problem = build_power_law_problem(512, 2.0, 1.0)
    j = np.arange(1, 513, dtype=float)
    y = j ** -1.4
    exact = float(np.sum(y ** 2))
    points = []
    for n in (4, 8, 16, 32):
        grid = sample_design("grid", n)
        emp = float(np.mean(eval_function(problem, y, grid) ** 2))
        points.append((n, abs(emp - exact)))
    slope = fit_rate(points).slope
    return _result("grid-riemann-order", -2.6 <= slope <= -1.6,
                   f"slope={slope:.3f}")


def check_filter_certificates(seed):
    problem = build_power_law_problem(100, 2.0, 1.0)
    worst = np.inf
    for kind in _FAMILIES:
        margins = certify_filter(kind, problem, n_lambda=25, n_t=2500)
        worst = min(worst, min(margins.values()))
    return _result("filter-certificates", worst >= -1e-12,
                   f"worst margin={worst:.2e}")


def check_methods_equivalence(seed):
    """Both deviations of ``equivalence_deviations`` on five random iid
    problems: learn-n against the kernel-side solve, and the kernel-side
    solve's first-order optimality."""
    rng = streams.generator(seed, streams.GENERIC_STREAM, 8)
    worst = 0.0
    for _ in range(5):
        size = int(rng.integers(10, 51))
        problem = build_power_law_problem(size, float(rng.uniform(1.5, 3.0)),
                                          float(rng.uniform(0.5, 2.0)))
        truth = make_source_solution(problem, 1.0, rng.standard_normal(size))
        n = int(rng.integers(5, 31))
        design = sample_design("iid-uniform", n, seed, index=int(rng.integers(1 << 20)))
        samples = sample_outputs(problem, truth, design, seed=seed)
        lam = float(rng.uniform(0.05, 0.5))
        worst = max(worst,
                    *equivalence_deviations(problem, samples, lam).values())
    return _result("kernel-vs-parameter-tikhonov", worst <= 1e-10,
                   f"max rel={worst:.2e}")


def check_representer_limit(seed):
    problem = build_power_law_problem(60, 1.5, 1.0)
    j = np.arange(1, 61, dtype=float)
    truth = make_source_solution(problem, 1.0, j ** -1.0)
    rng = streams.generator(seed, streams.GENERIC_STREAM, 9)
    n = 12
    design = np.clip((np.arange(1, n + 1) - 0.5) / n
                     + rng.uniform(-0.2, 0.2, n) / n, 0.0, 1.0)
    samples = sample_outputs(problem, truth, design, seed=seed)
    u = basis_matrix(problem, design)
    # trace(K) / n with K = u diag(mu) u'
    scale = float(np.sum(problem.mu * (u * u).sum(axis=0))) / n
    betas = [kernel_tikhonov(problem, samples, lam).beta
             for lam in (1e-2 * scale, 1e-4 * scale, 1e-6 * scale,
                         1e-8 * scale)]
    gaps = [float(np.linalg.norm(b2 - b1))
            for b1, b2 in zip(betas, betas[1:])]
    cauchy = all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))
    interp = kernel_tikhonov(problem, samples, 1e-10 * scale)
    # K beta = u (mu u' beta) = u g
    residual = float(np.max(np.abs(samples.outputs
                                   - u @ interp.g_coeffs)))
    return _result("representer-small-lambda-limit",
                   cauchy and residual <= 1e-6,
                   f"cauchy gaps={['%.1e' % g for g in gaps]}, "
                   f"sup residual={residual:.2e}")


def check_rate_identities(seed):
    rng = streams.generator(seed, streams.GENERIC_STREAM, 10)
    # five random links and one with sigma/eps = 1/60, where Delta(n) must
    # be the rationalised quotient: sqrt(v + eps^2) - eps cancels, and
    # N(Delta(n)) then misses n by up to 8e-9 relative on n <= 10^4
    links = [(float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.0, 2.0)))
             for _ in range(5)]
    links.append((0.05, 3.0))
    worst_conj = 0.0
    worst_inv = 0.0
    floors = True
    for sigma, eps in links:
        sigma2 = sigma ** 2
        for n in range(1, 10_001):
            delta = delta_of(n, sigma, eps)
            v = sigma2 / n
            worst_conj = max(worst_conj, abs(delta - (math.sqrt(v + eps * eps)
                                                      - eps)) / max(1.0, v))
            back, floor = n_of(delta, sigma, eps)
            worst_inv = max(worst_inv, abs(back - n) / n)
            floors = floors and floor in (n - 1, n)
    ok = worst_conj <= 1e-12 and worst_inv <= 1e-9 and floors
    return _result("sample-noise-bridge-identities", ok,
                   f"conj={worst_conj:.1e}, inverse={worst_inv:.1e}")


def check_loss_factors(seed):
    taus = [(r, b, loss_factor_tau(r, b, "general"),
             loss_factor_tau(r, b, "tikhonov"))
            for r in (0.5, 1.0, 2.0, 3.0) for b in (1.1, 1.5, 2.0, 4.0, 10.0)]
    bounded = all(1.0 < tg < 2.0 and 1.0 < tt < 3.0 for _, _, tg, tt in taus)
    asymptote = abs(loss_factor_tau(1.0, 1e3, "general") - 1.0) <= 1e-3
    return _result("loss-factor-bounds", bounded and asymptote,
                   "tau in (1,2) / (1,3), b->inf asymptote")


def check_epsilon_report(seed):
    r = 1.0
    problem, truth = _house_problem(100, r=r)
    lams = np.exp(np.linspace(math.log(10 * problem.mu[-1]),
                              math.log(problem.mu[0]), 25))
    eps = [epsilon_lambda(problem, FilterSpec("tikhonov", l), truth)
           for l in lams]
    gamma_hat = fit_rate(list(zip(lams, eps))).slope
    return _result("epsilon-lambda-scaling", 1.3 <= gamma_hat <= 2.1,
                   f"gamma_hat={gamma_hat:.3f} vs nominal {r + 0.5:.2f}")


def check_mini_monte_carlo(seed):
    problem, truth = _house_problem(50)
    filt = FilterSpec("tikhonov", 0.05)
    sigma, n, reps = 0.1, 100, 400
    design = sample_design("grid", n)
    rows = []
    for rep in range(reps):
        samples = sample_outputs(problem, truth, design, sigma, seed,
                                 index=rep)
        rows.append(estimator_paper(problem, filt, samples))
    rows = np.array(rows)
    err2 = np.sum((rows - truth) ** 2, axis=1)
    f_lam = solve_continuous(problem, filt, forward_data(problem, truth))
    # on the midpoint grid with n > J the basis is orthonormal on the
    # points, so the estimate has mean f_lam and covariance
    # sigma^2/n L L': this is the exact risk
    exact = (float(np.sum((f_lam - truth) ** 2))
             + sigma ** 2 / n * hs_norm(problem, filt) ** 2)
    z = (float(err2.mean()) - exact) / float(err2.std(ddof=1) / math.sqrt(reps))
    return _result("monte-carlo-risk-matches-exact", abs(z) <= 3.0,
                   f"z={z:.2f}, mean={err2.mean():.4e} exact={exact:.4e}")


ALL_CHECKS = (
    check_parseval,
    check_partial_isometry,
    check_reproducing_property,
    check_kernel_closed_form,
    check_perturbation_norms,
    check_reproducibility,
    check_riemann_slope,
    check_filter_certificates,
    check_methods_equivalence,
    check_representer_limit,
    check_rate_identities,
    check_loss_factors,
    check_epsilon_report,
    check_mini_monte_carlo,
)


def run_all(seed=20260809):
    """Run every invariant check; returns the list of results."""
    return [check(seed) for check in ALL_CHECKS]
