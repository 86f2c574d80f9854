"""Built-in property suite behind the ``verify`` CLI subcommand.

``ALL_CHECKS`` is the one home of the library's desk-scale invariants:
each check states one documented identity or bound together with its
set-up and tolerance, and the unit tests keep edge cases, worked values
and error paths only.  ``range-norm-isometry`` is the one home of the
range-norm isometry ||A f||_K = ||f||, and ``kernel-closed-form`` of the
kernel's values against the Brownian-bridge covariance; no study repeats
them.  ``reproducing-property`` sums its series from np.sin, so it reads
no evaluator of the package.  ``kernel-vs-parameter-tikhonov`` runs the
study function ``equivalence_deviations`` instead of a copy of it.
``worst-case-conversion`` judges the n -> delta conversion on the exact
worst cases over the source ball, where one fixed truth cannot show it: it
runs the bridge study's function ``_bridge_fits`` at one point and
holds it to that study's thresholds.
Every check has a mutation of the program in tests/test_mutations.py under
which it fails, so no check here holds for any input of the code it calls.
The whole suite runs in about a second.
Checks are deterministic given the seed; each returns its name, a pass
flag and a one-line numeric detail.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import streams
from .experiments import _STUDIES, _bridge_fits, equivalence_deviations
from .rates import delta_of, fit_rate, loss_factor_tau, n_of, paper_risk
from .regularization import (_FAMILIES, FilterSpec, certify_filter,
                             estimator_paper, kernel_tikhonov)
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
    """``eval_function`` against the series sum_j g_j sqrt(2) sin(j pi x)
    summed here, with each angle j x reduced mod 2 exactly (as a Fraction)
    before np.sin, so no evaluator of the package enters the series."""
    size = 50
    problem = build_power_law_problem(size, 2.0, 1.0)
    rng = streams.generator(seed, streams.GENERIC_STREAM, 4)
    worst = 0.0
    for _ in range(25):
        g = rng.standard_normal(size)
        x = float(rng.random())
        direct = eval_function(problem, g, x)
        # j x mod 2, shifted into [-1, 1)
        turns = [float((Fraction(x) * j + 1) % 2 - 1)
                 for j in range(1, size + 1)]
        series = math.sqrt(2.0) * float(g @ np.sin(np.pi * np.array(turns)))
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
    betas = [kernel_tikhonov(problem, samples, lam)[0]
             for lam in (1e-2 * scale, 1e-4 * scale, 1e-6 * scale,
                         1e-8 * scale)]
    gaps = [float(np.linalg.norm(b2 - b1))
            for b1, b2 in zip(betas, betas[1:])]
    cauchy = all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))
    _, g = kernel_tikhonov(problem, samples, 1e-10 * scale)
    # K beta = u (mu u' beta) = u g
    residual = float(np.max(np.abs(samples.outputs - u @ g)))
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
    """tau in (1, 2) (general) and (1, 3) (Tikhonov), tending to 1 as
    b -> inf and, as r -> 0, to 1 + 1/b and 1 + 2/b, which tells the two
    variants apart."""
    taus = [(r, b, loss_factor_tau(r, b, "general"),
             loss_factor_tau(r, b, "tikhonov"))
            for r in (0.5, 1.0, 2.0, 3.0) for b in (1.1, 1.5, 2.0, 4.0, 10.0)]
    bounded = all(1.0 < tg < 2.0 and 1.0 < tt < 3.0 for _, _, tg, tt in taus)
    asymptote = abs(loss_factor_tau(1.0, 1e3, "general") - 1.0) <= 1e-3
    gap = max(abs(loss_factor_tau(1e-9, 2.0, "general") - 1.5),
              abs(loss_factor_tau(1e-9, 2.0, "tikhonov") - 2.0))
    return _result("loss-factor-bounds", bounded and asymptote and gap <= 1e-6,
                   f"tau in (1,2) / (1,3), b->inf asymptote, "
                   f"r->0 gap={gap:.1e}")


def check_worst_case_conversion(seed):
    """The n -> delta conversion on the worst cases at r = 1/2, b = 2,
    J = 1,000 and sigma = 0.1, at nine n from 2e3 to 2e7 (the bridge
    study's ``_bridge_fits``): each fitted exponent within the bridge
    threshold of its theory.  The nominal gamma = r + 1/2 puts the
    conversion on the slow branch, 2/3 in place of 0.8."""
    _, fits = _bridge_fits(build_power_law_problem(1000, 2.0, 1.0), 0.5, 2.0,
                           0.1, np.geomspace(2e3, 2e7, 9).round().astype(int))
    thresholds = _STUDIES["bridge"].thresholds
    devs = {name: abs(fit.slope - theory)
            for name, (fit, theory) in fits.items()}
    detail = ", ".join(f"{name} {fit.slope:.4f} vs {theory:.4f} "
                       f"(dev {devs[name]:.1e})"
                       for name, (fit, theory) in fits.items())
    return _result("worst-case-conversion",
                   all(devs[name] <= thresholds[name] for name in devs),
                   detail)


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
    exact = paper_risk(problem, filt, truth, sigma, n, "grid")
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
    check_worst_case_conversion,
    check_mini_monte_carlo,
)


def run_all(seed=20260809):
    """Run every invariant check; returns the list of results."""
    return [check(seed) for check in ALL_CHECKS]
