"""Verification studies: reproducible desk-scale rate and equivalence checks.

Each study kind is one row of ``_STUDIES``, at the foot of this module: its
runner, whose docstring describes the study, the optional config entries
it reads and the fixed thresholds of its checks.  Every study prints one
machine-readable line "STUDY <kind> <pass|fail>".  The Monte-Carlo studies
draw each replicate from its own substream, so a replicate's numbers do
not depend on the others (``_replicate_coeffs``): on iid designs its design
and noisy outputs, as the public sampling path does, and on the midpoint
grid its moment u'Y / n straight from that moment's exact Gaussian law.
An overflow or an invalid operation inside a study is a numerical failure
(``NumericalError``), not a verdict.
"""

import copy
import csv
import json
import math
import operator
import statistics
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from . import streams
from .errors import NumericalError, ParameterError, ValidationError
from .rates import (RateFit, classical_exponents, fit_rate, lambda_schedule,
                    paper_risk, paper_variance, statistical_exponents)
from .regularization import (_FAMILIES, FilterSpec, _grid_learn,
                             estimator_learn, kernel_tikhonov,
                             solve_continuous)
from .rkhs import rkhs_norm
from .sampling import (_DESIGNS, PerturbationSpec, perturb_data,
                       sample_design, sample_outputs, _uniform_design)
from .spectral_model import (_LOW_ROWS, _basis_blocks, _finite_number,
                             _integer, _positive_integer, _positive_number,
                             _sine_factor_tables, _split_modes,
                             descriptor_faults, forward_data, grid_aliasing,
                             grid_gram_product, problem_from_descriptor)

# The values each converter of a config entry takes: a null dict or grid
# reads as empty, and sigma is a number that float() holds finitely.
_TAKES = {dict: lambda v: isinstance(v, (dict, type(None))),
          tuple: lambda v: isinstance(v, (list, tuple, type(None))),
          float: _finite_number}

# Family level of lemma-check's z_max, Sidak's over its J per-mode |z|: the
# probability that the largest of them exceeds it, exact on the grid for
# n > J and an upper bound on iid designs, whose modes are correlated.
_Z_FAMILY_LEVEL = 0.01

# Basis entries (points times modes) the designs of one iid batch would
# fill.  A batch builds no basis, only its factor tables: 9 + (J + 7) // 16
# + 1 complex entries per point (44 doubles at J = 200), in buffers reused
# by every batch of a call.  At J = 200 on a 2-core Xeon with one BLAS
# thread (best of 20, sizes interleaved, two sweeps), _sine_factor_tables
# costs 146-151 ns per point in batches of 800 points, 121-124 at 1,600,
# 114-116 at 3,200, 112-113 at 6,400 and 150-151 at 12,800; 400
# replicates at n = 800 took 86-94 ms (medians of 9, interleaved) at every
# batch size from 800 to 12,800 points in the quieter sweep, 88.5 ms at
# 3,200, and 124-148 ms in the other.  640,000 entries is 3,200 points at
# J = 200, one n = 3200 design: 1.1 MB of tables against the 5.1 MB basis
# of that design.
_BATCH_CELLS = 640_000


def _spearman(xs, ys):
    """Rank correlation of two equally long sequences."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    rx = np.argsort(np.argsort(xs)).astype(float)
    ry = np.argsort(np.argsort(ys)).astype(float)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    return float(rx @ ry) / denom if denom > 0 else 0.0


def _sidak_z(count, level):
    """The z* at which the largest of ``count`` independent standard normal
    |z| exceeds z* with probability ``level``: each |z| exceeds it with
    probability p = 1 - (1 - level)**(1 / count) (Sidak)."""
    per_mode = -math.expm1(math.log1p(-level) / count)
    return -statistics.NormalDist().inv_cdf(per_mode / 2.0)


def _median(values):
    """The median of a 1-d float array, equal to ``np.median`` bit for bit:
    the middle value, (a + b) / 2 of the two middle values for an even
    count, and NaN when any entry is NaN.  ``np.median`` imports numpy.ma
    on first use (numpy >= 2): 16-17 ms and 1.3 MB of peak RSS in a fresh
    process on a 2-core Xeon with numpy 2.4."""
    ordered = np.sort(values)
    if np.isnan(ordered[-1]):  # sort puts NaN last
        return math.nan
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def _sample_count(value):
    """True for an integer 1 <= n <= 2**53, each held exactly by float(n)."""
    return _positive_integer(value) and value <= 2 ** 53


def _increasing(valid):
    """The rule of a grid: at least two entries, each ``valid``, strictly
    increasing."""
    return lambda values: (
        len(values) >= 2 and all(valid(v) for v in values)
        and all(a < b for a, b in zip(values, values[1:])))


def _one_of(*names):
    """The rule of an entry that names one of ``names``."""
    return lambda value: value in names


def _valid_schedule(schedule):
    """True for the entries c and exponent, both finite numbers > 0."""
    return set(schedule) == {"c", "exponent"} and all(
        _positive_number(v) for v in schedule.values())


def _invalid(fields):
    """The ValidationError naming each of ``fields`` once, sorted."""
    fields = sorted(set(fields))
    return ValidationError(
        f"invalid study config, offending fields: {fields}", fields)


def _study_of(kind):
    """The _STUDIES row of ``kind``, or None for anything else."""
    return _STUDIES.get(kind) if isinstance(kind, str) else None


def _rule(valid, convert=None, key=None):
    """The metadata of a StudyConfig field: the value rule of its entry,
    the converter the entry goes through on parsing (one of _TAKES) and
    the entry's name where it is not the field's."""
    return {"valid": valid, "convert": convert, "key": key}


def _config_key(f):
    """The config entry of the StudyConfig field ``f``."""
    return f.metadata["key"] or f.name


@dataclass(frozen=True)
class StudyConfig:
    """Declarative description of one study run.

    Each field is the config entry of the same name, except ``lam``, the
    entry ``lambda`` (a Python keyword), and its metadata holds the entry's
    value rule (``_rule``).  ``from_dict`` reads and ``validate`` judges the
    entries from these fields, and ``to_dict`` echoes those the kind reads
    (``_reads``).  So a new entry is a field with its rule, and each kind
    that reads it lists it in its ``_STUDIES`` row.  The ``problem`` keys'
    rules sit beside their builder (``spectral_model.descriptor_faults``).
    """

    kind: str = field(default="",
                      metadata=_rule(lambda v: _study_of(v) is not None))
    # each key has its own rule, and is named problem.<key>: descriptor_faults
    problem: dict = field(default_factory=dict, metadata=_rule(None, dict))
    filter: str = field(default="tikhonov",
                        metadata=_rule(_one_of(*_FAMILIES)))
    design: str = field(default="grid",
                        metadata=_rule(_one_of(*_DESIGNS)))
    sigma: float = field(default=0.0, metadata=_rule(_positive_number, float))
    n_grid: tuple = field(default=(),
                          metadata=_rule(_increasing(_sample_count), tuple))
    delta_grid: tuple = field(
        default=(), metadata=_rule(_increasing(_positive_number), tuple))
    schedule: dict = field(default_factory=dict,  # {"c", "exponent"}
                           metadata=_rule(_valid_schedule, dict))
    lam: float | None = field(default=None,
                              metadata=_rule(_positive_number, key="lambda"))
    n: int | None = field(default=None, metadata=_rule(_sample_count))
    replicates: int = field(default=1, metadata=_rule(
        lambda v: _positive_integer(v) and v >= 2))
    seed: int = field(default=0, metadata=_rule(_integer))

    @staticmethod
    def from_dict(raw):
        if not isinstance(raw, dict):
            raise ValidationError("a study config must be a JSON object",
                                  ["config"])
        entries = {_config_key(f): f for f in fields(StudyConfig)}
        bad = sorted(set(raw) - set(entries))
        if bad:
            raise ValidationError(f"unknown config keys: {bad}", bad)
        converts = {key: entries[key].metadata["convert"] for key in raw}
        # values are checked before anything is converted, so a value of
        # the wrong type is named instead of raising out of float() or dict()
        bad = [key for key, convert in converts.items()
               if convert and not _TAKES[convert](raw[key])]
        if bad:
            raise _invalid(bad)
        config = StudyConfig(**{
            entries[key].name: convert(raw[key]) if convert else raw[key]
            for key, convert in converts.items()
            if raw[key] is not None or not convert})
        config.validate()
        return config

    def _reads(self):
        """The entries the kind reads: kind, problem, seed and those of its
        _STUDIES row."""
        study = _study_of(self.kind)
        return {"kind", "problem", "seed", *(study.reads if study else ())}

    def to_dict(self):
        """The entries the kind reads (``_reads``), leaving out None."""
        reads = self._reads()
        values = {_config_key(f): getattr(self, f.name) for f in fields(self)}
        return {key: list(v) if isinstance(v, tuple) else copy.copy(v)
                for key, v in values.items()
                if key in reads and v is not None}

    def validate(self):
        """Name every entry at fault.  An entry the kind reads (``_reads``)
        must pass its rule, and the problem entry each rule of
        ``descriptor_faults``, its keys named ``problem.<key>``.  Any other
        entry must keep its default, in value and type, so a report never
        echoes a setting that had no effect; under an unknown kind, which
        reads nothing, only one that breaks its rule is named.  Across
        entries, the filter family must be valid on mu_1 = problem.d (its
        ``_FAMILIES`` row's bound) and accept lambda (``FilterSpec``'s
        rule: Landweber's 1/lambda must be finite), and so must the
        schedule at each point of the grid (``_scheduled_filters``)."""
        study, reads = _study_of(self.kind), self._reads()
        defaults = StudyConfig()
        bad = [f"problem.{key}" for key in descriptor_faults(self.problem)]
        for f in fields(self):
            key, value = _config_key(f), getattr(self, f.name)
            default, valid = getattr(defaults, f.name), f.metadata["valid"]
            if key in reads:
                faulty = valid is not None and not valid(value)
            else:
                changed = type(value) is not type(default) or value != default
                faulty = changed and (study is not None or not valid(value))
            if faulty:
                bad.append(key)
        w_spec = self.problem.get("w_spec")
        if "schedule" in reads and isinstance(w_spec, str) and w_spec == "ones":
            # w = (1, ..., 1) has source radius sqrt(J), not a fixed source
            # element, so the rate theory does not apply to it
            bad.append("problem.w_spec")
        # rules across entries, judged where both entries pass their own
        if ("filter" in reads and not {"filter", "problem.d"} & set(bad)
                and _FAMILIES[self.filter].beyond(self.problem["d"])):
            # mu_1 = d lies beyond the spectrum the family is valid on
            bad += ["filter", "problem.d"]
        if ({"filter", "lambda"} <= reads
                and not {"filter", "lambda"} & set(bad)):
            try:
                FilterSpec(self.filter, self.lam)
            except ParameterError:
                bad.append("lambda")
        if ("schedule" in reads and not {
                "filter", "schedule", "n_grid", "delta_grid"} & set(bad)):
            try:
                self._scheduled_filters()
            except (ParameterError, OverflowError):
                # lambda under- or overflows, or Landweber's 1/lambda does
                bad.append("schedule")
        if bad:
            raise _invalid(bad)

    def _scheduled_filters(self):
        """The filter of each grid point at the schedule's lambda: c n^-a
        along n_grid where the kind reads it (stat-rate), else
        c delta^a along delta_grid (det-rate)."""
        by_n = "n_grid" in self._reads()
        return [FilterSpec(self.filter, lambda_schedule(
                    "by-n" if by_n else "by-delta", self.schedule["c"],
                    self.schedule["exponent"], value))
                for value in (self.n_grid if by_n else self.delta_grid)]


@dataclass
class StudyReport:
    """Outcome of one study; verdicts derive only from recorded numbers."""

    kind: str
    points: list
    theory: dict
    checks: list
    verdict: bool
    config: dict
    fit: RateFit | None = None
    runtime_s: float = 0.0

    def canonical_dict(self):
        """Report content without the runtime (determinism comparisons)."""
        out = self.to_dict()
        del out["runtime_s"]
        return out

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.fit is not None:
            out["fit"] = asdict(self.fit)
        return out

    @staticmethod
    def from_dict(raw):
        values = {f.name: raw[f.name] for f in fields(StudyReport)
                  if f.name in raw}
        fit = values.get("fit")
        if fit is not None:
            values["fit"] = RateFit(**dict(
                fit, points=tuple(tuple(p) for p in fit["points"])))
        return StudyReport(**values)

    def recompute_checks(self):
        """Re-derive pass flags from the stored numbers."""
        return [_check(c["name"], c["value"], c["op"], c["threshold"])
                for c in self.checks]


# The comparisons a check may make of its value with its threshold.
_OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge}


def _check(name, value, op, threshold):
    passed = _OPS[op](value, threshold)
    return {"name": name, "value": float(value), "op": op,
            "threshold": float(threshold), "passed": bool(passed)}


def _problem_of(config):
    return problem_from_descriptor({"seed": config.seed, **config.problem})


def _finish(config, points, fit, theory, checks, started):
    verdict = all(c["passed"] for c in checks)
    report = StudyReport(kind=config.kind, points=points, fit=fit,
                         theory=theory, checks=checks, verdict=verdict,
                         runtime_s=time.perf_counter() - started,
                         config=config.to_dict())
    print(f"STUDY {config.kind} {'pass' if verdict else 'fail'}")
    return report


def _replicate_coeffs(config, problem, truth, filt, n, indices):
    """Paper-n estimates of the replicates ``indices`` at sample size n.

    Replicate ``index`` draws its noise (and an iid design) from its own
    (seed, stream, index) substream; one generator per stream is rekeyed to
    each replicate's substream (``streams.rekey``), which draws exactly
    what a new generator would.  So a replicate's draws depend neither on
    the other replicates nor on how they are grouped.

    On the midpoint grid the estimate reads the data only through the
    moment u'Y / n, whose law is N(M y, sigma**2 / n M) with the grid Gram
    matrix M of ``grid_aliasing``: mode j of class m and sign e_j has the
    moment (M y)_j + e_j sigma sqrt(D_m / n) xi_m, with one standard normal
    xi_m per class m = 1..min(n, J), and modes of class 0 are 0.  So each
    grid replicate draws min(n, J) normals and builds no basis: draws from
    the public path's law, not its point-sample draws.

    iid designs build no basis either.  They go in batches of consecutive
    replicates, as many whole designs as fit in _BATCH_CELLS basis
    entries, at least one.  One _sine_factor_tables call covers the batch's
    designs end to end: the unit powers at two factor angles of every mode
    (e^{i c pi x} for c = 0..8 and i conj(e^{i 16 a pi x}) for
    a <= (J + 7) // 16, 22 complex entries per point at J = 200 instead of
    200 basis entries), filled by doubling into tables allocated once per
    call and reused by every batch; the high rows come as S and C planes
    for BLAS.  Mode j = 16 a + sign c (``_split_modes``) has
    sin(j pi x) = S_a C_c + sign C_a S_c, with S_a and C_a the sine and
    cosine of 16 a pi x and C_c and S_c those of c pi x, so one (a, c)
    entry serves the modes 16 a + c and 16 a - c.  Every product runs per
    design, on its columns of the planes and of the low rows, each read in
    place.  The clean outputs are sum_c C_c (Y+' S)_c + S_c (Y-' C)_c,
    where Y+ and Y- hold sqrt(2) times the sums of y_j and of sign y_j over
    the (at most two) modes at [a, c]: two GEMMs of 9 by (J + 7) // 16 + 1
    over the n points.  A replicate's noisy outputs v = clean + sigma z are
    formed in place in one n-vector reused by every replicate, and its
    moments are A + sign B at [a, c], from the two GEMMs A = S (v C_c)' and
    B = C (v S_c)'.  At J = 200 the four GEMMs take 468 multiply-adds per
    point.  As every product is per design, an iid estimate is the same bit
    for bit at any batch size.  It draws what sample_design ->
    sample_outputs -> estimator_paper draws, but sums in another order, so
    it agrees with that path to about 1e-15 of each row's largest entry,
    not bit for bit; the tests hold the study numbers to 1e-12 relative.
    """
    seed = config.seed
    noise_rng = streams.generator(seed, streams.NOISE_STREAM)
    y = forward_data(problem, truth)
    response = filt.response(problem)
    out = np.empty((len(indices), problem.size))

    if config.design == "grid":
        classes, signs, weights = grid_aliasing(problem, n)
        clean = grid_gram_product(problem, n, y)
        scale = config.sigma * signs * np.sqrt(weights / n)
        normals = np.empty((len(indices), min(n, problem.size)))
        for row, index in zip(normals, indices):
            streams.rekey(noise_rng, seed, streams.NOISE_STREAM,
                          index).standard_normal(out=row)
        # class m reads normal m - 1; class 0 reads the last, times 0
        np.take(normals, classes - 1, axis=1, out=out)
        out *= scale
        out += clean
        out *= response
        return out

    design_rng = streams.generator(seed, streams.DESIGN_STREAM)
    # mode j = 16 a + sign c adds sqrt(2) y_j to entry [a, c] of Y+ and
    # sign sqrt(2) y_j to that of Y-, and its moment reads A + B there, or
    # A - B where sign = -1 (at c = 0, B is 0 with sin(c pi x))
    highs, lows, signs = _split_modes(problem.size)
    entries = highs * _LOW_ROWS + lows
    high_rows = highs[-1] + 1
    picks = entries + (signs < 0) * (high_rows * _LOW_ROWS)
    coeffs = np.zeros((2, high_rows, _LOW_ROWS))
    weights = np.sqrt(2.0) * y
    np.add.at(coeffs[0].reshape(-1), entries, weights)
    np.add.at(coeffs[1].reshape(-1), entries, signs * weights)
    # (Y+', Y-'), each 9 by high_rows
    coeffs = coeffs.transpose(0, 2, 1)
    scale = response * (np.sqrt(2.0) / n)

    # One workspace for every batch: tables allocated afresh per batch took
    # 73,000 minor page faults per mc-iid pass, against 4,000 this way.
    per_batch = max(1, min(len(indices), _BATCH_CELLS // (n * problem.size)))
    points = np.empty(per_batch * n)
    low_buffer = np.empty(_LOW_ROWS * per_batch * n, dtype=complex)
    high_buffer = np.empty(2 * high_rows * per_batch * n)
    # one design's low rows times the clean-output sums or the noisy outputs
    weighted = np.empty((2, _LOW_ROWS, n))
    products = np.empty((2, high_rows, _LOW_ROWS))
    pairs = np.empty((2, high_rows, _LOW_ROWS))
    outputs = np.empty(n)
    for first_row in range(0, len(indices), per_batch):
        batch = indices[first_row:first_row + per_batch]
        size = len(batch) * n
        for k, index in enumerate(batch):
            points[k * n:(k + 1) * n] = _uniform_design(n, streams.rekey(
                design_rng, seed, streams.DESIGN_STREAM, index))
        low, high = _sine_factor_tables(problem, points[:size], (
            low_buffer[:_LOW_ROWS * size].reshape(_LOW_ROWS, size),
            high_buffer[:2 * high_rows * size].reshape(2, high_rows, size)))
        # (cos, sin) of the low angle as a (2, 9, points) view, like the
        # (sin, cos) planes of the high one
        low = np.moveaxis(low.view(float).reshape(_LOW_ROWS, size, 2), 2, 0)
        for k, index in enumerate(batch):
            design = slice(k * n, (k + 1) * n)
            low_k, planes = low[:, :, design], high[:, :, design]
            # clean outputs: (Y+' S) C_c + (Y-' C) S_c, summed over c
            np.matmul(coeffs, planes, out=weighted)
            weighted *= low_k
            streams.rekey(noise_rng, seed, streams.NOISE_STREAM,
                          index).standard_normal(out=outputs)
            outputs *= config.sigma
            outputs += weighted.sum(axis=(0, 1))
            # (A, B) = (S (v C_c)', C (v S_c)')
            np.multiply(low_k, outputs, out=weighted)
            np.matmul(planes, weighted.transpose(0, 2, 1), out=products)
            np.add(products[0], products[1], out=pairs[0])
            np.subtract(products[0], products[1], out=pairs[1])
            np.multiply(pairs.take(picks), scale, out=out[first_row + k])
    return out


def _run_stat_rate(config, started):
    """Monte-Carlo squared reconstruction error of the sampled estimator
    along a lambda schedule in n, slope-fitted against 1/n and compared to
    2r/(2r+1+1/b).  Each point's z = (err_mean - exact_risk) / err_se, 0
    where all errors agree (a filter that annihilates the spectrum), holds
    it to ``rates.paper_risk``; the points draw disjoint replicates, so
    risk-matches-exact's sum_k z_k / sqrt(K) is about standard normal."""
    problem, truth = _problem_of(config)
    points = []
    replicates = config.replicates
    for point_idx, (n, filt) in enumerate(zip(config.n_grid,
                                              config._scheduled_filters())):
        first = point_idx * replicates
        # squared errors formed in place: R-by-J temporaries would stay in
        # the heap and raise the peak resident memory of the next point
        sq_err = _replicate_coeffs(config, problem, truth, filt, n,
                                   range(first, first + replicates))
        sq_err -= truth
        sq_err **= 2
        errors = sq_err.sum(axis=1)
        err_mean = float(errors.mean())
        err_se = float(errors.std(ddof=1) / math.sqrt(replicates))
        exact = paper_risk(problem, filt, truth, config.sigma, n,
                           config.design)
        points.append({
            "x": int(n), "lambda": filt.lam, "err_mean": err_mean,
            "err_se": err_se, "err_median": _median(errors),
            "exact_risk": exact, "z": (err_mean - exact) / err_se
            if errors.max() > errors.min() else 0.0,
        })
    fit = fit_rate([(1.0 / p["x"], p["err_mean"]) for p in points])
    r, b = float(config.problem["r"]), float(config.problem["b"])
    alpha = statistical_exponents(r, b).alpha
    theory = {"alpha": alpha, "exact_slope": fit_rate(
        [(1.0 / p["x"], p["exact_risk"]) for p in points]).slope}
    thresholds = _STUDIES[config.kind].thresholds
    pooled = sum(p["z"] for p in points) / math.sqrt(len(points))
    checks = [_check("slope-matches-theory", abs(fit.slope - alpha), "<=",
                     thresholds["slope"]),
              _check("risk-matches-exact", abs(pooled), "<=",
                     thresholds["risk_z"])]
    medians = [p["err_median"] for p in points]
    if len(medians) > 4:
        # consistency criterion: past the first two grid points the median
        # error must be decreasing in n
        corr = _spearman(config.n_grid[2:], medians[2:])
        checks.append(_check("median-error-decreasing", corr, "<=",
                             thresholds["rank_corr"]))
    return _finish(config, points, fit, theory, checks, started)


def _run_det_rate(config, started):
    """Squared error of the perturbed-data reconstruction along a lambda
    schedule in delta, slope-fitted against delta and compared to the
    classical 4r/(2r+1).  The rate bounds the error over every data error
    of norm delta, so the data are perturbed along the filter's worst mode
    (``filter-adversarial``), whose error attains its order.  ``verify``'s
    worst-case-conversion judges the n -> delta conversion."""
    problem, truth = _problem_of(config)
    y_clean = forward_data(problem, truth)
    points = []
    for delta, filt in zip(config.delta_grid, config._scheduled_filters()):
        y_delta = perturb_data(problem, y_clean, PerturbationSpec(
            delta=delta, mode="filter-adversarial", filter=filt))
        estimate = solve_continuous(problem, filt, y_delta)
        err2 = float(np.sum((estimate - truth) ** 2))
        points.append({"x": float(delta), "lambda": filt.lam,
                       "err_mean": err2, "err_se": 0.0})
    fit = fit_rate([(p["x"], p["err_mean"]) for p in points])
    exponent = classical_exponents(float(config.problem["r"]),
                                   float(config.problem["b"])).alpha
    theory = {"delta_exponent": exponent}
    checks = [_check("slope-matches-theory", abs(fit.slope - exponent),
                     "<=", _STUDIES[config.kind].thresholds["slope"])]
    return _finish(config, points, fit, theory, checks, started)


def _run_lemma_check(config, started):
    """At fixed (n, lambda): the mean estimate against the continuous
    reconstruction f_lam.  Mode j's z is |mean - f_lam| over the exact
    standard error sqrt(var / R) of R replicates, var from
    ``rates.paper_variance`` (a grid mode of alias class 0 has var 0 and
    z 0), so a wrong noise scale fails it on the grid.  Its z_max is
    Sidak's over J normal z: exact on the grid for n > J, conservative on
    iid designs.  The point records the sample bias mc_bias2 and
    variance mc_var, which sum to err_mean for any replicates."""
    problem, truth = _problem_of(config)
    n = int(config.n)
    filt = FilterSpec(config.filter, config.lam)
    replicates = config.replicates
    coeff_rows = _replicate_coeffs(config, problem, truth, filt, n,
                                   range(replicates))
    err2 = np.sum((coeff_rows - truth) ** 2, axis=1)
    mc_mean = float(err2.mean())
    mc_se = float(err2.std(ddof=1) / math.sqrt(replicates))
    mean_coeffs = coeff_rows.mean(axis=0)
    mc_bias2 = float(np.sum((mean_coeffs - truth) ** 2))
    mc_var = float(np.mean(np.sum((coeff_rows - mean_coeffs) ** 2, axis=1)))

    f_lam = solve_continuous(problem, filt, forward_data(problem, truth))
    bias2 = float(np.sum((f_lam - truth) ** 2))
    comp_se = np.sqrt(paper_variance(problem, filt, truth, config.sigma, n,
                                     config.design) / replicates)
    z = np.abs(mean_coeffs - f_lam) / np.where(comp_se > 0, comp_se, np.inf)

    points = [{"x": n, "lambda": filt.lam, "err_mean": mc_mean,
               "err_se": mc_se, "mc_bias2": mc_bias2, "mc_var": mc_var,
               "theory_bias2": bias2}]
    theory = {"bias2": bias2}
    checks = [_check("mean-matches-continuous", float(np.max(z)), "<=",
                     _sidak_z(problem.size, _Z_FAMILY_LEVEL))]
    return _finish(config, points, fit=None, theory=theory, checks=checks,
                   started=started)


def _run_gamma_study(config, started):
    """Noiseless midpoint grids with fixed lambda: kernel-norm distance
    between the empirical penalized fit (learn-n's Tikhonov fit on the
    grid's exact outputs) and the continuous one.  The fit is
    ``_grid_learn``'s closed form per alias class, O(J) per grid size with
    no basis and no solve; ``estimator_learn`` on the sampled grid gives the
    same up to roundoff.  Past n = J the midpoint rule integrates every
    product of two modes exactly, so there the distance must be exact: at
    most the floor ``exact`` times the continuous norm.  Above the floor it
    must shrink at every step of the grid; distances at or below it are
    roundoff and are not ranked."""
    problem, truth = _problem_of(config)
    lam = float(config.lam)
    filt = FilterSpec("tikhonov", lam)
    y = forward_data(problem, truth)
    g_cont = problem.mu * y / (problem.mu + lam)
    g_norm = rkhs_norm(problem, g_cont)
    points = []
    for n in config.n_grid:
        g = forward_data(problem, _grid_learn(problem, filt, y, int(n)))
        points.append({"x": int(n), "lambda": lam,
                       "err_mean": rkhs_norm(problem, g - g_cont),
                       "err_se": 0.0})
    exact = _STUDIES[config.kind].thresholds["exact"]
    # a distance at or below the floor is exact up to roundoff, whose size
    # and order depend on how the fit is computed, so it is never ranked
    floor = exact * g_norm
    hk_values = [p["err_mean"] for p in points]
    worst_ratio = max((later / earlier for earlier, later
                       in zip(hk_values, hk_values[1:]) if earlier > floor),
                      default=0.0)
    # past n = J the midpoint rule integrates every sine product exactly,
    # so the empirical fit is the continuous one
    beyond = max((p["err_mean"] for p in points if p["x"] > problem.size),
                 default=0.0) / max(g_norm, 1e-300)
    checks = [
        _check("error-decreasing", worst_ratio, "<", 1.0),
        _check("final-error-below-tenth", hk_values[-1],
               "<=", hk_values[0] / 10.0),
        _check("exact-for-n-above-J", beyond, "<=", exact),
    ]
    theory = {"lambda": lam, "continuous_norm": g_norm, "exact_floor": floor}
    return _finish(config, points, fit=None, theory=theory, checks=checks,
                   started=started)


def equivalence_deviations(problem, samples, lam):
    """Maximal relative deviations of the two equivalence properties.

    ``methods_equivalence`` compares the parameter-side Tikhonov solve
    (``estimator_learn``) with the kernel-side one (``kernel_tikhonov``):
    the range elements A f and g, and the norms ||f|| and ||g||_K.
    ``representer_oracle`` is the relative first-order optimality residual
    of the penalized empirical risk (1/n)||Phi f - y||^2 + lambda ||f||^2
    at ``kernel_tikhonov``'s solution, with Phi = u diag(sigma) and
    f = g / sigma.  It reads g, not beta, which is unidentifiable where K
    is near-singular.
    """
    learn = estimator_learn(problem, FilterSpec("tikhonov", lam), samples)
    kernel_side = kernel_tikhonov(problem, samples, lam)
    g_norm = float(np.linalg.norm(kernel_side.g_coeffs))
    forward_learn = forward_data(problem, learn)
    methods_dev = (float(np.linalg.norm(forward_learn - kernel_side.g_coeffs))
                   / max(g_norm, 1e-300))
    f_norm = float(np.linalg.norm(learn))
    norm_dev = (abs(rkhs_norm(problem, kernel_side.g_coeffs) - f_norm)
                / max(f_norm, 1e-300))
    y, g = samples.outputs, kernel_side.g_coeffs
    gradient = np.zeros(problem.size)
    moment = np.zeros(problem.size)
    for rows, u in _basis_blocks(problem, samples.design):
        gradient += u.T @ (u @ g - y[rows])
        moment += u.T @ y[rows]
    residual = (problem.sigma_sv * gradient / samples.size
                + lam * g / problem.sigma_sv)
    moment = float(np.linalg.norm(problem.sigma_sv * moment)) / samples.size
    oracle_dev = float(np.linalg.norm(residual)) / max(moment, 1e-300)
    return {"methods_equivalence": max(methods_dev, norm_dev),
            "representer_oracle": oracle_dev}


def _run_equivalence_check(config, started):
    """Maximal deviation of the kernel-side Tikhonov solve from the
    parameter-side one, and the first-order optimality residual of the
    penalized empirical risk at the kernel-side solve
    (``equivalence_deviations``)."""
    problem, truth = _problem_of(config)
    design = sample_design(config.design, int(config.n), config.seed)
    samples = sample_outputs(problem, truth, design, seed=config.seed)
    deviations = equivalence_deviations(problem, samples, float(config.lam))
    thresholds = _STUDIES[config.kind].thresholds
    checks = [_check(name, deviations[name], "<=", thresholds[name])
              for name in sorted(deviations)]
    points = [{"x": float(i), "lambda": float(config.lam),
               "err_mean": deviations[name], "err_se": 0.0, "property": name}
              for i, name in enumerate(sorted(deviations))]
    return _finish(config, points, fit=None, theory={}, checks=checks,
                   started=started)


class _Study(NamedTuple):
    """One study kind: its runner, the optional config entries it reads
    besides kind, problem and seed, and the fixed thresholds of its checks
    by name.  No config entry sets a threshold.  One that follows from the
    run is derived in the runner: lemma-check's Sidak z over J, and
    gamma-study's first distance over ten and strict decrease."""

    run: Callable
    reads: tuple
    thresholds: dict


_STUDIES = {
    # risk_z bounds the pooled z against the exact risks: a standard normal
    # |z| exceeds 3 with probability 0.27%.  rank_corr bounds the rank
    # correlation of the medians with n past the first two grid points
    "stat-rate": _Study(
        _run_stat_rate,
        ("filter", "design", "sigma", "n_grid", "schedule", "replicates"),
        {"slope": 0.12, "risk_z": 3.0, "rank_corr": -0.9}),
    "det-rate": _Study(
        _run_det_rate, ("filter", "delta_grid", "schedule"), {"slope": 0.15}),
    # its one threshold, Sidak's z over J at level _Z_FAMILY_LEVEL, follows
    # J, so the row holds none
    "lemma-check": _Study(
        _run_lemma_check,
        ("filter", "design", "sigma", "n", "lambda", "replicates"), {}),
    # always on the midpoint grid, so it does not read design
    "gamma-study": _Study(
        _run_gamma_study, ("n_grid", "lambda"), {"exact": 1e-10}),
    "equivalence-check": _Study(
        _run_equivalence_check, ("design", "n", "lambda"),
        {"methods_equivalence": 1e-10, "representer_oracle": 1e-10}),
}


def run_study(config):
    """Execute a study and return its report."""
    config.validate()
    started = time.perf_counter()
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _STUDIES[config.kind].run(config, started)
    except (FloatingPointError, OverflowError) as exc:
        raise NumericalError(f"{config.kind} overflowed: {exc}") from exc


def write_report(report, fmt, path):
    """Write a report as a JSON document or per-point CSV records.

    The JSON document round-trips through ``StudyReport.from_dict`` and the
    verdicts can be recomputed bit-for-bit from its numbers.  The CSV
    carries the columns kind, x, lambda, err_mean, err_se and then any
    study-specific extras in sorted order.  Nothing is written if the
    target cannot be opened.
    """
    if fmt == "json":
        payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        with open(path, "w") as handle:
            handle.write(payload + "\n")
        return
    if fmt != "csv":
        raise ValidationError(f"unknown report format: {fmt!r}", ["format"])
    base_cols = ("x", "lambda", "err_mean", "err_se")
    extras = sorted({key for point in report.points for key in point
                     if key not in base_cols})
    rows = []
    for point in report.points:
        row = [report.kind] + [f"{point[c]:.17g}" for c in base_cols]
        row += [f"{point[c]:.17g}" if isinstance(point.get(c), float)
                else str(point.get(c, "")) for c in extras]
        rows.append(row)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["kind"] + list(base_cols) + extras)
        writer.writerows(rows)
