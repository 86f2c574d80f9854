"""Verification studies: reproducible desk-scale rate and identity checks.

Each study kind is one row of ``_STUDIES``, at the foot of this module: its
runner, whose docstring describes the study, the optional config entries
it reads and its tolerances with their defaults.  Every study prints one
machine-readable line "STUDY <kind> <pass|fail>".  The Monte-Carlo studies
draw each replicate from its own substream, so a replicate's numbers do
not depend on the others (``_replicate_coeffs``).
"""

import copy
import csv
import json
import math
import operator
import statistics
import time
from dataclasses import asdict, dataclass, field, fields
from types import NoneType
from typing import Callable, NamedTuple

import numpy as np

from . import streams
from .errors import ValidationError
from .rates import (RateFit, RateLink, classical_exponents, convert_upper,
                    delta_of, fit_rate, lambda_schedule,
                    statistical_exponents, hs_norm)
from .regularization import (FilterSpec, estimator_learn, kernel_tikhonov,
                             solve_continuous, _paper_coeffs)
from .rkhs import correspondence_pullback, rkhs_norm
from .sampling import (NoiseModel, PerturbationSpec, perturb_data,
                       sample_design, sample_outputs, _add_noise,
                       _uniform_design)
from .spectral_model import (_FACTOR_WIDTH, _W_SPECS, basis_matrix,
                             forward_data, problem_from_descriptor,
                             _sine_factor_tables)

# The filter each ``filter`` entry names, at a given lambda: Landweber runs
# round(1 / lambda) iterations, at least one.
_FILTER_SPECS = {"tikhonov": FilterSpec.tikhonov, "cutoff": FilterSpec.cutoff,
                 "landweber": lambda lam: FilterSpec.landweber(
                     max(1, round(1.0 / lam)))}

# The types each converter of a config entry takes (booleans never): a null
# dict or grid reads as empty, and sigma must be a number.
_TAKES = {dict: (dict, NoneType), tuple: (list, tuple, NoneType),
          float: (int, float)}

# Probability that lemma-check's mean-matches-continuous fails under the
# claim at the default z_max: the largest of J independent |z| exceeds it.
_Z_FAMILY_LEVEL = 0.01

# Basis entries (points times modes) the designs of one iid batch would
# fill.  A batch builds no basis, only its factor tables: 16 + J // 16 + 1
# complex entries per point (58 doubles at J = 200), in buffers reused by
# every batch of a call.  At J = 200 on a 2-core Xeon with one BLAS thread
# (best of 20), _sine_factor_tables costs 173 ns per point in batches of
# 800 points, 129 at 1,600, 98 at 3,200, 96 at 6,400 and 84 at 12,800;
# 400 replicates at n = 800 took 127-135 ms (medians of 9) at every batch
# size from 800 to 12,800 points, and 96 ms (best) at 3,200.  640,000
# entries is 3,200 points at J = 200, one n = 3200 design: 1.5 MB of tables
# against the 5.1 MB basis of that design.
_BATCH_CELLS = 640_000

# Replicates of one grid chunk.  The noisy outputs of consecutive replicates
# form the columns of one n-by-16 matrix, so one GEMM reads the shared basis
# once per chunk instead of once per replicate.  At J = 200 on a 2-core Xeon
# with one BLAS thread (_paper_coeffs alone, best of 15), 200 replicates at
# n = 3200 take 34 / 18 / 12 / 9.6 ms in chunks of 5 / 8 / 16 / 32 columns
# (below 8 columns OpenBLAS's dgemm runs its narrow-panel code); at
# n = 1600, 9.8 ms at 10 columns and 6.2 ms at 16; at n <= 800, 16 columns
# are within 0.25 ms of chunks of 20 to 163.  A chunk holds 16 n entries,
# 16 / J of the n-by-J basis the grid path already keeps (8% at J = 200),
# so its memory stays bounded by the basis at every n; 32 columns would
# save 2.4 ms more at n = 3200 for twice that memory.
_CHUNK_WIDTH = 16

# equivalence_deviations: the number of random draws for the isometry and
# pullback round trips.
_EQUIVALENCE_DRAWS = 100


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
    probability 1 - (1 - level)**(1 / count) = erfc(z* / sqrt 2) (Sidak)."""
    per_mode = -math.expm1(math.log1p(-level) / count)
    return -statistics.NormalDist().inv_cdf(per_mode / 2.0)


def _finite(value):
    """True for a finite number; booleans and strings are refused."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _positive_finite(value):
    """True for a finite number > 0; booleans and strings are refused."""
    return _finite(value) and value > 0


def _is_int(value):
    """True for an integer; booleans, floats and strings are refused."""
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(value):
    """True for an integer >= 1; booleans, floats and strings are refused."""
    return _is_int(value) and value >= 1


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
        _positive_finite(v) for v in schedule.values())


def _valid_w_spec(w_spec, size):
    """A name of _W_SPECS, or ``size`` finite numbers (booleans refused);
    the length is not judged against a ``size`` that is itself invalid."""
    if isinstance(w_spec, str):
        return w_spec in _W_SPECS
    return (isinstance(w_spec, (list, tuple))
            and (not _positive_int(size) or len(w_spec) == size)
            and all(_finite(v) for v in w_spec))


def _problem_faults(problem):
    """The keys of a problem entry at fault: J, b, d, r and w_spec must
    each pass their rule, the optional seed must be an integer, and any
    other key is read by nothing."""
    rest = {"seed": 0, **problem}
    rules = {"J": _positive_int, "b": _positive_finite,
             "d": _positive_finite, "r": _positive_finite,
             "w_spec": lambda w: _valid_w_spec(w, problem.get("J")),
             "seed": _is_int}
    return ([key for key, valid in rules.items()
             if not valid(rest.pop(key, None))] + list(rest))


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
    value rule (``_rule``).  ``from_dict`` reads, ``to_dict`` echoes and
    ``validate`` judges the entries from these fields, so a new entry is a
    field with its rule, and each kind that reads it lists it in its
    ``_STUDIES`` row.
    """

    kind: str = field(default="",
                      metadata=_rule(lambda v: _study_of(v) is not None))
    # each key has its own rule, and is named problem.<key>: _problem_faults
    problem: dict = field(default_factory=dict, metadata=_rule(None, dict))
    filter: str = field(default="tikhonov",
                        metadata=_rule(_one_of(*_FILTER_SPECS)))
    design: str = field(default="grid",
                        metadata=_rule(_one_of("grid", "iid-uniform")))
    sigma: float = field(default=0.0, metadata=_rule(_positive_finite, float))
    n_grid: tuple = field(default=(),
                          metadata=_rule(_increasing(_positive_int), tuple))
    delta_grid: tuple = field(
        default=(), metadata=_rule(_increasing(_positive_finite), tuple))
    schedule: dict = field(default_factory=dict,  # {"c", "exponent"}
                           metadata=_rule(_valid_schedule, dict))
    lam: float | None = field(default=None,
                              metadata=_rule(_positive_finite, key="lambda"))
    n: int | None = field(default=None, metadata=_rule(_positive_int))
    perturbation: str = field(default="filter-adversarial", metadata=_rule(
        _one_of("random-unit", "fixed-mode", "filter-adversarial")))
    perturbation_index: int | None = field(default=None,
                                           metadata=_rule(_positive_int))
    theory: str = field(default="classical",
                        metadata=_rule(_one_of("classical", "converted")))
    # None under the converted theory: the nominal gamma of the rates
    gamma: float | None = field(default=None, metadata=_rule(
        lambda v: v is None or _positive_finite(v)))
    replicates: int = field(default=1, metadata=_rule(_positive_int))
    seed: int = field(default=0, metadata=_rule(_is_int))
    tolerances: dict = field(default_factory=dict, metadata=_rule(
        lambda t: all(_positive_finite(v) for v in t.values()), dict))

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
        # types are checked before anything is converted, so a value of the
        # wrong type is named instead of raising out of float() or dict()
        bad = [key for key, convert in converts.items() if convert and (
            not isinstance(raw[key], _TAKES[convert])
            or isinstance(raw[key], bool))]
        if bad:
            raise _invalid(bad)
        config = StudyConfig(**{
            entries[key].name: convert(raw[key]) if convert else raw[key]
            for key, convert in converts.items()
            if raw[key] is not None or not convert})
        config.validate()
        return config

    def to_dict(self):
        """The config entries, leaving out None, empty grids, a schedule
        without ``c`` and det-rate's own entries on the other kinds."""
        skip = {"schedule"} if self.schedule.get("c") is None else set()
        if self.kind != "det-rate":
            skip |= {"perturbation", "theory"}
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in skip and value is not None and value != ():
                out[_config_key(f)] = (list(value) if isinstance(value, tuple)
                                       else copy.copy(value))
        return out

    def validate(self):
        """Name every entry at fault.  An entry the kind reads must pass
        its rule.  Any other must keep its default, in value and type, so a
        report never echoes a setting that had no effect; under an unknown
        kind, which reads nothing, only one that breaks its rule is named."""
        study = _study_of(self.kind)
        reads = {"kind", "problem", "seed", "tolerances",
                 *(study.reads if study else ())}
        # det-rate reads gamma only under the converted theory and
        # perturbation_index only for a fixed-mode perturbation
        if self.theory != "converted":
            reads.discard("gamma")
        if self.perturbation != "fixed-mode":
            reads.discard("perturbation_index")
        defaults = StudyConfig()
        bad = [f"problem.{key}" for key in _problem_faults(self.problem)]
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
        if study and not set(self.tolerances) <= set(study.tolerances):
            bad.append("tolerances")
        if self.kind == "lemma-check" and not (
                _positive_int(self.replicates) and self.replicates >= 2):
            bad.append("replicates")
        w_spec = self.problem.get("w_spec")
        if "schedule" in reads and isinstance(w_spec, str) and w_spec == "ones":
            # w = (1, ..., 1) has source radius sqrt(J), not a fixed source
            # element, so the rate theory does not apply to it
            bad.append("problem.w_spec")
        if bad:
            raise _invalid(bad)


def _tolerances(config):
    """The kind's default tolerances, updated with the config's own."""
    return {**_STUDIES[config.kind].tolerances, **config.tolerances}


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
    descriptor = dict(config.problem)
    descriptor.setdefault("seed", config.seed)
    return problem_from_descriptor(descriptor)


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
    (seed, stream, index) substream, as sample_design -> sample_outputs ->
    estimator_paper does; one generator per stream is rekeyed to each
    replicate's substream (``streams.rekey``), which draws exactly what a
    new generator would.  So a replicate's draws depend neither on the
    other replicates nor on how they are grouped.

    A grid design is shared, so all replicates use one basis, and the
    outputs of consecutive replicates form the columns of one
    n-by-_CHUNK_WIDTH chunk (the last may be narrower): one GEMM per chunk
    instead of one GEMV per replicate.

    iid designs build no basis.  They go in batches of consecutive
    replicates, as many whole designs as fit in _BATCH_CELLS basis
    entries, at least one.  One _sine_factor_tables call covers the batch's
    designs end to end: the unit powers at two factor angles of every mode
    (e^{i c pi x} for c < 16 and i conj(e^{i 16 a pi x}) for a <= J // 16,
    29 complex entries per point at J = 200 instead of 200 basis entries),
    filled by doubling into tables allocated once per call and reused by
    every batch.  Every product against the tables runs per design.  On the
    tables' float views, (cos, sin) pairs of the low angle and (sin, cos)
    pairs of the high one, the clean outputs are the GEMM coeff_table @
    low, dotted with high down each column and summed over pairs; a
    replicate's moments are the GEMM (high v) @ low' for its noisy outputs
    v, each repeated for both entries of its pair.  So an iid estimate is
    the same bit for bit at any batch size.

    Both paths sum in another order than the public path, so their
    estimates agree with it to about 1e-14 relative on the grid and 1e-15
    on iid designs, not bit for bit; the tests hold them to 1e-12.
    """
    seed = config.seed
    noise = NoiseModel(kind="gaussian", sigma=config.sigma)
    noise_rng = streams.generator(seed, streams.NOISE_STREAM)
    y = forward_data(problem, truth)
    response = filt.response(problem)
    out = np.empty((len(indices), problem.size))

    def noisy(clean, index):
        return _add_noise(clean, noise, streams.rekey(
            noise_rng, seed, streams.NOISE_STREAM, index))

    if config.design == "grid":
        u = basis_matrix(problem, sample_design("grid", n))
        clean = u @ y
        outputs = np.empty((n, min(_CHUNK_WIDTH, len(indices))), order="F")
        for first in range(0, len(indices), _CHUNK_WIDTH):
            chunk = indices[first:first + _CHUNK_WIDTH]
            for k, index in enumerate(chunk):
                outputs[:, k] = noisy(clean, index)
            out[first:first + len(chunk)] = _paper_coeffs(
                response, u, outputs[:, :len(chunk)])
        return out

    design_rng = streams.generator(seed, streams.DESIGN_STREAM)
    # sqrt(2) y_j at [a, c] for j = _FACTOR_WIDTH a + c; j = 0 and j > J are 0
    highs = problem.size // _FACTOR_WIDTH + 1
    coeff_table = np.zeros(highs * _FACTOR_WIDTH)
    coeff_table[1:problem.size + 1] = np.sqrt(2.0) * y
    coeff_table = coeff_table.reshape(highs, _FACTOR_WIDTH)
    scale = response * (np.sqrt(2.0) / n)

    # One workspace for every batch: tables allocated afresh per batch took
    # 73,000 minor page faults per mc-iid pass, against 4,000 this way.
    per_batch = max(1, min(len(indices), _BATCH_CELLS // (n * problem.size)))
    points = np.empty(per_batch * n)
    low_buffer = np.empty(_FACTOR_WIDTH * per_batch * n, dtype=complex)
    high_buffer = np.empty(highs * per_batch * n, dtype=complex)
    product = np.empty((highs, 2 * n))
    for first_row in range(0, len(indices), per_batch):
        batch = indices[first_row:first_row + per_batch]
        size = len(batch) * n
        for k, index in enumerate(batch):
            points[k * n:(k + 1) * n] = _uniform_design(n, streams.rekey(
                design_rng, seed, streams.DESIGN_STREAM, index))
        low, high = _sine_factor_tables(problem, points[:size], (
            low_buffer[:_FACTOR_WIDTH * size].reshape(_FACTOR_WIDTH, size),
            high_buffer[:highs * size].reshape(highs, size)))
        low, high = low.view(float), high.view(float)
        for k, index in enumerate(batch):
            design = slice(2 * k * n, 2 * (k + 1) * n)
            low_k, high_k = low[:, design], high[:, design]
            np.matmul(coeff_table, low_k, out=product)
            pair_sums = np.einsum("ij,ij->j", product, high_k)
            outputs = noisy(pair_sums[0::2] + pair_sums[1::2], index)
            np.multiply(high_k, np.repeat(outputs, 2), out=product)
            moments = product @ low_k.T
            out[first_row + k] = scale * moments.reshape(-1)[
                1:problem.size + 1]
    return out


def _run_stat_rate(config, started):
    """Monte-Carlo squared reconstruction error of the sampled estimator
    along a lambda schedule in n, slope-fitted against 1/n and compared to
    2r/(2r+1+1/b)."""
    problem, truth = _problem_of(config)
    points = []
    replicates = config.replicates
    for point_idx, n in enumerate(config.n_grid):
        lam = lambda_schedule("by-n", config.schedule["c"],
                              config.schedule["exponent"], n)
        filt = _FILTER_SPECS[config.filter](lam)
        first = point_idx * replicates
        # squared errors formed in place: R-by-J temporaries would stay in
        # the heap and raise the peak resident memory of the next point
        sq_err = _replicate_coeffs(config, problem, truth, filt, n,
                                   range(first, first + replicates))
        sq_err -= truth
        sq_err **= 2
        errors = sq_err.sum(axis=1)
        points.append({
            "x": int(n), "lambda": filt.lam,
            "err_mean": float(errors.mean()),
            "err_se": float(errors.std(ddof=1) / math.sqrt(replicates))
            if replicates > 1 else 0.0,
            "err_median": float(np.median(errors)),
        })
    fit = fit_rate([(1.0 / p["x"], p["err_mean"]) for p in points])
    r, b = float(config.problem["r"]), float(config.problem["b"])
    alpha = statistical_exponents(r, b).alpha
    theory = {"alpha": alpha}
    tol = _tolerances(config)["slope"]
    checks = [_check("slope-matches-theory", abs(fit.slope - alpha), "<=", tol)]
    medians = [p["err_median"] for p in points]
    if len(medians) > 4:
        # consistency criterion: past the first two grid points the median
        # error must be decreasing in n
        corr = _spearman(config.n_grid[2:], medians[2:])
        checks.append(_check("median-error-decreasing", corr, "<=", -0.9))
    return _finish(config, points, fit, theory, checks, started)


def _run_det_rate(config, started):
    """Squared error of the perturbed-data reconstruction along a lambda
    schedule in delta, slope-fitted against delta and compared to the
    classical 4r/(2r+1) or, under the converted theory, to the n-rate
    converted to delta (``convert_upper``)."""
    problem, truth = _problem_of(config)
    y_clean = forward_data(problem, truth)
    points = []
    for point_idx, delta in enumerate(config.delta_grid):
        lam = lambda_schedule("by-delta", config.schedule["c"],
                              config.schedule["exponent"], delta)
        filt = _FILTER_SPECS[config.filter](lam)
        spec = PerturbationSpec(delta=delta, mode=config.perturbation,
                                index=config.perturbation_index, filter=filt)
        y_delta = perturb_data(problem, y_clean, spec, config.seed,
                               index=point_idx)
        estimate = solve_continuous(problem, filt, y_delta)
        err2 = float(np.sum((estimate - truth) ** 2))
        points.append({"x": float(delta), "lambda": filt.lam,
                       "err_mean": err2, "err_se": 0.0})
    fit = fit_rate([(p["x"], p["err_mean"]) for p in points])
    r, b = float(config.problem["r"]), float(config.problem["b"])
    if config.theory == "classical":
        exponent = classical_exponents(r, b).alpha
    else:
        exponents = statistical_exponents(r, b, gamma=config.gamma)
        exponent = convert_upper(exponents).exponent
    theory = {"delta_exponent": exponent, "branch": config.theory}
    tol = _tolerances(config)["slope"]
    checks = [_check("slope-matches-theory", abs(fit.slope - exponent),
                     "<=", tol)]
    return _finish(config, points, fit, theory, checks, started)


def _run_lemma_check(config, started):
    """At fixed (n, lambda): Monte-Carlo verification of the
    variance-plus-bias lower bound, the matching of the mean estimate with
    the continuous reconstruction, the exact sample bias-variance
    decomposition, and the dominance of the bounded-perturbation error by
    the sampled risk at noise level Delta(n, lambda)."""
    problem, truth = _problem_of(config)
    n = int(config.n)
    filt = _FILTER_SPECS[config.filter](config.lam)
    replicates = config.replicates
    coeff_rows = _replicate_coeffs(config, problem, truth, filt, n,
                                   range(replicates))
    err2 = np.sum((coeff_rows - truth) ** 2, axis=1)
    mc_mean = float(err2.mean())
    mc_se = float(err2.std(ddof=1) / math.sqrt(replicates))
    mean_coeffs = coeff_rows.mean(axis=0)
    mc_bias2 = float(np.sum((mean_coeffs - truth) ** 2))
    mc_var = float(np.mean(np.sum((coeff_rows - mean_coeffs) ** 2, axis=1)))

    y_clean = forward_data(problem, truth)
    f_lam = solve_continuous(problem, filt, y_clean)
    bias2 = float(np.sum((f_lam - truth) ** 2))
    hs = hs_norm(problem, filt)
    lower = config.sigma ** 2 / n * hs ** 2 + bias2

    comp_se = coeff_rows.std(axis=0, ddof=1) / math.sqrt(replicates)
    z = np.abs(mean_coeffs - f_lam) / np.where(comp_se > 0, comp_se, np.inf)
    identity_gap = abs(mc_mean - (mc_bias2 + mc_var)) / max(1.0, mc_mean)

    tolerances = _tolerances(config)
    link = RateLink.from_problem(problem, filt, truth, config.sigma)
    dmax = delta_of(n, link)
    det_worst = -np.inf
    for mode, idx in (("random-unit", None), ("fixed-mode", 1),
                      ("filter-adversarial", None)):
        spec = PerturbationSpec(delta=dmax, mode=mode, index=idx, filter=filt)
        y_delta = perturb_data(problem, y_clean, spec, config.seed)
        det_err2 = float(np.sum(
            (solve_continuous(problem, filt, y_delta) - truth) ** 2))
        det_worst = max(det_worst, det_err2)

    points = [{"x": n, "lambda": filt.lam, "err_mean": mc_mean,
               "err_se": mc_se, "mc_bias2": mc_bias2, "mc_var": mc_var,
               "theory_bias2": bias2, "hs_norm": hs, "delta_n": dmax,
               "det_err2_worst": det_worst}]
    theory = {"lower_bound": lower, "bias2": bias2, "hs_norm": hs}
    checks = [
        _check("risk-above-lower-bound", mc_mean - (lower - 3.0 * mc_se),
               ">=", 0.0),
        _check("mean-matches-continuous", float(np.max(z)), "<=",
               tolerances["z_max"]
               or _sidak_z(problem.size, _Z_FAMILY_LEVEL)),
        _check("bias-variance-identity", identity_gap, "<=",
               tolerances["identity"]),
        _check("perturbed-error-below-risk",
               det_worst - (mc_mean + 3.0 * mc_se), "<=", 0.0),
    ]
    return _finish(config, points, fit=None, theory=theory, checks=checks,
                   started=started)


def _run_gamma_study(config, started):
    """Noiseless midpoint grids with fixed lambda: kernel-side distance
    between the empirical penalized fit (the J-space Tikhonov solve) and
    the continuous one, in the kernel norm and pulled back to parameter
    space (the two must agree).  Past n = J the midpoint rule integrates
    every product of two modes exactly, so there the distance must be
    exact: at most the floor ``exact`` times the continuous norm.  Above
    the floor it must shrink at every step of the grid; distances at or
    below it are roundoff and are not ranked."""
    problem, truth = _problem_of(config)
    lam = float(config.lam)
    filt = FilterSpec.tikhonov(lam)
    g_cont = problem.mu * forward_data(problem, truth) / (problem.mu + lam)
    g_norm = rkhs_norm(problem, g_cont)
    points = []
    for n in config.n_grid:
        design = sample_design("grid", int(n))
        samples = sample_outputs(problem, truth, design, NoiseModel(),
                                 config.seed)
        # the kernel-side fit g = A f of the J-space Tikhonov solve, which
        # equivalence-check holds to kernel_tikhonov's n-by-n solve
        g = forward_data(problem, estimator_learn(problem, filt, samples))
        diff = g - g_cont
        hk = rkhs_norm(problem, diff)
        h1 = float(np.linalg.norm(correspondence_pullback(problem, diff)))
        points.append({"x": int(n), "lambda": lam, "err_mean": hk,
                       "err_se": 0.0, "h1_dist": h1})
    tolerances = _tolerances(config)
    # a distance at or below the floor is exact up to roundoff, whose size
    # and order depend on the solver and the BLAS, so it is never ranked
    floor = tolerances["exact"] * g_norm
    hk_values = [p["err_mean"] for p in points]
    worst_ratio = max((later / earlier for earlier, later
                       in zip(hk_values, hk_values[1:]) if earlier > floor),
                      default=0.0)
    # past n = J the midpoint rule integrates every sine product exactly,
    # so the empirical fit is the continuous one
    beyond = max((p["err_mean"] for p in points if p["x"] > problem.size),
                 default=0.0) / max(g_norm, 1e-300)
    agreement = max(abs(p["err_mean"] - p["h1_dist"]) for p in points)
    checks = [
        _check("error-decreasing", worst_ratio, "<", 1.0),
        _check("final-error-below-tenth", hk_values[-1],
               "<=", hk_values[0] / 10.0),
        _check("kernel-vs-parameter-norm", agreement, "<=",
               tolerances["norm_equality"]),
        _check("exact-for-n-above-J", beyond, "<=", tolerances["exact"]),
    ]
    theory = {"lambda": lam, "continuous_norm": g_norm, "exact_floor": floor}
    return _finish(config, points, fit=None, theory=theory, checks=checks,
                   started=started)


def equivalence_deviations(problem, samples, lam, seed=0):
    """Maximal relative deviations of the four equivalence properties.

    ``representer_oracle`` is the relative first-order optimality residual
    of the penalized empirical risk (1/n)||Phi f - y||^2 + lambda ||f||^2
    at ``kernel_tikhonov``'s solution, with Phi = u diag(sigma) and
    f = g / sigma.  It reads g, not beta, which is unidentifiable where K
    is near-singular.
    """
    rng = streams.generator(seed, streams.GENERIC_STREAM)
    iso_dev = 0.0
    pullback_dev = 0.0
    for _ in range(_EQUIVALENCE_DRAWS):
        f = rng.standard_normal(problem.size)
        iso_dev = max(iso_dev,
                      abs(rkhs_norm(problem, forward_data(problem, f))
                          - float(np.linalg.norm(f)))
                      / float(np.linalg.norm(f)))
        g2 = rng.standard_normal(problem.size)
        roundtrip = forward_data(problem,
                                 correspondence_pullback(problem, g2))
        pullback_dev = max(pullback_dev,
                           float(np.linalg.norm(roundtrip - g2))
                           / float(np.linalg.norm(g2)))
    learn = estimator_learn(problem, FilterSpec.tikhonov(lam), samples)
    kernel_side = kernel_tikhonov(problem, samples, lam)
    g_norm = float(np.linalg.norm(kernel_side.g_coeffs))
    forward_learn = forward_data(problem, learn)
    methods_dev = (float(np.linalg.norm(forward_learn - kernel_side.g_coeffs))
                   / max(g_norm, 1e-300))
    f_norm = float(np.linalg.norm(learn))
    norm_dev = (abs(rkhs_norm(problem, kernel_side.g_coeffs) - f_norm)
                / max(f_norm, 1e-300))
    u = basis_matrix(problem, samples.design)
    y, g = samples.outputs, kernel_side.g_coeffs
    residual = (problem.sigma_sv * (u.T @ (u @ g - y)) / samples.size
                + lam * g / problem.sigma_sv)
    moment = float(np.linalg.norm(problem.sigma_sv * (u.T @ y))) / samples.size
    oracle_dev = float(np.linalg.norm(residual)) / max(moment, 1e-300)
    return {"isometry": iso_dev, "pullback_roundtrip": pullback_dev,
            "methods_equivalence": max(methods_dev, norm_dev),
            "representer_oracle": oracle_dev}


def _run_equivalence_check(config, started):
    """Maximal deviations of the isometry, the pullback round-trip and the
    kernel-vs-parameter Tikhonov solves, and the first-order optimality
    residual of the penalized empirical risk at the closed-form solve
    (``equivalence_deviations``)."""
    problem, truth = _problem_of(config)
    design = sample_design(config.design, int(config.n), config.seed)
    samples = sample_outputs(problem, truth, design, NoiseModel(),
                             config.seed)
    deviations = equivalence_deviations(problem, samples, float(config.lam),
                                        seed=config.seed)
    tolerances = _tolerances(config)
    checks = [_check(name, deviations[name], "<=", tolerances[name])
              for name in sorted(deviations)]
    points = [{"x": float(i), "lambda": float(config.lam),
               "err_mean": deviations[name], "err_se": 0.0, "property": name}
              for i, name in enumerate(sorted(deviations))]
    return _finish(config, points, fit=None,
                   theory={"tolerances": tolerances}, checks=checks,
                   started=started)


class _Study(NamedTuple):
    """One study kind: its runner, the optional config entries it reads
    besides kind, problem, seed and tolerances, and the tolerances it reads
    with their defaults (a config may set any of them and no other)."""

    run: Callable
    reads: tuple
    tolerances: dict


_STUDIES = {
    "stat-rate": _Study(
        _run_stat_rate,
        ("filter", "design", "sigma", "n_grid", "schedule", "replicates"),
        {"slope": 0.12}),
    "det-rate": _Study(
        _run_det_rate,
        ("filter", "delta_grid", "schedule", "perturbation",
         "perturbation_index", "theory", "gamma"),
        {"slope": 0.15}),
    # z_max None: the Sidak threshold of the J per-mode z-scores at family
    # level _Z_FAMILY_LEVEL (_sidak_z)
    "lemma-check": _Study(
        _run_lemma_check,
        ("filter", "design", "sigma", "n", "lambda", "replicates"),
        {"z_max": None, "identity": 1e-10}),
    # always on the midpoint grid, so it does not read design
    "gamma-study": _Study(
        _run_gamma_study, ("n_grid", "lambda"),
        {"norm_equality": 1e-10, "exact": 1e-10}),
    "equivalence-check": _Study(
        _run_equivalence_check, ("design", "n", "lambda"),
        {"isometry": 1e-10, "pullback_roundtrip": 1e-12,
         "methods_equivalence": 1e-10, "representer_oracle": 1e-10}),
}


def run_study(config):
    """Execute a study and return its report."""
    config.validate()
    started = time.perf_counter()
    return _STUDIES[config.kind].run(config, started)


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
