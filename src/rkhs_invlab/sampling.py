"""Discretization of the data function into n samples.

Two design schemes are supported: the deterministic midpoint grid
x_i = (i - 1/2)/n and i.i.d. Uniform[0,1] draws.  Outputs carry additive
i.i.d. Gaussian noise of one std sigma, so the conditional mean of Y given
X = x is always the clean data value y(x); at sigma = 0 the outputs are the
exact evaluations Y_i = y(x_i).

Bounded perturbations of the full data function are produced separately:
y_delta = y + delta * e with a unit-norm direction e that is either uniform
on the coefficient sphere, a single basis mode, or the basis mode on which
a given filter's reconstruction response s(mu_j) sigma_j is largest (the
worst mode for the reconstruction error).

All draws go through counter-based streams keyed by (seed, purpose,
replicate), so identical seeds give bit-identical samples on any platform
and a replicate's draws do not depend on which replicates came before it.
"""

from dataclasses import dataclass

import numpy as np

from . import streams
from .errors import ParameterError, ShapeError
from .spectral_model import (_positive_integer, _refuse_faults, eval_function,
                             forward_data)

# The design schemes a study config may name, and the perturbation modes
# (det-rate perturbs along filter-adversarial).
_DESIGNS = ("grid", "iid-uniform")
_PERTURBATION_MODES = ("random-unit", "fixed-mode", "filter-adversarial")


@dataclass(frozen=True)
class SampleSet:
    """n design points x_i and their outputs Y_i, as read-only arrays.

    The estimators depend only on these two arrays, never on how the
    points or the outputs were drawn.
    """

    design: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        design = np.asarray(self.design, dtype=float).copy()
        outputs = np.asarray(self.outputs, dtype=float).copy()
        if design.ndim != 1 or design.size == 0:
            raise ShapeError("design must be a nonempty 1-d sequence")
        if outputs.shape != design.shape:
            raise ShapeError("outputs must match the design in length")
        design.setflags(write=False)
        outputs.setflags(write=False)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "outputs", outputs)

    @property
    def size(self):
        return int(self.design.size)


@dataclass(frozen=True)
class PerturbationSpec:
    """Perturbation y + delta*e with ||e|| = 1.

    mode "random-unit": e uniform on the coefficient sphere;
    mode "fixed-mode": e = basis vector ``index`` (1-based);
    mode "filter-adversarial": e = basis vector maximizing s(mu_j) sigma_j
    for ``filter`` (the filter's worst single mode).
    """

    delta: float
    mode: str = "random-unit"
    index: int | None = None
    filter: object = None

    def __post_init__(self):
        _refuse_faults(delta=self.delta)
        if self.mode not in _PERTURBATION_MODES:
            raise ParameterError(f"unknown perturbation mode: {self.mode!r}")
        if self.mode == "fixed-mode" and not _positive_integer(self.index):
            raise ParameterError(f"fixed-mode requires a 1-based integer "
                                 f"mode index, got {self.index!r}")
        if self.mode == "filter-adversarial" and self.filter is None:
            raise ParameterError("filter-adversarial requires a filter")


def sample_design(scheme, n, seed=0, index=0):
    """Draw n design points, n an integer 1 <= n <= 2**53 (its ``_RULES``
    row): midpoint grid or i.i.d. Uniform[0,1].

    ``index`` selects the replicate substream; the grid ignores it.
    """
    _refuse_faults(n=n)
    if scheme not in _DESIGNS:
        raise ParameterError(f"unknown design scheme: {scheme!r}")
    if scheme == "grid":
        return (np.arange(1, n + 1) - 0.5) / n
    return _uniform_design(
        n, streams.generator(seed, streams.DESIGN_STREAM, index))


def sample_outputs(problem, f_true, design, sigma=0.0, seed=0, index=0):
    """Sample Y_i = y(x_i) + sigma zeta_i with y = A f_true, zeta i.i.d.
    standard Gaussian and sigma a finite number >= 0.

    The conditional mean of Y_i given x_i is exactly y(x_i); at sigma = 0
    the outputs are the exact evaluations and no noise is drawn.
    ``index`` selects the replicate substream for the noise draw.  The
    outputs are ``eval_function`` of y, which reads the basis in blocks,
    so the memory is O(n) beyond one block of ``_BLOCK_CELLS`` entries.
    """
    _refuse_faults(sigma=sigma)
    design = np.asarray(design, dtype=float)
    if design.ndim != 1 or design.size == 0:
        raise ShapeError("design must be a nonempty 1-d sequence")
    values = eval_function(problem, forward_data(problem, f_true), design)
    if sigma > 0.0:
        values += sigma * streams.generator(
            seed, streams.NOISE_STREAM, index).standard_normal(values.size)
    return SampleSet(design=design, outputs=values)


def _uniform_design(n, rng):
    """n i.i.d. Uniform[0,1) design points drawn from ``rng``."""
    return rng.random(n)


def perturb_data(problem, y, spec, seed=0, index=0):
    """Return y + delta*e with ||e|| = 1 exactly (coefficient 2-norm)."""
    y = np.asarray(y, dtype=float)
    if y.shape != (problem.size,):
        raise ShapeError("data length does not match the problem")
    if spec.delta == 0.0:
        return y.copy()
    direction = np.zeros(problem.size)
    if spec.mode == "random-unit":
        rng = streams.generator(seed, streams.PERTURBATION_STREAM, index)
        direction = rng.standard_normal(problem.size)
        direction /= np.linalg.norm(direction)
    elif spec.mode == "fixed-mode":
        if spec.index > problem.size:
            raise ShapeError(f"mode index {spec.index} exceeds {problem.size}")
        direction[spec.index - 1] = 1.0
    else:  # filter-adversarial
        direction[int(np.argmax(spec.filter.response(problem)))] = 1.0
    return y + spec.delta * direction
