"""Fully computable diagonal test model for the equation y = Af.

The operator A acts between two copies of L2([0,1]) (Lebesgue probability
measure on both sides) and is diagonal in the sine basis

    u_j(x) = v_j(t) = sqrt(2) sin(j pi x),   j = 1..J,

with singular values sigma_j = sqrt(mu_j) where mu_j are the eigenvalues of
B = A*A.  Eigenvalues follow the power law mu_j = d j**(-b) with b > 1, so
every norm, bias and filter quantity has a closed form.  Solutions with a
prescribed smoothness are built through the source construction
f_j = mu_j**r w_j with a square-summable source element w.

The truth f, the data y = Af and every regularized solution are plain
float arrays of shape (J,): their coordinates in the shared sine basis.
``SpectralProblem`` is immutable after construction and every operation is
a pure function.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, ShapeError
from . import streams


@dataclass(frozen=True)
class SpectralProblem:
    """Diagonal model: eigenvalues of B = A*A in the fixed sine basis.

    ``mu`` must be positive and nonincreasing.  ``kernel_bound_sq`` is the
    finite constant 2 sum(mu) that dominates K(x, x) uniformly in x (the
    squared evaluation-functional bound).
    """

    mu: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).copy()
        mu.setflags(write=False)
        if mu.ndim != 1 or mu.size == 0:
            raise ShapeError("mu must be a nonempty 1-d sequence")
        if not np.all(mu > 0):
            raise ParameterError("all eigenvalues must be positive")
        if np.any(np.diff(mu) > 0):
            raise ParameterError("eigenvalues must be nonincreasing")
        object.__setattr__(self, "mu", mu)

    @property
    def size(self):
        """Truncation order J."""
        return int(self.mu.size)

    @property
    def sigma_sv(self):
        """Singular values sigma_j = sqrt(mu_j) of A."""
        return np.sqrt(self.mu)

    @property
    def kernel_bound_sq(self):
        """c**2 = 2 sum(mu_j): uniform bound on K(x, x)."""
        return 2.0 * float(np.sum(self.mu))


def build_power_law_problem(size, b, d):
    """Construct the problem with mu_j = d j**(-b), j = 1..size.

    size, b and d must pass the rules of J, b and d (``_MODEL_RULES``).
    """
    _refuse_faults(J=size, b=b, d=d)
    j = np.arange(1, size + 1, dtype=float)
    return SpectralProblem(mu=d * j ** (-b))


def make_source_solution(problem, r, w):
    """The source-condition solution f with coordinates mu_j**r w_j; r
    must pass its rule (``_MODEL_RULES``)."""
    _refuse_faults(r=r)
    w = np.asarray(w, dtype=float)
    if w.shape != (problem.size,):
        raise ShapeError(f"w has length {w.size}, problem has {problem.size} modes")
    return problem.mu ** r * w


def forward_data(problem, f_coeffs):
    """Apply A: the clean data y_j = sigma_j f_j."""
    f_coeffs = np.asarray(f_coeffs, dtype=float)
    if f_coeffs.shape != (problem.size,):
        raise ShapeError(f"coefficients have length {f_coeffs.size}, "
                         f"problem has {problem.size} modes")
    return problem.sigma_sv * f_coeffs


def basis_matrix(problem, x, out=None):
    """Evaluate the sine basis at points x: n-by-J matrix of u_j(x_i).

    Two sines per point instead of one per entry, by Reinsch's stabilised
    form of the Goertzel recurrence (Stoer & Bulirsch, trigonometric
    interpolation).  Points x > 1/2 are reflected to x' = 1 - x, which is
    exact by Sterbenz's lemma, and sin(j pi x) = (-1)**(j+1) sin(j pi x'),
    so the step h = pi x' lies in [0, pi/2].  With s_j = sin(j h),
    d_j = s_j - s_{j-1} and k = (2 sin(h/2))**2 = 2 - 2 cos h (free of the
    cancellation near h = 0):

        d_1 = s_1 = sin h,   d_j = d_{j-1} - k s_{j-1},   s_j = s_{j-1} + d_j.

    Against an exactly reduced reference, the maximum absolute error
    measures below 1e-13 at J = 200 (tested bound 1.5e-13) and below 5e-13
    at J = 1000.  Both are below the error of sqrt(2) sin(pi * outer(x, j)),
    which loses accuracy rounding the product pi x j.  x = 0 and x = 1 give
    exact zeros.  Any point outside [0, 1], NaN included, raises
    ``DomainError``.

    The recurrence runs on the rows of one J-by-n buffer, so each step is a
    contiguous n-vector operation and no second n-by-J array is allocated.
    The result is that buffer's transposed (Fortran-ordered) view.
    ``out`` is an optional J-by-n buffer with unit stride along the points,
    filled in place of a new one.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((x >= 0.0) & (x <= 1.0)):  # NaN included
        raise DomainError("evaluation points must lie in [0, 1]")
    reflected = x > 0.5
    step = np.pi * np.where(reflected, 1.0 - x, x)
    k = 2.0 * np.sin(0.5 * step)
    k *= k
    if out is None:
        out = np.empty((problem.size, x.size))
    np.sin(step, out=out[0])
    d = out[0].copy()
    for prev, row in zip(out, out[1:]):
        d -= k * prev
        np.add(prev, d, out=row)
    root2 = np.sqrt(2.0)
    out[0::2] *= root2
    out[1::2] *= np.where(reflected, -root2, root2)
    return out.T


# Basis entries (points times modes) that _basis_blocks evaluates at once:
# 2**18 doubles, a 2 MB buffer, 1,310 points at J = 200.  Against the
# unblocked reads, the kernel benchmark workload's peak RSS fell from 44.95
# to 40.59 MB and its wall time stayed at 0.074 s (2-core Xeon, one BLAS
# thread, medians of 10 alternating pairs).  gamma-study's grid sweep of
# sample_outputs and estimator_learn took 32.9 ms, against 28.5 ms in one
# block, 30.1 ms at 2**19 and 36.3 ms at 2**17 (best of 15).
_BLOCK_CELLS = 2 ** 18


def _basis_blocks(problem, x):
    """Yield (rows, block) pairs over consecutive slices ``rows`` of the
    points x, block = basis_matrix(problem, x[rows]) with at most
    _BLOCK_CELLS entries (one point at least).  The recurrence acts on
    each point alone, so every block row is the full matrix's row.  All
    blocks fill one buffer, so a block is valid until the next is drawn."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    step = max(1, min(x.size, _BLOCK_CELLS // problem.size))
    buffer = np.empty((problem.size, step))
    for start in range(0, x.size, step):
        points = x[start:start + step]
        yield (slice(start, start + points.size),
               basis_matrix(problem, points, out=buffer[:, :points.size]))


def grid_aliasing(problem, n):
    """The alias map of the n-point midpoint grid x_i = (i - 1/2) / n.

    Write j = 2 k n + m' with 0 <= m' < 2n.  On the grid, u_j is (-1)**k
    times u_m, where m = m' for m' <= n and m = 2n - m' otherwise (the
    reflection adds no sign), and u_0 = 0.  The modes 1..n are orthogonal
    there, with (1/n) sum_i u_m(x_i)**2 = D_m: 1 for 0 < m < n, 2 at m = n
    (u_n = +-sqrt 2 at every point) and 0 at m = 0.  So the grid Gram matrix
    is M = u'u / n = D_m sign_j sign_k where j and k share the class m, and
    0 elsewhere.  Returns the per-mode arrays (m, sign, D_m), in O(J) and
    with no basis.
    """
    k, classes = np.divmod(np.arange(1, problem.size + 1), 2 * n)
    np.minimum(classes, 2 * n - classes, out=classes)
    signs = 1.0 - 2.0 * (k % 2)
    weights = (classes > 0) + (classes == n).astype(float)
    return classes, signs, weights


# Width of a high step: mode j = _FACTOR_WIDTH a + d splits into a high
# angle a _FACTOR_WIDTH pi x and a low angle |d| pi x.  A power of two, so
# _FACTOR_WIDTH x and its reduction mod 2 are exact.  a = (j + _SHIFT) //
# _FACTOR_WIDTH puts d in [-7, 8], so the low table has rows c = |d| = 0..8.
_FACTOR_WIDTH = 16
_SHIFT = _FACTOR_WIDTH // 2 - 1
_LOW_ROWS = _FACTOR_WIDTH // 2 + 1
# Points whose high powers _sine_factor_tables holds complex at once, a
# 213 kB workspace at J = 200.  On an mc-iid pass's replicates 512 points
# took 13% longer than 1,024, in per-chunk calls, and 2,048 no less time.
_PLANE_CHUNK = 1024


def _split_modes(size):
    """The split j = 16 a + sign c of the modes j = 1..size (16 is
    ``_FACTOR_WIDTH``), with a = (j + 7) // 16, c in 0..8 and sign in
    {-1, 0, 1}: the int arrays (a, c, sign).  a runs to (size + 7) // 16."""
    highs, offsets = np.divmod(np.arange(1, size + 1) + _SHIFT, _FACTOR_WIDTH)
    offsets -= _SHIFT
    return highs, np.abs(offsets), np.sign(offsets)


def _sine_factor_tables(problem, x, out=None):
    """Unit powers at the two factor angles of every basis entry.

    Writing j = 16 a + d with a = (j + 7) // 16 and d = -7..8 (16 is
    ``_FACTOR_WIDTH``, see ``_split_modes``), c = |d| and sign = sign(d),
    angle addition gives

        sin((16 a +- c) pi x) = sin(16 a pi x) cos(c pi x)
                                +- cos(16 a pi x) sin(c pi x),

    so one pair of products serves the two modes 16 a + c and 16 a - c, and
    9 + (J + 7) // 16 + 1 complex table entries per point (22, or 44
    doubles, at J = 200) stand in for the J basis entries.  The tables are
    the unit powers low[c] = e^{i c pi x} for c = 0..8 and
    high[a] = i conj(e^{i 16 a pi x}) = sin(16 a pi x) + i cos(16 a pi x)
    for a = 0..(J + 7) // 16, with a column per point.  The result is the
    pair (low, high): low as a complex array of shape (9, points), whose
    float view interleaves (cos, sin) per point, and high as its planes of
    real and imaginary parts, a float array of shape (2, rows, points)
    holding (sin, cos) of 16 a pi x with unit stride along the points, as
    BLAS reads it.  ``out`` is an optional (low, high) pair of arrays of
    those shapes to fill and return.  Points must lie in [0, 1].

    Both angles are reduced exactly before any rounding.  The low angle
    reflects x > 1/2 to 1 - x as ``basis_matrix`` does.  For the high
    angle, 16 x is exact (a power of two) and so is t = 16 x - 2 floor(8 x)
    in [0, 2), a difference of two multiples of ulp(16 x) that is no larger
    than 16 x.  t > 1 folds to 2 - t (Sterbenz), which conjugates the unit,
    and then t > 1/2 reflects to 1 - t like x, which conjugates and negates
    it.  So each reduced step h lies in [0, pi/2], and its unit comes from
    one sine: with s = sin(h / 2), cos h = 1 - 2 s**2 and
    sin h = 2 s sqrt(1 - s**2), where 1 - s**2 >= 1/2.  The signs of a fold
    and a reflection go on that unit z, exactly.

    Each table is then filled by doubling from its row 0 (1 or i):
    table[k:2k] = table[:k] z**k for k = 1, 2, 4, 8, ..., squaring z in
    place between blocks: 26 complex multiplies per point at J = 200 (8 and
    12 rows, 3 and 3 squarings).  The high powers are formed _PLANE_CHUNK
    points at a time in a complex workspace and copied to the planes, so
    the planes cost no second table.
    Sign changes commute with rounding, so every row is the one the reduced
    unit's powers would give, signed.  x = 0 and x = 1 give exact zeros.
    Against an exactly reduced reference, the basis entries rebuilt from
    the tables measure below 6e-15 at J = 200 and 3e-14 at J = 1000,
    against 8e-14 and 4e-13 for ``basis_matrix`` (tested: at most 1.5e-13
    at J = 200 and no worse than ``basis_matrix`` at both J).
    """
    x = np.asarray(x, dtype=float)
    width = _FACTOR_WIDTH
    if out is None:
        out = (np.empty((_LOW_ROWS, x.size), dtype=complex),
               np.empty((2, (problem.size + _SHIFT) // width + 1, x.size)))
    t = width * x
    t -= 2.0 * np.floor(0.5 * t)
    # the low and the high angle over pi, folded into [0, 1] and reflected
    # into [0, 1/2]: where a reduction applies, its exact result is the
    # smaller, and the signs of t - 1 and of 1/2 - angle record which apply
    angle = np.empty((2, x.size))
    angle[0] = x
    np.subtract(2.0, t, out=angle[1])
    np.minimum(angle[1], t, out=angle[1])
    t -= 1.0
    side = 0.5 - angle
    # the parts of the units serve as scratch until they are written, so
    # the reduction holds 9 doubles per point
    units = np.empty(angle.shape, dtype=complex)
    np.subtract(1.0, angle, out=units.real)
    np.minimum(angle, units.real, out=angle)
    angle *= 0.5 * np.pi
    half = np.sin(angle, out=angle)
    square = np.multiply(half, half, out=units.real)
    np.subtract(1.0, square, out=units.imag)
    np.sqrt(units.imag, out=units.imag)
    half *= 2.0
    units.imag *= half
    # high: the powers of conj(e^{i pi t}), whose sine is negative unless
    # folded
    np.copysign(units.imag[1], t, out=units.imag[1])
    # cos h = 1 - 2 s**2 >= 0 (s**2 <= 1/2 for h <= pi/2), negative where
    # reflected
    square *= -2.0
    square += 1.0
    np.copysign(units.real, side, out=units.real)
    # the fill reads only the units
    del t, angle, side
    low, high = out
    _fill_powers(low, 1.0, units[0])
    work = np.empty((high.shape[1], min(x.size, _PLANE_CHUNK)), dtype=complex)
    for start in range(0, x.size, _PLANE_CHUNK):
        chunk = slice(start, start + _PLANE_CHUNK)
        unit = units[1][chunk]
        rows = _fill_powers(work[:, :unit.size], 1.0j, unit)
        np.copyto(high[0][:, chunk], rows.real)
        np.copyto(high[1][:, chunk], rows.imag)
    return out


def _fill_powers(table, first, unit):
    """Fill and return the complex rows table[k] = first z**k by doubling:
    table[k:2k] = table[:k] z**k, squaring the unit z in place."""
    table[0] = first
    size = 1
    while size < len(table):
        rows = min(size, len(table) - size)
        np.multiply(table[:rows], unit, out=table[size:size + rows])
        size *= 2
        if size < len(table):
            unit *= unit
    return table


def eval_function(problem, coeffs, x):
    """Evaluate sum_j coeffs_j u_j(x) for x in [0, 1].

    Input and output space share the sine basis, so one evaluation serves
    coefficients from either side.  The basis is read in blocks
    (``_basis_blocks``), so the memory is O(n) beyond one block.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (problem.size,):
        raise ShapeError("coefficient length does not match the problem")
    values = np.empty(np.size(x))
    for rows, block in _basis_blocks(problem, x):
        np.matmul(block, coeffs, out=values[rows])
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(values[0])
    return values


def _unit_random(size, seed):
    """i.i.d. signs scaled to unit norm, from the source stream of seed."""
    rng = streams.generator(seed, streams.SOURCE_STREAM)
    signs = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    return signs / np.sqrt(size)


# The source elements a w_spec may name, each a function of (size, seed).
_W_SPECS = {"ones": lambda size, seed: np.ones(size),
            "unit-random": _unit_random}


def resolve_w_spec(w_spec, size, seed=0):
    """Turn a source-element spec, valid under ``descriptor_faults``, into
    a concrete vector.

    "ones" gives (1, ..., 1); "unit-random" gives i.i.d. signs scaled to
    unit norm (drawn from the counter-based source stream of ``seed``);
    a sequence is used as-is.
    """
    if isinstance(w_spec, str):
        return _W_SPECS[w_spec](size, seed)
    return np.asarray(w_spec, dtype=float)


def _integer(value):
    """True for an integer of any type but bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _positive_integer(value):
    """True for an integer >= 1."""
    return _integer(value) and value >= 1


def _finite_number(value):
    """True for a finite number of any type; booleans, strings and an
    integer beyond the float range are refused."""
    try:
        return (isinstance(value, (int, float, np.integer, np.floating))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # math.isfinite of an integer beyond 2**1024
        return False


def _positive_number(value):
    """True for a finite number > 0."""
    return _finite_number(value) and value > 0


# The rule of each model parameter, with what it asks for: descriptor_faults
# judges a descriptor by them, and the public builders and rate functions
# refuse a value that breaks one (``_refuse_faults``).
_MODEL_RULES = {"J": (_positive_integer, "an integer >= 1"),
                "b": (lambda b: _finite_number(b) and b > 1,
                      "a finite number > 1"),
                "d": (_positive_number, "a finite number > 0"),
                "r": (_positive_number, "a finite number > 0")}


def _refuse_faults(**values):
    """Raise a ParameterError naming the first of the model parameters
    ``values`` (keyword J, b, d or r) that breaks its rule."""
    for key, value in values.items():
        valid, wanted = _MODEL_RULES[key]
        if not valid(value):
            raise ParameterError(f"{key} must be {wanted}, got {value!r}")


def descriptor_faults(descriptor):
    """The keys of a problem descriptor at fault, in rule order: J, b, d and
    r by ``_MODEL_RULES``, w_spec a name of _W_SPECS or J finite numbers
    (its length is judged only against a valid J) and the optional seed an
    integer.  Any other key is read by nothing."""
    size = descriptor.get("J")
    rules = {**{key: valid for key, (valid, _) in _MODEL_RULES.items()},
             "w_spec": lambda w: w in _W_SPECS if isinstance(w, str) else (
                 isinstance(w, (list, tuple))
                 and (not _positive_integer(size) or len(w) == size)
                 and all(_finite_number(v) for v in w)),
             "seed": _integer}
    rest = {"seed": 0, **descriptor}
    return ([key for key, valid in rules.items()
             if not valid(rest.pop(key, None))] + list(rest))


def problem_from_descriptor(descriptor):
    """Build (problem, f) from a JSON-style descriptor, f = mu**r w.

    The keys and their rules are those of ``descriptor_faults``, seed
    defaulting to 0; a ``ParameterError`` names every key at fault.  No value
    is converted to pass: a float J is not truncated, a boolean is not read
    as 0 or 1 and a string is not parsed.
    """
    faults = descriptor_faults(descriptor)
    if faults:
        raise ParameterError(f"problem descriptor keys at fault: {faults}")
    size = int(descriptor["J"])
    problem = build_power_law_problem(size, float(descriptor["b"]),
                                      float(descriptor["d"]))
    w = resolve_w_spec(descriptor["w_spec"], size, descriptor.get("seed", 0))
    return problem, make_source_solution(problem, float(descriptor["r"]), w)
