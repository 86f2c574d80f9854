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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, ShapeError
from . import streams


@dataclass(frozen=True)
class SpectralProblem:
    """Diagonal model: eigenvalues of B = A*A in the fixed sine basis.

    ``mu`` must be positive and nonincreasing, dominated by d j**(-b).
    ``kernel_bound_sq`` is the finite constant 2 sum(mu) that dominates
    K(x, x) uniformly in x (the squared evaluation-functional bound).
    """

    mu: np.ndarray
    decay_b: float
    decay_d: float

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).copy()
        mu.setflags(write=False)
        if mu.ndim != 1 or mu.size == 0:
            raise ShapeError("mu must be a nonempty 1-d sequence")
        if not np.all(mu > 0):
            raise ParameterError("all eigenvalues must be positive")
        if np.any(np.diff(mu) > 0):
            raise ParameterError("eigenvalues must be nonincreasing")
        j = np.arange(1, mu.size + 1, dtype=float)
        bound = self.decay_d * j ** (-self.decay_b)
        if self.decay_b <= 1.0:
            raise ParameterError("decay exponent b must exceed 1")
        if self.decay_d <= 0.0:
            raise ParameterError("decay constant d must be positive")
        if np.any(mu > bound * (1.0 + 1e-12)):
            raise ParameterError("eigenvalues violate the decay bound d/j^b")
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

    Rejects size < 1, b <= 1 and d <= 0.
    """
    if size < 1:
        raise ParameterError("truncation order must be at least 1")
    if b <= 1.0:
        raise ParameterError("decay exponent b must exceed 1")
    if d <= 0.0:
        raise ParameterError("decay constant d must be positive")
    j = np.arange(1, size + 1, dtype=float)
    return SpectralProblem(mu=d * j ** (-b), decay_b=float(b), decay_d=float(d))


def make_source_solution(problem, r, w):
    """The source-condition solution f with coordinates mu_j**r w_j."""
    if r <= 0.0:
        raise ParameterError("smoothness r must be positive")
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


def basis_matrix(problem, x):
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
    exact zeros.

    The recurrence runs on the rows of one J-by-n buffer, so each step is a
    contiguous n-vector operation and no second n-by-J array is allocated.
    The result is that buffer's transposed (Fortran-ordered) view.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise DomainError("evaluation points must lie in [0, 1]")
    reflected = x > 0.5
    step = np.pi * np.where(reflected, 1.0 - x, x)
    k = 2.0 * np.sin(0.5 * step)
    k *= k
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


# Width of the low factor table: mode j = _FACTOR_WIDTH a + c splits into a
# high angle a _FACTOR_WIDTH pi x and a low angle c pi x.  A power of two, so
# _FACTOR_WIDTH x and its reduction mod 2 are exact.
_FACTOR_WIDTH = 16


def _sine_factor_tables(problem, x, out=None):
    """Unit powers at the two factor angles of every basis entry.

    Writing j = 16 a + c with c = 0..15 and a = 0..J // 16 (16 is
    ``_FACTOR_WIDTH``), angle addition gives

        sin(j pi x) = sin(16 a pi x) cos(c pi x) + cos(16 a pi x) sin(c pi x),

    so 16 + J // 16 + 1 complex table entries per point (29, or 58 doubles,
    at J = 200) stand in for the J basis entries.  The result is the pair
    (low, high) of complex tables with a row per power and a column per
    point: low[c] = e^{i c pi x} for c = 0..15 and
    high[a] = i conj(e^{i 16 a pi x}) = sin(16 a pi x) + i cos(16 a pi x)
    for a = 0..J // 16.  Their float views interleave (cos, sin) and
    (sin, cos) per point, so u_j(x_i) is sqrt(2) times the dot product of
    the entries 2i and 2i + 1 of row c of the one view and row a of the
    other.  ``out`` is an optional (low, high) pair of complex arrays of
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
    place between blocks: 33 complex multiplies per point at J = 200 (15 and
    12 rows, 3 and 3 squarings).
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
        out = (np.empty((width, x.size), dtype=complex),
               np.empty((problem.size // width + 1, x.size), dtype=complex))
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
    np.minimum(angle, 1.0 - angle, out=angle)
    angle *= 0.5 * np.pi
    half = np.sin(angle, out=angle)
    square = half * half
    units = np.empty(angle.shape, dtype=complex)
    np.sqrt(1.0 - square, out=units.imag)
    units.imag *= 2.0 * half
    # high: the powers of conj(e^{i pi t}), whose sine is negative unless
    # folded
    np.copysign(units.imag[1], t, out=units.imag[1])
    # cos h = 1 - 2 s**2 >= 0 (s**2 <= 1/2 for h <= pi/2), negative where
    # reflected
    np.multiply(square, -2.0, out=units.real)
    units.real += 1.0
    np.copysign(units.real, side, out=units.real)
    for table, first, unit in zip(out, (1.0, 1.0j), units):
        table[0] = first
        size = 1
        while size < len(table):
            rows = min(size, len(table) - size)
            np.multiply(table[:rows], unit, out=table[size:size + rows])
            size *= 2
            if size < len(table):
                unit *= unit
    return out


def eval_function(problem, coeffs, x):
    """Evaluate sum_j coeffs_j u_j(x) for x in [0, 1].

    Input and output space share the sine basis, so one evaluation serves
    coefficients from either side.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (problem.size,):
        raise ShapeError("coefficient length does not match the problem")
    values = basis_matrix(problem, x) @ coeffs
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
    """Turn a source-element spec into a concrete vector.

    "ones" gives (1, ..., 1); "unit-random" gives i.i.d. signs scaled to
    unit norm (drawn from the counter-based source stream of ``seed``);
    a sequence is used as-is.
    """
    if isinstance(w_spec, str):
        if w_spec not in _W_SPECS:
            raise ParameterError(f"unknown w_spec: {w_spec!r}")
        return _W_SPECS[w_spec](size, seed)
    w = np.asarray(w_spec, dtype=float)
    if w.shape != (size,):
        raise ShapeError("explicit w_spec has wrong length")
    return w


def problem_from_descriptor(descriptor):
    """Build (problem, f) from a JSON-style descriptor, f = mu**r w.

    Expected keys: J, b, d, r, w_spec and, optionally, seed (default 0).
    J and seed must be integers; a float or a boolean is refused, not
    truncated or read as 0 or 1.
    """
    try:
        size = descriptor["J"]
        b = float(descriptor["b"])
        d = float(descriptor["d"])
        r = float(descriptor["r"])
        w_spec = descriptor["w_spec"]
        seed = descriptor.get("seed", 0)
    except KeyError as exc:
        raise ParameterError(f"descriptor is missing key {exc}") from exc
    for key, value in (("J", size), ("seed", seed)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ParameterError(f"descriptor key {key!r} must be an integer, "
                                 f"got {value!r}")
    problem = build_power_law_problem(size, b, d)
    truth = make_source_solution(problem, r, resolve_w_spec(w_spec, size, seed))
    return problem, truth
