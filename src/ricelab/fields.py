"""Random field families with exact pointwise evaluation.

Every family here evaluates a frozen realization X(t) and its Jacobian
analytically, with no interpolation anywhere: Gaussian fields are finite
random trigonometric sums, chi-square fields are norm-squares of those,
shot noise is a finite sum of kernel bumps, and the microlensing
deflection is a rational map.  Exact derivatives are what make level-set
counts and the integral formulas they are checked against commensurable.

Realizations are immutable and reentrant; all randomness flows through
counter-based streams keyed by (seed, tag), see :mod:`ricelab.rng`.

Each model kind answers what predictions and measurements ask of it by its own
methods (``sample``, ``value_density``, ``check_level`` and the rest; README,
"A new model"), so that no caller branches on the kind.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, ConfigurationError, DomainError, ModelError, SingularityError
from .rng import fanout_seed, stream, streams

# Evaluation matrices are chunked to roughly this many doubles.
_CHUNK_BUDGET = 4_000_000


def _is_real(value) -> bool:
    """Whether ``value`` is a real number and not a boolean."""
    # exact floats and ints skip the slower abstract-class test (bool is neither)
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))


def config_number(key: str, value, integral: bool):
    """``value`` as an int (``integral``) or a float, or a ConfigurationError.

    Accepts finite real numbers only, and for ``integral`` only whole ones:
    strings, lists, booleans, nan, inf and 30.9 realizations are errors, not
    values to coerce or truncate.
    """
    try:
        finite = _is_real(value) and math.isfinite(value)
    except OverflowError:  # an int too large for a double
        finite = False
    if not finite:
        raise ConfigurationError(f"{key} must be a finite number, got {value!r}")
    if not integral:
        return float(value)
    if value != int(value):
        raise ConfigurationError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def config_count(key: str, value, least: int) -> int:
    """``value`` as a whole number of at least ``least``, or a ConfigurationError."""
    n = config_number(key, value, integral=True)
    if n < least:
        raise ConfigurationError(f"{key} must be >= {least}, got {n}")
    return n


def config_positive(key: str, value) -> float:
    """``value`` as a finite number > 0 (a width, a radius), or a ConfigurationError."""
    x = config_number(key, value, integral=False)
    if not x > 0.0:
        raise ConfigurationError(f"{key} must be positive, got {x!r}")
    return x


def _config_array(x, key: str) -> np.ndarray:
    """``x`` as a float array of its own shape, every entry read by :func:`config_number`."""
    entries = np.asarray(x, dtype=object)
    return np.array([config_number(key, v, integral=False)
                     for v in entries.flat]).reshape(entries.shape)


def box_array(box, D: int, key: str = "box") -> np.ndarray:
    """``box`` as a (D, 2) float array of [lo, hi] rows, or a ConfigurationError.

    A line box may also be written flat, [lo, hi].  Every bound must be a
    finite real (booleans and strings are errors, not 1.0 and 0.0), and
    lo < hi on every axis.  ``key`` names the input in the error messages.
    """
    arr = _config_array(box, f"{key} bound")
    if D == 1 and arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape != (D, 2):
        rows = ", ".join(f"[lo{i}, hi{i}]" for i in range(D))
        form = "[lo, hi]" if D == 1 else f"[{rows}]"
        raise ConfigurationError(f"{key} must be {form}, got {box!r}")
    if not (arr[:, 0] < arr[:, 1]).all():
        raise ConfigurationError(f"{key} must satisfy lo < hi on every axis, got {box!r}")
    return arr


def _as_1d_positive(x, name) -> np.ndarray:
    a = _config_array(x, name).ravel()
    if a.size == 0:
        raise ConfigurationError(f"{name} must be non-empty")
    if np.any(a <= 0):
        raise ConfigurationError(f"{name} must be positive, finite reals")
    return a


# ---------------------------------------------------------------------------
# Spectral Gaussian fields (random trigonometric sums)
# ---------------------------------------------------------------------------


def _periodic_mean(f) -> float:
    """Mean over phi in (0, pi/2) of a smooth function ``f`` of cos^2 phi.

    Such an f is periodic, so the midpoint rule converges exponentially;
    nodes double until two rules agree to 1e-14 relative.
    """
    n, prev = 32, math.inf
    while True:
        est = float(np.mean(f((np.arange(n) + 0.5) * (0.5 * math.pi / n))))
        if abs(est - prev) <= 1e-14 * est or n >= 1 << 20:
            return est
        n, prev = 2 * n, est


def _gaussian_norm_mean(cov: np.ndarray) -> float:
    """E||Z|| for Z ~ N(0, cov) in the plane.

    With a, b the eigenvalues of ``cov``,
    E||Z|| = sqrt(2/pi) int_0^{pi/2} sqrt(a cos^2 phi + b sin^2 phi) dphi
    (||z|| is a quarter of the integral of |<z, e_phi>| over the circle).
    """
    a, b = np.maximum(np.linalg.eigvalsh(cov), 0.0)
    return math.sqrt(2.0 / math.pi) * 0.5 * math.pi * _periodic_mean(
        lambda phi: np.sqrt(a * np.cos(phi) ** 2 + b * np.sin(phi) ** 2))


class _SpectralGaussian:
    """The value law of both spectral Gaussian fields: N(0, lambda0), lambda0 = sum a_k^2."""

    @property
    def lambda0(self) -> float:
        return float(np.sum(self.amplitudes**2))

    def value_density(self, u: float) -> float:
        var = self.lambda0
        if var <= 0.0:
            raise ModelError("degenerate Gaussian variance")
        return math.exp(-0.5 * u * u / var) / math.sqrt(2.0 * math.pi * var)


@dataclass(frozen=True)
class SpectralGaussian1D(_SpectralGaussian):
    """Stationary Gaussian field X(t) = sum_k a_k (xi_k cos w_k t + xi'_k sin w_k t).

    Parameters
    ----------
    frequencies : array_like
        Positive angular frequencies w_k.
    amplitudes : array_like
        Positive amplitudes a_k.  The pointwise variance is
        lambda0 = sum a_k^2 and the derivative variance is
        lambda2 = sum a_k^2 w_k^2.
    """

    frequencies: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        f = _as_1d_positive(self.frequencies, "frequencies")
        a = _as_1d_positive(self.amplitudes, "amplitudes")
        if f.shape != a.shape:
            raise ConfigurationError("frequencies and amplitudes must have equal length")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "amplitudes", a)

    d = 1
    D = 1

    @property
    def lambda2(self) -> float:
        return float(np.sum(self.amplitudes**2 * self.frequencies**2))

    lambda2_det = lambda2  # of the 1 x 1 derivative covariance

    @property
    def lambda4(self) -> float:
        return float(np.sum(self.amplitudes**2 * self.frequencies**4))

    def covariance(self, tau, order: int = 0):
        """Covariance function C(tau) = sum a_k^2 cos(w_k tau), or its derivative.

        order 0, 1, 2 gives C, C', C''.
        """
        tau = np.asarray(tau, dtype=float)
        w = self.frequencies
        a2 = self.amplitudes**2
        ph = np.multiply.outer(tau, w)
        if order == 0:
            return np.cos(ph) @ a2
        if order == 1:
            return -np.sin(ph) @ (a2 * w)
        if order == 2:
            return -np.cos(ph) @ (a2 * w**2)
        raise ConfigurationError(f"unsupported covariance derivative order {order}")

    @classmethod
    def harmonics(cls, n: int, seed: int, omega_range=(0.5, 3.0)) -> "SpectralGaussian1D":
        """n equal-amplitude harmonics with frequencies drawn once from omega_range.

        Amplitudes are 1/sqrt(n), so lambda0 = 1 exactly.
        """
        lo, hi = float(omega_range[0]), float(omega_range[1])
        if not 0 < lo < hi:
            raise ConfigurationError("omega_range must satisfy 0 < lo < hi")
        rng = stream(seed, "model-frequencies")
        freqs = np.sort(lo + (hi - lo) * rng.random(int(n)))
        return cls(freqs, np.full(int(n), 1.0 / np.sqrt(n)))

    def sample(self, seed: int) -> "TrigRealization1D":
        return _trig_realization(TrigRealization1D, self, seed)

    def value_cdf(self, u: float) -> float:
        return 0.5 * (1.0 + math.erf(u / math.sqrt(2.0 * self.lambda0)))

    def gradient_norm_mean(self, u: float) -> float:
        # X' is independent of X(t); E|X'| half-normal
        return math.sqrt(2.0 * self.lambda2 / math.pi)

    @property
    def line_base(self) -> "SpectralGaussian1D":
        return self

    def corpus_values(self, seeds, rows) -> np.ndarray:
        return rows(seeds)


@dataclass(frozen=True)
class SpectralGaussian2D(_SpectralGaussian):
    """Stationary planar Gaussian field from a finite set of plane waves.

    X(t) = sum_k a_k (xi_k cos<k_k, t> + xi'_k sin<k_k, t>), t in R^2.
    """

    wavevectors: np.ndarray  # (K, 2)
    amplitudes: np.ndarray  # (K,)

    def __post_init__(self):
        w = _config_array(self.wavevectors, "wavevectors")
        a = _as_1d_positive(self.amplitudes, "amplitudes")
        if w.ndim != 2 or w.shape[1] != 2:
            raise ConfigurationError("wavevectors must have shape (K, 2)")
        if w.shape[0] != a.size:
            raise ConfigurationError("wavevectors and amplitudes must have equal length")
        if np.any(np.linalg.norm(w, axis=1) == 0):
            raise ConfigurationError("wavevectors must be nonzero")
        object.__setattr__(self, "wavevectors", w)
        object.__setattr__(self, "amplitudes", a)

    d = 1
    D = 2

    @functools.cached_property
    def _axis_tables(self) -> dict:
        """Per-axis phase tables of lattices, filled by ``_axis_table``; not a model field."""
        return {}

    @property
    def lambda2_matrix(self) -> np.ndarray:
        """Covariance of the gradient: sum a_k^2 k_k k_k^T."""
        a2 = self.amplitudes**2
        return np.einsum("k,ki,kj->ij", a2, self.wavevectors, self.wavevectors)

    @property
    def isotropic(self) -> bool:
        """Whether the gradient covariance is a multiple of I, to 1e-9 relative."""
        m = self.lambda2_matrix
        scale = max(abs(m[0, 0]), abs(m[1, 1]), 1e-300)
        return abs(m[0, 0] - m[1, 1]) <= 1e-9 * scale and abs(m[0, 1]) <= 1e-9 * scale

    @property
    def lambda2(self) -> float:
        """Per-direction second moment; requires the gradient covariance be isotropic."""
        if not self.isotropic:
            raise DomainError("gradient covariance is anisotropic; no scalar lambda2")
        return float(self.lambda2_matrix[0, 0])

    @property
    def lambda2_det(self) -> float:
        return float(np.linalg.det(self.lambda2_matrix))

    @property
    def hessian_fourth_moment(self) -> np.ndarray:
        """M[i,j,k,l] = Cov(d_ij X, d_kl X) = sum a^2 k_i k_j k_k k_l."""
        a2 = self.amplitudes**2
        w = self.wavevectors
        return np.einsum("k,ki,kj,kp,kq->ijpq", a2, w, w, w, w)

    @classmethod
    def isotropic_ring(cls, n_waves: int, kappa: float) -> "SpectralGaussian2D":
        """Equal-amplitude wave vectors equally spaced on the half-circle of radius kappa.

        The angles pi(j+1/2)/n cover each direction once (k and -k generate the
        same plane wave).  Discrete half-circle averages of cos^2 and cos^4 are
        exactly 1/2 and 3/8 for n >= 5, so the gradient covariance is exactly
        (kappa^2/2) I and the Hessian fourth moments match the continuous ring.
        """
        n = int(n_waves)
        if n < 5:
            raise ConfigurationError("isotropic_ring needs at least 5 wave vectors")
        if kappa <= 0:
            raise ConfigurationError("kappa must be positive")
        ang = np.pi * (np.arange(n) + 0.5) / n
        waves = kappa * np.column_stack([np.cos(ang), np.sin(ang)])
        return cls(waves, np.full(n, 1.0 / np.sqrt(n)))

    def sample(self, seed: int) -> "TrigRealization2D":
        return _trig_realization(TrigRealization2D, self, seed)

    def gradient_norm_mean(self, u: float) -> float:
        lam = self.lambda2_matrix  # the gradient is independent of X(t)
        if self.isotropic:
            # ||grad X|| has the length-2 chi law
            sigma = math.sqrt(lam[0, 0])
            return sigma * math.sqrt(math.pi / 2.0)
        return _gaussian_norm_mean(lam)


def _chunked_cols(n_cols: int, n_rows: int):
    step = max(1, _CHUNK_BUDGET // max(n_rows, 1))
    for start in range(0, n_cols, step):
        yield start, min(start + step, n_cols)


def _trig_table(waves: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(2K, n) table [cos(w_k . t_j); sin(w_k . t_j)] for waves (K, D), points (n, D).

    The one place where the cosines and sines of spectral phases are computed.
    """
    k = waves.shape[0]
    ph = waves @ pts.T
    table = np.empty((2 * k, pts.shape[0]))
    np.cos(ph, out=table[:k])
    np.sin(ph, out=table[k:])
    return table


def _partial_rows(waves: np.ndarray, coef_cos, coef_sin, partials) -> np.ndarray:
    """Coefficient rows over the table that evaluate the partial derivatives `partials`.

    A partial is a tuple of axes, () for the value.  Each order multiplies a
    wave by w_k[axis] and turns its (cos, sin) pair by a quarter,
    (c, s) -> (s, -c), so row @ table is the derivative of
    sum_k c_k cos(w_k . t) + s_k sin(w_k . t).  Stacked coefficients
    (..., K) give rows of shape (len(partials), ..., 2K).
    """
    k = waves.shape[0]
    rows = np.empty((len(partials),) + np.shape(coef_cos)[:-1] + (2 * k,))
    for r, axes in enumerate(partials):
        c, s = coef_cos, coef_sin
        factor = np.ones(k)
        for axis in axes:
            c, s = s, -c
            factor = factor * waves[:, axis]
        rows[r, ..., :k] = c * factor
        rows[r, ..., k:] = s * factor
    return rows


def _rows_of(real, waves: np.ndarray, partials) -> np.ndarray:
    """The ``_partial_rows`` of a spectral realization, built on first use and kept.

    They live in the realization's ``_rows`` cache, read-only, so the Newton
    steps of a root search turn the coefficients once per partial set.  The
    gradient and the Hessian are read from the rows of both together
    (``_ROWS_WITHIN``): each row depends on its own partial only.
    """
    rows = real._rows.get(partials)
    if rows is None:
        whole, part = _ROWS_WITHIN.get(partials, (partials, slice(None)))
        rows = real._rows.get(whole)
        if rows is None:
            rows = _partial_rows(waves, real.coef_cos, real.coef_sin, whole)
            rows.flags.writeable = False
            real._rows[whole] = rows
        rows = real._rows[partials] = rows[part]
    return rows


def _trig_sum(waves: np.ndarray, rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(len(rows), n) partial derivatives of one trigonometric sum at points (n, D).

    ``rows`` are the sum's ``_partial_rows``.
    """
    k = waves.shape[0]
    out = np.empty((rows.shape[0], pts.shape[0]))
    for lo, hi in _chunked_cols(pts.shape[0], 2 * k):
        table = _trig_table(waves, pts[lo:hi])
        # contracting the cos and sin halves apart keeps values bitwise equal to
        # sum c_k cos + sum s_k sin; one 2K-long contraction rounds differently
        out[:, lo:hi] = rows[:, :k] @ table[:k] + rows[:, k:] @ table[k:]
    return out


_AXIS_TABLES = 8  # per-axis phase tables a planar model keeps


def _axis_table(model: SpectralGaussian2D, axis: int, x: np.ndarray) -> np.ndarray:
    """``_trig_table`` of the wave components along ``axis`` at coordinates x, kept on the model.

    The table depends only on the wavevectors and the coordinates, so every
    field of a model reads the same one, read-only; the model keeps the last
    ``_AXIS_TABLES`` in its ``_axis_tables``, keyed by axis and coordinates.
    """
    memo = model._axis_tables
    key = (axis, x.tobytes())
    table = memo.get(key)
    if table is None:
        table = _trig_table(model.wavevectors[:, axis:axis + 1], x.reshape(-1, 1))
        table.flags.writeable = False
        if len(memo) >= _AXIS_TABLES:
            del memo[next(iter(memo))]
        memo[key] = table
    return table


def _trig_lattice(rows: np.ndarray, t0: np.ndarray, t1: np.ndarray, out=None) -> np.ndarray:
    """(len(rows), n0, n1) partials of one planar trigonometric sum on a lattice x0 x x1.

    With a = w_k0 x and b = w_k1 y, cos(a + b) = cos a cos b - sin a sin b and
    sin(a + b) = sin a cos b + cos a sin b, so c cos + s sin at (x, y) is
    (c cos a + s sin a) cos b + (s cos a - c sin a) sin b: per-axis tables
    t0 and t1 (``_axis_table``) and one contraction over 2K per partial,
    written to ``out`` when given.
    """
    k = t0.shape[0] // 2
    c, s = rows[:, :k, None], rows[:, k:, None]
    left = np.concatenate([c * t0[:k] + s * t0[k:], s * t0[:k] - c * t0[k:]], axis=1)
    return np.matmul(np.swapaxes(left, 1, 2), t1, out=out)


_VALUE = ((),)
_FIRST = ((0,),)
_SECOND = ((0, 0),)
_GRADIENT = ((0,), (1,))
_HESSIAN = ((0, 0), (0, 1), (1, 0), (1, 1))  # row-major entries of the 2x2 matrix
# partials and pointwise result shape of the value, gradient and Hessian
_ORDERS = ((_VALUE, ()), (_GRADIENT, (2,)), (_HESSIAN, (2, 2)))
_GRADIENT_HESSIAN = _GRADIENT + _HESSIAN
# partial sets that ``_rows_of`` reads from a larger set: (larger set, their rows in it)
_ROWS_WITHIN = {_GRADIENT: (_GRADIENT_HESSIAN, slice(0, 2)),
                _HESSIAN: (_GRADIENT_HESSIAN, slice(2, 6))}


def _eval_1d(real: "TrigRealization1D", t, partials):
    t = np.asarray(t, dtype=float)
    waves = real.model.frequencies[:, None]
    out = _trig_sum(waves, _rows_of(real, waves, partials), t.reshape(-1, 1))
    return float(out[0, 0]) if t.ndim == 0 else out[0].reshape(t.shape)


def _eval_2d(real: "TrigRealization2D", pts, partials, shape: tuple):
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 0 or pts.shape[-1] != 2:
        raise ConfigurationError("points must have shape (..., 2)")
    waves = real.model.wavevectors
    out = _trig_sum(waves, _rows_of(real, waves, partials), pts.reshape(-1, 2))
    out = out.T.reshape((-1,) + shape)
    if pts.ndim > 1:
        return out
    return float(out[0]) if shape == () else out[0]


def _trig_realization(cls, model, seed: int):
    """The ``cls`` realization of ``seed``: 2K normals of its stream times the amplitudes."""
    k = model.amplitudes.size
    xi = stream(seed, "trig-coeffs").standard_normal(2 * k)
    return cls(model, int(seed), model.amplitudes * xi[:k], model.amplitudes * xi[k:])


@dataclass(frozen=True)
class TrigRealization1D:
    model: SpectralGaussian1D
    seed: int
    coef_cos: np.ndarray  # a_k * xi_k
    coef_sin: np.ndarray  # a_k * xi'_k
    # _partial_rows by partial set, filled by _rows_of
    _rows: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    d = 1
    D = 1

    def value(self, t):
        return _eval_1d(self, t, _VALUE)

    def derivative(self, t):
        return _eval_1d(self, t, _FIRST)

    def second_derivative(self, t):
        return _eval_1d(self, t, _SECOND)

    jacobian = derivative
    hessian = second_derivative


@dataclass(frozen=True)
class TrigRealization2D:
    model: SpectralGaussian2D
    seed: int
    coef_cos: np.ndarray
    coef_sin: np.ndarray
    # _partial_rows by partial set, filled by _rows_of
    _rows: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    d = 1
    D = 2

    def value(self, pts):
        return _eval_2d(self, pts, _VALUE, ())

    def gradient(self, pts):
        return _eval_2d(self, pts, _GRADIENT, (2,))

    def hessian(self, pts):
        return _eval_2d(self, pts, _HESSIAN, (2, 2))

    jacobian = gradient

    def lattice(self, axes, order: int = 0, out=None):
        """Value (order 0), gradient (1) or Hessian (2) on the tensor lattice axes[0] x axes[1].

        Shape (n0, n1) + the pointwise result shape; entry [i, j] is the
        pointwise result at (axes[0][i], axes[1][j]) up to rounding, from
        separable phases (see ``_trig_lattice``) instead of one phase per node.
        With ``out``, an (m, n0, n1) array for m entries a node, the lattice
        is computed into it, and the result is a view of it.
        """
        if order not in (0, 1, 2):
            raise CapabilityError(f"lattice derivatives go up to order 2, got {order!r}")
        partials, shape = _ORDERS[order]
        x0, x1 = (np.asarray(a, dtype=float).ravel() for a in axes)
        rows = _rows_of(self, self.model.wavevectors, partials)
        t0, t1 = _axis_table(self.model, 0, x0), _axis_table(self.model, 1, x1)
        out = _trig_lattice(rows, t0, t1, out)
        return np.moveaxis(out, 0, -1).reshape((x0.size, x1.size) + shape)


def _abs_det_mean(base: SpectralGaussian2D) -> float:
    """E|det Hess Y| at a point of the stationary planar field ``base``.

    Whitened, det H = h11 h22 - h12^2 is l1 z1^2 - l2 z2^2 - l3 z3^2 for i.i.d.
    standard normals z, with l1 = l2 + l3 since E det H = m_1122 - m_1212 = 0.
    So E|det H| = 2 E[(l2 z2^2 + l3 z3^2 - l1 z1^2)^+]; in polar form
    (z2, z3) = sqrt(2W) (cos phi, sin phi) with W ~ Exp(1), E[(W - a)^+] = e^-a
    and E e^(-s z1^2) = (1 + 2s)^(-1/2) close the W and z1 integrals, leaving
    4 mean_phi g^(3/2) / sqrt(g + l1), g = l2 cos^2 phi + l3 sin^2 phi.  For an
    isotropic field it is 4 m_1122 / sqrt(3) (Longuet-Higgins 1957; Adler &
    Taylor, *Random Fields and Geometry*, 2007, ch. 11).
    """
    # cov of (h11, h22, h12); the whitened form's eigenvalues are those of form @ cov
    cov = base.hessian_fourth_moment.reshape(4, 4)[np.ix_([0, 3, 1], [0, 3, 1])]
    form = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, -1.0]])
    l2, l3 = np.maximum(-np.sort(np.linalg.eigvals(form @ cov).real)[:2], 0.0)

    def integrand(phi):
        g = l2 * np.cos(phi) ** 2 + l3 * np.sin(phi) ** 2
        return g ** 1.5 / np.sqrt(g + l2 + l3)

    return 4.0 * _periodic_mean(integrand)


@dataclass(frozen=True)
class GradientField:
    """The map t -> grad Y(t) of a scalar planar Gaussian field Y.

    Its roots are the critical points of Y; its Jacobian is the Hessian of Y.
    """

    base: SpectralGaussian2D

    def __post_init__(self):
        if not isinstance(self.base, SpectralGaussian2D):
            raise ConfigurationError("gradient_field base must be spectral_gaussian_2d")

    d = 2
    D = 2

    def sample(self, seed: int) -> "GradientFieldRealization":
        return GradientFieldRealization(self, int(seed), self.base.sample(seed))

    def value_density(self, u: np.ndarray) -> float:
        lam = self.base.lambda2_matrix
        sign, logdet = np.linalg.slogdet(lam)
        if sign <= 0:
            raise ModelError("degenerate gradient covariance")
        quad = float(u @ np.linalg.solve(lam, u))
        return math.exp(-0.5 * quad - 0.5 * logdet) / (2.0 * math.pi)

    def gradient_norm_mean(self, u: np.ndarray) -> float:
        return _abs_det_mean(self.base)  # |det Hess Y|, independent of the gradient


@dataclass(frozen=True)
class GradientFieldRealization:
    model: GradientField
    seed: int
    scalar: TrigRealization2D

    d = 2
    D = 2

    def value(self, pts):
        return self.scalar.gradient(pts)

    def jacobian(self, pts):
        return self.scalar.hessian(pts)

    def value_jacobian(self, pts):
        """Value (n, 2) and Jacobian (n, 2, 2) at points (n, 2), from one phase table.

        The scalar's gradient and Hessian rows go through one ``_trig_sum``;
        they equal ``value(pts)`` and ``jacobian(pts)`` entry for entry.
        """
        out = _eval_2d(self.scalar, np.reshape(pts, (-1, 2)), _GRADIENT_HESSIAN, (6,))
        return out[:, :2], out[:, 2:].reshape(-1, 2, 2)

    def lattice(self, axes, order: int = 0, out=None):
        """Value (order 0) or Jacobian (1) on a tensor lattice: the scalar's gradient or Hessian."""
        if order not in (0, 1):
            raise CapabilityError(f"gradient-field lattices go up to order 1, got {order!r}")
        return self.scalar.lattice(axes, order + 1, out)


# ---------------------------------------------------------------------------
# Chi-square fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChiSquareField:
    """X(t) = ||Y(t)||^2 for n independent unit-variance copies of a base field."""

    n: int
    base: object  # SpectralGaussian1D or SpectralGaussian2D

    def __post_init__(self):
        object.__setattr__(self, "n", config_count("n", self.n, 2))
        if not isinstance(self.base, (SpectralGaussian1D, SpectralGaussian2D)):
            raise ConfigurationError("chi-square base must be a spectral Gaussian model")
        if abs(self.base.lambda0 - 1.0) > 1e-9:
            raise ConfigurationError("chi-square base must have unit variance")

    d = 1

    @property
    def D(self) -> int:
        return self.base.D

    def check_level(self, u: float) -> None:
        if u <= 0.0:
            raise DomainError(
                f"a squared-norm field is positive: levels must satisfy u > 0, got {u!r}")

    def component_seeds(self, seed: int) -> list:
        return [fanout_seed(seed, "chi2-component", j) for j in range(self.n)]

    def sample(self, seed: int) -> "ChiSquareRealization":
        comps = tuple(self.base.sample(s) for s in self.component_seeds(seed))
        return ChiSquareRealization(self, int(seed), comps)

    def value_density(self, u: float) -> float:
        n = self.n
        # push-forward over the sphere ||y||^2 = u: constant integrand
        # (2 pi)^{-n/2} e^{-u/2} divided by the gradient norm 2 sqrt(u),
        # times the sphere area.
        area = 2.0 * math.pi ** (n / 2.0) * math.sqrt(u) ** (n - 1) / math.gamma(n / 2.0)
        dens = math.exp(-0.5 * u) * (2.0 * math.pi) ** (-n / 2.0)
        return area * dens / (2.0 * math.sqrt(u))

    def value_cdf(self, u: float) -> float:
        # imported here, not at module level: scipy costs more than all of ricelab
        from scipy.special import gammainc

        return float(gammainc(0.5 * self.n, u / 2.0))

    def gradient_norm_mean(self, u: float) -> float:
        # given ||Y||^2 = u the gradient 2 sum_j Y_j grad Y_j is exactly
        # N(0, 4u Lambda_2) (Worsley, *Adv. Appl. Probab.* 26, 1994)
        return 2.0 * math.sqrt(u) * self.base.gradient_norm_mean(0.0)

    @property
    def line_base(self):
        return self.base

    def corpus_values(self, seeds, rows) -> np.ndarray:
        comp = rows([c for s in seeds for c in self.component_seeds(s)])
        np.square(comp, out=comp)
        return np.sum(comp.reshape(len(seeds), self.n, -1), axis=1)


@dataclass(frozen=True)
class ChiSquareRealization:
    model: ChiSquareField
    seed: int
    components: tuple

    d = 1

    @property
    def D(self) -> int:
        return self.model.D

    def component_values(self, t):
        return np.stack([c.value(t) for c in self.components])

    def value(self, t):
        vals = self.component_values(t)
        return np.sum(vals**2, axis=0)

    def derivative(self, t):
        # d/dt ||Y||^2 = 2 sum y_j y_j'
        if self.D != 1:
            raise CapabilityError("derivative is the 1D accessor; use gradient")
        vals = self.component_values(t)
        ders = np.stack([c.derivative(t) for c in self.components])
        return 2.0 * np.sum(vals * ders, axis=0)

    def gradient(self, t):
        vals = self.component_values(t)
        grads = np.stack([c.gradient(t) for c in self.components])
        return 2.0 * np.einsum("c...,c...i->...i", vals, grads)

    def jacobian(self, t):
        return self.derivative(t) if self.D == 1 else self.gradient(t)


# ---------------------------------------------------------------------------
# Shot noise
# ---------------------------------------------------------------------------


def _bump(x, eta, out=None):
    """(1 - r^2)^2 for |r| < 1 and 0 elsewhere, r = x / eta, in one buffer (``out`` may be x).

    Bitwise equal to ``np.where(abs(r) < 1, (1 - r**2)**2, 0)``: 1 - r^2 is
    positive exactly when |r| < 1 in floating point, and ``fmax`` sends the
    rest, -inf from an overflowed r^2 and nan included, to +0.
    """
    out = np.empty(np.shape(x)) if out is None else out
    np.divide(np.asarray(x, dtype=float), eta, out=out)
    np.square(out, out=out)
    np.subtract(1.0, out, out=out)
    np.fmax(out, 0.0, out=out)
    return np.square(out, out=out)


def _unit_bump(unit, out=None):
    """(U (1 - U))^2, a sixteenth of the bump at x = -eta + 2 eta U, for any eta.

    With r = 2U - 1, 1 - r^2 = 4U(1 - U).  Against ``_bump`` at the x that
    ``Generator.uniform(-eta, eta, ...)`` makes of U, 16 times this is
    within 16 eps for every U in [0, 1): with u = eps / 2, r = x / eta is
    within 4u of 2U - 1, so 1 - r^2 is within 10u and the bump within 21u,
    while this form carries 5u of relative rounding on a value at most 1/16.
    """
    if out is None:
        out = np.empty(np.shape(unit))
    np.subtract(1.0, unit, out=out)
    np.multiply(out, unit, out=out)
    return np.square(out, out=out)


def _bump_prime(x, eta):
    x = np.asarray(x, dtype=float)
    r = x / eta
    out = -4.0 * (x / eta**2) * (1.0 - r**2)
    return np.where(np.abs(r) < 1.0, out, 0.0)


# expected impulses per shot-noise realization; a draw of this size and its sort
# order take 24 MB
MAX_EXPECTED_IMPULSES = 1e6


@dataclass(frozen=True)
class ShotNoiseModel:
    """1D shot noise X(t) = sum_i beta_i g(t - tau_i).

    The kernel is the quartic bump g(x) = (1 - (x/eta)^2)^2 on (-eta, eta):
    C^1 with compact support.  Poisson points have the given intensity per
    unit length; impulses beta are uniform on [beta_low, beta_high].
    Realizations place points on the domain padded by eta on both sides, so
    evaluation anywhere in the declared domain is free of boundary effects.
    The domain is at least as long as the kernel's support, 2 eta, and the
    expected number of points, intensity x (hi - lo + 2 eta), may not
    exceed ``MAX_EXPECTED_IMPULSES``.
    """

    eta: float
    intensity: float
    domain: tuple  # (lo, hi)
    beta_low: float = 0.5
    beta_high: float = 1.5

    def __post_init__(self):
        for key in ("eta", "intensity", "beta_low", "beta_high"):
            object.__setattr__(self, key, config_number(key, getattr(self, key), integral=False))
        lo, hi = box_array(self.domain, 1, "domain")[0].tolist()
        object.__setattr__(self, "domain", (lo, hi))
        config_positive("eta", self.eta)
        if (hi - lo) < 2.0 * self.eta:
            raise ConfigurationError(
                f"shot-noise domain [{lo}, {hi}] smaller than kernel support 2 eta = "
                f"{2.0 * self.eta}")
        if self.intensity < 0:
            raise ConfigurationError("intensity must be nonnegative")
        if not 0 < self.beta_low < self.beta_high:
            raise ConfigurationError("impulse range must satisfy 0 < low < high")
        expected = self.intensity * ((hi - lo) + 2.0 * self.eta)
        if not expected <= MAX_EXPECTED_IMPULSES:
            raise ConfigurationError(
                f"intensity x (domain length + 2 eta) = {expected:.3g} expected impulses "
                f"per realization exceeds {MAX_EXPECTED_IMPULSES:.0e}")

    d = 1
    D = 1
    joint_prediction = "shotnoise_rhs"

    def check_level(self, u: float) -> None:
        if u == 0.0:
            raise DomainError("the shot-noise value distribution has an atom at 0; pick u != 0")

    def sample(self, seed: int) -> "ShotNoiseRealization":
        pts, beta = shot_noise_impulses(self, stream(seed, "shot-noise"))
        return ShotNoiseRealization(self, int(seed), pts, beta)

    def kernel(self, x):
        return _bump(x, self.eta)

    def kernel_prime(self, x):
        return _bump_prime(x, self.eta)

    @property
    def kernel_integral(self) -> float:
        return 16.0 * self.eta / 15.0

    @property
    def beta_mean(self) -> float:
        return 0.5 * (self.beta_low + self.beta_high)

    def beta_density(self, b):
        b = np.asarray(b, dtype=float)
        inside = (b >= self.beta_low) & (b <= self.beta_high)
        return np.where(inside, 1.0 / (self.beta_high - self.beta_low), 0.0)

    def check_domain(self, t) -> np.ndarray:
        """``t`` as floats; :class:`DomainError` if any point lies outside the domain."""
        lo, hi = self.domain
        t = np.asarray(t, dtype=float)
        if np.any(t < lo) or np.any(t > hi):
            raise DomainError(
                "evaluation outside the boundary-effect-free zone "
                f"[{lo}, {hi}]"
            )
        return t

    def check_box(self, box) -> np.ndarray:
        """``box`` (:func:`box_array`); a ConfigurationError unless inside the domain, exactly."""
        arr = box_array(box, 1)
        (lo, hi), (dlo, dhi) = arr[0].tolist(), self.domain
        if lo < dlo or hi > dhi:
            raise ConfigurationError(
                f"box [{lo}, {hi}] exceeds the model domain [{dlo}, {dhi}]")
        return arr


def shot_noise_impulses(model: ShotNoiseModel, gen) -> tuple:
    """Sorted points and their amplitudes of one realization, drawn from ``gen``.

    Points are Poisson on the domain padded by eta on both sides; one
    argsort orders both arrays.  ``sample_realization`` draws from
    ``stream(seed, "shot-noise")``; a corpus draws the same from ``streams``.
    """
    lo, hi = model.domain
    span = (hi - lo) + 2.0 * model.eta
    count = gen.poisson(model.intensity * span)
    pts = lo - model.eta + span * gen.random(count)
    beta = model.beta_low + (model.beta_high - model.beta_low) * gen.random(count)
    order = pts.argsort()
    return pts[order], beta[order]


@dataclass(frozen=True)
class ShotNoiseRealization:
    model: ShotNoiseModel
    seed: int
    points: np.ndarray
    impulses: np.ndarray

    d = 1
    D = 1

    def _sum(self, t, kernel_fn):
        t = self.model.check_domain(t)
        single = t.ndim == 0
        t1 = np.atleast_1d(t)
        out = np.zeros(t1.shape)
        for lo, hi in _chunked_cols(t1.size, self.points.size):
            diff = t1[None, lo:hi] - self.points[:, None]
            out[lo:hi] = self.impulses @ kernel_fn(diff)
        return float(out[0]) if single else out

    def value(self, t):
        return self._sum(t, lambda x: self.model.kernel(x))

    def derivative(self, t):
        return self._sum(t, lambda x: self.model.kernel_prime(x))

    jacobian = derivative


# ---------------------------------------------------------------------------
# Gravitational microlensing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MicrolensModel:
    """Ensemble of star fields: N stars uniform on the disk of radius R."""

    kappa_c: float
    gamma: float
    m: float
    n_stars: int
    R: float

    def __post_init__(self):
        for key in ("kappa_c", "gamma", "m", "n_stars", "R"):
            value = config_number(key, getattr(self, key), integral=key == "n_stars")
            object.__setattr__(self, key, value)
        if self.m <= 0:
            raise ConfigurationError("star mass must be positive")
        if self.kappa_c < 0:
            raise ConfigurationError("continuous matter density must be >= 0")
        if self.n_stars < 0 or self.R <= 0:
            raise ConfigurationError("star count must be >= 0 and field radius positive")

    d = 2
    D = 2
    joint_prediction = "microlens_rhs"

    @property
    def c(self) -> float:
        return 1.0 - self.kappa_c + self.gamma

    def sample(self, seed: int) -> "MicrolensSystem":
        stars = np.empty((self.n_stars, 2))
        _draw_stars(self, stream(seed, "stars"), stars)
        return MicrolensSystem(self.kappa_c, self.gamma, self.m, stars, self.R, int(seed))


@dataclass(frozen=True)
class MicrolensSystem:
    """A frozen star field together with its deflection map.

    value(x) is the deflection eta(x) = c x - 2m sum_i (x - xi_i)/||x - xi_i||^2
    with c = 1 - kappa_c + gamma; jacobian(x) its exact derivative
    c I - 2m sum_i (I - 2 z z^T/||z||^2)/||z||^2, z = x - xi_i.
    """

    kappa_c: float
    gamma: float
    m: float
    star_positions: np.ndarray  # (N, 2)
    R: float
    seed: Optional[int] = None

    d = 2
    D = 2

    def __post_init__(self):
        s = np.asarray(self.star_positions, dtype=float)
        if s.ndim != 2 or s.shape[1] != 2:
            raise ConfigurationError("star_positions must have shape (N, 2)")
        object.__setattr__(self, "star_positions", s)

    @property
    def model(self) -> MicrolensModel:
        return MicrolensModel(
            self.kappa_c, self.gamma, self.m, self.star_positions.shape[0], self.R
        )

    @property
    def c(self) -> float:
        return 1.0 - self.kappa_c + self.gamma

    def _diffs(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        z = pts[:, None, :] - self.star_positions[None, :, :]  # (n, N, 2)
        r2 = np.sum(z**2, axis=-1)  # (n, N)
        if np.any(r2 < 1e-24):
            raise SingularityError("evaluation at (or within 1e-12 of) a star position")
        return pts, z, r2, single

    def value(self, x):
        pts, z, r2, single = self._diffs(x)
        out = self.c * pts - 2.0 * self.m * np.sum(z / r2[..., None], axis=1)
        return out[0] if single else out

    def jacobian(self, x):
        pts, z, r2, single = self._diffs(x)
        n, N = r2.shape
        eye = np.eye(2)
        zz = np.einsum("nki,nkj->nkij", z, z) / r2[..., None, None]
        terms = (eye[None, None, :, :] - 2.0 * zz) / r2[..., None, None]
        out = self.c * eye[None, :, :] - 2.0 * self.m * np.sum(terms, axis=1)
        return out[0] if single else out


# ---------------------------------------------------------------------------
# Levels
# ---------------------------------------------------------------------------


def level_value(model, level):
    """``level`` as the float (d = 1) or the 2-vector (d = 2) at which ``model`` is cut.

    Every prediction and experiment config reads levels here.  A level that
    is not a real number (for d = 2, a pair of them) is a ConfigurationError;
    one outside the model's domain is a DomainError: levels are finite and
    pass the model's ``check_level`` (squared norms are positive, shot noise not 0).
    """
    if isinstance(level, np.ndarray):
        level = level.tolist()
    if model.d == 2:
        if not (isinstance(level, (list, tuple)) and len(level) == 2
                and all(_is_real(v) for v in level)):
            raise ConfigurationError(
                f"{type(model).__name__} takes planar levels [u1, u2], got {level!r}")
        u = np.array([float(v) for v in level])
    elif _is_real(level):
        u = float(level)
    else:
        raise ConfigurationError(f"levels must be finite scalars, got {level!r}")
    if not np.isfinite(u).all():
        raise DomainError(f"levels must be finite, got {level!r}")
    check = getattr(model, "check_level", None)
    if check is not None:
        check(u)
    return u


# ---------------------------------------------------------------------------
# Deterministic fields (worked examples, counterexamples, trivial cases)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeterministicField:
    """Wrap explicit callables as a pseudo-realization with the evaluation API."""

    value_fn: Callable
    jacobian_fn: Callable
    d: int
    D: int
    hessian_fn: Optional[Callable] = None

    def value(self, t):
        return self.value_fn(t)

    def jacobian(self, t):
        return self.jacobian_fn(t)

    def derivative(self, t):
        return self.jacobian_fn(t)

    def gradient(self, t):
        return self.jacobian_fn(t)

    def hessian(self, t):
        if self.hessian_fn is None:
            raise CapabilityError("no hessian supplied")
        return self.hessian_fn(t)


# ---------------------------------------------------------------------------
# Sampling and generic evaluation
# ---------------------------------------------------------------------------


def sample_realization(model, seed: int):
    """Draw the frozen realization of `model` determined by `seed`: ``model.sample(seed)``.

    Each draws from ``stream(seed, tag)`` with its model's tag.  For many
    seeds, ``batch_coefficients``, ``batch_stars`` and the impulse-sum corpus
    (``harness._impulse_values``) draw the same numbers from one generator
    re-keyed per seed (``rng.streams``), which costs about 1 us a seed
    against 7 us for a new one.
    """
    return model.sample(seed)


def _draw_stars(model: MicrolensModel, gen, out: np.ndarray) -> None:
    """One star field of ``model`` from ``gen`` into ``out`` (n_stars, 2): uniform on the disk.

    The radii take the first n_stars doubles (R sqrt(U)), the angles the next.
    """
    radii = model.R * np.sqrt(gen.random(model.n_stars))
    ang = 2.0 * np.pi * gen.random(model.n_stars)
    np.multiply(radii, np.cos(ang), out=out[:, 0])
    np.multiply(radii, np.sin(ang), out=out[:, 1])


# ---------------------------------------------------------------------------
# Batched corpus evaluation
# ---------------------------------------------------------------------------


def batch_coefficients(model, seeds) -> np.ndarray:
    """Stack [cos coeffs, sin coeffs] rows for many seeds.

    Row i is bit-identical to the coefficients of sample_realization(model,
    seeds[i]) of a spectral model; only the evaluation order differs.
    The normals of every row come from one generator re-keyed per seed
    (``rng.streams``), drawn in place and scaled by the amplitudes at once.
    """
    out = np.empty((len(seeds), 2 * model.amplitudes.size))
    for row, gen in zip(out, streams(seeds, "trig-coeffs")):
        gen.standard_normal(out=row)
    out *= np.concatenate([model.amplitudes, model.amplitudes])
    return out


def batch_stars(model: MicrolensModel, seeds) -> np.ndarray:
    """Stack the star fields of many seeds, (len(seeds), n_stars, 2).

    Field i is bit-identical to sample_realization(model, seeds[i]).star_positions:
    both draw by ``_draw_stars``, here from one generator re-keyed per seed
    (``rng.streams``) and with no ``MicrolensSystem`` built.
    """
    out = np.empty((len(seeds), model.n_stars, 2))
    for stars, gen in zip(out, streams(seeds, "stars")):
        _draw_stars(model, gen, stars)
    return out


def trig_basis_1d(model: SpectralGaussian1D, ts) -> np.ndarray:
    """(2K, T) table [cos(w_k t); sin(w_k t)]: coefficient rows @ table evaluates realizations."""
    ts = np.asarray(ts, dtype=float)
    return _trig_table(model.frequencies[:, None], ts.reshape(-1, 1))


@dataclass(frozen=True)
class LineCorpus:
    """Realizations of one line field as rows of trigonometric coefficients.

    Row r of ``coefs`` is [cos coeffs, sin coeffs] of one realization (as
    ``batch_coefficients`` stacks them).  ``values`` evaluates every row on a
    shared grid with one product; ``value_at``, ``derivative_at`` and
    ``value_slope_at`` (both from one table) evaluate row ``rows[i]`` at
    ``t[i]`` for every i, so that the root finder refines the brackets of
    many rows together.
    """

    model: SpectralGaussian1D
    coefs: np.ndarray  # (m, 2K)

    @functools.cached_property
    def _slopes(self) -> np.ndarray:
        """(m, 2K) coefficient rows of the derivatives X', built on first use and kept."""
        k = self.model.frequencies.size
        waves = self.model.frequencies[:, None]
        return _partial_rows(waves, self.coefs[:, :k], self.coefs[:, k:], _FIRST)[0]

    def derivative_corpus(self) -> "LineCorpus":
        """The corpus of the derivatives X' of every row."""
        return LineCorpus(self.model, self._slopes)

    def values(self, ts) -> np.ndarray:
        """(m, T) values of every row on the points ts."""
        return self.coefs @ trig_basis_1d(self.model, ts)

    def _at(self, coefs, t) -> np.ndarray:
        return np.einsum("nk,kn->n", coefs, trig_basis_1d(self.model, t))

    def value_at(self, rows, t) -> np.ndarray:
        """Value of row rows[i] at t[i], for each i."""
        return self._at(self.coefs[rows], t)

    def derivative_at(self, rows, t) -> np.ndarray:
        """Derivative of row rows[i] at t[i], for each i."""
        return self._at(self._slopes[rows], t)

    def value_slope_at(self, rows, t) -> tuple:
        """(value_at, derivative_at) of the pairs (rows[i], t[i]) from one trig table."""
        table = trig_basis_1d(self.model, t)
        return (np.einsum("nk,kn->n", self.coefs[rows], table),
                np.einsum("nk,kn->n", self._slopes[rows], table))
