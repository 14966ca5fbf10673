"""Closed-form and Monte Carlo evaluation of level-set expectation integrands.

The central object is the rate integrand

    rate(t) = E[ normal_jacobian(jac X(t)) | X(t) = u ] * p_{X(t)}(u)

whose integral over the parameter box predicts the mean measure of the level
set ``{X = u}``.  This module evaluates that integral for every field family
in :mod:`ricelab.fields`, together with several weighted and higher-order
variants:

* :func:`kacrice_rhs` -- the plain mean-measure prediction,
* :func:`weighted_kacrice_rhs` -- predictions with a weight on the Jacobian,
* :func:`euler_char_expectation` -- signed critical-point count above a level,
* :func:`shotnoise_rhs` -- root-count prediction for impulse-sum fields,
* :func:`microlens_rhs` -- image-count prediction for point-mass deflection
  fields,
* :func:`second_factorial_moment_rhs` -- mean number of ordered root pairs.

Integrating both sides against a bump in the level variable is a comparison
of measurement and prediction, so it lives in :mod:`ricelab.harness`
(``ae_level_consistency``).

Conventions shared by every evaluator:

* Conditional laws are Gaussian regressions computed exactly; Monte Carlo is
  used only where the conditional expectation itself has no convenient closed
  form.  Sampling obeys the keyed-stream contract of :mod:`ricelab.rng`.
* Deterministic quadrature error and Monte Carlo standard error are tracked
  separately and reported side by side in the result objects.
* Stationary models short-circuit the outer quadrature: the integrand is
  constant, so the prediction is the rate times the box volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    CapabilityError,
    ConfigurationError,
    DegeneracyError,
    DomainError,
    ModelError,
)
from .fields import (
    ChiSquareField,
    GradientField,
    MicrolensModel,
    MicrolensSystem,
    ShotNoiseModel,
    SpectralGaussian1D,
    SpectralGaussian2D,
)
from .rng import stream

DEFAULT_INNER_MC = 4096
DEFAULT_NODES = 256
MIN_INNER_MC = 100

__all__ = [
    "GaussianRegression",
    "RhsEvaluation",
    "SignedEstimate",
    "level_density",
    "conditional_jacobian_expectation",
    "kacrice_rhs",
    "weighted_kacrice_rhs",
    "euler_char_expectation",
    "shotnoise_rhs",
    "microlens_rhs",
    "second_factorial_moment_rhs",
]


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class RhsEvaluation:
    """A nonnegative mean-measure prediction with its error budget.

    ``quadrature_error`` bounds the deterministic discretisation error
    (outer quadrature, window widths, series truncation); ``mc_error`` is the
    one-sigma Monte Carlo standard error.  ``total_error`` adds them, which is
    conservative because the two sources are independent.
    """

    value: float
    quadrature_error: float = 0.0
    mc_error: float = 0.0
    n_quadrature: int = 0
    n_mc: int = 0
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0.0:
            raise ValueError("prediction value must be finite and >= 0")
        if self.quadrature_error < 0.0 or self.mc_error < 0.0:
            raise ValueError("error components must be >= 0")

    @property
    def total_error(self) -> float:
        return self.quadrature_error + self.mc_error

    def to_doc(self) -> dict:
        doc = {
            "value": self.value,
            "quadrature_error": self.quadrature_error,
            "mc_error": self.mc_error,
            "total_error": self.total_error,
            "n_quadrature": self.n_quadrature,
            "n_mc": self.n_mc,
        }
        if self.detail:
            doc["detail"] = self.detail
        return doc


@dataclass(frozen=True)
class SignedEstimate:
    """A possibly signed estimate with the same split error budget."""

    value: float
    quadrature_error: float = 0.0
    mc_error: float = 0.0
    detail: dict = field(default_factory=dict)

    @property
    def total_error(self) -> float:
        return self.quadrature_error + self.mc_error

    def to_doc(self) -> dict:
        doc = {
            "value": self.value,
            "quadrature_error": self.quadrature_error,
            "mc_error": self.mc_error,
            "total_error": self.total_error,
        }
        if self.detail:
            doc["detail"] = self.detail
        return doc


# ---------------------------------------------------------------------------
# Gaussian regression


@dataclass(frozen=True)
class GaussianRegression:
    """Joint centred Gaussian vector split as (observed, latent).

    ``conditional(values)`` returns the exact conditional mean and covariance
    of the latent block given the observed block, via the Schur complement.
    """

    cov_obs: np.ndarray
    cov_latent: np.ndarray
    cov_cross: np.ndarray  # Cov(latent, observed), shape (n_latent, n_obs)

    def __post_init__(self) -> None:
        co = np.asarray(self.cov_obs, dtype=float)
        cl = np.asarray(self.cov_latent, dtype=float)
        cx = np.asarray(self.cov_cross, dtype=float)
        if co.ndim != 2 or co.shape[0] != co.shape[1]:
            raise ConfigurationError("cov_obs must be square")
        if cl.ndim != 2 or cl.shape[0] != cl.shape[1]:
            raise ConfigurationError("cov_latent must be square")
        if cx.shape != (cl.shape[0], co.shape[0]):
            raise ConfigurationError("cov_cross must be (n_latent, n_obs)")
        object.__setattr__(self, "cov_obs", co)
        object.__setattr__(self, "cov_latent", cl)
        object.__setattr__(self, "cov_cross", cx)

    @property
    def min_obs_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.cov_obs)[0])

    def conditional(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance of the latent block given observed = values."""
        v = np.atleast_1d(np.asarray(values, dtype=float))
        if v.shape[0] != self.cov_obs.shape[0]:
            raise ConfigurationError("observed value has wrong length")
        scale = float(np.max(np.abs(np.diag(self.cov_obs)))) or 1.0
        if self.min_obs_eigenvalue <= 1e-12 * scale:
            raise DegeneracyError("observed block is numerically singular")
        solve = np.linalg.solve
        gain = solve(self.cov_obs, self.cov_cross.T).T  # (n_latent, n_obs)
        mean = gain @ v
        cov = self.cov_latent - gain @ self.cov_cross.T
        # enforce symmetry lost to round-off
        cov = 0.5 * (cov + cov.T)
        return mean, cov


# ---------------------------------------------------------------------------
# small shared helpers


def _normalize_nodes(quadrature, default: int = DEFAULT_NODES) -> int:
    if quadrature is None:
        return default
    if isinstance(quadrature, Mapping):
        quadrature = quadrature.get("nodes", default)
    n = int(quadrature)
    if n < 2:
        raise ConfigurationError("quadrature needs at least 2 nodes")
    return n


def _check_inner_mc(inner_mc: int) -> int:
    n = int(inner_mc)
    if n < MIN_INNER_MC:
        raise ConfigurationError(
            f"inner_mc={n} is below the minimum of {MIN_INNER_MC}"
        )
    return n


def _box_volume(box) -> float:
    arr = np.asarray(box, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape[1] != 2 or np.any(arr[:, 1] <= arr[:, 0]):
        raise ConfigurationError("box must be a list of increasing (lo, hi) pairs")
    return float(np.prod(arr[:, 1] - arr[:, 0]))


def _box_array(box, expected_dim: int) -> np.ndarray:
    arr = np.asarray(box, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape != (expected_dim, 2):
        raise ConfigurationError(
            f"box must have shape ({expected_dim}, 2), got {arr.shape}"
        )
    if np.any(arr[:, 1] <= arr[:, 0]):
        raise ConfigurationError("box intervals must be increasing")
    return arr


def _gauss_pdf(x: float, var: float) -> float:
    if var <= 0.0:
        raise ModelError("degenerate Gaussian variance")
    return math.exp(-0.5 * x * x / var) / math.sqrt(2.0 * math.pi * var)


def _halfnormal_mean(var: float) -> float:
    """E|Z| for Z ~ N(0, var)."""
    return math.sqrt(2.0 * var / math.pi)


def _sphere_area(n: int, radius: float) -> float:
    """Surface area of the radius-``radius`` sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) * radius ** (n - 1) / math.gamma(n / 2.0)


def _hessian_cov_matrix(model: SpectralGaussian2D) -> np.ndarray:
    """Covariance of (h11, h22, h12) for the Hessian of the 2-D field."""
    m = model.hessian_fourth_moment
    idx = [(0, 0), (1, 1), (0, 1)]
    out = np.empty((3, 3))
    for a, (i, j) in enumerate(idx):
        for b, (k, l) in enumerate(idx):
            out[a, b] = m[i, j, k, l]
    return out


def _hessian_value_regression(model: SpectralGaussian2D) -> GaussianRegression:
    """Regression of (h11, h22, h12) on the field value.

    The gradient is uncorrelated with both blocks for the trigonometric
    construction, so conditioning on grad X = 0 is free.
    """
    lam = model.lambda2_matrix
    cross = -np.array([lam[0, 0], lam[1, 1], lam[0, 1]])[:, None]
    return GaussianRegression(
        cov_obs=np.array([[model.lambda0]]),
        cov_latent=_hessian_cov_matrix(model),
        cov_cross=cross,
    )


def _second_derivative_value_regression(model: SpectralGaussian1D) -> GaussianRegression:
    """Regression of X'' on X for a stationary line field (X' independent)."""
    return GaussianRegression(
        cov_obs=np.array([[model.lambda0]]),
        cov_latent=np.array([[model.lambda4]]),
        cov_cross=np.array([[-model.lambda2]]),
    )


# ---------------------------------------------------------------------------
# level density


def level_density(model, t, u, *, inner_mc: int = DEFAULT_INNER_MC, seed: int = 0,
                  **shot_kwargs) -> float:
    """Density of the field value X(t) at the level ``u``.

    For Gaussian families this is exact.  For the squared-sum field the
    push-forward over the level sphere is evaluated in closed form (the
    Gaussian density and the surface gradient norm are constant on the
    sphere).  For the impulse-sum field the density is a Poisson mixture
    evaluated by :func:`shotnoise_rhs` internals; for the deflection field it
    is an inner Monte Carlo over the non-designated point masses.
    """
    if isinstance(model, SpectralGaussian1D):
        return _gauss_pdf(float(u), model.lambda0)
    if isinstance(model, SpectralGaussian2D):
        return _gauss_pdf(float(u), model.lambda0)
    if isinstance(model, GradientField):
        uu = np.atleast_1d(np.asarray(u, dtype=float))
        if uu.shape != (2,):
            raise ConfigurationError("gradient-field level must be a 2-vector")
        lam = model.base.lambda2_matrix
        sign, logdet = np.linalg.slogdet(lam)
        if sign <= 0:
            raise ModelError("degenerate gradient covariance")
        quad = float(uu @ np.linalg.solve(lam, uu))
        return math.exp(-0.5 * quad - 0.5 * logdet) / (2.0 * math.pi)
    if isinstance(model, ChiSquareField):
        uf = float(u)
        if uf <= 0.0:
            raise DomainError("squared-sum level density requires u > 0")
        n = model.n
        # push-forward over the sphere ||y||^2 = u: constant integrand
        # (2 pi)^{-n/2} e^{-u/2} divided by the gradient norm 2 sqrt(u),
        # times the sphere area.
        area = _sphere_area(n, math.sqrt(uf))
        dens = math.exp(-0.5 * uf) * (2.0 * math.pi) ** (-n / 2.0)
        return area * dens / (2.0 * math.sqrt(uf))
    if isinstance(model, ShotNoiseModel):
        uf = float(u)
        if uf == 0.0:
            raise DomainError("impulse-sum density is singular at u = 0 (atom)")
        parts = _shotnoise_mixture(model, uf, want="density",
                                   inner_mc=inner_mc, seed=seed, **shot_kwargs)
        return parts["value"]
    if isinstance(model, (MicrolensModel, MicrolensSystem)):
        base = model.model if isinstance(model, MicrolensSystem) else model
        x = np.asarray(t, dtype=float)
        y = np.asarray(u, dtype=float)
        val, _se, _cl = _microlens_designated(base, x, y, want="density",
                                              inner_mc=_check_inner_mc(inner_mc),
                                              rng=stream(seed, "lens-density"))
        return val
    raise CapabilityError(f"no level density for {type(model).__name__}")


# ---------------------------------------------------------------------------
# conditional Jacobian expectation


def conditional_jacobian_expectation(model, t, u, *, inner_mc: int = DEFAULT_INNER_MC,
                                     seed: int = 0) -> tuple[float, float]:
    """E[ normal_jacobian(jac X(t)) | X(t) = u ] with a standard error.

    Closed forms are used when the conditional law makes the expectation
    elementary (stationary Gaussian value/derivative independence); otherwise
    the exact conditional Gaussian law is sampled.  The returned pair is
    (estimate, one-sigma standard error); the error is 0.0 for closed forms.
    Impulse-sum and deflection models have no rule here: their predictions
    are :func:`shotnoise_rhs` and :func:`microlens_rhs`.
    """
    inner_mc = _check_inner_mc(inner_mc)
    if isinstance(model, SpectralGaussian1D):
        # X' independent of X(t); E|X'| half-normal.
        return _halfnormal_mean(model.lambda2), 0.0
    if isinstance(model, SpectralGaussian2D):
        lam = model.lambda2_matrix
        off = abs(lam[0, 1])
        diag_gap = abs(lam[0, 0] - lam[1, 1])
        scale = max(lam[0, 0], lam[1, 1])
        if off <= 1e-9 * scale and diag_gap <= 1e-9 * scale:
            # isotropic: ||grad X|| has the length-2 chi law
            sigma = math.sqrt(lam[0, 0])
            return sigma * math.sqrt(math.pi / 2.0), 0.0
        rng = stream(seed, "cond-jacobian")
        chol = np.linalg.cholesky(lam)
        draws = rng.standard_normal((inner_mc, 2)) @ chol.T
        norms = np.hypot(draws[:, 0], draws[:, 1])
        return float(norms.mean()), float(norms.std(ddof=1) / math.sqrt(inner_mc))
    if isinstance(model, GradientField):
        rng = stream(seed, "cond-jacobian")
        dets = _sample_hessian_dets(model.base, rng, inner_mc)
        vals = np.abs(dets)
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(inner_mc))
    if isinstance(model, ChiSquareField):
        uf = float(u)
        if uf <= 0.0:
            raise DomainError("squared-sum conditioning requires u > 0")
        rng = stream(seed, "cond-jacobian")
        vals = _chi2_jacobian_draws(model, uf, rng, inner_mc)
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(inner_mc))
    raise CapabilityError(
        f"no conditional Jacobian rule for {type(model).__name__}"
    )


def _sample_hessian_dets(base: SpectralGaussian2D, rng, n: int) -> np.ndarray:
    """Draws of det(Hess Y) at a point, unconditional (grad-independent)."""
    cov = _hessian_cov_matrix(base)
    chol = np.linalg.cholesky(cov + 1e-14 * np.trace(cov) * np.eye(3))
    z = rng.standard_normal((n, 3)) @ chol.T
    return z[:, 0] * z[:, 1] - z[:, 2] ** 2


def _chi2_jacobian_draws(model: ChiSquareField, u: float, rng, n: int) -> np.ndarray:
    """Draws of normal_jacobian conditional on the squared sum equalling u.

    The conditional law over the level sphere weights the Gaussian density by
    the inverse surface-gradient norm; both are constant on the sphere, so
    the component vector is uniform on the radius-sqrt(u) sphere, and each
    component derivative stays an independent Gaussian.
    """
    nn = model.n
    y = rng.standard_normal((n, nn))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    y *= math.sqrt(u)
    base = model.base
    if isinstance(base, SpectralGaussian1D):
        g = rng.standard_normal((n, nn)) * math.sqrt(base.lambda2)
        return np.abs(2.0 * np.einsum("ij,ij->i", y, g))
    if isinstance(base, SpectralGaussian2D):
        chol = np.linalg.cholesky(base.lambda2_matrix)
        g = rng.standard_normal((n, nn, 2)) @ chol.T
        grad = 2.0 * np.einsum("ij,ijk->ik", y, g)
        return np.hypot(grad[:, 0], grad[:, 1])
    raise CapabilityError("squared-sum base must be a spectral Gaussian field")


# ---------------------------------------------------------------------------
# main prediction


def kacrice_rhs(model, box, u, *, quadrature=None, inner_mc: int = DEFAULT_INNER_MC,
                seed: int = 0) -> RhsEvaluation:
    """Predicted mean measure of the level set {X = u} over ``box``.

    Impulse-sum and deflection models go to :func:`shotnoise_rhs` and
    :func:`microlens_rhs` (``quadrature`` applies to the latter only).  Every
    other family is stationary, so the prediction is the constant rate
    density * E[normal Jacobian | X = u] times the box volume.
    """
    if isinstance(model, ShotNoiseModel):
        return shotnoise_rhs(model, box, u, inner_mc=inner_mc, seed=seed)
    if isinstance(model, (MicrolensModel, MicrolensSystem)):
        return microlens_rhs(model, u, box, quadrature=quadrature,
                             inner_mc=inner_mc, seed=seed)
    dim = _model_domain_dim(model)
    arr = _box_array(box, dim)
    vol = _box_volume(arr)
    dens = level_density(model, arr[:, 0], u, inner_mc=inner_mc, seed=seed)
    cond, cond_se = conditional_jacobian_expectation(
        model, arr[:, 0], u, inner_mc=inner_mc, seed=seed)
    rate = dens * cond
    return RhsEvaluation(
        value=rate * vol, quadrature_error=0.0, mc_error=dens * cond_se * vol,
        n_quadrature=1, n_mc=(inner_mc if cond_se > 0.0 else 0),
        detail={"rate": rate, "volume": vol, "path": "stationary"},
    )


def _model_domain_dim(model) -> int:
    if isinstance(model, SpectralGaussian1D):
        return 1
    if isinstance(model, (SpectralGaussian2D, GradientField)):
        return 2
    if isinstance(model, ChiSquareField):
        return _model_domain_dim(model.base)
    if isinstance(model, ShotNoiseModel):
        return 1
    if isinstance(model, (MicrolensModel, MicrolensSystem)):
        return 2
    raise CapabilityError(f"unknown model family {type(model).__name__}")


# ---------------------------------------------------------------------------
# weighted prediction


def weighted_kacrice_rhs(model, box, u, weight, *, inner_mc: int = DEFAULT_INNER_MC,
                         seed: int = 0) -> RhsEvaluation:
    """Level-set prediction with a weight applied under the conditional law.

    ``weight`` is one of

    * ``"unit"`` -- weight identically 1 (delegates to :func:`kacrice_rhs`),
    * ``"upcrossing"`` -- indicator of a positive derivative (line fields),
    * ``{"kind": "index", "k": int}`` -- critical points of signature ``k``
      (gradient fields; ``k`` counts negative Hessian eigenvalues),
    * a callable mapping derivative draws to nonnegative weights (line
      fields).
    """
    if weight == "unit" or (isinstance(weight, Mapping) and weight.get("kind") == "unit"):
        return kacrice_rhs(model, box, u, inner_mc=inner_mc, seed=seed)
    if weight == "upcrossing" or (
            isinstance(weight, Mapping) and weight.get("kind") == "upcrossing"):
        if not isinstance(model, SpectralGaussian1D):
            raise CapabilityError("upcrossing weight needs a scalar line field")
        vol = _box_volume(_box_array(box, 1))
        dens = _gauss_pdf(float(u), model.lambda0)
        # E[X' 1{X' > 0}] is half of E|X'| by sign symmetry of X'
        half = 0.5 * _halfnormal_mean(model.lambda2)
        return RhsEvaluation(value=dens * half * vol,
                             detail={"weight": "upcrossing"})
    if isinstance(weight, Mapping) and weight.get("kind") == "index":
        k = weight.get("k")
        if k not in (0, 1, 2):
            raise ConfigurationError("signature index k must be 0, 1, or 2")
        if not isinstance(model, GradientField):
            raise CapabilityError("signature weights need a gradient field")
        inner_mc = _check_inner_mc(inner_mc)
        vol = _box_volume(_box_array(box, 2))
        dens = level_density(model, None, u)
        # shared stream across k so the three signature classes partition
        # the same determinant draws
        rng = stream(seed, "index-weight")
        cov = _hessian_cov_matrix(model.base)
        chol = np.linalg.cholesky(cov + 1e-14 * np.trace(cov) * np.eye(3))
        z = rng.standard_normal((inner_mc, 3)) @ chol.T
        det = z[:, 0] * z[:, 1] - z[:, 2] ** 2
        trace = z[:, 0] + z[:, 1]
        if k == 1:
            sel = det < 0.0
        elif k == 0:
            sel = (det > 0.0) & (trace > 0.0)
        else:
            sel = (det > 0.0) & (trace < 0.0)
        vals = np.abs(det) * sel
        est = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(inner_mc))
        return RhsEvaluation(value=dens * est * vol, mc_error=dens * se * vol,
                             n_mc=inner_mc, detail={"weight": f"index-{k}"})
    if callable(weight):
        if not isinstance(model, SpectralGaussian1D):
            raise CapabilityError("callable weights need a scalar line field")
        inner_mc = _check_inner_mc(inner_mc)
        vol = _box_volume(_box_array(box, 1))
        dens = _gauss_pdf(float(u), model.lambda0)
        rng = stream(seed, "callable-weight")
        slope = rng.standard_normal(inner_mc) * math.sqrt(model.lambda2)
        w = np.asarray(weight(slope), dtype=float)
        if w.shape != slope.shape:
            raise ConfigurationError("weight callable must map draws to draws")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ConfigurationError("weights must be finite and >= 0")
        vals = np.abs(slope) * w
        est = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(inner_mc))
        return RhsEvaluation(value=dens * est * vol, mc_error=dens * se * vol,
                             n_mc=inner_mc, detail={"weight": "callable"})
    raise ConfigurationError(f"unknown weight specification {weight!r}")


# ---------------------------------------------------------------------------
# signed critical-point count (Euler characteristic of the excursion set)


def euler_char_expectation(model, box, u, *, quadrature=None,
                           inner_mc: int = DEFAULT_INNER_MC,
                           seed: int = 0) -> SignedEstimate:
    """Expected signed count of critical points with value above ``u``.

    Critical points of index ``i`` carry weight (-1)^(d - i); for smooth
    excursion sets without boundary effects this signed count equals the
    Euler characteristic.  The prediction is

        (-1)^d * int_u^inf dx int_box dt E[det Hess | X = x, grad X = 0]
                 * p_{X, grad X}(x, 0)

    evaluated with an exact conditional Gaussian law, a rational map
    x = u + s/(1-s) for the half-line, a midpoint rule in s (half-resolution
    comparison gives the quadrature error), and a common set of Gaussian
    draws across all x nodes (their shared randomness makes the standard
    error of the integrated value exact).
    """
    inner_mc = _check_inner_mc(inner_mc)
    nodes = _normalize_nodes(quadrature)
    if isinstance(model, SpectralGaussian1D):
        vol = _box_volume(_box_array(box, 1))
        d = 1
        reg = _second_derivative_value_regression(model)
        grad_dens = _gauss_pdf(0.0, model.lambda2)
    elif isinstance(model, SpectralGaussian2D):
        vol = _box_volume(_box_array(box, 2))
        d = 2
        reg = _hessian_value_regression(model)
        lam = model.lambda2_matrix
        sign, logdet = np.linalg.slogdet(lam)
        if sign <= 0:
            raise ModelError("degenerate gradient covariance")
        grad_dens = math.exp(-0.5 * logdet) / (2.0 * math.pi)
    else:
        raise CapabilityError(
            "signed counts need a scalar Gaussian field with two derivatives")
    lam0 = model.lambda0
    # conditional covariance is x-independent; factorise it once
    _, cov = reg.conditional(np.zeros(1))
    jitter = 1e-14 * max(float(np.trace(cov)), 1.0)
    chol = np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
    gain = reg.cov_cross[:, 0] / lam0  # conditional mean = gain * x
    rng = stream(seed, "euler-hessian")
    z = rng.standard_normal((inner_mc, cov.shape[0])) @ chol.T

    def node_values(x: np.ndarray) -> np.ndarray:
        """(n_mc, n_x) conditional det-Hessian draws times the joint density."""
        mean = np.outer(gain, x)  # (n_latent, n_x)
        if d == 1:
            h = z[:, 0][:, None] + mean[0][None, :]
            dets = h
        else:
            h11 = z[:, 0][:, None] + mean[0][None, :]
            h22 = z[:, 1][:, None] + mean[1][None, :]
            h12 = z[:, 2][:, None] + mean[2][None, :]
            dets = h11 * h22 - h12 * h12
        dens = np.exp(-0.5 * x * x / lam0) / math.sqrt(2.0 * math.pi * lam0)
        return dets * (dens * grad_dens)[None, :]

    def integrate(n_nodes: int) -> tuple[float, np.ndarray]:
        s = (np.arange(n_nodes) + 0.5) / n_nodes
        x = u + s / (1.0 - s)
        w = (1.0 / n_nodes) / (1.0 - s) ** 2
        vals = node_values(x)  # (n_mc, n_nodes)
        per_sample = vals @ w
        return float(per_sample.mean()), per_sample

    coarse, _ = integrate(nodes // 2)
    fine, per_sample = integrate(nodes)
    sign_factor = (-1.0) ** d
    value = sign_factor * fine * vol
    quad_err = abs(fine - coarse) * vol
    mc_se = float(per_sample.std(ddof=1) / math.sqrt(inner_mc)) * vol
    return SignedEstimate(value=value, quadrature_error=quad_err, mc_error=mc_se,
                          detail={"nodes": nodes, "n_mc": inner_mc, "dim": d})


# ---------------------------------------------------------------------------
# impulse-sum fields


def _shotnoise_single_terms(model: ShotNoiseModel, u: float,
                            n_nodes: int) -> tuple[float, float, float, float]:
    """Exact single-impulse contributions by midpoint quadrature.

    With one impulse in the window, X(t0) = b * g(s) with s uniform on
    (-eta, eta) and b uniform on the amplitude interval, and X'(t0) =
    b * g'(s).  Conditioning on X(t0) = u fixes b = u / g(s), so

        density(u) = int ds/(2 eta) p_b(u / g(s)) / g(s)
        joint(u)   = int ds/(2 eta) p_b(u / g(s)) / g(s) * |u g'(s) / g(s)|

    where p_b is the amplitude density.  Returns (density, joint) for
    ``n_nodes`` midpoints plus their half-resolution differences.
    """

    def quad(n: int) -> tuple[float, float]:
        s = -model.eta + (np.arange(n) + 0.5) * (2.0 * model.eta / n)
        g = model.kernel(s)
        gp = model.kernel_prime(s)
        pos = g > 0.0
        b = np.zeros_like(g)
        b[pos] = u / g[pos]
        amp = model.beta_density(b) * pos
        base = amp / np.where(pos, g, 1.0)
        dens = float(np.sum(base) / n)
        joint = float(np.sum(base * np.abs(u * gp / np.where(pos, g, 1.0))) / n)
        return dens, joint

    d2, j2 = quad(n_nodes)
    d1, j1 = quad(n_nodes // 2)
    return d2, abs(d2 - d1), j2, abs(j2 - j1)


def _shotnoise_window_term(
        model: ShotNoiseModel, u: float, p: int, delta: float, n_mc: int,
        rng) -> tuple[float, float, float, float, float, float]:
    """Window estimates of the p-impulse density and joint terms.

    Both are computed from one draw set with the Richardson width pair
    (delta, delta / 2).  Returns (density, density_se, density_bias, joint,
    joint_se, joint_bias) where the biases are the Richardson corrections.
    """
    s = rng.uniform(-model.eta, model.eta, size=(n_mc, p))
    b = rng.uniform(model.beta_low, model.beta_high, size=(n_mc, p))
    vals = np.einsum("ij,ij->i", b, model.kernel(s))
    slopes = np.einsum("ij,ij->i", b, model.kernel_prime(s))

    def pair(width: float) -> tuple[float, float, float, float]:
        hit = np.abs(vals - u) < width
        scale = 1.0 / (2.0 * width)
        dens_draws = hit * scale
        joint_draws = hit * np.abs(slopes) * scale
        return (float(dens_draws.mean()),
                float(dens_draws.std(ddof=1) / math.sqrt(n_mc)),
                float(joint_draws.mean()),
                float(joint_draws.std(ddof=1) / math.sqrt(n_mc)))

    d_c, dse_c, j_c, jse_c = pair(delta)
    d_f, dse_f, j_f, jse_f = pair(delta / 2.0)
    # quadratic window bias: Richardson with halved width
    dens = (4.0 * d_f - d_c) / 3.0
    joint = (4.0 * j_f - j_c) / 3.0
    return dens, dse_f, abs(dens - d_f), joint, jse_f, abs(joint - j_f)


def _shotnoise_mixture(model: ShotNoiseModel, u: float, *, want: str,
                       inner_mc: int = DEFAULT_INNER_MC, seed: int = 0,
                       p_max: int = 12, delta: float | None = None,
                       quad_nodes: int = 4096) -> dict:
    """Poisson mixture over the impulse count in the influence window.

    Only impulses within ``eta`` of the evaluation point matter, and their
    count is Poisson with mean 2 * eta * intensity.  The single-impulse term
    is exact quadrature; higher terms use the window estimator with a
    Richardson width pair; the truncation tail is bounded by the largest
    observed per-impulse growth rate times the Poisson tail mass.
    """
    if p_max < 2:
        raise ConfigurationError("p_max must be at least 2")
    inner_mc = _check_inner_mc(inner_mc)
    if delta is None:
        delta = 0.05 * abs(u)
    if delta <= 0.0:
        raise ConfigurationError("window width must be positive")
    lam = 2.0 * model.eta * model.intensity
    rng = stream(seed, "shot-window")
    dens_q, dens_qerr, joint_q, joint_qerr = _shotnoise_single_terms(
        model, u, quad_nodes)
    terms_d = {1: (dens_q, 0.0, dens_qerr)}
    terms_j = {1: (joint_q, 0.0, joint_qerr)}
    for p in range(2, p_max + 1):
        d, dse, dbias, j, jse, jbias = _shotnoise_window_term(
            model, u, p, delta, inner_mc, rng)
        terms_d[p] = (max(d, 0.0), dse, dbias)
        terms_j[p] = (max(j, 0.0), jse, jbias)
    src = terms_d if want == "density" else terms_j
    pois = {p: math.exp(-lam) * lam ** p / math.factorial(p)
            for p in range(1, p_max + 1)}
    value = sum(pois[p] * src[p][0] for p in src)
    mc_err = math.sqrt(sum((pois[p] * src[p][1]) ** 2 for p in src))
    bias = sum(pois[p] * src[p][2] for p in src)
    # tail: per-impulse terms grow at most linearly in p on this scale;
    # sum_{p > m} p * Pois(p) = lam * P(P >= m)
    growth = max(src[p][0] / p for p in src)
    tail_mass = 1.0 - sum(math.exp(-lam) * lam ** k / math.factorial(k)
                          for k in range(p_max))
    tail = 2.0 * growth * lam * tail_mass
    return {
        "value": value,
        "mc_error": mc_err,
        "quadrature_error": bias + tail,
        "tail_bound": tail,
        "p_max": p_max,
        "delta": delta,
        "n_mc": inner_mc * (p_max - 1),
    }


def shotnoise_rhs(model: ShotNoiseModel, box, u, *, p_max: int = 12,
                  inner_mc: int = 200_000, seed: int = 0,
                  delta: float | None = None) -> RhsEvaluation:
    """Predicted mean root count for the impulse-sum field on ``box``.

    The level must be nonzero: the field value has an atom at zero (empty
    influence window), so the density and the crossing rate are undefined
    there.
    """
    if float(u) == 0.0:
        raise DomainError("impulse-sum prediction is undefined at u = 0 (atom)")
    arr = _box_array(box, 1)
    lo, hi = model.domain
    if arr[0, 0] < lo - 1e-12 or arr[0, 1] > hi + 1e-12:
        raise ConfigurationError("box must lie inside the model domain")
    vol = _box_volume(arr)
    parts = _shotnoise_mixture(model, float(u), want="joint", inner_mc=inner_mc,
                               seed=seed, p_max=p_max, delta=delta)
    return RhsEvaluation(
        value=parts["value"] * vol,
        quadrature_error=parts["quadrature_error"] * vol,
        mc_error=parts["mc_error"] * vol,
        n_quadrature=4096,
        n_mc=parts["n_mc"],
        detail={"rate": parts["value"], "tail_bound": parts["tail_bound"],
                "p_max": parts["p_max"], "delta": parts["delta"],
                "volume": vol},
    )


# ---------------------------------------------------------------------------
# point-mass deflection fields


def _microlens_designated(model: MicrolensModel, x: np.ndarray, y: np.ndarray, *,
                          want: str, inner_mc: int, rng,
                          eps_star: float = 1e-6) -> tuple[float, float, dict]:
    """Inner Monte Carlo for the deflection-map density at a point.

    One point mass is designated and solved for: given the other masses, the
    deflection equation at ``x`` pins the designated offset vector ``z*``
    (the inversion ``z* = 2 m w / |w|^2`` of the excess deflection ``w``),
    hence the designated position ``xi* = x - z*``.  The change of variables
    carries the Jacobian ``|z*|^4 / (4 m^2)``, which cancels the blow-up of
    the lens Jacobian determinant near the mass, so the integrand stays
    bounded.  ``want`` selects the plain density or the joint (density times
    |det jacobian|) estimate.  Samples with any mass within ``eps_star`` of
    ``x`` are excluded; their count is reported as clamped mass.
    """
    n_rest = model.n_stars - 1
    m = model.m
    c = model.c
    area = math.pi * model.R ** 2
    if n_rest > 0:
        rest = rng.uniform(size=(inner_mc, n_rest, 2))
        radii = model.R * np.sqrt(rest[..., 0])
        angles = 2.0 * math.pi * rest[..., 1]
        rest_pos = np.stack([radii * np.cos(angles), radii * np.sin(angles)],
                            axis=-1)
        zr = x[None, None, :] - rest_pos  # (n, n_rest, 2)
        r2 = np.einsum("ijk,ijk->ij", zr, zr)
        ok = np.all(r2 > eps_star ** 2, axis=1)
        r2s = np.where(r2 > 0.0, r2, 1.0)
        defl = 2.0 * m * np.einsum("ijk,ij->ik", zr, 1.0 / r2s)
    else:
        ok = np.ones(inner_mc, dtype=bool)
        defl = np.zeros((inner_mc, 2))
        rest_pos = np.zeros((inner_mc, 0, 2))
    w = c * x[None, :] - defl - y[None, :]  # (n, 2)
    w2 = np.einsum("ij,ij->i", w, w)
    nz = w2 > 1e-28
    ok &= nz
    w2s = np.where(nz, w2, 1.0)
    zstar = 2.0 * m * w / w2s[:, None]
    xi = x[None, :] - zstar
    inside = np.einsum("ij,ij->i", xi, xi) <= model.R ** 2
    zstar_r2 = np.einsum("ij,ij->i", zstar, zstar)
    near = zstar_r2 <= eps_star ** 2
    ok &= ~near
    weight = np.where(ok & inside,
                      (zstar_r2 ** 2) / (4.0 * m * m) / area, 0.0)
    if want == "joint":
        # |det jac| at x with the designated mass in place
        dets = _lens_det_batch(model, x, zstar, rest_pos)
        weight = weight * np.abs(dets)
    est = float(weight.mean())
    se = float(weight.std(ddof=1) / math.sqrt(max(weight.size, 2)))
    clamped = {"excluded": int(np.count_nonzero(~ok)), "eps_star": eps_star,
               "max_weight": float(weight.max(initial=0.0))}
    return est, se, clamped


def _lens_det_batch(model: MicrolensModel, x: np.ndarray, zstar: np.ndarray,
                    rest_pos: np.ndarray) -> np.ndarray:
    """det(jac eta)(x) for a batch of mass layouts sharing the point x."""
    n = zstar.shape[0]
    jac = np.zeros((n, 2, 2))
    jac[:, 0, 0] = model.c
    jac[:, 1, 1] = model.c
    blocks = [zstar[:, None, :]]
    if rest_pos.shape[1] > 0:
        blocks.append(x[None, None, :] - rest_pos)
    for z in blocks:
        r2b = np.einsum("ijk,ijk->ij", z, z)
        r2b = np.where(r2b > 0.0, r2b, 1.0)
        unit = z / np.sqrt(r2b)[..., None]
        outer = np.einsum("ijk,ijl->ijkl", unit, unit)
        eye = np.eye(2)[None, None, :, :]
        jac -= np.sum(2.0 * model.m * (eye - 2.0 * outer) / r2b[..., None, None],
                      axis=1)
    return jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]


def _region_nodes(region, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint nodes and weights for a disk or box region."""
    if isinstance(region, Mapping) and region.get("kind") == "disk":
        center = np.asarray(region["center"], dtype=float)
        radius = float(region["radius"])
        if radius <= 0.0:
            raise ConfigurationError("disk radius must be positive")
        n_r = nodes
        n_t = 2 * nodes
        # equal-area radial cells: uniform grid in r^2
        s = (np.arange(n_r) + 0.5) / n_r
        r = radius * np.sqrt(s)
        theta = 2.0 * math.pi * (np.arange(n_t) + 0.5) / n_t
        rr, tt = np.meshgrid(r, theta, indexing="ij")
        pts = np.stack([center[0] + rr * np.cos(tt),
                        center[1] + rr * np.sin(tt)], axis=-1).reshape(-1, 2)
        w = np.full(pts.shape[0], math.pi * radius ** 2 / (n_r * n_t))
        return pts, w
    arr = _box_array(region, 2)
    hx = (arr[0, 1] - arr[0, 0]) / nodes
    hy = (arr[1, 1] - arr[1, 0]) / nodes
    xs = arr[0, 0] + (np.arange(nodes) + 0.5) * hx
    ys = arr[1, 0] + (np.arange(nodes) + 0.5) * hy
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([xx, yy], axis=-1).reshape(-1, 2)
    return pts, np.full(pts.shape[0], hx * hy)


def microlens_rhs(model, y, region, *, quadrature=None,
                  inner_mc: int = DEFAULT_INNER_MC, seed: int = 0,
                  eps_star: float = 1e-6) -> RhsEvaluation:
    """Predicted mean image count of source ``y`` over the region.

    Averages over the point-mass ensemble (independent uniform positions on
    the configuration disk).  Requires a supercritical deflection strength;
    subcritical configurations flip the Jacobian sign at infinity and the
    designated-mass construction is not validated there.
    """
    if isinstance(model, MicrolensSystem):
        base = model.model
    elif isinstance(model, MicrolensModel):
        base = model
    else:
        raise CapabilityError("expected a point-mass deflection model")
    if base.c >= 0.0:
        raise CapabilityError(
            "image-count prediction requires a supercritical deflection "
            f"(1 - kappa_c + gamma = {base.c} >= 0)")
    y = np.asarray(y, dtype=float)
    if y.shape != (2,):
        raise ConfigurationError("source position must be a 2-vector")
    if base.n_stars == 0:
        # deterministic linear map: exactly one image at y / c
        img = y / base.c
        inside = _point_in_region(img, region)
        return RhsEvaluation(value=1.0 if inside else 0.0,
                             detail={"path": "deterministic", "image": img.tolist()})
    nodes = _normalize_nodes(quadrature, default=24)
    inner_mc = _check_inner_mc(inner_mc)
    pts, w = _region_nodes(region, nodes)
    pts_c, w_c = _region_nodes(region, max(nodes // 2, 2))
    total, var_sum, excluded = _microlens_quadrature(
        base, y, pts, w, inner_mc, seed, eps_star)
    coarse, _vc, _ec = _microlens_quadrature(
        base, y, pts_c, w_c, max(inner_mc // 2, MIN_INNER_MC), seed + 1, eps_star)
    return RhsEvaluation(
        value=max(total, 0.0),
        quadrature_error=abs(total - coarse),
        mc_error=math.sqrt(var_sum),
        n_quadrature=pts.shape[0],
        n_mc=inner_mc * pts.shape[0],
        detail={"excluded_samples": excluded, "eps_star": eps_star,
                "nodes": nodes},
    )


def _microlens_quadrature(base: MicrolensModel, y: np.ndarray, pts: np.ndarray,
                          w: np.ndarray, inner_mc: int, seed: int,
                          eps_star: float) -> tuple[float, float, int]:
    total = 0.0
    var_sum = 0.0
    excluded = 0
    for i, (pt, wi) in enumerate(zip(pts, w)):
        rng = stream(seed, "lens-node", i)
        est, se, cl = _microlens_designated(base, pt, y, want="joint",
                                            inner_mc=inner_mc, rng=rng,
                                            eps_star=eps_star)
        total += wi * est
        var_sum += (wi * se) ** 2
        excluded += cl["excluded"]
    return total, var_sum, excluded


def _point_in_region(p: np.ndarray, region) -> bool:
    if isinstance(region, Mapping) and region.get("kind") == "disk":
        center = np.asarray(region["center"], dtype=float)
        return float(np.sum((p - center) ** 2)) <= float(region["radius"]) ** 2
    arr = _box_array(region, 2)
    return bool(np.all(p >= arr[:, 0]) and np.all(p <= arr[:, 1]))


# ---------------------------------------------------------------------------
# second factorial moment


def second_factorial_moment_rhs(model: SpectralGaussian1D, interval, u, *,
                                quadrature=None, inner_mc: int = 8192,
                                seed: int = 0,
                                band_fraction: float = 1e-2) -> SignedEstimate:
    """Mean number of ordered pairs of distinct roots on the interval.

    Integrates the two-point rate F(tau) = E[|X'(s) X'(t)| | X(s)=X(t)=u]
    * p_{X(s),X(t)}(u, u) over the triangle {s < t}, reduced by stationarity
    to 2 * int_0^T F(tau) (T - tau) dtau.  The diagonal band [0, h) is
    excluded and extrapolated by a Richardson pair of band widths (F vanishes
    linearly at tau = 0 for nondegenerate spectra, so the band integral is
    quadratic in the width).  Degenerate pair covariances (|C(tau)| reaching
    C(0), e.g. periodic fields observed over a full period) raise
    :class:`DegeneracyError`.
    """
    if not isinstance(model, SpectralGaussian1D):
        raise CapabilityError("pair-count prediction needs a scalar line field")
    inner_mc = _check_inner_mc(inner_mc)
    nodes = _normalize_nodes(quadrature, default=512)
    arr = _box_array(interval, 1)
    T = float(arr[0, 1] - arr[0, 0])
    lam0 = model.lambda0
    u = float(u)

    # degeneracy scan: the pair (X(s), X(t)) must stay nondegenerate for
    # tau in (0, T]
    scan = np.linspace(T / 2048.0, T, 2048)
    c_scan = model.covariance(scan)
    gap = lam0 - np.abs(c_scan)
    bad = gap <= 1e-9 * lam0
    if np.any(bad):
        locs = scan[bad]
        raise DegeneracyError(
            "pair covariance is singular at lags "
            f"{np.round(locs[:4], 6).tolist()}{'...' if locs.size > 4 else ''};"
            " the two-point rate has no density there")

    rng = stream(seed, "pair-moment")
    z = rng.standard_normal((inner_mc, 2))

    def f_values(tau: np.ndarray) -> np.ndarray:
        """(n_mc, n_tau) draws of |V1 V2| times the pair density."""
        c = model.covariance(tau)
        cp = model.covariance(tau, order=1)
        cpp = model.covariance(tau, order=2)
        det_obs = lam0 * lam0 - c * c
        # cross-covariance rows: Cov(V1, (X_s, X_t)) = (0, -C'),
        # Cov(V2, (X_s, X_t)) = (C', 0)
        common = u / (lam0 + c)  # solves the symmetric 2x2 system at (u, u)
        mu1 = -cp * common
        mu2 = cp * common
        # conditional covariance entries (q22 = q11 by the time symmetry)
        q11 = model.lambda2 - cp * cp * lam0 / det_obs
        q12 = -cpp - cp * cp * c / det_obs
        sd1 = np.sqrt(np.maximum(q11, 0.0))
        rho = np.clip(np.where(q11 > 0.0, q12 / np.maximum(q11, 1e-300), 0.0),
                      -1.0, 1.0)
        sd2 = np.sqrt(np.maximum(q11 - rho * rho * q11, 0.0))
        v1 = mu1[None, :] + z[:, 0][:, None] * sd1[None, :]
        v2 = (mu2[None, :] + z[:, 0][:, None] * (rho * sd1)[None, :]
              + z[:, 1][:, None] * sd2[None, :])
        dens = np.exp(-u * u / (lam0 + c)) / (2.0 * math.pi * np.sqrt(det_obs))
        return np.abs(v1 * v2) * dens[None, :]

    def integrate(band: float, n_nodes: int) -> tuple[float, np.ndarray]:
        h = (T - band) / n_nodes
        tau = band + (np.arange(n_nodes) + 0.5) * h
        vals = f_values(tau)  # (n_mc, n_nodes)
        weights = 2.0 * (T - tau) * h
        per_sample = vals @ weights
        return float(per_sample.mean()), per_sample

    band = band_fraction * T
    wide, _ = integrate(2.0 * band, nodes)
    narrow, per_sample = integrate(band, nodes)
    # band integral is O(band^2): one Richardson step
    value = narrow + (narrow - wide) / 3.0
    quad_err = abs(narrow - wide) / 3.0
    # node-count error estimate on the narrow band
    half_nodes, _ = integrate(band, nodes // 2)
    quad_err += abs(narrow - half_nodes)
    mc_se = float(per_sample.std(ddof=1) / math.sqrt(inner_mc))
    return SignedEstimate(value=value, quadrature_error=quad_err, mc_error=mc_se,
                          detail={"band": band, "nodes": nodes,
                                  "n_mc": inner_mc})
