"""Closed-form and Monte Carlo evaluation of level-set expectation integrands.

The central object is the rate integrand

    rate(t) = E[ normal_jacobian(jac X(t)) | X(t) = u ] * p_{X(t)}(u)

whose integral over the parameter box predicts the mean measure of the level
set ``{X = u}``.  This module evaluates that integral for every field family
in :mod:`ricelab.fields`, each through one entry point, together with
several weighted and higher-order variants:

* :func:`kacrice_rhs` -- the plain mean-measure prediction for the stationary
  families (spectral Gaussian, gradient and squared-sum fields),
* :func:`weighted_kacrice_rhs` -- predictions with a weight on the Jacobian
  ("unit", "upcrossing", or a signature index),
* :func:`euler_char_expectation` -- signed critical-point count above a level,
* :func:`shotnoise_rhs` -- root-count prediction for impulse-sum fields,
* :func:`microlens_rhs` -- image-count prediction for point-mass deflection
  fields,
* :func:`second_factorial_moment_rhs` -- mean number of ordered root pairs.

Integrating both sides against a bump in the level variable is a comparison
of measurement and prediction, so it lives in :mod:`ricelab.harness`
(``ae_level_consistency``).

Conventions shared by every evaluator:

* Conditional laws of the Gaussian families are Gaussian regressions computed
  exactly; Monte Carlo is used only where the conditional expectation itself
  has no convenient closed form, and for the impulse-sum and point-mass
  families, which are not Gaussian.  Sampling obeys the keyed-stream contract
  of :mod:`ricelab.rng`.
* Deterministic quadrature error and Monte Carlo standard error are tracked
  separately and reported side by side in the result objects.  Where Monte
  Carlo sits inside a quadrature (signed counts, pair moments, image counts),
  one reducer, ``_shared_draw_quadrature``, integrates every draw over the
  rule: one set of draws serves every node of the fine and the coarse rule,
  the standard error is the spread of each draw's integrated value, and the
  fine-minus-coarse difference on the same draws is discretisation only.
  Nodes go through the integrand in blocks of a fixed number of
  (node, draw) pairs, so memory stays bounded for any rule.
* The Gaussian and squared-sum families are stationary, so the mean-measure
  prediction is a rate times the box volume, with no outer quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

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
    ShotNoiseModel,
    SpectralGaussian1D,
    SpectralGaussian2D,
)
from .rng import mean_se, stream

DEFAULT_INNER_MC = 4096
DEFAULT_NODES = 256
MIN_INNER_MC = 100
# (node, draw) pairs per block of _shared_draw_quadrature: timed on its three
# users on a 2-core Xeon host, 2^14 was fastest or within noise for each.
# Smaller blocks pay more per-block Python; at 2^15-2^16 the lens kernel ran
# 30-55% slower, mostly not under a raised glibc mmap/trim threshold, so that
# cost is page faults on freshly mapped temporaries, not cache size.
_SHARED_BLOCK = 1 << 14

__all__ = [
    "RhsEvaluation",
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
    """A mean-measure prediction with its error budget.

    ``quadrature_error`` bounds the deterministic discretisation error
    (outer quadrature, window widths, series truncation); ``mc_error`` is the
    one-sigma Monte Carlo standard error.  ``total_error`` adds them, which is
    conservative because the two sources are independent.  The value must be
    >= 0 unless ``signed`` is set (signed critical-point counts, and pair
    moments extrapolated by a Richardson step).
    """

    value: float
    quadrature_error: float = 0.0
    mc_error: float = 0.0
    n_quadrature: int = 0
    n_mc: int = 0
    detail: dict = field(default_factory=dict)
    signed: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or (not self.signed and self.value < 0.0):
            raise ModelError("prediction value must be finite and >= 0")
        if self.quadrature_error < 0.0 or self.mc_error < 0.0:
            raise ModelError("error components must be >= 0")

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


# ---------------------------------------------------------------------------
# small shared helpers


def _normalize_nodes(quadrature, default: int = DEFAULT_NODES) -> int:
    if quadrature is None:
        return default
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


def _shared_draw_quadrature(f, weights: np.ndarray, n_draws: int) -> np.ndarray:
    """Per-draw quadrature sums: entry i is sum_j weights[j] * f(node j, draw i).

    ``f(sl)`` gives the (n, n_draws) integrand values at the nodes of the slice
    ``sl`` of the rule, for blocks of about ``_SHARED_BLOCK`` (node, draw) pairs.
    """
    per_draw = np.zeros(n_draws)
    step = max(1, _SHARED_BLOCK // n_draws)
    for lo in range(0, weights.size, step):
        sl = slice(lo, lo + step)
        # kept bound until the next block replaces it: freeing each result at
        # once timed slower on the lens kernel
        vals = f(sl)
        # np.dot, not @: a one-node block went through @ about 5x slower
        per_draw += np.dot(weights[sl], vals)
    return per_draw


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
    if isinstance(model, MicrolensModel):
        x = np.asarray(t, dtype=float)
        y = np.asarray(u, dtype=float)
        xi = _lens_ensemble(model, _check_inner_mc(inner_mc),
                            stream(seed, "lens-density"))
        weight, _ = _microlens_designated(model, x.reshape(1, 2), y, xi,
                                          want="density")
        return float(weight.mean())
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
        if model.isotropic:
            # ||grad X|| has the length-2 chi law
            sigma = math.sqrt(lam[0, 0])
            return sigma * math.sqrt(math.pi / 2.0), 0.0
        rng = stream(seed, "cond-jacobian")
        chol = np.linalg.cholesky(lam)
        draws = rng.standard_normal((inner_mc, 2)) @ chol.T
        return mean_se(np.hypot(draws[:, 0], draws[:, 1]))
    if isinstance(model, GradientField):
        dets, _ = _sample_hessians(model.base, stream(seed, "cond-jacobian"), inner_mc)
        return mean_se(np.abs(dets))
    if isinstance(model, ChiSquareField):
        uf = float(u)
        if uf <= 0.0:
            raise DomainError("squared-sum conditioning requires u > 0")
        rng = stream(seed, "cond-jacobian")
        return mean_se(_chi2_jacobian_draws(model, uf, rng, inner_mc))
    raise CapabilityError(
        f"no conditional Jacobian rule for {type(model).__name__}"
    )


def _sample_hessians(base: SpectralGaussian2D, rng, n: int) -> tuple:
    """Draws of (det, trace) of Hess Y at a point, unconditional (grad-independent)."""
    cov = _hessian_cov_matrix(base)
    chol = np.linalg.cholesky(cov + 1e-14 * np.trace(cov) * np.eye(3))
    z = rng.standard_normal((n, 3)) @ chol.T
    return z[:, 0] * z[:, 1] - z[:, 2] ** 2, z[:, 0] + z[:, 1]


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


def kacrice_rhs(model, box, u, *, inner_mc: int = DEFAULT_INNER_MC,
                seed: int = 0) -> RhsEvaluation:
    """Predicted mean measure of the level set {X = u} over ``box``.

    Covers the stationary families (spectral Gaussian, gradient and
    squared-sum fields): the prediction is the constant rate density *
    E[normal Jacobian | X = u] times the box volume.  Impulse-sum and
    deflection models raise :class:`CapabilityError`; their predictions are
    :func:`shotnoise_rhs` and :func:`microlens_rhs`.
    """
    own = {ShotNoiseModel: "shotnoise_rhs", MicrolensModel: "microlens_rhs"}.get(
        type(model))
    if own is not None:
        raise CapabilityError(f"kacrice_rhs covers stationary families; "
                              f"predict {type(model).__name__} with {own}")
    arr = _box_array(box, model.D)
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


# ---------------------------------------------------------------------------
# weighted prediction


def weighted_kacrice_rhs(model, box, u, weight, *, inner_mc: int = DEFAULT_INNER_MC,
                         seed: int = 0) -> RhsEvaluation:
    """Level-set prediction with a weight applied under the conditional law.

    ``weight`` is one of

    * ``"unit"`` -- weight identically 1 (delegates to :func:`kacrice_rhs`),
    * ``"upcrossing"`` -- indicator of a positive derivative (line fields),
    * ``{"kind": "index", "k": int}`` -- critical points of signature ``k``
      (gradient fields; ``k`` counts negative Hessian eigenvalues).

    These are the forms an experiment config accepts; any other raises
    :class:`ConfigurationError`.
    """
    if weight == "unit":
        return kacrice_rhs(model, box, u, inner_mc=inner_mc, seed=seed)
    if weight == "upcrossing":
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
        det, trace = _sample_hessians(model.base, stream(seed, "index-weight"),
                                      inner_mc)
        if k == 1:
            sel = det < 0.0
        elif k == 0:
            sel = (det > 0.0) & (trace > 0.0)
        else:
            sel = (det > 0.0) & (trace < 0.0)
        est, se = mean_se(np.abs(det) * sel)
        return RhsEvaluation(value=dens * est * vol, mc_error=dens * se * vol,
                             n_mc=inner_mc, detail={"weight": f"index-{k}"})
    raise ConfigurationError(f"unknown weight specification {weight!r}")


# ---------------------------------------------------------------------------
# signed critical-point count (Euler characteristic of the excursion set)


def euler_char_expectation(model, box, u, *, quadrature=None,
                           inner_mc: int = DEFAULT_INNER_MC,
                           seed: int = 0) -> RhsEvaluation:
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
        hess_cov = np.array([[model.lambda4]])
        cross = np.array([-model.lambda2])  # Cov(X'', X)
        grad_dens = _gauss_pdf(0.0, model.lambda2)
    elif isinstance(model, SpectralGaussian2D):
        vol = _box_volume(_box_array(box, 2))
        d = 2
        hess_cov = _hessian_cov_matrix(model)
        lam = model.lambda2_matrix
        cross = -np.array([lam[0, 0], lam[1, 1], lam[0, 1]])  # Cov((h11, h22, h12), X)
        sign, logdet = np.linalg.slogdet(lam)
        if sign <= 0:
            raise ModelError("degenerate gradient covariance")
        grad_dens = math.exp(-0.5 * logdet) / (2.0 * math.pi)
    else:
        raise CapabilityError(
            "signed counts need a scalar Gaussian field with two derivatives")
    lam0 = model.lambda0
    # Regression of the Hessian entries on X (the gradient is independent of
    # both): conditional mean gain * x, covariance independent of x, so it is
    # factorised once
    gain = cross / lam0
    cov = hess_cov - np.outer(gain, cross)
    cov = 0.5 * (cov + cov.T)  # symmetry lost to round-off
    jitter = 1e-14 * max(float(np.trace(cov)), 1.0)
    chol = np.linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
    rng = stream(seed, "euler-hessian")
    z = rng.standard_normal((inner_mc, cov.shape[0])) @ chol.T
    zs = z.T.copy()  # one contiguous row per Hessian entry

    def per_draw(n_nodes: int) -> np.ndarray:
        """Per-draw midpoint rule in s of det Hess times the joint density."""
        s = (np.arange(n_nodes) + 0.5) / n_nodes
        x = u + s / (1.0 - s)
        mean = np.outer(gain, x)[:, :, None]  # conditional mean of the Hessian
        dens = np.exp(-0.5 * x * x / lam0) / math.sqrt(2.0 * math.pi * lam0) * grad_dens

        def node_values(sl: slice) -> np.ndarray:
            if d == 1:
                dets = zs[0] + mean[0, sl]
            else:
                h12 = zs[2] + mean[2, sl]
                dets = (zs[0] + mean[0, sl]) * (zs[1] + mean[1, sl]) - h12 * h12
            return dets * dens[sl, None]

        return _shared_draw_quadrature(node_values, (1.0 / n_nodes) / (1.0 - s) ** 2,
                                       inner_mc)

    coarse = float(per_draw(nodes // 2).mean())
    fine, mc_se = mean_se(per_draw(nodes))
    sign_factor = (-1.0) ** d
    value = sign_factor * fine * vol
    quad_err = abs(fine - coarse) * vol
    return RhsEvaluation(value=value, quadrature_error=quad_err, mc_error=mc_se * vol,
                         n_quadrature=nodes, n_mc=inner_mc, signed=True,
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


def _shotnoise_window_term(model: ShotNoiseModel, u: float, p: int, delta: float,
                           n_mc: int, rng, want: str) -> tuple[float, float, float]:
    """Window estimate of the p-impulse density or joint term.

    ``want`` picks the channel: "density" counts window hits, "joint" weights
    them by |X'(t0)|.  Both window widths of the Richardson pair
    (delta, delta / 2) read one draw set, so the cost is the draws: s and then
    b, each (n_mc, p).  Kernel values go through blocks of about
    ``_SHARED_BLOCK`` draws; slopes are evaluated only on the rows inside the
    wider window, and every other row, which neither window hits, gets 0.
    Draws from uniform(-eta, eta) satisfy |s| <= eta in floating point, so
    no row leaves the kernel's support by rounding.  Returns (estimate,
    standard error, bias), the bias being the Richardson correction.
    """
    s = rng.uniform(-model.eta, model.eta, size=(n_mc, p))
    b = rng.uniform(model.beta_low, model.beta_high, size=(n_mc, p))
    vals = np.empty(n_mc)
    step = max(1, _SHARED_BLOCK // p)
    for lo in range(0, n_mc, step):
        sl = slice(lo, lo + step)
        vals[sl] = np.einsum("ij,ij->i", b[sl], model.kernel(s[sl]))
    dist = np.abs(vals - u)
    if want == "joint":
        near = dist < delta
        slopes = np.zeros(n_mc)
        slopes[near] = np.einsum("ij,ij->i", b[near], model.kernel_prime(s[near]))
        weight = np.abs(slopes)

    def window(width: float) -> tuple[float, float]:
        hit = dist < width
        scale = 1.0 / (2.0 * width)
        return mean_se(hit * scale if want == "density" else hit * weight * scale)

    coarse, _ = window(delta)
    fine, se = window(delta / 2.0)
    # quadratic window bias: Richardson with halved width
    est = (4.0 * fine - coarse) / 3.0
    return est, se, abs(est - fine)


def _shotnoise_mixture(model: ShotNoiseModel, u: float, *, want: str,
                       inner_mc: int = DEFAULT_INNER_MC, seed: int = 0,
                       p_max: int = 12, delta: float | None = None,
                       quad_nodes: int = 4096) -> dict:
    """Poisson mixture over the impulse count in the influence window.

    Only impulses within ``eta`` of the evaluation point matter, and their
    count is Poisson with mean 2 * eta * intensity.  The single-impulse term
    is exact quadrature; higher terms use the window estimator with a
    Richardson width pair; the truncation tail is bounded by the largest
    observed per-impulse growth rate times the Poisson tail mass.  ``want``
    ("density" or "joint") is the one channel evaluated.  The cost is the
    draws: 2 * inner_mc * (p_max (p_max + 1) / 2 - 1) uniforms, against
    which the kernel pass and the window reductions are small.
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
    src = {1: (dens_q, 0.0, dens_qerr) if want == "density"
           else (joint_q, 0.0, joint_qerr)}
    for p in range(2, p_max + 1):
        est, se, bias = _shotnoise_window_term(model, u, p, delta, inner_mc, rng,
                                               want)
        src[p] = (max(est, 0.0), se, bias)
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


def _lens_ensemble(model: MicrolensModel, inner_mc: int, rng) -> np.ndarray:
    """Positions of the ``n_stars - 1`` non-designated masses, one row per draw.

    Each mass is uniform on the configuration disk (r = R sqrt(u0),
    theta = 2 pi u1); positions are complex numbers x1 + i x2, shape
    (inner_mc, n_stars - 1).
    """
    u = rng.uniform(size=(inner_mc, model.n_stars - 1, 2))
    return model.R * np.sqrt(u[..., 0]) * np.exp(2j * math.pi * u[..., 1])


def _microlens_designated(model: MicrolensModel, nodes: np.ndarray, y: np.ndarray,
                          xi: np.ndarray, *, want: str,
                          eps_star: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Designated-mass weights for every (draw, node) pair.

    ``nodes`` is an (n_nodes, 2) array of image-plane points x and ``xi`` the
    (n_draws, n_stars - 1) complex positions of the other masses from
    :func:`_lens_ensemble`; every node sees the same draws.  In complex form
    (x = x1 + i x2, offsets z = x - xi) the deflection map is
    eta(x) = c x - 2m sum 1/conj(z).  Given the other masses, eta(x) = y pins
    the designated offset z* = 2m / conj(w) with the excess deflection
    w = c x - y - 2m sum 1/conj(z), so the designated mass sits at x - z*.
    The change of variables carries the Jacobian |z*|^4 / (4 m^2), which
    cancels the blow-up of the lens Jacobian near the designated mass.  It
    does not bound the weight for n_stars >= 3: two other masses at distance
    eps on opposite sides of a node cancel in w but add in sum 1/z^2, so the
    weight grows like eps^-4 on a set of probability about eps^6 (the
    manifest's lens-images prediction at seed 28 has a (draw, node) weight
    of 4.0e5).  The mean is finite; the variance is not.

    Returns ``(weight, excluded)``, both (n_nodes, n_draws).  ``want="density"``
    gives |z*|^4 / (4 m^2) over the disk area, or 0 where the designated mass
    falls off the disk; ``want="joint"`` multiplies it by |det J| with the
    complex form det J = c^2 - (2m)^2 |sum 1/z^2 + 1/z*^2|^2 (Witt 1990).
    ``excluded`` marks pairs with a mass, designated or not, within
    ``eps_star`` of the node, or a vanishing excess deflection
    (|w|^2 <= 1e-28); their weight is 0.  The other masses are added one at a
    time into accumulators of the output's size: no array has more than two
    axes.
    """
    m2 = 2.0 * model.m
    eps2 = eps_star * eps_star
    # (nodes, draws) layout: the draws axis is the long contiguous one
    x = (nodes[:, 0] + 1j * nodes[:, 1])[:, None]
    shape = (x.shape[0], xi.shape[0])
    defl = np.zeros(shape, dtype=complex)  # sum 1/conj(z)
    curv = np.zeros(shape, dtype=complex)  # sum 1/conj(z)^2 = conj(sum 1/z^2)
    excluded = np.zeros(shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for xi_j in np.ascontiguousarray(xi.T):
            z = x - xi_j
            r2 = np.square(z.real) + np.square(z.imag)
            excluded |= r2 <= eps2
            p = z * (1.0 / r2)  # 1/conj(z)
            defl += p
            curv += p * p
        w = (model.c * x - (y[0] + 1j * y[1])) - m2 * defl
        w2 = np.square(w.real) + np.square(w.imag)
        excluded |= (w2 <= 1e-28) | (w2 >= m2 * m2 / eps2)  # |z*| <= eps_star
        g = m2 / w2
        xs = x - g * w  # designated position x - z*, z* = 2m w / |w|^2
        outside = np.square(xs.real) + np.square(xs.imag) > model.R ** 2
        weight = g * g * (1.0 / (math.pi * model.R ** 2))
        if want == "joint":
            # 1/conj(z*)^2 = w^2 / (2m)^2, so (2m) |sum 1/z^2 + 1/z*^2| = |t|
            t = m2 * curv + w * w * (1.0 / m2)
            weight *= np.abs(model.c * model.c - np.square(t.real) - np.square(t.imag))
    weight[excluded | outside] = 0.0
    return weight, excluded


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

    Averages the designated-mass integrand (:func:`_microlens_designated`)
    over the point-mass ensemble (independent uniform positions on the
    configuration disk) and over a midpoint rule on the region.  One set of
    ``inner_mc`` ensemble draws serves every node of both the fine rule and
    the half-resolution coarse rule, and each draw's integrated value is its
    weighted sum over the nodes.  The value is the mean of the fine per-draw
    integrals; ``mc_error`` is their standard deviation over sqrt(inner_mc),
    the standard error of that mean with the correlation between nodes
    included; ``quadrature_error`` is |fine - coarse| on the same draws, so it
    measures discretisation only.  Requires a supercritical deflection
    strength; subcritical configurations flip the Jacobian sign at infinity
    and the designated-mass construction is not validated there.
    """
    if not isinstance(model, MicrolensModel):
        raise CapabilityError("expected a point-mass deflection model")
    if model.c >= 0.0:
        raise CapabilityError(
            "image-count prediction requires a supercritical deflection "
            f"(1 - kappa_c + gamma = {model.c} >= 0)")
    y = np.asarray(y, dtype=float)
    if y.shape != (2,):
        raise ConfigurationError("source position must be a 2-vector")
    if model.n_stars == 0:
        # deterministic linear map: exactly one image at y / c
        img = y / model.c
        inside = bool(region_mask(img[None, :], region)[0])
        return RhsEvaluation(value=1.0 if inside else 0.0,
                             detail={"path": "deterministic", "image": img.tolist()})
    nodes = _normalize_nodes(quadrature, default=24)
    inner_mc = _check_inner_mc(inner_mc)
    xi = _lens_ensemble(model, inner_mc, stream(seed, "lens-ensemble"))

    def per_draw(pts: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, int]:
        """Per-draw integrals over one rule, and the excluded (draw, node) pairs."""
        excluded = 0

        def joint(sl: slice) -> np.ndarray:
            nonlocal excluded
            weight, out = _microlens_designated(model, pts[sl], y, xi, want="joint",
                                                eps_star=eps_star)
            excluded += int(np.count_nonzero(out))
            return weight

        return _shared_draw_quadrature(joint, w, inner_mc), excluded

    pts, w = _region_nodes(region, nodes)
    fine, excluded = per_draw(pts, w)
    coarse, _ = per_draw(*_region_nodes(region, max(nodes // 2, 2)))
    value, mc_error = mean_se(fine)
    return RhsEvaluation(
        value=value,
        quadrature_error=abs(value - float(coarse.mean())),
        mc_error=mc_error,
        n_quadrature=pts.shape[0],
        n_mc=inner_mc,
        detail={"excluded_samples": excluded, "eps_star": eps_star,
                "nodes": nodes, "path": "shared-draws"},
    )


def region_mask(points: np.ndarray, region) -> np.ndarray:
    """Which of the (n, 2) ``points`` lie in a disk or box region (boundary included)."""
    if isinstance(region, Mapping) and region.get("kind") == "disk":
        center = np.asarray(region["center"], dtype=float)
        rad = float(region["radius"])
        return np.sum((points - center) ** 2, axis=1) <= rad * rad
    arr = _box_array(region, 2)
    return np.all((points >= arr[:, 0]) & (points <= arr[:, 1]), axis=1)


# ---------------------------------------------------------------------------
# second factorial moment


def second_factorial_moment_rhs(model: SpectralGaussian1D, interval, u, *,
                                quadrature=None, inner_mc: int = 8192,
                                seed: int = 0,
                                band_fraction: float = 1e-2) -> RhsEvaluation:
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
    z1, z2 = z.T.copy()  # contiguous rows

    def per_draw(band: float, n_nodes: int) -> np.ndarray:
        """Per-draw midpoint rule on (band, T) of |V1 V2| times the pair density."""
        h = (T - band) / n_nodes
        tau = band + (np.arange(n_nodes) + 0.5) * h
        # the conditional law of (V1, V2) = (X'(s), X'(t)) at each lag, once per rule
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
        dens = np.exp(-u * u / (lam0 + c)) / (2.0 * math.pi * np.sqrt(det_obs))
        # per-lag columns against the rows of draws
        mu1, mu2, sd1, rho_sd1, sd2, dens = (
            a[:, None] for a in (mu1, mu2, sd1, rho * sd1, sd2, dens))

        def node_values(sl: slice) -> np.ndarray:
            v1 = mu1[sl] + z1 * sd1[sl]
            v2 = mu2[sl] + z1 * rho_sd1[sl] + z2 * sd2[sl]
            return np.abs(v1 * v2) * dens[sl]

        return _shared_draw_quadrature(node_values, 2.0 * (T - tau) * h, inner_mc)

    band = band_fraction * T
    wide = float(per_draw(2.0 * band, nodes).mean())
    narrow, mc_se = mean_se(per_draw(band, nodes))
    # band integral is O(band^2): one Richardson step
    value = narrow + (narrow - wide) / 3.0
    quad_err = abs(narrow - wide) / 3.0
    # node-count error estimate on the narrow band
    quad_err += abs(narrow - float(per_draw(band, nodes // 2).mean()))
    return RhsEvaluation(value=value, quadrature_error=quad_err, mc_error=mc_se,
                         n_quadrature=nodes, n_mc=inner_mc, signed=True,
                         detail={"band": band, "nodes": nodes, "n_mc": inner_mc})
