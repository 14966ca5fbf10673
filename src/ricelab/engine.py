"""Closed-form and Monte Carlo evaluation of level-set expectation integrands.

The central object is the rate integrand

    rate(t) = E[ normal_jacobian(jac X(t)) | X(t) = u ] * p_{X(t)}(u)

whose integral over the parameter box predicts the mean measure of the level
set ``{X = u}``.  This module evaluates that integral for every field family
in :mod:`ricelab.fields`, each through one entry point, together with
several weighted and higher-order variants:

* :func:`kacrice_rhs` -- the plain mean-measure prediction for the stationary
  families (spectral Gaussian, gradient and squared-sum fields): the product
  of :func:`level_density` and :func:`conditional_jacobian_expectation`,
  which cover those families only,
* :func:`weighted_kacrice_rhs` -- predictions with a weight on the Jacobian
  ("unit", "upcrossing", or a signature index),
* :func:`euler_char_expectation` -- signed critical-point count above a level
  (closed form),
* :func:`shotnoise_rhs` -- root-count prediction for impulse-sum fields,
* :func:`microlens_rhs` -- image-count prediction for point-mass deflection
  fields, one joint Monte Carlo over the masses and the image-plane point;
  these two families are not Gaussian, so each kernel integrates the
  density and the Jacobian jointly, as E[|det X'| ; X = u], in one channel,
* :func:`second_factorial_moment_rhs` -- mean number of ordered root pairs.

Integrating both sides against a bump in the level variable is a comparison
of measurement and prediction, so it lives in :mod:`ricelab.harness`
(``ae_level_consistency``).

Conventions shared by every evaluator:

* Conditional laws of the Gaussian families are Gaussian regressions computed
  exactly.  Signed critical-point counts, gradient norms and E|det Hess| of
  spectral fields, isotropic or not, are closed forms or exponentially
  convergent periodic quadratures, and weighted counts are exact shares of
  them.  The squared-sum gradient norm is 2 sqrt(u) times its base's.  Monte
  Carlo is used only for pair moments and for the impulse-sum and point-mass
  families, which are not Gaussian.  Sampling obeys the keyed-stream
  contract of :mod:`ricelab.rng`.
* Deterministic quadrature error and Monte Carlo standard error are tracked
  separately and reported side by side in the result objects.  Monte Carlo
  sits inside a quadrature only for pair moments, where
  ``_shared_draw_quadrature`` integrates every draw over the lag rule: one
  set of draws serves every node of each rule, the standard error is the
  spread of each draw's integrated value, and the difference between rules
  on the same draws is discretisation only.  Nodes go through the integrand
  in blocks of a fixed number of (node, draw) pairs, so memory stays bounded
  for any rule.
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
    _unit_bump,
)
from .rng import copy_position, mean_se, skip_doubles, stream

DEFAULT_INNER_MC = 4096
MIN_INNER_MC = 100
# (lag, draw) pairs per block of _shared_draw_quadrature, draws per row
# block of _shotnoise_window_term, and (impulse, grid point) pairs per block
# of the impulse-sum corpus (harness._impulse_values): timed on a 2-core Xeon
# host, 2^14 was fastest or within noise for each (the window term ran about
# 15% slower at 2^12 and at 2^15; 256 impulse-sum rows on 2048 points took
# 0.018 s at 2^14, 30% more at 2^12, 5-10% more at 2^16).  Smaller blocks pay
# more per-block Python.
_SHARED_BLOCK = 1 << 14
# midpoint nodes of the exact single-impulse shot-noise term
_SHOT_QUAD_NODES = 4096
# lens samples with a mass this close to their image-plane point are excluded
_EPS_STAR = 1e-6
# why a lens with c >= 0 gets no prediction; format with c
SUBCRITICAL_LENS = ("image-count prediction requires a supercritical deflection "
                    "(1 - kappa_c + gamma = {} >= 0)")

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


def _normalize_nodes(quadrature, default: int) -> int:
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
        # np.dot, not @: a one-node block went through @ about 5x slower
        per_draw += np.dot(weights[sl], f(sl))
    return per_draw


def _box_volume(arr: np.ndarray) -> float:
    """Volume of a box checked by :func:`_box_array`."""
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


def _sphere_area(n: int, radius: float) -> float:
    """Surface area of the radius-``radius`` sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) * radius ** (n - 1) / math.gamma(n / 2.0)


# ---------------------------------------------------------------------------
# level density


def _refuse_joint_families(model, caller: str) -> None:
    """Raise CapabilityError for the families whose prediction has its own entry point.

    Impulse-sum and deflection models are not stationary Gaussian, so their
    density and Jacobian are integrated together, in :func:`shotnoise_rhs`
    and :func:`microlens_rhs`; they have no rate factors of their own.
    """
    own = {ShotNoiseModel: "shotnoise_rhs", MicrolensModel: "microlens_rhs"}.get(
        type(model))
    if own is not None:
        raise CapabilityError(f"{caller} covers stationary families; "
                              f"predict {type(model).__name__} with {own}")


def level_density(model, t, u) -> float:
    """Density of the field value X(t) at the level ``u``, for a stationary family.

    For Gaussian families this is exact.  For the squared-sum field the
    push-forward over the level sphere is evaluated in closed form (the
    Gaussian density and the surface gradient norm are constant on the
    sphere).  Impulse-sum and deflection models raise
    :class:`CapabilityError`: their predictions, :func:`shotnoise_rhs` and
    :func:`microlens_rhs`, integrate the density jointly with the Jacobian.
    """
    _refuse_joint_families(model, "level_density")
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
    raise CapabilityError(f"no level density for {type(model).__name__}")


# ---------------------------------------------------------------------------
# conditional Jacobian expectation


def conditional_jacobian_expectation(model, u) -> float:
    """E[ normal_jacobian(jac X(t)) | X(t) = u ], in closed form.

    Every stationary family has one: a stationary Gaussian value is
    independent of its derivative; the norm of an anisotropic planar gradient
    and |det Hess| of a gradient field, independent of the gradient, are
    one-dimensional periodic quadratures.  For the squared-sum field
    X = ||Y||^2, given ||Y||^2 = u the gradient 2 sum_j Y_j grad Y_j is exactly
    N(0, 4u Lambda_2), so the value is 2 sqrt(u) times the base field's
    (Worsley, *Adv. Appl. Probab.* 26, 1994).
    Impulse-sum and deflection models have no rule here: their predictions
    are :func:`shotnoise_rhs` and :func:`microlens_rhs`.
    """
    _refuse_joint_families(model, "conditional_jacobian_expectation")
    if isinstance(model, SpectralGaussian1D):
        # X' independent of X(t); E|X'| half-normal.
        return math.sqrt(2.0 * model.lambda2 / math.pi)
    if isinstance(model, SpectralGaussian2D):
        lam = model.lambda2_matrix
        if model.isotropic:
            # ||grad X|| has the length-2 chi law
            sigma = math.sqrt(lam[0, 0])
            return sigma * math.sqrt(math.pi / 2.0)
        return _gaussian_norm_mean(lam)
    if isinstance(model, GradientField):
        return _abs_det_mean(model.base)
    if isinstance(model, ChiSquareField):
        uf = float(u)
        if uf <= 0.0:
            raise DomainError("squared-sum conditioning requires u > 0")
        return 2.0 * math.sqrt(uf) * conditional_jacobian_expectation(model.base, 0.0)
    raise CapabilityError(
        f"no conditional Jacobian rule for {type(model).__name__}"
    )


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


# ---------------------------------------------------------------------------
# main prediction


def kacrice_rhs(model, box, u) -> RhsEvaluation:
    """Predicted mean measure of the level set {X = u} over ``box``.

    Covers the stationary families (spectral Gaussian, gradient and
    squared-sum fields): the prediction is the constant rate density *
    E[normal Jacobian | X = u] times the box volume, all in closed form, so
    the error budget is 0.  Impulse-sum and deflection models raise
    :class:`CapabilityError`; their predictions are
    :func:`shotnoise_rhs` and :func:`microlens_rhs`.
    """
    _refuse_joint_families(model, "kacrice_rhs")
    arr = _box_array(box, model.D)
    vol = _box_volume(arr)
    rate = level_density(model, arr[:, 0], u) * conditional_jacobian_expectation(model, u)
    return RhsEvaluation(value=rate * vol, n_quadrature=1,
                         detail={"rate": rate, "volume": vol, "path": "stationary"})


# ---------------------------------------------------------------------------
# weighted prediction


def weighted_kacrice_rhs(model, box, u, weight) -> RhsEvaluation:
    """Level-set prediction with a weight applied under the conditional law.

    ``weight`` is one of

    * ``"unit"`` -- weight identically 1 (delegates to :func:`kacrice_rhs`),
    * ``"upcrossing"`` -- indicator of a positive derivative (line fields),
    * ``{"kind": "index", "k": int}`` -- critical points of signature ``k``
      (gradient fields; ``k`` counts negative Hessian eigenvalues).

    These are the forms an experiment config accepts; any other raises
    :class:`ConfigurationError`.  Each is an exact share of :func:`kacrice_rhs`:
    upcrossings 1/2 (X' is symmetric), saddles 1/2 (E det H = 0), minima and
    maxima 1/4 each (H and -H have the same law).
    """
    if weight == "unit":
        return kacrice_rhs(model, box, u)
    if weight == "upcrossing":
        if not isinstance(model, SpectralGaussian1D):
            raise CapabilityError("upcrossing weight needs a scalar line field")
        share, tag = 0.5, "upcrossing"
    elif isinstance(weight, Mapping) and weight.get("kind") == "index":
        k = weight.get("k")
        if isinstance(k, bool) or not isinstance(k, int) or k not in (0, 1, 2):
            raise ConfigurationError("signature index k must be the integer 0, 1, or 2")
        if not isinstance(model, GradientField):
            raise CapabilityError("signature weights need a gradient field")
        share, tag = (0.25, 0.5, 0.25)[k], f"index-{k}"
    else:
        raise ConfigurationError(f"unknown weight specification {weight!r}")
    total = kacrice_rhs(model, box, u)
    return RhsEvaluation(value=share * total.value, detail={"weight": tag})


# ---------------------------------------------------------------------------
# signed critical-point count (Euler characteristic of the excursion set)


def euler_char_expectation(model, box, u) -> RhsEvaluation:
    """Expected signed count of critical points with value above ``u``.

    Critical points of index ``i`` carry weight (-1)^(d - i); for smooth
    excursion sets without boundary effects this signed count equals the
    Euler characteristic.  For a stationary spectral Gaussian field on a box
    of volume ``vol`` in dimension d in {1, 2} it is the Gaussian kinematic
    formula's Euler-characteristic density (Adler & Taylor, *Random Fields
    and Geometry*, 2007, ch. 11-12; for d = 1, Rice's upcrossing rate):

        vol * sqrt(det L2) * (2 pi)^(-(d+1)/2) * lambda0^(-d/2)
            * H_{d-1}(u / sqrt(lambda0)) * exp(-u^2 / (2 lambda0))

    with L2 the gradient covariance, H_0 = 1 and H_1(x) = x.  For d = 2 it
    holds without isotropy: the Hessian given X = x is independent of the
    gradient and E[det Hess | X = x] = det L2 (x^2 / lambda0^2 - 1 / lambda0),
    because the fourth spectral moments are symmetric in their indices
    (m_1122 = m_1212), so the Hessian's own covariance cancels.
    """
    if isinstance(model, SpectralGaussian1D):
        d, det_lam = 1, model.lambda2
    elif isinstance(model, SpectralGaussian2D):
        d, det_lam = 2, float(np.linalg.det(model.lambda2_matrix))
    else:
        raise CapabilityError(
            "signed counts need a scalar Gaussian field with two derivatives")
    if det_lam <= 0.0:
        raise ModelError("degenerate gradient covariance")
    vol = _box_volume(_box_array(box, d))
    lam0 = model.lambda0
    x = float(u) / math.sqrt(lam0)
    hermite = 1.0 if d == 1 else x
    value = (vol * math.sqrt(det_lam) * (2.0 * math.pi) ** (-0.5 * (d + 1))
             * lam0 ** (-0.5 * d) * hermite * math.exp(-0.5 * x * x))
    return RhsEvaluation(value=value, signed=True,
                         detail={"path": "closed-form", "dim": d})


# ---------------------------------------------------------------------------
# impulse-sum fields


def _shotnoise_single_term(model: ShotNoiseModel, u: float,
                           n_nodes: int) -> tuple[float, float]:
    """Exact single-impulse joint term by midpoint quadrature.

    With one impulse in the window, X(t0) = b * g(s) with s uniform on
    (-eta, eta) and b uniform on the amplitude interval, and X'(t0) =
    b * g'(s).  Conditioning on X(t0) = u fixes b = u / g(s), so

        joint(u) = int ds/(2 eta) p_b(u / g(s)) / g(s) * |u g'(s) / g(s)|

    where p_b is the amplitude density.  Returns the joint term for
    ``n_nodes`` midpoints and its half-resolution difference.
    """

    def quad(n: int) -> float:
        s = -model.eta + (np.arange(n) + 0.5) * (2.0 * model.eta / n)
        g = model.kernel(s)
        gp = model.kernel_prime(s)
        pos = g > 0.0
        b = np.zeros_like(g)
        b[pos] = u / g[pos]
        amp = model.beta_density(b) * pos
        base = amp / np.where(pos, g, 1.0)
        return float(np.sum(base * np.abs(u * gp / np.where(pos, g, 1.0))) / n)

    fine = quad(n_nodes)
    return fine, abs(fine - quad(n_nodes // 2))


def _uniform_bits(unit: np.ndarray, low: float, high: float) -> np.ndarray:
    """The doubles ``Generator.uniform(low, high, n)`` makes of the unit doubles ``unit``."""
    return unit * (high - low) + low


def _shotnoise_window_term(model: ShotNoiseModel, u: float, p: int, delta: float,
                           n_mc: int, rng) -> tuple[float, float, float]:
    """Window estimate of the p-impulse joint term: window hits weighted by |X'(t0)|.

    Both window widths of the Richardson pair (delta, delta / 2) read one
    draw set: positions s and then amplitudes b, each (n_mc, p), from
    ``rng``, which ends past both.  Rows go through blocks of about
    ``_SHARED_BLOCK`` draws, filtered on the unit doubles U and V behind
    s = -eta + 2 eta U and b = beta_low + (beta_high - beta_low) V.  The
    kernel is g = 16 q with q = (U (1 - U))^2 (``fields._unit_bump``), so
    X = sum b g lies in [beta_low, beta_high] * 16 sum q, and a block with
    no row whose range meets the window skips its amplitudes.  Rows whose
    sum of b q puts X within delta of u, up to a margin, are candidates,
    and only they get the exact arithmetic, with the bits of
    ``Generator.uniform``, ``model.kernel`` and a row einsum; those inside
    the window also get their slope from ``model.kernel_prime``.  So the
    cost is every position and its filter, the amplitudes of the blocks
    that can reach the window, exact kernels on a few rows, and per width
    one reduction of a length-``n_mc`` array that is zero off the hits.
    Returns (estimate, standard error, bias), the bias being the
    Richardson correction.
    """
    positions = copy_position(rng)
    skip_doubles(rng, n_mc * p)  # rng now starts the amplitude section
    low, high = model.beta_low, model.beta_high
    # 16 q is within 16 eps of each evaluated kernel value and X lies in
    # [0, p beta_high], so a row's filter sum differs from its exact X by
    # a few ulps of p beta_high; subtracting u and comparing with delta
    # round by ulps of |u| and of delta.  The candidate margin covers all
    # three, so every row the exact arithmetic puts in the window is a
    # candidate.  A row whose sum of q lies outside (reach_lo, reach_hi)
    # cannot be a candidate; the relative margin is far above the rounding
    # of the sums
    reach = delta + 1e-9 * (abs(u) + delta + p * high)
    reach_lo = (u - reach) / (16.0 * high * (1.0 + 1e-9))
    reach_hi = (u + reach) / (16.0 * low * (1.0 - 1e-9))
    step = max(1, _SHARED_BLOCK // p)
    unit_s = np.empty((step, p))
    unit_b = np.empty((step, p))
    q_block = np.empty((step, p))
    ones = np.ones(p)
    hit_rows, hit_dist, hit_weight = [], [], []
    unread = 0  # amplitude doubles passed over since the last block drawn
    for lo in range(0, n_mc, step):
        rows = min(step, n_mc - lo)
        us = positions.random(out=unit_s[:rows])
        q = _unit_bump(us, out=q_block[:rows])
        total = q @ ones  # row sums; far faster than q.sum(axis=1) for small p
        if not np.any((total > reach_lo) & (total < reach_hi)):
            unread += rows * p
            continue
        skip_doubles(rng, unread)
        unread = 0
        ub = rng.random(out=unit_b[:rows])
        approx = 16.0 * (low * total + (high - low) * np.einsum("ij,ij->i", ub, q))
        cand = np.flatnonzero(np.abs(approx - u) < reach)
        if cand.size == 0:
            continue
        s = _uniform_bits(us[cand], -model.eta, model.eta)
        b = _uniform_bits(ub[cand], low, high)
        d = np.abs(np.einsum("ij,ij->i", b, model.kernel(s)) - u)
        near = d < delta
        hit_rows.append(lo + cand[near])
        hit_dist.append(d[near])
        hit_weight.append(np.abs(np.einsum(
            "ij,ij->i", b[near], model.kernel_prime(s[near]))))
    skip_doubles(rng, unread)
    if not any(r.size for r in hit_rows):
        # no row lands in the window: every window draw is +0.0
        return 0.0, 0.0, 0.0
    rows_hit = np.concatenate(hit_rows)
    dist = np.concatenate(hit_dist)
    weight = np.concatenate(hit_weight)

    def window(width: float) -> tuple[float, float]:
        draws = np.zeros(n_mc)
        hit = dist < width
        draws[rows_hit[hit]] = weight[hit] * (1.0 / (2.0 * width))
        return mean_se(draws)

    coarse, _ = window(delta)
    fine, se = window(delta / 2.0)
    # quadratic window bias: Richardson with halved width
    est = (4.0 * fine - coarse) / 3.0
    return est, se, abs(est - fine)


def shotnoise_rhs(model: ShotNoiseModel, box, u, *, p_max: int = 12,
                  inner_mc: int = 200_000, seed: int = 0,
                  delta: float | None = None) -> RhsEvaluation:
    """Predicted mean root count for the impulse-sum field on ``box``.

    A Poisson mixture over the impulse count in the influence window: only
    impulses within ``eta`` of the evaluation point matter, and their count
    is Poisson with mean 2 * eta * intensity.  The single-impulse term is
    exact quadrature; higher terms use the window estimator with a
    Richardson width pair; the truncation tail is bounded by the largest
    observed per-impulse growth rate times the Poisson tail mass.  The cost
    is the draws: every one of the inner_mc * (p_max (p_max + 1) / 2 - 1)
    positions is drawn and filtered as a unit double, and amplitudes are
    drawn only for the row blocks that can land in the window, which grow
    rare as p grows: for the shot-crossings manifest entry at u = 0.5,
    every row up to p = 6, about half at p = 8 and a few percent at p = 10.
    The exact kernel arithmetic runs only on the candidate rows the filter
    keeps, about 13,000 of that entry's 15.4M positions.  The stream's
    draws, and so the outputs, do not depend on which blocks are skipped or
    which rows are candidates.

    The level must be finite and nonzero: the field value has an atom at
    zero (empty influence window), so the density and the crossing rate
    are undefined there.  The window width must be finite and positive.
    """
    u = float(u)
    if u == 0.0:
        raise DomainError("impulse-sum prediction is undefined at u = 0 (atom)")
    if not math.isfinite(u):
        raise DomainError(f"impulse-sum prediction needs a finite level, got {u}")
    arr = _box_array(box, 1)
    lo, hi = model.domain
    if arr[0, 0] < lo - 1e-12 or arr[0, 1] > hi + 1e-12:
        raise ConfigurationError("box must lie inside the model domain")
    vol = _box_volume(arr)
    if p_max < 2:
        raise ConfigurationError("p_max must be at least 2")
    inner_mc = _check_inner_mc(inner_mc)
    if delta is None:
        delta = 0.05 * abs(u)
    if not (math.isfinite(delta) and delta > 0.0):
        raise ConfigurationError(f"window width must be positive and finite, got {delta}")
    lam = 2.0 * model.eta * model.intensity
    rng = stream(seed, "shot-window")
    joint_q, joint_qerr = _shotnoise_single_term(model, u, _SHOT_QUAD_NODES)
    src = {1: (joint_q, 0.0, joint_qerr)}
    for p in range(2, p_max + 1):
        est, se, bias = _shotnoise_window_term(model, u, p, delta, inner_mc, rng)
        src[p] = (max(est, 0.0), se, bias)
    pois = {p: math.exp(-lam) * lam ** p / math.factorial(p)
            for p in range(1, p_max + 1)}
    rate = sum(pois[p] * src[p][0] for p in src)
    mc_err = math.sqrt(sum((pois[p] * src[p][1]) ** 2 for p in src))
    bias = sum(pois[p] * src[p][2] for p in src)
    # tail: per-impulse terms grow at most linearly in p on this scale;
    # sum_{p > m} p * Pois(p) = lam * P(P >= m)
    growth = max(src[p][0] / p for p in src)
    tail_mass = 1.0 - sum(math.exp(-lam) * lam ** k / math.factorial(k)
                          for k in range(p_max))
    tail = 2.0 * growth * lam * tail_mass
    return RhsEvaluation(
        value=rate * vol,
        quadrature_error=(bias + tail) * vol,
        mc_error=mc_err * vol,
        n_quadrature=_SHOT_QUAD_NODES,
        n_mc=inner_mc * (p_max - 1),
        detail={"rate": rate, "tail_bound": tail, "p_max": p_max, "delta": delta,
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


def _microlens_designated(model: MicrolensModel, x: np.ndarray, y: np.ndarray,
                          xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-mass joint weight of each (image-plane point, draw) sample.

    ``x`` holds the complex points x1 + i x2, one per sample, and ``xi`` the
    (samples, n_stars - 1) complex positions of the other masses from
    :func:`_lens_ensemble`.  With offsets z = x - xi the deflection map is
    eta(x) = c x - 2m sum 1/conj(z).  Given the other masses, eta(x) = y pins
    the designated offset z* = 2m / conj(w) with the excess deflection
    w = c x - y - 2m sum 1/conj(z), so the designated mass sits at x - z*.
    The change of variables carries the Jacobian |z*|^4 / (4 m^2), which
    cancels the blow-up of the lens Jacobian near the designated mass.  Any
    of the n_stars masses may be the designated one, so the weight counts
    the sample n_stars times but only where the designated mass is the
    nearest one to x: the nearest-mass indicators are a partition of unity.
    They also bound the weight: |z*|^2 |sum 1/z^2| <= n_stars - 1, so
    |z*|^4 |det J| / (4 m^2) <= c^2 |z*|^4 / (4 m^2) + n_stars^2.

    Returns ``(weight, excluded)``, one entry per sample.  The weight is
    n_stars times the density factor |z*|^4 / (4 m^2) over the disk area
    times |det J|, with the complex form
    det J = c^2 - (2m)^2 |sum 1/z^2 + 1/z*^2|^2 (Witt 1990), or 0 where the
    designated mass is not the nearest or falls off the disk.  ``excluded``
    marks samples with a mass, designated or not, within ``_EPS_STAR`` of x,
    or a vanishing excess deflection (|w|^2 <= 1e-28); their weight is 0.
    """
    m2 = 2.0 * model.m
    eps2 = _EPS_STAR * _EPS_STAR
    defl = np.zeros(x.shape, dtype=complex)  # sum 1/conj(z)
    curv = np.zeros(x.shape, dtype=complex)  # sum 1/conj(z)^2 = conj(sum 1/z^2)
    nearest = np.full(x.shape, np.inf)  # min |z|^2 over the other masses
    with np.errstate(divide="ignore", invalid="ignore"):
        for xi_j in xi.T:
            z = x - xi_j
            r2 = np.square(z.real) + np.square(z.imag)
            np.minimum(nearest, r2, out=nearest)
            z /= r2  # 1/conj(z)
            defl += z
            curv += z * z
        w = (model.c * x - (y[0] + 1j * y[1])) - m2 * defl
        w2 = np.square(w.real) + np.square(w.imag)
        g = m2 / w2
        zs2 = m2 * g  # |z*|^2
        excluded = (nearest <= eps2) | (w2 <= 1e-28) | (zs2 <= eps2)
        xs = x - g * w  # designated position x - z*, z* = 2m w / |w|^2
        outside = np.square(xs.real) + np.square(xs.imag) > model.R ** 2
        weight = g * g * (model.n_stars / (math.pi * model.R ** 2))
        # 1/conj(z*)^2 = w^2 / (2m)^2, so (2m) |sum 1/z^2 + 1/z*^2| = |t|
        t = m2 * curv + w * w * (1.0 / m2)
        weight *= np.abs(model.c * model.c - np.square(t.real) - np.square(t.imag))
    weight[excluded | outside | ~(zs2 < nearest)] = 0.0
    return weight, excluded


def microlens_rhs(model, y, region, *, inner_mc: int = DEFAULT_INNER_MC,
                  seed: int = 0) -> RhsEvaluation:
    """Predicted mean image count of source ``y`` over the region.

    A mean over ``inner_mc`` joint samples, each of the ``n_stars - 1`` other
    masses (independent uniform positions on the configuration disk) and one
    image-plane point x, uniform on the disk or box region.  A sample's
    weight is the region's area times the nearest-mass weight of
    :func:`_microlens_designated`, which is bounded, so the value is the mean
    weight and ``mc_error`` its standard error; there is no node rule and no
    quadrature error.  Requires a supercritical deflection strength;
    subcritical configurations flip the Jacobian sign at infinity and the
    designated-mass construction is not validated there.
    """
    if not isinstance(model, MicrolensModel):
        raise CapabilityError("expected a point-mass deflection model")
    if model.c >= 0.0:
        raise CapabilityError(SUBCRITICAL_LENS.format(model.c))
    y = np.asarray(y, dtype=float)
    if y.shape != (2,):
        raise ConfigurationError("source position must be a 2-vector")
    if model.n_stars == 0:
        # deterministic linear map: exactly one image at y / c
        img = y / model.c
        inside = bool(region_mask(img[None, :], region)[0])
        return RhsEvaluation(value=1.0 if inside else 0.0,
                             detail={"path": "deterministic", "image": img.tolist()})
    inner_mc = _check_inner_mc(inner_mc)
    rng = stream(seed, "lens-ensemble")
    xi = _lens_ensemble(model, inner_mc, rng)
    u = rng.uniform(size=(inner_mc, 2))
    if isinstance(region, Mapping) and region.get("kind") == "disk":
        radius = float(region["radius"])
        if radius <= 0.0:
            raise ConfigurationError("disk radius must be positive")
        cx, cy = (float(v) for v in region["center"])
        x = (cx + 1j * cy) + radius * np.sqrt(u[:, 0]) * np.exp(2j * math.pi * u[:, 1])
        area = math.pi * radius ** 2
    else:
        arr = _box_array(region, 2)
        pts = arr[:, 0] + u * (arr[:, 1] - arr[:, 0])
        x = pts[:, 0] + 1j * pts[:, 1]
        area = _box_volume(arr)
    weight, excluded = _microlens_designated(model, x, y, xi)
    value, mc_error = mean_se(area * weight)
    return RhsEvaluation(
        value=value,
        mc_error=mc_error,
        n_mc=inner_mc,
        detail={"excluded_samples": int(np.count_nonzero(excluded)),
                "eps_star": _EPS_STAR, "path": "joint-draws"},
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
    nodes = _normalize_nodes(quadrature, 512)
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
