import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from ricelab import engine, fields
from ricelab.engine import (
    RhsEvaluation,
    _lens_ensemble,
    _microlens_designated,
    conditional_jacobian_expectation,
    euler_char_expectation,
    kacrice_rhs,
    level_density,
    microlens_rhs,
    second_factorial_moment_rhs,
    shotnoise_rhs,
    weighted_kacrice_rhs,
)
from ricelab.errors import (
    CapabilityError,
    ConfigurationError,
    DegeneracyError,
    DomainError,
    ModelError,
)
from ricelab.fields import (
    ChiSquareField,
    GradientField,
    MicrolensModel,
    MicrolensSystem,
    ShotNoiseModel,
    SpectralGaussian1D,
    SpectralGaussian2D,
    _bump,
    _bump_prime,
    _unit_bump,
    sample_realization,
)
from ricelab.harness import ae_level_consistency, default_image_region
from ricelab.rng import copy_position, mean_se, stream

TWO_PI = 2.0 * math.pi


def _line_model(freqs=(1.0, 2.5), amps=None):
    f = np.asarray(freqs, dtype=float)
    if amps is None:
        amps = np.full(f.size, math.sqrt(1.0 / f.size))
    return SpectralGaussian1D(frequencies=f, amplitudes=np.asarray(amps, float))


def _ring_model(kappa=3.0):
    return SpectralGaussian2D.isotropic_ring(6, kappa)


def _crossing_rate(model, u):
    return (1.0 / math.pi) * math.sqrt(model.lambda2 / model.lambda0) * math.exp(
        -0.5 * u * u / model.lambda0
    )


# ---------------------------------------------------------------------------
# prediction container
# ---------------------------------------------------------------------------


def test_rhs_evaluation_validation_and_doc():
    ev = RhsEvaluation(value=2.0, quadrature_error=0.01, mc_error=0.02, n_mc=100)
    assert ev.total_error == pytest.approx(0.03)
    doc = ev.to_doc()
    assert doc["value"] == 2.0 and doc["total_error"] == pytest.approx(0.03)
    with pytest.raises(ModelError):
        RhsEvaluation(value=-1.0)
    with pytest.raises(ModelError):
        RhsEvaluation(value=1.0, mc_error=-0.5)
    with pytest.raises(ModelError):
        RhsEvaluation(value=math.nan)
    # a signed prediction skips only the sign check
    assert RhsEvaluation(value=-1.0, signed=True).total_error == 0.0
    with pytest.raises(ModelError):
        RhsEvaluation(value=math.nan, signed=True)
    with pytest.raises(ModelError):
        RhsEvaluation(value=-1.0, mc_error=-0.5, signed=True)


# ---------------------------------------------------------------------------
# scalar line fields: closed forms
# ---------------------------------------------------------------------------


def test_line_prediction_matches_closed_form():
    model = _line_model()
    T = 7.3
    for u in (0.0, 0.5, 1.0, -1.2):
        ev = kacrice_rhs(model, (0.0, T), u)
        assert ev.value == pytest.approx(T * _crossing_rate(model, u), rel=1e-12)
        assert ev.mc_error == 0.0 and ev.n_mc == 0


def test_single_harmonic_over_one_period_is_two():
    model = SpectralGaussian1D(frequencies=np.array([1.0]), amplitudes=np.array([1.0]))
    ev = kacrice_rhs(model, (0.0, TWO_PI), 0.0)
    assert ev.value == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("entry", [
    lambda m, t, u: level_density(m, t, u),
    lambda m, t, u: conditional_jacobian_expectation(m, u),
    lambda m, t, u: kacrice_rhs(m, [(lo, lo + 1.0) for lo in np.atleast_1d(t)], u),
], ids=["level_density", "conditional_jacobian_expectation", "kacrice_rhs"])
@pytest.mark.parametrize("family, t, u, own", [
    (ShotNoiseModel(intensity=1.5, eta=0.7, beta_low=0.5, beta_high=2.0,
                    domain=(0.0, 12.0)), 3.0, 0.8, "shotnoise_rhs"),
    (MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.2, n_stars=3, R=1.0),
     np.array([0.3, -0.2]), np.array([0.25, 0.1]), "microlens_rhs"),
], ids=["shot", "lens"])
def test_rate_factors_refuse_jointly_integrated_families(entry, family, t, u, own):
    # impulse-sum and deflection fields integrate density and Jacobian
    # together in their own predictions; no stationary factor stands in
    with pytest.raises(CapabilityError, match=own):
        entry(family, t, u)


def test_level_density_gaussian_families():
    model = _line_model()
    for u in (-1.0, 0.0, 2.0):
        assert level_density(model, 0.0, u) == pytest.approx(
            stats.norm.pdf(u, scale=math.sqrt(model.lambda0)), rel=1e-12
        )
    ring = _ring_model()
    assert level_density(ring, None, 0.3) == pytest.approx(
        stats.norm.pdf(0.3, scale=math.sqrt(ring.lambda0)), rel=1e-12
    )


# ---------------------------------------------------------------------------
# planar scalar fields
# ---------------------------------------------------------------------------


def test_ring_nodal_rate_closed_form():
    # lambda0 = 1 and isotropic gradient with per-axis variance kappa^2 / 2,
    # so the zero-level length rate is kappa / (2 sqrt(2))
    kappa = 3.0
    ev = kacrice_rhs(_ring_model(kappa), [(0, 1), (0, 1)], 0.0)
    expect = kappa / (2.0 * math.sqrt(2.0))
    assert abs(ev.value - expect) <= 4.0 * ev.total_error + 1e-9
    assert ev.value == pytest.approx(expect, rel=1e-3)


def test_anisotropic_gradient_norm_against_direct_mc():
    model = SpectralGaussian2D(
        wavevectors=np.array(
            [[2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 2.0], [3.0, 1.0]]
        ),
        amplitudes=np.array([0.5, 0.6, 0.3, 0.4, 0.2]),
    )
    u = 0.4
    ev = kacrice_rhs(model, [(0, 2), (0, 3)], u)
    # oracle: density times mean gradient norm, both from first principles
    M = np.zeros((2, 2))
    for k, a in zip(model.wavevectors, model.amplitudes):
        M += a * a * np.outer(k, k)
    g = stream(99, "aniso-oracle").standard_normal((2_000_000, 2)) @ np.linalg.cholesky(
        M
    ).T
    norms = np.linalg.norm(g, axis=1)
    mean_norm = float(norms.mean())
    se_norm = float(norms.std(ddof=1) / math.sqrt(norms.size))
    dens = stats.norm.pdf(u, scale=math.sqrt(model.lambda0))
    oracle = 6.0 * dens * mean_norm
    oracle_se = 6.0 * dens * se_norm
    assert abs(ev.value - oracle) <= 4.0 * (ev.total_error + oracle_se)


def test_anisotropic_gradient_norm_matches_dblquad():
    model = SpectralGaussian2D(
        wavevectors=np.array(
            [[2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 2.0], [3.0, 1.0]]
        ),
        amplitudes=np.array([0.5, 0.6, 0.3, 0.4, 0.2]),
    )
    lam = model.lambda2_matrix
    inv = np.linalg.inv(lam)
    norm = 1.0 / (TWO_PI * math.sqrt(np.linalg.det(lam)))

    def integrand(r, phi):  # r * ||g|| * density at g = r e_phi
        e = np.array([math.cos(phi), math.sin(phi)])
        return r * r * norm * math.exp(-0.5 * r * r * float(e @ inv @ e))

    oracle, _ = integrate.dblquad(integrand, 0.0, TWO_PI, 0.0, np.inf,
                                  epsabs=1e-13, epsrel=1e-13)
    cond = engine.conditional_jacobian_expectation(model, 0.4)
    assert isinstance(cond, float) and cond == pytest.approx(oracle, rel=1e-10)
    ev = kacrice_rhs(model, [(0, 2), (0, 3)], 0.4)
    assert (ev.mc_error, ev.quadrature_error, ev.n_mc) == (0.0, 0.0, 0)


# ---------------------------------------------------------------------------
# squared-sum fields
# ---------------------------------------------------------------------------


def test_chi_square_level_density_is_chi2_pdf():
    base = SpectralGaussian1D.harmonics(8, seed=3)
    for n in (2, 3):
        model = ChiSquareField(n=n, base=base)
        for u in (0.5, 1.0, 2.0):
            assert level_density(model, 0.0, u) == pytest.approx(
                stats.chi2.pdf(u, df=n), rel=1e-10
            )
    with pytest.raises(DomainError):
        level_density(ChiSquareField(n=2, base=base), 0.0, 0.0)
    with pytest.raises(DomainError):
        level_density(ChiSquareField(n=2, base=base), 0.0, -1.0)


def _chi2_gradient_norm_draws(model, u, n_draws, seed):
    """Sphere-uniform Monte Carlo of ||grad X|| given X = ||Y||^2 = u.

    The conditional law over the level sphere weights the Gaussian density
    by the inverse surface-gradient norm; both are constant on the sphere, so
    Y is uniform on the radius-sqrt(u) sphere, and each component's gradient
    stays an independent N(0, Lambda_2).
    """
    rng = stream(seed, "chi2-oracle")
    y = rng.standard_normal((n_draws, model.n))
    y *= math.sqrt(u) / np.linalg.norm(y, axis=1, keepdims=True)
    base = model.base
    if isinstance(base, SpectralGaussian1D):
        g = rng.standard_normal((n_draws, model.n)) * math.sqrt(base.lambda2)
        return np.abs(2.0 * np.einsum("ij,ij->i", y, g))
    chol = np.linalg.cholesky(base.lambda2_matrix)
    g = rng.standard_normal((n_draws, model.n, 2)) @ chol.T
    return np.linalg.norm(2.0 * np.einsum("ij,ijk->ik", y, g), axis=1)


_ANISO_UNIT = SpectralGaussian2D(
    wavevectors=np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    amplitudes=np.array([0.5, 0.6, 0.3]) / math.sqrt(0.7),
)


@pytest.mark.parametrize("base, box", [
    (SpectralGaussian1D.harmonics(8, seed=3), (0.0, 4.0)),
    (_ring_model(), [(0, 1), (0, 2)]),
    (_ANISO_UNIT, [(0, 1), (0, 2)]),
], ids=["line", "ring", "aniso"])
@pytest.mark.parametrize("n", [2, 3])
def test_chi_square_gradient_norm_matches_sphere_monte_carlo(base, box, n):
    # given ||Y||^2 = u the gradient 2 sum Y_j grad Y_j is N(0, 4u Lambda_2),
    # so the closed form is 2 sqrt(u) times the base field's E||grad Y||
    model = ChiSquareField(n=n, base=base)
    for i, u in enumerate((0.5, 2.0)):
        cond = conditional_jacobian_expectation(model, u)
        oracle, se = mean_se(_chi2_gradient_norm_draws(model, u, 200_000, seed=10 * n + i))
        assert abs(cond - oracle) <= 3.0 * se
        ev = kacrice_rhs(model, box, u)
        vol = ev.detail["volume"]
        assert ev.value == pytest.approx(level_density(model, 0.0, u) * cond * vol,
                                         rel=1e-15)
        assert (ev.mc_error, ev.quadrature_error, ev.n_mc) == (0.0, 0.0, 0)
    with pytest.raises(DomainError):
        conditional_jacobian_expectation(model, 0.0)


# ---------------------------------------------------------------------------
# weighted predictions
# ---------------------------------------------------------------------------


def test_unit_weight_delegates_to_plain_prediction():
    model = _line_model()
    a = weighted_kacrice_rhs(model, (0.0, 3.0), 0.2, "unit")
    b = kacrice_rhs(model, (0.0, 3.0), 0.2)
    assert a.value == b.value


def test_upcrossing_weight_is_half_the_crossing_rate():
    model = _line_model()
    up = weighted_kacrice_rhs(model, (0.0, 3.0), 0.2, "upcrossing")
    total = kacrice_rhs(model, (0.0, 3.0), 0.2)
    assert up.value == pytest.approx(0.5 * total.value, rel=1e-12)


def test_weight_validation():
    model = _line_model()
    with pytest.raises(ConfigurationError):
        weighted_kacrice_rhs(model, (0.0, 1.0), 0.0, "sideways")
    with pytest.raises(CapabilityError):
        weighted_kacrice_rhs(_ring_model(), [(0, 1), (0, 1)], 0.0, "upcrossing")
    # only the three forms a config accepts: no callables, no mapping
    # spellings of the named weights
    for weight in (lambda v: np.ones_like(v), {"kind": "unit"}, {"kind": "upcrossing"}):
        with pytest.raises(ConfigurationError):
            weighted_kacrice_rhs(model, (0.0, 1.0), 0.0, weight)
    # k is the integer 0, 1 or 2: True and 1.0 once ran as saddles
    for k in (5, True, 1.0):
        with pytest.raises(ConfigurationError):
            weighted_kacrice_rhs(
                GradientField(base=_ring_model()), [(0, 1), (0, 1)], (0.0, 0.0),
                {"kind": "index", "k": k},
            )
    with pytest.raises(CapabilityError):
        weighted_kacrice_rhs(model, (0.0, 1.0), 0.0, {"kind": "index", "k": 0})


def test_signature_classes_partition_critical_points():
    # exact shares of the roots prediction: saddles 1/2, minima and maxima 1/4
    grad = GradientField(base=_ring_model())
    box = [(0, 1), (0, 1)]
    u = (0.3, -0.2)
    total = kacrice_rhs(grad, box, u).value
    parts = [weighted_kacrice_rhs(grad, box, u, {"kind": "index", "k": k}).value
             for k in (0, 1, 2)]
    assert sum(parts) == pytest.approx(total, rel=1e-12)
    assert parts[1] == pytest.approx(parts[0] + parts[2], rel=1e-12)
    assert parts[0] == pytest.approx(parts[2], rel=1e-12)


ANISO5 = SpectralGaussian2D(
    np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.5, -0.5], [0.3, 2.2]]),
    np.array([0.5, 0.6, 0.3, 0.4, 0.35]))
AXES2 = SpectralGaussian2D(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))


@pytest.mark.parametrize("base", [_ring_model(), ANISO5, AXES2],
                         ids=["ring", "aniso", "axes"])
def test_abs_det_mean_matches_monte_carlo(base):
    # Hess Y(0) = -sum_k a_k xi_k k k^T for the cosine coefficients xi_k
    a, w = base.amplitudes, base.wavevectors
    xi = stream(11, "abs-det-oracle").standard_normal((400_000, a.size)) * a
    h11, h22, h12 = (xi @ (w[:, i] * w[:, j]) for i, j in ((0, 0), (1, 1), (0, 1)))
    est, se = mean_se(np.abs(h11 * h22 - h12 ** 2))
    assert abs(engine._abs_det_mean(base) - est) <= 3.0 * se


def test_abs_det_mean_isotropic_closed_form():
    # Longuet-Higgins: E|det H| = 4 m_1122 / sqrt(3) for an isotropic field
    ring = _ring_model()
    m1122 = ring.hessian_fourth_moment[0, 0, 1, 1]
    assert engine._abs_det_mean(ring) == pytest.approx(4.0 * m1122 / math.sqrt(3.0),
                                                       rel=1e-12)
    # two independent axis waves: E|h11 h22| = E|h11| E|h22| = 2 / pi
    assert engine._abs_det_mean(AXES2) == pytest.approx(2.0 / math.pi, rel=1e-12)


# ---------------------------------------------------------------------------
# signed counts
# ---------------------------------------------------------------------------


def test_signed_count_line_field_closed_form():
    model = _line_model(freqs=(0.8, 1.7, 2.9), amps=(0.7, 0.5, 0.3))
    T = 5.0
    for u in (0.0, 0.3, 1.1):
        est = euler_char_expectation(model, (0.0, T), u)
        expect = (T / TWO_PI) * math.sqrt(model.lambda2 / model.lambda0) * math.exp(
            -0.5 * u * u / model.lambda0
        )
        assert abs(est.value - expect) <= 4.0 * est.total_error + 1e-4


def test_signed_count_single_harmonic_one_period():
    model = SpectralGaussian1D(frequencies=np.array([1.0]), amplitudes=np.array([1.0]))
    est = euler_char_expectation(model, (0.0, TWO_PI), 0.0)
    assert abs(est.value - 1.0) <= 4.0 * est.total_error + 1e-6


def test_signed_count_plane_matches_isotropic_closed_form():
    # unit-variance isotropic field: signed-count density at level u is
    # (2 pi)^{-3/2} lambda2 u exp(-u^2 / 2) with lambda2 the per-axis
    # gradient variance
    kappa = 3.0
    model = _ring_model(kappa)
    lam2 = kappa * kappa / 2.0
    for u in (0.5, 1.0):
        est = euler_char_expectation(model, [(0, 1), (0, 1)], u)
        expect = (TWO_PI) ** (-1.5) * lam2 * u * math.exp(-0.5 * u * u)
        assert abs(est.value - expect) <= 4.0 * est.total_error + 2e-3 * abs(expect)


def test_signed_count_plane_zero_level_vanishes():
    est = euler_char_expectation(_ring_model(), [(0, 1), (0, 1)], 0.0)
    assert abs(est.value) <= 4.0 * est.total_error + 1e-6


def test_signed_count_plane_against_direct_mc():
    # independent oracle: joint Gaussian draws of (X, H11, H22, H12) built
    # from the spectral representation, gradient independent by parity
    model = _ring_model(3.0)
    u = 0.5
    C = np.zeros((4, 4))
    C[0, 0] = model.lambda0
    for k, a in zip(model.wavevectors, model.amplitudes):
        h = np.array([k[0] * k[0], k[1] * k[1], k[0] * k[1]])
        C[0, 1:] += a * a * (-h)
        C[1:, 0] += a * a * (-h)
        C[1:, 1:] += a * a * np.outer(h, h)
    w, V = np.linalg.eigh(C)
    root = V @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    z = stream(123, "euler-oracle").standard_normal((4_000_000, 4)) @ root.T
    det = z[:, 1] * z[:, 2] - z[:, 3] ** 2
    vals = det * (z[:, 0] > u)
    lam = model.lambda2_matrix
    p_grad = 1.0 / (TWO_PI * math.sqrt(float(np.linalg.det(lam))))
    oracle = float(vals.mean()) * p_grad
    oracle_se = float(vals.std(ddof=1) / math.sqrt(vals.size)) * p_grad
    est = euler_char_expectation(model, [(0, 1), (0, 1)], u)
    assert abs(est.value - oracle) <= 4.0 * (est.total_error + oracle_se)


def _euler_per_draw_reference(model, u, n_nodes, inner_mc, seed):
    """Per-draw integrals of the signed-count integral, one node at a time.

    Monte Carlo oracle for the closed form: the conditional law of the
    Hessian given X = x (the gradient is independent) is built here from the
    spectral sums and sampled, and the half-line x > u goes through the
    rational map x = u + s/(1 - s) and a midpoint rule in s.
    """
    lam0 = model.lambda0
    if model.D == 1:
        a2, h = model.amplitudes ** 2, -model.frequencies[:, None] ** 2
        p_grad = 1.0 / math.sqrt(TWO_PI * model.lambda2)
    else:
        a2, k = model.amplitudes ** 2, model.wavevectors
        h = -np.stack([k[:, 0] ** 2, k[:, 1] ** 2, k[:, 0] * k[:, 1]], axis=1)
        p_grad = 1.0 / (TWO_PI * math.sqrt(np.linalg.det(model.lambda2_matrix)))
    cross = a2 @ h  # Cov(Hessian entries, X)
    cond = np.einsum("k,ki,kj->ij", a2, h, h) - np.outer(cross, cross) / lam0
    cond += 1e-14 * max(np.trace(cond), 1.0) * np.eye(cond.shape[0])
    z = stream(seed, "euler-hessian").standard_normal((inner_mc, cond.shape[0]))
    z = z @ np.linalg.cholesky(cond).T
    total = np.zeros(inner_mc)
    for j in range(n_nodes):
        s = (j + 0.5) / n_nodes
        x = u + s / (1.0 - s)
        hess = z + cross * (x / lam0)
        det = hess[:, 0] if model.D == 1 else hess[:, 0] * hess[:, 1] - hess[:, 2] ** 2
        p_x = math.exp(-0.5 * x * x / lam0) / math.sqrt(TWO_PI * lam0)
        total += det * (p_x * p_grad / (n_nodes * (1.0 - s) ** 2))
    return total


@pytest.mark.parametrize("dim", [1, 2])
def test_signed_count_closed_form_matches_per_draw_oracle(dim):
    if dim == 1:
        model = _line_model(freqs=(0.8, 1.7, 2.9), amps=(0.7, 0.5, 0.3))
        box, sign = (0.0, 2.0), -1.0
    else:
        # anisotropic, with waves of three lengths so the Hessian is not tied
        # to the value
        k = np.array([[1.0, 0.0], [0.6, 1.1], [-1.3, 0.9], [0.4, -2.2], [2.1, 1.7]])
        model = SpectralGaussian2D(wavevectors=k, amplitudes=np.full(5, math.sqrt(0.2)))
        assert not model.isotropic
        box, sign = [(0.0, 2.0), (0.0, 1.0)], 1.0
    for u in (-1.0, 0.0, 0.6, 2.0):
        est = euler_char_expectation(model, box, u)
        oracle = sign * 2.0 * _euler_per_draw_reference(model, u, 64, 20_000, seed=4)
        mean, se = mean_se(oracle)
        assert abs(est.value - mean) <= 3.0 * se, (u, est.value, mean, se)
        assert (est.mc_error, est.quadrature_error, est.n_mc) == (0.0, 0.0, 0)
        assert est.signed and est.detail == {"path": "closed-form", "dim": dim}


# ---------------------------------------------------------------------------
# impulse-sum fields
# ---------------------------------------------------------------------------


def _shot_model():
    return ShotNoiseModel(
        intensity=1.5, eta=0.7, beta_low=0.5, beta_high=2.0, domain=(0.0, 12.0)
    )


def test_shot_noise_rejects_the_atom():
    model = _shot_model()
    with pytest.raises(DomainError):
        shotnoise_rhs(model, (1.0, 11.0), 0.0)


@pytest.mark.parametrize("u, delta, error", [
    (math.nan, None, DomainError), (math.inf, None, DomainError),
    (-math.inf, None, DomainError), (0.5, math.nan, ConfigurationError),
    (0.5, math.inf, ConfigurationError), (0.5, -1.0, ConfigurationError)])
def test_shot_noise_rejects_non_finite_level_and_window(u, delta, error, monkeypatch):
    # a NaN or infinite window once skipped every window block and returned
    # the p = 1 term alone with mc_error 0; a NaN level ran every draw
    drawn = []
    monkeypatch.setattr(engine, "stream", lambda *a: drawn.append(a) or stream(*a))
    with pytest.raises(error):
        shotnoise_rhs(_shot_model(), (1.0, 11.0), u, delta=delta)
    assert drawn == []


def test_shot_noise_box_must_fit_domain():
    with pytest.raises(ConfigurationError):
        shotnoise_rhs(_shot_model(), (-1.0, 5.0), 0.5)


def test_shot_noise_truncation_is_reported_and_small():
    ev = shotnoise_rhs(_shot_model(), (1.0, 11.0), 0.5, seed=3)
    assert ev.value > 0.0
    assert ev.detail["tail_bound"] < 1e-3 * ev.value
    assert ev.detail["p_max"] >= 1


def test_shot_noise_stable_under_deeper_truncation():
    a = shotnoise_rhs(_shot_model(), (1.0, 11.0), 0.5, p_max=12, seed=3)
    b = shotnoise_rhs(_shot_model(), (1.0, 11.0), 0.5, p_max=16, seed=3)
    assert abs(a.value - b.value) <= a.detail["tail_bound"] + 4.0 * (
        a.mc_error + b.mc_error
    )


def _bump_masked(x, eta):
    x = np.asarray(x, dtype=float)
    r = x / eta
    out = (1.0 - r**2) ** 2
    return np.where(np.abs(r) < 1.0, out, 0.0)


def _bump_prime_masked(x, eta):
    x = np.asarray(x, dtype=float)
    r = x / eta
    out = -4.0 * (x / eta**2) * (1.0 - r**2)
    return np.where(np.abs(r) < 1.0, out, 0.0)


def _window_term_unblocked(model, u, p, delta, n_mc, rng):
    """The joint window term on whole (n_mc, p) arrays, slopes everywhere.

    Kept as the reference the blocked window term, which takes slopes only
    inside the window, must reproduce bit for bit.
    """
    s = rng.uniform(-model.eta, model.eta, size=(n_mc, p))
    b = rng.uniform(model.beta_low, model.beta_high, size=(n_mc, p))
    vals = np.einsum("ij,ij->i", b, _bump_masked(s, model.eta))
    slopes = np.einsum("ij,ij->i", b, _bump_prime_masked(s, model.eta))

    def window(width):
        hit = np.abs(vals - u) < width
        return mean_se(hit * np.abs(slopes) * (1.0 / (2.0 * width)))

    coarse, _ = window(delta)
    fine, se = window(delta / 2.0)
    joint = (4.0 * fine - coarse) / 3.0
    return joint, se, abs(joint - fine)


# (level, p_max, inner_mc): 20,000 draws split into several kernel blocks for
# every p, with a partial last block; 1,001 draws, whose position and
# amplitude sections end inside a four-double Philox step unless 4 divides p;
# at -0.4 every amplitude block is skipped, at 0.5 some are, at 4.0 none are
SHOT_CASES = [(0.5, 2, 20_000), (0.5, 16, 20_000), (1.3, 2, 20_000), (1.3, 16, 20_000),
              (2.5, 2, 20_000), (2.5, 16, 20_000), (0.5, 12, 1001),
              (-0.4, 12, 20_000), (4.0, 16, 20_000)]
# (level, p_max, inner_mc, delta): windows far narrower than |u|, delta / |u|
# about 1e-3 and 1e-6; u = 50 is reached from about p = 62 on.  At seed 1
# the two 1e-3 widths lie one ulp above the exact distance of a row (p = 3
# at u = 2.5, p = 65 at u = 50) whose unit-double filter sum lands one or
# two ulps of u farther out, so a candidate test without its margin drops
# a window hit
SHOT_CASES += [(2.5, 16, 20_000, 0.0025058233977093285), (2.5, 16, 20_000, 2.5e-6),
               (50.0, 80, 1000, 0.05417600622725872), (50.0, 80, 1000, 5e-5)]


def _shot_outputs(model, seed):
    out = {}
    for case in SHOT_CASES:
        u, p_max, inner_mc, *delta = case
        ev = shotnoise_rhs(model, (1.0, 11.0), u, p_max=p_max, inner_mc=inner_mc,
                           seed=seed, delta=delta[0] if delta else None)
        out[case] = [x.hex() for x in (ev.value, ev.mc_error, ev.quadrature_error,
                                       ev.detail["tail_bound"])]
    return out


@pytest.mark.parametrize("seed", [1, 3, 2**64 - 1])
def test_shot_noise_predictions_are_bitwise_frozen(seed, monkeypatch):
    model = _shot_model()
    got = _shot_outputs(model, seed)
    monkeypatch.setattr(engine, "_shotnoise_window_term", _window_term_unblocked)
    assert got == _shot_outputs(model, seed)


@pytest.mark.parametrize("seed", [1, 3, 2**64 - 1])
@pytest.mark.parametrize("u, skipped", [(-0.4, "all"), (0.5, "some"), (4.0, "none")])
def test_shot_noise_skips_only_amplitude_blocks_out_of_reach(seed, u, skipped,
                                                             monkeypatch):
    # the frozen cases cover no, some and every amplitude block skipped;
    # skip_doubles passes over each position section once, plus what it skips
    passed = []
    skip = engine.skip_doubles
    monkeypatch.setattr(engine, "skip_doubles",
                        lambda gen, n: (passed.append(n), skip(gen, n))[1])
    shotnoise_rhs(_shot_model(), (1.0, 11.0), u, p_max=16, inner_mc=20_000, seed=seed)
    sections = sum(20_000 * p for p in range(2, 17))
    amplitudes = sum(passed) - sections
    assert {"all": amplitudes == sections, "none": amplitudes == 0,
            "some": 0 < amplitudes < sections}[skipped]


@pytest.mark.parametrize("u", [0.5, 4.0])
def test_shot_noise_exact_kernel_runs_on_candidate_rows_only(u, monkeypatch):
    # beyond the 4096 + 2048 midpoints of the single-impulse term, the exact
    # kernel sees only the rows the unit-double filter keeps: about 0.05% of
    # the positions at u = 0.5 and 3% at u = 4.0, where no amplitude block
    # is skipped
    points = []
    bump = fields._bump
    monkeypatch.setattr(fields, "_bump",
                        lambda x, eta: (points.append(np.size(x)), bump(x, eta))[1])
    shotnoise_rhs(_shot_model(), (1.0, 11.0), u, p_max=16, inner_mc=20_000, seed=1)
    positions = 20_000 * sum(range(2, 17))
    assert sum(points) - (4096 + 2048) < 0.05 * positions


def test_shot_noise_prediction_memory_is_bounded():
    # blocks of draws keep this call near 8 MB; whole (inner_mc, p) arrays
    # of positions and amplitudes peak near 49 MB
    tracemalloc.start()
    try:
        shotnoise_rhs(_shot_model(), (1.0, 11.0), 0.5, inner_mc=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_bump_kernels_equal_their_masked_forms():
    eta = 0.7
    edge = np.nextafter(eta, 0.0)
    x = np.concatenate([np.linspace(-2.0 * eta, 2.0 * eta, 4001),
                        [eta, -eta, edge, -edge, 0.0, -0.0, 1e200, -1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bump(x, eta).tobytes() == _bump_masked(x, eta).tobytes()
        assert (_bump_prime(x, eta).tobytes()
                == _bump_prime_masked(x, eta).tobytes())
        for xi in x[-8:]:
            assert _bump(xi, eta).tobytes() == _bump_masked(xi, eta).tobytes()
        grid = x[:12].reshape(3, 4)
        assert _bump(grid, eta).shape == (3, 4)
        assert _bump(grid, eta).tobytes() == _bump_masked(grid, eta).tobytes()


@pytest.mark.parametrize("eta", [0.7, 1e-3, 1e3])
def test_unit_bump_is_the_kernel_of_its_position(eta):
    # the window filter reads the model's kernel as 16 (U (1 - U))^2 of the
    # unit double U behind s = -eta + 2 eta U; its margin assumes the two
    # agree within 16 eps, on the s that Generator.uniform and
    # engine._uniform_bits make
    kernel = ShotNoiseModel(intensity=1.5, eta=eta, domain=(0.0, 12.0)).kernel
    gen = stream(7, "unit-bump")
    unit = copy_position(gen).random(100_000)
    s = gen.uniform(-eta, eta, 100_000)
    assert engine._uniform_bits(unit, -eta, eta).tobytes() == s.tobytes()
    unit = np.concatenate([np.linspace(0.0, 1.0, 400_001)[:-1], unit,
                           [0.0, 0.5, 5e-324, np.nextafter(1.0, 0.0)]])
    s = engine._uniform_bits(unit, -eta, eta)
    err = np.abs(16.0 * _unit_bump(unit) - kernel(s))
    assert err.max() <= 16.0 * np.finfo(float).eps
    assert 16.0 * _unit_bump(0.5) == kernel(0.0) == 1.0


# ---------------------------------------------------------------------------
# point-mass deflection fields
# ---------------------------------------------------------------------------


def test_lens_zero_star_prediction_is_deterministic():
    model = MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.2, n_stars=0, R=1.0)
    y = np.array([0.25, 0.1])
    hit = microlens_rhs(model, y, {"kind": "disk", "center": [0.0, 0.0], "radius": 2.0})
    assert hit.value == 1.0 and hit.total_error == 0.0
    miss = microlens_rhs(
        model, y, {"kind": "disk", "center": [5.0, 5.0], "radius": 0.5}
    )
    assert miss.value == 0.0


def test_lens_requires_supercritical_strength():
    sub = MicrolensModel(kappa_c=0.5, gamma=0.0, m=0.2, n_stars=3, R=1.0)
    with pytest.raises(CapabilityError):
        microlens_rhs(sub, np.zeros(2), {"kind": "disk", "center": [0, 0], "radius": 2.0})
    # a frozen subcritical system (c = 0.8) is refused like its ensemble
    frozen = sample_realization(
        MicrolensModel(kappa_c=0.2, gamma=0.0, m=0.05, n_stars=5, R=1.0), 4)
    with pytest.raises(CapabilityError):
        microlens_rhs(frozen, np.array([0.1, 0.0]),
                      {"kind": "disk", "center": [0, 0], "radius": 2.0},
                      inner_mc=200)


def test_lens_prediction_plausible_for_small_field():
    model = MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.2, n_stars=3, R=1.0)
    ev = microlens_rhs(
        model,
        np.array([0.25, 0.1]),
        {"kind": "disk", "center": [0.0, 0.0], "radius": 1.97},
        inner_mc=2048,
        seed=7,
    )
    # supercritical odd-image relation: 2 more images than the star-free map
    assert 1.5 < ev.value < 2.5
    assert ev.total_error < 0.2
    with pytest.raises(ConfigurationError):
        microlens_rhs(model, np.zeros(3), {"kind": "disk", "center": [0, 0],
                                           "radius": 1.0})


def _lens_node_reference(model, x, y, rest, eps_star=1e-6):
    """Joint designated-mass weight at one node for every draw, in real form.

    The designated offset z* solves the lens equation at ``x`` given the
    other masses ``rest`` (n_draws, k, 2); the Jacobian is the real 2x2 sum
    c I - 2m sum (I - 2 u u^T) / |z|^2 over every offset, designated included.
    """
    m, c = model.m, model.c
    z = x[None, None, :] - rest
    r2 = np.sum(z * z, axis=-1)
    w = c * x[None, :] - 2.0 * m * np.sum(z / r2[..., None], axis=1) - y[None, :]
    w2 = np.sum(w * w, axis=-1)
    zstar = 2.0 * m * w / w2[:, None]
    jac = np.zeros((w.shape[0], 2, 2))
    jac[:, 0, 0] = jac[:, 1, 1] = c
    for off in [zstar] + [z[:, j] for j in range(z.shape[1])]:
        d2 = np.sum(off * off, axis=-1)
        outer = off[:, :, None] * off[:, None, :] / d2[:, None, None]
        jac -= 2.0 * m * (np.eye(2)[None] - 2.0 * outer) / d2[:, None, None]
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    zs2 = np.sum(zstar * zstar, axis=-1)
    ok = np.all(r2 > eps_star ** 2, axis=1) & (w2 > 1e-28) & (zs2 > eps_star ** 2)
    inside = np.sum((x[None, :] - zstar) ** 2, axis=-1) <= model.R ** 2
    weight = zs2 ** 2 / (4.0 * m * m) / (math.pi * model.R ** 2) * np.abs(det)
    return np.where(ok & inside, weight, 0.0)


def _lens_joint_samples(model, region, inner_mc, seed):
    """The (x, other masses) pairs of ``microlens_rhs``, drawn in real form.

    Returns the points as an (inner_mc, 2) array, the other masses as
    (inner_mc, n_stars - 1, 2), and the region's area.
    """
    rng = stream(seed, "lens-ensemble")
    u = rng.uniform(size=(inner_mc, model.n_stars - 1, 2))
    r = model.R * np.sqrt(u[..., 0])
    rest = np.stack([r * np.cos(2.0 * math.pi * u[..., 1]),
                     r * np.sin(2.0 * math.pi * u[..., 1])], axis=-1)
    v = rng.uniform(size=(inner_mc, 2))
    if isinstance(region, dict):
        rad = region["radius"] * np.sqrt(v[:, 0])
        x = np.asarray(region["center"]) + np.column_stack(
            [rad * np.cos(2.0 * math.pi * v[:, 1]), rad * np.sin(2.0 * math.pi * v[:, 1])])
        area = math.pi * region["radius"] ** 2
    else:
        box = np.asarray(region, dtype=float)
        x = box[:, 0] + v * (box[:, 1] - box[:, 0])
        area = float(np.prod(box[:, 1] - box[:, 0]))
    return x, rest, area


def _complex(points):
    return points[..., 0] + 1j * points[..., 1]


def test_lens_complex_det_matches_frozen_system_jacobian():
    model = MicrolensModel(kappa_c=2.0, gamma=0.1, m=0.2, n_stars=4, R=1.0)
    rng = stream(3, "lens-det-test")
    xi = _lens_ensemble(model, 400, rng)
    x = rng.uniform(-0.8, 0.8, size=(400, 2))
    y = np.array([0.25, 0.1])
    joint, excluded = _microlens_designated(model, _complex(x), y, xi)
    assert joint.shape == excluded.shape == (400,)
    checked = 0
    for i in np.flatnonzero(joint > 0.0):
        rest = np.column_stack([xi[i].real, xi[i].imag])
        w = MicrolensSystem(model.kappa_c, model.gamma, model.m, rest,
                            model.R).value(x[i]) - y
        # density of the designated position: (2m / |w|^2)^2 over the disk area
        dens = (2.0 * model.m / (w @ w)) ** 2 / (math.pi * model.R ** 2)
        designated = x[i] - 2.0 * model.m * w / (w @ w)
        frozen = MicrolensSystem(model.kappa_c, model.gamma, model.m,
                                 np.vstack([rest, designated]), model.R)
        assert np.allclose(frozen.value(x[i]), y, rtol=0.0, atol=1e-12)
        # only the mass nearest to x carries the sample, n_stars times
        dist = np.hypot(*(x[i] - frozen.star_positions).T)
        assert np.argmin(dist) == model.n_stars - 1
        det = np.linalg.det(frozen.jacobian(x[i]))
        assert joint[i] / (model.n_stars * dens) == pytest.approx(abs(det), rel=1e-12)
        checked += 1
    assert checked >= 50


# one mass of m = 0.2 has images only where |y + xi| >= 2 sqrt(2m / |c|)
# (|xi| nearly 1): the lighter mass has them for most positions
@pytest.mark.parametrize("n_stars, m", [(1, 0.05), (3, 0.2)], ids=["1", "3"])
def test_lens_joint_samples_match_real_form_reference(n_stars, m):
    model = MicrolensModel(kappa_c=2.0, gamma=0.0, m=m, n_stars=n_stars, R=1.0)
    y = np.array([0.25, 0.1])
    region = {"kind": "disk", "center": [0.0, 0.0], "radius": 1.97}
    inner_mc, seed = 512, 5
    ev = microlens_rhs(model, y, region, inner_mc=inner_mc, seed=seed)
    x, rest, area = _lens_joint_samples(model, region, inner_mc, seed)
    ref = np.array([_lens_node_reference(model, x[i], y, rest[i:i + 1])[0]
                    for i in range(inner_mc)])
    # the real-form designated offset z* = 2m w / |w|^2 against every other mass
    z = x[:, None] - rest
    r2 = np.sum(z * z, axis=-1)
    w = model.c * x - y - 2.0 * model.m * np.sum(z / r2[..., None], axis=1)
    zs2 = (2.0 * model.m) ** 2 / np.sum(w * w, axis=-1)
    nearest = np.all(zs2[:, None] < r2, axis=1)
    expected = ref * n_stars * area * nearest
    weight, _ = _microlens_designated(model, _complex(x), y, _complex(rest))
    assert area * weight == pytest.approx(expected, rel=1e-12, abs=1e-300)
    assert np.count_nonzero(expected) > 40
    assert ev.value == pytest.approx(expected.mean(), rel=1e-12)
    # one x per draw: the standard error is the spread of the samples
    assert ev.mc_error * math.sqrt(inner_mc) == pytest.approx(expected.std(ddof=1),
                                                             rel=1e-12)
    assert (ev.quadrature_error, ev.n_quadrature, ev.n_mc) == (0.0, 0, inner_mc)
    assert ev.detail["path"] == "joint-draws"


def test_lens_weight_bounded_and_error_calibrated():
    # the a11 model at its default region: the nearest-mass weight is at
    # most n area / (pi R^2) (c^2 (rho + R)^4 / (4 m^2) + n^2), and over
    # engine seeds the prediction spreads as its standard error says
    model = MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.2, n_stars=3, R=1.0)
    y = np.array([0.25, 0.1])
    region = default_image_region(model, y)
    rho = region["radius"]
    n, inner_mc = model.n_stars, 8192
    values, errors, largest = [], [], 0.0
    for seed in range(1, 31):
        ev = microlens_rhs(model, y, region, inner_mc=inner_mc, seed=seed)
        x, rest, area = _lens_joint_samples(model, region, inner_mc, seed)
        weight, _ = _microlens_designated(model, _complex(x), y, _complex(rest))
        assert area * weight.mean() == pytest.approx(ev.value, rel=1e-12)
        largest = max(largest, area * weight.max())
        values.append(ev.value)
        errors.append(ev.mc_error)
    bound = n * area / (math.pi * model.R ** 2) * (
        model.c ** 2 * (rho + model.R) ** 4 / (4.0 * model.m ** 2) + n * n)
    assert largest <= bound
    assert np.std(values, ddof=1) <= 1.5 * np.median(errors)


def test_lens_box_region_matches_disk():
    # the box holds the default disk, which holds every image, so both
    # regions predict the same count
    model = MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.2, n_stars=3, R=1.0)
    y = np.array([0.25, 0.1])
    disk = default_image_region(model, y)
    rad = disk["radius"]
    box = [[-rad, rad + 0.5], [-rad - 0.25, rad]]
    on_disk = microlens_rhs(model, y, disk, inner_mc=8192, seed=2)
    on_box = microlens_rhs(model, y, box, inner_mc=8192, seed=3)
    assert on_box.detail["path"] == "joint-draws"
    gap = abs(on_box.value - on_disk.value)
    assert gap <= 3.0 * math.hypot(on_box.mc_error, on_disk.mc_error)


# ---------------------------------------------------------------------------
# pair moments
# ---------------------------------------------------------------------------


def test_pair_moment_degenerate_spectrum_raises():
    model = SpectralGaussian1D(frequencies=np.array([1.0]), amplitudes=np.array([1.0]))
    with pytest.raises(DegeneracyError):
        second_factorial_moment_rhs(model, (0.0, TWO_PI), 0.0)


def _pair_rate_zero_level(model, tau):
    """Closed-form two-root rate at u = 0 for a scalar Gaussian line field."""
    lam0 = model.lambda0
    c = model.covariance(tau)
    cp = model.covariance(tau, order=1)
    cpp = model.covariance(tau, order=2)
    det_obs = lam0 * lam0 - c * c
    dens = 1.0 / (TWO_PI * math.sqrt(det_obs))
    # conditional covariance of (X'(0), X'(tau)) given X(0) = X(tau) = 0
    B = np.array([[0.0, -cp], [cp, 0.0]])
    obs = np.array([[lam0, c], [c, lam0]])
    cov = np.array([[model.lambda2, -cpp], [-cpp, model.lambda2]])
    cond = cov - B @ np.linalg.solve(obs, B.T)
    s1 = math.sqrt(cond[0, 0])
    s2 = math.sqrt(cond[1, 1])
    rho = max(-1.0, min(1.0, cond[0, 1] / (s1 * s2)))
    # E|V W| for centred bivariate normals
    mean_abs = (2.0 * s1 * s2 / math.pi) * (
        math.sqrt(1.0 - rho * rho) + rho * math.asin(rho)
    )
    return mean_abs * dens


def test_pair_moment_matches_independent_quadrature():
    model = _line_model(freqs=(1.0, 2.3), amps=(0.8, 0.6))
    T = 0.9
    est = second_factorial_moment_rhs(model, (0.0, T), 0.0, seed=5,
                                      inner_mc=65_536)
    oracle, err = integrate.quad(
        lambda tau: 2.0 * _pair_rate_zero_level(model, tau) * (T - tau),
        0.0,
        T,
        limit=200,
    )
    assert abs(est.value - oracle) <= 4.0 * est.total_error + 10.0 * err + 1e-4


def _pair_per_draw_reference(model, T, u, band, n_nodes, inner_mc, seed):
    """Per-draw pair-moment integrals on (band, T), one lag at a time.

    The conditional law of (X'(s), X'(t)) given X(s) = X(t) = u comes from a
    2x2 solve and a Cholesky factor, on the engine's draws (tag "pair-moment").
    """
    lam0, lam2 = model.lambda0, model.lambda2
    z = stream(seed, "pair-moment").standard_normal((inner_mc, 2))
    total = np.zeros(inner_mc)
    h = (T - band) / n_nodes
    for j in range(n_nodes):
        tau = band + (j + 0.5) * h
        c, cp, cpp = (float(model.covariance(tau, order=o)) for o in (0, 1, 2))
        obs = np.array([[lam0, c], [c, lam0]])
        cross = np.array([[0.0, -cp], [cp, 0.0]])  # Cov((V1, V2), (X(s), X(t)))
        gain = np.linalg.solve(obs, cross.T).T
        cond = np.array([[lam2, -cpp], [-cpp, lam2]]) - gain @ cross.T
        v = gain @ np.array([u, u]) + z @ np.linalg.cholesky(cond).T
        dens = math.exp(-u * u / (lam0 + c)) / (TWO_PI * math.sqrt(np.linalg.det(obs)))
        total += np.abs(v[:, 0] * v[:, 1]) * (dens * 2.0 * (T - tau) * h)
    return total


def test_pair_moment_shared_draws_match_per_node_loop():
    model = _line_model(freqs=(1.0, 2.3), amps=(0.8, 0.6))
    T, u, inner_mc, seed, nodes = 2.0, 0.4, 2000, 7, 48
    est = second_factorial_moment_rhs(model, (0.0, T), u, quadrature=nodes,
                                      inner_mc=inner_mc, seed=seed, band_fraction=0.05)
    band = 0.05 * T
    narrow = _pair_per_draw_reference(model, T, u, band, nodes, inner_mc, seed)
    wide = _pair_per_draw_reference(model, T, u, 2.0 * band, nodes, inner_mc, seed)
    half = _pair_per_draw_reference(model, T, u, band, nodes // 2, inner_mc, seed)
    gap = narrow.mean() - wide.mean()
    assert est.value == pytest.approx(narrow.mean() + gap / 3.0, rel=1e-12)
    assert est.mc_error * math.sqrt(inner_mc) == pytest.approx(narrow.std(ddof=1),
                                                              rel=1e-12)
    assert est.quadrature_error == pytest.approx(
        abs(gap) / 3.0 + abs(narrow.mean() - half.mean()),
        rel=1e-12, abs=1e-13 * est.value)
    assert est.detail == {"band": band, "nodes": nodes, "n_mc": inner_mc}
    assert (est.n_quadrature, est.n_mc, est.signed) == (nodes, inner_mc, True)


def test_pair_moment_grows_with_interval():
    model = _line_model(freqs=(1.0, 2.3), amps=(0.8, 0.6))
    a = second_factorial_moment_rhs(model, (0.0, 0.6), 0.0, seed=5).value
    b = second_factorial_moment_rhs(model, (0.0, 1.2), 0.0, seed=5).value
    assert b > a > 0.0


# ---------------------------------------------------------------------------
# level-grid consistency table
# ---------------------------------------------------------------------------


def test_level_table_integrals_agree():
    model = _line_model()
    levels = np.linspace(-1.5, 1.5, 9)
    out = ae_level_consistency(model, (0.0, 6.0), levels, n_realizations=512,
                               grid=1024, seed=17)
    tol = 4.0 * out["lhs_integral_error"]
    assert abs(out["lhs_integral"] - out["rhs_integral"]) <= tol
    assert len(out["lhs"]) == levels.size


@pytest.mark.parametrize("key,value", [
    ("grid", 0), ("grid", 1), ("grid", 2.5),
    ("n_realizations", 0), ("n_realizations", 1), ("n_realizations", 2.5),
])
def test_level_table_rejects_bad_grid_and_realization_counts(key, value):
    # grid 0 or 1 would count no crossing, one realization has no standard error
    with pytest.raises(ConfigurationError, match=key):
        ae_level_consistency(_line_model(), (0.0, 1.0), [0.0, 0.5, 1.0],
                             **{"grid": 64, "n_realizations": 64, key: value})


def test_level_table_validation():
    model = _line_model()
    with pytest.raises(ConfigurationError):
        ae_level_consistency(model, (0.0, 1.0), [0.0, 1.0], n_realizations=64)
    with pytest.raises(ConfigurationError):
        ae_level_consistency(model, (0.0, 1.0), [0.0, 1.0, 0.5], n_realizations=64)
