import math

import numpy as np
import pytest
from scipy import integrate, stats

from ricelab.engine import (
    RhsEvaluation,
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
)
from ricelab.fields import (
    ChiSquareField,
    GradientField,
    MicrolensModel,
    ShotNoiseModel,
    SpectralGaussian1D,
    SpectralGaussian2D,
    sample_realization,
)
from ricelab.harness import ae_level_consistency
from ricelab.rng import stream

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
    with pytest.raises(ValueError):
        RhsEvaluation(value=-1.0)
    with pytest.raises(ValueError):
        RhsEvaluation(value=1.0, mc_error=-0.5)
    with pytest.raises(ValueError):
        RhsEvaluation(value=math.nan)


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


def test_chi_square_prediction_has_mc_budget():
    model = ChiSquareField(n=2, base=SpectralGaussian1D.harmonics(8, seed=3))
    ev = kacrice_rhs(model, (0.0, 4.0), 1.0, seed=5)
    assert ev.value > 0.0
    assert ev.mc_error > 0.0 and ev.n_mc > 0


# ---------------------------------------------------------------------------
# weighted predictions
# ---------------------------------------------------------------------------


def test_unit_weight_delegates_to_plain_prediction():
    model = _line_model()
    a = weighted_kacrice_rhs(model, (0.0, 3.0), 0.2, "unit", seed=4)
    b = kacrice_rhs(model, (0.0, 3.0), 0.2, seed=4)
    assert a.value == b.value


def test_upcrossing_weight_is_half_the_crossing_rate():
    model = _line_model()
    up = weighted_kacrice_rhs(model, (0.0, 3.0), 0.2, "upcrossing")
    total = kacrice_rhs(model, (0.0, 3.0), 0.2)
    assert up.value == pytest.approx(0.5 * total.value, rel=1e-12)


def test_callable_weight_reproduces_named_weights():
    model = _line_model()
    box = (0.0, 3.0)
    total = kacrice_rhs(model, box, 0.0)
    one = weighted_kacrice_rhs(model, box, 0.0, lambda v: np.ones_like(v), seed=8)
    assert abs(one.value - total.value) <= 4.0 * one.mc_error
    up = weighted_kacrice_rhs(model, box, 0.0, lambda v: (v > 0).astype(float), seed=8)
    assert abs(up.value - 0.5 * total.value) <= 4.0 * up.mc_error


def test_weight_validation():
    model = _line_model()
    with pytest.raises(ConfigurationError):
        weighted_kacrice_rhs(model, (0.0, 1.0), 0.0, "sideways")
    with pytest.raises(CapabilityError):
        weighted_kacrice_rhs(_ring_model(), [(0, 1), (0, 1)], 0.0, "upcrossing")
    with pytest.raises(ConfigurationError):
        weighted_kacrice_rhs(model, (0.0, 1.0), 0.0, lambda v: v[:-1])
    with pytest.raises(ConfigurationError):
        weighted_kacrice_rhs(model, (0.0, 1.0), 0.0, lambda v: -np.ones_like(v))
    with pytest.raises(ConfigurationError):
        weighted_kacrice_rhs(
            GradientField(base=_ring_model()), [(0, 1), (0, 1)], (0.0, 0.0),
            {"kind": "index", "k": 5},
        )
    with pytest.raises(CapabilityError):
        weighted_kacrice_rhs(model, (0.0, 1.0), 0.0, {"kind": "index", "k": 0})


def test_signature_classes_partition_critical_points():
    grad = GradientField(base=_ring_model())
    box = [(0, 1), (0, 1)]
    u = (0.0, 0.0)
    total = kacrice_rhs(grad, box, u, inner_mc=200_000, seed=13)
    parts = [
        weighted_kacrice_rhs(grad, box, u, {"kind": "index", "k": k},
                             inner_mc=200_000, seed=13)
        for k in (0, 1, 2)
    ]
    sum_val = sum(p.value for p in parts)
    sum_err = sum(p.mc_error for p in parts)
    assert abs(sum_val - total.value) <= 4.0 * (sum_err + total.total_error)
    # saddles match extrema in expectation for a smooth planar field
    assert abs(parts[1].value - parts[0].value - parts[2].value) <= 4.0 * sum_err


# ---------------------------------------------------------------------------
# signed counts
# ---------------------------------------------------------------------------


def test_signed_count_line_field_closed_form():
    model = _line_model(freqs=(0.8, 1.7, 2.9), amps=(0.7, 0.5, 0.3))
    T = 5.0
    for u in (0.0, 0.3, 1.1):
        est = euler_char_expectation(model, (0.0, T), u, seed=2)
        expect = (T / TWO_PI) * math.sqrt(model.lambda2 / model.lambda0) * math.exp(
            -0.5 * u * u / model.lambda0
        )
        assert abs(est.value - expect) <= 4.0 * est.total_error + 1e-4


def test_signed_count_single_harmonic_one_period():
    model = SpectralGaussian1D(frequencies=np.array([1.0]), amplitudes=np.array([1.0]))
    est = euler_char_expectation(model, (0.0, TWO_PI), 0.0, seed=2)
    assert abs(est.value - 1.0) <= 4.0 * est.total_error + 1e-6


def test_signed_count_plane_matches_isotropic_closed_form():
    # unit-variance isotropic field: signed-count density at level u is
    # (2 pi)^{-3/2} lambda2 u exp(-u^2 / 2) with lambda2 the per-axis
    # gradient variance
    kappa = 3.0
    model = _ring_model(kappa)
    lam2 = kappa * kappa / 2.0
    for u in (0.5, 1.0):
        est = euler_char_expectation(model, [(0, 1), (0, 1)], u, seed=6,
                                     inner_mc=200_000)
        expect = (TWO_PI) ** (-1.5) * lam2 * u * math.exp(-0.5 * u * u)
        assert abs(est.value - expect) <= 4.0 * est.total_error + 2e-3 * abs(expect)


def test_signed_count_plane_zero_level_vanishes():
    est = euler_char_expectation(_ring_model(), [(0, 1), (0, 1)], 0.0, seed=6)
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
    est = euler_char_expectation(model, [(0, 1), (0, 1)], u, seed=9,
                                 inner_mc=200_000)
    assert abs(est.value - oracle) <= 4.0 * (est.total_error + oracle_se)


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
    with pytest.raises(DomainError):
        level_density(model, 3.0, 0.0)


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


def test_shot_noise_density_positive_off_atom():
    model = _shot_model()
    d1 = level_density(model, 3.0, 0.8, seed=11)
    d2 = level_density(model, 3.0, 1.6, seed=11)
    assert d1 > 0.0 and d2 > 0.0
    assert d1 > d2  # unimodal bulk decays past its mode for this parameter set


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
                      quadrature=6, inner_mc=200)


def test_lens_prediction_plausible_for_small_field():
    model = MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.2, n_stars=3, R=1.0)
    ev = microlens_rhs(
        model,
        np.array([0.25, 0.1]),
        {"kind": "disk", "center": [0.0, 0.0], "radius": 1.97},
        quadrature=24,
        inner_mc=2048,
        seed=7,
    )
    # supercritical odd-image relation: 2 more images than the star-free map
    assert 1.5 < ev.value < 2.5
    assert ev.total_error < 0.2
    with pytest.raises(ConfigurationError):
        microlens_rhs(model, np.zeros(3), {"kind": "disk", "center": [0, 0],
                                           "radius": 1.0})


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
    tol = 4.0 * (out["lhs_integral_error"] + out["rhs_integral_error"])
    assert abs(out["lhs_integral"] - out["rhs_integral"]) <= tol
    assert len(out["lhs"]) == levels.size


def test_level_table_validation():
    model = _line_model()
    with pytest.raises(ConfigurationError):
        ae_level_consistency(model, (0.0, 1.0), [0.0, 1.0], n_realizations=64)
    with pytest.raises(ConfigurationError):
        ae_level_consistency(model, (0.0, 1.0), [0.0, 1.0, 0.5], n_realizations=64)
