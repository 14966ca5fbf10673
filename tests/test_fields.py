import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricelab import fields
from ricelab.errors import (
    CapabilityError,
    ConfigurationError,
    DomainError,
    SingularityError,
)
from ricelab.fields import (
    ChiSquareField,
    DeterministicField,
    GradientField,
    LineCorpus,
    MicrolensModel,
    ShotNoiseModel,
    SpectralGaussian1D,
    SpectralGaussian2D,
    _partial_rows,
    batch_coefficients,
    batch_stars,
    sample_realization,
    trig_basis_1d,
)
from ricelab.harness import _corpus_basis, _corpus_values
from ricelab.modelspec import model_from_doc, model_from_json, model_to_doc, model_to_json
from ricelab.rng import stream

small_seeds = st.integers(min_value=0, max_value=2**32 - 1)
times = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------


def test_model_validation_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        SpectralGaussian1D([1.0, -2.0], [1.0, 1.0])
    with pytest.raises(ConfigurationError):
        SpectralGaussian1D([1.0], [1.0, 2.0])
    with pytest.raises(ConfigurationError):
        ChiSquareField(n=1, base=SpectralGaussian1D.harmonics(3, seed=0))
    with pytest.raises(ConfigurationError):
        # base variance must be 1
        ChiSquareField(n=2, base=SpectralGaussian1D([1.0], [2.0]))
    with pytest.raises(ConfigurationError):
        MicrolensModel(kappa_c=2.0, gamma=0.0, m=-0.1, n_stars=3, R=1.0)
    with pytest.raises(ConfigurationError):
        ShotNoiseModel(intensity=1.5, eta=0.7, beta_low=2.0, beta_high=0.5,
                       domain=(0.0, 10.0))


def test_spectral_moments_match_covariance_derivatives():
    m = SpectralGaussian1D.harmonics(20, seed=4)
    assert m.lambda0 == pytest.approx(float(m.covariance(0.0)), abs=1e-14)
    assert m.lambda2 == pytest.approx(float(-m.covariance(0.0, order=2)), abs=1e-14)
    # lambda4 agrees with the spectral sum by a finite difference of C''
    h = 1e-4
    c4 = (m.covariance(h, 2) - 2 * m.covariance(0.0, 2) + m.covariance(-h, 2)) / h**2
    assert m.lambda4 == pytest.approx(float(c4), rel=1e-5)


def test_harmonics_factory_normalizes_variance():
    m = SpectralGaussian1D.harmonics(37, seed=9)
    assert m.lambda0 == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(m.frequencies) >= 0)


def test_isotropic_ring_moments():
    kappa = 3.0
    m = SpectralGaussian2D.isotropic_ring(8, kappa)
    assert m.lambda0 == pytest.approx(1.0, abs=1e-12)
    lam = m.lambda2_matrix
    # equally spaced half-circle angles average cos^2 to exactly 1/2
    assert np.allclose(lam, 0.5 * kappa**2 * np.eye(2), atol=1e-10)
    assert m.isotropic and m.lambda2 == lam[0, 0]


def test_anisotropic_field_has_no_scalar_lambda2():
    waves = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    m = SpectralGaussian2D(waves, np.array([0.5, 0.6, 0.3]))
    assert not m.isotropic
    with pytest.raises(DomainError, match="anisotropic"):
        m.lambda2
    # equal diagonal with a cross term is anisotropic too
    skew = SpectralGaussian2D(np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
                              np.array([0.5, 0.5, 0.5]))
    assert not skew.isotropic


# ---------------------------------------------------------------------------
# realizations: derivatives are exact
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(small_seeds, times)
def test_trig1d_derivatives_match_finite_differences(seed, t):
    r = sample_realization(SpectralGaussian1D.harmonics(10, seed=2), seed)
    assert r.derivative(t) == pytest.approx(
        central_diff(r.value, t), rel=1e-6, abs=1e-6)
    assert r.second_derivative(t) == pytest.approx(
        central_diff(r.derivative, t), rel=1e-6, abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(small_seeds, times, times)
def test_trig2d_gradient_and_hessian_match_finite_differences(seed, x, y):
    r = sample_realization(SpectralGaussian2D.isotropic_ring(6, 2.5), seed)
    p = np.array([[x, y]])
    g = r.gradient(p)[0]
    h = 1e-5
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        num = (r.value(p + e) - r.value(p - e)) / (2 * h)
        assert g[axis] == pytest.approx(float(num[0]), rel=1e-5, abs=1e-6)
    hess = r.hessian(p)[0]
    assert hess[0, 1] == pytest.approx(hess[1, 0], abs=1e-12)
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        num = (r.gradient(p + e) - r.gradient(p - e))[0] / (2 * h)
        assert np.allclose(hess[axis], num, rtol=1e-5, atol=1e-5)


def test_pointwise_variance_matches_lambda0():
    m = SpectralGaussian1D.harmonics(30, seed=6)
    vals = np.array([sample_realization(m, s).value(0.37) for s in range(4000)])
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean()) < 3 * se
    var = vals.var(ddof=1)
    var_se = var * np.sqrt(2.0 / (vals.size - 1))
    assert abs(var - m.lambda0) < 3 * var_se


@given(small_seeds)
def test_sampling_is_reproducible(seed):
    m = SpectralGaussian1D.harmonics(5, seed=1)
    a = sample_realization(m, seed)
    b = sample_realization(m, seed)
    assert np.array_equal(a.value(np.linspace(0, 1, 7)),
                          b.value(np.linspace(0, 1, 7)))


def test_batch_coefficients_bitwise_match_single_draws():
    m = SpectralGaussian1D.harmonics(7, seed=3)
    seeds = [11, 99, 2**40]
    rows = batch_coefficients(m, seeds)
    for row, s in zip(rows, seeds):
        r = sample_realization(m, s)
        assert np.array_equal(row[:7], r.coef_cos)
        assert np.array_equal(row[7:], r.coef_sin)


def test_trig_basis_evaluates_like_realizations():
    m = SpectralGaussian1D.harmonics(9, seed=5)
    ts = np.linspace(-2.0, 4.0, 63)
    r = sample_realization(m, 21)
    basis = trig_basis_1d(m, ts)
    coeffs = batch_coefficients(m, [21])
    assert np.allclose((coeffs @ basis)[0], r.value(ts), atol=1e-12)
    waves = m.frequencies[:, None]
    for partial, direct in (((0,), r.derivative), ((0, 0), r.second_derivative)):
        rows = _partial_rows(waves, r.coef_cos, r.coef_sin, (partial,))
        assert np.allclose((rows @ basis)[0], direct(ts), atol=1e-12)


def test_line_corpus_evaluates_like_realizations():
    m = SpectralGaussian1D.harmonics(9, seed=5)
    seeds = [21, 22, 23]
    corpus = LineCorpus(m, batch_coefficients(m, seeds))
    slopes = corpus.derivative_corpus()
    ts = np.linspace(-2.0, 4.0, 63)
    rows = np.arange(ts.size) % 3
    for r, s in enumerate(seeds):
        real = sample_realization(m, s)
        assert np.allclose(corpus.values(ts)[r], real.value(ts), atol=1e-12)
        assert np.allclose(slopes.values(ts)[r], real.derivative(ts), atol=1e-12)
        mine = rows == r
        assert np.allclose(corpus.value_at(rows, ts)[mine], real.value(ts[mine]), atol=1e-12)
        assert np.allclose(corpus.derivative_at(rows, ts)[mine], real.derivative(ts[mine]),
                           atol=1e-12)
        assert np.allclose(slopes.derivative_at(rows, ts)[mine],
                           real.second_derivative(ts[mine]), atol=1e-12)
    # value and slope from one table are the two separate evaluations, bit for bit
    value, slope = corpus.value_slope_at(rows, ts)
    assert value.tobytes() == corpus.value_at(rows, ts).tobytes()
    assert slope.tobytes() == corpus.derivative_at(rows, ts).tobytes()


def test_line_corpus_slope_rows_are_built_once_and_gathered_bitwise():
    # the slope rows of the whole corpus, built once, gathered by row: bit for
    # bit the rows and evaluations that turning the gathered coefficients gave
    m = SpectralGaussian1D.harmonics(9, seed=5)
    corpus = LineCorpus(m, batch_coefficients(m, [21, 22, 23, 24]))
    k = m.frequencies.size
    waves = m.frequencies[:, None]

    def turned(coefs):
        return _partial_rows(waves, coefs[:, :k], coefs[:, k:], ((0,),))[0]

    assert corpus._slopes is corpus._slopes
    assert corpus._slopes.tobytes() == turned(corpus.coefs).tobytes()
    slopes = corpus.derivative_corpus()
    assert slopes.coefs is corpus._slopes
    ts = np.linspace(-2.0, 4.0, 63)
    rows = (np.arange(ts.size) * 7) % 4
    table = trig_basis_1d(m, ts)
    for c in (corpus, slopes):
        value, slope = c.value_slope_at(rows, ts)
        assert value.tobytes() == np.einsum("nk,kn->n", c.coefs[rows], table).tobytes()
        want = np.einsum("nk,kn->n", turned(c.coefs[rows]), table)
        assert slope.tobytes() == want.tobytes()
        assert c.derivative_at(rows, ts).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# spectral sums against a plain per-wave loop
# ---------------------------------------------------------------------------


def _wave_sum(waves, coef_cos, coef_sin, pts, axes=()):
    """sum_k of the partial `axes` of c_k cos(w_k . t) + s_k sin(w_k . t), wave by wave."""
    total = np.zeros(pts.shape[0])
    for w, c, s in zip(waves, coef_cos, coef_sin):
        cos, sin = np.cos(pts @ w), np.sin(pts @ w)
        factor = np.prod([w[i] for i in axes])
        if len(axes) == 0:
            total += c * cos + s * sin
        elif len(axes) == 1:
            total += factor * (s * cos - c * sin)
        else:
            total += factor * (-c * cos - s * sin)
    return total


def _assert_rel_close(got, ref, rel=1e-12):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


def test_trig1d_matches_per_wave_loop():
    m = SpectralGaussian1D.harmonics(9, seed=5)
    ts = np.linspace(-7.0, 11.0, 501)
    pts = ts[:, None]
    w = m.frequencies[:, None]
    for seed in (2, 31):
        r = sample_realization(m, seed)
        _assert_rel_close(r.value(ts), _wave_sum(w, r.coef_cos, r.coef_sin, pts))
        _assert_rel_close(r.derivative(ts), _wave_sum(w, r.coef_cos, r.coef_sin, pts, (0,)))
        _assert_rel_close(r.second_derivative(ts),
                          _wave_sum(w, r.coef_cos, r.coef_sin, pts, (0, 0)))


def test_trig2d_matches_per_wave_loop():
    m = SpectralGaussian2D.isotropic_ring(7, 2.5)
    pts = np.random.default_rng(4).uniform(-6.0, 6.0, size=(300, 2))
    w = m.wavevectors
    for seed in (2, 31):
        r = sample_realization(m, seed)
        cc, cs = r.coef_cos, r.coef_sin
        _assert_rel_close(r.value(pts), _wave_sum(w, cc, cs, pts))
        grad = r.gradient(pts)
        hess = r.hessian(pts)
        for i in range(2):
            _assert_rel_close(grad[:, i], _wave_sum(w, cc, cs, pts, (i,)))
            for j in range(2):
                _assert_rel_close(hess[:, i, j], _wave_sum(w, cc, cs, pts, (i, j)))


def test_trig2d_lattice_matches_pointwise_eval():
    # non-square lattice: a swap of the two axes cannot pass
    m = SpectralGaussian2D.isotropic_ring(7, 2.5)
    axes = [np.linspace(-3.0, 5.0, 41), np.linspace(-1.0, 2.0, 17)]
    xx, yy = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    kmax = np.max(np.abs(m.wavevectors))
    for seed in (2, 31):
        r = sample_realization(m, seed)
        coef = np.sum(np.abs(r.coef_cos) + np.abs(r.coef_sin))
        for order, pointwise in enumerate((r.value, r.gradient, r.hessian)):
            ref = np.asarray(pointwise(pts)).reshape(r.lattice(axes, order).shape)
            assert ref.shape[:2] == (41, 17)
            err = np.max(np.abs(r.lattice(axes, order) - ref))
            assert err <= 1e-13 * coef * kmax**order
        g = sample_realization(GradientField(m), seed)
        assert np.array_equal(g.lattice(axes), r.lattice(axes, 1))
        assert np.array_equal(g.lattice(axes, 1), r.lattice(axes, 2))
    with pytest.raises(CapabilityError):
        r.lattice(axes, 3)
    with pytest.raises(CapabilityError):
        g.lattice(axes, 2)


def test_trig2d_lattices_of_one_model_share_axis_tables_bitwise():
    # the per-axis phase tables are kept on the model and read by each of
    # its fields: a lattice taken after other fields' lattices equals one
    # from a fresh copy of the model, bit for bit, at two grids; more axes
    # than the model keeps evict the oldest tables
    m = SpectralGaussian2D.isotropic_ring(7, 2.5)
    grids = [[np.linspace(-3.0, 5.0, 41), np.linspace(-1.0, 2.0, 17)],
             [np.linspace(0.0, 2.0, 64), np.linspace(0.0, 2.0, 64)]]
    grids += [[np.linspace(0.0, 1.0, n), np.linspace(-1.0, 0.0, n)] for n in (8, 9, 10)]
    for seed in (2, 31, 7):
        r = sample_realization(m, seed)
        for axes in grids[:2] + grids:
            for order in range(3):
                fresh = sample_realization(model_from_doc(model_to_doc(m)), seed)
                assert np.array_equal(r.lattice(axes, order), fresh.lattice(axes, order))
        assert 0 < len(m._axis_tables) <= fields._AXIS_TABLES
    assert model_to_doc(m) == model_to_doc(SpectralGaussian2D.isotropic_ring(7, 2.5))
    assert all(not t.flags.writeable for t in m._axis_tables.values())
    # ``out`` receives the lattice, which equals the one made afresh
    g = sample_realization(GradientField(m), 4)
    out = np.empty((2, 64, 64))
    got = g.lattice(grids[1], out=out)
    assert np.shares_memory(got, out) and np.array_equal(got, g.lattice(grids[1]))


def test_cached_rows_evaluate_like_fresh_rows(monkeypatch):
    # every evaluation reads the realization's cached rows; rows built afresh
    # for each call give the same bits, and each partial set is built once
    m2 = SpectralGaussian2D.isotropic_ring(7, 2.5)
    m1 = SpectralGaussian1D.harmonics(9, seed=5)
    pts = np.random.default_rng(4).uniform(-6.0, 6.0, size=(300, 2))
    ts = np.linspace(-7.0, 11.0, 501)
    axes = [np.linspace(-3.0, 5.0, 41), np.linspace(-1.0, 2.0, 17)]
    cases = []
    for seed in (2, 31):
        r2, r1 = sample_realization(m2, seed), sample_realization(m1, seed)
        cases += [(r2, (r2.value, r2.gradient, r2.hessian), pts),
                  (r1, (r1.value, r1.derivative, r1.second_derivative), ts)]
    built = []
    monkeypatch.setattr(fields, "_partial_rows",
                        lambda *a: built.append(a[-1]) or _partial_rows(*a))
    for r, methods, at in cases:
        first = [m(at) for m in methods] + [r.lattice(axes, o) for o in range(3) if r.D == 2]
        again = [m(at) for m in methods] + [r.lattice(axes, o) for o in range(3) if r.D == 2]
        r.__dict__["_rows"] = {}  # fresh rows for every call below
        fresh = []
        for m in methods:
            fresh.append(m(at))
            r.__dict__["_rows"] = {}
        for o in range(3 if r.D == 2 else 0):
            fresh.append(r.lattice(axes, o))
            r.__dict__["_rows"] = {}
        for a, b, c in zip(first, again, fresh):
            assert np.array_equal(a, b) and np.array_equal(a, c)
    # first use builds each set once (lattices reuse them; a 2D gradient and
    # Hessian share one set of both); then one build per fresh call: 2 + 6
    # per 2D, 3 + 3 per 1D
    assert len(built) == 2 * (2 + 6) + 2 * (3 + 3)
    r = sample_realization(m2, 7)
    r.hessian(pts)
    assert not r._rows[fields._HESSIAN].flags.writeable
    clone = pickle.loads(pickle.dumps(r))
    assert np.array_equal(clone.hessian(pts), r.hessian(pts))
    assert "_rows" not in repr(r)


def test_corpus_rows_match_per_wave_loop():
    base = SpectralGaussian1D.harmonics(7, seed=3)
    ts = np.linspace(0.0, 9.0, 257)
    pts = ts[:, None]
    w = base.frequencies[:, None]
    seeds = [5, 17, 2**40]
    for row, s in zip(_corpus_values(base, seeds, ts, _corpus_basis(base, ts)), seeds):
        r = sample_realization(base, s)
        _assert_rel_close(row, _wave_sum(w, r.coef_cos, r.coef_sin, pts))
    chi = ChiSquareField(n=3, base=base)
    for row, s in zip(_corpus_values(chi, seeds, ts, _corpus_basis(chi, ts)), seeds):
        comps = sample_realization(chi, s).components
        ref = sum(_wave_sum(w, c.coef_cos, c.coef_sin, pts) ** 2 for c in comps)
        _assert_rel_close(row, ref)


# ---------------------------------------------------------------------------
# derived fields
# ---------------------------------------------------------------------------


def test_gradient_field_realization_wires_through_the_scalar():
    base = SpectralGaussian2D.isotropic_ring(6, 3.0)
    grad = sample_realization(GradientField(base), 13)
    pts = np.array([[0.3, 0.4], [2.0, 1.0]])
    assert np.array_equal(grad.value(pts), grad.scalar.gradient(pts))
    assert np.array_equal(grad.jacobian(pts), grad.scalar.hessian(pts))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 257, 2049])
def test_gradient_field_fused_evaluation_equals_separate_calls(n):
    # one phase table for the gradient and Hessian rows gives the bits of
    # the two separate calls, for one point (a matrix-vector product) too
    base = SpectralGaussian2D(np.array([[3.0, 0.5], [0.7, 2.0], [-1.5, 2.5], [2.2, -1.0]]),
                              np.full(4, 0.5))
    grad = sample_realization(GradientField(base), n)
    pts = np.random.default_rng(n).random((n, 2)) * 4.0 - 1.0
    value, jac = grad.value_jacobian(pts)
    assert value.shape == (n, 2) and jac.shape == (n, 2, 2)
    assert np.array_equal(value, grad.value(pts))
    assert np.array_equal(jac, grad.jacobian(pts))


def test_chi_square_value_and_derivative_identities():
    base = SpectralGaussian1D.harmonics(6, seed=2)
    model = ChiSquareField(n=3, base=base)
    r = sample_realization(model, 17)
    ts = np.linspace(0.0, 3.0, 11)
    comp = r.component_values(ts)
    assert comp.shape == (3, 11)
    assert np.allclose(r.value(ts), np.sum(comp**2, axis=0), atol=1e-12)
    num = central_diff(r.value, 1.234)
    assert r.derivative(1.234) == pytest.approx(num, rel=1e-6)
    assert r.value(ts).min() >= 0.0


def test_shot_noise_realization_matches_direct_kernel_sum():
    model = ShotNoiseModel(intensity=1.5, eta=0.7, beta_low=0.5,
                           beta_high=2.0, domain=(0.0, 10.0))
    r = sample_realization(model, 5)
    ts = np.linspace(0.5, 9.5, 17)
    direct = np.array([
        float(np.sum(r.impulses * model.kernel(t - r.points))) for t in ts])
    assert np.allclose(r.value(ts), direct, atol=1e-12)
    assert r.derivative(3.3) == pytest.approx(central_diff(r.value, 3.3), rel=1e-5)
    with pytest.raises(DomainError):
        r.value(-0.5)


def test_shot_noise_kernel_is_compact_and_c1():
    model = ShotNoiseModel(intensity=1.0, eta=0.7, beta_low=0.5,
                           beta_high=2.0, domain=(0.0, 10.0))
    assert model.kernel(0.71) == 0.0
    assert model.kernel(-0.71) == 0.0
    assert model.kernel(0.0) > 0.0
    # C^1 at the support edge: derivative vanishes linearly
    assert abs(model.kernel_prime(0.7 - 1e-6)) < 1e-4
    xs = np.linspace(-0.69, 0.69, 41)
    num = (model.kernel(xs + 1e-6) - model.kernel(xs - 1e-6)) / 2e-6
    assert np.allclose(model.kernel_prime(xs), num, atol=1e-5)


def test_shot_noise_mean_obeys_campbell_formula():
    model = ShotNoiseModel(intensity=1.5, eta=0.7, beta_low=0.5,
                           beta_high=2.0, domain=(0.0, 10.0))
    expected = model.intensity * model.beta_mean * model.kernel_integral
    vals = np.array([sample_realization(model, s).value(5.0) for s in range(3000)])
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - expected) < 3 * se


# ---------------------------------------------------------------------------
# deflection fields
# ---------------------------------------------------------------------------


def _one_star_system():
    model = MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.5, n_stars=1, R=1.0)
    sys = sample_realization(model, 0)
    return type(sys)(kappa_c=2.0, gamma=0.0, m=0.5,
                     star_positions=np.zeros((1, 2)), R=1.0)


def test_deflection_worked_example():
    # kappa_c = 2, gamma = 0, one mass 1/2 at the origin: value at (1, 0)
    sys = _one_star_system()
    assert np.allclose(sys.value(np.array([1.0, 0.0])), [-2.0, 0.0], atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.3, 2.0), st.floats(0.0, 6.0), small_seeds)
def test_deflection_jacobian_matches_finite_differences(radius, angle, seed):
    model = MicrolensModel(kappa_c=2.0, gamma=0.1, m=0.2, n_stars=3, R=1.0)
    sys = sample_realization(model, seed)
    x = np.array([radius * np.cos(angle), radius * np.sin(angle)])
    if np.min(np.linalg.norm(sys.star_positions - x, axis=1)) < 1e-3:
        return  # too close to a mass for stable differencing
    jac = sys.jacobian(x)
    h = 1e-6
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        num = (sys.value(x + e) - sys.value(x - e)) / (2 * h)
        assert np.allclose(jac[:, axis], num, rtol=1e-5, atol=1e-5)


def test_jacobian_parity_is_negative_near_a_mass():
    sys = _one_star_system()
    # inside radius sqrt(2m/|c|) of the mass the determinant flips sign
    r_flip = np.sqrt(2 * sys.m / abs(sys.c))
    for frac in (0.3, 0.7, 0.95):
        j = sys.jacobian(np.array([frac * r_flip, 0.0]))
        assert np.linalg.det(j) < 0.0
    j = sys.jacobian(np.array([1.5 * r_flip, 0.0]))
    assert np.linalg.det(j) > 0.0


def test_deflection_singular_at_star_and_supercriticality():
    sys = _one_star_system()
    with pytest.raises(SingularityError):
        sys.value(np.zeros(2))


def test_zero_star_deflection_is_linear():
    model = MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.2, n_stars=0, R=1.0)
    sys = sample_realization(model, 9)
    x = np.array([0.4, -0.3])
    assert np.allclose(sys.value(x), sys.c * x, atol=1e-14)


def test_star_positions_stay_in_the_disk():
    model = MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.2, n_stars=40, R=1.5)
    sys = sample_realization(model, 3)
    assert sys.star_positions.shape == (40, 2)
    assert np.all(np.linalg.norm(sys.star_positions, axis=1) <= 1.5 + 1e-12)


@pytest.mark.parametrize("n_stars", [0, 1, 3, 10])
def test_batch_stars_bitwise_match_single_draws(n_stars):
    # one re-keyed generator must draw each field as a stream of its own
    # does, by the radius-then-angle rule of the star fields
    model = MicrolensModel(kappa_c=2.0, gamma=0.1, m=0.2, n_stars=n_stars, R=1.3)
    seeds = [0, 1, 7, 2**40, 2**64 - 1]
    fields_ = batch_stars(model, seeds)
    assert fields_.shape == (len(seeds), n_stars, 2)
    for stars, s in zip(fields_, seeds):
        assert stars.tobytes() == sample_realization(model, s).star_positions.tobytes()
        gen = stream(s, "stars")
        radii = model.R * np.sqrt(gen.random(n_stars))
        ang = 2.0 * np.pi * gen.random(n_stars)
        rule = np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])
        assert stars.tobytes() == rule.tobytes()
    assert batch_stars(model, []).shape == (0, n_stars, 2)


def test_deterministic_field_wraps_callables():
    f = DeterministicField(value_fn=lambda t: t**2, jacobian_fn=lambda t: 2 * t,
                           d=1, D=1)
    assert f.value(3.0) == 9.0
    assert f.derivative(3.0) == 6.0
    with pytest.raises(CapabilityError):
        f.hessian(0.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _all_models():
    base1 = SpectralGaussian1D.harmonics(4, seed=1)
    base2 = SpectralGaussian2D.isotropic_ring(5, 2.0)
    return [
        base1,
        base2,
        GradientField(base2),
        ChiSquareField(n=2, base=base1),
        ShotNoiseModel(intensity=1.5, eta=0.7, beta_low=0.5, beta_high=2.0,
                       domain=(0.0, 10.0)),
        MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.2, n_stars=3, R=1.0),
    ]


@pytest.mark.parametrize("model", _all_models(),
                         ids=lambda m: type(m).__name__)
def test_model_doc_round_trip(model):
    doc = model_to_doc(model)
    assert doc["schema_version"] == 1
    again = model_from_doc(doc)
    assert model_to_doc(again) == doc
    assert model_to_doc(model_from_json(model_to_json(model))) == doc


# the document format, pinned: key order of model_to_doc (nested base
# documents included) and sha256 of the model_to_json text, per _all_models()
_DOC_FORMAT = {
    "SpectralGaussian1D": (
        ["kind", "frequencies", "amplitudes", "schema_version"],
        "3900e559a056ac9d1de4cd7218354172b5e2203b75c93e0bfd2b46bb6c209f3e"),
    "SpectralGaussian2D": (
        ["kind", "wavevectors", "amplitudes", "schema_version"],
        "26449a0a0c628c644778f3665e574880b4e1aabdb09d90dd39b9f246929d689c"),
    "GradientField": (
        ["kind", ("base", ["kind", "wavevectors", "amplitudes", "schema_version"]),
         "schema_version"],
        "9c9072300972898367a809b14f98659514b31178b776ee65b6a371646b5cd3cc"),
    "ChiSquareField": (
        ["kind", "n", ("base", ["kind", "frequencies", "amplitudes", "schema_version"]),
         "schema_version"],
        "f5c888938d9c6372185cc449477fe6b992cec010e887d32851ed04816d33a3ae"),
    "ShotNoiseModel": (
        ["kind", "eta", "intensity", "domain", "beta_low", "beta_high", "schema_version"],
        "5ca6c61079b27e650a5ec75dd7773d01ad27981c68f029d63928fefdd9c9cc9d"),
    "MicrolensModel": (
        ["kind", "kappa_c", "gamma", "m", "n_stars", "R", "schema_version"],
        "0f81c69b2d48e45a91f30c621fb5e678b25d731bff6facb0b96f58de89a068d8"),
}


def _key_tree(doc: dict) -> list:
    return [(k, _key_tree(v)) if isinstance(v, dict) else k for k, v in doc.items()]


@pytest.mark.parametrize("model", _all_models(),
                         ids=lambda m: type(m).__name__)
def test_model_doc_format_is_pinned(model):
    keys, text_sha = _DOC_FORMAT[type(model).__name__]
    assert _key_tree(model_to_doc(model)) == keys
    assert hashlib.sha256(model_to_json(model).encode()).hexdigest() == text_sha


def test_model_doc_rejects_junk():
    with pytest.raises(ConfigurationError):
        model_from_doc({"kind": "nope", "schema_version": 1})
    with pytest.raises(ConfigurationError):
        model_from_doc({"kind": "spectral_gaussian_1d", "schema_version": 1,
                        "frequencies": [1.0], "amplitudes": [1.0],
                        "surprise": True})
    with pytest.raises(ConfigurationError):
        model_from_doc({"kind": "spectral_gaussian_1d", "schema_version": 99,
                        "frequencies": [1.0], "amplitudes": [1.0]})


def test_sampled_realizations_round_trip_through_docs():
    for model in _all_models():
        again = model_from_doc(model_to_doc(model))
        a = sample_realization(model, 77)
        b = sample_realization(again, 77)
        if isinstance(model, MicrolensModel):
            assert np.array_equal(a.star_positions, b.star_positions)
        else:
            t = (np.array([[0.3, 0.4]]) if model.D == 2
                 else np.linspace(0.8, 2.0, 5))
            assert np.array_equal(np.asarray(a.value(t)), np.asarray(b.value(t)))
