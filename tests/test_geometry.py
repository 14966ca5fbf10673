import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricelab import geometry
from ricelab.errors import ConfigurationError
from ricelab.geometry import (
    Polyline,
    crofton_constant,
    crofton_identity_mc,
    favard_measure,
    gaussian_det_expectation,
    mean_normal_jacobian_mc,
    normal_jacobian,
    sample_haar_grassmann,
)
from ricelab.levelsets import LevelCurve
from ricelab.rng import mean_se, stream

finite = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


def _matrix(d, D, seed):
    return stream(seed, "test-matrix").standard_normal((d, D))


# ---------------------------------------------------------------------------
# normal Jacobian
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 2),
                                               (2, 3), (3, 3)]))
def test_normal_jacobian_matches_singular_values(seed, shape):
    d, D = shape
    M = _matrix(d, D, seed)
    sv = np.linalg.svd(M, compute_uv=False)
    assert normal_jacobian(M) == pytest.approx(float(np.prod(sv)), rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.1, 5.0))
def test_normal_jacobian_is_homogeneous(seed, scale):
    M = _matrix(2, 3, seed)
    assert normal_jacobian(scale * M) == pytest.approx(
        scale**2 * normal_jacobian(M), rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_normal_jacobian_is_rotation_invariant(seed_m, seed_q):
    M = _matrix(2, 3, seed_m)
    A = stream(seed_q, "test-rotation").standard_normal((3, 3))
    Q, _ = np.linalg.qr(A)
    assert normal_jacobian(M @ Q) == pytest.approx(normal_jacobian(M), rel=1e-9)
    # left multiplication by a 2x2 rotation also preserves it
    R = stream(seed_q, "test-rotation-left").standard_normal((2, 2))
    Q2, _ = np.linalg.qr(R)
    assert normal_jacobian(Q2 @ M) == pytest.approx(normal_jacobian(M), rel=1e-9)


def test_normal_jacobian_square_case_is_absolute_determinant():
    M = np.array([[2.0, 1.0], [0.5, -3.0]])
    assert normal_jacobian(M) == pytest.approx(abs(np.linalg.det(M)), rel=1e-12)
    assert normal_jacobian(np.zeros((1, 3))) == 0.0


# ---------------------------------------------------------------------------
# Gaussian determinant constants
# ---------------------------------------------------------------------------


def test_gaussian_det_expectation_reference_values():
    assert gaussian_det_expectation(1, 1) == pytest.approx(
        math.sqrt(2.0 / math.pi), abs=1e-14)
    assert gaussian_det_expectation(2, 1) == pytest.approx(
        math.sqrt(math.pi / 2.0), abs=1e-14)
    assert gaussian_det_expectation(3, 3) == pytest.approx(
        2.0**1.5 / math.sqrt(math.pi), abs=1e-14)
    assert gaussian_det_expectation(2, 2) == pytest.approx(1.0, abs=1e-14)
    assert gaussian_det_expectation(3, 2) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("D,d", [(2, 1), (2, 2), (3, 2), (4, 2)])
def test_gaussian_det_expectation_against_monte_carlo(D, d):
    est, se = mean_normal_jacobian_mc(D, d, 200_000, seed=31)
    assert abs(est - gaussian_det_expectation(D, d)) < 4 * se


# ---------------------------------------------------------------------------
# projection constants
# ---------------------------------------------------------------------------


def test_crofton_constant_reference_values():
    assert crofton_constant(2, 1) == pytest.approx(math.pi / 2.0, abs=1e-14)
    assert crofton_constant(3, 1) == pytest.approx(2.0, abs=1e-14)
    assert crofton_constant(3, 2) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(ConfigurationError):
        crofton_constant(2, 2)


def test_crofton_constant_symmetry():
    # Gamma form is symmetric under m -> D - m
    for D in (3, 4, 5, 6):
        for m in range(1, D):
            assert crofton_constant(D, m) == pytest.approx(
                crofton_constant(D, D - m), rel=1e-12)


@pytest.mark.parametrize("shape,seed", [((1, 2), 0), ((1, 3), 1), ((2, 3), 2)])
def test_crofton_identity_monte_carlo(shape, seed):
    d, D = shape
    M = _matrix(d, D, seed)
    est, se = crofton_identity_mc(M, 120_000, seed=seed + 10)
    assert abs(est - normal_jacobian(M)) < 4 * se


# ---------------------------------------------------------------------------
# Haar subspaces
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([(2, 1), (3, 1), (3, 2), (4, 2)]))
def test_haar_sample_is_orthonormal(seed, dims):
    D, d = dims
    V = sample_haar_grassmann(D, d, seed)
    B = V.basis
    assert B.shape == (D, d)
    assert np.allclose(B.T @ B, np.eye(d), atol=1e-12)


def test_haar_projector_mean_is_isotropic():
    # E[B B^T] = (d / D) I characterizes the invariant distribution
    D, d, n = 3, 2, 4000
    acc = np.zeros((D, D))
    for i in range(n):
        B = sample_haar_grassmann(D, d, i).basis
        acc += B @ B.T
    acc /= n
    assert np.allclose(acc, (d / D) * np.eye(D), atol=0.03)


def test_haar_directions_have_uniform_angles():
    # D=2, d=1: column angle doubled mod 2 pi should be uniform on the circle
    n = 4000
    ang = np.array([
        math.atan2(*sample_haar_grassmann(2, 1, i).basis[::-1, 0]) for i in range(n)])
    z = np.exp(2j * ang)
    assert abs(z.mean()) < 4.0 / math.sqrt(n)


# ---------------------------------------------------------------------------
# length by random lines
# ---------------------------------------------------------------------------


def test_favard_segment_and_square():
    seg = Polyline([np.array([[0.0, 0.0], [1.0, 0.0]])])
    est, se = favard_measure(seg, 200_000, seed=5)
    assert est == pytest.approx(1.0, rel=0.01)
    square = Polyline([np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)])
    est, se = favard_measure(square, 200_000, seed=6)
    assert est == pytest.approx(4.0, rel=0.01)
    assert abs(est - 4.0) < 4 * se


def test_favard_counts_per_segment_so_chains_equal_loose_edges():
    corners = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    square = Polyline([corners])
    edges = Polyline([corners[i:i + 2] for i in range(4)])
    assert np.array_equal(square.segments, edges.segments)
    assert square.segments.shape == (4, 2, 2)
    assert favard_measure(square, 20_000, seed=9) == favard_measure(edges, 20_000, seed=9)
    curve = LevelCurve(edges.segments, 0.0, 1.0)
    assert favard_measure(curve, 20_000, seed=9) == favard_measure(square, 20_000, seed=9)


def test_favard_rejects_shapes_without_segments():
    with pytest.raises(ConfigurationError):
        favard_measure(np.zeros((3, 2)), 1000, seed=0)


def test_favard_handles_multiple_components():
    two = Polyline([np.array([[0.0, 0.0], [1.0, 0.0]]),
                    np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 2.0]])])
    assert two.length == pytest.approx(3.0, abs=1e-12)
    est, _se = favard_measure(two, 100_000, seed=7)
    assert est == pytest.approx(3.0, rel=0.02)


def test_favard_empty_curve_is_zero():
    empty = Polyline([np.array([[0.3, 0.4]])])  # single vertex, no segments
    assert empty.length == 0.0
    est, se = favard_measure(empty, 1000, seed=8)
    assert est == 0.0 and se == 0.0


def test_favard_rejects_too_few_lines():
    seg = Polyline([np.array([[0.0, 0.0], [1.0, 0.0]])])
    with pytest.raises(ConfigurationError):
        favard_measure(seg, 10, seed=0)


def _dense_favard(shape, n_lines, seed):
    """``favard_measure`` with one projection product over each whole chunk of lines.

    The draws are the same chunk by chunk; only the tiling of the counts
    differs, so the two must agree exactly.
    """
    segments = np.asarray(shape.segments, dtype=float)
    S = segments.shape[0]
    ends = np.concatenate([segments[:, 0], segments[:, 1]])
    lo_c, hi_c = ends.min(axis=0), ends.max(axis=0)
    corners = np.array([[lo_c[0], lo_c[1]], [lo_c[0], hi_c[1]],
                        [hi_c[0], lo_c[1]], [hi_c[0], hi_c[1]]])
    rng = stream(seed, "favard-lines")
    estimates = np.empty(n_lines)
    chunk = geometry._chunk_lines(2 * S)
    for lo in range(0, n_lines, chunk):
        hi = min(lo + chunk, n_lines)
        normals = rng.standard_normal((hi - lo, 2))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        proj_corners = corners @ normals.T
        wlo, whi = proj_corners.min(axis=0), proj_corners.max(axis=0)
        window = whi - wlo
        y = wlo + window * rng.random(hi - lo)
        neg = ends @ normals.T < y
        crossings = np.count_nonzero(neg[:S] != neg[S:], axis=0)
        estimates[lo:hi] = geometry._crofton_c(2, 1) * window * crossings
    return mean_se(estimates)


def _walk(n_segments, seed):
    return Polyline([np.cumsum(stream(seed, "test-walk").standard_normal((n_segments + 1, 2)),
                               axis=0)])


@pytest.mark.parametrize("n_segments", [1, 2, 63, 64, 65, 511, 512, 513, 1024, 1025, 3000])
def test_favard_tiles_equal_dense_chunk_products(n_segments):
    # the tile is 2^17 / 2S lines in multiples of 64: 65,536 lines at S = 1,
    # 1,024 at S = 64, 64 from S = 1,024 on; the line counts below end chunks
    # off the tile grid, one line past it, and (from S = 63 on) in a second chunk
    shape = _walk(n_segments, n_segments)
    chunk = geometry._chunk_lines(2 * n_segments)
    tile = geometry._tile_lines(2 * n_segments)
    counts = {1000, 1001, 4 * tile + 1, 3 * tile + 37, chunk + 129, chunk + 2 * tile + 1}
    for n_lines in sorted(n for n in counts if 1000 <= n <= 200_000):
        assert favard_measure(shape, n_lines, 3) == _dense_favard(shape, n_lines, 3)


def test_favard_tiles_equal_dense_chunk_products_on_level_curves():
    from ricelab.fields import SpectralGaussian2D, sample_realization
    from ricelab.levelsets import nodal_length

    model = SpectralGaussian2D.isotropic_ring(6, 3.0)
    for seed in range(6):
        curve = nodal_length(sample_realization(model, seed), [(0, 1), (0, 1)], 0.0, grid=256)
        for n_lines in (1000, 20_011):
            assert favard_measure(curve, n_lines, seed) == _dense_favard(curve, n_lines, seed)


def test_favard_tiles_split_a_chunk_and_keep_a_lone_last_line():
    tiles = list(geometry._tiles(257, 128))
    assert tiles == [(0, 128), (128, 257)]
    assert list(geometry._tiles(1, 64)) == [(0, 1)]
    assert list(geometry._tiles(200, 64)) == [(0, 64), (64, 128), (128, 192), (192, 200)]
    for n_points in (2, 128, 2048, 2050, 10**6):
        tile = geometry._tile_lines(n_points)
        assert tile % 64 == 0
        assert tile == 64 or n_points * tile * 8 <= 2**20


def test_favard_memory_stays_in_tiles():
    # the a03 circle: 1,024 segments; one whole-chunk product of 3,906 lines
    # and its comparisons took about 78 MB
    theta = np.linspace(0.0, 2.0 * math.pi, 1025)
    circle = Polyline([np.column_stack([np.cos(theta), np.sin(theta)])])
    tracemalloc.start()
    try:
        favard_measure(circle, 10**5, seed=13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
