import json
import math

import numpy as np
import pytest

from ricelab import fields, levelsets
from ricelab.errors import CapabilityError, ConfigurationError
from ricelab.fields import (
    DeterministicField,
    GradientField,
    LineCorpus,
    MicrolensModel,
    SpectralGaussian1D,
    SpectralGaussian2D,
    batch_coefficients,
    sample_realization,
    trig_basis_1d,
)
from ricelab.levelsets import (
    count_roots_1d,
    count_roots_2d,
    irregularity_scan,
    lens_images,
    local_time,
    nodal_length,
    sample_grid,
)
from ricelab.rng import fanout_seed

TWO_PI = 2.0 * math.pi


def _sine():
    return DeterministicField(
        value_fn=lambda t: np.sin(TWO_PI * np.asarray(t, float)),
        jacobian_fn=lambda t: TWO_PI * np.cos(TWO_PI * np.asarray(t, float)),
        d=1,
        D=1,
    )


def _paraboloid():
    # scalar field x^2 + y^2; level u traces a circle of radius sqrt(u)
    def val(pts):
        p = np.atleast_2d(pts)
        return p[:, 0] ** 2 + p[:, 1] ** 2

    def jac(pts):
        return 2.0 * np.atleast_2d(pts)

    return DeterministicField(value_fn=val, jacobian_fn=jac, d=1, D=2)


def _cone_difference():
    # x^2 - y^2 has a tangential zero at the origin (gradient vanishes there)
    def val(pts):
        p = np.atleast_2d(pts)
        return p[:, 0] ** 2 - p[:, 1] ** 2

    def jac(pts):
        p = np.atleast_2d(pts)
        return np.column_stack([2.0 * p[:, 0], -2.0 * p[:, 1]])

    return DeterministicField(value_fn=val, jacobian_fn=jac, d=1, D=2)


# ---------------------------------------------------------------------------
# 1D root counting
# ---------------------------------------------------------------------------


def test_roots_1d_sine_known_locations():
    rs = count_roots_1d(_sine(), (0.1, 1.1), 0.0)
    assert rs.count == 2
    assert np.allclose(np.sort(rs.points.ravel()), [0.5, 1.0], atol=1e-9)
    assert np.allclose(rs.deltas, TWO_PI, atol=1e-7)
    assert np.all(rs.residuals <= 1e-10)


def test_roots_1d_nonzero_level():
    # sin(2 pi t) = 0.5 at t = 1/12 and 5/12 within one rising arch
    rs = count_roots_1d(_sine(), (0.0, 0.5), 0.5)
    assert rs.count == 2
    assert np.allclose(np.sort(rs.points.ravel()), [1.0 / 12.0, 5.0 / 12.0], atol=1e-9)


def test_roots_1d_excludes_endpoint_roots():
    # roots sit exactly on both endpoints; the open interval holds only t=1/2
    rs = count_roots_1d(_sine(), (0.0, 1.0), 0.0)
    assert rs.count == 1
    assert rs.points.ravel()[0] == pytest.approx(0.5, abs=1e-9)


def test_roots_1d_count_scales_with_interval():
    assert count_roots_1d(_sine(), (0.1, 2.1), 0.0).count == 4
    assert count_roots_1d(_sine(), (0.1, 3.1), 0.0).count == 6


def test_roots_1d_empty_when_level_unreached():
    rs = count_roots_1d(_sine(), (0.1, 1.1), 3.0)
    assert rs.count == 0 and len(rs) == 0


def test_roots_1d_field_calls_bounded_by_iterations_not_roots():
    calls = []

    def val(t):
        calls.append("value")
        return np.sin(TWO_PI * np.asarray(t, float))

    def jac(t):
        calls.append("derivative")
        return TWO_PI * np.cos(TWO_PI * np.asarray(t, float))

    f = DeterministicField(value_fn=val, jacobian_fn=jac, d=1, D=1)
    rs = count_roots_1d(f, (0.01, 25.01), 0.0)
    assert rs.count == 50
    assert np.allclose(rs.points.ravel(), 0.5 * np.arange(1, 51), atol=1e-9)
    # one grid call, at most 8 refinement steps of two calls (value and slope),
    # 2 final calls
    assert len(calls) <= 1 + 2 * 8 + 2


# ---------------------------------------------------------------------------
# planar root counting
# ---------------------------------------------------------------------------


def _circle_line_system():
    # (x^2 + y^2 - 1, x - y) = 0 exactly at +/- (1, 1)/sqrt(2)
    def val(pts):
        p = np.atleast_2d(pts)
        return np.column_stack([p[:, 0] ** 2 + p[:, 1] ** 2 - 1.0, p[:, 0] - p[:, 1]])

    def jac(pts):
        p = np.atleast_2d(pts)
        n = p.shape[0]
        J = np.zeros((n, 2, 2))
        J[:, 0, 0] = 2.0 * p[:, 0]
        J[:, 0, 1] = 2.0 * p[:, 1]
        J[:, 1, 0] = 1.0
        J[:, 1, 1] = -1.0
        return J

    return DeterministicField(value_fn=val, jacobian_fn=jac, d=2, D=2)


def test_roots_2d_circle_line_intersection():
    rs = count_roots_2d(_circle_line_system(), [(-2, 2), (-2, 2)], (0.0, 0.0), grid=64)
    assert rs.count == 2
    r = 1.0 / math.sqrt(2.0)
    found = rs.points[np.argsort(rs.points[:, 0])]
    assert np.allclose(found, [[-r, -r], [r, r]], atol=1e-8)
    # Delta = |det J| = |-2x - 2y| = 4r at both intersections
    assert np.allclose(rs.deltas, 4.0 * r, atol=1e-6)


def test_roots_2d_affine_system_single_root():
    A = np.array([[1.0, 0.3], [-0.2, 1.0]])
    target = np.array([0.3, -0.4])

    def val(pts):
        return np.atleast_2d(pts) @ A.T

    def jac(pts):
        n = np.atleast_2d(pts).shape[0]
        return np.broadcast_to(A, (n, 2, 2)).copy()

    f = DeterministicField(value_fn=val, jacobian_fn=jac, d=2, D=2)
    rs = count_roots_2d(f, [(-1, 1), (-1, 1)], A @ target, grid=32)
    assert rs.count == 1
    assert np.allclose(rs.points[0], target, atol=1e-9)
    assert rs.deltas[0] == pytest.approx(abs(np.linalg.det(A)), abs=1e-9)


def test_roots_2d_requires_planar_system():
    with pytest.raises(CapabilityError):
        count_roots_2d(_paraboloid(), [(-1, 1), (-1, 1)], (0.0, 0.0))


def test_roots_2d_starless_lens_has_single_image():
    # regression: an empty singular-point list must not break seeding
    model = MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.2, n_stars=0, R=1.0)
    r = sample_realization(model, seed=3)
    y = np.array([0.25, 0.1])
    rs = count_roots_2d(r, [(-1, 1), (-1, 1)], y, grid=64)
    assert rs.count == 1
    assert np.allclose(rs.points[0], -y, atol=1e-9)


def _stars(model, seeds):
    return np.array([sample_realization(model, s).star_positions for s in seeds])


def test_lens_images_starless_single_image_at_y_over_c():
    model = MicrolensModel(kappa_c=0.5, gamma=0.1, m=0.2, n_stars=0, R=1.0)
    y = np.array([0.25, 0.1])
    images, certified = lens_images(_stars(model, range(4)), y, model.c, model.m)
    assert certified.all()
    assert images.rows.tolist() == [0, 1, 2, 3]
    assert np.allclose(images.points, y / 0.6, rtol=0, atol=1e-12)
    assert np.allclose(images.signed, 0.36)


@pytest.mark.parametrize("n_stars", [1, 2, 3])
def test_lens_images_at_vanishing_linear_term_match_grid_roots(n_stars):
    # c = 1 - kappa_c + gamma = 0: conj(y) P + 2m P' has degree N, and every
    # root is an image with det J < 0; each image lies within
    # max|xi| + 2mN/|y| of the origin, inside the box
    model = MicrolensModel(kappa_c=1.0, gamma=0.0, m=0.2, n_stars=n_stars, R=1.0)
    y = np.array([0.25, 0.1])
    images, certified = lens_images(_stars(model, range(4)), y, model.c, model.m)
    assert certified.all()
    assert np.bincount(images.rows, minlength=4).tolist() == [n_stars] * 4
    assert np.all(images.signed < 0)
    h = 1.5 + 2.0 * model.m * n_stars / np.hypot(*y)
    for i in range(4):
        grid = count_roots_2d(sample_realization(model, i), [(-h, h), (-h, h)], y, grid=128)
        assert grid.count == n_stars
        assert np.allclose(np.sort_complex(grid.points @ [1, 1j]),
                           np.sort_complex(images.points[images.rows == i] @ [1, 1j]),
                           atol=1e-9)


def test_lens_images_residuals_and_parity_on_every_certified_field():
    model = MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.2, n_stars=3, R=1.0)
    systems = [sample_realization(model, s) for s in range(20)]
    y = np.array([0.25, 0.1])
    images, certified = lens_images(_stars(model, range(20)), y, model.c, model.m)
    assert certified.all()
    for i, system in enumerate(systems):
        mine = images.rows == i
        pts = images.points[mine]
        assert np.all(np.linalg.norm(system.value(pts) - y, axis=1) <= 1e-9)
        assert np.allclose(images.signed[mine], np.linalg.det(system.jacobian(pts)))
        assert np.sum(np.sign(images.signed[mine])) == 1 - 3


def test_lens_images_blocks_do_not_change_the_images(monkeypatch):
    model = MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.2, n_stars=3, R=1.0)
    stars, y = _stars(model, range(7)), [0.25, 0.1]
    whole, whole_ok = lens_images(stars, y, model.c, model.m)
    monkeypatch.setattr(levelsets, "_IMAGE_BLOCK", 3 * 10 ** 2)  # 3 fields a block
    split, split_ok = lens_images(stars, y, model.c, model.m)
    assert np.array_equal(whole_ok, split_ok)
    assert np.array_equal(whole.rows, split.rows)
    assert np.array_equal(whole.points, split.points)


def test_many_star_values_in_blocks_are_bitwise_unchanged(monkeypatch):
    # the grid counter's lattice against every star at once once peaked at
    # 449 MB for 40 stars at grid 512; blocks must not move a bit
    model = MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.2, n_stars=40, R=1.0)
    real = sample_realization(model, 7)
    ax = np.linspace(-1.0, 1.0, 33)
    pts = levelsets._lattice_points([ax, ax])
    pts[5] = real.star_positions[3]  # a node on a star is moved off it
    moved = levelsets._near(pts, real.star_positions, 1e-20)
    assert moved.sum() == 1
    whole = real.value(np.where(moved[:, None], pts + 1e-9, pts))
    box, y = [(-2.0, 2.0), (-2.0, 2.0)], np.array([0.25, 0.1])
    roots = count_roots_2d(real, box, y, grid=48)
    monkeypatch.setattr(fields, "_CHUNK_BUDGET", 80 * 7)  # 7 points a block
    sizes, value = [], fields.MicrolensSystem.value

    def counted(self, x):
        sizes.append(np.atleast_2d(x).shape[0])
        return value(self, x)

    monkeypatch.setattr(fields.MicrolensSystem, "value", counted)
    assert levelsets._values_off_singular(real, pts).tobytes() == whole.tobytes()
    assert max(sizes) == 7 and sum(sizes) == pts.shape[0]
    split = count_roots_2d(real, box, y, grid=48)
    assert roots.count > 0
    assert split.points.tobytes() == roots.points.tobytes()
    assert split.signed.tobytes() == roots.signed.tobytes()
    assert split.degree == roots.degree


def test_drop_copies_compares_kept_roots_of_one_field():
    z = np.array([[1.0, 1.0 + 1e-9, 5.0, 1.0], [1.0 + 1e-9, 2.0, 1.0, np.nan]], dtype=complex)
    keep = np.array([[False, True, True, True], [True, True, True, False]])
    levelsets._drop_copies(z, keep)
    assert keep.tolist() == [[False, True, True, False], [True, True, False, False]]


def _reference_count_roots_2d(realization, box, u, grid, newton_iters=30, tol=1e-9):
    """Exhaustive finder: Newton from every cell centre, all iterations, greedy dedup."""
    b = np.asarray(box, dtype=float)
    u = np.asarray(u, dtype=float)
    ax = [np.linspace(lo, hi, grid) for lo, hi in b]
    h = float(max(b[:, 1] - b[:, 0]) / (grid - 1))
    cx, cy = np.meshgrid(0.5 * (ax[0][:-1] + ax[0][1:]), 0.5 * (ax[1][:-1] + ax[1][1:]),
                         indexing="ij")
    P = np.column_stack([cx.ravel(), cy.ravel()])
    singular = getattr(realization, "star_positions", np.zeros((0, 2)))
    span = np.max(b[:, 1] - b[:, 0])
    active = np.ones(P.shape[0], dtype=bool)
    for _ in range(newton_iters):
        idx = np.nonzero(active)[0]
        if singular.shape[0]:
            d2 = np.min(np.sum((P[idx, None, :] - singular[None]) ** 2, axis=-1), axis=1)
            active[idx[d2 < 1e-16]] = False
            idx = idx[d2 >= 1e-16]
        if idx.size == 0:
            break
        F = np.atleast_2d(realization.value(P[idx])) - u
        J = np.asarray(realization.jacobian(P[idx])).reshape(-1, 2, 2)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.column_stack([F[:, 0] * J[:, 1, 1] - F[:, 1] * J[:, 0, 1],
                                    F[:, 1] * J[:, 0, 0] - F[:, 0] * J[:, 1, 0]]) / det[:, None]
        bad = ~np.all(np.isfinite(step), axis=1)
        norm = np.linalg.norm(step, axis=1)
        big = norm > 4.0 * h
        step[big] *= (4.0 * h / norm[big])[:, None]
        P[idx] -= step
        active[idx[bad]] = False
        out = np.any((P[idx] < b[:, 0] - span) | (P[idx] > b[:, 1] + span), axis=1)
        active[idx[out]] = False
    P = P[np.all((P > b[:, 0]) & (P < b[:, 1]), axis=1)]
    res = np.linalg.norm(np.atleast_2d(realization.value(P)) - u, axis=1)
    P = P[res <= tol]
    kept = []
    for p in P[np.lexsort((P[:, 1], P[:, 0]))]:
        if all(np.hypot(*(p - q)) >= 0.5 * h for q in kept):
            kept.append(p)
    return np.asarray(kept).reshape(-1, 2)


def _ring_gradient(seed):
    model = GradientField(SpectralGaussian2D.isotropic_ring(6, 3.0))
    return sample_realization(model, seed)


def _three_star_lens(seed):
    return sample_realization(
        MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.2, n_stars=3, R=1.0), seed)


@pytest.mark.parametrize("make, box, u, grid", [
    (_ring_gradient, [(0.0, 2.0), (0.0, 2.0)], (0.0, 0.0), 128),
    (_three_star_lens, [(-1.5, 1.5), (-1.5, 1.5)], (0.25, 0.1), 64),
], ids=["ring-gradient-128", "three-star-lens-64"])
def test_roots_2d_match_exhaustive_newton(make, box, u, grid):
    # seeding only bracketing cells and local minima of |X - u|, and retiring
    # seeds early, finds what Newton from every cell finds
    for seed in range(1000, 1020):
        real = make(seed)
        ref = _reference_count_roots_2d(real, box, u, grid)
        rs = count_roots_2d(real, box, u, grid=grid)
        assert rs.count == ref.shape[0], seed
        assert np.max(np.abs(rs.points - ref), initial=0.0) <= 1e-9, seed


@pytest.mark.parametrize("make, box, u", [
    (_ring_gradient, [(0.0, 2.0), (0.0, 2.0)], (0.0, 0.0)),
    (_three_star_lens, [(-1.5, 1.5), (-1.5, 1.5)], (0.25, 0.1)),
], ids=["ring-gradient", "three-star-lens"])
def test_roots_2d_signed_determinant_matches_jacobian(make, box, u):
    n_roots = 0
    for seed in range(1000, 1005):
        real = make(seed)
        rs = count_roots_2d(real, box, u, grid=64)
        J = np.asarray(real.jacobian(rs.points)).reshape(-1, 2, 2)
        assert np.array_equal(np.sign(rs.signed), np.sign(np.linalg.det(J)))
        assert np.array_equal(rs.deltas, np.abs(rs.signed))
        n_roots += rs.count
    assert n_roots > 0


def test_roots_1d_signed_derivative_matches_jacobian():
    model = SpectralGaussian1D(frequencies=np.array([1.0, 2.5]),
                               amplitudes=np.array([0.6, 0.8]))
    real = sample_realization(model, 7)
    rs = count_roots_1d(real, (0.0, 30.0), 0.3)
    assert rs.count > 4
    slope = np.asarray(real.jacobian(rs.points.ravel()), dtype=float)
    assert np.array_equal(np.sign(rs.signed), np.sign(slope))
    assert np.array_equal(rs.deltas, np.abs(rs.signed))
    # up- and down-crossings of a level alternate along the line
    assert np.all(rs.signed[1:] * rs.signed[:-1] < 0.0)


@pytest.mark.parametrize("derivative", [False, True], ids=["values", "slopes"])
def test_roots_1d_corpus_matches_one_row_calls(derivative):
    # one call over a corpus gives, row by row, the roots of the one-row call
    model = SpectralGaussian1D.harmonics(20, seed=4)
    seeds = [11 + 7 * i for i in range(10)]
    corpus = LineCorpus(model, batch_coefficients(model, seeds))
    if derivative:
        corpus = corpus.derivative_corpus()
    batched = count_roots_1d(corpus, (0.0, 6.0), 0.2, grid=512)
    assert batched.rows.shape == (batched.count,)
    for r, s in enumerate(seeds):
        real = sample_realization(model, s)
        if derivative:
            real = DeterministicField(value_fn=real.derivative,
                                      jacobian_fn=real.second_derivative, d=1, D=1)
        one = count_roots_1d(real, (0.0, 6.0), 0.2, grid=512)
        mine = batched.rows == r
        assert np.all(one.rows == 0)
        assert np.count_nonzero(mine) == one.count > 0
        assert np.array_equal(np.sign(batched.signed[mine]), np.sign(one.signed))
        assert np.allclose(batched.points[mine], one.points, rtol=0.0, atol=1e-12)
        assert np.all(batched.residuals[mine] <= 1e-10)


def test_roots_1d_corpus_builds_one_trig_table_per_step(monkeypatch):
    # a 34-row chunk of the gauss1d-peaks derivative corpus: the grid values,
    # one table per refinement step (value and slope together; Newton takes
    # 4 steps here), and the two final evaluations.  40 bisection steps and a
    # two-table Newton polish made 42; two tables per step would make 11
    model = SpectralGaussian1D.harmonics(50, seed=7)
    tables = []

    def counting(model, ts):
        tables.append(np.size(ts))
        return trig_basis_1d(model, ts)

    monkeypatch.setattr(fields, "trig_basis_1d", counting)
    seeds = [fanout_seed(1, "gauss1d-peaks", i) for i in range(34)]
    corpus = LineCorpus(model, batch_coefficients(model, seeds)).derivative_corpus()
    rs = count_roots_1d(corpus, (0.0, 6.0), 0.0, grid=1024)
    assert rs.count > 100
    assert np.all(rs.residuals <= 1e-10)
    assert len(tables) <= 9


def test_roots_1d_flat_midpoint_falls_back_to_bisection():
    # X(t) = (t - 1/2)^3 - 1e-3 on one grid step [0, 1]: the slope is 0 at the
    # midpoint, so the first Newton step leaves the bracket and is replaced
    # by bisection of [1/2, 1]; Newton then steps from 3/4 to 0.672 and
    # converges to the root at 0.6
    seen = []

    def val(t):
        t = np.asarray(t, dtype=float)
        seen.append(t.copy())
        return (t - 0.5) ** 3 - 1e-3

    def jac(t):
        return 3.0 * (np.asarray(t, dtype=float) - 0.5) ** 2

    f = DeterministicField(value_fn=val, jacobian_fn=jac, d=1, D=1)
    rs = count_roots_1d(f, (0.0, 1.0), 0.0, grid=2)
    assert [float(x[0]) for x in seen[1:4]] == pytest.approx([0.5, 0.75, 0.672], abs=1e-15)
    assert len(seen) <= 12
    assert rs.count == 1
    assert rs.points[0, 0] == pytest.approx(0.6, abs=1e-12)
    assert rs.residuals[0] <= 1e-10
    assert rs.signed[0] == pytest.approx(0.03, rel=1e-9)


class _CountingRealization:
    """Forwards to a planar realization and records the points of each pointwise call."""

    d = 2
    D = 2

    def __init__(self, real):
        self.real = real
        self.value_points = []

    def lattice(self, axes, order=0):
        return self.real.lattice(axes, order)

    def value(self, pts):
        self.value_points.append(np.atleast_2d(pts).shape[0])
        return self.real.value(pts)

    def jacobian(self, pts):
        return self.real.jacobian(pts)


def test_roots_2d_newton_work_bounded_by_roots_not_lattice():
    # 128^2 lattice, about 3 critical points: the first Newton step sees
    # every seed, and there are tens, not one per few cells
    for seed in (1000, 1001, 1002):
        counting = _CountingRealization(_ring_gradient(seed))
        rs = count_roots_2d(counting, [(0.0, 2.0), (0.0, 2.0)], (0.0, 0.0), grid=128)
        assert 1 <= rs.count <= counting.value_points[0] <= 64
        assert sum(counting.value_points) <= 64 * 8


def _fold(shift):
    # (x^2 + shift, y): a tangential root at the origin for shift 0, none for shift > 0
    def val(p):
        p = np.atleast_2d(p)
        return np.column_stack([p[:, 0] ** 2 + shift, p[:, 1]])

    def jac(p):
        p = np.atleast_2d(p)
        J = np.zeros((p.shape[0], 2, 2))
        J[:, 0, 0] = 2.0 * p[:, 0]
        J[:, 1, 1] = 1.0
        return J

    return val, jac


def test_roots_2d_tangential_root_seeded_from_local_minimum():
    # x^2 never changes sign, so no cell brackets; the lattice minimum of
    # |X - u| next to the origin is the only seed that finds the root
    val, jac = _fold(0.0)
    f = DeterministicField(value_fn=val, jacobian_fn=jac, d=2, D=2)
    rs = count_roots_2d(f, [(-1.0, 1.05), (-1.0, 1.05)], (0.0, 0.0), grid=64)
    assert rs.count == 1
    assert np.allclose(rs.points[0], 0.0, atol=1e-4)


def test_roots_2d_seeds_that_stop_converging_retire():
    # x^2 + 1 has no root: Newton wanders and the residual never halves, so
    # each seed retires after 6 such steps instead of running all 30
    calls = []
    val, jac = _fold(1.0)

    def counted(p):
        calls.append(np.atleast_2d(p).shape[0])
        return val(p)

    f = DeterministicField(value_fn=counted, jacobian_fn=jac, d=2, D=2)
    rs = count_roots_2d(f, [(-1.0, 1.05), (-1.0, 1.05)], (0.0, 0.0), grid=64)
    assert rs.count == 0
    # the lattice, at most 7 Newton evaluations and the final residual check
    assert len(calls) <= 1 + 7 + 1


def _sign_sum(f, rs):
    J = np.asarray(f.jacobian(rs.points)).reshape(-1, 2, 2)
    return int(np.sum(np.sign(np.linalg.det(J))))


def test_roots_2d_degree_circle_line_is_zero():
    f = _circle_line_system()
    rs = count_roots_2d(f, [(-2, 2), (-2, 2)], (0.0, 0.0), grid=64)
    signs = np.sign(np.linalg.det(np.asarray(f.jacobian(rs.points))))
    assert sorted(signs) == [-1.0, 1.0]
    assert rs.degree == 0 == _sign_sum(f, rs)


@pytest.mark.parametrize("A", [[[1.0, 0.3], [-0.2, 1.0]], [[0.3, 1.0], [1.0, -0.2]]])
def test_roots_2d_degree_affine_is_sign_det(A):
    A = np.array(A)
    f = DeterministicField(value_fn=lambda p: np.atleast_2d(p) @ A.T,
                           jacobian_fn=lambda p: np.broadcast_to(
                               A, (np.atleast_2d(p).shape[0], 2, 2)).copy(),
                           d=2, D=2)
    rs = count_roots_2d(f, [(-1, 1), (-1, 1)], A @ np.array([0.3, -0.4]), grid=32)
    assert rs.count == 1
    assert rs.degree == int(np.sign(np.linalg.det(A))) == _sign_sum(f, rs)


@pytest.mark.parametrize("edge, degree", [(0.999, 1), (1.0, None)],
                         ids=["inside", "on-edge"])
def test_roots_2d_degree_halves_wide_boundary_steps(edge, degree):
    # X(p) = p has its root at u; within 0.001 of the edge x = 1 the lattice
    # step past it turns by nearly pi, and halving it settles the winding.
    # A root on the edge itself leaves a wide step after every halving.
    calls = []

    def val(p):
        calls.append(np.atleast_2d(p).shape[0])
        return np.atleast_2d(p).astype(float)

    f = DeterministicField(value_fn=val, jacobian_fn=lambda p: np.broadcast_to(
        np.eye(2), (np.atleast_2d(p).shape[0], 2, 2)).copy(), d=2, D=2)
    rs = count_roots_2d(f, [(-1, 1), (-1, 1)], (edge, 0.1), grid=12)
    assert rs.degree == degree
    assert rs.count == (degree or 0)
    # the lattice, at most 30 one-point halvings, Newton and the residual check
    assert len(calls) <= 1 + 30 + 4


def test_roots_2d_degree_flags_missed_roots():
    # z^2 - eps^2 (complex form) has two roots of sign +1 at +/- eps; a grid
    # whose dedup radius h/2 exceeds 2 eps reports one, the boundary two
    from ricelab.harness import _degree_tally

    eps = 0.01

    def val(p):
        p = np.atleast_2d(p)
        return np.column_stack([p[:, 0] ** 2 - p[:, 1] ** 2 - eps**2, 2.0 * p[:, 0] * p[:, 1]])

    def jac(p):
        p = np.atleast_2d(p)
        return np.stack([np.column_stack([2 * p[:, 0], -2 * p[:, 1]]),
                         np.column_stack([2 * p[:, 1], 2 * p[:, 0]])], axis=1)

    f = DeterministicField(value_fn=val, jacobian_fn=jac, d=2, D=2)
    box = [(-1.0, 1.1), (-1.0, 1.1)]
    fine = count_roots_2d(f, box, (0.0, 0.0), grid=512)
    assert fine.count == 2 and fine.degree == 2 == _sign_sum(f, fine)
    coarse = count_roots_2d(f, box, (0.0, 0.0), grid=12)
    assert coarse.count == 1 and coarse.degree == 2
    extras = {"degree_mismatches": 0, "degree_unresolved": 0}
    for rs in (fine, coarse):
        J = np.asarray(f.jacobian(rs.points)).reshape(-1, 2, 2)
        _degree_tally(extras, rs, np.sign(np.linalg.det(J)))
    assert extras == {"degree_mismatches": 1, "degree_unresolved": 0}


# ---------------------------------------------------------------------------
# lattice sampling and export
# ---------------------------------------------------------------------------


def test_sample_grid_1d_nodes_match_pointwise_eval():
    model_r = sample_realization(_gauss1d_model(), seed=12)
    gs = sample_grid(model_r, (0.0, 4.0), 257)
    ts = np.linspace(0.0, 4.0, 257)
    assert np.array_equal(gs.values, model_r.value(ts))
    assert np.array_equal(gs.gradients.ravel(), np.asarray(model_r.derivative(ts)))
    assert gs.spacing[0] == pytest.approx(4.0 / 256.0)


def test_sample_grid_2d_nodes_match_pointwise_eval():
    gs = sample_grid(_paraboloid(), [(-1, 1), (-1, 1)], 33)
    ax = np.linspace(-1, 1, 33)
    i, j = 7, 20
    pt = np.array([[ax[i], ax[j]]])
    assert gs.values[i, j] == _paraboloid().value(pt)[0]
    assert np.array_equal(gs.gradients[i, j, 0], 2.0 * pt[0])


def test_sample_grid_rejects_degenerate_resolution():
    with pytest.raises(ConfigurationError):
        sample_grid(_paraboloid(), [(-1, 1), (-1, 1)], 1)


def test_grid_export_and_readback(tmp_path):
    gs = sample_grid(_paraboloid(), [(-1, 1), (-1, 1)], 17)
    sidecar_path = gs.export(str(tmp_path / "dump"))
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    assert meta["schema_version"] == 1
    assert meta["kind"] == "grid_sample"
    vals = np.fromfile(tmp_path / meta["values_file"], dtype=meta["dtype"])
    assert np.array_equal(vals.reshape(meta["values_shape"]), gs.values)
    grads = np.fromfile(tmp_path / meta["gradients_file"], dtype=meta["dtype"])
    assert np.array_equal(grads.reshape(meta["gradients_shape"]), gs.gradients)
    assert meta["resolution"] == 17


def _gauss1d_model():
    return SpectralGaussian1D(
        frequencies=np.array([1.0, 2.0]),
        amplitudes=np.array([math.sqrt(0.5), math.sqrt(0.5)]),
    )


# ---------------------------------------------------------------------------
# occupation
# ---------------------------------------------------------------------------


def _ramp_midpoints(grid):
    # X(t) = t on [0, 1], sampled at the cell midpoints, as one corpus row
    h = 1.0 / grid
    return ((np.arange(grid) + 0.5) * h)[None, :], h


def test_local_time_ramp_is_exactly_one():
    # X(t) = t spends 2*delta of time in the window, normalized away
    vals, h = _ramp_midpoints(4096)
    lt = local_time(vals, 0.5, 0.1, h)
    assert lt.shape == (1,)
    assert lt[0] == pytest.approx(1.0, rel=2e-3)


def test_local_time_window_clipped_at_boundary():
    vals, h = _ramp_midpoints(4096)
    assert local_time(vals, 0.0, 0.1, h)[0] == pytest.approx(0.5, rel=5e-3)


def test_local_time_scores_each_row():
    vals = np.array([[0.0, 0.05, 0.3, 1.0], [2.0, 2.0, 2.0, 2.0]])
    assert local_time(vals, 0.0, 0.1, 0.5).tolist() == [2 * 0.5 / 0.2, 0.0]


def test_window_counters_reject_bad_delta():
    vals, h = _ramp_midpoints(64)
    with pytest.raises(ConfigurationError):
        local_time(vals, 0.5, 0.0, h)
    with pytest.raises(ConfigurationError):
        local_time(vals, 0.5, -0.1, h)


# ---------------------------------------------------------------------------
# marching squares
# ---------------------------------------------------------------------------


def test_nodal_length_circle_oracle():
    box = [(-2, 2), (-2, 2)]
    for u, rel in ((1.0, 2e-3), (2.25, 2e-3)):
        curve = nodal_length(_paraboloid(), box, u, grid=512)
        assert curve.length == pytest.approx(TWO_PI * math.sqrt(u), rel=rel)


def test_nodal_length_refines_with_grid():
    box = [(-2, 2), (-2, 2)]
    errs = [
        abs(nodal_length(_paraboloid(), box, 1.0, grid=g).length - TWO_PI)
        for g in (64, 256, 1024)
    ]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-3


def test_nodal_length_empty_level():
    curve = nodal_length(_paraboloid(), [(-0.5, 0.5), (-0.5, 0.5)], 4.0, grid=64)
    assert curve.length == 0.0
    assert curve.segments.shape[0] == 0


def test_nodal_length_needs_scalar_planar_field():
    with pytest.raises(CapabilityError):
        nodal_length(_circle_line_system(), [(-1, 1), (-1, 1)], 0.0)


def _full_mask_segments(realization, box, u, grid):
    """Marching squares that masks the whole (grid - 1)^2 cell array once per case.

    The straightforward form of ``nodal_length``: the reference its segments
    must equal bit for bit, in the same order.
    """
    b = levelsets._box2d(box)
    ax = levelsets._lattice_axes(b, grid)
    v = levelsets._lattice_values(realization, ax) - float(u)
    v0, v1, v2, v3 = v[:-1, :-1], v[1:, :-1], v[1:, 1:], v[:-1, 1:]
    case = ((v0 < 0).astype(np.int8) + 2 * (v1 < 0).astype(np.int8)
            + 4 * (v2 < 0).astype(np.int8) + 8 * (v3 < 0).astype(np.int8))
    X0 = np.broadcast_to(ax[0][:-1, None], v0.shape)
    Y0 = np.broadcast_to(ax[1][None, :-1], v0.shape)
    X1 = np.broadcast_to(ax[0][1:, None], v0.shape)
    Y1 = np.broadcast_to(ax[1][None, 1:], v0.shape)
    segs = []

    def emit(mask, pairs):
        if not np.any(mask):
            return
        cv = [c[mask] for c in (v0, v1, v2, v3)]
        x0, y0, x1, y1 = X0[mask], Y0[mask], X1[mask], Y1[mask]
        for ea, eb in pairs:
            pax, pay = levelsets._edge_point(ea, x0, y0, x1, y1, *cv)
            pbx, pby = levelsets._edge_point(eb, x0, y0, x1, y1, *cv)
            segs.append(np.stack([np.column_stack([pax, pay]),
                                  np.column_stack([pbx, pby])], axis=1))

    for idx, pairs in levelsets._MS_TABLE.items():
        emit(case == idx, pairs)
    for idx, branches in levelsets._MS_SADDLE.items():
        mask = case == idx
        if np.any(mask):
            centers = np.column_stack([0.5 * (X0[mask] + X1[mask]), 0.5 * (Y0[mask] + Y1[mask])])
            cvals = np.asarray(realization.value(centers), dtype=float) - float(u)
            for which, sub in (("neg", cvals < 0.0), ("pos", ~(cvals < 0.0))):
                m2 = mask.copy()
                m2[mask] = sub
                emit(m2, branches[which])
    if not segs:
        return np.zeros((0, 2, 2)), case
    segments = np.concatenate(segs, axis=0)
    keep = np.linalg.norm(segments[:, 1] - segments[:, 0], axis=1) > 0.0
    return segments[keep], case


def _checkerboard_saddles(res):
    # cos(pi x / h) cos(pi y / h) alternates sign on the lattice nodes, so every
    # cell is case 5 or 10; at the cell centres it vanishes, and the second term
    # sends half of the centres of each case below the level and half above
    h = 1.0 / (res - 1)

    def val(pts):
        p = np.atleast_2d(pts)
        return (np.cos(np.pi * p[:, 0] / h) * np.cos(np.pi * p[:, 1] / h)
                + 0.2 * np.cos(2.0 * np.pi * p[:, 0]))

    return DeterministicField(value_fn=val, jacobian_fn=None, d=1, D=2)


def _ring_field(seed):
    return sample_realization(SpectralGaussian2D.isotropic_ring(6, 3.0), seed)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("u", [0.0, 0.6, -0.9])
def test_nodal_length_segments_equal_full_mask_reference_on_ring_fields(seed, u):
    real = _ring_field(fanout_seed(seed, "ring"))
    curve = nodal_length(real, [(0, 2), (0, 2)], u, grid=256)
    ref, _ = _full_mask_segments(real, [(0, 2), (0, 2)], u, 256)
    assert ref.shape[0] > 100
    assert np.array_equal(curve.segments, ref)
    assert curve.length == float(np.sum(np.linalg.norm(ref[:, 1] - ref[:, 0], axis=1)))


def test_nodal_length_segments_equal_full_mask_reference_without_crossings():
    real = _ring_field(5)
    curve = nodal_length(real, [(0, 1), (0, 1)], 50.0, grid=64)
    ref, _ = _full_mask_segments(real, [(0, 1), (0, 1)], 50.0, 64)
    assert curve.segments.shape == ref.shape == (0, 2, 2)
    assert curve.length == 0.0


def test_nodal_length_saddle_cells_equal_full_mask_reference():
    field = _checkerboard_saddles(33)
    curve = nodal_length(field, [(0, 1), (0, 1)], 0.0, grid=33)
    ref, case = _full_mask_segments(field, [(0, 1), (0, 1)], 0.0, 33)
    assert set(np.unique(case)) == {5, 10}
    centres = (np.arange(32) + 0.5) / 32
    below = field.value(np.column_stack([centres, centres])) < 0.0
    assert below.any() and not below.all()  # both saddle branches are taken
    assert ref.shape == (2 * 32 * 32, 2, 2)
    assert np.array_equal(curve.segments, ref)


def test_nodal_length_random_field_matches_line_probe():
    # cross-check marching squares against the random-line length estimate
    from ricelab.geometry import favard_measure

    model = SpectralGaussian2D(
        wavevectors=np.array(
            [[3.0, 0.0], [0.0, 3.0], [2.0, 2.0], [2.0, -2.0], [1.0, 2.0]]
        ),
        amplitudes=np.full(5, math.sqrt(0.2)),
    )
    r = sample_realization(model, seed=21)
    curve = nodal_length(r, [(0, 1), (0, 1)], 0.0, grid=256)
    est, se = favard_measure(curve, 200_000, seed=22)
    assert abs(est - curve.length) < 4 * se


# ---------------------------------------------------------------------------
# tangency detection
# ---------------------------------------------------------------------------


def test_irregularity_scan_flags_tangential_origin():
    flags = irregularity_scan(
        _cone_difference(), [(-1, 1), (-1, 1)], 0.0, eps_level=0.05, eps_delta=0.2,
        grid=101,
    )
    assert flags.shape[0] > 0
    assert np.all(np.linalg.norm(flags, axis=1) < 0.25)
    origin_dist = np.min(np.linalg.norm(flags, axis=1))
    assert origin_dist < 0.05


def test_irregularity_scan_clean_on_regular_field():
    # affine field with gradient norm sqrt(2) everywhere: nothing to flag
    def val(pts):
        p = np.atleast_2d(pts)
        return p[:, 0] + p[:, 1]

    def jac(pts):
        return np.ones((np.atleast_2d(pts).shape[0], 2))

    f = DeterministicField(value_fn=val, jacobian_fn=jac, d=1, D=2)
    flags = irregularity_scan(
        f, [(-1, 1), (-1, 1)], 0.0, eps_level=0.05, eps_delta=1.0, grid=64
    )
    assert flags.shape == (0, 2)


def test_irregularity_scan_1d_quadratic_tangency():
    f = DeterministicField(
        value_fn=lambda t: np.asarray(t, float) ** 2,
        jacobian_fn=lambda t: 2.0 * np.asarray(t, float),
        d=1,
        D=1,
    )
    flags = irregularity_scan(f, (-1.0, 1.0), 0.0, eps_level=0.01, eps_delta=0.05,
                              grid=512)
    assert flags.shape[0] > 0
    assert np.all(np.abs(flags) < 0.11)
