import csv
import json
import math

import numpy as np
import pytest

from ricelab.errors import CapabilityError, ConfigurationError
from ricelab.fields import (
    DeterministicField,
    MicrolensModel,
    SpectralGaussian1D,
    SpectralGaussian2D,
    sample_realization,
)
from ricelab.levelsets import (
    count_roots_1d,
    count_roots_2d,
    irregularity_scan,
    kac_counter,
    local_time,
    nodal_length,
    sample_grid,
    weighted_root_sum,
)

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
    # one grid call, 40 bisection steps, 8 Newton steps of two calls, 2 final calls
    assert len(calls) <= 1 + 40 + 2 * 8 + 2


def test_root_set_csv_round_trip(tmp_path):
    rs = count_roots_1d(_sine(), (0.1, 1.1), 0.0)
    path = tmp_path / "roots.csv"
    rs.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == rs.count
    got = sorted(float(r["t0"]) for r in rows)
    assert np.allclose(got, np.sort(rs.points.ravel()), atol=0)


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
# window counters and occupation
# ---------------------------------------------------------------------------


def _ramp():
    return DeterministicField(
        value_fn=lambda t: np.asarray(t, float),
        jacobian_fn=lambda t: np.ones_like(np.asarray(t, float)),
        d=1,
        D=1,
    )


def test_local_time_ramp_is_exactly_one():
    # X(t) = t spends 2*delta of time in the window, normalized away
    lt = local_time(_ramp(), (0.0, 1.0), 0.5, delta=0.1, grid=4096)
    assert lt == pytest.approx(1.0, rel=2e-3)


def test_local_time_window_clipped_at_boundary():
    lt = local_time(_ramp(), (0.0, 1.0), 0.0, delta=0.1, grid=4096)
    assert lt == pytest.approx(0.5, rel=5e-3)


def test_kac_counter_ramp_and_sine():
    assert kac_counter(_ramp(), (0.0, 1.0), 0.5, delta=0.1, grid=4096) == pytest.approx(
        1.0, rel=2e-3
    )
    # every regular crossing contributes exactly its value window
    assert kac_counter(_sine(), (0.1, 1.1), 0.0, delta=0.05, grid=8192) == pytest.approx(
        2.0, rel=1e-2
    )


def test_window_counters_reject_bad_delta():
    with pytest.raises(ConfigurationError):
        local_time(_ramp(), (0.0, 1.0), 0.5, delta=0.0)
    with pytest.raises(ConfigurationError):
        kac_counter(_ramp(), (0.0, 1.0), 0.5, delta=-0.1)


def test_kac_counter_needs_square_system():
    with pytest.raises(CapabilityError):
        kac_counter(_paraboloid(), [(-1, 1), (-1, 1)], 0.0, delta=0.1)


# ---------------------------------------------------------------------------
# marching squares
# ---------------------------------------------------------------------------


def test_nodal_length_circle_oracle():
    box = [(-2, 2), (-2, 2)]
    for u, rel in ((1.0, 2e-3), (2.25, 2e-3)):
        curve = nodal_length(_paraboloid(), box, u, grid=512)
        assert curve.length == pytest.approx(TWO_PI * math.sqrt(u), rel=rel)
        # gradient norm on the circle is 2 sqrt(u)
        assert np.allclose(curve.deltas, 2.0 * math.sqrt(u), rtol=2e-2)


def test_nodal_length_refines_with_grid():
    box = [(-2, 2), (-2, 2)]
    errs = [
        abs(nodal_length(_paraboloid(), box, 1.0, grid=g).length - TWO_PI)
        for g in (64, 256, 1024)
    ]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-3


def test_nodal_length_consistency_between_segments_and_polyline():
    curve = nodal_length(_paraboloid(), [(-2, 2), (-2, 2)], 1.0, grid=128)
    seg_len = float(
        np.sum(np.linalg.norm(curve.segments[:, 1] - curve.segments[:, 0], axis=1))
    )
    assert curve.polyline.length == pytest.approx(seg_len, rel=1e-12)
    assert curve.deltas.shape[0] == curve.segments.shape[0]


def test_nodal_length_empty_level():
    curve = nodal_length(_paraboloid(), [(-0.5, 0.5), (-0.5, 0.5)], 4.0, grid=64)
    assert curve.length == 0.0
    assert curve.segments.shape[0] == 0


def test_nodal_length_needs_scalar_planar_field():
    with pytest.raises(CapabilityError):
        nodal_length(_circle_line_system(), [(-1, 1), (-1, 1)], 0.0)


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
    est, se = favard_measure(curve.polyline, 200_000, seed=22)
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


# ---------------------------------------------------------------------------
# weighted accumulation
# ---------------------------------------------------------------------------


def test_weighted_root_sum_unit_weight_is_count():
    rs = count_roots_1d(_sine(), (0.1, 1.1), 0.0)
    assert weighted_root_sum(rs, lambda pts: np.ones(len(pts))) == 2.0


def test_weighted_root_sum_upcrossing_indicator():
    rs = count_roots_1d(_sine(), (0.1, 1.1), 0.0)

    def up(pts):
        return (TWO_PI * np.cos(TWO_PI * np.asarray(pts, float).ravel()) > 0).astype(float)

    assert weighted_root_sum(rs, up) == 1.0


def test_weighted_root_sum_empty_root_set():
    rs = count_roots_1d(_sine(), (0.1, 1.1), 3.0)
    assert weighted_root_sum(rs, lambda pts: np.ones(len(pts))) == 0.0


def test_weighted_root_sum_on_level_curve():
    curve = nodal_length(_paraboloid(), [(-2, 2), (-2, 2)], 1.0, grid=256)
    total = weighted_root_sum(curve, lambda pts: np.ones(pts.shape[0]))
    assert total == pytest.approx(curve.length, rel=1e-12)
    # weighting by x^2 + y^2 = 1 on the unit circle reproduces the length
    weighted = weighted_root_sum(
        curve, lambda pts: pts[:, 0] ** 2 + pts[:, 1] ** 2
    )
    assert weighted == pytest.approx(curve.length, rel=1e-3)


def test_weighted_root_sum_validation():
    rs = count_roots_1d(_sine(), (0.1, 1.1), 0.0)
    with pytest.raises(ConfigurationError):
        weighted_root_sum(rs, lambda pts: np.ones(len(pts) + 1))
    with pytest.raises(ConfigurationError):
        weighted_root_sum(rs, lambda pts: -np.ones(len(pts)))
    with pytest.raises(ConfigurationError):
        weighted_root_sum(np.zeros(3), lambda pts: np.ones(3))
