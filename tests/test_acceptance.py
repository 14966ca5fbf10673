"""End-to-end acceptance suite: every pipeline against its reference.

Each test is one criterion with frozen models, seeds, sample sizes, and
tolerances; the terminal summary prints one PASS/FAIL line per criterion.
Statistical comparisons use 3 combined standard errors unless a tighter
deterministic tolerance applies.  The whole module runs in about ten
minutes on one core.
"""

import math

import numpy as np
import pytest
from conftest import check_criterion

from ricelab.engine import (
    level_density,
    second_factorial_moment_rhs,
    shotnoise_rhs,
)
from ricelab.errors import DegeneracyError
from ricelab.fields import (
    ChiSquareField,
    DeterministicField,
    SpectralGaussian1D,
    SpectralGaussian2D,
    sample_realization,
)
from ricelab.geometry import (
    Polyline,
    crofton_constant,
    crofton_identity_mc,
    favard_measure,
    gaussian_det_expectation,
    mean_normal_jacobian_mc,
    normal_jacobian,
)
from ricelab.harness import ExperimentConfig, measure_only, run_experiment
from ricelab.levelsets import irregularity_scan
from ricelab.modelspec import model_to_doc
from ricelab.rng import fanout_seed, stream

TWO_PI = 2.0 * math.pi

# frozen models shared across criteria
SINGLE = {"kind": "spectral_gaussian_1d", "frequencies": [1.0], "amplitudes": [1.0]}
GAUSS50 = model_to_doc(SpectralGaussian1D.harmonics(50, seed=7))
RING = model_to_doc(SpectralGaussian2D.isotropic_ring(6, 3.0))
CHI2 = {"kind": "chi_square", "n": 2,
        "base": model_to_doc(SpectralGaussian1D.harmonics(25, seed=3))}
SHOT = {"kind": "shot_noise", "eta": 0.7, "intensity": 1.5,
        "domain": [0.0, 12.0], "beta_low": 0.5, "beta_high": 2.0}
LENS = {"kind": "microlens", "kappa_c": 2.0, "gamma": 0.0, "m": 0.2,
        "n_stars": 3, "R": 1.0}

LINE_BOX = [0.0, 6.0]


def _gauss50_model() -> SpectralGaussian1D:
    return SpectralGaussian1D.harmonics(50, seed=7)


def _run(**kw):
    seed = kw.pop("master_seed", 0)
    return run_experiment(ExperimentConfig(**kw), master_seed=seed)


# ---------------------------------------------------------------------------
# 1. mean generalized absolute determinant of Gaussian matrices
# ---------------------------------------------------------------------------


@pytest.mark.acceptance
def test_gaussian_determinant_constants():
    refs = {
        (1, 1): math.sqrt(2.0 / math.pi),
        (2, 1): math.sqrt(math.pi / 2.0),
        (3, 3): 2.0 ** 1.5 / math.sqrt(math.pi),
    }
    for shape, ref in refs.items():
        assert gaussian_det_expectation(*shape) == pytest.approx(ref, rel=1e-13)
    worst = 0.0
    for D, d in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2)]:
        est, se = mean_normal_jacobian_mc(D, d, 10 ** 6, seed=11)
        z = abs(est - gaussian_det_expectation(D, d)) / se
        worst = max(worst, z)
    check_criterion(
        "determinant constants: 1e6-sample mean within 3 SE on 7 shapes",
        worst <= 3.0, f"max |z| = {worst:.2f}")


# ---------------------------------------------------------------------------
# 2. projection constant and the random-projection identity
# ---------------------------------------------------------------------------


@pytest.mark.acceptance
def test_projection_constant_and_identity():
    exact = abs(crofton_constant(2, 1) - math.pi / 2.0) <= 1e-14
    worst = 0.0
    for si, (d, D) in enumerate([(1, 2), (1, 3), (2, 3)]):
        for j in range(10):
            M = stream(fanout_seed(11, "crofton-matrix", si), "m",
                       j).standard_normal((d, D))
            est, se = crofton_identity_mc(
                M, 10 ** 6, seed=fanout_seed(11, "crofton-mc", si * 10 + j))
            z = abs(est - normal_jacobian(M)) / se
            worst = max(worst, z)
    check_criterion(
        "projection constant pi/2 exact; identity within 3 SE on 30 matrices",
        exact and worst <= 3.0, f"max z = {worst:.2f}")


# ---------------------------------------------------------------------------
# 3. length by random lines
# ---------------------------------------------------------------------------


@pytest.mark.acceptance
def test_length_from_random_lines():
    seg = Polyline([np.array([[0.0, 0.0], [1.0, 0.0]])])
    est_seg, _ = favard_measure(seg, 10 ** 6, seed=12)
    theta = np.linspace(0.0, TWO_PI, 1025)
    circle = Polyline([np.column_stack([np.cos(theta), np.sin(theta)])])
    est_circ, _ = favard_measure(circle, 10 ** 6, seed=13)
    err_seg = abs(est_seg - 1.0)
    err_circ = abs(est_circ - TWO_PI) / TWO_PI
    check_criterion(
        "random-line length: unit segment and unit circle within 1% at 1e6 lines",
        err_seg <= 0.01 and err_circ <= 0.01,
        f"segment err {err_seg:.2e}, circle rel err {err_circ:.2e}")


# ---------------------------------------------------------------------------
# 4. deterministic-count process: exact agreement
# ---------------------------------------------------------------------------


@pytest.mark.acceptance
def test_single_harmonic_count_is_exact():
    report = _run(experiment_id="a04", model=SINGLE, levels=[0.0],
                  estimator="roots", n_realizations=1000, box=[0.0, TWO_PI],
                  master_seed=4)
    row = report.rows[0]
    exact_lhs = row.lhs_mean == 2.0 and row.lhs_se == 0.0
    rhs_ok = abs(row.rhs_value - 2.0) <= 1e-6
    check_criterion(
        "single-frequency zero count: every realization exactly 2, "
        "prediction 2 within 1e-6",
        exact_lhs and rhs_ok and report.passed,
        f"lhs {row.lhs_mean}+-{row.lhs_se}, rhs err {abs(row.rhs_value - 2.0):.1e}")


# ---------------------------------------------------------------------------
# 5. stationary line field: crossing counts at two levels
# ---------------------------------------------------------------------------


@pytest.mark.acceptance
def test_stationary_line_crossings():
    report = _run(experiment_id="a05", model=GAUSS50, levels=[0.0, 1.0],
                  estimator="roots", n_realizations=10_000, box=LINE_BOX,
                  master_seed=5)
    model = _gauss50_model()
    T = LINE_BOX[1] - LINE_BOX[0]
    closed_ok = True
    for row in report.rows:
        u = float(row.level)
        closed = (T / math.pi) * math.sqrt(model.lambda2 / model.lambda0) * \
            math.exp(-0.5 * u * u / model.lambda0)
        closed_ok = closed_ok and abs(row.rhs_value - closed) <= 1e-9 * closed
    check_criterion(
        "stationary crossings at u=0,1: 1e4 paths within 3 combined SE, "
        "closed form reproduced",
        report.passed and closed_ok,
        "z = " + ", ".join(f"{r.z_score:.2f}" for r in report.rows))


# ---------------------------------------------------------------------------
# 6. planar field: zero-set length by marching squares and by random lines
# ---------------------------------------------------------------------------


@pytest.mark.acceptance
def test_planar_zero_set_length():
    report = _run(experiment_id="a06", model=RING, levels=[0.0],
                  estimator="length", n_realizations=1000,
                  box=[[0.0, 1.0], [0.0, 1.0]], grid=512, n_lines=2000,
                  master_seed=6)
    row = report.rows[0]
    lam2 = SpectralGaussian2D.isotropic_ring(6, 3.0).lambda2_matrix[0, 0]
    target = math.sqrt(lam2) / 2.0
    rhs_ok = abs(row.rhs_value - target) <= 1e-9
    coverage = report.extras["favard_within"][0] / report.extras["favard_n"]
    check_criterion(
        "zero-set length: 1e3 fields at 512^2 within 3 combined SE of "
        "sqrt(lam2)/2; line estimate brackets marching length on >=99%",
        report.passed and rhs_ok and coverage >= 0.99,
        f"z = {row.z_score:.2f}, coverage = {coverage:.3f}")


# ---------------------------------------------------------------------------
# 7. squared-sum process: pushforward density and crossing counts
# ---------------------------------------------------------------------------


@pytest.mark.acceptance
def test_squared_sum_levels():
    report = _run(experiment_id="a07", model=CHI2, levels=[0.5, 1.0, 2.0],
                  estimator="roots", n_realizations=10_000, box=LINE_BOX,
                  master_seed=7)
    # density at u=1 via an explicit surface integral over the level circle
    u = 1.0
    r = math.sqrt(u)
    theta = np.linspace(0.0, TWO_PI, 4097)[:-1]
    ys = r * np.column_stack([np.cos(theta), np.sin(theta)])
    p = np.exp(-0.5 * np.sum(ys ** 2, axis=1)) / TWO_PI
    grad_norm = 2.0 * np.linalg.norm(ys, axis=1)
    surface = float(np.sum(p / grad_norm) * (TWO_PI / theta.size) * r)
    chi2_model = ChiSquareField(n=2, base=SpectralGaussian1D.harmonics(25, seed=3))
    engine_density = level_density(chi2_model, 0.0, u)
    ref = math.exp(-0.5) / 2.0
    dens_ok = (abs(surface - ref) <= 1e-3 and abs(engine_density - ref) <= 1e-3)
    check_criterion(
        "squared-sum process: crossings at u=0.5,1,2 within 3 combined SE; "
        "level density e^{-1/2}/2 within 1e-3 by surface integral",
        report.passed and dens_ok,
        "z = " + ", ".join(f"{r_.z_score:.2f}" for r_ in report.rows)
        + f", density err {abs(surface - ref):.1e}")


# ---------------------------------------------------------------------------
# 8. weighted counts: up-crossings are half of all crossings
# ---------------------------------------------------------------------------


@pytest.mark.acceptance
def test_upcrossings_are_half_of_crossings():
    up = _run(experiment_id="a08u", model=GAUSS50, levels=[0.0],
              estimator="weighted", weight="upcrossing",
              n_realizations=10_000, box=LINE_BOX, master_seed=8)
    total = _run(experiment_id="a08t", model=GAUSS50, levels=[0.0],
                 estimator="roots", n_realizations=10_000, box=LINE_BOX,
                 master_seed=88)
    ru, rt = up.rows[0], total.rows[0]
    emp_diff = abs(ru.lhs_mean - 0.5 * rt.lhs_mean)
    emp_se = math.hypot(ru.lhs_se, 0.5 * rt.lhs_se)
    rhs_half = abs(ru.rhs_value - 0.5 * rt.rhs_value) <= 1e-12 * rt.rhs_value
    check_criterion(
        "up-crossings at u=0: half of all crossings, empirically within "
        "3 combined SE and exactly in the prediction",
        up.passed and emp_diff <= 3.0 * emp_se and rhs_half,
        f"z(up) = {ru.z_score:.2f}, half-split z = {emp_diff / emp_se:.2f}")


# ---------------------------------------------------------------------------
# 9. signed critical-point counts
# ---------------------------------------------------------------------------


@pytest.mark.acceptance
def test_signed_counts_line_and_plane():
    line = _run(experiment_id="a09a", model=SINGLE, levels=[0.0],
                estimator="euler", n_realizations=1000, box=[0.0, TWO_PI],
                inner_mc=20_000, master_seed=9)
    lrow = line.rows[0]
    line_exact = lrow.lhs_mean == 1.0 and lrow.lhs_se == 0.0
    plane = _run(experiment_id="a09b", model=RING, levels=[0.0],
                 estimator="euler", n_realizations=1000,
                 box=[[0.0, 2.0], [0.0, 2.0]], grid=256, inner_mc=30_000,
                 master_seed=9)
    prow = plane.rows[0]
    check_criterion(
        "signed counts: single-frequency excursion count exactly 1; planar "
        "index-weighted count within 3 combined SE over 1e3 fields",
        line_exact and line.passed and plane.passed,
        f"line lhs {lrow.lhs_mean}+-{lrow.lhs_se}, plane z = {prow.z_score:.2f}")


# ---------------------------------------------------------------------------
# 10. impulse-sum process
# ---------------------------------------------------------------------------


@pytest.mark.acceptance
def test_impulse_sum_crossings():
    report = _run(experiment_id="a10", model=SHOT, levels=[0.5],
                  estimator="roots", n_realizations=10_000, box=[1.0, 11.0],
                  inner_mc=200_000, master_seed=10)
    row = report.rows[0]
    rel = abs(row.lhs_mean - row.rhs_value) / row.rhs_value
    from ricelab.fields import ShotNoiseModel

    ev = shotnoise_rhs(
        ShotNoiseModel(intensity=1.5, eta=0.7, beta_low=0.5, beta_high=2.0,
                       domain=(0.0, 12.0)),
        (1.0, 11.0), 0.5, inner_mc=200_000, seed=10)
    trunc = ev.detail["tail_bound"] / ev.value
    check_criterion(
        "impulse-sum crossings at u=0.5: 1e4 realizations within 5% of the "
        "prediction; series truncation below 0.1%",
        rel <= 0.05 and trunc < 1e-3,
        f"rel diff {rel:.3%}, truncation {trunc:.1e}, z = {row.z_score:.2f}")


# ---------------------------------------------------------------------------
# 11. point-mass deflection fields
# ---------------------------------------------------------------------------


@pytest.mark.acceptance
def test_deflection_image_counts():
    report = _run(experiment_id="a11", model=LENS, levels=[[0.25, 0.1]],
                  estimator="roots", n_realizations=10_000, grid=64,
                  quadrature=32, inner_mc=8192, master_seed=11)
    row = report.rows[0]
    rel = abs(row.lhs_mean - row.rhs_value) / row.rhs_value
    control = _run(experiment_id="a11c", model=dict(LENS, n_stars=0),
                   levels=[[0.25, 0.1]], estimator="roots",
                   n_realizations=1000, grid=64, master_seed=11)
    crow = control.rows[0]
    control_exact = (crow.lhs_mean == 1.0 and crow.lhs_se == 0.0
                     and crow.rhs_value == 1.0)
    check_criterion(
        "deflection images: 3-mass mean count over 1e4 fields within 5% of "
        "the prediction; mass-free control exactly 1",
        rel <= 0.05 and control_exact,
        f"rel diff {rel:.3%}, mean {row.lhs_mean:.4f} vs {row.rhs_value:.4f}")


# ---------------------------------------------------------------------------
# 12. second factorial moment of the count
# ---------------------------------------------------------------------------


@pytest.mark.acceptance
def test_pair_counts():
    trivial = measure_only(
        ExperimentConfig(experiment_id="a12a", model=SINGLE, levels=[0.0],
                         estimator="moment2", n_realizations=1000,
                         box=[0.0, TWO_PI]),
        master_seed=12)
    trow = trivial["rows"][0]
    trivial_exact = trow["lhs_mean"] == 2.0 and trow["lhs_se"] == 0.0
    # the matching prediction has no density on a full period: the pair
    # covariance degenerates, which the engine must refuse to integrate
    single_model = SpectralGaussian1D(frequencies=np.array([1.0]),
                                      amplitudes=np.array([1.0]))
    with pytest.raises(DegeneracyError):
        second_factorial_moment_rhs(single_model, (0.0, TWO_PI), 0.0)
    stat = _run(experiment_id="a12b", model=GAUSS50, levels=[0.0],
                estimator="moment2", n_realizations=10_000, box=LINE_BOX,
                master_seed=12)
    srow = stat.rows[0]
    check_criterion(
        "pair counts: single-frequency N(N-1) exactly 2 (prediction "
        "degenerate, refused); 50-frequency field within 3 combined SE",
        trivial_exact and stat.passed,
        f"trivial {trow['lhs_mean']}+-{trow['lhs_se']}, z = {srow.z_score:.2f}")


# ---------------------------------------------------------------------------
# 13. tangency diagnostics and occupation bounds
# ---------------------------------------------------------------------------


@pytest.mark.acceptance
def test_tangency_and_occupation_controls():
    model = _gauss50_model()
    eps_level = 0.1 * math.sqrt(model.lambda0)
    fractions = []
    for mult in (1.0, 0.3, 0.1, 0.01):
        eps_delta = mult * math.sqrt(model.lambda2)
        total = 0
        n_real, grid = 200, 512
        for i in range(n_real):
            real = sample_realization(model, fanout_seed(0, "bulinskaya", i))
            flags = irregularity_scan(real, (0.0, 6.0), 0.0,
                                      eps_level=eps_level,
                                      eps_delta=eps_delta, grid=grid)
            total += flags.shape[0]
        fractions.append(total / (n_real * grid))
    monotone = all(a > b for a, b in zip(fractions, fractions[1:]))
    vanishing = fractions[-1] < 1e-3

    # a field whose zero set is tangential at the origin must get flagged
    def val(pts):
        p = np.atleast_2d(pts)
        return 1.3 * (p[:, 0] ** 2 - p[:, 1] ** 2)

    def jac(pts):
        p = np.atleast_2d(pts)
        return 1.3 * np.column_stack([2.0 * p[:, 0], -2.0 * p[:, 1]])

    tangent = DeterministicField(value_fn=val, jacobian_fn=jac, d=1, D=2)
    flags = irregularity_scan(tangent, [(-1, 1), (-1, 1)], 0.0,
                              eps_level=0.05, eps_delta=0.2, grid=101)
    flagged_origin = flags.shape[0] > 0 and bool(
        np.min(np.linalg.norm(flags, axis=1)) < 0.03)

    # occupation estimates must obey the window density bound
    occ = _run(experiment_id="a13", model=GAUSS50, levels=[0.0, 1.0],
               estimator="local_time", delta=0.25, n_realizations=1000,
               box=LINE_BOX, grid=2048, master_seed=13)
    vol = LINE_BOX[1] - LINE_BOX[0]
    bound_ok = True
    for row in occ.rows:
        u = float(row.level)
        vmin = max(0.0, abs(u) - 0.25)
        sup_dens = math.exp(-0.5 * vmin * vmin / model.lambda0) / math.sqrt(
            TWO_PI * model.lambda0)
        bound_ok = bound_ok and row.lhs_mean <= vol * sup_dens + 3.0 * row.lhs_se

    check_criterion(
        "tangency scan: flag fraction falls monotonically below 1e-3; "
        "tangential field flagged at the origin; occupation bound holds",
        monotone and vanishing and flagged_origin and occ.passed and bound_ok,
        f"fractions {['%.1e' % f for f in fractions]}, occ z = "
        + ", ".join(f"{r.z_score:.2f}" for r in occ.rows))
