"""Multi-seed stability sweeps, opt-in via RICELAB_CI_LONG=1.

The default test run exercises every pipeline once at frozen seeds; these
sweeps rerun the statistical comparisons across several master seeds to
confirm the 3-sigma verdicts are calibrated rather than lucky.
"""

import numpy as np
import pytest

from ricelab.fields import (
    MicrolensModel,
    SpectralGaussian1D,
    SpectralGaussian2D,
    sample_realization,
)
from ricelab.harness import ExperimentConfig, run_experiment
from ricelab.levelsets import lens_images
from ricelab.modelspec import model_to_doc

GAUSS50 = model_to_doc(SpectralGaussian1D.harmonics(50, seed=7))
RING = model_to_doc(SpectralGaussian2D.isotropic_ring(6, 3.0))
LENS = {"kind": "microlens", "kappa_c": 2.0, "gamma": 0.0, "m": 0.2,
        "n_stars": 3, "R": 1.0}

pytestmark = pytest.mark.ci_long


def _sweep(seeds, **kw):
    reports = []
    for s in seeds:
        reports.append(run_experiment(ExperimentConfig(**kw), master_seed=s))
    return reports


def test_crossing_counts_stable_across_seeds():
    reports = _sweep(range(20), experiment_id="cal-roots", model=GAUSS50,
                     levels=[0.0, 1.0], estimator="roots",
                     n_realizations=2000, box=[0.0, 6.0])
    zs = [r.max_abs_z for r in reports]
    assert sum(rep.passed for rep in reports) >= 19
    # z-scores should look standard normal, not clustered at the edge
    assert sum(z > 2.0 for z in zs) <= 6


def test_planar_length_stable_across_seeds():
    reports = _sweep(range(5), experiment_id="cal-length", model=RING,
                     levels=[0.0], estimator="length", n_realizations=200,
                     box=[[0.0, 1.0], [0.0, 1.0]], grid=256, n_lines=1000)
    assert all(rep.passed for rep in reports)
    coverage = [rep.extras["favard_within"][0] / rep.extras["favard_n"]
                for rep in reports]
    assert min(coverage) >= 0.97


def test_pair_moment_stable_across_seeds():
    reports = _sweep(range(8), experiment_id="cal-pairs", model=GAUSS50,
                     levels=[0.0], estimator="moment2", n_realizations=2000,
                     box=[0.0, 6.0])
    assert sum(rep.passed for rep in reports) >= 7


def test_deflection_counts_stable_across_seeds():
    reports = _sweep(range(3), experiment_id="cal-lens", model=LENS,
                     levels=[[0.25, 0.1]], estimator="roots",
                     n_realizations=500, grid=64, quadrature=32,
                     inner_mc=8192)
    assert all(rep.passed for rep in reports)
    means = [rep.rows[0].lhs_mean for rep in reports]
    assert max(means) - min(means) < 0.2


@pytest.mark.parametrize("kappa_c", [2.0, 1.5, 0.5])
def test_lens_images_certified_from_four_to_twelve_stars(kappa_c):
    # every field's Aberth roots converge and pass the parity certificate
    for n in range(4, 13):
        model = MicrolensModel(kappa_c=kappa_c, gamma=0.0, m=0.2, n_stars=n, R=1.0)
        stars = np.array([sample_realization(model, s).star_positions for s in range(300)])
        _, certified = lens_images(stars, [0.25, 0.1], model.c, model.m)
        assert certified.all(), (n, np.flatnonzero(~certified))
