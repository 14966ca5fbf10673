"""Bitwise pins of the outputs that the benchmark's 72 digests do not cover.

The digests (``scripts/digests.py``) hash ``measure_only`` and
``predict_only`` of the twelve workload experiments.  Three (estimator,
model kind) pairs of ``harness._METHODS`` appear in none of them, the rate
factors are reached there only through ``kacrice_rhs`` of a few models, and
``ae_level_consistency`` not at all.  Each case here computes one of those
outputs at a small size and compares the sha256 of its JSON (floats by their
shortest round-trip repr, so any changed bit changes the hash).
"""

import hashlib
import json

import numpy as np
import pytest

from ricelab.engine import conditional_jacobian_expectation, level_density
from ricelab.fields import ChiSquareField, GradientField, SpectralGaussian1D, SpectralGaussian2D
from ricelab.harness import ExperimentConfig, ae_level_consistency, measure_only, predict_only
from ricelab.modelspec import model_to_doc

LINE = SpectralGaussian1D(np.array([1.0, 2.5]), np.array([0.5 ** 0.5, 0.5 ** 0.5]))
RING = SpectralGaussian2D.isotropic_ring(6, 3.0)
ANISO = SpectralGaussian2D(np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                           np.array([0.5, 0.6, 0.3]))
UNIT_ANISO = SpectralGaussian2D(ANISO.wavevectors, ANISO.amplitudes / np.sqrt(0.7))
PLANE = {"box": [[0.0, 1.0], [0.0, 1.0]], "grid": 32, "n_realizations": 30}


def _pair(**doc) -> dict:
    cfg = ExperimentConfig.from_doc(dict(doc, experiment_id="pinned"))
    return {"measure": measure_only(cfg, 1), "predict": predict_only(cfg, 1)}


def _rate_factors(model, levels) -> list:
    return [[level_density(model, None, u), conditional_jacobian_expectation(model, u)]
            for u in levels]


CASES = {
    "local_time-chi_square": lambda: _pair(
        estimator="local_time", model=model_to_doc(ChiSquareField(2, LINE)),
        levels=[1.0, 2.0], box=[0.0, 6.0], delta=0.2, grid=256, n_realizations=30),
    "roots-gradient_field": lambda: _pair(
        estimator="roots", model=model_to_doc(GradientField(RING)),
        levels=[[0.0, 0.0], [0.3, -0.2]], **PLANE),
    "weighted-gradient_field": lambda: _pair(
        estimator="weighted", model=model_to_doc(GradientField(ANISO)),
        levels=[[0.0, 0.0], [0.3, -0.2]], weight={"kind": "index", "k": 1},
        **dict(PLANE, box=[[0.0, 4.0], [0.0, 4.0]], grid=64)),
    "rates-spectral_gaussian_1d": lambda: _rate_factors(LINE, [-1.0, 0.0, 0.7]),
    "rates-spectral_gaussian_2d": lambda: _rate_factors(RING, [-1.0, 0.0, 0.7]),
    "rates-spectral_gaussian_2d-anisotropic": lambda: _rate_factors(ANISO, [-1.0, 0.0, 0.7]),
    "rates-gradient_field": lambda: _rate_factors(GradientField(RING), [(0.0, 0.0), (0.3, -0.2)]),
    "rates-gradient_field-anisotropic": lambda: _rate_factors(
        GradientField(ANISO), [(0.0, 0.0), (0.3, -0.2)]),
    "rates-chi_square": lambda: _rate_factors(ChiSquareField(2, LINE), [0.5, 1.0, 3.0]),
    "rates-chi_square-planar": lambda: _rate_factors(
        ChiSquareField(3, UNIT_ANISO), [0.5, 1.0, 3.0]),
    "ae_level_consistency-spectral_gaussian_1d": lambda: ae_level_consistency(
        LINE, (0.0, 6.0), np.linspace(-1.5, 1.5, 7), n_realizations=64, grid=256, seed=3),
    "ae_level_consistency-chi_square": lambda: ae_level_consistency(
        ChiSquareField(2, LINE), (0.0, 6.0), [-0.5, 0.5, 1.5, 2.5, 3.5],
        n_realizations=64, grid=256, seed=3),
}

PINNED = {
    "ae_level_consistency-chi_square":
        "6ac4b31e973397c1fe3c135c8930080b0345ad254fba52653f08aced7baed6eb",
    "ae_level_consistency-spectral_gaussian_1d":
        "8844da8f0dfd64a14e2c6e8e0a86d09866839278ff7dfd7102a646e0b9a728d1",
    "local_time-chi_square":
        "fb5f41e9e14a941b7b3deec5fe7da055276a337a2135fbc247541e1e5035f82f",
    "rates-chi_square":
        "cc65eaf7542719245166398b231dc22acaca9b26d60a55725b0a5ee086e88f0a",
    "rates-chi_square-planar":
        "8f063f22545cdeef940560cd085dd7754502731f5edf5667fb3861293a57d0c3",
    "rates-gradient_field":
        "76526f00e75608f927a3b816fea74cd9fb9276148d866d416025ab7c3b42d323",
    "rates-gradient_field-anisotropic":
        "9ada9f21441b6cf06131756ccf9150191e8aef057722985e01e96fc86bcedd0c",
    "rates-spectral_gaussian_1d":
        "7f499adc47d709655172141e9a95a79601162a7a2700925eac59d88a738e00aa",
    "rates-spectral_gaussian_2d":
        "a59dad95e4b9f38920f2b3dd8030ffc65fa1f499688e722ee52f8ec91583fc05",
    "rates-spectral_gaussian_2d-anisotropic":
        "2c9080f7decb5802965914b5e581ac8096d6f410013f2d9d947a75b520d7ca88",
    "roots-gradient_field":
        "f3b11341a58270eb03f3d9eb23fa5ddb2692ca4b8ba68157effaa47e0fabf1e6",
    "weighted-gradient_field":
        "89a35ce44b17188a7dd0b068f0408271ea593ca55d2e243d7526b8298a5a04a7",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_outside_the_digests_are_bitwise_pinned(case):
    text = json.dumps(CASES[case](), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[case]
