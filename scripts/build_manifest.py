"""Compose the standard experiment manifest.

Writes scripts/experiments.json: one entry per model family and estimator,
sized to finish in a few minutes total on one core.  The acceptance tests run
larger versions of the same experiments; this manifest is the quick-look set

    ricelab suite --config scripts/experiments.json --out results/
"""

import argparse
import json
import math
import os

from ricelab.fields import SpectralGaussian1D, SpectralGaussian2D
from ricelab.modelspec import model_to_doc

TWO_PI = 2.0 * math.pi


def standard_experiments() -> list:
    gauss1 = model_to_doc(SpectralGaussian1D.harmonics(50, seed=7))
    single = {"kind": "spectral_gaussian_1d",
              "frequencies": [1.0], "amplitudes": [1.0]}
    ring = model_to_doc(SpectralGaussian2D.isotropic_ring(6, 3.0))
    chi2 = {"kind": "chi_square", "n": 2,
            "base": model_to_doc(SpectralGaussian1D.harmonics(25, seed=3))}
    shot = {"kind": "shot_noise", "eta": 0.7, "intensity": 1.5,
            "domain": [0.0, 12.0], "beta_low": 0.5, "beta_high": 2.0}
    lens = {"kind": "microlens", "kappa_c": 2.0, "gamma": 0.0, "m": 0.2,
            "n_stars": 3, "R": 1.0}
    box1 = [0.0, 6.0]
    box2 = [[0.0, 1.0], [0.0, 1.0]]
    return [
        {"experiment_id": "harmonic-roots-exact", "model": single,
         "levels": [0.0], "estimator": "roots", "n_realizations": 1000,
         "box": [0.0, TWO_PI]},
        {"experiment_id": "gauss1d-crossings", "model": gauss1,
         "levels": [0.0, 0.5, 1.0], "estimator": "roots",
         "n_realizations": 2000, "box": box1},
        {"experiment_id": "gauss1d-upcrossings", "model": gauss1,
         "levels": [0.0], "estimator": "weighted", "weight": "upcrossing",
         "n_realizations": 2000, "box": box1},
        {"experiment_id": "gauss1d-occupation", "model": gauss1,
         "levels": [0.0, 1.0], "estimator": "local_time", "delta": 0.25,
         "n_realizations": 500, "box": box1, "grid": 1024},
        {"experiment_id": "gauss1d-pairs", "model": gauss1,
         "levels": [0.0], "estimator": "moment2", "n_realizations": 1000,
         "box": box1},
        {"experiment_id": "gauss1d-peaks", "model": gauss1,
         "levels": [0.0, 1.0], "estimator": "euler", "n_realizations": 400,
         "box": box1, "grid": 1024},
        {"experiment_id": "chi2-crossings", "model": chi2,
         "levels": [0.5, 1.0, 2.0], "estimator": "roots",
         "n_realizations": 2000, "box": box1},
        {"experiment_id": "ring-nodal-length", "model": ring,
         "levels": [0.0], "estimator": "length", "n_realizations": 200,
         "box": box2, "grid": 256, "n_lines": 1000},
        {"experiment_id": "ring-excursion-euler", "model": ring,
         "levels": [0.5], "estimator": "euler", "n_realizations": 150,
         "box": [[0.0, 2.0], [0.0, 2.0]], "grid": 256},
        {"experiment_id": "shot-crossings", "model": shot,
         "levels": [0.5], "estimator": "roots", "n_realizations": 2000,
         "box": [1.0, 11.0], "inner_mc": 200000},
        {"experiment_id": "lens-images", "model": lens,
         "levels": [[0.25, 0.1]], "estimator": "roots",
         "n_realizations": 500, "inner_mc": 8192},
        {"experiment_id": "lens-zero-star-control",
         "model": dict(lens, n_stars=0), "levels": [[0.25, 0.1]],
         "estimator": "roots", "n_realizations": 100},
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "experiments.json"))
    args = parser.parse_args()
    manifest = {"schema_version": 1, "experiments": standard_experiments()}
    with open(args.out, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{args.out}: {len(manifest['experiments'])} experiments")


if __name__ == "__main__":
    main()
