"""JSON (de)serialization of field models.

The document format is versioned and closed: every document carries
schema_version and kind, and any unknown field is a configuration error.
A document's fields are the dataclass fields of its kind's class in
``_KINDS``, in class order, each required; the class validates the values.
A ``base`` field holds a nested model document.

kinds and their fields
----------------------
spectral_gaussian_1d: frequencies [floats], amplitudes [floats]
spectral_gaussian_2d: wavevectors [[x, y], ...], amplitudes [floats]
gradient_field      : base {spectral_gaussian_2d document}
chi_square          : n int, base {spectral gaussian document}
shot_noise          : eta, intensity, domain [lo, hi], beta_low, beta_high
microlens           : kappa_c, gamma, m, n_stars int, R
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .errors import ConfigurationError
from .fields import (
    ChiSquareField,
    GradientField,
    MicrolensModel,
    ShotNoiseModel,
    SpectralGaussian1D,
    SpectralGaussian2D,
)

SCHEMA_VERSION = 1

_KINDS = {
    "spectral_gaussian_1d": SpectralGaussian1D,
    "spectral_gaussian_2d": SpectralGaussian2D,
    "gradient_field": GradientField,
    "chi_square": ChiSquareField,
    "shot_noise": ShotNoiseModel,
    "microlens": MicrolensModel,
}


def model_to_doc(model) -> dict:
    """Serialize a model to a plain JSON-ready dict."""
    kind = next((k for k, cls in _KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise ConfigurationError(f"cannot serialize model type {type(model).__name__}")
    body = {"kind": kind}
    for f in dataclasses.fields(model):
        value = getattr(model, f.name)
        if f.name == "base":
            value = model_to_doc(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        body[f.name] = value
    body["schema_version"] = SCHEMA_VERSION
    return body


def model_from_doc(doc: dict):
    """Parse a model document; unknown kinds or fields are configuration errors."""
    if not isinstance(doc, dict):
        raise ConfigurationError("model document must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported schema_version {version!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigurationError(f"unknown model kind {kind!r}")
    cls = _KINDS[kind]
    names = [f.name for f in dataclasses.fields(cls)]
    extra = set(doc) - set(names) - {"kind", "schema_version"}
    if extra:
        raise ConfigurationError(f"unknown fields for {kind}: {sorted(extra)}")
    missing = set(names) - set(doc)
    if missing:
        raise ConfigurationError(f"missing fields for {kind}: {sorted(missing)}")
    try:
        return cls(**{name: model_from_doc(doc[name]) if name == "base" else doc[name]
                      for name in names})
    except ConfigurationError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigurationError(f"malformed {kind} document: {exc}") from exc


def model_to_json(model) -> str:
    return json.dumps(model_to_doc(model), indent=2, sort_keys=True)


def model_from_json(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid JSON: {exc}") from exc
    return model_from_doc(doc)
