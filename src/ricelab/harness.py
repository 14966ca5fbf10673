"""Experiment harness: configs, batched empirical runs, predictions, verdicts.

An experiment pins down one model, one observation window, a list of levels,
and one empirical estimator.  Running it draws ``n_realizations`` independent
realizations (seeded per index, so results never depend on worker count),
measures the chosen level-set functional on each, evaluates the matching
prediction, and scores every level with a z-test at the configured threshold.
Reports serialize to JSON; the canonical form drops wall time so identical
(config, master_seed) pairs produce byte-identical documents.
:func:`ae_level_consistency` makes the same comparison integrated against a
bump in the level variable, on a batched corpus of line realizations.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import time
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .engine import (
    _SHARED_BLOCK,
    RhsEvaluation,
    _node_count,
    _sample_count,
    _term_count,
    _weight_share,
    euler_char_expectation,
    kacrice_rhs,
    microlens_rhs,
    parse_region,
    parse_weight,
    region_mask,
    second_factorial_moment_rhs,
    shotnoise_rhs,
    weighted_kacrice_rhs,
)
from .errors import CapabilityError, ConfigurationError, DomainError, RicelabError
from .fields import (
    ChiSquareField,
    GradientField,
    LineCorpus,
    MicrolensModel,
    ShotNoiseModel,
    SpectralGaussian1D,
    _bump,
    batch_coefficients,
    batch_stars,
    box_array,
    _is_real,
    config_count,
    config_number,
    config_positive,
    level_value,
    sample_realization,
    shot_noise_impulses,
    trig_basis_1d,
)
from .geometry import _line_count, favard_measure
from .levelsets import (
    _grid_size,
    count_roots_1d,
    count_roots_2d,
    lens_images,
    local_time,
    nodal_length,
)
from .modelspec import SCHEMA_VERSION, model_from_doc
from .rng import check_seed, fanout_seed, mean_se, stream, streams

_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]+$")


def _as_plain(x):
    """Recursively strip numpy types so docs are plain JSON data."""
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, np.ndarray):
        return [_as_plain(v) for v in x.tolist()]
    if isinstance(x, Mapping):
        return {k: _as_plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_as_plain(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


# numeric config fields: name -> whether the value is a whole number
_NUMBER_FIELDS = {
    "n_realizations": True,
    "grid": True,
    "quadrature": True,
    "inner_mc": True,
    "delta": False,
    "p_max": True,
    "rhs_delta": False,
    "n_lines": True,
    "z_crit": False,
    "abs_floor": False,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One closed-pipeline comparison, fully determined by plain JSON data.

    ``levels`` are scalars, except for point-mass deflection models and
    gradient fields where each level is a 2-vector (source position, or the
    target value of the gradient).  ``grid`` of ``None`` picks an
    estimator-appropriate default.  ``weight`` applies to the "weighted"
    estimator only: "unit", "upcrossing", or {"kind": "index", "k": 0|1|2}.
    ``delta`` is the window half-width of the "local_time" estimator.
    ``region`` (deflection models only) is the prediction region; omitted, a
    centered disk large enough to contain every image is derived per level.
    ``n_lines`` > 0 adds a random-line length cross-check per realization
    ("length" only).  ``p_max`` and ``rhs_delta`` tune the shot-noise prediction,
    and ``inner_mc`` is the sample count of predictions that use Monte Carlo.
    ``quadrature`` sizes the node rule of the "moment2" prediction.  Three
    keys are accepted unread, for configs written when they were read:
    ``grid`` on deflection models, ``quadrature`` on deflection models with
    stars, and ``inner_mc`` on the "euler" estimator.  Which keys each
    (estimator, model kind) pair reads is declared once, in ``_METHODS``,
    and each value is checked by the rule of the function that reads it.
    """

    experiment_id: str
    model: dict
    levels: list
    estimator: str
    n_realizations: int
    box: object = None
    grid: Optional[int] = None
    quadrature: Optional[int] = None
    inner_mc: int = 4096
    weight: object = None
    delta: Optional[float] = None
    p_max: int = 12
    rhs_delta: Optional[float] = None
    region: Optional[dict] = None
    n_lines: int = 0
    z_crit: float = 3.0
    abs_floor: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "experiment_id", str(self.experiment_id))
        for key in ("model", "levels", "box", "weight", "region"):
            object.__setattr__(self, key, _as_plain(getattr(self, key)))
        for key, integral in _NUMBER_FIELDS.items():
            value = getattr(self, key)
            # None stays None where it is the default (pick one automatically)
            if value is not None or self.__dataclass_fields__[key].default is not None:
                object.__setattr__(self, key, config_number(key, value, integral))
        _validate_config(self)

    # -- serialization ------------------------------------------------------

    def to_doc(self) -> dict:
        """Plain JSON data: the schema version and kind, then every dataclass field."""
        doc = {"schema_version": SCHEMA_VERSION, "kind": "experiment"}
        doc.update((f.name, _as_plain(getattr(self, f.name))) for f in fields(self))
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping) -> "ExperimentConfig":
        if not isinstance(doc, Mapping):
            raise ConfigurationError("experiment config must be a mapping")
        allowed = set(cls.__dataclass_fields__) | {"schema_version", "kind"}
        unknown = sorted(set(doc) - allowed)
        if unknown:
            raise ConfigurationError(f"unknown experiment config keys: {unknown}")
        if "kind" in doc and doc["kind"] != "experiment":
            raise ConfigurationError(f"not an experiment config: kind={doc['kind']!r}")
        kwargs = {k: doc[k] for k in cls.__dataclass_fields__ if k in doc}
        missing = [k for k in ("experiment_id", "model", "levels", "estimator",
                               "n_realizations") if k not in kwargs]
        if missing:
            raise ConfigurationError(f"experiment config missing keys: {missing}")
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
        return cls.from_doc(doc)


def _validate_config(cfg: ExperimentConfig) -> None:
    """Check a config before any draw: its own rules here, every value a reader
    checks by that reader's rule (``fields.level_value``, ``_KEY_RULES``,
    ``ShotNoiseModel.check_box``, ``engine._weight_share``).
    """
    if not cfg.experiment_id or not _ID_PATTERN.match(cfg.experiment_id):
        raise ConfigurationError(
            "experiment_id must be nonempty and use only [A-Za-z0-9._-]")
    if cfg.estimator not in ESTIMATORS:
        raise ConfigurationError(
            f"unknown estimator {cfg.estimator!r}; choose one of {ESTIMATORS}")
    if cfg.n_realizations < 30:
        raise ConfigurationError(
            "need n_realizations >= 30 for a meaningful standard error")
    if cfg.z_crit <= 0:
        raise ConfigurationError("z_crit must be positive")
    if cfg.abs_floor < 0:
        raise ConfigurationError("abs_floor must be >= 0")

    if not isinstance(cfg.model, Mapping):
        raise ConfigurationError("model must be a serialized model document")
    model = model_from_doc(dict(cfg.model))
    kind = cfg.model.get("kind")
    method = _METHODS.get((cfg.estimator, kind))
    if method is None:
        raise ConfigurationError(
            f"estimator {cfg.estimator!r} does not apply to model kind {kind!r}")
    lens = method.measure is _microlens_chunk  # images in a region, which gives the box
    accepts = method.accepts
    if lens and model.n_stars == 0:
        # no stars: one image at y / c, a prediction with nothing to sample
        accepts = accepts - {"quadrature", "inner_mc"}
    # a value left at its default is the reader's own; any other must be
    # read by the pair (an error where nothing reads it) and pass its rule
    for key, (readers, rule) in _KEY_RULES.items():
        value = getattr(cfg, key)
        if value == ExperimentConfig.__dataclass_fields__[key].default:
            continue
        if readers is not None and key not in accepts:
            raise ConfigurationError(f"{key} is read only by {readers}; estimator "
                                     f"{cfg.estimator!r} on model kind {kind!r} would ignore it")
        rule(value)

    levels = cfg.levels
    if not isinstance(levels, Sequence) or isinstance(levels, (str, bytes)) or not levels:
        raise ConfigurationError("levels must be a nonempty list")
    for lvl in levels:
        level_value(model, lvl)

    if method.measure is _corpus_chunk and model.D != 1:
        raise ConfigurationError(
            f"estimator {cfg.estimator!r} reads a line corpus: it needs a field over a "
            f"line base, got one on R^{model.D}")

    if cfg.box is None:
        if not lens:
            raise ConfigurationError("box is required (omitting it is allowed "
                                     "only for point-mass deflection models)")
    elif hasattr(model, "check_box"):  # a box inside the model's domain
        model.check_box(cfg.box)
    else:
        box_array(cfg.box, model.D)

    if cfg.estimator == "local_time":
        if cfg.delta is None:
            raise ConfigurationError("local_time needs a window half-width delta")
        try:  # the lowest window [u - delta, u + delta] must lie in the model's levels
            level_value(model, min(levels) - cfg.delta)
        except DomainError as exc:
            raise DomainError(f"local_time window below u = {min(levels)}: {exc}") from None
    if cfg.estimator == "weighted":
        try:  # the prediction's weight rule, which the measurement counts by too
            _weight_share(model, cfg.weight)
        except CapabilityError as exc:
            raise ConfigurationError(str(exc)) from None
    elif cfg.weight is not None:
        raise ConfigurationError("weight applies to the 'weighted' estimator only")


def default_image_region(model: MicrolensModel, y) -> dict:
    """Centered disk guaranteed to contain every image of source ``y``.

    Outside radius r with |c| r^2 - (|c| R + |y|) r - (2 m N - |y| R) > 0 the
    deflection dominates the total pull of the masses toward any point of the
    configuration disk, so no solution exists.  At c = 0 an image solves
    2m sum_j 1 / (x - xi_j) = -conj(y), a sum of N terms each at most
    1 / (|x| - R) in modulus when |x| > R, so |x| <= R + 2 m N / |y| for
    y != 0; at y = 0 the images are critical points of prod_j (x - xi_j),
    which lie in the stars' convex hull (Gauss-Lucas), so |x| <= R.  The
    returned disk takes that radius plus a 10% margin.
    """
    c = abs(model.c)
    yn = float(np.hypot(float(y[0]), float(y[1])))
    if c == 0.0:
        r = model.R + (2.0 * model.m * model.n_stars / yn if yn > 0.0 else 0.0)
    else:
        b = c * model.R + yn
        extra = max(2.0 * model.m * model.n_stars - yn * model.R, 0.0)
        r = (b + math.sqrt(b * b + 4.0 * c * extra)) / (2.0 * c)
    return {"kind": "disk", "center": [0.0, 0.0], "radius": 1.1 * r}


def _lens_geometry(cfg: ExperimentConfig, model: MicrolensModel, level):
    """Resolve (region document, search box) for one source position."""
    region = cfg.region if cfg.region is not None else default_image_region(model, level)
    bound = parse_region(region)
    if isinstance(bound, tuple):
        (cx, cy), rad = bound
        bound = [[cx - rad, cx + rad], [cy - rad, cy + rad]]
    if cfg.box is not None:
        box = box_array(cfg.box, 2)
    else:
        # pad so region-boundary images stay strictly inside the search box
        box = np.array(bound, dtype=float)
        pad = 0.02 * np.max(box[:, 1] - box[:, 0])
        box[:, 0] -= pad
        box[:, 1] += pad
    return region, box


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def verdict(lhs_mean: float, lhs_se: float, rhs_value: float, rhs_error: float,
            z_crit: float = 3.0, abs_floor: float = 1e-9) -> tuple:
    """Score one comparison; returns (passed, z).

    Both error channels combine in quadrature; the absolute floor keeps
    exact-vs-exact comparisons from failing on roundoff when both standard
    errors vanish.
    """
    diff = abs(float(lhs_mean) - float(rhs_value))
    scale = math.hypot(float(lhs_se), float(rhs_error))
    passed = diff <= z_crit * scale + abs_floor
    if scale > 0.0:
        z = diff / scale
    else:
        z = 0.0 if diff <= abs_floor else math.inf
    return bool(passed), float(z)


@dataclass(frozen=True)
class LevelRow:
    """Per-level comparison: empirical mean vs prediction with both errors."""

    level: object
    lhs_mean: float
    lhs_se: float
    rhs_value: float
    rhs_quadrature_error: float
    rhs_mc_error: float
    z_score: float
    passed: bool

    @property
    def rhs_total_error(self) -> float:
        return self.rhs_quadrature_error + self.rhs_mc_error

    def to_doc(self) -> dict:
        """Every dataclass field, and ``rhs_total_error``."""
        doc = {f.name: _as_plain(getattr(self, f.name)) for f in fields(self)}
        doc["rhs_total_error"] = self.rhs_total_error
        return doc


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one run produced, JSON-ready.

    ``canonical_doc`` omits wall time, so two runs with the same config and
    master seed serialize to byte-identical documents regardless of worker
    count or machine speed.
    """

    config: ExperimentConfig
    master_seed: int
    rows: tuple
    extras: dict
    passed: bool
    wall_time_s: float

    def canonical_doc(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "experiment_report",
            "experiment_id": self.config.experiment_id,
            "master_seed": self.master_seed,
            "config": self.config.to_doc(),
            "rows": [r.to_doc() for r in self.rows],
            "extras": _as_plain(self.extras),
            "passed": self.passed,
        }

    def to_doc(self) -> dict:
        """``canonical_doc`` with the wall time and each row's ``detectable_rel_error``."""
        from statistics import NormalDist  # not at import: it loads fractions and decimal

        doc = self.canonical_doc()
        doc["wall_time_s"] = self.wall_time_s
        # the relative error of the prediction that fails the row with 90% probability
        reach = self.config.z_crit + NormalDist().inv_cdf(0.9)
        for d, r in zip(doc["rows"], self.rows):
            err = math.hypot(r.lhs_se, r.rhs_total_error)
            d["detectable_rel_error"] = reach * err / abs(r.rhs_value) if r.rhs_value else None
        return doc

    def to_json(self, canonical: bool = False) -> str:
        doc = self.canonical_doc() if canonical else self.to_doc()
        return json.dumps(doc, indent=2, sort_keys=True)

    def write(self, path: str) -> str:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
        return path

    @property
    def max_abs_z(self) -> float:
        return max((r.z_score for r in self.rows), default=0.0)

    def summary_lines(self) -> list:
        out = []
        for r in self.rows:
            tag = "pass" if r.passed else "FAIL"
            out.append(
                f"{self.config.experiment_id} level={_fmt_level(r.level)} "
                f"lhs={r.lhs_mean:.6g}+-{r.lhs_se:.2g} rhs={r.rhs_value:.6g}"
                f"+-{r.rhs_total_error:.2g} z={r.z_score:.2f} {tag}")
        return out


def _fmt_level(level) -> str:
    if isinstance(level, (list, tuple)):
        return "(" + ",".join(f"{float(v):g}" for v in level) + ")"
    return f"{float(level):g}"


# ---------------------------------------------------------------------------
# Empirical side.  A measurement is prepared once: the config, the model and,
# for line corpora, the grid and its trig basis, none of which depends on a
# seed.  Chunks of realizations then share that one prepared object, in this
# process or pickled to a pool; a chunk carries only (master_seed, lo, hi),
# and each realization's seed depends on its global index alone.
# ---------------------------------------------------------------------------

_CORPUS_BLOCK = 256

@dataclass(frozen=True)
class _Prepared:
    """The seed-free part of one measurement, shared by all of its chunks.

    ``grid`` is the config's, or else the pair's default (None for lenses,
    which read none).  ``ts`` and ``basis`` are set for line corpora only:
    ``ts`` is the grid the counts read and ``basis`` its ``trig_basis_1d``
    table (the base field's for a squared sum; None for impulse sums, which
    have none).
    """

    cfg: ExperimentConfig
    model: object
    grid: Optional[int]
    ts: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None


def _prepare(cfg: ExperimentConfig) -> _Prepared:
    """Build the model, and for a line corpus its grid and basis, once."""
    model = model_from_doc(dict(cfg.model))
    method = _METHODS[(cfg.estimator, cfg.model["kind"])]
    grid = cfg.grid if cfg.grid is not None else method.grid
    if method.measure is not _corpus_chunk:
        return _Prepared(cfg, model, grid)
    lo, hi = box_array(cfg.box, 1)[0].tolist()
    if cfg.estimator == "local_time":
        # occupation reads the cell midpoints lo + (i + 1/2) h, h = (hi - lo) / grid
        ts = lo + (np.arange(grid) + 0.5) * ((hi - lo) / grid)
    else:
        ts = np.linspace(lo, hi, grid)
    return _Prepared(cfg, model, grid, ts, _corpus_basis(model, ts))


def _chunk_lhs(prep: _Prepared, master_seed: int, lo: int, hi: int) -> dict:
    """Measure realizations lo..hi-1 of a prepared measurement; picklable for process pools."""
    cfg = prep.cfg
    seeds = [fanout_seed(master_seed, cfg.experiment_id, i) for i in range(lo, hi)]
    return _METHODS[(cfg.estimator, cfg.model["kind"])].measure(prep, seeds, master_seed, lo)


def _corpus_basis(model, ts) -> Optional[np.ndarray]:
    """The trig table of the model's ``line_base`` at ts; impulse sums have none (None)."""
    base = getattr(model, "line_base", None)
    return None if base is None else trig_basis_1d(base, ts)


def _corpus_values(model, seeds, ts, basis) -> np.ndarray:
    """(m, T) value matrix at ts; row i is that of sample_realization(model, seeds[i]).

    The model's ``corpus_values`` combines line-base rows, coefficients @ ``basis``
    (``_corpus_basis``); impulse sums are summed on the grid (``_impulse_values``).
    """
    if basis is None:
        return _impulse_values(model, seeds, ts)
    return model.corpus_values(seeds, lambda s: batch_coefficients(model.line_base, s) @ basis)


def _impulse_values(model: ShotNoiseModel, seeds, ts) -> np.ndarray:
    """(m, T) impulse sums of the realizations of ``seeds`` on the uniform grid ``ts``.

    Row i equals ``sample_realization(model, seeds[i]).value(ts)`` up to the
    order of summation.  An impulse reaches only the grid points within eta
    of it, so each is evaluated on a fixed-width window of the grid (clipped
    into it) and the windows of a block of about ``_SHARED_BLOCK``
    (impulse, point) pairs are summed into their rows with one ``bincount``.
    Window points outside the support add an exact +0, and so would the
    impulses dropped first, whose support ends a grid step or more off the grid.
    """
    draws = [shot_noise_impulses(model, gen) for gen in streams(seeds, "shot-noise")]
    ts = model.check_domain(ts)
    n_t = ts.size
    rows = np.repeat(np.arange(len(seeds)), [p.size for p, _ in draws])
    points = np.concatenate([p for p, _ in draws])
    amps = np.concatenate([b for _, b in draws])
    h = (ts[-1] - ts[0]) / max(n_t - 1, 1)
    # one grid step of slack on each side absorbs the rounding of ts against ts[0] + j h
    width = n_t if h == 0.0 else min(n_t, math.ceil(2.0 * model.eta / h) + 3)
    if width < n_t:
        reach = (points > ts[0] - h - model.eta) & (points < ts[-1] + h + model.eta)
        rows, points, amps = rows[reach], points[reach], amps[reach]
        first = np.floor((points - model.eta - ts[0]) / h).astype(np.intp) - 1
        start = np.clip(first, 0, n_t - width, out=first)
    else:
        start = np.zeros(points.size, dtype=np.intp)
    windows = np.lib.stride_tricks.sliding_window_view(ts, width)
    offsets = np.arange(width)
    base = rows * n_t + start  # flat index of each window's first point, non-decreasing
    out = np.zeros(len(seeds) * n_t)
    step = max(1, _SHARED_BLOCK // width)
    for lo in range(0, points.size, step):
        sl = slice(lo, lo + step)
        vals = windows[start[sl]] - points[sl, None]
        _bump(vals, model.eta, out=vals)
        vals *= amps[sl, None]
        summed = np.bincount(((base[sl] - base[lo])[:, None] + offsets).ravel(), vals.ravel())
        out[base[lo]:base[lo] + summed.size] += summed
    return out.reshape(len(seeds), n_t)


def _row_counts(steps: np.ndarray) -> np.ndarray:
    """Row sums of 0/1 bytes, in an accumulator just wide enough for a row."""
    return np.add.reduce(steps, axis=1, dtype=np.uint16 if steps.shape[1] < 2**16 else np.intp)


def _sign_change_counts(vals: np.ndarray, u: float) -> np.ndarray:
    """Grid crossings of u per row: steps where (v < u) changes, as in count_roots_1d."""
    below = (vals < u).view(np.uint8)
    return _row_counts(below[:, :-1] ^ below[:, 1:])


def _upcrossing_counts(vals: np.ndarray, u: float) -> np.ndarray:
    below = (vals < u).view(np.uint8)
    return _row_counts((below[:, :-1] > below[:, 1:]).view(np.uint8))


def _corpus_chunk(prep: _Prepared, seeds, master_seed: int, lo: int) -> dict:
    """Score every level on one value matrix per block of line realizations."""
    cfg = prep.cfg
    if cfg.estimator == "local_time":
        lo, hi = box_array(cfg.box, 1)[0].tolist()
        h = (hi - lo) / prep.grid

        def score(vals, u):
            return local_time(vals, u, cfg.delta, h)
    else:
        up = cfg.estimator == "weighted" and parse_weight(cfg.weight)[0] == "upcrossing"
        score = _upcrossing_counts if up else _sign_change_counts
    out = np.empty((len(seeds), len(cfg.levels)))
    for blo in range(0, len(seeds), _CORPUS_BLOCK):
        block = seeds[blo:blo + _CORPUS_BLOCK]
        vals = _corpus_values(prep.model, block, prep.ts, prep.basis)
        for j, u in enumerate(cfg.levels):
            out[blo:blo + len(block), j] = score(vals, float(u))
    if cfg.estimator == "moment2":
        out = out * (out - 1.0)
    return {"values": out, "extras": {}}


def _microlens_chunk(prep: _Prepared, seeds, master_seed: int, lo: int) -> dict:
    """Image counts of every field at every level, by ``lens_images``.

    A field's count is its kept images strictly inside the search box and
    inside the region.  ``parity_unresolved`` counts the (field, level)
    pairs whose roots did not converge or whose parities missed the
    theorem; they are counted with the images found.
    """
    cfg, model = prep.cfg, prep.model
    stars = batch_stars(model, seeds)
    out = np.empty((len(seeds), len(cfg.levels)))
    unresolved = 0
    for j, lvl in enumerate(cfg.levels):
        region, box = _lens_geometry(cfg, model, lvl)
        images, certified = lens_images(stars, np.asarray(lvl, dtype=float), model.c, model.m)
        pts = images.points
        inside = np.all((pts > box[:, 0]) & (pts < box[:, 1]), axis=1)
        inside &= region_mask(pts, region)
        out[:, j] = np.bincount(images.rows[inside], minlength=len(seeds))
        unresolved += int(np.count_nonzero(~certified))
    return {"values": out, "extras": {"parity_unresolved": unresolved}}


def _degree_tally(extras: dict, roots, signs: np.ndarray) -> None:
    """Count a root set whose sum of sign det J misses its boundary degree, or has none.

    Report only: a mismatch means roots were missed (or found twice), and
    it does not change the count.
    """
    if roots.degree is None:
        extras["degree_unresolved"] += 1
    elif int(np.sum(signs)) != roots.degree:
        extras["degree_mismatches"] += 1


def _planar_chunk(prep: _Prepared, seeds, master_seed: int, lo: int) -> dict:
    """Roots of a chunk's gradient realizations by ``count_roots_2d``, tallied field by field.

    One ``count_roots_2d`` call per level finds the roots of every field of
    the chunk; each field's root set is then scored on its own.  "roots"
    and "weighted" find the roots at every level and count them
    ("weighted": those whose Hessian has ``k`` negative eigenvalues).
    "euler" samples the gradient of a planar field, finds its roots once, at
    0, and sums sign det Hess = (-1)^(2 - i) over those above each level:
    extrema +1, saddles -1.
    """
    cfg = prep.cfg
    euler = cfg.estimator == "euler"
    model = GradientField(prep.model) if euler else prep.model
    k_sel = parse_weight(cfg.weight)[1] if cfg.estimator == "weighted" else None
    targets = [(0.0, 0.0)] if euler else cfg.levels
    out = np.empty((len(seeds), len(cfg.levels)))
    extras = {"degree_mismatches": 0, "degree_unresolved": 0}
    reals = [sample_realization(model, s) for s in seeds]
    for j, lvl in enumerate(targets):
        found = count_roots_2d(reals, cfg.box, np.asarray(lvl, dtype=float), grid=prep.grid)
        for i, (real, roots) in enumerate(zip(reals, found.split())):
            signs = np.sign(roots.signed)
            _degree_tally(extras, roots, signs)
            if euler:
                vals = (np.asarray(real.scalar.value(roots.points), dtype=float)
                        if roots.points.shape[0] else np.zeros(0))
                out[i] = [np.sum(signs[vals > float(u)]) for u in cfg.levels]
            elif k_sel is None:
                out[i, j] = roots.points.shape[0]
            else:
                out[i, j] = int(np.sum(_hessian_index(real.scalar, roots) == k_sel))
    return {"values": out, "extras": extras}


def _hessian_index(scalar, roots) -> np.ndarray:
    """Negative-eigenvalue count of the Hessian at each critical point of ``scalar`` (2D).

    ``roots`` are the gradient field's roots, whose ``signed`` det J is
    already det Hess; only the trace is evaluated here.
    """
    if roots.points.shape[0] == 0:
        return np.zeros(0, dtype=int)
    h = np.asarray(scalar.hessian(roots.points)).reshape(-1, 2, 2)
    det = roots.signed
    trace = h[:, 0, 0] + h[:, 1, 1]
    idx = np.ones(roots.points.shape[0], dtype=int)  # saddles: det < 0
    idx[(det > 0) & (trace > 0)] = 0
    idx[(det > 0) & (trace < 0)] = 2
    return idx


def _length_chunk(prep: _Prepared, seeds, master_seed: int, lo: int) -> dict:
    cfg, model, grid = prep.cfg, prep.model, prep.grid
    nl = len(cfg.levels)
    out = np.empty((len(seeds), nl))
    extras = {}
    if cfg.n_lines:
        extras = {"favard_within": np.zeros(nl, dtype=int),
                  "favard_sum": np.zeros(nl),
                  "favard_sumsq": np.zeros(nl),
                  "favard_n": 0}
    for i, s in enumerate(seeds):
        real = sample_realization(model, s)
        for j, u in enumerate(cfg.levels):
            curve = nodal_length(real, cfg.box, float(u), grid=grid)
            out[i, j] = curve.length
            if cfg.n_lines:
                fseed = fanout_seed(master_seed,
                                    f"{cfg.experiment_id}#lines{j}", lo + i)
                est, se = favard_measure(curve, cfg.n_lines, fseed)
                if abs(est - curve.length) <= 3.0 * se:
                    extras["favard_within"][j] += 1
                extras["favard_sum"][j] += est
                extras["favard_sumsq"][j] += est * est
        if cfg.n_lines:
            extras["favard_n"] += 1
    return {"values": out, "extras": extras}


def _euler_line_chunk(prep: _Prepared, seeds, master_seed: int, lo: int) -> dict:
    """Signed critical-point count above each level, d = 1.

    Critical points of index i carry (-1)^(1 - i): interior maxima above the
    level +1, interior minima -1.  They are the roots of the derivative
    corpus of each block of realizations, found in one ``count_roots_1d``.
    """
    cfg, model, grid = prep.cfg, prep.model, prep.grid
    out = np.empty((len(seeds), len(cfg.levels)))
    for blo in range(0, len(seeds), _CORPUS_BLOCK):
        block = seeds[blo:blo + _CORPUS_BLOCK]
        corpus = LineCorpus(model, batch_coefficients(model, block))
        crit = count_roots_1d(corpus.derivative_corpus(), cfg.box, 0.0, grid=grid)
        vals = corpus.value_at(crit.rows, crit.points.ravel())
        signs = -np.sign(crit.signed)
        for j, u in enumerate(cfg.levels):
            out[blo:blo + len(block), j] = np.bincount(
                crit.rows, weights=signs * (vals > float(u)), minlength=len(block))
    return {"values": out, "extras": {}}


@dataclass(frozen=True)
class _Method:
    """How one (estimator, model kind) pair is measured, predicted and configured.

    ``measure(prep, seeds, master_seed, lo)`` is its chunk function, ``predict(cfg,
    model, u, seed)`` its prediction at a level, ``grid`` its default grid, and
    ``accepts`` the keys of ``_KEY_RULES`` a config of it may set away from their defaults.
    """

    measure: Callable
    predict: Callable
    grid: Optional[int]
    accepts: frozenset = frozenset()


# ---------------------------------------------------------------------------
# Prediction side.  Each function predicts one level u of a config; each calls
# its engine function through this module's namespace, when it runs.
# ---------------------------------------------------------------------------


def _stationary_rhs(cfg: ExperimentConfig, model, u, seed: int) -> RhsEvaluation:
    return kacrice_rhs(model, cfg.box, u)


def _weighted_rhs(cfg: ExperimentConfig, model, u, seed: int) -> RhsEvaluation:
    return weighted_kacrice_rhs(model, cfg.box, u, cfg.weight)


def _local_time_rhs(cfg: ExperimentConfig, model, u: float, seed: int) -> RhsEvaluation:
    """Exact prediction vol * P(|X - u| <= delta) / (2 delta) (stationary)."""
    lo, hi = box_array(cfg.box, 1)[0].tolist()
    prob = model.value_cdf(u + cfg.delta) - model.value_cdf(u - cfg.delta)
    return RhsEvaluation(value=(hi - lo) * prob / (2.0 * cfg.delta),
                         detail={"path": "closed-form-cdf"})


def _euler_rhs(cfg: ExperimentConfig, model, u: float, seed: int) -> RhsEvaluation:
    return euler_char_expectation(model, cfg.box, u)


def _moment2_rhs(cfg: ExperimentConfig, model, u: float, seed: int) -> RhsEvaluation:
    return second_factorial_moment_rhs(model, cfg.box, u, quadrature=cfg.quadrature,
                                       inner_mc=cfg.inner_mc, seed=seed)


def _shot_rhs(cfg: ExperimentConfig, model, u: float, seed: int) -> RhsEvaluation:
    return shotnoise_rhs(model, cfg.box, u, p_max=cfg.p_max, inner_mc=cfg.inner_mc,
                         seed=seed, delta=cfg.rhs_delta)


def _lens_rhs(cfg: ExperimentConfig, model, u, seed: int) -> RhsEvaluation:
    region, _box = _lens_geometry(cfg, model, u)
    return microlens_rhs(model, u, region, inner_mc=cfg.inner_mc, seed=seed)


# Every (estimator, model kind) pair the harness runs.  A new model is one
# row here, its chunk function and its prediction function.  A pair
# accepts the keys its measurement or prediction reads, and three more are
# accepted unread, kept for configs written when they were read (the
# standard manifest's frozen benchmark copies among them): inner_mc on
# euler, whose prediction became a closed form; quadrature on lenses, whose
# prediction became one joint Monte Carlo with no node rule; and grid on
# lenses (default None here), whose images are polynomial roots found
# without one.  A lens without stars accepts neither quadrature nor inner_mc
# (_validate_config).
_METHODS = {
    ("roots", "spectral_gaussian_1d"): _Method(_corpus_chunk, _stationary_rhs, 2048),
    ("roots", "chi_square"): _Method(_corpus_chunk, _stationary_rhs, 2048),
    ("roots", "shot_noise"): _Method(
        _corpus_chunk, _shot_rhs, 2048, frozenset({"rhs_delta", "p_max", "inner_mc"})),
    ("roots", "microlens"): _Method(
        _microlens_chunk, _lens_rhs, None, frozenset({"quadrature", "inner_mc", "region"})),
    ("roots", "gradient_field"): _Method(_planar_chunk, _stationary_rhs, 256),
    ("length", "spectral_gaussian_2d"): _Method(
        _length_chunk, _stationary_rhs, 512, frozenset({"n_lines"})),
    ("weighted", "spectral_gaussian_1d"): _Method(_corpus_chunk, _weighted_rhs, 2048),
    ("weighted", "gradient_field"): _Method(_planar_chunk, _weighted_rhs, 256),
    ("local_time", "spectral_gaussian_1d"): _Method(
        _corpus_chunk, _local_time_rhs, 2048, frozenset({"delta"})),
    ("local_time", "chi_square"): _Method(
        _corpus_chunk, _local_time_rhs, 2048, frozenset({"delta"})),
    ("euler", "spectral_gaussian_1d"): _Method(
        _euler_line_chunk, _euler_rhs, 2048, frozenset({"inner_mc"})),
    ("euler", "spectral_gaussian_2d"): _Method(
        _planar_chunk, _euler_rhs, 256, frozenset({"inner_mc"})),
    ("moment2", "spectral_gaussian_1d"): _Method(
        _corpus_chunk, _moment2_rhs, 2048, frozenset({"quadrature", "inner_mc"})),
}

ESTIMATORS = tuple(dict.fromkeys(est for est, _kind in _METHODS))

# Each count, width and region key: what reads it (None: every pair but lenses,
# which accept it unread), and the rule its reader checks it with.
_KEY_RULES = {
    "grid": (None, _grid_size),
    "quadrature": ("the moment2 estimator", _node_count),
    "delta": ("the local_time estimator", partial(config_positive, "delta")),
    "n_lines": ("the length estimator", _line_count),
    "rhs_delta": ("shot-noise models", partial(config_positive, "rhs_delta")),
    "p_max": ("shot-noise models", _term_count),
    "inner_mc": ("Monte Carlo predictions", _sample_count),
    "region": ("deflection models", parse_region),
}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def _chunk_bounds(n: int) -> list:
    """Split [0, n) into ranges that depend on n alone.

    Worker count must not influence chunking: partial sums of extras are
    floating-point, so identical chunks are what make reports byte-identical
    across worker counts.
    """
    n_chunks = max(1, min(16, n // 30))
    size = -(-n // n_chunks)
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _merge_extras(parts: list) -> dict:
    merged = {}
    for part in parts:
        for key, val in part.items():
            if key in merged:
                merged[key] = merged[key] + val
            else:
                merged[key] = val
    return merged


def _finalize_extras(cfg: ExperimentConfig, extras: dict) -> dict:
    out = {k: _as_plain(v) for k, v in extras.items()}
    if cfg.n_lines and "favard_sum" in extras:
        n = int(extras["favard_n"])
        mean = extras["favard_sum"] / n
        var = (extras["favard_sumsq"] - n * mean**2) / (n - 1)
        out["favard_mean"] = _as_plain(mean)
        out["favard_se"] = _as_plain(np.sqrt(np.maximum(var, 0.0) / n))
    return out


# the prepared measurement of a pool worker process, set by _hold_prepared
_held_prepared: Optional[_Prepared] = None


def _hold_prepared(prep: _Prepared) -> None:
    """Pool initializer: keep ``prep`` for every chunk this worker runs."""
    global _held_prepared
    _held_prepared = prep


def _held_chunk_lhs(master_seed: int, lo: int, hi: int) -> dict:
    """:func:`_chunk_lhs` on the worker's held prepared measurement."""
    return _chunk_lhs(_held_prepared, master_seed, lo, hi)


def _measure_values(config: ExperimentConfig, master_seed: int,
                    workers: int) -> tuple:
    prep = _prepare(config)
    bounds = _chunk_bounds(config.n_realizations)
    workers = max(1, int(workers))
    if workers == 1 or len(bounds) == 1:
        parts = [_chunk_lhs(prep, master_seed, lo, hi) for lo, hi in bounds]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing too

        # each worker receives the prepared measurement once; tasks carry bounds
        with ProcessPoolExecutor(max_workers=workers, initializer=_hold_prepared,
                                 initargs=(prep,)) as pool:
            futures = [pool.submit(_held_chunk_lhs, master_seed, lo, hi)
                       for lo, hi in bounds]
            parts = [f.result() for f in futures]
    values = np.vstack([p["values"] for p in parts])
    extras = _finalize_extras(config, _merge_extras([p["extras"] for p in parts]))
    return values, extras


def run_experiment(config, master_seed: int = 0, workers: int = 1) -> ExperimentReport:
    """Run one experiment: measure_only and predict_only, each level scored by verdict."""
    if isinstance(config, Mapping):
        config = ExperimentConfig.from_doc(config)
    t0 = time.perf_counter()
    # the prediction first: a config it refuses is not measured at all
    predicted = predict_only(config, master_seed)
    measured = measure_only(config, master_seed, workers)
    rows = []
    for lhs, rhs in zip(measured["rows"], predicted["rows"]):
        passed, z = verdict(lhs["lhs_mean"], lhs["lhs_se"], rhs["rhs_value"],
                            rhs["rhs_quadrature_error"] + rhs["rhs_mc_error"],
                            config.z_crit, config.abs_floor)
        rows.append(LevelRow(**lhs, rhs_value=rhs["rhs_value"],
                             rhs_quadrature_error=rhs["rhs_quadrature_error"],
                             rhs_mc_error=rhs["rhs_mc_error"], z_score=z, passed=passed))
    return ExperimentReport(
        config=config, master_seed=measured["master_seed"], rows=tuple(rows),
        extras=measured["extras"], passed=all(r.passed for r in rows),
        wall_time_s=time.perf_counter() - t0)


def measure_only(config, master_seed: int = 0, workers: int = 1) -> dict:
    """Empirical side alone: per-level corpus means without a prediction."""
    if isinstance(config, Mapping):
        config = ExperimentConfig.from_doc(config)
    master_seed = check_seed(master_seed)
    values, extras = _measure_values(config, master_seed, workers)
    rows = []
    for j, level in enumerate(config.levels):
        lhs_mean, lhs_se = mean_se(values[:, j])
        rows.append({"level": _as_plain(level), "lhs_mean": lhs_mean,
                     "lhs_se": lhs_se})
    return {"schema_version": SCHEMA_VERSION, "kind": "measurement",
            "experiment_id": config.experiment_id, "master_seed": master_seed,
            "n_realizations": config.n_realizations, "rows": rows,
            "extras": _as_plain(extras)}


def predict_only(config, master_seed: int = 0) -> dict:
    """Prediction side alone: per-level values with both error channels.

    A subcritical lens (c = 1 - kappa_c + gamma >= 0) is a configuration
    error here, before any draw: its images can be measured, not predicted.
    """
    if isinstance(config, Mapping):
        config = ExperimentConfig.from_doc(config)
    master_seed = check_seed(master_seed)
    model = model_from_doc(dict(config.model))
    predict = _METHODS[(config.estimator, config.model["kind"])].predict
    rows = []
    for j, level in enumerate(config.levels):
        seed = fanout_seed(master_seed, config.experiment_id + "#rhs", j)
        rhs = predict(config, model, level_value(model, level), seed)
        rows.append({"level": _as_plain(level),
                     "rhs_value": float(rhs.value),
                     "rhs_quadrature_error": float(rhs.quadrature_error),
                     "rhs_mc_error": float(rhs.mc_error)})
    return {"schema_version": SCHEMA_VERSION, "kind": "prediction",
            "experiment_id": config.experiment_id, "master_seed": master_seed,
            "rows": rows}


# ---------------------------------------------------------------------------
# Level-bump consistency
# ---------------------------------------------------------------------------


def ae_level_consistency(model, box, levels, *, n_realizations: int = 1024,
                         grid: int = 2048, seed: int = 0,
                         g_center: float | None = None,
                         g_width: float | None = None) -> dict:
    """Empirical and predicted root counts integrated against a level bump.

    Evaluates the empirical mean root count ("lhs") on a batched corpus and
    the prediction ("rhs") on the level grid, then integrates both against
    the quartic bump g by the trapezoid rule.  The bump defaults to being
    centred on the level grid and supported in its interior.  Works for
    scalar line fields (Gaussian or squared-sum over a Gaussian base).  The
    returned table carries per-level values, the standard errors of the
    empirical ones, and the two integrals.  The predictions are closed forms,
    so the empirical integral alone carries an error bound: the sum of
    |weight| times the per-level standard error, a bound that stays valid
    under correlated level counts.  ``grid`` and ``n_realizations`` follow
    the experiment-config rules: whole numbers, at least 2.
    """
    grid = _grid_size(grid)
    n_realizations = config_count("n_realizations", n_realizations, 2)
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or levels.size < 3:
        raise ConfigurationError("need a one-dimensional grid of >= 3 levels")
    if np.any(np.diff(levels) <= 0.0):
        raise ConfigurationError("levels must be strictly increasing")
    lo, hi = box_array(box, 1)[0].tolist()
    if not isinstance(model, (SpectralGaussian1D, ChiSquareField)) or model.D != 1:
        raise CapabilityError(f"no level table for {type(model).__name__}")
    # the level rule reads each level before any draw; a finite one it refuses has no level set
    rhs = np.zeros(levels.size)
    for i, lev in enumerate(levels):
        try:
            rhs[i] = kacrice_rhs(model, box, lev).value
        except DomainError:
            if not math.isfinite(lev):
                raise
    if g_center is None:
        g_center = 0.5 * (levels[0] + levels[-1])
    if g_width is None:
        g_width = 0.45 * (levels[-1] - levels[0])
    g_width = config_positive("bump width", g_width)
    g = _bump(levels - g_center, g_width)

    seeds = [int(s) for s in stream(seed, "level-table-seeds").integers(
        0, 2 ** 62, size=n_realizations)]
    ts = np.linspace(lo, hi, grid)
    values = _corpus_values(model, seeds, ts, _corpus_basis(model, ts))

    lhs = np.empty(levels.size)
    lhs_se = np.empty(levels.size)
    for i, lev in enumerate(levels):
        lhs[i], lhs_se[i] = mean_se(_sign_change_counts(values, lev))

    tw = _trapezoid_weights(levels)
    lhs_int = float(np.sum(tw * g * lhs))
    rhs_int = float(np.sum(tw * g * rhs))
    lhs_int_err = float(np.sum(np.abs(tw * g) * lhs_se))
    return {
        "levels": levels.tolist(),
        "bump": g.tolist(),
        "lhs": lhs.tolist(),
        "lhs_se": lhs_se.tolist(),
        "rhs": rhs.tolist(),
        "lhs_integral": lhs_int,
        "lhs_integral_error": lhs_int_err,
        "rhs_integral": rhs_int,
        "n_realizations": n_realizations,
        "grid": grid,
        "bump_center": float(g_center),
        "bump_width": float(g_width),
    }


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    half = 0.5 * np.diff(x)
    return np.append(half, 0.0) + np.insert(half, 0, 0.0)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


@dataclass
class SuiteResult:
    """Per-experiment outcomes of a manifest run."""

    entries: list = field(default_factory=list)

    @property
    def n_pass(self) -> int:
        return sum(e["status"] == "pass" for e in self.entries)

    @property
    def n_fail(self) -> int:
        return sum(e["status"] == "fail" for e in self.entries)

    @property
    def n_error(self) -> int:
        return sum(e["status"] == "error" for e in self.entries)

    @property
    def expected_chance_failures(self) -> float:
        """Expected chance failures: erfc(z_crit / sqrt 2) per row with a nonzero error budget."""
        return sum(math.erfc(e["report"].config.z_crit / math.sqrt(2.0)) for e in self.entries
                   if "report" in e for r in e["report"].rows if r.lhs_se or r.rhs_total_error)

    def summary_rows(self) -> list:
        rows = []
        for e in self.entries:
            rep = e.get("report")
            rows.append({
                "experiment_id": e["experiment_id"],
                "status": e["status"],
                "levels": len(rep.rows) if rep else 0,
                "max_abs_z": f"{rep.max_abs_z:.4f}" if rep else "",
                "wall_time_s": f"{rep.wall_time_s:.3f}" if rep else "",
                "detail": e.get("detail", ""),
            })
        return rows

    def write_summary_csv(self, path: str) -> str:
        rows = self.summary_rows()
        names = ["experiment_id", "status", "levels", "max_abs_z",
                 "wall_time_s", "detail"]
        with open(path, "w", newline="") as fh:
            fh.write(f"# ricelab suite summary schema_version={SCHEMA_VERSION}\n")
            writer = csv.DictWriter(fh, fieldnames=names)
            writer.writeheader()
            writer.writerows(rows)
        return path


def load_manifest(doc) -> list:
    """Normalize a manifest (mapping with "experiments", or a bare list)."""
    if isinstance(doc, Mapping):
        entries = doc.get("experiments")
    else:
        entries = doc
    if not isinstance(entries, Sequence) or isinstance(entries, (str, bytes)):
        raise ConfigurationError('manifest must be a list or carry an '
                                 '"experiments" list')
    entries = list(entries)
    if not entries:
        raise ConfigurationError("manifest lists no experiments")
    return entries


def run_suite(manifest, master_seed: int = 0, workers: int = 1,
              out_dir: Optional[str] = None) -> SuiteResult:
    """Run every experiment in a manifest, capturing per-entry failures.

    A broken entry is recorded with status "error" and does not stop the
    rest.  With ``out_dir`` set, each report lands in
    ``<out_dir>/<experiment_id>.report.json`` next to ``suite_summary.csv``.
    """
    master_seed = check_seed(master_seed)
    entries = load_manifest(manifest)
    ids = [e["experiment_id"] for e in entries
           if isinstance(e, Mapping) and "experiment_id" in e]
    dupes = sorted({x for x in ids if ids.count(x) > 1})
    if dupes:
        raise ConfigurationError(
            f"duplicate experiment ids in manifest: {dupes}")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    result = SuiteResult()
    for i, doc in enumerate(entries):
        exp_id = doc.get("experiment_id", f"entry-{i}") if isinstance(
            doc, Mapping) else f"entry-{i}"
        entry = {"experiment_id": str(exp_id), "detail": ""}
        try:
            report = run_experiment(doc, master_seed=master_seed, workers=workers)
            entry["report"] = report
            entry["status"] = "pass" if report.passed else "fail"
            if out_dir is not None:
                path = f"{out_dir}/{report.config.experiment_id}.report.json"
                entry["report_path"] = report.write(path)
        except RicelabError as exc:
            entry["status"] = "error"
            entry["detail"] = f"{type(exc).__name__}: {exc}"
        result.entries.append(entry)
    if out_dir is not None:
        result.write_summary_csv(f"{out_dir}/suite_summary.csv")
    return result


# ---------------------------------------------------------------------------
# Plot data
# ---------------------------------------------------------------------------


def emit_plot_data(reports: Sequence, quantity: str, path: str) -> str:
    """Flatten reports of one quantity into a plot-ready CSV.

    Columns: level, empirical mean, half-width of the +-z_crit band, the
    prediction, and its total error.  Mixing estimators or model kinds is a
    configuration error, as are planar levels (no natural axis order).
    """
    reports = list(reports)
    if not reports:
        raise ConfigurationError("no reports to plot")
    kinds = {r.config.model["kind"] for r in reports}
    estimators = {r.config.estimator for r in reports}
    if estimators != {quantity}:
        raise ConfigurationError(
            f"reports measure {sorted(estimators)}, not {quantity!r}")
    if len(kinds) != 1:
        raise ConfigurationError(f"reports mix model kinds {sorted(kinds)}")
    rows = []
    for rep in reports:
        for r in rep.rows:
            if not _is_real(r.level):
                raise ConfigurationError("plot data needs scalar levels")
            rows.append((float(r.level), r.lhs_mean,
                         rep.config.z_crit * r.lhs_se, r.rhs_value,
                         r.rhs_total_error))
    rows.sort(key=lambda t: t[0])
    with open(path, "w", newline="") as fh:
        fh.write(f"# ricelab plot data schema_version={SCHEMA_VERSION} "
                 f"quantity={quantity} model={next(iter(kinds))}\n")
        writer = csv.writer(fh)
        writer.writerow(["level", "lhs_mean", "lhs_halfwidth",
                         "rhs_value", "rhs_error"])
        writer.writerows(rows)
    return path
