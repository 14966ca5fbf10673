import dataclasses
import hashlib
import json
import math
import os
import pathlib

import numpy as np
import pytest
from scipy import stats

from ricelab import engine, geometry, harness, levelsets
from ricelab.cli import main
from ricelab.errors import ConfigurationError, DomainError
from ricelab.fields import (
    DeterministicField,
    GradientField,
    ShotNoiseModel,
    SpectralGaussian1D,
    SpectralGaussian2D,
    sample_realization,
)
from ricelab.harness import (
    ExperimentConfig,
    _chunk_bounds,
    _chunk_lhs,
    _euler_line_chunk,
    _impulse_values,
    _prepare,
    _sign_change_counts,
    _upcrossing_counts,
    default_image_region,
    emit_plot_data,
    load_manifest,
    measure_only,
    predict_only,
    run_experiment,
    run_suite,
    verdict,
)
from ricelab.engine import region_mask
from ricelab.levelsets import count_roots_1d, count_roots_2d, lens_images
from ricelab.modelspec import model_from_doc, model_to_doc
from ricelab.rng import fanout_seed

TWO_PI = 2.0 * math.pi

SINGLE = {"kind": "spectral_gaussian_1d", "frequencies": [1.0], "amplitudes": [1.0]}
PAIR = {
    "kind": "spectral_gaussian_1d",
    "frequencies": [1.0, 2.5],
    "amplitudes": [math.sqrt(0.5), math.sqrt(0.5)],
}
CHI2 = {"kind": "chi_square", "n": 2, "base": PAIR}
CHI2_PLANAR = {"kind": "chi_square", "n": 2,
               "base": model_to_doc(SpectralGaussian2D.isotropic_ring(6, 3.0))}
SHOT = {
    "kind": "shot_noise",
    "eta": 0.7,
    "intensity": 1.5,
    "domain": [0.0, 12.0],
    "beta_low": 0.5,
    "beta_high": 2.0,
}
LENS0 = {"kind": "microlens", "kappa_c": 2.0, "gamma": 0.0, "m": 0.2,
         "n_stars": 0, "R": 1.0}
LENS3 = dict(LENS0, n_stars=3)
RING = model_to_doc(SpectralGaussian2D.isotropic_ring(6, 3.0))
ANISO = {"kind": "spectral_gaussian_2d", "wavevectors": [[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
         "amplitudes": [0.5, 0.6, 0.3]}


def _cfg(**over):
    base = dict(
        experiment_id="t",
        model=SINGLE,
        levels=[0.0],
        estimator="roots",
        n_realizations=40,
        box=[0.0, TWO_PI],
        grid=512,
    )
    base.update(over)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_ids_and_estimators():
    with pytest.raises(ConfigurationError):
        _cfg(experiment_id="")
    with pytest.raises(ConfigurationError):
        _cfg(experiment_id="has space")
    with pytest.raises(ConfigurationError):
        _cfg(estimator="flux")
    with pytest.raises(ConfigurationError):
        _cfg(n_realizations=10)


def test_config_numbers_are_checked_not_coerced():
    cfg = _cfg(n_realizations=40.0, z_crit=3, grid=np.int64(512))
    assert (cfg.n_realizations, cfg.z_crit, cfg.grid) == (40, 3.0, 512)
    assert type(cfg.n_realizations) is int and type(cfg.z_crit) is float
    assert type(cfg.grid) is int and cfg.quadrature is None
    for over in ({"n_realizations": 30.9}, {"inner_mc": "4096"}, {"delta": math.nan},
                 {"grid": None, "n_realizations": None}):
        with pytest.raises(ConfigurationError, match="n_realizations|inner_mc|delta"):
            _cfg(**over)


def test_config_estimator_model_compatibility():
    with pytest.raises(ConfigurationError):
        _cfg(estimator="length")  # needs a planar scalar field
    with pytest.raises(ConfigurationError):
        _cfg(model=SHOT, estimator="moment2", box=[1.0, 11.0])
    with pytest.raises(ConfigurationError):
        _cfg(model=CHI2, estimator="euler")


def test_config_rejects_planar_chi_square_for_line_estimators():
    # the line estimators read a 1D corpus, so a planar base cannot run
    box = [[0.0, 1.0], [0.0, 1.0]]
    with pytest.raises(ConfigurationError, match="line base"):
        _cfg(model=CHI2_PLANAR, levels=[1.0], box=box)
    with pytest.raises(ConfigurationError, match="line base"):
        _cfg(model=CHI2_PLANAR, levels=[1.0], box=box, estimator="local_time", delta=0.2)


def test_config_level_domain_rules():
    # a level outside the model's domain is a DomainError, as in every prediction
    with pytest.raises(DomainError, match="u > 0"):
        _cfg(model=CHI2, levels=[-0.5])
    with pytest.raises(DomainError, match="atom at 0"):
        _cfg(model=SHOT, levels=[0.0], box=[1.0, 11.0])
    # the occupation window [u - delta, u + delta] meets the same rule
    with pytest.raises(DomainError, match=r"local_time window below u = 0\.1: .*u > 0"):
        _cfg(model=CHI2, levels=[0.1, 1.0], estimator="local_time", delta=0.2)
    with pytest.raises(ConfigurationError):
        _cfg(model=SHOT, levels=[0.5], box=[-2.0, 5.0])  # box leaves the domain


def test_config_rejects_boolean_levels():
    # True is an int to Python; as a level it once ran as u = 1
    with pytest.raises(ConfigurationError, match="finite scalars"):
        _cfg(levels=[True])
    with pytest.raises(ConfigurationError, match="planar levels"):
        _cfg(model=LENS3, levels=[[False, 0.1]], box=None, grid=64)


def test_config_weight_and_delta_rules():
    with pytest.raises(ConfigurationError):
        _cfg(weight="upcrossing")  # weight only meaningful for "weighted"
    with pytest.raises(ConfigurationError):
        _cfg(estimator="weighted")  # weighted needs a weight
    with pytest.raises(ConfigurationError):
        _cfg(estimator="local_time")  # needs delta
    with pytest.raises(ConfigurationError):
        _cfg(estimator="local_time", delta=-0.1)
    cfg = _cfg(estimator="local_time", delta=0.2)
    assert cfg.delta == 0.2


def test_config_region_only_for_deflection_models():
    with pytest.raises(ConfigurationError):
        _cfg(region={"kind": "disk", "center": [0, 0], "radius": 1.0})
    cfg = _cfg(
        model=LENS0,
        levels=[[0.25, 0.1]],
        box=None,
        region={"kind": "disk", "center": [0.0, 0.0], "radius": 2.0},
        n_realizations=30,
        grid=64,
    )
    assert cfg.region["kind"] == "disk"


def test_config_rejects_quadrature_nothing_reads():
    # roots and weighted predictions of stationary families take no
    # quadrature; accepting one would let a config promise a rule never run.
    # The same holds for delta, n_lines, rhs_delta, p_max and inner_mc.
    with pytest.raises(ConfigurationError, match="quadrature"):
        _cfg(quadrature=32)
    with pytest.raises(ConfigurationError, match="quadrature"):
        _cfg(model=CHI2, levels=[1.0], quadrature=16)
    with pytest.raises(ConfigurationError, match="quadrature"):
        _cfg(estimator="weighted", weight="upcrossing", quadrature=16)
    # signed counts are a closed form: no rule to size
    with pytest.raises(ConfigurationError, match="quadrature"):
        _cfg(estimator="euler", quadrature=16)
    assert _cfg(estimator="moment2", box=[0.0, 3.0], quadrature=16).quadrature == 16
    lens = _cfg(model=LENS3, levels=[[0.25, 0.1]], box=None, quadrature=8,
                n_realizations=30, grid=64)
    assert lens.quadrature == 8
    # the star-free lens has one image at y / c: nothing to integrate or sample
    for key, value in (("quadrature", 8), ("inner_mc", 8192)):
        with pytest.raises(ConfigurationError, match=key):
            _cfg(model=LENS0, levels=[[0.25, 0.1]], box=None, n_realizations=30,
                 grid=64, **{key: value})
    with pytest.raises(ConfigurationError, match="delta is read only by the local_time"):
        _cfg(delta=0.2)
    with pytest.raises(ConfigurationError, match="n_lines"):
        _cfg(n_lines=1000)
    with pytest.raises(ConfigurationError, match="rhs_delta"):
        _cfg(rhs_delta=0.05)
    with pytest.raises(ConfigurationError, match="rhs_delta"):
        _cfg(estimator="local_time", delta=0.2, rhs_delta=0.05)
    with pytest.raises(ConfigurationError, match="p_max"):
        _cfg(model=SHOT, levels=[0.5], box=[1.0, 11.0], p_max=1)
    shot = _cfg(model=SHOT, levels=[0.5], box=[1.0, 11.0], p_max=2, rhs_delta=0.05)
    assert (shot.p_max, shot.rhs_delta) == (2, 0.05)
    # p_max is read by shot-noise models only, inner_mc by Monte Carlo
    # predictions only: closed forms on line fields and every local_time
    with pytest.raises(ConfigurationError, match="p_max is read only by shot-noise"):
        _cfg(p_max=40)
    with pytest.raises(ConfigurationError, match="inner_mc"):
        _cfg(inner_mc=50000)
    with pytest.raises(ConfigurationError, match="inner_mc"):
        _cfg(estimator="weighted", weight="upcrossing", inner_mc=8192)
    with pytest.raises(ConfigurationError, match="inner_mc"):
        _cfg(model=CHI2, levels=[1.0], estimator="local_time", delta=0.2, inner_mc=8192)
    # the squared-sum crossing rate is a closed form too
    with pytest.raises(ConfigurationError, match="inner_mc is read only by Monte Carlo"):
        _cfg(model=CHI2, levels=[1.0], inner_mc=8192)
    assert _cfg(inner_mc=4096).inner_mc == 4096
    # unread since signed counts became a closed form, but still accepted:
    # configs written before then set it
    assert _cfg(estimator="euler", inner_mc=8192).inner_mc == 8192
    assert _cfg(estimator="moment2", box=[0.0, 3.0], inner_mc=8192).inner_mc == 8192
    assert _cfg(model=SHOT, levels=[0.5], box=[1.0, 11.0], inner_mc=8192).inner_mc == 8192
    assert lens.inner_mc == 4096
    assert _cfg(model=LENS3, levels=[[0.25, 0.1]], box=None, n_realizations=30,
                grid=64, inner_mc=8192).inner_mc == 8192
    # length has a closed form over every spectral planar field, isotropic or not
    box2 = [[0.0, 1.0], [0.0, 1.0]]
    for model in (RING, ANISO):
        with pytest.raises(ConfigurationError, match="inner_mc"):
            _cfg(model=model, estimator="length", box=box2, inner_mc=8192)
    # critical points and their index classes are closed forms too
    grad = dict(model=model_to_doc(GradientField(model_from_doc(ANISO))),
                levels=[[0.0, 0.0]], box=box2, grid=64)
    for over in ({}, {"estimator": "weighted", "weight": {"kind": "index", "k": 1}}):
        assert _cfg(**grad, **over).inner_mc == 4096
        with pytest.raises(ConfigurationError, match="inner_mc is read only by Monte Carlo"):
            _cfg(**grad, **over, inner_mc=8192)


_PLANE = {"box": [[0.0, 1.0], [0.0, 1.0]], "grid": 64}
_GRAD = dict(_PLANE, model=model_to_doc(GradientField(model_from_doc(ANISO))),
             levels=[[0.0, 0.0]])
_LENS = {"levels": [[0.25, 0.1]], "box": None, "n_realizations": 30, "grid": 64}
# Every (estimator, model kind) pair, a valid config of it, and the keys it
# accepts away from their defaults: those its measurement or prediction
# reads, and, unread, quadrature on lenses with stars and inner_mc on euler.
KEY_MATRIX = [
    ("roots", {}, set()),
    ("roots", {"model": CHI2, "levels": [1.0]}, set()),
    ("roots", {"model": SHOT, "levels": [0.5], "box": [1.0, 11.0]},
     {"rhs_delta", "p_max", "inner_mc"}),
    ("roots", dict(_LENS, model=LENS3), {"quadrature", "inner_mc"}),
    ("roots", dict(_LENS, model=LENS0), set()),
    ("roots", _GRAD, set()),
    ("length", dict(_PLANE, model=RING), {"n_lines"}),
    ("weighted", {"weight": "upcrossing"}, set()),
    ("weighted", dict(_GRAD, weight={"kind": "index", "k": 1}), set()),
    ("local_time", {"delta": 0.2}, {"delta"}),
    ("local_time", {"model": CHI2, "levels": [1.0], "delta": 0.2}, {"delta"}),
    ("euler", {}, {"inner_mc"}),
    ("euler", dict(_PLANE, model=RING), {"inner_mc"}),
    ("moment2", {"box": [0.0, 3.0]}, {"quadrature", "inner_mc"}),
]
_AWAY = {"quadrature": 16, "delta": 0.1, "n_lines": 1000, "rhs_delta": 0.05,
         "p_max": 8, "inner_mc": 8192}


def _pair_id(row):
    estimator, over, _accepts = row
    model = over.get("model", SINGLE)
    stars = f"-{model['n_stars']}stars" if model["kind"] == "microlens" else ""
    return f"{estimator}-{model['kind']}{stars}"


@pytest.mark.parametrize("estimator, over, accepts", KEY_MATRIX,
                         ids=[_pair_id(row) for row in KEY_MATRIX])
def test_config_accepts_exactly_the_keys_its_pair_reads(estimator, over, accepts):
    # grid is accepted everywhere: every pair reads it but lenses, which
    # accept it unread
    assert _cfg(estimator=estimator, **over).estimator == estimator
    for key, value in _AWAY.items():
        doc = dict(over, estimator=estimator, **{key: value})
        if key in accepts:
            assert getattr(_cfg(**doc), key) == value
        else:
            with pytest.raises(ConfigurationError, match=rf"^{key} is read only by"):
                _cfg(**doc)


def test_estimators_apply_to_the_matrix_pairs_only():
    listed = {(est, over.get("model", SINGLE)["kind"]) for est, over, _ in KEY_MATRIX}
    assert {est for est, _kind in listed} == set(harness.ESTIMATORS)
    for _est, over, _accepts in KEY_MATRIX:
        base = {k: v for k, v in over.items() if k not in ("weight", "delta")}
        for est in harness.ESTIMATORS:
            if (est, base.get("model", SINGLE)["kind"]) not in listed:
                with pytest.raises(ConfigurationError, match="does not apply"):
                    _cfg(estimator=est, **base)


@pytest.mark.parametrize("k", [True, False, 1.0, "1", None])
def test_index_weight_takes_only_integer_k(k):
    # True and 1.0 once ran as saddles and the report echoed "k": true
    grad = model_to_doc(GradientField(model_from_doc(RING)))
    with pytest.raises(ConfigurationError, match="index weight k"):
        _cfg(model=grad, levels=[[0.0, 0.0]], box=[[0.0, 1.0], [0.0, 1.0]], grid=64,
             estimator="weighted", weight={"kind": "index", "k": k})


_M = model_from_doc  # the reader's view of a model document
_REGION0 = {"kind": "disk", "center": [0.0, 0.0], "radius": 0.0}
# One bad input per input rule: the config that carries it, and a call of a
# function that reads the value.  Both must raise the same error, because
# both apply the reader's one rule.
RULES = [
    ("chi-square-level", DomainError, dict(model=CHI2, levels=[-0.5]),
     lambda: engine.kacrice_rhs(_M(CHI2), [0.0, TWO_PI], -0.5)),
    ("shot-noise-atom", DomainError, dict(model=SHOT, levels=[0.0], box=[1.0, 11.0]),
     lambda: engine.shotnoise_rhs(_M(SHOT), [1.0, 11.0], 0.0)),
    ("infinite-level", DomainError, dict(levels=[math.inf]),
     lambda: engine.kacrice_rhs(_M(SINGLE), [0.0, TWO_PI], math.inf)),
    ("boolean-level", ConfigurationError, dict(levels=[True]),
     lambda: engine.euler_char_expectation(_M(SINGLE), [0.0, TWO_PI], True)),
    ("planar-level", ConfigurationError, dict(_LENS, model=LENS3, levels=[[0.25]]),
     lambda: engine.microlens_rhs(_M(LENS3), [0.25], [[-2.0, 2.0], [-2.0, 2.0]])),
    ("inner_mc", ConfigurationError,
     dict(model=SHOT, levels=[0.5], box=[1.0, 11.0], inner_mc=50),
     lambda: engine.shotnoise_rhs(_M(SHOT), [1.0, 11.0], 0.5, inner_mc=50)),
    ("quadrature", ConfigurationError, dict(estimator="moment2", box=[0.0, 3.0], quadrature=1),
     lambda: engine.second_factorial_moment_rhs(_M(SINGLE), [0.0, 3.0], 0.0, quadrature=1)),
    ("p_max", ConfigurationError, dict(model=SHOT, levels=[0.5], box=[1.0, 11.0], p_max=1),
     lambda: engine.shotnoise_rhs(_M(SHOT), [1.0, 11.0], 0.5, p_max=1)),
    ("rhs_delta", ConfigurationError,
     dict(model=SHOT, levels=[0.5], box=[1.0, 11.0], rhs_delta=-0.05),
     lambda: engine.shotnoise_rhs(_M(SHOT), [1.0, 11.0], 0.5, delta=-0.05)),
    ("delta", ConfigurationError, dict(estimator="local_time", delta=-0.1),
     lambda: levelsets.local_time(np.zeros((1, 4)), 0.0, -0.1, 0.25)),
    ("n_lines", ConfigurationError, dict(_PLANE, model=RING, estimator="length", n_lines=500),
     lambda: geometry.favard_measure(geometry.Polyline([[[0.0, 0.0], [1.0, 0.0]]]), 500, 1)),
    ("grid", ConfigurationError, dict(grid=1),
     lambda: count_roots_1d(sample_realization(_M(SINGLE), 1), [0.0, TWO_PI], 0.0, grid=1)),
    ("shot-noise-box", ConfigurationError, dict(model=SHOT, levels=[0.5], box=[-1.0, 11.0]),
     lambda: engine.shotnoise_rhs(_M(SHOT), [-1.0, 11.0], 0.5)),
    ("region", ConfigurationError, dict(_LENS, model=LENS3, region=_REGION0),
     lambda: engine.microlens_rhs(_M(LENS3), [0.25, 0.1], _REGION0)),
    ("region-mask", ConfigurationError, dict(_LENS, model=LENS3, region=_REGION0),
     lambda: region_mask(np.zeros((1, 2)), _REGION0)),
    ("weight-k", ConfigurationError,
     dict(_GRAD, estimator="weighted", weight={"kind": "index", "k": 3}),
     lambda: engine.weighted_kacrice_rhs(GradientField(_M(ANISO)), _PLANE["box"], [0.0, 0.0],
                                         {"kind": "index", "k": 3})),
    ("weight-form", ConfigurationError, dict(estimator="weighted", weight="sideways"),
     lambda: engine.weighted_kacrice_rhs(_M(SINGLE), [0.0, TWO_PI], 0.0, "sideways")),
]


@pytest.mark.parametrize("error, over, read", [row[1:] for row in RULES],
                         ids=[row[0] for row in RULES])
def test_each_input_rule_has_one_message(tmp_path, capsys, error, over, read):
    with pytest.raises(error) as at_config:
        _cfg(**over)
    with pytest.raises(error) as at_reader:
        read()
    assert type(at_config.value) is type(at_reader.value) is error
    assert str(at_config.value) == str(at_reader.value)
    doc = dict(experiment_id="t", model=SINGLE, levels=[0.0], estimator="roots",
               n_realizations=40, box=[0.0, TWO_PI], grid=512)
    doc.update(over)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
    assert main(["kacrice", "--config", str(path)]) == 2
    assert f"configuration error: {at_config.value}" in capsys.readouterr().err


def test_config_doc_round_trip_and_strictness():
    cfg = _cfg(levels=[0.0, 0.5])
    doc = cfg.to_doc()
    again = ExperimentConfig.from_doc(doc)
    assert again.to_doc() == doc
    doc2 = dict(doc)
    doc2["surprise"] = 1
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_doc(doc2)
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_doc({"experiment_id": "x"})
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_json("{not json")
    assert ExperimentConfig.from_json(cfg.to_json()).to_doc() == doc


# Configs across the estimators and their keys, each with the sha256 of its
# to_json() as written when to_doc listed its keys by hand; the fields of
# ExperimentConfig now write it, and the text must not move.
_PINNED_CONFIGS = {
    "line-roots": (
        dict(levels=[0.0, 0.5]),
        "04438a5327e1446f0ecc60cc57c2a2b3992e9343441bfa797dad6ae5626c289f"),
    "chi2-occupation": (
        dict(model=CHI2, levels=[1.0, 2.0], estimator="local_time", delta=0.2, grid=1024),
        "68c2bfd226845de303f494e488cf40aef2cc9b9bdaaf634a8ec589e8497fdd0e"),
    "shot-noise": (
        dict(model=SHOT, levels=[0.5, -0.5], box=[1.0, 11.0], grid=None,
             inner_mc=200_000, p_max=8, rhs_delta=0.05),
        "099c2bf734fdc6d640b07baec3b6b411a8a403cd775542a75f42bcb04dc50145"),
    "lens-disk": (
        dict(_LENS, model=LENS3, quadrature=8, inner_mc=8192,
             region={"kind": "disk", "center": [0.0, 0.5], "radius": 2.0}),
        "a48e27a51f1686e9e85b006c60d5d08724eaaf59fe73553c83ea6c854da47ac1"),
    "gradient-index": (
        dict(_GRAD, estimator="weighted", weight={"kind": "index", "k": 1},
             z_crit=4.0, abs_floor=0.0),
        "e8ce15b28a73a4059a124cc03056fe6833edebaf96b9dc814b6242f9184f4f87"),
    "length-lines": (
        dict(_PLANE, model=RING, estimator="length", n_lines=1000),
        "d8fd25f9874137f044a473bb01bf0474a1f93639e4fc3c01b523848e2f13a894"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_CONFIGS))
def test_config_doc_format_is_pinned(name):
    over, text_sha = _PINNED_CONFIGS[name]
    cfg = _cfg(**over)
    assert list(cfg.to_doc()) == ["schema_version", "kind"] + [
        f.name for f in dataclasses.fields(ExperimentConfig)]
    assert hashlib.sha256(cfg.to_json().encode()).hexdigest() == text_sha


def test_config_normalizes_numpy_payloads():
    cfg = _cfg(levels=np.array([0.0, 1.0]), box=np.array([0.0, TWO_PI]))
    assert isinstance(cfg.levels, list)
    assert all(isinstance(v, float) for v in cfg.levels)
    json.dumps(cfg.to_doc())  # nothing numpy-typed survives


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------


def test_verdict_basic_and_edge_cases():
    ok, z = verdict(1.0, 0.1, 1.15, 0.05)
    assert ok and z == pytest.approx(0.15 / math.hypot(0.1, 0.05))
    bad, z2 = verdict(1.0, 0.01, 2.0, 0.01)
    assert not bad and z2 > 3
    # exact-vs-exact: zero scale, difference under the floor
    ok, z = verdict(2.0, 0.0, 2.0, 0.0)
    assert ok and z == 0.0
    ok, z = verdict(2.0, 0.0, 2.0 + 5e-10, 0.0)
    assert ok and z == 0.0
    bad, z = verdict(2.0, 0.0, 2.1, 0.0)
    assert not bad and z == math.inf
    # floor is additive, so a hair past 3 sigma still passes
    ok, _ = verdict(0.0, 1.0, 3.0 + 1e-10, 0.0)
    assert ok


def test_chunk_bounds_partition_and_worker_independence():
    for n in (30, 31, 64, 100, 479, 10_000):
        bounds = _chunk_bounds(n)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            assert b == c and b > a
        assert len(bounds) <= 16
        if n >= 30:
            assert min(b - a for a, b in bounds) >= 1


# ---------------------------------------------------------------------------
# running experiments
# ---------------------------------------------------------------------------


def test_exact_harmonic_experiment_passes():
    report = run_experiment(_cfg(n_realizations=50), master_seed=1)
    assert report.passed
    row = report.rows[0]
    assert row.lhs_mean == 2.0 and row.lhs_se == 0.0
    assert row.rhs_value == pytest.approx(2.0, abs=1e-9)
    assert "level=0" in report.summary_lines()[0]


def test_reports_identical_across_worker_counts():
    cfg = _cfg(model=PAIR, levels=[0.0, 0.7], box=[0.0, 8.0], n_realizations=64)
    a = run_experiment(cfg, master_seed=3, workers=1)
    b = run_experiment(cfg, master_seed=3, workers=2)
    assert a.to_json(canonical=True) == b.to_json(canonical=True)
    c = run_experiment(cfg, master_seed=4, workers=1)
    assert c.to_json(canonical=True) != a.to_json(canonical=True)


# 500 realizations make 16 chunks: one Gaussian and one squared-sum crossing
# count, and one occupation count at the cell midpoints
CORPUS_CASES = {
    "gauss-roots": dict(model=PAIR, levels=[0.0, 0.7], box=[0.0, 8.0]),
    "chi2-roots": dict(model=CHI2, levels=[1.0, 2.0], box=[0.0, 8.0]),
    "local-time": dict(model=PAIR, estimator="local_time", delta=0.3,
                       levels=[0.5], box=[0.0, 6.0]),
}


@pytest.mark.parametrize("case", sorted(CORPUS_CASES))
def test_measurement_builds_one_model_and_one_basis(monkeypatch, case):
    cfg = _cfg(n_realizations=500, **CORPUS_CASES[case])
    assert len(_chunk_bounds(500)) == 16
    calls = {"from_doc": 0, "model_from_doc": 0, "trig_basis_1d": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ExperimentConfig, "from_doc",
                        classmethod(counted("from_doc", ExperimentConfig.from_doc.__func__)))
    for name in ("model_from_doc", "trig_basis_1d"):
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    measure_only(cfg, master_seed=1)
    assert calls == {"from_doc": 0, "model_from_doc": 1, "trig_basis_1d": 1}


@pytest.mark.parametrize("case", ["chi2-roots", "local-time"])
def test_corpus_reports_identical_across_worker_counts(case):
    # each pool worker gets the prepared model and basis once, not a config
    cfg = _cfg(n_realizations=64, **CORPUS_CASES[case])
    a = run_experiment(cfg, master_seed=3, workers=1)
    b = run_experiment(cfg, master_seed=3, workers=2)
    assert a.to_json(canonical=True) == b.to_json(canonical=True)


def test_pool_tasks_carry_bounds_and_workers_hold_the_preparation(monkeypatch):
    # an in-process stand-in for the pool records what each task would pickle
    import concurrent.futures

    pools = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            self.initargs, self.tasks = initargs, []
            pools.append(self)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            self.tasks.append(args)
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(harness, "_held_prepared", None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = _cfg(n_realizations=64, **CORPUS_CASES["chi2-roots"])
    pooled = run_experiment(cfg, master_seed=3, workers=2)
    (pool,) = pools
    (prep,) = pool.initargs
    assert prep.basis is not None and prep.cfg == cfg
    assert pool.tasks == [(3, lo, hi) for lo, hi in _chunk_bounds(64)]
    serial = run_experiment(cfg, master_seed=3, workers=1)
    assert pooled.to_json(canonical=True) == serial.to_json(canonical=True)


def test_report_doc_round_trip(tmp_path):
    report = run_experiment(_cfg(n_realizations=40), master_seed=2)
    path = report.write(str(tmp_path / "r.report.json"))
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["kind"] == "experiment_report"
    assert doc["experiment_id"] == "t"
    assert doc["rows"][0]["passed"] is True
    assert doc["wall_time_s"] >= 0.0
    assert "wall_time_s" not in report.canonical_doc()
    assert report.max_abs_z >= 0.0


MANIFEST = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "experiments.json"


def test_report_rows_state_the_relative_error_they_detect():
    # gauss1d-crossings of the standard manifest at seed 1: each row of
    # to_doc() carries (z_crit + z_0.9) hypot(lhs_se, rhs error) / |rhs|,
    # 4.28 times the combined error at z_crit = 3, or null at rhs 0; the
    # canonical document is the one written before the bound was added
    entry = next(e for e in json.loads(MANIFEST.read_text())["experiments"]
                 if e["experiment_id"] == "gauss1d-crossings")
    report = run_experiment(entry, master_seed=1)
    canonical = report.to_json(canonical=True)
    assert "detectable_rel_error" not in canonical
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "e4390601b3a7036fe99ed8a01be0313d9c038128487d28ccdd612fe1ae631337")
    rows = report.to_doc()["rows"]
    assert len(rows) == len(report.rows) == 3
    for doc, row in zip(rows, report.rows):
        combined = math.hypot(row.lhs_se, row.rhs_total_error)
        assert combined > 0.0
        assert doc["detectable_rel_error"] == pytest.approx(
            (3.0 + 1.2815515655446004) * combined / abs(row.rhs_value), rel=1e-12)
    assert 0.027 < rows[0]["detectable_rel_error"] < 0.029  # 2.8% at u = 0
    zero = dataclasses.replace(report, rows=(dataclasses.replace(report.rows[0], rhs_value=0.0),))
    assert json.loads(zero.to_json())["rows"][0]["detectable_rel_error"] is None


def test_measure_and_predict_only_documents():
    cfg = _cfg(model=PAIR, levels=[0.0], box=[0.0, 8.0], n_realizations=40)
    m = measure_only(cfg, master_seed=5)
    assert m["kind"] == "measurement"
    assert m["n_realizations"] == 40
    assert len(m["rows"]) == 1
    row = m["rows"][0]
    assert row["lhs_se"] > 0.0
    p = predict_only(cfg, master_seed=5)
    assert p["kind"] == "prediction"
    rate = (8.0 / math.pi) * 1.0  # unit variance, lambda2 = 3.625 -> sqrt
    lam2 = 0.5 * 1.0**2 + 0.5 * 2.5**2
    assert p["rows"][0]["rhs_value"] == pytest.approx(
        (8.0 / math.pi) * math.sqrt(lam2), rel=1e-9
    )
    # the two halves, scored by verdict, are the full comparison; the lens
    # run adds levels and parity-check extras
    lens = _cfg(model=LENS0, levels=[[0.25, 0.1], [0.5, -0.2]], box=None,
                n_realizations=30, grid=64)
    for c in (cfg, lens):
        m, p = measure_only(c, master_seed=5), predict_only(c, master_seed=5)
        full = run_experiment(c, master_seed=5).canonical_doc()
        assert len(full["rows"]) == len(c.levels)
        for got, lhs, rhs in zip(full["rows"], m["rows"], p["rows"]):
            total = rhs["rhs_quadrature_error"] + rhs["rhs_mc_error"]
            passed, z = verdict(lhs["lhs_mean"], lhs["lhs_se"], rhs["rhs_value"],
                                total, c.z_crit, c.abs_floor)
            assert got == {**rhs, **lhs, "rhs_total_error": total, "z_score": z,
                           "passed": passed}
        assert full["extras"] == m["extras"]
    assert m["extras"]


@pytest.mark.parametrize("model, level, cdf", [
    (PAIR, 0.0, lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2)))),
    (CHI2, 1.0, lambda x: stats.chi2.cdf(x, df=2)),
], ids=["gauss", "chi2"])
def test_local_time_experiment_with_closed_form(model, level, cdf):
    cfg = _cfg(
        model=model,
        estimator="local_time",
        delta=0.3,
        levels=[level],
        box=[0.0, 6.0],
        grid=2048,
        n_realizations=60,
    )
    report = run_experiment(cfg, master_seed=6)
    assert report.passed
    # occupation midpoint: vol * (F(u + 0.3) - F(u - 0.3)) / (2 * 0.3)
    expect = 6.0 * (cdf(level + 0.3) - cdf(level - 0.3)) / 0.6
    assert report.rows[0].rhs_value == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("model", [PAIR, CHI2], ids=["gauss", "chi2"])
def test_local_time_corpus_matches_pointwise_realizations(model):
    cfg = _cfg(model=model, estimator="local_time", delta=0.3, levels=[0.5, 1.0],
               box=[0.0, 6.0], grid=300, n_realizations=60)
    got = _chunk_lhs(_prepare(cfg), 5, 0, 60)["values"]
    m = model_from_doc(dict(model))
    h = 6.0 / 300
    mid = (np.arange(300) + 0.5) * h
    want = np.empty((60, 2))
    for i in range(60):
        v = sample_realization(m, fanout_seed(5, "t", i)).value(mid)
        for j, u in enumerate(cfg.levels):
            want[i, j] = float(np.count_nonzero(np.abs(v - u) <= 0.3)) * h / (2.0 * 0.3)
    assert np.array_equal(got, want)


def test_shot_noise_counts_match_pointwise_realizations():
    # impulse-sum rows go through the stacked corpus; each row's crossings
    # equal those of its own realization on the same grid
    cfg = _cfg(model=SHOT, levels=[0.5, 1.3], box=[1.0, 11.0], grid=400,
               n_realizations=40)
    got = _chunk_lhs(_prepare(cfg), 5, 0, 40)["values"]
    m = model_from_doc(dict(SHOT))
    ts = np.linspace(1.0, 11.0, 400)
    want = np.empty((40, 2))
    for i in range(40):
        v = sample_realization(m, fanout_seed(5, "t", i)).value(ts)
        for j, u in enumerate(cfg.levels):
            want[i, j] = np.count_nonzero(np.diff((v < u).astype(int)))
    assert np.array_equal(got, want)
    assert got.sum() > 0


def _impulse_model(**over):
    doc = dict(eta=0.7, intensity=1.5, domain=(0.0, 12.0), beta_low=0.5, beta_high=2.0)
    doc.update(over)
    return ShotNoiseModel(**doc)


@pytest.mark.parametrize("model, box, grid", [
    (_impulse_model(), (1.0, 11.0), 2),
    (_impulse_model(), (1.0, 11.0), 3),
    (_impulse_model(), (1.0, 11.0), 400),
    (_impulse_model(), (1.0, 11.0), 2048),
    # the box is the whole domain: impulses in the padding straddle both ends
    (_impulse_model(), (0.0, 12.0), 400),
    # eta above the grid step and above the box length
    (_impulse_model(eta=2.0), (5.0, 6.0), 400),
    (_impulse_model(eta=2.0), (5.0, 6.0), 3),
    (_impulse_model(intensity=0.0), (1.0, 11.0), 400),
], ids=["grid2", "grid3", "grid400", "grid2048", "padding", "wide-eta",
        "wide-eta-grid3", "no-impulses"])
def test_impulse_windows_match_the_dense_sum(model, box, grid):
    # each impulse summed on its window of the grid gives the values and the
    # crossings of the realization's pointwise sum over every impulse
    seeds = [fanout_seed(3, "impulses", i) for i in range(60)]
    ts = np.linspace(box[0], box[1], grid)
    got = _impulse_values(model, seeds, ts)
    reals = [sample_realization(model, s) for s in seeds]
    want = np.stack([r.value(ts) for r in reals])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12
    for u in (0.3, 0.5, 1.3):
        assert np.array_equal(_sign_change_counts(got, u), _sign_change_counts(want, u))
    points = np.concatenate([r.points for r in reals])
    if model.intensity == 0.0:
        assert points.size == 0 and not got.any()
        return
    assert _sign_change_counts(want, 0.5).sum() > 0 or grid < 4
    lo, hi = box
    for end in (lo, hi):
        assert np.any(np.abs(points - end) < model.eta)  # straddles the end
    if box == (0.0, 12.0):
        assert np.any(points < lo) and np.any(points > hi)  # in the padding


def test_impulse_windows_skip_impulses_beyond_the_grid():
    # a short box deep in the domain: most impulses end a grid step or more
    # beyond the grid and are dropped before blocking; the sums are still the
    # dense ones, and a row whose every impulse is dropped is exactly zero
    model = _impulse_model(eta=0.3)
    seeds = [fanout_seed(3, "impulses", i) for i in range(60)]
    ts = np.linspace(5.0, 6.0, 400)
    got = _impulse_values(model, seeds, ts)
    reals = [sample_realization(model, s) for s in seeds]
    want = np.stack([r.value(ts) for r in reals])
    assert np.max(np.abs(got - want)) <= 1e-12
    for u in (0.3, 0.5, 1.3):
        assert np.array_equal(_sign_change_counts(got, u), _sign_change_counts(want, u))
    assert _sign_change_counts(want, 0.5).sum() > 0
    h = ts[1] - ts[0]
    reach = [np.abs(r.points - 5.5) < 0.5 + model.eta + h for r in reals]
    assert sum(map(np.count_nonzero, reach)) < 0.25 * sum(r.points.size for r in reals)
    empty = [i for i, mine in enumerate(reach) if not mine.any()]
    assert empty and not got[empty].any() and not want[empty].any()


@pytest.mark.parametrize("width", [2, 3, 517, 2**16 + 1])
def test_crossing_counts_equal_the_diff_reference(width):
    # values exactly at the level and NaN (never below it) beside normal draws;
    # the widest grid alternates around the level, so a row counts 2**16
    # crossings, one more than 16 bits hold
    pick = np.random.default_rng(width)
    shape = (2, width) if width > 2**16 else (40, width)
    vals = pick.choice([0.0, 0.5, np.nan], size=shape)
    normal = pick.random(shape) < 0.5
    vals[normal] = pick.standard_normal(np.count_nonzero(normal))
    if width > 2**16:
        vals[0] = np.where(np.arange(width) % 2, 1.0, -1.0)
    for u in (0.0, 0.5):
        steps = np.diff((vals < u).astype(int), axis=1)
        assert np.array_equal(_sign_change_counts(vals, u), np.count_nonzero(steps, axis=1))
        assert np.array_equal(_upcrossing_counts(vals, u),
                              np.count_nonzero(steps == -1, axis=1))
    if width > 2**16:
        assert _sign_change_counts(vals, 0.0)[0] == 2**16


def test_impulse_windows_keep_the_domain_checks():
    model = _impulse_model()
    with pytest.raises(DomainError):
        _impulse_values(model, [1, 2], np.linspace(-0.5, 11.0, 50))
    with pytest.raises(DomainError):
        sample_realization(model, 1).value(np.linspace(-0.5, 11.0, 50))
    with pytest.raises(ConfigurationError, match="exceeds the model domain"):
        measure_only(_cfg(model=SHOT, levels=[0.5], box=[-1.0, 11.0]), 1)
    with pytest.raises(ConfigurationError, match="smaller than kernel support"):
        measure_only(_cfg(model=dict(SHOT, domain=[0.0, 1.0]), levels=[0.5],
                          box=[0.2, 0.8]), 1)


def _euler_line_reference(cfg, model, seeds):
    """Signed critical-point counts and critical-point numbers, one realization at a time."""
    out = np.empty((len(seeds), len(cfg.levels)))
    n_crit = []
    for i, s in enumerate(seeds):
        real = sample_realization(model, s)
        slope = DeterministicField(value_fn=real.derivative,
                                   jacobian_fn=real.second_derivative, d=1, D=1)
        crit = count_roots_1d(slope, cfg.box, 0.0, grid=cfg.grid)
        pts = crit.points.ravel()
        signs = -np.sign(crit.signed)
        vals = np.asarray(real.value(pts), dtype=float) if pts.size else pts
        for j, u in enumerate(cfg.levels):
            out[i, j] = float(np.sum(signs[vals > float(u)])) if pts.size else 0.0
        n_crit.append(pts.size)
    return out, n_crit


@pytest.mark.parametrize("master_seed", [3, 2**64 - 1])
def test_euler_line_chunk_matches_per_realization_reference(monkeypatch, master_seed):
    # a short box leaves some rows without any critical point; a small block
    # size makes the seeds span several corpus blocks
    model = SpectralGaussian1D.harmonics(12, seed=4)
    cfg = _cfg(model=model_to_doc(model), estimator="euler", levels=[-0.5, 0.0, 1.0],
               box=[0.0, 1.5], grid=256, inner_mc=1000)
    seeds = [fanout_seed(master_seed, "t", i) for i in range(23)]
    monkeypatch.setattr(harness, "_CORPUS_BLOCK", 8)
    got = _euler_line_chunk(_prepare(cfg), seeds, master_seed, 0)["values"]
    want, n_crit = _euler_line_reference(cfg, model, seeds)
    assert np.array_equal(got, want)
    assert 0 in n_crit and max(n_crit) >= 2


def test_grid_crossings_share_the_below_level_rule():
    # a row through an exact grid zero crosses once
    row = np.array([[-1.0, 0.0, 1.0]])
    assert _sign_change_counts(row, 0.0).tolist() == [1]
    assert _upcrossing_counts(row, 0.0).tolist() == [1]
    assert _upcrossing_counts(row[:, ::-1], 0.0).tolist() == [0]
    # a product of neighbours that underflows still crosses
    tiny = np.array([[-1e-200, 1e-200], [1e-200, -1e-200]])
    assert _sign_change_counts(tiny, 0.0).tolist() == [1, 1]
    assert _upcrossing_counts(tiny, 0.0).tolist() == [1, 0]


def test_length_experiment_collects_line_cross_check():
    ring = {
        "kind": "spectral_gaussian_2d",
        "wavevectors": [
            [3.0, 0.0], [0.0, 3.0], [2.1, 2.1], [2.1, -2.1], [1.3, 2.7], [2.7, 1.3]
        ],
        "amplitudes": [math.sqrt(1.0 / 6.0)] * 6,
    }
    cfg = ExperimentConfig(
        experiment_id="len",
        model=ring,
        levels=[0.0],
        estimator="length",
        n_realizations=30,
        box=[[0.0, 1.0], [0.0, 1.0]],
        grid=96,
        n_lines=1000,
    )
    report = run_experiment(cfg, master_seed=7)
    assert "favard_mean" in report.extras
    assert report.extras["favard_n"] == 30
    # per-level tallies: nearly every realization's line estimate brackets
    # its marching length
    assert report.extras["favard_within"][0] >= 28
    assert report.extras["favard_se"][0] > 0.0


def test_planar_counts_report_degree_checks():
    # report only: every realization (and level) is tallied once at most
    ring = SpectralGaussian2D.isotropic_ring(6, 3.0)
    for estimator, model, levels in (
            ("euler", model_to_doc(ring), [0.5]),
            ("roots", model_to_doc(GradientField(ring)), [[0.0, 0.0], [0.5, -0.5]])):
        cfg = ExperimentConfig(experiment_id="deg", model=model, levels=levels,
                               estimator=estimator, n_realizations=30,
                               box=[[0.0, 1.0], [0.0, 1.0]], grid=64)
        extras = measure_only(cfg, master_seed=3)["extras"]
        assert set(extras) == {"degree_mismatches", "degree_unresolved"}
        assert all(isinstance(v, int) for v in extras.values())
        assert extras["degree_mismatches"] + extras["degree_unresolved"] <= 30 * len(levels)


ANISO5 = {"kind": "spectral_gaussian_2d",
          "wavevectors": [[2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.5, -0.5], [0.3, 2.2]],
          "amplitudes": [0.5, 0.6, 0.3, 0.4, 0.35]}


@pytest.mark.parametrize("base", [RING, ANISO5], ids=["ring", "aniso"])
def test_gradient_field_predictions_match_measurements(base):
    # critical-point counts and each index class within 3 SE of the closed
    # forms, on an isotropic and an anisotropic field
    model = model_to_doc(GradientField(model_from_doc(base)))
    for estimator, weight in [("roots", None)] + [
            ("weighted", {"kind": "index", "k": k}) for k in (0, 1, 2)]:
        cfg = ExperimentConfig(experiment_id="crit", model=model,
                               levels=[[0.0, 0.0], [0.5, -0.5]], estimator=estimator,
                               weight=weight, n_realizations=100,
                               box=[[0.0, 4.0], [0.0, 4.0]], grid=128)
        report = run_experiment(cfg, master_seed=7)
        for row in report.rows:
            assert row.rhs_mc_error == 0.0 and row.rhs_quadrature_error == 0.0
            assert abs(row.lhs_mean - row.rhs_value) <= 3.0 * row.lhs_se, (weight, row)
        assert report.extras["degree_mismatches"] == 0


def test_default_image_region_contains_all_images():
    from ricelab.fields import MicrolensModel, sample_realization
    from ricelab.levelsets import count_roots_2d

    model = MicrolensModel(kappa_c=2.0, gamma=0.0, m=0.2, n_stars=3, R=1.0)
    y = np.array([0.25, 0.1])
    region = default_image_region(model, y)
    assert region["kind"] == "disk"
    rad = region["radius"]
    # image equation forces |c| |x|^2 <= |y| |x| + (deflection bound); any
    # root must land inside the derived disk with its 10% margin
    for seed in range(8):
        r = sample_realization(model, seed=seed)
        rs = count_roots_2d(r, [(-rad, rad), (-rad, rad)], y, grid=96)
        assert np.all(np.linalg.norm(rs.points, axis=1) <= rad)


@pytest.mark.parametrize("n_stars", [1, 2, 3, 5])
def test_default_image_region_holds_every_image_without_linear_term(n_stars):
    # c = 0: |x| <= R + 2mN/|y| for y != 0, and |x| <= R at y = 0 (Gauss-Lucas);
    # the bound itself holds, before the disk's 10% margin
    from ricelab.fields import MicrolensModel, sample_realization
    from ricelab.levelsets import lens_images

    model = MicrolensModel(kappa_c=1.0, gamma=0.0, m=0.2, n_stars=n_stars, R=1.0)
    stars = np.array([sample_realization(model, s).star_positions for s in range(200)])
    for y, degree in (([0.25, 0.1], n_stars), ([0.0, 0.0], n_stars - 1),
                      ([2.0, -1.5], n_stars), ([0.01, 0.0], n_stars)):
        region = default_image_region(model, y)
        assert region["kind"] == "disk" and region["center"] == [0.0, 0.0]
        images, certified = lens_images(stars, np.array(y), model.c, model.m)
        assert certified.all()
        assert np.bincount(images.rows, minlength=200).tolist() == [degree] * 200
        farthest = np.max(np.hypot(*images.points.T), initial=0.0)
        assert farthest <= region["radius"] / 1.1 * (1.0 + 1e-12)


def _count_images(system, box, y, region, grid0):
    """``(count, escalated, unresolved)`` of the reference grid counter.

    The seed grid of ``count_roots_2d`` doubles, up to 1024, until the sum of
    sign det J over the images is 1 - N.
    """
    target = 1 - system.star_positions.shape[0]
    g = grid0
    while True:
        roots = count_roots_2d(system, box, y, grid=g)
        resolved = int(np.sum(np.sign(roots.signed))) == target
        if resolved or g >= 1024:
            count = int(np.sum(region_mask(roots.points, region)))
            return count, g > grid0, not resolved
        g *= 2


def _grid_image_counts(cfg, master_seed, n):
    """Per-field counts of the reference grid counter."""
    model = model_from_doc(dict(cfg.model))
    region, box = harness._lens_geometry(cfg, model, cfg.levels[0])
    y = np.asarray(cfg.levels[0], dtype=float)
    return np.array([
        _count_images(
            sample_realization(model, fanout_seed(master_seed, cfg.experiment_id, i)),
            box, y, region, cfg.grid)[0]
        for i in range(n)])


@pytest.mark.parametrize("master_seed", [1, 2, 3])
def test_lens_polynomial_counts_match_grid_counter(master_seed):
    # the bench-scale lens-images experiment: 60 fields, 3 stars
    cfg = _cfg(experiment_id="lens-images", model=LENS3, levels=[[0.25, 0.1]],
               box=None, n_realizations=60, grid=64)
    part = _chunk_lhs(_prepare(cfg), master_seed, 0, 60)
    assert part["extras"] == {"parity_unresolved": 0}
    assert np.array_equal(part["values"][:, 0], _grid_image_counts(cfg, master_seed, 60))


@pytest.mark.parametrize("n_stars", [6, 10])
def test_lens_counts_at_many_stars_are_certified_and_match_grid_counter(n_stars):
    # degrees 37 and 101, where a solve from expanded coefficients loses
    # images on some (6 stars) or most (10 stars) fields
    cfg = _cfg(experiment_id=f"n{n_stars}", model=dict(LENS0, n_stars=n_stars),
               levels=[[0.25, 0.1]], box=None, n_realizations=30, grid=64)
    part = _chunk_lhs(_prepare(cfg), 2, 0, 20)
    assert part["extras"] == {"parity_unresolved": 0}
    assert np.array_equal(part["values"][:, 0], _grid_image_counts(cfg, 2, 20))


def test_lens_vanishing_linear_term_is_measured_and_certified():
    # c = 1 - kappa_c + gamma = 0 needs an explicit region; every field has
    # one image, which the image polynomial of degree N = 1 certifies
    cfg = _cfg(experiment_id="c0", model=dict(LENS0, kappa_c=1.0, n_stars=1),
               levels=[[0.25, 0.1]], box=None, n_realizations=30,
               region={"kind": "disk", "center": [0.0, 0.0], "radius": 3.0})
    out = measure_only(cfg, master_seed=1)
    assert out["extras"] == {"parity_unresolved": 0}
    assert [row["lhs_mean"] for row in out["rows"]] == [1.0]


def test_lens_image_between_close_stars_counts():
    # lens-images field 3068 at master seed 11: two stars 0.0035 apart with an
    # image between them (det J ~ -7e10), which the reference grid counter
    # misses up to grid 1024 and reports as unresolved with a count of 1
    cfg = _cfg(experiment_id="lens-images", model=LENS3, levels=[[0.25, 0.1]],
               box=None, n_realizations=30, grid=64)
    model = model_from_doc(LENS3)
    region, box = harness._lens_geometry(cfg, model, cfg.levels[0])
    y = np.array([0.25, 0.1])
    system = sample_realization(model, fanout_seed(11, "lens-images", 3068))
    images, certified = lens_images(system.star_positions[None], y, model.c, model.m)
    assert certified.tolist() == [True]
    assert images.count == 2
    assert np.max(images.deltas) > 1e10
    assert _chunk_lhs(_prepare(cfg), 11, 3068, 3069)["values"].tolist() == [[2.0]]
    assert _count_images(system, box, y, region, 64) == (1, True, True)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _tiny_manifest():
    return {
        "schema_version": 1,
        "experiments": [
            {
                "experiment_id": "exact",
                "model": SINGLE,
                "levels": [0.0],
                "estimator": "roots",
                "n_realizations": 40,
                "box": [0.0, TWO_PI],
                "grid": 512,
            },
            {
                "experiment_id": "pairs-degenerate",
                "model": SINGLE,
                "levels": [0.0],
                "estimator": "moment2",
                "n_realizations": 40,
                "box": [0.0, TWO_PI],
                "grid": 512,
            },
        ],
    }


def test_load_manifest_shapes():
    assert len(load_manifest(_tiny_manifest())) == 2
    assert len(load_manifest(_tiny_manifest()["experiments"])) == 2
    with pytest.raises(ConfigurationError):
        load_manifest({"experiments": []})
    with pytest.raises(ConfigurationError):
        load_manifest({"schema_version": 1})
    with pytest.raises(ConfigurationError):
        load_manifest(42)


def test_run_suite_captures_errors_and_writes_outputs(tmp_path):
    out = str(tmp_path / "results")
    suite = run_suite(_tiny_manifest(), master_seed=11, out_dir=out)
    assert suite.n_pass == 1 and suite.n_error == 1 and suite.n_fail == 0
    statuses = {e["experiment_id"]: e["status"] for e in suite.entries}
    assert statuses == {"exact": "pass", "pairs-degenerate": "error"}
    err = next(e for e in suite.entries if e["status"] == "error")
    assert "singular" in err["detail"]
    assert os.path.exists(os.path.join(out, "exact.report.json"))
    assert not os.path.exists(os.path.join(out, "pairs-degenerate.report.json"))
    csv_path = os.path.join(out, "suite_summary.csv")
    with open(csv_path) as fh:
        text = fh.read()
    assert text.startswith("# ricelab suite summary schema_version=1")
    assert "pairs-degenerate" in text


def test_run_suite_rejects_duplicate_ids():
    doc = _tiny_manifest()
    doc["experiments"][1] = dict(doc["experiments"][0])
    with pytest.raises(ConfigurationError):
        run_suite(doc, master_seed=1)


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------


def test_emit_plot_data_sorts_and_labels(tmp_path):
    cfg = _cfg(model=PAIR, levels=[0.5, -0.5, 0.0], box=[0.0, 8.0],
               n_realizations=40)
    report = run_experiment(cfg, master_seed=8)
    path = str(tmp_path / "plot.csv")
    emit_plot_data([report], "roots", path)
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].startswith("# ricelab plot data schema_version=1")
    assert "quantity=roots" in lines[0]
    header = lines[1].split(",")
    assert header == ["level", "lhs_mean", "lhs_halfwidth", "rhs_value", "rhs_error"]
    levels = [float(row.split(",")[0]) for row in lines[2:]]
    assert levels == sorted(levels)
    assert len(levels) == 3


def test_emit_plot_data_validations(tmp_path):
    cfg = _cfg(model=PAIR, levels=[0.0], box=[0.0, 8.0], n_realizations=40)
    report = run_experiment(cfg, master_seed=9)
    other = run_experiment(
        _cfg(model=PAIR, levels=[0.0], box=[0.0, 8.0], n_realizations=40,
             estimator="euler", grid=1024, inner_mc=4096),
        master_seed=9,
    )
    with pytest.raises(ConfigurationError):
        emit_plot_data([report, other], "roots", str(tmp_path / "x.csv"))
    with pytest.raises(ConfigurationError):
        emit_plot_data([], "roots", str(tmp_path / "y.csv"))
    # a boolean level read back from a report is not a scalar level
    flagged = dataclasses.replace(
        report, rows=(dataclasses.replace(report.rows[0], level=True),))
    with pytest.raises(ConfigurationError, match="scalar levels"):
        emit_plot_data([flagged], "roots", str(tmp_path / "z.csv"))
