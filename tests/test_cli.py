import json
import math
import os

import numpy as np
import pytest

from ricelab import cli, harness
from ricelab.cli import main

TWO_PI = 2.0 * math.pi

SINGLE = {"kind": "spectral_gaussian_1d", "frequencies": [1.0], "amplitudes": [1.0]}
PAIR = {
    "kind": "spectral_gaussian_1d",
    "frequencies": [1.0, 2.5],
    "amplitudes": [math.sqrt(0.5), math.sqrt(0.5)],
}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _exact_experiment(**over):
    doc = {
        "experiment_id": "cli-exact",
        "model": SINGLE,
        "levels": [0.0],
        "estimator": "roots",
        "n_realizations": 40,
        "box": [0.0, TWO_PI],
        "grid": 512,
    }
    doc.update(over)
    return doc


def test_validate_pass_exit_zero(tmp_path, capsys):
    cfg = _write(tmp_path, "exp.json", _exact_experiment())
    assert main(["validate", "--config", cfg, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "cli-exact" in out and "pass" in out


def test_validate_fail_exit_one(tmp_path, capsys):
    # an unachievable tolerance turns the experiment into a hard fail
    doc = _exact_experiment(z_crit=1e-6, abs_floor=1e-12, levels=[0.5])
    cfg = _write(tmp_path, "exp.json", doc)
    assert main(["validate", "--config", cfg, "--seed", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_writes_report(tmp_path, capsys):
    cfg = _write(tmp_path, "exp.json", _exact_experiment())
    out = str(tmp_path / "report.json")
    assert main(["validate", "--config", cfg, "--out", out]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["kind"] == "experiment_report" and doc["passed"] is True


def test_config_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["validate", "--config", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["validate", "--config", str(bad)]) == 2
    wrong = _write(tmp_path, "wrong.json", _exact_experiment(estimator="flux"))
    assert main(["validate", "--config", wrong]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


@pytest.mark.parametrize("over", [
    {"n_realizations": "many"}, {"grid": [4]}, {"z_crit": "x"},
    {"n_realizations": 30.9}, {"z_crit": math.inf}, {"abs_floor": math.nan},
    {"grid": True}, {"n_realizations": 10 ** 400},
], ids=["text-count", "list-grid", "text-z", "fractional-count", "inf-z",
        "nan-floor", "bool-grid", "huge-count"])
def test_malformed_config_numbers_exit_two(tmp_path, capsys, over):
    # these once crashed in int()/float() (exit 3) or were truncated (30.9 -> 30);
    # a 401-digit JSON integer overflowed the finiteness test (exit 3)
    cfg = _write(tmp_path, "exp.json", _exact_experiment(**over))
    assert main(["validate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and next(iter(over)) in err


LENS3 = {"kind": "microlens", "kappa_c": 2.0, "gamma": 0.0, "m": 0.2, "n_stars": 3, "R": 1.0}


SHOT = {"kind": "shot_noise", "eta": 0.7, "intensity": 1.5, "domain": [0.0, 12.0],
        "beta_low": 0.5, "beta_high": 1.5}


def _model_with(key, value) -> dict:
    """An experiment whose model document sets ``key`` to ``value``."""
    if key == "n":
        return _exact_experiment(model={"kind": "chi_square", "n": value, "base": PAIR},
                                 levels=[1.0])
    if key in SHOT:
        return _exact_experiment(model=dict(SHOT, **{key: value}), levels=[0.5],
                                 box=[1.0, 11.0])
    if key in PAIR:
        return _exact_experiment(model=dict(PAIR, **{key: value}))
    return _exact_experiment(model=dict(LENS3, **{key: value}), levels=[[0.25, 0.1]],
                             box=None)


@pytest.mark.parametrize("key, value", [
    ("n_stars", 2.5), ("n_stars", True), ("gamma", math.nan), ("m", math.inf),
    ("R", math.nan), ("kappa_c", math.nan), ("n", 2.5),
    ("domain", [0.0, math.inf]), ("domain", [0.0, 6.0, "x"]), ("beta_high", math.inf),
    ("eta", True), ("frequencies", [True, 2.0]), ("domain", [0.0, 1e300]),
    ("intensity", 1e300),
], ids=["fractional-stars", "bool-stars", "nan-gamma", "inf-mass", "nan-radius",
        "nan-kappa", "fractional-chi2-n", "inf-shot-domain", "long-shot-domain",
        "inf-beta-high", "bool-eta", "bool-frequency", "huge-shot-domain",
        "huge-intensity"])
def test_malformed_model_numbers_exit_two(tmp_path, capsys, key, value):
    # n_stars 2.5 and n 2.5 were truncated to 2, true taken as 1 star, and a
    # nan kappa_c reached the prediction (exit 3); a shot-noise domain bound
    # of 1e400 (JSON for inf) crashed the Poisson draw (exit 3), a third
    # domain entry and an infinite beta_high ran (exit 0), and true ran as
    # eta 1 or frequency 1; a finite domain of length 1e300, or intensity
    # 1e300, asked the Poisson draw for more points than it can give (exit 3)
    cfg = _write(tmp_path, "exp.json", _model_with(key, value))
    for command in ("measure", "kacrice"):
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err
        assert "box" not in err


@pytest.mark.parametrize("estimator", ["roots", "local_time"])
def test_planar_chi_square_line_estimators_exit_two(tmp_path, capsys, estimator):
    # the line estimators read a 1D corpus: a planar base is a bad config
    ring = {"kind": "spectral_gaussian_2d", "wavevectors": [[3.0, 0.0], [0.0, 3.0]],
            "amplitudes": [math.sqrt(0.5), math.sqrt(0.5)]}
    doc = _exact_experiment(model={"kind": "chi_square", "n": 2, "base": ring},
                            levels=[1.0], estimator=estimator,
                            box=[[0.0, 1.0], [0.0, 1.0]], grid=64)
    if estimator == "local_time":
        doc["delta"] = 0.2
    cfg = _write(tmp_path, "exp.json", doc)
    assert main(["measure", "--config", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("box", [[-1.0, 11.0], [1.0, 12.5]], ids=["below", "above"])
def test_impulse_sum_box_outside_domain_exits_two(tmp_path, capsys, box):
    shot = {"kind": "shot_noise", "eta": 0.7, "intensity": 1.5, "domain": [0.0, 12.0],
            "beta_low": 0.5, "beta_high": 2.0}
    cfg = _write(tmp_path, "exp.json", _exact_experiment(model=shot, levels=[0.5], box=box))
    for command in ("validate", "measure"):
        assert main([command, "--config", cfg]) == 2
        assert "exceeds the model domain" in capsys.readouterr().err


def test_shot_noise_domain_shorter_than_kernel_support_exits_two(tmp_path, capsys):
    # domain [0, 1] is shorter than 2 eta = 1.4: kacrice once predicted it
    # (exit 0) while measure and validate refused it at the first draw
    shot = {"kind": "shot_noise", "eta": 0.7, "intensity": 1.5, "domain": [0.0, 1.0],
            "beta_low": 0.5, "beta_high": 2.0}
    cfg = _write(tmp_path, "exp.json", _exact_experiment(model=shot, levels=[0.5],
                                                         box=[0.2, 0.8]))
    for command in ("kacrice", "measure", "validate"):
        assert main([command, "--config", cfg]) == 2
        assert "smaller than kernel support" in capsys.readouterr().err


def test_runtime_errors_exit_three(tmp_path, capsys):
    # degenerate pair prediction raises inside a structurally valid config
    doc = _exact_experiment(estimator="moment2")
    cfg = _write(tmp_path, "exp.json", doc)
    assert main(["validate", "--config", cfg]) == 3
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_exits_two(tmp_path, capsys, seed):
    # seeds are uint64: -1 once overflowed inside the stream hash (exit 1,
    # read as a failed verdict) and 2**64 was accepted silently (exit 0)
    cfg = _write(tmp_path, "exp.json", _exact_experiment())
    for command in ("validate", "measure", "kacrice"):
        assert main([command, "--config", cfg, "--seed", seed]) == 2
        assert "uint64" in capsys.readouterr().err
    assert main(["crofton", "--samples", "100", "--seed", seed]) == 2


def test_unexpected_exception_exits_three(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_validate", broken)
    cfg = _write(tmp_path, "exp.json", _exact_experiment())
    assert main(["validate", "--config", cfg]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "internal error: RuntimeError: boom" in err[0]


def test_simulate_exports_grids(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "sim.json",
        {"model": PAIR, "box": [0.0, 6.0], "grid": 64, "count": 3},
    )
    out_dir = str(tmp_path / "grids")
    assert main(["simulate", "--config", cfg, "--out", out_dir, "--seed", "9"]) == 0
    listed = capsys.readouterr().out.strip().splitlines()
    assert len(listed) == 3
    for i in range(3):
        side = os.path.join(out_dir, f"sample-{i:04d}.json")
        assert os.path.exists(side)
        with open(side) as fh:
            meta = json.load(fh)
        vals = np.fromfile(
            os.path.join(out_dir, meta["values_file"]), dtype=meta["dtype"]
        )
        assert vals.shape == (64,)
        assert np.all(np.isfinite(vals))
    # distinct seeds per sample: files differ
    a = np.fromfile(os.path.join(out_dir, "sample-0000.values.bin"))
    b = np.fromfile(os.path.join(out_dir, "sample-0001.values.bin"))
    assert not np.array_equal(a, b)


def test_simulate_rejects_incomplete_config(tmp_path):
    cfg = _write(tmp_path, "sim.json", {"model": PAIR, "grid": 16, "count": 1})
    assert main(["simulate", "--config", cfg]) == 2


@pytest.mark.parametrize("over", [{"grid": "x"}, {"grid": 16.5}, {"count": "two"},
                                  {"count": [1]}])
def test_simulate_non_integer_grid_or_count_exits_two(tmp_path, capsys, over):
    doc = dict({"model": PAIR, "box": [0.0, 6.0], "grid": 16, "count": 1}, **over)
    cfg = _write(tmp_path, "sim.json", doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "g")]) == 2
    assert next(iter(over)) in capsys.readouterr().err


@pytest.mark.parametrize("box", ["x", [6.0, 0.0], [[0.0, 1.0], [0.0, 1.0]], [0.0, math.inf]],
                         ids=["text", "reversed", "planar", "infinite"])
def test_simulate_bad_box_exits_two(tmp_path, capsys, box):
    # "x" once crashed in the grid sampler (exit 3, internal error)
    doc = {"model": PAIR, "box": box, "grid": 16, "count": 1}
    cfg = _write(tmp_path, "sim.json", doc)
    out_dir = tmp_path / "g"
    assert main(["simulate", "--config", cfg, "--out", str(out_dir)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["validate", "kacrice"])
def test_boolean_level_exits_two(tmp_path, capsys, command):
    # true once ran as level 1 and printed "level": true
    cfg = _write(tmp_path, "exp.json", _exact_experiment(levels=[True]))
    assert main([command, "--config", cfg]) == 2
    assert "levels must be finite scalars" in capsys.readouterr().err


_LENS = {"kind": "microlens", "kappa_c": 2.0, "gamma": 0.0, "m": 0.2, "n_stars": 3,
         "R": 1.0}


@pytest.mark.parametrize("command, doc", [
    ("kacrice", _exact_experiment(box=[True, 6.0])),
    ("kacrice", _exact_experiment(box=["0", 6.0])),
    ("validate", _exact_experiment(model=PAIR, box=[0.0, True])),
    ("kacrice", _exact_experiment(model=_LENS, levels=[[0.25, 0.1]], box=None,
                                  region=[[-2.0, True], [-2.0, 2.0]])),
    ("simulate", {"model": PAIR, "box": [True, 6.0], "grid": 16, "count": 1}),
], ids=["bool-lo", "text-lo", "bool-hi", "lens-region", "simulate"])
def test_non_numeric_box_entry_exits_two(tmp_path, capsys, command, doc):
    # true once ran as 1.0 (a line prediction on [1, 6], exit 0) and the
    # config doc echoed it; "0" ran as 0.0
    doc = {k: v for k, v in doc.items() if v is not None}
    cfg = _write(tmp_path, "exp.json", doc)
    args = [command, "--config", cfg]
    if command == "simulate":
        args += ["--out", str(tmp_path / "g")]
    assert main(args) == 2
    assert "box bound must be a finite number" in capsys.readouterr().err


def test_lens_without_linear_term_measures_in_default_disk(tmp_path, capsys):
    # c = 1 - kappa_c + gamma = 0 and no region: the default disk of radius
    # 1.1 (R + 2mN/|y|), or 1.1 R at y = 0, holds all N (N - 1 at y = 0) images
    lens = {"kind": "microlens", "kappa_c": 1.0, "gamma": 0.0, "m": 0.2,
            "n_stars": 3, "R": 1.0}
    doc = _exact_experiment(model=lens, levels=[[0.25, 0.1], [0.0, 0.0]], box=None, grid=64)
    del doc["box"]
    cfg = _write(tmp_path, "exp.json", doc)
    assert main(["measure", "--config", cfg, "--seed", "1"]) in (0, 1)
    out = json.loads(capsys.readouterr().out)
    assert [row["lhs_mean"] for row in out["rows"]] == [3.0, 2.0]
    assert out["extras"]["parity_unresolved"] == 0


def test_subcritical_lens_prediction_exits_two_before_measuring(tmp_path, capsys,
                                                               monkeypatch):
    # c = 1 - kappa_c + gamma = 0.5: its images can be counted, not predicted;
    # validate once measured every field and then exited 3
    lens = {"kind": "microlens", "kappa_c": 0.5, "gamma": 0.0, "m": 0.2,
            "n_stars": 3, "R": 1.0}
    doc = _exact_experiment(model=lens, levels=[[0.25, 0.1]], grid=64)
    del doc["box"]
    cfg = _write(tmp_path, "exp.json", doc)
    measured = []
    with monkeypatch.context() as m:
        m.setattr(harness, "measure_only", lambda *args, **kw: measured.append(args))
        for command in ("kacrice", "validate"):
            assert main([command, "--config", cfg, "--seed", "1"]) == 2
            err = capsys.readouterr().err
            assert "configuration error" in err and "supercritical deflection" in err
    assert measured == []
    assert main(["measure", "--config", cfg, "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["lhs_mean"] > 0.0


@pytest.mark.parametrize("region", [
    {"radius": "x"}, {"radius": [2.0]}, {"radius": math.inf}, {"radius": True},
    {"radius": 0.0}, {"radius": None}, {"center": "ab"}, {"center": [0.0, True]},
    {"center": [0.0, math.nan]}, {"center": [0.0]},
], ids=["text-radius", "list-radius", "inf-radius", "bool-radius", "zero-radius",
        "no-radius", "text-center", "bool-center", "nan-center", "short-center"])
def test_malformed_lens_region_exits_two(tmp_path, capsys, region):
    # text and list values once crashed in float() (exit 3), an infinite
    # radius failed inside the run, and true ran as radius 1
    lens = {"kind": "microlens", "kappa_c": 2.0, "gamma": 0.0, "m": 0.2,
            "n_stars": 3, "R": 1.0}
    disk = dict({"kind": "disk", "center": [0.0, 0.0], "radius": 2.0}, **region)
    doc = _exact_experiment(model=lens, levels=[[0.25, 0.1]], grid=64, region=disk)
    del doc["box"]
    cfg = _write(tmp_path, "exp.json", doc)
    assert main(["kacrice", "--config", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_measure_json_and_csv(tmp_path, capsys):
    cfg = _write(
        tmp_path, "exp.json",
        _exact_experiment(model=PAIR, levels=[0.0, 0.5], box=[0.0, 6.0]),
    )
    assert main(["measure", "--config", cfg, "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "measurement" and len(doc["rows"]) == 2
    out_csv = str(tmp_path / "m.csv")
    assert main(
        ["measure", "--config", cfg, "--seed", "2", "--format", "csv",
         "--out", out_csv]
    ) == 0
    with open(out_csv) as fh:
        text = fh.read()
    assert text.startswith("# ricelab measurement schema_version=1")
    assert "lhs_mean" in text


def test_kacrice_prediction_output(tmp_path, capsys):
    cfg = _write(tmp_path, "exp.json", _exact_experiment())
    assert main(["kacrice", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "prediction"
    assert doc["rows"][0]["rhs_value"] == pytest.approx(2.0, abs=1e-9)


def test_crofton_self_check(capsys):
    assert main(["crofton", "--samples", "50000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "D=2 m=1" in out and "D=3 m=2" in out


def test_suite_exit_codes_and_outputs(tmp_path, capsys):
    ok = {
        "schema_version": 1,
        "experiments": [_exact_experiment(experiment_id="a")],
    }
    cfg = _write(tmp_path, "suite.json", ok)
    out_dir = str(tmp_path / "res")
    assert main(["suite", "--config", cfg, "--out", out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "a.report.json"))
    assert os.path.exists(os.path.join(out_dir, "suite_summary.csv"))
    assert "1 pass, 0 fail, 0 error" in capsys.readouterr().out

    mixed = {
        "experiments": [
            _exact_experiment(experiment_id="a"),
            _exact_experiment(experiment_id="b", estimator="moment2"),
        ]
    }
    cfg2 = _write(tmp_path, "suite2.json", mixed)
    assert main(["suite", "--config", cfg2]) == 3

    failing = {
        "experiments": [
            _exact_experiment(experiment_id="c", levels=[0.5], z_crit=1e-6,
                              abs_floor=1e-12)
        ]
    }
    cfg3 = _write(tmp_path, "suite3.json", failing)
    assert main(["suite", "--config", cfg3]) == 1


def test_suite_prints_the_expected_chance_failures(tmp_path, capsys):
    # erfc(z_crit / sqrt 2) for each row with an error budget: three rows at
    # z_crit = 3 and one at 2.5; the exact row (no error on either side)
    # cannot fail by chance
    suite = {
        "experiments": [
            _exact_experiment(experiment_id="exact"),
            _exact_experiment(experiment_id="sweep", model=PAIR, levels=[-0.5, 0.0, 0.5],
                              box=[0.0, 6.0]),
            _exact_experiment(experiment_id="loose", model=PAIR, box=[0.0, 6.0], z_crit=2.5),
        ]
    }
    assert main(["suite", "--config", _write(tmp_path, "suite.json", suite)]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = 3 * math.erfc(3.0 / math.sqrt(2.0)) + math.erfc(2.5 / math.sqrt(2.0))
    assert lines[-2] == "3 pass, 0 fail, 0 error"
    assert lines[-1] == f"{expected:.4f} failed rows expected by chance"
    assert lines[-1] == "0.0205 failed rows expected by chance"


def test_plot_data_from_report_directory(tmp_path, capsys):
    suite = {
        "experiments": [
            _exact_experiment(
                experiment_id="sweep", model=PAIR, levels=[-0.5, 0.0, 0.5],
                box=[0.0, 6.0]
            )
        ]
    }
    cfg = _write(tmp_path, "suite.json", suite)
    out_dir = str(tmp_path / "res")
    assert main(["suite", "--config", cfg, "--out", out_dir]) == 0
    capsys.readouterr()
    plot = str(tmp_path / "plot.csv")
    assert main(
        ["plot-data", "--config", out_dir, "--quantity", "roots", "--out", plot]
    ) == 0
    with open(plot) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].startswith("# ricelab plot data")
    assert len(lines) == 5  # banner, header, three levels
    assert main(
        ["plot-data", "--config", out_dir, "--quantity", "length", "--out", plot]
    ) == 2  # estimator mismatch is a configuration error


def test_plot_data_on_a_report_without_rows_exits_two(tmp_path, capsys):
    config = {**_exact_experiment(), "kind": "experiment"}
    path = _write(tmp_path, "x.report.json",
                  {"config": config, "master_seed": 1, "passed": True})
    assert main(["plot-data", "--config", path, "--quantity", "roots",
                 "--out", str(tmp_path / "plot.csv")]) == 2
    assert "rows" in capsys.readouterr().err


def test_usage_error_exit_two(capsys):
    assert main(["validate"]) == 2  # missing --config
    capsys.readouterr()
