"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9._-]+$")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, parent, start, end, attrs=None):
    return [name, parent, start, end, attrs]


def test_self_time_is_duration_minus_covered_child_time():
    spans = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 3.0),
        _span("b", 0, 2.0, 5.0),  # overlaps a: together they cover 1..5
        _span("c", 0, 8.0, 12.0),  # runs past the root's end: 8..10 covered
        _span("a.child", 1, 1.5, 2.5),
        _span("leaf", -1, 20.0, 21.5),
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx([10.0 - 4.0 - 2.0, 2.0 - 1.0, 3.0, 4.0, 1.0, 1.5])


def test_layer_metrics_attribute_self_time_and_counts():
    spans = [
        _span("harness.measure_only", -1, 0.0, 10.0),
        _span("levelsets.count_roots_2d", 0, 1.0, 7.0, {"roots": 3}),
        _span("fields.eval.value", 1, 2.0, 4.0, {"points": 1000}),
        _span("fields.eval.jacobian", 1, 4.0, 5.0, {"points": 2000}),
        _span("fields.eval.value", 0, 8.0, 9.0, {"points": 7}),
    ]
    m = tracer.layer_metrics(spans)
    assert m["harness.self_s"] == pytest.approx(3.0)
    assert m["levelsets.count_roots_2d.self_s"] == pytest.approx(3.0)
    assert m["levelsets.count_roots_2d.field_points"] == 3000
    assert m["levelsets.count_roots_2d.roots_per_kpoint"] == pytest.approx(1.0)
    assert m["fields.eval_s"] == pytest.approx(4.0)
    assert m["fields.eval_calls"] == 3
    assert m["fields.eval_points.value"] == 1007


def test_wrappers_restore_originals():
    from ricelab import engine, fields, geometry, harness, levelsets, rng

    owners = (harness, levelsets, rng, fields, engine, geometry)
    before = [(o, dict(vars(o))) for o in owners]
    classes = [getattr(fields, c) for c in tracer.REALIZATION_CLASSES]
    methods = [(c, dict(vars(c))) for c in classes]
    t = tracer.Tracer()
    t.install()
    assert harness.count_roots_2d is not before[0][1]["count_roots_2d"]
    assert fields.TrigRealization2D.gradient is not methods[1][1]["gradient"]
    t.restore()
    for owner, attrs in before + methods:
        for key, val in attrs.items():
            assert vars(owner)[key] is val, (owner, key)


def test_traced_field_calls_count_once_at_the_outermost_call():
    from ricelab.fields import GradientField, SpectralGaussian2D, sample_realization

    real = sample_realization(GradientField(SpectralGaussian2D.isotropic_ring(6, 3.0)), 5)
    t = tracer.Tracer()
    t.install()
    try:
        real.value([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    finally:
        t.restore()
    assert [(s[0], s[4]) for s in t.spans] == [("fields.eval.value", {"points": 3})]


def test_seed_argument_reaches_master_seed(monkeypatch):
    from ricelab import harness

    args = run.parse_args(["--workload", "line", "--seed", "7", "--seconds", "1"])
    cmd = run.worker_cmd("run", args, 10.0)
    assert cmd[cmd.index("--seed") + 1] == "7"

    seen = []

    def fake_measure(cfg, master_seed, workers):
        seen.append(("measure", master_seed, workers))
        return {"rows": [{"level": 0.0, "lhs_mean": 1.0, "lhs_se": 0.1}], "extras": {}}

    def fake_predict(cfg, master_seed):
        seen.append(("predict", master_seed))
        return {"rows": [{"rhs_value": 1.0, "rhs_quadrature_error": 0.0,
                          "rhs_mc_error": 0.0}]}

    monkeypatch.setattr(harness, "measure_only", fake_measure)
    monkeypatch.setattr(harness, "predict_only", fake_predict)
    configs = worker.setup("line")[:1]
    records = worker.run_workload(configs, args.seed)
    assert seen == [("measure", 7, 1), ("predict", 7)]
    assert records[0]["rows"][0]["passed"]


def test_later_passes_get_their_own_deterministic_seeds():
    seeds = [worker.pass_seed(7, i) for i in range(50)]
    assert seeds[0] == 7
    assert seeds == [worker.pass_seed(7, i) for i in range(50)]
    assert len(set(seeds)) == 50 and all(0 <= s < 2**64 for s in seeds)
    assert worker.pass_seed(8, 1) != seeds[1]


def test_bench_scale_changes_only_named_experiments_and_fields():
    table = worker.load_workloads()
    ids = {e["experiment_id"] for w in table["workloads"].values() for e in w}
    assert set(table["bench_scale"]) <= ids
    for name, full in table["workloads"].items():
        bench = worker.scaled_docs(name, "bench")
        assert worker.scaled_docs(name, "full") == full
        for b, f in zip(bench, full):
            changed = {k for k in f if b[k] != f[k]}
            assert changed == set(table["bench_scale"].get(f["experiment_id"], {}))
            assert 30 <= b["n_realizations"] <= f["n_realizations"]


def test_speed_scales_by_the_trimmed_mean_kernel_time():
    ref = worker.KERNEL_REF_S
    assert run.speed([2 * ref] * 5) == pytest.approx(0.5)
    # ten samples: the lowest and the highest are trimmed, the rest averaged
    times = [ref / 10] + [ref, 2 * ref] * 4 + [ref * 10]
    assert run.speed(times) == pytest.approx(1 / 1.5)
    records = [{"kernel_times": [ref, ref]}, {"kernel_times": [ref / 2, ref / 2]}]
    assert run.run_speed(records) == pytest.approx(1 / 0.75)


def test_default_seed_is_the_reference_seed():
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    args = run.parse_args(["--workload", "line", "--seconds", "1"])
    assert args.seed == reference["seed"] == 1


def test_metric_names_and_limits():
    bench = _bench()
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    for name in e2e + layers + [w["name"] for w in bench["workloads"]]:
        assert NAME.match(name) and len(name) <= 64, name
    assert len(set(e2e + layers)) == len(e2e) + len(layers)
    assert "setup_s" in e2e


def test_reported_metrics_match_the_declared_ones():
    bench = _bench()
    ids = [e["experiment_id"] for w in worker.load_workloads()["workloads"].values()
           for e in w]
    derived = set(tracer.layer_metrics([]))
    derived |= {f"harness.{side}.{i}" for side in ("lhs_s", "rhs_s") for i in ids}
    derived |= {f"harness.{k}" for k in worker.PARITY_KEYS}
    derived |= {"harness.outputs_identical", "process.peak_rss_mb", "process.wall_over_cpu",
                "calib.kernel_s", "trace.overhead_frac"}
    assert derived == {m["name"] for m in bench["per_layer"]}
    assert {w["name"] for w in bench["workloads"]} == set(worker.load_workloads()["workloads"])


def test_reference_comparison_flags_flips_and_drift():
    row = {"level": 0.0, "passed": True, "lhs_mean": 10.0, "lhs_se": 0.2,
           "rhs_value": 10.1, "rhs_quadrature_error": 0.1, "rhs_mc_error": 0.05}
    ref = [{"id": "x", "rows": [row]}]
    tol = {"rtol": 1e-9, "atol": 1e-9, "k_sigma": 0.5}
    same = [{"id": "x", "rows": [dict(row)]}]
    assert run.reference_mismatches(same, ref, tol) == []
    smaller_error = [{"id": "x", "rows": [dict(row, rhs_quadrature_error=0.0)]}]
    assert run.reference_mismatches(smaller_error, ref, tol) == []
    flipped = [{"id": "x", "rows": [dict(row, passed=False)]}]
    assert "verdict flipped" in run.reference_mismatches(flipped, ref, tol)[0]
    drifted = [{"id": "x", "rows": [dict(row, rhs_value=10.3)]}]
    assert "rhs_value" in run.reference_mismatches(drifted, ref, tol)[0]
    raised = [{"id": "x", "levels": 1, "error": "Traceback"}]
    assert "raised" in run.reference_mismatches(raised, ref, tol)[0]

