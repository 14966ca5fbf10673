"""Command-line front end.

Exit codes: 0 success (all verdicts pass), 1 a verdict failed, 2 bad
configuration or usage, 3 runtime failure inside a valid configuration.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import sys
import traceback
from dataclasses import fields

from .errors import ConfigurationError, DomainError, RicelabError
from .fields import box_array, config_count, sample_realization
from .geometry import crofton_constant, crofton_identity_mc, normal_jacobian
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    LevelRow,
    emit_plot_data,
    load_manifest,
    measure_only,
    predict_only,
    run_experiment,
    run_suite,
)
from .levelsets import _grid_size, sample_grid
from .modelspec import SCHEMA_VERSION, model_from_doc
from .rng import fanout_seed, stream

EXIT_PASS = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc


def _emit(doc: dict, args, rows_key: str = "rows") -> None:
    """Write the result document as JSON (default) or row-wise CSV."""
    if args.format == "csv":
        rows = doc.get(rows_key, [])
        names = list(rows[0].keys()) if rows else []
        out = sys.stdout if args.out is None else open(args.out, "w", newline="")
        try:
            out.write(f"# ricelab {doc.get('kind', 'result')} "
                      f"schema_version={SCHEMA_VERSION}\n")
            writer = csv.DictWriter(out, fieldnames=names)
            writer.writeheader()
            for r in rows:
                writer.writerow({k: json.dumps(v) if isinstance(v, (list, dict))
                                 else v for k, v in r.items()})
        finally:
            if args.out is not None:
                out.close()
    else:
        text = json.dumps(doc, indent=2, sort_keys=True)
        if args.out is None:
            print(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
    if args.out is not None:
        print(args.out)


def _cmd_simulate(args) -> int:
    doc = _load_json(args.config)
    if not isinstance(doc, dict) or "model" not in doc:
        raise ConfigurationError('simulate config needs {"model", "box", '
                                 '"grid", "count"}')
    model = model_from_doc(doc["model"])
    box = doc.get("box")
    grid = _grid_size(doc.get("grid", 256))
    count = config_count("count", doc.get("count", 1), 1)
    if box is None:
        raise ConfigurationError("simulate config needs a box")
    box_array(box, model.D)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    for i in range(count):
        seed = fanout_seed(args.seed, "simulate", i)
        real = sample_realization(model, seed)
        gs = sample_grid(real, box, grid)
        print(gs.export(os.path.join(out_dir, f"sample-{i:04d}")))
    return EXIT_PASS


def _cmd_measure(args) -> int:
    cfg = ExperimentConfig.from_doc(_load_json(args.config))
    _emit(measure_only(cfg, master_seed=args.seed, workers=args.workers), args)
    return EXIT_PASS


def _cmd_kacrice(args) -> int:
    cfg = ExperimentConfig.from_doc(_load_json(args.config))
    _emit(predict_only(cfg, master_seed=args.seed), args)
    return EXIT_PASS


def _cmd_validate(args) -> int:
    cfg = ExperimentConfig.from_doc(_load_json(args.config))
    report = run_experiment(cfg, master_seed=args.seed, workers=args.workers)
    for line in report.summary_lines():
        print(line)
    if args.out is not None:
        print(report.write(args.out))
    elif args.format == "json":
        print(report.to_json())
    return EXIT_PASS if report.passed else EXIT_VERDICT


# checked (D, m) pairs; m = D is the determinant constant, not a projection
_CROFTON_CASES = ((2, 1), (3, 1), (3, 2))


def _cmd_crofton(args) -> int:
    """Monte Carlo self-check of the projection constants."""
    ok = True
    print(f"projection constants, {args.samples} directions per case")
    for D, m in _CROFTON_CASES:
        c = crofton_constant(D, m)
        d = D - m
        rng = stream(args.seed, "crofton-cli", D * 10 + m)
        M = rng.standard_normal((d, D))
        est, se = crofton_identity_mc(M, args.samples, fanout_seed(
            args.seed, "crofton-cli-mc", D * 10 + m))
        exact = normal_jacobian(M)
        z = abs(est - exact) / se if se > 0 else 0.0
        line = (f"D={D} m={m} c={c:.6f} identity z={z:.2f} "
                f"({est:.6f} vs {exact:.6f})")
        print(line)
        if z > 4.0:
            ok = False
    return EXIT_PASS if ok else EXIT_VERDICT


def _cmd_suite(args) -> int:
    manifest = load_manifest(_load_json(args.config))
    out_dir = args.out
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    result = run_suite(manifest, master_seed=args.seed, workers=args.workers,
                       out_dir=out_dir)
    for row in result.summary_rows():
        detail = f" {row['detail']}" if row["detail"] else ""
        z = f" max|z|={row['max_abs_z']}" if row["max_abs_z"] else ""
        print(f"{row['experiment_id']}: {row['status']}{z}{detail}")
    print(f"{result.n_pass} pass, {result.n_fail} fail, {result.n_error} error")
    if result.n_error:
        return EXIT_RUNTIME
    return EXIT_PASS if result.n_fail == 0 else EXIT_VERDICT


def _cmd_plot_data(args) -> int:
    if os.path.isdir(args.config):
        paths = sorted(glob.glob(os.path.join(args.config, "*.report.json")))
    else:
        paths = [args.config]
    if not paths:
        raise ConfigurationError(f"no reports under {args.config}")
    reports = [_report_from_doc(_load_json(p)) for p in paths]
    out = args.out or "plot_data.csv"
    print(emit_plot_data(reports, args.quantity, out))
    return EXIT_PASS


def _report_from_doc(doc: dict) -> ExperimentReport:
    try:
        cfg = ExperimentConfig.from_doc(doc["config"])
        rows = tuple(LevelRow(**{f.name: r[f.name] for f in fields(LevelRow)})
                     for r in doc["rows"])
        return ExperimentReport(config=cfg, master_seed=doc["master_seed"],
                                rows=rows, extras=doc.get("extras", {}),
                                passed=doc["passed"],
                                wall_time_s=doc.get("wall_time_s", 0.0))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ConfigurationError(
            f"not an experiment report: {type(exc).__name__}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricelab",
        description="Level-set statistics laboratory: simulate random fields, "
                    "measure level-set functionals, and test them against "
                    "closed-pipeline predictions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workers=True):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="process count for the empirical side")

    p = sub.add_parser("simulate", help="export realizations on a grid")
    common(p, workers=False)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("measure", help="empirical level-set statistics only")
    common(p)
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("kacrice", help="predicted level-set statistics only")
    common(p, workers=False)
    p.set_defaults(fn=_cmd_kacrice)

    p = sub.add_parser("validate", help="run one experiment and score it")
    common(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("crofton", help="self-check the projection constants")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_crofton)

    p = sub.add_parser("suite", help="run a manifest of experiments")
    common(p)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("plot-data", help="flatten reports into plot CSV")
    p.add_argument("--config", required=True,
                   help="report JSON, or a directory of *.report.json")
    p.add_argument("--quantity", required=True, help="estimator the reports share")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_plot_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize others
        return int(exc.code) if exc.code else EXIT_PASS
    try:
        return args.fn(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RicelabError as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # a bug, not a verdict: keep exit 1 for verdicts
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {type(exc).__name__}: {exc} "
              f"(at {os.path.basename(frame.filename)}:{frame.lineno})",
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
