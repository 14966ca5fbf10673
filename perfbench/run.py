"""Benchmark of ricelab's verdict pipeline on the planar, lens and line workloads.

    python3 perfbench/run.py --workload planar|lens|line --seed N --seconds S --trace 0|1
                             [--scale bench|full]

Run from the root of a checkout.  Every child process runs the checkout's
``src/ricelab`` with BLAS/OpenMP pinned to one thread and one harness worker.

- Set-up: a warm-up process, then SETUP_PROBES fresh processes that each
  import ricelab, validate the workload's configs and build its models;
  ``setup_s`` is the median of those and the run process's own set-up.
- Untraced run: passes over the workload's experiments for ``--seconds``,
  each pass at its own master seed derived from ``--seed`` (see worker.py).
  Each side of each experiment is timed in CPU seconds of the worker and
  reported as the median over the passes.  ``lhs_s`` and ``rhs_s`` sum those
  medians over the experiments, and ``verdict_s`` adds the scoring.
- ``--trace 1`` adds one traced pass in its own process and prints the
  per-layer metrics in place of the end-to-end ones.
- ``--scale full`` runs the frozen experiments unscaled, once each unless
  ``--seconds`` allows more, for checking the ROADMAP's full-scale targets.
  The metrics in BENCHMARK.json are those of the default ``bench`` scale.

All times are CPU seconds of a single-threaded process; on an idle machine
they equal wall seconds.  The run's times, not the set-up's, are also scaled
to a fixed host speed: the run process times a fixed calibration kernel
(worker.kernel_seconds) before each timed call, and every CPU second of the
run is multiplied by worker.KERNEL_REF_S over the kernel's trimmed mean
time.  That takes out the drift of a shared host's speed, which is slower
than one run.  The run record in ``.perfbench/`` keeps the unscaled CPU and
wall seconds and the kernel times.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import worker

ROOT = worker.BENCH_DIR.parent
SETUP_PROBES = 5
DEADLINE_S = 170.0  # every run must end within 180 s
VALUE_KEYS = ("lhs_mean", "lhs_se", "rhs_value")
ERROR_KEYS = ("rhs_quadrature_error", "rhs_mc_error")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=worker.SCALES, default="bench")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in worker.THREAD_VARS:
        env[var] = "1"
    return env


def worker_cmd(mode: str, args, budget: float = 0.0) -> list:
    return [sys.executable, str(worker.BENCH_DIR / "worker.py"), "--mode", mode,
            "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
            "--seconds", repr(float(args.seconds)), "--budget", f"{budget:.1f}"]


def call(cmd: list, deadline: float) -> dict:
    """Run one child to completion (killed at the deadline); parse its last line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for " + " ".join(cmd[2:4]))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(cmd[2:4])} exceeded the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[2:4])} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed(kernel_times: list) -> float:
    """Factor that scales one process's CPU seconds to the reference host speed.

    The host alternates between fast and slow moments faster than a timed
    call lasts, so a call's time follows the share of slow moments.  The
    kernel is short and samples single moments: their mean, not their
    median, follows that share.  The top and bottom tenth are trimmed.
    """
    times = sorted(kernel_times)
    cut = len(times) // 10
    return worker.KERNEL_REF_S / statistics.mean(times[cut:len(times) - cut])


def run_speed(records: list) -> float:
    return speed([k for r in records for k in r["kernel_times"]])


def totals(records: list) -> dict:
    """Scaled medians of the two sides and the scoring, summed over the experiments."""
    k = run_speed(records)
    lhs = k * sum(r.get("lhs_s", 0.0) for r in records)
    rhs = k * sum(r.get("rhs_s", 0.0) for r in records)
    score = k * sum(r.get("score_s", 0.0) for r in records)
    return {"verdict_s": lhs + rhs + score, "lhs_s": lhs, "rhs_s": rhs}


def first_pass(records: list) -> float:
    """Scaled CPU seconds of pass 0: both sides and the scoring, over the experiments."""
    return run_speed(records) * sum(r["lhs_times"][0] + r["rhs_times"][0]
                                    + r.get("score_s", 0.0)
                                    for r in records if r["lhs_times"])


def wall_over_cpu(records: list) -> float:
    wall = sum(sum(r["lhs_wall"]) + sum(r["rhs_wall"]) for r in records)
    cpu = sum(sum(r["lhs_times"]) + sum(r["rhs_times"]) for r in records)
    return wall / cpu if cpu > 0 else 0.0


def count_levels(records: list) -> tuple:
    attempted = failed = 0
    for r in records:
        attempted += r["levels"]
        if "error" in r:
            failed += r["levels"]
        else:
            failed += sum(not row["passed"] for row in r["rows"])
    return attempted, failed


def outputs(records: list) -> list:
    return [r.get("digests") for r in records]


def reference_mismatches(records: list, reference: list, tol: dict) -> list:
    """Verdict flips and values outside tolerance, against the reference outputs.

    A value may move by rtol*|ref| + atol + k_sigma*sigma, where sigma combines
    the reference row's lhs_se and total prediction error.  Error channels may
    shrink freely but not grow beyond that.
    """
    got_by_id = {r["id"]: r for r in records}
    out = []
    for want in reference:
        got = got_by_id.get(want["id"])
        if got is None or "error" in got:
            out.append(f"{want['id']}: raised or missing")
            continue
        if len(got["rows"]) != len(want["rows"]):
            out.append(f"{want['id']}: {len(got['rows'])} levels, want {len(want['rows'])}")
            continue
        for g, w in zip(got["rows"], want["rows"]):
            where = f"{want['id']} level {w['level']}"
            if g["level"] != w["level"]:
                out.append(f"{where}: level is {g['level']}")
            if g["passed"] != w["passed"]:
                out.append(f"{where}: verdict flipped to {g['passed']}")
            sigma = math.hypot(w["lhs_se"], w["rhs_quadrature_error"] + w["rhs_mc_error"])
            for key in VALUE_KEYS + ERROR_KEYS:
                allowed = tol["rtol"] * abs(w[key]) + tol["atol"] + tol["k_sigma"] * sigma
                delta = g[key] - w[key]
                if key in ERROR_KEYS:
                    delta = max(delta, 0.0)
                if not abs(delta) <= allowed:
                    out.append(f"{where}: {key} {g[key]!r} vs reference {w[key]!r}"
                               f" (allowed {allowed:.3g})")
    return out


def check(run: dict, traced, reference: dict, workload: str, seed: int,
          scale: str = "bench") -> tuple:
    """(problems, notes, outputs_identical) for the untraced and traced runs."""
    records = run["records"]
    problems, notes = [], []
    for label, recs in (("untraced", records), ("traced", traced["records"] if traced else ())):
        for r in recs:
            if "error" in r:
                problems.append(f"{r['id']} raised in the {label} run: "
                                + r["error"].strip().splitlines()[-1])
    for r in records:
        for index in r.get("nonfinite_passes", ()):
            problems.append(f"{r['id']}: non-finite output in pass {index}")
        for row in r.get("rows", ()):
            if not all(math.isfinite(row[k]) for k in VALUE_KEYS + ERROR_KEYS):
                problems.append(f"{r['id']} level {row['level']}: non-finite output")
    if traced is not None and outputs(traced["records"]) != outputs(records):
        problems.append("the traced run gave different outputs from the untraced run")
    identical = 0
    if seed == reference["seed"]:
        ref = reference[scale][workload]
        problems += reference_mismatches(records, ref, reference["tolerance"])
        got = {r["id"]: r.get("digests", ()) for r in records}
        identical = sum(a == b for w in ref for a, b in zip(got.get(w["id"], ()), w["digests"]))
    else:
        notes.append(f"seed {seed} is not the reference seed {reference['seed']}: "
                     "reference comparison skipped, fail_share only")
    return problems, notes, identical


def end_to_end(run: dict, setups: list) -> dict:
    attempted, failed = count_levels(run["records"])
    m = totals(run["records"])
    m["setup_s"] = statistics.median(setups)
    m["pass_share"] = 1.0 - failed / attempted
    return m


def per_layer(run: dict, traced: dict, all_ids: list, identical: int) -> dict:
    m = dict(traced["layers"])
    by_id = {r["id"]: r for r in run["records"]}
    k = run_speed(run["records"])
    for side in ("lhs_s", "rhs_s"):
        for exp_id in all_ids:
            m[f"harness.{side}.{exp_id}"] = k * by_id.get(exp_id, {}).get(side, 0.0)
    for key in worker.PARITY_KEYS:
        m[f"harness.{key}"] = sum(r.get("extras", {}).get(key, 0) for r in run["records"])
    m["harness.outputs_identical"] = identical
    m["process.peak_rss_mb"] = run["peak_rss_mb"]
    m["process.wall_over_cpu"] = wall_over_cpu(run["records"])
    m["calib.kernel_s"] = worker.KERNEL_REF_S / k
    m["trace.overhead_frac"] = first_pass(traced["records"]) / first_pass(run["records"]) - 1.0
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "ricelab" / "__init__.py").is_file():
        print(f"perfbench: no ricelab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = worker.load_workloads()["workloads"]
    reference = json.loads((worker.BENCH_DIR / "reference.json").read_text())
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        print("perfbench: --seed must be a uint64 and --seconds positive", file=sys.stderr)
        return 2

    try:
        call(worker_cmd("setup", args), deadline)  # compiles bytecode, warms caches
        probes = [call(worker_cmd("setup", args), deadline) for _ in range(SETUP_PROBES)]
        budget = deadline - time.monotonic() - 5.0
        if args.trace:
            budget *= 0.5  # leave the traced run as long as the untraced one
        run = call(worker_cmd("run", args, budget), deadline)
        traced = call(worker_cmd("trace", args), deadline) if args.trace else None
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups = [doc["setup_s"] for doc in probes + [run]]

    problems, notes, identical = check(run, traced, reference, args.workload, args.seed,
                                       args.scale)
    if args.trace:
        all_ids = [e["experiment_id"] for w in workloads.values() for e in w]
        values = per_layer(run, traced, all_ids, identical)
        declared = bench["per_layer"]
    else:
        values = end_to_end(run, setups)
        declared = bench["end_to_end"]
    if run["env"]["threads_exceed_nproc"]:
        notes.append("WARNING: pinned thread count exceeds nproc")
    attempted, failed = count_levels(run["records"])
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
                          for d in declared}}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "scale": args.scale,
              "trace": args.trace, "env": run["env"], "setup_samples": setups,
              "speed": run_speed(run["records"]),
              "problems": problems, "notes": notes, "experiments": run["records"],
              "result": result}
    worker.OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    out_path = worker.OUT_DIR / name
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"perfbench: INCORRECT: {problem}", file=sys.stderr)
    print("# env " + json.dumps(run["env"], sort_keys=True))
    for note in notes:
        print("# " + note)
    print(f"# record in {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
