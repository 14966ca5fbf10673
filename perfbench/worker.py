"""One benchmark process: set up a workload, run it, print one JSON line.

    python3 perfbench/worker.py --mode setup|run|trace --workload NAME --seed N
                                [--scale bench|full] [--seconds S] [--budget B]

run.py starts this script with PYTHONPATH at the checkout's ``src`` and
BLAS/OpenMP pinned to one thread; it is not meant to be started by hand.

- ``setup`` imports ricelab, validates the workload's configs and builds
  their models, then prints the CPU seconds that took.
- ``run`` does the same, then makes passes over the workload until the next
  pass would end after ``--seconds``, at least one and at most MAX_PASSES.
  A pass runs every experiment's ``measure_only`` and ``predict_only``; pass
  0 uses the master seed ``--seed`` and is scored with ``verdict``, and each
  later pass uses its own seed derived from it, so the run's medians average
  over realizations as well as over timing noise.  Each side of each
  experiment is timed in CPU seconds of this process and reported as the
  median over the passes.
- ``trace`` runs pass 0 once with the tracer installed and also prints the
  per-layer metrics.  It runs in its own process so that the wrappers never
  touch an untraced timing.  Its spans are written to ``.perfbench/``.

With ``--scale bench`` (the default) the experiments named in the
``bench_scale`` table of workloads.json run with those fields replaced, so
that one pass is short enough to be repeated within a run; ``--scale full``
runs the frozen copies unchanged.
"""

import time

T0 = time.process_time()  # setup_s counts from here: before numpy, scipy and ricelab load
WALL0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR.parent / ".perfbench"  # run records and spans, ignored by git
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# extras of measure_only that the benchmark reports (lens parity escalation)
PARITY_KEYS = ("parity_escalations", "parity_unresolved")
MAX_PASSES = 200
SCALES = ("bench", "full")
# The calibration kernel's CPU seconds at the host speed all timings are
# scaled to (see kernel_seconds).
KERNEL_REF_S = 0.018
_KERNEL_X = []


def load_workloads() -> dict:
    return json.loads((BENCH_DIR / "workloads.json").read_text())


def scaled_docs(workload: str, scale: str = "bench") -> list:
    """The workload's experiment documents, with the bench-scale fields applied."""
    table = load_workloads()
    docs = table["workloads"][workload]
    if scale == "full":
        return docs
    return [dict(doc, **table["bench_scale"].get(doc["experiment_id"], {}))
            for doc in docs]


def setup(workload: str, scale: str = "bench") -> list:
    """Import ricelab, validate the configs and build the models: what setup_s times."""
    from ricelab.harness import ExperimentConfig
    from ricelab.modelspec import model_from_doc

    configs = [ExperimentConfig.from_doc(doc) for doc in scaled_docs(workload, scale)]
    for cfg in configs:
        model_from_doc(dict(cfg.model))
    return configs


def kernel_seconds() -> float:
    """CPU seconds of one fixed calibration kernel: a pure-Python loop and a
    numpy trig sum, about equal halves, like the interpreter and numpy mix of
    the workloads.

    The shared host's speed drifts by up to 40% over minutes, more than a
    run lasts, and this kernel slows with it.  The run process times the
    kernel before each timed call, and run.py scales every timing of the run
    by KERNEL_REF_S over the kernel's trimmed mean time.
    """
    import numpy as np

    if not _KERNEL_X:
        _KERNEL_X.append(np.linspace(0.0, 6.0, 150_000))
    x = _KERNEL_X[0]
    c0 = time.process_time()
    acc = 0.0
    for i in range(100_000):
        acc += (i % 7) * 0.5
    acc += float(np.cos(3.0 * x).sum() + np.sin(2.0 * x).sum())
    return time.process_time() - c0


def digest(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _score(harness, cfg, lhs: dict, rhs: dict) -> dict:
    err = rhs["rhs_quadrature_error"] + rhs["rhs_mc_error"]
    passed, z = harness.verdict(lhs["lhs_mean"], lhs["lhs_se"], rhs["rhs_value"],
                                err, cfg.z_crit, cfg.abs_floor)
    return {"level": lhs["level"], "passed": passed, "z": z,
            "lhs_mean": lhs["lhs_mean"], "lhs_se": lhs["lhs_se"],
            "rhs_value": rhs["rhs_value"],
            "rhs_quadrature_error": rhs["rhs_quadrature_error"],
            "rhs_mc_error": rhs["rhs_mc_error"]}


def _no_span(_name):
    return contextlib.nullcontext()


def pass_seed(seed: int, index: int) -> int:
    """Master seed of pass `index`: `seed` itself for pass 0, else a uint64 hash."""
    if index == 0:
        return seed
    text = f"perfbench-pass:{seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little")


def _timed(call) -> tuple:
    """(result, CPU seconds, wall seconds) of one call."""
    c0, w0 = time.process_time(), time.perf_counter()
    doc = call()
    return doc, time.process_time() - c0, time.perf_counter() - w0


def _finite(lhs: dict, rhs: dict) -> bool:
    values = [r[k] for r in lhs["rows"] for k in ("lhs_mean", "lhs_se")]
    values += [r[k] for r in rhs["rows"]
               for k in ("rhs_value", "rhs_quadrature_error", "rhs_mc_error")]
    return all(math.isfinite(v) for v in values)


def run_workload(configs, seed: int, seconds: float = 0.0, end: float = float("inf"),
                 tracer=None) -> list:
    """Pass over every experiment until `seconds` are used; one record per experiment.

    ``lhs_times``/``rhs_times`` hold the CPU seconds of each pass's two sides
    and ``lhs_wall``/``rhs_wall`` their wall seconds; ``lhs_s`` and ``rhs_s``
    are the medians of the CPU seconds.  ``kernel_times`` holds the
    calibration kernel's CPU seconds, timed before each side in each pass.
    Pass 0 gives ``rows`` (scored with ``verdict``, its CPU seconds in
    ``score_s``), ``digests`` and ``extras``; ``nonfinite_passes`` lists later
    passes with a non-finite output.  An experiment that raises is recorded
    with its traceback and left out of later passes: its levels count as
    failed.
    """
    from ricelab import harness

    span = tracer.span if tracer is not None else _no_span

    def measure(cfg, s):
        with span("harness.measure_only"):
            return harness.measure_only(cfg, master_seed=s, workers=1)

    def predict(cfg, s):
        with span("harness.predict_only"):
            return harness.predict_only(cfg, master_seed=s)

    records = [{"id": cfg.experiment_id, "levels": len(cfg.levels), "lhs_times": [],
                "rhs_times": [], "lhs_wall": [], "rhs_wall": [], "kernel_times": [],
                "nonfinite_passes": []}
               for cfg in configs]
    start = time.perf_counter()
    index = 0
    while True:
        s = pass_seed(seed, index)
        for cfg, rec in zip(configs, records):
            if "error" in rec:
                continue
            try:
                rec["kernel_times"].append(kernel_seconds())
                lhs, lhs_cpu, lhs_wall = _timed(lambda: measure(cfg, s))
                rec["kernel_times"].append(kernel_seconds())
                rhs, rhs_cpu, rhs_wall = _timed(lambda: predict(cfg, s))
                if index == 0:
                    c0 = time.process_time()
                    with span("harness.verdict"):
                        rows = [_score(harness, cfg, a, b)
                                for a, b in zip(lhs["rows"], rhs["rows"])]
                    rec.update(score_s=time.process_time() - c0, rows=rows,
                               digests=[digest(lhs), digest(rhs)],
                               extras={k: lhs["extras"][k] for k in PARITY_KEYS
                                       if k in lhs["extras"]})
                elif not _finite(lhs, rhs):
                    rec["nonfinite_passes"].append(index)
            except Exception:  # an experiment that raises is a failed operation, not a crash
                rec["error"] = traceback.format_exc()
                continue
            rec["lhs_times"].append(lhs_cpu)
            rec["rhs_times"].append(rhs_cpu)
            rec["lhs_wall"].append(lhs_wall)
            rec["rhs_wall"].append(rhs_wall)
        index += 1
        now = time.perf_counter()
        per_pass = (now - start) / index
        if now - start + per_pass > seconds or index >= MAX_PASSES or now + per_pass > end:
            break
    for rec in records:
        if "error" not in rec:
            rec.update(passes=index, lhs_s=statistics.median(rec["lhs_times"]),
                       rhs_s=statistics.median(rec["rhs_times"]))
    return records


def _cpu_caches() -> list:
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append("L{} {} {}".format(*(
                (idx / f).read_text().strip() for f in ("level", "type", "size"))))
        except OSError:
            continue
    return caches


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """Interpreter, libraries, BLAS, thread pinning and CPU of this process."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    threads = {k: os.environ.get(k) for k in THREAD_VARS}
    nproc = len(os.sched_getaffinity(0))
    pinned = max((int(v) for v in threads.values() if v and v.isdigit()), default=0)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name, "threads": threads,
            "nproc": nproc, "threads_exceed_nproc": pinned > nproc,
            "cpu": _cpu_model(), "caches": _cpu_caches(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", choices=SCALES, default="bench")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--budget", type=float, default=150.0)
    args = p.parse_args(argv)

    configs = setup(args.workload, args.scale)
    out = {"setup_s": time.process_time() - T0}
    if args.mode == "run":
        out["records"] = run_workload(configs, args.seed, args.seconds, WALL0 + args.budget)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["env"] = environment()
    elif args.mode == "trace":
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            out["records"] = run_workload(configs, args.seed, tracer=tracer)
        finally:
            tracer.restore()
        out["layers"] = layer_metrics(tracer.spans)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.scale}-seed{args.seed}.json.gz"
        with gzip.open(spans_path, "wt") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "attrs"],
                       "spans": tracer.spans}, fh)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
