"""Print the output digests of the benchmark's workload experiments, or compare them.

    PYTHONPATH=src python3 scripts/digests.py > digests.txt
    PYTHONPATH=src python3 scripts/digests.py --compare digests.txt
    PYTHONPATH=src python3 scripts/digests.py --scale bench --compare digests.txt
    PYTHONPATH=src python3 scripts/digests.py --workload line --compare digests.txt

For each scale (bench, then full), each master seed 1-3 and each of the 12
experiments in ``perfbench/workloads.json``, one line gives the sha256 of
``measure_only`` and of ``predict_only``, each hashed as the benchmark's
worker hashes them: JSON with sorted keys and no spaces.  That is 72 lines,
36 per scale.  Bench scale replaces the fields of the file's ``bench_scale``
table; full scale runs the frozen copies unchanged.  ``--scale bench`` or
``--scale full`` gives the lines of that scale only; the default is both, so
that saved files stay comparable.  ``--workload NAME`` likewise gives only
the lines of that workload's experiments.  With ``--compare FILE`` the lines
are checked against a saved run instead of printed: each line produced that
differs from the saved one is shown, saved lines of a scale or workload not
produced are not checked, and the exit code is 1 if any differs.  On one
core of a 2-core Xeon KVM guest, the bench lines took 1.6 s and the
full-scale lines 4.4 s.
"""

import argparse
import hashlib
import json
import pathlib
import sys

from ricelab.harness import ExperimentConfig, measure_only, predict_only

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
SCALES = ("bench", "full")
SEEDS = (1, 2, 3)


def digest(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def experiment_docs(scale: str, workloads=None) -> list:
    """The experiment documents of ``workloads`` (default: all) at ``scale``, in workload order."""
    table = json.loads(WORKLOADS.read_text())
    names = sorted(table["workloads"]) if workloads is None else workloads
    docs = [doc for name in names for doc in table["workloads"][name]]
    if scale == "full":
        return docs
    return [dict(doc, **table["bench_scale"].get(doc["experiment_id"], {})) for doc in docs]


def digest_lines(scales=SCALES, workloads=None):
    """One line "scale seed experiment measure-digest predict-digest" at a time."""
    for scale in scales:
        configs = [ExperimentConfig.from_doc(doc) for doc in experiment_docs(scale, workloads)]
        for seed in SEEDS:
            for cfg in configs:
                lhs = digest(measure_only(cfg, master_seed=seed, workers=1))
                rhs = digest(predict_only(cfg, master_seed=seed))
                yield f"{scale} {seed} {cfg.experiment_id} {lhs} {rhs}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="check the digests against a saved run instead of printing them")
    parser.add_argument("--scale", choices=SCALES,
                        help="only the lines of this scale (default: both)")
    parser.add_argument("--workload", choices=sorted(json.loads(WORKLOADS.read_text())["workloads"]),
                        help="only the lines of this workload's experiments (default: all)")
    args = parser.parse_args()
    scales = SCALES if args.scale is None else (args.scale,)
    workloads = None if args.workload is None else [args.workload]
    if args.compare is None:
        for line in digest_lines(scales, workloads):
            print(line, flush=True)
        return 0
    saved = {" ".join(line.split()[:3]): line.strip()
             for line in pathlib.Path(args.compare).read_text().splitlines() if line.strip()}
    differ = total = 0
    for line in digest_lines(scales, workloads):
        total += 1
        key = " ".join(line.split()[:3])
        if saved.get(key) != line:
            differ += 1
            print(f"differs: {line}\n  saved: {saved.get(key, 'missing')}", flush=True)
    print(f"{differ} of {total} lines differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
