"""Re-record reference.json: every workload's outputs at the reference seed.

    python3 perfbench/record_reference.py [--scale bench|full]

Only the given scale's entry (default bench) is re-recorded.

A benchmark run never writes the reference; re-record it only when a change
to the outputs is intended, and say so where the change is described.
"""

import argparse
import json
import sys
import time

import run
import worker

SEED = 1
# A value may move by rtol*|ref| + atol + k_sigma*sigma (see run.reference_mismatches).
TOLERANCE = {"rtol": 1e-9, "atol": 1e-9, "k_sigma": 0.5}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scale", choices=worker.SCALES, default="bench")
    scale = p.parse_args(argv).scale
    path = worker.BENCH_DIR / "reference.json"
    out = json.loads(path.read_text()) if path.is_file() else {}
    out.update(seed=SEED, tolerance=TOLERANCE)
    out[scale] = {}
    for name in worker.load_workloads()["workloads"]:
        args = run.parse_args(["--workload", name, "--seed", str(SEED), "--seconds", "1e-3",
                               "--scale", scale])
        res = run.call(run.worker_cmd("run", args, 600.0), time.monotonic() + 900.0)
        out[scale][name] = [{"id": r["id"], "digests": r["digests"], "rows": r["rows"]}
                            for r in res["records"]]
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
