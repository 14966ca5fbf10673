"""The committed standard manifest is what its build script writes.

The benchmark's workloads are frozen copies of ``scripts/experiments.json``,
so a hand edit to either the manifest or ``scripts/build_manifest.py`` that
makes them disagree should fail here rather than drift unnoticed.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_build_manifest_regenerates_committed_manifest(tmp_path):
    out = tmp_path / "experiments.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, str(ROOT / "scripts" / "build_manifest.py"),
                    "--out", str(out)], check=True, env=env, capture_output=True)
    assert out.read_bytes() == (ROOT / "scripts" / "experiments.json").read_bytes()
