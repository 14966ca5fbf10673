"""Source hygiene of src/ricelab, by standard-library ``ast`` scans.

Every module uses each name it imports, and so does every file under
``tests/`` and ``scripts/``: names listed in the module's
``__all__`` count as used (re-exports), and ``from __future__`` imports are
exempt.  Because of that exemption, every name in ``__all__`` must also be
bound in the module, or a stale entry would pass the import scan and break
``from module import *``.  Every Monte Carlo standard error comes from ``rng.mean_se``: no other
function passes ``ddof``.  Importing ricelab and running a line experiment
loads neither scipy nor multiprocessing; scipy loads when a chi-square
occupation prediction first needs it.
"""

import ast
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ricelab"
MODULES = sorted(SRC.glob("*.py"))
# test and script files, named by their directory to keep ids apart
OTHER_FILES = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _imported_names(tree: ast.Module) -> dict:
    """Bound name -> line for every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    keep = used | _exported_names(tree)
    return sorted((line, name) for name, line in _imported_names(tree).items()
                  if name not in keep)


def test_scan_flags_unused_and_keeps_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Mapping, Sequence\n"
        "from .errors import ModelError\n"
        "__all__ = ['ModelError']\n"
        "def f(x: Mapping) -> int:\n"
        "    return np.size(x)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "Sequence")]


@pytest.mark.parametrize("path", MODULES + OTHER_FILES, ids=lambda p: (
    p.name if p.parent == SRC else f"{p.parent.name}/{p.name}"))
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unbound_exports(source: str) -> list:
    """Names in ``__all__`` that no top-level def, class, assignment or import binds."""
    tree = ast.parse(source)
    bound = set(_imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {t.id for t in targets if isinstance(t, ast.Name)}
    return sorted(_exported_names(tree) - bound)


def test_export_scan_flags_stale_names():
    source = (
        "from .errors import ModelError\n"
        "LIMIT: int = 3\n"
        "__all__ = ['ModelError', 'LIMIT', 'f', 'Box', 'gone']\n"
        "def f():\n"
        "    pass\n"
        "class Box:\n"
        "    pass\n"
    )
    assert unbound_exports(source) == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_exports_only_bound_names(path):
    assert unbound_exports(path.read_text()) == []


def ddof_sites(source: str) -> list:
    """Top-level function or class names (``<module>`` otherwise) of calls passing ddof."""
    tree = ast.parse(source)
    return [getattr(top, "name", "<module>") for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.keyword) and node.arg == "ddof"]


def test_ddof_scan_names_the_enclosing_function():
    source = (
        "import numpy as np\n"
        "def f(x):\n"
        "    return x.std(ddof=1)\n"
        "y = np.var([1.0, 2.0], ddof=0)\n"
    )
    assert ddof_sites(source) == ["f", "<module>"]


def test_standard_errors_come_from_mean_se_only():
    sites = {path.name: ddof_sites(path.read_text()) for path in MODULES}
    assert {name: s for name, s in sites.items() if s} == {"rng.py": ["mean_se"]}


COLD_START = textwrap.dedent("""
    import sys

    from ricelab.harness import measure_only, predict_only

    line = {"experiment_id": "cold", "estimator": "roots", "levels": [0.0],
            "n_realizations": 30, "box": [0.0, 6.0], "grid": 256,
            "model": {"kind": "spectral_gaussian_1d", "frequencies": [1.0, 2.5],
                      "amplitudes": [0.7, 0.7]}}
    measure_only(line, 1)
    predict_only(line, 1)
    lens = {"experiment_id": "cold-lens", "estimator": "roots", "levels": [[0.25, 0.1]],
            "n_realizations": 30, "grid": 64,
            "model": {"kind": "microlens", "kappa_c": 2.0, "gamma": 0.0, "m": 0.2,
                      "n_stars": 3, "R": 1.0}}
    measure_only(lens, 1)
    print(sorted(m for m in ("scipy", "multiprocessing", "numpy.polynomial")
                 if m in sys.modules))
    occupation = dict(line, estimator="local_time", delta=0.3, levels=[1.0],
                      model={"kind": "chi_square", "n": 2, "base": dict(
                          line["model"], amplitudes=[0.5 ** 0.5, 0.5 ** 0.5])})
    predict_only(occupation, 1)
    print("scipy" in sys.modules)
""")


def test_cold_start_leaves_scipy_and_multiprocessing_unloaded():
    # the lens run adds the polynomial image search, which must not load
    # numpy.polynomial either
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]
