"""Source hygiene of src/ricelab, by standard-library ``ast`` scans.

Every module uses each name it imports, and so does every file under
``tests/`` and ``scripts/``: names listed in the module's
``__all__`` count as used (re-exports), and ``from __future__`` imports are
exempt.  Because of that exemption, every name in ``__all__`` must also be
bound in the module, or a stale entry would pass the import scan and break
``from module import *``.  Every Monte Carlo standard error comes from ``rng.mean_se``: no other
function passes ``ddof``; only the three Monte Carlo predictions of
``engine`` call ``stream``, and the closed-form predictions draw from no
stream; no module but ``rng`` names numpy's random module, no module
builds a generator by ``Philox(key=...)`` or a ``SeedSequence`` (both draw
OS entropy), and a line corpus re-keys one generator per block
(``rng.streams``) instead of building one per realization, as the lens
measurement does per chunk.  Importing ricelab loads no numpy.random, and
running a line experiment loads neither scipy nor multiprocessing; scipy
loads when a chi-square occupation prediction first needs it.  The benchmark's tracer
(``perfbench/tracer.py``) wraps names bound in ``harness``, so each must
stay bound there and be called through that namespace.
"""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from ricelab import cli, engine, fields, geometry, harness, modelspec, rng
from ricelab.fields import (
    ChiSquareField,
    GradientField,
    MicrolensModel,
    ShotNoiseModel,
    SpectralGaussian1D,
    SpectralGaussian2D,
)

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


# config keys whose rule belongs to the function that reads the value
READER_KEYS = {"inner_mc", "quadrature", "p_max", "rhs_delta", "delta", "n_lines", "grid"}


def bound_sites(source: str, keys=READER_KEYS) -> list:
    """(line, attribute) of every comparison of an attribute named in ``keys`` with a number."""
    def is_number(node):
        return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
                and not isinstance(node.value, bool))

    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_number, operands)):
                sites += [(node.lineno, op.attr) for op in operands
                          if isinstance(op, ast.Attribute) and op.attr in keys]
    return sorted(sites)


def test_bound_scan_finds_numeric_comparisons_of_reader_keys():
    source = (
        "def f(cfg, n):\n"
        "    if cfg.inner_mc < 100 or 2 > cfg.grid:\n"
        "        pass\n"
        "    ok = 0 < cfg.delta <= 1.5\n"
        "    same = (cfg.grid is None, cfg.n_lines == n, cfg.z_crit <= 0, cfg.p_max == True)\n"
    )
    assert bound_sites(source) == [(2, "grid"), (2, "inner_mc"), (4, "delta")]


def test_harness_leaves_every_count_and_width_bound_to_its_reader():
    # a bound written in the harness would be a second copy of the reader's rule
    assert bound_sites((SRC / "harness.py").read_text()) == []


def stream_sites(source: str) -> list:
    """Top-level function names (``<module>`` otherwise) of calls to ``stream``."""
    tree = ast.parse(source)
    return [getattr(top, "name", "<module>") for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "stream"]


def test_stream_scan_names_the_enclosing_function():
    source = (
        "from .rng import stream\n"
        "def f(seed):\n"
        "    def draws():\n"
        "        return stream(seed, 'a').uniform()\n"
        "    return draws()\n"
        "def g(rng):\n"
        "    return rng.stream\n"
        "z = stream(0, 'b')\n"
    )
    assert stream_sites(source) == ["f", "<module>"]


def test_engine_draws_only_in_monte_carlo_predictions():
    # every stationary rate is a closed form: pair moments and the impulse-sum
    # and point-mass families are all that sample
    assert sorted(stream_sites((SRC / "engine.py").read_text())) == [
        "microlens_rhs", "second_factorial_moment_rhs", "shotnoise_rhs"]


def numpy_random_sites(source: str) -> list:
    """Lines that reach numpy's random module, through any numpy alias."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "numpy"}
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            sites += [node.lineno for alias in node.names
                      if alias.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if (node.module.startswith("numpy.random")
                    or (node.module == "numpy"
                        and any(alias.name == "random" for alias in node.names))):
                sites.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            sites.append(node.lineno)
    return sorted(sites)


def test_numpy_random_scan_finds_every_spelling():
    source = (
        "import numpy as np\n"
        "import numpy\n"
        "import numpy.random\n"
        "from numpy.random import Philox\n"
        "from numpy import random, zeros\n"
        "a = np.random.Generator\n"
        "b = numpy.random.default_rng\n"
        "c = rng.random(3)\n"
        "d = np.zeros(2).random\n"
    )
    assert numpy_random_sites(source) == [3, 4, 5, 6, 7]


def test_generators_are_built_in_rng_only():
    # generators are built, copied and moved in rng alone
    sites = {path.name: numpy_random_sites(path.read_text()) for path in MODULES}
    assert sites.pop("rng.py")
    assert {name: lines for name, lines in sites.items() if lines} == {}


def entropy_seeded_sites(source: str) -> list:
    """Lines that call ``Philox`` with a ``key=`` argument, or call ``SeedSequence``.

    Either builds a SeedSequence from OS entropy; a keyed stream needs only
    its key.  Calls are matched by the called name, bare or as an attribute.
    """
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "SeedSequence" or (
                    name == "Philox" and any(kw.arg == "key" for kw in node.keywords)):
                sites.append(node.lineno)
    return sorted(sites)


def test_entropy_scan_finds_keyed_philox_and_seed_sequences():
    source = (
        "import numpy as np\n"
        "from numpy.random import Philox, SeedSequence\n"
        "a = np.random.Philox(key=3)\n"
        "b = Philox(counter=0, key=k)\n"
        "c = np.random.SeedSequence(5)\n"
        "d = SeedSequence()\n"
        "e = np.random.Philox(words)\n"
        '"""Philox(key=...) in a docstring"""\n'
    )
    assert entropy_seeded_sites(source) == [3, 4, 5, 6]


def test_streams_are_built_from_their_key_words():
    # Philox(key=...) draws OS entropy for a SeedSequence the key overrides
    sites = {path.name: entropy_seeded_sites(path.read_text()) for path in MODULES}
    assert {name: lines for name, lines in sites.items() if lines} == {}
    assert type(rng.stream(1, "x").bit_generator.seed_seq) is rng._KeyWords
    assert type(next(rng.streams([1], "x")).bit_generator.seed_seq) is rng._KeyWords


def test_closed_form_predictions_take_no_draws(monkeypatch):
    def no_stream(*args, **kwargs):
        raise AssertionError("a closed-form prediction asked for random draws")

    monkeypatch.setattr(engine, "stream", no_stream)
    line = SpectralGaussian1D(np.array([0.8, 1.7]), np.array([0.7, 0.5]))
    aniso = SpectralGaussian2D(np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                               np.array([0.5, 0.6, 0.3]))
    assert not aniso.isotropic
    grad, box2, u2 = GradientField(aniso), [(0, 1), (0, 1)], (0.3, -0.2)
    # squared sums need unit-variance bases
    chi2_line = ChiSquareField(2, SpectralGaussian1D(np.array([0.8, 1.7]),
                                                     np.array([0.8, 0.6])))
    chi2_plane = ChiSquareField(3, SpectralGaussian2D(aniso.wavevectors,
                                                      aniso.amplitudes / np.sqrt(0.7)))
    for ev in (engine.euler_char_expectation(line, (0.0, 2.0), 0.5),
               engine.euler_char_expectation(aniso, box2, 0.5),
               engine.kacrice_rhs(aniso, box2, 0.5),
               engine.kacrice_rhs(grad, box2, u2),
               *(engine.weighted_kacrice_rhs(grad, box2, u2, {"kind": "index", "k": k})
                 for k in (0, 1, 2)),
               engine.weighted_kacrice_rhs(line, (0.0, 2.0), 0.5, "upcrossing"),
               engine.kacrice_rhs(chi2_line, (0.0, 2.0), 1.0),
               engine.kacrice_rhs(chi2_plane, box2, 1.0)):
        assert (ev.mc_error, ev.n_mc) == (0.0, 0)


LINE_CORPORA = {
    "spectral": {"kind": "spectral_gaussian_1d", "frequencies": [1.0, 2.5],
                 "amplitudes": [0.7, 0.7]},
    "chi-square": {"kind": "chi_square", "n": 2, "base": {
        "kind": "spectral_gaussian_1d", "frequencies": [1.0, 2.5],
        "amplitudes": [0.5 ** 0.5, 0.5 ** 0.5]}},
    "impulse-sum": {"kind": "shot_noise", "eta": 0.7, "intensity": 1.5,
                    "domain": [0.0, 12.0], "beta_low": 0.5, "beta_high": 2.0},
}


@pytest.mark.parametrize("kind", sorted(LINE_CORPORA))
def test_line_corpora_rekey_one_generator_per_block(kind, monkeypatch):
    # a generator built per realization (or per squared-sum component) would
    # show as stream calls, or as more than one re-keyed series per block
    calls = {"stream": 0, "streams": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in calls:
        fn = getattr(rng, name)
        for owner in (rng, fields, harness, engine, geometry, cli):
            if getattr(owner, name, None) is fn:
                monkeypatch.setattr(owner, name, counted(name, fn))
    cfg = harness.ExperimentConfig(
        experiment_id="rekey", estimator="roots", levels=[0.5], n_realizations=300,
        box=[1.0, 6.0], grid=256, model=LINE_CORPORA[kind])
    harness.measure_only(cfg, 1, workers=1)
    blocks = sum(-(-(hi - lo) // harness._CORPUS_BLOCK)
                 for lo, hi in harness._chunk_bounds(300))
    assert calls["stream"] == 0
    assert 0 < calls["streams"] <= blocks


def test_lens_measurement_rekeys_one_generator(monkeypatch):
    # star fields come from batch_stars: no stream and no MicrolensSystem per field
    def refuse(*args, **kwargs):
        raise AssertionError("a star field was drawn on its own")

    monkeypatch.setattr(fields, "stream", refuse)
    monkeypatch.setattr(harness, "sample_realization", refuse)
    lens = {"experiment_id": "rekey-lens", "estimator": "roots", "levels": [[0.25, 0.1]],
            "n_realizations": 30, "grid": 64,
            "model": {"kind": "microlens", "kappa_c": 2.0, "gamma": 0.0, "m": 0.2,
                      "n_stars": 3, "R": 1.0}}
    assert harness.measure_only(lens, 1, workers=1)["rows"][0]["lhs_mean"] > 0


COLD_START = textwrap.dedent("""
    import sys

    from ricelab.harness import measure_only, predict_only

    print("numpy.random" in sys.modules)
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
    # numpy.polynomial either; numpy.random loads with the first generator
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "[]", "True"]


def _benchmark_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_sees_one_prepared_measurement():
    # install() raises KeyError if a traced harness name is no longer bound;
    # a call that bypasses the harness namespace would leave its span out
    tracer = _benchmark_tracer()
    cfg = harness.ExperimentConfig(
        experiment_id="traced", estimator="roots", levels=[0.0], n_realizations=60,
        box=[0.0, 6.0], grid=256, model={"kind": "spectral_gaussian_1d",
                                         "frequencies": [1.0, 2.5], "amplitudes": [0.7, 0.7]})
    t = tracer.Tracer()
    t.install()
    try:
        harness.measure_only(cfg, 1)
    finally:
        t.restore()
    assert harness.trig_basis_1d is fields.trig_basis_1d
    names = [span[0] for span in t.spans]
    # two chunks of 30 share one model and one basis; each chunk draws one block
    assert names.count("modelspec.model_from_doc") == 1
    assert names.count("fields.corpus") == 1 + 2
    assert names.count("rng.fanout_seed") == 60


@pytest.mark.parametrize("estimator", ["euler", "roots"])
def test_benchmark_tracer_reaches_planar_counts_and_predictions(estimator):
    # a chunk function or prediction that bound count_roots_2d or an engine
    # function at import would run untraced
    tracer = _benchmark_tracer()
    ring = SpectralGaussian2D.isotropic_ring(6, 3.0)
    # euler finds the critical points once, at 0, whatever its levels
    model, levels, targets, rhs = {
        "euler": (ring, [0.0], [[0.0, 0.0]], "engine.euler_char_expectation"),
        "roots": (GradientField(ring), [[0.0, 0.0], [0.3, -0.2]], [[0.0, 0.0], [0.3, -0.2]],
                  "engine.kacrice_rhs"),
    }[estimator]
    box = [[0.0, 1.0], [0.0, 1.0]]
    cfg = harness.ExperimentConfig(
        experiment_id="traced", estimator=estimator, levels=levels, n_realizations=60,
        box=box, grid=32, model=modelspec.model_to_doc(model))
    t = tracer.Tracer()
    t.install()
    try:
        harness.measure_only(cfg, 1)
        harness.predict_only(cfg, 1)
    finally:
        t.restore()
    names = [span[0] for span in t.spans]
    # one corpus root set per chunk (two of 30 fields) and root level, whose
    # traced root count is that of its fields' own root sets
    roots = [span[4]["roots"] for span in t.spans if span[0] == "levelsets.count_roots_2d"]
    assert len(roots) == 2 * len(targets)
    fields_alone = [fields.sample_realization(GradientField(ring), rng.fanout_seed(1, "traced", i))
                    for i in range(60)]
    assert sum(roots) == sum(harness.count_roots_2d(real, box, u, grid=32).count
                             for real in fields_alone for u in targets) > 0
    assert names.count("fields.sample_realization") == 60
    assert names.count(rhs) == len(levels)


def test_every_model_kind_is_one_modelspec_row():
    # a kind that a method pairs with must be one _KINDS row, and every row's
    # class must be one that sample_realization draws
    assert {kind for _estimator, kind in harness._METHODS} <= set(modelspec._KINDS)
    line = SpectralGaussian1D.harmonics(3, seed=1)
    ring = SpectralGaussian2D.isotropic_ring(5, 2.0)
    models = [line, ring, GradientField(ring), ChiSquareField(2, line),
              ShotNoiseModel(0.5, 1.0, (0.0, 4.0)), MicrolensModel(2.0, 0.0, 0.2, 3, 1.0)]
    assert {type(m) for m in models} == set(modelspec._KINDS.values())
    for model in models:
        fields.sample_realization(model, 1)


def dispatch_sites(source: str, classes: set, kinds: set) -> list:
    """(enclosing function, name) of each dispatch on a model or realization.

    These are ``isinstance`` tests against a class in ``classes`` (bare or in
    a tuple), and ``==`` or ``!=`` comparisons of a string in ``kinds`` or of
    a name ``kind`` (a table lookup such as ``kind in _KINDS`` is none).
    A function is named with its class, as ``Class.method``.
    """
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            arg = node.args[1]
            for elt in arg.elts if isinstance(arg, ast.Tuple) else [arg]:
                if isinstance(elt, ast.Name) and elt.id in classes:
                    sites.append((scope, elt.id))
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for side in [node.left, *node.comparators]:
                if isinstance(side, ast.Constant) and side.value in kinds:
                    sites.append((scope, side.value))
                elif isinstance(side, ast.Name) and side.id == "kind":
                    sites.append((scope, "kind"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sites


def test_dispatch_scan_finds_isinstance_and_kind_comparisons():
    source = (
        "class A:\n"
        "    def f(self, m):\n"
        "        return isinstance(m, (Line, int)) or isinstance(m, Other)\n"
        "def g(doc, kind):\n"
        "    if kind != doc['x'] or doc.get('kind') == 'line':\n"
        "        return isinstance(doc, Plane)\n"
        "    return 'line' in doc or kind is None\n"
    )
    assert dispatch_sites(source, {"Line", "Plane"}, {"line"}) == [
        ("A.f", "Line"), ("g", "kind"), ("g", "line"), ("g", "Plane")]


# The only isinstance tests on model and realization classes: capability
# checks at entry points and the base checks of two constructors.  Each kind
# answers everything else through its own methods, so a new kind touches no
# dispatch chain.
DISPATCH_SITES = {
    "engine.py": [("_weight_share", "SpectralGaussian1D"), ("_weight_share", "GradientField"),
                  ("microlens_rhs", "MicrolensModel"),
                  ("second_factorial_moment_rhs", "SpectralGaussian1D")],
    "fields.py": [("GradientField.__post_init__", "SpectralGaussian2D"),
                  ("ChiSquareField.__post_init__", "SpectralGaussian1D"),
                  ("ChiSquareField.__post_init__", "SpectralGaussian2D")],
    "harness.py": [("ae_level_consistency", "SpectralGaussian1D"),
                   ("ae_level_consistency", "ChiSquareField")],
}


def test_models_are_dispatched_by_method_not_by_kind():
    classes = ({cls.__name__ for cls in modelspec._KINDS.values()}
               | set(_benchmark_tracer().REALIZATION_CLASSES))
    sites = {path.name: dispatch_sites(path.read_text(), classes, set(modelspec._KINDS))
             for path in MODULES}
    assert {name: found for name, found in sites.items() if found} == DISPATCH_SITES


def test_benchmark_tracer_sees_every_eval_method_of_each_realization_class():
    # the tracer wraps an eval method only where the class itself defines it,
    # so one inherited from a base class would run untraced
    tracer = _benchmark_tracer()
    for name in tracer.REALIZATION_CLASSES:
        cls = getattr(fields, name)
        inherited = [meth for meth in tracer.EVAL_KIND
                     if hasattr(cls, meth) and meth not in cls.__dict__]
        assert inherited == [], name
