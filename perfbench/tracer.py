"""Outside-in span tracer for the benchmark's traced pass.

The tracer changes no ricelab source.  It replaces the public entry points of
each layer with timing wrappers in the namespace that calls them, because
``harness`` binds ``count_roots_*``, ``nodal_length``, ``favard_measure``,
``sample_realization`` and the engine functions by name at import, ``engine``,
``fields`` and ``geometry`` bind ``stream``, and ``levelsets`` looks up
``sample_grid`` in its own module.  Field evaluation is traced by wrapping the
methods of the realization classes.  ``restore`` puts every original back.

Spans are kept in memory as ``[name, parent, start, end, attrs]`` lists and
reduced to per-layer metrics by ``layer_metrics``.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

# Realization methods traced as field evaluations, by the kind of result:
# values, first derivatives (derivative/gradient/jacobian) or second
# derivatives (second_derivative/hessian).
EVAL_KIND = {
    "value": "value",
    "derivative": "jacobian",
    "gradient": "jacobian",
    "jacobian": "jacobian",
    "second_derivative": "hessian",
    "hessian": "hessian",
}
REALIZATION_CLASSES = (
    "TrigRealization1D",
    "TrigRealization2D",
    "GradientFieldRealization",
    "ChiSquareRealization",
    "ShotNoiseRealization",
    "MicrolensSystem",
    "DeterministicField",
)
ENGINE_FUNCTIONS = (
    "kacrice_rhs",
    "weighted_kacrice_rhs",
    "euler_char_expectation",
    "microlens_rhs",
    "shotnoise_rhs",
    "second_factorial_moment_rhs",
)
HARNESS_SPANS = ("harness.measure_only", "harness.predict_only", "harness.verdict")
_FIELDS_EVAL = "fields.eval."


def _root_count(result):
    return {"roots": int(result.points.shape[0])}


def _segment_count(result):
    return {"segments": int(result.segments.shape[0])}


def _rhs_counts(result):
    """Sample counts of an RhsEvaluation, or from a SignedEstimate's detail."""
    detail = result.detail
    return {"n_mc": int(getattr(result, "n_mc", detail.get("n_mc", 0))),
            "n_quadrature": int(getattr(result, "n_quadrature", detail.get("nodes", 0))),
            "excluded_samples": int(detail.get("excluded_samples", 0))}


class Tracer:
    """Records nested spans; single-threaded, like the harness it wraps."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, attrs=None) -> None:
        self.spans[sid][3] = time.perf_counter()
        self.spans[sid][4] = attrs
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while {popped} was open")

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def _in_field_eval(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0].startswith(_FIELDS_EVAL)

    def wrap(self, fn, name: str, attrs_of=None):
        """Return fn timed as span `name`; attrs_of(result) adds counts to it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(result)
                return result
            finally:
                tracer.close(sid, attrs)

        return traced

    def wrap_eval(self, fn, kind: str):
        """Time a realization method; nested field calls count in the outer one."""
        tracer = self
        name = _FIELDS_EVAL + kind

        @functools.wraps(fn)
        def traced(obj, t):
            if tracer._in_field_eval():
                return fn(obj, t)
            points = max(1, int(np.size(t)) // int(getattr(obj, "D", 1)))
            sid = tracer.open(name)
            try:
                return fn(obj, t)
            finally:
                tracer.close(sid, {"points": points})

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every traced entry point of ricelab; undo with restore()."""
        from ricelab import engine, fields, geometry, harness, levelsets, rng

        for cls_name in REALIZATION_CLASSES:
            cls = getattr(fields, cls_name)
            for meth, kind in EVAL_KIND.items():
                if meth in cls.__dict__:
                    self.patch(cls, meth, self.wrap_eval(cls.__dict__[meth], kind))

        def at(owner, attr, name, attrs_of=None):
            self.patch(owner, attr, self.wrap(owner.__dict__[attr], name, attrs_of))

        at(harness, "count_roots_2d", "levelsets.count_roots_2d", _root_count)
        at(harness, "count_roots_1d", "levelsets.count_roots_1d", _root_count)
        at(harness, "nodal_length", "levelsets.nodal_length", _segment_count)
        at(harness, "local_time", "levelsets.local_time")
        at(levelsets, "sample_grid", "levelsets.sample_grid")
        at(harness, "favard_measure", "geometry.favard_measure")
        at(harness, "sample_realization", "fields.sample_realization")
        at(harness, "trig_basis_1d", "fields.corpus")
        at(harness, "batch_coefficients", "fields.corpus")
        at(harness, "model_from_doc", "modelspec.model_from_doc")
        for fn in ENGINE_FUNCTIONS:
            at(harness, fn, f"engine.{fn}", _rhs_counts)
        for owner in (rng, fields, engine, geometry):
            at(owner, "stream", "rng.stream")
        for owner in (rng, fields, harness):
            at(owner, "fanout_seed", "rng.fanout_seed")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: duration minus the covered part of its children's intervals."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s[1] >= 0:
            children.setdefault(s[1], []).append(i)
    out = []
    for i, (_name, _parent, start, end, _attrs) in enumerate(spans):
        clipped = [(max(spans[c][2], start), min(spans[c][3], end))
                   for c in children.get(i, ())]
        out.append((end - start) - _covered([iv for iv in clipped if iv[1] > iv[0]]))
    return out


def _nearest_levelset(spans, i):
    p = spans[i][1]
    while p >= 0:
        if spans[p][0].startswith("levelsets."):
            return spans[p][0]
        p = spans[p][1]
    return None


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass; every name appears, zero if unused."""
    selfs = self_times(spans)
    self_s: dict = {}
    calls: dict = {}
    sums: dict = {}
    for i, (name, _p, _s, _e, attrs) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        for key, val in (attrs or {}).items():
            k = (name, key)
            sums[k] = sums.get(k, 0) + val
        if name.startswith(_FIELDS_EVAL):
            owner = _nearest_levelset(spans, i)
            if owner is not None:
                sums[(owner, "field_points")] = sums.get((owner, "field_points"), 0) + attrs["points"]
                sums[(owner, "field_calls")] = sums.get((owner, "field_calls"), 0) + 1

    kinds = sorted(set(EVAL_KIND.values()))
    m = {
        "fields.eval_s": sum(self_s.get(_FIELDS_EVAL + k, 0.0) for k in kinds),
        "fields.eval_calls": sum(calls.get(_FIELDS_EVAL + k, 0) for k in kinds),
    }
    for k in kinds:
        m[f"fields.eval_points.{k}"] = sums.get((_FIELDS_EVAL + k, "points"), 0)
    m["fields.sample_realization_s"] = self_s.get("fields.sample_realization", 0.0)
    m["fields.sample_realization_calls"] = calls.get("fields.sample_realization", 0)
    m["fields.corpus_s"] = self_s.get("fields.corpus", 0.0)

    c2 = "levelsets.count_roots_2d"
    roots2 = sums.get((c2, "roots"), 0)
    points2 = sums.get((c2, "field_points"), 0)
    m[c2 + ".self_s"] = self_s.get(c2, 0.0)
    m[c2 + ".calls"] = calls.get(c2, 0)
    m[c2 + ".roots"] = roots2
    m[c2 + ".field_points"] = points2
    m[c2 + ".roots_per_kpoint"] = 1000.0 * roots2 / points2 if points2 else 0.0
    c1 = "levelsets.count_roots_1d"
    m[c1 + ".self_s"] = self_s.get(c1, 0.0)
    m[c1 + ".calls"] = calls.get(c1, 0)
    m[c1 + ".roots"] = sums.get((c1, "roots"), 0)
    m[c1 + ".field_calls"] = sums.get((c1, "field_calls"), 0)
    nl = "levelsets.nodal_length"
    m[nl + ".self_s"] = self_s.get(nl, 0.0)
    m[nl + ".calls"] = calls.get(nl, 0)
    m[nl + ".segments"] = sums.get((nl, "segments"), 0)
    m["levelsets.sample_grid_s"] = self_s.get("levelsets.sample_grid", 0.0)
    m["levelsets.local_time_s"] = self_s.get("levelsets.local_time", 0.0)

    fm = "geometry.favard_measure"
    m[fm + ".self_s"] = self_s.get(fm, 0.0)
    m[fm + ".calls"] = calls.get(fm, 0)

    for fn in ENGINE_FUNCTIONS:
        m[f"engine.{fn}.self_s"] = self_s.get(f"engine.{fn}", 0.0)
    for key in ("n_mc", "n_quadrature", "excluded_samples"):
        m[f"engine.{key}"] = sum(sums.get((f"engine.{fn}", key), 0) for fn in ENGINE_FUNCTIONS)

    m["rng.stream.calls"] = calls.get("rng.stream", 0)
    m["rng.stream_s"] = self_s.get("rng.stream", 0.0)
    m["rng.fanout_seed.calls"] = calls.get("rng.fanout_seed", 0)
    m["modelspec.model_from_doc.calls"] = calls.get("modelspec.model_from_doc", 0)
    m["modelspec.model_from_doc.self_s"] = self_s.get("modelspec.model_from_doc", 0.0)
    m["harness.self_s"] = sum(self_s.get(n, 0.0) for n in HARNESS_SPANS)
    return m
