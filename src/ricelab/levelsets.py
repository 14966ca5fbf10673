"""Empirical level-set measurement on frozen realizations.

Everything here measures one fixed sample path: root counts with Newton
refinement, marching-squares level curves, the delta-window (Kac) counter,
occupation local time, weighted sums over roots, and a scanner for
near-irregular points.  Statistical comparison against the corresponding
integral formulas lives in the engine and harness modules.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import CapabilityError, ConfigurationError
from .geometry import Polyline, normal_jacobian

__all__ = [
    "GridSample",
    "RootSet",
    "LevelCurve",
    "sample_grid",
    "count_roots_1d",
    "count_roots_2d",
    "kac_counter",
    "nodal_length",
    "local_time",
    "irregularity_scan",
    "weighted_root_sum",
]


def _interval(box) -> tuple:
    a = np.asarray(box, dtype=float).ravel()
    if a.size != 2 or not a[0] < a[1]:
        raise ConfigurationError(f"interval must be (lo, hi), got {box!r}")
    return float(a[0]), float(a[1])


def _box2d(box) -> np.ndarray:
    a = np.asarray(box, dtype=float)
    if a.shape != (2, 2) or not np.all(a[:, 0] < a[:, 1]):
        raise ConfigurationError(f"2D box must be ((lo0,hi0),(lo1,hi1)), got {box!r}")
    return a


def _ball_volume(d: int, delta: float) -> float:
    if d == 1:
        return 2.0 * delta
    if d == 2:
        return math.pi * delta**2
    raise CapabilityError(f"ball volume implemented for d <= 2, got d={d}")


# ---------------------------------------------------------------------------
# Grid samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSample:
    """Field values and Jacobians on a regular lattice over an axis-aligned box."""

    box: np.ndarray  # (D, 2)
    resolution: int
    values: np.ndarray  # (res,)*D  + (d,) trailing if d > 1
    gradients: np.ndarray  # (res,)*D + (d, D)
    realization: object

    @property
    def spacing(self) -> np.ndarray:
        return (self.box[:, 1] - self.box[:, 0]) / (self.resolution - 1)

    def export(self, prefix: str) -> str:
        """Write values/gradients as flat float64 binaries plus a JSON sidecar."""
        vals_file = prefix + ".values.bin"
        grad_file = prefix + ".gradients.bin"
        np.ascontiguousarray(self.values, dtype="<f8").tofile(vals_file)
        np.ascontiguousarray(self.gradients, dtype="<f8").tofile(grad_file)
        sidecar = {
            "schema_version": 1,
            "kind": "grid_sample",
            "dtype": "<f8",
            "order": "C",
            "box": self.box.tolist(),
            "resolution": self.resolution,
            "spacing": self.spacing.tolist(),
            "values_file": os.path.basename(vals_file),
            "values_shape": list(self.values.shape),
            "gradients_file": os.path.basename(grad_file),
            "gradients_shape": list(self.gradients.shape),
            "seed": getattr(self.realization, "seed", None),
        }
        path = prefix + ".json"
        with open(path, "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
        return path


def _lattice_axes(box: np.ndarray, res: int):
    return [np.linspace(lo, hi, res) for lo, hi in box]


def _lattice_points(axes) -> np.ndarray:
    """(n0 * n1, 2) nodes of the tensor lattice on two axes, first axis slowest."""
    xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def sample_grid(realization, box, resolution: int) -> GridSample:
    """Evaluate a realization on a regular lattice; nodes match pointwise eval exactly."""
    res = int(resolution)
    if res < 2:
        raise ConfigurationError("resolution must be >= 2")
    D = realization.D
    if D == 1:
        lo, hi = _interval(box)
        b = np.array([[lo, hi]])
        ts = np.linspace(lo, hi, res)
        vals = np.asarray(realization.value(ts), dtype=float)
        grads = np.asarray(realization.jacobian(ts), dtype=float)
        return GridSample(b, res, vals, grads.reshape(res, realization.d, 1), realization)
    if D == 2:
        b = _box2d(box)
        pts = _lattice_points(_lattice_axes(b, res))
        vals = np.asarray(realization.value(pts), dtype=float)
        grads = np.asarray(realization.jacobian(pts), dtype=float)
        d = realization.d
        vshape = (res, res) if d == 1 else (res, res, d)
        return GridSample(
            b, res, vals.reshape(vshape), grads.reshape(res, res, d, 2), realization
        )
    raise CapabilityError(f"grids implemented for D <= 2, got D={D}")


# ---------------------------------------------------------------------------
# Root sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootSet:
    """Refined solutions of X(t) = u with per-root Delta and residual."""

    points: np.ndarray  # (n, D)
    deltas: np.ndarray  # (n,)
    residuals: np.ndarray  # (n,)
    level: object
    dedup_radius: float

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def count(self) -> int:
        return self.points.shape[0]

    def to_csv(self, path) -> None:
        D = self.points.shape[1] if self.points.size else 1
        cols = [f"t{i}" for i in range(D)]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index"] + cols + ["delta", "residual"])
            for i in range(self.count):
                w.writerow(
                    [i]
                    + [repr(float(x)) for x in np.atleast_1d(self.points[i])]
                    + [repr(float(self.deltas[i])), repr(float(self.residuals[i]))]
                )


def count_roots_1d(realization, interval, u: float, grid: int = 2048) -> RootSet:
    """Sign-change detection on the grid plus bisection/Newton refinement.

    All brackets are refined together: each bisection or Newton step is one
    field call over the brackets still active, so the number of calls is
    bounded by the iteration caps, not by the number of roots.  Roots are
    refined to residual <= 1e-10 and reported only strictly inside the open
    interval.  Tangential (non-crossing) roots are a resolution limitation,
    not an error.
    """
    lo, hi = _interval(interval)
    grid = int(grid)
    if grid < 2:
        raise ConfigurationError("resolution must be >= 2")
    ts = np.linspace(lo, hi, grid)
    vals = np.asarray(realization.value(ts), dtype=float) - u
    neg = vals < 0.0
    idx = np.nonzero(neg[:-1] != neg[1:])[0]

    # bisection to a tight bracket
    a, b, fa = ts[idx], ts[idx + 1], vals[idx]
    active = np.ones(idx.size, dtype=bool)
    for _ in range(40):
        k = np.nonzero(active)[0]
        if k.size == 0:
            break
        m = 0.5 * (a[k] + b[k])
        fm = np.asarray(realization.value(m), dtype=float) - u
        left = (fm < 0.0) == (fa[k] < 0.0)
        a[k[left]], fa[k[left]] = m[left], fm[left]
        b[k[~left]] = m[~left]
        active[k] = ~(b[k] - a[k] < 1e-13 * np.maximum(1.0, np.abs(a[k])))

    # Newton polish; a step leaving the bracket widened by its width stops it
    t = 0.5 * (a + b)
    width = b - a
    active = np.ones(idx.size, dtype=bool)
    for _ in range(8):
        k = np.nonzero(active)[0]
        if k.size == 0:
            break
        f = np.asarray(realization.value(t[k]), dtype=float) - u
        far = np.abs(f) > 1e-12
        active[k[~far]] = False
        k, f = k[far], f[far]
        if k.size == 0:
            break
        df = np.asarray(realization.derivative(t[k]), dtype=float)
        with np.errstate(divide="ignore"):
            t_new = t[k] - f / df
        ok = (a[k] - width[k] <= t_new) & (t_new <= b[k] + width[k])
        t[k[ok]] = t_new[ok]
        active[k[~ok]] = False

    h = (hi - lo) / (grid - 1)
    t = np.sort(t)
    t = t[(lo < t) & (t < hi)]
    res = np.zeros(0)
    if t.size:
        res = np.abs(np.asarray(realization.value(t), dtype=float) - u)
    kept = []
    for i in range(t.size):
        if kept and t[i] - t[kept[-1]] < 0.5 * h:
            continue
        if res[i] <= 1e-10:
            kept.append(i)
    pts, residuals = t[kept], res[kept]
    deltas = np.zeros(0)
    if kept:
        deltas = np.abs(np.asarray(realization.derivative(pts), dtype=float))
    return RootSet(pts.reshape(-1, 1), deltas, residuals, float(u), 0.5 * h)


def _batch_solve_2x2(J, F):
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    det = np.where(np.abs(det) < 1e-300, np.nan, det)
    dx0 = (F[:, 0] * J[:, 1, 1] - F[:, 1] * J[:, 0, 1]) / det
    dx1 = (F[:, 1] * J[:, 0, 0] - F[:, 0] * J[:, 1, 0]) / det
    return np.column_stack([dx0, dx1])


def count_roots_2d(
    realization,
    box,
    u,
    grid: int = 512,
    newton_iters: int = 30,
    tol: float = 1e-9,
) -> RootSet:
    """Newton root finding for planar systems X(t) = u.

    Seeds come from every grid cell whose corner values bracket u in both
    components, plus a coarse sweep of every 4th cell per axis (tangential
    roots need not bracket).  Converged points are deduplicated at radius
    h/2; divergent seeds are silently discarded.
    """
    if realization.d != 2 or realization.D != 2:
        raise CapabilityError("count_roots_2d needs d = D = 2")
    b = _box2d(box)
    grid = int(grid)
    if grid < 2:
        raise ConfigurationError("resolution must be >= 2")
    u = np.asarray(u, dtype=float).reshape(2)
    ax = _lattice_axes(b, grid)
    h = float(max((b[0, 1] - b[0, 0]), (b[1, 1] - b[1, 0])) / (grid - 1))

    pts = _lattice_points(ax)
    singular = getattr(realization, "star_positions", None)
    if singular is not None and singular.shape[0] == 0:
        singular = None
    if singular is not None:
        # keep lattice nodes off the singular points before evaluating
        d2 = np.min(
            np.sum((pts[:, None, :] - singular[None, :, :]) ** 2, axis=-1), axis=1
        )
        pts[d2 < 1e-20] += 1e-9
    vals = np.asarray(realization.value(pts), dtype=float).reshape(grid, grid, 2) - u

    def corner_bracket(comp):
        v = vals[:, :, comp]
        c = np.stack([v[:-1, :-1], v[1:, :-1], v[1:, 1:], v[:-1, 1:]])
        return (c.min(axis=0) < 0.0) & (c.max(axis=0) > 0.0)

    seed_mask = corner_bracket(0) & corner_bracket(1)
    sweep = np.zeros_like(seed_mask)
    sweep[2::4, 2::4] = True
    seed_mask |= sweep
    ci, cj = np.nonzero(seed_mask)
    seeds = np.column_stack(
        [ax[0][ci] + 0.5 * (ax[0][1] - ax[0][0]), ax[1][cj] + 0.5 * (ax[1][1] - ax[1][0])]
    )

    P = seeds.copy()
    active = np.ones(P.shape[0], dtype=bool)
    for _ in range(int(newton_iters)):
        if not np.any(active):
            break
        idx = np.nonzero(active)[0]
        p = P[idx]
        if singular is not None:
            d2 = np.min(
                np.sum((p[:, None, :] - singular[None, :, :]) ** 2, axis=-1), axis=1
            )
            hit = d2 < 1e-16
            if np.any(hit):
                active[idx[hit]] = False
                idx = idx[~hit]
                if idx.size == 0:
                    break
                p = P[idx]
        F = np.atleast_2d(realization.value(p)) - u
        J = np.asarray(realization.jacobian(p)).reshape(-1, 2, 2)
        step = _batch_solve_2x2(J, F)
        bad = ~np.all(np.isfinite(step), axis=1)
        norm = np.linalg.norm(step, axis=1)
        cap = 4.0 * h
        big = norm > cap
        step[big] *= (cap / norm[big])[:, None]
        P[idx] -= step
        active[idx[bad]] = False
        # freeze points that wander far outside the box
        span = np.max(b[:, 1] - b[:, 0])
        out = np.any((P[idx] < b[:, 0] - span) | (P[idx] > b[:, 1] + span), axis=1)
        active[idx[out]] = False

    finite = np.all(np.isfinite(P), axis=1)
    P = P[finite]
    if P.shape[0]:
        res = np.linalg.norm(np.atleast_2d(realization.value(P)) - u, axis=1)
        inside = np.all((P > b[:, 0]) & (P < b[:, 1]), axis=1)
        keep = (res <= tol) & inside
        P, res = P[keep], res[keep]
    else:
        res = np.zeros(0)

    order = np.lexsort((P[:, 1], P[:, 0])) if P.shape[0] else np.zeros(0, dtype=int)
    kept_pts, kept_res = [], []
    for i in order:
        p = P[i]
        if any(np.hypot(p[0] - q[0], p[1] - q[1]) < 0.5 * h for q in kept_pts):
            continue
        kept_pts.append(p)
        kept_res.append(res[i])
    if kept_pts:
        kp = np.asarray(kept_pts)
        J = np.asarray(realization.jacobian(kp)).reshape(-1, 2, 2)
        deltas = np.abs(J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0])
    else:
        kp = np.zeros((0, 2))
        deltas = np.zeros(0)
    return RootSet(kp, deltas, np.asarray(kept_res, dtype=float), u.copy(), 0.5 * h)


# ---------------------------------------------------------------------------
# Kac counter and local time
# ---------------------------------------------------------------------------


def _midpoint_eval(realization, box, grid):
    D = realization.D
    grid = int(grid)
    if D == 1:
        lo, hi = _interval(box)
        h = (hi - lo) / grid
        ts = lo + (np.arange(grid) + 0.5) * h
        return ts, h
    b = _box2d(box)
    h = (b[:, 1] - b[:, 0]) / grid
    axes = [b[i, 0] + (np.arange(grid) + 0.5) * h[i] for i in range(2)]
    return _lattice_points(axes), float(h[0] * h[1])


def _delta_values(realization, pts) -> np.ndarray:
    """Vectorized Delta = sqrt(det(J J^T)) at many points."""
    d, D = realization.d, realization.D
    J = np.asarray(realization.jacobian(pts), dtype=float)
    n = np.atleast_2d(pts).shape[0] if D > 1 else np.atleast_1d(pts).size
    J = J.reshape(n, d, D)
    if d == 1:
        return np.linalg.norm(J[:, 0, :], axis=1)
    if d == D:
        return np.abs(np.linalg.det(J))
    gram = np.einsum("nij,nkj->nik", J, J)
    return np.sqrt(np.clip(np.linalg.det(gram), 0.0, None))


def kac_counter(realization, box, u, delta: float, grid: int = 2048) -> float:
    """Delta-window root counter: (1/vol B(0,delta)) Int 1{|X-u|<delta} Delta dt.

    Midpoint quadrature on `grid` cells per axis.  Converges to the root
    count as delta shrinks (with the grid refined enough to resolve the
    window).
    """
    if realization.d != realization.D:
        raise CapabilityError("kac_counter needs D = d")
    if delta <= 0:
        raise ConfigurationError("delta must be positive")
    pts, cellvol = _midpoint_eval(realization, box, grid)
    vals = np.asarray(realization.value(pts), dtype=float)
    if realization.d == 1:
        dev = np.abs(vals - float(u))
    else:
        dev = np.linalg.norm(vals.reshape(-1, realization.d) - np.asarray(u, float), axis=1)
    mask = dev < delta
    if not np.any(mask):
        return 0.0
    total = 0.0
    psel = pts[mask]
    deltas = _delta_values(realization, psel)
    total = float(np.sum(deltas)) * cellvol
    return total / _ball_volume(realization.d, float(delta))


def local_time(realization, box, u, delta: float, grid: int = 2048) -> float:
    """Occupation time of the delta-ball around u, normalized by the ball volume."""
    if delta <= 0:
        raise ConfigurationError("delta must be positive")
    pts, cellvol = _midpoint_eval(realization, box, grid)
    vals = np.asarray(realization.value(pts), dtype=float)
    if realization.d == 1:
        dev = np.abs(vals - float(u))
    else:
        dev = np.linalg.norm(vals.reshape(-1, realization.d) - np.asarray(u, float), axis=1)
    occ = float(np.count_nonzero(dev <= delta)) * cellvol
    return occ / _ball_volume(realization.d, float(delta))


# ---------------------------------------------------------------------------
# Marching squares
# ---------------------------------------------------------------------------

# case index bits: corner k negative; corners CCW from lower-left:
# c0=(i,j), c1=(i+1,j), c2=(i+1,j+1), c3=(i,j+1); edges 0=bottom 1=right 2=top 3=left
_MS_TABLE = {
    1: [(0, 3)],
    2: [(0, 1)],
    3: [(1, 3)],
    4: [(1, 2)],
    6: [(0, 2)],
    7: [(2, 3)],
    8: [(2, 3)],
    9: [(0, 2)],
    11: [(1, 2)],
    12: [(1, 3)],
    13: [(0, 1)],
    14: [(0, 3)],
}
_MS_SADDLE = {
    5: {"neg": [(0, 1), (2, 3)], "pos": [(0, 3), (1, 2)]},
    10: {"neg": [(0, 3), (1, 2)], "pos": [(0, 1), (2, 3)]},
}


@dataclass(frozen=True)
class LevelCurve:
    """Marching-squares level curve: assembled polyline plus raw segments."""

    polyline: Polyline
    segments: np.ndarray  # (S, 2, 2)
    deltas: np.ndarray  # (S,) gradient norm at segment midpoints
    level: float
    spacing: float

    @property
    def length(self) -> float:
        if self.segments.size == 0:
            return 0.0
        return float(np.sum(np.linalg.norm(self.segments[:, 1] - self.segments[:, 0], axis=1)))


def _edge_point(edge, x0, y0, x1, y1, v0, v1, v2, v3):
    """Linear-interpolation crossing on one cell edge (vectorized over cells)."""
    if edge == 0:
        s = v0 / (v0 - v1)
        return x0 + s * (x1 - x0), y0
    if edge == 1:
        s = v1 / (v1 - v2)
        return x1, y0 + s * (y1 - y0)
    if edge == 2:
        s = v3 / (v3 - v2)
        return x0 + s * (x1 - x0), y1
    s = v0 / (v0 - v3)
    return x0, y0 + s * (y1 - y0)


def nodal_length(realization, box, u: float, grid: int = 512) -> LevelCurve:
    """Extract the level curve {X = u} by marching squares with exact saddle tests.

    Vertices come from linear interpolation along cell edges; ambiguous
    (double-saddle) cells are resolved by evaluating the field at the cell
    center, which is exact for every model here.
    """
    if realization.d != 1 or realization.D != 2:
        raise CapabilityError("nodal_length needs a scalar field on R^2")
    b = _box2d(box)
    res = int(grid)
    if res < 2:
        raise ConfigurationError("resolution must be >= 2")
    # values only: marching squares never reads gradients on the lattice
    ax = _lattice_axes(b, res)
    v = np.asarray(realization.value(_lattice_points(ax)), dtype=float)
    v = v.reshape(res, res) - float(u)
    hx, hy = (b[:, 1] - b[:, 0]) / (res - 1)

    v0 = v[:-1, :-1]
    v1 = v[1:, :-1]
    v2 = v[1:, 1:]
    v3 = v[:-1, 1:]
    case = (
        (v0 < 0).astype(np.int8)
        + 2 * (v1 < 0).astype(np.int8)
        + 4 * (v2 < 0).astype(np.int8)
        + 8 * (v3 < 0).astype(np.int8)
    )

    segs = []
    # exact lattice coordinates on both cell sides, so that the crossing on a
    # shared edge is computed bitwise identically from its two adjacent cells
    X0 = np.broadcast_to(ax[0][:-1, None], v0.shape)
    Y0 = np.broadcast_to(ax[1][None, :-1], v0.shape)
    X1 = np.broadcast_to(ax[0][1:, None], v0.shape)
    Y1 = np.broadcast_to(ax[1][None, 1:], v0.shape)

    def emit(mask, pairs):
        if not np.any(mask):
            return
        cv = [c[mask] for c in (v0, v1, v2, v3)]
        x0, y0 = X0[mask], Y0[mask]
        x1, y1 = X1[mask], Y1[mask]
        for ea, eb in pairs:
            pax, pay = _edge_point(ea, x0, y0, x1, y1, *cv)
            pbx, pby = _edge_point(eb, x0, y0, x1, y1, *cv)
            segs.append(np.stack([np.column_stack([pax, pay]), np.column_stack([pbx, pby])], axis=1))

    for idx, pairs in _MS_TABLE.items():
        emit(case == idx, pairs)

    for idx, branches in _MS_SADDLE.items():
        mask = case == idx
        if np.any(mask):
            cx = 0.5 * (X0[mask] + X1[mask])
            cy = 0.5 * (Y0[mask] + Y1[mask])
            centers = np.column_stack([cx, cy])
            cvals = np.asarray(realization.value(centers), dtype=float) - float(u)
            for which, sub in (("neg", cvals < 0.0), ("pos", ~(cvals < 0.0))):
                m2 = mask.copy()
                m2[mask] = sub
                emit(m2, branches[which])

    if segs:
        segments = np.concatenate(segs, axis=0)
        lengths = np.linalg.norm(segments[:, 1] - segments[:, 0], axis=1)
        keep = lengths > 0.0
        segments = segments[keep]
    else:
        segments = np.zeros((0, 2, 2))

    if segments.shape[0]:
        mids = 0.5 * (segments[:, 0] + segments[:, 1])
        deltas = np.linalg.norm(np.atleast_2d(realization.gradient(mids)), axis=1)
    else:
        deltas = np.zeros(0)

    poly = _assemble_polyline(segments)
    return LevelCurve(poly, segments, deltas, float(u), float(max(hx, hy)))


def _assemble_polyline(segments: np.ndarray) -> Polyline:
    """Link shared-endpoint segments into chains (endpoints match bitwise)."""
    if segments.shape[0] == 0:
        return Polyline(())
    key = lambda p: (float(p[0]), float(p[1]))
    adj = {}
    for si in range(segments.shape[0]):
        for end in range(2):
            adj.setdefault(key(segments[si, end]), []).append((si, end))
    used = np.zeros(segments.shape[0], dtype=bool)
    comps = []

    def walk(si, end):
        # traverse starting at segment si leaving from endpoint `end`
        chain = [segments[si, end], segments[si, 1 - end]]
        used[si] = True
        while True:
            k = key(chain[-1])
            nxt = [(s, e) for s, e in adj.get(k, []) if not used[s]]
            if not nxt:
                break
            s, e = nxt[0]
            used[s] = True
            chain.append(segments[s, 1 - e])
        return np.asarray(chain)

    # open chains first: endpoints of degree 1, in deterministic order
    degree_one = sorted(
        (k for k, v in adj.items() if len(v) == 1), key=lambda k: (k[0], k[1])
    )
    for k in degree_one:
        for si, end in adj[k]:
            if not used[si]:
                comps.append(walk(si, end))
    for si in range(segments.shape[0]):
        if not used[si]:
            comps.append(walk(si, 0))
    return Polyline(tuple(comps))


# ---------------------------------------------------------------------------
# Irregularity scan and weighted sums
# ---------------------------------------------------------------------------


def irregularity_scan(
    realization, box, u, eps_level: float, eps_delta: float, grid: int = 512
) -> np.ndarray:
    """Grid points where the field is within eps_level of u AND Delta <= eps_delta.

    Returns the flagged lattice points, shape (n, D): empirical witnesses of
    near-tangential level sets.  A regular level has none as eps_delta -> 0.
    """
    D = realization.D
    if D == 1:
        lo, hi = _interval(box)
        pts = np.linspace(lo, hi, int(grid))
        vals = np.asarray(realization.value(pts), dtype=float)
        dev = np.abs(vals - float(u))
        qpts = pts.reshape(-1, 1)
    else:
        qpts = _lattice_points(_lattice_axes(_box2d(box), int(grid)))
        vals = np.asarray(realization.value(qpts), dtype=float)
        if realization.d == 1:
            dev = np.abs(vals - float(u))
        else:
            dev = np.linalg.norm(vals.reshape(-1, realization.d) - np.asarray(u, float), axis=1)
    near = dev <= eps_level
    if not np.any(near):
        return np.zeros((0, D))
    deltas = _delta_values(realization, qpts[near] if D > 1 else qpts[near].ravel())
    flagged = qpts[near][deltas <= eps_delta]
    return flagged.reshape(-1, D)


def weighted_root_sum(measured, weight: Callable) -> float:
    """Sum weight(t) over a RootSet, or integrate weight along a LevelCurve.

    `weight` maps an (n, D) array of locations to n nonnegative values; pass
    a closure over the realization for weights that need auxiliary fields.
    """
    if isinstance(measured, RootSet):
        if measured.count == 0:
            return 0.0
        w = np.asarray(weight(measured.points), dtype=float).ravel()
        if w.size != measured.count or np.any(w < -1e-12):
            raise ConfigurationError("weight must return one nonnegative value per root")
        return float(np.sum(w))
    if isinstance(measured, LevelCurve):
        if measured.segments.shape[0] == 0:
            return 0.0
        mids = 0.5 * (measured.segments[:, 0] + measured.segments[:, 1])
        lens = np.linalg.norm(measured.segments[:, 1] - measured.segments[:, 0], axis=1)
        w = np.asarray(weight(mids), dtype=float).ravel()
        if w.size != lens.size or np.any(w < -1e-12):
            raise ConfigurationError("weight must return one nonnegative value per segment")
        return float(np.sum(w * lens))
    raise ConfigurationError("weighted_root_sum expects a RootSet or LevelCurve")
