"""Empirical level-set measurement on frozen realizations.

Everything here measures sample paths: root counts with Newton refinement,
marching-squares level curves (as segments), occupation local time of a
batch of sampled line realizations, and a scanner for near-irregular
points.  Statistical comparison against the corresponding integral formulas
lives in the engine and harness modules.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapabilityError, ConfigurationError
from .fields import LineCorpus, _chunked_cols

__all__ = [
    "GridSample",
    "RootSet",
    "LevelCurve",
    "sample_grid",
    "count_roots_1d",
    "count_roots_2d",
    "lens_images",
    "nodal_length",
    "local_time",
    "irregularity_scan",
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
    """Evaluate a realization on a regular lattice; nodes match pointwise eval exactly.

    Every node goes through the pointwise ``value``/``jacobian``, so this is
    the exact reference for the separable lattice kernel that
    ``count_roots_2d`` and ``nodal_length`` read (``_lattice_values``).
    """
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
    """Refined solutions of X(t) = u with per-root Delta and residual.

    ``signed`` is the Jacobian determinant at each root (X'(t) in 1D, det J
    in the plane), whose sign is the root's orientation; ``deltas`` is its
    absolute value.  ``degree`` (planar systems only) is the Brouwer degree
    of X - u on the box, read off the boundary lattice; None where it was
    not resolved.  ``rows`` is the corpus row of each line root (all 0 for
    a single realization) or the field index of each lens image.
    """

    points: np.ndarray  # (n, D)
    signed: np.ndarray  # (n,)
    residuals: np.ndarray  # (n,)
    level: object
    dedup_radius: float
    degree: Optional[int] = None
    rows: Optional[np.ndarray] = None  # (n,)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def deltas(self) -> np.ndarray:
        return np.abs(self.signed)

    @property
    def count(self) -> int:
        return self.points.shape[0]


class _OneRow:
    """One realization as a one-row corpus: every row index is 0."""

    def __init__(self, realization):
        self.realization = realization

    def values(self, ts) -> np.ndarray:
        return np.asarray(self.realization.value(ts), dtype=float).reshape(1, -1)

    def value_at(self, rows, t) -> np.ndarray:
        return np.asarray(self.realization.value(t), dtype=float)

    def derivative_at(self, rows, t) -> np.ndarray:
        return np.asarray(self.realization.derivative(t), dtype=float)

    def value_slope_at(self, rows, t) -> tuple:
        return self.value_at(rows, t), self.derivative_at(rows, t)


# refinement steps per bracket, as many as the 40 bisection and 8 Newton steps
# of the earlier scheme; bisection alone takes a unit bracket below 1e-13 in 44
_ROOT_STEPS = 48


def count_roots_1d(realization, interval, u: float, grid: int = 2048) -> RootSet:
    """Sign-change detection on the grid plus safeguarded Newton refinement.

    ``realization`` is one realization or a ``LineCorpus`` of many; a single
    realization is the one-row case.  Brackets are the grid steps where
    (v < u) changes, in every row.  Each bracket is refined by Newton from
    its midpoint: every evaluated point shrinks the bracket, and a Newton
    step that would leave it is a bisection step instead.  All brackets of
    all rows are refined together: each step is one field call for value
    and slope (one trig table on a corpus) over the (row, t) pairs still
    active, so the number of calls per corpus block is bounded by the step
    cap, not by the number of rows or roots.  Roots are refined to residual
    <= 1e-10, reported only strictly inside the open interval, and
    deduplicated per row at h/2; ``rows`` gives the row of each root.
    Tangential (non-crossing) roots are a resolution limitation, not an
    error.
    """
    corpus = realization if isinstance(realization, LineCorpus) else _OneRow(realization)
    lo, hi = _interval(interval)
    grid = int(grid)
    if grid < 2:
        raise ConfigurationError("resolution must be >= 2")
    ts = np.linspace(lo, hi, grid)
    vals = corpus.values(ts) - u
    neg = vals < 0.0
    row, idx = np.nonzero(neg[:, :-1] != neg[:, 1:])

    # safeguarded Newton from each bracket's midpoint: the evaluated point
    # replaces the bracket end of its sign, and a Newton step that leaves the
    # bracket becomes a bisection step; value and slope share one field call
    a, b, neg_a = ts[idx], ts[idx + 1], neg[row, idx]
    t = 0.5 * (a + b)
    active = np.ones(idx.size, dtype=bool)
    for _ in range(_ROOT_STEPS):
        k = np.nonzero(active)[0]
        if k.size == 0:
            break
        f, df = corpus.value_slope_at(row[k], t[k])
        f = f - u
        tk = t[k]
        left = (f < 0.0) == neg_a[k]
        a[k[left]] = tk[left]
        b[k[~left]] = tk[~left]
        ak, bk = a[k], b[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = tk - f / df
        inside = (ak < step) & (step < bk)
        done = np.abs(f) <= 1e-12
        # a converged point still takes its last Newton step, inside the bracket
        t[k] = np.where(inside, step, np.where(done, tk, 0.5 * (ak + bk)))
        tol = 1e-13 * np.maximum(1.0, np.abs(ak))
        active[k] = ~(done | (bk - ak < tol) | (np.abs(t[k] - tk) < tol))

    # a point whose residual exceeds 1e-10 is dropped and blocks no other,
    # so the per-row greedy dedup runs over the good points only
    h = (hi - lo) / (grid - 1)
    order = np.lexsort((t, row))
    row, t = row[order], t[order]
    inside = (lo < t) & (t < hi)
    row, t = row[inside], t[inside]
    res = np.abs(corpus.value_at(row, t) - u) if t.size else np.zeros(0)
    good = res <= 1e-10
    row, t, res = row[good], t[good], res[good]
    kept = []
    last_row, last_t = -1, 0.0
    for i, (r, x) in enumerate(zip(row.tolist(), t.tolist())):
        if r == last_row and x - last_t < 0.5 * h:
            continue
        kept.append(i)
        last_row, last_t = r, x
    row, pts, residuals = row[kept], t[kept], res[kept]
    signed = corpus.derivative_at(row, pts) if kept else np.zeros(0)
    return RootSet(pts.reshape(-1, 1), signed, residuals, float(u), 0.5 * h, rows=row)


def _batch_solve_2x2(J, F):
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    det = np.where(np.abs(det) < 1e-300, np.nan, det)
    dx0 = (F[:, 0] * J[:, 1, 1] - F[:, 1] * J[:, 0, 1]) / det
    dx1 = (F[:, 1] * J[:, 0, 0] - F[:, 0] * J[:, 1, 0]) / det
    return np.column_stack([dx0, dx1])


def _singular_points(realization):
    """(N, 2) singular points of a deflection map (its point masses), or None."""
    singular = getattr(realization, "star_positions", None)
    if singular is not None and singular.shape[0] == 0:
        return None
    return singular


def _near(pts: np.ndarray, singular: np.ndarray, d2_max: float) -> np.ndarray:
    """Which points lie within squared distance d2_max of some singular point."""
    d2 = np.min(np.sum((pts[:, None, :] - singular[None, :, :]) ** 2, axis=-1), axis=1)
    return d2 < d2_max


def _lattice_values(realization, axes) -> np.ndarray:
    """Values on the tensor lattice axes[0] x axes[1]: shape (n0, n1), plus (d,) if d > 1.

    A realization with a ``lattice`` method (spectral fields) factors its
    phases over the two axes; any other is evaluated pointwise, after nodes
    that land on a singular point are moved off it by 1e-9.
    """
    lattice = getattr(realization, "lattice", None)
    if lattice is not None:
        return lattice(axes)
    vals = _values_off_singular(realization, _lattice_points(axes))
    shape = (axes[0].size, axes[1].size)
    return vals.reshape(shape if realization.d == 1 else shape + (realization.d,))


def _values_off_singular(realization, pts: np.ndarray) -> np.ndarray:
    """Pointwise values, after points that land on a singular point are moved off it by 1e-9.

    With singular points, both steps build (points, singular points, 2)
    arrays, so the points go through them in blocks of ``_chunked_cols``.
    """
    singular = _singular_points(realization)
    if singular is None:
        return np.asarray(realization.value(pts), dtype=float)

    def block(p: np.ndarray) -> np.ndarray:
        p = np.where(_near(p, singular, 1e-20)[:, None], p + 1e-9, p)
        return np.asarray(realization.value(p), dtype=float)

    return np.concatenate([block(pts[lo:hi]) for lo, hi in
                           _chunked_cols(pts.shape[0], 2 * singular.shape[0])])


_MAX_HALVINGS = 30  # of one boundary step: 2^-30 of a lattice cell


def _boundary_degree(realization, axes, vals: np.ndarray, u: np.ndarray):
    """Turns of X - u around 0 along the box boundary, or None.

    The path starts as the boundary nodes of the lattice (``vals``, X - u
    on ``axes``), counter-clockwise, each node once.  A step that turns by
    pi/2 or more cannot tell which way the path went round, so it is halved
    at its midpoint, evaluated pointwise, until every sub-step turns by
    less.  None when the path meets 0, or a step still turns by pi/2 or
    more after ``_MAX_HALVINGS`` halvings.
    """
    node = np.arange(vals.shape[0] * vals.shape[1]).reshape(vals.shape[:2])
    i, j = np.unravel_index(np.concatenate(
        [node[:-1, 0], node[-1, :-1], node[:0:-1, -1], node[0, :0:-1]]), node.shape)
    pa, fa = np.column_stack([axes[0][i], axes[1][j]]), vals[i, j]
    pb, fb = np.roll(pa, -1, axis=0), np.roll(fa, -1, axis=0)
    total = 0.0
    for depth in range(_MAX_HALVINGS + 1):
        if np.any(np.all(fa == 0.0, axis=1)):
            return None
        turn = np.arctan2(fb[:, 1], fb[:, 0]) - np.arctan2(fa[:, 1], fa[:, 0])
        turn = (turn + np.pi) % (2.0 * np.pi) - np.pi
        wide = np.abs(turn) >= 0.5 * np.pi
        total += float(np.sum(turn[~wide]))
        if not wide.any():
            return int(round(total / (2.0 * np.pi)))
        if depth == _MAX_HALVINGS:
            return None
        pa, fa, pb, fb = pa[wide], fa[wide], pb[wide], fb[wide]
        pm = 0.5 * (pa + pb)
        fm = _values_off_singular(realization, pm).reshape(-1, 2) - u
        pa, fa = np.concatenate([pa, pm]), np.concatenate([fa, fm])
        pb, fb = np.concatenate([pm, pb]), np.concatenate([fm, fb])


def _local_minima(norm: np.ndarray) -> np.ndarray:
    """Lattice nodes no larger than any of their (up to) 8 neighbours."""
    n0, n1 = norm.shape
    padded = np.pad(norm, 1, constant_values=np.inf)
    is_min = np.ones(norm.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                is_min &= norm <= padded[1 + di:1 + di + n0, 1 + dj:1 + dj + n1]
    return is_min


def count_roots_2d(
    realization,
    box,
    u,
    grid: int = 512,
    newton_iters: int = 30,
    tol: float = 1e-9,
) -> RootSet:
    """Newton root finding for planar systems X(t) = u.

    Seeds are the centres of the grid cells whose corner values bracket u in
    both components, plus the lattice nodes where |X - u| is no larger than
    at any of their 8 neighbours (tangential roots need not bracket).  All
    seeds step together, each step capped at 4h; a seed retires once
    |X - u| <= 1e-3 tol, or when its residual has not halved for 6
    iterations in a row, and freezes at a singular point, on a singular
    Jacobian, or far outside the box.  Points with residual <= tol strictly
    inside the box are deduplicated at radius h/2; the rest are discarded.

    ``degree`` is the winding number of X - u along the boundary nodes of the
    lattice, the Brouwer degree that the sum of sign det J over all roots in
    the box equals.  Boundary steps too coarse to follow the winding are
    halved pointwise (see ``_boundary_degree``); it is None where that does
    not settle them.  Each point mass of a deflection map inside the box adds
    1 to the winding number.  The degree certificate cannot see a missed
    pair of roots of opposite orientation, the usual miss near a fold: their
    signs cancel in the sum.
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
    singular = _singular_points(realization)
    vals = _lattice_values(realization, ax) - u

    def corner_bracket(comp):
        v = vals[:, :, comp]
        c = np.stack([v[:-1, :-1], v[1:, :-1], v[1:, 1:], v[:-1, 1:]])
        return (c.min(axis=0) < 0.0) & (c.max(axis=0) > 0.0)

    ci, cj = np.nonzero(corner_bracket(0) & corner_bracket(1))
    ni, nj = np.nonzero(_local_minima(np.hypot(vals[:, :, 0], vals[:, :, 1])))
    P = np.concatenate([
        np.column_stack([ax[0][ci] + 0.5 * (ax[0][1] - ax[0][0]),
                         ax[1][cj] + 0.5 * (ax[1][1] - ax[1][0])]),
        np.column_stack([ax[0][ni], ax[1][nj]]),
    ])

    active = np.ones(P.shape[0], dtype=bool)
    last = np.full(P.shape[0], np.inf)
    stalled = np.zeros(P.shape[0], dtype=int)
    cap = 4.0 * h
    span = np.max(b[:, 1] - b[:, 0])
    for _ in range(int(newton_iters)):
        idx = np.nonzero(active)[0]
        if singular is not None:
            hit = _near(P[idx], singular, 1e-16)
            active[idx[hit]] = False
            idx = idx[~hit]
        if idx.size == 0:
            break
        F = np.atleast_2d(realization.value(P[idx])) - u
        r = np.linalg.norm(F, axis=1)
        stalled[idx] = np.where(r > 0.5 * last[idx], stalled[idx] + 1, 0)
        last[idx] = r
        done = (r <= 1e-3 * tol) | (stalled[idx] >= 6)
        active[idx[done]] = False
        idx, F = idx[~done], F[~done]
        if idx.size == 0:
            break
        J = np.asarray(realization.jacobian(P[idx])).reshape(-1, 2, 2)
        step = _batch_solve_2x2(J, F)
        bad = ~np.all(np.isfinite(step), axis=1)
        norm = np.linalg.norm(step, axis=1)
        big = norm > cap
        step[big] *= (cap / norm[big])[:, None]
        P[idx] -= step
        active[idx[bad]] = False
        # freeze points that wander far outside the box
        out = np.any((P[idx] < b[:, 0] - span) | (P[idx] > b[:, 1] + span), axis=1)
        active[idx[out]] = False

    P = P[np.all((P > b[:, 0]) & (P < b[:, 1]), axis=1)]
    res = np.zeros(0)
    if P.shape[0]:
        res = np.linalg.norm(np.atleast_2d(realization.value(P)) - u, axis=1)
        P, res = P[res <= tol], res[res <= tol]

    kept_pts, kept_res = [], []
    for i in np.lexsort((P[:, 1], P[:, 0])):
        p = P[i]
        if any(np.hypot(p[0] - q[0], p[1] - q[1]) < 0.5 * h for q in kept_pts):
            continue
        kept_pts.append(p)
        kept_res.append(res[i])
    if kept_pts:
        kp = np.asarray(kept_pts)
        J = np.asarray(realization.jacobian(kp)).reshape(-1, 2, 2)
        signed = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    else:
        kp = np.zeros((0, 2))
        signed = np.zeros(0)
    return RootSet(kp, signed, np.asarray(kept_res, dtype=float), u.copy(), 0.5 * h,
                   _boundary_degree(realization, ax, vals, u))


# ---------------------------------------------------------------------------
# Lens images
# ---------------------------------------------------------------------------

_IMAGE_TOL = 1e-9  # residual bound |eta(x) - y|, as in count_roots_2d
_IMAGE_NEWTON_STEPS = 8
_IMAGE_DEDUP = 1e-7  # Newton-polished copies of one image agree to rounding
_IMAGE_BLOCK = 1 << 18  # (root, root) pairs of the Aberth sums in one block (4 MB)
_ABERTH_TOL = 1e-13  # a root whose step is below this times max(1, |z|) is frozen


def _aberth_roots(xi: np.ndarray, y: complex, c: float, m: float, k: int) -> tuple:
    """``(z, converged)``: the k roots of each field's image polynomial, by Aberth-Ehrlich.

    The polynomial is never expanded.  For c != 0 it is Poly = F prod_j N_j
    with F = c z - y - 2m sum_j 1/(R - conj xi_j), R = (conj y + 2m S1)/c
    and N_j = c P (R - conj xi_j), P = prod_j (z - xi_j), so that
    Poly'/Poly = F'/F + N S1 + R' sum_j 1/(R - conj xi_j), R' = -2m S2/c,
    Sk = sum_j (z - xi_j)^-k; for c = 0 it is conj(y) P + 2m P', with
    Poly'/Poly = S1 - 2m S2/(conj y + 2m S1).  Each costs O(N) per root.
    The roots start on a circle of radius (|y| + 2mN + |c| max|xi_j|)/|c| + 1
    (max|xi_j| + 2mN/|y| + 1 at c = 0) and take simultaneous steps
    w = 1/(Poly'/Poly - sum_{l != k} 1/(z_k - z_l)) (Aberth 1973).  A root
    freezes once |w| < _ABERTH_TOL max(1, |z|), or where Poly'/Poly or w is
    not finite (an infinite ratio is an exact root).  ``converged`` flags
    the fields whose roots all froze within 100 + 2k steps.
    """
    n = xi.shape[1]
    yb = np.conj(y)

    def ratio(z, xi):
        d = 1.0 / (z[:, None] - xi)
        s1, s2 = d.sum(axis=1), (d * d).sum(axis=1)
        if c == 0.0:
            return s1 - 2.0 * m * s2 / (yb + 2.0 * m * s1)
        e = 1.0 / ((yb + 2.0 * m * s1)[:, None] / c - np.conj(xi))
        t1, t2 = e.sum(axis=1), (e * e).sum(axis=1)
        r1 = -2.0 * m * s2 / c
        return (c + 2.0 * m * r1 * t2) / (c * z - y - 2.0 * m * t1) + n * s1 + r1 * t1

    reach = np.abs(xi).max(axis=1, initial=0.0)
    if c != 0.0:
        radius = (abs(y) + 2.0 * m * n + abs(c) * reach) / abs(c) + 1.0
    else:
        radius = reach + 1.0 + (2.0 * m * n / abs(y) if y != 0.0 else 0.0)
    z = radius[:, None] * np.exp(2j * np.pi * (np.arange(k) + 0.25) / k)
    active = np.ones(z.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(100 + 2 * k):
            f, r = np.nonzero(active)
            if f.size == 0:
                break
            zk = z[f, r]
            pairs = 1.0 / (zk[:, None] - z[f])
            pairs[np.arange(f.size), r] = 0.0
            g = ratio(zk, xi[f])
            w = 1.0 / (g - pairs.sum(axis=1))
            move = np.isfinite(g) & np.isfinite(w)
            z[f[move], r[move]] -= w[move]
            active[f, r] = move & (np.abs(w) >= _ABERTH_TOL * np.maximum(1.0, np.abs(zk)))
    return z, ~active.any(axis=1)


def _drop_copies(z: np.ndarray, keep: np.ndarray) -> None:
    """Unset ``keep`` on each kept root within _IMAGE_DEDUP of an earlier kept root of its field.

    Only kept roots are compared: each field's are gathered first, in their
    order, into a (fields, k, k) distance array, k the most any field keeps.
    """
    k = int(keep.sum(axis=1).max(initial=0))
    idx = np.argsort(~keep, axis=1, kind="stable")[:, :k]
    zk = np.take_along_axis(z, idx, axis=1)
    kk = np.take_along_axis(keep, idx, axis=1)
    with np.errstate(invalid="ignore"):
        close = np.abs(zk[:, :, None] - zk[:, None, :]) < _IMAGE_DEDUP
    copy = np.any(close & kk[:, None, :] & np.tri(k, k, -1, dtype=bool), axis=2)
    np.put_along_axis(keep, idx, kk & ~copy, axis=1)


def _image_block(xi: np.ndarray, y: complex, c: float, m: float) -> tuple:
    """``(z, keep, det, residual, certified)`` of a block of fields; see ``lens_images``."""
    n = xi.shape[1]
    deg = n * n + 1 if c else n - (y == 0)
    z, converged = _aberth_roots(xi, y, c, m, max(deg, 0))

    def deflection(z):
        """(eta - y, d eta / d conj(z)) at every (field, root) pair."""
        inv = 1.0 / np.conj(z[:, :, None] - xi[:, None, :])
        return c * z - 2.0 * m * inv.sum(axis=2) - y, 2.0 * m * (inv * inv).sum(axis=2)

    with np.errstate(all="ignore"):
        for _ in range(_IMAGE_NEWTON_STEPS):
            f, b = deflection(z)
            z = z - (c * f - b * np.conj(f)) / (c * c - np.abs(b) ** 2)
        f, b = deflection(z)
        residual = np.abs(f)
        det = c * c - np.abs(b) ** 2
        off_star = np.all(np.abs(z[:, :, None] - xi[:, None, :]) ** 2 >= 1e-24, axis=2)
        keep = np.isfinite(z) & off_star & (residual <= _IMAGE_TOL)
    _drop_copies(z, keep)
    parity = np.sum(np.where(keep, np.sign(det), 0.0), axis=1)
    return z, keep, det, residual, converged & (parity == (1 - n if c else -deg))


def lens_images(stars, y, c: float, m: float) -> tuple:
    """Every image of source ``y`` under each of a set of point-mass deflection maps.

    ``stars`` (fields, N, 2) holds the star positions of fields of one
    model, with c = 1 - kappa_c + gamma and star mass ``m``.  Each field's
    images are roots of a complex polynomial of degree N^2 + 1 (Witt 1990),
    or N (N - 1 at y = 0) when c = 0.  ``_aberth_roots`` finds every root
    without forming the coefficients, for all fields of a block at once; a
    block holds at most 2^18 (root, root) pairs (a whole chunk at three
    stars, one field from N = 20 on), and a step costs N^4 per field.  The
    roots then take Newton steps on the real map together, in complex form
    with d eta/dz = c and d eta/d conj(z) = 2m sum 1/conj(z - xi_j)^2.  A
    root is kept when it is finite, no closer than 1e-12 to a star and has
    |eta(x) - y| <= 1e-9, which removes the roots that solve only the
    conjugated equation; kept roots of a field closer than 1e-7 to an
    earlier one are dropped as copies.

    Returns ``(roots, certified)``.  ``roots`` is a ``RootSet`` of the kept
    images in the whole plane, ``rows`` giving each one's field index and
    ``signed`` its det J = c^2 - |d eta/d conj(z)|^2.  ``certified`` (one
    flag per field) says the field's roots converged and it passed the
    parity certificate: the sum of sign det J over its images equals 1 - N,
    the parity theorem for N point masses (Petters, Levine & Wambsganss
    2001).  At c = 0 every root is an image with det J < 0, so the
    certificate asks that every root be kept: a parity of minus the degree.
    Like the degree certificate of ``count_roots_2d``, the parity
    certificate cannot see a missed pair of images of opposite orientation,
    the usual miss near a fold: their signs cancel in the sum.
    """
    stars = np.asarray(stars, dtype=float)
    xi = stars[..., 0] + 1j * stars[..., 1]
    yc = complex(float(y[0]), float(y[1]))
    block = max(1, _IMAGE_BLOCK // (xi.shape[1] ** 2 + 1) ** 2)
    parts = [_image_block(xi[lo:lo + block], yc, c, m) for lo in range(0, len(xi), block)]
    z, keep, det, residual, certified = (np.concatenate(a) for a in zip(*parts))
    rows, k = np.nonzero(keep)
    points = np.column_stack([z.real[rows, k], z.imag[rows, k]])
    roots = RootSet(points, det[rows, k], residual[rows, k],
                    np.array([yc.real, yc.imag]), _IMAGE_DEDUP, rows=rows)
    return roots, certified


# ---------------------------------------------------------------------------
# Local time
# ---------------------------------------------------------------------------


def local_time(values, u: float, delta: float, spacing: float) -> np.ndarray:
    """Occupation local time at level u of each sampled row of ``values``.

    Each row holds one realization at the cell midpoints lo + (i + 1/2) h of
    a line window, h = ``spacing``.  Row by row this is #{|v - u| <= delta}
    * h / (2 delta): the midpoint rule for the window form of the occupation
    density, (1 / 2delta) Int 1{|X(t) - u| <= delta} dt (Azais & Wschebor,
    *Level Sets and Extrema of Random Processes and Fields*, 2009).  For a
    stationary field its mean is the window length times
    P(|X - u| <= delta) / (2 delta).
    """
    if delta <= 0:
        raise ConfigurationError("delta must be positive")
    hits = np.count_nonzero(np.abs(np.asarray(values, dtype=float) - float(u)) <= delta,
                            axis=-1)
    return hits * float(spacing) / (2.0 * float(delta))


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
    """Marching-squares level curve as its (S, 2, 2) straight segments.

    Segments are not chained: the length sums them, and ``favard_measure``
    counts line crossings per segment from endpoint signs, which gives the
    same counts as chains because shared endpoints are bitwise equal.
    """

    segments: np.ndarray  # (S, 2, 2)
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

    The lattice values come from ``_lattice_values``: separable phases for
    spectral fields, so they agree with pointwise evaluation up to rounding.
    Only the crossing cells (case not 0 or 15) are gathered, once, in raster
    order; each table case and saddle branch is then selected from those
    short arrays, so segments come out case by case in table order and in
    raster order within a case (Lorensen & Cline, "Marching cubes", 1987).
    Vertices come from linear interpolation along cell edges; ambiguous
    (double-saddle) cells are resolved by evaluating the field pointwise at
    the cell center, which is exact for every model here.  Returns the
    segments of nonzero length, unchained (see ``LevelCurve``).
    """
    if realization.d != 1 or realization.D != 2:
        raise CapabilityError("nodal_length needs a scalar field on R^2")
    b = _box2d(box)
    res = int(grid)
    if res < 2:
        raise ConfigurationError("resolution must be >= 2")
    # values only: marching squares never reads gradients on the lattice
    ax = _lattice_axes(b, res)
    v = _lattice_values(realization, ax)
    u = float(u)
    hx, hy = (b[:, 1] - b[:, 0]) / (res - 1)

    # v < u exactly when v - u < 0 (with gradual underflow, v - u is zero only
    # at v == u), so only the corner values of crossing cells are shifted by u
    below = (v < u).view(np.int8)
    case = below[:-1, :-1] + 2 * below[1:, :-1] + 4 * below[1:, 1:] + 8 * below[:-1, 1:]
    i, j = np.divmod(np.flatnonzero((case != 0) & (case != 15)), res - 1)
    case = case[i, j]
    corners = tuple(c - u for c in (v[i, j], v[i + 1, j], v[i + 1, j + 1], v[i, j + 1]))
    # exact lattice coordinates on both cell sides, so that the crossing on a
    # shared edge is computed bitwise identically from its two adjacent cells
    x0, x1 = ax[0][i], ax[0][i + 1]
    y0, y1 = ax[1][j], ax[1][j + 1]

    n_saddle = np.count_nonzero((case == 5) | (case == 10))
    segments = np.empty((case.size + n_saddle, 2, 2))
    filled = 0

    def emit(cells, pairs):
        nonlocal filled
        if cells.size == 0:
            return
        cell = (x0[cells], y0[cells], x1[cells], y1[cells]) + tuple(c[cells] for c in corners)
        for ea, eb in pairs:
            out = segments[filled:filled + cells.size]
            out[:, 0, 0], out[:, 0, 1] = _edge_point(ea, *cell)
            out[:, 1, 0], out[:, 1, 1] = _edge_point(eb, *cell)
            filled += cells.size

    for idx, pairs in _MS_TABLE.items():
        emit(np.flatnonzero(case == idx), pairs)

    for idx, branches in _MS_SADDLE.items():
        cells = np.flatnonzero(case == idx)
        if cells.size:
            centers = np.column_stack([0.5 * (x0[cells] + x1[cells]),
                                       0.5 * (y0[cells] + y1[cells])])
            neg = np.asarray(realization.value(centers), dtype=float) - u < 0.0
            emit(cells[neg], branches["neg"])
            emit(cells[~neg], branches["pos"])

    lengths = np.linalg.norm(segments[:, 1] - segments[:, 0], axis=1)
    return LevelCurve(segments[lengths > 0.0], u, float(max(hx, hy)))


# ---------------------------------------------------------------------------
# Irregularity scan
# ---------------------------------------------------------------------------


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
