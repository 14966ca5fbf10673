"""Deterministic integral geometry: normal Jacobians, Grassmannians, Crofton.

The two Gamma-function constants here, the determinant identity relating a
Jacobian to averages over random subspaces, and the line-sampling (Favard)
length estimator form the geometric half of every level-set formula check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .rng import mean_se, stream

__all__ = [
    "GrassmannElement",
    "Polyline",
    "normal_jacobian",
    "gaussian_det_expectation",
    "crofton_constant",
    "sample_haar_grassmann",
    "crofton_identity_mc",
    "favard_measure",
    "mean_normal_jacobian_mc",
]

_GRAM_CLAMP = 1e-14


def _as_matrix(M) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ConfigurationError("Jacobian must be a 2D matrix")
    d, D = A.shape
    if d > D:
        raise ConfigurationError(f"need d <= D, got {d}x{D}")
    return A


def normal_jacobian(M) -> float:
    """sqrt(det(M M^T)) for a d x D matrix, d <= D; |det M| when square.

    Gram determinants that round off slightly negative (above -1e-14) clamp
    to zero; rank-deficient inputs therefore return exactly 0.
    """
    A = _as_matrix(M)
    d, D = A.shape
    if d == D:
        return abs(float(np.linalg.det(A)))
    gram = A @ A.T
    g = float(np.linalg.det(gram))
    if g < 0:
        if g < -_GRAM_CLAMP * max(1.0, float(np.trace(gram)) ** d):
            raise ConfigurationError(f"Gram determinant {g} is negative beyond round-off")
        g = 0.0
    return math.sqrt(g)


def _batch_normal_jacobian(A: np.ndarray) -> np.ndarray:
    """Vectorized normal Jacobian over a stack (n, d, D)."""
    n, d, D = A.shape
    if d == D:
        return np.abs(np.linalg.det(A))
    gram = np.einsum("nij,nkj->nik", A, A)
    g = np.linalg.det(gram)
    return np.sqrt(np.clip(g, 0.0, None))


def gaussian_det_expectation(D: int, d: int) -> float:
    """E Delta for a d x D matrix of i.i.d. standard normals.

    Equals 2^{d/2} Gamma((D+1)/2) / Gamma((D-d+1)/2).
    """
    D, d = int(D), int(d)
    if not 1 <= d <= D:
        raise ConfigurationError(f"need 1 <= d <= D, got d={d}, D={D}")
    return 2.0 ** (d / 2.0) * math.gamma((D + 1) / 2.0) / math.gamma((D - d + 1) / 2.0)


def _crofton_c(D: int, m: int) -> float:
    return (
        math.sqrt(math.pi)
        * math.gamma((D + 1) / 2.0)
        / (math.gamma((m + 1) / 2.0) * math.gamma((D - m + 1) / 2.0))
    )


def crofton_constant(D: int, m: int) -> float:
    """pi^{1/2} Gamma((D+1)/2) / (Gamma((m+1)/2) Gamma((D-m+1)/2))."""
    D, m = int(D), int(m)
    if not 1 <= m <= D - 1:
        raise ConfigurationError(f"need 1 <= m <= D-1, got m={m}, D={D}")
    return _crofton_c(D, m)


@dataclass(frozen=True)
class GrassmannElement:
    """A d-dimensional subspace of R^D, stored as an orthonormal D x d basis."""

    basis: np.ndarray

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=float)
        if B.ndim != 2 or B.shape[0] < B.shape[1]:
            raise ConfigurationError("basis must be D x d with d <= D")
        gram = B.T @ B
        if not np.allclose(gram, np.eye(B.shape[1]), atol=1e-12):
            raise ConfigurationError("basis columns are not orthonormal to 1e-12")
        object.__setattr__(self, "basis", B)

    @property
    def D(self) -> int:
        return self.basis.shape[0]

    @property
    def d(self) -> int:
        return self.basis.shape[1]


def _haar_batch(D: int, d: int, n: int, rng) -> np.ndarray:
    """(n, D, d) orthonormal bases, Haar-distributed spans.

    Gram-Schmidt on standard Gaussian columns; the classical construction has
    a positive R diagonal by definition, which fixes the sign convention.
    """
    G = rng.standard_normal((n, D, d))
    Q = np.empty_like(G)
    for j in range(d):
        v = G[:, :, j].copy()
        for i in range(j):
            proj = np.einsum("nk,nk->n", Q[:, :, i], v)
            v -= proj[:, None] * Q[:, :, i]
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        Q[:, :, j] = v
    return Q


def sample_haar_grassmann(D: int, d: int, seed: int) -> GrassmannElement:
    """Haar-distributed element of G(D, d)."""
    D, d = int(D), int(d)
    if not 1 <= d <= D:
        raise ConfigurationError(f"need 1 <= d <= D, got d={d}, D={D}")
    rng = stream(seed, "haar-grassmann")
    return GrassmannElement(_haar_batch(D, d, 1, rng)[0])


def crofton_identity_mc(M, n: int, seed: int) -> tuple:
    """Monte Carlo check of Delta(M) = c_{D,D-d} E |det(M Q_V)|.

    Returns (estimate, standard_error).  V is Haar on G(D, d) and Q_V an
    orthonormal basis of V; the estimate is consistent for normal_jacobian(M).
    """
    A = _as_matrix(M)
    d, D = A.shape
    n = int(n)
    if n < 100:
        raise ConfigurationError("need at least 100 samples")
    c = _crofton_c(D, D - d)  # c_{D,0} = 1 covers the square case
    rng = stream(seed, "crofton-identity")
    vals = np.empty(n)
    chunk = max(1, 2_000_000 // (D * d))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        Q = _haar_batch(D, d, hi - lo, rng)
        prod = np.einsum("ij,njk->nik", A, Q)
        vals[lo:hi] = np.abs(np.linalg.det(prod))
    mean, se = mean_se(vals)
    return c * mean, c * se


def mean_normal_jacobian_mc(D: int, d: int, n: int, seed: int) -> tuple:
    """Sample mean (and SE) of Delta over n i.i.d. standard Gaussian d x D matrices."""
    rng = stream(seed, "gauss-jacobian")
    n = int(n)
    vals = np.empty(n)
    chunk = max(1, 4_000_000 // (D * d))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        vals[lo:hi] = _batch_normal_jacobian(rng.standard_normal((hi - lo, d, D)))
    return mean_se(vals)


# ---------------------------------------------------------------------------
# Polylines and the Favard (integral-geometric) length estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polyline:
    """Piecewise-linear set in the plane: one vertex array (k_i, 2) per component."""

    components: tuple

    def __post_init__(self):
        comps = []
        for c in self.components:
            a = np.asarray(c, dtype=float)
            if a.ndim != 2 or a.shape[1] != 2 or a.shape[0] < 1:
                raise ConfigurationError("each component needs shape (k, 2), k >= 1")
            comps.append(a)
        object.__setattr__(self, "components", tuple(comps))

    @property
    def length(self) -> float:
        total = 0.0
        for c in self.components:
            if c.shape[0] > 1:
                total += float(np.sum(np.linalg.norm(np.diff(c, axis=0), axis=1)))
        return total

    @property
    def segments(self) -> np.ndarray:
        """(S, 2, 2) consecutive vertex pairs of every component."""
        parts = [np.stack([c[:-1], c[1:]], axis=1) for c in self.components]
        return np.concatenate(parts) if parts else np.zeros((0, 2, 2))


def favard_measure(shape, n_lines: int, seed: int) -> tuple:
    """Length of a planar piecewise-linear set by random line counting.

    ``shape`` is a ``Polyline`` or a ``levelsets.LevelCurve``; only its
    (S, 2, 2) ``segments`` and its ``length`` are read.  Samples a Haar
    direction, offsets the normal line uniformly over the projection of the
    segments' bounding box, and counts the segments whose endpoints fall on
    opposite sides of the line (an endpoint on the line counts as on its
    positive side, so a line through a shared vertex crosses once).  By the
    Cauchy-Crofton formula (Santalo, *Integral Geometry and Geometric
    Probability*, 1976) c_{2,1} times the offset window length times the
    count is unbiased for the length.  Chains and the same segments given
    separately give the same counts.  Returns (estimate, standard error).
    """
    segments = getattr(shape, "segments", None)
    if segments is None:
        raise ConfigurationError("shape must be a Polyline or a LevelCurve")
    n_lines = int(n_lines)
    if n_lines < 1000:
        raise ConfigurationError("need at least 10^3 lines")
    if shape.length == 0.0:
        return 0.0, 0.0

    segments = np.asarray(segments, dtype=float)
    S = segments.shape[0]
    ends = np.concatenate([segments[:, 0], segments[:, 1]])  # (2S, 2): starts, then ends
    lo_corner, hi_corner = ends.min(axis=0), ends.max(axis=0)
    corners = np.array(
        [
            [lo_corner[0], lo_corner[1]],
            [lo_corner[0], hi_corner[1]],
            [hi_corner[0], lo_corner[1]],
            [hi_corner[0], hi_corner[1]],
        ]
    )

    c21 = _crofton_c(2, 1)
    rng = stream(seed, "favard-lines")
    estimates = np.empty(n_lines)
    chunk = _chunk_lines(ends.shape[0])
    for lo in range(0, n_lines, chunk):
        hi = min(lo + chunk, n_lines)
        k = hi - lo
        normals = rng.standard_normal((k, 2))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        proj_corners = corners @ normals.T  # (4, k)
        wlo, whi = proj_corners.min(axis=0), proj_corners.max(axis=0)
        window = whi - wlo
        y = wlo + window * rng.random(k)
        neg = ends @ normals.T < y  # (2S, k)
        crossings = np.count_nonzero(neg[:S] != neg[S:], axis=0)
        estimates[lo:hi] = c21 * window * crossings
    return mean_se(estimates)


def _chunk_lines(n_points: int) -> int:
    return max(1, 8_000_000 // max(n_points, 1))
