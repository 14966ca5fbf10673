"""Deterministic integral geometry: normal Jacobians, Grassmannians, Crofton.

The two Gamma-function constants here, the determinant identity relating a
Jacobian to averages over random subspaces, and the line-sampling (Favard)
length estimator form the geometric half of every level-set formula check.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fields import config_count
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
    n = config_count("samples", n, 100)
    c = _crofton_c(D, D - d)  # c_{D,0} = 1 covers the square case
    rng = stream(seed, "crofton-identity")
    vals = np.empty(n)
    chunk = max(1, 2_000_000 // (D * d))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        prod = A @ _haar_batch(D, d, hi - lo, rng)  # (n, d, d)
        if d == 1:
            vals[lo:hi] = np.abs(prod[:, 0, 0])
        elif d == 2:
            vals[lo:hi] = np.abs(prod[:, 0, 0] * prod[:, 1, 1] - prod[:, 0, 1] * prod[:, 1, 0])
        else:
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
            if not np.isfinite(a).all():
                raise ConfigurationError("polyline vertices must be finite")
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


def _line_count(n_lines) -> int:
    """``n_lines``, the random lines of :func:`favard_measure`: a whole number >= 1000."""
    return config_count("n_lines", n_lines, 1000)


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

    Lines are drawn in chunks of ``_chunk_lines`` (normals, then offsets).
    A curve of more than ``_BLOCK`` segments is cut into blocks of nearby
    segments (``_segment_blocks``), and a line is tested exactly only
    against the blocks whose bounding box it can reach: every other block
    lies wholly on one side of it.  The exact test is the BLAS product
    ``ends @ normals.T`` over a block's ends and the lines that reach it, in
    tiles of ``_tile_lines`` lines; a smaller curve, or a chunk of one line,
    is one block that every line reaches.  The shape of a product can change
    which BLAS kernel rounds a projection, by an ulp at most, so a count
    could differ from the one of a single product over the chunk only for a
    line within an ulp of a segment end, which random lines do not meet.
    """
    segments = getattr(shape, "segments", None)
    if segments is None:
        raise ConfigurationError("shape must be a Polyline or a LevelCurve")
    n_lines = _line_count(n_lines)
    if shape.length == 0.0:
        return 0.0, 0.0

    segments = np.asarray(segments, dtype=float)
    S = segments.shape[0]
    ends = np.concatenate([segments[:, 0], segments[:, 1]])  # (2S, 2): starts, then ends
    # column by column: numpy reduces slowly over a 2-wide last axis
    lo_corner = np.array([ends[:, 0].min(), ends[:, 1].min()])
    hi_corner = np.array([ends[:, 0].max(), ends[:, 1].max()])
    corners = np.array(
        [
            [lo_corner[0], lo_corner[1]],
            [lo_corner[0], hi_corner[1]],
            [hi_corner[0], lo_corner[1]],
            [hi_corner[0], hi_corner[1]],
        ]
    )
    blocks = None
    if S > _BLOCK and np.all(np.isfinite(ends)):
        blocks = _segment_blocks(segments, lo_corner, hi_corner)

    c21 = _crofton_c(2, 1)
    rng = stream(seed, "favard-lines")
    estimates = np.empty(n_lines)
    chunk = _chunk_lines(2 * S)
    for lo in range(0, n_lines, chunk):
        hi = min(lo + chunk, n_lines)
        k = hi - lo
        normals = rng.standard_normal((k, 2))
        nx, ny = normals[:, 0], normals[:, 1]
        normals /= np.sqrt(nx * nx + ny * ny)[:, None]  # the 2-wide norm, column by column
        proj_corners = corners @ normals.T  # (4, k)
        wlo, whi = proj_corners.min(axis=0), proj_corners.max(axis=0)
        window = whi - wlo
        y = wlo + window * rng.random(k)
        if blocks is None or k == 1:  # one line: the whole curve's matrix-vector product
            crossings = _dense_crossings(ends, normals, y)
        else:
            crossings = _pruned_crossings(blocks, normals, y)
        estimates[lo:hi] = c21 * window * crossings
    return mean_se(estimates)


def _chunk_lines(n_points: int) -> int:
    return max(1, 8_000_000 // max(n_points, 1))


_BLOCK = 32  # segments per block of the pruned count
_BLOCK_TILES = 16  # midpoint tiles per axis that order segments into blocks
# relative slack of a block's reach: far above the rounding of any projection
_REACH_SLACK = 1e-12
_TINY = sys.float_info.min


def _hilbert_index(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Position of tile (x, y) along the Hilbert curve over n x n tiles, n a power of two."""
    d = np.zeros_like(x)
    s = n // 2
    while s:
        rx, ry = (x & s) > 0, (y & s) > 0
        d += s * s * ((3 * rx) ^ ry)
        flip = rx & ~ry
        x, y = np.where(flip, n - 1 - x, x), np.where(flip, n - 1 - y, y)
        x, y = np.where(ry, x, y), np.where(ry, y, x)
        s //= 2
    return d


@functools.cache
def _tile_order() -> np.ndarray:
    """Hilbert index of each of the ``_BLOCK_TILES``^2 tiles, built on first use."""
    order = _hilbert_index(*np.indices((_BLOCK_TILES, _BLOCK_TILES)), _BLOCK_TILES)
    order.flags.writeable = False
    return order


def _segment_blocks(segments: np.ndarray, lo_corner, hi_corner) -> tuple:
    """Blocks of ``_BLOCK`` nearby segments: (their ends, box centres, box half-widths, slack).

    Segments are ordered by the ``_BLOCK_TILES``^2 tile of their midpoint,
    the tiles along a Hilbert curve so that consecutive tiles touch, and cut
    into runs of ``_BLOCK``; the last run is filled up with segments of
    length 0 at one of its ends, which no line crosses.  Block b's ends,
    ``ends[b]``, are its starts, then its ends, as in the whole-curve array.
    The order of the segments does not change an integer count.
    """
    S = segments.shape[0]
    mid = 0.5 * (segments[:, 0] + segments[:, 1])
    span = np.where(hi_corner > lo_corner, hi_corner - lo_corner, 1.0)
    tile = np.minimum(((mid - lo_corner) * (_BLOCK_TILES / span)).astype(int), _BLOCK_TILES - 1)
    order = np.argsort(_tile_order()[tile[:, 0], tile[:, 1]], kind="stable")
    seg = np.empty((-(-S // _BLOCK) * _BLOCK, 2, 2))
    seg[:S] = segments[order]
    seg[S:] = seg[S - 1, 0]
    ends = seg.reshape(-1, _BLOCK, 2, 2).transpose(0, 2, 1, 3).reshape(-1, 2 * _BLOCK, 2)
    # coordinate by coordinate: numpy reduces over a 2-wide last axis slowly
    xs, ys = ends[:, :, 0], ends[:, :, 1]
    bmin = np.column_stack([xs.min(axis=1), ys.min(axis=1)])
    bmax = np.column_stack([xs.max(axis=1), ys.max(axis=1)])
    centre, half = 0.5 * (bmin + bmax), 0.5 * (bmax - bmin)
    # |n| <= 1 componentwise, so this bounds the rounding of every projection
    slack = _REACH_SLACK * (np.abs(centre) + half).sum(axis=1) + _TINY
    return ends, centre, half, slack


# Lines per tile come in whole multiples of this: BLAS kernels compute a block
# of product columns at a time, and a tile cut at such a multiple keeps whole
# kernel blocks (the columns of a last, partial block can round differently).
_TILE_ALIGN = 64


def _tile_lines(n_points: int) -> int:
    """Lines per tile: about 2^17 doubles (1 MB) of projections, at least one aligned block."""
    return max(_TILE_ALIGN, (2**17 // max(n_points, 1)) // _TILE_ALIGN * _TILE_ALIGN)


def _tiles(k: int, tile: int) -> list:
    """(start, stop) tiles over k lines; a lone last line joins the tile before it.

    A one-column product goes through a matrix-vector kernel that can round
    differently from the matrix-matrix one of the chunk.
    """
    cuts = [0, *range(tile, k - 1, tile), k]
    return list(zip(cuts, cuts[1:]))


def _side_counts(ends: np.ndarray, normals: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The exact test: per line, the segments whose ends lie on opposite sides of it.

    ``ends`` are m starts, then their m ends; one projection product over
    all of them.
    """
    m = ends.shape[0] // 2
    neg = ends @ normals.T < y  # (2m, lines)
    return np.count_nonzero(neg[:m] != neg[m:], axis=0)


def _dense_crossings(ends: np.ndarray, normals: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Crossings of every line with every segment, one tile of lines at a time."""
    crossings = np.empty(normals.shape[0])
    for a, b in _tiles(normals.shape[0], _tile_lines(ends.shape[0])):
        crossings[a:b] = _side_counts(ends, normals[a:b], y[a:b])
    return crossings


def _pruned_crossings(blocks: tuple, normals: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Crossings of every line, tested exactly only against the blocks it can reach.

    A block is out of a line's reach when the offset lies farther than
    half-width . |n| plus the slack from the projected centre: then every
    end of the block is on the same side of the line.  The lines that reach
    a block are gathered once, in block order, with one spare row, so that a
    block reached by one line still gets a two-column product.
    """
    ends, centre, half, slack = blocks
    k = normals.shape[0]
    reach = half @ np.abs(normals).T + slack[:, None]  # (B, k)
    hit = np.flatnonzero(np.abs(y - centre @ normals.T) <= reach)
    starts = np.searchsorted(hit, k * np.arange(len(ends) + 1)).tolist()
    line = hit % k
    spare = np.append(line, line[-1:])
    nh, yh = normals[spare], y[spare]
    counts = np.empty(line.size)
    for b, (s, e) in enumerate(zip(starts, starts[1:])):
        if s == e:
            continue
        for a, z in _tiles(e - s, _tile_lines(2 * _BLOCK)):
            a, z = s + a, s + z
            counts[a:z] = _side_counts(ends[b], nh[a:max(z, a + 2)], yh[a:max(z, a + 2)])[:z - a]
    return np.bincount(line, weights=counts, minlength=k)
