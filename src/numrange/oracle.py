"""Brute-force ground truth for the numerical range.

Seeded sampling of the quadratic-form map gives an inner approximation
of W(A); the gap between its convex hull and W(A), read from the support
function of W(A), bounds the discretization error of everything else.
The sampler is counter-based (splitmix64), so any chunking of the draw
reproduces the sequential stream bit for bit.  :func:`sample_range` uses this: it draws the
vectors and evaluates x*Ax in row blocks of at most SAMPLE_BLOCK complex
entries, written into one preallocated array, so memory stays bounded
and the points are the same for every block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore as mc, rangegeo as rg
from .errors import PreconditionError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Complex entries of the sample vectors drawn and evaluated per block.
SAMPLE_BLOCK = 2**15
# Angle bins whose farthest points give the hull prefilter its polygon.
PREFILTER_BINS = 1024


def _splitmix64(counters: np.ndarray) -> np.ndarray:
    """splitmix64 output for an array of uint64 counters, computed in place."""
    z = counters
    z += np.uint64(1)
    z *= _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles in (0, 1) at counter positions start..start+count."""
    counters = np.arange(start, start + count, dtype=np.uint64)
    counters += np.uint64(seed)
    bits = _splitmix64(counters)
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def _gaussians(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normals on the counter stream (Box-Muller, both outputs).

    Normals 2k and 2k+1 are derived from the uniform pair at counters
    (2k, 2k+1), so any pair-consistent chunking reproduces the sequential
    stream exactly.
    """
    first = start - (start % 2)
    last = start + count
    pairs = (last - first + 1) // 2
    u = _uniforms(seed, first, 2 * pairs)
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    ang = (2.0 * np.pi) * u[1::2]
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(ang)
    z[1::2] = r * np.sin(ang)
    return z[start - first : start - first + count]


def structured_vectors(d: int) -> np.ndarray:
    """Standard basis vectors plus pairwise superpositions with 8 phases.

    These hit eigenvector-exposed points of normal matrices exactly, so
    vertex checks can be exact instead of statistical.  Rows: e_0 ..
    e_{d-1}, then (e_i + w e_j)/sqrt(2) for i < j in row-major order and
    w over the 8th roots of unity.
    """
    i, j = np.triu_indices(d, 1)
    pairs = np.zeros((len(i), 8, d), dtype=complex)
    rows = np.arange(len(i))
    pairs[rows, :, i] = 1.0
    pairs[rows, :, j] = np.exp(2j * np.pi * np.arange(8) / 8.0)
    return np.concatenate([np.eye(d, dtype=complex), pairs.reshape(-1, d) / np.sqrt(2.0)])


@dataclass(frozen=True)
class SampleCloud:
    """Sampled values of the quadratic-form map, with their provenance."""

    points: np.ndarray  # complex
    seed: int
    count: int


def sample_range(A, n: int, seed: int = 0) -> SampleCloud:
    """n values x*Ax: structured vectors first, then seeded Gaussians.

    Deterministic given (n, seed).  Gaussian vector r takes the normals at
    counters 2rd .. 2(r+1)d - 1 as (re, im) pairs, normalized to unit
    length.  The rows are drawn and evaluated in blocks of SAMPLE_BLOCK
    complex entries; every block starts at an even counter, so the points
    match a one-shot draw bit for bit.
    """
    A = mc.as_matrix(A)
    if n < 1:
        raise PreconditionError("sample_range requires n >= 1")
    d = A.shape[0]
    head = structured_vectors(d)[:n]
    k = len(head)
    AT = A.T
    pts = np.empty(n, dtype=complex)
    rows = max(SAMPLE_BLOCK // d, 2)
    start = 0
    while start < n:
        stop = min(start + rows, n)
        if n - stop == 1:
            # numpy evaluates a one-row product by gemv, which rounds
            # differently from the gemm of a taller block
            stop = n
        xs = np.empty((stop - start, d), dtype=complex)
        n_head = max(min(k - start, stop - start), 0)
        xs[:n_head] = head[start : start + n_head]
        if n_head < stop - start:
            g0 = start + n_head - k  # first Gaussian row of the block
            z = _gaussians(seed, 2 * g0 * d, 2 * (stop - start - n_head) * d).view(complex).reshape(-1, d)
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            xs[n_head:] = z
        pts[start:stop] = np.sum(xs.conj() * (xs @ AT), axis=1)
        start = stop
    return SampleCloud(points=pts, seed=seed, count=n)


def _prefilter(zs: np.ndarray) -> np.ndarray:
    """Akl-Toussaint reduction: drop points strictly inside a convex
    polygon of sample points.

    Around the mean c of the cloud, the point farthest from c in each of
    PREFILTER_BINS equal angle bins is a corner; corners with no left turn
    are dropped until the polygon is convex.  A point is dropped when it
    lies more than 1e-12 * max|z| inside the edge of the one wedge
    (c, corner, next corner) its angle falls in, found from its bin.  The
    wedge is a triangle in the hull of the cloud, so the filter is exact:
    discarded points cannot be hull vertices.
    """
    if len(zs) <= 64:
        return zs
    mean = zs.mean()
    rel = zs - mean
    ang = np.angle(rel)
    r2 = rel.real**2 + rel.imag**2
    bins = np.minimum(((ang + np.pi) * (PREFILTER_BINS / (2.0 * np.pi))).astype(np.intp), PREFILTER_BINS - 1)
    far = np.full(PREFILTER_BINS, -1.0)
    np.maximum.at(far, bins, r2)
    cand = np.flatnonzero(r2 == far[bins])
    corners = cand[np.unique(bins[cand], return_index=True)[1]]  # by angle
    while corners.size:
        q = rel[corners]
        left = ((q - np.roll(q, 1)).conj() * (np.roll(q, -1) - q)).imag > 0.0
        if left.all():
            break
        corners = corners[left]
    if corners.size < 3 or np.diff(ang[corners], append=ang[corners[0]] + 2.0 * np.pi).max() >= np.pi:
        return zs  # the mean is not inside the polygon: a degenerate cloud
    a = rel[corners]
    e = np.roll(a, -1) - a
    margin = 1e-12 * (np.sqrt(far.max()) + abs(mean)) * np.abs(e)
    # points inside the circle about c inscribed in the polygon need no wedge
    inradius = np.min(((e.conj() * -a).imag - margin) / np.abs(e))
    out = np.flatnonzero(r2 >= inradius**2) if inradius > 0.0 else np.arange(len(zs))
    # wedge of a point: the last corner at or before its angle (-1: the last)
    has = np.zeros(PREFILTER_BINS, dtype=bool)
    has[bins[corners]] = True
    before = np.cumsum(has) - has - 1
    corner_ang = np.full(PREFILTER_BINS, np.inf)
    corner_ang[bins[corners]] = ang[corners]
    b = bins[out]
    k = before[b] + (corner_ang[b] <= ang[out])
    cross = (e.conj()[k] * (rel[out] - a[k])).imag
    return zs[out[cross <= margin[k]]]


def hull(points) -> rg.ConvexPolygon:
    """Convex hull of a sample cloud (monotone chain), counterclockwise."""
    if isinstance(points, SampleCloud):
        zs = points.points
    else:
        zs = np.asarray(points, dtype=complex).reshape(-1)
    if zs.size < 1:
        raise PreconditionError("hull requires at least one point")
    kept = _prefilter(zs)
    return rg.ConvexPolygon(rg.convex_hull(np.column_stack([kept.real, kept.imag])))


def oracle_gap(A, n: int, N: int, seed: int = 0) -> float:
    """Hausdorff gap between the hull of n sampled points and W(A):
    :func:`~numrange.rangegeo.range_gap`, max over theta of h_A minus the
    hull's support function, read from an N-angle scan of h_A."""
    if n < 64 or N < 64:
        raise PreconditionError("oracle_gap requires n, N >= 64")
    return rg.range_gap(A, hull(sample_range(A, n, seed)), N)
