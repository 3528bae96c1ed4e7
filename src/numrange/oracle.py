"""Brute-force ground truth for the numerical range.

Seeded sampling of the quadratic-form map gives an inner approximation
of W(A); the gap between its convex hull and W(A), read from the support
function of W(A), bounds the discretization error of everything else.
The sampler is counter-based (splitmix64), so any chunking of the draw
reproduces the sequential stream bit for bit.  :func:`sample_range` uses
this: it draws the vectors and evaluates x*Ax in row blocks, each written
into its slice of one preallocated array.  The blocks run at once on the
workers of :func:`~numrange.matcore._map`, one per CPU of the process's
affinity mask (``taskset`` limits them), and hold SAMPLE_BLOCK complex
entries among them, so memory stays bounded and the points are the same
for every block size and worker count.

:func:`sample_hull` returns the hull of that cloud, bit for bit, without
drawing all of it in float64.  A screening pass over the same stream,
in row blocks on the same workers, evaluates each Gaussian row in
float32 within a derived bound mu of its exact value; the certified prefilter drops the
rows whose screened value lies more than 2 mu inside a polygon of
screened values, and only the few rows left, which can be hull vertices,
are drawn exactly.  The float64 sines and cosines of the Box-Muller
stream, most of the cost of :func:`sample_range`, are taken only for
those rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import matcore as mc, rangegeo as rg
from .errors import PreconditionError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Complex entries of the sample vectors drawn and evaluated at once: a
# block holds SAMPLE_BLOCK divided by the worker count.
SAMPLE_BLOCK = 2**15
# Complex entries of one block of the float32 screen of sample_hull, for
# any worker count: on 1 and 2 CPUs, 2^16 ran faster than 2^15 / W and
# than 2^17 (d = 32, n = 50 000).
SCREEN_BLOCK = 2**16
# Angle bins whose farthest points give the hull prefilter its polygon.
PREFILTER_BINS = 1024
# Unit roundoffs of float32 and float64, for the screening bound of sample_hull.
_U32 = 2.0**-24
_U64 = 2.0**-53


def _splitmix64(counters: np.ndarray) -> np.ndarray:
    """splitmix64 output for an array of uint64 counters, computed in place."""
    z = counters
    t = np.empty_like(z)
    z += np.uint64(1)
    z *= _GOLDEN
    z ^= np.right_shift(z, np.uint64(30), out=t)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def _uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniform doubles in (0, 1) at the uint64 ``counters``, which it consumes."""
    counters += np.uint64(seed)
    bits = _splitmix64(counters)
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def _polar(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box-Muller radius and angle of the uniform pairs (first, second)."""
    return np.sqrt(-2.0 * np.log(first)), (2.0 * np.pi) * second


def _normals(u: np.ndarray) -> np.ndarray:
    """Standard normals 2k and 2k+1 from the uniform pair (u[2k], u[2k+1])."""
    r, ang = _polar(u[0::2], u[1::2])
    z = np.empty(u.size)
    z[0::2] = r * np.cos(ang)
    z[1::2] = r * np.sin(ang)
    return z


def _gaussian_rows(seed: int, rows: np.ndarray, d: int) -> np.ndarray:
    """The Gaussian sample vectors ``rows``, normalized to unit length:
    row r takes the normals at counters 2rd .. 2(r+1)d - 1 as (re, im)
    pairs.  Each entry has the same bits in any set of rows."""
    counters = np.asarray(rows, dtype=np.uint64)[:, None] * np.uint64(2 * d) + np.arange(2 * d, dtype=np.uint64)
    z = _normals(_uniforms(seed, counters.reshape(-1))).view(complex).reshape(-1, d)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


def _values(xs: np.ndarray, AT: np.ndarray) -> np.ndarray:
    """x*Ax for the rows x of xs, AT being A transposed."""
    return np.sum(xs.conj() * (xs @ AT), axis=1)


def _blocks(n: int, d: int, entries: int | None = None) -> list[tuple[int, int]]:
    """Row spans [start, stop) of about ``entries`` complex entries (by
    default SAMPLE_BLOCK / W, W the worker count of
    :func:`~numrange.matcore._map`) covering n rows of d entries.  No
    span has one row unless n is 1: numpy evaluates a one-row product by
    gemv, which rounds differently from the gemm of a taller block."""
    entries = SAMPLE_BLOCK // mc._WORKERS if entries is None else entries
    starts = list(range(0, n, max(entries // d, 2)))
    if len(starts) > 1 and n - starts[-1] == 1:
        del starts[-1]
    return list(zip(starts, starts[1:] + [n]))


def _check_draw(n: int, seed: int) -> None:
    """Refuse a draw :func:`sample_range` cannot make (so does :func:`sample_hull`, in its words)."""
    if n < 1:
        raise PreconditionError("sample_range requires n >= 1")
    if not 0 <= seed < 2**64:
        raise PreconditionError(f"sample_range requires 0 <= seed < 2**64, got {seed}")


@functools.lru_cache(maxsize=4)
def structured_vectors(d: int) -> np.ndarray:
    """Standard basis vectors plus pairwise superpositions with 8 phases.

    These hit eigenvector-exposed points of normal matrices exactly, so
    vertex checks can be exact instead of statistical.  Rows: e_0 ..
    e_{d-1}, then (e_i + w e_j)/sqrt(2) for i < j in row-major order and
    w over the 8th roots of unity.  Kept per d, read-only.
    """
    i, j = np.triu_indices(d, 1)
    out = np.zeros((d + 8 * len(i), d), dtype=complex)
    out[np.arange(d), np.arange(d)] = 1.0
    rows = d + np.arange(8 * len(i))
    out[rows, np.repeat(i, 8)] = 1.0 / np.sqrt(2.0)
    out[rows, np.repeat(j, 8)] = np.tile(np.exp(2j * np.pi * np.arange(8) / 8.0) / np.sqrt(2.0), len(i))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SampleCloud:
    """Sampled values of the quadratic-form map, with their provenance."""

    points: np.ndarray  # complex
    seed: int
    count: int


def sample_range(A, n: int, seed: int = 0) -> SampleCloud:
    """n values x*Ax: structured vectors first, then seeded Gaussians.

    Deterministic given (n, seed); the seed, the offset of the
    splitmix64 counters, is an unsigned 64-bit integer.  Gaussian vector
    r takes the normals at counters 2rd .. 2(r+1)d - 1 as (re, im) pairs,
    normalized to unit length.  The rows are drawn and evaluated in blocks
    of SAMPLE_BLOCK / W complex entries, run at once on the W workers of
    :func:`~numrange.matcore._map` (the CPUs of the affinity mask, so
    ``taskset`` limits them); every block starts at an even counter, so
    the points match a one-shot draw bit for bit for any W.  This is the
    whole cloud, and the reference of :func:`sample_hull`, which returns
    its hull from far fewer float64 draws.
    """
    A = mc.as_matrix(A)
    _check_draw(n, seed)
    d = A.shape[0]
    head = structured_vectors(d)[:n]
    k = len(head)
    AT = A.T
    pts = np.empty(n, dtype=complex)

    def block(span):
        start, stop = span
        xs = np.empty((stop - start, d), dtype=complex)
        n_head = max(min(k - start, stop - start), 0)
        xs[:n_head] = head[start : start + n_head]
        if n_head < stop - start:
            xs[n_head:] = _gaussian_rows(seed, np.arange(start + n_head - k, stop - k), d)
        pts[start:stop] = _values(xs, AT)

    mc._map(block, _blocks(n, d))
    return SampleCloud(points=pts, seed=seed, count=n)


def _screen_frame(A: np.ndarray) -> tuple[complex, float, np.ndarray, float]:
    """``(c, s, BT, mu)`` of the screen of :func:`sample_hull`: the shift
    c = tr A / d, s = |A - cI|_F, B = (A - cI) / s transposed in
    complex64, and the bound mu on |screened - (exact - c)|."""
    d = A.shape[0]
    c = np.trace(A) / d
    A0 = A - c * np.eye(d)
    s = mc.fro(A0)
    mu = (5 * d + 80) * (_U32 * s + _U64 * mc.fro(A))
    BT = (A0 / s).T.astype(np.complex64) if s > 0.0 else None
    return c, s, BT, mu


def _screen(seed: int, span: tuple[int, int], BT: np.ndarray) -> np.ndarray:
    """The float32 Rayleigh quotients x*Bx / x*x of the Gaussian rows
    [g0, g1) of the stream, from its float64 Box-Muller radii and angles
    with float32 cos and sin (BT is B transposed, in complex64)."""
    g0, g1 = span
    d = len(BT)
    # the uniforms at the first and at the second counters of the rows' pairs
    r, ang = _polar(*(_uniforms(seed, np.arange(2 * g0 * d + i, 2 * g1 * d, 2, dtype=np.uint64)) for i in (0, 1)))
    r, ang = r.astype(np.float32), ang.astype(np.float32)
    x = np.empty((r.size, 2), dtype=np.float32)  # (re, im) of each entry
    np.multiply(r, np.cos(ang), out=x[:, 0])
    np.multiply(r, np.sin(ang), out=x[:, 1])
    x = x.reshape(-1, 2 * d)
    norm2 = np.einsum("ij,ij->i", x, x)
    z = x.view(np.complex64)
    y = z @ BT
    y *= np.conjugate(z, out=z)
    return y.sum(axis=1) / norm2


def sample_hull(A, n: int, seed: int = 0) -> rg.ConvexPolygon:
    """``hull(sample_range(A, n, seed))``, bit for bit, from float64 draws
    of only the rows that can be hull vertices.

    Screening.  Every Gaussian row is drawn again, in row blocks of
    SCREEN_BLOCK entries on the workers of :func:`~numrange.matcore._map`:
    the same float64 uniforms and Box-Muller radii R_j and angles t_j,
    then cos and sin of t_j in float32, and the Rayleigh quotient of the
    float32 vector for B = A0 / |A0|_F, A0 = A - (tr A / d) I, in
    float32.  Its value, times |A0|_F, stands for the row's exact value
    minus tr A / d; the structured head takes its exact values.
    :func:`_prefilter` with the bound mu below drops the rows whose
    screened value lies more than 2 mu inside a polygon of screened
    values; their exact values lie inside the polygon of the exact values
    of its corners, so they are no hull vertices.  The rows left are
    drawn exactly, as :func:`sample_range` draws them, in products of at
    least 2 rows, and hulled with the head.  A degenerate screened cloud
    (fewer than 3 corners, or its mean not inside their polygon, as for a
    Hermitian, scalar or collinear range), a screen that drops nothing,
    a draw with no Gaussian row, and an |A0|_F too small or |A|_F too
    large for float64 take the whole cloud instead.

    The bound.  Write u = 2^-24, v = 2^-53, and x_j = R_j e^{i t_j} for
    the exact entries of a row, in real arithmetic on the float64 R_j and
    t_j, which both passes compute by the same operations on the same
    uniforms (a few ulp between two float64 kernels would be far inside
    the v term below).

    - Screened vector x~.  Rounding t_j to float32 moves it by at most
      2 pi u.  numpy's float32 cos and sin are taken to be within 4 ulp
      (at most 4u below 1) of the cosine and sine of their argument,
      twice the 2 ulp its own accuracy tests allow.  Rounding R_j and the
      two products add 2u.  So |x~_j - x_j| <= (2 pi + 4 sqrt 2 + 2 +
      O(u)) u R_j <= 15 u R_j, and |x~ - x| <= 15 u |x|.
    - Rayleigh quotient.  For unit y, z, |y*By - z*Bz| <= 2 |B|_2 |y - z|
      with |B|_2 <= |B|_F = 1, and |x~/|x~| - x/|x|| <= 2 |x~ - x| / |x|,
      so the quotients of x~ and x differ by at most 61 u.
    - float32 arithmetic.  B rounds with |dB|_2 <= |dB|_F <= u.  The dot
      products of the gemm and of the row sum each err by at most
      sqrt 2 gamma_{d+2} |x~|^T |B| |x~| <= sqrt 2 gamma_{d+2} |x~|^2
      (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.6;
      any summation order), |x~|^2, a sum of 2d squares, errs by at most
      gamma_{2d+1} |x~|^2, and the division by u, with gamma_m = m u /
      (1 - m u) and a quotient of modulus at most 1.  Together at most
      (2 sqrt 2 (d + 2) + 2d + 3) u (1 + O(du)) <= (5d + 10) u.
    - float64 arithmetic.  The exact path's own rounding is the same sum
      with v in place of u and |A|_F in place of 1 (no angle rounding,
      plus 2(d + 2) v from the normalization): at most (5d + 40) v |A|_F.
      Forming A0, |A0|_F and B, and scaling back by |A0|_F, add a few
      v |A0|_F <= v |A|_F.

    Hence |screened - (exact - tr A / d)| <= (5d + 71) u |A0|_F +
    (5d + 44) v |A|_F <= mu = (5d + 80) (u |A0|_F + v |A|_F) for every
    row, the head's included (it only rounds the shift).
    """
    A = mc.as_matrix(A)
    _check_draw(n, seed)
    d = A.shape[0]
    head = structured_vectors(d)[:n]
    k = len(head)
    c, scale, BT, mu = _screen_frame(A)
    # below tiny / v, float64 underflow would break the bound's relative rounding
    if n == k or not np.isfinite(mu) or scale < np.finfo(float).tiny / _U64:
        return hull(sample_range(A, n, seed))
    AT = A.T
    exact = _values(head, AT)  # d >= 2 here, so the head has at least 10 rows
    screened = np.empty(n, dtype=complex)
    screened[:k] = exact - c

    def screen(span):
        screened[k + span[0] : k + span[1]] = scale * _screen(seed, span, BT).astype(complex)

    mc._map(screen, _blocks(n - k, d, SCREEN_BLOCK))
    keep = _prefilter(screened, mu)
    if keep.size == n:
        return hull(sample_range(A, n, seed))
    rows = keep[keep >= k] - k
    # a lone row is drawn twice: a one-row product is a gemv, which
    # rounds differently from the gemm of sample_range
    rows = np.repeat(rows, 2) if rows.size == 1 else rows
    drawn = np.empty(rows.size, dtype=complex)

    def draw(span):
        a, b = span
        drawn[a:b] = _values(_gaussian_rows(seed, rows[a:b], d), AT)

    mc._map(draw, _blocks(rows.size, d))
    return hull(np.concatenate([exact, drawn]))


def _prefilter(zs: np.ndarray, mu: float = 0.0) -> np.ndarray:
    """Akl-Toussaint reduction: the indices of the points of zs that are
    not strictly inside a convex polygon of sample points.

    Around the mean c of the cloud, the point farthest from c in each of
    PREFILTER_BINS equal angle bins is a corner; corners with no left turn
    are dropped until the polygon is convex.  A point is dropped when it
    lies more than 1e-12 * max|z| inside the edge of the one wedge
    (c, corner, next corner) its angle falls in, found from its bin.  The
    wedge is a triangle in the hull of the cloud, so the filter is exact:
    discarded points cannot be hull vertices.  A cloud of at most 64
    points, or one whose mean is not inside the polygon, keeps every
    point.

    With ``mu`` > 0 the points are approximations, each within mu of an
    exact value, and a point is dropped only when its exact value lies
    inside the polygon P of the corners' exact values.  P's support
    function is at least the corner polygon's minus mu in every
    direction, so P holds every point whose distance to the corner
    polygon's boundary exceeds mu, and so the exact value of every point
    whose approximation lies 2 mu inside.  The wedge test reads one edge
    only, so it runs on the corner polygon shrunk about c by the factor
    1 - 2 mu / rho, rho the least distance from c to an edge line: the
    shrunk polygon holds the disk of radius rho - 2 mu about c, and by
    convexity lies 2 mu inside the corner polygon.  Its edge k lies
    2 mu h_k / rho inside edge k, h_k the distance from c to that edge's
    line, which is the margin added to edge k's.
    """
    if len(zs) <= 64:
        return np.arange(len(zs))
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
        return np.arange(len(zs))  # the mean is not inside the polygon: a degenerate cloud
    a = rel[corners]
    e = np.roll(a, -1) - a
    he = (e.conj() * -a).imag  # h_k |e_k|
    margin = 1e-12 * (np.sqrt(far.max()) + abs(mean)) * np.abs(e)
    if mu > 0.0:
        margin = margin + (2.0 * mu / np.min(he / np.abs(e))) * he
    # points inside the circle about c inscribed in the polygon need no wedge
    inradius = np.min((he - margin) / np.abs(e))
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
    return out[cross <= margin[k]]


def hull(points) -> rg.ConvexPolygon:
    """Convex hull of a sample cloud (monotone chain), counterclockwise."""
    if isinstance(points, SampleCloud):
        zs = points.points
    else:
        zs = np.asarray(points, dtype=complex).reshape(-1)
    if zs.size < 1:
        raise PreconditionError("hull requires at least one point")
    kept = zs[_prefilter(zs)]
    return rg.ConvexPolygon(rg.convex_hull(np.column_stack([kept.real, kept.imag])))


def oracle_gap(A, n: int, N: int, seed: int = 0) -> float:
    """Hausdorff gap between the hull of n sampled points
    (:func:`sample_hull`) and W(A): :func:`~numrange.rangegeo.range_gap`,
    max over theta of h_A minus the hull's support function, read from an
    N-angle scan of h_A."""
    if n < 64 or N < 64:
        raise PreconditionError("oracle_gap requires n, N >= 64")
    return rg.range_gap(A, sample_hull(A, n, seed), N)
