"""Planar geometry of the numerical range.

The support function of W(A) in direction ``e^{i theta}`` is the top
eigenvalue of the rotated part A(theta); everything here is built on
that identity: boundary polygons from face touch points, membership
tests by a refined dual inequality, exact Hausdorff distances of convex
polygons as sup-norm gaps of their piecewise-sinusoidal support
functions.

Distances between numerical ranges are sup-norm distances of support
functions as well, read from the eigenvalues directly rather than from
inscribed polygons: :func:`range_distance` for two matrices and
:func:`range_gap` for a matrix and a convex polygon scan h_A on the
cells of a uniform grid that their bounds leave open
(:meth:`~numrange.matcore.Pencil._scan`) and polish the maxima with the
Newton loop of :func:`~numrange.extremal.supporting_angle`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import extremal, matcore as mc
from .errors import PreconditionError

# Membership tolerance for `contains`, relative to 1 + ||A||.
CONTAINS_RTOL = 1e-9
# Default boundary sampling and duplicate-vertex threshold.
DEFAULT_BOUNDARY_SAMPLES = 1024
DUPLICATE_VERTEX_RTOL = 1e-10


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull of planar points, counterclockwise.

    Duplicate points, and points where the chain does not turn left (a
    computed cross product of at most 0), are dropped; degenerate inputs
    give a 1- or 2-vertex "polygon".
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise PreconditionError("convex hull of an empty point set")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.diff(pts, axis=0) != 0.0, axis=1)
    pts = pts[keep]
    n = len(pts)
    if n == 1:
        return pts
    if n == 2:
        return pts

    # the chain runs on Python floats: indexing numpy rows costs several
    # times more, and the arithmetic is the same IEEE double arithmetic
    rows = pts.tolist()

    def half(iterable):
        chain: list[list[float]] = []
        for p in iterable:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0.0:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(rows)
    upper = half(reversed(rows))
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) == 2 and np.allclose(hull[0], hull[1]):
        hull = hull[:1]
    return hull


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon: counterclockwise vertices, shape (k, 2).

    Degenerate convex bodies (segments and points) are represented by 2-
    and 1-vertex polygons; all support-function machinery treats them
    uniformly.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "vertices", v)
        if v.shape[0] == 0:
            raise PreconditionError("polygon must have at least one vertex")

    @classmethod
    def from_points(cls, points) -> "ConvexPolygon":
        return cls(convex_hull(points))

    @classmethod
    def from_complex(cls, zs) -> "ConvexPolygon":
        zs = np.asarray(zs, dtype=complex).reshape(-1)
        return cls.from_points(np.column_stack([zs.real, zs.imag]))

    def as_complex(self) -> np.ndarray:
        return self.vertices[:, 0] + 1j * self.vertices[:, 1]

    def support(self, thetas) -> np.ndarray:
        """Support function values max_v <v, e^{i theta}> on an angle array."""
        t = np.atleast_1d(np.asarray(thetas, dtype=float))
        dirs = np.column_stack([np.cos(t), np.sin(t)])
        return (dirs @ self.vertices.T).max(axis=1)


def boundary_polygon(A, N: int = DEFAULT_BOUNDARY_SAMPLES) -> ConvexPolygon:
    """Polygon through the face touch points of W(A) on a uniform angle grid.

    Every vertex lies on the boundary of W(A) (endpoints of exposed
    faces), so the polygon is an inner approximation that refines as N
    grows.  The faces are read from the grid's one solve
    (:meth:`~numrange.matcore.Pencil.grid_faces`).  Their endpoints are
    hulled exactly (a collinearity tolerance can pop a true vertex that
    lies between near-copies of another), then a vertex within
    ``DUPLICATE_VERTEX_RTOL * scale`` of the next one is dropped.  ``A``
    is a matrix or a :class:`~numrange.matcore.Pencil`.
    """
    pencil = mc.as_pencil(A)
    if N < 8:
        raise PreconditionError("boundary_polygon requires N >= 8")
    if pencil.d == 1:
        z = complex(pencil.A[0, 0])
        return ConvexPolygon(np.array([[z.real, z.imag]]))
    thetas, sup, lo, hi = pencil.grid_faces(N, pencil.ctol)
    u = np.exp(1j * thetas)
    zs = np.concatenate([u * (sup + 1j * lo), u * (sup + 1j * hi)])
    pts = np.column_stack([zs.real, zs.imag])
    poly = convex_hull(pts)
    if len(poly) > 1:
        d = np.linalg.norm(np.diff(np.vstack([poly, poly[:1]]), axis=0), axis=1)
        poly = poly[d > DUPLICATE_VERTEX_RTOL * pencil.scale]
        if len(poly) == 0:
            poly = np.array([pts[0]])
    return ConvexPolygon(poly)


def contains(A, p, grid: int = 2048) -> bool:
    """Dual membership test: p is in W(A) iff <p, u> <= support(u) for all u.

    The most violated direction is the supporting angle of p
    (:func:`~numrange.extremal.supporting_angle` on a ``grid`` scan); p is
    a member when the violation there is within 1e-9 * (1 + ||A||).
    """
    pencil = mc.as_pencil(A)
    tol = CONTAINS_RTOL * pencil.scale
    return extremal.supporting_angle(pencil, p, grid)[1] <= tol


def _support_pieces(K: ConvexPolygon) -> tuple[np.ndarray, np.ndarray]:
    """Vertices v of K (repeats dropped) and their outward edge-normal
    angles c, nondecreasing.

    ``c[i]`` is the normal angle of the edge from v[i] to v[i+1], unwrapped
    from c[0] by the turns between consecutive edges: vertex v[i+1]
    supports K on [c[i], c[i+1]] and v[0] on [c[-1], c[0] + 2 pi].  A turn
    below zero (vertices collinear up to rounding) counts as zero and a
    reversal (a 2-vertex polygon) as pi, so c stays monotone.
    """
    v = K.vertices
    v = v[np.any(v != np.roll(v, -1, axis=0), axis=1)]
    if len(v) == 0:
        v = K.vertices[:1]
    e = np.roll(v, -1, axis=0) - v
    cross = e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0]
    dot = e[:-1, 0] * e[1:, 0] + e[:-1, 1] * e[1:, 1]
    turn = np.arctan2(cross, dot)
    turn = np.where(turn < -np.pi / 2.0, turn + 2.0 * np.pi, np.maximum(turn, 0.0))
    return v, np.arctan2(-e[0, 0], e[0, 1]) + np.concatenate([[0.0], np.cumsum(turn)])


def _supporting_vertex(c: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Index of the vertex that supports at each angle, from the normal
    angles c of :func:`_support_pieces` (reduce it modulo the vertex
    count)."""
    return np.searchsorted(c, c[0] + np.mod(thetas - c[0], 2.0 * np.pi), side="right")


def hausdorff(K: ConvexPolygon, L: ConvexPolygon) -> float:
    """Hausdorff distance of two convex polygons, exact up to rounding.

    It is max over theta of |h_K - h_L|.  Between consecutive angles of
    the merged outward edge normals of K and L (and the four axis
    directions, so that no arc exceeds pi/2), each support function is
    one sinusoid <v, u(theta)>, so on each arc |h_K - h_L| = |<v_K - v_L,
    u(theta)>| is largest at an arc end or where u(theta) is parallel to
    +-(v_K - v_L).  Cost O((k + m) log(k + m)); symmetric in K and L bit
    for bit.
    """
    if not isinstance(K, ConvexPolygon) or not isinstance(L, ConvexPolygon):
        raise PreconditionError("hausdorff expects ConvexPolygon arguments")
    two_pi = 2.0 * np.pi
    pieces = [_support_pieces(K), _support_pieces(L)]
    cuts = [np.mod(c, two_pi) for _, c in pieces] + [np.arange(4) * (np.pi / 2.0)]
    ends = np.append(np.sort(np.concatenate(cuts)), two_pi)
    mid = (ends[:-1] + ends[1:]) / 2.0
    # supporting vertex of each polygon on each arc
    vK, vL = (v[_supporting_vertex(c, mid) % len(v)] for v, c in pieces)
    w = vK - vL
    cos, sin = np.cos(ends), np.sin(ends)
    f = w[:, 0] * cos[:-1] + w[:, 1] * sin[:-1], w[:, 0] * cos[1:] + w[:, 1] * sin[1:]
    slope = w[:, 1] * cos[:-1] - w[:, 0] * sin[:-1], w[:, 1] * cos[1:] - w[:, 0] * sin[1:]
    gap = np.maximum(np.abs(f[0]), np.abs(f[1]))
    peak = slope[0] * slope[1] < 0.0  # |h_K - h_L| peaks inside the arc
    gap[peak] = np.hypot(w[peak, 0], w[peak, 1])
    return float(gap.max())


@dataclass(frozen=True)
class EllipseParams:
    """Ellipse in the plane: center, focus pair, and semi-minor axis.

    Degenerate cases are allowed: ``semi_minor == 0`` with distinct foci
    is a segment, with coincident foci a point.
    """

    center: complex
    foci: tuple[complex, complex]
    semi_minor: float

    @property
    def focal_half_distance(self) -> float:
        return abs(self.foci[0] - self.foci[1]) / 2.0

    @property
    def semi_major(self) -> float:
        return float(np.hypot(self.semi_minor, self.focal_half_distance))

    def boundary_polygon(self, N: int = DEFAULT_BOUNDARY_SAMPLES) -> ConvexPolygon:
        """Polygon through the support touch points on a uniform angle grid:
        the :func:`boundary_polygon` of the 2x2 matrix [[c - f, 2b], [0,
        c + f]], whose range is this ellipse (center c, foci c -+ f,
        semi-minor axis b)."""
        if self.semi_major <= 0.0:
            z = self.center
            return ConvexPolygon(np.array([[z.real, z.imag]]))
        if self.semi_minor <= 0.0:
            return ConvexPolygon.from_complex(np.array(self.foci))
        f = (self.foci[1] - self.foci[0]) / 2.0
        M = np.array([[self.center - f, 2.0 * self.semi_minor], [0.0, self.center + f]])
        return boundary_polygon(M, N)


def _polished_max(pencil: mc.Pencil, x: np.ndarray, g: np.ndarray, kink: np.ndarray, other, open_: np.ndarray) -> float:
    """Largest |g| over the circle, g = h_A - h_o with h_A the support
    function of ``pencil``, from its values g at the sorted angles x in
    [0, 2 pi) and a local polish.

    ``kink`` marks the angles where g may have a kink; between
    consecutive angles g is smooth apart from kinks of the support
    functions.  ``open_`` marks the samples of the cells that a cell scan
    left open; elsewhere its bounds show that |g| stays below the best
    sample.  An open sample that is a local maximum of |g| is polished when
    the maximum over its two cells could beat the best sample: on a
    concave peak that maximum is at most the sample's value plus its rise
    over a neighbour, scaled by the ratio of the cell widths.  A smooth
    sample brackets its two cells, a kink each cell on its own.  The ends
    and middles of all the brackets are solved in one stack, and every
    bracket where the sign of g' shows a maximum inside is refined by one
    lockstep call of the shared Newton loop
    (:func:`~numrange.extremal._newton_max`), each step one stacked solve
    per support function.  ``other(t, t0)`` returns the jet (h_o, h_o',
    h_o'') at the angles t of the brackets whose middles are t0
    (broadcast against t), on the piece of h_o that holds t0.
    """
    a = np.abs(g)
    best = float(a.max())
    prev, nxt = np.append(x[-1] - 2.0 * np.pi, x[:-1]), np.append(x[1:], x[0] + 2.0 * np.pi)
    left, right = np.append(a[-1], a[:-1]), mc._next(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        dl, dr = x - prev, nxt - x
        ub = a + np.maximum((a - left) * (dr / dl), (a - right) * (dl / dr))
    ub = np.where(np.isnan(ub), np.inf, ub)
    cand = np.nonzero((a >= left) & (a >= right) & (ub > best) & open_)[0]
    smooth, split = cand[~kink[cand]], cand[kink[cand]]
    owner = np.concatenate([smooth, split, split])
    lo = np.concatenate([prev[smooth], prev[split], x[split]])
    hi = np.concatenate([nxt[smooth], x[split], nxt[split]])
    keep = hi > lo
    cells = np.stack([lo, np.where(kink[owner], (lo + hi) / 2.0, x[owner]), hi], axis=1)[keep]
    sign = np.where(g[owner[keep]] >= 0.0, 1.0, -1.0)
    if not cells.size:
        return best

    def jet(t, s, t0):
        # (g, g', g'') of s g at the angles t
        h, o = pencil.jet(t, pencil.eigh(t)), other(t, t0)
        return tuple(s * (y - z) for y, z in zip(h, o))

    g0, g1, g2 = jet(cells, sign[:, None], cells[:, 1:2])
    up = (g1[:, 0] >= 0.0) & (0.0 >= g1[:, 2])
    if up.any():
        cells, sign = cells[up], sign[up]
        first = tuple(y[up, 1].tolist() for y in (g0, g1, g2))

        def row_jet(t, rows):
            return tuple(y.tolist() for y in jet(t, sign[rows], cells[rows, 1]))

        best = max(best, max(extremal._newton_max(row_jet, *cells.T, first)[1]))
    return best


def _require_scan(N: int, what: str) -> None:
    if N < 8:
        raise PreconditionError(f"{what} requires N >= 8")


def _open_cells(bound: np.ndarray, best: float, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """The cells whose bound of |g| reaches the best sample (open), and
    those with their two neighbours (to split): a scan that halves the
    neighbours too leaves every open cell between cells one grid step
    wide, so an open sample has its two grid neighbours, as on the whole
    grid."""
    reach = bound >= best - slack
    return reach, mc._dilate(reach, 1)


def range_distance(A, B, N: int = DEFAULT_BOUNDARY_SAMPLES) -> float:
    """Hausdorff distance of W(A) and W(B): max over theta of |h_A - h_B|.

    For compact convex sets the Hausdorff distance is the sup-norm
    distance of the support functions (Schneider, *Convex Bodies*, Lemma
    1.8.14), so it is read from h_A and h_B directly, with no polygon:
    an eigenvalue-only cell scan of both at the same angles of the
    N-angle grid (:meth:`~numrange.matcore.Pencil._scan`), then a
    safeguarded Newton polish, in lockstep, of every sampled maximum of
    |h_A - h_B| in a cell the scan left open that could beat the best
    sample, with h' and h'' from the eigendecompositions at the iterates
    (:func:`_polished_max`).  N is the finest cell width, 2 pi / N.  On
    a cell, h_A lies between <c_A, u> - sag_A and <c_A, u>
    (:meth:`~numrange.matcore.Pencil._cells`), so h_A - h_B is at most
    the largest <c_A - c_B, u> on the arc plus sag_B, and the scan splits
    the cells where that, or the bound of h_B - h_A, reaches the best
    sample.  The result is the one the whole grid gives.  ``A`` and ``B``
    are matrices or Pencils; their dimensions may differ.  Symmetric in
    A and B bit for bit.
    """
    _require_scan(N, "range_distance")
    pa, pb = mc.as_pencil(A), mc.as_pencil(B)
    slack = mc.BOUND_RTOL * max(pa.scale, pb.scale)

    def bound(t, wa, wb):
        g = wa[:, -1] - wb[:, -1]
        width, ca, sa = pa._cells(t, wa)
        cb, sb = pb._cells(t, wb)[1:]
        cone = (np.abs(g + mc._next(g)) + (pa._lipschitz(0j) + pb._lipschitz(0j)) * width) / 2.0
        up = mc._arc_max(ca - cb, t, width) + sb
        down = mc._arc_max(cb - ca, t, width) + sa
        return np.abs(g), np.minimum(np.maximum(up, down), cone)

    def split(t, wa, wb):
        a, b = bound(t, wa, wb)
        return _open_cells(b, a.max(), slack)[1]

    thetas, (wa, wb) = pa._scan(N, split, pb, argmax=True)
    a, b = bound(thetas, wa, wb)
    reach = _open_cells(b, a.max(), slack)[0]
    no_kinks = np.zeros(thetas.size, dtype=bool)
    g = wa[:, -1] - wb[:, -1]
    return _polished_max(pa, thetas, g, no_kinks, lambda t, t0: pb.jet(t, pb.eigh(t)), reach | np.roll(reach, 1))


def range_gap(A, K: ConvexPolygon, N: int = DEFAULT_BOUNDARY_SAMPLES) -> float:
    """Hausdorff distance of W(A) and a convex polygon K: max over theta
    of |h_A - h_K|.  For K inside W(A), such as a hull of sampled points,
    it is the gap max (h_A - h_K).

    h_A is read from an eigenvalue-only cell scan of the N-angle grid
    (:meth:`~numrange.matcore.Pencil._scan`; N is the finest cell width,
    2 pi / N).  h_K is one sinusoid <v, e^{i theta}> per vertex v between
    consecutive outward edge normals of K.  On each piece of a cell
    between the normals, h_A lies between <c, u> - sag and <c, u>
    (:meth:`~numrange.matcore.Pencil._cells`), so h_A - h_K is at most
    the largest <c - v, u> on the piece, and h_K - h_A at most the
    largest <v - c, u> plus sag; the scan splits the cells where either
    reaches the best sample.  h_A - h_K has a kink at each edge normal,
    where its maximum often sits, so every edge normal in a cell the scan
    left open (or next to one) is a sample too, solved in one stack.  The
    maxima of |h_A - h_K| over the merged samples are then polished as in
    :func:`range_distance`, each on one sinusoid piece of h_K.  The result
    is the one the whole grid with every edge normal gives.
    """
    _require_scan(N, "range_gap")
    if not isinstance(K, ConvexPolygon):
        raise PreconditionError("range_gap expects a ConvexPolygon")
    pencil = mc.as_pencil(A)
    v, c = _support_pieces(K)
    vz = v[:, 0] + 1j * v[:, 1]
    normals = np.mod(c, 2.0 * np.pi)
    slack = mc.BOUND_RTOL * (pencil.scale + float(np.abs(vz).max()))

    def support_k(t):
        vx, vy = v[_supporting_vertex(c, t) % len(v)].T
        return vx * np.cos(t) + vy * np.sin(t)

    def bound(t, w):
        # |g| at the samples, and its bound on each cell from the pieces
        # between the samples and the normals
        h = w[:, -1]
        width, corner, sag = pencil._cells(t, w)
        x = np.concatenate([t, normals])
        order = np.argsort(x, kind="stable")
        xs = x[order]
        cell = np.cumsum(order < t.size) - 1
        arc = np.append(xs[1:], 2.0 * np.pi) - xs
        vk = vz[_supporting_vertex(c, xs + arc / 2.0) % len(v)]
        low = (h + mc._next(h) - pencil._lipschitz(0j) * width) / 2.0  # h_A on the cell is at least this
        up = mc._arc_max(corner[cell] - vk, xs, arc)
        down = np.minimum(mc._arc_max(vk - corner[cell], xs, arc) + sag[cell], mc._arc_max(vk, xs, arc) - low[cell])
        return np.abs(h - support_k(t)), np.maximum.reduceat(np.maximum(up, down), np.nonzero(order < t.size)[0])

    def split(t, w):
        a, b = bound(t, w)
        return _open_cells(b, a.max(), slack)[1]

    thetas, (w,) = pencil._scan(N, split, argmax=True)
    a, b = bound(thetas, w)
    reach, near = _open_cells(b, a.max(), slack)
    # the normals in the open cells and their neighbours
    own = np.searchsorted(thetas, normals, side="right") - 1
    kept = near[own]
    x = np.concatenate([thetas, normals[kept]])
    h = np.concatenate([w[:, -1], pencil.support(normals[kept])])
    order = np.argsort(x, kind="stable")
    x, h = x[order], h[order]
    kink = order >= thetas.size
    g = h - support_k(x)
    # open: a sample ending an open cell, a normal inside one
    cell = np.concatenate([np.arange(thetas.size), own[kept]])[order]
    open_ = reach[cell] | (~kink & reach[cell - 1])

    def piece(t, t0):
        # the sinusoid <v, e^{i t}> of the vertex v that supports K at t0
        vt = v[_supporting_vertex(c, t0) % len(v)]
        px, py = vt[..., 0], vt[..., 1]
        cos, sin = np.cos(t), np.sin(t)
        hk = px * cos + py * sin
        return hk, py * cos - px * sin, -hk

    return _polished_max(pencil, x, g, kink, piece, open_)


def range_converges(sequence, limit, N: int = DEFAULT_BOUNDARY_SAMPLES) -> list[float]:
    """Hausdorff distances d_H(W(A_i), W(A)) for a matrix sequence, each
    a :func:`range_distance` on an N-angle scan; the limit's scan is
    solved once.

    Norm convergence of the matrices forces Hausdorff convergence of the
    ranges; the returned distances exhibit the rate.
    """
    limit = mc.as_matrix(limit)
    mats = [mc.as_matrix(B) for B in sequence]
    for B in mats:
        if B.shape != limit.shape:
            raise PreconditionError("sequence and limit dimensions differ")
    ref = mc.Pencil(limit)
    return [range_distance(B, ref, N) for B in mats]
