"""Planar geometry of the numerical range.

The support function of W(A) in direction ``e^{i theta}`` is the top
eigenvalue of the rotated part A(theta); everything here is built on
that identity: boundary polygons from face touch points, membership
tests by a refined dual inequality, exact Hausdorff distances of convex
polygons as sup-norm gaps of their piecewise-sinusoidal support
functions, and least-squares ellipse recognition.

Distances between numerical ranges are sup-norm distances of support
functions as well, read from the eigenvalues directly rather than from
inscribed polygons: :func:`range_distance` for two matrices and
:func:`range_gap` for a matrix and a convex polygon scan h_A on one
uniform grid and polish the maxima with the Newton loop of
:func:`~numrange.extremal.supporting_angle`.
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
# Conic-fit residual threshold relative to diam(K)^2.
ELLIPSE_RESIDUAL_RTOL = 1e-7


@dataclass(frozen=True)
class SupportSample:
    """Support value of W(A) in one direction, with its multiplicity."""

    theta: float
    support: float
    multiplicity: int


def support_value(A, theta: float) -> SupportSample:
    """Top eigenvalue of A(theta) and the size of its eigenvalue cluster."""
    pencil = mc.Pencil(A)
    w = np.linalg.eigvalsh(pencil.rotate(theta))
    mult = int(np.sum(w >= w[-1] - pencil.ctol))
    return SupportSample(theta=float(theta), support=float(w[-1]), multiplicity=mult)


def convex_hull(points: np.ndarray, collinear_tol: float = 0.0) -> np.ndarray:
    """Monotone-chain convex hull of planar points, counterclockwise.

    Collinear and duplicate points are dropped; degenerate inputs give a
    1- or 2-vertex "polygon".  ``collinear_tol`` is the cross-product
    threshold below which a turn counts as non-left.
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
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= collinear_tol:
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
    def from_points(cls, points, collinear_tol: float = 0.0) -> "ConvexPolygon":
        return cls(convex_hull(points, collinear_tol))

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

    @property
    def diameter(self) -> float:
        """Largest distance between two points of the polygon.

        It is attained at an antipodal vertex pair, which supports the
        polygon at theta and theta + pi.  Between consecutive angles of the
        outward edge normals and their opposites the pair is constant, so
        the diameter is the largest vertex distance over those arcs.
        """
        v, c = _support_pieces(self)
        if len(v) == 1:
            return 0.0
        two_pi = 2.0 * np.pi
        ends = np.sort(np.mod(np.concatenate([c, c + np.pi]), two_pi))
        mid = (ends + np.append(ends[1:], ends[0] + two_pi)) / 2.0
        i, j = (_supporting_vertex(c, t) % len(v) for t in (mid, mid + np.pi))
        return float(np.max(np.hypot(*(v[i] - v[j]).T)))

    def centroid(self) -> complex:
        """Area centroid (vertex mean for degenerate polygons)."""
        v = self.vertices
        if len(v) < 3:
            m = v.mean(axis=0)
            return complex(m[0], m[1])
        x, y = v[:, 0], v[:, 1]
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        area = cross.sum() / 2.0
        if abs(area) < 1e-300:
            m = v.mean(axis=0)
            return complex(m[0], m[1])
        cx = ((x + xn) * cross).sum() / (6.0 * area)
        cy = ((y + yn) * cross).sum() / (6.0 * area)
        return complex(cx, cy)


def boundary_polygon(A, N: int = DEFAULT_BOUNDARY_SAMPLES) -> ConvexPolygon:
    """Polygon through the face touch points of W(A) on a uniform angle grid.

    Every vertex lies on the boundary of W(A) (endpoints of exposed
    faces), so the polygon is an inner approximation that refines as N
    grows.  ``A`` is a matrix or a :class:`~numrange.matcore.Pencil`.
    """
    pencil = mc.as_pencil(A)
    if N < 8:
        raise PreconditionError("boundary_polygon requires N >= 8")
    if pencil.d == 1:
        z = complex(pencil.A[0, 0])
        return ConvexPolygon(np.array([[z.real, z.imag]]))
    thetas, *eig = pencil.grid(N, vectors=True)
    sup, lo, hi = pencil.faces(thetas, pencil.ctol, eig)
    u = np.exp(1j * thetas)
    zs = np.concatenate([u * (sup + 1j * lo), u * (sup + 1j * hi)])
    pts = np.column_stack([zs.real, zs.imag])
    scale = pencil.scale
    # drop near-duplicates cheaply before the hull pass
    poly = convex_hull(pts, collinear_tol=1e-13 * max(scale, 1.0) ** 2)
    if len(poly) > 1:
        d = np.linalg.norm(np.diff(np.vstack([poly, poly[:1]]), axis=0), axis=1)
        poly = poly[d > DUPLICATE_VERTEX_RTOL * scale]
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


def ellipse_fit(K: ConvexPolygon) -> EllipseParams | None:
    """Recognize a polygon as an ellipse by a least-squares conic fit.

    Fits x^T S x + b^T x + c over the vertices, normalized so that
    ||S||_F + |b| + |c| = 1; accepts when S is positive definite and the
    worst vertex residual is below 1e-7 * diam(K)^2.  One- and two-vertex
    polygons return the degenerate point/segment parameters; 3-5 vertex
    polygons return None (a conic fit would be underdetermined).
    """
    v = K.vertices
    k = len(v)
    if k == 1:
        z = complex(v[0, 0], v[0, 1])
        return EllipseParams(center=z, foci=(z, z), semi_minor=0.0)
    if k == 2:
        z0, z1 = complex(v[0, 0], v[0, 1]), complex(v[1, 0], v[1, 1])
        return EllipseParams(center=(z0 + z1) / 2.0, foci=(z0, z1), semi_minor=0.0)
    if k < 6:
        return None

    diam = K.diameter
    mid = v.mean(axis=0)
    rho = max(diam / 2.0, 1e-300)
    w = (v - mid) / rho
    x, y = w[:, 0], w[:, 1]
    design = np.column_stack([x * x, 2.0 * x * y, y * y, x, y, np.ones_like(x)])
    _, _, vt = np.linalg.svd(design, full_matrices=False)
    s1, s2, s3, b1, b2, c = vt[-1]

    # back to original coordinates
    S = np.array([[s1, s2], [s2, s3]]) / rho**2
    b = np.array([b1, b2]) / rho - 2.0 * S @ mid
    c = c - np.array([b1, b2]) @ mid / rho + mid @ (S @ mid)
    norm = np.linalg.norm(S) + np.linalg.norm(b) + abs(c)
    if norm <= 0.0:
        return None
    S, b, c = S / norm, b / norm, c / norm
    if np.trace(S) < 0:
        S, b, c = -S, -b, -c

    lam, vecs = np.linalg.eigh(S)
    if lam[0] <= 1e-9:
        return None
    residual = np.max(np.abs(np.einsum("ki,ij,kj->k", v, S, v) + v @ b + c))
    if residual > ELLIPSE_RESIDUAL_RTOL * diam**2:
        return None

    center = -np.linalg.solve(S, b) / 2.0
    kappa = center @ (S @ center) - c
    if kappa <= 0.0:
        return None
    semi_major = float(np.sqrt(kappa / lam[0]))
    semi_minor = float(np.sqrt(kappa / lam[1]))
    f = float(np.sqrt(max(semi_major**2 - semi_minor**2, 0.0)))
    direction = complex(vecs[0, 0], vecs[1, 0])
    direction /= abs(direction)
    cz = complex(center[0], center[1])
    return EllipseParams(center=cz, foci=(cz - f * direction, cz + f * direction), semi_minor=semi_minor)


def _polished_max(pencil: mc.Pencil, x: np.ndarray, g: np.ndarray, kink: np.ndarray, other) -> float:
    """Largest |g| over the circle, g = h_A - h_o with h_A the support
    function of ``pencil``, from its values g at the sorted angles x in
    [0, 2 pi) and a local polish.

    ``kink`` marks the angles where g may have a kink; between
    consecutive angles g is smooth apart from kinks of the support
    functions.  A sample that is a local maximum of |g| is polished when
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
    prev, nxt = np.roll(x, 1), np.roll(x, -1)
    prev[0] -= 2.0 * np.pi
    nxt[-1] += 2.0 * np.pi
    left, right = np.roll(a, 1), np.roll(a, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dl, dr = x - prev, nxt - x
        ub = a + np.maximum((a - left) * (dr / dl), (a - right) * (dl / dr))
    ub = np.where(np.isnan(ub), np.inf, ub)
    cand = np.nonzero((a >= left) & (a >= right) & (ub > best))[0]
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


def range_distance(A, B, N: int = DEFAULT_BOUNDARY_SAMPLES) -> float:
    """Hausdorff distance of W(A) and W(B): max over theta of |h_A - h_B|.

    For compact convex sets the Hausdorff distance is the sup-norm
    distance of the support functions (Schneider, *Convex Bodies*, Lemma
    1.8.14), so it is read from h_A and h_B directly, with no polygon:
    one eigenvalue-only scan of each on ``Pencil.grid(N)``, then a
    safeguarded Newton polish, in lockstep, of every grid maximum of
    |h_A - h_B| that could beat the best grid value, with h' and h'' from
    the eigendecompositions at the iterates (:func:`_polished_max`).
    ``A`` and ``B`` are matrices or Pencils; their dimensions may differ.
    Symmetric in A and B bit for bit.
    """
    _require_scan(N, "range_distance")
    pa, pb = mc.as_pencil(A), mc.as_pencil(B)
    thetas, wa, _ = pa.grid(N)
    wb = pb.grid(N)[1]

    no_kinks = np.zeros(N, dtype=bool)
    return _polished_max(pa, thetas, wa[:, -1] - wb[:, -1], no_kinks, lambda t, t0: pb.jet(t, pb.eigh(t)))


def range_gap(A, K: ConvexPolygon, N: int = DEFAULT_BOUNDARY_SAMPLES) -> float:
    """Hausdorff distance of W(A) and a convex polygon K: max over theta
    of |h_A - h_K|.  For K inside W(A), such as a hull of sampled points,
    it is the gap max (h_A - h_K).

    h_A is scanned on ``Pencil.grid(N)`` with eigenvalues only.  h_K is
    one sinusoid <v, e^{i theta}> per vertex v between consecutive outward
    edge normals of K, and h_A - h_K has a kink at each edge normal, where
    its maximum often sits; so every edge-normal angle is a sample too,
    solved in one stack.  The maxima of |h_A - h_K| over the merged
    samples are then polished as in :func:`range_distance`, each on one
    sinusoid piece of h_K.
    """
    _require_scan(N, "range_gap")
    if not isinstance(K, ConvexPolygon):
        raise PreconditionError("range_gap expects a ConvexPolygon")
    pencil = mc.as_pencil(A)
    v, c = _support_pieces(K)
    thetas, w, _ = pencil.grid(N)
    normals = np.mod(c, 2.0 * np.pi)
    x = np.concatenate([thetas, normals])
    h = np.concatenate([w[:, -1], pencil.support(normals)])
    order = np.argsort(x, kind="stable")
    x, h = x[order], h[order]
    kink = order >= N
    vx, vy = v[_supporting_vertex(c, x) % len(v)].T
    g = h - (vx * np.cos(x) + vy * np.sin(x))

    def piece(t, t0):
        # the sinusoid <v, e^{i t}> of the vertex v that supports K at t0
        vt = v[_supporting_vertex(c, t0) % len(v)]
        px, py = vt[..., 0], vt[..., 1]
        cos, sin = np.cos(t), np.sin(t)
        hk = px * cos + py * sin
        return hk, py * cos - px * sin, -hk

    return _polished_max(pencil, x, g, kink, piece)


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
