"""Planar geometry of the numerical range.

The support function of W(A) in direction ``e^{i theta}`` is the top
eigenvalue of the rotated part A(theta); everything here is built on
that identity: boundary polygons from face touch points, membership
tests by a refined dual inequality, Hausdorff distances as sup-norm
gaps of support functions, and least-squares ellipse recognition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import extremal, matcore as mc
from .errors import PreconditionError

# Membership tolerance for `contains`, relative to 1 + ||A||.
CONTAINS_RTOL = 1e-9
# Angle grid used by `hausdorff` (matches the documented Lipschitz bound).
HAUSDORFF_GRID = 4096
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

    def half(iterable):
        chain: list[np.ndarray] = []
        for p in iterable:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= collinear_tol:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    lower = half(pts)
    upper = half(pts[::-1])
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
        v = self.vertices
        if len(v) == 1:
            return 0.0
        span = v.max(axis=0) - v.min(axis=0)
        return float(np.hypot(span[0], span[1]))

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
    thetas = np.linspace(0.0, 2.0 * np.pi, N, endpoint=False)
    sup, lo, hi = pencil.faces(thetas, pencil.ctol)
    u = np.exp(1j * thetas)
    zs = np.concatenate([u * (sup + 1j * lo), u * (sup + 1j * hi)])
    pts = np.column_stack([zs.real, zs.imag])
    scale = 1.0 + pencil.norm
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
    tol = CONTAINS_RTOL * (1.0 + pencil.norm)
    return extremal.supporting_angle(pencil, p, grid)[1] <= tol


def hausdorff(K: ConvexPolygon, L: ConvexPolygon, grid: int = HAUSDORFF_GRID, upper: bool = False) -> float:
    """Hausdorff distance of two convex polygons via support functions.

    Computed as the max over a uniform angle grid of |h_K - h_L|, exact
    up to the grid mesh.  With ``upper=True`` the Lipschitz correction
    ``(grid step) * max(diam K, diam L) / 2`` is added, giving a certified
    upper bound.
    """
    if not isinstance(K, ConvexPolygon) or not isinstance(L, ConvexPolygon):
        raise PreconditionError("hausdorff expects ConvexPolygon arguments")
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    val = float(np.max(np.abs(K.support(thetas) - L.support(thetas))))
    if upper:
        val += (2.0 * np.pi / grid) * max(K.diameter, L.diameter) / 2.0
    return val


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
        """Polygon through the support touch points on a uniform angle grid."""
        a, b = self.semi_major, self.semi_minor
        if a <= 0.0:
            z = self.center
            return ConvexPolygon(np.array([[z.real, z.imag]]))
        if b <= 0.0:
            return ConvexPolygon.from_complex(np.array(self.foci))
        f = self.foci[1] - self.foci[0]
        phase = f / abs(f) if abs(f) > 0 else 1.0 + 0j
        thetas = np.linspace(0.0, 2.0 * np.pi, N, endpoint=False)
        u = np.exp(1j * thetas) * np.conj(phase)
        denom = np.sqrt((a * u.real) ** 2 + (b * u.imag) ** 2)
        touch = (a * a * u.real + 1j * b * b * u.imag) / denom
        zs = self.center + phase * touch
        return ConvexPolygon.from_complex(zs)


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


def range_converges(sequence, limit, N: int = DEFAULT_BOUNDARY_SAMPLES) -> list[float]:
    """Hausdorff distances d_H(W(A_i), W(A)) for a matrix sequence.

    Norm convergence of the matrices forces Hausdorff convergence of the
    ranges; the returned distances exhibit the rate.
    """
    limit = mc.as_matrix(limit)
    mats = [mc.as_matrix(B) for B in sequence]
    for B in mats:
        if B.shape != limit.shape:
            raise PreconditionError("sequence and limit dimensions differ")
    ref = boundary_polygon(limit, N)
    return [hausdorff(boundary_polygon(B, N), ref) for B in mats]
