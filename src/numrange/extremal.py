"""Exposed faces of the numerical range and pre-images of its extreme points.

An exposed face with outward normal ``e^{i theta}`` is recovered from the
top eigenvalue cluster of the rotated part ``A(theta)``: the compression
of ``A'(theta)`` onto that cluster is a Hermitian operator whose extreme
eigenvalues are the one-sided derivatives of the support curve, and whose
extreme eigenspaces are exactly the pre-images of the two face endpoints.
This module computes faces, eigenvalue-curve derivatives, flat boundary
portions (nondegenerate faces), and classifies boundary points as exposed
or non-exposed, simply or multiply generated.

Planar points are represented as complex numbers; the plane inner product
is ``<a, b> = Re(a * conj(b))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore as mc
from .errors import PreconditionError

# Relative width of an eigenvalue cluster (defined with the pencil).
CLUSTER_RTOL = mc.CLUSTER_RTOL
# Faces longer than this (relative) count as flat boundary portions.
FLAT_LENGTH_RTOL = 1e-7
# Distance at which a point counts as a member of a face.
FACE_MEMBER_RTOL = 1e-9
# A normal arc no longer than this is treated as a single supporting line.
ARC_SINGLE_ANGLE = 1e-6
# Matching tolerance for identifying a point with a face endpoint.
POINT_MATCH_RTOL = 1e-8
# Crossing refinement target for the top eigenvalue gap.
GAP_REFINE_RTOL = 1e-12
# Machine-level degeneracy threshold for face membership probes.  The
# reported faces and pre-images group eigenvalues at CLUSTER_RTOL, but
# deciding whether a *probe angle* carries a genuine segment must not:
# near a transversal crossing the top gap is quadratic in the angle, and
# the 1e-8 grouping would smear the normal arc of the crossing point by
# ~1e-4 rad, turning round boundary points into fake corners.
STRICT_GAP_RTOL = 1e-14

_BISECT_STEPS = 48


def cluster_tolerance(A) -> float:
    """Absolute eigenvalue-grouping tolerance for the matrix A."""
    return CLUSTER_RTOL * (1.0 + mc.fro(A))


def as_point(p) -> complex:
    """Coerce a planar point given as complex or an (x, y) pair."""
    if isinstance(p, complex | float | int | np.complexfloating | np.floating | np.integer):
        return complex(p)
    arr = np.asarray(p, dtype=float).reshape(-1)
    if arr.shape[0] != 2:
        raise PreconditionError("planar point must be complex or a pair (x, y)")
    return complex(arr[0], arr[1])


def _inner(a: complex, b: complex) -> float:
    return (a * np.conj(b)).real


@dataclass(frozen=True)
class FaceDescriptor:
    """Exposed face with outward normal ``e^{i theta}``.

    ``p_plus``/``p_minus`` are the face endpoints, ``deriv_plus`` and
    ``deriv_minus`` the one-sided support-curve derivatives (extreme
    eigenvalues of the compressed derivative part), and the basis blocks
    span the pre-images: the top cluster and the endpoint eigenspaces.
    """

    theta: float
    support: float
    p_plus: complex
    p_minus: complex
    deriv_plus: float
    deriv_minus: float
    basis_m: np.ndarray
    basis_plus: np.ndarray
    basis_minus: np.ndarray

    @property
    def length(self) -> float:
        return abs(self.p_plus - self.p_minus)

    def distance(self, p) -> float:
        """Euclidean distance from a planar point to the face segment."""
        lo, hi = self.deriv_minus, self.deriv_plus
        return float(_segment_distance(as_point(p), self.theta, self.support, lo, hi))


def face(A, theta: float) -> FaceDescriptor:
    """Compute the exposed face of W(A) with outward normal ``e^{i theta}``."""
    pencil = mc.Pencil(A)
    ctol = pencil.ctol
    support, Qm, mu, W = pencil.segment(theta, ctol)
    lo, hi = float(mu[0]), float(mu[-1])
    basis_plus = Qm @ W[:, mu >= hi - ctol]
    basis_minus = Qm @ W[:, mu <= lo + ctol]

    u = np.exp(1j * theta)
    return FaceDescriptor(
        theta=float(theta),
        support=support,
        p_plus=complex(u * (support + 1j * hi)),
        p_minus=complex(u * (support + 1j * lo)),
        deriv_plus=hi,
        deriv_minus=lo,
        basis_m=Qm,
        basis_plus=basis_plus,
        basis_minus=basis_minus,
    )


def _clusters(w: np.ndarray, ctol: float) -> list[slice]:
    """Consecutive index ranges of eigenvalues closer than ctol."""
    out, start = [], 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[k - 1] > ctol:
            out.append(slice(start, k))
            start = k
    return out


def eigencurve_derivatives(A, theta: float) -> list[tuple[float, float, int]]:
    """Eigenvalue curves of A(theta) with one-sided derivatives at theta.

    Returns one ``(value, derivative, multiplicity)`` triple per curve,
    ascending.  Simple eigenvalues get the quadratic form of A'(theta) on
    their eigenvector; a cluster gets the eigenvalues of the compression
    of A'(theta) onto its eigenspace, matched in ascending order.
    """
    pencil = mc.Pencil(A)
    dec = mc.eig_hermitian(pencil.rotate(theta))
    w, V = dec.eigenvalues, dec.eigenvectors
    Ap = pencil.prime(theta)
    out: list[tuple[float, float, int]] = []
    for cl in _clusters(w, pencil.ctol):
        size = cl.stop - cl.start
        if size == 1:
            v = V[:, cl.start]
            out.append((float(w[cl.start]), float((v.conj() @ Ap @ v).real), 1))
        else:
            Q = V[:, cl]
            C = mc.compress(Ap, Q)
            slopes = mc.eig_hermitian((C + C.conj().T) / 2.0).eigenvalues
            for j in range(size):
                out.append((float(w[cl.start + j]), float(slopes[j]), size))
    return out


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------


def _angle_grid(grid: int, what: str) -> np.ndarray:
    """Uniform grid of ``grid`` angles on [0, 2 pi), at least 64 of them."""
    if grid < 64:
        raise PreconditionError(f"{what} requires grid >= 64")
    return np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)


def _bisect(inside, inner, outer) -> np.ndarray:
    """Batched bisection of the edges of angle sets.

    ``inside(angles)`` returns a boolean array; each ``inner[i]`` is
    inside and ``outer[i]`` outside.  Returns the refined inner angles.
    """
    inner = np.array(inner, dtype=float)
    outer = np.array(outer, dtype=float)
    for _ in range(_BISECT_STEPS):
        mid = (inner + outer) / 2.0
        member = inside(mid)
        inner[member] = mid[member]
        outer[~member] = mid[~member]
    return inner


def _golden_min(f, lo: float, hi: float, iters: int = 90) -> float:
    """Golden-section minimizer returning the best abscissa."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a < 1e-13:
            break
    return (a + b) / 2.0


def _circular_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of True in a circular boolean array, as (start, stop)."""
    n = mask.size
    if mask.all():
        return [(0, n)]
    if not mask.any():
        return []
    ext = np.concatenate([mask, mask])
    runs = []
    j = 0
    while j < n:
        if ext[j] and not ext[j - 1 if j > 0 else n - 1]:
            k = j
            while ext[k]:
                k += 1
            runs.append((j, k))
            j = k
        else:
            j += 1
    return runs


@dataclass(frozen=True)
class FlatPortion:
    """Maximal segment in the boundary, with its outward normal angle.

    ``endpoints`` are ordered counterclockwise along the boundary, i.e.
    (p_minus, p_plus) of the face at the normal angle.
    """

    theta: float
    endpoints: tuple[complex, complex]
    length: float


def _flat_candidates(pencil: mc.Pencil, thetas: np.ndarray, gap: np.ndarray) -> list[float]:
    """Refined angles where the top eigenvalue of A(theta) is degenerate.

    ``gap`` is the top eigenvalue gap on the uniform grid ``thetas``.  Two
    regimes per candidate run of the gap scan: a transversal crossing
    (the gap dips to zero at one interior angle, located by golden-section
    minimization) and a degenerate band (the gap is already zero across
    grid points, e.g. repeated diagonal entries; the faces of interest sit
    at the two transition edges, located by bisection).
    """
    grid = thetas.size
    step = 2.0 * np.pi / grid
    scale = pencil.norm
    # eigenvalue curves of A(theta) are Lipschitz with constant <= ||A||_F
    thresh = 2.0 * step * scale + 10.0 * pencil.ctol
    mask = gap <= thresh
    gap_tol = GAP_REFINE_RTOL * (1.0 + scale)
    found: list[float] = []
    edge_in: list[float] = []
    edge_out: list[float] = []
    for start, stop in _circular_runs(mask):
        idx = np.arange(start, stop) % grid
        band = gap[idx] <= gap_tol
        lo = thetas[start % grid] - step
        hi = lo + (stop - start + 1) * step
        if band.sum() >= 2 and stop - start < grid:
            band_idx = idx[band]
            found.append(float(thetas[band_idx[len(band_idx) // 2]]))
            edge_in += [thetas[band_idx[0]], thetas[band_idx[0]] + (band_idx.size - 1) * step]
            edge_out += [lo, hi]
        elif stop - start >= grid:
            # degenerate at every angle: the range is a point or the matrix
            # is a scalar shift of a degenerate family; one probe suffices
            found.append(0.0)
        else:
            # refine every local minimum of the sampled gap inside the run:
            # nearly parallel eigenvalue curves can keep a whole arc below
            # the scan threshold, and a single wide bracket would not be
            # unimodal
            g = gap[idx]
            left = np.concatenate([[gap[(start - 1) % grid]], g[:-1]])
            right = np.concatenate([g[1:], [gap[stop % grid]]])
            local_min = np.nonzero((g <= left) & (g <= right))[0]
            for m in local_min[:64]:
                t0 = thetas[start % grid] + m * step
                t = _golden_min(lambda th: float(pencil.gap(th)), t0 - step, t0 + step)
                if pencil.gap(t) <= gap_tol:
                    found.append(t % (2.0 * np.pi))
    if edge_in:
        # both edges of every band, bisected together
        edges = _bisect(lambda t: pencil.gap(t) <= gap_tol, edge_in, edge_out)
        found += [float(t) for t in edges % (2.0 * np.pi)]
    found.sort()
    out: list[float] = []
    for t in found:
        if all(min(abs(t - s), 2.0 * np.pi - abs(t - s)) > 1e-9 for s in out):
            out.append(t)
    return out


def _flat_portions(pencil: mc.Pencil, candidates: list[float]) -> list[FlatPortion]:
    """Flat portions at the candidate angles of :func:`_flat_candidates`."""
    length_tol = FLAT_LENGTH_RTOL * (1.0 + pencil.norm)
    portions = []
    for t in candidates:
        fd = face(pencil.A, t)
        if fd.length > length_tol:
            portions.append(FlatPortion(theta=t, endpoints=(fd.p_minus, fd.p_plus), length=fd.length))
    portions.sort(key=lambda fp: fp.theta)
    dedup: list[FlatPortion] = []
    for fp in portions:
        if not dedup or min(abs(fp.theta - dedup[-1].theta), 2 * np.pi - abs(fp.theta - dedup[-1].theta)) > 1e-8:
            dedup.append(fp)
    if len(dedup) > 1:
        gap_angle = dedup[0].theta + 2 * np.pi - dedup[-1].theta
        if gap_angle <= 1e-8:
            dedup.pop()
    return dedup


def flat_portions(A, grid: int = 512) -> list[FlatPortion]:
    """All flat boundary portions of W(A), located by a gap scan.

    The grid is scanned for angles where the two largest eigenvalues of
    A(theta) nearly cross; each candidate is refined by golden-section
    minimization of the gap, and kept when the face there is a genuine
    segment.  A degenerate one-dimensional W(A) reports itself under
    both of its normals.
    """
    pencil = mc.Pencil(A)
    thetas = _angle_grid(grid, "flat_portions")
    return _flat_portions(pencil, _flat_candidates(pencil, thetas, pencil.gap(thetas)))


@dataclass(frozen=True)
class ExtremePointReport:
    """A boundary point with its pre-image and exposure classification.

    ``normal_arc`` is the closed interval of supporting angles (radians,
    possibly wrapping past 2 pi); ``kind`` is "exposed" or "non-exposed";
    ``multiply_generated`` records whether the pre-image has dimension
    at least two.
    """

    point: complex
    kind: str
    preimage: np.ndarray
    multiply_generated: bool
    normal_arc: tuple[float, float]


def _segment_distance(p, theta, support, mu_lo, mu_hi):
    """Distance from planar points to the face segments
    e^{i theta}(support + i [mu_lo, mu_hi]); broadcasts over arrays."""
    u = np.exp(1j * theta)
    radial = support - (p * np.conj(u)).real
    eta = (p * np.conj(1j * u)).real
    off = np.maximum(np.maximum(mu_lo - eta, 0.0), eta - mu_hi)
    return np.hypot(radial, off)


def extreme_points(A, grid: int = 512) -> list[ExtremePointReport]:
    """Classify all face endpoints of W(A) sampled on an angle grid.

    Covers every endpoint seen on the grid plus the refined endpoints of
    every flat portion.  Each deduplicated point gets its supporting-angle
    arc (refined by bisection), an exposed/non-exposed verdict, and its
    pre-image basis.
    """
    pencil = mc.Pencil(A)
    A = pencil.A
    thetas = _angle_grid(grid, "extreme_points")
    scale = 1.0 + pencil.norm
    dedup_tol = 1e-10 * scale
    member_tol = FACE_MEMBER_RTOL * scale
    match_tol = POINT_MATCH_RTOL * scale
    strict_tol = STRICT_GAP_RTOL * scale

    if pencil.d == 1:
        p = complex(A[0, 0])
        return [
            ExtremePointReport(
                point=p,
                kind="exposed",
                preimage=np.ones((1, 1), dtype=complex),
                multiply_generated=False,
                normal_arc=(0.0, 2.0 * np.pi),
            )
        ]

    eig = pencil.eigh(thetas)
    u_grid = np.exp(1j * thetas)
    sup, mu_lo, mu_hi = pencil.faces(thetas, pencil.ctol, eig)
    lo_pts = u_grid * (sup + 1j * mu_lo)
    hi_pts = u_grid * (sup + 1j * mu_hi)
    portions = _flat_portions(pencil, _flat_candidates(pencil, thetas, pencil.top_gap(eig[0])))

    # (angle, point) candidates, sorted by angle then point for stable dedup
    cand: list[tuple[float, complex]] = []
    for j, t in enumerate(thetas):
        cand.append((float(t), complex(lo_pts[j])))
        if abs(hi_pts[j] - lo_pts[j]) > dedup_tol:
            cand.append((float(t), complex(hi_pts[j])))
    for fp in portions:
        cand.append((fp.theta, fp.endpoints[0]))
        cand.append((fp.theta, fp.endpoints[1]))
    cand.sort(key=lambda c: (c[0], c[1].real, c[1].imag))

    uniq_pts: list[complex] = []
    uniq_theta: list[float] = []
    arr = np.array([c[1] for c in cand])
    taken = np.zeros(len(cand), dtype=bool)
    for i in range(len(cand)):
        if taken[i]:
            continue
        same = np.abs(arr - arr[i]) <= dedup_tol
        taken |= same
        uniq_pts.append(cand[i][1])
        uniq_theta.append(cand[i][0])

    pts = np.array(uniq_pts)
    th0 = np.array(uniq_theta)
    n = len(pts)

    # membership matrix of every (point, grid angle) pair, to find arc runs
    step = 2.0 * np.pi / grid
    member = _segment_distance(pts[:, None], thetas, *pencil.faces(thetas, strict_tol, eig)) <= member_tol

    left_inner = th0.copy()
    left_outer = th0.copy()
    right_inner = th0.copy()
    right_outer = th0.copy()
    for i in range(n):
        j0 = int(round((th0[i] % (2 * np.pi)) / step)) % grid
        row = member[i]
        if not row[j0]:
            # seed angle came from a refined portion angle off the grid
            left_inner[i] = th0[i]
            left_outer[i] = th0[i] - step
            right_inner[i] = th0[i]
            right_outer[i] = th0[i] + step
        elif row.all():
            left_inner[i] = 0.0
            left_outer[i] = 0.0
            right_inner[i] = 2.0 * np.pi
            right_outer[i] = 2.0 * np.pi
        else:
            jl = j0
            while row[(jl - 1) % grid]:
                jl -= 1
            jr = j0
            while row[(jr + 1) % grid]:
                jr += 1
            left_inner[i] = jl * step
            left_outer[i] = (jl - 1) * step
            right_inner[i] = jr * step
            right_outer[i] = (jr + 1) * step

    # left and right arc edges of every point, bisected in one stack
    left = np.nonzero(left_outer != left_inner)[0]
    right = np.nonzero(right_outer != right_inner)[0]
    which = np.concatenate([left, right])
    lo_edge = left_inner.copy()
    hi_edge = right_inner.copy()
    if which.size:
        edges = _bisect(
            lambda t: _segment_distance(pts[which], t, *pencil.faces(t, strict_tol)) <= member_tol,
            np.concatenate([left_inner[left], right_inner[right]]),
            np.concatenate([left_outer[left], right_outer[right]]),
        )
        lo_edge[left] = edges[: left.size]
        hi_edge[right] = edges[left.size :]

    flat_ends = np.array(
        [e for fp in portions for e in fp.endpoints], dtype=complex
    ) if portions else np.empty(0, dtype=complex)

    # pre-images at the arc midpoints: one stacked solve; angles whose top
    # eigenvalue is clustered need the full face
    theta_rep = (lo_edge + hi_edge) / 2.0
    w_rep, V_rep = pencil.eigh(theta_rep)
    clustered = pencil.top_gap(w_rep) <= pencil.ctol
    tops = mc._fix_phases(V_rep[:, :, -1:])
    reports = []
    for i in range(n):
        arc = (float(lo_edge[i]), float(hi_edge[i]))
        is_flat_end = bool(flat_ends.size) and bool(
            np.min(np.abs(flat_ends - pts[i])) <= 10 * match_tol
        )
        kind = "non-exposed" if arc[1] - arc[0] <= ARC_SINGLE_ANGLE and is_flat_end else "exposed"
        basis = tops[i]
        if clustered[i]:
            fd = face(A, theta_rep[i])
            if fd.length <= match_tol:
                basis = fd.basis_m
            elif abs(pts[i] - fd.p_plus) <= abs(pts[i] - fd.p_minus):
                basis = fd.basis_plus
            else:
                basis = fd.basis_minus
        reports.append(
            ExtremePointReport(
                point=complex(pts[i]),
                kind=kind,
                preimage=basis,
                multiply_generated=basis.shape[1] >= 2,
                normal_arc=arc,
            )
        )
    reports.sort(key=lambda r: (np.angle(r.point - pts.mean()) if n > 1 else 0.0))
    return reports


def supporting_angle(A, p, grid: int = 512) -> tuple[float, float]:
    """Angle maximizing g(theta) = <p, e^{i theta}> - support(theta), and g there.

    For p on the boundary the maximum is ~0 at a supporting angle; for an
    interior point it is strictly negative (minus the depth), and for an
    exterior point strictly positive (the distance).  A grid scan finds
    the maximizing cell; bisection on the sign change of g' then pins the
    angle to machine precision (golden-section alone would stall at the
    sqrt(eps) resolution of the flat quadratic top).  On plateaus (fat
    normal cones) any maximizing angle is returned.
    """
    pencil = mc.Pencil(A)
    p = as_point(p)
    scan_thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    g = p.real * np.cos(scan_thetas) + p.imag * np.sin(scan_thetas) - pencil.support(scan_thetas)
    j = int(np.argmax(g))
    step = 2.0 * np.pi / grid

    def g_at(th):
        return p.real * np.cos(th) + p.imag * np.sin(th) - float(pencil.support(th))

    def g_slope(th):
        u = np.exp(1j * th)
        return _inner(p, 1j * u) - float(pencil.slope(th))

    lo, hi = scan_thetas[j] - step, scan_thetas[j] + step
    slo, shi = g_slope(lo), g_slope(hi)
    plateau_tol = 1e-11 * (1.0 + pencil.norm) * (1.0 + abs(p))
    if slo >= 0.0 >= shi:
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if g_slope(mid) >= 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15:
                break
        t = (lo + hi) / 2.0
    elif abs(slo) <= plateau_tol and abs(shi) <= plateau_tol:
        t = scan_thetas[j]
    else:
        t = _golden_min(lambda th: -g_at(th), lo - step, hi + step)
    return t % (2.0 * np.pi), g_at(t)


def preimage(A, p, grid: int = 512) -> np.ndarray:
    """Orthonormal basis of the pre-image of an extreme point p of W(A).

    Raises :class:`PreconditionError` when p is not an extreme point:
    interior points, exterior points, and relative-interior points of
    flat boundary portions are all rejected with a diagnostic.
    """
    A = mc.as_matrix(A)
    p = as_point(p)
    scale = 1.0 + mc.fro(A)
    tol = POINT_MATCH_RTOL * scale
    theta, gval = supporting_angle(A, p, grid)
    if gval < -tol:
        raise PreconditionError(
            f"point {p} is not an extreme point of W(A): interior point "
            f"(depth {-gval:.3e})"
        )
    if gval > tol:
        raise PreconditionError(
            f"point {p} is not an extreme point of W(A): lies outside the range "
            f"(distance {gval:.3e})"
        )
    fd = face(A, theta)
    if fd.length <= tol:
        return fd.basis_m
    if abs(p - fd.p_plus) <= tol:
        return fd.basis_plus
    if abs(p - fd.p_minus) <= tol:
        return fd.basis_minus
    if fd.distance(p) <= tol:
        raise PreconditionError(
            f"point {p} is not an extreme point of W(A): relative interior "
            "of a flat boundary portion"
        )
    raise PreconditionError(f"point {p} is not an extreme point of W(A)")
