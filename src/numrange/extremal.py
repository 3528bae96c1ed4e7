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
# Scalarity defect of the compressed derivative above rounding (relative).
SCALAR_DEFECT_RTOL = 1e-12
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
    """Compute the exposed face of W(A) with outward normal ``e^{i theta}``.

    ``A`` is a matrix or a :class:`~numrange.matcore.Pencil`, as for every
    function of this module that takes one.
    """
    pencil = mc.as_pencil(A)
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
    pencil = mc.as_pencil(A)
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


def _require_grid(grid: int, what: str) -> None:
    """Scans of the grid functions take at least 64 angles."""
    if grid < 64:
        raise PreconditionError(f"{what} requires grid >= 64")


def _bisect(inside, inner, outer) -> np.ndarray:
    """Batched bisection of the edges of angle sets, in 48 halvings.

    ``inside(angles)`` returns a boolean array; each ``inner[i]`` is
    inside and ``outer[i]`` outside.  Returns the refined inner angles.
    Used where the predicate is a step function with no usable values
    (the degenerate-band edges of :func:`_flat_candidates`); edges of a
    continuous distance use :func:`_false_position`.
    """
    inner = np.array(inner, dtype=float)
    outer = np.array(outer, dtype=float)
    for _ in range(_BISECT_STEPS):
        mid = (inner + outer) / 2.0
        member = inside(mid)
        inner[member] = mid[member]
        outer[~member] = mid[~member]
    return inner


def _false_position(f, a, fa, b, fb, tol) -> np.ndarray:
    """Batched Illinois false position on the sign changes of f.

    Bracket i has its inside end ``a[i]`` (f <= 0) and its outside end
    ``b[i]`` (f > 0), with values ``fa``/``fb``; ``f(t, idx)`` evaluates
    f at the angles ``t`` of the brackets ``idx`` (one stacked solve).
    An end kept by two false-position steps in a row has its value
    halved (Illinois), a bracket whose last step did not halve it bisects
    next, and no point lands within tol/2 of an end.  An outside
    bisection point with more than 3/4 of the value at the outside end it
    replaces shows a jump of f (a convex f, or a nearly linear concave
    one, gives at most about 1/2); there the secant point keeps landing
    next to the inside end, so the bracket bisects until an outside
    bisection point shows no jump.  Stops when a bracket is at most
    max(tol, 4 ulp) wide; returns the inside ends.
    """
    a, fa, b, fb = (np.array(x, dtype=float) for x in (a, fa, b, fb))
    tol = np.maximum(tol, 4.0 * np.spacing(np.maximum(np.abs(a), np.abs(b))))
    kept = np.zeros(a.size, dtype=int)  # end kept by the last false-position step: +1 a, -1 b
    halve = np.zeros(a.size, dtype=bool)
    jump = np.zeros(a.size, dtype=bool)
    f_out = fb.copy()  # f at the outside end, without the Illinois halvings
    live = np.nonzero(np.abs(b - a) > tol)[0]
    while live.size:
        al, bl, fal, fbl = a[live], b[live], fa[live], fb[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = al - fal * (bl - al) / (fbl - fal)
        # a secant point within tol/2 of an end moves to tol/2 from it
        # (Brent's minimum step): one step past a converged end closes the
        # bracket
        half_tol = np.copysign(tol[live] / 2.0, bl - al)
        t = np.where(np.abs(t - al) < np.abs(half_tol), al + half_tol, t)
        t = np.where(np.abs(t - bl) < np.abs(half_tol), bl - half_tol, t)
        # bisect where asked to, or where the secant point is not strictly inside
        bis = halve[live] | jump[live] | ~((t - al) * (t - bl) < 0.0)
        t[bis] = (al[bis] + bl[bis]) / 2.0
        ft = f(t, live)
        inside = ft <= 0.0
        # Illinois over the false-position steps (bisections do not count):
        # an end kept by two of them in a row has its value halved
        i_in, i_out = live[inside & ~bis], live[~inside & ~bis]
        fb[i_in[kept[i_in] == -1]] /= 2.0
        fa[i_out[kept[i_out] == 1]] /= 2.0
        kept[i_in], kept[i_out] = -1, 1
        a[live[inside]], fa[live[inside]] = t[inside], ft[inside]
        out_bis = bis & ~inside
        jump[live[out_bis]] = ft[out_bis] > 0.75 * f_out[live[out_bis]]
        b[live[~inside]], fb[live[~inside]], f_out[live[~inside]] = t[~inside], ft[~inside], ft[~inside]
        width = np.abs(b[live] - a[live])
        halve[live] = ~bis & (width > np.abs(bl - al) / 2.0)
        live = live[width > tol[live]]
    return a


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
        fd = face(pencil, t)
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
    _require_grid(grid, "flat_portions")
    pencil = mc.as_pencil(A)
    thetas, w, _ = pencil.grid(grid)
    return _flat_portions(pencil, _flat_candidates(pencil, thetas, pencil.top_gap(w)))


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
    arc, an exposed/non-exposed verdict, and its pre-image basis.  The arc
    runs of every point come from the distances of the grid faces to the
    point; their edges are refined by batched false position on that
    distance minus the membership tolerance, seeded with the grid values,
    to the resolution of 48 halvings of the grid step (or 4 ulp).
    """
    _require_grid(grid, "extreme_points")
    pencil = mc.as_pencil(A)
    A = pencil.A
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

    thetas, *eig = pencil.grid(grid, vectors=True)
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

    # distance of every (point, grid angle) pair to the face there: its
    # runs give the arcs, its values seed the arc-edge refinement
    step = 2.0 * np.pi / grid
    f_grid = _segment_distance(pts[:, None], thetas, *pencil.faces(thetas, strict_tol, eig)) - member_tol
    member = f_grid <= 0.0

    lo_edge = np.zeros(n)
    hi_edge = np.full(n, 2.0 * np.pi)
    owner, inner, outer, f_in, f_out = [], [], [], [], []
    for i in range(n):
        row = member[i]
        if row.all():
            continue
        j0 = int(round((th0[i] % (2 * np.pi)) / step)) % grid
        owner += [i, i]
        if not row[j0]:
            # seed angle came from a refined portion angle off the grid
            inner += [th0[i], th0[i]]
            outer += [th0[i] - step, th0[i] + step]
            f_in += [np.nan, np.nan]
            f_out += [np.nan, np.nan]
            continue
        jl = j0
        while row[(jl - 1) % grid]:
            jl -= 1
        jr = j0
        while row[(jr + 1) % grid]:
            jr += 1
        for j_in, j_out in ((jl, jl - 1), (jr, jr + 1)):
            inner.append(j_in * step)
            outer.append(j_out * step)
            f_in.append(f_grid[i, j_in % grid])
            f_out.append(f_grid[i, j_out % grid])

    # left and right arc edges of every point, refined together
    if owner:
        edge_pts = pts[owner]
        inner, outer, f_in, f_out = map(np.array, (inner, outer, f_in, f_out))

        def f(t, idx):
            return _segment_distance(edge_pts[idx], t, *pencil.faces(t, strict_tol)) - member_tol

        off = np.nonzero(np.isnan(f_in))[0]
        if off.size:
            vals = f(np.concatenate([inner[off], outer[off]]), np.concatenate([off, off]))
            f_in[off], f_out[off] = vals[: off.size], vals[off.size :]
        edges = _false_position(f, inner, f_in, outer, f_out, step * 2.0**-_BISECT_STEPS)
        lo_edge[owner[0::2]] = edges[0::2]
        hi_edge[owner[1::2]] = edges[1::2]

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
            fd = face(pencil, theta_rep[i])
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
    center = pts.mean()
    reports.sort(key=lambda r: (np.angle(r.point - center) if n > 1 else 0.0))
    return reports


def supporting_angle(A, p, grid: int = 512) -> tuple[float, float]:
    """Angle maximizing g(theta) = <p, e^{i theta}> - support(theta), and g there.

    For p on the boundary the maximum is ~0 at a supporting angle; for an
    interior point it is strictly negative (minus the depth), and for an
    exterior point strictly positive (the distance).  The uniform scan of
    the grid (:meth:`~numrange.matcore.Pencil.grid`, shared through a
    Pencil) finds the maximizing cell.  Where g' changes sign across the
    cell, safeguarded Newton on g' pins the angle to machine precision
    (golden-section alone would stall at the sqrt(eps) resolution of the
    flat quadratic top): each step takes h, h' and h'' of the support
    curve h from one eigendecomposition, and the step is taken when
    g'' < 0 and it stays inside the bracket g'(lo) >= 0 >= g'(hi);
    otherwise, and where the top eigenvalue is clustered (h'' undefined),
    the bracket is bisected on the slope of the top eigenvector.  It
    stops at g' = 0, a Newton step or a bracket below 1e-15.  On plateaus
    (fat normal cones) any maximizing angle is returned.
    """
    pencil = mc.as_pencil(A)
    p = as_point(p)
    scan_thetas, w_grid, _ = pencil.grid(grid)
    sup = w_grid[:, -1]
    g = p.real * np.cos(scan_thetas) + p.imag * np.sin(scan_thetas) - sup
    j = int(np.argmax(g))
    step = 2.0 * np.pi / grid

    def g_slope(th, V):
        return -p.real * np.sin(th) + p.imag * np.cos(th) - pencil.slope(th, V[..., -1])

    cell = np.array([scan_thetas[j] - step, scan_thetas[j], scan_thetas[j] + step])
    w, V = pencil.eigh(cell)
    slo, _, shi = g_slope(cell, V)
    plateau_tol = 1e-11 * (1.0 + pencil.norm) * (1.0 + abs(p))
    if slo >= 0.0 >= shi:
        lo, t, hi = cell
        eig = w[1], V[1]
        for _ in range(80):
            pu = _inner(p, np.exp(1j * t))
            gt = pu - eig[0][-1]
            d1 = float(g_slope(t, eig[1]))
            if d1 == 0.0:
                break
            if d1 > 0.0:
                lo = t
            else:
                hi = t
            # Newton on g'' = -<p, e^{i t}> - h'' where the top eigenvalue is
            # simple (h'' is undefined in a cluster)
            nt = np.nan
            if pencil.top_gap(eig[0]) > pencil.ctol:
                d2 = -pu - float(pencil.curvature(t, eig))
                if d2 < 0.0:
                    nt = t - d1 / d2
            if abs(nt - t) < 1e-15:
                t = nt
                break
            if not lo < nt < hi:
                nt = (lo + hi) / 2.0
            if hi - lo < 1e-15:
                break
            t = nt
            eig = pencil.eigh(t)
        else:
            gt = _inner(p, np.exp(1j * t)) - eig[0][-1]
        return t % (2.0 * np.pi), float(gt)
    if abs(slo) <= plateau_tol and abs(shi) <= plateau_tol:
        return scan_thetas[j], float(g[j])

    def g_at(th):
        return p.real * np.cos(th) + p.imag * np.sin(th) - float(pencil.support(th))

    t = _golden_min(lambda th: -g_at(th), cell[0] - step, cell[2] + step)
    return t % (2.0 * np.pi), g_at(t)


def _pinned_face(pencil: mc.Pencil, p: complex, theta: float) -> FaceDescriptor:
    """Face at theta, with the angle pinned at a tangentially multiply
    generated point p.

    When the face is a singleton with a top cluster of dimension two or
    more, the top eigenvalues tie over a band of angles, so support
    values fix the angle only to sqrt(eps).  The scalarity defect of the
    derivative A'(theta) compressed onto the top cluster is linear in the
    angle error, so its golden-section minimizer pins the angle to
    machine precision.  The angle is refined only when the defect at
    theta is above rounding: where the top eigenvalue is multiple at
    every angle (A = B + B as a direct sum) the defect is rounding noise
    everywhere and its minimizer is arbitrary.  The face at the refined
    angle is returned when it is again such a singleton at p; other
    faces are returned as they are.
    """
    tol = POINT_MATCH_RTOL * (1.0 + pencil.norm)
    fd = face(pencil, theta)
    if fd.length > tol or fd.basis_m.shape[1] < 2:
        return fd

    def scalar_defect(th):
        Q = pencil.top_cluster(th, pencil.ctol)[1]
        k = Q.shape[1]
        if k < 2:
            return 1e300
        C = mc.compress(pencil.prime(th), Q)
        return float(np.linalg.norm(C - (np.trace(C).real / k) * np.eye(k)))

    defect = scalar_defect(theta)
    if defect <= SCALAR_DEFECT_RTOL * (1.0 + pencil.norm):
        return fd
    refined = _golden_min(scalar_defect, theta - 1e-4, theta + 1e-4)
    if scalar_defect(refined) < defect:
        pinned = face(pencil, refined)
        if pinned.length <= tol and pinned.basis_m.shape[1] >= 2 and pinned.distance(p) <= tol:
            return pinned
    return fd


def preimage(A, p, grid: int = 512) -> np.ndarray:
    """Orthonormal basis of the pre-image of an extreme point p of W(A).

    Raises :class:`PreconditionError` when p is not an extreme point:
    interior points, exterior points, and relative-interior points of
    flat boundary portions are all rejected with a diagnostic.
    """
    pencil = mc.as_pencil(A)
    p = as_point(p)
    return _preimage(pencil, p, *supporting_angle(pencil, p, grid))[1]


def _preimage(pencil: mc.Pencil, p: complex, theta: float, gval: float) -> tuple[FaceDescriptor, np.ndarray]:
    """:func:`preimage` at a supporting angle theta with g value gval:
    the (pinned) face there and the pre-image basis of p."""
    tol = POINT_MATCH_RTOL * (1.0 + pencil.norm)
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
    fd = _pinned_face(pencil, p, theta)
    if fd.length <= tol:
        return fd, fd.basis_m
    if abs(p - fd.p_plus) <= tol:
        return fd, fd.basis_plus
    if abs(p - fd.p_minus) <= tol:
        return fd, fd.basis_minus
    if fd.distance(p) <= tol:
        raise PreconditionError(
            f"point {p} is not an extreme point of W(A): relative interior "
            "of a flat boundary portion"
        )
    raise PreconditionError(f"point {p} is not an extreme point of W(A)")
