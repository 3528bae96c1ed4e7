"""Exposed faces of the numerical range and pre-images of its extreme points.

An exposed face with outward normal ``e^{i theta}`` is recovered from the
top eigenvalue cluster of the rotated part ``A(theta)``: the compression
of ``A'(theta)`` onto that cluster is a Hermitian operator whose extreme
eigenvalues are the one-sided derivatives of the support curve, and whose
extreme eigenspaces are exactly the pre-images of the two face endpoints.
This module computes faces, flat boundary portions (nondegenerate
faces), and classifies boundary points as exposed or non-exposed, simply
or multiply generated.

Planar points are represented as complex numbers; the plane inner product
is ``<a, b> = Re(a * conj(b))``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import matcore as mc
from .errors import PreconditionError

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
# reported faces and pre-images group eigenvalues at mc.CLUSTER_RTOL, but
# deciding whether a *probe angle* carries a genuine segment must not:
# near a transversal crossing the top gap is quadratic in the angle, and
# the 1e-8 grouping would smear the normal arc of the crossing point by
# ~1e-4 rad, turning round boundary points into fake corners.
STRICT_GAP_RTOL = 1e-14

# Arc edges are refined to brackets of 2^-48 grid steps.
_EDGE_HALVINGS = 48
# Newton steps per seed of _polish; a tangential meeting (spread quadratic
# in the angle) converges linearly: 12 steps on the disk with its
# eigenvalue on the boundary, [[0, 2, 0], [0, 0, 0], [0, 0, 1]].
_POLISH_STEPS = 24
# Parts a bracket is cut into by one section step of _false_position.
_SECTIONS = 8
# Rounding level of the arc-edge distance and of slopes (relative).
_ROUNDING = 8.0 * np.finfo(float).eps


def as_point(p) -> complex:
    """Coerce a planar point given as complex or an (x, y) pair, with
    finite coordinates."""
    if isinstance(p, complex | float | int | np.complexfloating | np.floating | np.integer):
        z = complex(p)
    else:
        arr = np.asarray(p, dtype=float).reshape(-1)
        if arr.shape[0] != 2:
            raise PreconditionError("planar point must be complex or a pair (x, y)")
        z = complex(arr[0], arr[1])
    if not cmath.isfinite(z):
        raise PreconditionError(f"planar point must be finite, got {z}")
    return z


def _inner(a: complex, b: complex) -> float:
    return (a * np.conj(b)).real


@dataclass(frozen=True)
class FaceDescriptor:
    """Exposed face with outward normal ``e^{i theta}``.

    ``p_plus``/``p_minus`` are the face endpoints, ``deriv_plus`` and
    ``deriv_minus`` the one-sided support-curve derivatives (extreme
    eigenvalues of the compressed derivative part), and the basis blocks
    span the pre-images: the top cluster and the endpoint eigenspaces.
    ``mu`` and ``W`` are the ascending eigenvalues and eigenvectors of
    A'(theta) compressed onto ``basis_m`` (those of
    :meth:`~numrange.matcore.Pencil.segments`).
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
    mu: np.ndarray
    W: np.ndarray

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
    function of this module that takes one.  This is :func:`_faces` at
    one angle.
    """
    return _faces(mc.as_pencil(A), [theta])[0]


def _faces(pencil: mc.Pencil, thetas, eig=None) -> list[FaceDescriptor]:
    """:func:`face` at every angle of an array, from one
    :meth:`~numrange.matcore.Pencil.segments` call (given the
    :meth:`~numrange.matcore.Pencil.eigh` result ``eig`` at the angles).
    The basis blocks leave the package: the cluster basis and the
    eigenvectors of the compressed derivative part that combine it into
    the endpoint blocks come with their phases fixed from ``segments``.
    """
    ctol = pencil.ctol
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    sup, *segs = pencil.segments(thetas, ctol, eig)
    out = []
    for theta, support, Qm, mu, W in zip(thetas.tolist(), sup.tolist(), *segs):
        lo, hi = float(mu[0]), float(mu[-1])
        u = np.exp(1j * theta)
        out.append(
            FaceDescriptor(
                theta=theta,
                support=support,
                p_plus=complex(u * (support + 1j * hi)),
                p_minus=complex(u * (support + 1j * lo)),
                deriv_plus=hi,
                deriv_minus=lo,
                basis_m=Qm,
                basis_plus=Qm @ W[:, mu >= hi - ctol],
                basis_minus=Qm @ W[:, mu <= lo + ctol],
                mu=mu,
                W=W,
            )
        )
    return out


def _pick(fd: FaceDescriptor, p: complex, tol: float) -> tuple[str, np.ndarray, float]:
    """The pre-image basis of the point p on the face fd: ``basis_m``
    where the face is no longer than ``tol`` (tag 'm'), else the
    eigenspace of the endpoint nearer p ('+' p_plus, '-' p_minus).
    Returns the tag, the basis and the distance from p to that endpoint
    (0.0 for 'm'), at most ``tol`` where p is the extreme point."""
    if fd.length <= tol:
        return "m", fd.basis_m, 0.0
    d_plus, d_minus = abs(p - fd.p_plus), abs(p - fd.p_minus)
    if d_plus <= d_minus:
        return "+", fd.basis_plus, d_plus
    return "-", fd.basis_minus, d_minus


def _clusters(w: np.ndarray, ctol: float) -> list[slice]:
    """Consecutive index ranges of eigenvalues closer than ctol."""
    out, start = [], 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[k - 1] > ctol:
            out.append(slice(start, k))
            start = k
    return out


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------


def _require_grid(grid: int, what: str) -> None:
    """Scans of the grid functions take at least 64 angles."""
    if grid < 64:
        raise PreconditionError(f"{what} requires grid >= 64")


def _false_position(f, a, b, tol, floor) -> np.ndarray:
    """Batched safeguarded root search on the sign changes of f.

    Bracket i has its inside end ``a[i]`` (f <= 0) and its outside end
    ``b[i]`` (f > 0).  ``f(t, idx)`` evaluates f at the angles ``t`` of
    the brackets ``idx`` (one stacked solve; a bracket may appear more
    than once) and returns ``(values, proposals, certified)``: the angle
    a local model of the bracket predicts for its root, nan where it has
    none, and whether that proposal is proved a root, |f| <= ``floor``,
    without an evaluation.  The first call of f takes both ends of every
    bracket and nothing else.  Each bracket's first proposal is that of
    its inside end where it lies in the bracket, else that of its outside
    end, the rule of the section step below.

    Each step takes one of four moves per bracket:

    - a certified proposal that the step takes (as below) and the
      minimum step leaves in place: the bracket closes there, and f is
      not evaluated.  A step whose brackets all close so solves nothing;
    - a proposal, when it lies in the bracket and, as in rtsafe
      (Numerical Recipes), its step is at most half the step before
      when that was a proposal step too;
    - else Illinois false position (Dowell and Jarratt, BIT 11, 1971):
      an end kept by two false-position steps in a row has its value
      halved;
    - a section step where asked to: the bracket is cut into
      ``_SECTIONS`` equal parts, evaluated in the same stacked solve,
      and the part where f first turns positive from the inside end is
      kept.  A bracket sections after a false-position step that did not
      halve it, where the secant point is not strictly inside, and while
      f shows a jump: the first positive cut with more than 3/4 of the
      value at the next point out (a convex f, or a nearly linear concave
      one, gives at most about 1/2).  At a jump the secant point keeps
      landing next to the inside end.

    No point lands within tol/2 of an end (Brent's minimum step), so one
    step past a converged end closes the bracket.  A point with
    |f| <= ``floor``, the rounding level of f, is a root: its bracket
    closes there.  Stops when a bracket is at most max(tol, 4 ulp)
    (:func:`_min_width`) wide; returns the inside ends.  On the arc
    edges of a smooth range (:func:`extreme_points`) every first
    proposal is certified, and the first step closes every bracket.
    """
    a, b = (np.array(x, dtype=float) for x in (a, b))
    tol = _min_width(a, b, tol)

    def first(a, b, pa, pb, ca, cb):
        # the proposal of the inside end where it lies in the bracket,
        # else that of the outside end: (proposal, made at, certified)
        use_a = (pa - a) * (pa - b) < 0.0
        return np.where(use_a, pa, pb), np.where(use_a, a, b), np.where(use_a, ca, cb)

    m = a.size
    fs, ps, cs = f(np.concatenate([a, b]), np.tile(np.arange(m), 2))
    fa, fb = fs[:m].copy(), fs[m:].copy()
    prop, at, sure = first(a, b, ps[:m], ps[m:], cs[:m], cs[m:])
    last = np.full(a.size, np.inf)  # the last proposal step, inf after any other step
    kept = np.zeros(a.size, dtype=int)  # end kept by the last false-position step: +1 a, -1 b
    section = np.zeros(a.size, dtype=bool)
    f_out = fb.copy()  # f at the outside end, without the Illinois halvings
    cuts = np.arange(1, _SECTIONS) / _SECTIONS
    live = np.nonzero(np.abs(b - a) > tol)[0]
    while live.size:
        al, bl, fal, fbl = a[live], b[live], fa[live], fb[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = al - fal * (bl - al) / (fbl - fal)
        pl = prop[live]
        take = ~section[live] & ((pl - al) * (pl - bl) <= 0.0) & (np.abs(pl - at[live]) <= last[live] / 2.0)
        t[take] = pl[take]
        half_tol = np.copysign(tol[live] / 2.0, bl - al)
        t = np.where(np.abs(t - al) < np.abs(half_tol), al + half_tol, t)
        t = np.where(np.abs(t - bl) < np.abs(half_tol), bl - half_tol, t)
        # a certified proposal left in place closes its bracket, unevaluated
        shut = take & sure[live] & (t == pl)
        a[live[shut]] = b[live[shut]] = t[shut]
        live, al, bl, fal, t, take = (x[~shut] for x in (live, al, bl, fal, t, take))
        if not live.size:
            break
        sec = ~take & (section[live] | ~((t - al) * (t - bl) < 0.0))
        one, many = live[~sec], live[sec]
        tk = al[sec, None] + (bl - al)[sec, None] * cuts
        fs, ps, cs = f(np.concatenate([t[~sec], tk.ravel()]), np.concatenate([one, np.repeat(many, cuts.size)]))

        # one point: it replaces the end on its side
        t1, f1, p1 = t[~sec], fs[: one.size], ps[: one.size]
        inside = f1 <= 0.0
        # Illinois over the false-position steps: an end kept by two of
        # them in a row has its value halved
        fp = ~take[~sec]
        i_in, i_out = one[inside & fp], one[~inside & fp]
        fb[i_in[kept[i_in] == -1]] /= 2.0
        fa[i_out[kept[i_out] == 1]] /= 2.0
        kept[i_in], kept[i_out] = -1, 1
        a[one[inside]], fa[one[inside]] = t1[inside], f1[inside]
        b[one[~inside]], fb[one[~inside]], f_out[one[~inside]] = t1[~inside], f1[~inside], f1[~inside]
        last[one] = np.where(take[~sec], np.abs(t1 - at[one]), np.inf)
        prop[one], at[one], sure[one] = p1, t1, cs[: one.size]
        section[one] = fp & (np.abs(b[one] - a[one]) > np.abs(bl - al)[~sec] / 2.0)

        # sectioned: keep the part where f first turns positive
        if many.size:
            # the cuts between the two ends, with their values and proposals
            tk = np.concatenate([al[sec, None], tk, bl[sec, None]], axis=1)
            fk = np.concatenate([fal[sec, None], fs[one.size :].reshape(-1, cuts.size), f_out[many, None]], axis=1)
            pk = np.concatenate([prop[many, None], ps[one.size :].reshape(-1, cuts.size), prop[many, None]], axis=1)
            ck = np.concatenate([sure[many, None], cs[one.size :].reshape(-1, cuts.size), sure[many, None]], axis=1)
            r = np.arange(many.size)
            j = np.argmax(fk[:, 1:] > 0.0, axis=1) + 1  # first positive point (the old outside end at worst)
            nxt = np.minimum(j + 1, cuts.size + 1)
            section[many] = fk[r, j] > 0.75 * fk[r, nxt]
            a[many], fa[many] = tk[r, j - 1], fk[r, j - 1]
            b[many], fb[many], f_out[many] = tk[r, j], fk[r, j], fk[r, j]
            prop[many], at[many], sure[many] = first(a[many], b[many], pk[r, j - 1], pk[r, j], ck[r, j - 1], ck[r, j])
            last[many] = np.inf
            kept[many] = 0
            t1 = np.concatenate([t1, tk[:, 1:-1].ravel()])
            f1 = np.concatenate([f1, fk[:, 1:-1].ravel()])
            one = np.concatenate([one, np.repeat(many, cuts.size)])

        # a root to rounding closes its bracket
        root = np.abs(f1) <= floor
        a[one[root]] = b[one[root]] = t1[root]
        live = live[np.abs(b[live] - a[live]) > tol[live]]
    return a


def _min_width(a, b, tol) -> np.ndarray:
    """The width at which :func:`_false_position` stops a bracket [a, b]:
    tol, or 4 ulp of its larger end."""
    return np.maximum(tol, 4.0 * np.spacing(np.maximum(np.abs(a), np.abs(b))))


def _newton_max(jet, lo, t, hi, first) -> tuple[list[float], list[float]]:
    """Safeguarded Newton for the maxima of functions g_i in lockstep, each
    on its bracket lo_i <= t_i <= hi_i with g_i'(lo_i) >= 0 >= g_i'(hi_i)
    (1-D float arrays).

    ``jet(t, rows)`` solves the angles t of the rows ``rows`` still
    searching (one stacked call for all of them) and returns the sequences
    (g, g', g'') there; ``first`` holds those sequences at the starting
    angles t of every row.  Where g has no second derivative (a clustered
    top eigenvalue) g'' is nan, or the mean of g'' between t and the
    maximizer of a local model (see :func:`_reduced_argmax`), so that the
    Newton step lands on that maximizer; g' = 0 reports t as a maximum (a
    kink test that passed).  Each step moves one bracket end to t by the
    sign of g', then takes the Newton step t - g'/g'' when g'' < 0 and the
    step stays inside the bracket, and bisects otherwise.  A row stops at
    g' = 0, at a Newton step or a bracket below max(1e-15, 2 ulp(t)), or
    after 80 steps: 1e-15 for angles, and rounding at the larger t of the
    Gibbs dual on a flat portion, where an ulp exceeds 1e-15.
    The bracket logic runs per row on Python floats: for the few rows of
    a lockstep search that is cheaper than array operations.  Returns the
    final angles and g at the last angle each row solved.
    """
    lo, t, hi = lo.tolist(), t.tolist(), hi.tolist()
    g_out = [np.nan] * len(t)
    rows, rows_a = list(range(len(t))), np.arange(len(t))
    g, d1, d2 = first
    for _ in range(80):
        going = []
        for i, gi, s1, s2 in zip(rows, g, d1, d2):
            g_out[i] = gi
            if s1 == 0.0:
                continue
            if s1 > 0.0:
                lo[i] = t[i]
            else:
                hi[i] = t[i]
            nt = t[i] - s1 / s2 if s2 < 0.0 else np.nan
            # a step or a bracket below the rounding level of t ends the search
            tol = max(1e-15, 2.0 * math.ulp(t[i]))
            if abs(nt - t[i]) < tol:
                t[i] = nt
                continue
            if not lo[i] < nt < hi[i]:
                nt = (lo[i] + hi[i]) / 2.0
            if hi[i] - lo[i] < tol:
                continue
            t[i] = nt
            going.append(i)
        if len(going) < len(rows):
            if not going:
                break
            rows, rows_a = going, np.array(going)
        g, d1, d2 = jet(np.array([t[i] for i in rows]), rows_a)
    else:
        for i, gi in zip(rows, g):
            g_out[i] = gi
    return t, g_out


def _reduced_argmax(pencil: mc.Pencil, p: complex, t: float, eig, lo: float, hi: float) -> tuple[float, float]:
    """Maximizer of g(theta) = <p, e^{i theta}> - h(theta) on [lo, hi] from
    the reduced pencil of the top eigenvalue cluster of A(t).

    ``eig`` is the :meth:`~numrange.matcore.Pencil.eigh` result at t,
    whose top eigenvalue is clustered within ``ctol``.  The top eigenvalue
    of the k x k pencil M(delta) of :meth:`~numrange.matcore.Pencil.reduced`
    follows h(t + delta) through the band, so the maximum is sought on it
    with k x k solves only.  The one-sided derivatives of g at delta come
    from the extreme eigenvalues of M'(delta) compressed onto the model's
    top eigenspace at rounding level (one value where it is simple).  The
    kink test ends the search at g'(delta-) > 0 > g'(delta+), where both
    are zero to rounding, or where one side is zero and g is strictly
    concave along that side's branch (the tangent point of a flat
    portion), the slopes being clearly split so that the branches are
    told apart.  The rounding of the input turns an exact crossing into
    an avoided one, whose smooth maximum can sit about 1e-11 rad away; the
    kink test keeps the crossing.  At a tangentially multiply generated
    point g is zero all along the point's own branch, which touches the
    top one; such a one-sided zero is no maximum.  In a cluster the
    eigenvectors mix, and the mean of the one-sided slopes, which has the
    sign of the side to move to, drives the step.  The step goes to the
    nearer of the top branch's
    Newton maximizer and its crossing with the next model eigenvalue,
    where the top branch changes; without either (a top cluster of all
    k), to the secant of g' at the bracket ends.  A step that ends within
    1e-15 rad beyond the bracket end it heads for ends the search at that
    end, and bisection keeps it in the bracket.  Returns
    (delta, g'(0) on the side of delta), 0.0 for the slope when
    delta = 0.
    """
    M0, M1, M2 = pencil.reduced(t, eig, int(np.sum(eig[0] >= eig[0][-1] - pencil.ctol)))
    eig_tol = _ROUNDING * pencil.scale
    slope_tol = 8.0 * _ROUNDING * (pencil.scale + abs(p))
    clear = 1e-8 * (pencil.scale + abs(p))  # well above rounding
    a, b = lo - t, hi - t
    ga = gb = np.nan  # g' at a (> 0) and at b (< 0)
    d, slope0 = 0.0, None
    for _ in range(80):
        Mp = M1 + d * M2
        mu, Y = np.linalg.eigh(M0 + d * M1 + (d * d / 2.0) * M2)
        top = mu >= mu[-1] - eig_tol
        Yt = Y[:, top]
        s, Z = np.linalg.eigh(Yt.conj().T @ Mp @ Yt)
        u = np.exp(1j * (t + d))
        pu, eta = _inner(p, u), _inner(p, 1j * u)

        def g2_along(v):
            # g'' along the model branch of the top-cluster vector v
            c = Y[:, ~top].conj().T @ Mp @ v
            return -pu - (v.conj() @ M2 @ v).real - 2.0 * np.sum(np.abs(c) ** 2 / (mu[-1] - mu[~top]))

        right, left = eta - s[-1], eta - s[0]
        flat_r, flat_l = abs(right) <= slope_tol, abs(left) <= slope_tol
        if (flat_l and flat_r) or (left > slope_tol and right < -slope_tol):
            break
        # a kink with one side flat, between clearly split slopes: a
        # maximum where g is strictly concave along the flat side's branch
        if flat_r != flat_l and left > -slope_tol and right < slope_tol and s[-1] - s[0] > clear:
            if g2_along(Yt @ Z[:, -1 if flat_r else 0]) < -clear:
                break
        # in a cluster the eigenvectors mix; the mean slope has the sign of
        # the side to move to
        g1 = right if top.sum() == 1 else eta - np.mean(s)
        sgn = 1.0 if g1 > 0.0 else -1.0
        if sgn > 0.0:
            a, ga, st = d, g1, s[-1]
        else:
            b, gb, st = d, g1, s[0]
        if slope0 is None:
            slope0 = g1
        steps = []
        if top.sum() == 1:
            g2 = g2_along(Y[:, -1])
            if g2 < 0.0:
                steps.append(-g1 / g2)
        if not top.all():
            j = np.nonzero(~top)[0][-1]
            closing = sgn * (st - (Y[:, j].conj() @ Mp @ Y[:, j]).real)
            if closing < 0.0:
                steps.append(sgn * (mu[-1] - mu[j]) / -closing)
        nd = d + min(steps, key=abs) if steps else (a * gb - b * ga) / (gb - ga)
        end = a if sgn < 0.0 else b
        if 0.0 <= sgn * (nd - end) <= 1e-15:
            d = end
            break
        if not a < nd < b:
            nd = (a + b) / 2.0
        if abs(nd - d) < 1e-16 or b - a < 1e-16:
            d = nd
            break
        d = nd
    if slope0 is None:
        return 0.0, 0.0
    return d, slope0


@dataclass(frozen=True)
class FlatPortion:
    """Maximal segment in the boundary, with its outward normal angle.

    ``endpoints`` are ordered counterclockwise along the boundary, i.e.
    (p_minus, p_plus) of the face at the normal angle.
    """

    theta: float
    endpoints: tuple[complex, complex]
    length: float


def _flat_candidates(pencil: mc.Pencil, grid: int) -> list[float]:
    """Angles where the top eigenvalue cluster of A(theta) meets the next
    eigenvalue, from the cells of the ``grid``-angle grid.

    A meeting is where the top two eigenvalues come together, so a cell
    where the top gap lambda_1 - lambda_2 stays above the rounding level
    ``GAP_REFINE_RTOL`` of :func:`_crossings` holds none.  The top gap is
    2 L0-Lipschitz (:meth:`~numrange.matcore.Pencil._cells`), so a cell
    whose end gaps average more than that level plus L0 width is
    certified clear.  :meth:`~numrange.matcore.Pencil._scan` halves the
    other cells, and the three cells on each side of them, down to one
    grid step.

    The top cluster at a grid angle is the k eigenvalues within ``ctol``
    of the top one; its gap is the distance from the top one to the next
    eigenvalue (inf where all of them cluster).  Eigenvalue curves are
    Lipschitz with constant at most ||A||_F, so every meeting lies within
    a grid step of a local minimum of the gap at most thresh =
    2 step ||A||_F + 10 ctol.  The minima that seed the polish are those
    within two grid steps (the reach of the seeds) of a cell left open;
    the others see only certified cells, near misses.  Their neighbours
    lie in the cells halved with the open ones, so each is a local
    minimum of the whole grid.  Each minimum seeds :func:`_polish` with
    m = k + 1 at the
    :func:`_model_minima` of the top m eigenvalues and of all n within
    that bound: the meeting may lie a cell away, nearly parallel curves
    can meet twice near one minimum, and a curve passing between the two
    that meet can make them the top and the third at the grid angles.
    Angles polished to within the O(||A||_F reach^3) remainder of the
    model at the grid angle, or within ``ctol``, are expanded and
    polished once more from there, where the model is accurate: two
    meetings can lie 1e-6 rad apart.  Each polish gets distinct seeds:
    the models of the two sizes, and nearby minima, often give the same
    angle.
    """
    reach = 4.0 * np.pi / grid  # two grid steps
    thresh = reach * pencil.norm + 10.0 * pencil.ctol
    clear = (GAP_REFINE_RTOL + mc.BOUND_RTOL) * pencil.scale

    def meeting(t, w):
        # the cells that may hold a meeting
        top = pencil.top_gap(w)
        nxt = mc._next(top)
        width = np.append(t[1:], 2.0 * np.pi) - t
        return ~(np.minimum((top + nxt) / 2.0 - pencil._lipschitz() * width, np.minimum(top, nxt)) > clear)

    thetas, (w,) = pencil._scan(grid, lambda t, w: mc._dilate(meeting(t, w), 3))
    d = w.shape[1]
    k = np.sum(w >= w[:, -1:] - pencil.ctol, axis=1)
    gap = np.where(k < d, w[:, -1] - w[np.arange(len(w)), np.maximum(d - k - 1, 0)], np.inf)
    # the samples within two grid steps of an open cell
    near = mc._dilate(meeting(thetas, w), 2)
    near |= np.append(near[-1], near[:-1])
    low = near & (gap <= thresh) & (gap <= np.append(gap[-1], gap[:-1])) & (gap <= mc._next(gap))
    if not low.any():
        return []
    # the curves within thresh of the top, all of which can reach it
    window = np.sum(w >= w[:, -1:] - thresh, axis=1)
    found, spreads = [], []
    for m, n in sorted(set(zip(k[low] + 1, window[low]))):
        t = thetas[low & (k + 1 == m) & (window == n)]
        seeds = [_model_minima(pencil, t, size, reach, grid) for size in sorted({m, n})]
        t, s = _polish(pencil, np.unique(np.concatenate(seeds)), m)
        near = np.unique(t[s <= reach**3 * pencil.norm + pencil.ctol])
        t2, s2 = _polish(pencil, np.unique(_model_minima(pencil, near, m, reach, grid)), m)
        found += [t, t2]
        spreads += [s, s2]
    return _crossings(pencil, np.concatenate(found), np.concatenate(spreads))


def _model_minima(pencil: mc.Pencil, t: np.ndarray, m: int, reach: float, grid: int) -> np.ndarray:
    """Seeds for :func:`_polish` near the angles ``t``: the local minima
    within ``reach`` of |traceless M(delta)|_F^2, a quartic in delta,
    where M is the second-order model of the top m eigenvalues at t
    (:meth:`~numrange.matcore.Pencil.reduced`), or t itself where there
    is none.  The angles of t that are angles of the ``grid``-angle grid
    read their eigenpairs from it where :meth:`~numrange.matcore.Pencil.grid`
    solved it whole (inside :func:`extreme_points`); the others are
    solved (:meth:`~numrange.matcore.Pencil._eigh_reading`)."""
    eig = pencil._eigh_reading(t, grid)
    # the model needs the top m apart from the rest; where they touch (a
    # meeting of more than m) it is not finite
    with np.errstate(divide="ignore", invalid="ignore"):
        N0, N1, N2 = (_traceless(M) for M in pencil.reduced(t, eig, m))
    n22, n12, n02, n11, n01 = (_dot(X, Y) for X, Y in ((N2, N2), (N1, N2), (N0, N2), (N1, N1), (N0, N1)))
    # 2 d/d delta |N0 + delta N1 + delta^2 N2 / 2|^2 in x = delta / reach, highest power first
    cubic = np.stack([n22 * reach**3, 3.0 * n12 * reach**2, 2.0 * (n02 + n11) * reach, 2.0 * n01], axis=-1)
    x = np.full((t.size, 3), np.nan)
    ok = np.isfinite(cubic).all(axis=1) & (np.abs(cubic).max(axis=1) > 0.0)
    c = cubic[ok] / np.abs(cubic[ok]).max(axis=1, keepdims=True)
    # roots of the companion matrices; a leading coefficient at rounding
    # level is raised to 1e-12, which adds one root far outside the reach
    lead = np.where(np.abs(c[:, 0]) > 1e-12, c[:, 0], 1e-12)
    companion = np.zeros((c.shape[0], 3, 3))
    companion[:, 0] = -c[:, 1:] / lead[:, None]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    r = np.linalg.eigvals(companion)
    # real minima (the cubic rising through zero) within the reach
    slope = (3.0 * c[:, :1] * r.real + 2.0 * c[:, 1:2]) * r.real + c[:, 2:3]
    x[ok] = np.where((np.abs(r.imag) <= 1e-6) & (np.abs(r.real) <= 1.0) & (slope > 0.0), r.real, np.nan)
    x[np.isnan(x).all(axis=1), 0] = 0.0  # no minimum: t itself
    return (t[:, None] + reach * x)[~np.isnan(x)]


def _traceless(X: np.ndarray) -> np.ndarray:
    """Traceless part of a stack of square matrices."""
    k = X.shape[-1]
    return X - (X.trace(axis1=-2, axis2=-1) / k)[..., None, None] * np.eye(k)


def _dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Frobenius inner product Re tr(X Y*) of stacked matrices."""
    return (X * Y.conj()).real.sum(axis=(-2, -1))


def _polish(pencil: mc.Pencil, seeds, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Newton from the ``seeds`` toward angles where the top ``m``
    eigenvalues of A(theta) meet; returns the angles and their spreads.

    The one polish of such angles: :func:`_flat_candidates` seeds it from
    the grid, :func:`numrange.kipp3.classify` from the discriminant.  With
    X0, C0 the traceless parts of Q*A(t)Q and Q*A'(t)Q, Q the top m
    eigenvectors, the step t -> t - <X0, C0>_F / <C0, C0>_F zeroes the
    traceless part of the compression of A(t) + delta A'(t) in least
    squares, which stays accurate where the eigenvectors do not.  Each
    seed keeps its angle of least spread (top eigenvalue minus the m-th)
    and stops at the rounding floor of the spread, on a vanishing step,
    or after two stalled steps in a row (a near miss).  A transversal
    meeting converges quadratically and a tangential one quarters the
    spread at each step, while a near miss converges linearly to a spread
    that is not zero.  So while the best spread is above
    sqrt(``GAP_REFINE_RTOL``) (1 + |A|), a step that does not halve it is
    stalled; below that level, where the linear rate of a tangential
    meeting's last steps can show, one that does not lower it.
    """
    t = np.array(seeds, dtype=float)
    floor = 4.0 * np.finfo(float).eps * pencil.scale
    coarse = np.sqrt(GAP_REFINE_RTOL) * pencil.scale
    best_t, best_gap = t.copy(), np.full(t.size, np.inf)
    stalled = np.zeros(t.size, dtype=int)
    live = np.arange(t.size)
    for _ in range(_POLISH_STEPS):
        if not live.size:
            break
        tl = t[live]
        At = pencil.rotate(tl)
        w, V = np.linalg.eigh(At)
        gap = w[:, -1] - w[:, -m]
        best = best_gap[live]
        better = gap < best
        progress = gap < np.where(best > coarse, best / 2.0, best)
        best_t[live[better]], best_gap[live[better]] = tl[better], gap[better]
        stalled[live] = np.where(progress, 0, stalled[live] + 1)
        Q = V[..., -m:]
        X0, C0 = _traceless(Q.conj().swapaxes(-1, -2) @ np.stack([At, pencil.prime(tl)]) @ Q)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = _dot(X0, C0) / _dot(C0, C0)
        done = (gap <= floor) | ~np.isfinite(step) | (np.abs(step) <= 1e-15) | (stalled[live] >= 2)
        t[live[~done]] -= step[~done]
        live = live[~done]
    return best_t, best_gap


def _crossings(pencil: mc.Pencil, angles: np.ndarray, spreads: np.ndarray) -> list[float]:
    """The polished ``angles`` of :func:`_polish` whose spread is within
    ``GAP_REFINE_RTOL``, in [0, 2 pi); angles closer than
    ``ARC_SINGLE_ANGLE`` are one angle, the one of least spread."""
    keep = spreads <= GAP_REFINE_RTOL * pencil.scale
    angles = angles[keep] % (2.0 * np.pi)
    angles[angles == 2.0 * np.pi] = 0.0  # the remainder of a tiny negative angle rounds up
    groups: list[list[tuple[float, float]]] = []  # (angle, spread), chained within ARC_SINGLE_ANGLE
    for angle, gap in sorted(zip(angles, spreads[keep])):
        if groups and angle - groups[-1][-1][0] <= ARC_SINGLE_ANGLE:
            groups[-1].append((angle, gap))
        else:
            groups.append([(angle, gap)])
    if len(groups) > 1 and groups[0][0][0] + 2.0 * np.pi - groups[-1][-1][0] <= ARC_SINGLE_ANGLE:
        groups[0] += groups.pop()
    return sorted(float(min(g, key=lambda p: p[1])[0]) for g in groups)


def _flat_portions(pencil: mc.Pencil, candidates: list[float]) -> list[FlatPortion]:
    """Flat portions at the sorted candidate angles of :func:`_crossings`."""
    length_tol = FLAT_LENGTH_RTOL * pencil.scale
    faces = zip(candidates, _faces(pencil, candidates) if candidates else [])
    return [FlatPortion(t, (fd.p_minus, fd.p_plus), fd.length) for t, fd in faces if fd.length > length_tol]


def flat_portions(A, grid: int = 512) -> list[FlatPortion]:
    """All flat boundary portions of W(A), located by a gap scan.

    The cells of the grid are scanned for angles where the top eigenvalue
    cluster of A(theta) nearly meets the next eigenvalue; each candidate
    is polished by Newton (:func:`_flat_candidates`, :func:`_polish`),
    and kept when the face there is a genuine segment.  ``grid`` is the
    finest cell width, 2 pi / grid: the cells whose top gap bound
    certifies that they hold no meeting are never split, and the answer
    is the one the whole grid gives.  A degenerate
    one-dimensional W(A) reports itself under both of its normals.
    """
    _require_grid(grid, "flat_portions")
    pencil = mc.as_pencil(A)
    return _flat_portions(pencil, _flat_candidates(pencil, grid))


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


def _edge_model(pencil: mc.Pencil, t, q, outward, strict_tol: float, member_tol: float, grid: int):
    """Arc-edge function f = (distance of q to the face) - member_tol at
    the angles t, and the edge each local model predicts.

    ``q`` holds the points of the brackets and ``outward`` the sign of the
    direction from their inside ends to their outside ends.  Faces group
    eigenvalues within ``strict_tol``.  The eigenpairs at the distinct
    angles, read where they are angles of the ``grid``-angle grid that
    :func:`extreme_points` solved and solved in one stacked call elsewhere
    (:meth:`~numrange.matcore.Pencil._eigh_reading`), give every quantity:

    - Where the face is a touch point x(t) = e^{i t}(h + i h'), the curve
      moves at x' = i e^{i t} rho with rho = h + h'' (h'' from
      :meth:`~numrange.matcore.Pencil.curvature`).  The model
      x(t + delta) = x(t) + delta x' meets the circle of radius
      member_tol about q at the edge: seen from the point itself
      (x(t) = q) that is delta = outward member_tol / rho, and elsewhere
      where the tangent line crosses that circle (in effect a Newton
      step of the distance).
    - Where the face is a touch point outside the tolerance, the edge may
      instead be the angle where the top two eigenvalues come within
      ``strict_tol`` and the face jumps to a segment that holds q.  The
      quadratic Taylor model of the top gap (slopes and curvatures of
      both curves) gives that angle, inward from t.

    The proposal is the nearer of the two, moving toward the edge; nan
    where neither model applies, as at a corner (rho = 0) or inside a
    cluster band.  Returns ``(values, proposals, certified)``.  The linear
    model of a smooth point leaves an error of order delta^2 |x''| in f
    at its proposal, at rounding level on a smooth range:
    :func:`_certified_roots` bounds it from the rho, h' and offset
    x(t) - q computed here, and a proposal it proves a root needs no
    evaluation.
    """
    ts, inv = np.unique(t, return_inverse=True)
    eig = w, V = pencil._eigh_reading(ts, grid)
    sup, lo, hi = pencil.faces(ts, strict_tol, eig)
    gap = pencil.top_gap(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        # curvatures are defined where the face is a touch point
        h2 = np.where(gap > strict_tol, pencil.curvature(ts, eig), np.nan)
        rho = (sup + h2)[inv]
        m, m1 = gap[inv] - strict_tol, (lo - pencil.slope(ts, V[..., -2]))[inv]
        m2 = (h2 - pencil.curvature(ts, eig, -2))[inv]
        val = _segment_distance(q, t, sup[inv], lo[inv], hi[inv]) - member_tol
        # x(t) - q in the frame of the normal: radial + i tangential offset
        u = np.exp(1j * t)
        c = (u * (sup[inv] + 1j * lo[inv]) - q) * np.conj(u)
        ball = (-c.imag + outward * np.sqrt(member_tol**2 - c.real**2)) / np.where(rho > 0.0, rho, np.nan)
        # roots of m + m1 d + (m2 / 2) d^2 toward the inside end, seen from outside
        qq = -0.5 * (m1 + np.copysign(np.sqrt(m1 * m1 - 2.0 * m2 * m), m1))
        band = np.stack([2.0 * qq / m2, m / qq])
        band[~(band * outward < 0.0) | ~(val > 0.0)] = np.nan
        steps = np.concatenate([ball[None], band])
        near = np.argmin(np.where(np.isnan(steps), np.inf, np.abs(steps)), axis=0)
    prop = t + steps[near, np.arange(t.size)]
    return val, prop, _certified_roots(pencil, t, prop, eig, inv, rho, lo[inv], c, strict_tol, member_tol)


def _certified_roots(pencil: mc.Pencil, t, prop, eig, inv, rho, h1, c, strict_tol: float, member_tol: float):
    """Whether the arc-edge function f of :func:`_edge_model` (q's distance
    to the face, minus member_tol) is certified within its rounding floor
    ``_ROUNDING * scale`` at the proposals ``prop`` made at the angles t,
    with no solve at the proposals.  It reads what :func:`_edge_model`
    computed at t: the :meth:`~numrange.matcore.Pencil.eigh` result
    ``eig`` at the distinct angles (row ``inv[k]`` for t[k]), rho =
    h + h'', h' and c = (x(t) - q) e^{-i t}.  Only the rows that pass the
    cheap tests below (a touch point, the proposal inside the analytic
    disk, the gap clear) take h''' (:meth:`~numrange.matcore.Pencil.third`).

    Where the face at t is a touch point, the boundary curve
    x(t) = e^{i t}(h + i h') has x' = i e^{i t} rho and x'' =
    e^{i t}(-rho + i(h' + h''')).  At delta = prop - t, f differs from
    the distance of its second-order Taylor model,
    |x + delta x' + (delta^2 / 2) x'' - q| - member_tol, by at most
    (|delta|^3 / 6) max |x'''| on the segment, with x''' =
    e^{i t}(-2(h' + h''') + i(h'''' - h)).

    That maximum is bounded by Cauchy estimates (Kato, *Perturbation
    Theory for Linear Operators*, ch. II).  Take B = A - m I, m the middle
    of the spectra of Re A and Im A (:meth:`~numrange.matcore.Pencil._spectral_extent`),
    which moves x by the constant m and leaves x''' alone, and K =
    |Re A - Re m|_2 + |Im A - Im m|_2.  For complex z, |B(t + z) - B(t)|_2
    <= sinh|z| K, so on the disk |z| < r, sinh(r) K = g / 2 with g the
    top gap at t, every eigenvalue of B(t + z) lies within g / 2 of one of
    B(t) (Bauer-Fike), and the top one stays simple and analytic within
    g / 2 of its value at t.  With rad = r - |delta|, its k-th derivative
    is at most k! (g / 2) / rad^k at every real angle between t and the
    proposal, where the top eigenvalue of B and its slope are at most K.
    So |x'''| <= 3 K + 12 (g / 2) / rad^3 + 24 (g / 2) / rad^4.  The
    top gap stays above g - 2 sinh|delta| K there (Weyl), which must
    keep the face a touch point: at least twice ``strict_tol``.

    A proposal is certified where the model's |f| plus that remainder is
    at most floor / 2, the other half left for the rounding of f where
    it is evaluated.  A proposal far out, as later false-position steps
    can make, overflows sinh and fails the gap test.
    """
    w, V = eig
    delta = prop - t
    gap = pencil.top_gap(w)[inv]
    r0, r1, s0, s1 = pencil._spectral_extent()
    K = (r1 - r0) / 2.0 + (s1 - s0) / 2.0
    sure = np.zeros(t.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.arcsinh(gap / (2.0 * K))
        clear = gap - 2.0 * K * np.sinh(np.abs(delta)) >= 2.0 * strict_tol
        i = np.nonzero((gap > strict_tol) & (np.abs(delta) < r) & clear)[0]
    if not i.size:
        return sure
    d, g, rho = delta[i], gap[i], rho[i]
    # h''' at the distinct angles (the two edges of a smooth point share them)
    rows, first, back = np.unique(inv[i], return_index=True, return_inverse=True)
    h3 = pencil.third(t[i[first]], (w[rows], V[rows]))[back]
    model = np.abs(c[i] + d * 1j * rho + (d * d / 2.0) * (-rho + 1j * (h1[i] + h3))) - member_tol
    rad = r[i] - np.abs(d)
    x3 = 3.0 * K + 6.0 * g / rad**3 + 12.0 * g / rad**4
    sure[i] = np.abs(model) + np.abs(d) ** 3 / 6.0 * x3 <= _ROUNDING * pencil.scale / 2.0
    return sure


def extreme_points(A, grid: int = 512) -> list[ExtremePointReport]:
    """Classify all face endpoints of W(A) sampled on an angle grid.

    Covers every endpoint seen on the grid plus the refined endpoints of
    every flat portion.  Each deduplicated point gets its supporting-angle
    arc, an exposed/non-exposed verdict, and its pre-image basis.  The
    candidates are sorted by (angle, point), the grid's before the
    flat-portion ends, and deduplicated greedily (:func:`_greedy_dedup`):
    a point is dropped when an earlier kept one lies within the dedup
    tolerance.  So a flat-portion end that the grid sees too (a corner
    whose normal cone holds grid angles) keeps a grid angle, whatever the
    angle of its portion.

    The grid faces are read from the eigenpairs the grid kept
    (:meth:`~numrange.matcore.Pencil.grid_faces`), no angle solved again.
    The arc runs of every point come from the distances of the grid faces
    to the point, taken in a window of five grid angles about the angle
    the point was seen at; the runs only bracket the arc edges.  A run
    that ends inside the window is read from it.  A run that reaches the
    edge of the window (a wide corner, or the whole circle of a scalar
    matrix) is read from the distances at every grid angle instead, and
    a point that is no member of the face at its own grid angle (a
    flat-portion end off the grid) is bracketed by the grid steps about
    its angle.  The distance is elementwise, so the window holds the
    values the full row would.

    Their edges are the roots of f = distance - member tolerance
    (:func:`_edge_model`), refined together by :func:`_false_position`.
    Its first call of f takes both ends of every bracket, reading the
    ends at grid angles from the grid
    (:meth:`~numrange.matcore.Pencil._eigh_reading`) and solving only the
    ends about refined portion angles, and proposes each edge: a smooth
    point seeds it at member_tol / rho from itself (rho = h + h'', the
    speed of the boundary curve), and an edge where the face jumps to a
    segment follows the Taylor model of the top gap.  A proposal that
    :func:`_certified_roots` proves a root, from a bound on the boundary
    curve's Taylor remainder, closes its bracket with no evaluation, at
    any step: on a smooth range every edge closes at its first proposal,
    and the grid's stack is the only solve.  The others (corners, band
    edges, flat-portion ends off the grid, clustered rows, proposals
    whose Taylor model is no root to rounding) take false position and
    section steps where the model fails.  Each edge ends at a root to
    rounding, or at a bracket of 2^-48 grid steps (or 4 ulp).

    A point that is a member of the face at its own grid angle takes its
    pre-image there, read from the grid: that angle lies inside its arc.
    The other points (flat-portion ends off the grid) take theirs at
    their arc midpoints, solved in one stack.  Where the top eigenvalue
    at that angle is clustered, the pre-image is the :func:`_pick` of the
    point on the face there.  A 1x1 matrix takes the same path: its one
    point's arc is the whole circle.
    """
    _require_grid(grid, "extreme_points")
    pencil = mc.as_pencil(A)
    scale = pencil.scale
    dedup_tol = 1e-10 * scale
    member_tol = FACE_MEMBER_RTOL * scale
    match_tol = POINT_MATCH_RTOL * scale
    strict_tol = STRICT_GAP_RTOL * scale

    thetas, sup, mu_lo, mu_hi = pencil.grid_faces(grid, pencil.ctol)
    u_grid = np.exp(1j * thetas)
    lo_pts = u_grid * (sup + 1j * mu_lo)
    hi_pts = u_grid * (sup + 1j * mu_hi)
    portions = _flat_portions(pencil, _flat_candidates(pencil, grid))
    flat_ends = np.array([e for fp in portions for e in fp.endpoints], dtype=complex)

    # (angle, point) candidates, sorted by angle then point for stable
    # dedup, the grid's before the flat-portion ends: an end seen on the
    # grid too (a corner whose normal cone holds grid angles) keeps a grid
    # angle, where its arc runs are read
    seg = np.abs(hi_pts - lo_pts) > dedup_tol
    cand_t = np.concatenate([thetas, thetas[seg], np.repeat([fp.theta for fp in portions], 2)])
    cand_p = np.concatenate([lo_pts, hi_pts[seg], flat_ends])
    off_grid = np.arange(cand_t.size) >= cand_t.size - flat_ends.size
    order = np.lexsort((cand_p.imag, cand_p.real, cand_t, off_grid))
    cand_t, cand_p = cand_t[order], cand_p[order]
    keep = _greedy_dedup(cand_p, dedup_tol)
    pts, th0 = cand_p[keep], cand_t[keep]
    n = pts.size

    # distance of every point to the faces at the grid angles about its
    # own: its runs give the brackets of the arc edges
    step = 2.0 * np.pi / grid
    strict_faces = pencil.grid_faces(grid, strict_tol)[1:]
    j0 = np.rint((th0 % (2 * np.pi)) / step).astype(int) % grid
    half = 2  # the window's half-width in grid steps
    cols = (j0[:, None] + np.arange(-half, half + 1)) % grid
    f_win = _segment_distance(pts[:, None], thetas[cols], *(x[cols] for x in strict_faces)) - member_tol
    # run lengths to the left and right of j0 (half where the run reaches the edge)
    left, right = f_win[:, half - 1 :: -1] > 0.0, f_win[:, half + 1 :] > 0.0
    run_l = np.where(left.any(axis=1), np.argmax(left, axis=1), half)
    run_r = np.where(right.any(axis=1), np.argmax(right, axis=1), half)
    on_grid = f_win[:, half] <= 0.0
    whole = np.zeros(n, dtype=bool)
    wide = np.nonzero(on_grid & ((run_l == half) | (run_r == half)))[0]
    if wide.size:
        # runs past the window: the distances at every grid angle
        f_row = _segment_distance(pts[wide, None], thetas, *strict_faces) - member_tol
        whole[wide] = (f_row <= 0.0).all(axis=1)
        k, r = np.arange(1, grid), np.arange(wide.size)[:, None]
        run_l[wide] = np.argmax(f_row[r, (j0[wide, None] - k) % grid] > 0.0, axis=1)
        run_r[wide] = np.argmax(f_row[r, (j0[wide, None] + k) % grid] > 0.0, axis=1)
    # the inside ends of the runs and the grid angles just outside
    past = np.array([-1, 1])
    j_in = j0[:, None] + np.stack([-run_l, run_r], axis=1)
    inner, outer = j_in * step, (j_in + past) * step
    # a seed angle that came from a refined portion angle off the grid
    inner[~on_grid] = th0[~on_grid, None]
    outer[~on_grid] = th0[~on_grid, None] + past * step

    lo_edge = np.zeros(n)
    hi_edge = np.full(n, 2.0 * np.pi)
    # left and right arc edges of every point, refined together
    owner = np.nonzero(~whole)[0]
    if owner.size:
        edge_pts = np.repeat(pts[owner], 2)
        inner, outer = inner[owner].ravel(), outer[owner].ravel()
        outward = np.sign(outer - inner)

        def f(t, idx):
            return _edge_model(pencil, t, edge_pts[idx], outward[idx], strict_tol, member_tol, grid)

        tol = step * 2.0**-_EDGE_HALVINGS
        edges = _false_position(f, inner, outer, tol, _ROUNDING * scale)
        lo_edge[owner], hi_edge[owner] = edges[0::2], edges[1::2]

    # pre-images: a point that is a member of the face at its grid angle
    # (inside its arc) takes it there, read from the grid; the others at
    # their arc midpoints, in one stacked solve.  Angles whose top
    # eigenvalue is clustered read the full face from their rows
    theta_rep = np.where(on_grid, thetas[j0], (lo_edge + hi_edge) / 2.0)
    w_rep, V_rep = pencil._eigh_reading(theta_rep, grid)
    bases = list(mc._fix_phases(V_rep[:, :, -1:]))
    band = np.nonzero(pencil.top_gap(w_rep) <= pencil.ctol)[0]
    for i, fd in zip(band.tolist(), _faces(pencil, theta_rep[band], (w_rep[band], V_rep[band]))):
        bases[i] = _pick(fd, pts[i], match_tol)[1]
    is_flat_end = np.min(np.abs(flat_ends - pts[:, None]), axis=1, initial=np.inf) <= 10 * match_tol
    non_exposed = (hi_edge - lo_edge <= ARC_SINGLE_ANGLE) & is_flat_end
    cols = pts.tolist(), non_exposed.tolist(), lo_edge.tolist(), hi_edge.tolist()
    reports = [
        ExtremePointReport(
            point=p,
            kind="non-exposed" if ne else "exposed",
            preimage=bases[i],
            multiply_generated=bases[i].shape[1] >= 2,
            normal_arc=(lo, hi),
        )
        for i, (p, ne, lo, hi) in enumerate(zip(*cols))
    ]
    return [reports[i] for i in _circular_order(pts)]


def _greedy_dedup(pts: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the points kept by a greedy pass in their order: a point is
    kept unless an earlier kept one lies within ``tol``.

    Only a point with another within ``tol`` in both coordinates can be
    dropped, and only those go through the loop.  They are found without
    one: in the chains of real parts closer than ``tol``, the points next
    to one closer than ``tol`` in the imaginary part.  (Mirror points of
    a range symmetric about the real axis share their real parts.)
    """
    by_re = np.argsort(pts.real, kind="stable")
    chain = np.empty(pts.size, dtype=int)
    chain[by_re] = np.concatenate([[0], np.cumsum(np.diff(pts.real[by_re]) > tol)])
    by_im = np.lexsort((pts.imag, chain))
    close = (np.diff(chain[by_im]) == 0) & (np.diff(pts.imag[by_im]) <= tol)
    near = np.zeros(pts.size, dtype=bool)
    near[by_im[1:][close]] = near[by_im[:-1][close]] = True
    keep = ~near
    todo = np.nonzero(near)[0]
    while todo.size:
        keep[todo[0]] = True
        rest = todo[1:]
        todo = rest[~(np.abs(pts[rest] - pts[todo[0]]) <= tol)]
    return keep


def _circular_order(pts: np.ndarray) -> np.ndarray:
    """Indices of planar points in counterclockwise order about their mean,
    starting after the largest angular gap between them.

    The cut falls inside that gap, away from every point, so a
    rounding-level change of one point does not move it from last to
    first (a sort by angle in (-pi, pi] cuts at pi).  Gaps within 1e-9
    rad of the largest tie (mirror-symmetric ranges have equal gaps); of
    those the one starting at the smallest angle is cut.
    """
    if len(pts) < 2:
        return np.arange(len(pts))
    ang = np.angle(pts - pts.mean())
    order = np.argsort(ang, kind="stable")
    s = ang[order]
    gaps = np.append(np.diff(s), s[0] + 2.0 * np.pi - s[-1])
    cut = int(np.argmax(gaps >= gaps.max() - 1e-9))
    return np.roll(order, -(cut + 1))


def supporting_angle(A, p, grid: int = 512) -> tuple[float, float]:
    """Angle maximizing g(theta) = <p, e^{i theta}> - support(theta), and g there.

    For p on the boundary the maximum is ~0 at a supporting angle; for an
    interior point it is strictly negative (minus the depth), and for an
    exterior point strictly positive (the distance).  A cell scan of the
    grid (:meth:`~numrange.matcore.Pencil._scan`, shared through a
    Pencil) finds the grid angle where g is largest, splitting only the
    cells whose bound could hold a better one; ``grid`` is the finest
    cell width, 2 pi / grid.  Where g' changes sign across the
    cell, safeguarded Newton on g' (:func:`_newton_max`) pins the angle to
    machine precision: each step takes h, h' and h'' of the support curve
    h from one eigendecomposition (:meth:`~numrange.matcore.Pencil.jet`),
    and the step is taken when g'' < 0 and it stays inside the bracket
    g'(lo) >= 0 >= g'(hi), else the bracket is bisected.  Where the top
    eigenvalue is clustered within ``ctol`` (h'' undefined), the step goes
    to the maximizer of g on the reduced pencil of the cluster
    (:func:`_reduced_argmax`), and the kink test g'(theta-) >= 0 >=
    g'(theta+) on its one-sided slopes ends the search at a kink.  It
    stops at g' = 0, a Newton step or a bracket below 1e-15.  A cell whose
    end slopes bracket no maximum (a plateau of g, such as the fat normal
    cone of a corner, where any maximizing angle serves) returns its best
    grid angle.

    This is :func:`_supporting_angles` with one point; that function runs
    the same search for an array of points in lockstep.
    """
    pencil = mc.as_pencil(A)
    t, g = _supporting_angles(pencil, np.array([as_point(p)]), grid)
    return float(t[0]), float(g[0])


def _sample_gaps(p: np.ndarray, t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """g = <p, e^{i theta}> - h(theta) of each point of ``p`` (rows) at the
    sample angles t of a :meth:`~numrange.matcore.Pencil._scan`, from the
    ascending eigenvalues w there."""
    return p.real[:, None] * np.cos(t) + p.imag[:, None] * np.sin(t) - w[:, -1]


def _cell_reach(pencil: mc.Pencil, p: np.ndarray, t: np.ndarray, w: np.ndarray, g: np.ndarray, level) -> np.ndarray:
    """For each point of ``p`` (rows) and cell of a scan, whether an upper
    bound of g (:func:`_sample_gaps`) over the cell reaches the point's
    ``level`` (a column).

    h - <p, u>, the support function of W(A - p), changes by at most its
    :meth:`~numrange.matcore.Pencil._lipschitz` constant times the
    distance from a cell end, which bounds g on every cell at once; the
    cells where that cone reaches the level take the closer bound from
    h >= <corner, u> - sag (:meth:`~numrange.matcore.Pencil._cells`),
    the largest <p - corner, u> on the cell plus sag.
    """
    width = np.append(t[1:], 2.0 * np.pi) - t
    reach = (g + mc._next(g) + pencil._lipschitz(p)[:, None] * width) / 2.0 >= level
    i, k = np.nonzero(reach)
    if k.size:
        _, corner, sag = pencil._cells(t, w)
        reach[i, k] = mc._arc_max(p[i] - corner[k], t[k], width[k]) + sag[k] >= np.broadcast_to(level, g.shape)[i, k]
    return reach


def _depth_at_least(pencil: mc.Pencil, p: complex, grid: int, floor: float) -> bool:
    """Whether the cells of the ``grid``-angle grid certify that
    min over theta of h(theta) - <p, e^{i theta}>, the depth of p in
    W(A), is at least ``floor`` (> 0).  The scan stops at the first
    sample below the floor or when every cell's bound clears it; a
    False leaves its solved cells to :func:`supporting_angle`."""
    q = np.array([p])
    level = -floor - mc.BOUND_RTOL * (pencil.scale + abs(p))

    def undecided(t, w):
        g = _sample_gaps(q, t, w)
        # no cell is left to decide once a sample is shallower than the floor
        return np.zeros(t.size, dtype=bool) if g.max() > -floor else _cell_reach(pencil, q, t, w, g, level)[0]

    t, (w,) = pencil._scan(grid, undecided)
    return _sample_gaps(q, t, w).max() <= -floor and not undecided(t, w).any()


def _supporting_angles(pencil: mc.Pencil, points, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`supporting_angle` at every point of a complex array, in
    lockstep.  The points share one cell scan and one stacked solve of
    their Newton cells, and each Newton step solves the new angles of all
    the points still searching in one stacked ``Pencil.eigh``.  A point
    whose top eigenvalue is clustered at its current angle takes its step
    from :func:`_reduced_argmax`, on its own.  Returns the angles, in
    [0, 2 pi), and the values of g.

    The scan (:meth:`~numrange.matcore.Pencil._scan`) splits every cell
    whose bound of g (:func:`_cell_reach`) reaches the best sample of some
    point.  A cell it leaves holds no grid angle as good as that sample,
    so each point's best sample, and the first of several equal ones, is
    that of the whole grid.
    """
    p = np.asarray(points, dtype=complex).reshape(-1)
    slack = mc.BOUND_RTOL * (pencil.scale + np.abs(p))[:, None]

    def split(t, w):
        g = _sample_gaps(p, t, w)
        return _cell_reach(pencil, p, t, w, g, g.max(axis=1, keepdims=True) - slack).any(axis=0)

    scan_thetas, (w_scan,) = pencil._scan(grid, split, argmax=True)
    g_grid = _sample_gaps(p, scan_thetas, w_scan)
    j = np.argmax(g_grid, axis=1)
    step = 2.0 * np.pi / grid

    # each point's cell: its best grid angle and the two neighbours, with
    # g' there; each point's cell is its own stacked item
    cell = scan_thetas[j][:, None] + np.array([-step, 0.0, step])
    w, V = pencil.eigh(cell)
    slopes = -p.real[:, None] * np.sin(cell) + p.imag[:, None] * np.cos(cell) - pencil.slope(cell, V[..., -1])
    theta, gval = np.empty(p.size), np.empty(p.size)
    newton = (slopes[:, 0] >= 0.0) & (0.0 >= slopes[:, 2])
    ix = slice(None)  # the points that take Newton steps: all of them, as a rule
    if not newton.all():
        # a cell whose end slopes bracket no maximum keeps its best grid angle
        ix, flat = np.nonzero(newton)[0], ~newton
        theta[flat], gval[flat] = scan_thetas[j[flat]], g_grid[flat, j[flat]]
    if newton.any():
        q, c = p[ix].tolist(), cell[ix]

        def values(t, rows, eig=None):
            # g'' = -<p, e^{i t}> - h'' where the top eigenvalue is simple;
            # in a cluster (h'' undefined) the reduced pencil gives the step.
            # The few operations per row run on Python floats, which round
            # as the scalars of one point do
            if eig is None:
                eig = pencil.eigh(t)
            h, h1, h2 = pencil.jet(t, eig)
            g, d1, d2 = [], [], []
            cols = (rows, np.exp(1j * t), np.sin(t), np.cos(t), h, h1, h2)
            for k, (i, u, sn, cs, top, s1, s2) in enumerate(zip(*(x.tolist() for x in cols))):
                pu = q[i].real * u.real + q[i].imag * u.imag
                g.append(pu - top)
                if not math.isnan(s2):
                    d1.append(-q[i].real * sn + q[i].imag * cs - s1)
                    d2.append(-pu - s2)
                else:
                    delta, slope0 = _reduced_argmax(pencil, q[i], t[k], (eig[0][k], eig[1][k]), c[i, 0], c[i, 2])
                    d1.append(slope0)
                    d2.append(-slope0 / delta if delta else np.nan)
            return g, d1, d2

        first = values(c[:, 1], np.arange(len(q)), (w[ix, 1], V[ix, 1]))
        theta[ix], gval[ix] = _newton_max(values, *c.T, first)
    return theta % (2.0 * np.pi), gval


def preimage(A, p, grid: int = 512) -> np.ndarray:
    """Orthonormal basis of the pre-image of an extreme point p of W(A).

    Raises :class:`PreconditionError` when p is not an extreme point:
    interior points, exterior points, and relative-interior points of
    flat boundary portions are all rejected with a diagnostic.
    """
    pencil = mc.as_pencil(A)
    p = as_point(p)
    return _preimage(pencil, p, *supporting_angle(pencil, p, grid))[2]


def _preimage(pencil: mc.Pencil, p: complex, theta: float, gval: float) -> tuple[FaceDescriptor, str, np.ndarray]:
    """:func:`preimage` at a supporting angle theta with g value gval:
    the face there and the :func:`_pick` tag and pre-image basis of p."""
    tol = POINT_MATCH_RTOL * pencil.scale
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
    fd = face(pencil, theta)
    sigma, basis, miss = _pick(fd, p, tol)
    if miss <= tol:
        return fd, sigma, basis
    if fd.distance(p) <= tol:
        raise PreconditionError(
            f"point {p} is not an extreme point of W(A): relative interior "
            "of a flat boundary portion"
        )
    raise PreconditionError(f"point {p} is not an extreme point of W(A)")
