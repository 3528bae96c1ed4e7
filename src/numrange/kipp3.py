"""Complete shape classification of 3x3 matrices.

Every 3x3 complex matrix falls in exactly one of four classes: R3
(unitarily reducible, equivalently possessing a normal eigenvalue), E3
(irreducible with elliptical numerical range), F3 (irreducible with a
flat boundary portion), or O3 (irreducible with an ovular boundary
curve; assigned by elimination).  The module also computes the
characteristic polynomial of the Hermitian pencil, canonical forms of
reducible matrices modulo unitary similarity and invertible affine
reparametrization of the plane, membership in the closures of E3 and
F3, and explicit witness sequences converging to those closures.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import extremal, matcore as mc, rangegeo as rg
from .errors import NumericalError, PreconditionError

# Normal-eigenvalue detection: smallest singular value of the stacked
# joint-eigenvector system, relative to 1 + ||A||.
NORMAL_EIG_RTOL = 1e-8
# Eigenvalue match tolerance of the elliptical-range criterion.
ELLIPTIC_MATCH_RTOL = 1e-8
# Collinearity tolerance for segment-vs-triangle decisions.
COLLINEAR_TOL = 1e-9
# Strictness margin for "normal eigenvalue in the interior of the ellipse",
# measured on the focal-sum excess (about twice the boundary distance).
INTERIOR_MARGIN_RTOL = 1e-8
# Stationary points of the discriminant whose pair gap (relative) is
# larger than this cannot be double eigenvalues and are not polished.
DOUBLE_SCREEN_RTOL = 1e-3

# The discriminant of A(theta) is a homogeneous sextic in (cos, sin):
# harmonics 0, 2, 4 and 6 only, fixed by seven angles on [0, pi).  The
# samples times _DISCRIMINANT_DFT are 7 times the coefficients of
# e^{2 i k theta}, k = 1, 2, 3 (those of -k are their conjugates).
_DISCRIMINANT_ANGLES = np.arange(7) * np.pi / 7.0
_DISCRIMINANT_DFT = np.exp(-2j * np.outer(_DISCRIMINANT_ANGLES, np.arange(1, 4)))
# Newton steps per double-eigenvalue angle; a tangential zero (gap
# quadratic in the angle) converges linearly: 12 steps on the disk with
# its eigenvalue on the boundary, [[0, 2, 0], [0, 0, 0], [0, 0, 1]].
_DOUBLE_NEWTON_STEPS = 24

CLASS_R3 = "R3"
CLASS_E3 = "E3"
CLASS_F3 = "F3"
CLASS_O3 = "O3"


def _require_3x3(A) -> np.ndarray:
    A = mc.as_matrix(A)
    if A.shape[0] != 3:
        raise PreconditionError("this operation is defined for 3x3 matrices")
    return A


def _distinct(values, tol: float) -> list[complex]:
    out: list[complex] = []
    for v in values:
        if all(abs(v - u) > tol for u in out):
            out.append(complex(v))
    return out


def normal_eigenvalues(A) -> list[complex]:
    """Eigenvalues possessing a joint eigenvector of A and A*.

    alpha qualifies when the stacked system [(A - alpha); (A* - conj(alpha))]
    is rank deficient within tolerance.  A 3x3 matrix has one exactly when
    it is unitarily reducible.  Multiple eigenvalues are only determined
    to a fractional power of the rounding noise, so the means of close
    eigenvalue clusters (which recover a k-fold root to full precision)
    are tested as well.
    """
    A = mc.as_matrix(A)
    d = A.shape[0]
    scale = 1.0 + mc.fro(A)
    if d == 3:
        eigs = mc.eigvals3(A)
    else:
        eigs = np.sort_complex(np.linalg.eigvals(A))
    candidates = list(_distinct(eigs, 1e-9 * scale))
    cluster_radius = 1e-4 * scale
    for i in range(len(eigs)):
        for j in range(i + 1, len(eigs)):
            if abs(eigs[i] - eigs[j]) <= cluster_radius:
                candidates.append((eigs[i] + eigs[j]) / 2.0)
    if np.max(np.abs(eigs - np.mean(eigs))) <= cluster_radius:
        candidates.append(complex(np.mean(eigs)))

    alphas = np.array(candidates, dtype=complex)[:, None, None]
    eye = np.eye(d)
    stacked = np.concatenate([A - alphas * eye, A.conj().T - alphas.conj() * eye], axis=1)
    smins = np.linalg.svd(stacked, compute_uv=False)[:, -1]
    passing = [
        (complex(alpha), float(smin))
        for alpha, smin in zip(candidates, smins, strict=True)
        if smin <= NORMAL_EIG_RTOL * scale
    ]
    passing.sort(key=lambda t: t[1])
    out: list[complex] = []
    for alpha, _ in passing:
        if all(abs(alpha - b) > 1e-8 * scale for b in out):
            out.append(alpha)
    out.sort(key=lambda z: (z.real, z.imag))
    return out


def joint_eigenvector(A, alpha) -> np.ndarray:
    """Unit vector v with A v = alpha v and A* v = conj(alpha) v."""
    A = mc.as_matrix(A)
    d = A.shape[0]
    stacked = np.vstack([A - alpha * np.eye(d), A.conj().T - np.conj(alpha) * np.eye(d)])
    _, s, vt = np.linalg.svd(stacked)
    scale = 1.0 + mc.fro(A)
    if s[-1] > NORMAL_EIG_RTOL * scale * 10:
        raise PreconditionError(f"{alpha} is not a normal eigenvalue")
    return vt[-1].conj()


def is_reducible3(A) -> bool:
    """A 3x3 matrix is unitarily reducible iff it has a normal eigenvalue."""
    A = _require_3x3(A)
    return len(normal_eigenvalues(A)) > 0


@dataclass(frozen=True)
class KippenhahnPolynomial:
    """Homogeneous polynomial det(y0 I + y1 Re(A) + y2 Im(A)).

    ``coeffs`` maps exponent triples (i, j, k) with i+j+k = degree to real
    coefficients; the boundary of W(A) is traced by its top eigenvalue
    branch, i.e. F(-support(theta), cos theta, sin theta) = 0.
    """

    degree: int
    coeffs: dict[tuple[int, int, int], float]

    def __call__(self, y0: float, y1: float, y2: float) -> float:
        return float(
            sum(c * y0**i * y1**j * y2**k for (i, j, k), c in self.coeffs.items())
        )


def kippenhahn_polynomial(A) -> KippenhahnPolynomial:
    """Coefficient table of det(y0 I + y1 Re(A) + y2 Im(A)).

    Determined by interpolation: the determinant of the Hermitian pencil
    is evaluated on an integer node grid and the homogeneous coefficients
    are recovered by least squares (exact up to rounding).
    """
    A = mc.as_matrix(A)
    d = A.shape[0]
    R, S = mc.re_part(A), mc.im_part(A)
    eye = np.eye(d)
    monomials = [
        (i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)
    ]
    vals = np.arange(-2.0, 3.0)
    nodes = np.array(
        [(a, b, c) for a in vals for b in vals for c in vals if (a, b, c) != (0, 0, 0)]
    )
    design = np.column_stack(
        [nodes[:, 0] ** i * nodes[:, 1] ** j * nodes[:, 2] ** k for (i, j, k) in monomials]
    )
    rhs = np.array(
        [np.linalg.det(a * eye + b * R + c * S).real for a, b, c in nodes]
    )
    sol, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    coeffs = {m: float(c) for m, c in zip(monomials, sol, strict=True)}
    return KippenhahnPolynomial(degree=d, coeffs=coeffs)


@dataclass(frozen=True)
class EllipticData:
    """Elliptical component of the boundary generating curve.

    ``lam`` is the distinguished point (it must coincide with one of the
    eigenvalues for the curve to split off an ellipse), ``foci`` are the
    other two eigenvalues, and the minor axis has length sqrt(d) where
    d is the squared off-diagonal mass of a triangularization.
    """

    lam: complex
    foci: tuple[complex, complex]
    minor_axis: float
    d: float

    def ellipse(self) -> rg.EllipseParams:
        f0, f1 = self.foci
        return rg.EllipseParams(
            center=(f0 + f1) / 2.0, foci=(f0, f1), semi_minor=self.minor_axis / 2.0
        )

    def focal_excess(self, q: complex) -> float:
        """|q - f0| + |q - f1| - 2a: negative inside, zero on the boundary."""
        e = self.ellipse()
        return abs(q - self.foci[0]) + abs(q - self.foci[1]) - 2.0 * e.semi_major


def elliptic_data(A) -> EllipticData | None:
    """Ellipse-plus-point decomposition test from a triangularization.

    Reads (a, b, c) and (x, y, z) off the Schur form, forms
    lam = (c|x|^2 + b|y|^2 + a|z|^2 - x conj(y) z) / (|x|^2+|y|^2+|z|^2),
    and returns data iff lam coincides with an eigenvalue; the other two
    eigenvalues are then the foci and sqrt(d) the minor axis.  Returns
    None for normal input (no off-diagonal mass) or when lam misses the
    spectrum.
    """
    A = _require_3x3(A)
    scale = 1.0 + mc.fro(A)
    _, T = mc.schur3(A)
    a, b, c = T[0, 0], T[1, 1], T[2, 2]
    x, y, z = T[0, 1], T[0, 2], T[1, 2]
    dd = abs(x) ** 2 + abs(y) ** 2 + abs(z) ** 2
    if np.sqrt(dd) <= NORMAL_EIG_RTOL * scale:
        return None
    lam = (c * abs(x) ** 2 + b * abs(y) ** 2 + a * abs(z) ** 2 - x * np.conj(y) * z) / dd
    eigs = np.array([a, b, c])
    k = int(np.argmin(np.abs(eigs - lam)))
    if abs(eigs[k] - lam) > ELLIPTIC_MATCH_RTOL * scale:
        return None
    foci = tuple(complex(eigs[i]) for i in range(3) if i != k)
    return EllipticData(lam=complex(lam), foci=foci, minor_axis=float(np.sqrt(dd)), d=float(dd))


@dataclass(frozen=True)
class KippenhahnClassification:
    """Class tag, shape descriptor, and certificates."""

    class_tag: str  # R3 | E3 | F3 | O3
    shape: str
    normal_eigenvalues: list[complex]
    elliptic: EllipticData | None
    flat_angles: list[float]


def _is_normal_matrix(A: np.ndarray) -> bool:
    comm = A @ A.conj().T - A.conj().T @ A
    return mc.fro(comm) <= 1e-10 * (1.0 + mc.fro(A) ** 2)


def _bloch_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Inner product of the Bloch vectors of stacked Hermitian 2x2 matrices."""
    off = (X[..., 0, 1] * Y[..., 0, 1].conj()).real
    return off + (X[..., 0, 0] - X[..., 1, 1]).real * (Y[..., 0, 0] - Y[..., 1, 1]).real / 4.0


def _double_eigenvalue_angles(pencil: mc.Pencil) -> list[float]:
    """Angles in [0, 2 pi) where the top eigenvalue of a 3x3 A(theta) is double.

    A double eigenvalue of a 3x3 A(theta) is the top or the bottom one,
    so these angles are the real zeros of the discriminant
    Delta(theta) = prod_{i<j} (lambda_i - lambda_j)^2 (Kippenhahn 1951;
    Keeler, Rodman & Spitkovsky 1997), each taken at theta or at
    theta + pi (A(theta + pi) = -A(theta)).  Delta >= 0 is a
    trigonometric polynomial in 2 theta of degree 3, so its zeros are
    among its stationary points: the roots of a degree-6 polynomial in
    z = e^{2 i theta}, whose coefficients come from seven eigenvalue
    samples.  The root angles whose top (theta) or bottom (theta + pi)
    pair gap passes ``DOUBLE_SCREEN_RTOL`` are polished by Newton on the
    two top eigenvalues: the step zeroes the traceless part of the
    compression of A(theta) + delta A'(theta) onto their eigenspace, which
    stays accurate where the two eigenvectors themselves do not.  A
    polished angle is kept when its top gap is within ``GAP_REFINE_RTOL``;
    kept angles closer than ``ARC_SINGLE_ANGLE`` are one angle, the one of
    least gap.
    """
    scale = 1.0 + pencil.norm
    w = np.linalg.eigvalsh(pencil.rotate(_DISCRIMINANT_ANGLES)) / scale
    disc = ((w[:, 1] - w[:, 0]) * (w[:, 2] - w[:, 0]) * (w[:, 2] - w[:, 1])) ** 2
    c1, c2, c3 = disc @ _DISCRIMINANT_DFT
    # 7 z^3 Delta'/i as a polynomial in z, highest power first
    deriv = [3 * c3, 2 * c2, c1, 0.0, -c1.conj(), -2 * c2.conj(), -3 * c3.conj()]
    roots = np.angle(np.roots(deriv)) / 2.0 % np.pi
    w = np.linalg.eigvalsh(pencil.rotate(roots))
    screen = DOUBLE_SCREEN_RTOL * scale
    t = np.concatenate([roots[w[:, 2] - w[:, 1] <= screen], roots[w[:, 1] - w[:, 0] <= screen] + np.pi])

    # Newton, keeping the angle of least top gap; an angle stops at the
    # rounding floor of the gap, on a vanishing step, or after two steps
    # that did not lower its gap (a near miss of two eigenvalues)
    floor = 4.0 * np.finfo(float).eps * scale
    best_t, best_gap = t.copy(), np.full(t.size, np.inf)
    stalled = np.zeros(t.size, dtype=int)
    live = np.arange(t.size)
    for _ in range(_DOUBLE_NEWTON_STEPS):
        if not live.size:
            break
        tl = t[live]
        At = pencil.rotate(tl)
        wl, V = np.linalg.eigh(At)
        Q = V[..., 1:]
        Qh = Q.conj().swapaxes(-1, -2)
        gap = wl[:, 2] - wl[:, 1]
        better = gap < best_gap[live]
        best_t[live[better]], best_gap[live[better]] = tl[better], gap[better]
        stalled[live] = np.where(better, 0, stalled[live] + 1)
        C = Qh @ pencil.prime(tl) @ Q
        with np.errstate(divide="ignore", invalid="ignore"):
            step = _bloch_dot(Qh @ At @ Q, C) / _bloch_dot(C, C)
        done = (gap <= floor) | ~np.isfinite(step) | (np.abs(step) <= 1e-15) | (stalled[live] >= 2)
        t[live[~done]] -= step[~done]
        live = live[~done]

    keep = best_gap <= extremal.GAP_REFINE_RTOL * scale
    groups: list[list[tuple[float, float]]] = []  # (angle, gap), chained within ARC_SINGLE_ANGLE
    for angle, gap in sorted(zip(best_t[keep] % (2.0 * np.pi), best_gap[keep])):
        if groups and angle - groups[-1][-1][0] <= extremal.ARC_SINGLE_ANGLE:
            groups[-1].append((angle, gap))
        else:
            groups.append([(angle, gap)])
    if len(groups) > 1 and groups[0][0][0] + 2.0 * np.pi - groups[-1][-1][0] <= extremal.ARC_SINGLE_ANGLE:
        groups[0] += groups.pop()
    return sorted(float(min(g, key=lambda p: p[1])[0]) for g in groups)


def classify(A, grid: int = 512) -> KippenhahnClassification:
    """Assign the unique class R3/E3/F3/O3 and a shape descriptor.

    R3 shapes follow the normal-eigenvalue geometry (point, segment,
    triangle, ellipse, or ellipse plus an outside point).  An irreducible
    matrix is F3 when the face of W(A) at one of the angles where the top
    eigenvalue of A(theta) is double (the real zeros of the discriminant
    of A(theta), :func:`_double_eigenvalue_angles`) is a segment longer
    than ``FLAT_LENGTH_RTOL``; there the top eigenvalue is double with the
    third one below, so support(theta) I - A(theta) has rank one.  A zero
    whose face is a single point is a tangentially multiply generated
    boundary point, not a flat portion.  Otherwise it is E3 when the
    elliptical criterion fires, and O3 when it does not.  ``grid`` is
    accepted for compatibility and unused: no angle grid is scanned.
    """
    A = _require_3x3(A)
    scale = 1.0 + mc.fro(A)
    ne = normal_eigenvalues(A)
    if ne:
        if _is_normal_matrix(A):
            pts = _distinct(mc.eigvals3(A), 1e-9 * scale)
            if len(pts) == 1:
                shape = "point"
            elif len(pts) == 2:
                shape = "segment"
            else:
                cross = ((pts[1] - pts[0]) * np.conj(pts[2] - pts[0])).imag
                shape = "segment" if abs(cross) <= COLLINEAR_TOL * scale**2 else "triangle"
            return KippenhahnClassification(CLASS_R3, shape, ne, None, [])
        ed = elliptic_data(A)
        if ed is None:
            raise NumericalError(
                "inconsistent classification: reducible non-normal matrix "
                "without elliptical data"
            )
        excess = ed.focal_excess(ed.lam)
        shape = (
            "ellipse_plus_outside_point"
            if excess > 2.0 * INTERIOR_MARGIN_RTOL * scale
            else "ellipse"
        )
        return KippenhahnClassification(CLASS_R3, shape, ne, ed, [])

    pencil = mc.Pencil(A)
    portions = extremal._flat_portions(pencil, _double_eigenvalue_angles(pencil))
    if portions:
        # a genuine flat portion rules out an elliptical range; near the
        # common closure boundary the algebraic elliptic match can fire
        # spuriously within its tolerance, so the geometric signal wins
        return KippenhahnClassification(
            CLASS_F3, "flat_portion_shape", [], None, [fp.theta for fp in portions]
        )
    ed = elliptic_data(A)
    if ed is not None:
        return KippenhahnClassification(CLASS_E3, "ellipse_irreducible", [], ed, [])
    return KippenhahnClassification(CLASS_O3, "ovular", [], None, [])


def affine_transform(A, T, s=(0.0, 0.0)) -> np.ndarray:
    """Replace (Re A, Im A) by the T-combination plus the shift s.

    W(affine_transform(A, T, s)) = T(W(A)) + s as convex bodies;
    invertible T required.
    """
    A = mc.as_matrix(A)
    T = np.asarray(T, dtype=float).reshape(2, 2)
    s = np.asarray(s, dtype=float).reshape(2)
    if abs(np.linalg.det(T)) <= 1e-14 * max(np.linalg.norm(T) ** 2, 1e-300):
        raise PreconditionError("affine_transform requires invertible T")
    R, S = mc.re_part(A), mc.im_part(A)
    eye = np.eye(A.shape[0])
    Rn = T[0, 0] * R + T[0, 1] * S + s[0] * eye
    Sn = T[1, 0] * R + T[1, 1] * S + s[1] * eye
    return Rn + 1j * Sn


@dataclass(frozen=True)
class CanonicalForm3:
    """Canonical representative of a reducible matrix, with the witnesses.

    The recorded transformations reproduce the canonical matrix:
    affine_transform(U* A U, T, shift) == canonical.  Forms: "zero",
    "diag_0_lambda_1" (lam in [0, 1/2]), "diag_0_1_i", and "offdiag_a"
    ([[0,2,0],[0,0,0],[0,0,a]] with a >= 0).
    """

    form: str
    lam: float | None
    a: float | None
    unitary: np.ndarray
    affine_T: np.ndarray
    affine_shift: np.ndarray
    canonical: np.ndarray

    def apply(self, A) -> np.ndarray:
        U = self.unitary
        return affine_transform(U.conj().T @ mc.as_matrix(A) @ U, self.affine_T, self.affine_shift)


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI = [
    _PAULI_X,
    _PAULI_Y,
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
]


def _bloch(X: np.ndarray) -> np.ndarray:
    """Bloch vector of a traceless Hermitian 2x2 matrix."""
    return np.array([np.trace(X @ sig).real / 2.0 for sig in _PAULI])


def _joint_eigenbasis(R: np.ndarray, S: np.ndarray, ctol: float) -> tuple[np.ndarray, np.ndarray]:
    """Simultaneous eigenbasis of commuting Hermitian R, S.

    Returns (V, w) with V unitary and w complex: R + iS = V diag(w) V*.
    """
    dec = mc.eig_hermitian(R)
    V = dec.eigenvectors.copy()
    r = dec.eigenvalues
    svals = np.empty_like(r)
    for cl in extremal._clusters(r, ctol):
        Q = V[:, cl]
        sub = mc.eig_hermitian(mc.compress(S, Q))
        V[:, cl] = Q @ sub.eigenvectors
        svals[cl] = sub.eigenvalues
    return V, r + 1j * svals


def canonical_reducible_form(A, grid: int = 512) -> CanonicalForm3:
    """Canonical form of a reducible 3x3 matrix modulo unitary similarity
    and invertible affine reparametrization of the plane.

    Commuting real/imaginary parts lead to the diagonal forms (zero, the
    segment family diag[0, lam, 1] with lam folded into [0, 1/2], or the
    triangle diag[0, 1, i]); a non-commuting reducible matrix is carried
    to [[0, 2, 0], [0, 0, 0], [0, 0, a]] with a >= 0 by splitting off the
    normal eigenvalue, trace/shear normalizations of the 2x2 blocks, and
    an SU(2) rotation aligning the Bloch frame.
    """
    A = _require_3x3(A)
    scale = 1.0 + mc.fro(A)
    if not is_reducible3(A):
        raise PreconditionError("canonical_reducible_form requires a reducible matrix")
    R, S = mc.re_part(A), mc.im_part(A)
    ctol = extremal.cluster_tolerance(A)
    comm = mc.fro(R @ S - S @ R)

    if comm <= 1e-10 * (1.0 + mc.fro(A) ** 2):
        V, w = _joint_eigenbasis(R, S, ctol)
        pts = _distinct(w, 1e-8 * scale)
        if len(pts) == 1:
            canonical = np.zeros((3, 3), dtype=complex)
            T = np.eye(2)
            shift = np.array([-pts[0].real, -pts[0].imag])
            cf = CanonicalForm3("zero", None, None, V, T, shift, canonical)
            _check_canonical(cf, A, scale)
            return cf
        cross = 0.0
        if len(pts) == 3:
            cross = ((pts[1] - pts[0]) * np.conj(pts[2] - pts[0])).imag
        if len(pts) == 2 or abs(cross) <= COLLINEAR_TOL * scale**2:
            # segment family: map the extreme points to 0 and 1
            pairs = [(abs(x - y), x, y) for x, y in combinations_with_replacement(pts, 2)]
            _, wa, wb = max(pairs, key=lambda t: t[0])
            direction = wb - wa
            L = abs(direction)
            phi = np.angle(direction)
            rot = np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]]) / L
            T = rot
            shift = -T @ np.array([wa.real, wa.imag])
            tvals = np.array([((z - wa) * np.exp(-1j * phi)).real / L for z in w])
            lam = float(sorted(tvals)[1])
            if lam > 0.5:
                flip = np.array([[-1.0, 0.0], [0.0, 1.0]])
                T = flip @ T
                shift = flip @ shift + np.array([1.0, 0.0])
                tvals = 1.0 - tvals
                lam = 1.0 - lam
            lam = min(max(lam, 0.0), 0.5)
            order = np.argsort(tvals, kind="stable")
            V = V[:, order]
            canonical = np.diag([0.0, lam, 1.0]).astype(complex)
            cf = CanonicalForm3("diag_0_lambda_1", lam, None, V, T, shift, canonical)
            _check_canonical(cf, A, scale)
            return cf
        # triangle
        pts.sort(key=lambda z: (z.real, z.imag))
        p0, p1, p2 = pts
        M = np.array(
            [[(p1 - p0).real, (p2 - p0).real], [(p1 - p0).imag, (p2 - p0).imag]]
        )
        T = np.linalg.inv(M)
        shift = -T @ np.array([p0.real, p0.imag])
        targets = {0: 0.0 + 0.0j, 1: 1.0 + 0.0j, 2: 1.0j}
        mapped = [complex(*(T @ np.array([z.real, z.imag]) + shift)) for z in w]
        order = sorted(range(3), key=lambda i: min((abs(mapped[i] - t), k) for k, t in targets.items())[1])
        V = V[:, order]
        canonical = np.diag([0.0, 1.0, 1.0j])
        cf = CanonicalForm3("diag_0_1_i", None, None, V, T, shift, canonical)
        _check_canonical(cf, A, scale)
        return cf

    # non-commuting reducible: split off the normal eigenvalue
    alpha = normal_eigenvalues(A)[0]
    v = joint_eigenvector(A, alpha)
    H = mc._householder_to_e1(v)
    U1 = H[:, [1, 2, 0]]  # columns (h2, h3, h1): v spans the last column
    B3 = U1.conj().T @ A @ U1
    X = mc.re_part(B3[:2, :2])
    Y = mc.im_part(B3[:2, :2])
    aval = B3[2, 2].real
    bval = B3[2, 2].imag

    T = np.eye(2)
    shift = np.zeros(2)

    def push(T1, s1=(0.0, 0.0)):
        nonlocal T, shift, X, Y, aval, bval
        T1 = np.asarray(T1, dtype=float)
        s1 = np.asarray(s1, dtype=float)
        Xn = T1[0, 0] * X + T1[0, 1] * Y + s1[0] * np.eye(2)
        Yn = T1[1, 0] * X + T1[1, 1] * Y + s1[1] * np.eye(2)
        an = T1[0, 0] * aval + T1[0, 1] * bval + s1[0]
        bn = T1[1, 0] * aval + T1[1, 1] * bval + s1[1]
        X, Y, aval, bval = Xn, Yn, an, bn
        T = T1 @ T
        shift = T1 @ shift + s1

    push(np.eye(2), (-np.trace(X).real / 2.0, -np.trace(Y).real / 2.0))
    if abs(bval) > 1e-14 * scale:
        if abs(aval) <= 1e-14 * scale:
            push(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # quarter turn
        push(np.array([[1.0, 0.0], [-bval / aval, 1.0]]))
        bval = 0.0
    if aval < 0.0:
        push(np.diag([-1.0, 1.0]))
    t_orth = -np.trace(X @ Y).real / np.trace(Y @ Y).real
    push(np.array([[1.0, t_orth], [0.0, 1.0]]))
    push(np.diag([np.sqrt(2.0) / mc.fro(X), np.sqrt(2.0) / mc.fro(Y)]))

    # SU(2) rotation carrying the Bloch frame of (X, Y) to (sigma_x, sigma_y)
    decx = mc.eig_hermitian(X)
    Wx = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    u0 = decx.eigenvectors[:, ::-1] @ Wx.conj().T  # +1 eigencolumn first
    Yb = _bloch(u0.conj().T @ Y @ u0)
    psi = np.arctan2(Yb[2], Yb[1])
    for sign in (1.0, -1.0):
        u1 = np.cos(psi / 2.0) * np.eye(2) + sign * 1j * np.sin(psi / 2.0) * _PAULI_X
        u2 = u0 @ u1
        if np.linalg.norm(u2.conj().T @ Y @ u2 - _PAULI_Y) < 1e-6:
            break
    U = U1 @ np.block([[u2, np.zeros((2, 1))], [np.zeros((1, 2)), np.eye(1)]])
    a_final = float(aval)
    canonical = np.array([[0, 2, 0], [0, 0, 0], [0, 0, a_final]], dtype=complex)
    cf = CanonicalForm3("offdiag_a", None, a_final, U, T, shift, canonical)
    _check_canonical(cf, A, scale)
    return cf


def _check_canonical(cf: CanonicalForm3, A: np.ndarray, scale: float) -> None:
    err = mc.fro(cf.apply(A) - cf.canonical)
    if err > 1e-8 * scale:
        raise NumericalError(
            f"canonical form witnesses drifted: reproduction error {err:.3e}"
        )


def in_closure_E3(A, grid: int = 512) -> bool:
    """Norm-closure membership for the elliptical class.

    True iff A is itself E3, or is reducible with numerical range an
    ellipse, a segment, or a point.  ``grid`` is unused, as in
    :func:`classify`.
    """
    return _in_closure_E3(classify(_require_3x3(A)))


def _in_closure_E3(cls: KippenhahnClassification) -> bool:
    """:func:`in_closure_E3` from the classification of A."""
    if cls.class_tag == CLASS_E3:
        return True
    return cls.class_tag == CLASS_R3 and cls.shape in ("ellipse", "segment", "point")


def in_closure_F3(A, grid: int = 512) -> bool:
    """Norm-closure membership for the flat-portion class.

    True iff A is itself F3, or is reducible and W(A) is not an ellipse
    with the normal eigenvalue strictly in the interior (strictness
    margin relative to 1 + ||A||).  ``grid`` is unused, as in
    :func:`classify`.
    """
    A = _require_3x3(A)
    return _in_closure_F3(A, classify(A))


def _in_closure_F3(A: np.ndarray, cls: KippenhahnClassification) -> bool:
    """:func:`in_closure_F3` from the classification ``cls`` of A."""
    if cls.class_tag == CLASS_F3:
        return True
    if cls.class_tag != CLASS_R3:
        return False
    if cls.shape != "ellipse":
        return True
    excess = cls.elliptic.focal_excess(cls.elliptic.lam)
    return excess >= -2.0 * INTERIOR_MARGIN_RTOL * (1.0 + mc.fro(A))


def _canonical_if_reducible(A, cls: KippenhahnClassification) -> CanonicalForm3 | None:
    """Canonical form of A when its classification ``cls`` is R3, else None."""
    return canonical_reducible_form(A) if cls.class_tag == CLASS_R3 else None


def m_alpha_beta(alpha: float, beta: float) -> np.ndarray:
    """Irreducible family with circular numerical range centered at alpha.

    For small alpha > 0 the matrix is irreducible with W a disk, and it
    converges entrywise to [[0, (1+beta^2)/beta, 0], [0, 0, 0], [0, 0, 1]]
    as alpha -> 0.
    """
    return np.array(
        [
            [alpha, (1.0 - alpha) * (1.0 + beta**2) / beta, alpha],
            [0.0, alpha, -alpha * beta],
            [0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )


# Fixed unitary frame carrying the disk family [[0,2,0],[0,0,0],[0,0,a]]
# onto the segment forms: the affine map (x, y) -> ((1-x)/2, eps*y) applied
# to U* A(1-2*lam) U equals [[0,0,-eps],[0,lam,0],[eps,0,1]], which tends to
# diag[0, lam, 1] as eps -> 0.
_SEGMENT_FRAME_U = np.array(
    [[1.0, 0.0, 1.0], [1.0, 0.0, -1.0], [0.0, np.sqrt(2.0), 0.0]], dtype=complex
) / np.sqrt(2.0)


def _beta_for(a: float) -> float:
    """beta in (0, 1] solving (1 + beta^2)/beta = 2/a for a in (0, 1]."""
    return (1.0 - np.sqrt(max(1.0 - a * a, 0.0))) / a


def _segment_e3_member(lam: float, eps: float) -> np.ndarray:
    """Irreducible elliptical matrix within eps of diag[0, lam, 1].

    The triangular form [[0, sqrt(lam) eps, 0], [0, lam, sqrt(1-lam) eps],
    [0, 0, 1]] satisfies the elliptical criterion exactly (the
    distinguished point equals the middle eigenvalue), with foci {0, 1}
    and minor axis eps; its distance to the reducible set scales
    linearly in eps, so the classifier keeps seeing it as irreducible.
    For lam = 0 the couplings are rebalanced so the criterion still
    cancels exactly while no joint eigenvector appears.
    """
    if lam > 1e-8:
        return np.array(
            [
                [0.0, np.sqrt(lam) * eps, 0.0],
                [0.0, lam, np.sqrt(1.0 - lam) * eps],
                [0.0, 0.0, 1.0],
            ],
            dtype=complex,
        )
    return np.array(
        [[0.0, eps * eps, eps], [0.0, 0.0, eps], [0.0, 0.0, 1.0]], dtype=complex
    )


def e3_witness(A, eps: float, grid: int = 512) -> np.ndarray:
    """A member of E3 within O(eps) of the canonical form of A.

    Requires A in the closure of E3 but not in E3 itself.  The witness
    approaches the canonical representative (not A): disk forms scale the
    circular family, segment and degenerate forms use triangular members
    of E3 whose elliptical criterion cancels exactly.  The result is
    re-classified and must come out E3.
    """
    A = _require_3x3(A)
    cls = classify(A)
    return _e3_witness(cls, _canonical_if_reducible(A, cls), eps)


def _e3_witness(cls: KippenhahnClassification, cf: CanonicalForm3 | None, eps: float) -> np.ndarray:
    """:func:`e3_witness` from the classification ``cls`` of A and, when A
    is reducible, its canonical form ``cf`` (:func:`_canonical_if_reducible`)."""
    if eps <= 0:
        raise PreconditionError("e3_witness requires eps > 0")
    if cls.class_tag == CLASS_E3:
        raise PreconditionError("matrix is already in E3")
    if not _in_closure_E3(cls):
        raise PreconditionError("matrix is not in the closure of E3")

    if cf.form == "zero":
        B = eps * _segment_e3_member(0.5, 1.0)
    elif cf.form == "offdiag_a":
        a = cf.a
        if a > 1e-9:
            B = a * m_alpha_beta(eps, _beta_for(min(a, 1.0)))
        else:
            B = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, eps], [0.0, 0.0, 0.0]], dtype=complex)
    elif cf.form == "diag_0_lambda_1":
        B = _segment_e3_member(cf.lam, eps)
    else:
        raise PreconditionError("matrix is not in the closure of E3")

    check = classify(B)
    if check.class_tag != CLASS_E3:
        raise NumericalError(f"witness failed to classify as E3 (got {check.class_tag})")
    return B


def f3_witness(A, eps: float, grid: int = 512) -> np.ndarray:
    """A member of F3 within O(eps) of the canonical form of A.

    Diagonal canonical forms are perturbed entrywise by i*eps (with a
    real bump of the middle entry when lam = 0, where the plain
    perturbation would stay reducible); the disk-with-boundary-eigenvalue
    family is perturbed through its flat-portion normal frame, mapped
    back through the recorded transformations.  The result is
    re-classified and must come out F3.
    """
    A = _require_3x3(A)
    cls = classify(A)
    return _f3_witness(A, cls, _canonical_if_reducible(A, cls), eps)


def _f3_witness(
    A: np.ndarray, cls: KippenhahnClassification, cf: CanonicalForm3 | None, eps: float
) -> np.ndarray:
    """:func:`f3_witness` from the classification ``cls`` of A and, when A
    is reducible, its canonical form ``cf`` (:func:`_canonical_if_reducible`)."""
    if eps <= 0:
        raise PreconditionError("f3_witness requires eps > 0")
    if cls.class_tag == CLASS_F3:
        raise PreconditionError("matrix is already in F3")
    if not _in_closure_F3(A, cls):
        raise PreconditionError("matrix is not in the closure of F3")
    ones = np.ones((3, 3), dtype=complex)

    if cf.form == "zero":
        base = np.diag([0.0, 0.5, 1.0]).astype(complex) + 0.1j * ones
        B = eps * base
    elif cf.form == "diag_0_lambda_1":
        lam = cf.lam if cf.lam > 1e-12 else eps / 2.0
        B = np.diag([0.0, lam, 1.0]).astype(complex) + 1j * eps * ones
    elif cf.form == "diag_0_1_i":
        B = np.diag([0.0, 1.0, 1.0j]) + 1j * eps * ones
    else:
        a = cf.a
        if a < 1.0 - 1e-9:
            raise PreconditionError("matrix is not in the closure of F3")
        if a <= 1.0 + 1e-9:
            # boundary case: the real part of the canonical form has a
            # double eigenvalue, so the entrywise i*eps perturbation is
            # already irreducible with the rank-one criterion intact
            B = np.array([[0, 2, 0], [0, 0, 0], [0, 0, 1]], dtype=complex) + 1j * eps * ones
            check = classify(B)
            if check.class_tag != CLASS_F3:
                raise NumericalError(
                    f"witness failed to classify as F3 (got {check.class_tag})"
                )
            return B
        at = a
        # the distance of the perturbed frame from the elliptical
        # degeneration scales like coupling * (a^2-1)^2; keep the coupling
        # large enough for the classifier to see the quartic structure
        coupling_floor = 1e-6 / max((at * at - 1.0) ** 2, 1e-12)
        eps_c = max(eps, min(coupling_floor, 0.1))
        r = np.sqrt(at * at - 1.0)
        T0 = np.array([[1.0, r], [0.0, 1.0]])
        u = np.array(
            [
                [0.0, 1.0 - 1j * r, 1.0 - 1j * r],
                [0.0, at, -at],
                [at * np.sqrt(2.0), 0.0, 0.0],
            ],
            dtype=complex,
        ) / (at * np.sqrt(2.0))
        canon = np.array([[0, 2, 0], [0, 0, 0], [0, 0, at]], dtype=complex)
        D = u.conj().T @ affine_transform(canon, T0) @ u
        coupling = np.zeros((3, 3), dtype=complex)
        coupling[0, 2] = coupling[2, 0] = 1.0
        D_eps = D + (1j * eps_c / at) * coupling
        T0_inv = np.array([[1.0, -r], [0.0, 1.0]])
        B = affine_transform(u @ D_eps @ u.conj().T, T0_inv)

    check = classify(B)
    if check.class_tag != CLASS_F3:
        raise NumericalError(f"witness failed to classify as F3 (got {check.class_tag})")
    return B
