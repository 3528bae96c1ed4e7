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

A function that takes a matrix A also takes its
:class:`~numrange.matcore.Pencil`, which holds Re(A), Im(A), |A|_F and
the tolerance scale ``1 + |A|_F``.
"""

from __future__ import annotations

import functools
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
FOCAL_MARGIN_RTOL = 1e-8
# Stationary points of the discriminant whose pair gap (relative) is
# larger than this cannot be double eigenvalues and are not polished.
DOUBLE_SCREEN_RTOL = 1e-3

# The discriminant of A(theta) is a homogeneous sextic in (cos, sin):
# harmonics 0, 2, 4 and 6 only, fixed by seven angles on [0, pi).  The
# samples times _DISCRIMINANT_DFT are 7 times the coefficients of
# e^{2 i k theta}, k = 1, 2, 3 (those of -k are their conjugates).
_DISCRIMINANT_ANGLES = np.arange(7) * np.pi / 7.0
_DISCRIMINANT_DFT = np.exp(-2j * np.outer(_DISCRIMINANT_ANGLES, np.arange(1, 4)))

CLASS_R3 = "R3"
CLASS_E3 = "E3"
CLASS_F3 = "F3"
CLASS_O3 = "O3"


def _require_3x3(A) -> mc.Pencil:
    """The Pencil of a 3x3 matrix (a Pencil is returned as it is)."""
    pencil = mc.as_pencil(A)
    if pencil.d != 3:
        raise PreconditionError("this operation is defined for 3x3 matrices")
    return pencil


def _distinct(values, tol: float) -> list[complex]:
    out: list[complex] = []
    for v in values:
        if all(abs(v - u) > tol for u in out):
            out.append(complex(v))
    return out


def _per_pencil(solve):
    """Keep ``solve(pencil)`` on the Pencil of the argument, the way a Pencil
    keeps its grids: one answer per matrix, immutable (tuples, frozen
    dataclasses, read-only arrays)."""

    @functools.wraps(solve)
    def kept(A):
        pencil = mc.as_pencil(A)
        answers = pencil._kept
        if solve not in answers:
            answers[solve] = solve(pencil)
        return answers[solve]

    return kept


@_per_pencil
def _normal_eigenvalues(pencil: mc.Pencil) -> tuple[complex, ...]:
    """:func:`normal_eigenvalues`, kept per Pencil."""
    A, d, scale = pencil.A, pencil.d, pencil.scale
    eigs = np.sort_complex(np.linalg.eigvals(A))
    candidates = list(_distinct(eigs, 1e-9 * scale))
    cluster_radius = mc._MULTIPLE_ROOT_RTOL * scale
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
    # the smallest singular value speaks for the values that are one point
    out = _distinct([alpha for alpha, _ in passing], NORMAL_EIG_RTOL * scale)
    return tuple(sorted(out, key=lambda z: (z.real, z.imag)))


def normal_eigenvalues(A) -> list[complex]:
    """Eigenvalues possessing a joint eigenvector of A and A*.

    alpha qualifies when the stacked system [(A - alpha); (A* - conj(alpha))]
    is rank deficient within ``NORMAL_EIG_RTOL * scale``.  A 3x3 matrix has
    one exactly when it is unitarily reducible.  The candidates are the
    LAPACK eigenvalues (``np.linalg.eigvals``) for every d.  Multiple
    eigenvalues are only determined to a fractional power of the rounding
    noise, so the means of close eigenvalue clusters (which recover a
    k-fold root to full precision) are tested as well.  Passing values
    closer than ``NORMAL_EIG_RTOL * scale`` are one point, the one with
    the smallest singular value.  Solved once per Pencil.
    """
    return list(_normal_eigenvalues(A))


def joint_eigenvector(A, alpha) -> np.ndarray:
    """Unit vector v with A v = alpha v and A* v = conj(alpha) v."""
    pencil = mc.as_pencil(A)
    A, d = pencil.A, pencil.d
    stacked = np.vstack([A - alpha * np.eye(d), A.conj().T - np.conj(alpha) * np.eye(d)])
    _, s, vt = np.linalg.svd(stacked)
    if s[-1] > NORMAL_EIG_RTOL * pencil.scale * 10:
        raise PreconditionError(f"{alpha} is not a normal eigenvalue")
    return vt[-1].conj()


def is_reducible3(A) -> bool:
    """A 3x3 matrix is unitarily reducible iff it has a normal eigenvalue."""
    return len(normal_eigenvalues(_require_3x3(A))) > 0


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
    """Coefficient table of det(y0 I + y1 Re(A) + y2 Im(A)), for every d.

    With (y1, y2) = r (cos theta, sin theta) the determinant is
    prod_k (y0 + r lambda_k(theta)) = sum_j y0^(d-j) r^j e_j(theta), e_j
    the j-th elementary symmetric function of the eigenvalues of A(theta)
    (Kippenhahn 1951).  e_j holds the harmonics e^{i m theta},
    m = j, j - 2, ..., -j, only, so one eigenvalue stack at d + 1 angles on
    [0, pi) fixes them all by a DFT, and r^j e^{i m theta} =
    (y1 + i y2)^a (y1 - i y2)^(j - a), m = 2a - j, expands into the
    monomials y1^(j-q) y2^q.
    """
    pencil = mc.as_pencil(A)
    d = pencil.d
    thetas = np.arange(d + 1) * np.pi / (d + 1)
    # e[n, j] = e_j(theta_n), the coefficients of prod_k (y0 + lambda_k)
    e = np.array([np.poly(-w) for w in np.linalg.eigvalsh(pencil.rotate(thetas))])
    P = np.polynomial.polynomial
    coeffs = {}
    for j in range(d + 1):
        # harmonic a is that of m = 2a - j
        harmonics = np.exp(-1j * np.outer(2 * np.arange(j + 1) - j, thetas)) @ e[:, j] / (d + 1)
        # the form in powers of y2, at y1 = 1
        form = sum(
            c * P.polymul(P.polypow([1, 1j], a), P.polypow([1, -1j], j - a))
            for a, c in enumerate(harmonics)
        )
        for q in range(j + 1):
            coeffs[(d - j, j - q, q)] = float(form[q].real)
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
    None for a normal A (no off-diagonal mass), exactly when the one
    normality test of the module says so (:func:`_normal_basis`), and
    when lam misses the spectrum.
    """
    pencil = _require_3x3(A)
    if _normal_basis(pencil) is not None:
        return None
    _, T = mc.schur3(pencil.A)
    a, b, c = T[0, 0], T[1, 1], T[2, 2]
    x, y, z = T[0, 1], T[0, 2], T[1, 2]
    dd = abs(x) ** 2 + abs(y) ** 2 + abs(z) ** 2
    lam = (c * abs(x) ** 2 + b * abs(y) ** 2 + a * abs(z) ** 2 - x * np.conj(y) * z) / dd
    eigs = np.array([a, b, c])
    k = int(np.argmin(np.abs(eigs - lam)))
    if abs(eigs[k] - lam) > ELLIPTIC_MATCH_RTOL * pencil.scale:
        return None
    foci = tuple(complex(eigs[i]) for i in range(3) if i != k)
    return EllipticData(lam=complex(lam), foci=foci, minor_axis=float(np.sqrt(dd)), d=float(dd))


@dataclass(frozen=True)
class KippenhahnClassification:
    """Class tag, shape descriptor, and certificates."""

    class_tag: str  # R3 | E3 | F3 | O3
    shape: str
    normal_eigenvalues: tuple[complex, ...]
    elliptic: EllipticData | None
    flat_angles: tuple[float, ...]


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
    pair gap passes ``DOUBLE_SCREEN_RTOL`` seed the Newton polish that
    :func:`numrange.extremal.flat_portions` shares
    (:func:`numrange.extremal._polish`, on the two top eigenvalues); an
    angle is kept when its top gap is within ``GAP_REFINE_RTOL``, and
    kept angles closer than ``ARC_SINGLE_ANGLE`` are one angle
    (:func:`numrange.extremal._crossings`).
    """
    scale = pencil.scale
    w = np.linalg.eigvalsh(pencil.rotate(_DISCRIMINANT_ANGLES)) / scale
    disc = ((w[:, 1] - w[:, 0]) * (w[:, 2] - w[:, 0]) * (w[:, 2] - w[:, 1])) ** 2
    c1, c2, c3 = disc @ _DISCRIMINANT_DFT
    # 7 z^3 Delta'/i as a polynomial in z, highest power first
    deriv = [3 * c3, 2 * c2, c1, 0.0, -c1.conj(), -2 * c2.conj(), -3 * c3.conj()]
    roots = np.angle(np.roots(deriv)) / 2.0 % np.pi
    w = np.linalg.eigvalsh(pencil.rotate(roots))
    screen = DOUBLE_SCREEN_RTOL * scale
    t = np.concatenate([roots[w[:, 2] - w[:, 1] <= screen], roots[w[:, 1] - w[:, 0] <= screen] + np.pi])
    return extremal._crossings(pencil, *extremal._polish(pencil, t, 2))


@_per_pencil
def classify(A) -> KippenhahnClassification:
    """Assign the unique class R3/E3/F3/O3 and a shape descriptor.

    A is R3 when it has a normal eigenvalue (:func:`normal_eigenvalues`).
    A normal R3 matrix (:func:`_normal_basis`) is a point, a segment or a
    triangle by its distinct eigenvalues (:func:`_normal_shape`, the rule
    the canonical form shares); any other R3 matrix is an ellipse, or an
    ellipse plus an outside point, by its elliptic data.  An irreducible
    matrix is F3 when the face of W(A) at one of the angles where the top
    eigenvalue of A(theta) is double (the real zeros of the discriminant
    of A(theta), :func:`_double_eigenvalue_angles`) is a segment longer
    than ``FLAT_LENGTH_RTOL``; there the top eigenvalue is double with the
    third one below, so support(theta) I - A(theta) has rank one.  A zero
    whose face is a single point is a tangentially multiply generated
    boundary point, not a flat portion.  Otherwise it is E3 when the
    elliptical criterion fires, and O3 when it does not.  No angle grid is
    scanned.  Solved once per Pencil; the result is immutable.
    """
    pencil = _require_3x3(A)
    ne = _normal_eigenvalues(pencil)
    if ne:
        if _normal_basis(pencil) is not None:
            return KippenhahnClassification(CLASS_R3, _normal_shape(pencil)[0], ne, None, ())
        ed = elliptic_data(pencil)
        if ed is None:
            # exact arithmetic puts lam on the normal eigenvalue
            raise NumericalError("the triangular form of a reducible matrix misses its normal eigenvalue")
        outside = ed.focal_excess(ed.lam) > 2.0 * FOCAL_MARGIN_RTOL * pencil.scale
        return KippenhahnClassification(CLASS_R3, "ellipse_plus_outside_point" if outside else "ellipse", ne, ed, ())

    portions = extremal._flat_portions(pencil, _double_eigenvalue_angles(pencil))
    if portions:
        # a genuine flat portion rules out an elliptical range; near the
        # common closure boundary the algebraic elliptic match can fire
        # spuriously within its tolerance, so the geometric signal wins
        return KippenhahnClassification(
            CLASS_F3, "flat_portion_shape", (), None, tuple(fp.theta for fp in portions)
        )
    ed = elliptic_data(pencil)
    if ed is not None:
        return KippenhahnClassification(CLASS_E3, "ellipse_irreducible", (), ed, ())
    return KippenhahnClassification(CLASS_O3, "ovular", (), None, ())


def affine_transform(A, T, s=(0.0, 0.0)) -> np.ndarray:
    """Replace (Re A, Im A) by the T-combination plus the shift s.

    W(affine_transform(A, T, s)) = T(W(A)) + s as convex bodies;
    invertible T required.
    """
    pencil = mc.as_pencil(A)
    T = np.asarray(T, dtype=float).reshape(2, 2)
    s = np.asarray(s, dtype=float).reshape(2)
    if abs(np.linalg.det(T)) <= 1e-14 * max(np.linalg.norm(T) ** 2, 1e-300):
        raise PreconditionError("affine_transform requires invertible T")
    R, S = pencil.R, pencil.S
    eye = np.eye(pencil.d)
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

    Returns (V, w) with V unitary and w complex: R + iS = V diag(w) V*
    when R and S commute: S is diagonalized on each cluster of R's
    eigenvalues, with no solve for a single one.  V leaves the package, so
    its phases are fixed (:func:`~numrange.matcore._fix_phases`).
    """
    r, V = np.linalg.eigh(R)
    V = mc._fix_phases(V)
    svals = np.empty_like(r)
    for cl in extremal._clusters(r, ctol):
        Q = V[:, cl]
        C = Q.conj().T @ S @ Q
        if len(C) == 1:
            svals[cl] = C.real[0]
            continue
        svals[cl], W = np.linalg.eigh((C + C.conj().T) / 2.0)
        V[:, cl] = Q @ mc._fix_phases(W)
    return V, r + 1j * svals


@_per_pencil
def _normal_basis(pencil: mc.Pencil) -> tuple[np.ndarray, np.ndarray] | None:
    """The one normality test: the joint eigenbasis (V, w) of Re A and Im A
    when it diagonalizes A, |V* A V - diag(w)|_F <= delta =
    ``NORMAL_EIG_RTOL * scale``, else None.  A matrix within delta of a
    normal one has |[A, A*]|_F <= 4 (|A|_F + delta) delta + 2 delta^2, so a
    larger commutator proves "not normal" with no eigenbasis."""
    A, tol = pencil.A, NORMAL_EIG_RTOL * pencil.scale
    Ah = A.conj().T
    if mc.fro(A @ Ah - Ah @ A) > 4.0 * (pencil.norm + tol) * tol + 2.0 * tol * tol:
        return None
    V, w = _joint_eigenbasis(pencil.R, pencil.S, pencil.ctol)
    if mc.fro(V.conj().T @ A @ V - np.diag(w)) > tol:
        return None
    V.flags.writeable = w.flags.writeable = False
    return V, w


def _normal_shape(pencil: mc.Pencil) -> tuple[str, list[complex]]:
    """Point, segment or triangle: W(A) of a normal A, and its distinct
    eigenvalues (closer than ``NORMAL_EIG_RTOL * scale`` is one point; three
    with twice the triangle's area below ``COLLINEAR_TOL * scale^2`` are a
    segment).  The one rule of :func:`classify` and the canonical form."""
    scale = pencil.scale
    pts = _distinct(_normal_basis(pencil)[1], NORMAL_EIG_RTOL * scale)
    if len(pts) == 1:
        return "point", pts
    if len(pts) == 3:
        cross = ((pts[1] - pts[0]) * np.conj(pts[2] - pts[0])).imag
        if abs(cross) > COLLINEAR_TOL * scale**2:
            return "triangle", pts
    return "segment", pts


@_per_pencil
def canonical_reducible_form(A) -> CanonicalForm3:
    """Canonical form of a reducible 3x3 matrix modulo unitary similarity
    and invertible affine reparametrization of the plane.

    A normal matrix (:func:`_normal_basis`, the test :func:`classify`
    reads) leads to the diagonal forms, by the shape :func:`classify`
    reports (:func:`_normal_shape`): zero for a point, the segment family
    diag[0, lam, 1] with lam folded into [0, 1/2] (lam = 0 when the
    segment has two distinct points), or the triangle diag[0, 1, i].  The
    diagonal forms reuse the test's eigenbasis.  Any other reducible
    matrix is carried to [[0, 2, 0], [0, 0, 0], [0, 0, a]] with a >= 0 by
    splitting off the normal eigenvalue, trace/shear normalizations of
    the 2x2 blocks, and an SU(2) rotation aligning the Bloch frame.
    Solved once per Pencil; the result is immutable.
    """
    pencil = _require_3x3(A)
    scale = pencil.scale
    ne = _normal_eigenvalues(pencil)
    if not ne:
        raise PreconditionError("canonical_reducible_form requires a reducible matrix")

    basis = _normal_basis(pencil)
    if basis is not None:
        V, w = basis
        shape, pts = _normal_shape(pencil)
        lam, order = None, np.arange(3)
        if shape == "point":
            form, diagonal, T = "zero", [0.0, 0.0, 0.0], np.eye(2)
            shift = np.array([-pts[0].real, -pts[0].imag])
        elif shape == "segment":
            # the extreme points go to 0 and 1, the middle one to lam <= 1/2
            _, wa, wb = max(((abs(x - y), x, y) for x, y in combinations_with_replacement(pts, 2)), key=lambda t: t[0])
            L, phi = abs(wb - wa), np.angle(wb - wa)
            T = np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]]) / L
            shift = -T @ np.array([wa.real, wa.imag])
            tvals = np.array([((z - wa) * np.exp(-1j * phi)).real / L for z in w])
            if sorted(tvals)[1] > 0.5:
                flip = np.array([[-1.0, 0.0], [0.0, 1.0]])
                T, shift, tvals = flip @ T, flip @ shift + np.array([1.0, 0.0]), 1.0 - tvals
            order = np.argsort(tvals, kind="stable")
            lam = min(max(float(tvals[order[1]]), 0.0), 0.5) if len(pts) == 3 else 0.0
            form, diagonal = "diag_0_lambda_1", [0.0, lam, 1.0]
        else:
            p0, p1, p2 = sorted(pts, key=lambda z: (z.real, z.imag))
            T = np.linalg.inv(np.array([[(p1 - p0).real, (p2 - p0).real], [(p1 - p0).imag, (p2 - p0).imag]]))
            shift = -T @ np.array([p0.real, p0.imag])
            targets = {0: 0.0 + 0.0j, 1: 1.0 + 0.0j, 2: 1.0j}
            mapped = [complex(*(T @ np.array([z.real, z.imag]) + shift)) for z in w]
            order = sorted(range(3), key=lambda i: min((abs(mapped[i] - t), k) for k, t in targets.items())[1])
            form, diagonal = "diag_0_1_i", [0.0, 1.0, 1.0j]
        canonical = np.diag(np.array(diagonal, dtype=complex))
        return _checked(CanonicalForm3(form, lam, None, V[:, order], T, shift, canonical), pencil)

    # non-normal reducible: split off the normal eigenvalue
    v = joint_eigenvector(pencil, ne[0])
    H = mc._householder_to_e1(v)
    U1 = H[:, [1, 2, 0]]  # columns (h2, h3, h1): v spans the last column
    B3 = U1.conj().T @ pencil.A @ U1
    block = mc.Pencil(B3[:2, :2])
    X, Y = block.R, block.S
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

    # SU(2) rotation carrying the Bloch frame of (X, Y) to (sigma_x, sigma_y);
    # X is Hermitian by construction (real combinations of Hermitian parts)
    Vx = mc._fix_phases(np.linalg.eigh(X)[1])
    Wx = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    u0 = Vx[:, ::-1] @ Wx.conj().T  # +1 eigencolumn first
    Yb = _bloch(u0.conj().T @ Y @ u0)
    psi = np.arctan2(Yb[2], Yb[1])
    # u1 = exp(-i psi sigma_x / 2) turns sigma_y to u1 sigma_y u1* =
    # cos(psi) sigma_y + sin(psi) sigma_z, the direction of Y in the frame
    # of u0, so u2* Y u2 = sigma_y (the other sign leaves a residual 2 psi)
    u2 = u0 @ (np.cos(psi / 2.0) * np.eye(2) - 1j * np.sin(psi / 2.0) * _PAULI_X)
    U = U1 @ np.block([[u2, np.zeros((2, 1))], [np.zeros((1, 2)), np.eye(1)]])
    a_final = float(aval)
    canonical = np.array([[0, 2, 0], [0, 0, 0], [0, 0, a_final]], dtype=complex)
    return _checked(CanonicalForm3("offdiag_a", None, a_final, U, T, shift, canonical), pencil)


def _checked(cf: CanonicalForm3, pencil: mc.Pencil) -> CanonicalForm3:
    """``cf`` once its witnesses reproduce the canonical matrix from A within
    ``1e-8 * scale``; its arrays are made read-only, since it is kept."""
    err = mc.fro(cf.apply(pencil.A) - cf.canonical)
    if err > 1e-8 * pencil.scale:
        raise NumericalError(
            f"canonical form witnesses drifted: reproduction error {err:.3e}"
        )
    for a in (cf.unitary, cf.affine_T, cf.affine_shift, cf.canonical):
        a.flags.writeable = False
    return cf


def in_closure_E3(A) -> bool:
    """Norm-closure membership for the elliptical class.

    True iff A is itself E3, or is reducible with numerical range an
    ellipse, a segment, or a point.  Reads the classification kept on the
    Pencil of A (:func:`classify`).
    """
    cls = classify(A)
    if cls.class_tag == CLASS_E3:
        return True
    return cls.class_tag == CLASS_R3 and cls.shape in ("ellipse", "segment", "point")


def in_closure_F3(A) -> bool:
    """Norm-closure membership for the flat-portion class.

    True iff A is itself F3, or is reducible and W(A) is not an ellipse
    with the normal eigenvalue strictly in the interior (strictness
    margin relative to 1 + ||A||).  Reads the classification kept on the
    Pencil of A (:func:`classify`).
    """
    pencil = _require_3x3(A)
    cls = classify(pencil)
    if cls.class_tag == CLASS_F3:
        return True
    if cls.class_tag != CLASS_R3:
        return False
    if cls.shape != "ellipse":
        return True
    excess = cls.elliptic.focal_excess(cls.elliptic.lam)
    return excess >= -2.0 * FOCAL_MARGIN_RTOL * pencil.scale


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
    if lam > 0.0:
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


def e3_witness(A, eps: float) -> np.ndarray:
    """A member of E3 within O(eps) of the canonical form of A.

    Requires A in the closure of E3 but not in E3 itself.  The witness
    approaches the canonical representative (not A): disk forms scale the
    circular family, segment and degenerate forms use triangular members
    of E3 whose elliptical criterion cancels exactly.  Reads the
    classification and the canonical form kept on the Pencil of A; the
    result is classified once and must come out E3.
    """
    if eps <= 0:
        raise PreconditionError("e3_witness requires eps > 0")
    pencil = _require_3x3(A)
    if classify(pencil).class_tag == CLASS_E3:
        raise PreconditionError("matrix is already in E3")
    if not in_closure_E3(pencil):
        raise PreconditionError("matrix is not in the closure of E3")

    cf = canonical_reducible_form(pencil)
    if cf.form == "zero":
        B = eps * _segment_e3_member(0.5, 1.0)
    elif cf.form == "offdiag_a":
        a = cf.a
        if a > 1e-9:
            B = a * m_alpha_beta(eps, _beta_for(min(a, 1.0)))
        else:
            B = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, eps], [0.0, 0.0, 0.0]], dtype=complex)
    else:  # diag_0_lambda_1: a triangle is not in the closure
        B = _segment_e3_member(cf.lam, eps)

    check = classify(B)
    if check.class_tag != CLASS_E3:
        raise NumericalError(f"witness failed to classify as E3 (got {check.class_tag})")
    return B


def f3_witness(A, eps: float) -> np.ndarray:
    """A member of F3 within O(eps) of the canonical form of A.

    Diagonal canonical forms are perturbed entrywise by i*eps (with a
    real bump of the middle entry when lam = 0, where the plain
    perturbation would stay reducible); the disk-with-boundary-eigenvalue
    family is perturbed through its flat-portion normal frame, mapped
    back through the recorded transformations.  Reads the classification
    and the canonical form kept on the Pencil of A; the result is
    classified once and must come out F3.
    """
    if eps <= 0:
        raise PreconditionError("f3_witness requires eps > 0")
    pencil = _require_3x3(A)
    if classify(pencil).class_tag == CLASS_F3:
        raise PreconditionError("matrix is already in F3")
    if not in_closure_F3(pencil):
        raise PreconditionError("matrix is not in the closure of F3")
    cf = canonical_reducible_form(pencil)
    ones = np.ones((3, 3), dtype=complex)

    if cf.form == "zero":
        base = np.diag([0.0, 0.5, 1.0]).astype(complex) + 0.1j * ones
        B = eps * base
    elif cf.form == "diag_0_lambda_1":
        lam = cf.lam if cf.lam > 0.0 else eps / 2.0
        B = np.diag([0.0, lam, 1.0]).astype(complex) + 1j * eps * ones
    elif cf.form == "diag_0_1_i":
        B = np.diag([0.0, 1.0, 1.0j]) + 1j * eps * ones
    elif cf.a <= 1.0 + 1e-9:  # a is at least 1 within the margin of in_closure_F3
        # boundary case: the real part of the canonical form has a
        # double eigenvalue, so the entrywise i*eps perturbation is
        # already irreducible with the rank-one criterion intact
        B = np.array([[0, 2, 0], [0, 0, 0], [0, 0, 1]], dtype=complex) + 1j * eps * ones
    else:
        at = cf.a
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
