"""Core complex-matrix operations.

Everything downstream is built from the pieces in this module: the
Hermitian real/imaginary decomposition A = Re(A) + i*Im(A), the rotated
Hermitian family A(theta) = Re(e^{-i theta} A) and its derivative
A'(theta) = Im(e^{-i theta} A), the quadratic-form map x -> x*Ax, a
phase-normalized LAPACK eigensolver for Hermitian matrices, the
per-matrix :class:`Pencil` that validates A once and solves the family
A(theta) over angle arrays, subspace compressions Q*BQ, and a 3x3
complex Schur triangularization.

All matrices are dense ``numpy`` arrays of ``complex128``.  Tolerances
are relative to the Frobenius norm unless noted otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError

# Hermitian symmetry defect allowed on inputs, relative to ||H||_F.
HERMITIAN_RTOL = 1e-13
# Orthonormality defect allowed on basis blocks.
ORTHONORMAL_TOL = 1e-12
# Unit-norm defect allowed on vectors fed to f_eval.
UNIT_NORM_TOL = 1e-10
# Relative width of an eigenvalue cluster (single source of truth for the
# whole package: multiplicities, pre-image dimensions, crossing detection).
CLUSTER_RTOL = 1e-8
# schur3: allowed sub-diagonal residual relative to ||A||_F.
SCHUR_SUBDIAG_RTOL = 1e-10


def as_matrix(A) -> np.ndarray:
    """Coerce to a square finite complex128 matrix."""
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M.view(np.float64))):
        raise PreconditionError("matrix entries must be finite")
    return M


def fro(A) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(A)))


def re_part(A) -> np.ndarray:
    """Hermitian real part (A + A*)/2."""
    A = as_matrix(A)
    return (A + A.conj().T) / 2.0


def im_part(A) -> np.ndarray:
    """Hermitian imaginary part (A - A*)/(2i)."""
    A = as_matrix(A)
    return (A - A.conj().T) / 2.0j


def rotate(A, theta: float) -> np.ndarray:
    """Rotated Hermitian part cos(theta)*Re(A) + sin(theta)*Im(A)."""
    return Pencil(A).rotate(theta)


def rotate_prime(A, theta: float) -> np.ndarray:
    """Derivative of ``rotate`` in theta: -sin(theta)*Re(A) + cos(theta)*Im(A)."""
    return Pencil(A).prime(theta)


def rotate_stack(A, thetas) -> np.ndarray:
    """Stack of rotated parts, shape (len(thetas), d, d).

    Vectorized companion of :func:`rotate` for angle grids.
    """
    return Pencil(A).rotate(np.atleast_1d(thetas))


def check_hermitian(H, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Validate Hermitian symmetry, then symmetrize exactly."""
    H = as_matrix(H)
    scale = max(fro(H), 1.0)
    if fro(H - H.conj().T) > rtol * scale * 2.0:
        raise PreconditionError("matrix is not Hermitian within tolerance")
    return (H + H.conj().T) / 2.0


def f_eval(A, x) -> complex:
    """Quadratic form x*Ax on a unit vector (a point of the numerical range)."""
    A = as_matrix(A)
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.shape[0] != A.shape[0]:
        raise PreconditionError("vector length does not match matrix dimension")
    nrm = np.linalg.norm(x)
    if abs(nrm - 1.0) > UNIT_NORM_TOL:
        raise PreconditionError(f"x must be a unit vector (|x| = {nrm!r})")
    return complex(x.conj() @ A @ x)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # unitary, column k pairs with eigenvalue k


def _fix_phases(V: np.ndarray) -> np.ndarray:
    """Make the largest-modulus component of each column real positive;
    moduli within a relative 1e-12 of the largest tie, and the first wins.

    Works on a single matrix or on a stack of them (last two axes).
    """
    mod = np.abs(V)
    tied = mod >= (1.0 - 1e-12) * mod.max(axis=-2, keepdims=True)
    # the pivots from the stack seen as (n, d, k): cheaper than take_along_axis
    S = V.reshape(-1, *V.shape[-2:])
    piv = S[np.arange(S.shape[0])[:, None], tied.argmax(axis=-2).reshape(S.shape[0], -1), np.arange(S.shape[-1])]
    piv = piv.reshape(*V.shape[:-2], 1, V.shape[-1])
    a = np.abs(piv)
    return V * np.divide(piv.conj(), a, out=np.ones_like(piv), where=a > 0.0)


def eig_hermitian(H) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix (LAPACK ``eigh``).

    Deterministic: eigenvalues ascending, and eigenvector phases fixed by
    making the largest-modulus component of each column real positive.
    This is the validated entry point for matrices from outside.  The
    package fixes phases on the vectors it returns only (pre-image bases,
    face basis blocks, ``extreme_points`` reports); its internal solves
    of matrices that are Hermitian by construction call LAPACK directly
    and use the vectors as LAPACK gives them.
    """
    w, V = np.linalg.eigh(check_hermitian(H))
    return SpectralDecomposition(w, _fix_phases(V))


class Pencil:
    """The Hermitian family A(theta) of one matrix, validated once.

    Caches R = Re(A), S = Im(A), ||A||_F, the tolerance scale
    ``scale = 1 + ||A||_F`` that every relative tolerance of the package
    multiplies, and the cluster tolerance ``ctol = CLUSTER_RTOL * scale``.
    Angle arguments may be scalars or arrays; array angles give stacks
    solved in one LAPACK call, with results indexed by angle along the
    leading axis.

    Uniform angle grids are built and solved in one place,
    :meth:`grid`.  It uses the half-turn identity
    A(theta + pi) = -A(theta): on an even grid only the first half of the
    angles is solved, and the eigenvalues at theta + pi are the negated
    eigenvalues at theta in reverse order, with the top eigenvector the
    bottom one at theta.  Each grid size is solved once per Pencil and
    kept, so every query that reaches W(A) through a grid of the same size
    shares one stacked solve.  Public functions accept a matrix or a
    Pencil (:func:`as_pencil`); passing one Pencil down a chain of calls
    shares its grids.

    R, S and every cos(theta) R + sin(theta) S are Hermitian by
    construction: their (i, j) and (j, i) entries are conjugate in
    floating point, so :func:`check_hermitian` and its symmetrization
    would change no value.  The solves here therefore call LAPACK
    directly.  Their eigenvectors carry the phases LAPACK gives them:
    phases are fixed (:func:`_fix_phases`) on returned vectors only, such
    as the basis blocks of :func:`~numrange.extremal.face`.
    """

    def __init__(self, A):
        self.A = as_matrix(A)
        self.d = self.A.shape[0]
        # re_part and im_part, without validating A again
        Ah = self.A.conj().T
        self.R = (self.A + Ah) / 2.0
        self.S = (self.A - Ah) / 2.0j
        self.norm = fro(self.A)
        self.scale = 1.0 + self.norm
        self.ctol = CLUSTER_RTOL * self.scale
        self._grids: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray | None]] = {}

    def grid(self, N: int, vectors: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """A(theta) solved on the uniform grid of N angles on [0, 2 pi).

        Returns ``(thetas, w, x)``: the angles, the ascending eigenvalues w
        at every angle, shape (N, d), and with ``vectors`` the top
        eigenvectors x, shape (N, d), else None.  For even N only the
        first N/2 angles are solved: at theta_k + pi the eigenvalues are
        ``-w[k, ::-1]`` and the top eigenvector is the bottom one at
        theta_k, because A(theta + pi) = -A(theta).  Odd N solves every
        angle.  The result is kept per N, read-only; a grid solved with
        vectors also serves later eigenvalue-only requests.
        """
        kept = self._grids.get(N)
        if kept is not None and (kept[2] is not None or not vectors):
            return kept
        thetas = np.linspace(0.0, 2.0 * np.pi, N, endpoint=False)
        even = N % 2 == 0
        solved = thetas[: N // 2] if even else thetas
        x = None
        if vectors:
            w, V = self.eigh(solved)
            x = np.concatenate([V[..., -1], V[..., 0]] if even else [V[..., -1]])
        else:
            w = np.linalg.eigvalsh(self.rotate(solved))
        if even:
            w = np.concatenate([w, -w[:, ::-1]])
        # every caller shares the kept arrays
        for a in (thetas, w, x):
            if a is not None:
                a.flags.writeable = False
        self._grids[N] = (thetas, w, x)
        return self._grids[N]

    def rotate(self, thetas) -> np.ndarray:
        """A(theta) = cos(theta) R + sin(theta) S."""
        t = np.asarray(thetas, dtype=float)[..., None, None]
        return np.cos(t) * self.R + np.sin(t) * self.S

    def prime(self, thetas) -> np.ndarray:
        """A'(theta) = -sin(theta) R + cos(theta) S."""
        t = np.asarray(thetas, dtype=float)[..., None, None]
        return -np.sin(t) * self.R + np.cos(t) * self.S

    def eigh(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors of A(theta)."""
        return np.linalg.eigh(self.rotate(thetas))

    def support(self, thetas) -> np.ndarray:
        """Support function of W(A): the top eigenvalue of A(theta)."""
        return np.linalg.eigvalsh(self.rotate(thetas))[..., -1]

    @staticmethod
    def top_gap(w: np.ndarray) -> np.ndarray:
        """Gap between the two largest of ascending eigenvalues (last axis);
        inf for 1x1 matrices, which have no second eigenvalue."""
        if w.shape[-1] == 1:
            return np.full(w.shape[:-1], np.inf)
        return w[..., -1] - w[..., -2]

    def slope(self, thetas, x=None) -> np.ndarray:
        """Slope x*A'(theta)x of the top eigenvalue curve, x the top
        eigenvector (the given top eigenvectors ``x`` when passed)."""
        t = np.asarray(thetas, dtype=float)
        if x is None:
            x = self.eigh(t)[1][..., -1]
        xc = x.conj()
        xr = (xc * (x @ self.R.T)).sum(axis=-1).real
        xs = (xc * (x @ self.S.T)).sum(axis=-1).real
        return -np.sin(t) * xr + np.cos(t) * xs

    def curvature(self, thetas, eig, k: int = -1) -> np.ndarray:
        """Second derivative of the eigenvalue curve of index k (the top
        one by default) from the :meth:`eigh` result ``eig`` at the same
        angles:

            lambda_k'' = -lambda_k + 2 sum_{j != k} |v_j* A'(theta) v_k|^2 / (lambda_k - lambda_j)

        (A''(theta) = -A(theta), plus second-order perturbation over the
        other eigenpairs).  Defined only where lambda_k is simple; :meth:`jet`
        checks the top gap against ``ctol`` first.
        """
        w, V = eig
        k %= w.shape[-1]
        y = V.conj().swapaxes(-1, -2) @ (self.prime(thetas) @ V[..., k : k + 1])
        others = np.arange(w.shape[-1]) != k
        c = np.abs(y[..., others, 0]) ** 2
        return -w[..., k] + 2.0 * (c / (w[..., k : k + 1] - w[..., others])).sum(axis=-1)

    def jet(self, thetas, eig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The support curve h and its derivatives h', h'' at an angle array,
        from the :meth:`eigh` result ``eig`` at the same angles.

        h' is the :meth:`slope` on (1, d) rows, so each angle is its own
        product, with the bits of a one-angle call; h'' is the
        :meth:`curvature`, and nan where the top gap is at most ``ctol``
        (a clustered top eigenvalue has no second derivative).
        """
        t = np.asarray(thetas, dtype=float)
        w, V = eig
        h1 = self.slope(t[..., None], V[..., None, :, -1])[..., 0]
        simple = self.top_gap(w) > self.ctol
        if simple.all():
            h2 = self.curvature(t, eig)
        else:
            h2 = np.full(t.shape, np.nan)
            h2[simple] = self.curvature(t[simple], (w[simple], V[simple]))
        return w[..., -1], h1, h2

    def reduced(self, thetas, eig, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reduced pencil of the top k eigenvalues of A(theta).

        Returns (M0, M1, M2), k x k Hermitian (stacked along the leading
        axis for an angle array), such that the eigenvalues of

            M(delta) = M0 + delta M1 + (delta^2 / 2) M2

        follow the top k eigenvalue curves of A(theta + delta) through
        crossings among them (Kato, *Perturbation Theory for Linear
        Operators*, ch. II).  With Q the top k eigenvectors of the
        :meth:`eigh` result ``eig``, lambda their mean eigenvalue and R the
        inverse of lambda - A(theta) on the other eigenvectors:
        M0 = Q*A Q, M1 = Q*A'Q and M2 = -M0 + 2 Q*A' R A'Q.  The error is
        O(delta^3) plus O(delta^2 s / g^2), with s the spread of the top k
        eigenvalues and g their gap to the rest, so the model is meant for
        a cluster (s much below g).
        """
        w, V = eig
        Q, P = V[..., -k:], V[..., :-k]
        B = self.prime(thetas) @ Q
        M0 = w[..., -k:, None] * np.eye(k, dtype=complex)
        M1 = Q.conj().swapaxes(-1, -2) @ B
        C = P.conj().swapaxes(-1, -2) @ B
        gaps = np.mean(w[..., -k:], axis=-1, keepdims=True) - w[..., :-k]
        M2 = -M0 + 2.0 * C.conj().swapaxes(-1, -2) @ (C / gaps[..., None])
        return M0, (M1 + M1.conj().swapaxes(-1, -2)) / 2.0, (M2 + M2.conj().swapaxes(-1, -2)) / 2.0

    def segments(self, thetas, tol: float, eig=None) -> tuple[np.ndarray, list, list, list]:
        """Faces of W(A) at an angle array, grouping eigenvalues within ``tol``.

        Returns ``(support, Qm, mu, W)``: the top eigenvalues, and per angle
        the top cluster Qm and the ascending eigenpairs mu, W of A'(theta)
        compressed onto it; the face is e^{i theta}(support + i [mu[0],
        mu[-1]]).  The angles are solved in one stacked call, or read from
        the :meth:`eigh` result ``eig``; clusters of one size are compressed
        and solved together, a 1-column cluster without a solve.  The
        phases of Qm (which fix the frame of the compression) and of W are
        fixed (:func:`_fix_phases`).
        """
        t = np.asarray(thetas, dtype=float).reshape(-1)
        w, V = self.eigh(t) if eig is None else eig
        k = np.sum(w >= w[:, -1:] - tol, axis=1)
        Qm, mu, W = [None] * t.size, [None] * t.size, [None] * t.size
        for size in sorted(set(k.tolist())):
            rows = np.nonzero(k == size)[0]
            Q = _fix_phases(V[rows, :, -size:])
            C = Q.conj().swapaxes(-1, -2) @ self.prime(t[rows]) @ Q
            if size == 1:
                m, Y = C.real[:, 0], np.ones((rows.size, 1, 1), dtype=complex)
            else:
                m, Y = np.linalg.eigh((C + C.conj().swapaxes(-1, -2)) / 2.0)
                Y = _fix_phases(Y)
            for i, j in enumerate(rows.tolist()):
                Qm[j], mu[j], W[j] = Q[i], m[i], Y[i]
        return w[:, -1], Qm, mu, W

    def faces(self, thetas, tol: float, eig=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Face segments at an angle array: (support, mu_lo, mu_hi).

        Where the top eigenvalue is simple within ``tol`` the face is one
        touch point and mu_lo = mu_hi is the top-curve slope.  ``eig``
        passes the ascending eigenvalues and the top eigenvectors at the
        same angles when the caller has them, as :meth:`grid` gives them;
        the clustered angles are then solved in one stacked call of
        :meth:`segments`.  With all the eigenvectors, as :meth:`eigh` gives
        them, a clustered face is read from them without another solve.
        """
        t = np.asarray(thetas, dtype=float)
        if eig is None:
            eig = self.eigh(t)
        w, x = eig
        full = x.ndim == w.ndim + 1
        sup = w[:, -1].copy()
        lo = self.slope(t, x[..., -1] if full else x)
        hi = lo.copy()
        j = np.nonzero(self.top_gap(w) <= tol)[0]
        if j.size:
            sup[j], _, mu, _ = self.segments(t[j], tol, (w[j], x[j]) if full else None)
            lo[j], hi[j] = [m[0] for m in mu], [m[-1] for m in mu]
        return sup, lo, hi


def as_pencil(A) -> Pencil:
    """The Pencil of A; a Pencil is returned as it is, keeping its scans."""
    return A if isinstance(A, Pencil) else Pencil(A)


def compress(B, Q) -> np.ndarray:
    """Compression Q*BQ of B onto the column span of the orthonormal block Q."""
    B = as_matrix(B)
    Q = np.asarray(Q, dtype=np.complex128)
    if Q.ndim == 1:
        Q = Q[:, None]
    if Q.shape[0] != B.shape[0] or Q.shape[1] > Q.shape[0]:
        raise PreconditionError(f"basis block has invalid shape {Q.shape}")
    gram = Q.conj().T @ Q
    if np.max(np.abs(gram - np.eye(Q.shape[1]))) > ORTHONORMAL_TOL * 10:
        raise PreconditionError("basis columns are not orthonormal")
    return Q.conj().T @ B @ Q


# ---------------------------------------------------------------------------
# 3x3 Schur triangularization
# ---------------------------------------------------------------------------


def cubic_roots(c2: complex, c1: complex, c0: complex) -> np.ndarray:
    """Roots of z^3 + c2 z^2 + c1 z + c0 (complex coefficients).

    Cardano on the depressed cubic, with a dedicated near-multiple-root
    branch: when the discriminant is tiny the simple root is located by
    Newton and the remaining pair is taken from the deflated quadratic,
    which keeps double roots accurate to machine precision instead of
    the sqrt(eps) typical of iterative fallbacks.
    """
    c2, c1, c0 = complex(c2), complex(c1), complex(c0)
    shift = c2 / 3.0
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2**3 / 27.0 - c2 * c1 / 3.0 + c0
    s = max(np.sqrt(abs(p)), abs(q) ** (1.0 / 3.0))
    # scale of the original coefficients: p and q of a (near-)triple root
    # are pure rounding noise relative to it, not to the depressed scale
    s0 = max(abs(c2), abs(c1) ** 0.5, abs(c0) ** (1.0 / 3.0), s)
    if s == 0.0:
        return np.full(3, -shift, dtype=np.complex128)

    disc = -4.0 * p**3 - 27.0 * q * q

    def depressed(t):
        return (t * t + p) * t + q

    if abs(disc) < 1e-12 * s**6 or s <= 1e-5 * s0:
        if abs(p) <= 1e-12 * s0 * s0 and abs(q) <= 1e-12 * s0**3:
            roots = np.full(3, 0.0, dtype=np.complex128)
        else:
            t1 = 3.0 * q / p
            for _ in range(8):
                f = depressed(t1)
                fp = 3.0 * t1 * t1 + p
                if abs(fp) < 1e-14 * s * s:
                    break
                step = f / fp
                t1 -= step
                if abs(step) < 1e-17 * s:
                    break
            # deflate: t^2 + t1 t + (p + t1^2)
            b, c = t1, p + t1 * t1
            dq = b * b - 4.0 * c
            if abs(dq) <= 1e-13 * (abs(b) ** 2 + 4.0 * abs(c)):
                dq = 0.0  # collapse the spurious splitting of a double root
            sq = np.sqrt(dq + 0j)
            ra, rb = (-b + sq) / 2.0, (-b - sq) / 2.0
            big = ra if abs(ra) >= abs(rb) else rb
            small = c / big if abs(big) > 0 else -b / 2.0
            roots = np.array([t1, big, small], dtype=np.complex128)
    else:
        half = -q / 2.0
        r = np.sqrt(half * half + p**3 / 27.0 + 0j)
        u3 = half + r if abs(half + r) >= abs(half - r) else half - r
        u = u3 ** (1.0 / 3.0)
        v = -p / (3.0 * u)
        w = np.exp(2j * np.pi / 3.0)
        roots = np.array([u + v, u * w + v / w, u / w + v * w], dtype=np.complex128)

    z = roots - shift

    def full(t):
        return ((t + c2) * t + c1) * t + c0

    for k in range(3):
        for _ in range(2):
            fp = (3.0 * z[k] + 2.0 * c2) * z[k] + c1
            if abs(fp) < 1e-8 * s0 * s0:
                break  # multiple root: a Newton step would be noise/noise
            z[k] -= full(z[k]) / fp
    return z


def char_poly_coeffs3(A: np.ndarray) -> tuple[complex, complex, complex]:
    """Coefficients (c2, c1, c0) of det(z I - A) = z^3 + c2 z^2 + c1 z + c0."""
    tr = np.trace(A)
    minors = (
        A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1]
        + A[0, 0] * A[2, 2] - A[0, 2] * A[2, 0]
        + A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    )
    det = (
        A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
        - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
        + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0])
    )
    return -complex(tr), complex(minors), -complex(det)


def eigvals3(A) -> np.ndarray:
    """Eigenvalues of a 3x3 matrix via the characteristic cubic."""
    A = as_matrix(A)
    if A.shape[0] != 3:
        raise PreconditionError("eigvals3 requires a 3x3 matrix")
    c2, c1, c0 = char_poly_coeffs3(A)
    z = cubic_roots(c2, c1, c0)
    order = np.lexsort((z.imag, z.real))
    return z[order]


_CROSS_I = np.array([1, 2, 0])
_CROSS_J = np.array([2, 0, 1])


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product a x b of two 3-vectors, written out: ``np.cross``
    normalizes its axes on every call.  The same array products as
    ``np.cross``, so the result is bit-identical to it."""
    return a[_CROSS_I] * b[_CROSS_J] - a[_CROSS_J] * b[_CROSS_I]


def _null3(M: np.ndarray) -> np.ndarray:
    """Unit vector v with M v ~ 0 for a (near-)singular 3x3 matrix."""
    rows = [M[i, :] for i in range(3)]
    best, best_norm = None, -1.0
    for i in range(3):
        for j in range(i + 1, 3):
            c = _cross3(rows[i], rows[j])
            n = np.linalg.norm(c)
            if n > best_norm:
                best, best_norm = c, n
    scale = max(fro(M), 1e-300)
    if best_norm > 1e-13 * scale * scale:
        return best / best_norm
    # rank <= 1: any vector annihilated by the dominant row
    norms = [np.linalg.norm(r) for r in rows]
    i = int(np.argmax(norms))
    if norms[i] <= 1e-300:
        return np.array([1.0, 0.0, 0.0], dtype=np.complex128)
    k = int(np.argmin(np.abs(rows[i])))
    c = _cross3(rows[i], np.eye(3)[k])
    return c / np.linalg.norm(c)


def _householder_to_e1(v: np.ndarray) -> np.ndarray:
    """Hermitian unitary H with H v proportional to e_1 (v a unit vector)."""
    d = v.shape[0]
    a = v[0]
    phase = a / abs(a) if abs(a) > 0 else 1.0
    w = v.astype(np.complex128).copy()
    w[0] += phase
    H = np.eye(d, dtype=np.complex128) - 2.0 * np.outer(w, w.conj()) / (w.conj() @ w)
    return H


def schur3(A) -> tuple[np.ndarray, np.ndarray]:
    """Unitary U and upper triangular T with U*AU = T, for 3x3 A.

    Eigenvalues come from :func:`cubic_roots`; two Householder
    deflations triangularize.  Defective matrices triangularize too.
    Already-triangular input returns (I, A) unchanged.
    """
    A = as_matrix(A)
    if A.shape[0] != 3:
        raise PreconditionError("schur3 requires a 3x3 matrix")
    scale = max(fro(A), 1e-300)
    lower = np.array([A[1, 0], A[2, 0], A[2, 1]])
    if np.linalg.norm(lower) <= 1e-14 * scale:
        return np.eye(3, dtype=np.complex128), A.copy()

    lam = eigvals3(A)
    v = _null3(A - lam[0] * np.eye(3))
    H1 = _householder_to_e1(v)
    A1 = H1 @ A @ H1

    B = A1[1:, 1:]
    # eigenvalues of the 2x2 block by a stable quadratic formula
    tr, det = B[0, 0] + B[1, 1], B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0]
    sq = np.sqrt(tr * tr - 4.0 * det + 0j)
    mu = (tr + sq) / 2.0 if abs(tr + sq) >= abs(tr - sq) else (tr - sq) / 2.0
    N = B - mu * np.eye(2)
    cand = [np.array([N[0, 1], -N[0, 0]]), np.array([N[1, 1], -N[1, 0]])]
    w = max(cand, key=np.linalg.norm)
    nw = np.linalg.norm(w)
    w = w / nw if nw > 1e-300 else np.array([1.0, 0.0], dtype=np.complex128)
    H2 = np.eye(3, dtype=np.complex128)
    H2[1:, 1:] = _householder_to_e1(w)

    U = H1 @ H2
    T = U.conj().T @ A @ U
    sub = np.array([T[1, 0], T[2, 0], T[2, 1]])
    if np.linalg.norm(sub) > SCHUR_SUBDIAG_RTOL * scale:
        raise NumericalError("schur3 failed to triangularize within tolerance")
    T = np.triu(T)
    return U, T
