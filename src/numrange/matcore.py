"""Core complex-matrix operations.

Everything downstream is built from the pieces in this module: the
Hermitian real/imaginary decomposition A = Re(A) + i*Im(A), the rotated
Hermitian family A(theta) = Re(e^{-i theta} A) and its derivative
A'(theta) = Im(e^{-i theta} A), the quadratic-form map x -> x*Ax, the
phase normalization of returned eigenvectors, the per-matrix
:class:`Pencil` that validates A once and solves the family A(theta)
over angle arrays, subspace compressions Q*BQ, and a 3x3 complex Schur
triangularization by LAPACK eigenvectors (:func:`schur3`).  Every
spectrum is LAPACK's; a possible multiple root is read as the mean of
its eigenvalue cluster.  :func:`_map`, the package's only concurrency, runs
independent pieces of a large solve on one thread per CPU of the
process's affinity mask; the pieces write disjoint slices, so every
result has the same bits for any worker count.

All matrices are dense ``numpy`` arrays of ``complex128``.  Tolerances
are relative to the Frobenius norm unless noted otherwise.
"""

from __future__ import annotations

import functools
import math
import os
import threading

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
# Rounding allowance of a decision on the cell bounds of Pencil._cells,
# relative to Pencil.scale.
BOUND_RTOL = 1e-12
# Pencil._scan solves every angle left in the table at once, instead of
# halving the flagged cells, where their count times d^3 (summed over the
# pencils) is at most this.  LAPACK solves a 3x3 matrix in about 1 us and
# a 32x32 one in about 50 us, while a round of cell bounds costs about
# 50 us; the choice moves no answer.
_FILL_COST = 32768
# Pencil.eigh splits a stack whose n d^3 is at least this across the
# workers of _map, in pieces of about _PIECE complex entries, so that the
# memory each worker thread takes from its own malloc arena stays small.
# Every points and shapes3 stack is below it; a 512-angle d = 8 grid,
# 2^18, is above.
_SPLIT_WORK = 2**17
_PIECE = 2**15
# Threads of the _map pool: the CPUs of the affinity mask (taskset limits
# them), os.cpu_count() where the OS has no mask.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None
_pool_lock = threading.Lock()
# schur3: allowed sub-diagonal residual relative to ||A||_F.
SCHUR_SUBDIAG_RTOL = 1e-10
# Radius, relative to the matrix scale, of the eigenvalue clusters whose
# mean stands for a possible multiple root (schur3, normal_eigenvalues).
_MULTIPLE_ROOT_RTOL = 1e-4


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


class Pencil:
    """The Hermitian family A(theta) of one matrix, validated once.

    Caches R = Re(A), S = Im(A), ||A||_F, the tolerance scale
    ``scale = 1 + ||A||_F`` that every relative tolerance of the package
    multiplies, and the cluster tolerance ``ctol = CLUSTER_RTOL * scale``.
    Angle arguments may be scalars or arrays; array angles give stacks
    solved in one LAPACK call, with results indexed by angle along the
    leading axis.

    The angles of the uniform grid of N angles on [0, 2 pi) are solved in
    one place, a table per N that fills as angles are asked for.  It uses
    the half-turn identity A(theta + pi) = -A(theta): on an even grid
    only the first half of the angles is solved, and the eigenvalues at
    theta + pi are the negated eigenvalues at theta in reverse order, with
    the top eigenvector the bottom one at theta.  :meth:`grid` solves the
    whole grid with its eigenvectors, and :meth:`grid_faces` reads every
    face of it from them; :meth:`_scan` solves only the cells of the grid
    that a question needs, bounding the others (:meth:`_cells`).  Each
    angle is solved once per Pencil and kept, so every query that reaches
    W(A) through a grid of the same size shares its solves.  Public
    functions accept a matrix or a Pencil (:func:`as_pencil`); passing one
    Pencil down a chain of calls shares its tables.

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
        # the Hermitian parts Re(A) and Im(A)
        Ah = self.A.conj().T
        self.R = (self.A + Ah) / 2.0
        self.S = (self.A - Ah) / 2.0j
        self.norm = fro(self.A)
        self.scale = 1.0 + self.norm
        self.ctol = CLUSTER_RTOL * self.scale
        # per grid size N: the ascending eigenvalues at the angles of the
        # first half of the grid (every angle for odd N), and which of
        # them are solved
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # per grid size N solved by grid(N): the eigenvectors at the angles
        # of the table rows, read by _grid_eig
        self._vectors: dict[int, np.ndarray] = {}
        self._extent: tuple[float, float, float, float] | None = None
        self._L0 = 0.0
        # answers to per-matrix questions of other modules, by the function
        # that solved them (kipp3's spectrum, classification, canonical form)
        self._kept: dict = {}

    def grid(self, N: int) -> tuple[np.ndarray, np.ndarray]:
        """A(theta) solved on the uniform grid of N angles on [0, 2 pi).

        Returns ``(thetas, w)``: the angles and the ascending eigenvalues
        at every angle, shape (N, d).  For even N only the first N/2
        angles are solved: at theta_k + pi the eigenvalues are
        ``-w[k, ::-1]``, because A(theta + pi) = -A(theta).  Odd N solves
        every angle.  The solve is :meth:`eigh`, once per N: its
        eigenvalues go to the table that :meth:`_scan` reads, and its
        eigenvectors are kept read-only for the solved angles only (no
        copy for the second half), where :meth:`_grid_eig` and
        :meth:`grid_faces` read them.

        Two callers need every angle: the N-vertex polygon of
        :func:`~numrange.rangegeo.boundary_polygon` and the face endpoints
        of :func:`~numrange.extremal.extreme_points`, both through
        :meth:`grid_faces`.  Every other scan goes through :meth:`_scan`.
        """
        table, solved = self._table(N)
        if N not in self._vectors:
            w, V = self.eigh(_grid_angles(N)[: len(solved)])
            table[:], solved[:] = w, True
            V.flags.writeable = False
            self._vectors[N] = V
        return _grid_angles(N), self._at(N, np.arange(len(solved)))

    def _grid_eig(self, N: int, k) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors of A(theta) at the integer
        indices ``k`` of the N-angle grid, taken mod N, as :meth:`eigh`
        gives them, read from what :meth:`grid` kept.  An index k in the
        second half of an even grid reads the angle half a turn earlier:
        the eigenvalues are ``-w[k - N/2, ::-1]`` and the eigenvectors
        ``V[k - N/2][..., ::-1]``.  Returns copies."""
        V = self._vectors[N]
        rows = len(V)
        k = np.asarray(k, dtype=int) % N
        flip = k >= rows
        r = np.where(flip, k - rows, k)
        w, X = self._table(N)[0][r], V[r]
        if flip.any():
            w[flip], X[flip] = -w[flip, ::-1], X[flip, :, ::-1]
        return w, X

    def _table(self, N: int) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvalue table of the N-angle grid and its solved mask."""
        table = self._tables.get(N)
        if table is None:
            rows = N // 2 if N % 2 == 0 else N
            table = self._tables[N] = (np.empty((rows, self.d)), np.zeros(rows, dtype=bool))
        return table

    def _solve(self, N: int, rows: np.ndarray) -> None:
        """Solve the table rows of the N-angle grid among ``rows`` that are
        not solved yet, in one stacked call.  LAPACK solves each matrix of a
        stack on its own, so a row has the same bits however it is batched."""
        table, solved = self._table(N)
        rows = rows[~solved[rows]]
        if rows.size:
            table[rows] = np.linalg.eigvalsh(self.rotate(_grid_angles(N)[rows]))
            solved[rows] = True

    def _at(self, N: int, rows: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues at the solved table ``rows`` of the N-angle
        grid, followed for even N by those half a turn later."""
        table, solved = self._table(N)
        w = table if rows.size == solved.size else table[rows]
        return np.concatenate([w, -w[:, ::-1]]) if len(table) < N else w.copy()

    def _scan(self, N: int, split, *others: "Pencil", argmax: bool = False) -> tuple[np.ndarray, list]:
        """Solve the cells of the N-angle grid that a question needs.

        The samples are the solved angles of the grid (at least 16 evenly
        spread ones, 0 among them); cell k runs from sample k to sample
        k + 1, the last one to 2 pi.  ``split(t, w, *w_others)`` gets the
        sorted sample angles and the ascending eigenvalues there of this
        pencil and of each of ``others`` (solved at the same angles), and
        flags the cells whose bounds (:meth:`_cells`) leave the question
        open.  Each round halves every flagged cell wider than one grid
        step, solving the new angles of each pencil in one stacked
        ``eigvalsh`` call (with the half-turn identity, a cell and the
        one opposite share a solve), until no flagged cell is wider than
        one grid step.  So a question answered on the cells never solves
        more angles than the whole grid has.  Where the angles left in the
        table are cheaper to solve than the rounds of halving
        (``_FILL_COST``, in angles times d^3), the round solves all of
        them, and so does the first round of an ``argmax`` question,
        which halves its cells down to one grid step about the maximum
        anyway: a small matrix takes one or two rounds.  Which angles are
        solved changes only the cost of an answer.

        Returns ``(t, ws)``: the samples and the list of eigenvalue arrays
        there, this pencil first.  A flagged cell left in them is one grid
        step wide, an open cell no bound decided.
        """
        pencils = (self, *others)
        done = self._table(N)[1]
        rows = len(done)
        half = rows < N
        cost = sum(p.d**3 for p in pencils)
        if argmax and rows * cost <= _FILL_COST:
            new = np.arange(rows)
        else:
            first = 8 if half else 16
            new = np.unique(np.arange(first) * rows // first)
        thetas = _grid_angles(N)
        while True:
            self._solve(N, new)
            solved = np.nonzero(done)[0]
            idx = np.concatenate([solved, solved + rows]) if half else solved
            for p in others:
                p._solve(N, solved)
            t = thetas[idx]
            ws = [p._at(N, solved) for p in pencils]
            if solved.size == rows:
                return t, ws
            width = np.append(idx[1:], N) - idx
            cut = np.asarray(split(t, *ws), dtype=bool) & (width > 1)
            if not cut.any():
                return t, ws
            if (rows - solved.size) * cost <= _FILL_COST:
                new = np.nonzero(~done)[0]
            else:
                new = np.unique((idx[cut] + width[cut] // 2) % rows)

    def _spectral_extent(self) -> tuple[float, float, float, float]:
        """Smallest and largest eigenvalues of Re A and of Im A, kept.

        A(0) = Re A and A(pi / 2) = Im A are the angles 0 and N/4 of a
        grid with N divisible by 4, and among the first samples of every
        :meth:`_scan`; only without such a table are they solved here."""
        if self._extent is None:
            grids = (t[[0, N // 4]] for N, (t, ok) in self._tables.items() if N % 4 == 0 and ok[0] and ok[N // 4])
            w = next(grids, None)
            if w is None:
                w = np.linalg.eigvalsh(np.stack([self.R, self.S]))
            r0, r1, s0, s1 = self._extent = (float(w[0, 0]), float(w[0, -1]), float(w[1, 0]), float(w[1, -1]))
            self._L0 = math.hypot((r1 - r0) / 2.0, (s1 - s0) / 2.0)
        return self._extent

    def _lipschitz(self, p=None):
        """Lipschitz constant hypot(|Re A - Re p|_2, |Im A - Im p|_2) of the
        support function of W(A - p) (broadcast over an array p): its slope
        is x*(A - p)'(theta)x for a top eigenvector x (Weyl), and
        (A - p)'(theta) = -sin(theta) (Re A - Re p) + cos(theta) (Im A - Im p).
        Without p, the smallest of them, at the middle of the spectra of
        Re A and Im A: the constant of every eigenvalue curve up to a
        shift c(theta) common to all of them.
        """
        r0, r1, s0, s1 = self._spectral_extent()
        if p is None:
            return self._L0
        p = np.asarray(p, dtype=complex)
        return np.hypot(np.maximum(r1 - p.real, p.real - r0), np.maximum(s1 - p.imag, p.imag - s0))

    def _cells(self, t: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bounds of the support function h over the cells of a :meth:`_scan`.

        ``t`` are the sorted sample angles on [0, 2 pi) and ``w`` the
        ascending eigenvalues there; cell k is [t_k, t_k + width_k].
        Returns ``(width, corner, sag)`` such that on cell k, with
        u = e^{i theta},

            <corner_k, u> - sag_k <= h(theta) <= <corner_k, u>.

        The upper bound holds for every convex set, whose h + h'' is a
        nonnegative measure: on an arc shorter than pi, h lies below the
        sinusoid through its end values, the support function of the
        corner where the two supporting lines meet.  The lower bound is
        Kato's: where the top eigenvalue is simple, h'' = -h + 2 sum_j
        |v_j* A' v|^2 / (h - lambda_j) <= -h + 2 L0^2 / gamma, with gamma
        the top gap and L0 the smallest :meth:`_lipschitz` constant (a
        scalar shift of A' leaves the sum alone).  Every eigenvalue curve
        is L0-Lipschitz up to a common shift (Weyl), so the gap is
        2 L0-Lipschitz and at least gamma_lo = (gamma_a + gamma_b) / 2 -
        L0 width on the cell.  Then h - K, K = 2 L0^2 / gamma_lo, lies
        above the sinusoid through its end values, which gives
        sag = K (sec(width / 2) - 1); inf where gamma_lo is not positive.
        """
        width = np.append(t[1:], t[0] + 2.0 * np.pi) - t
        h = w[:, -1]
        corner = np.exp(1j * t) * (h + 1j * (_next(h) - h * np.cos(width)) / np.sin(width))
        L0 = self._lipschitz()
        gap = self.top_gap(w)
        gap_lo = (gap + _next(gap)) / 2.0 - L0 * width
        sag = np.full(t.size, np.inf)
        ok = gap_lo > 0.0
        sag[ok] = 2.0 * L0**2 / gap_lo[ok] * (1.0 / np.cos(width[ok] / 2.0) - 1.0)
        return width, corner, sag

    def rotate(self, thetas) -> np.ndarray:
        """A(theta) = cos(theta) R + sin(theta) S."""
        t = np.asarray(thetas, dtype=float)[..., None, None]
        return np.cos(t) * self.R + np.sin(t) * self.S

    def prime(self, thetas) -> np.ndarray:
        """A'(theta) = -sin(theta) R + cos(theta) S."""
        t = np.asarray(thetas, dtype=float)[..., None, None]
        return -np.sin(t) * self.R + np.cos(t) * self.S

    def eigh(self, thetas) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors of A(theta).

        A stack whose n d^3 is at least ``_SPLIT_WORK`` is built and solved
        in contiguous pieces on the workers of :func:`_map` (one per CPU of
        the affinity mask, so ``taskset`` limits them), each writing its
        rows of the preallocated results.  LAPACK solves each matrix of a
        stack on its own, so the results have the same bits for any
        worker count; a smaller stack, or one worker, is one call.
        """
        t = np.asarray(thetas, dtype=float)
        d, n = self.d, t.size
        if _WORKERS < 2 or n * d**3 < _SPLIT_WORK:
            return np.linalg.eigh(self.rotate(t))
        w, V = np.empty((n, d)), np.empty((n, d, d), dtype=complex)
        k = min(_WORKERS * -(-n * d * d // (_WORKERS * _PIECE)), n)
        ends = (np.arange(k + 1) * n // k).tolist()
        flat = t.reshape(-1)

        def solve(piece):
            a, b = piece
            w[a:b], V[a:b] = np.linalg.eigh(self.rotate(flat[a:b]))

        _map(solve, zip(ends[:-1], ends[1:]))
        return w.reshape(*t.shape, d), V.reshape(*t.shape, d, d)

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

    def slope(self, thetas, x) -> np.ndarray:
        """Slope x*A'(theta)x of the eigenvalue curve of the eigenvectors
        ``x`` (the top ones give the top curve) at the same angles."""
        t = np.asarray(thetas, dtype=float)
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

    def third(self, thetas, eig) -> np.ndarray:
        """Third derivative of the top eigenvalue curve from the :meth:`eigh`
        result ``eig`` at the same angles.  With C = V* A'(theta) V, t the
        top index, g_j = lambda_t - lambda_j and y_j = C_jt / g_j (j != t):

            h''' = -C_tt + 6 y* C y - 6 C_tt |y|^2

        In the eigenbasis, A(theta + delta) = cos(delta) (D + tan(delta) C)
        with D = diag(w) (A'' = -A), and the top eigenvalue of D + s C has
        the third-order coefficient sum_{j,k != t} C_tj C_jk C_kt /
        (g_j g_k) - C_tt sum_{j != t} |C_tj|^2 / g_j^2 = y* C y - C_tt
        |y|^2.  y* C y is z* A'(theta) z with z = V y, so no d x d
        compression is formed.  Defined only where the top eigenvalue is
        simple.
        """
        w, V = eig
        P = self.prime(thetas)
        c = (V.conj().swapaxes(-1, -2) @ (P @ V[..., -1:]))[..., 0]
        ctt = c[..., -1].real
        y = c[..., :-1] / (w[..., -1:] - w[..., :-1])
        z = V[..., :-1] @ y[..., None]
        triple = (z.conj() * (P @ z)).sum(axis=(-2, -1)).real
        return -ctt + 6.0 * triple - 6.0 * ctt * (np.abs(y) ** 2).sum(axis=-1)

    def jet(self, thetas, eig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The support curve h and its derivatives h', h'' at an angle array,
        from the :meth:`eigh` result ``eig`` at the same angles.

        h' is the :meth:`slope` on (1, d) rows, so each angle is its own
        product, with the bits of a one-angle call; h'' is the
        :meth:`curvature`, and nan where the top gap is at most ``ctol``
        (a clustered top eigenvalue has no second derivative).  A single
        angle, as most Newton steps take, uses the plain vector and matrix
        products, which round as the one-row stacks do at less cost.
        """
        t = np.asarray(thetas, dtype=float)
        w, V = eig
        if t.shape == (1,):
            simple = self.top_gap(w[0]) > self.ctol
            h2 = self.curvature(t[0], (w[0], V[0])) if simple else np.nan
            return w[:, -1], self.slope(t, V[0, :, -1]), np.array([h2])
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

    def faces(self, thetas, tol: float, eig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Face segments at an angle array: (support, mu_lo, mu_hi), from
        the :meth:`eigh` result ``eig`` at the same angles.

        Where the top eigenvalue is simple within ``tol`` the face is one
        touch point and mu_lo = mu_hi is the top-curve slope; a clustered
        face is read by :meth:`segments` from the eigenvectors, without
        another solve.
        """
        w, V = eig
        return self._faces_from(np.asarray(thetas, dtype=float), tol, w, V[..., -1], lambda j: (w[j], V[j]))

    def grid_faces(self, N: int, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Face segments at the N grid angles: (thetas, support, mu_lo,
        mu_hi), as :meth:`faces` gives them, read from what :meth:`grid`
        solved and kept.  The top eigenvector at theta_k + pi is the
        bottom one at theta_k; the clustered rows read their eigenpairs
        through :meth:`_grid_eig`.  No grid angle is solved again.
        """
        thetas, w = self.grid(N)
        V = self._vectors[N]
        x = np.concatenate([V[..., -1], V[..., 0]] if len(V) < N else [V[..., -1]])
        return (thetas, *self._faces_from(thetas, tol, w, x, lambda j: self._grid_eig(N, j)))

    def _faces_from(self, t, tol: float, w, x, eig_at) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(support, mu_lo, mu_hi) from the ascending eigenvalues w and top
        eigenvectors x at the angles t; ``eig_at(j)`` gives the eigenpairs
        of the clustered rows j."""
        sup = w[:, -1].copy()
        lo = self.slope(t, x)
        hi = lo.copy()
        j = np.nonzero(self.top_gap(w) <= tol)[0]
        if j.size:
            sup[j], _, mu, _ = self.segments(t[j], tol, eig_at(j))
            lo[j], hi[j] = [m[0] for m in mu], [m[-1] for m in mu]
        return sup, lo, hi


def _map(fn, pieces) -> list:
    """``[fn(p) for p in pieces]``, the pieces run at once on the worker pool.

    This is the package's only concurrency.  The pool has ``_WORKERS``
    threads, one per CPU of the process's affinity mask, and is made (and
    ``concurrent.futures`` imported) on first use; one piece or one
    worker runs inline, in order.  An exception raised by ``fn`` reaches
    the caller.  The callers hand it independent pieces that write
    disjoint slices of one result, so the result has the same bits for
    any worker count; ``fn`` must not call :func:`_map` itself, as a pool
    thread waiting on the pool could wait forever.
    """
    pieces = list(pieces)
    if _WORKERS < 2 or len(pieces) < 2:
        return [fn(p) for p in pieces]
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="numrange")
    return list(_pool.map(fn, pieces))


def _forget_pool() -> None:
    """In a forked child: the pool's threads stayed in the parent, so the
    child makes its own pool on first use."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@functools.lru_cache(maxsize=16)
def _grid_angles(N: int) -> np.ndarray:
    """The N grid angles on [0, 2 pi), kept per N (read-only)."""
    t = np.linspace(0.0, 2.0 * np.pi, N, endpoint=False)
    t.flags.writeable = False
    return t


def _next(a: np.ndarray) -> np.ndarray:
    """``np.roll(a, -1, axis=-1)``: the value at the next sample of a
    circle, at a fraction of the cost of ``np.roll``."""
    return np.concatenate((a[..., 1:], a[..., :1]), axis=-1)


def _dilate(mask: np.ndarray, r: int) -> np.ndarray:
    """A circular mask widened by r places on each side."""
    n = mask.size
    padded = np.concatenate((mask[n - r :], mask, mask[:r]))
    out = mask.copy()
    for k in range(2 * r + 1):
        out |= padded[k : k + n]
    return out


def _arc_max(z, a, width):
    """Largest <z, e^{i theta}> over theta in [a, a + width] (width < 2 pi),
    elementwise: |z| where the arc holds the direction of z, else the
    larger end value."""
    ends = np.maximum((z * np.exp(-1j * a)).real, (z * np.exp(-1j * (a + width))).real)
    inside = np.mod(np.angle(z) - a, 2.0 * np.pi) <= width
    return np.where(inside, np.abs(z), ends)


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


def _deflating_vector(B: np.ndarray, pick, scale: float) -> np.ndarray:
    """Unit eigenvector of B for the LAPACK eigenvalue ``pick(lam)`` indexes.

    An eigenvalue with cluster mates within ``_MULTIPLE_ROOT_RTOL * scale``
    may be a multiple root, which LAPACK resolves only to a fractional
    power of the rounding; the cluster mean recovers it to full precision.
    Its SVD null vector is taken when the residual |(B - mean I) v| is
    within ``SCHUR_SUBDIAG_RTOL * scale``; a near-multiple root, whose
    residual is larger, keeps its own LAPACK eigenvector.
    """
    lam, V = np.linalg.eig(B)
    i = pick(lam)
    mates = np.abs(lam - lam[i]) <= _MULTIPLE_ROOT_RTOL * scale
    if np.count_nonzero(mates) > 1:
        _, s, vh = np.linalg.svd(B - np.mean(lam[mates]) * np.eye(len(B)))
        if s[-1] <= SCHUR_SUBDIAG_RTOL * scale:
            return vh[-1].conj()
    return V[:, i]


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

    Two Householder deflations, each by an eigenvector of the trailing
    block from ``np.linalg.eig`` (:func:`_deflating_vector`, which keeps
    multiple roots at full precision): first the eigenvalue of A that is
    least in (real, imag) order, then the larger-modulus one of the 2x2
    block.  Defective matrices triangularize too.  Already-triangular
    input returns (I, A) unchanged.
    """
    A = as_matrix(A)
    if A.shape[0] != 3:
        raise PreconditionError("schur3 requires a 3x3 matrix")
    scale = max(fro(A), 1e-300)
    lower = np.array([A[1, 0], A[2, 0], A[2, 1]])
    if np.linalg.norm(lower) <= 1e-14 * scale:
        return np.eye(3, dtype=np.complex128), A.copy()

    v = _deflating_vector(A, lambda lam: np.lexsort((lam.imag, lam.real))[0], scale)
    H1 = _householder_to_e1(v)
    A1 = H1 @ A @ H1
    w = _deflating_vector(A1[1:, 1:], lambda lam: np.argmax(np.abs(lam)), scale)
    H2 = np.eye(3, dtype=np.complex128)
    H2[1:, 1:] = _householder_to_e1(w)

    U = H1 @ H2
    T = U.conj().T @ A @ U
    sub = np.array([T[1, 0], T[2, 0], T[2, 1]])
    if np.linalg.norm(sub) > SCHUR_SUBDIAG_RTOL * scale:
        raise NumericalError("schur3 failed to triangularize within tolerance")
    T = np.triu(T)
    return U, T
