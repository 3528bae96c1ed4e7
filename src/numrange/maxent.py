"""Maximum-entropy inference over the numerical range.

For an interior point the inference state is the Gibbs member of the
exponential family generated by Re(A) and Im(A), found by a safeguarded
Newton method on the dual (log-partition) problem.  On the boundary the
state is the maximally mixed state P/k on the pre-image of an extreme
point, and in the relative interior of a flat portion the Gibbs state
of the single observable that the face's top eigenvalue cluster
compresses the problem to.  The discontinuity probe compares the
inference entropy along interior and boundary paths into a multiply
generated round boundary point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import extremal, matcore as mc
from .errors import NumericalError, PreconditionError

# Interior margin below which a point is routed to the boundary solver.
INTERIOR_MARGIN_RTOL = 1e-7
# Dual Newton convergence (gradient norm) and iteration cap.
DUAL_GRAD_TOL = 1e-10
DUAL_MAX_ITER = 200
# Relative rounding level of the dual value (a few ulps of log tr exp).
DUAL_ROUNDING = 64 * np.finfo(float).eps
# Density matrix validation tolerances.
DENSITY_TOL = 1e-12
# Floor of the eigenvalues inside the logarithm of entropy (0 log 0 = 0).
ENTROPY_CLAMP = 1e-15


def _density_spectra(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a stack of density matrices (Hermitian, PSD, unit trace):
    returns the symmetrized matrices and their ascending eigenvalues, from
    which the PSD and trace checks are read."""
    rhos_h = rhos.conj().swapaxes(-1, -2)
    if np.any(_fro(rhos - rhos_h) > 2 * DENSITY_TOL * np.maximum(_fro(rhos), 1.0)):
        raise PreconditionError("density matrix must be Hermitian")
    rhos = (rhos + rhos_h) / 2.0
    w = np.linalg.eigvalsh(rhos)
    low = w[:, 0] < -DENSITY_TOL
    if low.any():
        raise PreconditionError(f"density matrix must be PSD (min eigenvalue {w[low][0, 0]:.2e})")
    trace = w.sum(axis=-1)
    off = np.abs(trace - 1.0) > DENSITY_TOL * 10
    if off.any():
        raise PreconditionError(f"density matrix must have unit trace (got {float(trace[off][0])!r})")
    return rhos, w


def _fro(X: np.ndarray) -> np.ndarray:
    """Frobenius norms of a stack of complex matrices."""
    return np.sqrt((np.abs(X) ** 2).sum(axis=(-2, -1)))


def entropy(rho) -> float:
    """Von Neumann entropy -tr(rho log rho), in nats."""
    return float(_entropies(mc.as_matrix(rho)[None])[0])


def _entropies(rhos: np.ndarray) -> np.ndarray:
    """:func:`entropy` of each matrix of a stack, validated together."""
    w = np.clip(_density_spectra(rhos)[1], 0.0, None)
    # 0 log 0 = 0; 0.0 - s, not -s, so that a pure state reads 0.0, not -0.0
    return 0.0 - (w * np.log(np.maximum(w, ENTROPY_CLAMP))).sum(axis=-1)


@dataclass(frozen=True)
class InferenceResult:
    """Inference state with its entropy, dual point, and constraint residual.

    ``dual_point`` is (u, v) for interior solutions; boundary solutions
    have no finite dual and carry None.
    """

    rho: np.ndarray
    entropy: float
    dual_point: tuple[float, float] | None
    residual: float


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (n, k) arrays; each row is its own
    product, with the bits of the 1-D ``a[i] @ b[i]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


# Ranges thinner than this (relative) are treated as segments or points.
DEGENERATE_THICKNESS_RTOL = 1e-9


def relative_depth(A, p, grid: int = 1024) -> float:
    """Depth of p in the relative interior of W(A).

    For a two-dimensional range this is the planar boundary depth, -g at
    the supporting angle of p (:func:`~numrange.extremal.supporting_angle`):
    positive inside, minus the distance to W(A) outside.  For a
    degenerate (segment or point) range it is the distance to the nearer
    segment endpoint, provided p sits on the carrying line; off-line
    points report minus their transverse deviation.

    The width h(t) + h(t + pi) is at least |X(t)|_F / sqrt(d), X(t) the
    Hermitian part of e^{-i t} Z, Z = R0 + i S0 the traceless part of A.
    At the null direction t of the Gram matrix of R0 and S0 (from
    tr Z^2), |X(t)|_F^2 > d (``DEGENERATE_THICKNESS_RTOL`` scale)^2 proves
    a 2-D range without a solve; otherwise the width at t decides.
    """
    return _relative_depth(mc.as_pencil(A), extremal.as_point(p), grid)[0]


def _relative_depth(
    pencil: mc.Pencil, p: complex, grid: int, floor: float | None = None
) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
    """:func:`relative_depth`, and the supporting-angle search of p that
    gave it: the angle and g arrays of
    :func:`~numrange.extremal._supporting_angles`, or None where no search
    ran.  With a ``floor``, a two-dimensional range returns the floor
    itself as soon as the cell scan certifies that the depth is at least
    that (:func:`~numrange.extremal._depth_at_least`), which decides the
    interior routing without the depth's own search."""
    scale = pencil.scale
    thin = DEGENERATE_THICKNESS_RTOL * scale
    d = pencil.d
    Z = pencil.A - np.trace(pencil.A) / d * np.eye(d)
    t = np.angle(np.sum(Z * Z.T)) / 2.0 + np.pi / 2.0
    X = np.exp(-1j * t) * Z
    X = (X + X.conj().T) / 2.0
    phi = t + np.pi / 2.0
    planar = np.vdot(X, X).real > d * thin**2
    if not planar:
        s_t, s_opp, s_phi, s_phi_opp = pencil.support([t, t + np.pi, phi, phi + np.pi])
        planar = s_t + s_opp > thin
    if planar:
        if floor is not None and extremal._depth_at_least(pencil, p, grid, floor):
            return floor, None
        found = extremal._supporting_angles(pencil, np.array([p]), grid)
        return -float(found[1][0]), found
    trans = (p * np.conj(np.exp(1j * t))).real - (s_t - s_opp) / 2.0
    if abs(trans) > 1e-7 * scale:
        return -abs(trans), None
    along = (p * np.conj(np.exp(1j * phi))).real
    return float(min(s_phi - along, s_phi_opp + along)), None


def maxent_interior(A, alpha, grid: int = 1024) -> InferenceResult:
    """Entropy-maximizing state with tr(A rho) = alpha, for interior alpha.

    Solves the dual problem min_{u,v} log tr exp(u Re A + v Im A) -
    (u alpha_1 + v alpha_2) by Newton's method with Armijo backtracking;
    the Hessian is the divided-difference (Kubo-Mori) covariance of the
    two observables in the Gibbs state.
    """
    pencil = mc.as_pencil(A)
    alpha = extremal.as_point(alpha)
    margin = INTERIOR_MARGIN_RTOL * pencil.scale
    depth = _relative_depth(pencil, alpha, grid, margin)[0]
    if depth < margin:
        raise PreconditionError(
            f"alpha = {alpha} is on or outside the boundary of W(A) "
            f"(relative depth {depth:.3e}); use maxent_boundary"
        )
    return _interior_states(pencil, [alpha])[0]


def _interior_states(pencil: mc.Pencil, alphas) -> list[InferenceResult]:
    """The dual Newton solve of :func:`maxent_interior` at an array of
    interior points, in lockstep.

    Every Newton step, and every round of Armijo backtracking, evaluates
    the points still active in one stacked ``eigh`` of K(u) = u_1 Re A +
    u_2 Im A; a point leaves the stack when it converges.  Each point
    keeps its own step length, acceptance and convergence test, and every
    stacked item is its own product, so each point follows the path it
    would follow alone, to the bit.
    """
    R, S = pencil.R, pencil.S
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)

    def state(uv, target):
        """Dual values, Gibbs states, gradients and Hessians at the dual
        points uv, from one stacked eigh of K(uv), which is Hermitian by
        construction."""
        w, V = np.linalg.eigh(uv[:, 0, None, None] * R + uv[:, 1, None, None] * S)
        e = np.exp(w - w[:, -1:])
        Z = e.sum(axis=-1)
        Vh = V.conj().swapaxes(-1, -2)
        rho = (V * (e / Z[:, None])[:, None, :]) @ Vh
        value = w[:, -1] + np.log(Z) - _dots(uv, target)
        means = np.empty((uv.shape[0], 2))
        means[:, 0] = (rho @ R).trace(axis1=1, axis2=2).real
        means[:, 1] = (rho @ S).trace(axis1=1, axis2=2).real
        # divided-difference kernel of the exponential in the eigenbasis
        dw = w[:, :, None] - w[:, None, :]
        apart = np.abs(dw) > 1e-12
        ker = np.where(apart, (e[:, :, None] - e[:, None, :]) / np.where(apart, dw, 1.0), e[:, :, None])
        obs = (Vh @ R @ V, Vh @ S @ V)
        H = np.empty((uv.shape[0], 2, 2))
        for i in range(2):
            for j in range(i, 2):
                val = (ker * obs[i] * obs[j].conj()).sum(axis=(1, 2)).real / Z
                H[:, i, j] = H[:, j, i] = val - means[:, i] * means[:, j]
        return [value, rho, means - target, H]

    # the arrays below hold the points still iterating, whose indices are rows
    rows = np.arange(alphas.size)
    target = np.ascontiguousarray(alphas).view(float).reshape(-1, 2)
    u = np.zeros((rows.size, 2))
    f0, rho, grad, H = state(u, target)
    u_out, rho_out = np.empty_like(u), np.empty_like(rho)
    for _ in range(DUAL_MAX_ITER):
        gn = np.sqrt(_dots(grad, grad))
        done = gn <= DUAL_GRAD_TOL
        if done.all():
            u_out[rows], rho_out[rows] = u, rho
            break
        if done.any():
            u_out[rows[done]], rho_out[rows[done]] = u[done], rho[done]
            rows, target, u, f0, rho, grad, H, gn = (x[~done] for x in (rows, target, u, f0, rho, grad, H, gn))
        step = _newton_steps(H, grad)
        slope = _dots(grad, step)
        # every row tries the full step first; the rows it fails halve theirs
        trial = state(u + step, target)
        accepted = _armijo(trial, f0, slope, gn)
        t = np.ones(rows.size)
        pending = np.nonzero(~accepted)[0]
        while pending.size:
            t[pending] /= 2.0
            pending = pending[t[pending] > 1e-14]
            if not pending.size:
                break
            tr = state(u[pending] + t[pending, None] * step[pending], target[pending])
            ok = _armijo(tr, f0[pending], t[pending] * slope[pending], gn[pending])
            for x, y in zip(trial, tr):
                x[pending[ok]] = y[ok]
            accepted[pending[ok]] = True
            pending = pending[~ok]
        u = u + t[:, None] * step
        # a search that ran out without accepting moves to an untried point
        spent = ~accepted
        if spent.any():
            for x, y in zip(trial, state(u[spent], target[spent])):
                x[spent] = y
        # the accepted trial is the new iterate
        f0, rho, grad, H = trial
    else:
        raise NumericalError("dual Newton did not converge within the iteration cap")

    out = []
    for k, (alpha, ent) in enumerate(zip(alphas.tolist(), _entropies(rho_out).tolist())):
        value = complex(np.trace(rho_out[k] @ pencil.A))
        out.append(
            InferenceResult(
                rho=rho_out[k],
                entropy=ent,
                dual_point=(float(u_out[k, 0]), float(u_out[k, 1])),
                residual=abs(value - alpha),
            )
        )
    return out


_RIDGE = 1e-14 * np.eye(2)


def _newton_steps(H: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton steps -(H + 1e-14 I)^{-1} grad of the stacked 2x2 systems,
    each turned to -grad where it is singular or not a descent direction."""
    reg = H + _RIDGE
    try:
        step = np.linalg.solve(reg, -grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.empty_like(grad)
        for k in range(grad.shape[0]):
            try:
                step[k] = np.linalg.solve(reg[k], -grad[k])
            except np.linalg.LinAlgError:
                step[k] = -grad[k]
    ascent = _dots(step, grad) > 0.0
    if ascent.any():
        step[ascent] = -grad[ascent]
    return step


def _armijo(trial, f0: np.ndarray, decrease: np.ndarray, gn: np.ndarray) -> np.ndarray:
    """Which trial states of the dual Newton are accepted: the Armijo test
    f1 <= f0 + 1e-4 t grad.step, with ``decrease`` = t grad.step, and
    where the dual values differ by no more than their rounding, a lower
    gradient norm than ``gn``."""
    f1, grad1 = trial[0], trial[2]
    ok = f1 <= f0 + 1e-4 * decrease
    if not ok.all():
        # near the optimum the decrease sinks below the rounding of the
        # dual value, where the Armijo test rejects every step: accept one
        # that lowers the gradient norm instead
        flat = ~ok & (np.abs(f1 - f0) <= DUAL_ROUNDING * (1.0 + np.abs(f0)))
        ok[flat] = np.sqrt(_dots(grad1[flat], grad1[flat])) < gn[flat]
    return ok


def _solve_single_observable(w: np.ndarray, V: np.ndarray, eta: float) -> np.ndarray:
    """Max-entropy state of one Hermitian observable C = V diag(w) V* at a
    mean value eta strictly between its extreme eigenvalues w[0] and
    w[-1]: the Gibbs state exp(tC)/Z, with t the maximizer of the concave
    dual t eta - log tr exp(tC), whose slope is eta minus the Gibbs mean.

    The mean lies within (k - 1) / (e |t|) of the extreme eigenvalue on
    the side of t (k = len(w)), so the slope changes sign on the bracket
    [-k / (eta - w[0]), k / (w[-1] - eta)], where the shared Newton loop
    (:func:`~numrange.extremal._newton_max`) finds the maximizer from
    t = 0; the dual's second derivative is minus the Gibbs variance.
    """
    def gibbs(t):
        # the Gibbs weights at t and log tr exp(tC), overflow-safe
        s = t * w
        top = np.max(s)
        ex = np.exp(s - top)
        z = np.sum(ex)
        return ex / z, float(top + np.log(z))

    def jet(t, rows):
        p, log_z = gibbs(t[0])
        mean = float(p @ w)
        return [t[0] * eta - log_z], [float(p @ (eta - w))], [-float(p @ (w - mean) ** 2)]

    k, t0 = w.size, np.zeros(1)
    lo, hi = np.array([-k / (eta - w[0])]), np.array([k / (w[-1] - eta)])
    t = extremal._newton_max(jet, lo, t0, hi, jet(t0, None))[0][0]
    return (V * gibbs(t)[0]) @ V.conj().T


def maxent_boundary(A, alpha, grid: int = 1024) -> InferenceResult:
    """Entropy-maximizing state for alpha on the boundary of W(A).

    The state lives on the face at a supporting angle: at an extreme point
    it is the maximally mixed state P/k on the pre-image, and in the
    relative interior of a flat portion the Gibbs state of A'(theta)
    compressed onto the top eigenvalue cluster of A(theta).  At a
    tangentially multiply generated point
    :func:`~numrange.extremal.supporting_angle` finds the angle to
    rounding, on the reduced pencil of the top cluster.
    """
    return _boundary_states(mc.as_pencil(A), [extremal.as_point(alpha)], grid)[0]


def _boundary_states(pencil: mc.Pencil, alphas, grid: int, found=None) -> list[InferenceResult]:
    """:func:`maxent_boundary` at an array of points together: their
    supporting angles come from one lockstep search
    (:func:`~numrange.extremal._supporting_angles`), or are the angles and
    g values ``found`` by a search the caller ran; every point is checked
    as :func:`maxent_boundary` checks it, and the faces at all the angles
    come from one stacked solve (:func:`~numrange.extremal._faces`)."""
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    tol = extremal.POINT_MATCH_RTOL * pencil.scale
    thetas, gvals = extremal._supporting_angles(pencil, alphas, grid) if found is None else found
    for alpha, gval in zip(alphas, gvals):
        if gval > tol:
            raise PreconditionError(f"alpha = {alpha} lies outside W(A) (distance {gval:.3e})")
        if gval < -100 * tol:
            raise PreconditionError(
                f"alpha = {alpha} is an interior point (depth {-gval:.3e}); "
                "use maxent_interior"
            )
    return _face_states(pencil, alphas, extremal._faces(pencil, thetas))


def _face_states(pencil: mc.Pencil, alphas, faces) -> list[InferenceResult]:
    """The states of :func:`maxent_boundary` at the boundary points
    alphas, on the faces at their supporting angles.

    The pre-image basis of an extreme point is the one
    :func:`~numrange.extremal._pick` chooses; the Gibbs state of a flat
    portion's relative interior reads the compressed spectrum mu, W that
    the face carries.  A point within the boundary tolerance of a face
    whose coordinate eta along it lies at or past an end (no Gibbs state
    has that mean) takes the state of that end, the limit of the family.
    The entropies are validated together.
    """
    tol = extremal.POINT_MATCH_RTOL * pencil.scale
    rhos, residuals = [], []
    for alpha, fd in zip(np.asarray(alphas, dtype=complex).tolist(), faces):
        _, basis, miss = extremal._pick(fd, alpha, tol)
        # off an extreme point, eta is the coordinate of alpha along the face
        if miss > tol and fd.mu[0] < (eta := (alpha * np.conj(1j * np.exp(1j * fd.theta))).real) < fd.mu[-1]:
            Qm = fd.basis_m
            rho = Qm @ _solve_single_observable(fd.mu, fd.W, eta) @ Qm.conj().T
        else:
            rho = basis @ basis.conj().T / basis.shape[1]
        rhos.append(rho)
        residuals.append(abs(complex(np.trace(rho @ pencil.A)) - alpha))
    return [
        InferenceResult(rho=rho, entropy=ent, dual_point=None, residual=res)
        for rho, ent, res in zip(rhos, _entropies(np.array(rhos)).tolist(), residuals)
    ]


def infer(A, alpha, grid: int = 1024) -> InferenceResult:
    """Route alpha to the interior or boundary solver by its depth.

    The routing asks only whether the depth reaches the interior margin,
    which a cell scan of the ``grid``-angle grid (finest cell width
    2 pi / grid) usually certifies from a few solves; a point it leaves
    open takes the depth's own search on the cells already solved, and a
    boundary point keeps the supporting angle that search found.
    """
    pencil = mc.as_pencil(A)
    alpha = extremal.as_point(alpha)
    margin = INTERIOR_MARGIN_RTOL * pencil.scale
    depth, found = _relative_depth(pencil, alpha, grid, margin)
    if depth >= margin:
        return _interior_states(pencil, [alpha])[0]
    return _boundary_states(pencil, [alpha], grid, found)[0]


def round_boundary_points(A, grid: int = 512) -> list[complex]:
    """Extreme points with a unique supporting line that do not end a
    flat boundary portion (sampled at the resolution of the grid): the
    reports of :func:`~numrange.extremal.extreme_points` whose normal arc
    is at most ``ARC_SINGLE_ANGLE`` and whose kind is "exposed" (a
    non-exposed report is such a point at the end of a flat portion)."""
    return [
        r.point
        for r in extremal.extreme_points(A, grid)
        if r.kind == "exposed" and r.normal_arc[1] - r.normal_arc[0] <= extremal.ARC_SINGLE_ANGLE
    ]


@dataclass(frozen=True)
class ProbeReport:
    """Entropy behavior of the inference map on paths into a boundary point."""

    alpha: complex
    value_entropy: float
    radial_points: np.ndarray
    radial_entropies: np.ndarray
    boundary_points: np.ndarray
    boundary_entropies: np.ndarray
    radial_limit: float
    boundary_limit: float
    discontinuous: bool


def discontinuity_probe(A, alpha, n_steps: int = 8, grid: int = 1024) -> ProbeReport:
    """Probe the inference map for a jump at a multiply generated round
    boundary point.

    Evaluates the entropy of the inference state along (i) a radial path
    from tr(A)/d, the image of the maximally mixed state I/d, which has
    full rank and so lies in the relative interior of W(A), and (ii)
    boundary paths approaching alpha from both sides: the face endpoints
    nearer alpha at the side angles theta -/+ 0.2 2^-k about the
    supporting angle theta of alpha, whose states are read from those
    faces (the pre-image of an extreme point is the endpoint eigenspace
    at any supporting angle).  The path limits are compared with the
    value at alpha; a spread above 1e-3 flags a discontinuity.  The
    flat-portion refusal scans the same ``grid`` as the supporting-angle
    searches.
    """
    pencil = mc.as_pencil(A)
    alpha = extremal.as_point(alpha)
    scale = pencil.scale
    tol = extremal.POINT_MATCH_RTOL * scale

    fd, _, basis = extremal._preimage(pencil, alpha, *extremal.supporting_angle(pencil, alpha, grid))
    if basis.shape[1] < 2:
        raise PreconditionError(
            f"alpha = {alpha} is simply generated (pre-image dimension 1); "
            "the probe requires a multiply generated round boundary point"
        )
    if fd.length > tol:
        raise PreconditionError(
            f"alpha = {alpha} lies on a flat boundary portion; the probe "
            "requires a round boundary point"
        )
    ends = np.array([e for fp in extremal.flat_portions(pencil, grid) for e in fp.endpoints], dtype=complex)
    if ends.size and np.min(np.abs(ends - alpha)) <= 10 * tol:
        raise PreconditionError(
            f"alpha = {alpha} is an endpoint of a flat boundary portion, "
            "not a round boundary point"
        )

    value = _face_states(pencil, [alpha], [fd])[0]

    # radial path: the depths of all its points together, and the path
    # up to the first point shallower than the interior margin
    center = complex(np.trace(pencil.A)) / pencil.d
    radial_pts = center + (1.0 - 0.5 ** np.arange(1, n_steps + 1)) * (alpha - center)
    depth = -extremal._supporting_angles(pencil, radial_pts, grid)[1]
    shallow = np.nonzero(depth < 10 * INTERIOR_MARGIN_RTOL * scale)[0]
    radial_pts = radial_pts[: shallow[0] if shallow.size else n_steps]
    radial_ent = [res.entropy for res in _interior_states(pencil, radial_pts)]

    # boundary paths: at fd.theta - dth and fd.theta + dth, the face
    # endpoint nearer alpha, with its state on that face
    sides = fd.theta + np.tile([-1.0, 1.0], n_steps) * np.repeat(0.2 * 0.5 ** np.arange(n_steps), 2)
    faces = extremal._faces(pencil, sides)
    ends = np.array([f.p_plus if k % 2 == 0 else f.p_minus for k, f in enumerate(faces)])
    kept = np.abs(ends - alpha) > tol
    boundary_pts = ends[kept]
    boundary_ent = [res.entropy for res in _face_states(pencil, boundary_pts, [f for f, k in zip(faces, kept) if k])]

    radial_limit = radial_ent[-1] if radial_ent else value.entropy
    boundary_limit = boundary_ent[-1] if boundary_ent else value.entropy
    spread = max(
        abs(radial_limit - value.entropy),
        abs(boundary_limit - value.entropy),
        abs(radial_limit - boundary_limit),
    )
    return ProbeReport(
        alpha=alpha,
        value_entropy=value.entropy,
        radial_points=radial_pts,
        radial_entropies=np.array(radial_ent),
        boundary_points=boundary_pts,
        boundary_entropies=np.array(boundary_ent),
        radial_limit=float(radial_limit),
        boundary_limit=float(boundary_limit),
        discontinuous=bool(spread > 1e-3),
    )
