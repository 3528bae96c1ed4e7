"""Maximum-entropy inference over the numerical range.

For an interior point the inference state is the Gibbs member of the
exponential family generated by Re(A) and Im(A), found by a safeguarded
Newton method on the dual (log-partition) problem.  On the boundary the
problem collapses onto the pre-image of the supporting face: compressing
there reduces it to a single-observable family, whose endpoints recurse
once more onto eigenspaces where the state is maximally mixed.  The
discontinuity probe compares the inference entropy along interior and
boundary paths into a multiply generated round boundary point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import extremal, matcore as mc, rangegeo as rg
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
# Eigenvalue clamp inside entropy (0 log 0 = 0 convention).
ENTROPY_CLAMP = 1e-15


def check_density(rho) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD, unit trace."""
    rho = mc.as_matrix(rho)
    if mc.fro(rho - rho.conj().T) > 2 * DENSITY_TOL * max(mc.fro(rho), 1.0):
        raise PreconditionError("density matrix must be Hermitian")
    rho = (rho + rho.conj().T) / 2.0
    w = np.linalg.eigvalsh(rho)
    if w[0] < -DENSITY_TOL:
        raise PreconditionError(f"density matrix must be PSD (min eigenvalue {w[0]:.2e})")
    if abs(np.sum(w) - 1.0) > DENSITY_TOL * 10:
        raise PreconditionError(f"density matrix must have unit trace (got {np.sum(w)!r})")
    return rho


def entropy(rho) -> float:
    """Von Neumann entropy -tr(rho log rho), in nats."""
    rho = check_density(rho)
    w = np.clip(np.linalg.eigvalsh(rho), ENTROPY_CLAMP, None)
    return float(-np.sum(w * np.log(w)))


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


def _gibbs_parts(K: np.ndarray):
    """Eigenpairs (w, V) of Hermitian K, the shifted weights e = exp(w - max w),
    their sum Z and log tr exp(K), overflow-safe."""
    w, V = np.linalg.eigh((K + K.conj().T) / 2.0)
    e = np.exp(w - w[-1])
    Z = float(np.sum(e))
    return w, V, e, Z, float(w[-1] + np.log(Z))


def _gibbs(K: np.ndarray) -> tuple[np.ndarray, float]:
    """(exp(K)/tr exp(K), log tr exp(K)) for Hermitian K, overflow-safe."""
    _, V, e, Z, logZ = _gibbs_parts(K)
    return (V * (e / Z)) @ V.conj().T, logZ


def boundary_depth(A, p, grid: int = 1024) -> float:
    """Distance from p to the boundary of W(A): positive inside, negative
    outside (then it is minus the distance to W(A)).

    ``A`` is a matrix or a :class:`~numrange.matcore.Pencil`, as for every
    inference function of this module; one Pencil passed down a chain of
    calls solves its support scan once.
    """
    _, g = extremal.supporting_angle(A, p, grid)
    return -g


# Ranges thinner than this (relative) are treated as segments or points.
DEGENERATE_THICKNESS_RTOL = 1e-9


def relative_depth(A, p, grid: int = 1024) -> float:
    """Depth of p in the relative interior of W(A).

    For a two-dimensional range this is the planar boundary depth.  For a
    degenerate (segment or point) range it is the distance to the nearer
    segment endpoint, provided p sits on the carrying line; off-line
    points report minus their transverse deviation.
    """
    pencil = mc.as_pencil(A)
    p = extremal.as_point(p)
    scale = 1.0 + pencil.norm
    half = grid // 2
    # for an even grid this is the scan of boundary_depth as well
    thetas, w, _ = pencil.grid(2 * half)
    width = w[:, -1] + np.roll(w[:, -1], -half)
    if width.min() > DEGENERATE_THICKNESS_RTOL * scale:
        return boundary_depth(pencil, p, grid)

    def opposite(th):
        """Support values at th and th + pi."""
        return pencil.support([th, th + np.pi])

    j = int(np.argmin(width))
    step = np.pi / half
    t = extremal._golden_min(lambda th: float(opposite(th).sum()), thetas[j] - step, thetas[j] + step)
    u = np.exp(1j * t)
    s_t, s_opp = opposite(t)
    trans = (p * np.conj(u)).real - (s_t - s_opp) / 2.0
    if abs(trans) > 1e-7 * scale:
        return -abs(trans)
    phi = t + np.pi / 2.0
    e = np.exp(1j * phi)
    s_phi, s_opp = opposite(phi)
    return float(min(s_phi - (p * np.conj(e)).real, s_opp + (p * np.conj(e)).real))


def maxent_interior(A, alpha, grid: int = 1024) -> InferenceResult:
    """Entropy-maximizing state with tr(A rho) = alpha, for interior alpha.

    Solves the dual problem min_{u,v} log tr exp(u Re A + v Im A) -
    (u alpha_1 + v alpha_2) by Newton's method with Armijo backtracking;
    the Hessian is the divided-difference (Kubo-Mori) covariance of the
    two observables in the Gibbs state.
    """
    pencil = mc.as_pencil(A)
    alpha = extremal.as_point(alpha)
    depth = relative_depth(pencil, alpha, grid)
    if depth < INTERIOR_MARGIN_RTOL * (1.0 + pencil.norm):
        raise PreconditionError(
            f"alpha = {alpha} is on or outside the boundary of W(A) "
            f"(relative depth {depth:.3e}); use maxent_boundary"
        )
    return _interior_state(pencil, alpha)


def _interior_state(pencil: mc.Pencil, alpha: complex) -> InferenceResult:
    """The dual Newton solve of :func:`maxent_interior`, for an alpha
    already known to be interior."""
    R, S = pencil.R, pencil.S
    target = np.array([alpha.real, alpha.imag])

    def state(uv):
        """Dual value, Gibbs state, gradient and Hessian from one eigh of K(uv)."""
        w, V, e, Z, logZ = _gibbs_parts(uv[0] * R + uv[1] * S)
        rho = (V * (e / Z)) @ V.conj().T
        value = logZ - uv @ target
        means = np.array([np.trace(rho @ R).real, np.trace(rho @ S).real])
        grad = means - target
        # divided-difference kernel of the exponential in the eigenbasis
        dw = w[:, None] - w[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            ker = np.where(np.abs(dw) > 1e-12, (e[:, None] - e[None, :]) / dw, e[:, None])
        Rb = V.conj().T @ R @ V
        Sb = V.conj().T @ S @ V
        obs = (Rb, Sb)
        H = np.empty((2, 2))
        for i in range(2):
            for j in range(i, 2):
                val = np.sum(ker * obs[i] * obs[j].conj()).real / Z
                H[i, j] = H[j, i] = val - means[i] * means[j]
        return value, rho, grad, H

    u = np.zeros(2)
    f0, rho, grad, H = state(u)
    for _ in range(DUAL_MAX_ITER):
        gn = np.linalg.norm(grad)
        if gn <= DUAL_GRAD_TOL:
            break
        try:
            step = np.linalg.solve(H + 1e-14 * np.eye(2), -grad)
        except np.linalg.LinAlgError:
            step = -grad
        if step @ grad > 0:
            step = -grad
        t = 1.0
        while t > 1e-14:
            trial = state(u + t * step)
            f1 = trial[0]
            if f1 <= f0 + 1e-4 * t * (grad @ step):
                break
            # near the optimum the decrease sinks below the rounding of the
            # dual value, where the Armijo test rejects every step: accept
            # one that lowers the gradient norm instead
            if abs(f1 - f0) <= DUAL_ROUNDING * (1.0 + abs(f0)):
                if np.linalg.norm(trial[2]) < gn:
                    break
            t /= 2.0
        u = u + t * step
        # the accepted trial is the new iterate; a search that ran out
        # without accepting moves to an untried point
        f0, rho, grad, H = trial if t > 1e-14 else state(u)
    else:
        raise NumericalError("dual Newton did not converge within the iteration cap")

    value = complex(np.trace(rho @ pencil.A))
    residual = abs(value - alpha)
    return InferenceResult(
        rho=rho, entropy=entropy(rho), dual_point=(float(u[0]), float(u[1])), residual=residual
    )


def _solve_single_observable(C: np.ndarray, eta: float, ctol: float) -> np.ndarray:
    """Max-entropy state of one Hermitian observable C at mean value eta.

    Interior means give the Gibbs state exp(tC)/Z with t solved by a
    safeguarded Newton iteration; means at (or numerically at) an extreme
    eigenvalue recurse onto the corresponding eigenspace, where the state
    is maximally mixed.
    """
    k = C.shape[0]
    dec = mc.eig_hermitian(C)
    w = dec.eigenvalues
    spread = w[-1] - w[0]
    if spread <= ctol:
        if abs(eta - np.mean(w)) > 100 * max(ctol, 1e-12):
            raise PreconditionError("target mean is outside the observable range")
        return np.eye(k, dtype=complex) / k
    snap = 1e-9 * (1.0 + spread)
    if eta >= w[-1] - snap:
        Q = dec.eigenvectors[:, w >= w[-1] - ctol]
        return Q @ Q.conj().T / Q.shape[1]
    if eta <= w[0] + snap:
        Q = dec.eigenvectors[:, w <= w[0] + ctol]
        return Q @ Q.conj().T / Q.shape[1]
    if not (w[0] < eta < w[-1]):
        raise PreconditionError("target mean is outside the observable range")

    t = 0.0
    lo, hi = None, None
    for _ in range(200):
        shifted = t * w
        m = np.max(shifted)
        ex = np.exp(shifted - m)
        Z = np.sum(ex)
        mean = float(np.sum(ex * w) / Z)
        var = float(np.sum(ex * w * w) / Z - mean * mean)
        diff = mean - eta
        if abs(diff) <= 1e-13 * (1.0 + spread):
            break
        if diff > 0:
            hi = t if hi is None else min(hi, t)
        else:
            lo = t if lo is None else max(lo, t)
        if var > 1e-300:
            t_new = t - diff / var
        else:
            t_new = t - np.sign(diff)
        # safeguard: stay inside the current bracket
        if lo is not None and hi is not None and not (lo < t_new < hi):
            t_new = (lo + hi) / 2.0
        elif lo is None and t_new > t + 50.0:
            t_new = t + 50.0
        elif hi is None and t_new < t - 50.0:
            t_new = t - 50.0
        t = t_new
    shifted = t * w
    ex = np.exp(shifted - np.max(shifted))
    probs = ex / np.sum(ex)
    V = dec.eigenvectors
    return (V * probs) @ V.conj().T


def maxent_boundary(A, alpha, grid: int = 1024) -> InferenceResult:
    """Entropy-maximizing state for alpha on the boundary of W(A).

    The state is supported on the pre-image of the supporting face: the
    problem compresses onto the top eigenvalue cluster of A(theta) at a
    supporting angle, where it becomes a single-observable family in the
    compressed derivative part; endpoint targets recurse once more onto
    its extreme eigenspaces.  At a tangentially multiply generated point
    :func:`~numrange.extremal.supporting_angle` finds the angle to
    rounding, on the reduced pencil of the top cluster.
    """
    pencil = mc.as_pencil(A)
    alpha = extremal.as_point(alpha)
    tol = extremal.POINT_MATCH_RTOL * (1.0 + pencil.norm)
    theta, gval = extremal.supporting_angle(pencil, alpha, grid)
    if gval > tol:
        raise PreconditionError(f"alpha = {alpha} lies outside W(A) (distance {gval:.3e})")
    if gval < -100 * tol:
        raise PreconditionError(
            f"alpha = {alpha} is an interior point (depth {-gval:.3e}); "
            "use maxent_interior"
        )
    return _boundary_state(pencil, alpha, extremal.face(pencil, theta))


def _boundary_state(pencil: mc.Pencil, alpha: complex, fd: extremal.FaceDescriptor) -> InferenceResult:
    """The compressed solve of :func:`maxent_boundary` on the face fd."""
    Qm = fd.basis_m
    C = mc.compress(pencil.prime(fd.theta), Qm)
    C = (C + C.conj().T) / 2.0
    u = np.exp(1j * fd.theta)
    eta = (alpha * np.conj(1j * u)).real
    rho_c = _solve_single_observable(C, eta, pencil.ctol)
    rho = Qm @ rho_c @ Qm.conj().T
    value = complex(np.trace(rho @ pencil.A))
    return InferenceResult(
        rho=rho, entropy=entropy(rho), dual_point=None, residual=abs(value - alpha)
    )


def infer(A, alpha, grid: int = 1024) -> InferenceResult:
    """Route alpha to the interior or boundary solver by its depth."""
    pencil = mc.as_pencil(A)
    alpha = extremal.as_point(alpha)
    depth = relative_depth(pencil, alpha, grid)
    if depth >= INTERIOR_MARGIN_RTOL * (1.0 + pencil.norm):
        return _interior_state(pencil, alpha)
    return maxent_boundary(pencil, alpha, grid)


def round_boundary_points(A, grid: int = 512) -> list[complex]:
    """Extreme points with a unique supporting line that do not end a
    flat boundary portion (sampled at the resolution of the grid)."""
    pencil = mc.as_pencil(A)
    reports = extremal.extreme_points(pencil, grid)
    portions = extremal.flat_portions(pencil, grid)
    ends = np.array([e for fp in portions for e in fp.endpoints], dtype=complex)
    tol = 10 * extremal.POINT_MATCH_RTOL * (1.0 + pencil.norm)
    out = []
    for r in reports:
        if r.normal_arc[1] - r.normal_arc[0] > extremal.ARC_SINGLE_ANGLE:
            continue
        if ends.size and np.min(np.abs(ends - r.point)) <= tol:
            continue
        out.append(r.point)
    return out


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
    from the centroid of W(A) and (ii) boundary paths approaching alpha
    from both sides, and compares the path limits with the value at
    alpha; a spread above 1e-3 flags a discontinuity.
    """
    pencil = mc.as_pencil(A)
    alpha = extremal.as_point(alpha)
    scale = 1.0 + pencil.norm
    tol = extremal.POINT_MATCH_RTOL * scale

    theta, gval = extremal.supporting_angle(pencil, alpha, grid)
    if abs(gval) > tol:
        raise PreconditionError(
            f"alpha = {alpha} is not a boundary point of W(A) (gap {gval:.3e})"
        )
    fd, basis = extremal._preimage(pencil, alpha, theta, gval)
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
    portions = extremal.flat_portions(pencil, min(grid, 512))
    ends = np.array([e for fp in portions for e in fp.endpoints], dtype=complex)
    if ends.size and np.min(np.abs(ends - alpha)) <= 10 * tol:
        raise PreconditionError(
            f"alpha = {alpha} is an endpoint of a flat boundary portion, "
            "not a round boundary point"
        )

    value = _boundary_state(pencil, alpha, fd)

    centroid = rg.boundary_polygon(pencil, 512).centroid()
    radial_pts, radial_ent = [], []
    for k in range(n_steps):
        t = 1.0 - 0.5 ** (k + 1)
        p = centroid + t * (alpha - centroid)
        if boundary_depth(pencil, p, grid) < 10 * INTERIOR_MARGIN_RTOL * scale:
            break
        res = _interior_state(pencil, p)
        radial_pts.append(p)
        radial_ent.append(res.entropy)

    boundary_pts, boundary_ent = [], []
    for k in range(n_steps):
        dth = 0.2 * 0.5**k
        for sgn in (-1.0, 1.0):
            fd_side = extremal.face(pencil, fd.theta + sgn * dth)
            p = fd_side.p_plus if sgn < 0 else fd_side.p_minus
            if abs(p - alpha) <= tol:
                continue
            res = maxent_boundary(pencil, p, grid)
            boundary_pts.append(p)
            boundary_ent.append(res.entropy)

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
        radial_points=np.array(radial_pts),
        radial_entropies=np.array(radial_ent),
        boundary_points=np.array(boundary_pts),
        boundary_entropies=np.array(boundary_ent),
        radial_limit=float(radial_limit),
        boundary_limit=float(boundary_limit),
        discontinuous=bool(spread > 1e-3),
    )
