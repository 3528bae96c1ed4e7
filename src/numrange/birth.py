"""Birth of a flat boundary portion at a multiply generated extreme point.

Given an extreme point whose pre-image has dimension at least two, an
explicit one-parameter family of matrices is constructed whose numerical
ranges carry genuine flat boundary portions shrinking onto the point.
The construction refuses simply generated extreme points: no flat
portion can be born there, which is exactly the necessity half of the
characterization this family witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import extremal, matcore as mc
from .errors import PreconditionError

# Scalar-compression verification tolerance for the recovered height.
ALPHA_RECHECK_RTOL = 1e-9


def default_H(Q, A=None, theta: float | None = None) -> np.ndarray:
    """Rank-one Hermitian matrix q1 q1* on a unit vector q1 of span(Q).

    Its restriction to span(Q) has eigenvalues {1, 0, ...}: never a
    scalar, with the simplest possible spectrum for endpoint formulas.

    With the matrix ``A`` (or its Pencil) and the supporting angle
    ``theta`` of the pre-image Q, q1 = Q z depends on span(Q) only: z is
    the top eigenvector of Q*TQ, where T = Q_c M2 Q_c* carries the
    second-order term M2 of the reduced pencil
    (:meth:`~numrange.matcore.Pencil.reduced`) of the top eigenvalue
    cluster Q_c of A(theta), when that eigenvalue is simple (gap above
    ``ctol``).  Replacing Q by QU for a unitary U then leaves H and the
    ``member`` matrices of a :class:`BirthFamily` unchanged.

    Otherwise (no ``A``, a top cluster that fills the space, or a
    repeated top eigenvalue of Q*TQ) q1 is the first column of Q, so H
    follows the basis; the projector P, the one-sided slopes mu+ and mu-
    (1 and 0), the flat lengths and the endpoint laws do not.
    """
    Q = np.asarray(Q, dtype=complex)
    if Q.ndim != 2 or Q.shape[1] < 2:
        raise PreconditionError("default_H requires a basis with at least 2 columns")
    q1 = Q[:, 0]
    if A is not None:
        pencil = mc.as_pencil(A)
        eig = pencil.eigh(theta)
        k = int(np.sum(eig[0] >= eig[0][-1] - pencil.ctol))
        if k < pencil.d:
            B = Q.conj().T @ eig[1][:, -k:]
            T = B @ pencil.reduced(theta, eig, k)[2] @ B.conj().T
            mu, Z = np.linalg.eigh((T + T.conj().T) / 2.0)
            if mu[-1] - mu[-2] > pencil.ctol:
                q1 = Q @ Z[:, -1]
    return np.outer(q1, q1.conj())


@dataclass(frozen=True)
class BirthFamily:
    """Family member(eps) = e^{i theta}(A(theta) + eps P + i (A'(theta) + eps H)).

    P projects onto the pre-image eigenspace of alpha; H tilts the face
    so that member(eps) carries a flat portion of length eps*(mu+ - mu-)
    through the lifted endpoint formulas.  member(0) reconstructs the
    base matrix exactly.
    """

    base: np.ndarray
    alpha: complex
    theta: float
    sigma: str  # '+', '-', or 'm' when the face is a singleton
    support: float
    lam: float
    mu_plus: float
    mu_minus: float
    P: np.ndarray
    H: np.ndarray
    basis: np.ndarray = field(repr=False)

    def member(self, eps: float) -> np.ndarray:
        if eps < 0:
            raise PreconditionError("member requires eps >= 0")
        pencil = mc.Pencil(self.base)
        At, Ap = pencil.rotate(self.theta), pencil.prime(self.theta)
        u = np.exp(1j * self.theta)
        return u * (At + eps * self.P + 1j * (Ap + eps * self.H))

    def expected_endpoints(self, eps: float) -> tuple[complex, complex]:
        """Endpoints of the face of member(eps) at theta, in closed form."""
        u = np.exp(1j * self.theta)
        hi = u * (self.support + eps + 1j * (self.lam + eps * self.mu_plus))
        lo = u * (self.support + eps + 1j * (self.lam + eps * self.mu_minus))
        return lo, hi


def birth_family(A, alpha, H=None, grid: int = 512) -> BirthFamily:
    """Construct the flat-portion birth family at a multiply generated point.

    Raises :class:`PreconditionError` when alpha is not an extreme point
    of W(A), or is extreme but simply generated (pre-image dimension 1):
    no flat boundary portion can be born at such a point.
    """
    pencil = mc.as_pencil(A)
    A = pencil.A
    alpha = extremal.as_point(alpha)
    scale = pencil.scale

    # the pre-image face at the supporting angle
    fd, sigma, basis = extremal._preimage(pencil, alpha, *extremal.supporting_angle(pencil, alpha, grid))
    theta = fd.theta
    if basis.shape[1] < 2:
        raise PreconditionError(
            f"point {alpha} is simply generated (pre-image dimension 1): "
            "no flat boundary portion can be born at a simply generated "
            "extreme point"
        )

    C = mc.compress(pencil.prime(theta), basis)
    k = basis.shape[1]
    lam = float(np.trace(C).real) / k
    if np.linalg.norm(C - lam * np.eye(k)) > 1e-7 * scale:
        raise PreconditionError(
            f"pre-image compression at {alpha} is not scalar; the point is "
            "not a common value of the face map"
        )
    recon = np.exp(1j * theta) * (fd.support + 1j * lam)
    if abs(recon - alpha) > ALPHA_RECHECK_RTOL * scale * 10:
        raise PreconditionError(
            f"height extraction failed: e^(i theta)(support + i lam) = {recon} "
            f"does not match alpha = {alpha}"
        )

    if H is None:
        H = default_H(basis, pencil, theta)
    else:
        H = mc.check_hermitian(H)
        if H.shape != A.shape:
            raise PreconditionError("H must match the dimension of A")
    K = mc.compress(H, basis)
    mu = np.linalg.eigh((K + K.conj().T) / 2.0)[0]
    mu_minus, mu_plus = float(mu[0]), float(mu[-1])
    if mu_plus - mu_minus <= 1e-12 * (1.0 + np.linalg.norm(H)):
        raise PreconditionError(
            "H restricted to the pre-image is a scalar; choose H with a "
            "non-scalar restriction"
        )

    P = basis @ basis.conj().T
    return BirthFamily(
        base=A,
        alpha=alpha,
        theta=theta,
        sigma=sigma,
        support=fd.support,
        lam=lam,
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        P=P,
        H=H,
        basis=basis,
    )


@dataclass(frozen=True)
class BirthRow:
    """One row of the verification table for a birth family."""

    eps: float
    flat_length: float
    hausdorff_to_alpha: float
    endpoint_error: float


def verify_birth(family: BirthFamily, eps_list) -> list[BirthRow]:
    """Check the flat portions of member(eps) against the closed forms.

    For each eps the face of member(eps) at the supporting angle is
    computed from scratch; the row records its length, its Hausdorff
    distance to {alpha}, and the worst deviation of its endpoints from
    the predicted ones.
    """
    eps_arr = [float(e) for e in eps_list]
    if any(e <= 0 for e in eps_arr):
        raise PreconditionError("verify_birth requires positive eps values")
    if eps_arr != sorted(eps_arr, reverse=True):
        raise PreconditionError("verify_birth requires descending eps values")
    rows = []
    for eps in eps_arr:
        B = family.member(eps)
        fd = extremal.face(B, family.theta)
        lo, hi = family.expected_endpoints(eps)
        endpoint_error = max(abs(fd.p_minus - lo), abs(fd.p_plus - hi))
        d_h = max(abs(fd.p_minus - family.alpha), abs(fd.p_plus - family.alpha))
        rows.append(
            BirthRow(
                eps=eps,
                flat_length=fd.length,
                hausdorff_to_alpha=d_h,
                endpoint_error=endpoint_error,
            )
        )
    return rows
