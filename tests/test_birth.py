import numpy as np
import pytest

from numrange import birth, extremal as ex, matcore as mc, rangegeo as rg
from numrange.errors import PreconditionError

from conftest import CIRCLE_POINT, DISK, DISK_EIG_BOUNDARY, random_hermitian

SQ3 = np.sqrt(3.0)


def test_default_H_examples():
    Q = np.eye(3)[:, :2]
    H = birth.default_H(Q)
    assert np.allclose(H, np.diag([1.0, 0, 0]))
    Q = np.array([[1, 0], [1, 0], [0, np.sqrt(2)]]) / np.sqrt(2)
    H = birth.default_H(Q)
    assert np.allclose(H, np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]]))
    mu = np.linalg.eigvalsh(mc.compress(H, Q))
    assert np.allclose(mu, [0.0, 1.0], atol=1e-14)
    with pytest.raises(PreconditionError):
        birth.default_H(np.eye(3)[:, :1])


def test_birth_family_fixture():
    fam = birth.birth_family(DISK_EIG_BOUNDARY, 1 + 0j)
    assert fam.theta % (2 * np.pi) == pytest.approx(0.0, abs=1e-12) or fam.theta % (
        2 * np.pi
    ) == pytest.approx(2 * np.pi, abs=1e-12)
    assert fam.lam == pytest.approx(0.0, abs=1e-12)
    assert fam.mu_plus == pytest.approx(1.0)
    assert fam.mu_minus == pytest.approx(0.0, abs=1e-14)
    assert fam.basis.shape[1] == 2
    # P projects onto span{(1,1,0)/sqrt2, e3}
    want = np.array([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 1.0]])
    assert np.allclose(fam.P, want, atol=1e-9)


def test_birth_family_member_limits():
    fam = birth.birth_family(DISK_EIG_BOUNDARY, 1 + 0j)
    assert np.allclose(fam.member(0.0), DISK_EIG_BOUNDARY, atol=1e-13)
    eps = 0.05
    drift = mc.fro(fam.member(eps) - DISK_EIG_BOUNDARY)
    bound = eps * (np.linalg.norm(fam.P) + np.linalg.norm(fam.H))
    assert drift <= bound + 1e-12


def test_birth_family_rejects_simply_generated():
    with pytest.raises(PreconditionError, match="simply generated"):
        birth.birth_family(DISK, 1 + 0j)
    with pytest.raises(PreconditionError, match="simply generated"):
        birth.birth_family(CIRCLE_POINT, 2 + 0j)
    with pytest.raises(PreconditionError, match="simply generated"):
        birth.birth_family(CIRCLE_POINT, 0.5 + 1j * SQ3 / 2)
    with pytest.raises(PreconditionError):
        birth.birth_family(DISK, 0.2 + 0j)  # interior point


def test_birth_family_normal_degenerate():
    fam = birth.birth_family(np.diag([0.0, 1.0, 1.0]).astype(complex), 1 + 0j)
    assert fam.basis.shape[1] == 2
    assert fam.lam == pytest.approx(-np.sin(fam.theta), abs=1e-9)


def test_birth_family_custom_H():
    Q = ex.preimage(DISK_EIG_BOUNDARY, 1 + 0j)
    H = np.diag([1.0, -1.0, 0.5])
    fam = birth.birth_family(DISK_EIG_BOUNDARY, 1 + 0j, H=H)
    K = mc.compress(H, fam.basis)
    mu = np.linalg.eigvalsh(K)
    assert fam.mu_minus == pytest.approx(mu[0])
    assert fam.mu_plus == pytest.approx(mu[-1])
    scalar_H = np.eye(3)
    with pytest.raises(PreconditionError, match="scalar"):
        birth.birth_family(DISK_EIG_BOUNDARY, 1 + 0j, H=scalar_H)


def test_verify_birth_fixture_closed_forms():
    fam = birth.birth_family(DISK_EIG_BOUNDARY, 1 + 0j)
    rows = birth.verify_birth(fam, [1e-1, 1e-2, 1e-3])
    for row in rows:
        assert row.flat_length == pytest.approx(row.eps, abs=1e-8)
        assert row.hausdorff_to_alpha == pytest.approx(row.eps * np.sqrt(2), abs=1e-8)
        assert row.endpoint_error <= 1e-8 * (1 + row.eps)
    # the eps = 0.1 row reproduces the hand-computed endpoints
    fd = ex.face(fam.member(0.1), fam.theta)
    ends = sorted([fd.p_plus, fd.p_minus], key=lambda z: z.imag)
    assert abs(ends[0] - (1.1 + 0.0j)) < 1e-8
    assert abs(ends[1] - (1.1 + 0.1j)) < 1e-8


def test_verify_birth_linear_law():
    fam = birth.birth_family(DISK_EIG_BOUNDARY, 1 + 0j)
    r1, r2 = birth.verify_birth(fam, [0.08, 0.04])
    assert r2.flat_length == pytest.approx(r1.flat_length / 2, abs=1e-10)


def test_verify_birth_input_validation():
    fam = birth.birth_family(DISK_EIG_BOUNDARY, 1 + 0j)
    with pytest.raises(PreconditionError):
        birth.verify_birth(fam, [1e-3, 1e-1])
    with pytest.raises(PreconditionError):
        birth.verify_birth(fam, [0.1, -0.1])
    with pytest.raises(PreconditionError):
        fam.member(-0.5)


def test_member_ranges_converge(rng):
    fam = birth.birth_family(DISK_EIG_BOUNDARY, 1 + 0j)
    eps = [0.2, 0.1, 0.05]
    dists = rg.range_converges([fam.member(e) for e in eps], DISK_EIG_BOUNDARY, 512)
    for e, dist in zip(eps, dists, strict=True):
        assert dist <= mc.fro(fam.member(e) - DISK_EIG_BOUNDARY) + 10.0 / 512


def test_necessity_probe_no_flat_near_simply_generated(rng):
    # perturbing the disk must not create portions shrinking onto the
    # simply generated boundary point (1, 0)
    alpha = 1.0 + 0j
    threshold = 10 * ex.FLAT_LENGTH_RTOL * (1 + mc.fro(DISK))
    for _ in range(200):
        E = random_hermitian(rng, 2) + 1j * random_hermitian(rng, 2)
        B = DISK + 1e-3 * E / mc.fro(E)
        for fp in ex.flat_portions(B, 128):
            d_to_alpha = max(abs(fp.endpoints[0] - alpha), abs(fp.endpoints[1] - alpha))
            assert d_to_alpha >= threshold


def test_birth_laws_do_not_depend_on_preimage_basis(rng):
    # default_H takes the first basis column, so H and the members follow
    # the basis; P, the flat lengths and the endpoint laws must not
    eps = [0.2, 0.05, 0.01]
    for A, alpha in ((DISK_EIG_BOUNDARY, 1 + 0j), (np.kron(np.eye(2), DISK), 1j)):
        fam = birth.birth_family(A, alpha)
        Q = fam.basis
        rows = birth.verify_birth(fam, eps)
        for _ in range(3):
            U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
            QU = Q @ U
            other = birth.birth_family(A, alpha, H=birth.default_H(QU))
            assert np.abs(QU @ QU.conj().T - fam.P).max() <= 1e-14
            assert np.array_equal(other.P, fam.P)
            assert (other.mu_minus, other.mu_plus) == pytest.approx((fam.mu_minus, fam.mu_plus), abs=1e-14)
            for r, s in zip(rows, birth.verify_birth(other, eps), strict=True):
                assert s.flat_length == pytest.approx(r.flat_length, abs=1e-12)
                assert s.endpoint_error <= 1e-12 and r.endpoint_error <= 1e-12
            assert not np.allclose(other.H, fam.H)  # H depends on the basis


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_H_is_basis_invariant(seed):
    # with the matrix and the supporting angle, q1 comes from the reduced
    # pencil on span(Q): the members built from Q and from QU agree
    rng = np.random.default_rng(seed)
    W = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    for F in (np.eye(3), W):
        A = F.conj().T @ DISK_EIG_BOUNDARY @ F
        fam = birth.birth_family(A, 1 + 0j)
        for _ in range(3):
            U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
            H = birth.default_H(fam.basis @ U, A, fam.theta)
            other = birth.birth_family(A, 1 + 0j, H=H)
            for eps in (0.1, 0.01, 0.0):
                assert np.abs(other.member(eps) - fam.member(eps)).max() <= 1e-12
        # q1 spans the pre-image of 1 in the disk block, (1, 1, 0) / sqrt 2
        v = F.conj().T @ np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        assert np.abs(fam.H - np.outer(v, v.conj())).max() <= 1e-12
