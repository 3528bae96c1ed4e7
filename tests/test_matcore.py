import numpy as np
import pytest

from numrange import matcore as mc, rangegeo as rg
from numrange.errors import PreconditionError

from conftest import (
    CIRCLE_POINT,
    DISK,
    DISK_EIG_BOUNDARY,
    JORDAN3,
    SEGMENT,
    TRIANGLE,
    random_hermitian,
    random_matrix,
)


def test_re_part_examples():
    assert np.allclose(mc.Pencil(DISK).R, [[0, 1], [1, 0]])
    H = np.array([[2, 1j], [-1j, 0]], dtype=complex)
    assert np.allclose(mc.Pencil(H).R, H)
    assert np.allclose(
        mc.Pencil(np.array([[0, 2, 0], [0, 0, 0], [0, 0, 2]])).R,
        [[0, 1, 0], [1, 0, 0], [0, 0, 2]],
    )


def test_im_part_examples():
    assert np.allclose(mc.Pencil(DISK).S, [[0, -1j], [1j, 0]])
    H = np.array([[2, 1j], [-1j, 0]], dtype=complex)
    assert np.allclose(mc.Pencil(H).S, np.zeros((2, 2)))
    assert np.allclose(
        mc.Pencil(np.array([[0, 2, 0], [0, 0, 0], [0, 0, 2]])).S,
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
    )


def test_reconstruction_identity(rng):
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        A = random_matrix(rng, d)
        pencil = mc.Pencil(A)
        err = mc.fro(pencil.R + 1j * pencil.S - A)
        assert err <= 1e-14 * max(mc.fro(A), 1e-300)


def test_rotate_examples():
    disk = mc.Pencil(DISK)
    assert np.allclose(disk.rotate(0.0), [[0, 1], [1, 0]])
    assert np.allclose(disk.rotate(np.pi / 2), [[0, -1j], [1j, 0]])
    # hand evaluation of the cos/sin combination at pi/3
    got = mc.Pencil(np.array([[0, 2, 0], [0, 0, 0], [0, 0, 2]])).rotate(np.pi / 3)
    want = np.array(
        [
            [0, 0.5 - 0.5j * np.sqrt(3), 0],
            [0.5 + 0.5j * np.sqrt(3), 0, 0],
            [0, 0, 1.0],
        ]
    )
    assert np.allclose(got, want, atol=1e-15)


def test_rotate_periodic(rng):
    pencil = mc.Pencil(random_matrix(rng, 4))
    assert np.allclose(pencil.rotate(0.4), pencil.rotate(0.4 + 2 * np.pi), atol=1e-14)


def test_rotate_prime_is_derivative(rng):
    pencil = mc.Pencil(random_matrix(rng, 3))
    assert np.allclose(pencil.prime(0.0), pencil.S, atol=1e-15)
    h = 1e-6
    for theta in [0.0, 0.9, 2.5]:
        fd = (pencil.rotate(theta + h) - pencil.rotate(theta)) / h
        assert mc.fro(fd - pencil.prime(theta)) < 1e-5
    got = mc.Pencil(np.array([[0, 2, 0], [0, 0, 0], [0, 0, 2]])).prime(0.0)
    assert np.allclose(got, [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_third_derivative_matches_differences_of_the_curvature(rng, d):
    # five-point central differences of h'' at step 1e-3 err by about
    # 1e-6 h^(5); angles where the top gap is small are skipped
    pencil = mc.Pencil(random_matrix(rng, d))
    step = 1e-3
    thetas = rng.uniform(0.0, 2.0 * np.pi, 16)
    thetas = thetas[pencil.top_gap(pencil.eigh(thetas)[0]) >= 0.1]
    assert thetas.size >= 4
    for theta in thetas:
        t = theta + step * np.array([-2.0, -1.0, 1.0, 2.0])
        h2 = pencil.curvature(t, pencil.eigh(t))
        fd = (8.0 * (h2[2] - h2[1]) - (h2[3] - h2[0])) / (12.0 * step)
        assert abs(pencil.third(np.array([theta]), pencil.eigh(np.array([theta])))[0] - fd) <= 1e-6


def test_f_eval_examples():
    assert mc.f_eval(np.diag([0.0, 1.0]), [0, 1]) == pytest.approx(1.0)
    assert mc.f_eval(DISK, np.array([1, 1]) / np.sqrt(2)) == pytest.approx(1.0)
    A3 = np.array([[0, 2, 0], [0, 0, 0], [0, 0, 2]])
    assert mc.f_eval(A3, [0, 0, 1]) == pytest.approx(2.0)
    with pytest.raises(PreconditionError):
        mc.f_eval(DISK, [1.0, 1.0])


def test_radial_coordinate_identity(rng):
    for _ in range(200):
        d = int(rng.integers(2, 7))
        A = random_matrix(rng, d)
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        x /= np.linalg.norm(x)
        theta = float(rng.uniform(0, 2 * np.pi))
        pencil = mc.Pencil(A)
        lhs = (mc.f_eval(A, x) * np.exp(-1j * theta)).real
        assert abs(lhs - mc.f_eval(pencil.rotate(theta), x).real) < 1e-12
        rhs = np.exp(1j * theta) * (
            mc.f_eval(pencil.rotate(theta), x) + 1j * mc.f_eval(pencil.prime(theta), x)
        )
        assert abs(mc.f_eval(A, x) - rhs) < 1e-12


def test_eig_hermitian_examples():
    # a Hermitian H is its own real part: A(0) = H, solved by Pencil.eigh
    w, V = mc.Pencil(np.diag([3.0, 1.0, 2.0])).eigh(0.0)
    assert np.allclose(w, [1, 2, 3])
    w, V = mc.Pencil(np.array([[0.0, 1.0], [1.0, 0.0]])).eigh(0.0)
    assert np.allclose(w, [-1, 1])
    for k in range(2):
        v = V[:, k]
        assert np.allclose(np.abs(v), [1 / np.sqrt(2)] * 2)
    H = np.array(
        [[0, 0.5 - 0.5j * np.sqrt(3), 0], [0.5 + 0.5j * np.sqrt(3), 0, 0], [0, 0, 1.0]]
    )
    assert np.allclose(mc.Pencil(H).eigh(0.0)[0], [-1, 1, 1])


def test_eig_hermitian_invariants(rng):
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        H = random_hermitian(rng, d)
        w, V = mc.Pencil(H).eigh(0.0)
        assert np.all(np.diff(w) >= 0)
        scale = max(mc.fro(H), 1e-300)
        assert np.linalg.norm(H @ V - V @ np.diag(w)) <= 1e-12 * scale
        assert np.max(np.abs(V.conj().T @ V - np.eye(d))) <= 1e-12


def test_eig_hermitian_deterministic_and_phase_fixed(rng):
    H = random_hermitian(rng, 5)
    V1 = mc._fix_phases(np.linalg.eigh(H)[1])
    V2 = mc._fix_phases(np.linalg.eigh(H)[1])
    assert np.array_equal(V1, V2)
    for k in range(5):
        v = V1[:, k]
        piv = v[np.argmax(np.abs(v))]
        assert piv.imag == pytest.approx(0.0, abs=1e-14)
        assert piv.real > 0


def test_fix_phases_keeps_the_first_of_tied_pivots():
    # a circle pre-image (1, e^{i theta}) / sqrt 2: its two moduli tie, and
    # a rounding-level change must not move the pivot to the second one
    theta = 1.1
    v = np.array([[1.0], [np.exp(1j * theta)]]) / np.sqrt(2.0)
    bumped = v * np.array([[1.0], [1.0 + 4.0 * np.finfo(float).eps]]) * np.exp(0.7j)
    assert np.abs(bumped[1, 0]) > np.abs(bumped[0, 0])  # argmax picks the second
    fixed, fixed_bumped = mc._fix_phases(v), mc._fix_phases(bumped)
    assert fixed[0, 0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)
    assert np.max(np.abs(fixed - fixed_bumped)) <= 1e-15
    # the stacked form pivots each column on its own
    stack = mc._fix_phases(np.stack([bumped, v * 1j]))
    assert np.max(np.abs(stack - fixed)) <= 1e-15


def test_eig_hermitian_rejects_nonhermitian():
    with pytest.raises(PreconditionError):
        mc.check_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_matches_lapack(rng):
    for _ in range(100):
        H = random_hermitian(rng, int(rng.integers(2, 8)))
        got = mc.Pencil(H).eigh(0.0)[0]
        want = np.linalg.eigvalsh(H)
        assert np.allclose(got, want, atol=1e-12 * max(1, mc.fro(H)))


def test_compress_examples(rng):
    B = np.diag([1.0, 2.0, 3.0])
    assert np.allclose(mc.compress(B, np.eye(3)), B)
    Q = np.array([[1, 0], [0, 0], [0, 1.0]])
    assert np.allclose(mc.compress(B, Q), np.diag([1.0, 3.0]))
    Bim = mc.Pencil(np.array([[0, 2, 0], [0, 0, 0], [0, 0, 1]])).S
    Q = np.array([[1, 0], [1, 0], [0, np.sqrt(2)]]) / np.sqrt(2)
    assert np.allclose(mc.compress(Bim, Q), np.zeros((2, 2)), atol=1e-15)
    with pytest.raises(PreconditionError):
        mc.compress(B, np.array([[1.0, 1.0], [0, 1.0], [0, 0]]))


def test_compress_hermitian_stays_hermitian(rng):
    H = random_hermitian(rng, 5)
    Q = np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))[0]
    C = mc.compress(H, Q)
    assert mc.fro(C - C.conj().T) <= 1e-14 * max(mc.fro(H), 1)


def test_schur3_examples():
    U, T = mc.schur3(np.array([[1, 2, 3], [0, 4, 5], [0, 0, 6]], dtype=complex))
    assert np.allclose(U, np.eye(3))
    A = np.diag([0.0, 1.0, 1.0j])
    U, T = mc.schur3(A)
    assert sorted(np.round(np.diag(T), 12), key=lambda z: (z.real, z.imag)) == [
        0,
        1j,
        1,
    ]
    U, T = mc.schur3(CIRCLE_POINT)
    assert np.allclose(sorted(np.abs(np.diag(T))), [0, 0, 2], atol=1e-12)


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


def test_schur3_invariants(rng):
    for _ in range(300):
        A = random_matrix(rng, 3)
        U, T = mc.schur3(A)
        scale = max(mc.fro(A), 1e-300)
        assert mc.fro(U.conj().T @ U - np.eye(3)) <= 1e-12
        assert mc.fro(U.conj().T @ A @ U - T) <= 1e-10 * scale
        assert np.allclose(np.tril(T, -1), 0)
        # diag(T) equals the characteristic roots (independent oracle)
        c2, c1, c0 = char_poly_coeffs3(A)
        roots = np.roots([1.0, c2, c1, c0])
        got = np.sort_complex(np.diag(T))
        want = np.sort_complex(roots)
        assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, scale)


def test_schur3_defective_and_multiple_roots(rng):
    U, T = mc.schur3(np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex))
    assert np.allclose(np.diag(T), 0, atol=1e-12)
    # double eigenvalue under a random unitary similarity
    M = np.array([[0.5, 1, 0.5], [0, 0.5, -0.5], [0, 0, 1]], dtype=complex)
    Q = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    U, T = mc.schur3(Q.conj().T @ M @ Q)
    got = np.sort_complex(np.diag(T))
    assert np.max(np.abs(got - np.array([0.5, 0.5, 1.0]))) < 1e-10
    # a triple root of a Jordan block in the same frame
    U, T = mc.schur3(Q.conj().T @ (np.eye(3) + JORDAN3) @ Q)
    assert np.max(np.abs(np.diag(T) - 1.0)) < 1e-10
    # two eigenvalues delta apart, a normal matrix in unitary frames: the
    # near-double root keeps its own eigenvector, not the pair's mean
    for delta in (1e-8, 1e-7, 1e-6):
        frames = np.random.default_rng(7)
        A = np.diag([0, 1, 1 + 1j * delta]).astype(complex)
        for _ in range(20):
            Q = np.linalg.qr(frames.standard_normal((3, 3)) + 1j * frames.standard_normal((3, 3)))[0]
            B = Q.conj().T @ A @ Q
            U, T = mc.schur3(B)
            assert mc.fro(U.conj().T @ B @ U - T) <= 1e-10 * mc.fro(B)


class FullGridPencil(mc.Pencil):
    """Pencil whose grid faces solve A(theta) at every linspace angle."""

    def grid_faces(self, N, tol):
        thetas = np.linspace(0.0, 2.0 * np.pi, N, endpoint=False)
        return (thetas, *self.faces(thetas, tol, np.linalg.eigh(self.rotate(thetas))))


def half_turn_cases():
    """The six fixtures and seeded Ginibre draws, d = 1, 2, 3, 8, 32."""
    rng = np.random.default_rng(5)
    mats = [
        ("circle_point", CIRCLE_POINT),
        ("disk_eig_boundary", DISK_EIG_BOUNDARY),
        ("disk", DISK),
        ("triangle", TRIANGLE),
        ("segment", SEGMENT),
        ("jordan", JORDAN3),
    ]
    for d in (1, 2, 3, 8, 32):
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mats.append((f"ginibre{d}", G / np.linalg.norm(G)))
    return [pytest.param(A, N, id=f"{name}-{N}") for name, A in mats for N in (64, 65, 512, 1024)]


@pytest.mark.parametrize(("A", "N"), half_turn_cases())
def test_grid_half_turn_matches_full_solve(A, N):
    tol = 1e-12 * (1.0 + mc.fro(A))
    thetas = np.linspace(0.0, 2.0 * np.pi, N, endpoint=False)
    pencil = mc.Pencil(A)
    want = np.linalg.eigvalsh(pencil.rotate(thetas))
    got_t, w = pencil.grid(N)
    assert np.array_equal(got_t, thetas)
    assert np.max(np.abs(w - want)) <= tol
    # the kept eigenpairs at every grid index: unit eigenvectors of A(theta)
    # at the linspace angle, with the eigenvalues of the grid
    gw, V = pencil._grid_eig(N, np.arange(N))
    assert np.array_equal(gw, w)
    res = pencil.rotate(thetas) @ V - gw[:, None, :] * V
    assert np.max(np.linalg.norm(res, axis=1)) <= tol
    assert np.max(np.abs(np.linalg.norm(V, axis=1) - 1.0)) <= 1e-12
    poly = rg.boundary_polygon(A, N)
    ref = rg.boundary_polygon(FullGridPencil(A), N)
    assert rg.hausdorff(poly, ref) <= tol


def test_grid_clustered_face_in_second_half():
    # TRIANGLE at 3 pi / 2 (grid index 768 of 1024) has the face [0, 1]:
    # A(3 pi / 2) = diag(0, 0, -1), read from the bottom of A(pi / 2)
    pencil = mc.Pencil(TRIANGLE)
    thetas, sup, lo, hi = pencil.grid_faces(1024, pencil.ctol)
    assert thetas[768] == 1.5 * np.pi
    assert abs(sup[768]) <= 1e-15 and abs(lo[768]) <= 1e-15 and abs(hi[768] - 1.0) <= 1e-15
    poly = rg.boundary_polygon(TRIANGLE, 1024)
    assert rg.hausdorff(poly, rg.boundary_polygon(FullGridPencil(TRIANGLE), 1024)) <= 2e-12
    assert rg.hausdorff(poly, rg.ConvexPolygon.from_complex([0.0, 1.0, 1.0j])) <= 1e-15
