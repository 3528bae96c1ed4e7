import numpy as np
import pytest

from numrange import extremal as ex, matcore as mc, maxent as me
from numrange.errors import PreconditionError

from conftest import (
    CIRCLE_POINT,
    DISK,
    DISK2,
    DISK_EIG_BOUNDARY,
    TRIANGLE,
    count_eighs,
    random_matrix,
)

LOG2 = np.log(2.0)


def brute_force_feasible_entropy(rng, A, alpha, n=4000):
    """Best entropy among randomly generated nearly-feasible states."""
    d = A.shape[0]
    best = -1.0
    for _ in range(n):
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = G @ G.conj().T
        rho /= np.trace(rho).real
        if abs(np.trace(A @ rho) - alpha) < 2e-2:
            best = max(best, me.entropy(rho))
    return best


def test_entropy_examples():
    assert me.entropy(np.eye(4) / 4) == pytest.approx(np.log(4))
    assert me.entropy(np.diag([1.0, 0.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert me.entropy(np.diag([0.75, 0.25])) == pytest.approx(
        -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
    )
    with pytest.raises(PreconditionError):
        me.entropy(np.diag([0.9, 0.2]))
    with pytest.raises(PreconditionError):
        me.entropy(np.diag([1.5, -0.5]))


def test_entropy_of_a_pure_state_is_exactly_zero():
    # 0 log 0 = 0: the floor inside the logarithm adds nothing to the sum,
    # and the zero is +0.0, not -0.0
    e = me.entropy(np.diag([1.0, 0.0, 0.0]))
    assert e == 0.0
    assert np.copysign(1.0, e) == 1.0


def test_maxent_interior_disk_center():
    res = me.maxent_interior(DISK, 0.0 + 0.0j)
    assert np.allclose(res.rho, np.eye(2) / 2, atol=1e-10)
    assert res.entropy == pytest.approx(LOG2, abs=1e-10)
    assert res.residual <= 1e-8


def test_maxent_interior_classical_bit():
    res = me.maxent_interior(np.diag([0.0, 1.0]), 0.75 + 0j)
    assert np.allclose(np.diag(res.rho).real, [0.25, 0.75], atol=1e-9)
    assert res.entropy == pytest.approx(0.5623351446188083, abs=1e-9)
    assert res.dual_point is not None


def test_maxent_interior_strictly_mixed(rng):
    res = me.maxent_interior(DISK_EIG_BOUNDARY, 0.0 + 0.0j)
    assert res.entropy >= LOG2 - 1e-9
    assert res.residual <= 1e-8
    # no sampled feasible state beats the solver
    best = brute_force_feasible_entropy(rng, DISK_EIG_BOUNDARY, 0.0 + 0.0j)
    assert res.entropy >= best - 5e-2


def test_maxent_interior_rejects_boundary():
    with pytest.raises(PreconditionError):
        me.maxent_interior(DISK, 1.0 + 0j)
    with pytest.raises(PreconditionError):
        me.maxent_interior(DISK, 1.5 + 0j)


def _project_to_constraint(A, sigma0, alpha, rho_star):
    """Brute-force projection onto the constraint set: kill the linear
    drift along the traceless observable directions, then mix toward the
    feasible optimum until positive semidefinite again."""
    d = A.shape[0]
    R, S = mc.re_part(A), mc.im_part(A)
    dirs = [O - np.trace(O).real / d * np.eye(d) for O in (R, S)]
    drift = complex(np.trace(A @ sigma0) - alpha)
    M = np.array([[np.trace(Oi @ Dj).real for Dj in dirs] for Oi in (R, S)])
    try:
        c = np.linalg.solve(M, [drift.real, drift.imag])
    except np.linalg.LinAlgError:
        return None
    sigma = sigma0 - c[0] * dirs[0] - c[1] * dirs[1]
    lo = float(np.linalg.eigvalsh(sigma)[0])
    if lo < 0:
        # rho_star satisfies the same constraints, so mixing preserves them
        t = -lo / (-lo + max(float(np.linalg.eigvalsh(rho_star)[0]), 1e-6))
        t = min(1.0, t * 1.01)
        sigma = (1 - t) * sigma + t * rho_star
        if np.linalg.eigvalsh(sigma)[0] < -1e-12:
            return None
    if abs(np.trace(A @ sigma) - alpha) > 1e-9:
        return None
    return sigma


def test_maxent_optimality_against_perturbations(rng):
    solved = 0
    while solved < 500:
        d = int(rng.integers(2, 5))
        A = random_matrix(rng, d)
        center = complex(np.trace(A)) / d  # mean of f on the basis: inside W
        if me.relative_depth(A, center) < 1e-4:
            continue
        res = me.maxent_interior(A, center)
        assert res.residual <= 1e-8
        solved += 1
        if solved % 10 != 0:
            continue  # the 50-state comparison on every tenth instance
        alpha = complex(np.trace(A @ res.rho))
        for _ in range(50):
            G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            sigma0 = G @ G.conj().T
            sigma0 /= np.trace(sigma0).real
            sigma = _project_to_constraint(A, 0.7 * res.rho + 0.3 * sigma0, alpha, res.rho)
            if sigma is None:
                continue
            assert me.entropy(sigma) <= res.entropy + 1e-8


def test_dual_gradient_matches_finite_differences(rng):
    for _ in range(30):
        d = int(rng.integers(2, 6))
        A = random_matrix(rng, d)
        R, S = mc.re_part(A), mc.im_part(A)
        center = complex(np.trace(A)) / d
        if me.relative_depth(A, center) < 1e-4:
            continue
        res = me.maxent_interior(A, center)
        u, v = res.dual_point
        target = np.array([center.real, center.imag])

        def dual(uv):
            K = uv[0] * R + uv[1] * S
            w = np.linalg.eigvalsh(K)
            m = w[-1]
            return m + np.log(np.sum(np.exp(w - m))) - uv @ target

        for point in (np.array([u, v]), np.zeros(2), np.array([u, v]) / 2 + 0.1):
            K = point[0] * R + point[1] * S
            rho, _ = me._gibbs(K)
            grad = np.array(
                [np.trace(rho @ R).real - target[0], np.trace(rho @ S).real - target[1]]
            )
            h = 1e-5
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (dual(point + e) - dual(point - e)) / (2 * h)
                assert abs(fd - grad[i]) < 1e-6


def test_maxent_boundary_fixture_multiply_generated():
    res = me.maxent_boundary(DISK_EIG_BOUNDARY, 1.0 + 0j)
    assert res.entropy == pytest.approx(LOG2, abs=1e-10)
    assert res.residual <= 1e-7
    q1 = np.array([1, 1, 0]) / np.sqrt(2)
    want = (np.outer(q1, q1) + np.diag([0, 0, 1.0])) / 2
    assert np.allclose(res.rho, want, atol=1e-7)
    assert res.dual_point is None


@pytest.mark.parametrize(
    ("A", "alpha"),
    [(DISK_EIG_BOUNDARY, 1.0 + 0j), (DISK2, 1.0 + 0j), (DISK2, np.exp(0.7j))],
)
def test_maxent_boundary_tangent_point_residual(A, alpha):
    # the supporting angle at the tangentially multiply generated point 1
    # of DISK_EIG_BOUNDARY is found to rounding, and on DISK2 the top
    # eigenvalue is double at every angle: the constraint holds to
    # rounding in both
    assert me.maxent_boundary(A, alpha).residual <= 1e-12


def test_maxent_boundary_pure_state():
    res = me.maxent_boundary(DISK, 0.0 + 1.0j)
    assert res.entropy == pytest.approx(0.0, abs=1e-10)
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    assert np.allclose(res.rho, np.outer(v, v.conj()), atol=1e-7)


def test_maxent_boundary_normal_vertex():
    res = me.maxent_boundary(TRIANGLE, 1.0 + 0j)
    assert np.allclose(res.rho, np.diag([0, 1.0, 0]), atol=1e-8)
    with pytest.raises(PreconditionError):
        me.maxent_boundary(TRIANGLE, 2.0 + 0j)


def test_maxent_boundary_flat_interior_point():
    # middle of the upper tangent segment of the circle-plus-point range
    mid = 1.25 + 1j * np.sqrt(3) / 4
    res = me.maxent_boundary(CIRCLE_POINT, mid)
    assert res.residual <= 1e-7
    assert res.entropy > 0.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_maxent_boundary_at_flat_portion_end_is_mixed_on_preimage(sign):
    # the tangent points 0.5 +- i sqrt(3)/2 of the circle-plus-point range
    # end its flat portions: the state is P/k on the basis preimage returns
    p = 0.5 + sign * 0.5j * np.sqrt(3.0)
    res = me.maxent_boundary(CIRCLE_POINT, p)
    B = ex.preimage(CIRCLE_POINT, p)
    assert np.abs(res.rho - B @ B.conj().T / B.shape[1]).max() <= 1e-15
    assert res.entropy <= 1e-14


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_maxent_boundary_next_to_flat_portion_end_is_gibbs(sign):
    # 1e-7 along the flat portion from its tangent-point end, beyond the
    # point-match tolerance: the relative interior, where the state is the
    # Gibbs state of the compressed derivative part
    end = 0.5 + sign * 0.5j * np.sqrt(3.0)
    p = end + 1e-7 * (2.0 - end) / abs(2.0 - end)
    res = me.maxent_boundary(CIRCLE_POINT, p)
    assert res.residual <= 1e-12
    assert 0.0 < res.entropy < 1e-5


@pytest.mark.parametrize("fraction", [1e-7, 1e-5, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-5, 1 - 1e-7])
def test_flat_portion_gibbs_state_meets_its_constraint(fraction):
    # the Gibbs dual on its bracket [-k / (eta - w0), k / (w_{k-1} - eta)]
    # solves to rounding along both flat portions of CIRCLE_POINT, up to
    # 1e-7 of either end
    for fp in ex.flat_portions(CIRCLE_POINT):
        a, b = fp.endpoints
        res = me.maxent_boundary(CIRCLE_POINT, a + fraction * (b - a))
        assert res.residual <= 1e-14


def test_state_straight_inward_from_a_flat_portion_end_is_the_end_state():
    # within the interior margin of the tangent point of CIRCLE_POINT,
    # straight inward from it: the coordinate along the face is the end's,
    # which no Gibbs state of the face has as its mean; the state is the
    # pure state on the end's pre-image, the limit of the family
    fp = ex.flat_portions(CIRCLE_POINT)[0]
    end = fp.endpoints[1]
    p = end - 2e-8 * (1.0 + np.linalg.norm(CIRCLE_POINT)) * np.exp(1j * fp.theta)
    res = me.infer(CIRCLE_POINT, p)
    x = ex.preimage(CIRCLE_POINT, end)
    assert np.max(np.abs(res.rho - x @ x.conj().T)) <= 1e-14
    assert res.entropy <= 1e-14


def test_flat_portion_state_reads_the_face_spectrum(monkeypatch):
    # the face carries mu and W of its compression, so the Gibbs branch
    # solves no face again: one Pencil.segments call, that of the face
    calls = []
    segments = mc.Pencil.segments

    def counted(self, *args, **kwargs):
        calls.append(1)
        return segments(self, *args, **kwargs)

    monkeypatch.setattr(mc.Pencil, "segments", counted)
    p = 1.25 + 0.25j * np.sqrt(3.0)
    res = me.maxent_boundary(CIRCLE_POINT, p)
    assert len(calls) == 1
    assert res.residual <= 1e-14
    pencil = mc.Pencil(CIRCLE_POINT)
    fd = ex.face(pencil, np.pi / 3)
    _, (Qm,), (mu,), (W,) = segments(pencil, np.pi / 3, pencil.ctol)
    assert np.array_equal(fd.mu, mu) and np.array_equal(fd.W, W) and np.array_equal(fd.basis_m, Qm)


def segment_range(phi):
    """(0.3 + 0.2i) I + e^{i phi} H, H the Hermitian part of the 3x3 complex
    Ginibre draw of default_rng(5): a segment whose normals are phi + pi/2
    and phi - pi/2, with the point 30% along it from lambda_min(H), at
    depth 0.3 (lambda_max - lambda_min)."""
    rng = np.random.default_rng(5)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = (G + G.conj().T) / 2.0
    lam = np.linalg.eigvalsh(H)
    u, c = np.exp(1j * phi), 0.3 + 0.2j
    return c * np.eye(3) + u * H, c + u * (lam[0] + 0.3 * (lam[-1] - lam[0])), 0.3 * (lam[-1] - lam[0])


@pytest.mark.parametrize("phi", [0.0, 0.7, np.pi / 2, 2.1])
def test_relative_depth_of_segment_with_normals_off_the_grid(phi):
    # the thinnest width of the range is read from the Gram matrix of the
    # traceless parts, so normals off the support grid are found as well
    A, p, want = segment_range(phi)
    depth = me.relative_depth(A, p)
    assert depth == pytest.approx(want, abs=1e-12)
    res = me.maxent_interior(A, p)
    assert res.residual <= 1e-12
    assert me.infer(A, p).dual_point is not None


def test_interior_to_boundary_consistency():
    # radial interior solutions approach the boundary compression value
    target = 1.0 + 0j
    bval = me.maxent_boundary(DISK_EIG_BOUNDARY, target)
    for dist in [1e-3, 1e-4, 1e-5]:
        res = me.maxent_interior(DISK_EIG_BOUNDARY, (1.0 - dist) + 0j)
        assert mc.fro(res.rho - bval.rho) <= max(50 * dist ** 0.5, 1e-4) or mc.fro(
            res.rho - bval.rho
        ) <= 1e-4


def test_interior_continuity(rng):
    A = random_matrix(rng, 3)
    c = complex(np.trace(A)) / 3
    base = me.maxent_interior(A, c)
    for delta in (1e-3, 1e-3j, -1e-3 + 1e-3j):
        res = me.maxent_interior(A, c + delta)
        assert mc.fro(res.rho - base.rho) <= 50 * abs(delta)


def test_round_boundary_points():
    pts = me.round_boundary_points(DISK, 128)
    assert len(pts) == 128
    assert all(abs(abs(p) - 1) < 1e-9 for p in pts)
    assert me.round_boundary_points(TRIANGLE, 128) == []
    pts = me.round_boundary_points(CIRCLE_POINT, 256)
    tangents = [0.5 + 1j * np.sqrt(3) / 2, 0.5 - 1j * np.sqrt(3) / 2]
    for p in pts:
        assert abs(abs(p) - 1) < 1e-6  # on the circle arc
        assert min(abs(p - t) for t in tangents) > 1e-8  # tangent points excluded


def two_scan_round_points(A, grid):
    """Reference for round_boundary_points: a second scan for the flat
    portions, whose ends are dropped from the single-angle reports."""
    pencil = mc.Pencil(A)
    reports = ex.extreme_points(pencil, grid)
    ends = np.array([e for fp in ex.flat_portions(pencil, grid) for e in fp.endpoints], dtype=complex)
    tol = 10 * ex.POINT_MATCH_RTOL * (1.0 + pencil.norm)
    return [
        r.point
        for r in reports
        if r.normal_arc[1] - r.normal_arc[0] <= ex.ARC_SINGLE_ANGLE
        and not (ends.size and np.min(np.abs(ends - r.point)) <= tol)
    ]


def test_round_boundary_points_scan_the_grid_once(rng, monkeypatch):
    mats = [DISK_EIG_BOUNDARY, CIRCLE_POINT, TRIANGLE]
    mats += [(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 4.0 for _ in range(3)]
    for A in mats:
        want = two_scan_round_points(A, 512)
        calls = []
        scan = ex._flat_candidates

        def counting(*args):
            calls.append(1)
            return scan(*args)

        with monkeypatch.context() as m:
            m.setattr(ex, "_flat_candidates", counting)
            got = me.round_boundary_points(A, 512)
        assert got == want
        assert len(calls) == 1


def test_discontinuity_probe_fixture():
    rep = me.discontinuity_probe(DISK_EIG_BOUNDARY, 1.0 + 0j)
    assert rep.value_entropy == pytest.approx(LOG2, abs=1e-6)
    assert rep.boundary_limit <= 1e-3
    assert rep.discontinuous
    assert np.all(rep.boundary_entropies <= 1e-6)


def test_discontinuity_probe_solves_at_most_100(monkeypatch):
    # the boundary and radial points are resolved in lockstep, one stacked
    # solve per step for all of them
    calls = []
    orig = np.linalg.eigh

    def eigh(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    rep = me.discontinuity_probe(DISK_EIG_BOUNDARY, 1.0 + 0j)
    assert rep.discontinuous
    assert len(calls) <= 100


def test_discontinuity_probe_solves_at_most_72(monkeypatch):
    # the probe value is read from the pre-image it has checked, without
    # solving its face again
    calls = count_eighs(monkeypatch)
    assert me.discontinuity_probe(DISK_EIG_BOUNDARY, 1.0 + 0j).discontinuous
    assert len(calls) <= 72


def test_interior_states_lockstep_matches_scalar():
    pencil = mc.Pencil(DISK_EIG_BOUNDARY)
    radial = me.discontinuity_probe(pencil, 1.0 + 0j).radial_points
    assert radial.size == 8
    together = me._interior_states(pencil, radial)
    for p, res in zip(radial, together):
        alone = me._interior_state(pencil, complex(p))
        assert abs(res.entropy - alone.entropy) <= 1e-12
        assert np.abs(np.subtract(res.dual_point, alone.dual_point)).max() <= 1e-12
        assert np.abs(res.rho - alone.rho).max() <= 1e-12


def ginibre(rng, d):
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return A / np.linalg.norm(A)


def haar_unitary(rng, d):
    Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def test_maxent_interior_converges_below_dual_rounding():
    # Newton reaches a gradient norm near 3e-10 here, where the Armijo
    # decrease sinks below the rounding of the dual value
    A = ginibre(np.random.default_rng(1), 3)
    res = me.maxent_interior(A, 0.0 + 0.0j)
    assert res.residual <= 1e-10
    assert 0.0 < res.entropy <= np.log(3)


def test_discontinuity_probe_unitary_invariance():
    rng = np.random.default_rng(0)
    for _ in range(40):
        U = haar_unitary(rng, 3)
        rep = me.discontinuity_probe(U.conj().T @ DISK_EIG_BOUNDARY @ U, 1.0 + 0j)
        assert rep.value_entropy == pytest.approx(LOG2, abs=1e-6)
        assert rep.discontinuous


def test_discontinuity_probe_rejections():
    with pytest.raises(PreconditionError, match="simply generated"):
        me.discontinuity_probe(DISK, 1.0 + 0j)
    with pytest.raises(PreconditionError):
        me.discontinuity_probe(TRIANGLE, 1.0 + 0j)
    with pytest.raises(PreconditionError):
        me.discontinuity_probe(TRIANGLE, 0.5 + 0.1j)
    with pytest.raises(PreconditionError):
        me.discontinuity_probe(DISK_EIG_BOUNDARY, 0.0 + 1.0j)  # simply generated
