import numpy as np
import pytest

from numrange import extremal as ex, matcore as mc, maxent as me, rangegeo as rg
from numrange.errors import PreconditionError

from conftest import (
    CIRCLE_POINT,
    DISK,
    DISK2,
    DISK_EIG_BOUNDARY,
    JORDAN3,
    SEGMENT,
    TRIANGLE,
    ginibre,
    golden_min,
    haar_unitary,
    hermitian_parts,
    large_ginibre,
    matrices,
    random_matrix,
    record,
    segment_distance,
)

SQ3 = np.sqrt(3.0)


def top_cluster(A, theta):
    pencil = mc.Pencil(A)
    return pencil.segments(theta, pencil.ctol)[1][0]


def test_top_cluster_examples():
    Q = top_cluster(CIRCLE_POINT, 0.0)
    assert Q.shape[1] == 1
    assert np.allclose(np.abs(Q.ravel()), [0, 0, 1], atol=1e-12)
    Q = top_cluster(DISK_EIG_BOUNDARY, 0.0)
    assert Q.shape[1] == 2
    Q = top_cluster(np.diag([0.0, 1.0]), 0.0)
    assert np.allclose(np.abs(Q.ravel()), [0, 1], atol=1e-12)


def test_top_cluster_maps_into_face(rng):
    Q = top_cluster(DISK_EIG_BOUNDARY, 0.0)
    sup = mc.Pencil(DISK_EIG_BOUNDARY).support(0.0)
    for _ in range(50):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = Q @ (c / np.linalg.norm(c))
        val = mc.f_eval(DISK_EIG_BOUNDARY, x)
        assert abs((val * np.exp(-1j * 0.0)).real - sup) <= 1e-9


def test_face_circle_point_at_pi_three():
    fd = ex.face(CIRCLE_POINT, np.pi / 3)
    assert fd.support == pytest.approx(1.0)
    assert abs(fd.p_plus - (0.5 + 1j * SQ3 / 2)) < 1e-12
    assert abs(fd.p_minus - 2.0) < 1e-12
    assert fd.deriv_plus == pytest.approx(0.0, abs=1e-12)
    assert fd.deriv_minus == pytest.approx(-SQ3)
    assert fd.deriv_plus >= fd.deriv_minus
    # endpoint membership on the supporting line
    u = np.exp(1j * np.pi / 3)
    for p in (fd.p_plus, fd.p_minus):
        assert (p * np.conj(u)).real == pytest.approx(fd.support, abs=1e-10)


def test_face_singleton_with_fat_preimage():
    fd = ex.face(DISK_EIG_BOUNDARY, 0.0)
    assert abs(fd.p_plus - 1.0) < 1e-12 and abs(fd.p_minus - 1.0) < 1e-12
    assert fd.basis_plus.shape[1] == 2
    assert fd.basis_m.shape[1] == 2


def test_face_endpoint_preimages(rng):
    fd = ex.face(CIRCLE_POINT, np.pi / 3)
    for basis, target in [(fd.basis_plus, fd.p_plus), (fd.basis_minus, fd.p_minus)]:
        k = basis.shape[1]
        for _ in range(20):
            c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            x = basis @ (c / np.linalg.norm(c))
            assert abs(mc.f_eval(CIRCLE_POINT, x) - target) <= 1e-8 * (1 + mc.fro(CIRCLE_POINT))


def test_face_chart_bijection(rng):
    # g(alpha) = <alpha, i e^{i theta}>, h(eta) = e^{i theta}(support + i eta)
    A = random_matrix(rng, 4)
    for theta in rng.uniform(0, 2 * np.pi, 5):
        fd = ex.face(A, theta)
        u = np.exp(1j * theta)
        for t in np.linspace(0, 1, 7):
            alpha = fd.p_minus + t * (fd.p_plus - fd.p_minus)
            eta = (alpha * np.conj(1j * u)).real
            back = u * (fd.support + 1j * eta)
            assert abs(back - alpha) <= 1e-12 * (1 + abs(alpha))


def test_eigencurve_derivatives_examples():
    # the faces at theta and theta + pi carry the top and the bottom
    # eigenvalue curve of A(theta), A(theta + pi) = -A(theta), with their
    # slopes
    D = np.diag([0.0, 1.0])
    top, bottom = ex.face(D, np.pi / 4), ex.face(D, 5 * np.pi / 4)
    curves = [(top.support, top.deriv_plus), (-bottom.support, -bottom.deriv_plus)]
    got = sorted((round(v, 10), round(d, 10)) for v, d in curves)
    s2 = np.sqrt(2) / 2
    assert got == [(0.0, 0.0), (round(s2, 10), round(-s2, 10))]
    for theta in [0.0, 1.0, 2.2]:
        fd = ex.face(DISK, theta)
        assert fd.support == pytest.approx(1.0) and fd.deriv_plus == pytest.approx(0.0, abs=1e-12)
    fd = ex.face(DISK_EIG_BOUNDARY, 0.0)
    assert abs(fd.support - 1.0) < 1e-9
    assert abs(fd.deriv_plus) < 1e-12 and abs(fd.deriv_minus) < 1e-12
    assert fd.basis_m.shape[1] == 2


def test_derivative_consistency_finite_differences(rng):
    h = 1e-5
    for _ in range(100):
        d = int(rng.integers(2, 6))
        A = random_matrix(rng, d)
        pencil = mc.Pencil(A)
        scale = 1 + mc.fro(A)
        for theta in rng.uniform(0, 2 * np.pi, 32):
            fd = ex.face(A, theta)
            fplus = (pencil.support(theta + h) - fd.support) / h
            fminus = (pencil.support(theta - h) - fd.support) / h
            assert abs(fd.deriv_plus - fplus) < 1e-4 * scale
            assert abs(-fd.deriv_minus - fminus) < 1e-4 * scale
            # endpoints sit on the supporting line and inside the range
            u = np.exp(1j * theta)
            for p in (fd.p_plus, fd.p_minus):
                assert abs((p * np.conj(u)).real - fd.support) <= 1e-10 * scale
        for p in (ex.face(A, 0.3).p_plus, ex.face(A, 0.3).p_minus):
            assert rg.contains(A, p)


def test_flat_portions_circle_point():
    fps = ex.flat_portions(CIRCLE_POINT, 512)
    assert len(fps) == 2
    thetas = sorted(fp.theta for fp in fps)
    assert thetas[0] == pytest.approx(np.pi / 3, abs=1e-9)
    assert thetas[1] == pytest.approx(5 * np.pi / 3, abs=1e-9)
    for fp in fps:
        ends = sorted(fp.endpoints, key=lambda z: z.real)
        assert abs(ends[0] - (0.5 + np.sign(ends[0].imag) * 1j * SQ3 / 2)) < 1e-9
        assert abs(ends[1] - 2.0) < 1e-9
        assert fp.length == pytest.approx(SQ3, abs=1e-9)


def test_flat_portions_disk_and_triangle():
    assert ex.flat_portions(DISK, 512) == []
    assert len(ex.flat_portions(TRIANGLE, 512)) == 3
    with pytest.raises(PreconditionError):
        ex.flat_portions(DISK, 32)


@pytest.mark.parametrize("grid", [256, 512, 1024])
def test_flat_portions_doubled_triangle(grid):
    # every eigenvalue of A(theta) is double, so the top gap is zero at
    # every angle; the edges are where the top pair meets the next one
    fps = ex.flat_portions(np.kron(np.eye(2), TRIANGLE), grid)
    assert [fp.theta for fp in fps] == pytest.approx([np.pi / 4, np.pi, 3 * np.pi / 2], abs=1e-12)
    assert [fp.length for fp in fps] == pytest.approx([np.sqrt(2.0), 1.0, 1.0], abs=1e-12)


def test_flat_portions_square_normals_in_range():
    # the normal 0 comes out of the polish as a tiny negative angle, whose
    # remainder modulo 2 pi must not round up to 2 pi
    fps = ex.flat_portions(np.diag([0.0, 1.0, 1.0j, 1.0 + 1.0j]), 512)
    assert [fp.theta for fp in fps] == pytest.approx([0.0, np.pi / 2, np.pi, 3 * np.pi / 2], abs=1e-12)
    assert all(0.0 <= fp.theta < 2 * np.pi for fp in fps)


@pytest.mark.parametrize("grid", [256, 512, 1024])
def test_flat_portions_disk_pair_plus_point(grid):
    # two unit disks and the point 2: the top eigenvalue is double on the
    # arc |theta| > pi/3 and meets 2 cos(theta) at its ends; in a unitary
    # frame and under z -> a z + b the portions turn by arg a
    rng = np.random.default_rng(7)
    B = np.zeros((5, 5), dtype=complex)
    B[:2, :2] = B[2:4, 2:4] = DISK
    B[4, 4] = 2.0
    U, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
    a, b = 0.7 * np.exp(0.4j), 0.3 - 0.2j
    fps = ex.flat_portions(a * U.conj().T @ B @ U + b * np.eye(5), grid)
    want = sorted((s * np.pi / 3 + np.angle(a)) % (2 * np.pi) for s in (1, -1))
    assert [fp.theta for fp in fps] == pytest.approx(want, abs=1e-9)
    assert [fp.length for fp in fps] == pytest.approx([abs(a) * SQ3] * 2, abs=1e-9)


def test_extreme_points_circle_point():
    reps = ex.extreme_points(CIRCLE_POINT, 512)
    for sign in (1, -1):
        target = 0.5 + sign * 1j * SQ3 / 2
        best = min(reps, key=lambda r: abs(r.point - target))
        assert abs(best.point - target) < 1e-6
        assert best.kind == "non-exposed"
        assert not best.multiply_generated
        assert best.normal_arc[1] - best.normal_arc[0] <= 1e-6
    vertex = min(reps, key=lambda r: abs(r.point - 2.0))
    assert vertex.kind == "exposed"
    assert vertex.preimage.shape[1] == 1
    assert vertex.normal_arc[1] - vertex.normal_arc[0] == pytest.approx(2 * np.pi / 3, abs=1e-6)
    # circle-arc points (tangent points excluded) are exposed; nothing is
    # multiply generated
    tangents = [0.5 + 1j * SQ3 / 2, 0.5 - 1j * SQ3 / 2]
    for r in reps:
        if abs(abs(r.point) - 1) < 1e-9 and min(abs(r.point - t) for t in tangents) > 1e-6:
            assert r.kind == "exposed"
    assert not any(r.multiply_generated for r in reps)


def test_extreme_points_order_stable_at_pi():
    # the report at -1 sits at angle pi about the mean of the reports; a
    # rounding-level move of its y must not carry it from last to first
    reps = ex.extreme_points(CIRCLE_POINT, 512)
    pts = np.array([r.point for r in reps])
    i = int(np.argmin(np.abs(pts + 1.0)))
    assert abs(pts[i] + 1.0) < 1e-12
    assert np.array_equal(ex._circular_order(pts), np.arange(len(pts)))
    for dy in (1e-16, -1e-16):
        moved = pts.copy()
        moved[i] += 1j * dy
        assert np.array_equal(ex._circular_order(moved), np.arange(len(pts)))
    # counterclockwise about the mean, cut inside the largest gap
    ang = np.unwrap(np.angle(pts - pts.mean()))
    assert np.all(np.diff(ang) > 0.0) and ang[-1] - ang[0] < 2.0 * np.pi


def test_extreme_points_multiply_generated():
    reps = ex.extreme_points(DISK_EIG_BOUNDARY, 256)
    best = min(reps, key=lambda r: abs(r.point - 1.0))
    assert best.kind == "exposed"
    assert best.multiply_generated
    assert best.preimage.shape[1] == 2
    others = [r for r in reps if abs(r.point - 1.0) > 1e-6]
    assert not any(r.multiply_generated for r in others)


def test_extreme_points_normal_matrix():
    reps = ex.extreme_points(TRIANGLE, 128)
    assert len(reps) == 3
    eigs = [0.0, 1.0, 1.0j]
    for r in reps:
        assert min(abs(r.point - e) for e in eigs) < 1e-9
        assert r.kind == "exposed"
        assert r.preimage.shape[1] == 1
        # preimage is the eigenvector of the matching eigenvalue
        v = r.preimage[:, 0]
        assert abs(mc.f_eval(TRIANGLE, v) - r.point) < 1e-10


def test_disjoint_union_property(rng):
    A = random_matrix(rng, 3) + np.diag([0.4, 0.4, -0.8])  # encourage a mix
    reps = ex.extreme_points(A, 256)
    fps = ex.flat_portions(A, 256)
    poly = rg.boundary_polygon(A, 256)
    pts = np.array([r.point for r in reps])
    for z in poly.as_complex():
        d_ext = np.min(np.abs(pts - z)) if pts.size else np.inf
        d_flat = min(
            (segment_distance(z, fp.endpoints[0], fp.endpoints[1]) for fp in fps),
            default=np.inf,
        )
        assert min(d_ext, d_flat) <= 1e-7 * (1 + mc.fro(A))


def test_preimage_examples(rng):
    B = ex.preimage(CIRCLE_POINT, 2.0 + 0j)
    assert B.shape[1] == 1
    assert np.allclose(np.abs(B.ravel()), [0, 0, 1], atol=1e-10)
    B = ex.preimage(DISK_EIG_BOUNDARY, 1.0 + 0j)
    assert B.shape[1] == 2
    for _ in range(100):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = B @ (c / np.linalg.norm(c))
        assert abs(mc.f_eval(DISK_EIG_BOUNDARY, x) - 1.0) <= 1e-7
    B = ex.preimage(DISK, 1j)
    v = B.ravel()
    want = np.array([1.0, 1.0j]) / np.sqrt(2)
    overlap = abs(np.vdot(want, v))
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_preimage_rejections():
    with pytest.raises(PreconditionError, match="interior"):
        ex.preimage(CIRCLE_POINT, 0.2 + 0j)
    with pytest.raises(PreconditionError, match="outside"):
        ex.preimage(CIRCLE_POINT, 3.0 + 0j)
    mid = 1.25 + 1j * SQ3 / 4  # middle of the upper tangent segment
    with pytest.raises(PreconditionError, match="relative interior"):
        ex.preimage(CIRCLE_POINT, mid)


def test_preimage_accepts_tuple_points():
    B = ex.preimage(DISK, (0.0, 1.0))
    assert B.shape[1] == 1


def face_at(R, S, theta, tol):
    """One face solve at one angle: (support, mu_lo, mu_hi), grouping within tol."""
    w, V = np.linalg.eigh(np.cos(theta) * R + np.sin(theta) * S)
    Q = V[:, w >= w[-1] - tol]
    mu = np.linalg.eigvalsh(Q.conj().T @ (np.cos(theta) * S - np.sin(theta) * R) @ Q)
    return w[-1], mu[0], mu[-1]


def face_distance(p, theta, face):
    sup, lo, hi = face
    u = np.exp(1j * theta)
    eta = (p * np.conj(1j * u)).real
    return np.hypot(sup - (p * np.conj(u)).real, max(lo - eta, 0.0, eta - hi))


def reference_extreme_points(A, grid):
    """extreme_points with one face solve per angle and per point: the loop
    version of its stacked solves."""
    R, S = hermitian_parts(A)
    scale = 1.0 + mc.fro(A)
    strict = ex.STRICT_GAP_RTOL * scale
    member_tol = ex.FACE_MEMBER_RTOL * scale
    step = 2.0 * np.pi / grid
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    portions = ex.flat_portions(A, grid)
    cand = []
    for t in thetas:
        fd = ex.face(A, t)
        cand.append((float(t), fd.p_minus))
        if abs(fd.p_plus - fd.p_minus) > 1e-10 * scale:
            cand.append((float(t), fd.p_plus))
    cand += [(fp.theta, e) for fp in portions for e in fp.endpoints]
    cand.sort(key=lambda c: (c[0], c[1].real, c[1].imag))
    seeds = []
    for t, p in cand:
        if all(abs(p - q) > 1e-10 * scale for _, q in seeds):
            seeds.append((t, p))

    def edge(p, inner, outer):
        for _ in range(48):
            mid = (inner + outer) / 2.0
            if face_distance(p, mid, face_at(R, S, mid, strict)) <= member_tol:
                inner = mid
            else:
                outer = mid
        return inner

    grid_faces = [face_at(R, S, t, strict) for t in thetas]
    ends = [e for fp in portions for e in fp.endpoints]
    out = []
    for t0, p in seeds:
        row = [face_distance(p, t, f) <= member_tol for t, f in zip(thetas, grid_faces)]
        j0 = int(round((t0 % (2 * np.pi)) / step)) % grid
        if not row[j0]:
            arc = (edge(p, t0, t0 - step), edge(p, t0, t0 + step))
        elif all(row):
            arc = (0.0, 2.0 * np.pi)
        else:
            jl = jr = j0
            while row[(jl - 1) % grid]:
                jl -= 1
            while row[(jr + 1) % grid]:
                jr += 1
            arc = (edge(p, jl * step, (jl - 1) * step), edge(p, jr * step, (jr + 1) * step))
        flat_end = any(abs(e - p) <= 10 * ex.POINT_MATCH_RTOL * scale for e in ends)
        kind = "non-exposed" if arc[1] - arc[0] <= ex.ARC_SINGLE_ANGLE and flat_end else "exposed"
        fd = ex.face(A, (arc[0] + arc[1]) / 2.0)
        if fd.length <= ex.POINT_MATCH_RTOL * scale:
            basis = fd.basis_m
        elif abs(p - fd.p_plus) <= abs(p - fd.p_minus):
            basis = fd.basis_plus
        else:
            basis = fd.basis_minus
        out.append((p, kind, arc, basis))
    return out


@pytest.mark.parametrize(
    "name",
    ["circle_point", "disk_eig_boundary", "disk", "triangle", "segment", "jordan", "g3a", "g3b", "g8"]
    # one point whose arc is the whole circle; duplicate candidates and
    # pre-images of dimension 2; a finer grid
    + ["scalar", "doubled_triangle", "g3a_256"],
)
def test_extreme_points_match_per_angle_reference(name):
    rng = np.random.default_rng(7)
    ginibre = {d: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (3, 8)}
    A = {
        "circle_point": CIRCLE_POINT,
        "disk_eig_boundary": DISK_EIG_BOUNDARY,
        "disk": DISK,
        "triangle": TRIANGLE,
        "segment": SEGMENT,
        "jordan": JORDAN3,
        "g3a": ginibre[3] / np.linalg.norm(ginibre[3]),
        "g3b": random_matrix(rng, 3),
        "g8": ginibre[8] / np.linalg.norm(ginibre[8]),
        "scalar": (0.5 - 2.0j) * np.eye(3, dtype=complex),
        "doubled_triangle": np.kron(np.eye(2), TRIANGLE),
        "g3a_256": ginibre[3] / np.linalg.norm(ginibre[3]),
    }[name]
    grid = 256 if name == "g3a_256" else 64
    tol = 1e-12 * (1.0 + mc.fro(A))
    got = ex.extreme_points(A, grid)
    want = reference_extreme_points(A, grid)
    assert len(got) == len(want)
    for p, kind, arc, basis in want:
        r = min(got, key=lambda r: abs(r.point - p))
        assert abs(r.point - p) <= tol
        assert r.kind == kind
        assert np.max(np.abs(np.subtract(r.normal_arc, arc))) <= tol
        P, Q = r.preimage @ r.preimage.conj().T, basis @ basis.conj().T
        assert np.max(np.abs(P - Q)) <= 1e-12


# exact pre-image projector of the multiply generated point 1 of DISK_EIG_BOUNDARY
DEB_PROJECTOR = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])


def disk2_projector(theta):
    """Exact pre-image projector of the point e^{i theta} of DISK2."""
    v = np.array([1.0, np.exp(1j * theta)]) / np.sqrt(2.0)
    return np.kron(np.eye(2), np.outer(v, v.conj()))


@pytest.mark.parametrize(
    ("A", "p", "P"),
    [
        (DISK_EIG_BOUNDARY, 1.0, DEB_PROJECTOR),
        (CIRCLE_POINT, 2.0, None),
        (DISK, 1j, None),
        (TRIANGLE, 1.0, None),
        (DISK2, 1.0, disk2_projector(0.0)),
        (DISK2, np.exp(0.7j), disk2_projector(0.7)),
    ],
)
def test_preimage_unitary_invariance(A, p, P):
    rng = np.random.default_rng(3)
    B = ex.preimage(A, p)
    if P is None:
        P = B @ B.conj().T
    else:
        assert np.max(np.abs(B @ B.conj().T - P)) <= 1e-12
    for _ in range(3):
        Q, R = np.linalg.qr(rng.standard_normal(A.shape) + 1j * rng.standard_normal(A.shape))
        U = Q * (np.diag(R) / np.abs(np.diag(R)))
        C = ex.preimage(U.conj().T @ A @ U, p)
        assert np.max(np.abs(C @ C.conj().T - U.conj().T @ P @ U)) <= 1e-12


def reference_supporting_angle(A, p, grid=512):
    """supporting_angle by grid scan and up to 80 bisection steps on the sign
    of g', one eigendecomposition per step.  A cell whose end slopes do not
    bracket a maximum keeps its grid angle on a plateau of g and runs a
    golden-section search otherwise; supporting_angle keeps the grid angle
    in both cases, whose g agrees to rounding."""
    R, S = hermitian_parts(A)
    scale = 1.0 + mc.fro(A)
    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    step = 2.0 * np.pi / grid

    def g_at(t):
        top = np.linalg.eigvalsh(np.cos(t) * R + np.sin(t) * S)[-1]
        return p.real * np.cos(t) + p.imag * np.sin(t) - top

    def g_slope(t):
        x = np.linalg.eigh(np.cos(t) * R + np.sin(t) * S)[1][:, -1]
        slope = (x.conj() @ (np.cos(t) * S - np.sin(t) * R) @ x).real
        return -p.real * np.sin(t) + p.imag * np.cos(t) - slope

    j = int(np.argmax([g_at(t) for t in thetas]))
    lo, hi = thetas[j] - step, thetas[j] + step
    slo, shi = g_slope(lo), g_slope(hi)
    if slo >= 0.0 >= shi:
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if g_slope(mid) >= 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15:
                break
        t = (lo + hi) / 2.0
    elif max(abs(slo), abs(shi)) <= 1e-11 * scale * (1.0 + abs(p)):
        t = thetas[j]
    else:
        t = golden_min(lambda th: -g_at(th), lo - step, hi + step)
    return t % (2.0 * np.pi), g_at(t)


def supporting_angle_cases():
    """Boundary, interior and exterior points of the fixtures, of seeded
    unit-Frobenius Ginibre matrices, d = 3, 8 and 32, and of TRIANGLE and
    CIRCLE_POINT in two Haar frames each (whose corners sit off the grid
    axes, where g has a plateau)."""
    rng = np.random.default_rng(11)
    cases = [
        ("circle_point", CIRCLE_POINT),
        ("disk_eig_boundary", DISK_EIG_BOUNDARY),
        ("disk", DISK),
        ("triangle", TRIANGLE),
        ("segment", SEGMENT),
        ("jordan", JORDAN3),
    ]
    for d in (3, 8, 32):
        for k in range(2):
            G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            cases.append((f"ginibre{d}_{k}", G / np.linalg.norm(G)))
    frames = np.random.default_rng(12)
    for name, A in (("triangle", TRIANGLE), ("circle_point", CIRCLE_POINT)):
        for k in range(2):
            U = haar_unitary(frames, 3)
            cases.append((f"{name}_haar{k}", U.conj().T @ A @ U))
    out = []
    for name, A in cases:
        R, S = hermitian_parts(A)
        centroid = complex(np.trace(A)) / A.shape[0]
        for k, t in enumerate(rng.uniform(0.0, 2.0 * np.pi, 3)):
            x = np.linalg.eigh(np.cos(t) * R + np.sin(t) * S)[1][:, -1]
            edge = complex(x.conj() @ A @ x)
            out += [
                pytest.param(A, edge, id=f"{name}-boundary{k}"),
                pytest.param(A, (edge + centroid) / 2.0, id=f"{name}-interior{k}"),
                pytest.param(A, edge + 0.3 * np.exp(1j * t), id=f"{name}-exterior{k}"),
            ]
    return out


@pytest.mark.parametrize(("A", "p"), supporting_angle_cases())
def test_supporting_angle_matches_bisection_reference(A, p):
    scale = 1.0 + mc.fro(A)
    t, g = ex.supporting_angle(A, p)
    t_ref, g_ref = reference_supporting_angle(A, p)
    assert abs(g - g_ref) <= 1e-12 * scale * (1.0 + abs(p))
    # the maximizer is unique where g has a strict quadratic top: the top
    # eigenvalue is simple there and g'' < 0 (not on a plateau of g)
    R, S = hermitian_parts(A)
    w, V = np.linalg.eigh(np.cos(t_ref) * R + np.sin(t_ref) * S)
    y = V.conj().T @ (np.cos(t_ref) * S - np.sin(t_ref) * R) @ V[:, -1]
    gaps = w[-1] - w[:-1]
    simple = gaps.size == 0 or gaps.min() > mc.CLUSTER_RTOL * scale
    h2 = -w[-1] + 2.0 * np.sum(np.abs(y[:-1]) ** 2 / gaps) if simple else np.nan
    d2 = -(p * np.exp(-1j * t_ref)).real - h2
    if d2 < -1e-6 * scale * (1.0 + abs(p)):
        assert abs(np.angle(np.exp(1j * (t - t_ref)))) <= 1e-10


@pytest.mark.parametrize("N", [256, 512])
def test_supporting_angle_does_not_depend_on_the_grids_a_pencil_kept(N):
    # a Pencil that kept the N grid (through boundary_polygon) and the 2N
    # grid gives the bits of a fresh Pencil: the supporting-angle search
    # solves its own angles and reads no kept eigenvector, and its cell
    # scan reads no eigenvalue the grid solved.  At the corners of the
    # Haar frames g has a plateau, where the last bits of a scan's
    # samples pick the argmax
    moved = []
    for case in supporting_angle_cases():
        A, p = case.values
        kept = mc.Pencil(A)
        rg.boundary_polygon(kept, N)
        kept.grid(2 * N)
        got, want = (np.array(ex.supporting_angle(P, p, N)) for P in (kept, mc.Pencil(A)))
        if got.tobytes() != want.tobytes():
            moved.append(case.id)
    assert moved == []


@pytest.mark.parametrize("N", [256, 512])
@pytest.mark.parametrize("B", [TRIANGLE, CIRCLE_POINT, DISK_EIG_BOUNDARY], ids=["triangle", "circle_point", "disk_eig_boundary"])
def test_range_distance_does_not_depend_on_the_grids_a_pencil_kept(B, N):
    # the cell scan of range_distance solves its own eigenvalues, so a
    # Pencil that kept the N grid (through boundary_polygon) gives the
    # bits of a fresh Pencil
    kept = mc.Pencil(JORDAN3)
    rg.boundary_polygon(kept, N)
    got, want = (rg.range_distance(P, B, N) for P in (kept, mc.Pencil(JORDAN3)))
    assert np.array(got).tobytes() == np.array(want).tobytes()


def band_cases():
    """Points whose supporting angle lies in the band where the top
    eigenvalue of DISK_EIG_BOUNDARY is double within ctol (|theta| < ~2.5e-4)."""
    rng = np.random.default_rng(5)
    Q, R = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    out = [pytest.param(DISK_EIG_BOUNDARY, p, id=f"fixture-{p}") for p in (0.5, 0.9, 0.99 + 1e-17j, 1.0)]
    out += [pytest.param(U.conj().T @ DISK_EIG_BOUNDARY @ U, p, id=f"unitary-{p}") for p in (0.5, 0.999, 1.0)]
    return out


@pytest.mark.parametrize(("A", "p"), band_cases())
def test_supporting_angle_in_band_solves_at_most_8(A, p, monkeypatch):
    calls = record(monkeypatch, mc.Pencil, "eigh")
    t, g = ex.supporting_angle(A, p, 1024)
    assert len(calls) <= 8
    # the maximizer is theta = 0, where g = Re p - 1
    assert abs(np.angle(np.exp(1j * t))) <= 1e-12
    assert g == pytest.approx(p.real - 1.0, abs=1e-14)


def lockstep_cases():
    """Matrices with point sets for the lockstep supporting-angle search:
    the band points, boundary, interior and exterior points of fixtures
    and Ginibre matrices up to d = 8, corners (plateaus of g), and the 16
    boundary points of the discontinuity probe."""
    rng = np.random.default_rng(12)
    out = []
    for param in band_cases():
        out.append(pytest.param(*param.values, id=f"band-{param.id}"))
    probe = me.discontinuity_probe(DISK_EIG_BOUNDARY, 1.0)
    out.append(pytest.param(DISK_EIG_BOUNDARY, probe.boundary_points, id="probe-boundary"))
    mats = [("disk_eig_boundary", DISK_EIG_BOUNDARY), ("circle_point", CIRCLE_POINT), ("triangle", TRIANGLE)]
    for d in (3, 8):
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mats.append((f"ginibre{d}", G / np.linalg.norm(G)))
    for name, A in mats:
        R, S = hermitian_parts(A)
        centroid = complex(np.trace(A)) / A.shape[0]
        pts = list(np.linalg.eigvals(A))
        for t in rng.uniform(0.0, 2.0 * np.pi, 6):
            x = np.linalg.eigh(np.cos(t) * R + np.sin(t) * S)[1][:, -1]
            edge = complex(x.conj() @ A @ x)
            pts += [edge, (edge + centroid) / 2.0, edge + 0.3 * np.exp(1j * t)]
        out.append(pytest.param(A, np.array(pts), id=name))
    return out


@pytest.mark.parametrize(("A", "points"), lockstep_cases())
def test_supporting_angles_lockstep_matches_scalar(A, points):
    scale = 1.0 + mc.fro(A)
    points = np.atleast_1d(points).astype(complex)
    thetas, gs = ex._supporting_angles(mc.Pencil(A), points, 1024)
    for p, t, g in zip(points, thetas, gs):
        t1, g1 = ex.supporting_angle(A, p, 1024)
        assert abs(np.angle(np.exp(1j * (t - t1)))) <= 1e-15
        assert abs(g - g1) <= 1e-15 * scale


def arc_edge_cases():
    rng = np.random.default_rng(0)
    g3 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rng = np.random.default_rng(0)
    g8 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    return [
        pytest.param(g3, 256, 6, id="ginibre3-256"),
        pytest.param(g8, 512, 6, id="ginibre8-512"),
        pytest.param(DISK_EIG_BOUNDARY, 256, 25, id="disk_eig_boundary-256"),
    ]


@pytest.mark.parametrize(("A", "grid", "cap"), arc_edge_cases())
def test_arc_edges_take_few_stacked_solves(A, grid, cap, monkeypatch):
    calls = record(monkeypatch, mc.Pencil, "eigh")
    reps = ex.extreme_points(A, grid)
    # one solve is the grid's and at most one the pre-images' of the points
    # that are no member of the face at their grid angle (they take theirs
    # at the arc midpoints); every other refines arc edges
    assert len(calls) - 2 <= cap
    assert len(reps) >= 3


@pytest.mark.parametrize(("d", "grid", "cap"), [(3, 256, 640), (3, 255, 765), (8, 64, 160)])
def test_extreme_points_read_edge_ends_and_preimages_from_the_grid(d, grid, cap, monkeypatch):
    # the grid's stack and the arc-edge confirmations are the only solves:
    # the first arc-edge model and the pre-images read the grid
    solved = record(monkeypatch, np.linalg, "eigh", matrices)
    ex.extreme_points(large_ginibre(d, 0), grid)
    assert sum(solved) <= cap
    assert len(solved) <= 2


@pytest.mark.parametrize(
    ("A", "grid"),
    [
        pytest.param(large_ginibre(3, 0), 256, id="ginibre3-256"),
        pytest.param(large_ginibre(8, 0), 64, id="ginibre8-64"),
        pytest.param(CIRCLE_POINT, 256, id="circle_point-256"),
    ],
)
def test_first_arc_edge_model_solves_no_grid_angle(A, grid, monkeypatch):
    # the bracket ends at grid angles take their eigenpairs from the grid;
    # only the ends about refined flat-portion angles (CIRCLE_POINT's) are
    # solved.  The log keeps the solves after the flat-portion scan: those
    # ends, then the edge confirmations
    step = 2.0 * np.pi / grid
    log = []
    record(monkeypatch, ex, "_flat_portions", lambda out, *args: log.clear())
    record(monkeypatch, mc.Pencil, "eigh", lambda out, self, t: log.append(np.ravel(t)))
    models = record(monkeypatch, ex, "_edge_model", lambda out, pencil, t, *args: np.array(t))
    ex.extreme_points(A, grid)
    t, solved = models[0], np.concatenate([np.empty(0), *log])
    on_grid = np.abs(t / step - np.rint(t / step)) <= 1e-12
    assert on_grid.sum() >= 3
    assert not np.isin(t[on_grid], solved).any()
    assert np.isin(t[~on_grid], solved).all()


@pytest.mark.parametrize(("d", "grid", "solved"), [(3, 256, 128), (3, 255, 255), (8, 64, 32)])
def test_extreme_points_of_a_smooth_range_solve_only_the_grid(d, grid, solved, monkeypatch):
    # every arc edge of a Ginibre draw is certified at its first proposal,
    # so the grid's one stack is the only solve
    calls = record(monkeypatch, np.linalg, "eigh", matrices)
    ex.extreme_points(large_ginibre(d, 0), grid)
    assert calls == [solved]


def test_extreme_points_of_circle_point_solve_at_most_258(monkeypatch):
    # half of the 516 matrices solved before arc edges were certified: the
    # corner, the flat-portion ends and the points about them still refine
    calls = record(monkeypatch, np.linalg, "eigh", matrices)
    assert len(ex.extreme_points(CIRCLE_POINT, 256)) == 174
    assert sum(calls) <= 258


@pytest.mark.parametrize("A", [CIRCLE_POINT, np.kron(np.eye(2), TRIANGLE)], ids=["circle_point", "kron_triangle"])
def test_model_minima_read_grid_angles_from_the_grid(A, monkeypatch):
    # inside extreme_points the grid is solved whole, so the seeds of the
    # polish that are grid angles take their eigenpairs from it: the gap
    # minima, and polished angles that land on the grid (10 of the 12 of
    # kron(I2, TRIANGLE)).  Only 2 angles off the grid are solved on each,
    # where 4 and 24 were
    solved = record(monkeypatch, mc.Pencil, "eigh", lambda out, self, t: np.size(t))
    inside = []
    model_minima = ex._model_minima

    def counted(pencil, t, *args):
        before = len(solved)
        out = model_minima(pencil, t, *args)
        inside.append(sum(solved[before:]))
        return out

    monkeypatch.setattr(ex, "_model_minima", counted)
    ex.extreme_points(A, 256)
    assert len(inside) >= 2
    assert sum(inside) <= 2


@pytest.mark.parametrize(
    "A", [large_ginibre(3, 0) + 1e3 * np.eye(3), 1e-3 * large_ginibre(3, 0)], ids=["shifted", "scaled"]
)
def test_certified_later_steps_save_a_solve(A, monkeypatch):
    # the first proposals of many edges are no roots to the floor here, and
    # one false-position step evaluates them; the proposals made there are
    # certified, so the next step closes those brackets without a solve
    calls = record(monkeypatch, np.linalg, "eigh", matrices)
    assert len(ex.extreme_points(A, 256)) == 256
    assert len(calls) <= 2


@pytest.mark.parametrize("grid", [64, 255, 512])
@pytest.mark.parametrize("a", [0.0, 1e-300, 1.0, -2.5 + 3.0j, 3.3e5 + 7.1e-3j, 1e8 - 1e-8j])
def test_extreme_points_of_a_1x1_matrix(a, grid):
    # W(a) = {a}: one exposed, simply generated point, whose normal arc is
    # the whole circle; the point is a itself and the pre-image [[1]],
    # bit for bit
    (r,) = ex.extreme_points(np.array([[a]], dtype=complex), grid)
    assert np.array(r.point).tobytes() == np.array(complex(a)).tobytes()
    assert r.preimage.tobytes() == np.ones((1, 1), dtype=complex).tobytes()
    assert (r.kind, r.multiply_generated, r.normal_arc) == ("exposed", False, (0.0, 2.0 * np.pi))


def test_flat_candidates_polish_distinct_seeds(monkeypatch):
    # the models of the two sizes and nearby gap minima give the same seed
    # angles on kron(I2, TRIANGLE); each is polished once
    seeds = record(monkeypatch, ex, "_polish", lambda out, pencil, t, m: np.array(t))
    ex.extreme_points(np.kron(np.eye(2), TRIANGLE), 256)
    assert len(seeds) >= 2
    assert all(np.unique(t).size == t.size for t in seeds)


def false_position_brackets():
    """Three brackets with their roots: two with the inside end on the
    left, one with it on the right."""
    a, b = np.array([0.0, 1.0, -0.5]), np.array([1.0, 0.0, 0.5])
    return a, b, np.array([0.3, 0.6, 0.1 + 1.0 / 3.0])


def recorded(f):
    """f, and the list of the (t, idx) of each of its calls."""
    calls = []

    def g(t, idx):
        calls.append((np.array(t), np.array(idx)))
        return f(t, idx)

    return g, calls


def test_false_position_first_call_takes_both_ends_of_every_bracket():
    # the root finder evaluates both ends of every bracket in its first
    # call of f, and nothing else; a linear f without proposals then
    # closes each bracket on its root
    a, b, root = false_position_brackets()
    sign = np.sign(b - a)

    def f(t, idx):
        return (t - root[idx]) * sign[idx], np.full(t.size, np.nan), np.zeros(t.size, dtype=bool)

    f, calls = recorded(f)
    got = ex._false_position(f, a, b, 1e-12, 1e-15)
    assert calls[0][0].tobytes() == np.concatenate([a, b]).tobytes()
    assert calls[0][1].tolist() == [0, 1, 2, 0, 1, 2]
    assert np.abs(got - root).max() <= 1e-12


def test_false_position_closes_a_certified_first_proposal_in_one_call():
    # brackets 0 and 1 take a certified first proposal at their root, from
    # the inside end (0, whose outside end proposes another angle in the
    # bracket) and, where the inside end proposes nothing, from the
    # outside end (1): they close there with the first call of f and are
    # never evaluated again.  Bracket 2 proposes nothing and refines
    a, b, root = false_position_brackets()
    sign = np.sign(b - a)

    def f(t, idx):
        prop = root[idx] + np.where((idx == 0) & (t == b[idx]), 0.25, 0.0)
        prop[((idx == 1) & (t == a[idx])) | (idx == 2)] = np.nan
        return (t - root[idx]) * sign[idx], prop, idx < 2

    f, calls = recorded(f)
    got = ex._false_position(f, a, b, 1e-12, 1e-15)
    assert got[:2].tobytes() == root[:2].tobytes()
    assert len(calls) >= 2 and all(set(idx.tolist()) == {2} for _, idx in calls[1:])
    assert abs(got[2] - root[2]) <= 1e-12


@pytest.mark.parametrize("tol", [1e-9, 0.0])
def test_false_position_brackets_a_jump_within_the_min_width(tol):
    # a step function has no root to any floor: each bracket ends at most
    # _min_width wide about the jump, its inside end just before it.  The
    # jump from -1 to 3 sends the secant point a quarter of the way in,
    # which section steps take over
    a, b, jump = false_position_brackets()
    sign = np.sign(b - a)

    def f(t, idx):
        return np.where((t - jump[idx]) * sign[idx] >= 0.0, 3.0, -1.0), np.full(t.size, np.nan), np.zeros(t.size, dtype=bool)

    f, calls = recorded(f)
    got = ex._false_position(f, a, b, tol, 0.0)
    ahead = (jump - got) * sign
    assert np.all(ahead > 0.0) and np.all(ahead <= ex._min_width(a, b, tol))
    assert max(np.bincount(idx).max() for _, idx in calls[1:]) == ex._SECTIONS - 1


def certificate_cases():
    """Ginibre draws of d in {2, 3, 4, 8, 32} in Haar frames, at the scales
    1e-3, 1 and 1e3 and with a shift of 1e3."""
    rng = np.random.default_rng(26)
    for d, grid in ((2, 64), (3, 256), (4, 128), (8, 64), (32, 64)):
        G, U = ginibre(rng, d), haar_unitary(rng, d)
        for a, b in ((1e-3, 0.0), (1.0, 0.0), (1e3, 0.0), (1.0, 1e3)):
            every = a >= 1.0 and b == 0.0  # every arc edge is certified
            yield pytest.param(a * (U.conj().T @ G @ U) + b * np.eye(d), grid, every, id=f"d{d}-a{a:g}-b{b:g}")


@pytest.mark.parametrize(("A", "grid", "every"), certificate_cases())
def test_certified_arc_edges_are_roots_and_move_no_bit(A, grid, every, monkeypatch):
    # every proposal the certificate accepts is a root of the arc-edge
    # function to its rounding floor when solved afresh, and certifying
    # nothing (every edge refined by false position) gives the same reports.
    # At scale 1e-3 and under the shift the first proposals of many edges
    # are no roots to the floor, and they are refined
    pencil = mc.Pencil(A)
    floor = ex._ROUNDING * pencil.scale
    certified = record(monkeypatch, ex, "_edge_model", lambda out, pencil, t, q, *args: (q[out[2]], out[1][out[2]]))
    reps = ex.extreme_points(pencil, grid)
    q, prop = (np.concatenate(x) for x in zip(*certified))
    if every:
        assert q.size == 2 * len(reps) == 2 * grid
    w, V = np.linalg.eigh(pencil.rotate(prop))
    assert np.all(w[:, -1] - w[:, -2] > ex.STRICT_GAP_RTOL * pencil.scale)
    v = V[..., -1]
    slope = np.einsum("ki,kij,kj->k", v.conj(), pencil.prime(prop), v).real
    f = np.abs(np.exp(1j * prop) * (w[:, -1] + 1j * slope) - q) - ex.FACE_MEMBER_RTOL * pencil.scale
    assert np.abs(f).max(initial=0.0) <= floor
    monkeypatch.setattr(ex, "_certified_roots", lambda pencil, t, *args: np.zeros(t.size, dtype=bool))
    ref = ex.extreme_points(mc.Pencil(A), grid)
    assert len(reps) == len(ref)
    for r, s in zip(reps, ref):
        assert (r.kind, r.multiply_generated) == (s.kind, s.multiply_generated)
        assert np.array([r.point, *r.normal_arc]).tobytes() == np.array([s.point, *s.normal_arc]).tobytes()
        assert r.preimage.tobytes() == s.preimage.tobytes()


@pytest.mark.parametrize(
    "A",
    [CIRCLE_POINT, TRIANGLE, large_ginibre(3, 0), large_ginibre(8, 0)],
    ids=["circle_point", "triangle", "d3", "d8"],
)
@pytest.mark.parametrize("grid", [255, 256])
def test_extreme_points_do_not_depend_on_the_grids_a_pencil_kept(A, grid):
    # extreme_points reads its own grid only: a Pencil that kept the grids
    # of twice and half the size gives the reports of a fresh Pencil, bit
    # for bit
    kept = mc.Pencil(A)
    kept.grid(2 * grid)
    rg.boundary_polygon(kept, grid // 2)
    reps, ref = ex.extreme_points(kept, grid), ex.extreme_points(mc.Pencil(A), grid)
    assert len(reps) == len(ref)
    for r, s in zip(reps, ref):
        assert (r.kind, r.multiply_generated) == (s.kind, s.multiply_generated)
        assert np.array([r.point, *r.normal_arc]).tobytes() == np.array([s.point, *s.normal_arc]).tobytes()
        assert r.preimage.tobytes() == s.preimage.tobytes()


# The tangent point 1 of DISK_EIG_BOUNDARY is multiply generated and its
# true normal cone is the angle 0, but extreme_points reads an arc of
# about +/-2.5e-7 rad there, whose edges move with the rounding of the
# frame: up to 3e-9 rad over 40 frames and grid rotations.
TANGENT_ARC_FLICKER = 1e-8


def covariance_cases():
    """Each matrix under two rotations e^{2 pi i k / N}, which map the grid
    of N angles to itself, and in two Haar frames."""
    rng = np.random.default_rng(260)
    for name, A, grid in (
        ("ginibre3", large_ginibre(3, 1), 256),
        ("ginibre8", large_ginibre(8, 1), 64),
        ("circle_point", CIRCLE_POINT, 256),
        ("disk_eig_boundary", DISK_EIG_BOUNDARY, 256),
    ):
        d = A.shape[0]
        for k in (1, 100):
            yield pytest.param(A, grid, 2.0 * np.pi * k / grid, np.eye(d), id=f"{name}-rotation{k}")
        for j in range(2):
            yield pytest.param(A, grid, 0.0, haar_unitary(rng, d), id=f"{name}-frame{j}")


@pytest.mark.parametrize(("A", "grid", "phi", "U"), covariance_cases())
def test_extreme_points_map_over_under_rotations_and_frames(A, grid, phi, U):
    # W(e^{i phi} U*AU) = e^{i phi} W(A): points turn by phi, normal arcs
    # shift by phi and pre-images map by U*.  The certificate closes most
    # arc edges of these inputs; the corners, flat-portion ends and the
    # tangent point refine theirs by false position
    tol = 1e-12 * (1.0 + np.linalg.norm(A))
    reps = ex.extreme_points(A, grid)
    moved = ex.extreme_points(np.exp(1j * phi) * (U.conj().T @ A @ U), grid)
    assert len(moved) == len(reps)
    pts = np.exp(1j * phi) * np.array([r.point for r in reps])
    match = [int(np.argmin(np.abs(pts - r.point))) for r in moved]
    assert len(set(match)) == len(reps)
    for r, i in zip(moved, match):
        s = reps[i]
        assert abs(r.point - pts[i]) <= tol
        assert (r.kind, r.multiply_generated) == (s.kind, s.multiply_generated)
        tangent = A is DISK_EIG_BOUNDARY and abs(s.point - 1.0) <= 1e-9
        shift = np.subtract(r.normal_arc, s.normal_arc) - phi
        assert np.abs(np.angle(np.exp(1j * shift))).max() <= (TANGENT_ARC_FLICKER if tangent else tol)
        P = U.conj().T @ s.preimage @ s.preimage.conj().T @ U
        assert np.abs(r.preimage @ r.preimage.conj().T - P).max() <= tol


@pytest.mark.parametrize(("A", "flat"), [(np.kron(np.eye(2), TRIANGLE), True), (DISK2, False)], ids=["kron_triangle", "disk2"])
def test_grid_faces_read_the_kept_eigenvectors(A, flat, monkeypatch):
    # the top eigenvalue is double at every angle, so every grid face is
    # clustered.  Its face reads the eigenvectors the grid kept: the only
    # grid angles Pencil.segments solves are the flat-portion candidates
    # that fall on the grid (TRIANGLE's normals pi/4, pi and 3 pi/2), and
    # DISK2 solves no grid angle again at all
    grid = 256
    step = 2.0 * np.pi / grid
    pencil = mc.Pencil(A)
    pencil.grid(grid)
    candidates = record(monkeypatch, ex, "_flat_candidates", lambda out, *args: np.array(out, dtype=float))
    segments = record(
        monkeypatch, mc.Pencil, "segments", lambda out, self, t, tol, eig=None: np.ravel(t) if eig is None else []
    )
    solved = record(monkeypatch, mc.Pencil, "eigh", lambda out, self, t: np.ravel(t))
    ex.extreme_points(pencil, grid)

    def on_grid(t):
        t = np.concatenate([np.empty(0), *t])
        return t[np.abs(t / step - np.rint(t / step)) <= 1e-12]

    assert np.isin(on_grid(segments), np.concatenate(candidates)).all()
    assert on_grid(segments).size == (3 if flat else 0)
    if not flat:
        assert on_grid(solved).size == 0


def midpoint_preimage_cases():
    """Matrices and grids for the pre-images read from the grid, with the
    exact projector of a point where one is pinned: the point 1 of
    DISK_EIG_BOUNDARY in 20 unitary frames."""
    cases = [
        pytest.param(large_ginibre(3, 0), 256, None, id="ginibre3-256"),
        pytest.param(large_ginibre(3, 0), 255, None, id="ginibre3-255"),
        pytest.param(large_ginibre(8, 0), 64, None, id="ginibre8-64"),
        pytest.param((0.5 - 2.0j) * np.eye(3, dtype=complex), 64, None, id="scalar"),
        pytest.param(DISK2, 256, None, id="disk2"),
        pytest.param(np.kron(np.eye(2), TRIANGLE), 256, None, id="kron_triangle"),
    ]
    rng = np.random.default_rng(23)
    for k in range(20):
        U = haar_unitary(rng, 3)
        pinned = (1.0, U.conj().T @ DEB_PROJECTOR @ U)
        cases.append(pytest.param(U.conj().T @ DISK_EIG_BOUNDARY @ U, 256, pinned, id=f"disk_eig_boundary-{k}"))
    return cases


@pytest.mark.parametrize(("A", "grid", "pinned"), midpoint_preimage_cases())
def test_preimages_read_from_the_grid_match_fresh_faces_at_arc_midpoints(A, grid, pinned):
    # the reference of each report is a fresh face at the midpoint of its
    # arc: the report's point is an endpoint of it, it is a segment exactly
    # where the point is non-exposed, and its pre-image of the point (the
    # endpoint eigenspace, the whole cluster for a face that is a point)
    # has the report's projector.  The projectors are rounding apart: the
    # bound is 1e-12 plus 16 eps scale / gap, the Davis-Kahan size of a
    # rounding of A(theta) with the top cluster a gap from the rest (about
    # 3e-4 next to the point 1 of DISK_EIG_BOUNDARY, where the gap closes).
    # The point 1 of DISK_EIG_BOUNDARY has the arc +/-2.54e-7 rad about its
    # one normal 0, so its midpoint's cluster turns with the midpoint; its
    # pre-image, read at the grid angle 0, is checked against the exact one
    pencil = mc.Pencil(A)
    tol = ex.POINT_MATCH_RTOL * pencil.scale
    reps = ex.extreme_points(A, grid)
    halves = set()
    for r in reps:
        P = r.preimage @ r.preimage.conj().T
        if pinned is not None and abs(r.point - pinned[0]) <= tol:
            assert r.multiply_generated and np.max(np.abs(P - pinned[1])) <= 1e-12
            continue
        mid = sum(r.normal_arc) / 2.0
        halves.add(mid % (2.0 * np.pi) >= np.pi)
        fd = ex.face(A, mid)
        if fd.length <= tol:
            basis = fd.basis_m
        elif abs(r.point - fd.p_plus) <= abs(r.point - fd.p_minus):
            basis = fd.basis_plus
        else:
            basis = fd.basis_minus
        assert min(abs(r.point - fd.p_plus), abs(r.point - fd.p_minus)) <= tol
        assert (r.kind == "non-exposed") == (fd.length > ex.FLAT_LENGTH_RTOL * pencil.scale)
        assert r.multiply_generated == (basis.shape[1] >= 2)
        w = np.linalg.eigvalsh(pencil.rotate(mid))
        k = fd.basis_m.shape[1]
        gap = w[-k] - w[-k - 1] if k < pencil.d else np.inf
        bound = 1e-12 + 16.0 * np.finfo(float).eps * pencil.scale / gap
        assert np.max(np.abs(P - basis @ basis.conj().T)) <= bound
    # both halves of the grid, the second read by the half-turn identity
    assert halves == {False, True} or len(reps) == 1
    assert pinned is None or any(abs(r.point - pinned[0]) <= tol for r in reps)


def stacked_face_cases():
    rng = np.random.default_rng(31)
    mats = [
        ("circle_point", CIRCLE_POINT),
        ("disk_eig_boundary", DISK_EIG_BOUNDARY),
        ("disk", DISK),
        ("disk2", DISK2),
        ("triangle", TRIANGLE),
        ("segment", SEGMENT),
        ("jordan3", JORDAN3),
        ("kron_triangle", np.kron(np.eye(2), TRIANGLE)),
    ]
    for d in (3, 8):
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mats.append((f"ginibre{d}", G / np.linalg.norm(G)))
    return [pytest.param(A, id=name) for name, A in mats]


@pytest.mark.parametrize("A", stacked_face_cases())
def test_stacked_faces_match_face_bit_for_bit(A):
    pencil = mc.Pencil(A)
    rng = np.random.default_rng(32)
    flat = [fp.theta for fp in ex.flat_portions(pencil, 512)]
    grid = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    angles = np.concatenate([grid, rng.uniform(0.0, 2.0 * np.pi, 32), flat])
    fields = ("theta", "support", "p_plus", "p_minus", "deriv_plus", "deriv_minus")
    fields += ("basis_m", "basis_plus", "basis_minus")
    for t, fd in zip(angles, ex._faces(pencil, angles)):
        one = ex.face(pencil, t)
        for f in fields:
            a, b = np.asarray(getattr(fd, f)), np.asarray(getattr(one, f))
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (t, f)


def test_flat_portions_of_triangle_solve_at_most_9(monkeypatch):
    # the faces at the polished angles come from one stacked solve
    calls = record(monkeypatch, np.linalg, "eigh")
    assert len(ex.flat_portions(TRIANGLE, 512)) == 3
    assert len(calls) <= 9


def test_extreme_points_in_a_band_everywhere_solve_at_most_64(monkeypatch):
    # the top eigenvalue of kron(I2, TRIANGLE)(theta) is double at every
    # angle: clustered faces are solved in stacks, with one compression
    # solve per cluster size, and the pre-images read the grid's rows at
    # the grid angles the points were seen at
    calls = record(monkeypatch, np.linalg, "eigh")
    reps = ex.extreme_points(np.kron(np.eye(2), TRIANGLE), 256)
    assert len(reps) >= 3
    assert len(calls) <= 64


@pytest.mark.parametrize("seed", range(20))
def test_greedy_dedup_matches_the_loop(seed):
    # clusters at and around the tolerance, exact duplicates, and mirror
    # images that share their real parts
    rng = np.random.default_rng(seed)
    tol = 1e-10
    k = rng.integers(1, 40)
    centers = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    pts = np.repeat(centers, rng.integers(1, 6, centers.size))
    r = np.where(rng.random(pts.size) < 0.3, 0.0, rng.uniform(0.2, 1.5, pts.size))
    pts = pts + tol * r * np.exp(2j * np.pi * rng.random(pts.size))
    pts = np.concatenate([pts, pts.conj(), pts[: pts.size // 3]])
    pts = pts[rng.permutation(pts.size)]
    want = np.zeros(pts.size, dtype=bool)
    taken = np.zeros(pts.size, dtype=bool)
    for i in range(pts.size):
        if not taken[i]:
            want[i] = True
            taken |= np.abs(pts - pts[i]) <= tol
    assert np.array_equal(ex._greedy_dedup(pts, tol), want)


def test_extreme_points_distance_entries_stay_linear_in_grid(monkeypatch):
    # the arc runs are read from a window of grid angles about each point,
    # not from every (point, grid angle) pair: about 1000 points at 1024
    # angles would be a million distances
    entries = record(monkeypatch, ex, "_segment_distance", lambda out, *args: np.size(out))
    reps = ex.extreme_points(large_ginibre(3, 0), 1024)
    assert len(reps) >= 1000
    assert sum(entries) <= 16 * 1024


def test_polish_drops_near_misses_early(monkeypatch):
    # most gap minima of a d = 8 Ginibre scan are near misses; each must
    # stop after a few solves instead of converging linearly to its spread
    solves, inside = [], []
    orig_polish, orig_eigh = ex._polish, np.linalg.eigh

    def polish(*args):
        inside.append(True)
        try:
            return orig_polish(*args)
        finally:
            inside.pop()

    def eigh(*args, **kwargs):
        if inside:
            solves.append(1)
        return orig_eigh(*args, **kwargs)

    monkeypatch.setattr(ex, "_polish", polish)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    ex.flat_portions(large_ginibre(8, 0), 64)
    assert len(solves) <= 12


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_preimage_at_tangent_point_is_unitarily_invariant(seed):
    # the non-exposed tangent point of CIRCLE_POINT: its supporting angle
    # pi/3 lies in a cluster band, where the two top eigenvalues cross
    p = 0.5 + 0.5j * SQ3
    v = np.array([1.0, np.exp(1j * np.pi / 3), 0.0]) / np.sqrt(2.0)
    P = np.outer(v, v.conj())
    B = ex.preimage(CIRCLE_POINT, p)
    assert np.max(np.abs(B @ B.conj().T - P)) <= 1e-14
    rng = np.random.default_rng(seed)
    for _ in range(3):
        Q, R = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        U = Q * (np.diag(R) / np.abs(np.diag(R)))
        C = ex.preimage(U.conj().T @ CIRCLE_POINT @ U, p)
        assert np.max(np.abs(C @ C.conj().T - U.conj().T @ P @ U)) <= 1e-14


def affine_copy(rng, A):
    """a U*AU + b I for a Haar unitary U, |a| in [1e-2, 1e2] and a random
    shift b: W moves by the similarity z -> a z + b of the plane."""
    Q, R = np.linalg.qr(rng.standard_normal(A.shape) + 1j * rng.standard_normal(A.shape))
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    a = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * 10.0 ** rng.uniform(-2.0, 2.0)
    b = 3.0 * complex(*rng.standard_normal(2))
    return U, a, b, a * (U.conj().T @ A @ U) + b * np.eye(A.shape[0])


@pytest.mark.parametrize("seed", range(4))
def test_preimages_at_multiply_generated_points_in_affine_copies(seed):
    # a tangentially multiply generated point (the eigenvalue e^{i phi} on
    # the boundary of the unit disk), whose own eigenvalue curve touches
    # the top one, and the non-exposed tangent point of CIRCLE_POINT,
    # where the two top eigenvalue curves cross; both supporting angles lie
    # in cluster bands
    rng = np.random.default_rng(seed)
    for _ in range(12):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        v = np.array([1.0, np.exp(1j * phi), 0.0]) / np.sqrt(2.0)
        touch = (np.array([[0, 2, 0], [0, 0, 0], [0, 0, np.exp(1j * phi)]]), np.exp(1j * phi), np.outer(v, v.conj()) + np.diag([0.0, 0.0, 1.0]), 1e-10)
        w = np.array([1.0, np.exp(1j * np.pi / 3), 0.0]) / np.sqrt(2.0)
        cross = (CIRCLE_POINT, 0.5 + 0.5j * SQ3, np.outer(w, w.conj()), 1e-12)
        for A, z, P, tol in (touch, cross):
            U, a, b, C = affine_copy(rng, np.asarray(A, dtype=complex))
            t, g = ex.supporting_angle(C, a * z + b)
            assert abs(np.angle(np.exp(1j * (t - np.angle(z) - np.angle(a))))) <= 1e-10
            B = ex.preimage(C, a * z + b)
            assert np.max(np.abs(B @ B.conj().T - U.conj().T @ P @ U)) <= tol


@pytest.mark.parametrize(
    ("seed", "p", "grid"),
    [(s, p, 64) for s in (11, 20, 29) for p in (1.0, 0.0, 1j)] + [(73, 1.0, 512)],
)
def test_non_bracketing_cells_keep_the_grid_angle(seed, p, grid, monkeypatch):
    # the vertices of TRIANGLE in unitary frames: g is flat to rounding over
    # the normal cone, and a cell whose end slopes do not bracket a maximum
    # returns its best grid angle, with no single-angle solve
    U = haar_unitary(np.random.default_rng(seed), 3)
    A = U.conj().T @ TRIANGLE @ U
    solves = record(monkeypatch, np.linalg, "eigvalsh", lambda out, a, *args, **kwargs: np.ndim(a) == 2)
    t, g = ex.supporting_angle(A, p, grid)
    assert abs(g) <= 1e-15
    assert not any(solves)
    x = ex.preimage(A, p, grid)[:, 0]
    assert abs(x.conj() @ A @ x - p) <= 1e-15


def test_as_point_refuses_non_finite_points():
    pencil = mc.Pencil(DISK_EIG_BOUNDARY)
    for p in (np.nan, complex(0.0, np.nan), np.inf, complex(-np.inf, 1.0), (np.nan, 0.0), [0.0, np.inf]):
        for call in (
            ex.as_point,
            lambda q: ex.supporting_angle(pencil, q),
            lambda q: ex.preimage(pencil, q),
            lambda q: me.infer(pencil, q),
            lambda q: me.maxent_boundary(pencil, q),
            lambda q: rg.contains(pencil, q),
        ):
            with pytest.raises(PreconditionError, match="finite"):
                call(p)
