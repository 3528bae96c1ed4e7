import numpy as np
import pytest

from numrange import extremal as ex, kipp3, matcore as mc, rangegeo as rg
from numrange.errors import PreconditionError

from conftest import DISK_EIG_BOUNDARY, JORDAN3, TRIANGLE, golden_min, random_matrix


def cp(a):
    return np.array([[0, 2, 0], [0, 0, 0], [0, 0, a]], dtype=complex)


def random_unitary3(rng):
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return Q


def random_affine(rng):
    while True:
        T = rng.standard_normal((2, 2))
        if abs(np.linalg.det(T)) > 0.3:
            return T, rng.standard_normal(2) * 0.5


def test_normal_eigenvalues_examples():
    assert kipp3.normal_eigenvalues(cp(2)) == [pytest.approx(2.0)]
    got = kipp3.normal_eigenvalues(TRIANGLE)
    assert len(got) == 3
    assert kipp3.normal_eigenvalues(JORDAN3) == []


def test_is_reducible3_examples():
    for a in [0.0, 0.5, 1.0, 3.0]:
        assert kipp3.is_reducible3(cp(a))
    assert not kipp3.is_reducible3(JORDAN3)
    assert not kipp3.is_reducible3(kipp3.m_alpha_beta(0.5, 1.0))
    with pytest.raises(PreconditionError):
        kipp3.is_reducible3(np.eye(2))


def test_kippenhahn_polynomial_examples():
    kp = kipp3.kippenhahn_polynomial(np.diag([0.0, 1.0]))
    nz = {k: v for k, v in kp.coeffs.items() if abs(v) > 1e-12}
    assert nz == {(2, 0, 0): pytest.approx(1.0), (1, 1, 0): pytest.approx(1.0)}
    kp = kipp3.kippenhahn_polynomial(np.array([[0, 2], [0, 0]], dtype=complex))
    nz = {k: round(v, 12) for k, v in kp.coeffs.items() if abs(v) > 1e-12}
    assert nz == {(2, 0, 0): 1.0, (0, 2, 0): -1.0, (0, 0, 2): -1.0}
    assert kp.coeffs[(2, 0, 0)] == pytest.approx(1.0, abs=1e-12)


def test_kippenhahn_polynomial_traces_boundary(rng):
    for d in (2, 3, 4, 7):
        A = random_matrix(rng, d)
        kp = kipp3.kippenhahn_polynomial(A)
        for theta in np.linspace(0, 2 * np.pi, 9):
            sup = rg.support_value(A, theta).support
            val = kp(-sup, np.cos(theta), np.sin(theta))
            assert abs(val) <= 1e-10 * (1 + mc.fro(A)) ** d


def test_kippenhahn_polynomial_refuses_d8():
    # the interpolation design loses rank at d = 8
    A = np.random.default_rng(0).standard_normal((8, 8)) + 0j
    with pytest.raises(PreconditionError, match="d <= 7"):
        kipp3.kippenhahn_polynomial(A / mc.fro(A))


def test_elliptic_data_examples():
    ed = kipp3.elliptic_data(cp(0.7))
    assert abs(ed.lam - 0.7) < 1e-12
    assert np.allclose(ed.foci, [0, 0])
    assert ed.minor_axis == pytest.approx(2.0)
    ed = kipp3.elliptic_data(JORDAN3)
    assert abs(ed.lam) < 1e-12
    assert np.allclose(ed.foci, [0, 0])
    assert ed.minor_axis == pytest.approx(np.sqrt(2.0))
    assert kipp3.elliptic_data(np.array([[0, 1, 1], [0, 1, 1], [0, 0, 1j]], dtype=complex)) is None
    assert kipp3.elliptic_data(TRIANGLE) is None  # normal: no off-diagonal mass


def test_classify_fixture_table():
    for a in [0.0, 0.3, 0.9, 1.0, 1.5, 2.0, 7.0]:
        cls = kipp3.classify(cp(a))
        assert cls.class_tag == "R3"
        want = "ellipse" if a <= 1 else "ellipse_plus_outside_point"
        assert cls.shape == want
    assert kipp3.classify(cp(2)).shape == "ellipse_plus_outside_point"
    for alpha in (0.01, 0.5):
        assert kipp3.classify(kipp3.m_alpha_beta(alpha, 1.0)).class_tag == "E3"
    a, eps = 2.0, 0.1
    display = np.diag([a, a, -a]).astype(complex) + (1j / a) * np.array(
        [[0, 0, eps], [0, np.sqrt(a * a - 1), 1j], [eps, -1j, -np.sqrt(a * a - 1)]]
    )
    assert kipp3.classify(display).class_tag == "F3"
    cls = kipp3.classify(JORDAN3)
    assert cls.class_tag == "E3"
    assert cls.elliptic.minor_axis / 2 == pytest.approx(np.sqrt(2) / 2, abs=1e-6)


def test_classify_normal_shapes():
    assert kipp3.classify(np.zeros((3, 3), dtype=complex)).shape == "point"
    assert kipp3.classify((2 + 1j) * np.eye(3)).shape == "point"
    assert kipp3.classify(np.diag([0.0, 0.3, 1.0]).astype(complex)).shape == "segment"
    assert kipp3.classify(np.diag([0.0, 1.0, 1.0]).astype(complex)).shape == "segment"
    assert kipp3.classify(TRIANGLE).shape == "triangle"
    assert kipp3.classify(np.diag([0.0, 1.0 + 1.0j, 2.0 + 2.0j])).shape == "segment"


def test_classify_agreement_with_flat_scan(rng):
    fixtures = [kipp3.m_alpha_beta(0.5, 1.0), JORDAN3]
    for k in range(1000):
        A = fixtures[k] if k < len(fixtures) else random_matrix(rng, 3)
        cls = kipp3.classify(A)
        has_flat = bool(ex.flat_portions(A, 256))
        assert (cls.class_tag == "F3") == (
            has_flat and not kipp3.normal_eigenvalues(A)
        )


def flat_display(a=2.0, eps=0.1):
    return np.diag([a, a, -a]).astype(complex) + (1j / a) * np.array(
        [[0, 0, eps], [0, np.sqrt(a * a - 1), 1j], [eps, -1j, -np.sqrt(a * a - 1)]]
    )


def circular_gap(s, t):
    d = abs(s - t) % (2 * np.pi)
    return min(d, 2 * np.pi - d)


def bisect_edges(inside, inner, outer):
    """Batched bisection of the edges of angle sets, in 48 halvings."""
    inner = np.array(inner, dtype=float)
    outer = np.array(outer, dtype=float)
    for _ in range(48):
        mid = (inner + outer) / 2.0
        member = inside(mid)
        inner[member] = mid[member]
        outer[~member] = mid[~member]
    return inner


def circular_runs(mask):
    """Maximal runs of True in a circular boolean array, as (start, stop)."""
    n = mask.size
    if mask.all():
        return [(0, n)]
    if not mask.any():
        return []
    ext = np.concatenate([mask, mask])
    runs = []
    j = 0
    while j < n:
        if ext[j] and not ext[j - 1 if j > 0 else n - 1]:
            k = j
            while ext[k]:
                k += 1
            runs.append((j, k))
            j = k
        else:
            j += 1
    return runs


def scan_candidates(pencil, thetas, gap):
    """Angles where the top eigenvalue of A(theta) is degenerate, from the
    top gap on a uniform grid: golden-section search at every local
    minimum of a run of the gap below the Lipschitz bound, and bisected
    edges of runs that stay degenerate across grid points."""

    def top_gap(t):
        return pencil.top_gap(np.linalg.eigvalsh(pencil.rotate(t)))

    grid = thetas.size
    step = 2.0 * np.pi / grid
    scale = pencil.norm
    thresh = 2.0 * step * scale + 10.0 * pencil.ctol
    mask = gap <= thresh
    gap_tol = ex.GAP_REFINE_RTOL * (1.0 + scale)
    found, edge_in, edge_out = [], [], []
    for start, stop in circular_runs(mask):
        idx = np.arange(start, stop) % grid
        band = gap[idx] <= gap_tol
        lo = thetas[start % grid] - step
        hi = lo + (stop - start + 1) * step
        if band.sum() >= 2 and stop - start < grid:
            band_idx = idx[band]
            found.append(float(thetas[band_idx[len(band_idx) // 2]]))
            edge_in += [thetas[band_idx[0]], thetas[band_idx[0]] + (band_idx.size - 1) * step]
            edge_out += [lo, hi]
        elif stop - start >= grid:
            found.append(0.0)
        else:
            g = gap[idx]
            left = np.concatenate([[gap[(start - 1) % grid]], g[:-1]])
            right = np.concatenate([g[1:], [gap[stop % grid]]])
            local_min = np.nonzero((g <= left) & (g <= right))[0]
            for m in local_min[:64]:
                t0 = thetas[start % grid] + m * step
                t = golden_min(lambda th: float(top_gap(th)), t0 - step, t0 + step)
                if top_gap(t) <= gap_tol:
                    found.append(t % (2.0 * np.pi))
    if edge_in:
        edges = bisect_edges(lambda t: top_gap(t) <= gap_tol, edge_in, edge_out)
        found += [float(t) for t in edges % (2.0 * np.pi)]
    found.sort()
    out = []
    for t in found:
        if all(circular_gap(t, s) > 1e-9 for s in out):
            out.append(t)
    return out


def test_double_eigenvalue_angles_match_dense_scan(rng):
    # reference: a 4096-angle gap scan refined by golden-section search
    def dense_portions(A):
        pencil = mc.Pencil(A)
        thetas, w, _ = pencil.grid(4096)
        return ex._flat_portions(pencil, scan_candidates(pencil, thetas, pencil.top_gap(w)))

    cases = [random_matrix(rng, 3) for _ in range(500)]
    for a in (0.0, 0.5, 1.0, 1.25, 2.0):
        for eps in (1e-2, 1e-3):
            for witness in (kipp3.e3_witness, kipp3.f3_witness):
                try:
                    cases.append(witness(cp(a), eps))
                except PreconditionError:
                    pass
    for _ in range(20):
        Q = random_unitary3(rng)
        T, s = random_affine(rng)
        cases.append(kipp3.affine_transform(Q.conj().T @ flat_display() @ Q, T, s))
    flat_cases = 0
    for A in cases:
        pencil = mc.Pencil(A)
        got = ex._flat_portions(pencil, kipp3._double_eigenvalue_angles(pencil))
        want = dense_portions(A)
        assert bool(got) == bool(want)
        assert len(got) == len(want)
        for fp in want:
            assert min(circular_gap(fp.theta, g.theta) for g in got) <= 1e-9
        flat_cases += bool(got)
    assert flat_cases >= 20 + 6  # the display copies and every F3 witness


def haar_unitary(rng, d):
    Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def flat_family(rng):
    """Irreducible 3x3 matrices whose range has a flat portion of relative
    length 1e-6 to 1 at a random normal angle: s U*(e^{i theta}
    (diag(1, 1, x) + i H)) U, where the compression of H to span(e1, e2)
    has eigenvalue spread L."""
    while True:
        L = 10.0 ** rng.uniform(-6.0, 0.0)
        x = rng.uniform(-3.0, 0.9)
        s = rng.uniform(0.5, 5.0)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        H = (H + H.conj().T) / 2.0
        top = H[:2, :2] - np.trace(H[:2, :2]).real / 2.0 * np.eye(2)
        H[:2, :2] += top * (L / (2.0 * np.linalg.norm(top) / np.sqrt(2.0)) - 1.0)
        U = haar_unitary(rng, 3)
        A = s * U.conj().T @ (np.exp(1j * theta) * (np.diag([1.0, 1.0, x]) + 1j * H)) @ U
        if not kipp3.normal_eigenvalues(A):
            yield A


def test_grid_scan_finds_every_double_eigenvalue_portion():
    # the grid scan and the discriminant seed the same Newton polish; on
    # flat portions down to 1e-6 long, the scan must miss none of them
    draws = flat_family(np.random.default_rng(1))
    for _ in range(300):
        A = next(draws)
        pencil = mc.Pencil(A)
        want = ex._flat_portions(pencil, kipp3._double_eigenvalue_angles(pencil))
        got = ex.flat_portions(pencil, 4096)
        assert len(got) == len(want)
        for fp in want:
            assert min(circular_gap(fp.theta, g.theta) for g in got) <= 1e-9


def test_double_eigenvalue_angle_at_tangential_point():
    # the top eigenvalue of A(0) is double, but the face there is the single
    # point 1: a tangentially multiply generated point, not a flat portion
    pencil = mc.Pencil(DISK_EIG_BOUNDARY)
    angles = kipp3._double_eigenvalue_angles(pencil)
    assert len(angles) == 1
    assert circular_gap(angles[0], 0.0) <= 1e-6
    assert abs(ex.face(pencil, angles[0]).p_plus - 1.0) <= 1e-6
    assert ex._flat_portions(pencil, angles) == []


def test_partition_is_total_and_o3_dominates(rng):
    counts = {}
    n = 10000
    for _ in range(n):
        A = random_matrix(rng, 3)
        tag = kipp3.classify(A).class_tag
        counts[tag] = counts.get(tag, 0) + 1
    assert sum(counts.values()) == n
    assert counts.get("O3", 0) / n >= 0.95


def test_class_invariance_under_transforms(rng):
    fixtures = [cp(0.5), cp(2.0), kipp3.m_alpha_beta(0.5, 1.0), JORDAN3, TRIANGLE]
    for A in fixtures:
        ref = kipp3.classify(A).class_tag
        for _ in range(8):
            Q = random_unitary3(rng)
            T, s = random_affine(rng)
            B = kipp3.affine_transform(Q.conj().T @ A @ Q, T, s)
            assert kipp3.classify(B).class_tag == ref


def test_affine_transform_examples(rng):
    A = random_matrix(rng, 3)
    assert np.allclose(kipp3.affine_transform(A, np.eye(2)), A)
    # rotation of the plane rotates the range: the support curves shift
    phi = 0.7
    R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    B = kipp3.affine_transform(A, R)
    for theta in rng.uniform(0, 2 * np.pi, 16):
        hb = rg.support_value(B, theta).support
        ha = rg.support_value(A, theta - phi).support
        assert abs(hb - ha) <= 1e-12 * (1 + mc.fro(A))
    # the two polygons are inscribed at offset angle grids; the residual
    # is the sagitta of one grid cell
    pa = rg.boundary_polygon(A, 4096).as_complex() * np.exp(1j * phi)
    rotated = rg.ConvexPolygon.from_complex(pa)
    assert rg.hausdorff(rg.boundary_polygon(B, 4096), rotated) <= 5e-6
    with pytest.raises(PreconditionError):
        kipp3.affine_transform(A, np.zeros((2, 2)))


def test_affine_transform_segment_pipeline():
    # the recorded unitary + affine map carries the disk family onto the
    # perturbed segment form
    lam, eps = 0.2, 0.05
    U = kipp3._SEGMENT_FRAME_U
    inner = cp(1 - 2 * lam)
    got = kipp3.affine_transform(
        U.conj().T @ inner @ U, np.array([[-0.5, 0.0], [0.0, eps]]), (0.5, 0.0)
    )
    want = np.array([[0, 0, -eps], [0, lam, 0], [eps, 0, 1.0]], dtype=complex)
    assert np.allclose(got, want, atol=1e-12)


def test_canonical_forms():
    cf = kipp3.canonical_reducible_form(np.diag([1.0, 3.0, 5.0]).astype(complex))
    assert cf.form == "diag_0_lambda_1"
    assert cf.lam == pytest.approx(0.5)
    cf = kipp3.canonical_reducible_form(cp(2))
    assert cf.form == "offdiag_a"
    assert cf.a == pytest.approx(2.0)
    assert np.allclose(cf.canonical, cp(2))
    cf = kipp3.canonical_reducible_form(np.zeros((3, 3), dtype=complex))
    assert cf.form == "zero"
    cf = kipp3.canonical_reducible_form(TRIANGLE)
    assert cf.form == "diag_0_1_i"
    cf = kipp3.canonical_reducible_form(np.diag([0.0, 0.8, 1.0]).astype(complex))
    assert cf.lam == pytest.approx(0.2)  # folded into [0, 1/2]
    with pytest.raises(PreconditionError):
        kipp3.canonical_reducible_form(JORDAN3)


def test_canonical_form_witnesses_reproduce(rng):
    fixtures = [
        cp(1.3),
        cp(0.0),
        np.diag([0.0, 0.35, 1.0]).astype(complex),
        TRIANGLE,
        np.diag([2.0, 2.0 + 1.0j, 2.0 + 2.0j]),
        (0.5 - 0.25j) * np.eye(3),
    ]
    for A in fixtures:
        for _ in range(4):
            Q = random_unitary3(rng)
            T, s = random_affine(rng)
            B = kipp3.affine_transform(Q.conj().T @ A @ Q, T, s)
            cf = kipp3.canonical_reducible_form(B)
            scale = 1 + mc.fro(B)
            assert mc.fro(cf.apply(B) - cf.canonical) <= 1e-8 * scale


def test_canonical_form_parameter_recovery(rng):
    Q = random_unitary3(rng)
    T, s = random_affine(rng)
    B = kipp3.affine_transform(Q.conj().T @ cp(1.3) @ Q, T, s)
    cf = kipp3.canonical_reducible_form(B)
    assert cf.form == "offdiag_a"
    assert cf.a == pytest.approx(1.3, abs=1e-9)
    B = kipp3.affine_transform(Q.conj().T @ np.diag([0.0, 0.35, 1.0]) @ Q, T, s)
    cf = kipp3.canonical_reducible_form(B)
    assert cf.form == "diag_0_lambda_1"
    assert cf.lam == pytest.approx(0.35, abs=1e-9)


def test_normal_eigenvalues_solved_once_per_call(rng, monkeypatch):
    Q = random_unitary3(rng)
    A = Q.conj().T @ cp(0.7) @ Q
    calls = []
    solve = kipp3.normal_eigenvalues

    def counting(B):
        calls.append(1)
        return solve(B)

    monkeypatch.setattr(kipp3, "normal_eigenvalues", counting)
    assert kipp3.canonical_reducible_form(A).form == "offdiag_a"
    assert len(calls) == 1
    # closure3 of one matrix: its classification and its canonical form
    # (each witness is classified on its own, and not counted here)
    calls.clear()
    cls = kipp3.classify(A)
    assert kipp3._canonical_if_reducible(A, cls).form == "offdiag_a"
    assert len(calls) == 2


def test_closure_predicates_examples():
    assert kipp3.in_closure_E3(cp(1.0))
    assert kipp3.in_closure_E3(np.diag([0.0, 0.3, 1.0]).astype(complex))
    assert not kipp3.in_closure_E3(TRIANGLE)
    assert not kipp3.in_closure_F3(cp(0.5))
    assert kipp3.in_closure_F3(cp(1.0))
    assert kipp3.in_closure_F3(TRIANGLE)
    assert kipp3.in_closure_F3(cp(2.0))
    assert not kipp3.in_closure_E3(cp(2.0))


def test_closure_family_table():
    # E3-closure membership is exactly a <= 1 on the disk-plus-eigenvalue
    # family; F3-closure exactly a >= 1; both hold only on the boundary
    # case a = 1
    for a in [0, 0.25, 0.5, 0.75, 1.0, 1.25, 2.0]:
        e3 = kipp3.in_closure_E3(cp(a))
        f3 = kipp3.in_closure_F3(cp(a))
        assert e3 == (a <= 1.0)
        assert f3 == (a >= 1.0)
        assert (e3 and f3) == (a == 1.0)


def test_e3_witness_fixture():
    B = kipp3.e3_witness(cp(1.0), 0.01)
    want = np.array([[0.01, 1.98, 0.01], [0, 0.01, -0.01], [0, 0, 1]], dtype=complex)
    assert np.allclose(B, want, atol=1e-13)
    assert kipp3.classify(B).class_tag == "E3"


def test_e3_witness_segment_close():
    A = np.diag([0.0, 0.5, 1.0]).astype(complex)
    B = kipp3.e3_witness(A, 0.01)
    assert mc.fro(B - A) <= 0.1
    assert kipp3.classify(B).class_tag == "E3"


def test_witness_convergence_linear():
    eps_grid = [1e-1, 1e-2, 1e-3]
    cases_e3 = [cp(1.0), cp(0.4), np.diag([0.0, 0.5, 1.0]).astype(complex), np.zeros((3, 3), complex)]
    for A in cases_e3:
        cf = kipp3.canonical_reducible_form(A)
        dists = [mc.fro(kipp3.e3_witness(A, e) - cf.canonical) for e in eps_grid]
        for e, dist in zip(eps_grid, dists, strict=True):
            assert dist <= 5.0 * e
        assert dists[1] / dists[0] == pytest.approx(0.1, rel=0.2)
        assert dists[2] / dists[1] == pytest.approx(0.1, rel=0.2)
    cases_f3 = [TRIANGLE, np.diag([0.0, 0.3, 1.0]).astype(complex), cp(2.0), cp(1.0)]
    for A in cases_f3:
        cf = kipp3.canonical_reducible_form(A)
        dists = [mc.fro(kipp3.f3_witness(A, e) - cf.canonical) for e in eps_grid]
        for e, dist in zip(eps_grid, dists, strict=True):
            assert dist <= 5.0 * e
        assert dists[2] / dists[1] == pytest.approx(0.1, rel=0.2)


def test_f3_witness_fixture_entrywise():
    B = kipp3.f3_witness(TRIANGLE, 0.01)
    assert np.allclose(B, TRIANGLE + 0.01j * np.ones((3, 3)), atol=1e-14)
    assert kipp3.classify(B).class_tag == "F3"
    B = kipp3.f3_witness(cp(2.0), 0.1)
    assert kipp3.classify(B).class_tag == "F3"
    assert mc.fro(B - cp(2.0)) <= 1.0


def test_witness_preconditions():
    with pytest.raises(PreconditionError):
        kipp3.f3_witness(cp(0.5), 0.01)  # eigenvalue interior: not in closure
    with pytest.raises(PreconditionError):
        kipp3.e3_witness(cp(2.0), 0.01)  # ellipse plus outside point
    with pytest.raises(PreconditionError):
        kipp3.e3_witness(kipp3.m_alpha_beta(0.5, 1.0), 0.01)  # already E3
    with pytest.raises(PreconditionError):
        kipp3.e3_witness(cp(1.0), -1.0)


def test_e3_geometric_consistency():
    # the recognized ellipse traces the boundary polygon
    for A in [cp(0.7), JORDAN3, kipp3.m_alpha_beta(0.3, 1.0)]:
        cls = kipp3.classify(A)
        assert cls.elliptic is not None
        ell_poly = cls.elliptic.ellipse().boundary_polygon(1024)
        d = rg.hausdorff(rg.boundary_polygon(A, 1024), ell_poly)
        assert d <= 1e-6 * (1 + mc.fro(A))
