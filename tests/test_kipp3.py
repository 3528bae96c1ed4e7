import numpy as np
import pytest

from numrange import extremal as ex, kipp3, matcore as mc, rangegeo as rg
from numrange.errors import PreconditionError

from conftest import DISK_EIG_BOUNDARY, JORDAN3, TRIANGLE, golden_min, haar_unitary, matrix, random_matrix, record


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
            sup = mc.Pencil(A).support(theta)
            val = kp(-sup, np.cos(theta), np.sin(theta))
            assert abs(val) <= 1e-10 * (1 + mc.fro(A)) ** d


@pytest.mark.parametrize("d", [8, 16, 32])
def test_kippenhahn_polynomial_is_exact_at_large_d(rng, d):
    # F(y) = prod_k (y0 + lambda_k(y1 Re A + y2 Im A)) at random points,
    # to rounding on the scale prod_k (|y0| + |lambda_k|)
    A = random_matrix(rng, d)
    pencil = mc.Pencil(A)
    kp = kipp3.kippenhahn_polynomial(A)
    assert kp.degree == d and len(kp.coeffs) == (d + 1) * (d + 2) // 2
    for y0, y1, y2 in rng.standard_normal((20, 3)):
        lam = np.linalg.eigvalsh(y1 * pencil.R + y2 * pencil.S)
        want = np.prod(y0 + lam)
        assert abs(kp(y0, y1, y2) - want) <= 1e-12 * np.prod(abs(y0) + np.abs(lam))


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
        thetas, w = pencil.grid(4096)
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


def test_jordan_block_is_elliptic_in_every_frame():
    rng = np.random.default_rng(5)
    for _ in range(200):
        Q = random_unitary3(rng)
        assert kipp3.classify(Q.conj().T @ JORDAN3 @ Q).class_tag == "E3"


@pytest.mark.parametrize("shift", [1e4, 1e6])
def test_shifted_ginibre_draw_stays_ovular(shift):
    A = random_matrix(np.random.default_rng(5), 3)
    assert kipp3.classify(A).class_tag == "O3"
    assert kipp3.classify(A + shift * np.eye(3)).class_tag == "O3"


def test_near_defective_reducible_matrices_classify():
    # a double eigenvalue with a Jordan coupling of 6e-9 ... 2e-6 times the
    # scale beside a normal eigenvalue, in a unitary frame: reducible, and
    # the Schur form of the elliptic data must not fail on the coupling
    rng = np.random.default_rng(11)
    for _ in range(150):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = 10 ** rng.uniform(np.log10(6e-9), np.log10(2e-6)) * (1 + abs(a) + abs(b))
        Q = random_unitary3(rng)
        A = Q.conj().T @ np.array([[a, c, 0], [0, a, 0], [0, 0, b]]) @ Q
        assert kipp3.classify(A).class_tag == "R3"


def test_affine_transform_examples(rng):
    A = random_matrix(rng, 3)
    assert np.allclose(kipp3.affine_transform(A, np.eye(2)), A)
    # rotation of the plane rotates the range: the support curves shift
    phi = 0.7
    R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    B = kipp3.affine_transform(A, R)
    for theta in rng.uniform(0, 2 * np.pi, 16):
        hb = mc.Pencil(B).support(theta)
        ha = mc.Pencil(A).support(theta - phi)
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
    # the fixed unitary frame: the affine map (x, y) -> ((1-x)/2, eps*y)
    # applied to U* A(1-2*lam) U gives [[0,0,-eps],[0,lam,0],[eps,0,1]],
    # which tends to diag[0, lam, 1] as eps -> 0
    U = np.array(
        [[1.0, 0.0, 1.0], [1.0, 0.0, -1.0], [0.0, np.sqrt(2.0), 0.0]], dtype=complex
    ) / np.sqrt(2.0)
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


# Boundary families: each 3x3 question (normal? which points coincide?)
# has one answer, so classify, the canonical form and the closure
# functions agree on them and never raise.  A disk of diameter eps beside
# the point 1; a tiny coupling inside a triangle; two eigenvalues delta
# apart.
DISK_BESIDE_POINT = [1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4]
COUPLED_TRIANGLE = [1e-10, 3e-10, 1e-9, 3e-9, 1e-8]
SPLIT_EIGENVALUE = [1e-8, 3e-8, 1e-7, 1e-6]
SHAPE_FORM = {"point": "zero", "segment": "diag_0_lambda_1", "triangle": "diag_0_1_i"}


def disk_beside_point(eps):
    return np.array([[0, eps, 0], [0, 0, 0], [0, 0, 1]], dtype=complex)


def coupled_triangle(eps):
    return np.array([[0, eps, 0], [0, 1, 0], [0, 0, 0.5j]], dtype=complex)


def split_eigenvalue(delta):
    return np.diag([0, 1, 1 + 1j * delta]).astype(complex)


@pytest.mark.parametrize("eps", DISK_BESIDE_POINT)
def test_disk_beside_point_has_one_answer(eps):
    A = disk_beside_point(eps)
    shape, form = kipp3.classify(A).shape, kipp3.canonical_reducible_form(A).form
    if eps <= 1e-8:
        # within NORMAL_EIG_RTOL of diag(0, 0, 1): a two-point segment, lam = 0
        assert (shape, form) == ("segment", "diag_0_lambda_1")
        assert kipp3.canonical_reducible_form(A).lam == 0.0
        assert kipp3.classify(kipp3.e3_witness(A, 1e-3)).class_tag == "E3"
        assert kipp3.classify(kipp3.f3_witness(A, 1e-3)).class_tag == "F3"
    else:
        assert (shape, form) == ("ellipse_plus_outside_point", "offdiag_a")


@pytest.mark.parametrize("eps", COUPLED_TRIANGLE)
def test_coupled_triangle_has_one_answer(eps):
    A = coupled_triangle(eps)
    assert kipp3.classify(A).shape == "triangle"
    assert kipp3.canonical_reducible_form(A).form == "diag_0_1_i"


@pytest.mark.parametrize("eps", [1e-7, 3e-7, 1e-6])
def test_coupled_triangle_past_normal_has_an_exact_canonical_form(eps):
    # past NORMAL_EIG_RTOL the coupled triangle is a disk beside a point;
    # the Bloch rotation of its 2x2 block is one exact SU(2) turn, and a
    # rotation by the other sign left a residual 2 sqrt(2) eps.  The affine
    # map of the form has |T| ~ 2 / eps, and below eps = 1e-7 rounding
    # times |T| alone comes near the bound, so those eps are left out
    A = coupled_triangle(eps)
    cf = kipp3.canonical_reducible_form(A)
    assert cf.form == "offdiag_a"
    assert mc.fro(cf.apply(A) - cf.canonical) <= 0.2 * eps


@pytest.mark.parametrize("delta", SPLIT_EIGENVALUE)
def test_split_eigenvalue_has_one_answer(delta):
    rng = np.random.default_rng(7)
    A = split_eigenvalue(delta)
    frames = [random_unitary3(rng) for _ in range(20)]
    for B in [A] + [Q.conj().T @ A @ Q for Q in frames]:
        shape = kipp3.classify(B).shape
        assert SHAPE_FORM[shape] == kipp3.canonical_reducible_form(B).form
        if delta >= 1e-7:
            ne = kipp3.normal_eigenvalues(B)
            eigs = np.linalg.eigvals(B)
            assert len(ne) == 3
            assert all(np.min(np.abs(eigs - z)) <= 1e-12 for z in ne)


@pytest.mark.parametrize(
    "A",
    [disk_beside_point(e) for e in DISK_BESIDE_POINT]
    + [coupled_triangle(e) for e in COUPLED_TRIANGLE]
    + [split_eigenvalue(d) for d in SPLIT_EIGENVALUE],
)
def test_e3_closure_has_a_witness_exactly_when_it_holds(A):
    try:
        witness = kipp3.e3_witness(A, 1e-3)
    except PreconditionError:
        witness = None
    assert kipp3.in_closure_E3(A) == (witness is not None)


def test_normal_eigenvalues_solved_once_per_call(rng, monkeypatch):
    Q = random_unitary3(rng)
    A = Q.conj().T @ cp(0.7) @ Q
    spectra = record(monkeypatch, np.linalg, "eigvals", matrix)
    assert kipp3.canonical_reducible_form(A).form == "offdiag_a"
    assert len(spectra) == 1
    # one Pencil: every question asked of it reads one spectrum, one
    # classification and one canonical form (closure3 asks all of them)
    spectra.clear()
    pencil = mc.Pencil(A)
    cls = kipp3.classify(pencil)
    cf = kipp3.canonical_reducible_form(pencil)
    assert kipp3.is_reducible3(pencil) and kipp3.in_closure_E3(pencil) and not kipp3.in_closure_F3(pencil)
    assert kipp3.normal_eigenvalues(pencil) == list(cls.normal_eigenvalues)
    assert kipp3.classify(pencil) is cls and kipp3.canonical_reducible_form(pencil) is cf
    kipp3.e3_witness(pencil, 0.01)
    assert len(spectra) == 2 and np.array_equal(spectra[0], A)
    # the kept answers cannot be changed through what is returned
    kipp3.normal_eigenvalues(pencil).clear()
    assert kipp3.normal_eigenvalues(pencil) == list(cls.normal_eigenvalues) != []
    assert isinstance(cls.normal_eigenvalues, tuple) and isinstance(cls.flat_angles, tuple)
    for arr in (cf.unitary, cf.affine_T, cf.affine_shift, cf.canonical):
        with pytest.raises(ValueError):
            arr[0] = 0.0


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
