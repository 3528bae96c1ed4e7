import numpy as np
import pytest

from numrange import matcore as mc, oracle, rangegeo as rg
from numrange.errors import PreconditionError

from conftest import (
    CIRCLE_POINT,
    DISK,
    DISK_EIG_BOUNDARY,
    SEGMENT,
    TRIANGLE,
    random_matrix,
    random_unit_vectors,
    sampled_support,
)


def unit_disk_polygon(n=4096):
    return rg.ConvexPolygon.from_complex(np.exp(2j * np.pi * np.arange(n) / n))


def test_support_value_examples():
    assert rg.support_value(np.diag([0.0, 1.0]), 0.0).support == pytest.approx(1.0)
    for theta in [0.0, 0.7, 2.0, 4.5]:
        assert rg.support_value(DISK, theta).support == pytest.approx(1.0, abs=1e-12)
    s = rg.support_value(CIRCLE_POINT, 0.0)
    assert s.support == pytest.approx(2.0) and s.multiplicity == 1


def test_support_dominates_samples(rng):
    for _ in range(20):
        d = int(rng.integers(2, 6))
        A = random_matrix(rng, d)
        xs = random_unit_vectors(rng, 2000, d)
        for theta in rng.uniform(0, 2 * np.pi, size=8):
            assert sampled_support(A, xs, theta) <= rg.support_value(A, theta).support + 1e-12


def test_boundary_polygon_triangle():
    poly = rg.boundary_polygon(TRIANGLE, 256)
    got = sorted(poly.as_complex(), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert np.allclose(got, [0.0, 1.0j, 1.0], atol=1e-9)


def test_boundary_polygon_disk():
    poly = rg.boundary_polygon(DISK, 512)
    assert rg.hausdorff(poly, unit_disk_polygon()) <= 1e-4


def test_boundary_polygon_segment():
    poly = rg.boundary_polygon(SEGMENT, 256)
    assert poly.vertices.shape[0] == 2
    assert np.allclose(sorted(poly.as_complex(), key=lambda z: z.real), [0.0, 1.0], atol=1e-9)


def test_boundary_polygon_refines(rng):
    A = random_matrix(rng, 4)
    p128 = rg.boundary_polygon(A, 128)
    p256 = rg.boundary_polygon(A, 256)
    p512 = rg.boundary_polygon(A, 512)
    assert rg.hausdorff(p256, p512) <= rg.hausdorff(p128, p256) + 1e-12
    with pytest.raises(PreconditionError):
        rg.boundary_polygon(A, 4)


def test_boundary_polygon_vertices_contained(rng):
    A = random_matrix(rng, 3)
    poly = rg.boundary_polygon(A, 128)
    for z in poly.as_complex():
        assert rg.contains(A, z)


def numpy_row_hull(points, collinear_tol=0.0):
    """Reference: the monotone chain on numpy rows, as convex_hull ran it
    before it ran on Python floats."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.any(np.diff(pts, axis=0) != 0.0, axis=1)
    pts = pts[keep]
    if len(pts) <= 2:
        return pts

    def half(iterable):
        chain = []
        for p in iterable:
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= collinear_tol:
                    chain.pop()
                else:
                    break
            chain.append(p)
        return chain

    hull = np.array(half(pts)[:-1] + half(pts[::-1])[:-1])
    if len(hull) == 2 and np.allclose(hull[0], hull[1]):
        hull = hull[:1]
    return hull


def test_convex_hull_matches_numpy_row_chain(rng, monkeypatch):
    # the touch-point sets that boundary_polygon hands to the hull
    inputs = []
    hull = rg.convex_hull

    def recording_hull(points, collinear_tol=0.0):
        inputs.append((points, collinear_tol))
        return hull(points, collinear_tol)

    monkeypatch.setattr(rg, "convex_hull", recording_hull)
    for d, count in ((2, 5), (3, 5), (8, 5), (32, 1)):  # d = 32 takes 1 s at N = 4096
        for _ in range(count):
            rg.boundary_polygon(random_matrix(rng, d), 4096)
    assert len(inputs) == 16
    # random clouds, and integer lattices full of exactly collinear triples
    inputs += [(rng.standard_normal((5000, 2)), 0.0) for _ in range(20)]
    inputs += [(rng.integers(0, 20, (2000, 2)).astype(float), tol) for tol in (0.0, 1.0)]
    for points, tol in inputs:
        assert np.array_equal(hull(points, tol), numpy_row_hull(points, tol))


def test_contains_examples():
    assert rg.contains(DISK, 0.0)
    assert not rg.contains(DISK, 1.01 + 0j)
    assert rg.contains(CIRCLE_POINT, 2.0 + 0j)
    assert rg.contains(DISK, 1.0 + 0j)  # boundary point
    assert not rg.contains(CIRCLE_POINT, 2.0 + 1e-6j)


def test_hausdorff_examples():
    disk = unit_disk_polygon()
    origin = rg.ConvexPolygon(np.array([[0.0, 0.0]]))
    assert rg.hausdorff(disk, origin) == pytest.approx(1.0, abs=1e-6)
    disk2 = rg.ConvexPolygon.from_complex(2 * np.exp(2j * np.pi * np.arange(4096) / 4096))
    assert rg.hausdorff(disk, disk2) == pytest.approx(1.0, abs=1e-6)
    assert rg.hausdorff(disk, disk) == 0.0


def test_hausdorff_axioms(rng):
    polys = []
    for _ in range(6):
        pts = rng.standard_normal((12, 2))
        polys.append(rg.ConvexPolygon.from_points(pts))
    for K in polys:
        for L in polys:
            dkl, dlk = rg.hausdorff(K, L), rg.hausdorff(L, K)
            assert dkl == dlk
            for M in polys:
                assert dkl <= rg.hausdorff(K, M) + rg.hausdorff(M, L) + 1e-12


def test_hausdorff_matches_point_set_definition(rng):
    from conftest import segment_distance

    for _ in range(10):
        P = rg.ConvexPolygon.from_points(rng.standard_normal((10, 2)))
        Q = rg.ConvexPolygon.from_points(rng.standard_normal((10, 2)))
        # point-set distance of the polygon BOUNDARIES via edge sampling
        def boundary_pts(poly, m=400):
            v = poly.as_complex()
            out = []
            for k in range(len(v)):
                a, b = v[k], v[(k + 1) % len(v)]
                out.extend(a + (b - a) * np.linspace(0, 1, m, endpoint=False))
            return np.array(out)

        # support-function Hausdorff of convex hulls equals the set version
        bp, bq = boundary_pts(P), boundary_pts(Q)
        dpq = max(
            max(min(segment_distance(p, *e) for e in _edges(Q)) for p in bp[::37]),
            max(min(segment_distance(q, *e) for e in _edges(P)) for q in bq[::37]),
        )
        mesh = 2 * np.pi / 4096
        diam = max(P.diameter, Q.diameter)
        assert abs(rg.hausdorff(P, Q) - dpq) <= 2 * mesh * diam + 0.05 * diam


def _edges(poly):
    v = poly.as_complex()
    return [(v[k], v[(k + 1) % len(v)]) for k in range(len(v))]


def test_hausdorff_upper_bound_flag():
    disk = unit_disk_polygon()
    with pytest.raises(PreconditionError):
        rg.hausdorff(disk, "nope")


def _distance_to_polygon(points, V):
    """Distance from each planar point to the convex polygon with
    counterclockwise vertices V (0 inside)."""
    a, ab = V, np.roll(V, -1, axis=0) - V
    ap = points[:, None, :] - a[None]
    den = np.maximum((ab**2).sum(axis=1), 1e-300)
    t = np.clip((ap * ab[None]).sum(axis=2) / den, 0.0, 1.0)
    d = np.linalg.norm(ap - t[..., None] * ab[None], axis=2).min(axis=1)
    if np.sum(ab[:, 1] * a[:, 0] - ab[:, 0] * a[:, 1]) > 0.0:  # positive area
        inside = np.all(ab[None, :, 0] * ap[..., 1] - ab[None, :, 1] * ap[..., 0] >= 0.0, axis=1)
        d[inside] = 0.0
    return d


def _random_polygons(rng):
    polys = [rg.ConvexPolygon(rng.standard_normal((1, 2)))]
    polys.append(rg.ConvexPolygon.from_points(rng.standard_normal((2, 2))))
    for k in (3, 5, 12, 40, 200):
        polys.append(rg.ConvexPolygon.from_points(rng.uniform(0.2, 3.0) * rng.standard_normal((k, 2)) + rng.standard_normal(2)))
    # hull vertices collinear up to rounding: the TRIANGLE oracle hull,
    # edge midpoints included
    tri = oracle.hull(oracle.sample_range(TRIANGLE, 1000, seed=5))
    assert len(tri.vertices) > 3
    polys.append(tri)
    # a segment given by collinear vertices, traversed both ways
    seg = rng.standard_normal(2) + np.outer([0.0, 0.4, 1.0], rng.standard_normal(2))
    polys += [rg.ConvexPolygon(seg), rg.ConvexPolygon(seg[::-1])]
    # a repeated vertex
    polys.append(rg.ConvexPolygon(np.vstack([polys[3].vertices[:1], polys[3].vertices])))
    polys.append(rg.boundary_polygon(random_matrix(rng, 4), 256))
    return polys


def test_hausdorff_exact_on_convex_polygons(rng):
    """The exact value equals the largest vertex-to-polygon distance, is
    symmetric bit for bit, and lies between the 4096-angle support-grid
    value and that value plus the grid's Lipschitz allowance."""
    mesh = 2 * np.pi / 4096
    thetas = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
    for _ in range(4):
        polys = _random_polygons(rng)
        for K in polys:
            for L in polys:
                d = rg.hausdorff(K, L)
                assert d == rg.hausdorff(L, K)
                ref = max(_distance_to_polygon(K.vertices, L.vertices).max(), _distance_to_polygon(L.vertices, K.vertices).max())
                diam = max(float(np.hypot(*np.ptp(np.vstack([K.vertices, L.vertices]), axis=0))), 1e-300)
                assert abs(d - ref) <= 1e-12 * diam
                on_grid = float(np.max(np.abs(K.support(thetas) - L.support(thetas))))
                assert on_grid - 1e-12 * diam <= d <= on_grid + mesh * diam / 2 + 1e-12 * diam


def test_polygon_diameter_exact(rng):
    """The diameter is the largest pairwise vertex distance (brute force);
    the unit 4096-gon reads 2, a point 0 and a segment its length."""
    for _ in range(4):
        for K in _random_polygons(rng):
            v = K.vertices
            brute = float(np.max(np.hypot(*(v[:, None, :] - v[None, :, :]).transpose(2, 0, 1))))
            assert abs(K.diameter - brute) <= 1e-12 * max(brute, 1.0)
    assert abs(unit_disk_polygon().diameter - 2.0) <= 1e-12
    assert rg.ConvexPolygon(np.array([[0.3, -1.0]])).diameter == 0.0
    assert rg.ConvexPolygon(np.array([[1.0, 1.0], [4.0, 5.0]])).diameter == 5.0


def test_ellipse_fit_circle():
    fit = rg.ellipse_fit(unit_disk_polygon(512))
    assert fit is not None
    assert abs(fit.center) <= 1e-9
    assert abs(fit.foci[0] - fit.foci[1]) <= 1e-7
    assert fit.semi_minor == pytest.approx(1.0, abs=1e-9)


def test_ellipse_fit_triangle_returns_none():
    assert rg.ellipse_fit(rg.boundary_polygon(TRIANGLE, 256)) is None


def test_ellipse_fit_disk_with_boundary_eigenvalue():
    fit = rg.ellipse_fit(rg.boundary_polygon(DISK_EIG_BOUNDARY, 1024))
    assert fit is not None
    assert abs(fit.center) <= 1e-7
    assert fit.semi_minor == pytest.approx(1.0, abs=1e-7)


def test_ellipse_fit_general_ellipse(rng):
    # random ellipse sampled on its boundary
    c = 0.3 - 0.2j
    a, b, phi = 2.0, 0.7, 0.5
    ts = np.linspace(0, 2 * np.pi, 300, endpoint=False)
    zs = c + np.exp(1j * phi) * (a * np.cos(ts) + 1j * b * np.sin(ts))
    fit = rg.ellipse_fit(rg.ConvexPolygon.from_complex(zs))
    assert fit is not None
    assert abs(fit.center - c) < 1e-8
    assert fit.semi_minor == pytest.approx(b, abs=1e-8)
    assert fit.semi_major == pytest.approx(a, abs=1e-8)


def test_ellipse_fit_degenerate():
    seg = rg.ConvexPolygon.from_complex(np.array([0.0, 1.0 + 1.0j]))
    fit = rg.ellipse_fit(seg)
    assert fit.semi_minor == 0.0
    assert sorted([fit.foci[0], fit.foci[1]], key=lambda z: z.real) == [0, 1 + 1j]
    pt = rg.ConvexPolygon(np.array([[0.5, 0.5]]))
    fit = rg.ellipse_fit(pt)
    assert fit.semi_minor == 0.0 and fit.foci[0] == fit.foci[1]
    square = rg.ConvexPolygon.from_points(np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]]))
    assert rg.ellipse_fit(square) is None  # underdetermined (4 vertices)


def test_ellipse_limits_recognized(rng):
    # Hausdorff limits of shrinking ellipses are ellipses, segments, or points
    for t in [1.0, 0.3, 0.05]:
        ts = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        zs = np.cos(ts) + 1j * t * np.sin(ts)
        fit = rg.ellipse_fit(rg.ConvexPolygon.from_complex(zs))
        assert fit is not None
    seg_limit = rg.ConvexPolygon.from_complex(np.array([-1.0 + 0j, 1.0 + 0j]))
    assert rg.ellipse_fit(seg_limit) is not None


def test_range_converges_constant(rng):
    A = random_matrix(rng, 3)
    dists = rg.range_converges([A, A, A], A, 256)
    assert max(dists) <= 1e-12


def test_range_converges_perturbation(rng):
    A = random_matrix(rng, 3)
    E = np.zeros((3, 3))
    E[0, 0] = 1.0
    seq = [A + E / i for i in range(1, 6)]
    dists = rg.range_converges(seq, A, 1024)
    for i, dist in enumerate(dists, start=1):
        assert dist <= 1.0 / i + 10.0 / 1024
    assert dists[-1] <= dists[0] + 1e-12
    with pytest.raises(PreconditionError):
        rg.range_converges([np.eye(2)], A)


def dense_support(A, thetas):
    """Support function of W(A) at the given angles, from plain eigvalsh."""
    R, S = (A + A.conj().T) / 2.0, (A - A.conj().T) / 2.0j
    t = np.asarray(thetas, dtype=float)[:, None, None]
    return np.concatenate([np.linalg.eigvalsh(np.cos(c) * R + np.sin(c) * S)[:, -1] for c in np.array_split(t, 16)])


def dense_distance(A, B, M=65536, coarse=1024):
    """max |h_A - h_B| over the M-angle uniform scan, and the vertex of
    the parabola through its best sample and the two neighbours (the scan
    alone reads up to |g''| (pi/M)^2 / 2 low).

    Only the cells of a coarse scan that can hold a value above the
    coarse maximum are sampled at full density: |h_A - h_B| is Lipschitz
    with constant ||A||_2 + ||B||_2, so the result equals the full scan.
    """
    r = M // coarse
    step = 2.0 * np.pi / M
    lip = np.linalg.norm(A, 2) + np.linalg.norm(B, 2)

    def g(idx):
        return np.abs(dense_support(A, idx * step) - dense_support(B, idx * step))

    gc = g(np.arange(coarse) * r)
    bound = (gc + np.roll(gc, -1)) / 2.0 + lip * r * step / 2.0
    cells = np.nonzero(bound >= gc.max())[0]
    idx = np.unique((cells[:, None] * r + np.arange(r + 1)) % M)
    vals = g(idx)
    j = idx[np.argmax(vals)]
    lo, mid, hi = g(np.array([j - 1, j, j + 1]) % M)
    return float(vals.max()), float(mid + (hi - lo) ** 2 / (8.0 * (2.0 * mid - lo - hi)))


@pytest.mark.parametrize("d, pairs", [(2, 4), (3, 4), (8, 3), (32, 2)])
def test_range_distance_matches_dense_scan(rng, d, pairs):
    for _ in range(pairs):
        A, B = random_matrix(rng, d), random_matrix(rng, d)
        scan, ref = dense_distance(A, B)
        d_AB = rg.range_distance(A, B, 1024)
        tol = 1e-9 * (1.0 + max(np.linalg.norm(A), np.linalg.norm(B)))
        # every scanned value is attained, so the distance is not below the scan
        assert scan - 1e-13 <= d_AB
        assert abs(d_AB - ref) <= tol


def test_range_distance_kinked_fixtures():
    # the triangle with vertices 0, 1, i against the segment [0, 1] and the unit disk
    assert rg.range_distance(TRIANGLE, SEGMENT) == pytest.approx(1.0, abs=1e-12)
    assert rg.range_distance(TRIANGLE, DISK) == pytest.approx(1.0, abs=1e-12)
    # unit disk about (1 + i)/2: h_disk - h_triangle peaks at the kink of
    # h_triangle at pi/4 (its top eigenvalue is double there); the rotation
    # moves that kink off the grid
    u = np.exp(0.1234j)
    shifted = DISK + (0.5 + 0.5j) * np.eye(2)
    d_TB = rg.range_distance(u * TRIANGLE, u * shifted, 1024)
    assert d_TB == pytest.approx(1.0, abs=1e-12)
    thetas = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    h_T = rg.ConvexPolygon.from_complex(u * np.array([0, 1, 1j])).support(thetas)
    h_B = 1.0 + ((0.5 + 0.5j) * u * np.exp(-1j * thetas)).real
    assert np.max(np.abs(h_T - h_B)) < 1.0 - 1e-4  # the grid alone misses the kink


def test_range_gap_edge_normal_maximum():
    # the unit disk against an inscribed equilateral triangle: the gap is
    # the distance 1 - 1/2 from the circle to each edge, at the edge normals
    u = np.exp(0.1234j)
    K = rg.ConvexPolygon.from_complex(u * np.exp(2j * np.pi * np.arange(3) / 3))
    assert rg.range_gap(DISK, K, 1024) == pytest.approx(0.5, abs=1e-12)
    thetas = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    assert np.max(1.0 - K.support(thetas)) < 0.5 - 1e-6  # the grid alone reads low
    # an exact triangle against its own range
    assert rg.range_gap(TRIANGLE, rg.ConvexPolygon.from_complex([0.0, 1.0, 1.0j])) <= 1e-12


def test_range_gap_matches_dense_scan(rng):
    for d in (3, 8):
        A = random_matrix(rng, d)
        K = oracle.hull(oracle.sample_range(A, 4000, seed=d))
        # h_A - h_K peaks on a smooth piece or at an edge normal of K
        thetas = np.linspace(0.0, 2.0 * np.pi, 65536, endpoint=False)
        normals = np.mod(rg._support_pieces(K)[1], 2.0 * np.pi)
        ref = max(np.max(dense_support(A, t) - K.support(t)) for t in (thetas, normals))
        gap = rg.range_gap(A, K, 1024)
        assert ref - 1e-13 <= gap <= ref + 1e-9 * (1.0 + np.linalg.norm(A))


def test_range_distances_invariances(rng):
    for d in (2, 3, 5):
        A, B = random_matrix(rng, d), random_matrix(rng, d)
        d_AB = rg.range_distance(A, B)
        tol = 1e-12 * (1.0 + np.linalg.norm(A) + np.linalg.norm(B))
        assert rg.range_distance(B, A) == d_AB
        U = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        assert abs(rg.range_distance(U.conj().T @ A @ U, U.conj().T @ B @ U) - d_AB) <= tol
        c = 0.7 - 0.4j
        shift = c * np.eye(d)
        assert abs(rg.range_distance(A + shift, B + shift) - d_AB) <= tol
        K = oracle.hull(oracle.sample_range(A, 2000, seed=1))
        gap = rg.range_gap(A, K)
        assert abs(rg.range_gap(U.conj().T @ A @ U, K) - gap) <= tol
        Kc = rg.ConvexPolygon.from_complex(K.as_complex() + c)
        assert abs(rg.range_gap(A + shift, Kc) - gap) <= tol


def test_range_distance_preconditions():
    with pytest.raises(PreconditionError):
        rg.range_distance(DISK, TRIANGLE, 4)
    with pytest.raises(PreconditionError):
        rg.range_gap(DISK, rg.ConvexPolygon.from_complex([0.0, 1.0]), 4)
    with pytest.raises(PreconditionError):
        rg.range_gap(DISK, np.array([[0.0, 0.0]]))
    assert rg.range_distance(DISK, DISK) == 0.0


def test_range_distance_polishes_in_lockstep(monkeypatch):
    # every bracket is refined by one lockstep Newton, each step one stacked
    # solve per pencil (one solve per pencil per bracket and step before:
    # 182 calls); the distance is sin(0.3), from the vertex e^{0.3i} of the
    # rotated copy to the edge [0, 1]
    B = np.exp(0.3j) * TRIANGLE
    calls = []
    eigh = mc.Pencil.eigh

    def counted(self, thetas):
        calls.append(1)
        return eigh(self, thetas)

    monkeypatch.setattr(mc.Pencil, "eigh", counted)
    d = rg.range_distance(TRIANGLE, B, 256)
    assert len(calls) <= 92
    scan, _ = dense_distance(TRIANGLE, B)
    assert scan - 1e-15 <= d <= scan + 1e-15
    assert abs(d - np.sin(0.3)) <= 1e-15
