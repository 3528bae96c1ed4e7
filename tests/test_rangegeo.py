import numpy as np
import pytest

from numrange import oracle, rangegeo as rg
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
