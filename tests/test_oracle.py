import numpy as np
import pytest

from numrange import matcore as mc, oracle, rangegeo as rg
from numrange.errors import PreconditionError

from conftest import (
    CIRCLE_POINT,
    DISK,
    DISK2,
    DISK_EIG_BOUNDARY,
    JORDAN3,
    SEGMENT,
    TRIANGLE,
    large_ginibre,
    random_matrix,
    record,
)


def test_sample_range_deterministic():
    c1 = oracle.sample_range(DISK, 5000, seed=42)
    c2 = oracle.sample_range(DISK, 5000, seed=42)
    assert np.array_equal(c1.points, c2.points)
    c3 = oracle.sample_range(DISK, 5000, seed=43)
    assert not np.array_equal(c1.points, c3.points)


def test_sample_range_diagonal_real():
    cloud = oracle.sample_range(np.diag([0.0, 1.0]), 2000, seed=1)
    assert np.max(np.abs(cloud.points.imag)) < 1e-14
    assert cloud.points.real.min() >= -1e-14
    assert cloud.points.real.max() <= 1 + 1e-14


def test_sample_range_disk_saturates():
    cloud = oracle.sample_range(DISK, 100000, seed=7)
    r = np.abs(cloud.points)
    assert r.max() <= 1 + 1e-12
    assert r.max() >= 0.999


def test_sample_range_structured_prefix():
    cloud = oracle.sample_range(np.array([[5.0, 1], [0, 0]], dtype=complex), 1, seed=0)
    assert cloud.points[0] == pytest.approx(5.0)  # first structured vector is e_1
    with pytest.raises(PreconditionError):
        oracle.sample_range(DISK, 0)


def test_sample_range_refuses_seeds_outside_uint64():
    """Seeds are splitmix64 counter offsets, unsigned 64-bit integers:
    negative seeds and seeds from 2**64 are refused, and both ends of the
    range draw."""
    for seed in (-1, -(2**70), 2**64, 2**64 + 5):
        with pytest.raises(PreconditionError, match="seed"):
            oracle.sample_range(DISK, 100, seed=seed)
    for seed in (0, 2**63, 2**64 - 1):
        cloud = oracle.sample_range(DISK, 100, seed=seed)
        assert cloud.seed == seed and np.all(np.isfinite(cloud.points))


def _gaussians(seed, start, count):
    """Standard normals on the counter stream (Box-Muller, both outputs),
    the reference stream of the sampler: normals 2k and 2k+1 are derived
    from the uniform pair at counters (2k, 2k+1), so any pair-consistent
    chunking reproduces the sequential stream exactly."""
    first = start - (start % 2)
    pairs = (start + count - first + 1) // 2
    z = oracle._normals(oracle._uniforms(seed, np.arange(first, first + 2 * pairs, dtype=np.uint64)))
    return z[start - first : start - first + count]


def test_chunked_stream_matches_sequential():
    g1 = _gaussians(9, 0, 64)
    g2 = np.concatenate([_gaussians(9, 0, 20), _gaussians(9, 20, 44)])
    assert np.array_equal(g1, g2)
    g3 = np.concatenate([_gaussians(9, 0, 21), _gaussians(9, 21, 43)])
    assert np.array_equal(g1, g3)  # odd split crosses a Box-Muller pair


def _loop_structured_vectors(d):
    vecs = [np.eye(d, dtype=complex)[k] for k in range(d)]
    phases = np.exp(2j * np.pi * np.arange(8) / 8.0)
    for i in range(d):
        for j in range(i + 1, d):
            for ph in phases:
                v = np.zeros(d, dtype=complex)
                v[i] = 1.0
                v[j] = ph
                vecs.append(v / np.sqrt(2.0))
    return np.array(vecs)


def _one_shot_sample(A, n, seed):
    """x*Ax for the whole stream in one draw and one product."""
    d = A.shape[0]
    xs = _loop_structured_vectors(d)
    if n <= len(xs):
        xs = xs[:n]
    else:
        m = n - len(xs)
        g = _gaussians(seed, 0, 2 * m * d)
        z = (g[0::2] + 1j * g[1::2]).reshape(m, d)
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        xs = np.vstack([xs, z])
    return np.sum(xs.conj() * (xs @ A.T), axis=1)


@pytest.mark.parametrize("d", [1, 2, 3, 32])
def test_blocked_stream_matches_one_shot(rng, d):
    A = random_matrix(rng, d)
    k = len(_loop_structured_vectors(d))
    assert np.array_equal(oracle.structured_vectors(d), _loop_structured_vectors(d))
    rows = oracle.SAMPLE_BLOCK // d
    # 2 * rows + 1 leaves a one-row last block
    for n in sorted({1, k, k + 1, rows - 1, rows + 1, 2 * rows + 1, 50_000}):
        assert np.array_equal(oracle.sample_range(A, n, seed=17).points, _one_shot_sample(A, n, 17)), n


def test_hull_examples():
    line = oracle.hull(np.array([0.0, 0.5, 1.0], dtype=complex))
    assert line.vertices.shape[0] == 2
    square = oracle.hull(np.array([0, 1, 1 + 1j, 1j, 0.5 + 0.5j], dtype=complex))
    assert square.vertices.shape[0] == 4
    cloud = oracle.sample_range(DISK, 100000, seed=3)
    disk_poly = rg.ConvexPolygon.from_complex(np.exp(2j * np.pi * np.arange(4096) / 4096))
    assert rg.hausdorff(oracle.hull(cloud), disk_poly) <= 5e-3


def test_hull_contains_all_samples(rng):
    A = random_matrix(rng, 3)
    cloud = oracle.sample_range(A, 5000, seed=11)
    poly = oracle.hull(cloud)
    thetas = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    hp = poly.support(thetas)
    pts = np.column_stack([cloud.points.real, cloud.points.imag])
    dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
    hs = (dirs @ pts.T).max(axis=1)
    assert np.all(hs <= hp + 1e-9)


def test_hull_prefilter_keeps_every_vertex(rng):
    # the prefiltered hull equals the monotone chain over the whole cloud
    for d in (2, 2, 3, 3, 4, 5, 8):
        A = random_matrix(rng, d)
        for n in (2000, 20000):
            cloud = oracle.sample_range(A, n, seed=d)
            full = rg.convex_hull(np.column_stack([cloud.points.real, cloud.points.imag]))
            assert np.array_equal(oracle.hull(cloud).vertices, full)


def test_oracle_gap_normal_matrix_exact():
    # structured samples include the eigenvectors, so vertices are exact
    gap = oracle.oracle_gap(TRIANGLE, 1000, 256, seed=5)
    assert gap <= 1e-9


def test_oracle_gap_disk():
    gap = oracle.oracle_gap(DISK, 100000, 1024, seed=1)
    assert -1e-12 <= gap <= 5e-3


def test_oracle_gap_decreases_on_average(rng):
    A = random_matrix(rng, 2)
    small = np.mean([oracle.oracle_gap(A, 2000, 256, seed=s) for s in range(20)])
    big = np.mean([oracle.oracle_gap(A, 50000, 256, seed=s) for s in range(20)])
    assert big <= small + 1e-12
    with pytest.raises(PreconditionError):
        oracle.oracle_gap(A, 10, 256)


def test_samples_pass_contains(rng):
    for _ in range(5):
        A = random_matrix(rng, int(rng.integers(2, 5)))
        cloud = oracle.sample_range(A, 500, seed=2)
        thetas = np.linspace(0, 2 * np.pi, 512, endpoint=False)
        sup = mc.Pencil(A).support(thetas)
        proj = np.outer(cloud.points.real, np.cos(thetas)) + np.outer(
            cloud.points.imag, np.sin(thetas)
        )
        assert np.max(proj - sup[None, :]) <= 1e-12 * (1 + mc.fro(A))


# the stress family of sample_hull: fixtures and draws under scalings,
# rotations and shifts of the plane, at three sample sizes
HULL_MATRICES = {
    "circle_point": CIRCLE_POINT,
    "disk_eig_boundary": DISK_EIG_BOUNDARY,
    "disk": DISK,
    "triangle": TRIANGLE,
    "jordan": JORDAN3,
    "disk2": DISK2,
    "ginibre2": large_ginibre(2, 0),
    "ginibre3": large_ginibre(3, 1),
    "ginibre8": large_ginibre(8, 0),
    "ginibre32": large_ginibre(32, 0),
}
PLANE_MAPS = [(1.0, 0.0), (1e-9 * np.exp(0.3j), 0.0), (1e9 * np.exp(-1.1j), 0.0), (1.0, 1e6), (np.exp(2j), 1e6 + 3e5j)]


@pytest.mark.parametrize("name", sorted(HULL_MATRICES))
def test_sample_hull_is_the_hull_of_sample_range(name):
    for a, b in PLANE_MAPS:
        A = a * HULL_MATRICES[name] + b * np.eye(len(HULL_MATRICES[name]))
        for n in (500, 5000, 20000):
            want = oracle.hull(oracle.sample_range(A, n, seed=7)).vertices
            assert np.array_equal(oracle.sample_hull(A, n, seed=7).vertices, want), (a, b, n)


def _drawn_rows(monkeypatch):
    """The row arrays sample_hull draws exactly, one per product."""
    return record(monkeypatch, oracle, "_gaussian_rows", lambda out, seed, rows, d: np.array(rows))


def test_sample_hull_with_no_survivor(monkeypatch):
    # the vertices of TRIANGLE come from the structured head, and every
    # Gaussian row lies far inside
    drawn = _drawn_rows(monkeypatch)
    full = record(monkeypatch, oracle, "sample_range")
    got = oracle.sample_hull(TRIANGLE, 500, seed=0)
    assert drawn == [] and full == []
    assert np.array_equal(got.vertices, oracle.hull(oracle.sample_range(TRIANGLE, 500, seed=0)).vertices)


def test_sample_hull_draws_a_lone_survivor_twice(monkeypatch):
    # TRIANGLE with one edge bulged out: one Gaussian row survives the
    # screen, and is drawn in a two-row product, as sample_range's gemm
    A = TRIANGLE.astype(complex)
    A[1, 2] = 0.2
    drawn = _drawn_rows(monkeypatch)
    got = oracle.sample_hull(A, 100, seed=0)
    assert len(drawn) == 1 and drawn[0].size == 2 and drawn[0][0] == drawn[0][1]
    assert np.array_equal(got.vertices, oracle.hull(oracle.sample_range(A, 100, seed=0)).vertices)


@pytest.mark.parametrize(
    ("A", "n"),
    [
        (TRIANGLE, 27),  # no Gaussian row: the head has 3 + 8 * 3 rows
        (DISK, 5),
        (np.array([[2.0 - 1.0j]]), 500),  # d = 1
        ((0.5 - 2.0j) * np.eye(3), 500),  # scalar
        (SEGMENT, 5000),  # Hermitian: a collinear cloud
        (np.diag([0.0, 1.0, 2.0]) * np.exp(0.7j) + 3.0 * np.eye(3), 5000),  # collinear, off the real axis
    ],
    ids=["head_only", "head_part", "d1", "scalar", "hermitian", "collinear"],
)
def test_sample_hull_takes_the_whole_cloud_where_the_screen_cannot_help(A, n, monkeypatch):
    full = record(monkeypatch, oracle, "sample_range", lambda out, *args: out.points)
    got = oracle.sample_hull(A, n, seed=3)
    assert len(full) == 1
    assert np.array_equal(got.vertices, oracle.hull(full[0]).vertices)


@pytest.mark.parametrize("d", [2, 3, 8, 32])
def test_screen_bound_is_at_least_twice_the_error(d):
    # 5 maps x 5000 rows per d, 100 000 rows in all; mu also covers the
    # float64 rounding of the exact values, which dominates at scale 1e-9
    # under a shift of 1e6
    A1 = large_ginibre(d, 2)
    k = len(oracle.structured_vectors(d))
    rows = 5000
    for a, b in [(1e-9, 0.0), (1e9, 0.0), (1.0, 1e6), (1e-9, 1e6), (1e9 * np.exp(1j), 1e6)]:
        A = a * A1 + b * np.eye(d)
        c, s, BT, mu = oracle._screen_frame(A)
        exact = oracle.sample_range(A, k + rows, seed=d).points[k:] - c
        screened = s * oracle._screen(d, (0, rows), BT).astype(complex)
        assert 2.0 * np.abs(screened - exact).max() <= mu, (a, b)


def test_prefilter_margin_keeps_every_point_near_the_edge(rng):
    # a point within 2 mu of the corner polygon's boundary is kept, and a
    # point dropped with margin mu lies at least 2 mu inside every edge line
    zs = np.exp(2j * np.pi * rng.uniform(size=4000)) * np.sqrt(rng.uniform(size=4000))
    mu = 1e-3
    kept = np.zeros(zs.size, dtype=bool)
    kept[oracle._prefilter(zs, mu)] = True
    poly = rg.ConvexPolygon.from_complex(zs[kept])
    v = poly.vertices[:, 0] + 1j * poly.vertices[:, 1]
    e = np.roll(v, -1) - v
    depth = np.min(((e.conj()[None] * (zs[~kept, None] - v[None])).imag) / np.abs(e)[None], axis=1)
    assert depth.min() > 2.0 * mu
    assert kept.sum() < zs.size // 4
