"""Certified cell scans (Pencil._scan): the bounds of Pencil._cells hold,
every question answered on the cells gets the answer of the whole grid,
and the scans solve few angles."""

import numpy as np
import pytest

from numrange import extremal as ex, matcore as mc, maxent as me, oracle, rangegeo as rg

from conftest import (
    CIRCLE_POINT,
    DISK,
    DISK_EIG_BOUNDARY,
    JORDAN3,
    SEGMENT,
    TRIANGLE,
    large_ginibre,
    matrices,
    random_matrix,
    record,
)

K2TRI = np.kron(np.eye(2), TRIANGLE)


def mats():
    rng = np.random.default_rng(11)
    out = [CIRCLE_POINT, DISK_EIG_BOUNDARY, DISK, TRIANGLE, SEGMENT, JORDAN3, K2TRI]
    return out + [random_matrix(rng, d) + 0.3 - 0.2j for d in (1, 2, 3, 8)]


def full(A, N):
    """A Pencil whose N-angle table is solved, row by row with the
    ``eigvalsh`` of the scans, so that its scans see every angle: the
    answers of the whole grid."""
    pencil = mc.Pencil(A)
    pencil._solve(N, np.arange(len(pencil._table(N)[1])))
    return pencil


@pytest.mark.parametrize("N", [64, 65, 1024])
def test_scan_of_every_cell_is_the_grid(N):
    A = random_matrix(np.random.default_rng(2), 5)
    pencil = mc.Pencil(A)
    t, (w,) = pencil._scan(N, lambda t, w: np.ones(t.size, dtype=bool))
    # the whole grid by eigvalsh, the second half of an even one by the
    # half-turn identity
    thetas = np.linspace(0.0, 2.0 * np.pi, N, endpoint=False)
    rows = N // 2 if N % 2 == 0 else N
    h = np.linalg.eigvalsh(pencil.rotate(thetas[:rows]))
    want = np.concatenate([h, -h[:, ::-1]]) if rows < N else h
    assert np.array_equal(t, thetas) and np.array_equal(w, want)


@pytest.mark.parametrize("A", mats())
def test_cell_bounds_hold(A):
    """<corner, u> - sag <= h <= <corner, u> at 64 angles in every cell of
    a 32-angle scan, up to rounding."""
    pencil = mc.Pencil(A)
    t, (w,) = pencil._scan(32, lambda t, w: np.zeros(t.size, dtype=bool))
    width, corner, sag = pencil._cells(t, w)
    s = np.linspace(0.0, 1.0, 64)
    theta = t[:, None] + width[:, None] * s
    h = pencil.support(theta)
    upper = (corner[:, None] * np.exp(-1j * theta)).real
    tol = 1e-12 * pencil.scale
    assert np.all(h <= upper + tol)
    assert np.all(h >= upper - sag[:, None] - tol)
    # a Lipschitz constant of h - <p, u> bounds its slope between samples
    p = complex(0.7, -0.4)
    f = h - (p * np.exp(-1j * theta)).real
    slope = np.abs(np.diff(f, axis=1)) / (width[:, None] * (s[1] - s[0]))
    assert np.all(slope <= pencil._lipschitz(p) * (1.0 + 1e-9) + tol)


@pytest.mark.parametrize("A", mats())
def test_cell_scans_answer_as_the_whole_grid(A):
    rng = np.random.default_rng(4)
    pts = np.append(np.trace(A) / A.shape[0] + 0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)), 1.0)
    for N in (64, 512):
        got = ex._supporting_angles(mc.Pencil(A), pts, N)
        want = ex._supporting_angles(full(A, N), pts, N)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
        assert me.relative_depth(A, pts[0], N) == me.relative_depth(full(A, N), pts[0], N)
        B = random_matrix(rng, A.shape[0])
        assert rg.range_distance(A, B, N) == rg.range_distance(full(A, N), full(B, N), N)
        K = oracle.hull(oracle.sample_range(A, 500, seed=3))
        assert rg.range_gap(A, K, N) == rg.range_gap(full(A, N), K, N)
        fresh, whole = ex.flat_portions(A, N), ex.flat_portions(full(A, N), N)
        assert len(fresh) == len(whole)
        for a, b in zip(fresh, whole):
            assert abs(a.theta - b.theta) <= 1e-9 and abs(a.length - b.length) <= 1e-9


def test_interior_routing_is_certified_from_few_solves(monkeypatch):
    """The large d = 32 centroid is certified interior from 8 scan angles
    (the whole grid has 512), and the state is the one of the depth's own
    routing."""
    A = large_ginibre(32, 2)
    c = np.trace(A) / 32
    solved = [record(monkeypatch, np.linalg, name, matrices) for name in ("eigh", "eigvalsh")]
    res = me.infer(A, c)
    assert sum(map(sum, solved)) <= 32
    assert me.relative_depth(A, c) >= me.INTERIOR_MARGIN_RTOL * mc.Pencil(A).scale
    assert np.array_equal(res.rho, me.maxent_interior(A, c).rho)


def test_flat_scan_solves_at_most_a_quarter_of_the_grid(monkeypatch):
    A = large_ginibre(32, 1)
    solved = [record(monkeypatch, np.linalg, name, matrices) for name in ("eigh", "eigvalsh")]
    got = ex.flat_portions(A, 1024)
    assert sum(map(sum, solved)) <= 256
    assert got == ex.flat_portions(full(A, 1024), 1024)


def test_range_distance_scan_solves_at_most_half_the_grid(monkeypatch):
    A, B = large_ginibre(8, 0), large_ginibre(8, 1)
    solved = [record(monkeypatch, np.linalg, name, matrices) for name in ("eigh", "eigvalsh")]
    d = rg.range_distance(A, B, 1024)
    assert sum(map(sum, solved)) <= 512
    assert d == rg.range_distance(full(A, 1024), full(B, 1024), 1024)


@pytest.mark.parametrize("N", [64, 65, 512])
@pytest.mark.parametrize("A", [CIRCLE_POINT, DISK_EIG_BOUNDARY, TRIANGLE, large_ginibre(8, 3)])
def test_no_scan_solves_more_than_the_grid(A, N, monkeypatch):
    """Scan angles solved per pencil (eigvalsh; the two spectra of Re A and
    Im A besides) never exceed the N/2 of the whole grid (N for odd N)."""
    most = (N // 2 if N % 2 == 0 else N) + 2
    p = complex(np.trace(A)) / A.shape[0] + 0.1
    K = oracle.hull(oracle.sample_range(A, 300, seed=1))
    calls = [
        lambda: ex.flat_portions(A, N),
        lambda: ex.supporting_angle(A, p, N),
        lambda: me.relative_depth(A, p, N),
        lambda: me.infer(A, p, N),
        lambda: rg.range_distance(A, CIRCLE_POINT, N),
        lambda: rg.range_gap(A, K, N),
    ]
    eigvalsh = record(monkeypatch, np.linalg, "eigvalsh", matrices)
    for call, extra in zip(calls, [0, 0, 0, 0, most, len(K.vertices)]):
        eigvalsh.clear()
        call()
        assert sum(eigvalsh) <= most + extra


@pytest.mark.parametrize("grid", [64, 256])
def test_meeting_between_finest_angles_is_found(grid):
    """A triangle turned by a fraction of the finest cell width: no edge
    normal is a grid angle, and every portion is found at its normal."""
    phi = 0.37 * 2.0 * np.pi / grid
    A = np.exp(1j * phi) * TRIANGLE
    got = ex.flat_portions(A, grid)
    want = [(np.pi / 4 + phi, np.sqrt(2.0)), (np.pi + phi, 1.0), (1.5 * np.pi + phi, 1.0)]
    assert len(got) == 3
    for fp, (theta, length) in zip(got, want):
        assert abs(fp.theta - theta) <= 1e-10 and abs(fp.length - length) <= 1e-10


@pytest.mark.parametrize("grid", [512, 1024])
@pytest.mark.parametrize(
    ("A", "want"),
    [
        (CIRCLE_POINT, [(np.pi / 3, np.sqrt(3.0)), (5 * np.pi / 3, np.sqrt(3.0))]),
        (TRIANGLE, [(np.pi / 4, np.sqrt(2.0)), (np.pi, 1.0), (1.5 * np.pi, 1.0)]),
        (K2TRI, [(np.pi / 4, np.sqrt(2.0)), (np.pi, 1.0), (1.5 * np.pi, 1.0)]),
        (DISK_EIG_BOUNDARY, []),
    ],
)
def test_fixture_portions(A, want, grid):
    got = ex.flat_portions(A, grid)
    assert len(got) == len(want)
    for fp, (theta, length) in zip(got, want):
        assert abs(fp.theta - theta) <= 1e-9 and abs(fp.length - length) <= 1e-9
