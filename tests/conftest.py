"""Shared fixtures: the standard example matrices and brute-force helpers."""

import numpy as np
import pytest

# convex hull of the unit circle and the point 2 (two flat portions,
# two non-exposed tangent points, one exposed vertex)
CIRCLE_POINT = np.array([[0, 2, 0], [0, 0, 0], [0, 0, 2]], dtype=complex)
# unit disk with the eigenvalue 1 on its boundary (multiply generated
# round boundary point at 1)
DISK_EIG_BOUNDARY = np.array([[0, 2, 0], [0, 0, 0], [0, 0, 1]], dtype=complex)
# plain unit disk
DISK = np.array([[0, 2], [0, 0]], dtype=complex)
# direct sum of two unit disks (top eigenvalue of A(theta) double at every
# angle, so every boundary point is multiply generated)
DISK2 = np.kron(np.eye(2), DISK)
# normal matrix with triangular range
TRIANGLE = np.diag([0.0, 1.0, 1.0j])
# real diagonal: the segment [0, 1]
SEGMENT = np.diag([0.0, 0.3, 1.0]).astype(complex)
# nilpotent Jordan block: disk of radius sqrt(2)/2
JORDAN3 = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_matrix(rng, d):
    """Standard complex Gaussian entries, scaled to O(1) Frobenius norm."""
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / (2.0 * np.sqrt(d))


def random_hermitian(rng, d):
    H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (H + H.conj().T) / 2.0


def random_unit_vectors(rng, n, d):
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def sampled_support(A, xs, theta):
    """Brute-force support value max_x <x*Ax, e^{i theta}> over unit samples."""
    vals = np.einsum("ki,ij,kj->k", xs.conj(), A, xs)
    return np.max((vals * np.exp(-1j * theta)).real)


def point_set_hausdorff(P, Q):
    """Hausdorff distance of two finite planar point sets (definition)."""
    P = np.asarray(P, dtype=complex).reshape(-1)
    Q = np.asarray(Q, dtype=complex).reshape(-1)
    d1 = max(np.min(np.abs(Q - p)) for p in P)
    d2 = max(np.min(np.abs(P - q)) for q in Q)
    return max(d1, d2)


def segment_distance(p, a, b):
    """Distance from the planar point p to the segment [a, b] (complex)."""
    ab = b - a
    denom = (ab * np.conj(ab)).real
    if denom == 0.0:
        return abs(p - a)
    t = ((p - a) * np.conj(ab)).real / denom
    t = min(max(t, 0.0), 1.0)
    return abs(p - (a + t * ab))


def golden_min(f, lo, hi, iters=90):
    """Golden-section minimizer returning the best abscissa."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a < 1e-13:
            break
    return (a + b) / 2.0


def count_eighs(monkeypatch):
    """Count the calls of np.linalg.eigh; a call solves one matrix or one stack."""
    calls = []
    orig = np.linalg.eigh

    def eigh(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return calls
