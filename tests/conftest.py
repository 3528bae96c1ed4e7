"""Shared fixtures: the standard example matrices, seeded matrix generators,
brute-force helpers and the call recorder of the tests that count calls."""

import threading

import numpy as np
import pytest

from numrange import matcore as mc

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


def hermitian_parts(A):
    """Re(A) and Im(A), as the Pencil of A holds them."""
    pencil = mc.Pencil(A)
    return pencil.R, pencil.S


def gibbs(K):
    """(exp(K)/tr exp(K), log tr exp(K)) for Hermitian K, overflow-safe:
    the reference Gibbs state of the dual's gradient checks."""
    w, V = np.linalg.eigh((K + K.conj().T) / 2.0)
    e = np.exp(w - w[-1])
    Z = float(np.sum(e))
    return (V * (e / Z)) @ V.conj().T, float(w[-1] + np.log(Z))


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


_RECORD_LOCK = threading.Lock()


def record(monkeypatch, owner, name, what=lambda out, *args, **kwargs: 1):
    """Replace ``owner.name`` for the test by a wrapper that, on each call,
    appends ``what(out, *args, **kwargs)`` to the list it returns, ``out``
    being what the call returned.  Appends are locked, so calls made on
    the worker threads of ``matcore._map`` are recorded too."""
    seen = []
    orig = getattr(owner, name)

    def recorded(*args, **kwargs):
        out = orig(*args, **kwargs)
        item = what(out, *args, **kwargs)
        with _RECORD_LOCK:
            seen.append(item)
        return out

    monkeypatch.setattr(owner, name, recorded)
    return seen


def matrices(out, a, *args, **kwargs):
    """For :func:`record` of a LAPACK driver: the matrices a call solves,
    a stack of n counting n."""
    return int(np.prod(np.shape(a)[:-2], dtype=int))


def matrix(out, A, *args, **kwargs):
    """For :func:`record`: a copy of the matrix a call works on, its first
    argument or that Pencil's matrix."""
    return np.array(A.A if isinstance(A, mc.Pencil) else A)


def ginibre(rng, d):
    """A complex Ginibre d x d draw of rng, scaled to unit Frobenius norm."""
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return A / np.linalg.norm(A)


def haar_unitary(rng, d):
    """A Haar-random d x d unitary: the Q of a complex Ginibre draw, its
    columns turned by the phases of R's diagonal."""
    Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def large_ginibre(d, k):
    """Ginibre draw k of size d of the benchmark's ``large`` workload, unit
    Frobenius norm (the workload shows it in a seeded unitary frame, which
    leaves W(A) alone)."""
    return ginibre(np.random.default_rng([20240817, d, k]), d)
