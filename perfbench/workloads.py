"""Seeded workloads: matrix files plus a fixed list of CLI queries.

``build(name, seed, directory)`` writes every matrix of the workload as a
CLI matrix file and returns the query list of one pass.  The same seed
gives byte-identical files and the same queries in the same order.  Each
query carries its own output check (see ``checks``), built from facts the
benchmark knows by construction: fixture geometry, classes fixed by the
generating family, and values recomputed with plain numpy.

The mixes are weighted so that a pass holds a group of similar-cost
queries around both the median and the 95th percentile, which keeps
those percentiles from sitting on a jump between unlike commands.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import LOG2

# The fixture matrices of the test suite.
CIRCLE_POINT = np.array([[0, 2, 0], [0, 0, 0], [0, 0, 2]], dtype=complex)
DISK_EIG_BOUNDARY = np.array([[0, 2, 0], [0, 0, 0], [0, 0, 1]], dtype=complex)
DISK = np.array([[0, 2], [0, 0]], dtype=complex)
TRIANGLE = np.diag([0.0, 1.0, 1.0j])
SEGMENT = np.diag([0.0, 0.3, 1.0]).astype(complex)
JORDAN3 = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
SQ3 = math.sqrt(3.0)


def m_alpha_beta(alpha: float, beta: float) -> np.ndarray:
    """Irreducible 3x3 family with circular numerical range (class E3)."""
    return np.array(
        [[alpha, (1.0 - alpha) * (1.0 + beta**2) / beta, alpha], [0.0, alpha, -alpha * beta], [0.0, 0.0, 1.0]],
        dtype=complex,
    )


def flat_display(a: float = 2.0, eps: float = 0.1) -> np.ndarray:
    """Irreducible 3x3 matrix with a flat boundary portion (class F3)."""
    return np.diag([a, a, -a]).astype(complex) + (1j / a) * np.array(
        [[0, 0, eps], [0, SQ3, 1j], [eps, -1j, -SQ3]]
    )


def disk_plus_eigenvalue(a: float) -> np.ndarray:
    """Unit disk with the eigenvalue a: [[0, 2, 0], [0, 0, 0], [0, 0, a]]."""
    return np.array([[0, 2, 0], [0, 0, 0], [0, 0, a]], dtype=complex)


def ginibre(rng, d: int) -> np.ndarray:
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return A / np.linalg.norm(A)


# Random matrices are fixed Ginibre draws shown in a seeded unitary frame.
# W(U*AU) = W(A), so every seed runs the same geometry and the same amount
# of work, while the bytes the program reads change with the seed.
GEOMETRY_SEED = 20240817


def ginibre_in_frame(rng, d: int, k: int) -> np.ndarray:
    G = ginibre(np.random.default_rng([GEOMETRY_SEED, d, k]), d)
    U = haar_unitary(rng, d)
    return U.conj().T @ G @ U


def haar_unitary(rng, d: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def unitary_affine(rng, A: np.ndarray) -> np.ndarray:
    """Random unitary similarity, then a random invertible affine map of the
    plane, as in the classifier's invariance criterion."""
    Q = haar_unitary(rng, A.shape[0])
    B = Q.conj().T @ A @ Q
    while True:
        T = rng.standard_normal((2, 2))
        if abs(np.linalg.det(T)) > 0.3:
            break
    s = rng.standard_normal(2) * 0.5
    R, S = (B + B.conj().T) / 2.0, (B - B.conj().T) / 2.0j
    eye = np.eye(A.shape[0])
    return (T[0, 0] * R + T[0, 1] * S + s[0] * eye) + 1j * (T[1, 0] * R + T[1, 1] * S + s[1] * eye)


def boundary_point(rng, A: np.ndarray) -> complex:
    """x*Ax for the top eigenvector x of A(theta) at a random angle."""
    t = rng.uniform(0.0, 2.0 * math.pi)
    R, S = checks.parts(A)
    _, V = checks.eigh(math.cos(t) * R + math.sin(t) * S)
    x = V[:, -1]
    return complex(x.conj() @ A @ x)


def point_arg(p: complex) -> str:
    # the '=' form keeps argparse from reading a negative x as an option
    return f"--point={float(p.real)!r},{float(p.imag)!r}"


class Mat:
    """A matrix written to a CLI matrix file, with lazy reference data."""

    def __init__(self, directory: Path, name: str, A):
        self.A = np.asarray(A, dtype=complex)
        self.path = str(directory / f"{name}.json")
        doc = {
            "d": self.A.shape[0],
            "re": [[float(x) for x in row] for row in self.A.real],
            "im": [[float(x) for x in row] for row in self.A.imag],
        }
        with open(self.path, "w") as fh:
            json.dump(doc, fh)
        self._sup = None

    @property
    def sup(self) -> checks.Support:
        if self._sup is None:
            self._sup = checks.Support(self.A)
        return self._sup


@dataclass
class Query:
    label: str
    argv: list[str]
    check: Callable[[int, str, str], None]


def ok(fn: Callable[[str], None]) -> Callable[[int, str, str], None]:
    def check(rc: int, out: str, err: str) -> None:
        checks.need(rc == 0, f"exit code {rc}: {err.strip()[-300:]}")
        fn(out)

    return check


def refused(phrase: str) -> Callable[[int, str, str], None]:
    return lambda rc, out, err: checks.refusal(rc, out, err, phrase)


# ---------------------------------------------------------------------------
# points: extremal, birth and maxent work on small matrices
# ---------------------------------------------------------------------------

CP_EXTREMES = {"points": [(0.5 + 0.5j * SQ3, "non-exposed", None), (0.5 - 0.5j * SQ3, "non-exposed", None), (2.0, "exposed", 1)]}
CP_FLAT = {"thetas": [math.pi / 3.0, 5.0 * math.pi / 3.0], "lengths": [SQ3, SQ3]}
TRIANGLE_FLAT = {"thetas": [math.pi / 4.0, math.pi, 1.5 * math.pi], "lengths": [math.sqrt(2.0), 1.0, 1.0]}
NO_FLAT = {"thetas": [], "lengths": []}
BIRTH_EPS = [0.1, 0.01]


def _points(rng, wd: Path) -> list[Query]:
    cp = Mat(wd, "circle_point", CIRCLE_POINT)
    deb = Mat(wd, "disk_eig_boundary", DISK_EIG_BOUNDARY)
    disk = Mat(wd, "disk", DISK)
    tri = Mat(wd, "triangle", TRIANGLE)
    jordan = Mat(wd, "jordan", JORDAN3)
    g3 = [Mat(wd, f"ginibre3_{k}", ginibre_in_frame(rng, 3, k)) for k in range(8)]
    g8 = Mat(wd, "ginibre8", ginibre_in_frame(rng, 8, 0))
    udeb = []
    for k in range(4):
        U = haar_unitary(rng, 3)
        udeb.append(Mat(wd, f"unitary_deb_{k}", U.conj().T @ DISK_EIG_BOUNDARY @ U))
    P = np.eye(3)[rng.permutation(3)]
    pdeb = Mat(wd, "permuted_deb", P.T @ DISK_EIG_BOUNDARY @ P)
    g3_edge = boundary_point(rng, g3[0].A)

    def extremes(m, label, facts, *extra):
        return Query(label, ["extremes", m.path, *extra], ok(lambda out: checks.extremes(out, m.sup, facts)))

    def preimage(m, label, p, dim):
        return Query(label, ["preimage", m.path, point_arg(p)], ok(lambda out: checks.preimage(out, m.A, p, dim)))

    def flat(m, label, facts, *extra):
        return Query(label, ["flat", m.path, *extra], ok(lambda out: checks.flat(out, m.sup, facts)))

    def birth(m, label, p):
        argv = ["birth", m.path, point_arg(p), "--eps=" + ",".join(map(repr, BIRTH_EPS))]
        return Query(label, argv, ok(lambda out: checks.birth(out, m.A, p, BIRTH_EPS)))

    def birth_refused(m, label, p):
        return Query(label, ["birth", m.path, point_arg(p)], refused("simply generated"))

    def maxent(m, label, p, interior, entropy=None):
        argv = ["maxent", m.path, point_arg(p)]
        return Query(label, argv, ok(lambda out: checks.maxent(out, m.A, p, interior, entropy)))

    def probe(m, label):
        return Query(label, ["probe", m.path, point_arg(1.0)], ok(lambda out: checks.probe(out, 1.0)))

    def centroid(m):
        return complex(np.trace(m.A)) / m.A.shape[0]

    return [
        extremes(cp, "extremes fixture", CP_EXTREMES, "--samples", "256"),
        *(extremes(m, "extremes d3", {}, "--samples", "256") for m in g3[:4]),
        extremes(g8, "extremes d8", {}, "--samples", "64"),
        probe(deb, "probe fixture"),
        probe(pdeb, "probe permuted"),
        preimage(deb, "preimage fixture", 1.0, 2),
        preimage(disk, "preimage fixture", 1.0, 1),
        preimage(cp, "preimage fixture", 2.0, 1),
        preimage(udeb[0], "preimage unitary", 1.0, 2),
        preimage(g3[0], "preimage d3", g3_edge, 1),
        flat(cp, "flat fixture", CP_FLAT),
        flat(tri, "flat fixture", TRIANGLE_FLAT),
        flat(jordan, "flat fixture", NO_FLAT),
        flat(g3[1], "flat d3", None),
        flat(g8, "flat d8", None, "--samples", "64"),
        birth(deb, "birth fixture", 1.0),
        *(birth(m, "birth unitary", 1.0) for m in udeb),
        birth_refused(disk, "birth refused", 1.0),
        birth_refused(cp, "birth refused", 2.0),
        birth_refused(g3[0], "birth refused", g3_edge),
        *(maxent(m, "maxent boundary", 1.0, False, LOG2) for m in (deb, *udeb[:2])),
        *(maxent(m, "maxent d3", centroid(m), True) for m in g3),
        maxent(g8, "maxent d8", centroid(g8), True),
    ]


# ---------------------------------------------------------------------------
# large: batched stacks, sampling plus hull, support-grid Hausdorff
# ---------------------------------------------------------------------------


def _large(rng, wd: Path) -> list[Query]:
    h8 = [Mat(wd, f"ginibre8_{k}", ginibre_in_frame(rng, 8, k)) for k in range(8)]
    m32 = [Mat(wd, f"ginibre32_{k}", ginibre_in_frame(rng, 32, k)) for k in range(3)]

    def boundary(m, label, *extra):
        return Query(label, ["boundary", m.path, *extra], ok(lambda out: checks.boundary(out, m.sup)))

    def flat(m, label):
        return Query(label, ["flat", m.path], ok(lambda out: checks.flat(out, m.sup, None)))

    def maxent(m, label):
        p = complex(np.trace(m.A)) / m.A.shape[0]
        return Query(label, ["maxent", m.path, point_arg(p)], ok(lambda out: checks.maxent(out, m.A, p, True)))

    def hausdorff(a, b, label):
        return Query(label, ["hausdorff", a.path, b.path], ok(lambda out: checks.hausdorff(out, a.sup, b.sup)))

    def oracle(m, label, n, seed):
        argv = ["oracle", m.path, "--n", str(n), "--seed", str(seed)]
        return Query(label, argv, ok(lambda out: checks.oracle(out, m.sup, n, seed)))

    seeds = [int(s) for s in rng.integers(0, 2**31, size=5)]
    return [
        *(boundary(m, "boundary d8") for m in h8[:5]),
        *(boundary(m, "boundary d8 4096", "--samples", "4096") for m in h8[:2]),
        boundary(m32[0], "boundary d32"),
        *(flat(m, "flat d8") for m in h8[:6]),
        flat(m32[1], "flat d32"),
        *(maxent(m, "maxent d8") for m in h8),
        maxent(m32[2], "maxent d32"),
        *(hausdorff(h8[k], h8[k + 1], "hausdorff d8") for k in (0, 2, 4)),
        hausdorff(m32[0], m32[1], "hausdorff d32"),
        *(oracle(m, "oracle d8", 20000, s) for m, s in zip(h8[:3], seeds[:3])),
        *(oracle(m, "oracle d32", 50000, s) for m, s in zip(m32[:2], seeds[3:])),
    ]


# ---------------------------------------------------------------------------
# shapes3: a stream of 3x3 classification queries
# ---------------------------------------------------------------------------

FAMILY_A = (0.0, 0.5, 1.0, 1.25, 2.0)
CLOSURE_EPS = [0.01, 0.001]


def _shapes3(rng, wd: Path) -> list[Query]:
    def classify(m, label, cls, shape):
        return Query(label, ["classify3", m.path], ok(lambda out: checks.classify3(out, m.A, cls, shape)))

    def canonical(m, label, form, key, value):
        return Query(label, ["canonical3", m.path], ok(lambda out: checks.canonical3(out, m.A, form, key, value)))

    def closure(m, label, a):
        argv = ["closure3", m.path, "--eps=" + ",".join(map(repr, CLOSURE_EPS))]
        return Query(label, argv, ok(lambda out: checks.closure3(out, a, CLOSURE_EPS)))

    classes = [
        ("R3", CIRCLE_POINT, "ellipse_plus_outside_point", 3),
        ("E3", m_alpha_beta(0.5, 1.0), "ellipse_irreducible", 3),
        ("E3", JORDAN3, "ellipse_irreducible", 3),
        ("F3", flat_display(), "flat_portion_shape", 3),
        ("R3", TRIANGLE, "triangle", 2),
    ]
    qs = []
    for k, (cls, A, shape, count) in enumerate(classes):
        for j in range(count):
            m = Mat(wd, f"class{k}_{j}", unitary_affine(rng, A))
            qs.append(classify(m, f"classify3 {cls}", cls, shape))
    for j in range(8):
        qs.append(classify(Mat(wd, f"ginibre3_{j}", ginibre_in_frame(rng, 3, j)), "classify3 O3", "O3", "ovular"))
    for a in FAMILY_A:
        U = haar_unitary(rng, 3)
        m = Mat(wd, f"family_{a}", U.conj().T @ disk_plus_eigenvalue(a) @ U)
        qs.append(canonical(m, "canonical3 family", "offdiag_a", "a", a))
        qs.append(closure(Mat(wd, f"family_plain_{a}", disk_plus_eigenvalue(a)), "closure3 family", a))
    qs.append(canonical(Mat(wd, "canon_cp", unitary_affine(rng, CIRCLE_POINT)), "canonical3 affine", "offdiag_a", "a", 2.0))
    qs.append(canonical(Mat(wd, "canon_triangle", unitary_affine(rng, TRIANGLE)), "canonical3 affine", "diag_0_1_i", None, None))
    qs.append(canonical(Mat(wd, "canon_segment", unitary_affine(rng, SEGMENT)), "canonical3 affine", "diag_0_lambda_1", "lambda", 0.3))
    qs.append(Query("classify3 refused", ["classify3", Mat(wd, "ginibre4", ginibre_in_frame(rng, 4, 0)).path], refused("3x3")))
    return qs


WORKLOADS = {"points": _points, "large": _large, "shapes3": _shapes3}


def build(name: str, seed: int, directory: Path) -> list[Query]:
    """Write the workload's matrix files and return one pass of queries,
    in a fixed seeded order."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    queries = WORKLOADS[name](rng, Path(directory))
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]
