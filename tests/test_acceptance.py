"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a pass line with its runtime so the whole gate can be
read off a `pytest -s` run.  The random ensembles are seeded unit-
Frobenius complex Gaussian matrices.
"""

import time

import numpy as np
import pytest

from numrange import (
    birth,
    extremal as ex,
    kipp3,
    matcore as mc,
    maxent as me,
    oracle,
    rangegeo as rg,
)
from numrange.errors import PreconditionError

from conftest import CIRCLE_POINT, DISK, DISK_EIG_BOUNDARY, TRIANGLE, gibbs, ginibre, hermitian_parts

SQ3 = np.sqrt(3.0)
LOG2 = np.log(2.0)


class _Budget:
    def __init__(self, label, seconds):
        self.label, self.seconds = label, seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            status = "PASS" if elapsed < self.seconds else "PASS (over budget!)"
            print(f"[{self.label}] {status} in {elapsed:.2f}s (budget {self.seconds:.0f}s)")
            assert elapsed < self.seconds, f"{self.label}: {elapsed:.2f}s over budget"
        else:
            print(f"[{self.label}] FAIL after {elapsed:.2f}s")
        return False


def test_criterion_1_identity_suite():
    """Rotated-coordinate and reconstruction identities to 1e-12."""
    rng = np.random.default_rng(1001)
    with _Budget("criterion 1: identity suite", 5.0):
        for _ in range(1000):
            d = int(rng.integers(2, 7))
            A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            x /= np.linalg.norm(x)
            theta = float(rng.uniform(0, 2 * np.pi))
            pencil = mc.Pencil(A)
            fa = mc.f_eval(A, x)
            radial = (fa * np.exp(-1j * theta)).real
            assert abs(radial - mc.f_eval(pencil.rotate(theta), x).real) < 1e-12 * (1 + mc.fro(A))
            recon = np.exp(1j * theta) * (
                mc.f_eval(pencil.rotate(theta), x)
                + 1j * mc.f_eval(pencil.prime(theta), x)
            )
            assert abs(fa - recon) < 1e-12 * (1 + mc.fro(A))


def test_criterion_2_support_oracle_sandwich():
    """Sampled clouds stay inside the supporting halfplanes; the inner
    hull closes onto the support polygon for small dimensions.

    The 5e-3 gap bound is applied per the package convention relative to
    1 + ||A||; the d = 2 population also meets it absolutely.
    """
    rng = np.random.default_rng(20240817)
    with _Budget("criterion 2: support/oracle sandwich", 60.0):
        worst_sound = -np.inf
        thetas = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        dirs = np.column_stack([np.cos(thetas), np.sin(thetas)])
        for k in range(200):
            d = int(rng.integers(2, 6))
            A = ginibre(rng, d)
            cloud = oracle.sample_range(A, 100000, seed=k)
            sup = mc.Pencil(A).support(thetas)
            pts = np.column_stack([cloud.points.real, cloud.points.imag])
            excess = float(np.max((pts @ dirs.T) - sup[None, :]))
            worst_sound = max(worst_sound, excess)
            assert worst_sound <= 1e-12 * (1 + mc.fro(A))  # soundness: exact
            if d <= 3:
                gap = rg.hausdorff(oracle.hull(cloud), rg.boundary_polygon(A, 1024))
                assert gap >= -1e-12
                assert gap <= 5e-3 * (1 + mc.fro(A))
                if d == 2:
                    assert gap <= 5e-3
        print(f"   worst soundness excess: {worst_sound:.2e}")


def test_criterion_3_circle_plus_point_fixture():
    """Two flat portions at +-pi/3; tangent points non-exposed; vertex
    exposed with a one-dimensional pre-image."""
    with _Budget("criterion 3: circle-plus-point fixture", 2.0):
        fps = ex.flat_portions(CIRCLE_POINT, 512)
        assert len(fps) == 2
        thetas = sorted(fp.theta for fp in fps)
        assert abs(thetas[0] - np.pi / 3) < 1e-9
        assert abs(thetas[1] - 5 * np.pi / 3) < 1e-9

        reps = ex.extreme_points(CIRCLE_POINT, 512)
        for sign in (1.0, -1.0):
            target = 0.5 + sign * 1j * SQ3 / 2
            best = min(reps, key=lambda r: abs(r.point - target))
            assert abs(best.point - target) <= 1e-6
            assert best.kind == "non-exposed"
        vertex = min(reps, key=lambda r: abs(r.point - 2.0))
        assert vertex.kind == "exposed"
        assert vertex.preimage.shape[1] == 1


def test_criterion_4_multiply_generated_detection():
    """Pre-image dimensions: 2 at the eigenvalue-on-boundary disk, 1 at
    the plain disk."""
    with _Budget("criterion 4: multiply generated detection", 1.0):
        assert ex.preimage(DISK_EIG_BOUNDARY, 1.0 + 0j).shape[1] == 2
        assert ex.preimage(DISK, 1.0 + 0j).shape[1] == 1


def test_criterion_5_birth_characterization():
    """Constructive birth: exact linear flat lengths and Hausdorff rates;
    refusal at every simply generated fixture point."""
    with _Budget("criterion 5: birth characterization", 5.0):
        fam = birth.birth_family(DISK_EIG_BOUNDARY, 1.0 + 0j)
        rows = birth.verify_birth(fam, [1e-1, 1e-2, 1e-3])
        for row in rows:
            assert abs(row.flat_length - row.eps) <= 1e-8
            assert abs(row.hausdorff_to_alpha - row.eps * np.sqrt(2)) <= 1e-8
            assert row.endpoint_error <= 1e-8
        simply_generated = [
            (DISK, 1.0 + 0j),
            (DISK, 1.0j),
            (CIRCLE_POINT, 2.0 + 0j),
            (CIRCLE_POINT, 0.5 + 1j * SQ3 / 2),
            (TRIANGLE, 1.0 + 0j),
            (TRIANGLE, 1.0j),
        ]
        for A, p in simply_generated:
            with pytest.raises(PreconditionError):
                birth.birth_family(A, p)


def test_criterion_6_kippenhahn_classifier():
    """Fixture table classes, the Jordan-block disk radius, and class
    invariance under random unitary and affine transformations."""
    rng = np.random.default_rng(1006)
    with _Budget("criterion 6: shape classifier", 30.0):
        for a in [0.0, 0.25, 0.5, 1.0, 1.25, 2.0, 5.0]:
            A = np.array([[0, 2, 0], [0, 0, 0], [0, 0, a]], dtype=complex)
            assert kipp3.classify(A).class_tag == "R3"
        for alpha in (0.01, 0.5):
            assert kipp3.classify(kipp3.m_alpha_beta(alpha, 1.0)).class_tag == "E3"
        a, eps = 2.0, 0.1
        display = np.diag([a, a, -a]).astype(complex) + (1j / a) * np.array(
            [[0, 0, eps], [0, np.sqrt(3), 1j], [eps, -1j, -np.sqrt(3)]]
        )
        assert kipp3.classify(display).class_tag == "F3"
        jordan = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
        cls = kipp3.classify(jordan)
        assert cls.class_tag == "E3"
        assert abs(cls.elliptic.minor_axis / 2 - np.sqrt(2) / 2) <= 1e-6

        fixtures = [
            np.array([[0, 2, 0], [0, 0, 0], [0, 0, 2.0]], dtype=complex),
            kipp3.m_alpha_beta(0.5, 1.0),
            display,
            jordan,
            TRIANGLE,
        ]
        per_fixture = 200 // len(fixtures) * len(fixtures)
        count = 0
        for A in fixtures:
            ref = kipp3.classify(A).class_tag
            for _ in range(200 // len(fixtures)):
                Q, _ = np.linalg.qr(
                    rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                )
                while True:
                    T = rng.standard_normal((2, 2))
                    if abs(np.linalg.det(T)) > 0.3:
                        break
                s = rng.standard_normal(2) * 0.5
                B = kipp3.affine_transform(Q.conj().T @ A @ Q, T, s)
                assert kipp3.classify(B).class_tag == ref
                count += 1
        assert count == per_fixture
        print(f"   class invariance over {count} random transforms")


def test_criterion_7_closure_membership():
    """Closure behavior along the disk-plus-eigenvalue family, and
    witness generators converging linearly to the canonical forms.

    The E3 closure holds exactly for a <= 1, the F3 closure exactly for
    a >= 1, and their intersection exactly at a = 1: the eigenvalue
    sitting on the boundary of the disk.
    """
    with _Budget("criterion 7: closure membership", 30.0):
        table = {}
        for a in [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 2.0]:
            A = np.array([[0, 2, 0], [0, 0, 0], [0, 0, a]], dtype=complex)
            e3 = kipp3.in_closure_E3(A)
            f3 = kipp3.in_closure_F3(A)
            table[a] = (e3, f3)
            assert e3 == (a <= 1.0)
            assert f3 == (a >= 1.0)
            assert (e3 and f3) == (a == 1.0)
        print("   a:", {k: f"E3cl={v[0]} F3cl={v[1]}" for k, v in table.items()})

        eps_grid = [1e-1, 1e-2, 1e-3]
        for a in [0.0, 0.5, 1.0]:
            A = np.array([[0, 2, 0], [0, 0, 0], [0, 0, a]], dtype=complex)
            cf = kipp3.canonical_reducible_form(A)
            dists = []
            for eps in eps_grid:
                B = kipp3.e3_witness(A, eps)
                assert kipp3.classify(B).class_tag == "E3"
                dists.append(mc.fro(B - cf.canonical))
            assert dists[1] / dists[0] == pytest.approx(0.1, rel=0.25)
            assert dists[2] / dists[1] == pytest.approx(0.1, rel=0.25)
        for a in [1.0, 1.25, 2.0]:
            A = np.array([[0, 2, 0], [0, 0, 0], [0, 0, a]], dtype=complex)
            cf = kipp3.canonical_reducible_form(A)
            dists = []
            for eps in eps_grid:
                B = kipp3.f3_witness(A, eps)
                assert kipp3.classify(B).class_tag == "F3"
                dists.append(mc.fro(B - cf.canonical))
            assert dists[2] / dists[1] == pytest.approx(0.1, rel=0.25)


def test_criterion_8_maxent_probe():
    """Inference jump at the multiply generated round boundary point;
    dual gradients match finite differences on random interior data."""
    rng = np.random.default_rng(1008)
    with _Budget("criterion 8: maximum-entropy probe", 60.0):
        rep = me.discontinuity_probe(DISK_EIG_BOUNDARY, 1.0 + 0j)
        assert abs(rep.value_entropy - LOG2) <= 1e-6
        assert rep.boundary_limit <= 1e-3
        assert rep.discontinuous

        checked = 0
        while checked < 500:
            d = int(rng.integers(2, 6))
            A = ginibre(rng, d)
            center = complex(np.trace(A)) / d
            if me.relative_depth(A, center) < 1e-4:
                continue
            res = me.maxent_interior(A, center)
            assert res.residual <= 1e-8
            R, S = hermitian_parts(A)
            target = np.array([center.real, center.imag])

            def dual(uv):
                w = np.linalg.eigvalsh(uv[0] * R + uv[1] * S)
                m = w[-1]
                return m + np.log(np.sum(np.exp(w - m))) - uv @ target

            point = np.array(res.dual_point) * 0.5
            rho, _ = gibbs(point[0] * R + point[1] * S)
            grad = np.array(
                [
                    np.trace(rho @ R).real - target[0],
                    np.trace(rho @ S).real - target[1],
                ]
            )
            h = 1e-5
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (dual(point + e) - dual(point - e)) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-6
            checked += 1
        print(f"   dual gradient checked on {checked} interior instances")


def test_criterion_9_hausdorff_convergence():
    """Perturbation sequences: range distance bounded by matrix distance
    plus the discretization allowance."""
    rng = np.random.default_rng(1009)
    with _Budget("criterion 9: Hausdorff convergence", 30.0):
        for k in range(50):
            d = int(rng.integers(2, 5))
            A = ginibre(rng, d)
            E = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            E /= mc.fro(E)
            seq = [A + E / i for i in range(1, 6)]
            dists = rg.range_converges(seq, A, 1024)
            for i, dist in enumerate(dists, start=1):
                assert dist <= mc.fro(E) / i + 10.0 / 1024
