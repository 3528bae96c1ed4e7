"""Output checks for benchmark queries, written without numrange.

Every check recomputes what it needs with plain numpy: the support
function h(theta) = top eigenvalue of cos(theta) Re(A) + sin(theta) Im(A)
on a fine angle grid, singular values, eigenvalues and Gibbs states in an
eigenbasis.  A defect in the library therefore cannot hide behind the
same defect in its checker.  The numpy routines are bound here, at
import time, so that the traced run (which replaces the module attributes
of ``numpy.linalg``) never counts the checker's own solves.
"""

from __future__ import annotations

import json
import math

import numpy as np

eigh = np.linalg.eigh
eigvalsh = np.linalg.eigvalsh
eigvals = np.linalg.eigvals
svd = np.linalg.svd
norm = np.linalg.norm

REF_GRID = 4096
_CHUNK = 256
LOG2 = math.log(2.0)


class CheckFailed(Exception):
    """A query's output contradicts an independently computed fact."""


def need(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def parts(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (A + A.conj().T) / 2.0, (A - A.conj().T) / 2.0j


def scale_of(A: np.ndarray) -> float:
    return 1.0 + float(norm(A))


def top_two(A: np.ndarray, theta: float) -> tuple[float, float]:
    R, S = parts(A)
    w = eigvalsh(math.cos(theta) * R + math.sin(theta) * S)
    return float(w[-1]), float(w[-2]) if len(w) > 1 else -math.inf


class Support:
    """Support function of W(A) on a uniform grid of REF_GRID angles."""

    def __init__(self, A: np.ndarray):
        self.A = A
        self.scale = scale_of(A)
        R, S = parts(A)
        self.thetas = np.linspace(0.0, 2.0 * np.pi, REF_GRID, endpoint=False)
        self.dirs = np.column_stack([np.cos(self.thetas), np.sin(self.thetas)])
        self.h = np.empty(REF_GRID)
        self.gap = np.full(REF_GRID, np.inf)
        for i in range(0, REF_GRID, _CHUNK):
            c = self.dirs[i : i + _CHUNK, 0, None, None]
            s = self.dirs[i : i + _CHUNK, 1, None, None]
            w = eigvalsh(c * R + s * S)  # bounded chunks keep peak memory low
            self.h[i : i + _CHUNK] = w[:, -1]
            if w.shape[1] > 1:
                self.gap[i : i + _CHUNK] = w[:, -1] - w[:, -2]

    def excess(self, xy: np.ndarray) -> np.ndarray:
        """max over the grid of <p, e^{i theta}> - h(theta), per point."""
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        out = np.empty(len(xy))
        for i in range(0, len(xy), _CHUNK):
            out[i : i + _CHUNK] = (xy[i : i + _CHUNK] @ self.dirs.T - self.h).max(axis=1)
        return out

    def on_boundary(self, xy, what: str) -> None:
        """Points of the boundary: no supporting halfplane is violated, and
        one supporting line passes within the grid's chord error."""
        e = self.excess(xy)
        need(e.size > 0, f"{what}: no points")
        need(e.max() <= 1e-8 * self.scale, f"{what}: point outside W(A) by {e.max():.3e}")
        need(e.min() >= -1e-5 * self.scale, f"{what}: point inside W(A) by {-e.min():.3e}")

    def inside(self, xy, what: str, tol: float = 1e-10) -> None:
        e = self.excess(xy)
        need(e.max() <= tol * self.scale, f"{what}: point outside a supporting halfplane by {e.max():.3e}")

    def shortfall(self, xy) -> float:
        """max over the grid of h(theta) minus the support of the point set."""
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        return float((self.h - (self.dirs @ xy.T).max(axis=1)).max())


def xy_of(z) -> np.ndarray:
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return np.column_stack([z.real, z.imag])


def cpx(pair) -> complex:
    return complex(pair[0], pair[1])


def matrix_of(doc) -> np.ndarray:
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc["im"], dtype=float)
    need(re.shape == (doc["d"], doc["d"]) == im.shape, "matrix document has inconsistent shape")
    return re + 1j * im


def basis_of(doc) -> np.ndarray:
    """Basis columns as emitted by the CLI: a list of columns of [re, im]."""
    cols = [np.array([complex(a, b) for a, b in col]) for col in doc]
    return np.column_stack(cols) if cols else np.zeros((0, 0), dtype=complex)


def check_preimage_basis(A: np.ndarray, p: complex, Q: np.ndarray, what: str) -> None:
    """Orthonormal columns, and every unit vector of their span maps to p."""
    scale = scale_of(A)
    k = Q.shape[1]
    need(k >= 1, f"{what}: empty pre-image")
    need(np.max(np.abs(Q.conj().T @ Q - np.eye(k))) <= 1e-8, f"{what}: pre-image basis not orthonormal")
    vecs = [Q[:, j] for j in range(k)] + [Q.sum(axis=1) / math.sqrt(k)]
    for x in vecs:
        fx = complex(x.conj() @ A @ x)
        need(abs(fx - p) <= 1e-6 * scale, f"{what}: x*Ax = {fx} is not the point {p}")


def json_doc(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# per-command checks: each takes the command's stdout and the known facts
# ---------------------------------------------------------------------------


def boundary(out: str, sup: Support) -> None:
    lines = out.splitlines()
    need(lines and lines[0] == "x,y", "boundary: missing x,y header")
    xy = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
    need(len(xy) >= 3, "boundary: fewer than 3 vertices")
    sup.on_boundary(xy, "boundary vertex")
    e1 = np.roll(xy, -1, axis=0) - xy
    e2 = np.roll(e1, -1, axis=0)
    turn = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    need(turn.min() >= -1e-12 * sup.scale**2, "boundary: polygon is not convex counterclockwise")
    need(sup.shortfall(xy) <= 1e-3 * sup.scale, "boundary: polygon misses part of W(A)")


def extremes(out: str, sup: Support, facts: dict) -> None:
    reps = json_doc(out)
    need(len(reps) >= 3, "extremes: fewer than 3 extreme points")
    pts = np.array([cpx(r["point"]) for r in reps])
    sup.on_boundary(xy_of(pts), "extreme point")
    for r in reps:
        p = cpx(r["point"])
        need(r["kind"] in ("exposed", "non-exposed"), f"extremes: unknown kind {r['kind']!r}")
        Q = basis_of(r["preimage"])
        need(Q.shape[1] == r["preimage_dimension"], "extremes: pre-image dimension mismatch")
        need(r["multiply_generated"] == (Q.shape[1] >= 2), "extremes: multiply_generated flag mismatch")
        need(r["normal_arc"][0] <= r["normal_arc"][1], "extremes: reversed normal arc")
        check_preimage_basis(sup.A, p, Q, "extremes")
    for target, kind, dim in facts.get("points", []):
        best = min(reps, key=lambda r: abs(cpx(r["point"]) - target))
        need(abs(cpx(best["point"]) - target) <= 1e-6, f"extremes: no extreme point at {target}")
        need(best["kind"] == kind, f"extremes: {target} reported {best['kind']}, expected {kind}")
        if dim is not None:
            need(best["preimage_dimension"] == dim, f"extremes: pre-image dimension at {target}")


def preimage(out: str, A: np.ndarray, p: complex, dim: int) -> None:
    doc = json_doc(out)
    need(cpx(doc["point"]) == p, "preimage: point not echoed")
    Q = basis_of(doc["basis"])
    need(doc["dimension"] == Q.shape[1] == dim, f"preimage: dimension {doc['dimension']}, expected {dim}")
    check_preimage_basis(A, p, Q, "preimage")


def flat(out: str, sup: Support, facts: dict | None) -> None:
    portions = json_doc(out)
    for fp in portions:
        e0, e1 = cpx(fp["endpoints"][0]), cpx(fp["endpoints"][1])
        sup.on_boundary(xy_of([e0, e1]), "flat endpoint")
        need(abs(abs(e1 - e0) - fp["length"]) <= 1e-9 * sup.scale, "flat: length is not the endpoint distance")
        need(fp["length"] > 0.0, "flat: empty portion")
        h, _ = top_two(sup.A, fp["theta"])
        u = complex(math.cos(fp["theta"]), math.sin(fp["theta"]))
        for e in (e0, e1):
            need(abs((e * u.conjugate()).real - h) <= 1e-8 * sup.scale, "flat: endpoint off the supporting line")
    if facts is None:
        # a generic matrix: the top eigenvalue of A(theta) never doubles
        if sup.gap.min() > 1e-6 * sup.scale:
            need(portions == [], "flat: portion reported where A(theta) has a simple top eigenvalue")
        return
    need(len(portions) == len(facts["thetas"]), f"flat: {len(portions)} portions, expected {len(facts['thetas'])}")
    for fp, theta, length in zip(portions, facts["thetas"], facts["lengths"]):
        need(abs(fp["theta"] - theta) <= 1e-9, f"flat: normal angle {fp['theta']}, expected {theta}")
        need(abs(fp["length"] - length) <= 1e-8, f"flat: length {fp['length']}, expected {length}")


def _face_length(B: np.ndarray, theta: float) -> float:
    """Length of the exposed face of W(B) with outward normal e^{i theta}."""
    R, S = parts(B)
    w, V = eigh(math.cos(theta) * R + math.sin(theta) * S)
    Q = V[:, w >= w[-1] - 1e-9 * scale_of(B)]
    Ap = -math.sin(theta) * R + math.cos(theta) * S
    mu = eigvalsh(Q.conj().T @ Ap @ Q)
    return float(mu[-1] - mu[0])


def birth(out: str, A: np.ndarray, alpha: complex, eps: list[float]) -> None:
    doc = json_doc(out)
    need(cpx(doc["alpha"]) == alpha, "birth: alpha not echoed")
    need([r["eps"] for r in doc["table"]] == eps, "birth: table eps values")
    theta = doc["theta"]
    for row, member in zip(doc["table"], doc["members"]):
        e = row["eps"]
        need(abs(row["flat_length"] - e) <= 1e-8, f"birth: flat length {row['flat_length']} != eps {e}")
        need(abs(row["hausdorff_to_alpha"] - e * math.sqrt(2.0)) <= 1e-8, "birth: Hausdorff rate")
        need(row["endpoint_error"] <= 1e-8, "birth: endpoint error")
        B = matrix_of(member)
        need(abs(_face_length(B, theta) - e) <= 1e-8, "birth: member's face length is not eps")
        need(float(norm(B - A)) <= 2.5 * e, "birth: member is not within O(eps) of A")


def refusal(rc: int, out: str, err: str, phrase: str) -> None:
    need(rc == 3, f"refusal: exit code {rc}, expected 3")
    need(out == "", "refusal: output on stdout")
    need(phrase in err, f"refusal: diagnostic lacks {phrase!r}: {err.strip()!r}")


def probe(out: str, alpha: complex) -> None:
    doc = json_doc(out)
    need(cpx(doc["alpha"]) == alpha, "probe: alpha not echoed")
    need(abs(doc["value_entropy"] - LOG2) <= 1e-6, f"probe: entropy at alpha {doc['value_entropy']}, expected log 2")
    need(doc["boundary_limit"] <= 1e-3, "probe: boundary limit is not 0")
    need(doc["discontinuous"] is True, "probe: jump not detected")


def maxent(out: str, A: np.ndarray, alpha: complex, interior: bool, entropy: float | None = None) -> None:
    doc = json_doc(out)
    rho = matrix_of(doc["rho"])
    scale = scale_of(A)
    need(float(norm(rho - rho.conj().T)) <= 1e-12, "maxent: rho is not Hermitian")
    need(abs(np.trace(rho) - 1.0) <= 1e-10, "maxent: trace of rho is not 1")
    lam = eigvalsh((rho + rho.conj().T) / 2.0)
    need(lam.min() >= -1e-10, "maxent: rho is not positive semidefinite")
    value = complex(np.trace(rho @ A))
    need(abs(value - alpha) <= 1e-8 * scale, f"maxent: tr(rho A) = {value}, expected {alpha}")
    need(abs(doc["residual"] - abs(value - alpha)) <= 1e-10 * scale, "maxent: residual misreported")
    p = np.clip(lam, 1e-300, None)
    own = float(-np.sum(np.where(lam > 1e-15, p * np.log(p), 0.0)))
    need(abs(doc["entropy"] - own) <= 1e-8, f"maxent: entropy {doc['entropy']}, recomputed {own}")
    if entropy is not None:
        need(abs(doc["entropy"] - entropy) <= 1e-6, f"maxent: entropy {doc['entropy']}, expected {entropy}")
    if interior:
        need(doc["dual_point"] is not None, "maxent: interior solve without dual point")
        R, S = parts(A)
        w, V = eigh(doc["dual_point"][0] * R + doc["dual_point"][1] * S)
        e = np.exp(w - w[-1])
        gibbs = (V * (e / e.sum())) @ V.conj().T
        need(float(norm(rho - gibbs)) <= 1e-8, "maxent: rho is not the Gibbs state of its dual point")
    else:
        need(doc["dual_point"] is None, "maxent: boundary solve reports a dual point")


def hausdorff(out: str, sa: Support, sb: Support) -> None:
    d = json_doc(out)["hausdorff"]
    ref = float(np.max(np.abs(sa.h - sb.h)))
    need(abs(d - ref) <= 1e-3 * max(sa.scale, sb.scale), f"hausdorff: {d}, support-function distance {ref}")


def oracle(out: str, sup: Support, n: int, seed: int) -> None:
    doc = json_doc(out)
    need(doc["n"] == n and doc["seed"] == seed, "oracle: n or seed not echoed")
    hull = np.asarray(doc["hull"], dtype=float)
    need(len(hull) >= 3, "oracle: hull has fewer than 3 vertices")
    sup.inside(hull, "oracle hull vertex")
    need(doc["gap"] >= 0.0, "oracle: negative gap")
    own = sup.shortfall(hull)
    need(abs(doc["gap"] - own) <= 1e-4 * sup.scale, f"oracle: gap {doc['gap']}, recomputed {own}")


def classify3(out: str, A: np.ndarray, cls: str, shape: str | None) -> None:
    doc = json_doc(out)
    scale = scale_of(A)
    need(doc["class"] == cls, f"classify3: class {doc['class']}, expected {cls}")
    if shape is not None:
        need(doc["shape"] == shape, f"classify3: shape {doc['shape']}, expected {shape}")
    ne = [cpx(z) for z in doc["normal_eigenvalues"]]
    need(bool(ne) == (cls == "R3"), "classify3: normal eigenvalues contradict the class")
    eye = np.eye(3)
    for lam in ne:
        smin = svd(np.vstack([A - lam * eye, A.conj().T - np.conj(lam) * eye]), compute_uv=False)[-1]
        need(smin <= 1e-6 * scale, f"classify3: {lam} has no joint eigenvector")
    eigs = eigvals(A)
    if cls == "E3":
        ell = doc["elliptic"]
        need(ell is not None and ell["minor_axis"] > 0.0, "classify3: E3 without elliptic data")
        for f in ell["foci"]:
            need(np.min(np.abs(eigs - cpx(f))) <= 1e-4 * scale, "classify3: focus is not an eigenvalue")
    if cls == "F3":
        need(doc["flat_angles"], "classify3: F3 without flat angles")
        for t in doc["flat_angles"]:
            h, h2 = top_two(A, t)
            need(h - h2 <= 1e-7 * scale, "classify3: A(theta) has a simple top eigenvalue at a flat angle")
    if cls == "O3":
        need(doc["elliptic"] is None and doc["flat_angles"] == [], "classify3: O3 with certificates")


def canonical3(out: str, A: np.ndarray, form: str, key: str | None, value: float | None) -> None:
    doc = json_doc(out)
    need(doc["form"] == form, f"canonical3: form {doc['form']}, expected {form}")
    if key is not None:
        need(abs(doc[key] - value) <= 1e-6, f"canonical3: {key} = {doc[key]}, expected {value}")
    U = matrix_of(doc["unitary"])
    need(np.max(np.abs(U.conj().T @ U - np.eye(3))) <= 1e-10, "canonical3: witness is not unitary")
    T = np.asarray(doc["affine_T"], dtype=float)
    s = np.asarray(doc["affine_shift"], dtype=float)
    R, S = parts(U.conj().T @ A @ U)
    eye = np.eye(3)
    mapped = (T[0, 0] * R + T[0, 1] * S + s[0] * eye) + 1j * (T[1, 0] * R + T[1, 1] * S + s[1] * eye)
    canon = matrix_of(doc["canonical"])
    need(float(norm(mapped - canon)) <= 1e-8 * scale_of(A), "canonical3: witnesses do not reproduce the form")


def closure3(out: str, a: float, eps: list[float]) -> None:
    doc = json_doc(out)
    need(doc["in_closure_E3"] == (a <= 1.0), f"closure3: E3 closure wrong at a = {a}")
    need(doc["in_closure_F3"] == (a >= 1.0), f"closure3: F3 closure wrong at a = {a}")
    canon = np.array([[0, 2, 0], [0, 0, 0], [0, 0, a]], dtype=complex)
    for key, present in (("e3_witness", a <= 1.0), ("f3_witness", a >= 1.0)):
        wit = doc[key]
        need((wit is not None) == present, f"closure3: {key} presence wrong at a = {a}")
        if wit is None:
            continue
        need(len(wit) == len(eps), f"closure3: {key} count")
        dists = [float(norm(matrix_of(m) - canon)) for m in wit]
        need(min(dists) > 0.0, f"closure3: {key} reaches the form itself at a = {a}")
        for k in range(1, len(dists)):
            ratio = dists[k] / dists[k - 1]
            want = eps[k] / eps[k - 1]
            need(abs(ratio / want - 1.0) <= 0.25, f"closure3: {key} does not converge linearly at a = {a}")
