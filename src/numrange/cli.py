"""Command-line front end.

Matrices are read from JSON files of the form
``{"d": n, "re": [[...]], "im": [[...]]}`` (row-major real and imaginary
parts).  Structured results are emitted as JSON on stdout, polygons and
paths as CSV with an ``x,y`` header; numbers are serialized so that
parsing them back reproduces the doubles bit for bit.

Exit codes: 0 success, 1 usage error, 2 malformed matrix file,
3 precondition violation, 4 numerical failure (a computation did not
reach its tolerance, e.g. a Schur triangularization, the dual Newton
solve, or two classifier criteria that disagree).  For codes 3 and 4 the
library diagnostic is printed verbatim on stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import birth, extremal, kipp3, maxent, oracle, rangegeo as rg
from .errors import MatrixFileError, NumericalError, PreconditionError


def parse_matrix(path: str) -> np.ndarray:
    """Read a matrix file, with field-level diagnostics on malformed input."""
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise MatrixFileError(f"{path}: cannot read file: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise MatrixFileError(f"{path}: top level must be an object")
    for field in ("d", "re", "im"):
        if field not in doc:
            raise MatrixFileError(f"{path}: missing field '{field}'")
    d = doc["d"]
    if not isinstance(d, int) or d < 1:
        raise MatrixFileError(f"{path}: field 'd' must be a positive integer")
    out = np.empty((d, d), dtype=complex)
    for field, part in (("re", 1.0), ("im", 1.0j)):
        arr = doc[field]
        if not isinstance(arr, list) or len(arr) != d or any(
            not isinstance(row, list) or len(row) != d for row in arr
        ):
            raise MatrixFileError(f"{path}: field '{field}' must be a {d}x{d} array")
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc["im"], dtype=float)
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise MatrixFileError(f"{path}: entries must be finite numbers")
    out = re + 1j * im
    return out


def matrix_dict(A: np.ndarray) -> dict:
    A = np.asarray(A, dtype=complex)
    return {
        "d": A.shape[0],
        "re": [[float(x) for x in row] for row in A.real],
        "im": [[float(x) for x in row] for row in A.imag],
    }


def _cpx(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _basis_list(B: np.ndarray) -> list[list[list[float]]]:
    return [[_cpx(B[i, k]) for i in range(B.shape[0])] for k in range(B.shape[1])]


def _parse_point(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise MatrixFileError(f"--point must be 'x,y', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise MatrixFileError(f"--point must be numeric 'x,y', got {text!r}") from exc


def _parse_eps(text: str) -> list[float]:
    try:
        vals = [float(t) for t in text.split(",") if t]
    except ValueError as exc:
        raise MatrixFileError(f"--eps must be comma-separated numbers, got {text!r}") from exc
    if not vals:
        raise MatrixFileError("--eps must contain at least one value")
    return vals


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


class _Parser(argparse.ArgumentParser):
    """argparse variant with usage errors on exit code 1."""

    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="numrange", description="Numerical range analysis of complex matrices.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_, point=False, eps=False, n=False):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("matrix", help="matrix file (JSON with d, re, im)")
        sp.add_argument("--samples", type=int, default=1024, help="angle grid size")
        sp.add_argument("--seed", type=int, default=0, help="sampling seed")
        if point:
            sp.add_argument("--point", required=True, help="planar point 'x,y'")
        if eps:
            sp.add_argument("--eps", default="0.1", help="comma-separated positive values")
        if n:
            sp.add_argument("--n", type=int, default=100000, help="sample count")
        return sp

    add("boundary", "boundary polygon as CSV (x,y per vertex, counterclockwise)")
    add("extremes", "extreme point reports as JSON")
    add("preimage", "pre-image basis of an extreme point", point=True)
    add("flat", "flat boundary portions as JSON")
    add("birth", "flat-portion birth family verification", point=True, eps=True)
    add("classify3", "shape class of a 3x3 matrix")
    add("canonical3", "canonical reducible form with witnesses")
    add("closure3", "closure membership for E3/F3, with witness matrices", eps=True)
    add("maxent", "maximum-entropy inference at a point", point=True)
    add("probe", "inference discontinuity probe at a point", point=True)
    add("oracle", "sampled inner hull and its Hausdorff gap to W(A), from the support function", n=True)

    sp = sub.add_parser("hausdorff", help="Hausdorff distance of two numerical ranges, from their support functions")
    sp.add_argument("matrix", help="first matrix file")
    sp.add_argument("matrix_b", help="second matrix file")
    sp.add_argument("--samples", type=int, default=1024, help="angle scan size")
    return p


def run(args) -> int:
    cmd = args.command
    A = parse_matrix(args.matrix)

    if cmd == "boundary":
        poly = rg.boundary_polygon(A, args.samples)
        sys.stdout.write("x,y\n")
        for x, y in poly.vertices:
            sys.stdout.write(f"{float(x)!r},{float(y)!r}\n")
        return 0

    if cmd == "extremes":
        reports = extremal.extreme_points(A, min(args.samples, 1024))
        _emit(
            [
                {
                    "point": _cpx(r.point),
                    "kind": r.kind,
                    "multiply_generated": r.multiply_generated,
                    "preimage_dimension": int(r.preimage.shape[1]),
                    "preimage": _basis_list(r.preimage),
                    "normal_arc": [r.normal_arc[0], r.normal_arc[1]],
                }
                for r in reports
            ]
        )
        return 0

    if cmd == "preimage":
        B = extremal.preimage(A, _parse_point(args.point))
        _emit({"point": _cpx(_parse_point(args.point)), "dimension": int(B.shape[1]), "basis": _basis_list(B)})
        return 0

    if cmd == "flat":
        portions = extremal.flat_portions(A, min(args.samples, 2048))
        _emit(
            [
                {
                    "theta": fp.theta,
                    "endpoints": [_cpx(fp.endpoints[0]), _cpx(fp.endpoints[1])],
                    "length": fp.length,
                }
                for fp in portions
            ]
        )
        return 0

    if cmd == "birth":
        fam = birth.birth_family(A, _parse_point(args.point))
        eps = _parse_eps(args.eps)
        eps.sort(reverse=True)
        rows = birth.verify_birth(fam, eps)
        _emit(
            {
                "alpha": _cpx(fam.alpha),
                "theta": fam.theta,
                "support": fam.support,
                "lambda": fam.lam,
                "mu_plus": fam.mu_plus,
                "mu_minus": fam.mu_minus,
                "sigma": fam.sigma,
                "table": [
                    {
                        "eps": r.eps,
                        "flat_length": r.flat_length,
                        "hausdorff_to_alpha": r.hausdorff_to_alpha,
                        "endpoint_error": r.endpoint_error,
                    }
                    for r in rows
                ],
                "members": [matrix_dict(fam.member(e)) for e in eps],
            }
        )
        return 0

    if cmd == "classify3":
        cls = kipp3.classify(A, grid=min(args.samples, 1024))
        _emit(
            {
                "class": cls.class_tag,
                "shape": cls.shape,
                "normal_eigenvalues": [_cpx(z) for z in cls.normal_eigenvalues],
                "elliptic": None
                if cls.elliptic is None
                else {
                    "lambda": _cpx(cls.elliptic.lam),
                    "foci": [_cpx(cls.elliptic.foci[0]), _cpx(cls.elliptic.foci[1])],
                    "minor_axis": cls.elliptic.minor_axis,
                },
                "flat_angles": list(cls.flat_angles),
            }
        )
        return 0

    if cmd == "canonical3":
        cf = kipp3.canonical_reducible_form(A)
        _emit(
            {
                "form": cf.form,
                "lambda": cf.lam,
                "a": cf.a,
                "unitary": matrix_dict(cf.unitary),
                "affine_T": [[float(x) for x in row] for row in cf.affine_T],
                "affine_shift": [float(x) for x in cf.affine_shift],
                "canonical": matrix_dict(cf.canonical),
            }
        )
        return 0

    if cmd == "closure3":
        in_e3 = kipp3.in_closure_E3(A)
        in_f3 = kipp3.in_closure_F3(A)
        out = {"in_closure_E3": in_e3, "in_closure_F3": in_f3, "e3_witness": None, "f3_witness": None}
        eps = _parse_eps(args.eps)
        for key, fn in (("e3_witness", kipp3.e3_witness), ("f3_witness", kipp3.f3_witness)):
            try:
                out[key] = [matrix_dict(fn(A, e)) for e in eps]
            except PreconditionError:
                out[key] = None
        _emit(out)
        return 0

    if cmd == "hausdorff":
        B = parse_matrix(args.matrix_b)
        d = rg.range_distance(A, B, args.samples)
        _emit({"hausdorff": d})
        return 0

    if cmd == "maxent":
        res = maxent.infer(A, _parse_point(args.point))
        _emit(
            {
                "rho": matrix_dict(res.rho),
                "entropy": res.entropy,
                "dual_point": None if res.dual_point is None else list(res.dual_point),
                "residual": res.residual,
            }
        )
        return 0

    if cmd == "probe":
        rep = maxent.discontinuity_probe(A, _parse_point(args.point))
        _emit(
            {
                "alpha": _cpx(rep.alpha),
                "value_entropy": rep.value_entropy,
                "radial_entropies": [float(x) for x in rep.radial_entropies],
                "boundary_entropies": [float(x) for x in rep.boundary_entropies],
                "radial_limit": rep.radial_limit,
                "boundary_limit": rep.boundary_limit,
                "discontinuous": rep.discontinuous,
            }
        )
        return 0

    if cmd == "oracle":
        cloud = oracle.sample_range(A, args.n, args.seed)
        inner = oracle.hull(cloud)
        gap = rg.range_gap(A, inner, args.samples)
        _emit(
            {
                "n": args.n,
                "seed": args.seed,
                "gap": gap,
                "hull": [[float(x), float(y)] for x, y in inner.vertices],
            }
        )
        return 0

    raise MatrixFileError(f"unknown command {cmd!r}")  # unreachable


def _join_negative_point(argv: list[str]) -> list[str]:
    """Join ``--point`` to a following value that starts with a minus sign
    (``--point -1,0`` -> ``--point=-1,0``): argparse reads a negative
    number as a value, but not one with a comma, which it takes for an
    option and reports a missing argument."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--point" and re.match(r"-[\d.]", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


_PARSER: _Parser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        # built once per process: in-process callers reuse it
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(_join_negative_point(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run(args)
    except MatrixFileError as exc:
        sys.stderr.write(f"numrange: {exc}\n")
        return 2
    except PreconditionError as exc:
        sys.stderr.write(f"{exc}\n")
        return 3
    except NumericalError as exc:
        sys.stderr.write(f"{exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
