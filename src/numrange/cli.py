"""Command-line front end.

Matrices are read from JSON files of the form
``{"d": n, "re": [[...]], "im": [[...]]}`` (row-major real and imaginary
parts).  A structured result goes to stdout as exactly
``json.dumps(doc, indent=2)`` plus a newline, where complex numbers are
``[re, im]`` pairs; polygons go out as CSV with an ``x,y`` header and
one ``repr(x),repr(y)`` line per vertex.  Either is one write, and
parsing it back reproduces the doubles bit for bit.

Exit codes: 0 success, 1 usage error, 2 malformed matrix file,
3 precondition violation, 4 numerical failure (a computation did not
reach its tolerance, e.g. a Schur triangularization or the dual Newton
solve).  For codes 3 and 4 the library diagnostic is printed verbatim on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from json.encoder import encode_basestring_ascii

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
    for field in ("re", "im"):
        arr = doc[field]
        if not isinstance(arr, list) or len(arr) != d or any(
            not isinstance(row, list) or len(row) != d for row in arr
        ):
            raise MatrixFileError(f"{path}: field '{field}' must be a {d}x{d} array")
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc["im"], dtype=float)
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise MatrixFileError(f"{path}: entries must be finite numbers")
    return re + 1j * im


def matrix_dict(A: np.ndarray) -> dict:
    A = np.asarray(A, dtype=complex)
    return {
        "d": A.shape[0],
        "re": [[float(x) for x in row] for row in A.real],
        "im": [[float(x) for x in row] for row in A.imag],
    }


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


# JSON writer.  ``json.dump`` with an indent runs the pure-Python encoder,
# one generator step per token; this writer builds the same text with the
# numbers of each numpy array formatted in one pass and filled into a
# cached layout by one ``%``.

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class _Slots:
    """Template leaf: a ``%s`` for each number of an array of ``shape``."""

    __slots__ = ("shape",)

    def __init__(self, *shape: int):
        self.shape = shape


def _float(x: float) -> str:
    s = float.__repr__(x)
    return _NONFINITE.get(s, s)


def _pairs(a: np.ndarray) -> np.ndarray:
    """A complex array as its (re, im) pairs: shape ``a.shape + (2,)``."""
    return np.stack((a.real, a.imag), axis=-1)


def _reprs(a: np.ndarray) -> tuple[str, ...]:
    """JSON text of each number of the float array ``a``, in C order."""
    out = tuple(map(float.__repr__, a.ravel().tolist()))
    if not np.isfinite(a).all():
        out = tuple(_NONFINITE.get(s, s) for s in out)
    return out


def _block(open_: str, items: list[str], close: str, level: int) -> str:
    """A list or dict of encoded items whose bracket sits at indent ``level``."""
    if not items:
        return open_ + close
    ind = "\n" + "  " * (level + 1)
    return open_ + ind + ("," + ind).join(items) + ind[:-2] + close


@functools.lru_cache(maxsize=256)
def _template(shape: tuple[int, ...], level: int) -> str:
    """Layout of a nested list of ``shape`` at indent ``level``, with a
    ``%s`` for each number."""
    if not shape:
        return "%s"
    return _block("[", [_template(shape[1:], level + 1)] * shape[0], "]", level)


def _dumps(o, level: int = 0) -> str:
    """``json.dumps(o, indent=2)``, for ``o`` nested at indent ``level``.

    Besides JSON values, ``o`` may hold numpy float arrays, encoded as
    nested lists, and complex numbers and arrays, each number encoded as
    its pair [re, im].
    """
    # the most frequent types first; bool must come before int
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, (list, tuple)):
        return _block("[", [_dumps(v, level + 1) for v in o], "]", level)
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, dict):
        items = [encode_basestring_ascii(k) + ": " + _dumps(v, level + 1) for k, v in o.items()]
        return _block("{", items, "}", level)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, complex):
        return _template((2,), level) % (_float(o.real), _float(o.imag))
    if isinstance(o, np.ndarray):
        if o.dtype.kind == "c":
            o = _pairs(o)
        return _template(o.shape, level) % _reprs(o)
    if isinstance(o, _Slots):
        return _template(o.shape, level)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


@functools.lru_cache(maxsize=64)
def _report_template(d: int, k: int) -> str:
    """One ``extremes`` report with a d x k pre-image basis, with slots for
    its numbers, its kind and its multiply_generated flag."""
    report = {
        "point": _Slots(2),
        "kind": _Slots(),
        "multiply_generated": _Slots(),
        "preimage_dimension": k,
        "preimage": _Slots(k, d, 2),
        "normal_arc": _Slots(2),
    }
    return _dumps(report, 1)


def _reports_json(reports) -> str:
    """The ``extremes`` document, built from columns: points and normal arcs
    in one array, the pre-image bases stacked per shape, and one ``%`` on
    the shape's report template per report."""
    heads = _reprs(np.array([(r.point.real, r.point.imag, *r.normal_arc) for r in reports]).reshape(-1, 4))
    rows_of: dict[tuple[int, int], list[int]] = {}
    for i, r in enumerate(reports):
        rows_of.setdefault(r.preimage.shape, []).append(i)
    records = [""] * len(reports)
    for (d, k), rows in rows_of.items():
        # basis columns first: the document lists each column's entries
        nums = _reprs(_pairs(np.array([reports[i].preimage.T for i in rows])))
        template, size = _report_template(d, k), 2 * d * k
        for j, i in enumerate(rows):
            r = reports[i]
            records[i] = template % (
                *heads[4 * i : 4 * i + 2],
                encode_basestring_ascii(r.kind),
                _dumps(r.multiply_generated),
                *nums[size * j : size * (j + 1)],
                *heads[4 * i + 2 : 4 * i + 4],
            )
    return _block("[", records, "]", 0)


def _emit(doc) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline, in one write."""
    sys.stdout.write(_dumps(doc) + "\n")


class _Parser(argparse.ArgumentParser):
    """argparse variant with usage errors on exit code 1."""

    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="numrange", description="Numerical range analysis of complex matrices.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_, samples=False, point=False, eps=False, n=False):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("matrix", help="matrix file (JSON with d, re, im)")
        if samples:
            sp.add_argument("--samples", type=int, default=1024, help="angle grid size")
        if point:
            sp.add_argument("--point", required=True, help="planar point 'x,y'")
        if eps:
            sp.add_argument("--eps", default="0.1", help="comma-separated positive values")
        if n:
            sp.add_argument("--seed", type=int, default=0, help="sampling seed")
            sp.add_argument("--n", type=int, default=100000, help="sample count")
        return sp

    add("boundary", "boundary polygon as CSV (x,y per vertex, counterclockwise)", samples=True)
    add("extremes", "extreme point reports as JSON", samples=True)
    add("preimage", "pre-image basis of an extreme point", point=True)
    add("flat", "flat boundary portions as JSON", samples=True)
    add("birth", "flat-portion birth family verification", point=True, eps=True)
    add("classify3", "shape class of a 3x3 matrix")
    add("canonical3", "canonical reducible form with witnesses")
    add("closure3", "closure membership for E3/F3, with witness matrices", eps=True)
    add("maxent", "maximum-entropy inference at a point", point=True)
    add("probe", "inference discontinuity probe at a point", point=True)
    add("oracle", "sampled inner hull and its Hausdorff gap to W(A), from the support function", samples=True, n=True)

    sp = sub.add_parser("hausdorff", help="Hausdorff distance of two numerical ranges, from their support functions")
    sp.add_argument("matrix", help="first matrix file")
    sp.add_argument("matrix_b", help="second matrix file")
    sp.add_argument("--samples", type=int, default=1024, help="angle scan size")
    return p


def run(args) -> int:
    cmd = args.command
    A = parse_matrix(args.matrix)

    if cmd == "boundary":
        v = rg.boundary_polygon(A, args.samples).vertices
        sys.stdout.write("x,y\n" + ("%r,%r\n" * len(v)) % tuple(v.ravel().tolist()))
        return 0

    if cmd == "extremes":
        reports = extremal.extreme_points(A, min(args.samples, 1024))
        sys.stdout.write(_reports_json(reports) + "\n")
        return 0

    if cmd == "preimage":
        p = _parse_point(args.point)
        B = extremal.preimage(A, p)
        _emit({"point": p, "dimension": int(B.shape[1]), "basis": B.T})
        return 0

    if cmd == "flat":
        portions = extremal.flat_portions(A, min(args.samples, 2048))
        _emit(
            [
                {
                    "theta": fp.theta,
                    "endpoints": fp.endpoints,
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
                "alpha": fam.alpha,
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
        cls = kipp3.classify(A)
        _emit(
            {
                "class": cls.class_tag,
                "shape": cls.shape,
                "normal_eigenvalues": cls.normal_eigenvalues,
                "elliptic": None
                if cls.elliptic is None
                else {
                    "lambda": cls.elliptic.lam,
                    "foci": cls.elliptic.foci,
                    "minor_axis": cls.elliptic.minor_axis,
                },
                "flat_angles": cls.flat_angles,
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
                "affine_T": cf.affine_T,
                "affine_shift": cf.affine_shift,
                "canonical": matrix_dict(cf.canonical),
            }
        )
        return 0

    if cmd == "closure3":
        # one classification and at most one canonical form serve every
        # predicate and witness; each witness is still classified itself
        cls = kipp3.classify(A)
        cf = kipp3._canonical_if_reducible(A, cls)
        out = {
            "in_closure_E3": kipp3._in_closure_E3(cls),
            "in_closure_F3": kipp3._in_closure_F3(A, cls),
            "e3_witness": None,
            "f3_witness": None,
        }
        eps = _parse_eps(args.eps)
        if not all(e > 0.0 for e in eps):
            raise PreconditionError("closure3 requires positive eps values")
        witnesses = {
            "e3_witness": lambda e: kipp3._e3_witness(cls, cf, e),
            "f3_witness": lambda e: kipp3._f3_witness(A, cls, cf, e),
        }
        for key, fn in witnesses.items():
            try:
                out[key] = [matrix_dict(fn(e)) for e in eps]
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
                "dual_point": res.dual_point,
                "residual": res.residual,
            }
        )
        return 0

    if cmd == "probe":
        rep = maxent.discontinuity_probe(A, _parse_point(args.point))
        _emit(
            {
                "alpha": rep.alpha,
                "value_entropy": rep.value_entropy,
                "radial_entropies": rep.radial_entropies,
                "boundary_entropies": rep.boundary_entropies,
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
                "hull": inner.vertices,
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
