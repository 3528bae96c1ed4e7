import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from numrange import cli, extremal, kipp3, rangegeo as rg
from numrange.errors import NumericalError, PreconditionError

from conftest import CIRCLE_POINT, DISK, DISK2, DISK_EIG_BOUNDARY, JORDAN3, SEGMENT, TRIANGLE


@pytest.fixture
def matrix_file(tmp_path):
    def write(name, A):
        A = np.asarray(A, dtype=complex)
        doc = cli.matrix_dict(A)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_matrix_roundtrip(tmp_path, matrix_file):
    A = np.array([[0.1 + 0.25j, 2], [0, -1.5j]], dtype=complex)
    path = matrix_file("a", A)
    B = cli.parse_matrix(path)
    assert np.array_equal(A, B)  # bit-for-bit
    C = cli.parse_matrix(path)
    assert np.array_equal(B, C)


def test_parse_matrix_diagnostics(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"d": 2, "re": [[0,2],[0,0]]}')
    with pytest.raises(cli.MatrixFileError, match="missing field 'im'"):
        cli.parse_matrix(str(p))
    p.write_text('{"d": 2, "re": [[0,2],[0,0]], "im": [[0,0]]}')
    with pytest.raises(cli.MatrixFileError, match="'im' must be a 2x2"):
        cli.parse_matrix(str(p))
    p.write_text("{not json")
    with pytest.raises(cli.MatrixFileError, match="line 1"):
        cli.parse_matrix(str(p))


def test_classify3_command(capsys, matrix_file):
    path = matrix_file("cp", [[0, 2, 0], [0, 0, 0], [0, 0, 2]])
    code, out, err = run_cli(capsys, "classify3", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "R3"
    assert doc["shape"] == "ellipse_plus_outside_point"


def test_boundary_command_csv(capsys, matrix_file):
    path = matrix_file("disk", [[0, 2], [0, 0]])
    code, out, err = run_cli(capsys, "boundary", path, "--samples", "64")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y"
    pts = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), 1.0, atol=1e-9)


def test_boundary_deterministic(capsys, matrix_file):
    path = matrix_file("m", np.array([[0.3, 1 + 2j, 0], [0, -0.5, 1], [0.2j, 0, 0.1]]))
    _, out1, _ = run_cli(capsys, "boundary", path, "--samples", "128")
    _, out2, _ = run_cli(capsys, "boundary", path, "--samples", "128")
    assert out1 == out2


def test_birth_command(capsys, matrix_file):
    path = matrix_file("deb", [[0, 2, 0], [0, 0, 0], [0, 0, 1]])
    code, out, err = run_cli(capsys, "birth", path, "--point", "1,0", "--eps", "0.1")
    assert code == 0
    doc = json.loads(out)
    row = doc["table"][0]
    assert row["flat_length"] == pytest.approx(0.1, abs=1e-8)
    assert row["hausdorff_to_alpha"] == pytest.approx(0.1 * np.sqrt(2), abs=1e-8)
    assert len(doc["members"]) == 1


def test_birth_simply_generated_exit3(capsys, matrix_file):
    path = matrix_file("disk", [[0, 2], [0, 0]])
    code, out, err = run_cli(capsys, "birth", path, "--point", "1,0")
    assert code == 3
    assert "simply generated" in err


def test_missing_field_exit2(capsys, tmp_path):
    p = tmp_path / "noim.json"
    p.write_text('{"d": 2, "re": [[0,2],[0,0]]}')
    code, out, err = run_cli(capsys, "classify3", str(p))
    assert code == 2
    assert "missing field 'im'" in err


def test_unknown_flag_exit1(capsys, matrix_file):
    path = matrix_file("disk", [[0, 2], [0, 0]])
    code, out, err = run_cli(capsys, "boundary", path, "--bogus")
    assert code == 1
    assert "usage" in err.lower()


# each subcommand takes only the options it reads: --samples where an angle
# grid is scanned, --seed where --n points are sampled
SAMPLES_COMMANDS = ("boundary", "extremes", "flat", "oracle")
SEED_COMMANDS = ("oracle",)
POINT_COMMANDS = ("preimage", "birth", "maxent", "probe")
ONE_MATRIX_COMMANDS = (
    "boundary", "extremes", "preimage", "flat", "birth", "classify3",
    "canonical3", "closure3", "maxent", "probe", "oracle",
)
REMOVED_OPTIONS = [(c, "--samples") for c in ONE_MATRIX_COMMANDS if c not in SAMPLES_COMMANDS] + [
    (c, "--seed") for c in ONE_MATRIX_COMMANDS if c not in SEED_COMMANDS
]


@pytest.mark.parametrize("command, flag", REMOVED_OPTIONS)
def test_removed_options_are_usage_errors(capsys, matrix_file, command, flag):
    path = matrix_file("deb", DISK_EIG_BOUNDARY)
    point = ["--point", "1,0"] if command in POINT_COMMANDS else []
    code, out, err = run_cli(capsys, command, path, *point, flag, "7")
    assert code == 1
    assert out == ""
    assert "usage" in err.lower()
    assert f"unrecognized arguments: {flag} 7" in err


@pytest.mark.parametrize(
    "command, flag", [(c, "--samples") for c in SAMPLES_COMMANDS] + [(c, "--seed") for c in SEED_COMMANDS]
)
def test_kept_options_parse(command, flag):
    args = cli._build_parser().parse_args([command, "m.json", flag, "7"])
    assert getattr(args, flag[2:]) == 7


def test_extremes_and_preimage_commands(capsys, matrix_file):
    path = matrix_file("deb", [[0, 2, 0], [0, 0, 0], [0, 0, 1]])
    code, out, _ = run_cli(capsys, "preimage", path, "--point", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 2
    code, out, _ = run_cli(capsys, "extremes", path, "--samples", "128")
    assert code == 0
    reports = json.loads(out)
    mg = [r for r in reports if r["multiply_generated"]]
    assert len(mg) == 1
    assert np.allclose(mg[0]["point"], [1.0, 0.0], atol=1e-9)


def test_negative_option_values(capsys, matrix_file):
    # a value starting with '-' after --point/--eps is a value, not an option
    # (argparse reads '-0.1' as a value by itself, but not '-1,0')
    path = matrix_file("disk", [[0, 2], [0, 0]])
    code, out, err = run_cli(capsys, "preimage", path, "--point", "-1,0")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["point"] == [-1.0, 0.0]
    assert doc["dimension"] == 1
    # parsed, then refused by the library (eps must be positive): exit 3, not 1
    deb = matrix_file("deb", [[0, 2, 0], [0, 0, 0], [0, 0, 1]])
    code, _, err = run_cli(capsys, "birth", deb, "--point", "1,0", "--eps", "-0.1")
    assert code == 3, err
    assert "positive" in err


@pytest.mark.parametrize("eps", ["-0.01", "0", "0.01,-1", "nan"])
def test_closure3_refuses_non_positive_eps(capsys, matrix_file, eps):
    # refused before any witness is built, not read as "not in the closure"
    deb = matrix_file("deb", [[0, 2, 0], [0, 0, 0], [0, 0, 1]])
    code, out, err = run_cli(capsys, "closure3", deb, f"--eps={eps}")
    assert code == 3, out
    assert out == ""
    assert "positive" in err


@pytest.mark.parametrize("cmd", ["preimage", "maxent", "probe", "birth"])
@pytest.mark.parametrize("point", ["nan,0", "0,nan", "inf,0", "0,-inf"])
def test_non_finite_points_are_refused(capsys, matrix_file, cmd, point):
    deb = matrix_file("deb", [[0, 2, 0], [0, 0, 0], [0, 0, 1]])
    code, out, err = run_cli(capsys, cmd, deb, f"--point={point}")
    assert code == 3, out
    assert out == ""
    assert "finite" in err


def test_flat_command(capsys, matrix_file):
    path = matrix_file("cp", [[0, 2, 0], [0, 0, 0], [0, 0, 2]])
    code, out, _ = run_cli(capsys, "flat", path)
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 2
    assert doc[0]["theta"] == pytest.approx(np.pi / 3, abs=1e-9)


def test_closure3_command(capsys, matrix_file):
    path = matrix_file("a1", [[0, 2, 0], [0, 0, 0], [0, 0, 1]])
    code, out, _ = run_cli(capsys, "closure3", path, "--eps", "0.01")
    assert code == 0
    doc = json.loads(out)
    assert doc["in_closure_E3"] and doc["in_closure_F3"]
    assert doc["e3_witness"] is not None and doc["f3_witness"] is not None
    path = matrix_file("a05", [[0, 2, 0], [0, 0, 0], [0, 0, 0.5]])
    code, out, _ = run_cli(capsys, "closure3", path, "--eps", "0.01")
    doc = json.loads(out)
    assert doc["in_closure_E3"] and not doc["in_closure_F3"]
    assert doc["f3_witness"] is None


def test_closure3_classifies_the_matrix_once(capsys, matrix_file, monkeypatch):
    eps = [0.01, 0.001]
    for a in (0.5, 1.0, 2.0):
        A = np.array([[0, 2, 0], [0, 0, 0], [0, 0, a]], dtype=complex)
        path = matrix_file(f"a{a}", A)
        with monkeypatch.context() as m:
            classified, canonical = [], []
            classify, canonical_form = kipp3.classify, kipp3.canonical_reducible_form

            def counting_classify(B, *args, **kwargs):
                classified.append(np.array_equal(B, A))
                return classify(B, *args, **kwargs)

            def counting_canonical(B, *args, **kwargs):
                canonical.append(np.array_equal(B, A))
                return canonical_form(B, *args, **kwargs)

            m.setattr(kipp3, "classify", counting_classify)
            m.setattr(kipp3, "canonical_reducible_form", counting_canonical)
            code, out, _ = run_cli(capsys, "closure3", path, "--eps", "0.01,0.001")
        assert code == 0
        doc = json.loads(out)
        witnesses = sum(doc[key] is not None for key in ("e3_witness", "f3_witness")) * len(eps)
        # A once; every witness matrix once more
        assert classified.count(True) == 1
        assert classified.count(False) == witnesses
        assert canonical == [True]

        def public(fn):
            try:
                return [cli.matrix_dict(fn(A, e)) for e in eps]
            except PreconditionError:
                return None

        want = {
            "in_closure_E3": kipp3.in_closure_E3(A),
            "in_closure_F3": kipp3.in_closure_F3(A),
            "e3_witness": public(kipp3.e3_witness),
            "f3_witness": public(kipp3.f3_witness),
        }
        assert out == json.dumps(want, indent=2) + "\n"


def test_canonical3_command(capsys, matrix_file):
    path = matrix_file("seg", np.diag([1.0, 3.0, 5.0]))
    code, out, _ = run_cli(capsys, "canonical3", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["form"] == "diag_0_lambda_1"
    assert doc["lambda"] == pytest.approx(0.5)


def test_hausdorff_command(capsys, matrix_file):
    pa = matrix_file("d1", [[0, 2], [0, 0]])
    pb = matrix_file("d2", [[0, 4], [0, 0]])
    code, out, _ = run_cli(capsys, "hausdorff", pa, pb)
    assert code == 0
    assert json.loads(out)["hausdorff"] == pytest.approx(1.0, abs=1e-4)


def test_maxent_and_probe_commands(capsys, matrix_file):
    path = matrix_file("deb", [[0, 2, 0], [0, 0, 0], [0, 0, 1]])
    code, out, _ = run_cli(capsys, "maxent", path, "--point", "0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["entropy"] >= np.log(2) - 1e-9
    assert doc["dual_point"] is not None
    code, out, _ = run_cli(capsys, "maxent", path, "--point", "1,0")
    doc = json.loads(out)
    assert doc["entropy"] == pytest.approx(np.log(2), abs=1e-6)
    assert doc["dual_point"] is None
    code, out, _ = run_cli(capsys, "probe", path, "--point", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["discontinuous"] is True
    assert doc["boundary_limit"] <= 1e-3


def test_probe_exit3_on_simply_generated(capsys, matrix_file):
    path = matrix_file("disk", [[0, 2], [0, 0]])
    code, out, err = run_cli(capsys, "probe", path, "--point", "1,0")
    assert code == 3
    assert "simply generated" in err


def test_numerical_failure_exit4(capsys, matrix_file, monkeypatch):
    def fail(*args, **kwargs):
        raise NumericalError("flat-portion scan and rank-one criterion disagree")

    monkeypatch.setattr(kipp3, "classify", fail)
    path = matrix_file("cp", [[0, 2, 0], [0, 0, 0], [0, 0, 2]])
    code, out, err = run_cli(capsys, "classify3", path)
    assert code == 4
    assert out == ""
    assert err == "flat-portion scan and rank-one criterion disagree\n"


def test_oracle_command(capsys, matrix_file):
    path = matrix_file("disk", [[0, 2], [0, 0]])
    code, out, _ = run_cli(capsys, "oracle", path, "--n", "20000", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["gap"] <= 2e-2
    _, out2, _ = run_cli(capsys, "oracle", path, "--n", "20000", "--seed", "3")
    assert out == out2  # byte-identical for identical inputs


def test_matrix_dict_roundtrip_through_json():
    A = np.array([[1 / 3, 0.1 + 0.7j], [np.pi, -1e-17j]], dtype=complex)
    doc = json.loads(json.dumps(cli.matrix_dict(A)))
    B = np.asarray(doc["re"]) + 1j * np.asarray(doc["im"])
    assert np.array_equal(A, B)


def test_parser_built_once_per_process(capsys, matrix_file, monkeypatch):
    disk = matrix_file("disk", [[0, 2], [0, 0]])
    tri = matrix_file("tri", np.diag([0.0, 1.0, 1.0j]))
    calls = [
        ("boundary", disk, "--bogus"),  # usage error first
        ("hausdorff", disk, tri, "--samples", "256"),
        ("classify3", tri),
    ]
    monkeypatch.setattr(cli, "_PARSER", None)
    cached = [run_cli(capsys, *argv) for argv in calls]
    parser = cli._PARSER
    assert parser is not None
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run_cli(capsys, *argv))
    assert [c[0] for c in cached] == [1, 0, 0]
    assert [(c[0], c[1]) for c in cached] == [(f[0], f[1]) for f in fresh]
    assert cached[0][2] == fresh[0][2]  # the same usage message
    monkeypatch.setattr(cli, "_PARSER", parser)
    run_cli(capsys, *calls[2])
    assert cli._PARSER is parser  # reused, not rebuilt


def plain(o):
    """The JSON value the CLI writer encodes: arrays as nested lists and
    complex numbers as [re, im] pairs."""
    if isinstance(o, np.ndarray):
        return (np.stack((o.real, o.imag), axis=-1) if o.dtype.kind == "c" else o).tolist()
    if isinstance(o, complex):
        return [o.real, o.imag]
    if isinstance(o, dict):
        return {k: plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [plain(v) for v in o]
    return o


_floats = st.floats() | st.sampled_from([1e-05, 1e16, 1.5e-310, 5e-324, -0.0, math.nan, math.inf, -math.inf])
_shapes = (
    st.sampled_from([(0,), (2,)])
    | st.integers(0, 6).map(lambda n: (n, 2))
    | st.tuples(st.integers(1, 3), st.integers(1, 4)).map(lambda kd: (*kd, 2))
)
_arrays = st.one_of(
    _shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=_floats)),
    _shapes.flatmap(lambda shape: hnp.arrays(np.complex128, shape[:-1] or shape, elements=st.complex_numbers())),
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**100), 2**100),
    _floats,
    _floats.map(np.float64),
    st.complex_numbers(),
    st.text(),
    _arrays,
)
_docs = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=24,
)


@settings(deadline=None, database=None)
@given(_docs)
def test_writer_matches_json_dumps(doc):
    assert cli._dumps(doc) == json.dumps(plain(doc), indent=2)


def old_extremes_doc(reports):
    """The extremes document as the CLI built it for json.dump."""
    return [
        {
            "point": [r.point.real, r.point.imag],
            "kind": r.kind,
            "multiply_generated": r.multiply_generated,
            "preimage_dimension": r.preimage.shape[1],
            "preimage": [[[z.real, z.imag] for z in column] for column in r.preimage.T.tolist()],
            "normal_arc": [r.normal_arc[0], r.normal_arc[1]],
        }
        for r in reports
    ]


ONE_BY_ONE = np.array([[0.5 - 0.25j]])


@pytest.mark.parametrize(
    "name, A, samples",
    [
        ("deb", DISK_EIG_BOUNDARY, 256),  # pre-images of dimension 1 and 2
        ("disk2", DISK2, 128),  # every pre-image of dimension 2
        ("cp", CIRCLE_POINT, 256),
        ("one", ONE_BY_ONE, 64),
    ],
)
def test_extremes_output_is_the_json_of_the_reports(capsys, matrix_file, name, A, samples):
    path = matrix_file(name, A)
    code, out, _ = run_cli(capsys, "extremes", path, "--samples", str(samples))
    assert code == 0
    reports = extremal.extreme_points(A, samples)
    assert out == json.dumps(old_extremes_doc(reports), indent=2) + "\n"
    if name == "deb":
        assert {r.preimage.shape[1] for r in reports} == {1, 2}


@pytest.mark.parametrize(
    "argv",
    [
        # extremes: test_extremes_output_is_the_json_of_the_reports
        ("preimage", "deb", "--point", "1,0"),
        ("preimage", "one", "--point", "0.5,-0.25"),
        ("flat", "cp"),
        ("flat", "triangle"),
        ("flat", "disk"),  # prints []
        ("birth", "deb", "--point", "1,0", "--eps", "0.1,0.01"),
        ("classify3", "cp"),
        ("classify3", "jordan3"),
        ("classify3", "triangle"),
        ("canonical3", "segment"),
        ("canonical3", "cp"),
        ("closure3", "deb", "--eps", "0.01,0.001"),
        ("hausdorff", "disk", "disk2", "--samples", "256"),
        ("maxent", "deb", "--point", "0,0"),
        ("maxent", "deb", "--point", "1,0"),
        ("probe", "deb", "--point", "1,0"),
        ("oracle", "cp", "--n", "5000", "--seed", "3"),
    ],
)
def test_json_output_is_canonical(capsys, matrix_file, argv):
    fixtures = {
        "deb": DISK_EIG_BOUNDARY,
        "disk2": DISK2,
        "one": ONE_BY_ONE,
        "cp": CIRCLE_POINT,
        "triangle": TRIANGLE,
        "disk": DISK,
        "jordan3": JORDAN3,
        "segment": SEGMENT,
    }
    code, out, err = run_cli(capsys, *(matrix_file(a, fixtures[a]) if a in fixtures else a for a in argv))
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    if argv == ("flat", "disk"):
        assert out == "[]\n"


@pytest.mark.parametrize("A, samples", [(CIRCLE_POINT, 4096), (DISK2, 256), (ONE_BY_ONE, 64)])
def test_boundary_output_is_the_per_vertex_rendering(capsys, matrix_file, A, samples):
    path = matrix_file("m", A)
    code, out, _ = run_cli(capsys, "boundary", path, "--samples", str(samples))
    assert code == 0
    want = "x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in rg.boundary_polygon(A, samples).vertices)
    assert out == want
