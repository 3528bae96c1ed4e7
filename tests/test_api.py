"""The public surface of numrange: what it exports, what it no longer
exports, and no stale imports in its modules."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import numrange

# names deleted from the package, by module: delegates of Pencil, a
# validated eigensolver, a least-squares ellipse fit, one-line wrappers,
# helpers that only tests used, a grid helper the cell scans replaced, and
# the second normality test and private twins of the closure functions
# that the per-Pencil classification replaced, a polygon centroid the
# probe no longer needs, and the grid reader of extremal that
# Pencil._eigh_reading replaced
REMOVED = {
    "matcore": [
        "re_part",
        "im_part",
        "rotate",
        "rotate_prime",
        "rotate_stack",
        "eig_hermitian",
        "SpectralDecomposition",
        "cubic_roots",
        "char_poly_coeffs3",
        "eigvals3",
        "_null3",
        "_cross3",
    ],
    "extremal": ["cluster_tolerance", "eigencurve_derivatives", "_grid_directions", "_eig_at"],
    "oracle": ["_gaussians"],
    "rangegeo": [
        "support_value",
        "SupportSample",
        "ellipse_fit",
        "ELLIPSE_RESIDUAL_RTOL",
        "ConvexPolygon.diameter",
        "ConvexPolygon.centroid",
    ],
    "maxent": ["boundary_depth", "_interior_state", "_gibbs"],
    "kipp3": [
        "_SEGMENT_FRAME_U",
        "_is_normal_matrix",
        "_in_closure_E3",
        "_in_closure_F3",
        "_e3_witness",
        "_f3_witness",
        "_canonical_if_reducible",
    ],
}

# parameters deleted from functions that stay: the grid's eigenvector
# switch (the grid always keeps them), the faces' grid mode (grid faces are
# asked for by N), the hull's collinearity tolerance (the hull is exact),
# and the arc-edge model's eigenpairs (it reads the grid it is given)
REMOVED_PARAMETERS = {
    "extremal._edge_model": ["eig"],
    "extremal._false_position": ["fa", "fb", "seed"],
    "matcore.Pencil.grid": ["vectors"],
    "matcore.Pencil.faces": ["grid"],
    "rangegeo.convex_hull": ["collinear_tol"],
    "rangegeo.ConvexPolygon.from_points": ["collinear_tol"],
}

# names added to the public surface, by module, each recorded in CHANGES.md
ADDED = {"oracle": ["sample_hull"]}

MODULES = sorted(Path(numrange.__file__).parent.glob("*.py"))


def test_every_exported_name_resolves_once():
    assert len(numrange.__all__) == len(set(numrange.__all__))
    missing = [name for name in numrange.__all__ if not hasattr(numrange, name)]
    assert missing == []


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    mod = importlib.import_module(f"numrange.{module}")
    for name in REMOVED[module]:
        # a dotted name is an attribute of a class that stays
        *owner, attr = name.split(".")
        holder = mod
        for part in owner:
            holder = getattr(holder, part)
        assert not hasattr(holder, attr), f"numrange.{module}.{name}"
        assert not hasattr(numrange, name), f"numrange.{name}"
        assert name not in numrange.__all__


@pytest.mark.parametrize("name", sorted(REMOVED_PARAMETERS))
def test_removed_parameters_are_gone(name):
    module, *path = name.split(".")
    holder = importlib.import_module(f"numrange.{module}")
    for part in path:
        holder = getattr(holder, part)
    params = inspect.signature(holder).parameters
    assert [p for p in REMOVED_PARAMETERS[name] if p in params] == []


@pytest.mark.parametrize("module", sorted(ADDED))
def test_added_names_are_exported(module):
    mod = importlib.import_module(f"numrange.{module}")
    for name in ADDED[module]:
        assert name in numrange.__all__
        assert getattr(numrange, name) is getattr(mod, name)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a package's ``__all__``
    counts as a use of the names it lists."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\nfrom .a import b, c\n__all__ = ['c']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["b", "math"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


# the state of a Pencil's grids, read by matcore alone: every other module
# reaches the kept eigenpairs through Pencil._eigh_reading, Pencil.grid and
# Pencil.grid_faces
GRID_STATE = {"_vectors", "_tables", "_grid_eig"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "matcore.py"], ids=lambda p: p.name)
def test_only_matcore_reads_the_grid_state(path):
    tree = ast.parse(path.read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} & GRID_STATE
    assert read == set()
