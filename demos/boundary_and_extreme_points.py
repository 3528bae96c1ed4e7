"""Boundary geometry of the circle-plus-point range.

The matrix [[0,2,0],[0,0,0],[0,0,2]] has numerical range equal to the
convex hull of the unit circle and the point 2: the two tangent segments
from the point to the circle are flat boundary portions, and the two
tangency points are extreme but NOT exposed — every supporting line
through them contains a whole segment.  This script walks the boundary
machinery over that fixture and writes the polygon to CSV:

    python demos/boundary_and_extreme_points.py [output.csv]

The CSV goes to ``circle_point_boundary.csv`` in the system temporary
directory unless an output path is given.
"""

import os
import sys
import tempfile

import numpy as np

import numrange as nr

A = np.array([[0, 2, 0], [0, 0, 0], [0, 0, 2]], dtype=complex)

print("matrix:")
print(A)

# support function = top eigenvalue of the rotated Hermitian part
for theta in (0.0, np.pi / 3, np.pi / 2):
    s = nr.support_value(A, theta)
    print(f"support at theta={theta:.4f}: {s.support:.6f} (multiplicity {s.multiplicity})")

# the two flat boundary portions, located by the eigenvalue-crossing scan
print("\nflat boundary portions:")
for fp in nr.flat_portions(A):
    a, b = fp.endpoints
    print(f"  normal angle {fp.theta:.9f}: {a:.6f} -> {b:.6f} (length {fp.length:.6f})")
print("expected normals: +-pi/3 =", np.pi / 3, "and", 5 * np.pi / 3)

# extreme points: the tangency points are non-exposed, the vertex at 2
# is exposed with a fat cone of supporting lines
reports = nr.extreme_points(A)
special = [r for r in reports if r.kind == "non-exposed"] + [
    min(reports, key=lambda r: abs(r.point - 2.0))
]
print("\nselected extreme point reports:")
for r in special:
    lo, hi = r.normal_arc
    print(
        f"  {r.point:.6f}: {r.kind}, pre-image dimension {r.preimage.shape[1]}, "
        f"supporting angles [{lo:.6f}, {hi:.6f}]"
    )

# pre-image of the vertex: the eigenvector of the normal eigenvalue 2
basis = nr.preimage(A, 2 + 0j)
print("\npre-image basis at the vertex (2, 0):")
print(np.round(basis, 6))

# inner sampled hull vs W(A), read from the support function
cloud = nr.sample_range(A, 50_000, seed=0)
gap = nr.range_gap(A, nr.hull(cloud))
print(f"\nsampling oracle: Hausdorff gap of 5e4 samples to W(A) = {gap:.2e}")

poly = nr.boundary_polygon(A, 512)
out = sys.argv[1] if len(sys.argv) > 1 else os.path.join(tempfile.gettempdir(), "circle_point_boundary.csv")
with open(out, "w") as fh:
    fh.write("x,y\n")
    for x, y in poly.vertices:
        fh.write(f"{x!r},{y!r}\n")
print(f"wrote {out} ({len(poly.vertices)} vertices)")
