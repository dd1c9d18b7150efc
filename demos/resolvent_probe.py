"""Low-rank structure of the resolvent difference across a boundary.

Cutting the plane along an obstacle rim and imposing Robin data on both
sides changes the operator only on a lower-dimensional set, so the
difference of shifted inverses should be numerically low rank, and the
discrete boundary-pairing identity behind that claim must tighten as the
mesh is refined.  Both effects are shown at two resolutions.
"""

import numpy as np

from magspec.assembly import assemble, direct_sum
from magspec.fields import FieldSpec, link_phases
from magspec.geometry import BoxObstacle, DomainSpec, build_grid
from magspec.probes import (boundary_identity_check, hermitian_shift,
                            resolvent_difference_svd)

# ── Full plane vs split (outside + inside, Robin data on the rim) ──────────

field = FieldSpec.constant(1.0, 2)
gamma = 0.5
pieces = {}
for h in (0.25, 0.125):
    g = build_grid(DomainSpec(2, 3.0, "box",
                              BoxObstacle((0.0, 0.0), (1.0, 1.0))), h)
    ph = link_phases(g, field)
    full = assemble(g, ph, "full")
    split = direct_sum(assemble(g, ph, "omega", gamma=gamma),
                       assemble(g, ph, "obstacle", gamma=gamma))
    pieces[h] = (g, ph, full, split)
    print(f"h = {h}: {full.n} nodes")

shift = hermitian_shift(pieces[0.25][2], pieces[0.25][3])
print(f"shared positivity shift c = {shift:.3f}\n")

# ── Singular values of the resolvent difference ────────────────────────────

print("singular values of (split + c)^-1 - (full + c)^-1")
for h in (0.25, 0.125):
    sv, _ = resolvent_difference_svd(pieces[h][2], pieces[h][3],
                                     shift=shift, k=10)
    print(f"  h = {h}:  " + "  ".join(f"{s:.2e}" for s in sv))
    print(f"           sv10/sv1 = {sv[9] / sv[0]:.4f}")

# ── Boundary pairing identity under refinement ─────────────────────────────

print("\nrelative gap in the boundary pairing identity")
gaps = {}
for h in (0.25, 0.125):
    g, ph, full, split = pieces[h]
    gaps[h] = boundary_identity_check(full, split, g, ph, gamma,
                                      shift=shift, seed=5).gap
    print(f"  h = {h}: gap = {gaps[h]:.3e}")
print(f"  shrink factor {gaps[0.25] / gaps[0.125]:.2f} per halving")
