"""Magnetic fields, gauge potentials, and lattice link phases.

Field strength convention: the antisymmetric matrix with entries
``B[k, j] = d a_k / d x_j - d a_j / d x_k`` for a gauge potential ``a``.
In 2D a scalar strength ``b`` means ``B[0, 1] = -b`` and ``B[1, 0] = +b``,
so the phase picked up around a positively oriented lattice plaquette of
side h is ``b * h**2``.

Supported fields:

* ``constant``      uniform strength b, symmetric gauge ``(b/2) * (-y, x)``,
* ``radial_decay``  strength ``b0 * (1 + r**2) ** (-p/2)``,
* ``radial_growth`` strength ``b0 * (1 + r**2) ** (+p/2)``,

where r is the distance from the origin (2D) or from the third axis (3D,
where the field points along that axis; using the axial distance keeps the
field divergence-free, which a vector potential requires).  Radial fields use
the azimuthal gauge ``A(x) = f(r) * (-x2, x1, 0)`` with
``f(r) = integral_0^1 s * strength(s * r) ds``, evaluated in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("constant", "radial_decay", "radial_growth")

# 4-point Gauss-Legendre rule mapped to [0, 1]
_GL_X, _GL_W = np.polynomial.legendre.leggauss(4)
_GL_T = 0.5 * (_GL_X + 1.0)
_GL_W = 0.5 * _GL_W


# ── Field specification ────────────────────────────────────────────────────


@dataclass(frozen=True)
class FieldSpec:
    """One magnetic field: kind, dimension, and strength parameters."""

    kind: str
    dimension: int
    b: float = 0.0
    b0: float = 0.0
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"field kind must be one of {KINDS}, got {self.kind!r}")
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")
        if self.kind != "constant":
            if self.b0 < 0:
                raise ValueError(f"radial field scale b0 must be nonnegative, got {self.b0}")
            if not self.p > 0:
                raise ValueError(f"radial field power p must be positive, got {self.p}")

    @staticmethod
    def constant(b, dimension=2):
        return FieldSpec("constant", dimension, b=float(b))

    @staticmethod
    def radial_decay(b0, p, dimension=2):
        return FieldSpec("radial_decay", dimension, b0=float(b0), p=float(p))

    @staticmethod
    def radial_growth(b0, p, dimension=2):
        return FieldSpec("radial_growth", dimension, b0=float(b0), p=float(p))

    def strength(self, x):
        """Signed scalar strength at points x (shape (..., d))."""
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(np.float64(self.b), x.shape[:-1]).copy()
        r2 = _axial_r2(x)
        expo = -0.5 * self.p if self.kind == "radial_decay" else 0.5 * self.p
        return self.b0 * (1.0 + r2) ** expo

    def limit_strength(self):
        """Strength in the limit |x| -> infinity (inf for growing fields)."""
        if self.kind == "constant":
            return abs(self.b)
        if self.kind == "radial_decay":
            return 0.0
        return float("inf")


def _axial_r2(x):
    """Squared distance from the origin (2D) or from the third axis (3D)."""
    return x[..., 0] ** 2 + x[..., 1] ** 2


def _azimuthal_profile(spec, r2):
    """f(r) with A = f(r) * (-x2, x1, 0): f(r) = int_0^1 s * strength(s r) ds.

    Closed form: with u = r**2 and alpha = (2 -+ p) / 2,
    f = b0 * ((1 + u)**alpha - 1) / (2 * alpha * u), continued by b0/2 at u=0
    and by b0 * log1p(u) / (2u) when alpha = 0 (decay with p = 2).
    """
    u = np.asarray(r2, dtype=float)
    if spec.kind == "radial_decay":
        alpha = (2.0 - spec.p) / 2.0
    else:
        alpha = (2.0 + spec.p) / 2.0
    out = np.empty_like(u)
    small = u < 1e-14
    out[small] = 0.5
    us = u[~small]
    if alpha == 0.0:
        out[~small] = np.log1p(us) / (2.0 * us)
    else:
        out[~small] = np.expm1(alpha * np.log1p(us)) / (2.0 * alpha * us)
    return spec.b0 * out


# ── Gauge potential and strength matrix ────────────────────────────────────


def vector_potential(field, x):
    """Gauge potential A at points x; shape (..., d) -> (..., d).

    Constant fields use the symmetric gauge, radial fields the azimuthal
    gauge; both vanish at the origin.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != field.dimension:
        raise ValueError(f"points have {x.shape[-1]} components, field has dimension {field.dimension}")
    if field.kind == "constant":
        f = 0.5 * field.b
    else:
        f = _azimuthal_profile(field, _axial_r2(x))
    a = np.zeros_like(x)
    a[..., 0] = -f * x[..., 1]
    a[..., 1] = f * x[..., 0]
    return a


def field_matrix(field, x):
    """Antisymmetric strength matrix B[k, j] at points x; (..., d) -> (..., d, d).

    Exact derivative of vector_potential: for the azimuthal gauge the only
    independent entry is B[1, 0] = 2 f(r) + r f'(r), which telescopes back to
    the pointwise strength.
    """
    x = np.asarray(x, dtype=float)
    d = field.dimension
    if x.shape[-1] != d:
        raise ValueError(f"points have {x.shape[-1]} components, field has dimension {d}")
    s = field.strength(x)
    mat = np.zeros(x.shape[:-1] + (d, d))
    mat[..., 0, 1] = -s
    mat[..., 1, 0] = s
    return mat


# ── Link phases ────────────────────────────────────────────────────────────


def link_phase(field, start, axis, h):
    """Line integral of A along the edge start -> start + h * e_axis.

    Closed form (midpoint) for constant fields, where A is linear; 4-point
    Gauss-Legendre otherwise.  Reversing the edge negates the phase.
    """
    start = np.asarray(start, dtype=float)
    if start.shape[-1] != field.dimension:
        raise ValueError(f"points have {start.shape[-1]} components, field has dimension {field.dimension}")
    if axis < 0 or axis >= field.dimension:
        raise ValueError(f"axis {axis} out of range for dimension {field.dimension}")
    if field.kind == "constant":
        mid = start.copy()
        mid[..., axis] += 0.5 * h
        return vector_potential(field, mid)[..., axis] * h
    acc = 0.0
    for t, w in zip(_GL_T, _GL_W):
        pt = start.copy()
        pt[..., axis] += t * h
        acc = acc + w * vector_potential(field, pt)[..., axis]
    return acc * h


@dataclass
class LinkPhases:
    """Phases for every kept lattice edge, aligned with grid.edges.

    theta[axis][k] is the phase of the edge grid.edges[axis][0][k] ->
    grid.edges[axis][1][k], oriented along the positive axis.
    """

    grid: object
    field: FieldSpec
    theta: list

    def shifted(self, chi):
        """Gauge transform: theta' = theta + chi[head] - chi[tail] per edge."""
        chi = np.asarray(chi, dtype=float)
        if chi.shape != (self.grid.n_nodes,):
            raise ValueError("chi must assign one real number per grid node")
        theta = []
        for a, (i_idx, j_idx) in enumerate(self.grid.edges):
            theta.append(self.theta[a] + chi[j_idx] - chi[i_idx])
        return LinkPhases(self.grid, self.field, theta)


def link_phases(grid, field):
    """Compute Peierls phases for all kept edges of a masked grid."""
    if field.dimension != grid.dimension:
        raise ValueError(f"field dimension {field.dimension} != grid dimension {grid.dimension}")
    pos = grid.positions
    theta = []
    for a, (i_idx, _) in enumerate(grid.edges):
        theta.append(np.asarray(link_phase(field, pos[i_idx], a, grid.h)))
    return LinkPhases(grid, field, theta)


def plaquette_sums(grid, phases, plane=(0, 1)):
    """Oriented phase sums around all complete unit plaquettes in a plane.

    Returns (corner_nodes, sums): for each lattice square whose four corners
    and four edges are all kept, the sum  theta_bottom + theta_right -
    theta_top - theta_left,  which discretely represents the magnetic flux
    through the square.
    """
    if phases.grid is not grid:
        raise ValueError("phases were built for a different grid")
    a, b = plane
    # per node, the position in grid.edges[axis] of the edge that starts
    # there, or -1
    first = []
    for ax in (a, b):
        i_idx, _ = grid.edges[ax]
        pos = np.full(grid.n_nodes, -1, dtype=np.int64)
        pos[i_idx] = np.arange(len(i_idx))
        first.append(pos)
    first_a, first_b = first
    corners = np.nonzero((first_a >= 0) & (first_b >= 0))[0]
    bottom, left = first_a[corners], first_b[corners]
    # the other two edges: along b from the right corner, along a from the
    # upper corner
    right = first_b[grid.edges[a][1][bottom]]
    top = first_a[grid.edges[b][1][left]]
    ok = (right >= 0) & (top >= 0)
    theta_a, theta_b = phases.theta[a], phases.theta[b]
    sums = (theta_a[bottom[ok]] + theta_b[right[ok]] - theta_a[top[ok]]
            - theta_b[left[ok]])
    return corners[ok], sums
