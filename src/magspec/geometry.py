"""Masked uniform lattices over truncated exterior domains.

A computational domain is a truncation window (box or disk, centered at the
origin) minus nothing: every lattice node strictly inside the window is kept,
and each node is tagged as belonging either to the exterior region ("omega")
or to the compact obstacle ("obstacle").  The window boundary itself carries a
Dirichlet condition realized by node exclusion, so the node set contains only
strict-interior lattice points q*h.

Faces separate a kept node from a differently-tagged neighbor:

* inner faces sit between an omega node and an obstacle node; their normal
  points from the exterior region into the obstacle,
* outer faces sit between a kept node and an excluded position beyond the
  truncation window.

Node order is lexicographic in the integer coordinates, which makes every
derived structure (edges, faces, assembled operators) reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

OMEGA = 0
OBSTACLE = 1

TRUNCATION_SHAPES = ("box", "disk")


# ── Domain description ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class DiskObstacle:
    """Closed ball: points with |x - center| <= radius."""

    kind = "disk"
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if not self.radius > 0:
            raise ValueError(f"disk obstacle radius must be positive, got {self.radius}")

    def contains(self, pos):
        d2 = np.sum((pos - np.asarray(self.center)) ** 2, axis=-1)
        return d2 <= self.radius**2

    def thickness(self):
        return 2.0 * self.radius

    def axis_extent(self):
        c = np.asarray(self.center)
        return np.abs(c) + self.radius

    def outer_norm(self):
        return float(np.linalg.norm(self.center)) + self.radius


@dataclass(frozen=True)
class BoxObstacle:
    """Closed axis-aligned box: |x_a - center_a| <= halfwidths_a for all a."""

    kind = "box"
    center: tuple
    halfwidths: tuple

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "halfwidths", tuple(float(w) for w in self.halfwidths))
        if len(self.center) != len(self.halfwidths):
            raise ValueError("obstacle center and halfwidths must have equal length")
        if not all(w > 0 for w in self.halfwidths):
            raise ValueError(f"box obstacle halfwidths must be positive, got {self.halfwidths}")

    def contains(self, pos):
        off = np.abs(pos - np.asarray(self.center))
        return np.all(off <= np.asarray(self.halfwidths), axis=-1)

    def thickness(self):
        return 2.0 * min(self.halfwidths)

    def axis_extent(self):
        return np.abs(np.asarray(self.center)) + np.asarray(self.halfwidths)

    def outer_norm(self):
        c = np.asarray(self.center)
        w = np.asarray(self.halfwidths)
        return float(np.linalg.norm(np.abs(c) + w))


OBSTACLE_KINDS = ("none", DiskObstacle.kind, BoxObstacle.kind)


@dataclass(frozen=True)
class DomainSpec:
    """Truncated exterior domain: window of half-width R minus an optional obstacle.

    dimension        2 or 3
    truncation_radius  half-width (box) or radius (disk) of the Dirichlet window
    truncation_shape   "box" or "disk"
    obstacle         DiskObstacle, BoxObstacle, or None
    """

    dimension: int
    truncation_radius: float
    truncation_shape: str = "box"
    obstacle: object = None

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")
        if not self.truncation_radius > 0:
            raise ValueError(f"truncation_radius must be positive, got {self.truncation_radius}")
        if self.truncation_shape not in TRUNCATION_SHAPES:
            raise ValueError(f"truncation_shape must be 'box' or 'disk', got {self.truncation_shape!r}")
        if self.obstacle is not None:
            if not isinstance(self.obstacle, (DiskObstacle, BoxObstacle)):
                raise ValueError(f"unsupported obstacle type {type(self.obstacle).__name__}")
            n = len(self.obstacle.center)
            if n != self.dimension:
                raise ValueError(f"obstacle center has {n} components for dimension {self.dimension}")

    def clearance(self):
        """Distance from the obstacle to the truncation boundary (inf if no obstacle)."""
        if self.obstacle is None:
            return float("inf")
        R = self.truncation_radius
        if self.truncation_shape == "box":
            return float(np.min(R - self.obstacle.axis_extent()))
        return R - self.obstacle.outer_norm()


# ── Grid construction ──────────────────────────────────────────────────────


@dataclass
class FaceSet:
    """Arrays describing one family of faces, aligned index-for-index."""

    node: np.ndarray        # region-side node (omega side for inner faces)
    axis: np.ndarray        # lattice axis of the face normal
    sign: np.ndarray        # +1/-1: neighbor sits at node + sign*e_axis
    neighbor: np.ndarray = None   # obstacle-side node (inner faces only)
    edge_pos: np.ndarray = None   # index into grid.edges[axis] (inner faces only)

    def __len__(self):
        return len(self.node)


@dataclass
class MaskedGrid:
    """Lattice nodes strictly inside the truncation window, tagged by region.

    coords   (n, d) integer lattice coordinates, lexicographic order
    region   (n,) uint8 tags, OMEGA or OBSTACLE
    edges    per axis, (i, j) index arrays for kept adjacent pairs j = i + e_axis
    """

    spec: DomainSpec
    h: float
    coords: np.ndarray
    region: np.ndarray
    edges: list
    inner_faces: FaceSet
    outer_faces: FaceSet
    _index: np.ndarray = field(repr=False, default=None)
    _origin: np.ndarray = field(repr=False, default=None)

    @property
    def dimension(self):
        return self.spec.dimension

    @property
    def n_nodes(self):
        return self.coords.shape[0]

    @property
    def n_omega(self):
        return int(np.sum(self.region == OMEGA))

    @property
    def n_obstacle(self):
        return int(np.sum(self.region == OBSTACLE))

    @property
    def positions(self):
        return self.coords * self.h

    def node_at(self, coord):
        """Row index of the node with the given integer coordinates, or -1;
        an (m, d) array of coordinates gives an array of m indices."""
        q = np.asarray(coord, dtype=np.int64) - self._origin
        inside = np.all((q >= 0) & (q < np.array(self._index.shape)), axis=-1)
        q = np.where(inside[..., None], q, 0)
        idx = np.where(inside, self._index[tuple(np.moveaxis(q, -1, 0))], -1)
        return int(idx) if idx.ndim == 0 else idx

    def n_edges(self):
        return sum(len(i) for i, _ in self.edges)


def _window_mask(spec, pos):
    if spec.truncation_shape == "box":
        return np.all(np.abs(pos) < spec.truncation_radius, axis=-1)
    return np.sum(pos**2, axis=-1) < spec.truncation_radius**2


def build_grid(spec, h):
    """Build the masked lattice for a domain at spacing h.

    Rejects spacings that leave the obstacle thinner than two cells and
    obstacles that come within two cells of the truncation boundary, since
    either makes the staircase boundary meaningless.
    """
    if not isinstance(spec, DomainSpec):
        raise TypeError("spec must be a DomainSpec")
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"grid spacing must be positive and finite, got {h}")
    if spec.obstacle is not None:
        if spec.obstacle.thickness() < 2.0 * h:
            raise ValueError(
                f"grid spacing h={h} too coarse: obstacle thickness "
                f"{spec.obstacle.thickness()} spans fewer than two cells"
            )
        clear = spec.clearance()
        if clear < 2.0 * h:
            raise ValueError(
                f"obstacle too close to the truncation boundary: clearance {clear} "
                f"is below two cells (2h = {2 * h})"
            )

    d = spec.dimension
    # widest integer coordinate that can fall strictly inside the window
    qmax = int(np.ceil(spec.truncation_radius / h))
    axes = [np.arange(-qmax, qmax + 1, dtype=np.int64) for _ in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords_full = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    inside = _window_mask(spec, coords_full * h)
    if not np.any(inside):
        raise ValueError(f"no lattice node lies strictly inside the truncation window (h={h})")

    shape = tuple(len(a) for a in axes)
    index = np.full(shape, -1, dtype=np.int64)
    flat_ids = np.nonzero(inside.reshape(shape))
    n = len(flat_ids[0])
    index[flat_ids] = np.arange(n)       # C-order scan = lexicographic node order
    coords = coords_full[inside]
    origin = np.array([-qmax] * d, dtype=np.int64)

    region = np.zeros(n, dtype=np.uint8)
    if spec.obstacle is not None:
        region[spec.obstacle.contains(coords * h)] = OBSTACLE

    # edges: kept adjacent pairs along each positive axis direction
    edges = []
    for a in range(d):
        lo = [slice(None)] * d
        hi = [slice(None)] * d
        lo[a] = slice(None, -1)
        hi[a] = slice(1, None)
        i_idx = index[tuple(lo)].reshape(-1)
        j_idx = index[tuple(hi)].reshape(-1)
        keep = (i_idx >= 0) & (j_idx >= 0)
        edges.append((i_idx[keep], j_idx[keep]))

    inner_faces = _collect_inner_faces(region, edges, d)
    outer_faces = _collect_outer_faces(n, edges)
    return MaskedGrid(spec, float(h), coords, region, edges, inner_faces, outer_faces,
                      _index=index, _origin=origin)


def _collect_inner_faces(region, edges, d):
    node, axis, sign, neighbor, edge_pos = [], [], [], [], []
    for a in range(d):
        i_idx, j_idx = edges[a]
        ri = region[i_idx]
        rj = region[j_idx]
        cross = ri != rj
        pos = np.nonzero(cross)[0]
        i_c, j_c = i_idx[pos], j_idx[pos]
        om_first = region[i_c] == OMEGA     # obstacle neighbor on the + side
        node.append(np.where(om_first, i_c, j_c))
        neighbor.append(np.where(om_first, j_c, i_c))
        sign.append(np.where(om_first, 1, -1).astype(np.int8))
        axis.append(np.full(len(pos), a, dtype=np.int8))
        edge_pos.append(pos)
    return FaceSet(node=np.concatenate(node), axis=np.concatenate(axis),
                   sign=np.concatenate(sign), neighbor=np.concatenate(neighbor),
                   edge_pos=np.concatenate(edge_pos))


def _collect_outer_faces(n, edges):
    # every lattice point strictly inside the window is a node: a node lacks
    # its neighbour at +e_a (-e_a) when no edge along a starts (ends) there
    node, axis, sign = [], [], []
    for a, ends in enumerate(edges):
        for s, end in zip((1, -1), ends):
            lone = np.setdiff1d(np.arange(n), end, assume_unique=True)
            node.append(lone)
            axis.append(np.full(len(lone), a, dtype=np.int8))
            sign.append(np.full(len(lone), s, dtype=np.int8))
    node = np.concatenate(node)
    axis = np.concatenate(axis)
    sign = np.concatenate(sign)
    order = np.lexsort((sign, axis, node))
    return FaceSet(node=node[order], axis=axis[order], sign=sign[order])


# ── Boundary measure ───────────────────────────────────────────────────────


def boundary_measure(grid, which="inner"):
    """Staircase surface measure: face count times h^(d-1).

    The inner measure converges to the taxicab perimeter of the obstacle
    (8r for a disk of radius r in 2D), not the Euclidean one; an axis-aligned
    box whose sides bisect lattice cells is measured exactly.
    """
    if which == "inner":
        count = len(grid.inner_faces)
    elif which == "outer":
        count = len(grid.outer_faces)
    else:
        raise ValueError(f"which must be 'inner' or 'outer', got {which!r}")
    return count * grid.h ** (grid.dimension - 1)
