"""Assembly of magnetic Schrodinger operators on masked lattices.

The assembled matrix H represents the differential operator itself, so its
entries scale like 1/h**2, and the discrete L2 pairing carries the cell
volume:  <u, v> = h**d * sum(conj(u) * v).  With that convention,

    h**d * Re(u^H H u)  =  sum_edges |u_j exp(-i theta) - u_i|^2 h^(d-2)
                         + sum_faces gamma_eff |u_node|^2 h^(d-1).

Per region:

* "omega"     exterior nodes; edges into the obstacle are dropped (natural
              boundary condition) and each inner face adds +gamma/h to the
              diagonal of its exterior-side node,
* "obstacle"  obstacle nodes with the opposite-sign term -gamma/h,
* "full"      every node, no interior boundary term,
* direct_sum  block sum of the omega and obstacle operators in full-grid
              node order.

Each node has 2d neighbour slots, and each slot adds 1/h**2 to its
diagonal: an edge to a kept neighbour, and equally a neighbour beyond the
truncation window, treated as zero (Dirichlet window).  With
boundary="dirichlet" an edge into the other region counts the same way;
under Robin data it is not a slot, and the inner face adds the gamma term
instead.  The diagonal is therefore table[slots] plus the face terms, where
table[k] is the running sum of k copies of 1/h**2: k additions in sequence
round differently from the product k/h**2 (in 3-D at h = 0.3, 6/h**2 is one
unit in the last place off), and the sequence is what edge-by-edge
assembly gives.

Hermiticity is exact by construction: each unordered node pair is assembled
once and mirrored by complex conjugation; the diagonal is assembled real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import OMEGA, OBSTACLE

REGIONS = ("omega", "obstacle", "full")
BOUNDARIES = ("robin", "dirichlet")


@dataclass
class HermitianOperator:
    """Assembled Hermitian operator with its grid bookkeeping.

    mat    csr_matrix, complex128, exactly Hermitian
    nodes  row -> grid node index (identity for full-grid operators)
    meta   h, dimension, gamma, boundary, field, domain of an assembled
           operator; direct_sum refuses summands that differ in the first
           four

    rotation  row -> row of its node turned by x -> (-x2, x1) in the plane
              of axes 0 and 1, or None; assemble records it when the region
              is closed under the turn, and eigs_window solves one rotation
              sector at a time when H commutes with it.

    An operator is not modified after assembly: build a new one
    (dataclasses.replace, from_matrix) instead of rebinding or editing mat.
    One copy rule holds: dataclasses.replace keeps rotation, which
    _rotation_sectors refuses unless it has n rows and commutes with mat,
    and drops the two caches; from_matrix and direct_sum have no rotation.
    Equality ignores all three:

    _lu      on the split operator of a resolvent probe pair: the sparse
             LU of H + cI for the last shift c the probes used, with the
             rows S and the |S| x |S| core M of the exact update to the full
             operator it was last probed against (probes module docstring);
             pickling drops it.
    _ledger  filled by eigensolve on first use: the Gershgorin bounds of H,
             max|diag H|, and every inertia count taken on H, with the first
             pair of counts found out of order, which no later result built
             on H outlives.
    """

    mat: object
    nodes: np.ndarray
    region: str
    meta: dict = field(default_factory=dict)
    rotation: np.ndarray | None = field(default=None, kw_only=True,
                                        repr=False, compare=False)
    _lu: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _ledger: object = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "_lu": None}   # an LU cannot be pickled

    @property
    def n(self):
        return self.mat.shape[0]

    def dense(self):
        return self.mat.toarray()

    @staticmethod
    def from_matrix(mat):
        """Wrap an explicit Hermitian matrix as a full-grid operator."""
        m = sp.csr_matrix(mat, dtype=complex)
        return HermitianOperator(m, np.arange(m.shape[0]), "full")


# ── Assembly ───────────────────────────────────────────────────────────────


def assemble(grid, phases, region="omega", gamma=0.0, boundary="robin"):
    """Assemble the operator for one region of a masked grid.

    gamma is the Robin coefficient of the exterior problem; the obstacle-side
    operator automatically carries -gamma.  region="full" ignores the region
    tags entirely and never has an interior boundary term.
    """
    if phases.grid is not grid:
        raise ValueError("phases were built for a different grid (mismatched lattice)")
    if region not in REGIONS:
        raise ValueError(f"region must be one of {REGIONS}, got {region!r}")
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
    gamma = float(gamma)
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if region == "full" and gamma != 0.0:
        raise ValueError("region='full' has no interior boundary term; gamma must be 0")
    if boundary == "dirichlet" and gamma != 0.0:
        raise ValueError("boundary='dirichlet' has no gamma term; gamma must be 0")

    h = grid.h
    d = grid.dimension
    if region == "full":
        in_region = np.ones(grid.n_nodes, dtype=bool)
    elif region == "omega":
        in_region = grid.region == OMEGA
    else:
        in_region = grid.region == OBSTACLE
    n_sub = int(in_region.sum())
    if n_sub == 0:
        raise ValueError(f"region {region!r} contains no nodes")

    row_of = np.full(grid.n_nodes, -1, dtype=np.int64)
    row_of[in_region] = np.arange(n_sub)

    w_edge = 1.0 / h**2
    rows, cols, vals = [], [], []
    for a in range(d):
        i_idx, j_idx = grid.edges[a]
        keep = in_region[i_idx] & in_region[j_idx]
        rows.append(row_of[i_idx[keep]])
        cols.append(row_of[j_idx[keep]])
        vals.append(-np.exp(-1j * phases.theta[a][keep]) * w_edge)

    # every neighbour slot adds 1/h**2 (module docstring); Robin data takes
    # one slot from each side of an inner face and adds +-gamma/h there
    slots = np.full(n_sub, 2 * d)
    robin = region != "full" and boundary == "robin"
    if robin:
        nf = grid.inner_faces
        side = row_of[nf.node if region == "omega" else nf.neighbor]
        slots -= np.bincount(side, minlength=n_sub)
    diag = np.add.accumulate(np.r_[0.0, np.full(2 * d, w_edge)])[slots]
    if robin:
        np.add.at(diag, side, (gamma if region == "omega" else -gamma) / h)

    ri, rj, v = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    mat = _csr(np.concatenate([ri, rj, np.arange(n_sub)]),
               np.concatenate([rj, ri, np.arange(n_sub)]),
               np.concatenate([v, np.conj(v), diag.astype(complex)]), n_sub)

    meta = {
        "h": h,
        "dimension": d,
        "gamma": gamma,
        "boundary": boundary,
        "field": phases.field,
        "domain": grid.spec,
    }
    nodes = np.nonzero(in_region)[0]
    return HermitianOperator(mat, nodes, region, meta,
                             rotation=_quarter_turn(grid, nodes, row_of))


def _csr(rows, cols, vals, n):
    """n x n csr_matrix in canonical format from coordinates that hold each
    entry once (duplicates are not summed): one sort on the row-major key
    and one count per row."""
    # the keys are distinct, and a stable sort merges the sorted runs that
    # the callers concatenate
    order = np.argsort(rows * n + cols, kind="stable")
    itype = np.int32 if max(n, len(vals)) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=itype)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sp.csr_matrix((vals[order], cols[order].astype(itype), indptr),
                         shape=(n, n))


def _quarter_turn(grid, nodes, row_of):
    """Row of each node's image under x -> (-x2, x1), or None when an image
    is not a node of the region."""
    # the index box is centred and square in axes 0 and 1, so turning it
    # back by a quarter puts at each node the index of the node's image
    image = np.rot90(grid._index, -1, axes=(0, 1))[grid._index >= 0][nodes]
    rows = row_of[image]
    return None if np.any(image < 0) or np.any(rows < 0) else rows


def direct_sum(op_omega, op_obstacle):
    """Block-diagonal sum of the two one-sided operators, in full-grid order.

    The result acts on the full node set; its spectrum is the multiset union
    of the two summands and there is no coupling across the interface.
    """
    if op_omega.region != "omega" or op_obstacle.region != "obstacle":
        raise ValueError("direct_sum expects an omega operator and an obstacle operator")
    for key in ("h", "dimension", "gamma", "boundary"):
        if op_omega.meta.get(key) != op_obstacle.meta.get(key):
            raise ValueError(f"operator metadata mismatch on {key!r}")
    nodes = np.concatenate([op_omega.nodes, op_obstacle.nodes])
    order = np.argsort(nodes, kind="stable")
    if np.any(np.diff(nodes[order]) == 0):
        raise ValueError("operators overlap: regions are not complementary")
    # row of the sum for each row of the two summands: rank of its node
    rank = np.empty(len(nodes), dtype=np.int64)
    rank[order] = np.arange(len(nodes))
    rows, cols, vals = [], [], []
    for op, pos in ((op_omega, rank[:op_omega.n]),
                    (op_obstacle, rank[op_omega.n:])):
        m = op.mat
        rows.append(pos[np.repeat(np.arange(op.n), np.diff(m.indptr))])
        cols.append(pos[m.indices])
        vals.append(m.data)
    mat = _csr(np.concatenate(rows), np.concatenate(cols),
               np.concatenate(vals), len(nodes))
    return HermitianOperator(mat, nodes[order], "direct_sum",
                             dict(op_omega.meta))

