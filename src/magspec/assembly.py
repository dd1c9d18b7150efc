"""Assembly of magnetic Schrodinger operators on masked lattices.

The assembled matrix H represents the differential operator itself, so its
entries scale like 1/h**2, and the discrete L2 pairing carries the cell
volume:  <u, v> = h**d * sum(conj(u) * v).  With that convention,

    h**d * Re(u^H H u)  =  sum_edges |u_j exp(-i theta) - u_i|^2 h^(d-2)
                         + sum_faces gamma_eff |u_node|^2 h^(d-1),

which apply_form evaluates.  Per region:

* "omega"     exterior nodes; edges into the obstacle are dropped (natural
              boundary condition) and each inner face adds +gamma/h to the
              diagonal of its exterior-side node,
* "obstacle"  obstacle nodes with the opposite-sign term -gamma/h,
* "full"      every node, no interior boundary term,
* direct_sum  block sum of the omega and obstacle operators in full-grid
              node order.

Edges that leave the truncation window always contribute 1/h**2 to the
diagonal with the missing neighbor treated as zero (Dirichlet window).  With
boundary="dirichlet" the obstacle boundary is treated the same way instead
of the Robin term.

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

COORD_HEADER = "%%MatrixMarket-compatible coordinate complex hermitian"


@dataclass
class HermitianOperator:
    """Assembled Hermitian operator with its grid bookkeeping.

    mat    csr_matrix, complex128, exactly Hermitian
    nodes  row -> grid node index (identity for full-grid operators)
    meta   h, gamma, boundary, region, field, domain, dimension

    rotation  row -> row of its node turned by x -> (-x2, x1) in the plane
              of axes 0 and 1, or None; assemble records it when the region
              is closed under the turn, and eigs_window solves one rotation
              sector at a time when H commutes with it.  shifted keeps it;
              from_matrix, direct_sum and dataclasses.replace start without
              it, so a replaced mat is never paired with a stale turn.

    An operator is not modified after assembly: build a new one (shifted,
    dataclasses.replace, from_matrix) instead of rebinding or editing mat.
    The resolvent probes rely on this when they keep the sparse LU of
    H + cI for the last shift c in _lu, a cache that every copy starts
    without and that equality and pickling ignore.
    """

    mat: object
    nodes: np.ndarray
    region: str
    meta: dict = field(default_factory=dict)
    rotation: np.ndarray | None = field(default=None, init=False, repr=False,
                                        compare=False)
    _lu: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "_lu": None}   # an LU cannot be pickled

    @property
    def n(self):
        return self.mat.shape[0]

    @property
    def h(self):
        return self.meta.get("h")

    @property
    def dimension(self):
        return self.meta.get("dimension")

    def dense(self):
        return self.mat.toarray()

    def shifted(self, c):
        """Operator plus c times the identity (same bookkeeping)."""
        out = HermitianOperator(
            (self.mat + c * sp.identity(self.n, dtype=complex, format="csr")).tocsr(),
            self.nodes, self.region, dict(self.meta))
        out.meta["shift"] = self.meta.get("shift", 0.0) + c
        out.rotation = self.rotation
        return out

    @staticmethod
    def from_matrix(mat, h=1.0, dimension=1, region="full", meta=None):
        """Wrap an explicit Hermitian matrix (tests, model problems)."""
        m = sp.csr_matrix(mat, dtype=complex)
        base = {"h": float(h), "dimension": dimension}
        if meta:
            base.update(meta)
        return HermitianOperator(m, np.arange(m.shape[0]), region, base)


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
    diag = np.zeros(n_sub)
    rows, cols, vals = [], [], []

    for a in range(d):
        i_idx, j_idx = grid.edges[a]
        keep = in_region[i_idx] & in_region[j_idx]
        ri = row_of[i_idx[keep]]
        rj = row_of[j_idx[keep]]
        v = -np.exp(-1j * phases.theta[a][keep]) * w_edge
        rows.append(ri)
        cols.append(rj)
        vals.append(v)
        np.add.at(diag, ri, w_edge)
        np.add.at(diag, rj, w_edge)

    # Dirichlet window: missing neighbor treated as zero
    of = grid.outer_faces
    sel = in_region[of.node]
    np.add.at(diag, row_of[of.node[sel]], w_edge)

    if region != "full" and len(grid.inner_faces) > 0:
        nf = grid.inner_faces
        side = nf.node if region == "omega" else nf.neighbor
        if boundary == "robin":
            g_eff = gamma if region == "omega" else -gamma
            np.add.at(diag, row_of[side], g_eff / h)
        else:
            np.add.at(diag, row_of[side], w_edge)

    ri, rj, v = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    all_rows = np.concatenate([ri, rj, np.arange(n_sub)])
    all_cols = np.concatenate([rj, ri, np.arange(n_sub)])
    all_vals = np.concatenate([v, np.conj(v), diag.astype(complex)])
    mat = sp.coo_matrix((all_vals, (all_rows, all_cols)), shape=(n_sub, n_sub)).tocsr()

    meta = {
        "h": h,
        "dimension": d,
        "gamma": gamma,
        "boundary": boundary,
        "region": region,
        "field": phases.field,
        "domain": grid.spec,
    }
    op = HermitianOperator(mat, np.nonzero(in_region)[0], region, meta)
    op.rotation = _quarter_turn(grid, op.nodes, row_of)
    return op


def _quarter_turn(grid, nodes, row_of):
    """Row of each node's image under x -> (-x2, x1), or None when an image
    is not a node of the region."""
    coords = grid.coords[nodes]
    turned = coords.copy()
    turned[:, 0], turned[:, 1] = -coords[:, 1], coords[:, 0]
    image = grid.node_at(turned)
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
    n_full = len(nodes)
    if len(np.unique(nodes)) != n_full:
        raise ValueError("operators overlap: regions are not complementary")

    def scatter(op):
        coo = op.mat.tocoo()
        return op.nodes[coo.row], op.nodes[coo.col], coo.data

    r1, c1, v1 = scatter(op_omega)
    r2, c2, v2 = scatter(op_obstacle)
    # rows are full-grid node ids; compress to 0..n_full-1 preserving order
    order = np.argsort(nodes, kind="stable")
    rank = np.empty(n_full, dtype=np.int64)
    rank[order] = np.arange(n_full)
    lookup = np.full(int(nodes.max()) + 1, -1, dtype=np.int64)
    lookup[nodes] = rank
    mat = sp.coo_matrix(
        (np.concatenate([v1, v2]),
         (lookup[np.concatenate([r1, r2])], lookup[np.concatenate([c1, c2])])),
        shape=(n_full, n_full)).tocsr()
    meta = dict(op_omega.meta)
    meta["region"] = "direct_sum"
    return HermitianOperator(mat, np.sort(nodes), "direct_sum", meta)


# ── Quadratic form ─────────────────────────────────────────────────────────


def apply_form(op, u):
    """Value of the discrete quadratic form: h**d * Re(u^H H u)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (op.n,):
        raise ValueError(f"vector has shape {u.shape}, operator has size {op.n}")
    return op.h ** op.dimension * float(np.real(np.vdot(u, op.mat @ u)))


# ── Coordinate text export ─────────────────────────────────────────────────


def export_coordinate(op, path):
    """Write the lower triangle as '(row, col, real, imag)' lines, 0-based."""
    tri = sp.tril(op.mat, format="coo")
    with open(path, "w") as fh:
        fh.write(COORD_HEADER + "\n")
        fh.write(f"{op.n} {op.n} {tri.nnz}\n")
        for r, c, v in zip(tri.row, tri.col, tri.data):
            fh.write(f"{r} {c} {float(v.real)!r} {float(v.imag)!r}\n")


def load_coordinate(path):
    """Read a coordinate text export back into a csr matrix."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != COORD_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        n, m, nnz = (int(t) for t in fh.readline().split())
        rows, cols, vals = [], [], []
        for line in fh:
            r, c, re, im = line.split()
            rows.append(int(r))
            cols.append(int(c))
            vals.append(complex(float(re), float(im)))
    low = sp.coo_matrix((vals, (rows, cols)), shape=(n, m)).tocsr()
    up = sp.triu(low.conj().T, k=1)
    return (low + up).tocsr()
