"""Obstacle-insertion probes.

Splitting the truncated grid into omega and obstacle blocks changes the
operator only through the crossing edges and the Robin faces, so the
difference of shifted inverses

    V = (H_split + c)^-1  -  (H_full + c)^-1

concentrates on boundary modes: its singular values collapse quickly, the
finite-size surrogate of resolvent-difference compactness.  The same
difference obeys a summation-by-parts identity pairing the Robin flux defect
of one solve with the jump of the other across the boundary faces; the
identity closes exactly in the continuum and to O(h) on the lattice.

Both probes run on sparse factorisations: one LU each of H_split + c and
H_full + c, and solves against them.  No n x n matrix is formed, so the
probes reach grids as fine as the factorisations do.  Each operator keeps
the LU of H + c for the last shift c it was probed at, so the SVD and every
identity check at one shift share one factorisation per operator.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .eigensolve import NonConvergence, _count, eigs_lowest, shifted_solver


# ── Shift policy ───────────────────────────────────────────────────────────


def hermitian_shift(*ops, margin=1.0):
    """Common positive shift c with every op + cI strictly positive.

    c = max(0, -min lambda_min) + margin, computed once from the supplied
    operators and meant to be reused verbatim across a refinement pair so
    resolvent quantities stay comparable.  margin must be finite and
    positive, or H + cI could be singular.  An operator whose inertia count
    at 0 is 0 is nonnegative, so it cannot set the maximum and its lowest
    eigenvalue is not computed.  The count at 0 is recorded in the
    operator's ledger like every other eigensolve count, so on an operator
    that counts at least 1 there, eigs_lowest's bracket starts at 0 and
    takes no further count when that census is small.  Raises
    NonConvergence, carrying the result, when a lowest eigenvalue is not
    certified.
    """
    if len(ops) == 0:
        raise ValueError("need at least one operator")
    margin = float(margin)
    if not (np.isfinite(margin) and margin > 0.0):
        raise ValueError(f"margin must be finite and positive, got {margin}")
    lows = []
    for op in [op for op in ops if _count(op, 0.0) != 0]:
        res = eigs_lowest(op, 1, return_vectors=False)
        if not res.certified:
            raise NonConvergence("lowest eigenvalue not certified: "
                                 f"{res.info.message}", partial=res)
        lows.append(float(res.eigenvalues[0]))
    return max(0.0, -min(lows, default=0.0)) + margin


def _resolvent(op, c):
    """Solver for (H + c) x = b from the LU of H + c kept on op.

    One entry per operator: a new shift replaces the kept LU, which bounds
    memory to one factorisation per operator.
    """
    if op._lu is None or op._lu[0] != c:
        op._lu = (c, shifted_solver(op.mat, -c))
    return op._lu[1]


# ── Test fields ────────────────────────────────────────────────────────────


def smooth_random_field(grid, seed, n_bumps=6):
    """Seeded sum of complex Gaussian bumps sampled on the grid nodes.

    The bumps are functions of position, not of node index, so refining the
    grid samples the same underlying function; that is what makes
    refinement comparisons of the boundary identity meaningful.
    """
    rng = np.random.default_rng(seed)
    pos = grid.positions
    R = grid.spec.truncation_radius
    out = np.zeros(grid.n_nodes, dtype=complex)
    for _ in range(n_bumps):
        ctr = rng.uniform(-0.7 * R, 0.7 * R, size=grid.dimension)
        wid = rng.uniform(0.2 * R, 0.5 * R)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        d2 = np.sum((pos - ctr) ** 2, axis=1)
        out += amp * np.exp(-d2 / (2.0 * wid * wid))
    return out


# ── Resolvent difference ───────────────────────────────────────────────────


def resolvent_difference_svd(op_full, op_split, shift=None, k=10):
    """Leading singular values of V = (H_split + c)^-1 - (H_full + c)^-1.

    V is boundary rank.  With A = H_split + c, B = H_full + c and
    D = H_full - H_split supported on the node set S,

        V = A^-1 D B^-1 = X D_SS Y^H,   X = A^-1 P_S,  Y = B^-1 P_S

    (B is Hermitian), so two sparse LUs and 2|S| solves give X and Y, and
    with thin QRs X = Q_X R_X, Y = Q_Y R_Y the singular values of V are
    those of the |S| x |S| core R_X D_SS R_Y^H.  rank V <= |S|: values past
    it are exact zeros.  Returns (the min(k, n) leading singular values,
    shift used).  Supply shift to reuse one (H1) shift across a refinement
    pair.
    """
    if not np.array_equal(op_full.nodes, op_split.nodes):
        raise ValueError("operators act on different node sets")
    if k < 1:
        raise ValueError("k must be positive")
    c = hermitian_shift(op_full, op_split) if shift is None else float(shift)
    n = op_full.n
    diff = (op_full.mat - op_split.mat).tocsr()
    diff.eliminate_zeros()
    support = np.union1d(*diff.nonzero())
    m = len(support)
    sv = np.zeros(min(k, n))
    if m == 0:
        return sv, c
    probe = np.zeros((n, m), dtype=complex)
    probe[support, np.arange(m)] = 1.0
    r_x = np.linalg.qr(_resolvent(op_split, c)(probe), mode="r")
    r_y = np.linalg.qr(_resolvent(op_full, c)(probe), mode="r")
    core = r_x @ diff[support][:, support].toarray() @ r_y.conj().T
    top = sla.svdvals(core)[:len(sv)]
    sv[:len(top)] = top
    return sv, c


# ── Boundary identity ──────────────────────────────────────────────────────


@dataclass
class BoundaryIdentity:
    lhs: complex
    rhs: complex
    gap: float
    shift: float

    def as_dict(self):
        return {
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "gap": self.gap,
            "shift": self.shift,
        }


def _boundary_pairing(grid, phases, gamma, u, v):
    """sum over inner faces of (D_nu u + gamma u) * conj(jump of v).

    D_nu is the phase-covariant difference along the outward normal (omega
    into obstacle); the jump compares v on the omega node with the
    phase-transported v from the obstacle node, which keeps the pairing
    gauge-covariant.
    """
    faces = grid.inner_faces
    h = grid.h
    acc = 0.0 + 0.0j
    for axis in range(grid.dimension):
        sel = faces.axis == axis
        if not np.any(sel):
            continue
        i = faces.node[sel]
        j = faces.neighbor[sel]
        sgn = faces.sign[sel]
        th = phases.theta[axis][faces.edge_pos[sel]] * sgn
        ph = np.exp(-1j * th)
        du = (u[j] * ph - u[i]) / h
        jump = v[i] - ph * v[j]
        acc += np.sum((du + gamma * u[i]) * np.conj(jump))
    return acc * h ** (grid.dimension - 1)


def boundary_identity_check(op_full, op_split, grid, phases, gamma,
                            f=None, g=None, shift=None, seed=0):
    """Check <Vg, f> against its boundary-face surrogate.

    u solves (H_full + c) u = f and v the split system on g; the weighted
    inner product of Vg with f must match minus the boundary pairing of u
    and v up to a discretization gap that shrinks linearly in h.  Vg is
    v - w with w solving (H_full + c) w = g: three solves on one sparse LU
    each of H_full + c and H_split + c.  Those LUs are kept on the operators
    and reused by later probes at the same shift.
    """
    order = np.arange(grid.n_nodes)     # the pairing reads u, v by node
    if not (np.array_equal(op_full.nodes, order)
            and np.array_equal(op_split.nodes, order)):
        raise ValueError("operators do not act on the grid's nodes in order")
    if f is None:
        f = smooth_random_field(grid, seed)
    if g is None:
        g = smooth_random_field(grid, seed + 1)
    c = hermitian_shift(op_full, op_split) if shift is None else float(shift)
    u, w = _resolvent(op_full, c)(np.column_stack([f, g])).T
    v = _resolvent(op_split, c)(g)
    hd = grid.h ** grid.dimension
    lhs = hd * np.vdot(v - w, f)
    rhs = -_boundary_pairing(grid, phases, gamma, u, v)
    gap = abs(lhs - rhs) / max(abs(lhs), np.finfo(float).tiny)
    return BoundaryIdentity(complex(lhs), complex(rhs), float(gap), c)
