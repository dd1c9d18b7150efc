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

Both probes run on one sparse factorisation per pair, that of
A = H_split + c.  H_full - H_split = P_S D_SS P_S^T is supported on the
rows S of the crossing edges and boundary faces, so with X = A^-1 P_S the
Woodbury identity gives the full resolvent exactly from the split one:

    (H_full + c)^-1 = A^-1 - X M X^H,   M = (I + D_SS X_SS)^-1 D_SS,

with M |S| x |S| and Hermitian, and V = X M X^H.  No n x n matrix is formed,
so the probes reach grids as fine as the factorisation does, and past the
LU and its solves the SVD does one O(n |S|^2) step: the product that forms
the Gram matrix X^H X, whose |S| x |S| eigendecomposition gives V's
spectrum.  The split operator keeps the LU of A for the last shift c it
was probed at, with S and M for the full operator it was probed against,
so the SVD and every identity check of one pair at one shift share one
factorisation.
"""

from dataclasses import dataclass

import numpy as np

from .eigensolve import NonConvergence, _count, eigs_lowest, shifted_solver


# ── Shift policy ───────────────────────────────────────────────────────────


def hermitian_shift(*ops):
    """Common positive shift c with every op + cI strictly positive.

    c = max(0, -min lambda_min) + 1, computed once from the supplied
    operators and meant to be reused verbatim across a refinement pair so
    resolvent quantities stay comparable.  The margin of 1 keeps H + cI
    away from singular.  An operator whose inertia count at 0 is 0 is
    nonnegative, so it cannot set the maximum and its lowest eigenvalue is
    not computed.  The count at 0 is recorded in the operator's ledger like
    every other eigensolve count, so on an operator that counts at least 1
    there, eigs_lowest's bracket starts at 0 and takes no further count
    when that census is small.  Raises NonConvergence, carrying the result,
    when a lowest eigenvalue is not certified.
    """
    if len(ops) == 0:
        raise ValueError("need at least one operator")
    lows = []
    for op in [op for op in ops if _count(op, 0.0) != 0]:
        res = eigs_lowest(op, 1, return_vectors=False)
        if not res.certified:
            raise NonConvergence("lowest eigenvalue not certified: "
                                 f"{res.info.message}", partial=res)
        lows.append(float(res.eigenvalues[0]))
    return max(0.0, -min(lows, default=0.0)) + 1.0


def _update(op_full, op_split, c):
    """(solve, S, M, X or None) for the pair at shift c.

    solve is the solver for (H_split + c) x = b, S the rows on which the
    two operators differ and M the |S| x |S| Hermitian core of
    (H_full + c)^-1 = A^-1 - X M X^H.  One entry is kept per split operator:
    a new shift replaces its LU, and a new full operator its S and M, which
    bounds memory to one factorisation plus |S|^2.  X = A^-1 P_S is not
    kept; it is returned only when it was just solved for.
    """
    kept_c, solve, kept_full, support, core = op_split._lu or (None,) * 5
    if kept_c != c:
        solve = shifted_solver(op_split.mat, -c)
    elif kept_full is op_full:
        return solve, support, core, None
    diff = (op_full.mat - op_split.mat).tocoo()
    keep = diff.data != 0
    rows, cols = diff.row[keep], diff.col[keep]
    support = np.union1d(rows, cols)
    d_ss = np.zeros((len(support),) * 2, dtype=complex)
    d_ss[np.searchsorted(support, rows),
         np.searchsorted(support, cols)] = diff.data[keep]
    eye = np.eye(len(support))
    x = solve(_columns(op_split.n, support, eye))
    core = np.linalg.solve(eye + d_ss @ x[support], d_ss)
    core = 0.5 * (core + core.conj().T)
    op_split._lu = (c, solve, op_full, support, core)
    return solve, support, core, x


def _columns(n, rows, block):
    """n-row array holding block on rows and zeros elsewhere: P_S block,
    Fortran-ordered, the layout the sparse LU's solve reads."""
    out = np.zeros((n, block.shape[1]), dtype=complex, order="F")
    out[rows] = block
    return out


# ── Test fields ────────────────────────────────────────────────────────────


def smooth_random_field(grid, seed):
    """Seeded sum of six complex Gaussian bumps sampled on the grid nodes.

    The bumps are functions of position, not of node index, so refining the
    grid samples the same underlying function; that is what makes
    refinement comparisons of the boundary identity meaningful.
    """
    rng = np.random.default_rng(seed)
    R = grid.spec.truncation_radius
    ctr = np.empty((6, grid.dimension))
    wid = np.empty(6)
    amp = np.empty(6, dtype=complex)
    for b in range(6):                  # the draws, bump by bump
        ctr[b] = rng.uniform(-0.7 * R, 0.7 * R, size=grid.dimension)
        wid[b] = rng.uniform(0.2 * R, 0.5 * R)
        amp[b] = rng.standard_normal() + 1j * rng.standard_normal()
    axes = grid.positions.T
    d2 = (axes[0] - ctr[:, 0, None]) ** 2   # summed axis by axis, in order
    for a in range(1, grid.dimension):
        d2 += (axes[a] - ctr[:, a, None]) ** 2
    bumps = amp[:, None] * np.exp(-d2 / (2.0 * wid * wid)[:, None])
    out = np.zeros(grid.n_nodes, dtype=complex)
    for bump in bumps:                  # added to the sum in draw order
        out += bump
    return out


# ── Resolvent difference ───────────────────────────────────────────────────


def resolvent_difference_svd(op_full, op_split, shift=None, k=10):
    """Leading singular values of V = (H_split + c)^-1 - (H_full + c)^-1.

    V is boundary rank: V = X M X^H with X = (H_split + c)^-1 P_S and the
    |S| x |S| Hermitian M of the module docstring, so one sparse LU and |S|
    solves give X.  With the Gram matrix X^H X = U Lambda U^H, X is
    Q Lambda^1/2 U^H for some Q with orthonormal columns, so the singular
    values of V are the absolute eigenvalues of the |S| x |S| core
    Lambda^1/2 U^H M U Lambda^1/2.  That core carries the same rounding,
    of order u ||X||^2 ||M||, as R M R^H from a thin QR X = Q R, and costs
    one matrix product where the QR costs a Householder factorisation.  An
    eigendecomposition, unlike a Cholesky factorisation of X^H X, cannot
    fail when a shift close to -lambda_min(H_split) leaves X^H X singular
    to working precision; its eigenvalues below 0 are rounding and are
    taken as 0.  rank V <= |S|: values past it are exact zeros.  Returns
    (the min(k, n) leading singular values, shift used).  Supply shift to
    reuse one (H1) shift across a refinement pair.
    """
    if not np.array_equal(op_full.nodes, op_split.nodes):
        raise ValueError("operators act on different node sets")
    if k < 1:
        raise ValueError("k must be positive")
    c = hermitian_shift(op_full, op_split) if shift is None else float(shift)
    solve, support, core, x = _update(op_full, op_split, c)
    sv = np.zeros(min(k, op_full.n))
    if x is None:
        x = solve(_columns(op_split.n, support, np.eye(len(support))))
    lam, u = np.linalg.eigh(x.conj().T @ x)
    w = u * np.sqrt(np.maximum(lam, 0.0))      # U Lambda^1/2
    top = np.sort(np.abs(np.linalg.eigvalsh(w.conj().T @ core @ w)))[::-1]
    sv[:len(top)] = top[:len(sv)]
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
    and v up to a discretization gap that shrinks linearly in h.  With
    A = H_split + c and the S, M of the module docstring, one 2-column solve
    against A gives A^-1 f and v = A^-1 g, whose rows S are X^H f and X^H g
    (A is Hermitian); a second one on M times those gives X M X^H f and
    Vg = X M X^H g, so u = A^-1 f - X M X^H f.  The LU of A, S and M are
    kept on op_split and reused by later probes of the pair at the same
    shift.
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
    solve, support, core, _ = _update(op_full, op_split, c)
    a_f, v = solve(np.column_stack([f, g])).T
    corr_f, vg = solve(_columns(
        op_split.n, support, core @ np.column_stack([a_f, v])[support])).T
    u = a_f - corr_f
    hd = grid.h ** grid.dimension
    lhs = hd * np.vdot(vg, f)
    rhs = -_boundary_pairing(grid, phases, gamma, u, v)
    gap = abs(lhs - rhs) / max(abs(lhs), np.finfo(float).tiny)
    return BoundaryIdentity(complex(lhs), complex(rhs), float(gap), c)
