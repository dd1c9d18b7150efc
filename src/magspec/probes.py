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
so the probes reach grids as fine as the factorisation does.  The split
operator keeps the LU of A for the last shift c it was probed at, with S
and M for the full operator it was probed against, so the SVD and every
identity check of one pair at one shift share one factorisation.
"""

from dataclasses import dataclass

import numpy as np

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
    diff = (op_full.mat - op_split.mat).tocsr()
    diff.eliminate_zeros()
    support = np.union1d(*diff.nonzero())
    eye = np.eye(len(support))
    x = solve(_columns(op_split.n, support, eye))
    d_ss = diff[support][:, support].toarray()
    core = np.linalg.solve(eye + d_ss @ x[support], d_ss)
    core = 0.5 * (core + core.conj().T)
    op_split._lu = (c, solve, op_full, support, core)
    return solve, support, core, x


def _columns(n, rows, block):
    """n-row array holding block on rows and zeros elsewhere: P_S block."""
    out = np.zeros((n, block.shape[1]), dtype=complex)
    out[rows] = block
    return out


# ── Test fields ────────────────────────────────────────────────────────────


def smooth_random_field(grid, seed, n_bumps=6):
    """Seeded sum of complex Gaussian bumps sampled on the grid nodes.

    The bumps are functions of position, not of node index, so refining the
    grid samples the same underlying function; that is what makes
    refinement comparisons of the boundary identity meaningful.
    """
    rng = np.random.default_rng(seed)
    axes = grid.positions.T
    R = grid.spec.truncation_radius
    out = np.zeros(grid.n_nodes, dtype=complex)
    for _ in range(n_bumps):
        ctr = rng.uniform(-0.7 * R, 0.7 * R, size=grid.dimension)
        wid = rng.uniform(0.2 * R, 0.5 * R)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        d2 = (axes[0] - ctr[0]) ** 2    # summed axis by axis, in axis order
        for x, x0 in zip(axes[1:], ctr[1:]):
            d2 += (x - x0) ** 2
        out += amp * np.exp(-d2 / (2.0 * wid * wid))
    return out


# ── Resolvent difference ───────────────────────────────────────────────────


def resolvent_difference_svd(op_full, op_split, shift=None, k=10):
    """Leading singular values of V = (H_split + c)^-1 - (H_full + c)^-1.

    V is boundary rank: V = X M X^H with X = (H_split + c)^-1 P_S and the
    |S| x |S| Hermitian M of the module docstring, so one sparse LU and |S|
    solves give X, and with the thin QR X = Q R the singular values of V are
    the absolute eigenvalues of the |S| x |S| core R M R^H.  rank V <= |S|:
    values past it are exact zeros.  Returns (the min(k, n) leading singular
    values, shift used).  Supply shift to reuse one (H1) shift across a
    refinement pair.
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
    r = np.linalg.qr(x, mode="r")
    top = np.sort(np.abs(np.linalg.eigvalsh(r @ core @ r.conj().T)))[::-1]
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
