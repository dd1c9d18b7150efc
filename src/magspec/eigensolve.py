"""Spectral queries on Hermitian lattice operators.

Two query styles, both answered by one certified path at every size:

* eigs_lowest  -- k smallest eigenvalues.  A Gershgorin lower bound, where
  the inertia count is 0, and an upper shift bracket a window holding at
  least k eigenvalues.  The bracket starts from the counts already recorded
  on the operator and adds only those it still needs: a first shift sized
  for the census it accepts, widened and then halved until the census is
  small or the bracket is narrower than one cluster.  The window is solved
  as below and its lowest k are kept.
* eigs_window  -- every eigenvalue in the closed window [a, b].  Inertia
  counts at the edges fix the census.

Both hand their edge counts to _sliced, the one driver of the result: it
refuses unusable counts, splits the census into slices by inertia bisection
and solves each by shift-invert Lanczos.

The count rule.  Every inertia count either query takes on an operator,
at a window or sector edge, a bisection point or a bracket shift, and
probes.hermitian_shift's count at 0 go through _count, which records them
in the operator's ledger (_Ledger, kept on HermitianOperator._ledger with
the Gershgorin bounds and max|diag H|) and reads back, without a
factorization, a shift and direction recorded before.
Counts must be monotone in the shift: each recorded count lies between
those of the nearest recorded shifts below and above it, with 0 below every
shift and n above.  The first count that breaks the rule marks the
operator for good, and every result built on it, or on a sector block
marked the same way, has no pairs and certified=False, with both counts and
shifts in info.message.

A window of an operator of at least _SECTOR_MIN_ROWS rows that commutes
with its quarter turn U (recorded by assemble for regions closed under
x -> (-x2, x1): a centred disk or box window, no obstacle or a centred disk
or square one, under a constant or radial field) is solved one rotation
sector at a time: _rotation_sectors splits H into four blocks
H_m = B_m^H H B_m of about n/4 rows, the eigenspaces of U, and _sliced
counts and slices each.  They are taken only when no entry of
U H U^H - H exceeds _TURN_TOL max|diag H|, and what certifies them stays
on H: the sector counts at the window edges must add up to the full
operator's own, and every residual is that of the embedded vector B_m v on
H.  info.sectors is 4 on that path and 1 otherwise.

method is "lanczos" (the sliced path, the default) or "dense" (LAPACK, kept
only as the oracle that tests compare against).  Both paths widen a
window's edges outward by _EDGE_PAD * max|diag H|, so an eigenvalue on an
edge is kept.  Completeness is certified by inertia counts, read from the
diagonal pivots of _factor, the one sparse LU of H - sigma I that the
slices and the resolvent probes also solve with (there with threshold
pivots): the recovered pieces must add up to the census.  A shift outside
the Gershgorin bounds, widened by their rounding, is counted without a
factorization: 0 below them, n above.  When no symmetric factorization
succeeds, or the counts are inconsistent, results are returned with
certified=False and the reason in info.message rather than silently
trusted.

Every reported pair carries an explicitly computed residual
|| H v - lambda v || / || v || (BLAS 2-norms, column by column), and only
that residual certifies a pair.  A shift-invert cycle stops once residual
estimates read off the Krylov relation say the slice census can be met;
the explicit residuals then decide, and the cycle extends if they refuse.
Each Krylov step is reorthogonalized against the whole basis: one full
Gram-Schmidt pass after the three-term step, repeated only when the pass
cancelled most of the vector.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import HermitianOperator

_SLICE_MAX = 110          # eigenvalues per shift-invert slice
_BREAKDOWN = 1e-13
_BISECT_STEPS = 60        # halvings of the lowest-k bracket before settling
_EDGE_PAD = 1e-12         # window pad and first inertia nudge, x max|diag H|
_CHECK_EVERY = 8          # Krylov steps between looks at the Ritz estimates
_SHIFT_GAP = 1e-7         # slice width below which the shift is placed as if
                          # this wide, and lowest-k bracket width at which
                          # halving stops, x max|diag H|
_SOLVE_PIVOT = 0.1        # least diagonal pivot of the solves' LU, x column
_GS_PASSES = 3            # most full Gram-Schmidt passes per Krylov step
_DGKS = 2.0 ** -0.5       # a pass keeping less of the norm is repeated
_MAX_RESTARTS = 80        # shift-invert cycles per slice before giving up
# most |U H U^H - H| entry for the sector path, x max|diag H|: above the
# 48 eps that the rounding of radial-field phases reached (radial_growth,
# b0 = 0.5, p = 3, box of R = 6), while the couplings the sectors drop, at
# most 7 such entries per row, stay a tenth of the window pad _EDGE_PAD
_TURN_TOL = 64 * np.finfo(float).eps
_QUARTER = np.array([1.0, -1j, -1.0, 1j])   # (-i)^k
# fewest rows for the sector path: below it four sector LUs and Krylov
# set-ups cost more than the shorter steps save (1 BLAS thread, disk
# windows: break-even near n = 1000 at a census of 40 and near n = 3500 at
# a census of 21; at n = 8456 and a census of 53 sectors take 0.44 the time)
_SECTOR_MIN_ROWS = 4000


@dataclass
class SolverInfo:
    method: str                 # "dense" or "lanczos"
    iterations: int
    tolerance: float
    converged: bool
    message: str = ""
    sectors: int = 1            # rotation sectors solved one at a time


@dataclass
class SpectrumResult:
    """Eigenvalues in ascending order with residual certificates."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    info: SolverInfo
    eigenvectors: np.ndarray = None
    certified: bool = True
    window: tuple = None

    @property
    def k(self):
        return len(self.eigenvalues)


class NonConvergence(RuntimeError):
    """Iteration budget exhausted; carries whatever converged so far."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class WindowOverflow(RuntimeError):
    """More eigenvalues in the window than the caller's cap."""

    def __init__(self, message, count):
        super().__init__(message)
        self.count = count


# ── Residuals ──────────────────────────────────────────────────────────────


def residual(op, value, vector):
    """|| H v - value v || / || v ||, both norms BLAS 2-norms.

    Rounding stays far below the tolerances that certify (default 1e-8).
    Forming H v - value v errs by at most about (row nnz + 1) u (|H| |v| +
    |value| |v|) per entry, u = 1.1e-16: about 1e-15 relative to
    ||H|| ||v|| for lattice rows of 5 to 7 entries.  The sums of squares
    inside the norms add a relative error of at most n u to the residual
    itself, whatever the scaling of v short of overflow.
    """
    v = np.asarray(vector, dtype=complex)
    den = np.linalg.norm(v)
    if den == 0.0:
        raise ValueError("residual of the zero vector is undefined")
    return float(np.linalg.norm(op.mat @ v - value * v) / den)


def _residuals(op, values, vectors):
    return np.array([residual(op, w, vectors[:, i]) for i, w in enumerate(values)])


# ── Sparse factorization and inertia counts ────────────────────────────────


def _gershgorin_bounds(mat):
    """(lo, hi) with every eigenvalue of the Hermitian mat in [lo, hi],
    rounding of their computation included.

    Row i confines the spectrum to [d_i - rho_i, d_i + rho_i], d_i the real
    part of the diagonal entry and rho_i = A_i - |h_ii|, A_i = sum_j |h_ij|.
    Computed in floating point (unit roundoff u, eps = 2u), with r_i terms
    in row i: each |h_ij| errs by at most eps |h_ij| (complex magnitudes
    are within an ulp; real ones are exact), which costs 2u A_i in A_i and
    2u A_i again in the |h_ii| subtracted from it; summing the r_i terms adds
    at most (r_i - 1) u A_i, in any order; the two subtractions add u A_i
    each, since neither result exceeds A_i.  So each computed end errs by at
    most (r_i + 5) u A_i, up to terms of order (r_i u)^2.  The bounds are
    widened by margin = (r + 5) eps max_i A_i, r the most terms in a row:
    twice that error, which also covers the rounding of the widening itself.

    For lattice operators (r = 5 in 2-D, 7 in 3-D, A_i <= 2 max|diag H|)
    the margin is at most 6e-15 max|diag H|, far below the window pad
    _EDGE_PAD max|diag H|: a window edge at 0 on a nonnegative operator
    lies below lo.  Dense rows make r, and so the margin, larger; that only
    makes the bounds looser, never wrong.
    """
    a = abs(mat).tocsr()
    diag = mat.diagonal()
    row_abs = np.asarray(a.sum(axis=1)).ravel()
    radius = row_abs - np.abs(diag)
    terms = int(np.max(np.diff(a.indptr), initial=0))
    margin = ((terms + 5) * np.finfo(float).eps
              * float(np.max(row_abs, initial=0.0)))
    return (float(np.min(diag.real - radius)) - margin,
            float(np.max(diag.real + radius)) + margin)


class _Ledger:
    """What eigensolve knows of one operator: its Gershgorin bounds lo and
    hi, scale = max|diag H|, and every inertia count taken on it as
    (shift, direction, count), sorted by shift and then direction between
    the implicit counts 0 at -inf and n at +inf.  conflict is the first pair
    of neighbouring counts out of order, or None."""

    def __init__(self, mat):
        self.lo, self.hi = _gershgorin_bounds(mat)
        self.scale = float(np.max(np.abs(mat.diagonal()))) or 1.0
        self.entries = [(-np.inf, -np.inf, 0), (np.inf, np.inf, mat.shape[0])]
        self.conflict = None

    def find(self, s, direction):
        """The count recorded at (s, direction), or None."""
        i = bisect.bisect(self.entries, (s, direction), key=lambda e: e[:2])
        p, d, count = self.entries[i - 1]
        return count if (p, d) == (s, direction) else None

    def record(self, s, direction, count):
        i = bisect.bisect(self.entries, (s, direction), key=lambda e: e[:2])
        self.entries.insert(i, (s, direction, count))
        for (p, _, a), (q, _, b) in zip(self.entries[i - 1:i + 1],
                                        self.entries[i:i + 2]):
            if a > b and self.conflict is None:
                self.conflict = (f"non-monotone inertia counts {a}, {b} "
                                 f"at {p}, {q}")


def _ledger(op):
    if op._ledger is None:
        op._ledger = _Ledger(op.mat)
    return op._ledger


def _factor(mat, sigma, pivot_thresh=0.0):
    """Sparse LU of H - sigma I in symmetric mode.  The default keeps every
    pivot diagonal, so that the signs of the pivots give the inertia."""
    n = mat.shape[0]
    shifted = mat.tocsc() - sigma * sp.identity(n, dtype=complex, format="csc")
    return splu(shifted, permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=pivot_thresh,
                options=dict(SymmetricMode=True))


def shifted_solver(mat, sigma):
    """Solver for (H - sigma I) x = b from one sparse LU of H - sigma I.

    The returned function takes b as a vector or as an n x m block of
    right-hand sides.  The shift-invert slices and the resolvent probes
    both factorise through here.  A diagonal pivot is refused when it is
    below _SOLVE_PIVOT times its column: forced diagonal pivots lose
    accuracy near a multiple eigenvalue, and the solves need no inertia.
    """
    return _factor(mat, sigma, _SOLVE_PIVOT).solve


def inertia_count(op, s, direction=1.0):
    """Number of eigenvalues of op strictly below s, or None if uncertifiable.

    Below the Gershgorin bound lo the count is 0, and above hi it is n, with
    no factorization; the bounds and max|diag H| are read from op's ledger,
    and the count is not recorded there (the package's own counts go
    through _count).  _gershgorin_bounds widens both by a margin proven to
    exceed their rounding, at most 6e-15 max|diag H| on lattice operators,
    so a shift at or inside an exact bound still factorizes, while a window
    edge padded below 0 on a nonnegative operator does not.  A shift
    within the bounds is counted from the sign pattern of the pivots of a
    symmetric-pivot sparse factorization of H - s I.  If the factorization
    cannot be trusted (shift too close to an eigenvalue), the shift is
    nudged a few times before giving up.  direction controls which way the
    nudge moves: counting for the lower edge of a closed window must nudge
    down, so that an eigenvalue sitting exactly on the edge stays inside the
    window, while an upper edge must nudge up for the same reason.
    """
    book = _ledger(op)
    if s < book.lo:
        return 0
    if s > book.hi:
        return op.n
    mat = op.mat.tocsc()
    nudge = _EDGE_PAD * book.scale * (1.0 if direction >= 0 else -1.0)
    t = float(s)
    for _ in range(5):
        try:
            lu = _factor(mat, t)
        except RuntimeError:
            t = t + nudge
            nudge *= 100.0
            continue
        du = lu.U.diagonal()
        dmax = float(np.max(np.abs(du)))
        symmetric = np.array_equal(lu.perm_r, lu.perm_c)
        clean = dmax > 0 and float(np.max(np.abs(du.imag))) <= 1e-7 * dmax
        robust = dmax > 0 and float(np.min(np.abs(du))) > 1e-13 * dmax
        if symmetric and clean and robust:
            return int(np.sum(du.real < 0.0))
        t = t + nudge
        nudge *= 100.0
    return None


def _count(op, s, direction=1.0):
    """inertia_count, recorded in op's ledger under the count rule.  A shift
    and direction the ledger already holds are read back, not factorised
    again."""
    book = _ledger(op)
    known = book.find(s, direction)
    if known is not None:
        return known
    count = inertia_count(op, s, direction=direction)
    if count is not None:
        book.record(s, direction, count)
    return count


# ── Dense paths ────────────────────────────────────────────────────────────


def _dense_lowest(op, k, tol, return_vectors):
    w, v = sla.eigh(op.dense(), subset_by_index=(0, k - 1))
    res = _residuals(op, w, v)
    info = SolverInfo("dense", 0, tol, True)
    return SpectrumResult(w, res, info, v if return_vectors else None)


def _dense_window(op, a, b, lo, hi, tol, cap, return_vectors):
    w, v = sla.eigh(op.dense())
    mask = (w >= lo) & (w <= hi)
    count = int(mask.sum())
    if count > cap:
        raise WindowOverflow(
            f"window [{a}, {b}] holds {count} eigenvalues, cap is {cap}", count)
    vals = w[mask]
    vecs = v[:, mask]
    res = _residuals(op, vals, vecs)
    info = SolverInfo("dense", 0, tol, True, "complete by dense enumeration")
    return SpectrumResult(vals, res, info, vecs if return_vectors else None,
                          certified=True, window=(a, b))


# ── Lanczos with full reorthogonalization ──────────────────────────────────


class _Krylov:
    """Orthonormal basis plus the exact projected matrix, grown column-wise.

    Full reorthogonalization keeps the projection exact, which is what stops
    ghost copies inside near-degenerate Landau clusters.  A step first takes
    out the last two basis columns, the three-term recurrence, and then runs
    classical Gram-Schmidt passes against the entire basis: one pass, and
    another only while a pass leaves less than 1/sqrt(2) of the norm it
    started with (the criterion of Daniel, Gragg, Kaufman & Stewart, Math.
    Comp. 30 (1976) 772-795), at most _GS_PASSES.  After the local step the
    full pass mostly removes rounding, so one pass is the rule; a second is
    run when the vector lay mostly inside the basis already, such as a
    restart's continuation close to the kept Ritz vectors or a step near
    breakdown.  Projections are formed as (w^H Q)^H, which reads the basis
    in place; Q^H w would copy it.
    """

    def __init__(self, n, m_max, rng):
        self.n = n
        self.m_max = m_max
        self.rng = rng
        self.Q = np.empty((n, m_max + 2), dtype=complex, order="F")
        self.P = np.zeros((m_max + 2, m_max + 2), dtype=complex)
        self.m = 0
        self.full = False

    @property
    def me(self):
        """Columns whose operator image has been projected: all but the last,
        a continuation vector without one, until the basis spans C^n; then
        it is an exact invariant subspace and every column counts."""
        return self.m if self.full else max(0, self.m - 1)

    def _random_unit(self):
        v = self.rng.standard_normal(self.n) + 1j * self.rng.standard_normal(self.n)
        return v / np.linalg.norm(v)

    def _orthogonalize(self, w, coef, norm):
        """Classical Gram-Schmidt passes of w, of 2-norm norm, against the
        whole basis, repeated by the DGKS criterion.  Adds the coefficients
        to coef; returns w and its new norm."""
        Q = self.Q[:, :self.m]
        for _ in range(_GS_PASSES):
            c = (w.conj() @ Q).conj()
            w = w - Q @ c
            coef += c
            start, norm = norm, np.linalg.norm(w)
            if norm >= _DGKS * start:
                break
        return w, norm

    def seed_vector(self, v=None):
        v = self._random_unit() if v is None else v / np.linalg.norm(v)
        if self.m > 0:
            v, nv = self._orthogonalize(v, np.zeros(self.m, complex), 1.0)
            if nv < _BREAKDOWN:
                return False
            v = v / nv
        self.Q[:, self.m] = v
        self.m += 1
        return True

    def extend(self, apply_op):
        """One Lanczos step from the last basis vector."""
        m = self.m
        w = apply_op(self.Q[:, m - 1])
        c_total = np.zeros(m, dtype=complex)
        local = self.Q[:, max(0, m - 2):m]
        c = (w.conj() @ local).conj()
        w = w - local @ c
        c_total[max(0, m - 2):] = c
        w, beta = self._orthogonalize(w, c_total, np.linalg.norm(w))
        self.P[:m, m - 1] = c_total
        self.P[m - 1, :m] = np.conj(c_total)
        if beta < _BREAKDOWN * max(1.0, float(np.abs(c_total[-1]))):
            # invariant subspace hit: restart direction from fresh noise,
            # unless the basis already spans C^n
            self.P[m, m - 1] = 0.0
            self.P[m - 1, m] = 0.0
            self.full = not self.seed_vector()
            return
        self.P[m, m - 1] = beta
        self.P[m - 1, m] = beta
        self.Q[:, m] = w / beta
        self.m += 1

    def ritz(self):
        me = self.me
        theta, y = np.linalg.eigh(self.P[:me, :me])
        return theta, y

    def ritz_vectors(self, y):
        return self.Q[:, :y.shape[0]] @ y

    def restart(self, y_keep, theta_keep, tail):
        """Collapse the basis onto chosen Ritz vectors plus a continuation."""
        nk = y_keep.shape[1]
        V = self.Q[:, :y_keep.shape[0]] @ y_keep
        self.Q[:, :nk] = V
        self.P[:] = 0.0
        self.P[:nk, :nk] = np.diag(theta_keep)
        self.m = nk
        self.full = False
        return self.seed_vector(tail)


# ── Shift-invert slices ────────────────────────────────────────────────────


def _empty_pairs(n):
    return np.empty(0), np.empty(0), np.empty((n, 0), complex)


def _ritz_estimates(mat, sigma, kry, theta, y):
    """Residual norms || (H - lambda) x || of the Ritz pairs lambda = sigma +
    1/theta, x = Q y, estimated without forming x.

    Full reorthogonalization keeps S Q = Q P + beta q e^T, with S = (H -
    sigma I)^-1, q the continuation column and beta = P[me, me - 1].  Hence
    (H - lambda) x = -beta y_me (H - sigma I) q / theta: one sparse matvec
    prices every pair.  The estimates only decide when to look; they
    certify nothing.
    """
    me = kry.me
    q = kry.Q[:, me]
    r = np.linalg.norm(mat @ q - sigma * q)
    with np.errstate(divide="ignore"):
        return abs(kry.P[me, me - 1]) * r * np.abs(y[me - 1]) / np.abs(theta)


def _slice_eigs(op, p, q, m_expect, tol, rng, return_vectors):
    """All m_expect eigenvalues in [p, q) by shift-invert Lanczos.

    Returns (values, residuals, vectors, matvecs, converged); vectors is an
    n x 0 block unless return_vectors.  When the restarts run out, converged
    is False and the best m_expect candidates of the last cycle (smallest
    residuals) are returned instead.
    Near-degenerate clusters inside the slice are magnified by the spectral
    map 1/(lambda - sigma), so locking plus restarts recovers every copy.
    Membership in the half-open slice [p, q) is decided with a small guard
    band: a converged value carries rounding noise, so an eigenvalue sitting
    numerically on a slice boundary must not be lost (or double-counted) by
    a hard cut; when more candidates converge than the census allows, the
    ones farthest outside the slice are dropped first.

    A cycle grows the basis up to m_max columns but stops early: from
    m_expect columns on, every _CHECK_EVERY steps, the Ritz residuals are
    estimated from the Krylov relation (_ritz_estimates), and once m_expect
    candidates in the guard band estimate at or below tol / 2, their
    explicit residuals are computed.  The slice is accepted only when those
    meet the census at tol, the same test that ends a full cycle; otherwise
    the cycle extends.
    """
    n = op.n
    # off-center, to dodge symmetric clusters, and at least _SHIFT_GAP from
    # p: a shift nearly on a multiple eigenvalue stalls the residuals
    sigma = p + 0.5137 * max(q - p, _SHIFT_GAP * _ledger(op).scale)
    solve = shifted_solver(op.mat, sigma)
    pad = max(100.0 * tol, 1e-12 * max(abs(p), abs(q), 1.0))
    m_max = int(min(n, max(2 * m_expect + 30, 60)))
    kry = _Krylov(n, m_max, rng)
    kry.seed_vector()

    def candidates():
        theta, y = kry.ritz()
        lam = np.where(np.abs(theta) > 1e-300, sigma + 1.0 / theta, np.inf)
        # guard band around [p, q): the census decides how many belong here,
        # rounding in the Ritz values must not
        return theta, y, lam, (lam >= p - pad) & (lam < q + pad)

    def certify(y, lam, cand):
        """Explicit residuals of the candidates, and the indices of the
        m_expect certified pairs in value order (None if short)."""
        idx = np.nonzero(cand)[0]
        vecs = kry.ritz_vectors(y[:, idx])
        vals = lam[idx]
        res = _residuals(op, vals, vecs)
        good = np.nonzero(res <= tol)[0]
        if len(good) < m_expect:
            return vals, res, vecs, None
        if len(good) > m_expect:
            depth = np.minimum(vals[good] - p, q - vals[good])
            order = np.lexsort((res[good], -depth))
            good = good[order[:m_expect]]
        return vals, res, vecs, good[np.argsort(vals[good])]

    def pairs(vals, res, vecs, sel, converged):
        kept = vecs[:, sel] if return_vectors else np.empty((n, 0), complex)
        return vals[sel], res[sel], kept, matvecs, converged

    matvecs = 0
    best = _empty_pairs(n)
    for cycle in range(_MAX_RESTARTS):
        while kry.me < m_max:
            kry.extend(solve)
            matvecs += 1
            if (kry.me < m_expect or kry.me == m_max
                    or (kry.me - m_expect) % _CHECK_EVERY):
                continue
            theta, y, lam, cand = candidates()
            est = _ritz_estimates(op.mat, sigma, kry, theta, y)
            if np.count_nonzero(cand & (est <= 0.5 * tol)) >= m_expect:
                vals, res, vecs, sel = certify(y, lam, cand)
                if sel is not None:
                    return pairs(vals, res, vecs, sel, True)
        theta, y, lam, cand = candidates()
        if np.any(cand):
            vals, res, vecs, sel = certify(y, lam, cand)
            if sel is not None:
                return pairs(vals, res, vecs, sel, True)
            best = (vals, res, vecs)
        # restart on the most relevant Ritz vectors: largest |theta| maps
        # closest to sigma, so the slice interior is kept preferentially
        order = np.argsort(-np.abs(theta))
        keep = min(max(m_expect + 10, int(1.3 * m_expect)), max(1, kry.me - 8))
        sel = order[:keep]
        tail = kry.Q[:, kry.m - 1].copy()
        kry.restart(y[:, sel], theta[sel], tail=tail)
    vals, res, vecs = best
    sel = np.argsort(res, kind="stable")[:m_expect]
    sel = sel[np.argsort(vals[sel])]
    return pairs(vals, res, vecs, sel, False)


# ── Rotation sectors ───────────────────────────────────────────────────────


def _rotation_sectors(op):
    """[(H_m, B_m) for m = 0..3] when op commutes with its quarter turn U,
    else None.

    op.rotation, recorded by assemble and kept by copies, maps each row to
    the row of its node turned by x -> (-x2, x1); one of another length than
    n is refused.  U commutes with H when no entry of U H U^H - H
    exceeds _TURN_TOL max|diag H|: they are exactly equal for a constant
    field and equal to rounding of the phases for the azimuthal gauge of a
    radial one.  An orbit {x, Ux, U^2 x, U^3 x} has four rows, or one for a node
    the turn fixes.  B_m has one column per orbit, with (-i)^(m k) / 2 on
    the row of U^k x, so that U B_m = i^m B_m; a fixed node is a column of
    B_0 alone, after the orbits.  The B_m are orthonormal and together span
    C^n, so H is unitarily similar to the block sum of the H_m = B_m^H H B_m
    up to the couplings dropped between sectors, no larger than the turn's
    mismatch.

    H_m sums conj(c_i) H_ij c_j over the nonzeros H_ij into entry (col i,
    col j), c the entries of B_m.  The turn maps the term of (i, j) to the
    equal term of (U i, U j), so only the rows of each orbit's first node
    are summed, four times, and those of fixed nodes once; averaging each
    block with its conjugate transpose makes it exactly Hermitian.
    """
    rot = op.rotation
    if rot is None or len(rot) != op.n:
        return None
    n = op.n
    coo = op.mat.tocoo()
    turned = sp.csr_matrix((coo.data, (rot[coo.row], rot[coo.col])),
                           shape=(n, n))
    if abs(turned - op.mat).max() > _TURN_TOL * _ledger(op).scale:
        return None
    rows = np.arange(n)
    powers = (rows, rot, rot[rot], rot[rot[rot]])
    fixed = rot == rows
    lead = np.nonzero((rows == np.minimum.reduce(powers)) & ~fixed)[0]
    n4 = len(lead)
    if n4 == 0:
        return None
    col = np.empty(n, dtype=np.int64)
    turns = np.zeros(n, dtype=np.int64)
    for k, power in enumerate(powers):
        col[power[lead]] = np.arange(n4)
        turns[power[lead]] = k
    size = n4 + np.count_nonzero(fixed)
    col[fixed] = np.arange(n4, size)
    own = turns[coo.row] == 0           # first nodes of orbits, fixed nodes
    i, j = coo.row[own], coo.col[own]
    terms = coo.data[own] * np.where(fixed[i], 1.0, 4.0)
    sectors = []
    for m in range(4):
        c = 0.5 * _QUARTER[(m * turns) % 4]
        c[fixed] = 1.0 if m == 0 else 0.0
        dim = size if m == 0 else n4    # sectors m != 0 have no fixed nodes
        block = sp.csr_matrix((terms * c[i].conj() * c[j], (col[i], col[j])),
                              shape=(size, size))[:dim, :dim]
        basis = sp.csr_matrix((c, (rows, col)), shape=(n, size))[:, :dim]
        sectors.append((HermitianOperator.from_matrix(
            0.5 * (block + block.conj().T)), basis))
    return sectors


# ── The sliced driver ──────────────────────────────────────────────────────


def _sliced(op, lo, hi, na, nb, tol, seed, return_vectors, what,
            window=None, keep=None, sectors=None):
    """SpectrumResult of the nb - na eigenvalues in [lo, hi), the census
    given by the inertia counts na at lo and nb at hi; the lowest keep of
    them when keep is set.  what names the query in info.message.

    The parts solved are op alone or, with sectors, the [(H_m, B_m)] of
    _rotation_sectors, each counted at lo and hi; the sector counts must add
    up to na and nb.  Inertia bisection splits each part's [lo, hi) into
    slices of at most _SLICE_MAX, solved by shift-invert Lanczos; a pair
    found in H_m is embedded as B_m v, and its residual is computed on H.
    Unusable counts, or a mark under the count rule on op or a sector, give
    no pairs and certified=False.  Otherwise the result is certified when
    the pieces add up to the census and every residual meets tol.  When a
    slice runs out of restarts, raises NonConvergence carrying the result.
    """
    rng = np.random.default_rng(seed)
    floor = 1e-10 * _ledger(op).scale   # narrower sub-windows are not split
    parts = sectors or [(op, None)]
    counts = [(na, nb)] if sectors is None else [
        (_count(sub, lo, -1.0), _count(sub, hi)) for sub, _ in sectors]
    books = [_ledger(op)] + [_ledger(sub) for sub, _ in sectors or ()]
    pieces = []
    problems = []
    matvecs = 0
    converged = True
    if any(c is None for pair in [(na, nb), *counts] for c in pair):
        problems.append("inertia factorization infeasible")
    elif tuple(map(sum, zip(*counts))) != (na, nb):
        problems.append(f"sector counts {counts} at {lo}, {hi} do not "
                        f"add up to {na}, {nb}")
    census = None if problems else nb - na
    stack = [] if problems else [(s, lo, hi, *counts[s])
                                 for s in reversed(range(len(parts)))]
    while stack and converged and not any(b.conflict for b in books):
        s, p, q, np_, nq = stack.pop()
        sub, basis = parts[s]
        m = nq - np_
        if m == 0:
            continue
        if m <= _SLICE_MAX or q - p <= floor:
            vals, res, vecs, mv, converged = _slice_eigs(
                sub, p, q, m, tol, rng, return_vectors or basis is not None)
            if basis is not None:
                vecs = basis @ vecs
                res = _residuals(op, vals, vecs)
            matvecs += mv
            pieces.append((vals, res, vecs))
            continue
        mid = 0.5 * (p + q)
        nm = _count(sub, mid)
        if nm is None:
            # fall back to a generic interior point
            mid = p + 0.61803 * (q - p)
            nm = _count(sub, mid)
        if nm is None:
            problems.append(f"inertia infeasible inside [{p}, {q}]")
            continue
        stack.append((s, p, mid, np_, nm))
        stack.append((s, mid, q, nm, nq))
    conflict = next((b.conflict for b in books if b.conflict), None)
    if conflict:
        problems, pieces, census = [conflict], [], None
    vals, res, vecs = _empty_pairs(op.n)
    if pieces:
        vals = np.concatenate([x[0] for x in pieces])
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        res = np.concatenate([x[1] for x in pieces])[order]
        if return_vectors:
            vecs = np.concatenate([x[2] for x in pieces], axis=1)[:, order]
    if census is not None and converged and len(vals) != census:
        problems.append(f"recovered {len(vals)} eigenvalues, census {census}")
    if converged and np.any(res > tol):
        problems.append(f"{np.count_nonzero(res > tol)} residuals above "
                        f"tol={tol}")
    how = ("shift-invert slices" if sectors is None
           else f"shift-invert slices of {len(parts)} rotation sectors")
    claim = f"{what}: {how}, inertia-certified count {census}"
    message = (f"{what}: not certified: {'; '.join(problems)}" if problems
               else claim)
    info = SolverInfo("lanczos", matvecs, tol, converged, message, len(parts))
    result = SpectrumResult(vals[:keep], res[:keep], info,
                            vecs[:, :keep] if return_vectors else None,
                            certified=converged and not problems,
                            window=window)
    if not converged:
        raise NonConvergence(
            f"{claim}: not every slice reached tol={tol} (worst residual "
            f"{np.max(result.residuals, initial=0.0):.2e})", result)
    return result


def _lowest_sliced(op, k, tol, seed, return_vectors):
    """Lowest k: bracket them by inertia counts, then solve the bracket.

    The bracket starts from op's ledger: 0 below the Gershgorin bound lo, n
    below top, just above hi, and every count already recorded on op.  The
    highest recorded shift with fewer than k is the lower end below, and
    the lowest with at least k the upper shift s; only the counts still
    missing are taken.  While s is top, it is widened from lo, first to
    where a uniform spread over [lo, hi] would hold target = max(2k, k +
    16), the census the bracket accepts, and doubled until at least k lie
    below it.  Then it is halved until the census is at most target, until
    s - below is under _SHIFT_GAP max|diag H| (the width at which slices
    treat eigenvalues as one cluster, which counts inside it cannot split),
    or until a count breaks the count rule.  The lowest k found by _sliced
    in [lo, s) are the lowest k.
    """
    book = _ledger(op)
    lo, hi = book.lo, book.hi
    top = hi + _EDGE_PAD * book.scale
    target = max(2 * k, k + 16)
    below = lo                      # the highest shift with fewer than k
    s, ns = top, op.n               # the lowest shift with at least k
    for t, _, nt in book.entries:
        if nt >= k:
            if t < s:
                s, ns = t, nt
            break
        below = max(below, t)
    width = max((hi - lo) * target / op.n, 1e-8 * book.scale)
    halvings = 0
    while book.conflict is None:
        # widen until a count reaches k or the next shift would pass top
        widening = s == top and lo + width < top
        if widening:
            t = lo + width
            width *= 2.0
            if t <= below:
                continue
        else:
            t = 0.5 * (below + s)
            if (halvings == _BISECT_STEPS or ns <= target
                    or s - below < _SHIFT_GAP * book.scale
                    or not below < t < s):
                break
            halvings += 1
        nt = _count(op, t)
        if nt is None:
            if widening:
                continue
            break
        if nt >= k:
            s, ns = t, nt
        else:
            below = t
    return _sliced(op, lo, s, 0, ns, tol, seed, return_vectors,
                   f"lowest-{k} below {s:.6g}", keep=k)


def _check_knobs(tol, seed):
    # a residual can never reach a tol <= 0, so every restart would be spent
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    # numpy refuses a negative seed only at the first slice, after its LU
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def eigs_lowest(op, k, tol=1e-8, seed=0, method="lanczos",
                return_vectors=True):
    """k smallest eigenvalues with residual certificates.

    method "lanczos" brackets them by inertia counts and solves the bracket
    by shift-invert Lanczos slices in _sliced; "dense" is the LAPACK oracle.
    The bracket starts from the counts op's ledger already holds, from
    earlier queries on op or from probes.hermitian_shift, and stops halving
    once it is narrower than _SHIFT_GAP * max|diag H|: a cluster that narrow
    is solved whole, so the census may then exceed max(2k, k + 16).
    The sliced result is certified when its counts obey the count rule and
    the pieces add up to the inertia census of the bracket; otherwise
    certified is False and info.message says why.  On non-convergence raises
    NonConvergence carrying the partial result.
    """
    if k < 1 or k > op.n:
        raise ValueError(f"k must be in 1..{op.n}, got {k}")
    _check_knobs(tol, seed)
    if method not in ("lanczos", "dense"):
        raise ValueError(f"unknown method {method!r}")
    if method == "dense":
        return _dense_lowest(op, k, tol, return_vectors)
    return _lowest_sliced(op, k, tol, seed, return_vectors)


def eigs_window(op, a, b, tol=1e-8, cap=2000, seed=0, method="lanczos",
                return_vectors=False):
    """Every eigenvalue in the closed window [a, b], with certified
    completeness when possible.

    Both methods widen the edges outward by _EDGE_PAD * max|diag H|.  With
    method "lanczos", inertia counts at the widened edges fix the census and
    _sliced recovers the pairs by shift-invert Lanczos slices, of the four
    rotation sectors when op commutes with its quarter turn, has at least
    _SECTOR_MIN_ROWS rows and the census is not empty.  Method "dense"
    filters a full LAPACK solve and is the oracle.
    Raises WindowOverflow when the census exceeds cap, before any sector is
    built, and NonConvergence carrying the partial result when a slice does
    not converge.  result.certified reports whether the census was proven;
    when it was not, info.message says why, and unusable edge counts, or
    counts against the count rule, give no pairs.  info.sectors is 4 on the
    sector path, else 1.
    """
    if not b >= a:
        raise ValueError(f"empty window: [{a}, {b}]")
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    _check_knobs(tol, seed)
    if method not in ("lanczos", "dense"):
        raise ValueError(f"unknown method {method!r}")
    pad = _EDGE_PAD * _ledger(op).scale
    lo, hi = a - pad, b + pad
    if method == "dense":
        return _dense_window(op, a, b, lo, hi, tol, cap, return_vectors)
    na = _count(op, lo, -1.0)
    nb = _count(op, hi)
    usable = na is not None and nb is not None
    if usable and nb - na > cap:
        raise WindowOverflow(
            f"window [{a}, {b}] holds {nb - na} eigenvalues, cap is {cap}",
            nb - na)
    sectors = (_rotation_sectors(op)
               if usable and nb > na and op.n >= _SECTOR_MIN_ROWS else None)
    return _sliced(op, lo, hi, na, nb, tol, seed, return_vectors,
                   f"window [{a}, {b}]", window=(a, b), sectors=sectors)
