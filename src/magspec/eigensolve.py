"""Spectral queries on Hermitian lattice operators.

Two query styles, both answered by one certified path at every size:

* eigs_lowest  -- k smallest eigenvalues.  A Gershgorin lower bound, where
  the inertia count is 0, and an upper shift widened and then bisected by
  inertia counts bracket a window holding at least k eigenvalues; the window
  is solved as below and its lowest k are kept.
* eigs_window  -- every eigenvalue in the closed window [a, b].  Inertia
  counts at the edges fix the census, inertia bisection splits it into
  slices, and shift-invert Lanczos recovers the pairs of each slice.

method is "lanczos" (the sliced path, the default) or "dense" (LAPACK, kept
only as the oracle that tests compare against).  Both paths widen a
window's edges outward by _EDGE_PAD * max|diag H|, so an eigenvalue on an
edge is kept.  Completeness is certified by inertia counts, read from the
diagonal pivots of _factor, the one sparse LU of H - sigma I that the
slices and the resolvent probes also solve with (there with threshold
pivots): the recovered pieces must add up to the census.  When no
symmetric factorization succeeds, or the counts are inconsistent, results
are returned with certified=False and the reason in info.message rather
than silently trusted.

Every reported pair carries an explicitly computed residual
|| H v - lambda v || / || v || (BLAS 2-norms, column by column), and only
that residual certifies a pair.  A shift-invert cycle stops once residual
estimates read off the Krylov relation say the slice census can be met;
the explicit residuals then decide, and the cycle extends if they refuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import splu

_SLICE_MAX = 110          # eigenvalues per shift-invert slice
_BREAKDOWN = 1e-13
_BISECT_STEPS = 60        # halvings of the lowest-k bracket before settling
_EDGE_PAD = 1e-12         # window pad and first inertia nudge, x max|diag H|
_CHECK_EVERY = 8          # Krylov steps between looks at the Ritz estimates
_SHIFT_GAP = 1e-7         # slice width below which the shift is placed as if
                          # this wide, x max|diag H|
_SOLVE_PIVOT = 0.1        # least diagonal pivot of the solves' LU, x column


@dataclass
class SolverInfo:
    method: str                 # "dense" or "lanczos"
    iterations: int
    tolerance: float
    converged: bool
    message: str = ""


@dataclass
class SpectrumResult:
    """Eigenvalues in ascending order with residual certificates."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    info: SolverInfo
    eigenvectors: np.ndarray = None
    meta: dict = field(default_factory=dict)
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


def _operator_scale(mat):
    return float(np.max(np.abs(mat.diagonal()))) or 1.0


def _gershgorin_bounds(mat):
    """(lo, hi) with every eigenvalue of the Hermitian mat in [lo, hi]."""
    diag = mat.diagonal()
    radius = np.asarray(abs(mat).sum(axis=1)).ravel() - np.abs(diag)
    return float(np.min(diag.real - radius)), float(np.max(diag.real + radius))


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


def inertia_count(op, s, _scale=None, direction=1.0):
    """Number of eigenvalues of op strictly below s, or None if uncertifiable.

    Computed from the sign pattern of the pivots of a symmetric-pivot sparse
    factorization of H - s I.  If the factorization cannot be trusted (shift
    too close to an eigenvalue), the shift is nudged a few times before
    giving up.  direction controls which way the nudge moves: counting for
    the lower edge of a closed window must nudge down, so that an eigenvalue
    sitting exactly on the edge stays inside the window, while an upper edge
    must nudge up for the same reason.
    """
    mat = op.mat.tocsc()
    scale = _scale if _scale is not None else _operator_scale(mat)
    nudge = _EDGE_PAD * scale * (1.0 if direction >= 0 else -1.0)
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


# ── Dense paths ────────────────────────────────────────────────────────────


def _dense_lowest(op, k, tol, return_vectors):
    w, v = sla.eigh(op.dense(), subset_by_index=(0, k - 1))
    res = _residuals(op, w, v)
    info = SolverInfo("dense", 0, tol, True)
    return SpectrumResult(w, res, info, v if return_vectors else None,
                          dict(op.meta))


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
                          dict(op.meta), certified=True, window=(a, b))


# ── Lanczos with full reorthogonalization ──────────────────────────────────


class _Krylov:
    """Orthonormal basis plus the exact projected matrix, grown column-wise.

    Full reorthogonalization (two classical Gram-Schmidt passes against the
    entire basis) keeps the projection exact, which is what stops ghost
    copies inside near-degenerate Landau clusters.  Projections are formed
    as (w^H Q)^H, which reads the basis in place; Q^H w would copy it.
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

    def seed_vector(self, v=None):
        v = self._random_unit() if v is None else v / np.linalg.norm(v)
        if self.m > 0:
            Q = self.Q[:, :self.m]
            for _ in range(2):
                v = v - Q @ (v.conj() @ Q).conj()
            nv = np.linalg.norm(v)
            if nv < _BREAKDOWN:
                return False
            v = v / nv
        self.Q[:, self.m] = v
        self.m += 1
        return True

    def extend(self, apply_op):
        """One Lanczos step from the last basis vector."""
        m = self.m
        Q = self.Q[:, :m]
        w = apply_op(self.Q[:, m - 1])
        c_total = np.zeros(m, dtype=complex)
        for _ in range(2):
            c = (w.conj() @ Q).conj()
            w = w - Q @ c
            c_total += c
        self.P[:m, m - 1] = c_total
        self.P[m - 1, :m] = np.conj(c_total)
        beta = np.linalg.norm(w)
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


def _slice_eigs(op, p, q, m_expect, tol, rng, max_restarts=80):
    """All m_expect eigenvalues in [p, q) by shift-invert Lanczos.

    Returns (values, residuals, vectors, matvecs, converged).  When the
    restarts run out, converged is False and the best m_expect candidates of
    the last cycle (smallest residuals) are returned instead.
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
    sigma = p + 0.5137 * max(q - p, _SHIFT_GAP * _operator_scale(op.mat))
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

    matvecs = 0
    best = _empty_pairs(n)
    for cycle in range(max_restarts):
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
                    return vals[sel], res[sel], vecs[:, sel], matvecs, True
        theta, y, lam, cand = candidates()
        if np.any(cand):
            vals, res, vecs, sel = certify(y, lam, cand)
            if sel is not None:
                return vals[sel], res[sel], vecs[:, sel], matvecs, True
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
    return vals[sel], res[sel], vecs[:, sel], matvecs, False


def _sliced(op, a, b, na, nb, tol, rng, scale):
    """The nb - na eigenvalues in [a, b), given the inertia counts na at a and
    nb at b: inertia bisection down to slices of at most _SLICE_MAX, then
    shift-invert Lanczos per slice.

    Returns (values, residuals, vectors, matvecs, problem, converged), sorted
    by value.  problem is "" when the census is proven: every bisection count
    lies between the counts of its sub-window's ends and the recovered pieces
    add up to nb - na.  Otherwise it names what failed.  converged is False
    when a slice ran out of restarts; the pairs are then those found so far.
    """
    floor = 1e-10 * scale           # narrower sub-windows are not split
    pieces = []
    problems = []
    matvecs = 0
    converged = True
    stack = [(a, b, na, nb)]
    while stack and converged:
        p, q, np_, nq = stack.pop()
        m = nq - np_
        if m == 0:
            continue
        if m <= _SLICE_MAX or q - p <= floor:
            vals, res, vecs, mv, converged = _slice_eigs(op, p, q, m, tol, rng)
            matvecs += mv
            pieces.append((vals, res, vecs))
            continue
        mid = 0.5 * (p + q)
        nm = inertia_count(op, mid, _scale=scale)
        if nm is None:
            # fall back to a generic interior point
            mid = p + 0.61803 * (q - p)
            nm = inertia_count(op, mid, _scale=scale)
        if nm is None:
            problems.append(f"inertia infeasible inside [{p}, {q}]")
            continue
        if not np_ <= nm <= nq:
            problems.append(f"non-monotone inertia counts {np_}, {nm}, {nq} "
                            f"at {p}, {mid}, {q}")
            continue
        stack.append((p, mid, np_, nm))
        stack.append((mid, q, nm, nq))
    if pieces:
        vals = np.concatenate([x[0] for x in pieces])
        res = np.concatenate([x[1] for x in pieces])
        vecs = np.concatenate([x[2] for x in pieces], axis=1)
    else:
        vals, res, vecs = _empty_pairs(op.n)
    order = np.argsort(vals, kind="stable")
    if converged and len(vals) != nb - na:
        problems.append(f"recovered {len(vals)} eigenvalues, census {nb - na}")
    return (vals[order], res[order], vecs[:, order], matvecs,
            "; ".join(problems), converged)


def _sliced_result(op, found, tol, return_vectors, claim, window=None):
    """SpectrumResult from the output of _sliced, certified when the census
    claim held; raises NonConvergence carrying it when a slice did not
    converge."""
    vals, res, vecs, matvecs, problem, converged = found
    message = f"{claim} not reached: {problem}" if problem else claim
    info = SolverInfo("lanczos", matvecs, tol, converged, message)
    result = SpectrumResult(vals, res, info, vecs if return_vectors else None,
                            dict(op.meta), certified=converged and not problem,
                            window=window)
    if not converged:
        raise NonConvergence(
            f"{claim}: not every slice reached tol={tol} "
            f"(worst residual {np.max(res, initial=0.0):.2e})", result)
    return result


def _window_sliced(op, a, b, lo, hi, tol, cap, seed, return_vectors):
    """Certified window query: inertia counts at the padded edges lo and hi,
    inertia bisection and per-slice shift-invert over [lo, hi)."""
    rng = np.random.default_rng(seed)
    scale = _operator_scale(op.mat)
    na = inertia_count(op, lo, _scale=scale, direction=-1.0)
    nb = inertia_count(op, hi, _scale=scale, direction=1.0)
    if na is None or nb is None or nb < na:
        why = ("inertia factorization infeasible" if na is None or nb is None
               else f"non-monotone inertia counts {na}, {nb} at the edges")
        vals, res, vecs = _empty_pairs(op.n)
        info = SolverInfo("lanczos", 0, tol, True, f"{why}; counts uncertified")
        return SpectrumResult(vals, res, info, vecs if return_vectors else None,
                              dict(op.meta), certified=False, window=(a, b))
    m_w = nb - na
    if m_w > cap:
        raise WindowOverflow(
            f"window [{a}, {b}] holds {m_w} eigenvalues, cap is {cap}", m_w)
    found = _sliced(op, lo, hi, na, nb, tol, rng, scale)
    return _sliced_result(op, found, tol, return_vectors,
                          f"window [{a}, {b}]: shift-invert slices, "
                          f"inertia-certified count {m_w}", window=(a, b))


def _lowest_sliced(op, k, tol, seed, return_vectors):
    """Lowest k: bracket them by inertia counts, then solve the bracket.

    Nothing lies below the Gershgorin bound lo.  An upper shift s is widened
    geometrically until at least k eigenvalues lie below it, then bisected
    down until the census is small.  Every eigenvalue in [lo, s) is found by
    the window machinery, so the lowest k of them are the lowest k of op.
    """
    n = op.n
    rng = np.random.default_rng(seed)
    scale = _operator_scale(op.mat)
    lo, hi = _gershgorin_bounds(op.mat)
    # above hi every eigenvalue is below the shift, with no factorization
    top = hi + _EDGE_PAD * scale
    target = max(2 * k, k + 16)
    below = lo                      # a shift with fewer than k below it
    width = max((hi - lo) * k / n, 1e-8 * scale)
    while True:
        s = lo + width
        if s >= top:
            s, ns = top, n
            break
        ns = inertia_count(op, s, _scale=scale)
        if ns is not None and ns >= k:
            break
        if ns is not None:
            below = s
        width *= 2.0
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (below + s)
        if ns <= target or not below < mid < s:
            break
        nm = inertia_count(op, mid, _scale=scale)
        if nm is None:
            break
        if nm >= k:
            s, ns = mid, nm
        else:
            below = mid
    vals, res, vecs, *rest = _sliced(op, lo, s, 0, ns, tol, rng, scale)
    return _sliced_result(op, (vals[:k], res[:k], vecs[:, :k], *rest), tol,
                          return_vectors,
                          f"lowest-{k}: shift-invert slices below {s:.6g}, "
                          f"inertia-certified count {ns}")


def eigs_lowest(op, k, tol=1e-8, seed=0, method="lanczos",
                return_vectors=True):
    """k smallest eigenvalues with residual certificates.

    method "lanczos" brackets them by inertia counts and solves the bracket
    by shift-invert Lanczos slices; "dense" is the LAPACK oracle.  The sliced
    result is certified when the pieces add up to the inertia census of the
    bracket; otherwise certified is False and info.message says why.  On
    non-convergence raises NonConvergence carrying the partial result.
    """
    if k < 1 or k > op.n:
        raise ValueError(f"k must be in 1..{op.n}, got {k}")
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
    shift-invert Lanczos slices recover the pairs; "dense" filters a full
    LAPACK solve and is the oracle.  Raises WindowOverflow when the census
    exceeds cap, and NonConvergence carrying the partial result when a slice
    does not converge.  result.certified reports whether the census was
    proven; when it was not, info.message says why, and unusable edge counts
    give no pairs.
    """
    if not b >= a:
        raise ValueError(f"empty window: [{a}, {b}]")
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    if method not in ("lanczos", "dense"):
        raise ValueError(f"unknown method {method!r}")
    pad = _EDGE_PAD * _operator_scale(op.mat)
    lo, hi = a - pad, b + pad
    if method == "dense":
        return _dense_window(op, a, b, lo, hi, tol, cap, return_vectors)
    return _window_sliced(op, a, b, lo, hi, tol, cap, seed, return_vectors)
