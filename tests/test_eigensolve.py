import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from magspec import eigensolve
from magspec.assembly import HermitianOperator, assemble, direct_sum
from magspec.eigensolve import (NonConvergence, WindowOverflow, eigs_lowest,
                                eigs_window, inertia_count, residual)
from magspec.fields import FieldSpec, link_phases
from magspec.geometry import BoxObstacle, DiskObstacle, DomainSpec, build_grid


def _chain(n, h=1.0):
    m = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) / h**2
    return HermitianOperator.from_matrix(m, h=h, dimension=1)


def _random_herm(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianOperator.from_matrix((a + a.conj().T) / 2)


def _lattice_op(h=0.25, b=1.0, R=3.0, gamma=0.5):
    spec = DomainSpec(dimension=2, truncation_radius=R,
                      obstacle=DiskObstacle((0.0, 0.0), 1.0))
    g = build_grid(spec, h)
    ph = link_phases(g, FieldSpec.constant(b))
    return assemble(g, ph, region="omega", gamma=gamma)


@pytest.fixture
def any_size(monkeypatch):
    """Rotation sectors at every size, so that small operators take them."""
    monkeypatch.setattr(eigensolve, "_SECTOR_MIN_ROWS", 0)


# ── Residuals ──────────────────────────────────────────────────────────────


def test_residual_of_exact_pair():
    op = _random_herm(40, 0)
    w, v = np.linalg.eigh(op.dense())
    assert residual(op, w[0], v[:, 0]) < 1e-13
    assert residual(op, w[0] + 0.1, v[:, 0]) == pytest.approx(0.1, rel=1e-10)


def test_residual_rejects_zero_vector():
    op = _random_herm(5, 1)
    with pytest.raises(ValueError):
        residual(op, 1.0, np.zeros(5))


def test_residual_matches_compensated_sum():
    # BLAS norms against an exactly rounded sum of squares, on plain and on
    # badly scaled vectors (entries spread over 60 decades)
    op = _random_herm(60, 8)
    rng = np.random.default_rng(8)
    for spread in (0.0, 30.0):
        for _ in range(10):
            v = rng.normal(size=60) + 1j * rng.normal(size=60)
            v *= 10.0 ** rng.uniform(-spread, spread, size=60)
            value = float(rng.normal()) * 10.0 ** rng.uniform(-spread, spread)
            r = op.mat @ v - value * v
            want = math.sqrt(math.fsum((r * r.conj()).real)
                             / math.fsum((v * v.conj()).real))
            assert residual(op, value, v) == pytest.approx(want, rel=1e-12)


# ── Inertia counts ─────────────────────────────────────────────────────────


def test_inertia_matches_dense_counts():
    op = _lattice_op(h=0.3)
    w = np.linalg.eigvalsh(op.dense())
    for s in (0.5, 1.0, 2.8, 6.3):
        assert inertia_count(op, s) == int(np.sum(w < s))


def test_inertia_on_indefinite_matrix():
    op = _random_herm(80, 4)
    w = np.linalg.eigvalsh(op.dense())
    s = 0.5 * (w[39] + w[40])
    assert inertia_count(op, s) == 40


def _dense_count(op, s):
    return int(np.sum(np.linalg.eigvalsh(op.dense()) < s))


def test_window_in_one_slice_costs_two_factorisations(lu_counter):
    # the lower edge of [0, b] lies below the Gershgorin bound of a
    # nonnegative lattice operator: the upper edge and the slice factorise
    op = _lattice_op(h=0.25)
    want = eigs_window(op, 0.0, 4.0, method="dense")
    got = eigs_window(op, 0.0, 4.0, tol=1e-9, method="lanczos")
    _assert_matches_oracle(got, want, 1e-9)
    assert got.k <= eigensolve._SLICE_MAX
    assert len(lu_counter) == 2


def test_negative_gamma_edges_above_the_bound_factorise(lu_counter):
    # gamma < 0 pulls eigenvalues below 0 and the Gershgorin bound further
    # down: edges above the bound are counted from a factorisation, also
    # those below 0 and those just above the bound.  Each window is solved
    # on a fresh copy, whose ledger holds no edge count yet
    base = _lattice_op(h=0.3, gamma=-1.0)
    lo, _ = eigensolve._gershgorin_bounds(base.mat)
    w = np.linalg.eigvalsh(base.dense())
    assert lo < w[0] < w[1] < 0.0
    pad = eigensolve._EDGE_PAD * eigensolve._ledger(base).scale
    for a, b in ((0.5 * (w[0] + w[1]), 3.0), (0.0, 3.0),
                 (lo + 1.5 * pad, 1.0)):
        op = dataclasses.replace(base)
        lu_counter.clear()
        want = eigs_window(op, a, b, method="dense")
        got = eigs_window(op, a, b, tol=1e-9, method="lanczos")
        _assert_matches_oracle(got, want, 1e-9)
        assert len(lu_counter) == 3, (a, b)


def test_eigenvalues_on_the_bounds_are_counted():
    # diag(0, 1, 2) has its extreme eigenvalues exactly on its Gershgorin
    # bounds: a shift within the rounding margin above 0 or below 2 still
    # counts them, and so does a window starting at 0
    op = HermitianOperator.from_matrix(sp.diags([0.0, 1.0, 2.0]))
    lo, hi = eigensolve._gershgorin_bounds(op.mat)
    margin = -lo
    pad = eigensolve._EDGE_PAD * eigensolve._ledger(op).scale
    assert 0.0 < margin < 0.01 * pad and 0.0 < hi - 2.0 < 0.01 * pad
    # a shift closer to an eigenvalue than the pivots can resolve is nudged
    # along direction, so the one just below 2 is nudged down
    for s, direction in ((-2.0 * margin, 1.0), (0.5 * margin, 1.0),
                         (0.5 * pad, 1.0), (1.5, 1.0), (2.0 - 0.5 * pad, -1.0),
                         (2.0 - 0.5 * margin, -1.0), (2.0 + 2.0 * margin, 1.0)):
        got = inertia_count(op, s, direction=direction)
        assert got == _dense_count(op, s), s
    for a, b in ((0.0, 1.0), (0.0, 0.0), (1.0, 2.0)):
        want = eigs_window(op, a, b, method="dense")
        got = eigs_window(op, a, b, tol=1e-9, method="lanczos")
        _assert_matches_oracle(got, want, 1e-9)
    assert np.allclose(eigs_window(op, 0.0, 1.0).eigenvalues, [0.0, 1.0])


def _magnitude_rounded_down():
    """z = x + iy, small integers, whose computed |z| is below the exact one,
    and that computed |z|."""
    for x in range(1, 8):
        for y in range(1, 8):
            z = complex(x, y)
            h = float(np.abs(np.array([z]))[0])
            if Fraction(h) ** 2 < x * x + y * y:
                return z, h
    raise AssertionError("every magnitude rounded up")


def test_shift_within_the_margin_factorises(lu_counter):
    # [[h, -z], [-conj(z), h]] with h the computed |z|, rounded down: the
    # computed Gershgorin bound is h - h = 0, yet the exact lowest eigenvalue
    # h - |z| lies below it by rounding.  Halfway between them one eigenvalue
    # lies below the shift, and only the factorisation may count it
    z, h = _magnitude_rounded_down()
    op = HermitianOperator.from_matrix(np.array([[h, -z],
                                                 [-z.conjugate(), h]]))
    z2 = Fraction(z.real) ** 2 + Fraction(z.imag) ** 2
    s = float((Fraction(h) ** 2 - z2) / (4 * Fraction(h)))
    assert s < 0.0 and (Fraction(h) - Fraction(s)) ** 2 < z2
    assert inertia_count(op, s) == 1
    assert len(lu_counter) >= 1
    lu_counter.clear()
    assert inertia_count(op, eigensolve._gershgorin_bounds(op.mat)[0] * 2) == 0
    assert not lu_counter


def test_whole_spectrum_window_factorises_only_its_slice(lu_counter):
    # both edges lie outside the Gershgorin bounds: the counts are 0 and n
    # with no factorisation, and only the slice's solves factorise
    op = _random_herm(12, 1)
    lo, hi = eigensolve._gershgorin_bounds(op.mat)
    want = eigs_window(op, lo - 1.0, hi + 1.0, method="dense")
    got = eigs_window(op, lo - 1.0, hi + 1.0, tol=1e-9, method="lanczos")
    _assert_matches_oracle(got, want, 1e-9)
    assert got.k == op.n
    assert len(lu_counter) == 1


def test_lowest_k_costs_one_count_and_one_slice(lu_counter):
    # the operator of the lowest_lanczos benchmark: the first shift, sized
    # for the census of target = 21 the bracket accepts, counts 11, which
    # needs no halving, and one slice solves [lo, s)
    g = build_grid(DomainSpec(2, 8.0, "disk"), 0.5)
    op = assemble(g, link_phases(g, FieldSpec.radial_decay(1.0, 2.0)))
    got = eigs_lowest(op, 5, return_vectors=False)
    assert got.certified and "count 11" in got.info.message
    lo, hi = eigensolve._gershgorin_bounds(op.mat)
    w = (hi - lo) * 21 / op.n
    assert lu_counter == pytest.approx([lo + w, lo + 0.5137 * w], rel=1e-12)


# ── Lowest-k queries ───────────────────────────────────────────────────────


def test_chain_closed_form():
    n, h = 60, 0.1
    op = _chain(n, h)
    got = eigs_lowest(op, 12, return_vectors=False)
    want = 4.0 / h**2 * np.sin(np.arange(1, 13) * np.pi / (2 * (n + 1))) ** 2
    assert np.allclose(got.eigenvalues, want, rtol=1e-12)
    assert got.info.method == "lanczos"


def test_dense_lowest_matches_eigh():
    op = _random_herm(70, 2)
    res = eigs_lowest(op, 9, method="dense")
    want = np.linalg.eigvalsh(op.dense())[:9]
    assert np.allclose(res.eigenvalues, want, atol=1e-11)
    assert np.all(res.residuals < 1e-11)
    assert res.eigenvectors.shape == (70, 9)
    for i in range(9):
        assert residual(op, res.eigenvalues[i], res.eigenvectors[:, i]) \
            == pytest.approx(res.residuals[i], abs=1e-14)


def test_lanczos_matches_dense():
    op = _lattice_op(h=0.25)
    want = np.linalg.eigvalsh(op.dense())[:12]
    got = eigs_lowest(op, 12, tol=1e-9, method="lanczos", seed=3)
    assert np.allclose(got.eigenvalues, want, atol=1e-8)
    assert got.info.method == "lanczos"
    assert got.info.converged
    assert np.all(got.residuals <= 1e-9)


def test_lanczos_with_degenerate_lowest_cluster():
    # one Krylov sequence alone cannot see all six copies; the census check
    # has to notice the missing ones and force extra iterations
    d = np.concatenate([np.full(6, 2.0), np.linspace(3.0, 9.0, 114)])
    op = HermitianOperator.from_matrix(sp.diags(d))
    got = eigs_lowest(op, 8, tol=1e-9, method="lanczos", seed=1)
    assert got.certified
    assert np.allclose(got.eigenvalues[:6], 2.0, atol=1e-9)
    assert got.eigenvalues[6] == pytest.approx(3.0, abs=1e-8)


def test_lowest_validation():
    op = _random_herm(10, 3)
    with pytest.raises(ValueError):
        eigs_lowest(op, 0)
    with pytest.raises(ValueError):
        eigs_lowest(op, 11)
    with pytest.raises(ValueError):
        eigs_lowest(op, 2, method="arnoldi")
    with pytest.raises(ValueError):
        eigs_lowest(op, 2, method="auto")


@pytest.mark.parametrize("method", ["lanczos", "dense"])
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_bad_tol_is_refused_before_factorising(monkeypatch, method, tol):
    # no residual reaches a tol <= 0 or nan: the sliced path would spend
    # every restart before it raised NonConvergence
    def no_factor(*args, **kwargs):
        raise AssertionError("factorised before checking tol")

    monkeypatch.setattr(eigensolve, "_factor", no_factor)
    op = _lattice_op(h=0.3)
    with pytest.raises(ValueError, match="tol"):
        eigs_lowest(op, 5, tol=tol, method=method)
    with pytest.raises(ValueError, match="tol"):
        eigs_window(op, 0.0, 3.0, tol=tol, method=method)


def test_nonconvergence_carries_partial():
    op = _lattice_op(h=0.3)
    with pytest.raises(NonConvergence) as exc:
        # positive, but far below what rounding lets a residual reach
        eigs_lowest(op, 5, tol=1e-300, method="lanczos")
    part = exc.value.partial
    assert part is not None and not part.certified
    assert len(part.eigenvalues) == 5
    assert np.all(np.isfinite(part.eigenvalues))
    assert np.all(np.diff(part.eigenvalues) >= 0)
    assert not part.info.converged


# ── Window queries ─────────────────────────────────────────────────────────


def test_dense_window_closed_endpoints():
    op = HermitianOperator.from_matrix(sp.diags([0.0, 1.0, 2.0, 3.0]))
    res = eigs_window(op, 1.0, 2.0)
    assert np.allclose(res.eigenvalues, [1.0, 2.0])
    assert res.window == (1.0, 2.0)
    assert res.certified


def test_sliced_window_closed_endpoints():
    d = np.arange(81) * 0.0625             # exact binary grid: 1.0, 2.0 hit
    op = HermitianOperator.from_matrix(sp.diags(d))
    res = eigs_window(op, 1.0, 2.0, method="lanczos", seed=2)
    want = d[(d >= 1.0) & (d <= 2.0)]      # 17 values, both endpoints in
    assert res.certified
    assert res.k == 17
    assert np.allclose(np.sort(res.eigenvalues), want, atol=1e-9)


def test_sliced_window_matches_dense_on_lattice():
    op = _lattice_op(h=0.25)
    a, b = 0.0, 4.0
    dense = eigs_window(op, a, b, method="dense")
    sliced = eigs_window(op, a, b, method="lanczos", seed=0, tol=1e-9)
    assert sliced.certified
    assert sliced.k == dense.k
    assert np.allclose(np.sort(sliced.eigenvalues), dense.eigenvalues, atol=1e-8)
    assert np.all(sliced.residuals <= 1e-9)


def test_sliced_window_degenerate_clusters():
    d = np.concatenate([np.full(30, 1.0), np.full(45, 1.5), np.full(25, 2.0),
                        np.linspace(2.5, 40.0, 50)])
    op = HermitianOperator.from_matrix(sp.diags(d))
    res = eigs_window(op, 0.9, 2.1, method="lanczos", seed=5)
    assert res.certified
    assert res.k == 100
    assert int(np.sum(np.abs(res.eigenvalues - 1.0) < 1e-8)) == 30
    assert int(np.sum(np.abs(res.eigenvalues - 1.5) < 1e-8)) == 45
    assert int(np.sum(np.abs(res.eigenvalues - 2.0) < 1e-8)) == 25


def test_window_overflow():
    op = _random_herm(50, 6)
    w = np.linalg.eigvalsh(op.dense())
    with pytest.raises(WindowOverflow) as exc:
        eigs_window(op, w[0] - 1.0, w[-1] + 1.0, cap=10)
    assert exc.value.count == 50


def test_window_overflow_sliced():
    op = _lattice_op(h=0.3)
    with pytest.raises(WindowOverflow):
        eigs_window(op, 0.0, 50.0, cap=5, method="lanczos")


def test_window_validation():
    op = _random_herm(10, 7)
    with pytest.raises(ValueError):
        eigs_window(op, 2.0, 1.0)
    with pytest.raises(ValueError):
        eigs_window(op, 0.0, 1.0, cap=0)
    with pytest.raises(ValueError):
        eigs_window(op, 0.0, 1.0, method="filter")
    with pytest.raises(ValueError):
        eigs_window(op, 0.0, 1.0, method="sliced")
    with pytest.raises(ValueError):
        eigs_window(op, 0.0, 1.0, method="auto")


def test_window_vectors_and_residuals():
    op = _lattice_op(h=0.3)
    res = eigs_window(op, 0.0, 3.0, method="lanczos", return_vectors=True)
    assert res.eigenvectors is not None
    assert res.eigenvectors.shape == (op.n, res.k)
    for i in range(res.k):
        assert residual(op, res.eigenvalues[i], res.eigenvectors[:, i]) \
            == pytest.approx(res.residuals[i], abs=1e-12)


def test_empty_window():
    op = HermitianOperator.from_matrix(sp.diags([0.0, 5.0]))
    res = eigs_window(op, 1.0, 2.0)
    assert res.k == 0
    res2 = eigs_window(op, 1.0, 2.0, method="lanczos")
    assert res2.k == 0 and res2.certified


# ── Differential checks against the dense oracle ───────────────────────────

_ORACLE = settings(max_examples=15, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _problems(draw):
    shape = draw(st.sampled_from(["disk", "box"]))
    R = draw(st.floats(2.0, 2.8))
    if draw(st.booleans()):
        obstacle = DiskObstacle((0.0, 0.0), draw(st.floats(0.5, 1.0)))
    else:
        half = draw(st.floats(0.4, 0.8))
        obstacle = BoxObstacle((0.0, 0.0), (half, half))
    if draw(st.booleans()):
        field = FieldSpec.constant(draw(st.floats(0.0, 2.0)))
    else:
        field = FieldSpec.radial_decay(draw(st.floats(0.5, 2.0)),
                                       draw(st.floats(1.0, 3.0)))
    gamma = draw(st.floats(-1.0, 1.0))
    h = draw(st.sampled_from([0.3, 0.35]))
    g = build_grid(DomainSpec(2, R, shape, obstacle), h)
    return assemble(g, link_phases(g, field), region="omega", gamma=gamma)


def _assert_matches_oracle(got, want, tol):
    assert got.certified, got.info.message
    assert got.k == want.k
    assert np.allclose(got.eigenvalues, want.eigenvalues, atol=1e-8)
    assert np.all(got.residuals <= tol)


@_ORACLE
@given(op=_problems(), k=st.integers(1, 25),
       window=st.none() | st.tuples(st.floats(-2.0, 4.0), st.floats(0.0, 4.0)))
def test_lowest_matches_dense_oracle(op, k, window):
    # with a window query first, the ledger holds counts at both of its
    # edges, in both nudge directions, from which the bracket starts
    want = eigs_lowest(op, k, method="dense", return_vectors=False)
    if window is not None:
        a, width = window
        eigs_window(op, a, a + width, tol=1e-9)
    got = eigs_lowest(op, k, tol=1e-9, method="lanczos", return_vectors=False)
    _assert_matches_oracle(got, want, 1e-9)
    assert got.info.method == "lanczos"


@_ORACLE
@given(op=_problems(), a=st.floats(-2.0, 4.0), width=st.floats(0.0, 4.0))
def test_window_matches_dense_oracle(op, a, width):
    want = eigs_window(op, a, a + width, method="dense")
    got = eigs_window(op, a, a + width, tol=1e-9, method="lanczos")
    _assert_matches_oracle(got, want, 1e-9)


@pytest.mark.parametrize("op", [_random_herm(1, 0), _random_herm(12, 1),
                                _lattice_op(h=0.4), _lattice_op(h=0.2)],
                         ids=lambda op: f"n{op.n}")
def test_default_is_sliced_at_every_size(op):
    k = min(6, op.n)
    low = eigs_lowest(op, k, return_vectors=False)
    win = eigs_window(op, 0.0, 3.0)
    assert low.info.method == win.info.method == "lanczos"
    _assert_matches_oracle(low, eigs_lowest(op, k, method="dense"), 1e-8)
    _assert_matches_oracle(win, eigs_window(op, 0.0, 3.0, method="dense"), 1e-8)


def _small_cases():
    """Random Hermitian operators of every size up to 40 rows and two exact
    multiplets.  Once a shift-invert cycle's ceiling reaches n, its basis
    fills the space, and that basis must count as fully projected."""
    cases = [pytest.param(_random_herm(n, 100 + n), id=f"random-{n}")
             for n in range(1, 41)]
    for name, d in [("diag123", [1.0, 2.0, 3.0]), ("diag4x16", [4.0] * 16)]:
        cases.append(pytest.param(HermitianOperator.from_matrix(sp.diags(d)),
                                  id=name))
    return cases


@pytest.mark.parametrize("op", _small_cases())
def test_small_operators_match_dense_oracle(op):
    for k in range(1, op.n + 1):
        want = eigs_lowest(op, k, method="dense", return_vectors=False)
        got = eigs_lowest(op, k, tol=1e-9, method="lanczos",
                          return_vectors=False)
        _assert_matches_oracle(got, want, 1e-9)
    lo, hi = eigensolve._gershgorin_bounds(op.mat)
    for a, b in [(lo, hi), (lo - 1.0, hi + 1.0), (0.0, 4.0), (-0.5, 0.5)]:
        want = eigs_window(op, a, b, method="dense")
        got = eigs_window(op, a, b, tol=1e-9, method="lanczos")
        _assert_matches_oracle(got, want, 1e-9)


def test_lowest_multiplet_straddling_k():
    d = np.concatenate([np.full(6, 2.0), np.linspace(3.0, 9.0, 114)])
    op = HermitianOperator.from_matrix(sp.diags(d))
    got = eigs_lowest(op, 4, tol=1e-9, method="lanczos", seed=1)
    assert got.certified
    assert np.allclose(got.eigenvalues, 2.0, atol=1e-9)


def test_lowest_k_stops_halving_at_a_cluster(monkeypatch):
    # 40 eigenvalues within 4e-11 of 1, more than target = 21 and far
    # narrower than _SHIFT_GAP x max|diag H| = 1e-6: halving cannot split
    # them, so the bracket stops once it is that narrow and solves them whole
    d = np.concatenate([1.0 + np.linspace(0.0, 4e-11, 40),
                        np.linspace(2.0, 10.0, 300)])
    op = HermitianOperator.from_matrix(sp.diags(d))
    true_count = eigensolve.inertia_count
    shifts = []

    def counting(op, s, direction=1.0):
        shifts.append(s)
        return true_count(op, s, direction=direction)

    monkeypatch.setattr(eigensolve, "inertia_count", counting)
    got = eigs_lowest(op, 5, tol=1e-9, return_vectors=False)
    assert got.certified and "count 40" in got.info.message, got.info.message
    assert np.allclose(got.eigenvalues, d[:5], atol=1e-9)
    assert len(shifts) <= 25


def test_lowest_k_inside_a_landau_cluster():
    # free constant-field disk, R = 12, h = 0.25 (n = 7209): the 5th
    # eigenvalue lies in the lowest bulk Landau cluster of 32 states, where
    # counts are unproven; halving into it read "non-monotone inertia counts
    # 31, 28" after 28 LUs.  The lowest five must match a window solve of a
    # copy (no ledger, and no rotation, so one whole-operator slice), which
    # counts only at its edges
    g = build_grid(DomainSpec(2, 12.0, "disk"), 0.25)
    op = assemble(g, link_phases(g, FieldSpec.constant(1.0)))
    got = eigs_lowest(op, 5, return_vectors=False)
    assert got.certified and got.k == 5, got.info.message
    assert np.all(got.residuals <= 1e-8)
    want = eigs_window(dataclasses.replace(op, rotation=None), 0.0, 1.0)
    assert want.certified and want.k > 32
    assert np.allclose(got.eigenvalues, want.eigenvalues[:5], atol=1e-8)


def test_window_edges_on_lattice_eigenvalues():
    # both edges sit on eigenvalues (to rounding): the closed window keeps
    # them on both paths, though eigh may return an edge value an ulp outside
    # and an inertia count right at an edge may land on either side of it
    for op in (_lattice_op(h=0.3), _random_herm(120, 11)):
        w = np.linalg.eigvalsh(op.dense())
        for j in range(1, op.n - 7, 3):
            for method in ("lanczos", "dense"):
                got = eigs_window(op, float(w[j]), float(w[j + 7]), tol=1e-9,
                                  method=method, seed=j)
                assert got.certified, (j, method, got.info.message)
                assert got.k == 8, (j, method, got.k)
                assert np.allclose(got.eigenvalues, w[j:j + 8], atol=1e-8)
                assert np.all(got.residuals <= 1e-9)


def test_bisection_above_slice_max(monkeypatch):
    op = _lattice_op(h=0.3)
    shifts = []
    true_count = eigensolve.inertia_count

    def counting(op, s, **kwargs):
        shifts.append(s)
        return true_count(op, s, **kwargs)

    monkeypatch.setattr(eigensolve, "inertia_count", counting)
    k = eigensolve._SLICE_MAX + 20
    want = eigs_lowest(op, k, method="dense", return_vectors=False)
    got = eigs_lowest(op, k, tol=1e-9, method="lanczos", return_vectors=False)
    _assert_matches_oracle(got, want, 1e-9)
    # the first shift, sized for target = 260, counts 285; the bracket
    # halves twice, to 114 and then to s with 219; that census is then
    # bisected at the midpoint of [lo, s) and of the upper half
    lo, hi = eigensolve._gershgorin_bounds(op.mat)
    w = (hi - lo) * 2 * k / op.n
    s = lo + 0.75 * w
    mid = 0.5 * (lo + s)
    assert shifts == pytest.approx([lo + w, lo + 0.5 * w, s, mid,
                                    0.5 * (mid + s)], rel=1e-12)
    b = float(want.eigenvalues[-1]) + 0.05
    want = eigs_window(op, 0.0, b, method="dense")
    assert want.k > eigensolve._SLICE_MAX
    shifts.clear()
    got = eigs_window(op, 0.0, b, tol=1e-9, method="lanczos")
    _assert_matches_oracle(got, want, 1e-9)
    assert len(shifts) > 2          # the edges plus at least one bisection


def test_vectors_follow_their_values_across_slices():
    # pieces of several slices are merged and sorted by value: each vector
    # must stay with its value, and a query without vectors returns none
    op = _lattice_op(h=0.3)
    k = eigensolve._SLICE_MAX + 20
    got = eigs_lowest(op, k, tol=1e-9, method="lanczos", return_vectors=True)
    assert got.certified and got.eigenvectors.shape == (op.n, k)
    for i in range(k):
        assert residual(op, got.eigenvalues[i], got.eigenvectors[:, i]) \
            == pytest.approx(got.residuals[i], abs=1e-12)
    bare = eigs_lowest(op, k, tol=1e-9, method="lanczos", return_vectors=False)
    assert bare.eigenvectors is None
    assert np.allclose(bare.eigenvalues, got.eigenvalues, atol=1e-9)


def test_non_monotone_count_is_uncertified(monkeypatch):
    # a bisection count outside the counts of its sub-window's ends proves
    # nothing: the census must not be reported as certified
    d = np.linspace(0.0, 10.0, 300)
    op = HermitianOperator.from_matrix(sp.diags(d))
    true_count = eigensolve.inertia_count

    def faulty(op, s, direction=1.0):
        n = true_count(op, s, direction=direction)
        return n + 500 if 0.0 < s < 8.0 else n

    monkeypatch.setattr(eigensolve, "inertia_count", faulty)
    res = eigs_window(op, 0.0, 8.0, method="lanczos")
    assert not res.certified
    assert "non-monotone" in res.info.message


@pytest.mark.parametrize("d, k, bad", [
    # a halving midpoint counts more than the shift above it
    (np.concatenate([np.linspace(1.0, 1.1, 100), np.linspace(2.0, 10.0, 200)]),
     5, lambda s, n: n + 500 if s < 1.1 else n),
    # a widening shift counts fewer than the shift below it
    (np.concatenate([[0.0], np.linspace(5.0, 10.0, 299)]),
     5, lambda s, n: 0 if 1.0 < s < 2.0 else n),
], ids=["above", "below"])
def test_non_monotone_bracket_count_is_uncertified(monkeypatch, d, k, bad):
    # the lowest-k bracket holds its counts to the rule of window counts:
    # one out of order with a neighbouring shift proves no census, and the
    # query returns at once, without pairs, rather than chase a false census
    op = HermitianOperator.from_matrix(sp.diags(d))
    true_count = eigensolve.inertia_count

    def faulty(op, s, direction=1.0):
        return bad(s, true_count(op, s, direction=direction))

    monkeypatch.setattr(eigensolve, "inertia_count", faulty)
    res = eigs_lowest(op, k, method="lanczos")
    assert not res.certified and res.k == 0
    assert "non-monotone" in res.info.message


def test_uncertifiable_edge_counts_give_no_pairs(monkeypatch):
    # without a usable census at the edges nothing can be certified, so no
    # pairs are returned rather than an unchecked guess
    op = _lattice_op(h=0.3)
    true_count = eigensolve.inertia_count

    def infeasible_low(op, s, direction=1.0):
        return None if direction < 0 else true_count(op, s)

    monkeypatch.setattr(eigensolve, "inertia_count", infeasible_low)
    res = eigs_window(op, 0.0, 3.0, method="lanczos")
    assert not res.certified and res.k == 0
    assert "infeasible" in res.info.message

    def swapped(op, s, direction=1.0):
        return 40 if direction < 0 else 10

    monkeypatch.setattr(eigensolve, "inertia_count", swapped)
    res = eigs_window(op, 0.0, 3.0, method="lanczos")
    assert not res.certified and res.k == 0
    assert "non-monotone" in res.info.message


# ── The inertia ledger ─────────────────────────────────────────────────────


def test_bisection_count_checked_across_branches(monkeypatch, lu_counter):
    # the lowest-130 bracket of the h = 0.3 lattice counts 114 at its highest
    # shift below k and 219 at s; the first bisection point, halfway to s,
    # truly counts 77.  115 lies between the counts of its own sub-window's
    # ends, 0 and 219, but above the 114 counted higher up by the bracket:
    # the query must refuse it at once, not chase a census of 115
    op = _lattice_op(h=0.3)
    true_count = eigensolve.inertia_count
    shifts = []

    def faulty(op, s, direction=1.0):
        n = true_count(op, s, direction=direction)
        shifts.append(s)
        return 115 if len(shifts) == 4 else n

    monkeypatch.setattr(eigensolve, "inertia_count", faulty)
    res = eigs_lowest(op, eigensolve._SLICE_MAX + 20, return_vectors=False)
    assert not res.certified and res.k == 0
    assert "non-monotone inertia counts 115, 114" in res.info.message
    assert len(shifts) == 4 and lu_counter == shifts


def test_lowest_k_starts_from_recorded_counts(lu_counter):
    # a window query counted 10 at its upper edge: for the lowest 6 that
    # count is a bracket within target = 22, so only its slice factorises
    op = _lattice_op(h=0.3)
    w = np.linalg.eigvalsh(op.dense())
    b = 0.5 * (w[9] + w[10])
    assert eigs_window(op, 0.0, b).k == 10
    lu_counter.clear()
    got = eigs_lowest(op, 6, tol=1e-9, return_vectors=False)
    _assert_matches_oracle(got, eigs_lowest(op, 6, method="dense"), 1e-9)
    book = eigensolve._ledger(op)
    s = b + eigensolve._EDGE_PAD * book.scale
    assert lu_counter == pytest.approx([book.lo + 0.5137 * (s - book.lo)],
                                       rel=1e-12)


def test_lowest_k_widens_only_above_recorded_counts(lu_counter):
    # 3 eigenvalues near 0 and 297 in [9, 10]: a window [0, 8] counted 3,
    # fewer than k = 5, at 8.  The widening shifts at or below 8 are known
    # to count fewer than k, so none of them is counted again
    d = np.concatenate([[0.0, 0.05, 0.1], np.linspace(9.0, 10.0, 297)])
    op = HermitianOperator.from_matrix(sp.diags(d))
    assert eigs_window(op, 0.0, 8.0).k == 3
    lu_counter.clear()
    got = eigs_lowest(op, 5, tol=1e-9, return_vectors=False)
    _assert_matches_oracle(got, eigs_lowest(op, 5, method="dense"), 1e-9)
    assert min(lu_counter[:-1]) > 8.0       # the last LU is the slice's


def test_sector_window_computes_bounds_once_per_operator(any_size,
                                                         monkeypatch):
    # H and its four sector blocks each get their Gershgorin bounds once,
    # however many counts are taken on them
    true_bounds = eigensolve._gershgorin_bounds
    true_count = eigensolve.inertia_count
    bounded, counted = [], []

    def bounds(mat):
        bounded.append(id(mat))
        return true_bounds(mat)

    def counting(op, s, direction=1.0):
        counted.append(id(op.mat))
        return true_count(op, s, direction=direction)

    monkeypatch.setattr(eigensolve, "_gershgorin_bounds", bounds)
    monkeypatch.setattr(eigensolve, "inertia_count", counting)
    op = _lattice_op(h=0.25)
    got = eigs_window(op, 0.0, 4.0, tol=1e-9)
    assert got.certified and got.info.sectors == 4
    assert len(counted) >= 10
    assert len(bounded) == 5 and bounded[0] == id(op.mat)
    assert sorted(bounded) == sorted(set(counted))


def test_ledger_conflict_is_sticky(monkeypatch):
    # once two counts on an operator are out of order, nothing built on it
    # is certified again, even with honest counts; a copy starts afresh
    op = _lattice_op(h=0.3)
    true_count = eigensolve.inertia_count
    monkeypatch.setattr(eigensolve, "inertia_count",
                        lambda op, s, direction=1.0: 40 if direction < 0
                        else 10)
    assert not eigs_window(op, 0.0, 3.0).certified
    monkeypatch.setattr(eigensolve, "inertia_count", true_count)
    res = eigs_window(op, 0.0, 3.0)
    assert not res.certified and res.k == 0
    assert "non-monotone inertia counts 40, 10" in res.info.message
    assert not eigs_lowest(op, 3).certified
    fresh = eigs_window(dataclasses.replace(op), 0.0, 3.0)
    assert fresh.certified and fresh.k > 0


def test_copies_start_with_an_empty_ledger():
    # the ledger belongs to one matrix: copies start without it, and
    # equality ignores it
    spec = DomainSpec(dimension=2, truncation_radius=3.0,
                      obstacle=DiskObstacle((0.0, 0.0), 1.0))
    g = build_grid(spec, 0.3)
    ph = link_phases(g, FieldSpec.constant(1.0))
    omega = assemble(g, ph, region="omega", gamma=0.5)
    obstacle = assemble(g, ph, region="obstacle", gamma=0.5)
    for op in (omega, obstacle):
        eigs_window(op, -2.0, 3.0)
    shifts, directions, counts = zip(*omega._ledger.entries)
    assert list(zip(shifts, directions)) == sorted(zip(shifts, directions))
    assert list(counts) == sorted(counts)
    assert counts[0] == 0 and counts[-1] == omega.n and len(counts) > 2
    copy = dataclasses.replace(omega)
    for fresh in (copy, omega.shifted(1.0),
                  HermitianOperator.from_matrix(omega.mat),
                  direct_sum(omega, obstacle)):
        assert fresh._ledger is None
    assert omega == copy and omega._ledger is not None


def test_recovered_total_checked_against_census(monkeypatch):
    d = np.linspace(0.0, 10.0, 300)
    op = HermitianOperator.from_matrix(sp.diags(d))
    true_slice = eigensolve._slice_eigs

    def lossy(*args, **kwargs):
        vals, res, vecs, mv, ok = true_slice(*args, **kwargs)
        return vals[1:], res[1:], vecs[:, 1:], mv, ok

    monkeypatch.setattr(eigensolve, "_slice_eigs", lossy)
    res = eigs_window(op, 1.0, 3.0, method="lanczos")
    assert not res.certified
    assert "census" in res.info.message
    assert not eigs_lowest(op, 5, method="lanczos").certified


# ── The early stop of a shift-invert cycle ─────────────────────────────────


def _full_cycle(m):
    """Krylov steps of one shift-invert cycle run to its ceiling."""
    return max(2 * m + 30, 60)


def test_cycle_stops_before_its_ceiling():
    op = _lattice_op(h=0.25)
    want = eigs_window(op, 0.0, 4.0, method="dense")
    got = eigs_window(op, 0.0, 4.0, tol=1e-9, method="lanczos")
    _assert_matches_oracle(got, want, 1e-9)
    assert got.info.iterations < _full_cycle(got.k)


def test_estimates_cannot_certify(monkeypatch):
    # estimates that always read "converged" make the cycle look at every
    # check from m_expect columns on: only the explicit residuals may accept
    monkeypatch.setattr(eigensolve, "_ritz_estimates",
                        lambda mat, sigma, kry, theta, y: np.zeros_like(theta))
    op = _lattice_op(h=0.25)
    want = eigs_window(op, 0.0, 4.0, method="dense")
    got = eigs_window(op, 0.0, 4.0, tol=1e-9, method="lanczos",
                      return_vectors=True)
    _assert_matches_oracle(got, want, 1e-9)
    for i in range(got.k):
        assert residual(op, got.eigenvalues[i], got.eigenvectors[:, i]) <= 1e-9


def test_silent_estimates_run_the_full_cycle(monkeypatch):
    # estimates that never fire leave the cycle to end at its ceiling, where
    # the explicit residuals certify it as before the early stop existed
    op = _lattice_op(h=0.25)
    early = eigs_window(op, 0.0, 4.0, tol=1e-9, method="lanczos")
    monkeypatch.setattr(eigensolve, "_ritz_estimates",
                        lambda mat, sigma, kry, theta, y:
                        np.full_like(theta, np.inf))
    got = eigs_window(op, 0.0, 4.0, tol=1e-9, method="lanczos")
    want = eigs_window(op, 0.0, 4.0, method="dense")
    _assert_matches_oracle(got, want, 1e-9)
    assert got.info.iterations == _full_cycle(got.k)
    assert np.allclose(got.eigenvalues, early.eigenvalues, atol=1e-9)


def _chain_pair(N):
    """Kronecker sum of two identical N-chains and the chain's eigenvalues.

    mu_i + mu_j = mu_j + mu_i is an exact double eigenvalue for i != j, and
    mu_i + mu_(N-1-i) = 4 is N-fold.  One Krylov sequence sees a single copy
    of each at first.
    """
    chain = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(N, N))
    eye = sp.identity(N)
    kron_sum = sp.kron(chain, eye) + sp.kron(eye, chain)
    op = HermitianOperator.from_matrix(kron_sum, dimension=2)
    return op, 2.0 - 2.0 * np.cos(np.arange(1, N + 1) * np.pi / (N + 1))


@st.composite
def _multiplet_windows(draw):
    op, mu = _chain_pair(draw(st.integers(16, 22)))
    i, j = draw(st.lists(st.integers(0, len(mu) - 1), min_size=2, max_size=2,
                         unique=True))
    c = mu[i] + mu[j]
    return op, c - draw(st.floats(0.0, 0.5)), c + draw(st.floats(0.0, 0.5))


@_ORACLE
@given(problem=_multiplet_windows())
def test_window_with_exact_multiplet_matches_dense_oracle(problem):
    op, a, b = problem
    want = eigs_window(op, a, b, method="dense")
    got = eigs_window(op, a, b, tol=1e-9, method="lanczos")
    _assert_matches_oracle(got, want, 1e-9)


def test_zero_width_window_on_multiplet():
    # the slice is the padded window, 8e-12 wide: its shift must still keep
    # its distance from the double and from the 16-fold eigenvalue
    op, mu = _chain_pair(16)
    for c, copies in ((mu[0] + mu[2], 2), (mu[3] + mu[12], 16)):
        got = eigs_window(op, c, c, tol=1e-9, method="lanczos")
        assert got.certified and got.k == copies, got.info.message
        assert np.allclose(got.eigenvalues, c, atol=1e-9)
        assert np.all(got.residuals <= 1e-9)


def test_indefinite_windows_converge():
    # windows of an indefinite dense operator whose solves stalled at
    # residuals of 1e-9 to 2e-9 when the solves' LU forced diagonal pivots
    op = _random_herm(300, 5)
    w = np.linalg.eigvalsh(op.dense())
    for j in (107, 171, 177):
        got = eigs_window(op, float(w[j]), float(w[j + 7]), tol=1e-9,
                          method="lanczos", seed=j)
        assert got.certified and got.k == 8, (j, got.info.message)
        assert np.allclose(got.eigenvalues, w[j:j + 8], atol=1e-8)


def test_window_nonconvergence_carries_partial(any_size):
    op = _lattice_op(h=0.3)
    with pytest.raises(NonConvergence) as exc:
        eigs_window(op, 0.0, 3.0, tol=1e-300, method="lanczos")
    part = exc.value.partial
    assert part is not None and not part.certified
    assert not part.info.converged and part.info.sectors == 4
    assert part.k > 0 and np.all(np.diff(part.eigenvalues) >= 0)


# ── Reorthogonalisation ────────────────────────────────────────────────────


def _orthonormality_loss(kry):
    Q = kry.Q[:, :kry.m]
    return float(np.max(np.abs(Q.conj().T @ Q - np.eye(kry.m))))


@pytest.mark.parametrize("case", ["lattice", "multiplet"])
def test_krylov_basis_stays_orthonormal(case):
    # a full shift-invert cycle, a restart and a second cycle, on the
    # h = 0.25 lattice operator and around the 16-fold eigenvalue 4 of a
    # Kronecker sum.  The restart's continuation lies within 1e-6 of the
    # kept Ritz space: one Gram-Schmidt pass would leave it about 1e-10
    # from orthogonal, so the pass must be repeated
    if case == "lattice":
        op, a, b = _lattice_op(h=0.25), 0.0, 4.0
    else:
        op, mu = _chain_pair(16)
        a, b = mu[3] + mu[12] - 0.3, mu[3] + mu[12] + 0.3
    solve = eigensolve.shifted_solver(op.mat, a + 0.5137 * (b - a))
    kry = eigensolve._Krylov(op.n, 60, np.random.default_rng(0))
    kry.seed_vector()
    while kry.me < kry.m_max:
        kry.extend(solve)
    assert _orthonormality_loss(kry) <= 1e-12
    theta, y = kry.ritz()
    keep = np.argsort(-np.abs(theta))[:30]
    tail = (kry.ritz_vectors(y[:, keep[:1]])[:, 0]
            + 1e-6 * kry.Q[:, kry.m - 1])
    assert kry.restart(y[:, keep], theta[keep], tail=tail)
    assert _orthonormality_loss(kry) <= 1e-12
    while kry.me < kry.m_max:
        kry.extend(solve)
    assert _orthonormality_loss(kry) <= 1e-12
    want = eigs_window(op, a, b, method="dense")
    got = eigs_window(op, a, b, tol=1e-9, method="lanczos")
    _assert_matches_oracle(got, want, 1e-9)


# ── Rotation sectors ───────────────────────────────────────────────────────


@st.composite
def _symmetric_problems(draw):
    """Operators that commute with their quarter turn: a disk or box window
    centred at the origin, no obstacle or a centred disk or square box with
    Robin (gamma in [-1, 1]) or Dirichlet data, any field kind, in 2-D at
    h = 0.3 or 0.35 and in 3-D at h = 0.4 (n of a few hundred)."""
    d = draw(st.sampled_from([2, 3]))
    shape = draw(st.sampled_from(["disk", "box"]))
    if d == 2:
        R, h = draw(st.floats(2.0, 2.8)), draw(st.sampled_from([0.3, 0.35]))
        radius, half = st.floats(0.5, 1.0), st.floats(0.4, 0.8)
    else:
        R, h = draw(st.floats(1.7, 1.9)), 0.4
        radius, half = st.floats(0.4, 0.9), st.floats(0.4, 0.45)
    kind = draw(st.sampled_from(["none", "disk", "box"]))
    obstacle = {"none": None,
                "disk": DiskObstacle((0.0,) * d, draw(radius)),
                "box": BoxObstacle((0.0,) * d, (draw(half),) * d)}[kind]
    field = draw(st.sampled_from(["constant", "radial_decay",
                                  "radial_growth"]))
    if field == "constant":
        field = FieldSpec.constant(draw(st.floats(-2.0, 2.0)), d)
    elif field == "radial_decay":
        field = FieldSpec.radial_decay(draw(st.floats(0.5, 2.0)),
                                       draw(st.floats(1.0, 3.0)), d)
    else:
        field = FieldSpec.radial_growth(draw(st.floats(0.2, 1.0)),
                                        draw(st.floats(0.5, 2.0)), d)
    g = build_grid(DomainSpec(d, R, shape, obstacle), h)
    ph = link_phases(g, field)
    if obstacle is None:
        return assemble(g, ph, region="full")
    if draw(st.booleans()):
        return assemble(g, ph, region="omega", boundary="dirichlet")
    return assemble(g, ph, region="omega", gamma=draw(st.floats(-1.0, 1.0)))


@_ORACLE
@given(op=_symmetric_problems(), a=st.floats(-1.0, 3.0),
       width=st.floats(2.0, 8.0))
def test_sectors_match_dense_oracle_and_whole_operator(op, a, width):
    assert op.rotation is not None
    want = eigs_window(op, a, a + width, method="dense")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolve, "_SECTOR_MIN_ROWS", 0)
        got = eigs_window(op, a, a + width, tol=1e-9, method="lanczos")
    _assert_matches_oracle(got, want, 1e-9)
    # an empty census needs no sectors
    assert got.info.sectors == (4 if want.k else 1)
    # a copy without the quarter turn solves the whole operator
    whole = eigs_window(dataclasses.replace(op, rotation=None), a, a + width,
                        tol=1e-9, method="lanczos")
    assert whole.certified and whole.info.sectors == 1
    assert whole.k == got.k
    assert np.allclose(got.eigenvalues, whole.eigenvalues, atol=1e-8)


def test_copies_keep_their_sectors(any_size):
    # dataclasses.replace keeps the quarter turn, so a copy of a centred
    # disk still solves by sectors; a replaced mat that does not commute
    # with the turn, or has another size, gets none
    g = build_grid(DomainSpec(2, 2.0, "disk"), 0.4)
    ph = link_phases(g, FieldSpec.constant(1.0))
    op = assemble(g, ph)
    copy = dataclasses.replace(op)
    assert copy.rotation is op.rotation
    got = eigs_window(copy, 0.0, 4.0, tol=1e-9)
    assert got.certified and got.k > 0 and got.info.sectors == 4
    chi = np.random.default_rng(2).standard_normal(g.n_nodes)
    asymmetric = dataclasses.replace(op, mat=assemble(g, ph.shifted(chi)).mat)
    smaller = dataclasses.replace(op, mat=op.mat[:-1, :-1])
    for other in (asymmetric, smaller):
        assert other.rotation is op.rotation
        assert eigensolve._rotation_sectors(other) is None
    whole = eigs_window(asymmetric, 0.0, 4.0, tol=1e-9)
    assert whole.certified and whole.info.sectors == 1
    assert np.allclose(whole.eigenvalues, got.eigenvalues, atol=1e-8)


def test_small_operators_take_the_whole_path():
    # below _SECTOR_MIN_ROWS the four sector set-ups cost more than they save
    op = _lattice_op(h=0.25)
    assert op.rotation is not None and op.n < eigensolve._SECTOR_MIN_ROWS
    assert eigs_window(op, 0.0, 4.0, tol=1e-9).info.sectors == 1


@pytest.mark.parametrize("case", ["off-centre", "non-square", "gauge"])
def test_asymmetric_operators_take_the_whole_path(any_size, case):
    # an obstacle one lattice step off centre or a non-square box leaves the
    # region open under the turn; a random gauge keeps the region but not H
    h = 0.3
    obstacle = {"off-centre": DiskObstacle((h, 0.0), 1.0),
                "non-square": BoxObstacle((0.0, 0.0), (0.5, 0.8)),
                "gauge": DiskObstacle((0.0, 0.0), 1.0)}[case]
    g = build_grid(DomainSpec(2, 3.0, "disk", obstacle), h)
    ph = link_phases(g, FieldSpec.constant(1.0))
    if case == "gauge":
        ph = ph.shifted(np.random.default_rng(2).standard_normal(g.n_nodes))
    op = assemble(g, ph, region="omega", gamma=0.5)
    assert (op.rotation is not None) == (case == "gauge")
    want = eigs_window(op, 0.0, 4.0, method="dense")
    got = eigs_window(op, 0.0, 4.0, tol=1e-9)
    _assert_matches_oracle(got, want, 1e-9)
    assert got.info.sectors == 1


@pytest.mark.parametrize("d", [2, 3])
def test_sector_blocks_are_the_congruence(d):
    # against dense products: [B_0 .. B_3] is unitary, U B_m = i^m B_m, and
    # each block is B_m^H H B_m, exactly Hermitian; the origin, and in 3-D
    # every node on the axis, is fixed by the turn and in sector 0 alone
    g = build_grid(DomainSpec(d, 2.0, "disk", None), 0.4)
    op = assemble(g, link_phases(g, FieldSpec.radial_decay(1.0, 2.0, d)),
                  region="full")
    scale = eigensolve._ledger(op).scale
    sectors = eigensolve._rotation_sectors(op)
    dims = [sub.n for sub, _ in sectors]
    fixed = int(np.sum(op.rotation == np.arange(op.n)))
    assert dims == [dims[1] + fixed] + [(op.n - fixed) // 4] * 3
    assert fixed == {2: 1, 3: 9}[d]
    bases = [basis.toarray() for _, basis in sectors]
    whole = np.hstack(bases)
    assert np.allclose(whole.conj().T @ whole, np.eye(op.n), atol=1e-15)
    turn = np.zeros((op.n, op.n))
    turn[op.rotation, np.arange(op.n)] = 1.0
    h = op.dense()
    for m, ((sub, _), b) in enumerate(zip(sectors, bases)):
        assert np.allclose(turn @ b, 1j ** m * b, atol=1e-15)
        assert (sub.mat - sub.mat.conj().T).nnz == 0
        assert np.max(np.abs(sub.dense() - b.conj().T @ h @ b)) \
            <= 1e-14 * scale


def test_sector_window_factorisations(any_size, lu_counter):
    # the full operator's upper edge, each sector's upper edge and one slice
    # per sector factorise; every lower edge lies below its Gershgorin bound
    op = _lattice_op(h=0.25)
    got = eigs_window(op, 0.0, 4.0, tol=1e-9)
    _assert_matches_oracle(got, eigs_window(op, 0.0, 4.0, method="dense"),
                           1e-9)
    assert got.info.sectors == 4
    hi = 4.0 + eigensolve._EDGE_PAD * eigensolve._ledger(op).scale
    assert lu_counter[:5] == [hi] * 5 and len(lu_counter) == 9


def _with_wrong_block(monkeypatch, change):
    """Make _rotation_sectors return sector 1 with its block changed."""
    true_sectors = eigensolve._rotation_sectors

    def wrong(op):
        sectors = true_sectors(op)
        sub, basis = sectors[1]
        sectors[1] = (HermitianOperator.from_matrix(change(sub.mat)), basis)
        return sectors

    monkeypatch.setattr(eigensolve, "_rotation_sectors", wrong)


def test_wrong_sector_block_fails_the_count_cross_check(any_size, monkeypatch):
    # one diagonal entry pulled far down puts an eigenvalue of the block
    # below the window: the sector counts no longer add up to the full
    # operator's, so nothing is certified and no pairs are returned
    def pulled(mat):
        mat = mat.tolil()
        mat[0, 0] -= 1e3
        return mat

    _with_wrong_block(monkeypatch, pulled)
    res = eigs_window(_lattice_op(h=0.25), 0.0, 4.0)
    assert not res.certified and res.k == 0 and res.info.sectors == 4
    assert "add up" in res.info.message


def test_wrong_sector_block_fails_the_residuals_on_h(any_size, monkeypatch):
    # a block moved by 1e-6 keeps every count, but the pairs it yields miss
    # H by 1e-6, far above tol
    _with_wrong_block(monkeypatch,
                      lambda mat: mat + 1e-6 * sp.identity(mat.shape[0]))
    res = eigs_window(_lattice_op(h=0.25), 0.0, 4.0, tol=1e-9)
    assert not res.certified and res.info.sectors == 4
    assert "residuals above" in res.info.message
    assert np.count_nonzero(res.residuals > 1e-9) > 0


def test_sector_vectors_are_orthonormal_in_row_order(any_size):
    # pairs of different sectors are orthogonal, pairs of one sector are
    # orthonormal Lanczos vectors, and every residual is taken on H
    op = _lattice_op(h=0.25)
    got = eigs_window(op, 0.0, 5.0, tol=1e-9, return_vectors=True)
    assert got.certified and got.info.sectors == 4
    v = got.eigenvectors
    assert v.shape == (op.n, got.k)
    assert np.max(np.abs(v.conj().T @ v - np.eye(got.k))) <= 1e-12
    for i in range(got.k):
        assert residual(op, got.eigenvalues[i], v[:, i]) \
            == pytest.approx(got.residuals[i], abs=1e-14)
    assert np.all(got.residuals <= 1e-9)
