import dataclasses
import pickle

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

from magspec import eigensolve, probes
from magspec.assembly import HermitianOperator, assemble, direct_sum
from magspec.fields import FieldSpec, link_phases
from magspec.geometry import BoxObstacle, DiskObstacle, DomainSpec, build_grid
from magspec.probes import (boundary_identity_check, hermitian_shift,
                            resolvent_difference_svd, smooth_random_field)


def _setup(h, gamma=0.5, b=1.0, R=3.0):
    spec = DomainSpec(dimension=2, truncation_radius=R,
                      obstacle=DiskObstacle((0.0, 0.0), 1.0))
    g = build_grid(spec, h)
    ph = link_phases(g, FieldSpec.constant(b))
    full = assemble(g, ph, region="full")
    split = direct_sum(assemble(g, ph, region="omega", gamma=gamma),
                       assemble(g, ph, region="obstacle", gamma=gamma))
    return g, ph, full, split


# ── Shift policy ───────────────────────────────────────────────────────────


def test_shift_on_known_spectra():
    neg = HermitianOperator.from_matrix(sp.diags([-3.0, 1.0]))
    pos = HermitianOperator.from_matrix(sp.diags([2.0, 4.0]))
    assert hermitian_shift(neg) == pytest.approx(4.0)
    assert hermitian_shift(pos) == pytest.approx(1.0)
    assert hermitian_shift(neg, pos) == pytest.approx(4.0)
    assert hermitian_shift(neg, margin=0.25) == pytest.approx(3.25)
    with pytest.raises(ValueError):
        hermitian_shift()
    # margin 0 puts an eigenvalue of H + cI at 0: the probes' LU would fail
    for margin in (0.0, -0.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="margin"):
            hermitian_shift(neg, margin=margin)


def test_shift_refuses_uncertified_lowest(monkeypatch):
    # a non-monotone bracket count leaves eigs_lowest uncertified and
    # without pairs; the shift must say so rather than index an empty result
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
    op = HermitianOperator.from_matrix((x + x.conj().T) / 2)
    low = np.linalg.eigvalsh(op.dense())[0]
    true_count = eigensolve.inertia_count

    def faulty(op, s, direction=1.0):
        n = true_count(op, s, direction=direction)
        return n + 500 if s < low + 1.0 else n

    monkeypatch.setattr(eigensolve, "inertia_count", faulty)
    with pytest.raises(eigensolve.NonConvergence,
                       match="not certified.*non-monotone") as err:
        hermitian_shift(op)
    assert not err.value.partial.certified


def test_shift_skips_operators_one_count_proves_nonnegative(monkeypatch,
                                                            lu_counter):
    # the operators of the resolvent_probe benchmark at h = 0.25: H_full
    # counts 0 at 0, so its lowest eigenvalue (1.79) cannot set the shift
    # and is not computed; H_split (lowest -1.63) sets it.  Its count of 1
    # at 0 is recorded and is its whole lowest-1 bracket: after it only the
    # slice [lo, 0) factorises, with no bracket count.  H_full's count at 0
    # is read back from its ledger the second time, not factorised again
    spec = DomainSpec(2, 1.75, "box", BoxObstacle((0.0, 0.0), (0.5, 0.5)))
    g = build_grid(spec, 0.25)
    ph = link_phases(g, FieldSpec.constant(1.0))
    full = assemble(g, ph, region="full")
    split = direct_sum(assemble(g, ph, region="omega", gamma=0.5),
                       assemble(g, ph, region="obstacle", gamma=0.5))
    lowest = []
    true_lowest = probes.eigs_lowest

    def recording(op, *args, **kwargs):
        lowest.append(op)
        return true_lowest(op, *args, **kwargs)

    monkeypatch.setattr(probes, "eigs_lowest", recording)
    assert hermitian_shift(full) == 1.0
    assert lu_counter == [0.0] and not lowest
    lu_counter.clear()
    shift = hermitian_shift(full, split)
    assert shift == pytest.approx(2.6312613239707616, rel=1e-12)
    assert lowest == [split]
    lo = eigensolve._ledger(split).lo
    assert lu_counter == pytest.approx([0.0, lo + 0.5137 * (0.0 - lo)],
                                       rel=1e-12)


# ── Position-based random fields ───────────────────────────────────────────


def test_random_field_deterministic():
    g = build_grid(DomainSpec(dimension=2, truncation_radius=2.0), 0.5)
    f1 = smooth_random_field(g, 7)
    f2 = smooth_random_field(g, 7)
    f3 = smooth_random_field(g, 8)
    assert np.array_equal(f1, f2)
    assert not np.allclose(f1, f3)
    assert f1.dtype == complex


def test_random_field_is_function_of_position():
    spec = DomainSpec(dimension=2, truncation_radius=2.0)
    coarse = build_grid(spec, 0.5)
    fine = build_grid(spec, 0.25)
    fc = smooth_random_field(coarse, 3)
    ff = smooth_random_field(fine, 3)
    for i in range(coarse.n_nodes):
        j = fine.node_at(tuple(2 * coarse.coords[i]))
        assert j >= 0
        assert fc[i] == ff[j]


# ── Resolvent difference probe ─────────────────────────────────────────────


def test_resolvent_difference_is_low_rank():
    _, _, full, split = _setup(0.25)
    sv, c = resolvent_difference_svd(full, split, k=10)
    assert len(sv) == 10
    assert np.all(np.diff(sv) <= 1e-15)
    # interface-localized perturbation: singular values fall off fast
    assert sv[9] / sv[0] < 0.1
    assert c > 0


def test_resolvent_svd_shift_reuse_and_gauge():
    g, ph, full, split = _setup(0.3)
    sv1, c = resolvent_difference_svd(full, split, k=6)
    sv2, c2 = resolvent_difference_svd(full, split, shift=c, k=6)
    assert c2 == c
    assert np.allclose(sv1, sv2, rtol=1e-12)
    rng = np.random.default_rng(1)
    chi = rng.normal(size=g.n_nodes)
    ph2 = ph.shifted(chi)
    full2 = assemble(g, ph2, region="full")
    split2 = direct_sum(assemble(g, ph2, region="omega", gamma=0.5),
                        assemble(g, ph2, region="obstacle", gamma=0.5))
    sv3, _ = resolvent_difference_svd(full2, split2, shift=c, k=6)
    assert np.allclose(sv1, sv3, atol=1e-8)


def test_resolvent_svd_guards():
    _, _, full, split = _setup(0.3)
    with pytest.raises(ValueError):
        resolvent_difference_svd(full, split, k=0)
    other = HermitianOperator.from_matrix(sp.diags([1.0, 2.0]))
    with pytest.raises(ValueError):
        resolvent_difference_svd(full, other)


def test_resolvent_svd_rejects_reordered_nodes():
    # same size, rows in another node order: the difference would no longer
    # be supported on the boundary, so the probe must refuse it
    _, _, full, split = _setup(0.3)
    perm = np.random.default_rng(0).permutation(split.n)
    shuffled = HermitianOperator(split.mat[perm][:, perm].tocsr(),
                                 split.nodes[perm], split.region,
                                 dict(split.meta))
    with pytest.raises(ValueError, match="node sets"):
        resolvent_difference_svd(full, shuffled, shift=6.0)


def test_resolvent_svd_zeros_past_boundary_rank():
    # cutting one bond of a chain changes a 2 x 2 block: rank V <= 2
    n = 20
    chain = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)).tolil()
    full = HermitianOperator.from_matrix(chain)
    chain[9, 10] = chain[10, 9] = 0.0
    chain[9, 9] = chain[10, 10] = 1.0
    split = HermitianOperator.from_matrix(chain)
    sv, c = resolvent_difference_svd(full, split, shift=1.0, k=5)
    assert c == 1.0
    eye = np.eye(n)
    want = sla.svdvals(np.linalg.inv(split.dense() + eye)
                       - np.linalg.inv(full.dense() + eye))
    assert len(sv) == 5
    assert np.allclose(sv[:2], want[:2], rtol=1e-12)
    assert np.all(sv[2:] == 0.0)
    assert len(resolvent_difference_svd(full, split, shift=1.0, k=50)[0]) == n
    same, _ = resolvent_difference_svd(full, full, shift=1.0, k=3)
    assert np.all(same == 0.0) and len(same) == 3


def test_resolvent_svd_above_dense_limit():
    # n = 5041, past the n <= 4000 the dense-inverse probe allowed
    g = build_grid(DomainSpec(2, 2.25, "box", BoxObstacle((0.0, 0.0), (0.5, 0.5))),
                   0.0625)
    ph = link_phases(g, FieldSpec.constant(1.0))
    full = assemble(g, ph, region="full")
    split = direct_sum(assemble(g, ph, region="omega", gamma=0.5),
                       assemble(g, ph, region="obstacle", gamma=0.5))
    assert full.n > 4000
    sv, _ = resolvent_difference_svd(full, split, shift=6.0, k=10)
    assert len(sv) == 10
    assert np.all(np.isfinite(sv)) and sv[9] > 0
    assert np.all(np.diff(sv) <= 0)


# ── Boundary identity ──────────────────────────────────────────────────────


def test_identity_lhs_is_exact_algebra():
    g, ph, full, split = _setup(0.3)
    f = smooth_random_field(g, 0)
    gg = smooth_random_field(g, 1)
    out = boundary_identity_check(full, split, g, ph, 0.5, f=f, g=gg, shift=6.0)
    eye = np.eye(g.n_nodes)
    u = np.linalg.solve(full.dense() + 6.0 * eye, f)
    v = np.linalg.solve(split.dense() + 6.0 * eye, gg)
    want = g.h**2 * np.vdot(v, (full.mat - split.mat) @ u)
    assert out.lhs == pytest.approx(want, rel=1e-11)
    assert out.shift == 6.0


def test_identity_rhs_close_and_shrinking():
    gaps = []
    shift = None
    for h in (0.3, 0.15):
        g, ph, full, split = _setup(h)
        if shift is None:
            shift = hermitian_shift(full, split)
        out = boundary_identity_check(full, split, g, ph, 0.5, shift=shift,
                                      seed=4)
        gaps.append(out.gap)
        assert abs(out.rhs) > 0
    assert gaps[0] < 0.5            # already close at the coarse spacing
    assert gaps[1] < 0.75 * gaps[0]


def test_identity_gauge_covariant():
    g, ph, full, split = _setup(0.3)
    f = smooth_random_field(g, 0)
    gg = smooth_random_field(g, 1)
    base = boundary_identity_check(full, split, g, ph, 0.5, f=f, g=gg, shift=7.0)
    rng = np.random.default_rng(2)
    chi = rng.normal(size=g.n_nodes)
    ph2 = ph.shifted(chi)
    full2 = assemble(g, ph2, region="full")
    split2 = direct_sum(assemble(g, ph2, region="omega", gamma=0.5),
                        assemble(g, ph2, region="obstacle", gamma=0.5))
    tw = np.exp(1j * chi)
    moved = boundary_identity_check(full2, split2, g, ph2, 0.5,
                                    f=tw * f, g=tw * gg, shift=7.0)
    assert moved.lhs == pytest.approx(base.lhs, rel=1e-10)
    assert moved.rhs == pytest.approx(base.rhs, rel=1e-10)
    assert moved.gap == pytest.approx(base.gap, rel=1e-8)


def test_identity_dict_and_guards():
    g, ph, full, split = _setup(0.3)
    out = boundary_identity_check(full, split, g, ph, 0.5, shift=5.0)
    d = out.as_dict()
    assert set(d) == {"lhs", "rhs", "gap", "shift"}
    assert d["shift"] == 5.0
    om_only = assemble(g, ph, region="omega", gamma=0.5)
    with pytest.raises(ValueError):
        boundary_identity_check(om_only, split, g, ph, 0.5)


def test_identity_rejects_reordered_nodes():
    # same size, rows in another node order: the boundary pairing would read
    # the wrong nodes, so the check must refuse it
    g, ph, full, split = _setup(0.3)
    perm = np.random.default_rng(0).permutation(split.n)
    shuffled = HermitianOperator(split.mat[perm][:, perm].tocsr(),
                                 split.nodes[perm], split.region,
                                 dict(split.meta))
    with pytest.raises(ValueError, match="nodes"):
        boundary_identity_check(full, shuffled, g, ph, 0.5, shift=6.0)


# ── Kept factorisations ────────────────────────────────────────────────────


def test_probes_factorise_each_operator_once_per_shift(lu_counter):
    # one SVD and four identity checks at one shift share one LU, that of
    # H_split + c: H_full + c is reached through the boundary-rank update
    # and never factorised.  Reuse changes no answer, bit for bit, against
    # probes of freshly assembled operators
    g, ph, full, split = _setup(0.3)
    sv, _ = resolvent_difference_svd(full, split, shift=6.0)
    kept = [boundary_identity_check(full, split, g, ph, 0.5, shift=6.0, seed=s)
            for s in range(4)]
    assert lu_counter == [-6.0]
    _, _, full2, split2 = _setup(0.3)
    assert np.array_equal(sv, resolvent_difference_svd(full2, split2,
                                                       shift=6.0)[0])
    for s, out in enumerate(kept):
        g2, ph2, full2, split2 = _setup(0.3)
        fresh = boundary_identity_check(full2, split2, g2, ph2, 0.5,
                                        shift=6.0, seed=s)
        assert (out.lhs, out.rhs, out.gap) == (fresh.lhs, fresh.rhs, fresh.gap)


def test_identity_first_leaves_the_svd_no_factorisation(lu_counter):
    # the entry an identity check keeps serves a later SVD of the pair: it
    # solves against the kept LU, and matches a fresh SVD bit for bit
    g, ph, full, split = _setup(0.3)
    boundary_identity_check(full, split, g, ph, 0.5, shift=6.0)
    assert lu_counter == [-6.0]
    sv, _ = resolvent_difference_svd(full, split, shift=6.0, k=12)
    assert lu_counter == [-6.0]
    _, _, full2, split2 = _setup(0.3)
    assert np.array_equal(sv, resolvent_difference_svd(full2, split2,
                                                       shift=6.0, k=12)[0])


def test_another_full_operator_gets_a_fresh_entry(lu_counter):
    # the kept S and M belong to the full operator they were formed
    # against: a gauge-shifted H_full probed against the same split
    # operator is updated from its own difference, on the same LU, and
    # each answer equals the dense one
    g, ph, full, split = _setup(0.3)
    chi = np.random.default_rng(5).normal(size=g.n_nodes)
    other = assemble(g, ph.shifted(chi), region="full")
    eye = np.eye(g.n_nodes)
    a = np.linalg.inv(split.dense() + 6.0 * eye)
    for op in (full, other, full):
        sv, _ = resolvent_difference_svd(op, split, shift=6.0, k=8)
        assert split._lu[2] is op
        want = sla.svdvals(a - np.linalg.inv(op.dense() + 6.0 * eye))[:8]
        assert np.allclose(sv, want, rtol=1e-10, atol=0.0)
    assert lu_counter == [-6.0]
    assert not np.allclose(
        resolvent_difference_svd(other, split, shift=6.0, k=8)[0],
        resolvent_difference_svd(full, split, shift=6.0, k=8)[0])


def test_kept_entry_holds_no_array_of_n_rows():
    # memory stays one LU plus |S|^2: X = A^-1 P_S is not kept
    g, ph, full, split = _setup(0.3)
    resolvent_difference_svd(full, split, shift=6.0)
    boundary_identity_check(full, split, g, ph, 0.5, shift=6.0)
    c, _, kept_full, support, core = split._lu
    assert c == 6.0 and kept_full is full and full._lu is None
    m = len(support)
    assert 0 < m < split.n and core.shape == (m, m)
    assert np.array_equal(core, core.conj().T)
    for item in split._lu:
        assert not (isinstance(item, np.ndarray) and item.shape[0] == split.n)


def test_kept_lu_follows_the_last_shift(lu_counter):
    # one LU per pair, kept on the split operator for the last shift:
    # returning to a shift factorises again, and every copy of an operator
    # starts without one
    g, ph, full, split = _setup(0.3)
    f = smooth_random_field(g, 0)
    gg = smooth_random_field(g, 1)
    eye = np.eye(g.n_nodes)
    for c in (6.0, 7.0, 6.0):
        out = boundary_identity_check(full, split, g, ph, 0.5, f=f, g=gg,
                                      shift=c)
        u = np.linalg.solve(full.dense() + c * eye, f)
        v = np.linalg.solve(split.dense() + c * eye, gg)
        want = g.h**2 * np.vdot(v, (full.mat - split.mat) @ u)
        assert out.lhs == pytest.approx(want, rel=1e-11)
    assert lu_counter == [-6.0, -7.0, -6.0]
    copy = dataclasses.replace(split)
    assert split._lu is not None
    assert copy._lu is None and split.shifted(1.0)._lu is None
    assert pickle.loads(pickle.dumps(split))._lu is None
    assert split == copy


# ── Differential checks against the dense formulas ─────────────────────────


@st.composite
def _split_problems(draw):
    R = draw(st.floats(1.5, 2.2))
    if draw(st.booleans()):
        obstacle = DiskObstacle((0.0, 0.0), draw(st.floats(0.4, 0.9)))
    else:
        half = draw(st.floats(0.3, 0.7))
        obstacle = BoxObstacle((0.0, 0.0), (half, draw(st.floats(0.3, 0.7))))
    shape = draw(st.sampled_from(["disk", "box"]))
    h = draw(st.sampled_from([0.25, 0.3]))
    g = build_grid(DomainSpec(2, R, shape, obstacle), h)
    ph = link_phases(g, FieldSpec.constant(draw(st.floats(0.0, 2.0))))
    chi = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=g.n_nodes)
    ph = ph.shifted(chi)
    if draw(st.booleans()):
        kw = dict(boundary="robin", gamma=draw(st.floats(-1.0, 1.0)))
    else:
        kw = dict(boundary="dirichlet", gamma=0.0)
    full = assemble(g, ph, region="full")
    split = direct_sum(assemble(g, ph, region="omega", **kw),
                       assemble(g, ph, region="obstacle", **kw))
    return g, ph, kw["gamma"], full, split


@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=_split_problems(), k=st.integers(1, 12), seed=st.integers(0, 99))
def test_probes_match_dense_formulas(problem, k, seed):
    g, ph, gamma, full, split = problem
    c = hermitian_shift(full, split)
    eye = np.eye(g.n_nodes)
    a = split.dense() + c * eye
    b = full.dense() + c * eye
    want = sla.svdvals(np.linalg.inv(a) - np.linalg.inv(b))[:k]
    sv, c_used = resolvent_difference_svd(full, split, k=k)
    assert c_used == c
    assert len(sv) == len(want)
    assert np.allclose(sv, want, rtol=1e-10, atol=0.0)

    out = boundary_identity_check(full, split, g, ph, gamma, shift=c, seed=seed)
    f = smooth_random_field(g, seed)
    gg = smooth_random_field(g, seed + 1)
    v = np.linalg.solve(a, gg)
    lhs = g.h**2 * np.vdot(v - np.linalg.solve(b, gg), f)
    assert abs(out.lhs - lhs) <= 1e-10 * abs(lhs)
    rhs = -probes._boundary_pairing(g, ph, gamma, np.linalg.solve(b, f), v)
    assert abs(out.rhs - rhs) <= 1e-10 * abs(rhs)
