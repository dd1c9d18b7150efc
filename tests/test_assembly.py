import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from magspec.assembly import (HermitianOperator, apply_form, assemble,
                              direct_sum, export_coordinate, load_coordinate)
from magspec.fields import FieldSpec, link_phases
from magspec.geometry import (OMEGA, BoxObstacle, DiskObstacle, DomainSpec,
                              build_grid)


def _free_grid(R=1.0, h=0.25):
    return build_grid(DomainSpec(dimension=2, truncation_radius=R), h)


def _obstacle_grid(h=0.25):
    spec = DomainSpec(dimension=2, truncation_radius=3.0,
                      obstacle=DiskObstacle((0.0, 0.0), 1.0))
    return build_grid(spec, h)


# ── Structure ──────────────────────────────────────────────────────────────


def test_single_node_operator():
    g = build_grid(DomainSpec(dimension=2, truncation_radius=0.4), 0.5)
    op = assemble(g, link_phases(g, FieldSpec.constant(0.0)), region="full")
    assert op.n == 1
    assert op.dense()[0, 0] == 4.0 / 0.5**2


def test_exact_hermiticity():
    g = _obstacle_grid(0.2)
    ph = link_phases(g, FieldSpec.constant(1.3))
    op = assemble(g, ph, region="omega", gamma=0.8)
    assert (op.mat - op.mat.conj().T).nnz == 0
    assert np.all(op.mat.diagonal().imag == 0.0)


def test_row_to_node_bookkeeping():
    g = _obstacle_grid()
    ph = link_phases(g, FieldSpec.constant(0.5))
    op = assemble(g, ph, region="omega")
    assert op.n == g.n_omega
    assert np.all(g.region[op.nodes] == OMEGA)
    full = assemble(g, ph, region="full")
    assert np.array_equal(full.nodes, np.arange(g.n_nodes))


# ── Quadratic form against a loop-level oracle ─────────────────────────────


def _form_oracle(grid, phases, region, gamma, u_full):
    """Edge-by-edge recomputation of the quadratic form for one region."""
    h = grid.h
    d = grid.dimension
    if region == "full":
        inr = np.ones(grid.n_nodes, dtype=bool)
    else:
        inr = (grid.region == OMEGA) if region == "omega" else (grid.region != OMEGA)
    acc = 0.0
    for a in range(d):
        i_idx, j_idx = grid.edges[a]
        for k in range(len(i_idx)):
            i, j = i_idx[k], j_idx[k]
            if inr[i] and inr[j]:
                acc += abs(u_full[j] * np.exp(-1j * phases.theta[a][k]) - u_full[i]) ** 2
    of = grid.outer_faces
    for t in range(len(of)):
        if inr[of.node[t]]:
            acc += abs(u_full[of.node[t]]) ** 2
    acc *= h ** (d - 2)
    if region != "full":
        nf = grid.inner_faces
        side = nf.node if region == "omega" else nf.neighbor
        sgn = 1.0 if region == "omega" else -1.0
        for t in range(len(nf)):
            acc += sgn * gamma * abs(u_full[side[t]]) ** 2 * h ** (d - 1)
    return acc


@pytest.mark.parametrize("region,gamma", [("full", 0.0), ("omega", 0.0),
                                          ("omega", 0.65), ("obstacle", 0.65)])
def test_form_matches_oracle(region, gamma):
    g = _obstacle_grid(0.25)
    ph = link_phases(g, FieldSpec.radial_decay(1.2, 2.0))
    op = assemble(g, ph, region=region, gamma=gamma)
    rng = np.random.default_rng(11)
    u_full = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
    want = _form_oracle(g, ph, region, gamma, u_full)
    assert apply_form(op, u_full[op.nodes]) == pytest.approx(want, rel=1e-12)


def test_form_nonnegative_without_gamma():
    g = _free_grid()
    ph = link_phases(g, FieldSpec.constant(2.0))
    op = assemble(g, ph, region="full")
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.normal(size=op.n) + 1j * rng.normal(size=op.n)
        assert apply_form(op, u) > 0.0


# ── Zero-field closed form ─────────────────────────────────────────────────


def test_square_dirichlet_eigenvalues_closed_form():
    # 8x8-cell window: nodes at k*h, |k*h| < 1, so a 7x7 interior block
    g = _free_grid(R=1.0, h=0.25)
    op = assemble(g, link_phases(g, FieldSpec.constant(0.0)), region="full")
    evs = np.linalg.eigvalsh(op.dense())
    h, L = 0.25, 2.0
    one_d = [4.0 / h**2 * np.sin(m * np.pi * h / (2 * L)) ** 2 for m in range(1, 8)]
    want = np.sort([a + b for a in one_d for b in one_d])
    assert np.allclose(evs, want, rtol=1e-12, atol=1e-12)


# ── Gauge covariance ───────────────────────────────────────────────────────


def test_gauge_shift_conjugates_operator():
    g = _obstacle_grid(0.25)
    ph = link_phases(g, FieldSpec.constant(1.0))
    rng = np.random.default_rng(7)
    chi = rng.normal(size=g.n_nodes)
    op = assemble(g, ph, region="omega", gamma=0.4)
    op2 = assemble(g, ph.shifted(chi), region="omega", gamma=0.4)
    u = np.exp(1j * chi[op.nodes])
    conj = sp.diags(u) @ op.mat @ sp.diags(np.conj(u))
    assert np.max(np.abs((op2.mat - conj).toarray())) < 1e-13
    e1 = np.linalg.eigvalsh(op.dense())
    e2 = np.linalg.eigvalsh(op2.dense())
    assert np.allclose(e1, e2, atol=1e-11)


# ── Decoupled block sum ────────────────────────────────────────────────────


def _decouple_oracle(g, ph, gamma):
    """Edit the full-grid matrix by hand: cut crossing edges, add face terms."""
    full = assemble(g, ph, region="full")
    mat = full.mat.tolil(copy=True)
    h = g.h
    nf = g.inner_faces
    for t in range(len(nf)):
        i, j = int(nf.node[t]), int(nf.neighbor[t])
        mat[i, j] = 0.0
        mat[j, i] = 0.0
        mat[i, i] = mat[i, i] - 1.0 / h**2 + gamma / h
        mat[j, j] = mat[j, j] - 1.0 / h**2 - gamma / h
    return mat.tocsr()


def test_direct_sum_entrywise():
    g = _obstacle_grid(0.25)
    ph = link_phases(g, FieldSpec.constant(0.9))
    om = assemble(g, ph, region="omega", gamma=0.7)
    ob = assemble(g, ph, region="obstacle", gamma=0.7)
    ds = direct_sum(om, ob)
    assert np.array_equal(ds.nodes, np.arange(g.n_nodes))
    want = _decouple_oracle(g, ph, 0.7)
    assert np.max(np.abs((ds.mat - want).toarray())) < 1e-12


def test_direct_sum_spectrum_is_union():
    g = _obstacle_grid(0.3)
    ph = link_phases(g, FieldSpec.radial_decay(0.8, 1.0))
    om = assemble(g, ph, region="omega", gamma=-0.3)
    ob = assemble(g, ph, region="obstacle", gamma=-0.3)
    ds = direct_sum(om, ob)
    want = np.sort(np.concatenate([
        np.linalg.eigvalsh(om.dense()), np.linalg.eigvalsh(ob.dense())]))
    got = np.linalg.eigvalsh(ds.dense())
    assert np.allclose(got, want, atol=1e-10)


def test_direct_sum_has_no_cross_coupling():
    g = _obstacle_grid(0.25)
    ph = link_phases(g, FieldSpec.constant(1.0))
    ds = direct_sum(assemble(g, ph, region="omega", gamma=0.2),
                    assemble(g, ph, region="obstacle", gamma=0.2))
    coo = ds.mat.tocoo()
    r_reg = g.region[ds.nodes[coo.row]]
    c_reg = g.region[ds.nodes[coo.col]]
    assert np.all(r_reg == c_reg)


# ── Dirichlet interface option ─────────────────────────────────────────────


def test_dirichlet_interface_diagonal():
    g = _obstacle_grid(0.25)
    ph = link_phases(g, FieldSpec.constant(0.0))
    rob = assemble(g, ph, region="omega", gamma=0.0)
    dir_ = assemble(g, ph, region="omega", boundary="dirichlet")
    diff = (dir_.mat - rob.mat).tocoo()
    # only diagonal entries at face-adjacent nodes, each +1/h^2 per face
    assert np.all(diff.row == diff.col)
    counts = np.bincount(g.inner_faces.node, minlength=g.n_nodes)[rob.nodes]
    want = counts / g.h**2
    got = np.zeros(rob.n)
    got[diff.row] = diff.data.real
    assert np.allclose(got, want, atol=1e-14)


# ── Validation ─────────────────────────────────────────────────────────────


def test_assemble_validation():
    g = _free_grid()
    ph = link_phases(g, FieldSpec.constant(1.0))
    with pytest.raises(ValueError):
        assemble(g, ph, region="interior")
    with pytest.raises(ValueError):
        assemble(g, ph, region="full", gamma=1.0)
    with pytest.raises(ValueError):
        assemble(g, ph, region="full", boundary="neumann")
    with pytest.raises(ValueError):
        assemble(g, ph, region="omega", boundary="dirichlet", gamma=0.5)
    with pytest.raises(ValueError):
        assemble(g, ph, region="omega", gamma=np.inf)
    with pytest.raises(ValueError):
        assemble(g, ph, region="obstacle")   # no obstacle nodes here
    g2 = _free_grid(R=1.5)
    with pytest.raises(ValueError):
        assemble(g2, ph, region="full")      # phases from another grid


def test_direct_sum_validation():
    g = _obstacle_grid()
    ph = link_phases(g, FieldSpec.constant(1.0))
    om = assemble(g, ph, region="omega", gamma=0.5)
    ob = assemble(g, ph, region="obstacle", gamma=0.5)
    with pytest.raises(ValueError):
        direct_sum(ob, om)
    ob2 = assemble(g, ph, region="obstacle", gamma=0.6)
    with pytest.raises(ValueError):
        direct_sum(om, ob2)


def test_apply_form_shape_check():
    g = _free_grid()
    op = assemble(g, link_phases(g, FieldSpec.constant(0.0)), region="full")
    with pytest.raises(ValueError):
        apply_form(op, np.zeros(op.n + 1))


# ── Shift and wrap helpers ─────────────────────────────────────────────────


def test_shifted_adds_identity():
    g = _free_grid()
    op = assemble(g, link_phases(g, FieldSpec.constant(1.0)), region="full")
    sh = op.shifted(2.5)
    assert np.allclose((sh.mat - op.mat).toarray(), 2.5 * np.eye(op.n))
    assert sh.meta["shift"] == 2.5
    assert sh.shifted(-1.0).meta["shift"] == 1.5


def test_from_matrix_wrap():
    m = np.array([[2.0, -1.0], [-1.0, 2.0]])
    op = HermitianOperator.from_matrix(m, h=0.5, dimension=1)
    assert op.n == 2
    assert op.h == 0.5
    assert np.array_equal(op.nodes, [0, 1])


# ── The quarter turn ───────────────────────────────────────────────────────


@pytest.mark.parametrize("d", [2, 3])
def test_quarter_turn_is_recorded(d):
    # row r's node, turned by x -> (-x2, x1), is row rotation[r]'s node, in
    # every region of a grid closed under the turn
    g = build_grid(DomainSpec(d, 2.0, "box", DiskObstacle((0.0,) * d, 0.8)),
                   0.4)
    ph = link_phases(g, FieldSpec.constant(1.0, d))
    for region, gamma in (("omega", 0.5), ("obstacle", 0.5), ("full", 0.0)):
        op = assemble(g, ph, region=region, gamma=gamma)
        c = g.coords[op.nodes]
        turned = c[op.rotation]
        assert np.array_equal(turned[:, 0], -c[:, 1])
        assert np.array_equal(turned[:, 1], c[:, 0])
        assert np.array_equal(turned[:, 2:], c[:, 2:])
        assert np.array_equal(np.sort(op.rotation), np.arange(op.n))


def test_quarter_turn_kept_only_with_its_matrix():
    g = _obstacle_grid(0.3)
    ph = link_phases(g, FieldSpec.constant(1.0))
    op = assemble(g, ph, region="omega", gamma=0.5)
    ob = assemble(g, ph, region="obstacle", gamma=0.5)
    assert op.rotation is not None and ob.rotation is not None
    assert op.shifted(2.0).rotation is op.rotation
    assert dataclasses.replace(op).rotation is None
    assert dataclasses.replace(op, mat=2 * op.mat).rotation is None
    assert direct_sum(op, ob).rotation is None
    assert HermitianOperator.from_matrix(op.mat).rotation is None


@pytest.mark.parametrize("obstacle", [DiskObstacle((0.3, 0.0), 1.0),
                                      BoxObstacle((0.0, 0.0), (0.5, 0.8))],
                         ids=["off-centre", "non-square"])
def test_no_quarter_turn_without_a_closed_region(obstacle):
    g = build_grid(DomainSpec(2, 3.0, "disk", obstacle), 0.3)
    ph = link_phases(g, FieldSpec.constant(1.0))
    assert assemble(g, ph, region="omega", gamma=0.5).rotation is None
    assert assemble(g, ph, region="full").rotation is not None


# ── Coordinate text round trip ─────────────────────────────────────────────


def test_export_load_round_trip(tmp_path):
    g = _obstacle_grid(0.3)
    ph = link_phases(g, FieldSpec.constant(1.1))
    op = assemble(g, ph, region="omega", gamma=0.25)
    path = tmp_path / "op.coo"
    export_coordinate(op, path)
    back = load_coordinate(path)
    assert (back - op.mat).nnz == 0


def test_load_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.coo"
    path.write_text("some other format\n1 1 1\n0 0 1.0 0.0\n")
    with pytest.raises(ValueError):
        load_coordinate(path)
