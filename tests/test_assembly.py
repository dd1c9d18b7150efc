import dataclasses
import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from magspec.assembly import HermitianOperator, assemble, direct_sum
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
    # Dirichlet window: each of a node's 2d slots without an edge
    deg = sum(np.bincount(ends, minlength=grid.n_nodes)
              for pair in grid.edges for ends in pair)
    for i in range(grid.n_nodes):
        if inr[i]:
            acc += (2 * d - deg[i]) * abs(u_full[i]) ** 2
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
    u = u_full[op.nodes]
    form = g.h**2 * np.real(np.vdot(u, op.mat @ u))
    assert form == pytest.approx(want, rel=1e-12)


def test_form_nonnegative_without_gamma():
    g = _free_grid()
    ph = link_phases(g, FieldSpec.constant(2.0))
    op = assemble(g, ph, region="full")
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.normal(size=op.n) + 1j * rng.normal(size=op.n)
        assert g.h**2 * np.real(np.vdot(u, op.mat @ u)) > 0.0


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


@pytest.mark.parametrize("omega_boundary,obstacle_boundary",
                         [("robin", "dirichlet"), ("dirichlet", "robin")])
def test_direct_sum_refuses_mixed_boundaries(omega_boundary,
                                             obstacle_boundary):
    # a Robin summand with gamma = 0 and a Dirichlet one agree on gamma but
    # not on the condition at the obstacle boundary
    g = _obstacle_grid()
    ph = link_phases(g, FieldSpec.constant(1.0))
    om = assemble(g, ph, region="omega", boundary=omega_boundary)
    ob = assemble(g, ph, region="obstacle", boundary=obstacle_boundary)
    with pytest.raises(ValueError, match="'boundary'"):
        direct_sum(om, ob)


# ── Wrapping a matrix ──────────────────────────────────────────────────────


def test_from_matrix_wrap():
    m = np.array([[2.0, -1.0], [-1.0, 2.0]])
    op = HermitianOperator.from_matrix(m)
    assert op.n == 2
    assert op.region == "full" and op.meta == {}
    assert np.array_equal(op.nodes, [0, 1])
    assert np.array_equal(op.dense(), m)


# ── The quarter turn ───────────────────────────────────────────────────────


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("shape", ["box", "disk"])
def test_quarter_turn_is_recorded(shape, d):
    # row r's node, turned by x -> (-x2, x1), is row rotation[r]'s node, in
    # every region of a grid closed under the turn
    g = build_grid(DomainSpec(d, 2.0, shape, DiskObstacle((0.0,) * d, 0.8)),
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
    # copies keep the turn, which is checked against their own matrix on
    # use (tests/test_eigensolve.py); operators built from other matrices
    # start without one
    g = _obstacle_grid(0.3)
    ph = link_phases(g, FieldSpec.constant(1.0))
    op = assemble(g, ph, region="omega", gamma=0.5)
    ob = assemble(g, ph, region="obstacle", gamma=0.5)
    assert op.rotation is not None and ob.rotation is not None
    assert dataclasses.replace(op).rotation is op.rotation
    assert dataclasses.replace(op, mat=2 * op.mat).rotation is op.rotation
    assert dataclasses.replace(op, rotation=None).rotation is None
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


# ── Pinned matrices ────────────────────────────────────────────────────────


def _digest(*arrays):
    """sha256 prefix over each array's dtype and bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


_PIN_GRIDS = {
    "2d-box": (DomainSpec(2, 1.5, "box"), 0.25, FieldSpec.constant(1.0)),
    "2d-disk": (DomainSpec(2, 1.6, "disk"), 0.2,
                FieldSpec.radial_decay(0.8, 1.0)),
    "2d-box-box": (DomainSpec(2, 2.0, "box",
                              BoxObstacle((0.25, 0.0), (0.5, 0.75))),
                   0.25, FieldSpec.constant(0.9)),
    "2d-disk-disk": (DomainSpec(2, 2.5, "disk",
                                DiskObstacle((0.0, 0.3), 1.0)),
                     0.25, FieldSpec.radial_decay(1.2, 2.0)),
    "3d-box": (DomainSpec(3, 1.0, "box"), 0.25, FieldSpec.constant(1.0, 3)),
    "3d-box-box": (DomainSpec(3, 1.25, "box",
                              BoxObstacle((0.0, 0.0, 0.25), (0.5,) * 3)),
                   0.25, FieldSpec.constant(0.7, 3)),
    "3d-disk-disk": (DomainSpec(3, 1.5, "disk",
                                DiskObstacle((0.0, 0.0, 0.0), 0.6)),
                     0.3, FieldSpec.radial_growth(0.5, 1.0, 3)),
    # spacings at which six additions of 1/h**2 differ from 6/h**2
    "3d-box-h0.3": (DomainSpec(3, 1.2, "box"), 0.3,
                    FieldSpec.constant(1.0, 3)),
    "3d-box-box-h0.3": (DomainSpec(3, 1.8, "box",
                                   BoxObstacle((0.0, 0.0, 0.3), (0.6,) * 3)),
                        0.3, FieldSpec.constant(0.7, 3)),
    "3d-box-h0.35": (DomainSpec(3, 1.4, "box"), 0.35,
                     FieldSpec.constant(1.0, 3)),
    "3d-box-box-h0.35": (DomainSpec(3, 2.0, "box",
                                    BoxObstacle((0.0, 0.35, 0.0), (0.7,) * 3)),
                         0.35, FieldSpec.radial_growth(0.5, 1.0, 3)),
}

# assemble's region, gamma and boundary, or a direct sum of the omega and
# obstacle operators with that gamma and boundary
_PIN_CASES = {
    "full": ("full", 0.0, "robin"),
    "omega-robin": ("omega", 0.5, "robin"),
    "obstacle-robin": ("obstacle", -0.7, "robin"),
    "omega-dirichlet": ("omega", 0.0, "dirichlet"),
    "obstacle-dirichlet": ("obstacle", 0.0, "dirichlet"),
    "sum-robin": ("direct_sum", 0.5, "robin"),
    "sum-dirichlet": ("direct_sum", 0.0, "dirichlet"),
}

# digests of (data, indices, indptr) as assembled through
# coo_matrix(...).tocsr(), which sums duplicates and sorts each row
_PINNED_MATRICES = {
    "2d-box:full": "203c4b11407b5b77",
    "2d-disk:full": "b4f13fb8badd4e5a",
    "2d-box-box:full": "35b35f087af883bd",
    "2d-box-box:omega-robin": "81d6d574db2be8a5",
    "2d-box-box:obstacle-robin": "aaef7e78aa66505b",
    "2d-box-box:omega-dirichlet": "027753d61d413117",
    "2d-box-box:obstacle-dirichlet": "f0d7b73f560c05fe",
    "2d-box-box:sum-robin": "7e114f6085605ddf",
    "2d-box-box:sum-dirichlet": "f604095937429006",
    "2d-disk-disk:full": "4e56606bdb792e73",
    "2d-disk-disk:omega-robin": "687ec8d8a0feac0e",
    "2d-disk-disk:obstacle-robin": "bddb7f298ca77703",
    "2d-disk-disk:omega-dirichlet": "44ed6b49e3c417d8",
    "2d-disk-disk:obstacle-dirichlet": "64bdfca2ed17485b",
    "2d-disk-disk:sum-robin": "77a76bc41836318a",
    "2d-disk-disk:sum-dirichlet": "2d75e2a3374e6b8d",
    "3d-box:full": "5175645a3f003ca5",
    "3d-box-box:full": "23fc597d08ac33ae",
    "3d-box-box:omega-robin": "fd686aabaed4fbf7",
    "3d-box-box:obstacle-robin": "6a8f09f6caa49641",
    "3d-box-box:omega-dirichlet": "c2885d6d8f320513",
    "3d-box-box:obstacle-dirichlet": "818afd5b98960b33",
    "3d-box-box:sum-robin": "f4fc690228ddbb1b",
    "3d-box-box:sum-dirichlet": "ade245893f9bba5f",
    "3d-disk-disk:full": "a56c7061c2206481",
    "3d-disk-disk:omega-robin": "2aa41f4fd13ea918",
    "3d-disk-disk:obstacle-robin": "80dc87c876578586",
    "3d-disk-disk:omega-dirichlet": "e7cab968c22014fb",
    "3d-disk-disk:obstacle-dirichlet": "9dac853193b70f4e",
    "3d-disk-disk:sum-robin": "6dbe990d8f100250",
    "3d-disk-disk:sum-dirichlet": "759f2f2af19f836b",
    "3d-box-h0.3:full": "e42ddd90c9d36633",
    "3d-box-box-h0.3:omega-robin": "de751deec5a92468",
    "3d-box-box-h0.3:obstacle-robin": "976047bd1d9c7cbc",
    "3d-box-box-h0.3:omega-dirichlet": "127ec6d8b6f8b3b2",
    "3d-box-box-h0.3:obstacle-dirichlet": "b9134598b20a144e",
    "3d-box-h0.35:full": "b51fcab9b86c57f4",
    "3d-box-box-h0.35:omega-robin": "3692b03272690754",
    "3d-box-box-h0.35:obstacle-robin": "e2a00d94323f0acb",
    "3d-box-box-h0.35:omega-dirichlet": "1b762d6d61892e51",
    "3d-box-box-h0.35:obstacle-dirichlet": "3d342be0600f64f7",
}


@pytest.mark.parametrize("key", sorted(_PINNED_MATRICES))
def test_assembled_matrices_are_pinned(key):
    grid_key, case = key.split(":")
    spec, h, field_spec = _PIN_GRIDS[grid_key]
    g = build_grid(spec, h)
    ph = link_phases(g, field_spec)
    region, gamma, boundary = _PIN_CASES[case]
    if region == "direct_sum":
        op = direct_sum(*(assemble(g, ph, side, gamma, boundary)
                          for side in ("omega", "obstacle")))
    else:
        op = assemble(g, ph, region, gamma, boundary)
    m = op.mat
    assert m.format == "csr" and m.dtype == complex
    assert m.has_canonical_format
    assert _digest(m.data, m.indices, m.indptr) == _PINNED_MATRICES[key]
