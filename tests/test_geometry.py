import numpy as np
import pytest

from magspec.assembly import assemble
from magspec.fields import FieldSpec, link_phases
from magspec.geometry import (OBSTACLE, OMEGA, BoxObstacle, DiskObstacle,
                              DomainSpec, build_grid)


# ── Worked examples ────────────────────────────────────────────────────────


def test_three_by_three_free_grid():
    g = build_grid(DomainSpec(dimension=2, truncation_radius=1.0), 0.5)
    assert g.n_nodes == 9
    assert g.n_omega == 9 and g.n_obstacle == 0
    got = sorted(map(tuple, g.positions))
    want = sorted((x, y) for x in (-0.5, 0.0, 0.5) for y in (-0.5, 0.0, 0.5))
    assert np.allclose(got, want)
    assert sum(len(i) for i, _ in g.edges) == 12


def test_single_node_grid():
    g = build_grid(DomainSpec(dimension=2, truncation_radius=0.4), 0.5)
    assert g.n_nodes == 1
    # all four neighbour slots look across the window
    op = assemble(g, link_phases(g, FieldSpec.constant(1.0)), region="full")
    assert np.array_equal(op.dense(), [[4 / 0.5**2]])


def test_cell_count_labels():
    # R/h integer: 2*R/h - 1 interior nodes per axis (a 40x40-cell box)
    g = build_grid(DomainSpec(dimension=2, truncation_radius=2.0), 0.1)
    xs = np.unique(g.coords[:, 0])
    assert len(xs) == 39
    assert g.n_nodes == 39 * 39


def test_lexicographic_node_order():
    g = build_grid(DomainSpec(dimension=2, truncation_radius=1.6), 0.4)
    order = np.lexsort(g.coords[:, ::-1].T)
    assert np.array_equal(order, np.arange(g.n_nodes))


# ── Region tagging ─────────────────────────────────────────────────────────


def test_disk_membership_closed():
    spec = DomainSpec(dimension=2, truncation_radius=3.0,
                      obstacle=DiskObstacle((0.0, 0.0), 1.0))
    g = build_grid(spec, 0.25)
    r = np.hypot(g.positions[:, 0], g.positions[:, 1])
    # closed membership: nodes exactly on the circle are obstacle
    assert np.all((g.region == OBSTACLE) == (r <= 1.0 + 1e-12))
    assert g.node_at((4, 0)) >= 0
    assert g.region[g.node_at((4, 0))] == OBSTACLE


def test_box_membership():
    spec = DomainSpec(dimension=2, truncation_radius=3.0,
                      obstacle=BoxObstacle((0.5, 0.0), (1.0, 0.5)))
    g = build_grid(spec, 0.25)
    inside = (np.abs(g.positions[:, 0] - 0.5) <= 1.0 + 1e-12) \
        & (np.abs(g.positions[:, 1]) <= 0.5 + 1e-12)
    assert np.all((g.region == OBSTACLE) == inside)


def test_partition_into_regions():
    spec = DomainSpec(dimension=2, truncation_radius=4.0,
                      obstacle=DiskObstacle((0.3, -0.2), 1.4))
    g = build_grid(spec, 0.2)
    assert g.n_omega + g.n_obstacle == g.n_nodes
    assert set(np.unique(g.region)) <= {OMEGA, OBSTACLE}


# ── Faces against a brute-force oracle ─────────────────────────────────────


def _face_oracle(g):
    """Independent enumeration of the inner faces from node lookups."""
    inner = set()
    d = g.dimension
    for idx in range(g.n_nodes):
        c = g.coords[idx]
        for axis in range(d):
            for sgn in (1, -1):
                q = c.copy()
                q[axis] += sgn
                nb = g.node_at(tuple(q))
                if nb >= 0 and g.region[idx] == OMEGA \
                        and g.region[nb] == OBSTACLE:
                    inner.add((idx, nb, axis, sgn))
    return inner


def test_faces_match_bruteforce():
    spec = DomainSpec(dimension=2, truncation_radius=2.6,
                      obstacle=DiskObstacle((0.0, 0.0), 1.1))
    g = build_grid(spec, 0.22)
    fc = g.inner_faces
    got = {(int(fc.node[t]), int(fc.neighbor[t]), int(fc.axis[t]),
            int(fc.sign[t])) for t in range(len(fc))}
    assert got == _face_oracle(g)


def test_faces_match_bruteforce_3d():
    spec = DomainSpec(dimension=3, truncation_radius=1.5,
                      obstacle=BoxObstacle((0.0, 0.0, 0.0), (0.6, 0.6, 0.6)))
    g = build_grid(spec, 0.3)
    fc = g.inner_faces
    got = {(int(fc.node[t]), int(fc.neighbor[t]), int(fc.axis[t]),
            int(fc.sign[t])) for t in range(len(fc))}
    assert got == _face_oracle(g)


def test_inner_face_edge_positions():
    spec = DomainSpec(dimension=2, truncation_radius=2.6,
                      obstacle=DiskObstacle((0.0, 0.0), 1.1))
    g = build_grid(spec, 0.22)
    fc = g.inner_faces
    for t in range(len(fc)):
        i, j = int(fc.node[t]), int(fc.neighbor[t])
        a, s, e = int(fc.axis[t]), int(fc.sign[t]), int(fc.edge_pos[t])
        ei, ej = g.edges[a][0][e], g.edges[a][1][e]
        # stored edge runs low to high along the axis
        assert (ei, ej) == ((i, j) if s == 1 else (j, i))


# ── Boundary measures ──────────────────────────────────────────────────────


def test_staircase_perimeter_limit():
    # a radius that is not lattice aligned: measure -> 8r as h shrinks
    r = 1.3
    for h in (0.1, 0.05):
        spec = DomainSpec(dimension=2, truncation_radius=4.0,
                          obstacle=DiskObstacle((0.0, 0.0), r))
        g = build_grid(spec, h)
        assert abs(len(g.inner_faces) * h - 8 * r) <= 8 * h + 1e-9


def test_box_perimeter_exact():
    # sides at 1.0 with nodes on them: faces sit half a cell outside
    spec = DomainSpec(dimension=2, truncation_radius=3.0,
                      obstacle=BoxObstacle((0.0, 0.0), (1.0, 1.0)))
    g = build_grid(spec, 0.25)
    assert len(g.inner_faces) * 0.25 == pytest.approx(4 * (2.0 + 0.25))


def test_outer_measure_3d():
    g = build_grid(DomainSpec(dimension=3, truncation_radius=1.0), 0.5)
    op = assemble(g, link_phases(g, FieldSpec.constant(0.0, 3)),
                  region="full")
    # every node has six slots, each adding 1/h^2 = 4
    assert np.array_equal(op.mat.diagonal(), np.full(27, 24.0))
    # a slot without an off-diagonal entry looks across the window:
    # 3x3x3 block, 6 sides of 9 faces, each h^2 = 0.25
    lone = 6 * 27 - (op.mat.nnz - 27)
    assert lone * 0.5**2 == pytest.approx(6 * 9 * 0.25)


# ── Validation ─────────────────────────────────────────────────────────────


def test_rejects_thin_obstacle():
    spec = DomainSpec(dimension=2, truncation_radius=3.0,
                      obstacle=DiskObstacle((0.0, 0.0), 0.2))
    with pytest.raises(ValueError, match="coarse"):
        build_grid(spec, 0.25)


def test_rejects_obstacle_near_boundary():
    spec = DomainSpec(dimension=2, truncation_radius=2.0,
                      obstacle=DiskObstacle((0.0, 0.0), 1.8))
    with pytest.raises(ValueError, match="clearance"):
        build_grid(spec, 0.2)


def test_rejects_bad_spacing():
    spec = DomainSpec(dimension=2, truncation_radius=2.0)
    with pytest.raises(ValueError):
        build_grid(spec, 0.0)
    with pytest.raises(ValueError):
        build_grid(spec, float("nan"))


@pytest.mark.parametrize("build, why", [
    (lambda: DiskObstacle((np.nan, 0.0), 1.0), "obstacle.center"),
    (lambda: DiskObstacle((0.0, np.inf), 1.0), "obstacle.center"),
    (lambda: DiskObstacle((0.0, 0.0), np.inf), "obstacle.radius"),
    (lambda: DiskObstacle((0.0, 0.0), np.nan), "obstacle.radius"),
    (lambda: BoxObstacle((np.nan, 0.0), (1.0, 1.0)), "obstacle.center"),
    (lambda: BoxObstacle((0.0, 0.0), (1.0, np.inf)), "obstacle.halfwidths"),
    (lambda: DomainSpec(2, np.inf), "truncation_radius"),
], ids=["disk-nan-center", "disk-inf-center", "disk-inf-radius",
        "disk-nan-radius", "box-nan-center", "box-inf-halfwidth",
        "inf-window"])
def test_rejects_non_finite_values(build, why):
    with pytest.raises(ValueError, match=f"{why} must be finite"):
        build()


def test_rejects_bad_dimension():
    with pytest.raises(ValueError):
        DomainSpec(dimension=4, truncation_radius=1.0)


def test_node_at_misses():
    g = build_grid(DomainSpec(dimension=2, truncation_radius=1.0), 0.5)
    assert g.node_at((7, 7)) == -1
    assert g.node_at((0, 0)) >= 0


def test_node_at_takes_arrays():
    g = build_grid(DomainSpec(dimension=3, truncation_radius=1.0), 0.5)
    coords = np.array([[7, 7, 7], [0, 0, 0], [-1, 0, 1], [0, 0, -9]])
    want = [g.node_at(tuple(c)) for c in coords]
    assert want[0] == want[3] == -1 and min(want[1:3]) >= 0
    assert np.array_equal(g.node_at(coords), want)
    assert np.array_equal(g.node_at(g.coords), np.arange(g.n_nodes))
