import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from magspec.fields import (FieldSpec, link_phase, link_phases, plaquette_sums,
                            vector_potential)
from magspec.geometry import DiskObstacle, DomainSpec, build_grid


# ── Field strength and limits ──────────────────────────────────────────────


def test_constant_strength_and_gauge():
    f = FieldSpec.constant(2.5, 2)
    pts = np.array([[0.0, 0.0], [1.0, -2.0], [0.3, 0.7]])
    assert np.allclose(f.strength(pts), 2.5)
    a = vector_potential(f, pts)
    want = 1.25 * np.stack([-pts[:, 1], pts[:, 0]], axis=-1)
    assert np.array_equal(a, want)


def test_radial_strength_values():
    dec = FieldSpec.radial_decay(3.0, 2.0)
    grow = FieldSpec.radial_growth(3.0, 1.0)
    p = np.array([2.0, 0.0])
    assert dec.strength(p) == pytest.approx(3.0 / 5.0)
    assert grow.strength(p) == pytest.approx(3.0 * np.sqrt(5.0))
    assert dec.strength(np.zeros(2)) == pytest.approx(3.0)


def test_field_validation():
    with pytest.raises(ValueError):
        FieldSpec("vortex", 2)
    with pytest.raises(ValueError):
        FieldSpec.constant(1.0, dimension=1)
    with pytest.raises(ValueError):
        FieldSpec.radial_decay(1.0, 0.0)
    with pytest.raises(ValueError):
        FieldSpec.radial_decay(-1.0, 2.0)


@pytest.mark.parametrize("build, why", [
    (lambda: FieldSpec.constant(np.nan), "field.b"),
    (lambda: FieldSpec.constant(-np.inf, 3), "field.b"),
    (lambda: FieldSpec.radial_decay(np.inf, 2.0), "field.b0"),
    (lambda: FieldSpec.radial_growth(1.0, np.inf), "field.p"),
    (lambda: FieldSpec("constant", 2, b=1.0, p=np.nan), "field.p"),
], ids=["nan-b", "inf-b", "inf-b0", "inf-p", "nan-p-unread"])
def test_field_refuses_non_finite_values(build, why):
    with pytest.raises(ValueError, match=f"{why} must be finite"):
        build()


# ── Azimuthal profile against direct quadrature ────────────────────────────


def _profile_quad(spec, r):
    """f(r) = int_0^1 s * strength(s*r) ds computed numerically."""
    val, _ = quad(lambda s: s * float(spec.strength(np.array([s * r, 0.0]))),
                  0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    return val


def _profile_from_potential(spec, r):
    a = vector_potential(spec, np.array([r, 0.0]))
    return a[1] / r


@pytest.mark.parametrize("spec", [
    FieldSpec.radial_decay(1.7, 1.0),
    FieldSpec.radial_decay(1.7, 2.0),   # the log1p branch
    FieldSpec.radial_decay(1.7, 3.5),
    FieldSpec.radial_growth(0.8, 1.0),
    FieldSpec.radial_growth(0.8, 2.4),
])
def test_azimuthal_profile_matches_quadrature(spec):
    for r in (0.15, 1.0, 4.0, 22.0):
        got = _profile_from_potential(spec, r)
        want = _profile_quad(spec, r)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_potential_continuous_at_origin():
    spec = FieldSpec.radial_decay(2.0, 1.5)
    a_tiny = vector_potential(spec, np.array([1e-9, 0.0]))
    # f(0) = b0 / 2, so A_y ~ (b0/2) x near the axis
    assert a_tiny[1] == pytest.approx(1e-9, rel=1e-6)


# ── Strength matrix: exact curl of the gauge ───────────────────────────────


def _curl_fd(spec, x, eps=1e-6):
    """Central-difference curl d a_1/d x_0 - d a_0/d x_1 at a 2D point."""
    x = np.asarray(x, dtype=float)
    e0 = np.array([eps, 0.0])
    e1 = np.array([0.0, eps])
    da1 = (vector_potential(spec, x + e0)[1] - vector_potential(spec, x - e0)[1]) / (2 * eps)
    da0 = (vector_potential(spec, x + e1)[0] - vector_potential(spec, x - e1)[0]) / (2 * eps)
    return da1 - da0


@pytest.mark.parametrize("spec", [
    FieldSpec.constant(1.3),
    FieldSpec.radial_decay(2.0, 1.0),
    FieldSpec.radial_decay(2.0, 2.0),
    FieldSpec.radial_growth(0.5, 2.0),
])
def test_field_matrix_is_curl_of_potential(spec):
    # B[1, 0] = +strength, the module's sign convention
    for x in ([0.4, -0.9], [2.0, 1.5], [0.0, 3.0]):
        assert spec.strength(np.asarray(x)) == pytest.approx(
            _curl_fd(spec, x), rel=2e-8, abs=1e-8)


def test_field_matrix_3d_structure():
    # B[1, 0] = -B[0, 1] = strength is the only entry, and a field along
    # the third axis does not depend on x3
    spec = FieldSpec.constant(0.7, dimension=3)
    assert spec.strength(np.array([0.2, -0.1, 5.0])) == 0.7
    assert spec.strength(np.array([0.2, -0.1, -8.0])) == 0.7


# ── Link phases ────────────────────────────────────────────────────────────


def test_link_phase_matches_line_integral():
    spec = FieldSpec.radial_decay(1.4, 1.6)
    h = 0.3
    start = np.array([0.7, -1.1])
    for axis in (0, 1):
        got = link_phase(spec, start, axis, h)
        e = np.zeros(2)
        e[axis] = 1.0
        want, _ = quad(
            lambda t: vector_potential(spec, start + t * h * e)[axis],
            0.0, 1.0, epsabs=1e-14, epsrel=1e-14)
        assert got == pytest.approx(want * h, abs=1e-12)


def test_link_phase_reversal():
    spec = FieldSpec.radial_growth(0.9, 1.2)
    start = np.array([0.5, 0.25])
    fwd = link_phase(spec, start, 0, 0.2)
    back = link_phase(spec, start + np.array([0.2, 0.0]), 0, -0.2)
    assert back == pytest.approx(-fwd, rel=1e-13)


def test_link_phase_validation():
    spec = FieldSpec.constant(1.0)
    with pytest.raises(ValueError):
        link_phase(spec, np.zeros(3), 0, 0.1)
    with pytest.raises(ValueError):
        link_phase(spec, np.zeros(2), 2, 0.1)


# ── Plaquette sums as discrete flux ────────────────────────────────────────


def test_constant_plaquette_is_exact_flux():
    g = build_grid(DomainSpec(dimension=2, truncation_radius=2.0), 0.25)
    ph = link_phases(g, FieldSpec.constant(1.7))
    corners, sums = plaquette_sums(g, ph)
    assert len(corners) == (15 - 1) ** 2
    assert np.allclose(sums, 1.7 * 0.25**2, rtol=0, atol=1e-14)


def test_radial_plaquette_matches_area_integral():
    spec = FieldSpec.radial_decay(2.0, 2.0)
    g = build_grid(DomainSpec(dimension=2, truncation_radius=1.0), 0.5)
    ph = link_phases(g, spec)
    corners, sums = plaquette_sums(g, ph)
    pos = g.positions
    for c, s in zip(corners, sums):
        x0, y0 = pos[c]
        flux, _ = dblquad(
            lambda y, x: float(spec.strength(np.array([x, y]))),
            x0, x0 + 0.5, y0, y0 + 0.5, epsabs=1e-12)
        assert s == pytest.approx(flux, abs=1e-9)


def test_plaquettes_skip_masked_squares():
    spec = DomainSpec(dimension=2, truncation_radius=3.0,
                      obstacle=DiskObstacle((0.0, 0.0), 1.0))
    g = build_grid(spec, 0.25)
    ph = link_phases(g, FieldSpec.constant(1.0))
    corners, _ = plaquette_sums(g, ph)
    pos = g.positions
    # every returned square has all four corners kept; none lies across the rim
    for c in corners:
        for dx in (0.0, 0.25):
            for dy in (0.0, 0.25):
                assert g.node_at((round((pos[c, 0] + dx) / 0.25),
                                  round((pos[c, 1] + dy) / 0.25))) >= 0


def test_gauge_shift_moves_phases_but_not_plaquettes():
    g = build_grid(DomainSpec(dimension=2, truncation_radius=1.5), 0.25)
    ph = link_phases(g, FieldSpec.constant(0.8))
    rng = np.random.default_rng(5)
    chi = rng.normal(size=g.n_nodes)
    sh = ph.shifted(chi)
    for a, (i_idx, j_idx) in enumerate(g.edges):
        assert np.allclose(sh.theta[a] - ph.theta[a], chi[j_idx] - chi[i_idx])
    _, s0 = plaquette_sums(g, ph)
    _, s1 = plaquette_sums(g, sh)
    assert np.allclose(s0, s1, atol=1e-12)


def test_link_phases_dimension_mismatch():
    g = build_grid(DomainSpec(dimension=2, truncation_radius=1.0), 0.5)
    with pytest.raises(ValueError):
        link_phases(g, FieldSpec.constant(1.0, dimension=3))
