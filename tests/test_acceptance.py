"""End-to-end checks at pinned desk-scale configurations.

Each test below exercises one headline capability at a frozen grid, field,
and tolerance, appends a one-line verdict to the summary block printed at
the end of the session, and then asserts.  Budgets are wall-clock seconds
on a single core.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import hyp1f1

import conftest

from magspec.assembly import assemble, direct_sum
from magspec.eigensolve import eigs_lowest, eigs_window
from magspec.experiments import RunConfig, build_operator, run_ladder, run_spectrum
from magspec.fields import FieldSpec, link_phases
from magspec.geometry import BoxObstacle, DiskObstacle, DomainSpec, build_grid
from magspec.probes import (boundary_identity_check, hermitian_shift,
                            resolvent_difference_svd)
from magspec.spectra import cluster_report, landau_levels


def _record(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    conftest.acceptance_lines.append(line)
    assert ok, line


def _cli_results(num, proc, out):
    """The run's results.json; a FAIL naming the exit code and the end of
    stderr when the command line wrote none."""
    path = out / "results.json"
    if not path.exists():
        tail = " | ".join(proc.stderr.strip().splitlines()[-5:])
        _record(num, False, f"no results.json (exit {proc.returncode}): {tail}")
    return json.loads(path.read_text())


# ── 1: exactness on the zero-field square ──────────────────────────────────


def test_criterion_1_zero_field_square():
    # the budget is for the work below: the first blocked LAPACK
    # eigensolve of a process can take most of a second to page in its code
    # on a cold host, so one large enough to run the same blocked code
    # (a 2 x 2 call would not) runs before the clock starts
    np.linalg.eigvalsh(np.eye(600))
    t0 = time.perf_counter()
    h, R = 0.1, 2.0                      # 40x40 cells -> 39x39 interior nodes
    g = build_grid(DomainSpec(2, R, "box"), h)
    op = assemble(g, link_phases(g, FieldSpec.constant(0.0, 2)), region="full")
    dense = op.dense()
    assert np.all(dense.imag == 0.0)
    evs = np.linalg.eigvalsh(dense.real)

    L = 2.0 * R
    m = np.arange(1, 40)
    one_d = (4.0 / h**2) * np.sin(m * np.pi * h / (2.0 * L)) ** 2
    want = np.sort(np.add.outer(one_d, one_d).ravel())
    rel = float(np.max(np.abs(evs - want) / want))

    # Hermitian structure is bitwise, also with a field and Robin data
    gm = build_grid(DomainSpec(2, 3.0, "box", DiskObstacle((0.0, 0.0), 1.0)), 0.25)
    hm = assemble(gm, link_phases(gm, FieldSpec.constant(1.0, 2)),
                  region="omega", gamma=0.5)
    defect = (hm.mat - hm.mat.conj().T).nnz + (op.mat - op.mat.conj().T).nnz

    # cluster bucketing conserves the window count exactly
    rep = cluster_report(evs, landau_levels(1.0, 2, 50.0), 0.15, (0.0, 50.0))
    in_window = int(np.count_nonzero((evs >= 0.0) & (evs <= 50.0)))
    conserved = (rep.total == in_window
                 and sum(b.count for b in rep.buckets) + rep.off_count == rep.total)

    dt = time.perf_counter() - t0
    ok = rel <= 1e-12 and defect == 0 and conserved and dt < 1.0
    _record(1, ok, f"closed-form rel err {rel:.2e} (tol 1e-12), "
                   f"Hermitian defect nnz {defect}, count conservation exact, "
                   f"{dt:.2f}s (budget 1s)")


# ── 2: gauge invariance of the Robin obstacle spectrum ─────────────────────


def test_criterion_2_gauge_shift():
    t0 = time.perf_counter()
    g = build_grid(DomainSpec(2, 6.0, "box", DiskObstacle((0.0, 0.0), 1.5)),
                   0.25)                 # 48x48 cells
    ph = link_phases(g, FieldSpec.constant(1.0, 2))
    chi = np.random.default_rng(202).standard_normal(g.n_nodes)
    e1 = eigs_lowest(assemble(g, ph, "omega", gamma=0.5), 30,
                     return_vectors=False).eigenvalues
    e2 = eigs_lowest(assemble(g, ph.shifted(chi), "omega", gamma=0.5), 30,
                     return_vectors=False).eigenvalues
    diff = float(np.max(np.abs(e1 - e2)))
    dt = time.perf_counter() - t0
    ok = diff <= 1e-10 and dt < 30.0
    _record(2, ok, f"max shift of 30 lowest eigenvalues {diff:.2e} "
                   f"under a random gauge change (tol 1e-10), "
                   f"{dt:.1f}s (budget 30s)")


# ── 3: free-space clustering at pinned resolution ──────────────────────────


LADDER_RADII = (8.0, 10.0, 12.0)


@pytest.fixture(scope="module")
def free_ladder():
    cfg = RunConfig(truncation_radius=12.0, truncation_shape="disk",
                    fieldspec=FieldSpec.constant(1.0, 2), h=0.15,
                    window=(0.0, 6.0), delta=0.15, tol=1e-8, seed=0)
    t0 = time.perf_counter()
    lad = run_ladder(cfg, LADDER_RADII, jobs=1)
    lad.seconds = time.perf_counter() - t0
    return lad


def test_criterion_3_landau_clusters(free_ladder):
    reports = free_ladder.report.reports
    counts = {lv: [r.count_for(lv) for r in reports] for lv in (1.0, 3.0, 5.0)}
    counts_ok = all(min(c) >= 5 and all(x <= y for x, y in zip(c, c[1:]))
                    for c in counts.values())
    certified = all(r.certified for r in reports)
    frac = reports[-1].off_cluster_fraction
    dt = free_ladder.seconds
    ok = counts_ok and certified and frac <= 0.2 and dt < 300.0
    _record(3, ok,
            f"counts 1:{counts[1.0]} 3:{counts[3.0]} 5:{counts[5.0]} "
            f"(each >=5 and non-decreasing: {counts_ok}), certified {certified}, "
            f"off-cluster fraction {frac:.4f} (bound 0.2), {dt:.0f}s (budget 300s)")


# ── 4: obstacle against free space through the command line ────────────────


COMPARE_CFG = """\
experiment = compare
truncation_shape = disk
truncation_radius = 12
h = 0.15
field = constant
field.b = 1.0
obstacle = disk
obstacle.radius = 2.0
gamma = 0.0
window = 0 6
delta = 0.15
radii = 8 10 12
diff_bound = 10
"""


def test_criterion_4_compare_cli(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "compare.cfg"
    cfg.write_text(COMPARE_CFG)
    out = tmp_path / "out"
    proc = conftest.run_cli("run", str(cfg), "--out", str(out), "--jobs", "1",
                            timeout=560)
    data = _cli_results(4, proc, out)
    comp = data["compare"]
    pa = comp["side_a"]["ladder"]["persistent"]
    pb = comp["side_b"]["ladder"]["persistent"]
    ra = comp["side_a"]["ladder"]["reports"]
    rb = comp["side_b"]["ladder"]["reports"]
    diffs = [abs(ca - cb) for a, b in zip(ra, rb)
             for ca, cb in zip(a["counts"], b["counts"])]
    grow = all(first["counts"][j] < last["counts"][j]
               for first, last in ((ra[0], ra[-1]), (rb[0], rb[-1]))
               for j in range(len(first["counts"])))
    dt = time.perf_counter() - t0
    ok = (proc.returncode == 0 and comp["verdict"] == "PASS"
          and pa == [1.0, 3.0, 5.0] and pb == [1.0, 3.0, 5.0]
          and max(diffs) <= 10 and grow and dt < 600.0)
    _record(4, ok, f"verdict {comp['verdict']} (exit {proc.returncode}), "
                   f"persistent {pa} vs {pb}, max count gap {max(diffs)} "
                   f"(bound 10), counts grow {grow}, {dt:.0f}s (budget 600s)")


# ── 5: resolvent difference and the boundary pairing identity ──────────────


def test_criterion_5_resolvent_probe():
    t0 = time.perf_counter()
    field = FieldSpec.constant(1.0, 2)
    levels = {}
    for h in (0.25, 0.125):              # 24x24 cells, then 48x48
        g = build_grid(DomainSpec(2, 3.0, "box",
                                  BoxObstacle((0.0, 0.0), (1.0, 1.0))), h)
        ph = link_phases(g, field)
        full = assemble(g, ph, "full")
        split = direct_sum(assemble(g, ph, "omega", gamma=0.5),
                           assemble(g, ph, "obstacle", gamma=0.5))
        levels[h] = (g, ph, full, split)

    g_c, ph_c, full_c, split_c = levels[0.25]
    shift = hermitian_shift(full_c, split_c)          # shared by everything
    sv_c, _ = resolvent_difference_svd(full_c, split_c, shift=shift, k=10)
    sv_f, _ = resolvent_difference_svd(levels[0.125][2], levels[0.125][3],
                                       shift=shift, k=10)
    ratio = float(sv_c[9] / sv_c[0])
    drift = float(np.max(np.abs(sv_f[:5] - sv_c[:5]) / sv_c[:5]))

    gaps = {}
    for h, (g, ph, full, split) in levels.items():
        gaps[h] = boundary_identity_check(full, split, g, ph, 0.5,
                                          shift=shift, seed=5).gap
    shrink = gaps[0.25] / gaps[0.125]

    dt = time.perf_counter() - t0
    ok = ratio <= 0.1 and drift <= 0.25 and shrink >= 1.5 and dt < 120.0
    _record(5, ok, f"sv10/sv1 {ratio:.4f} (bound 0.1), top-5 drift across "
                   f"refinement {drift:.3f} (bound 0.25), identity gap shrink "
                   f"x{shrink:.2f} (need >=1.5), {dt:.0f}s (budget 120s)")


# ── 6: decaying field pushes the lowest eigenvalue to zero ─────────────────


def test_criterion_6_decaying_field():
    t0 = time.perf_counter()
    cfg = RunConfig(truncation_radius=8.0, truncation_shape="disk",
                    fieldspec=FieldSpec.radial_decay(1.0, 2.0, 2), h=0.25,
                    window=None, k=5, tol=1e-8, seed=0)
    lam1 = [float(run_spectrum(replace(cfg, truncation_radius=R))
                  .result.eigenvalues[0]) for R in (8.0, 16.0, 24.0)]
    mono = all(b <= a + 1e-12 for a, b in zip(lam1, lam1[1:]))
    dt = time.perf_counter() - t0
    ok = mono and lam1[-1] < 0.05 and dt < 300.0
    _record(6, ok, f"lowest eigenvalue {lam1[0]:.4f} -> {lam1[1]:.4f} -> "
                   f"{lam1[2]:.4f} over R=8,16,24 (non-increasing {mono}, "
                   f"final < 0.05), {dt:.0f}s (budget 300s)")


# ── 7: growing field decouples from the truncation ─────────────────────────


CONTROL_CFG = """\
experiment = compare
truncation_shape = disk
truncation_radius = 6
h = 0.2
field = radial_growth
field.b0 = 1.0
field.p = 2.0
window = 0 6
delta = 0.15
radii = 6 9
compare.field = constant
compare.field.b = 1.0
"""


def test_criterion_7_growing_field(tmp_path):
    t0 = time.perf_counter()
    cfg = RunConfig(truncation_radius=8.0, truncation_shape="disk",
                    fieldspec=FieldSpec.radial_growth(1.0, 2.0, 2), h=0.15,
                    window=None, k=10, tol=1e-8, seed=0)
    e8 = run_spectrum(cfg).result.eigenvalues
    e16 = run_spectrum(replace(cfg, truncation_radius=16.0)).result.eigenvalues
    rel = float(np.max(np.abs(e16 - e8) / np.abs(e8)))

    ctl = tmp_path / "control.cfg"
    ctl.write_text(CONTROL_CFG)
    out = tmp_path / "out"
    proc = conftest.run_cli("run", str(ctl), "--out", str(out), "--jobs", "1",
                            timeout=280)
    verdict = _cli_results(7, proc, out)["compare"]["verdict"]

    dt = time.perf_counter() - t0
    ok = rel < 1e-2 and proc.returncode == 2 and verdict == "FAIL" and dt < 300.0
    _record(7, ok, f"10 lowest move {rel:.2e} as R doubles 8->16 (bound 1e-2), "
                   f"negative control vs constant field: verdict {verdict} "
                   f"exit {proc.returncode} (want FAIL/2), {dt:.0f}s (budget 300s)")


# ── 8: solver cross-validation on one operator ─────────────────────────────


def test_criterion_8_solver_agreement():
    t0 = time.perf_counter()
    g = build_grid(DomainSpec(2, 3.0, "box", DiskObstacle((0.0, 0.0), 1.0)),
                   0.2)                  # 30x30 cells
    op = assemble(g, link_phases(g, FieldSpec.constant(1.0, 2)),
                  region="omega", gamma=0.5)
    assert op.n <= 2000
    d = eigs_lowest(op, 20, method="dense")
    l = eigs_lowest(op, 20, tol=1e-8, method="lanczos", seed=0)
    diff = float(np.max(np.abs(d.eigenvalues - l.eigenvalues)))
    res_ok = bool(np.all(l.residuals <= 1e-8) and np.all(d.residuals <= 1e-8))

    evs_all = np.linalg.eigvalsh(op.dense())
    n_filter = int(np.count_nonzero((evs_all >= 0.0) & (evs_all <= 6.0)))
    w_d = eigs_window(op, 0.0, 6.0, method="dense")
    w_s = eigs_window(op, 0.0, 6.0, tol=1e-8, method="lanczos", seed=0)
    wdiff = (float(np.max(np.abs(w_d.eigenvalues - w_s.eigenvalues)))
             if w_d.k == w_s.k else np.inf)
    counts_match = w_d.k == w_s.k == n_filter and w_s.certified

    dt = time.perf_counter() - t0
    ok = (diff <= 1e-8 and res_ok and l.certified and counts_match
          and wdiff <= 1e-8 and dt < 120.0)
    _record(8, ok, f"dense vs shift-invert Lanczos max diff {diff:.2e} (tol 1e-8), "
                   f"residuals ok {res_ok}, window count {w_s.k} == dense "
                   f"filter {n_filter} (values within {wdiff:.2e}), "
                   f"{dt:.1f}s (budget 120s)")


# ── supporting evidence for the pinned clustering numbers ──────────────────


def _channel_root_count(c, z, numax):
    """Roots nu in (0, numax] of hyp1f1(-nu, c, z), counted by sign changes.

    The grid starts exactly at nu = 0 (where the function is 1): interior
    channels have their lowest root displaced from 0 by only ~exp(-z), far
    below any sensible grid spacing, and it must still flip the sign.
    """
    if numax <= 0:
        return 0
    nu = np.linspace(0.0, numax, max(64, int(200 * numax)))
    f = hyp1f1(-nu, c, z)
    return int(np.count_nonzero(np.sign(f[:-1]) != np.sign(f[1:])))


def _continuum_disk_count(b, R, e_max):
    """Eigenvalue count <= e_max for the constant field on a Dirichlet disk.

    Separation in angular momentum m gives radial problems whose spectra are
    roots of a confluent hypergeometric function: eigenvalues sit at
    b (2 nu + |m| - m + 1) with hyp1f1(-nu, |m|+1, b R^2/2) = 0.
    """
    z = 0.5 * b * R * R
    total = 0
    m, streak = 0, 0
    while streak < 12:                   # m >= 0: energies b(2 nu + 1)
        c = _channel_root_count(m + 1, z, (e_max / b - 1.0) / 2.0)
        total += c
        streak = streak + 1 if c == 0 else 0
        m += 1
    m = 1
    while True:                          # m < 0: energies b(2 nu + 2|m| + 1)
        numax = (e_max / b - 1.0) / 2.0 - m
        if numax <= 0:
            break
        total += _channel_root_count(m + 1, z, numax)
        m += 1
    return total


def test_census_matches_continuum_disk_oracle(free_ladder):
    want = _continuum_disk_count(1.0, 12.0, 6.0)
    got = free_ladder.report.reports[-1].total
    assert got == want == 204


def test_off_cluster_fraction_pinned(free_ladder):
    # golden numbers from the first verified run of the pinned ladder
    counts = [[r.count_for(lv) for lv in (1.0, 3.0, 5.0)]
              for r in free_ladder.report.reports]
    assert counts == [[21, 18, 17], [36, 33, 30], [55, 51, 48]]
    frac = free_ladder.report.reports[-1].off_cluster_fraction
    assert frac == pytest.approx(0.2451, abs=0.001)
    assert free_ladder.report.persistent == (1.0, 3.0, 5.0)


def test_free_disk_r12_certified_by_sectors(free_ladder):
    # the free disk commutes with the quarter turn, so every rung is solved
    # one rotation sector at a time and still certified against the full
    # operator's own edge counts: at R = 12 a census of 204
    rung = free_ladder.rungs[-1]
    assert rung.radius == 12.0
    assert all(r.result.info.sectors == 4 for r in free_ladder.rungs)
    assert rung.result.certified and rung.report.certified
    assert rung.report.total == 204
    assert [rung.report.count_for(lv) for lv in (1.0, 3.0, 5.0)] == [55, 51, 48]
