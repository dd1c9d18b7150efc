import dataclasses
import subprocess
import sys

import numpy as np
import pytest

import conftest

from magspec.experiments import (CompareReport, RunConfig, build_operator,
                                 compare_verdict, free_twin, ladder_compare,
                                 run_ladder, run_spectrum)
from magspec.fields import FieldSpec
from magspec.geometry import DiskObstacle
from magspec.spectra import (EssentialSpectrumModel, cluster_report,
                             ladder_report)


def _small_cfg(**kw):
    base = dict(truncation_radius=3.5, h=0.3, window=(0.0, 2.0), delta=0.2,
                fieldspec=FieldSpec.constant(1.0, 2))
    base.update(kw)
    return RunConfig(**base)


# ── Configuration ──────────────────────────────────────────────────────────


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(dimension=3, fieldspec=FieldSpec.constant(1.0, 2))
    with pytest.raises(ValueError):
        RunConfig(gamma=0.5)                      # no obstacle to act on
    with pytest.raises(ValueError):
        RunConfig(window=(2.0, 1.0))
    with pytest.raises(ValueError):
        RunConfig(k=0)
    with pytest.raises(ValueError):
        RunConfig(delta=0.0)
    with pytest.raises(TypeError):
        RunConfig(obstacle="disk")


@pytest.mark.parametrize("kw", [
    dict(h=-0.1), dict(h=0.0), dict(h=float("nan")), dict(h=float("inf")),
    dict(tol=-1.0), dict(tol=0.0), dict(tol=float("nan")),
    dict(cap=0),
    dict(truncation_radius=-2.0), dict(truncation_radius=float("nan")),
    dict(boundary="neumann"),
    dict(boundary="dirichlet"),                   # no obstacle to act on
    dict(delta=1.5),                              # levels 1, 3, 5 overlap
    pytest.param(dict(window=(0.0, 2.0), delta=1.5,
                      fieldspec=FieldSpec.constant(0.5, 2)),
                 id="delta=1.5,levels=0.5,1.5"),
], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_config_refuses_values_the_run_would_refuse(kw):
    with pytest.raises(ValueError):
        RunConfig(**kw)


def test_config_delta_is_checked_against_the_window_model():
    # one level below the cutoff, a half line and an empty model have no
    # two buckets to overlap; lowest-k mode has no buckets at all
    RunConfig(window=(0.0, 2.0), delta=1.5)
    RunConfig(dimension=3, fieldspec=FieldSpec.constant(1.0, 3), delta=1.5)
    RunConfig(fieldspec=FieldSpec.radial_growth(1.0, 2.0), delta=1.5)
    RunConfig(window=None, delta=1.5)


def test_config_window_normalized():
    cfg = RunConfig(window=(0, 6))
    assert cfg.window == (0.0, 6.0)
    assert isinstance(cfg.window[0], float)


def test_config_domain_radius_override():
    # a ladder rung is its config with another radius
    cfg = _small_cfg(obstacle=DiskObstacle((0.0, 0.0), 1.0), gamma=0.3)
    rung = dataclasses.replace(cfg, truncation_radius=9.0)
    assert cfg.domain().truncation_radius == 3.5
    assert rung.domain().truncation_radius == 9.0
    assert rung.domain().obstacle == cfg.obstacle
    g0, _, op0 = build_operator(cfg)
    g, _, op = build_operator(rung)
    assert g.n_obstacle == g0.n_obstacle > 0 and op.n > op0.n


def test_build_operator_region_choice():
    free = _small_cfg()
    g, _, op = build_operator(free)
    assert op.region == "full" and op.n == g.n_nodes
    walled = _small_cfg(obstacle=DiskObstacle((0.0, 0.0), 1.0), gamma=0.4)
    g2, _, op2 = build_operator(walled)
    assert op2.region == "omega"
    assert op2.n == g2.n_omega
    assert op2.meta["gamma"] == 0.4


# ── Single runs ────────────────────────────────────────────────────────────


def test_run_spectrum_window_mode():
    run = run_spectrum(_small_cfg())
    assert run.result.certified
    assert run.report is not None
    assert run.report.model.kind == "landau_set"
    assert run.report.total == run.result.k
    d = run.as_dict()
    assert d["n"] == run.n
    assert len(d["eigenvalues"]) == run.result.k
    assert d["cluster_report"]["counts"][0] > 0


def test_run_spectrum_lowest_mode():
    run = run_spectrum(_small_cfg(window=None, k=5))
    assert run.report is None
    assert run.result.k == 5
    assert np.all(np.diff(run.result.eigenvalues) >= 0)
    assert run.as_dict()["cluster_report"] is None


def test_run_spectrum_radius_override():
    cfg = _small_cfg()
    run = run_spectrum(dataclasses.replace(cfg, truncation_radius=4.2))
    assert run.radius == 4.2
    assert run.n > run_spectrum(cfg).n


# ── Ladders ────────────────────────────────────────────────────────────────


def test_run_ladder_counts_grow():
    lad = run_ladder(_small_cfg(), (3.5, 4.5))
    assert lad.report.radii == (3.5, 4.5)
    counts = lad.report.counts_for(1.0)
    assert counts[1] >= counts[0] > 0
    assert lad.report.persistent == (1.0,)
    assert lad.report.certified


def test_run_ladder_needs_window():
    with pytest.raises(ValueError):
        run_ladder(_small_cfg(window=None), (3.5, 4.5))


@pytest.mark.parametrize("radii, jobs, why", [
    ((3.5, 4.0), 2, "jobs must be 1"),
    ((4.0, 3.5), 1, "strictly increasing"),
], ids=["jobs=2", "decreasing"])
def test_run_ladder_refuses_before_any_rung(lu_counter, radii, jobs, why):
    with pytest.raises(ValueError, match=why):
        run_ladder(_small_cfg(), radii, jobs=jobs)
    assert lu_counter == []


def test_import_loads_no_process_pool():
    # rungs run in the calling process, so nothing needs multiprocessing
    code = ("import sys, magspec, magspec.cli; print([m for m in "
            "('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])")
    got = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=conftest.package_env())
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip() == "[]"


# ── Verdict logic ──────────────────────────────────────────────────────────


def _ladder_from_counts(counts_per_radius, radii=(4.0, 6.0), certified=True,
                        levels=(1.0,)):
    model = EssentialSpectrumModel("landau_set", levels=levels)
    reps = []
    for counts in counts_per_radius:
        vals = np.concatenate([np.full(c, lev)
                               for c, lev in zip(counts, levels)]) \
            if any(counts) else np.empty(0)
        reps.append(dataclasses.replace(
            cluster_report(vals, model, 0.2, (0.0, 4.0)), certified=certified))
    return ladder_report(radii, reps)


def test_verdict_pass():
    a = _ladder_from_counts([(3,), (5,)])
    b = _ladder_from_counts([(4,), (6,)])
    verdict, reason = compare_verdict(a, b, diff_bound=2)
    assert verdict == "PASS"
    assert "1.0" in reason


def test_verdict_fail_on_count_gap():
    a = _ladder_from_counts([(3,), (5,)])
    b = _ladder_from_counts([(9,), (11,)])
    verdict, reason = compare_verdict(a, b, diff_bound=2)
    assert verdict == "FAIL"
    assert "differ by 6" in reason


def test_verdict_fail_on_persistent_mismatch():
    a = _ladder_from_counts([(3, 2), (5, 3)], levels=(1.0, 3.0))
    b = _ladder_from_counts([(4, 2), (6, 1)], levels=(1.0, 3.0))
    verdict, reason = compare_verdict(a, b)
    assert verdict == "FAIL"
    assert "persistent" in reason


def test_verdict_fail_on_stagnation():
    a = _ladder_from_counts([(3,), (3,)])
    b = _ladder_from_counts([(3,), (4,)])
    # level persists on both sides (non-decreasing) but side a never grows
    verdict, reason = compare_verdict(a, b)
    assert verdict == "FAIL"
    assert "grow" in reason


def test_verdict_inconclusive_when_uncertified():
    a = _ladder_from_counts([(3,), (5,)], certified=False)
    b = _ladder_from_counts([(3,), (5,)])
    verdict, _ = compare_verdict(a, b)
    assert verdict == "INCONCLUSIVE"


def test_verdict_pass_on_jointly_empty():
    a = _ladder_from_counts([(0,), (0,)])
    b = _ladder_from_counts([(0,), (0,)])
    verdict, reason = compare_verdict(a, b)
    assert verdict == "PASS"
    assert "no persistent" in reason


# ── End-to-end comparison ──────────────────────────────────────────────────


def test_ladder_compare_obstacle_vs_free():
    # the wall must sit a few magnetic lengths away from the obstacle or the
    # level-1 cluster has no room to grow between the rungs
    cfg = _small_cfg(truncation_radius=5.0, h=0.35,
                     obstacle=DiskObstacle((0.0, 0.0), 1.0), gamma=0.0)
    rep = ladder_compare(cfg, free_twin(cfg), (5.0, 6.5), diff_bound=10)
    assert isinstance(rep, CompareReport)
    assert rep.verdict == "PASS"
    d = rep.as_dict()
    assert d["verdict"] == "PASS"
    assert len(d["side_a"]["rungs"]) == 2


def test_ladder_compare_refuses_negative_diff_bound(lu_counter):
    # no count difference is below -1, so the verdict could only be FAIL
    cfg = _small_cfg()
    with pytest.raises(ValueError, match="diff_bound"):
        ladder_compare(cfg, free_twin(cfg), (3.5, 4.0), diff_bound=-1)
    assert lu_counter == []


def test_ladder_compare_negative_control():
    # growing field has no essential spectrum: persistent sets must differ
    cfg = _small_cfg(truncation_radius=5.0, h=0.35,
                     obstacle=DiskObstacle((0.0, 0.0), 1.0), gamma=0.0)
    twin = free_twin(cfg, fieldspec=FieldSpec.radial_growth(1.0, 1.0))
    rep = ladder_compare(cfg, twin, (5.0, 6.5))
    assert rep.verdict == "FAIL"


def test_free_twin():
    cfg = _small_cfg(obstacle=DiskObstacle((0.0, 0.0), 1.0), gamma=0.7)
    twin = free_twin(cfg)
    assert twin.obstacle is None and twin.gamma == 0.0
    assert twin.fieldspec == cfg.fieldspec
    assert twin.h == cfg.h
    swapped = free_twin(cfg, fieldspec=FieldSpec.radial_decay(1.0, 2.0))
    assert swapped.fieldspec.kind == "radial_decay"
