import numpy as np
import pytest

from magspec.eigensolve import SolverInfo, SpectrumResult
from magspec.fields import FieldSpec
from magspec.spectra import (ClusterReport, EssentialSpectrumModel,
                             cluster_report, ladder_report, landau_levels,
                             model_for_field, persistent_levels)


def _result(vals, certified=True):
    vals = np.asarray(vals, dtype=float)
    info = SolverInfo("dense", 0, 1e-8, True)
    return SpectrumResult(vals, np.zeros_like(vals), info, certified=certified)


# ── Model catalogue ────────────────────────────────────────────────────────


def test_landau_levels_2d():
    m = landau_levels(1.0, 2, 6.0)
    assert m.kind == "landau_set"
    assert m.levels == (1.0, 3.0, 5.0)
    assert landau_levels(-2.0, 2, 6.0).levels == (2.0, 6.0)
    # cutoff below the first level still keeps one level
    assert landau_levels(4.0, 2, 1.0).levels == (4.0,)


def test_landau_levels_edge_kinds():
    assert landau_levels(0.0, 2, 6.0) == EssentialSpectrumModel("half_line", threshold=0.0)
    m3 = landau_levels(1.5, 3, 6.0)
    assert m3.kind == "half_line" and m3.threshold == 1.5


def test_model_for_field():
    assert model_for_field(FieldSpec.constant(1.0), 6.0).levels == (1.0, 3.0, 5.0)
    dec = model_for_field(FieldSpec.radial_decay(1.0, 2.0), 6.0)
    assert dec.kind == "half_line" and dec.threshold == 0.0
    assert model_for_field(FieldSpec.radial_growth(1.0, 2.0), 6.0).kind == "empty"
    with pytest.raises(TypeError):
        model_for_field("constant", 6.0)


def test_model_validation():
    with pytest.raises(ValueError):
        EssentialSpectrumModel("landau_set", levels=())
    with pytest.raises(ValueError):
        EssentialSpectrumModel("landau_set", levels=(1.0, 1.0))
    with pytest.raises(ValueError):
        EssentialSpectrumModel("comb")
    with pytest.raises(ValueError):
        landau_levels(np.inf, 2, 6.0)
    with pytest.raises(ValueError):
        landau_levels(1.0, 4, 6.0)


# ── Bucketing ──────────────────────────────────────────────────────────────


def test_bucketing_worked_example():
    model = EssentialSpectrumModel("landau_set", levels=(1.0, 3.0))
    rep = cluster_report(np.array([1.01, 2.9, 3.05]), model, 0.12, (0.0, 4.0))
    assert rep.count_for(1.0) == 1
    assert rep.count_for(3.0) == 2
    assert rep.off_count == 0
    assert rep.total == 3


def test_bucketing_off_cluster():
    model = EssentialSpectrumModel("landau_set", levels=(1.0, 3.0))
    rep = cluster_report(np.array([2.0]), model, 0.1, (0.0, 4.0))
    assert rep.total == 1 and rep.off_count == 1
    assert rep.off_cluster_fraction == 1.0
    # 2.0 is equidistant; argmin ties to the first level's gap tally
    assert rep.buckets[0].gap_count == 1


def test_bucketing_window_filter():
    model = EssentialSpectrumModel("landau_set", levels=(1.0,))
    rep = cluster_report(np.array([-0.5, 0.99, 7.3]), model, 0.1, (0.0, 4.0))
    assert rep.total == 1
    assert rep.count_for(1.0) == 1


def test_conservation_fuzz():
    rng = np.random.default_rng(0)
    model = EssentialSpectrumModel("landau_set", levels=(1.0, 3.0, 5.0))
    for _ in range(25):
        vals = rng.uniform(-1.0, 7.0, size=rng.integers(0, 60))
        rep = cluster_report(vals, model, 0.3, (0.0, 6.0))
        in_window = int(np.sum((vals >= 0.0) & (vals <= 6.0)))
        assert rep.total == in_window
        assert sum(b.count for b in rep.buckets) + rep.off_count == rep.total
        assert sum(b.gap_count for b in rep.buckets) == rep.off_count


def test_half_line_bucket():
    model = EssentialSpectrumModel("half_line", threshold=2.0)
    rep = cluster_report(np.array([0.5, 1.95, 2.5, 3.0]), model, 0.1, (0.0, 4.0))
    assert rep.buckets[0].count == 3      # 1.95 within delta of the threshold
    assert rep.off_count == 1
    assert rep.count_for(2.0) == 3


def test_empty_model_bucket():
    rep = cluster_report(np.array([1.0, 2.0]), EssentialSpectrumModel("empty"),
                         0.1, (0.0, 4.0))
    assert rep.buckets == [] and rep.off_count == 2


def test_certification_inherited_and_overridable():
    model = EssentialSpectrumModel("landau_set", levels=(1.0,))
    rep = cluster_report(_result([1.0], certified=False), model, 0.1, (0.0, 2.0))
    assert not rep.certified
    rep3 = cluster_report(np.array([1.0]), model, 0.1, (0.0, 2.0))
    assert rep3.certified


def test_bucket_overlap_rejected():
    model = EssentialSpectrumModel("landau_set", levels=(1.0, 1.5))
    with pytest.raises(ValueError, match="overlap"):
        cluster_report(np.array([1.0]), model, 0.25, (0.0, 2.0))
    with pytest.raises(ValueError):
        cluster_report(np.array([1.0]), model, -0.1, (0.0, 2.0))
    with pytest.raises(ValueError):
        cluster_report(np.array([1.0]), model, 0.1, (2.0, 0.0))


def test_report_dict_shape():
    model = EssentialSpectrumModel("landau_set", levels=(1.0, 3.0))
    d = cluster_report(np.array([1.0, 2.2]), model, 0.2, (0.0, 4.0)).as_dict()
    assert d["levels"] == [1.0, 3.0]
    assert d["counts"] == [1, 0]
    assert d["total"] == 2 and d["off_count"] == 1
    assert d["off_cluster_fraction"] == 0.5


def test_count_for_unknown_level():
    model = EssentialSpectrumModel("landau_set", levels=(1.0,))
    rep = cluster_report(np.array([1.0]), model, 0.1, (0.0, 2.0))
    with pytest.raises(KeyError):
        rep.count_for(3.0)


# ── Persistence across a ladder ────────────────────────────────────────────


def _reports(counts_per_radius, levels=(1.0, 3.0), delta=0.2, window=(0.0, 4.0)):
    model = EssentialSpectrumModel("landau_set", levels=levels)
    reps = []
    for counts in counts_per_radius:
        vals = np.concatenate([
            np.full(c, lev) for c, lev in zip(counts, levels)]) \
            if any(counts) else np.empty(0)
        reps.append(cluster_report(vals, model, delta, window))
    return reps


def test_persistent_levels_growing():
    reps = _reports([(2, 1), (3, 1), (5, 2)])
    assert persistent_levels(reps) == (1.0, 3.0)


def test_persistent_levels_dropout():
    # second level count falls from 2 to 1: not persistent
    reps = _reports([(2, 2), (3, 1), (5, 1)])
    assert persistent_levels(reps) == (1.0,)


def test_persistent_levels_never_present():
    reps = _reports([(2, 0), (3, 0), (5, 0)])
    assert persistent_levels(reps) == (1.0,)


def test_persistent_levels_half_line_and_empty():
    model = EssentialSpectrumModel("half_line", threshold=0.5)
    reps = [cluster_report(np.full(c, 1.0), model, 0.1, (0.0, 2.0))
            for c in (2, 4, 4)]
    assert persistent_levels(reps) == (0.5,)
    reps2 = [cluster_report(np.full(c, 1.0), model, 0.1, (0.0, 2.0))
             for c in (2, 1, 4)]
    assert persistent_levels(reps2) == ()
    empty = [cluster_report(np.array([1.0]), EssentialSpectrumModel("empty"),
                            0.1, (0.0, 2.0))]
    assert persistent_levels(empty) == ()


def test_persistent_levels_validation():
    with pytest.raises(ValueError):
        persistent_levels([])
    m1 = EssentialSpectrumModel("landau_set", levels=(1.0,))
    m2 = EssentialSpectrumModel("landau_set", levels=(2.0,))
    r1 = cluster_report(np.array([1.0]), m1, 0.1, (0.0, 3.0))
    r2 = cluster_report(np.array([2.0]), m2, 0.1, (0.0, 3.0))
    with pytest.raises(ValueError):
        persistent_levels([r1, r2])


def test_ladder_report_assembly():
    reps = _reports([(2, 1), (3, 2)])
    lad = ladder_report((4.0, 6.0), reps)
    assert lad.radii == (4.0, 6.0)
    assert lad.persistent == (1.0, 3.0)
    assert lad.certified
    assert lad.counts_for(1.0) == [2, 3]
    d = lad.as_dict()
    assert d["radii"] == [4.0, 6.0]
    assert len(d["reports"]) == 2


def test_ladder_report_certification_aggregates():
    model = EssentialSpectrumModel("landau_set", levels=(1.0,))
    r1 = cluster_report(np.array([1.0]), model, 0.1, (0.0, 2.0))
    r2 = cluster_report(_result([1.0, 1.0], certified=False), model, 0.1, (0.0, 2.0))
    lad = ladder_report((4.0, 6.0), [r1, r2])
    assert not lad.certified


def test_ladder_report_validation():
    reps = _reports([(1, 0), (2, 0)])
    with pytest.raises(ValueError):
        ladder_report((4.0,), reps)
    with pytest.raises(ValueError):
        ladder_report((6.0, 4.0), reps)
