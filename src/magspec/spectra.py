"""Essential-spectrum surrogates for truncated exterior operators.

On a finite truncation the essential spectrum of the unbounded-domain
operator shows up as eigenvalue clusters that persist and densify as the
truncation radius grows.  This module holds the model catalogue (Landau
levels, half lines, empty), the bucketing of computed eigenvalues against a
model, and the persistence bookkeeping across a ladder of radii.

Truncation edge states fall between clusters by construction and are counted
off-cluster; comparisons therefore reason about bounded differences of
cluster counts, never about zero off-cluster mass.
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import FieldSpec

MODEL_KINDS = ("landau_set", "half_line", "empty")


# ── Models ─────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class EssentialSpectrumModel:
    """What the infinite-domain spectrum should look like below a cutoff.

    kind "landau_set": isolated levels (tuple, ascending).
    kind "half_line": everything from threshold upward.
    kind "empty": no essential spectrum below the cutoff (compact resolvent).
    """

    kind: str
    levels: tuple = ()
    threshold: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "landau_set":
            lv = tuple(float(x) for x in self.levels)
            if len(lv) == 0:
                raise ValueError("landau_set model needs at least one level")
            if any(b <= a for a, b in zip(lv, lv[1:])):
                raise ValueError("levels must be strictly increasing")
            object.__setattr__(self, "levels", lv)
        if not np.isfinite(self.threshold):
            raise ValueError("threshold must be finite")


def landau_levels(b, dimension, cutoff):
    """Essential-spectrum model for a constant field of strength b.

    In 2d a nonzero field gives the discrete level set (2n-1)|b| up to the
    cutoff; zero field gives the half line from 0.  In 3d the free motion
    along the field axis smears the levels into the half line from |b|.
    """
    if dimension not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dimension}")
    if not np.isfinite(b) or not np.isfinite(cutoff):
        raise ValueError("b and cutoff must be finite")
    ab = abs(float(b))
    if dimension == 3:
        return EssentialSpectrumModel("half_line", threshold=ab)
    if ab == 0.0:
        return EssentialSpectrumModel("half_line", threshold=0.0)
    n_top = int(np.floor((cutoff / ab + 1.0) / 2.0))
    if n_top < 1:
        # cutoff below the first level: keep the first level anyway so the
        # model stays usable for windows that end under it
        n_top = 1
    lv = tuple(ab * (2 * n - 1) for n in range(1, n_top + 1))
    return EssentialSpectrumModel("landau_set", levels=lv)


def model_for_field(fieldspec, cutoff):
    """Map a field specification to its essential-spectrum model."""
    if not isinstance(fieldspec, FieldSpec):
        raise TypeError("fieldspec must be a FieldSpec")
    if fieldspec.kind == "constant":
        return landau_levels(fieldspec.b, fieldspec.dimension, cutoff)
    if fieldspec.kind == "radial_decay":
        # field strength drains to zero at infinity: half line from 0
        return EssentialSpectrumModel("half_line", threshold=0.0)
    # radial_growth: unbounded field, compact resolvent, no essential part
    return EssentialSpectrumModel("empty")


# ── Cluster reports ────────────────────────────────────────────────────────


@dataclass(frozen=True)
class LevelBucket:
    level: float
    count: int          # eigenvalues within half-width delta of the level
    gap_count: int      # eigenvalues nearest this level but outside delta


@dataclass
class ClusterReport:
    """Bucketing of the eigenvalues in a window against a model.

    Every analyzed eigenvalue lands in exactly one bucket: its nearest
    level if within delta, otherwise that level's gap tally, so the counts
    conserve the window total exactly.
    """

    model: EssentialSpectrumModel
    delta: float
    window: tuple
    buckets: list
    total: int
    off_count: int
    certified: bool = True

    @property
    def off_cluster_fraction(self):
        return self.off_count / self.total if self.total else 0.0

    def count_for(self, level):
        for b in self.buckets:
            if np.isclose(b.level, level, rtol=0.0, atol=1e-9):
                return b.count
        raise KeyError(f"no bucket at level {level}")

    def as_dict(self):
        return {
            "model": self.model.kind,
            "delta": self.delta,
            "window": [float(self.window[0]), float(self.window[1])],
            "levels": [b.level for b in self.buckets],
            "counts": [b.count for b in self.buckets],
            "gap_counts": [b.gap_count for b in self.buckets],
            "total": self.total,
            "off_count": self.off_count,
            "off_cluster_fraction": self.off_cluster_fraction,
            "certified": self.certified,
        }


def check_delta(model, delta):
    """Refuse a bucket half-width that is not positive, or that would make
    the buckets of two neighbouring levels overlap."""
    if not (np.isfinite(delta) and delta > 0):
        raise ValueError(f"delta must be positive, got {delta}")
    levels = model.levels
    if len(levels) > 1 and 2.0 * delta >= np.min(np.diff(levels)):
        raise ValueError("delta too wide: bucket intervals would overlap")


def cluster_report(evs, model, delta, window, certified=None):
    """Bucket eigenvalues near model levels; everything else is off-cluster.

    evs may be a SpectrumResult (certification is inherited unless
    overridden) or any array of eigenvalues.
    """
    vals = getattr(evs, "eigenvalues", evs)
    if certified is None:
        certified = bool(getattr(evs, "certified", True))
    vals = np.asarray(vals, dtype=float)
    a, b = float(window[0]), float(window[1])
    if not b >= a:
        raise ValueError(f"empty window [{a}, {b}]")
    check_delta(model, delta)
    w = vals[(vals >= a) & (vals <= b)]
    total = len(w)

    if model.kind == "empty":
        return ClusterReport(model, float(delta), (a, b), [], total, total,
                             certified)

    if model.kind == "half_line":
        above = int(np.sum(w >= model.threshold - delta))
        bucket = LevelBucket(float(model.threshold), above, total - above)
        return ClusterReport(model, float(delta), (a, b), [bucket], total,
                             total - above, certified)

    levels = np.asarray(model.levels)
    nearest = np.argmin(np.abs(w[:, None] - levels[None, :]), axis=1)
    buckets = []
    off = 0
    for j, lev in enumerate(levels):
        mine = w[nearest == j]
        inside = int(np.sum(np.abs(mine - lev) <= delta))
        gap = len(mine) - inside
        off += gap
        buckets.append(LevelBucket(float(lev), inside, gap))
    return ClusterReport(model, float(delta), (a, b), buckets, total, off,
                         certified)


# ── Ladder persistence ─────────────────────────────────────────────────────


@dataclass
class LadderReport:
    """Cluster reports over increasing truncation radii, plus persistence."""

    radii: tuple
    reports: list
    persistent: tuple
    certified: bool

    def counts_for(self, level):
        return [r.count_for(level) for r in self.reports]

    def as_dict(self):
        return {
            "radii": [float(r) for r in self.radii],
            "reports": [r.as_dict() for r in self.reports],
            "persistent": [float(x) for x in self.persistent],
            "certified": self.certified,
        }


def persistent_levels(reports):
    """Levels whose counts are positive and non-decreasing along the ladder.

    All reports must share one model.  Returns a tuple of level values
    (the threshold for half-line models); empty models persist nothing.
    """
    if len(reports) == 0:
        raise ValueError("need at least one report")
    model = reports[0].model
    for r in reports[1:]:
        if r.model != model:
            raise ValueError("reports mix different spectrum models")
    out = []
    for bucket in reports[0].buckets:
        counts = [r.count_for(bucket.level) for r in reports]
        if counts[0] > 0 and all(c2 >= c1 for c1, c2 in zip(counts, counts[1:])):
            out.append(bucket.level)
    return tuple(out)


def check_radii(radii):
    """Refuse ladder radii that are empty, not finite and positive, or not
    strictly increasing; returns them as a tuple of floats."""
    radii = tuple(float(r) for r in radii)
    if len(radii) == 0:
        raise ValueError("radii must not be empty")
    if not all(np.isfinite(r) and r > 0 for r in radii):
        raise ValueError(f"radii must be finite and positive, got "
                         f"{list(radii)}")
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError(f"radii must be strictly increasing, got "
                         f"{list(radii)}")
    return radii


def ladder_report(radii, reports):
    """Assemble a LadderReport, deriving persistence and certification."""
    radii = check_radii(radii)
    if len(radii) != len(reports):
        raise ValueError("one report per radius required")
    pers = persistent_levels(reports)
    cert = all(r.certified for r in reports)
    return LadderReport(radii, list(reports), pers, cert)
