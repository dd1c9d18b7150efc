"""End-to-end experiment pipelines.

A RunConfig pins everything needed to reproduce one numerical experiment:
domain, field, boundary data, spacing, window or count, solver knobs, seed.
On top of single runs sit truncation ladders (same config at growing radii)
and ladder comparisons, whose PASS/FAIL/INCONCLUSIVE verdicts encode the
stability-of-essential-spectrum reasoning: identical persistent cluster sets
with bounded count differences while the counts themselves grow.
"""

from dataclasses import asdict, dataclass, replace

import numpy as np

from .assembly import BOUNDARIES, assemble
from .fields import FieldSpec, link_phases
from .geometry import BoxObstacle, DiskObstacle, DomainSpec, build_grid
from .spectra import (check_delta, check_radii, cluster_report, ladder_report,
                      model_for_field)
from .eigensolve import eigs_lowest, eigs_window

VERDICTS = ("PASS", "FAIL", "INCONCLUSIVE")


# ── Configuration ──────────────────────────────────────────────────────────


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one spectral experiment."""

    dimension: int = 2
    truncation_radius: float = 8.0
    truncation_shape: str = "disk"
    obstacle: object = None
    fieldspec: FieldSpec = FieldSpec.constant(1.0, 2)
    gamma: float = 0.0
    boundary: str = "robin"
    h: float = 0.15
    window: tuple = (0.0, 6.0)
    k: int = 20
    delta: float = 0.15
    tol: float = 1e-8
    cap: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.fieldspec.dimension != self.dimension:
            raise ValueError("field dimension disagrees with domain dimension")
        if self.obstacle is not None and not isinstance(
                self.obstacle, (DiskObstacle, BoxObstacle)):
            raise TypeError("obstacle must be DiskObstacle, BoxObstacle or None")
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if self.obstacle is None and self.gamma != 0.0:
            raise ValueError("gamma without an obstacle has no boundary to act on")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got "
                             f"{self.boundary!r}")
        if self.obstacle is None and self.boundary != RunConfig.boundary:
            raise ValueError("boundary without an obstacle has no boundary "
                             "to act on")
        for name in ("h", "tol", "truncation_radius"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got "
                                 f"{value}")
        if self.cap < 1:
            raise ValueError(f"cap must be positive, got {self.cap}")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be positive")
        if self.window is not None:
            a, b = self.window
            if not b >= a:
                raise ValueError(f"empty window [{a}, {b}]")
            object.__setattr__(self, "window", (float(a), float(b)))
            # the delta that cluster_report would refuse after the solve
            check_delta(model_for_field(self.fieldspec, cutoff=float(b)),
                        self.delta)
        self.domain()   # what the domain refuses, such as a centre's length

    def as_dict(self):
        """Every field as plain data, the way results.json echoes it: the
        field spec under "field", an obstacle as its kind plus its fields."""
        out = asdict(self)
        out["field"] = out.pop("fieldspec")
        if self.obstacle is not None:
            out["obstacle"]["kind"] = self.obstacle.kind
        return out

    def domain(self):
        return DomainSpec(
            dimension=self.dimension,
            truncation_radius=float(self.truncation_radius),
            truncation_shape=self.truncation_shape,
            obstacle=self.obstacle,
        )


def build_operator(cfg):
    """Grid, link phases, and assembled operator for a config.

    Free space assembles the full-grid operator; with an obstacle present the
    omega-region operator with the configured Robin data is built.
    """
    grid = build_grid(cfg.domain(), cfg.h)
    phases = link_phases(grid, cfg.fieldspec)
    if cfg.obstacle is None:
        op = assemble(grid, phases, region="full")
    else:
        op = assemble(grid, phases, region="omega", gamma=cfg.gamma,
                      boundary=cfg.boundary)
    return grid, phases, op


# ── Single runs ────────────────────────────────────────────────────────────


@dataclass
class SpectrumRun:
    """One solved experiment rung (light: no grid or matrix kept)."""

    radius: float
    n: int
    result: object
    report: object

    def as_dict(self):
        out = {
            "radius": self.radius,
            "n": self.n,
            "eigenvalues": [float(x) for x in self.result.eigenvalues],
            "residuals": [float(x) for x in self.result.residuals],
            "certified": bool(self.result.certified),
            "method": self.result.info.method,
        }
        out["cluster_report"] = self.report.as_dict() if self.report else None
        return out


def run_spectrum(cfg):
    """Solve one rung: window census when cfg.window is set, else lowest-k."""
    _, _, op = build_operator(cfg)
    if cfg.window is not None:
        a, b = cfg.window
        result = eigs_window(op, a, b, tol=cfg.tol, cap=cfg.cap, seed=cfg.seed)
        model = model_for_field(cfg.fieldspec, cutoff=b)
        report = cluster_report(result, model, cfg.delta, (a, b))
    else:
        result = eigs_lowest(op, cfg.k, tol=cfg.tol, seed=cfg.seed,
                             return_vectors=False)
        report = None
    return SpectrumRun(float(cfg.truncation_radius), op.n, result, report)


# ── Ladders ────────────────────────────────────────────────────────────────


@dataclass
class LadderRun:
    rungs: list
    report: object          # LadderReport

    def as_dict(self):
        return {
            "rungs": [r.as_dict() for r in self.rungs],
            "ladder": self.report.as_dict(),
        }


def run_ladder(cfg, radii, jobs=1):
    """The same experiment at strictly increasing truncation radii, solved
    rung after rung in this process.  jobs takes only 1, and goes when
    ROADMAP item 11 drops ``jobs=1`` from the perfbench workloads.  Bad jobs,
    radii or window raise ValueError before any operator is built."""
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs}")
    if cfg.window is None:
        raise ValueError("ladders need a window config for cluster reports")
    radii = check_radii(radii)
    rungs = [run_spectrum(replace(cfg, truncation_radius=r)) for r in radii]
    rep = ladder_report(radii, [r.report for r in rungs])
    return LadderRun(rungs, rep)


# ── Comparison verdicts ────────────────────────────────────────────────────


@dataclass
class CompareReport:
    verdict: str
    reason: str
    ladder_a: LadderRun
    ladder_b: LadderRun
    diff_bound: int

    def as_dict(self):
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "diff_bound": self.diff_bound,
            "side_a": self.ladder_a.as_dict(),
            "side_b": self.ladder_b.as_dict(),
        }


def _levels_match(pa, pb):
    if len(pa) != len(pb):
        return False
    return all(np.isclose(x, y, rtol=0.0, atol=1e-9) for x, y in zip(pa, pb))


def ladder_compare(cfg_a, cfg_b, radii, diff_bound=10):
    """Compare two configs along one radius ladder.

    PASS when both sides expose the same persistent cluster levels, the
    per-level counts differ by at most diff_bound at every radius, and the
    counts themselves grow along the ladder.  Uncertified rungs make the
    comparison INCONCLUSIVE rather than quietly trusted.  A negative
    diff_bound, which no count difference could meet, raises ValueError
    before anything is solved.
    """
    if diff_bound < 0:
        raise ValueError(f"diff_bound must be non-negative, got {diff_bound}")
    lad_a = run_ladder(cfg_a, radii)
    lad_b = run_ladder(cfg_b, radii)
    verdict, reason = compare_verdict(lad_a.report, lad_b.report, diff_bound)
    return CompareReport(verdict, reason, lad_a, lad_b, int(diff_bound))


def compare_verdict(rep_a, rep_b, diff_bound=10):
    """Verdict logic on two LadderReports; returns (verdict, reason)."""
    if not (rep_a.certified and rep_b.certified):
        return "INCONCLUSIVE", "uncertified window counts on at least one side"
    pa, pb = rep_a.persistent, rep_b.persistent
    if not _levels_match(pa, pb):
        return "FAIL", (f"persistent level sets differ: "
                        f"{list(pa)} vs {list(pb)}")
    if len(pa) == 0:
        return "PASS", "no persistent levels on either side"
    for lev in pa:
        ca = rep_a.counts_for(lev)
        cb = rep_b.counts_for(lev)
        for r, x, y in zip(rep_a.radii, ca, cb):
            if abs(x - y) > diff_bound:
                return "FAIL", (f"level {lev}: counts differ by {abs(x - y)} "
                                f"(> {diff_bound}) at radius {r}")
        if len(ca) > 1 and (ca[-1] <= ca[0] or cb[-1] <= cb[0]):
            return "FAIL", (f"level {lev}: counts do not grow along the "
                            f"ladder ({ca} vs {cb})")
    return "PASS", (f"persistent levels {list(pa)} with count differences "
                    f"<= {diff_bound} at every radius")


def free_twin(cfg, fieldspec=None):
    """Side-B builder: the same config without the obstacle, optionally with a
    different field (for negative controls)."""
    return replace(cfg, obstacle=None, gamma=0.0, boundary=RunConfig.boundary,
                   fieldspec=cfg.fieldspec if fieldspec is None else fieldspec)
