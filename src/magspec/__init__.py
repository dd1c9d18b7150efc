"""magspec: a numerical spectral laboratory for magnetic Schrodinger
operators with Robin obstacle conditions on truncated exterior lattices."""

from .geometry import (
    OMEGA,
    OBSTACLE,
    BoxObstacle,
    DiskObstacle,
    DomainSpec,
    MaskedGrid,
    build_grid,
)
from .fields import (
    FieldSpec,
    LinkPhases,
    link_phase,
    link_phases,
    plaquette_sums,
    vector_potential,
)
from .assembly import (
    HermitianOperator,
    assemble,
    direct_sum,
)
from .eigensolve import (
    NonConvergence,
    SolverInfo,
    SpectrumResult,
    WindowOverflow,
    eigs_lowest,
    eigs_window,
    inertia_count,
    residual,
)
from .spectra import (
    ClusterReport,
    EssentialSpectrumModel,
    LadderReport,
    cluster_report,
    landau_levels,
    model_for_field,
    persistent_levels,
)
from .probes import (
    boundary_identity_check,
    hermitian_shift,
    resolvent_difference_svd,
    smooth_random_field,
)
from .experiments import (
    CompareReport,
    RunConfig,
    SpectrumRun,
    build_operator,
    ladder_compare,
    run_ladder,
    run_spectrum,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
