"""Exact computer algebra for rotation-invariant Kahler-Einstein potentials.

The engine works with potentials of Bochner form P = 1 + sum x_j + higher
terms, all arithmetic over exact rationals.  Core entry points:

- geometry.build_potential / ma_log_residual / certify_exact
- solver.extract_constraints / solve_system / sweep / classify
- oracle.det_metric / zspace_det_numerator (independent cross-checks)
- cli.main (the ``rotke`` command)
"""

from .algebra import (
    CoefPoly,
    Unknown,
    format_rational,
    grlex_key,
    parse_rational,
)
from .geometry import (
    Certificate,
    EinsteinCandidate,
    InductionReport,
    PotentialSpec,
    bochner_normalize,
    build_potential,
    certify_exact,
    degree_bound_lambda,
    det_numerator,
    ma_log_residual,
    projective_induction_check,
)
from .oracle import det_metric, metric_in_x
from .series import Series, series_diff, series_exp, series_log1p
from .solver import (
    ClassificationReport,
    ConstraintSystem,
    EngineError,
    SolveOutcome,
    SweepEntry,
    canonical_support,
    classify,
    enumerate_supports,
    extract_constraints,
    solve_system,
    sweep,
)

__version__ = "1.0.0"

__all__ = [
    "CoefPoly",
    "Unknown",
    "format_rational",
    "grlex_key",
    "parse_rational",
    "Certificate",
    "EinsteinCandidate",
    "InductionReport",
    "PotentialSpec",
    "bochner_normalize",
    "build_potential",
    "certify_exact",
    "degree_bound_lambda",
    "det_metric",
    "det_numerator",
    "ma_log_residual",
    "metric_in_x",
    "projective_induction_check",
    "Series",
    "series_diff",
    "series_exp",
    "series_log1p",
    "ClassificationReport",
    "ConstraintSystem",
    "EngineError",
    "SolveOutcome",
    "SweepEntry",
    "canonical_support",
    "classify",
    "enumerate_supports",
    "extract_constraints",
    "solve_system",
    "sweep",
    "__version__",
]
