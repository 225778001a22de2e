"""Field- and time-normalized impact indicators for zero-inflated counts."""

from .errors import DegenerateComputationError, InputDataError, ZinormError
from .indicators import (
    Z95,
    IndicatorKind,
    IndicatorResult,
    emnpc,
    mhq,
    mhq_prime,
    mnpc,
    percent_vs_world,
)
from .overlap import OverlapCategory, OverlapVerdict, classify_overlap
from .profiles import (
    DEFAULT_YEAR_RANGE,
    WORLD_LABEL,
    CellCounts,
    CountProfile,
    FilterConfig,
    StratumKey,
    apply_filters,
    build_profiles,
    continuity_correct,
)
from .report import (
    ReportConfig,
    parse_membership,
    parse_publications,
    render_json,
    render_table,
    run_report,
)
from .synth import (
    GroupSpec,
    StratumSpec,
    WorldSpec,
    convergent_validity_run,
    coverage_experiment,
    expected_profiles,
    generate_synthetic,
    group_probability,
    true_indicator_values,
    write_synthetic,
)

__version__ = "0.1.0"

__all__ = [
    "CellCounts",
    "CountProfile",
    "DEFAULT_YEAR_RANGE",
    "DegenerateComputationError",
    "FilterConfig",
    "GroupSpec",
    "IndicatorKind",
    "IndicatorResult",
    "InputDataError",
    "OverlapCategory",
    "OverlapVerdict",
    "ReportConfig",
    "StratumKey",
    "StratumSpec",
    "WORLD_LABEL",
    "WorldSpec",
    "Z95",
    "ZinormError",
    "apply_filters",
    "build_profiles",
    "classify_overlap",
    "continuity_correct",
    "convergent_validity_run",
    "coverage_experiment",
    "emnpc",
    "expected_profiles",
    "generate_synthetic",
    "group_probability",
    "mhq",
    "mhq_prime",
    "mnpc",
    "parse_membership",
    "parse_publications",
    "percent_vs_world",
    "render_json",
    "render_table",
    "run_report",
    "true_indicator_values",
    "write_synthetic",
]
