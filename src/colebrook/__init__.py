"""Turbulent flow-friction toolkit.

Implicit Colebrook solver (the accuracy reference), a registry of explicit
starter approximations with fixed-point acceleration in direct and
logarithm-saving transformed forms, rational kernel substitutes for ln and
sine, and a mesh evaluation harness with CSV/PGM export and a micro-benchmark.
"""

from .core import (
    ConvergenceError,
    DomainError,
    FlowPoint,
    FrictionIterate,
    SolveReport,
    relative_error_pct,
    solve_colebrook_exact,
)
from .evaluation import (
    DEFAULT_GRID,
    ErrorMap,
    ErrorStats,
    GridSpec,
    benchmark,
    export_csv,
    export_heatmap,
    load_csv,
    scan_errors,
    scan_many,
    sobol_2d,
    stats_of,
    table1_rows,
)
from .kernels import pade_ln, pade_sin, quintic_sin
from .schemes import (
    REGISTRY,
    RegistryError,
    SchemeError,
    SchemeSpec,
    evaluate_scheme,
    get_scheme,
    scheme_ids,
    variant,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "FlowPoint",
    "FrictionIterate",
    "SolveReport",
    "relative_error_pct",
    "solve_colebrook_exact",
    "DEFAULT_GRID",
    "ErrorMap",
    "ErrorStats",
    "GridSpec",
    "benchmark",
    "export_csv",
    "export_heatmap",
    "load_csv",
    "scan_errors",
    "scan_many",
    "sobol_2d",
    "stats_of",
    "table1_rows",
    "pade_ln",
    "pade_sin",
    "quintic_sin",
    "REGISTRY",
    "RegistryError",
    "SchemeError",
    "SchemeSpec",
    "evaluate_scheme",
    "get_scheme",
    "scheme_ids",
    "variant",
    "__version__",
]
