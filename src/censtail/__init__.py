"""Tail-index estimation for right-censored heavy-tailed data.

The package covers the full desk workflow: censored-sample containers,
reading a ``value,delta`` CSV and writing result tables as CSV text, the
Kaplan-Meier and Nelson-Aalen survival curves, kernel-smoothed and
classical tail-index estimators, heavy-tailed samplers, and a reproducible
Monte Carlo engine, all fronted by the ``censtail`` command-line tool.
``__all__`` lists only what README, the command line, the benchmark
harness or the acceptance suite reaches, with the types those return.
"""

from . import errors
from .estimators import (
    ESTIMATOR_NAMES,
    EstimatePath,
    efg,
    estimate_path,
    hill,
    kernel_estimator,
    mns,
    p_hat,
    worms,
)
from .kernels import (
    BIWEIGHT,
    BUILTIN_KERNEL_NAMES,
    INDICATOR,
    TRIWEIGHT,
    Kernel,
    KernelAxiomReport,
    MomentSpec,
    asymptotic_bias,
    asymptotic_variance,
    builtin_kernel,
    check_kernel_axioms,
    custom_kernel,
)
from .models import (
    Burr,
    Frechet,
    ModelSpec,
    Pareto,
    RngStream,
    gamma2_from_p,
    sample_censored,
)
from .samples import (
    CensoredSample,
    SortedCensoredSample,
    Table,
    TopRows,
    read_csv,
    render_csv,
    sort_with_concomitants,
    top_order_statistics,
)
from .simulate import (
    CellAggregate,
    NormalityReport,
    SimulationConfig,
    SimulationResult,
    curve_smoothness,
    normality_check,
    run_simulation,
)
from .survival import (
    StepCurve,
    kaplan_meier_curve,
    kaplan_meier_survival,
    nelson_aalen_curve,
    nelson_aalen_survival,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "ESTIMATOR_NAMES",
    "EstimatePath",
    "efg",
    "estimate_path",
    "hill",
    "kernel_estimator",
    "mns",
    "p_hat",
    "worms",
    "BIWEIGHT",
    "BUILTIN_KERNEL_NAMES",
    "INDICATOR",
    "TRIWEIGHT",
    "Kernel",
    "KernelAxiomReport",
    "MomentSpec",
    "asymptotic_bias",
    "asymptotic_variance",
    "builtin_kernel",
    "check_kernel_axioms",
    "custom_kernel",
    "Burr",
    "Frechet",
    "ModelSpec",
    "Pareto",
    "RngStream",
    "gamma2_from_p",
    "sample_censored",
    "CensoredSample",
    "SortedCensoredSample",
    "Table",
    "TopRows",
    "read_csv",
    "render_csv",
    "sort_with_concomitants",
    "top_order_statistics",
    "CellAggregate",
    "NormalityReport",
    "SimulationConfig",
    "SimulationResult",
    "curve_smoothness",
    "normality_check",
    "run_simulation",
    "StepCurve",
    "kaplan_meier_curve",
    "kaplan_meier_survival",
    "nelson_aalen_curve",
    "nelson_aalen_survival",
    "__version__",
]
