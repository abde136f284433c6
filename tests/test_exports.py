"""The package's public names are exactly the ones listed here.

Each is reached by README, the ``censtail`` command line, the benchmark
harness or the acceptance suite, or is the type of a value one of those
returns; a new export has to be added to this list on purpose.
"""

import censtail

EXPORTS = {
    "errors", "__version__",
    # estimators
    "ESTIMATOR_NAMES", "EstimatePath", "efg", "estimate_path", "hill",
    "kernel_estimator", "mns", "p_hat", "worms",
    # kernels
    "BIWEIGHT", "BUILTIN_KERNEL_NAMES", "INDICATOR", "TRIWEIGHT", "Kernel",
    "KernelAxiomReport", "MomentSpec", "asymptotic_bias", "asymptotic_variance",
    "builtin_kernel", "check_kernel_axioms", "custom_kernel",
    # models
    "Burr", "Frechet", "ModelSpec", "Pareto", "RngStream", "gamma2_from_p",
    "sample_censored",
    # samples
    "CensoredSample", "SortedCensoredSample", "Table", "TopRows", "read_csv",
    "render_csv", "sort_with_concomitants", "top_order_statistics",
    # simulate
    "CellAggregate", "NormalityReport", "SimulationConfig", "SimulationResult",
    "curve_smoothness", "normality_check", "run_simulation",
    # survival
    "StepCurve", "kaplan_meier_curve", "kaplan_meier_survival",
    "nelson_aalen_curve", "nelson_aalen_survival",
}


def test_the_export_list_is_pinned():
    assert len(censtail.__all__) == len(set(censtail.__all__))
    assert set(censtail.__all__) == EXPORTS


def test_every_export_resolves():
    for name in censtail.__all__:
        assert getattr(censtail, name) is not None, name
