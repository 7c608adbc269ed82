"""copkern: bivariate copula dependence analysis via Markov kernels."""

from .archimedean import (
    Generator,
    KendallFunction,
    archimedean_copula,
    kendall_function,
    level_function,
    make_clayton,
    make_frank,
    make_gumbel,
    make_w_generator,
)
from .core import (
    CheckerboardMatrix,
    CopulaModel,
    checkerboard_approx,
    checkerboard_copula,
    checkerboard_measures,
    make_m,
    make_marshall_olkin,
    make_pi,
    make_w,
    transpose,
)
from .estimation import (
    EmpiricalKendall,
    PseudoObservations,
    cfg_estimator,
    chatterjee_r,
    convexify_pickands,
    empirical_copula_cdf,
    empirical_kendall,
    plugin_zeta1_r,
    pseudo_obs,
    reconstruct_generator,
    sample_fidelity,
)
from .extreme_value import (
    PickandsFunction,
    ev_copula,
    ev_measures,
    make_galambos,
    make_gumbel_pickands,
    make_piecewise_linear_pickands,
    max_stability_check,
    paper_pwl_knots,
    transpose_pickands,
)
from .metrics import (
    QuadratureSpec,
    WccProfile,
    d1,
    d2_squared,
    d_inf,
    d_infty_metric,
    disintegration_defect,
    golden_xs,
    partial_distance,
    r_measure,
    wcc_profile,
    zeta1,
)
from .registry import make_copula, read_knots_csv, registered_examples
from .sampling import RngSpec, SampleSet, conditional_inverse, sample, sample_many
from .study import StudyConfig, StudyResult, replication_seed, run_study, summarize

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
