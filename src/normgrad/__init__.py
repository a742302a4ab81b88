"""Normalized-gradient reductions for online linear optimizers.

Feed any regret-bounded online linear learner the normalized gradients of a
convex function and average the iterates with weights 1/||g_t||: the
resulting point adapts to the function's (local) Holder smoothness without
knowing the exponent or the constant. The package ships the drivers, four
learners, a suite of smooth test problems with verified constants, the
closed-form bounds, and a benchmark CLI that checks every inequality at
desk scale.
"""

from .errors import ContractViolation, DegeneratePointError, NumericalFailure
from .vectors import WeightedMeanAccumulator, as_vector, l2_norm
from .problems import (
    FAMILIES,
    HolderSpec,
    Huber,
    L2Norm,
    LogSumExp,
    PowerNorm,
    Problem,
    Quadratic,
    check_descent_inequality,
    check_grad_bound,
    finite_diff_grad,
    local_constant_from_parts,
    local_holder_constant,
    make_problem,
    problem_from_config,
    sample_holder_constant,
)
from .learners import (
    LEARNER_KINDS,
    UNIT_NORM_KINDS,
    AdaGradDaLearner,
    DaSqrtLearner,
    KTLearner,
    LearnerConfig,
    OgdConstLearner,
    make_learner,
    regret_bound,
)
from .reduction import (
    DEFAULT_EPS_ZERO,
    BoundReport,
    MeanTriple,
    RunRecord,
    bound_report,
    closed_form_rate,
    hm_gm_am,
    regret_to_gap_bound,
    run_adagrad_warmup,
    run_normalized,
    start_at_distance,
    summarize,
)
from .bench import (
    RATE_FIT_DISTANCE,
    RATE_FIT_STEP_SCALES,
    RateFit,
    SuiteResult,
    SUITES,
    canonical_problems,
    fit_rate,
    rate_experiment,
    rate_fit_from_records,
    run_cell,
    run_suites,
    sweep_rows,
)

__version__ = "0.1.0"
