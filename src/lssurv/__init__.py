"""Survival inference in a covariates-only target population, powered by a
censored, response-shifted source sample."""

from .data import Dataset, SourceRecord, TargetRecord
from .errors import (
    DegenerateBandwidth,
    DomainError,
    DomainEscape,
    EmptyTail,
    EmptyTarget,
    EnvelopeFailure,
    LssurvError,
    NoEvents,
    NonConvergence,
    NumericalUnderflow,
    ParseError,
    QuadratureFailure,
    SchemaError,
    SingularA,
    TooManyFailures,
    ValidationError,
)
from .estimator import (
    FitOptions,
    FitResult,
    SelectionReport,
    bic_criterion,
    bic_select,
    conditional_functional,
    fit,
)
from .likelihood import LikelihoodContext, approx_loglik, score
from .models import (
    REGISTRY,
    REGISTRY_ORDER,
    SurvivalModel,
    density,
    get_model,
    log_density_grad,
    ratio_depends_on_z,
    survival,
)
from .nonparam import KmFit, kaplan_meier
from .shift_test import (
    RatioEstimate,
    ShiftTestResult,
    label_shift_test,
    ratio_estimate,
    stute_joint_cdf,
)
from .simulation import (
    McReport,
    QzSpec,
    SimConfig,
    generate_dataset,
    run_mc_study,
    sample_z_given_t,
)
from .variance import VarianceParts, asymptotic_variance

__version__ = "0.1.0"
