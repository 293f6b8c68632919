"""The public names of ``lssurv``, pinned so that any addition or removal
shows in a diff."""

import inspect

import lssurv

PUBLIC = {
    "Dataset", "DegenerateBandwidth", "DomainError", "DomainEscape", "EmptyTail", "EmptyTarget",
    "EnvelopeFailure", "FitOptions", "FitResult", "KmFit", "LikelihoodContext", "LssurvError",
    "McReport", "NoEvents", "NonConvergence", "NumericalUnderflow", "ParseError",
    "QuadratureFailure", "QzSpec", "REGISTRY", "REGISTRY_ORDER", "RatioEstimate", "SchemaError",
    "SelectionReport", "ShiftTestResult", "SimConfig", "SingularA", "SourceRecord",
    "SurvivalModel", "TargetRecord", "TooManyFailures", "ValidationError", "VarianceParts",
    "approx_loglik", "asymptotic_variance", "bic_criterion", "bic_select",
    "conditional_functional", "density", "fit", "generate_dataset", "get_model", "kaplan_meier",
    "label_shift_test", "log_density_grad", "ratio_depends_on_z", "ratio_estimate",
    "run_mc_study", "sample_z_given_t", "score", "stute_joint_cdf",
    "survival",
}


def test_public_names_are_pinned():
    names = {n for n in dir(lssurv)
             if not n.startswith("__") and not inspect.ismodule(getattr(lssurv, n))}
    assert names == PUBLIC


def test_model_contract_is_pinned():
    # every zoo model supplies exactly these u-space functions
    for model in lssurv.REGISTRY.values():
        u_functions = {n for n in dir(model) if n.startswith("u_") and callable(getattr(model, n))}
        assert u_functions == {"u_terms", "u_log_survival", "u_mode"}, model.name
