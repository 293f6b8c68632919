"""Every result document is made of JSON types, whatever numpy types its
result object holds."""

import json

import numpy as np
import pytest

from lssurv import FitResult, McReport, SelectionReport, ShiftTestResult

_JSON_TYPES = (dict, list, str, int, float, bool, type(None))


def _fit_result(with_variance):
    d = 3
    sigma = np.eye(d) if with_variance else None
    return FitResult(
        model_name="ph-weibull", param_names=["beta1", "lambda", "gamma"],
        theta_hat=np.array([0.5, 1.2, 1.5]), loglik=np.float64(-1.25), sigma_hat=sigma,
        se=np.full(d, 0.1) if with_variance else None,
        ci=np.column_stack([np.zeros(d), np.ones(d)]) if with_variance else None,
        converged=np.bool_(True), iterations=np.int64(12), grad_norm=np.float64(3e-8),
        warnings=["dropped 1 record"], n0=np.int64(120), d_z=np.int64(1))


def _shift_test_result():
    return ShiftTestResult(
        t_n=np.float64(0.02), critical_value=np.float64(0.05), p_value=np.float64(0.4),
        reject=np.bool_(False), K=np.int64(200), alpha=0.05, seed=9, redraws=np.int64(0),
        bandwidth_z=np.array([0.3, 0.4]), bandwidth_t=np.float64(0.2))


def _selection_report():
    return SelectionReport(
        criteria={"ph-weibull": np.float64(101.5), "aft-lognormal": None}, chosen="ph-weibull",
        split_seed=3, split_frac=np.float64(0.2), inference_source_idx=np.arange(4),
        inference_target_idx=np.array([0, 2], dtype=np.int64), warnings=["aft-lognormal: x"])


def _mc_report():
    d = 2
    return McReport(
        param_names=["beta1", "lambda"], theta_true=np.array([1.0, 1.0]), mse=np.full(d, 0.01),
        bias=np.full(d, -0.002), se=np.full(d, 0.1), se_hat_mean=np.full(d, 0.11),
        cp=np.full(d, 0.95), n_reps=np.int64(6), n_failed=np.int64(1),
        failures=["rep 3: NonConvergence: forced"], empty_tail_warnings=np.int64(2),
        mean_censoring=np.float64(0.27), failure_counts={"NonConvergence": np.int64(1)})


def _walk(doc):
    assert type(doc) in _JSON_TYPES, f"{type(doc).__name__} in a result document"
    if isinstance(doc, dict):
        for key, value in doc.items():
            assert type(key) is str
            _walk(value)
    elif isinstance(doc, list):
        for value in doc:
            _walk(value)


@pytest.mark.parametrize("build", [lambda: _fit_result(True), lambda: _fit_result(False),
                                   _shift_test_result, _selection_report, _mc_report],
                         ids=["fit", "fit-without-variance", "shift-test", "select", "mc"])
def test_documents_hold_only_json_types(build):
    doc = build().to_json_dict()
    _walk(doc)
    assert json.loads(json.dumps(doc)) == doc
