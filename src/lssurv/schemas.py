"""JSON schemas for the machine-readable CLI outputs, and ``plain``, the one
conversion of a result document's numpy values to JSON types."""

import numpy as np


def plain(obj):
    """``obj`` with each numpy array and scalar inside its dicts, lists and
    tuples (tuples become lists) made a Python list or number; the rest as is."""
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


_NUM_ARRAY = {"type": "array", "items": {"type": "number"}}

FIT_SCHEMA = {
    "type": "object",
    "required": ["model", "params", "theta", "se", "ci", "loglik", "sigma", "d_theta", "d_z", "n0",
                 "convergence"],
    "properties": {
        "model": {"type": "string"},
        "params": {"type": "array", "items": {"type": "string"}},
        "theta": _NUM_ARRAY,
        "se": {"anyOf": [_NUM_ARRAY, {"type": "null"}]},
        "ci": {
            "anyOf": [
                {"type": "array", "items": {"type": "array", "items": {"type": "number"},
                                            "minItems": 2, "maxItems": 2}},
                {"type": "null"},
            ]
        },
        "loglik": {"type": "number"},
        "sigma": {"anyOf": [_NUM_ARRAY, {"type": "null"}]},
        "d_theta": {"type": "integer"},
        "d_z": {"type": "integer"},
        "n0": {"type": "integer", "minimum": 1},
        "convergence": {
            "type": "object",
            "required": ["converged", "iterations", "grad_norm", "warnings"],
            "properties": {
                "converged": {"type": "boolean"},
                "iterations": {"type": "integer"},
                "evaluations": {"type": "integer", "minimum": 0},
                "grad_norm": {"type": "number"},
                "warnings": {"type": "array", "items": {"type": "string"}},
            },
        },
    },
}

MC_SCHEMA = {
    "type": "object",
    "required": ["params", "theta_true", "mse", "bias", "se", "se_hat", "cp", "diagnostics"],
    "properties": {
        "params": {"type": "array", "items": {"type": "string"}},
        "theta_true": _NUM_ARRAY,
        "mse": _NUM_ARRAY,
        "bias": _NUM_ARRAY,
        "se": _NUM_ARRAY,
        "se_hat": _NUM_ARRAY,
        "cp": _NUM_ARRAY,
        "diagnostics": {
            "type": "object",
            "required": ["n_reps", "n_failed", "mean_censoring"],
            "properties": {
                "n_reps": {"type": "integer"},
                "n_failed": {"type": "integer"},
                "failures": {"type": "array", "items": {"type": "string"}},
                "failure_counts": {
                    "type": "object",
                    "additionalProperties": {"type": "integer", "minimum": 1},
                },
                "empty_tail_warnings": {"type": "integer"},
                "mean_censoring": {"type": "number"},
            },
        },
    },
}

SHIFT_TEST_SCHEMA = {
    "type": "object",
    "required": ["t_n", "critical_value", "p_value", "K", "alpha", "seed"],
    "properties": {
        "t_n": {"type": "number"},
        "critical_value": {"type": "number"},
        "p_value": {"type": "number"},
        "reject": {"type": "boolean"},
        "K": {"type": "integer"},
        "alpha": {"type": "number"},
        "seed": {"anyOf": [{"type": "integer"}, {"type": "null"}]},
        "redraws": {"type": "integer", "minimum": 0},
        "bandwidth_z": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
        "bandwidth_t": {"type": "number", "exclusiveMinimum": 0},
    },
}

SELECT_SCHEMA = {
    "type": "object",
    "required": ["criteria", "chosen", "split_frac"],
    "properties": {
        "criteria": {
            "type": "object",
            "additionalProperties": {"anyOf": [{"type": "number"}, {"type": "null"}]},
        },
        "chosen": {"type": "string"},
        "split_seed": {"anyOf": [{"type": "integer"}, {"type": "null"}]},
        "split_frac": {"type": "number"},
        "inference_source_idx": {"type": "array", "items": {"type": "integer"}},
        "inference_target_idx": {"type": "array", "items": {"type": "integer"}},
        "warnings": {"type": "array", "items": {"type": "string"}},
    },
}

PREDICT_SCHEMA = {
    "type": "object",
    "required": ["zeta", "se", "ci", "g", "z"],
    "properties": {
        "zeta": {"type": "number"},
        "se": {"type": "number"},
        "ci": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
        "g": {"type": "string"},
        "z": _NUM_ARRAY,
    },
}

SIMULATE_SCHEMA = {
    "type": "object",
    "required": ["source_path", "target_path", "n1", "n2", "seed"],
    "properties": {
        "source_path": {"type": "string"},
        "target_path": {"type": "string"},
        "n1": {"type": "integer"},
        "n2": {"type": "integer"},
        "seed": {"anyOf": [{"type": "integer"}, {"type": "null"}]},
        "censoring_fraction": {"type": "number"},
    },
}

RESULT_SCHEMAS = {
    "fit": FIT_SCHEMA,
    "mc": MC_SCHEMA,
    "shift-test": SHIFT_TEST_SCHEMA,
    "select": SELECT_SCHEMA,
    "predict": PREDICT_SCHEMA,
    "simulate": SIMULATE_SCHEMA,
}
