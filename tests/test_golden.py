"""Golden-output gate: likelihood, influence rows, sandwich and fit pinned
per zoo model (fixtures and their recorder live in ``tests/golden/``)."""

import json
from pathlib import Path

import numpy as np
import pytest

import lssurv as ls
from lssurv import errors
from lssurv.likelihood import LikelihoodContext
from lssurv.models import REGISTRY_ORDER, get_model
from lssurv.variance import asymptotic_variance

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-10


def load(name):
    doc = json.loads((GOLDEN / f"{name}.json").read_text())
    ds = ls.Dataset(
        np.array(doc["x"]), np.array(doc["delta"]),
        np.array(doc["z_source"]), np.array(doc["z_target"]),
    )
    return doc, ds


def assert_rel(got, want, rtol):
    """Agreement relative to the largest recorded magnitude of the quantity."""
    want = np.asarray(want, dtype=float)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.max(np.abs(want)))


@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_golden_evaluation_at_fixed_theta(name):
    doc, ds = load(name)
    theta = np.array(doc["theta"])
    ctx = LikelihoodContext(get_model(name), ds)
    loglik, sc = ctx.value_and_score(theta)
    sigma, parts = asymptotic_variance(ctx, theta)
    assert_rel(loglik, doc["loglik"], RTOL)
    assert_rel(sc, doc["score"], RTOL)
    assert_rel(parts.psi_per_source, doc["psi"], RTOL)
    assert_rel(parts.psi_pT_per_source, doc["psi_pt"], RTOL)
    assert_rel(parts.psi_qZ_per_target, doc["psi_qz"], RTOL)
    assert_rel(parts.a_matrix, doc["a_matrix"], RTOL)
    assert_rel(sigma, doc["sigma"], RTOL)


@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_golden_fit(name):
    doc, ds = load(name)
    if doc["fit_error"] is not None:
        with pytest.raises(getattr(errors, doc["fit_error"])):
            ls.fit(name, ds)
        return
    fr = ls.fit(name, ds)
    se = np.array(doc["se"])
    gap = np.abs(fr.theta_hat - np.array(doc["theta_hat"]))
    assert np.all(gap <= 1e-3 * se), (gap, se)
    np.testing.assert_allclose(fr.se, se, rtol=1e-8)
