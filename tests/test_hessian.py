"""The exact score Jacobian: each zoo model's second-order u-space
partials against differences of its first-order ones (both rebuilt from
the kernel's feature tables), and ``A`` (the first output of
``_second_order_pass``) against
a Richardson-extrapolated central-difference Jacobian of the score, which
is kept here as the oracle."""

import numpy as np
import pytest

from lssurv.likelihood import LikelihoodContext, score
from lssurv.models import REGISTRY_ORDER, get_model
from lssurv.variance import _second_order_pass

from conftest import make_dataset
from fixture_models import OneSlot, TwoPointLogNormal, two_point_dataset
from oracles import kernel_partials
from test_contractions import BASELINE


def fd_score_jacobian(ctx, theta, h0=1e-3):
    """Central differences of the score at steps h and h/2, combined by one
    Richardson step (error O(h^4))."""
    d = theta.size
    J = np.empty((d, d))
    for j in range(d):
        h = h0 * max(1.0, abs(theta[j]))

        def central(step):
            up, dn = theta.copy(), theta.copy()
            up[j] += step
            dn[j] -= step
            return (score(ctx, up) - score(ctx, dn)) / (2.0 * step)

        J[:, j] = (4.0 * central(h / 2.0) - central(h)) / 3.0
    return J


def assert_rel(got, want, rtol):
    """Agreement relative to the largest magnitude of the reference, or
    absolute when that is below 1: with d_z = 0 no covariate enters, the
    objective does not depend on theta and both sides vanish."""
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * max(np.max(np.abs(want)), 1.0))


@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_second_partials_match_differenced_partials(name):
    # both sides are rebuilt cell by cell from the kernel's feature tables
    model = get_model(name)
    rng = np.random.default_rng(3)
    t = rng.exponential(1.5, 50) + 0.05
    u = rng.normal(0.0, 0.7, 50)
    base = np.array(BASELINE[name], dtype=float)
    exact = kernel_partials(model.u_terms, t, u, base)[2]

    def partials(du=0.0, dbase=np.zeros(base.size)):
        return kernel_partials(model.u_terms, t, u + du, base + dbase, order=1)[1]

    # column 0: d/du; column 1 + r: d/dbase_r; rows follow (g_u, g_base...)
    fd = np.empty((1 + base.size, 1 + base.size, t.size))
    h = 1e-6
    fd[:, 0] = (partials(du=h) - partials(du=-h)) / (2.0 * h)
    for r in range(base.size):
        e = np.zeros(base.size)
        e[r] = h * max(1.0, abs(base[r]))
        fd[:, 1 + r] = (partials(dbase=e) - partials(dbase=-e)) / (2.0 * e[r])
    np.testing.assert_allclose(exact, fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("d_z", [0, 1, 3])
@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_a_matrix_matches_score_jacobian(name, d_z):
    model = get_model(name)
    ds = make_dataset(seed=23 + d_z, n1=60, n2=40, d_z=d_z)
    theta = np.array([0.4, -0.3, 0.2][:d_z] + BASELINE[name])
    ctx = LikelihoodContext(model, ds)
    assert ctx.cens_idx.size and ctx.unc_idx.size
    assert_rel(_second_order_pass(ctx, theta)[0], fd_score_jacobian(ctx, theta), 1e-6)


def test_a_matrix_of_models_without_linear_predictor():
    # these supply a full log_density_hess; TwoPointLogNormal's gradient and
    # Hessian are themselves central differences (steps 1e-6 and 1e-4), so
    # both sides carry about 1e-7 of differencing error: tolerance 1e-5
    cases = [
        (TwoPointLogNormal(), two_point_dataset(), np.array([0.75, 0.8, 0.6]), 1e-5),
        (OneSlot([1.0, 1.0, 1.0, 1.5]), make_dataset(seed=5, n1=80, n2=60), np.array([0.9]), 1e-6),
    ]
    for model, ds, theta, rtol in cases:
        ctx = LikelihoodContext(model, ds)
        assert ctx.cens_idx.size and ctx.unc_idx.size
        assert_rel(_second_order_pass(ctx, theta)[0], fd_score_jacobian(ctx, theta), rtol)
