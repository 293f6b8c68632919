"""The (event time x record) grid contractions of the likelihood and the
sandwich, checked against the dense ``einsum`` over the full gradient and
Hessian tensors, which are kept here as the oracle: rebuilt cell by cell
from each kernel's feature tables (``oracles.kernel_partials``)."""

import numpy as np
import pytest

from lssurv.likelihood import BlockSums, LikelihoodContext
from lssurv.models import REGISTRY_ORDER, get_model
from lssurv.variance import _second_order_pass

from conftest import make_dataset
from oracles import (eta_q_hat, kernel_partials, qhat_T_star, tail_weights, target_weights,
                     theta_partials)

BASELINE = {
    "ph-weibull": [1.2, 0.8],
    "po-loglogistic": [-0.5, 0.7],
    "aft-lognormal": [0.3, 0.9],
    "aft-exponential": [1.4],
    "ah-weibull": [1.1, 1.8],
}


def dense_block(model, theta, t, z):
    """The theta-space gradient and Hessian cell arrays of a zoo model's log
    density over the (t x z) grid, rebuilt from its kernel's tables."""
    beta, base = model.split(theta)
    _, g, h = kernel_partials(model.u_terms, t, z @ beta, base)
    return theta_partials(g, h, z)


def dense_psi_qz(ctx, env, phi, s0, c_mat, Gtgt, Gcen):
    """The target influence rows from the full gradient tensors."""
    n1, n2 = ctx.dataset.n1, ctx.dataset.n2
    ck = ctx.km.event_counts.astype(float)
    qstar = env["qstar_ratio"]
    rho = target_weights(ctx, env) * n2
    term1 = -(
        np.einsum("k,kj,kjd->jd", ck, rho, Gtgt) - np.einsum("k,kj,kd->jd", ck, rho, qstar)
    ) / n1
    A0 = phi @ (1.0 / s0)
    A1 = np.einsum("km,kmd,m->kd", phi, Gcen, 1.0 / s0)
    A2 = phi @ c_mat
    centered = rho - 1.0
    wk = ctx.w
    term2 = (
        -np.einsum("k,kd,kj->jd", wk, A1, centered)
        - np.einsum("k,k,kj,kjd->jd", wk, A0, rho, Gtgt)
        + np.einsum("k,k,kd->d", wk, A0, qstar)[None, :]
        + 2.0 * np.einsum("k,k,kd,kj->jd", wk, A0, qstar, centered)
    ) / n1
    term3 = np.einsum("k,kd,kj->jd", wk, A2, centered) / n1
    return term1 + term2 + term3


@pytest.mark.parametrize("d_z", [0, 1, 3])
@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_grid_contractions_match_dense_einsum(name, d_z):
    model = get_model(name)
    ds = make_dataset(seed=17 + d_z, n1=40, n2=25, d_z=d_z)
    theta = np.array([0.4, -0.3, 0.2][:d_z] + BASELINE[name])
    ctx = LikelihoodContext(model, ds)
    assert ctx.cens_idx.size and ctx.unc_idx.size
    tcol = ctx.tk[:, None]
    z_cens = ds.z_source[ctx.cens_idx]
    Gtgt = dense_block(model, theta, tcol, ds.z_target)[0]        # (K, n2, d)
    Gcen = dense_block(model, theta, tcol, z_cens)[0]             # (K, n_c, d)
    close = dict(rtol=1e-12, atol=1e-12)

    rng = np.random.default_rng(3)
    W = rng.uniform(size=Gtgt.shape[:2])
    V = rng.uniform(size=Gcen.shape[:2])
    np.testing.assert_allclose(BlockSums(model.terms(theta, tcol, ds.z_target, 1)[1], W).over_records(),
                               np.einsum("kj,kjd->kd", W, Gtgt), **close)
    np.testing.assert_allclose(BlockSums(model.terms(theta, tcol, z_cens, 1)[1], V).over_times(),
                               np.einsum("ki,kid->id", V, Gcen), **close)

    env = ctx._evaluate(theta, need_score=True)
    Wt = target_weights(ctx, env)
    qstar = np.einsum("kj,kjd->kd", Wt, Gtgt)
    np.testing.assert_allclose(env["qstar_ratio"], qstar, **close)
    tail_w = tail_weights(ctx, env)
    psi3 = np.einsum("ki,kid->id", tail_w, Gcen) - np.einsum("ki,kd->id", tail_w, qstar)
    np.testing.assert_allclose(env["psi"][ctx.cens_idx], psi3, **close)

    t = np.array([0.3, 1.1])
    lq = model.log_density(theta, t[:, None], ds.z_target)
    G = model.log_density_grad(theta, t[:, None], ds.z_target)
    np.testing.assert_allclose(qhat_T_star(ctx, theta, t),
                               np.einsum("mj,mjd->md", np.exp(lq), G) / ds.n2, **close)

    # at d_z = 0 the objective is flat in theta (A is singular), so the rows
    # are taken from the second-order pass, not from asymptotic_variance
    mask = ctx.tk[:, None] > ds.x[ctx.cens_idx]
    phi = np.where(mask, np.exp(model.log_density(theta, tcol, z_cens) - env["lqhat"][:, None]), 0.0)
    s0 = np.exp(env["cens_logsum"])
    c_mat = env["psi"][ctx.cens_idx] / s0[:, None]
    np.testing.assert_allclose(_second_order_pass(ctx, theta)[3],
                               dense_psi_qz(ctx, env, phi, s0, c_mat, Gtgt, Gcen),
                               rtol=1e-10, atol=1e-12)

    m = ctx.cens_idx[0]
    wr = ctx.w * np.where(ctx.tk > ds.x[m], np.exp(
        model.log_density(theta, ctx.tk, ds.z_source[m]) - env["lqhat"]), 0.0)
    rho = Wt * ds.n2
    eta2 = np.einsum("k,kjd->jd", wr, rho[:, :, None] * Gtgt - qstar[:, None, :]) \
        - 2.0 * np.einsum("k,kd,kj->jd", wr, qstar, rho - 1.0)
    np.testing.assert_allclose(eta_q_hat(ctx, theta, ds.x[m], ds.z_source[m])[2], eta2, **close)


def block(name, shape):
    """A zoo model's theta, one grid block (event-time rows t, records z)
    and its weights V.  ``target``: every record weighted; ``staircase``:
    records in time order, each weighted from its tail's first row on, as
    in the censored passes; ``capped``: times and linear predictors that
    drive the capped exponent beyond 600; ``near-one``: ph-weibull's
    ``He = lam t**gam e**u`` within [0.8, 1.25] on every cell, where
    ``dl/du = 1 - He`` is a small difference."""
    rng = np.random.default_rng(41)
    theta = np.array([0.4, -0.3] + BASELINE[name])
    t = np.sort(rng.exponential(1.5, 12) + 0.05)[:, None]
    z = rng.normal(0.0, 1.0, (30, 2))
    V = rng.uniform(size=(12, 30))
    if shape == "staircase":
        start = np.sort(rng.integers(0, 12, 30))
        V[np.arange(12)[:, None] < start] = 0.0
    elif shape == "capped":
        t[:3, 0] = [1e-3, 1.0, 1e3]
        z[:4] = [[2000.0, 0.0], [-2000.0, 0.0], [0.0, 0.0], [0.0, 2000.0]]
    elif shape == "near-one":
        lam, gam = BASELINE["ph-weibull"]
        t = rng.uniform(0.95, 1.05, (12, 1))
        z[:, 0] = (-np.log(lam) + rng.uniform(-0.15, 0.15, 30)) / theta[0]
        z[:, 1] = 0.0
    return theta, t, z, V


@pytest.mark.parametrize("shape", ["target", "staircase", "capped", "near-one"])
@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_block_sums_match_the_rebuilt_partials(name, shape):
    model = get_model(name)
    theta, t, z, V = block(name, shape)
    if shape == "near-one" and name == "ph-weibull":
        He = theta[-2] * t**theta[-1] * np.exp(z @ theta[:2])
        assert np.all((He > 0.8) & (He < 1.25))
    G, H = dense_block(model, theta, t, z)
    close = dict(rtol=1e-12, atol=1e-12)
    sums = BlockSums(model.terms(theta, t, z, 1)[1], V)
    np.testing.assert_allclose(sums.over_records(), np.einsum("kj,kjd->kd", V, G), **close)
    np.testing.assert_allclose(sums.over_times(), np.einsum("kj,kjd->jd", V, G), **close)
    # the curvature Hess + grad grad^T overflows where a capped exponent
    # binds: those cells get weight 0
    with np.errstate(over="ignore", invalid="ignore"):
        curv = H + G[..., :, None] * G[..., None, :]
    finite = np.all(np.isfinite(curv), axis=(-2, -1))
    if shape == "capped" and name == "ph-weibull":
        assert not finite.all()
    V = np.where(finite, V, 0.0)
    curv = np.where(finite[..., None, None], curv, 0.0)
    sums = BlockSums(model.terms(theta, t, z, 2)[1], V)
    np.testing.assert_allclose(sums.over_records(), np.einsum("kj,kjd->kd", V, G), **close)
    np.testing.assert_allclose(sums.over_times(), np.einsum("kj,kjd->jd", V, G), **close)
    with np.errstate(over="raise", invalid="raise"):
        got = sums.hessian()
    np.testing.assert_allclose(got, np.einsum("kj,kjab->ab", V, curv), **close)
