"""The (event time x record) grid contractions of the likelihood and the
sandwich, checked against the dense ``einsum`` over the full
``log_density_grad`` tensor, which is kept here as the oracle."""

import numpy as np
import pytest

from lssurv.likelihood import LikelihoodContext, contract_records, contract_times
from lssurv.models import REGISTRY_ORDER, get_model
from lssurv.variance import _psi_qz_rows, _second_order_pass

from conftest import make_dataset
from oracles import eta_q_hat, qhat_T_star, tail_weights, target_weights

BASELINE = {
    "ph-weibull": [1.2, 0.8],
    "po-loglogistic": [-0.5, 0.7],
    "aft-lognormal": [0.3, 0.9],
    "aft-exponential": [1.4],
    "ah-weibull": [1.1, 1.8],
}


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
    Gtgt = model.log_density_grad(theta, tcol, ds.z_target)       # (K, n2, d)
    Gcen = model.log_density_grad(theta, tcol, z_cens)            # (K, n_c, d)
    close = dict(rtol=1e-12, atol=1e-12)

    rng = np.random.default_rng(3)
    W = rng.uniform(size=Gtgt.shape[:2])
    V = rng.uniform(size=Gcen.shape[:2])
    np.testing.assert_allclose(contract_records(model.terms(theta, tcol, ds.z_target, 1)[1], W),
                               np.einsum("kj,kjd->kd", W, Gtgt), **close)
    np.testing.assert_allclose(contract_times(model.terms(theta, tcol, z_cens, 1)[1], V),
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
    # are taken from the sandwich's own assembly step
    mask = ctx.tk[:, None] > ds.x[ctx.cens_idx]
    phi = np.where(mask, np.exp(model.log_density(theta, tcol, z_cens) - env["lqhat"][:, None]), 0.0)
    s0 = np.exp(env["cens_logsum"])
    c_mat = env["psi3_cens"] / s0[:, None]
    _, _, tau_k, _, M, T = _second_order_pass(ctx, theta)
    np.testing.assert_allclose(_psi_qz_rows(ctx, env, tau_k, M, T),
                               dense_psi_qz(ctx, env, phi, s0, c_mat, Gtgt, Gcen),
                               rtol=1e-10, atol=1e-12)

    m = ctx.cens_idx[0]
    wr = ctx.w * np.where(ctx.tk > ds.x[m], np.exp(
        model.log_density(theta, ctx.tk, ds.z_source[m]) - env["lqhat"]), 0.0)
    rho = Wt * ds.n2
    eta2 = np.einsum("k,kjd->jd", wr, rho[:, :, None] * Gtgt - qstar[:, None, :]) \
        - 2.0 * np.einsum("k,kd,kj->jd", wr, qstar, rho - 1.0)
    np.testing.assert_allclose(eta_q_hat(ctx, theta, ds.x[m], ds.z_source[m])[2], eta2, **close)
