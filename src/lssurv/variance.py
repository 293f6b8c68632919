"""Plug-in asymptotic covariance of the maximizer.

The sandwich is ``A^{-1} S A^{-T}`` where ``A``, the Jacobian of the mean
source score, is the exact Hessian of the approximated log-likelihood
(``a_matrix``) and the meat ``S`` combines the per-source influence (score
plus the event-CDF estimation term) with the per-target influence (the
covariate-distribution estimation term), weighted by the sampling fraction:

    S = min(1/pi, 1/(1-pi)) * [(1-pi) Var_src(psi + psi_pt) + pi Var_tgt(psi_qz)]

``psi_pt`` propagates the product-limit influence of every tail functional
through the censored terms; ``psi_qz`` collects the three empirical-average
terms whose target sums vanish identically (the target average only enters
through ratios against itself).

Every input comes from the fit's own ``LikelihoodContext`` evaluated at
theta-hat: its product-limit fit, its kept censored records (one empty-tail
rule), the densities, the normalized target and tail weights and the
per-record score rows; ``A`` needs no further evaluation of the likelihood.
The target and censored-record density partials are recomputed from the
model's ``terms``, one call per block of event-time rows
(``likelihood.grid_blocks``), and contracted at once, so no (K, n, d) or
(K, n, d, d) tensor and no whole-grid array of partials is formed.  The
blocks run through ``likelihood.map_blocks``, in contiguous chunks on every
usable core once each chunk gets two blocks; each block returns its partial
sums and the caller adds them in block order, so ``A`` and ``psi_qz`` do not
depend on the thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularA
from .likelihood import (LikelihoodContext, contract_hessian, contract_records, contract_times,
                         grid_blocks, map_blocks)
from .models import full_gradient


@dataclass
class VarianceParts:
    """Per-observation influence rows and the assembled matrices."""

    psi_per_source: np.ndarray      # (n1, d)
    psi_pT_per_source: np.ndarray   # (n1, d)
    psi_qZ_per_target: np.ndarray   # (n2, d)
    a_matrix: np.ndarray            # (d, d)
    sigma_psi: np.ndarray           # (d, d)


# -- event-CDF estimation component -------------------------------------------

def _psi_pt_rows(ctx: LikelihoodContext, phi, c_mat):
    ds, km = ctx.dataset, ctx.km
    n1, n_c = ds.n1, ctx.cens_idx.size
    if n_c == 0:
        return np.zeros((n1, c_mat.shape[1]))
    tk, g0e = ctx.tk, km.g0_at_events
    b = (km.event_counts * g0e)[:, None] * phi / n1
    suffix = np.vstack([np.cumsum(b[::-1], axis=0)[::-1], np.zeros((1, n_c))])

    tail_at_x = suffix[np.searchsorted(tk, ds.x, side="right")]       # (n1, n_c)
    # compensator: prefix over censored records v of dv * tail(v)
    tail_at_v = suffix[np.searchsorted(tk, km.censor_times, side="right")]
    cp = np.vstack([np.zeros((1, n_c)), np.cumsum(km.dv[:, None] * tail_at_v, axis=0)])
    gamma2_at_x = cp[np.searchsorted(km.censor_times, ds.x, side="left")]

    eta0p = np.zeros((n1, n_c))
    if ctx.unc_idx.size:
        ku = ctx.k_of_unc
        eta0p[ctx.unc_idx] = phi[ku, :] * g0e[ku, None]
    cens_all = ctx.cens_idx_all
    eta0p[cens_all] = tail_at_x[cens_all] / km.at_risk[cens_all, None]
    eta0p -= gamma2_at_x
    return -(eta0p @ c_mat) / n1


# -- covariate-distribution component -----------------------------------------

def _psi_qz_rows(ctx: LikelihoodContext, env, phi, s0, c_mat):
    ds, model, theta = ctx.dataset, ctx.model, env["theta"]
    ck = ctx.km.event_counts.astype(float)
    qstar = env["qstar_ratio"]
    z_cens = ds.z_source[ctx.cens_idx]
    inv_s0 = 1.0 / s0
    a0 = ctx.w * (phi @ inv_s0)                                       # (K,)
    rows = np.tile(a0 @ qstar, (ds.n2, 1))

    def block_rows(k):
        t, rho_tgt = ctx.tk[k, None], env["Wt"][k] * ds.n2
        # w_k (A2 - A1): A1 the phi/s0-weighted censored gradients, A2 = phi @ c
        cen = model.terms(theta, t, z_cens, 1)[1]
        a21 = ctx.w[k, None] * (phi[k] @ c_mat - contract_records(cen, phi[k] * inv_s0))
        tgt = model.terms(theta, t, ds.z_target, 1)[1]
        return (
            -contract_times(tgt, (ck[k] + a0[k])[:, None] * rho_tgt)
            + rho_tgt.T @ (ck[k, None] * qstar[k])
            + (rho_tgt - 1.0).T @ (a21 + 2.0 * a0[k, None] * qstar[k])
        )

    for part in map_blocks(block_rows, grid_blocks(ctx.K, max(ds.n2, ctx.cens_idx.size))):
        rows += part
    return rows / ds.n1


def a_matrix(ctx: LikelihoodContext, theta) -> np.ndarray:
    """Exact Hessian of ``approx_loglik`` at theta, the Jacobian of the mean
    source score.

    With ``c_k`` the events at ``t_k`` plus the tail weight ``sum_m tau_km``
    of the censored records at ``t_k``, it is the own-record Hessians, minus
    ``c_k`` times the Hessian of ``log qhat(t_k)``, plus the
    ``tau``-weighted censored Hessians and outer products of
    ``grad l(t_k, Z_m) - qstar_ratio_k``, minus each censored score row's
    outer product.  The target and censored grids are contracted one block
    of event-time rows at a time, from one second-order ``terms`` call per
    grid and block.
    """
    env = ctx._evaluate(np.asarray(theta, dtype=float), need_score=True)
    theta, model, ds = env["theta"], ctx.model, ctx.dataset
    q, Wt, tau, psi3 = env["qstar_ratio"], env["Wt"], env["tail_w"], env["psi3_cens"]
    tau_k = tau.sum(axis=1)
    c = ctx.km.event_counts + tau_k
    z_cens = ds.z_source[ctx.cens_idx]
    _, own, own2 = model.terms(theta, ds.x[ctx.unc_idx], ds.z_source[ctx.unc_idx], 2)
    g_own = full_gradient(own)
    A = contract_hessian(own, own2, np.ones(ctx.unc_idx.shape)) - g_own.T @ g_own
    R = np.zeros_like(q)                      # R_k = sum_m tau_km grad l(t_k, Z_m)

    def block_parts(k):
        t = ctx.tk[k, None]
        _, tgt, tgt2 = model.terms(theta, t, ds.z_target, 2)
        _, cen, cen2 = model.terms(theta, t, z_cens, 2)
        R[k] = contract_records(cen, tau[k])
        return contract_hessian(tgt, tgt2, c[k, None] * Wt[k]), contract_hessian(cen, cen2, tau[k])

    blocks = grid_blocks(ctx.K, max(ds.n2, ctx.cens_idx.size))
    for tgt_part, cen_part in map_blocks(block_parts, blocks):
        A -= tgt_part
        A += cen_part
    A += ((c + tau_k)[:, None] * q).T @ q - R.T @ q - q.T @ R - psi3.T @ psi3
    A /= ds.n1
    return 0.5 * (A + A.T)


def asymptotic_variance(ctx: LikelihoodContext, theta_hat):
    """Sandwich covariance of sqrt(n0) (theta_hat - theta0) and its parts,
    read from ``ctx`` (the context the fit maximized) at ``theta_hat``."""
    env = ctx._evaluate(np.asarray(theta_hat, dtype=float), need_score=True)
    dataset = ctx.dataset
    psi = env["psi"]
    # per kept censored record m: phi_m(t_k) = I(t_k > X_m) q(t_k, Z_m) / qhat(t_k),
    # its tail sum S0 = sum_k w_k phi_m(t_k), and c = (S1 - S2) / S0^2 where
    # (S1 - S2) / S0 is the record's score row
    phi = np.where(ctx.tail_mask, np.exp(env["Lcen"] - env["lqhat"][:, None]), 0.0)
    s0 = np.exp(env["cens_logsum"])
    c_mat = env["psi3_cens"] / s0[:, None]
    psi_pt = _psi_pt_rows(ctx, phi, c_mat)
    psi_qz = _psi_qz_rows(ctx, env, phi, s0, c_mat)

    pi_n = dataset.pi_n
    v_p = np.cov(psi + psi_pt, rowvar=False, ddof=1)
    v_q = np.cov(psi_qz, rowvar=False, ddof=1) if dataset.n2 > 1 else np.zeros_like(v_p)
    v_p = np.atleast_2d(v_p)
    v_q = np.atleast_2d(v_q)
    sigma_psi = min(1.0 / pi_n, 1.0 / (1.0 - pi_n)) * ((1.0 - pi_n) * v_p + pi_n * v_q)

    A = a_matrix(ctx, env["theta"])
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e12 or np.max(np.abs(A)) < 1e-10:
        raise SingularA(
            f"score Jacobian numerically singular (condition {cond:.3g}, "
            f"max entry {np.max(np.abs(A)):.3g})"
        )
    Ainv = np.linalg.inv(A)
    sigma = Ainv @ sigma_psi @ Ainv.T
    sigma = 0.5 * (sigma + sigma.T)
    parts = VarianceParts(
        psi_per_source=psi,
        psi_pT_per_source=psi_pt,
        psi_qZ_per_target=psi_qz,
        a_matrix=A,
        sigma_psi=sigma_psi,
    )
    return sigma, parts
