"""Plug-in asymptotic covariance of the maximizer.

The sandwich is ``A^{-1} S A^{-T}`` where ``A`` is the Jacobian of the mean
source score and the meat ``S`` combines the per-source influence (score
plus the event-CDF estimation term) with the per-target influence (the
covariate-distribution estimation term), weighted by the sampling fraction:

    S = min(1/pi, 1/(1-pi)) * [(1-pi) Var_src(psi + psi_pt) + pi Var_tgt(psi_qz)]

``psi_pt`` propagates the product-limit influence of every tail functional
through the censored terms; ``psi_qz`` collects the three empirical-average
terms whose target sums vanish identically (the target average only enters
through ratios against itself).

Every input comes from the fit's own ``LikelihoodContext`` evaluated at
theta-hat: its product-limit fit, its kept censored records (one empty-tail
rule), the densities and the per-record score rows.  Only the target and
censored-record density gradients, (K, n, d) tensors the context does not
cache, are recomputed once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalUnderflow, SingularA
from .likelihood import LikelihoodContext
# kaplan_meier stays bound here: the perfbench span test patches it in this module
from .nonparam import influence_context, kaplan_meier  # noqa: F401


@dataclass
class VarianceParts:
    """Per-observation influence rows and the assembled matrices."""

    psi_per_source: np.ndarray      # (n1, d)
    psi_pT_per_source: np.ndarray   # (n1, d)
    psi_qZ_per_target: np.ndarray   # (n2, d)
    a_matrix: np.ndarray            # (d, d)
    sigma_psi: np.ndarray           # (d, d)


def _target_terms(ctx: LikelihoodContext, env):
    """``rho_tgt = q(t_k, Z_j) / qhat(t_k)`` (K, n2) and the target density
    gradients (K, n2, d) at the evaluated theta."""
    ds = ctx.dataset
    rho_tgt = env["Wt"] * ds.n2
    Gtgt = ctx.model.log_density_grad(env["theta"], ctx.tk[:, None], ds.z_target)
    return rho_tgt, Gtgt


# -- event-CDF estimation component -------------------------------------------

def _psi_pt_rows(ctx: LikelihoodContext, phi, c_mat):
    ds, km = ctx.dataset, ctx.km
    n1, n_c = ds.n1, ctx.cens_idx.size
    if n_c == 0:
        return np.zeros((n1, c_mat.shape[1]))
    tk = ctx.tk
    infl = influence_context(km)
    g0e = infl.g0_at_events
    b = (km.event_counts * g0e)[:, None] * phi / n1
    suffix = np.vstack([np.cumsum(b[::-1], axis=0)[::-1], np.zeros((1, n_c))])

    idx_after = np.searchsorted(tk, ds.x, side="right")
    tail_at_x = suffix[idx_after]                                    # (n1, n_c)
    # compensator: prefix over censored records v of dv * tail(v)
    if km.censor_times.size:
        tail_at_v = suffix[np.searchsorted(tk, km.censor_times, side="right")]
        cp = np.vstack(
            [np.zeros((1, n_c)), np.cumsum(infl.dv[:, None] * tail_at_v, axis=0)]
        )
        gamma2_at_x = cp[np.searchsorted(km.censor_times, ds.x, side="left")]
    else:
        gamma2_at_x = np.zeros((n1, n_c))

    eta0p = np.zeros((n1, n_c))
    if ctx.unc_idx.size:
        ku = ctx.k_of_unc
        eta0p[ctx.unc_idx] = phi[ku, :] * g0e[ku, None]
    cens_all = ctx.cens_idx_all
    risk_at = np.atleast_1d(km.risk(ds.x[cens_all]))
    eta0p[cens_all] = tail_at_x[cens_all] / risk_at[:, None]
    eta0p -= gamma2_at_x
    return -(eta0p @ c_mat) / n1


# -- covariate-distribution component -----------------------------------------

def _psi_qz_rows(ctx: LikelihoodContext, env, phi, s0, c_mat):
    n1 = ctx.dataset.n1
    ck = ctx.km.event_counts.astype(float)
    qstar = env["qstar_ratio"]
    rho_tgt, Gtgt = _target_terms(ctx, env)
    term1 = -(
        np.einsum("k,kj,kjd->jd", ck, rho_tgt, Gtgt)
        - np.einsum("k,kj,kd->jd", ck, rho_tgt, qstar)
    ) / n1
    if ctx.cens_idx.size == 0:
        return term1
    Gcen = ctx.model.log_density_grad(
        env["theta"], ctx.tk[:, None], ctx.dataset.z_source[ctx.cens_idx]
    )
    inv_s0 = 1.0 / s0
    A0 = phi @ inv_s0                                                 # (K,)
    A1 = np.einsum("km,kmd,m->kd", phi, Gcen, inv_s0)
    A2 = phi @ c_mat                                                  # (K, d)

    centered = rho_tgt - 1.0                                          # (K, n2)
    wk = ctx.w
    term2 = (
        -np.einsum("k,kd,kj->jd", wk, A1, centered)
        - np.einsum("k,k,kj,kjd->jd", wk, A0, rho_tgt, Gtgt)
        + np.einsum("k,k,kd->d", wk, A0, qstar)[None, :]
        + 2.0 * np.einsum("k,k,kd,kj->jd", wk, A0, qstar, centered)
    ) / n1
    term3 = np.einsum("k,kd,kj->jd", wk, A2, centered) / n1
    return term1 + term2 + term3


def eta_q_hat(ctx: LikelihoodContext, theta, x, z):
    """The three target-side influence integrals of the tail functionals at
    the conditioning point ``(x, z)``, one value (or d-vector) per target
    record.  Each sums to zero over the target sample by construction,
    because the target average only enters through ratios against itself.
    """
    env = ctx._evaluate(np.asarray(theta, dtype=float), need_score=True)
    theta, model, tk = env["theta"], ctx.model, ctx.tk
    rho_tgt, Gtgt = _target_terms(ctx, env)
    qstar = env["qstar_ratio"]
    z = np.asarray(z, dtype=float)
    lz = model.log_density(theta, tk, z)
    gz = model.log_density_grad(theta, tk, z)
    wr = ctx.w * np.where(tk > float(x), np.exp(lz - env["lqhat"]), 0.0)  # w_k q(t_k,z)/qhat(t_k)
    centered = rho_tgt - 1.0                                 # (q(t_k,Z_j) - qhat)/qhat
    eta0 = -centered.T @ wr                                  # (n2,)
    eta1 = -np.einsum("k,kd,kj->jd", wr, gz, centered)
    eta2 = np.einsum(
        "k,kjd->jd", wr, rho_tgt[:, :, None] * Gtgt - qstar[:, None, :]
    ) - 2.0 * np.einsum("k,kd,kj->jd", wr, qstar, centered)
    return eta0, eta1, eta2


def a_matrix_fd(ctx: LikelihoodContext, theta) -> np.ndarray:
    """Central-difference Jacobian of the mean source score at theta.

    Steps follow ``max(1e-5, 1e-4 |theta_j|)`` clamped to stay inside the
    positivity constraints, and shrink when a probe leaves the domain (e.g.
    an excluded-point guard band) or underflows.
    """
    model, d_z = ctx.model, ctx.dataset.d_z
    theta = np.asarray(theta, dtype=float)
    d = theta.shape[0]
    pos = model.positive_mask(d_z)
    A = np.empty((d, d))
    for j in range(d):
        h = max(1e-5, 1e-4 * abs(theta[j]))
        if pos[j]:
            h = min(h, 0.25 * theta[j])
        for _ in range(8):
            up = theta.copy()
            dn = theta.copy()
            up[j] += h
            dn[j] -= h
            try:
                model.check_theta(up, d_z)
                model.check_theta(dn, d_z)
                _, s_up = ctx.value_and_score(up)
                _, s_dn = ctx.value_and_score(dn)
            except (DomainError, NumericalUnderflow):
                h *= 0.25
                continue
            A[:, j] = (s_up - s_dn) / (2.0 * h)
            break
        else:
            raise SingularA(f"cannot difference the score along slot {j}")
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

    A = a_matrix_fd(ctx, env["theta"])
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
