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
theta-hat: its product-limit fit, its kept censored records in time order
with the one tail rule (``tail_start``, ``reach``, ``in_tail``), ``lqhat``,
the tail log-sums and the per-record score rows.  ``_second_order_pass``
walks each grid once, one second-order ``terms`` call per block, in the
evaluation's shape: every block writes only its own rows or columns and
returns one (d x d) Hessian term, the curvature ``Hess + grad grad^T`` of
its ``Cells`` summed against its weights (``likelihood.BlockSums``, which
shares the block's weighted feature powers with its gradient sums).  The
censored grid runs in blocks of event-time rows, each against the censored
records whose tails reach it (``reach``, a prefix in time order); it writes
the tail weight ``tau_k``, ``tau @ psi3`` and ``R`` per row.  The target
grid then runs in blocks of record columns, its weights
``exp(l - lqhat - log n2)`` read from the evaluation's ``lqhat``; it writes
the target sum ``T_j`` per record.  The pass returns ``A`` and the rows it
feeds, ``psi``, ``psi_pt`` (``_psi_pt_rows`` on ``tau @ psi3``) and
``psi_qz`` (closed form in those sums), all in d columns: no (K, n), (K, n,
d) or (K, n, d, d) array is formed.  Both passes hand ``map_blocks`` their
item widths (``reach`` and ``K`` per record) and add their Hessian terms in
block order, so no output depends on the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularA
from .likelihood import BlockSums, LikelihoodContext, map_blocks
from .models import expand, full_gradient, theta_hessian


@dataclass
class VarianceParts:
    """Per-observation influence rows and the assembled matrices."""

    psi_per_source: np.ndarray      # (n1, d)
    psi_pT_per_source: np.ndarray   # (n1, d)
    psi_qZ_per_target: np.ndarray   # (n2, d)
    a_matrix: np.ndarray            # (d, d)
    sigma_psi: np.ndarray           # (d, d)


# -- the two grid passes -------------------------------------------------------

def _second_order_pass(ctx: LikelihoodContext, theta):
    """``A, psi, psi_pt, psi_qz`` at theta.  Over the kept censored records
    the censored pass sums ``tau_k`` (K,), the tail weight at ``t_k``,
    ``tau_psi3 = tau @ psi3`` (K, d), which ``_psi_pt_rows`` reads, and
    ``R_k = sum_m tau_km grad l(t_k, Z_m)``; with ``M_k = tau_psi3_k - R_k +
    2 tau_k q_k`` the target pass sums ``T_j = sum_k Wt_kj (ck_k q_k + M_k -
    c_k grad l(t_k, z_j))`` (n2, d), and ``psi_qz = (tau_k @ q - sum_k M_k
    + n2 T) / n1``."""
    env = ctx._evaluate(np.asarray(theta, dtype=float), need_score=True)
    theta, model, ds = env["theta"], ctx.model, ctx.dataset
    q, psi3, lqhat, cens_logsum = env["qstar_ratio"], env["psi3_cens"], env["lqhat"], env["cens_logsum"]
    ck = ctx.km.event_counts.astype(float)
    z_cens = ds.z_source[ctx.cens_idx]
    _, own = model.terms(theta, ds.x[ctx.unc_idx], ds.z_source[ctx.unc_idx], 2)
    g_own = full_gradient(own)
    A = theta_hessian(expand(own.curv, own), own.z) - g_own.T @ g_own
    tau_k, tau_psi3, R = np.empty(ctx.K), np.empty_like(q), np.empty_like(q)
    T = np.empty((ds.n2, q.shape[1]))

    def censored_rows(k):
        p = ctx.reach[k.stop - 1]
        lc, cen = model.terms(theta, ctx.tk[k, None], z_cens[:p], 2)
        lc += (ctx.logw[k] - lqhat[k])[:, None]
        lc -= cens_logsum[:p]
        np.copyto(lc, -np.inf, where=~ctx.in_tail(k, slice(0, p)))
        tau = np.exp(lc, out=lc)
        tau_k[k] = tau.sum(axis=1)
        tau_psi3[k] = tau @ psi3[:p]
        sums = BlockSums(cen, tau)
        R[k] = sums.over_records()
        return sums.hessian()

    for part in map_blocks(censored_rows, ctx.reach):
        A += part
    c = ck + tau_k
    M = tau_psi3 - R + 2.0 * tau_k[:, None] * q
    ckq_m = ck[:, None] * q + M

    def target_columns(j):
        lt, tgt = model.terms(theta, ctx.tk[:, None], ds.z_target[j], 2)
        lt -= (lqhat + math.log(ds.n2))[:, None]
        wt = np.exp(lt, out=lt)                           # the evaluation's target weights
        sums = BlockSums(tgt, c[:, None] * wt)
        T[j] = wt.T @ ckq_m - sums.over_times()
        return sums.hessian()

    for part in map_blocks(target_columns, np.full(ds.n2, ctx.K)):
        A -= part
    A += ((c + tau_k)[:, None] * q).T @ q - R.T @ q - q.T @ R - psi3.T @ psi3
    A /= ds.n1
    psi_qz = (ds.n2 * T + (tau_k @ q - M.sum(axis=0))) / ds.n1
    return 0.5 * (A + A.T), env["psi"], _psi_pt_rows(ctx, tau_psi3), psi_qz


def a_matrix(ctx: LikelihoodContext, theta) -> np.ndarray:
    """Exact Hessian of ``approx_loglik`` at theta, the Jacobian of the mean
    source score.

    With ``c_k`` the events at ``t_k`` plus the tail weight ``sum_m tau_km``
    of the censored records at ``t_k``, it is the own-record Hessians, minus
    ``c_k`` times the Hessian of ``log qhat(t_k)``, plus the
    ``tau``-weighted censored Hessians and outer products of
    ``grad l(t_k, Z_m) - qstar_ratio_k``, minus each censored score row's
    outer product.  It is the first output of the second-order pass, which
    also forms the sandwich's influence rows.
    """
    return _second_order_pass(ctx, theta)[0]


# -- event-CDF estimation component -------------------------------------------

def _psi_pt_rows(ctx: LikelihoodContext, tau_psi3):
    # phi_m(t_k) = I(t_k > X_m) q(t_k, Z_m) / qhat(t_k) is kept censored record
    # m's tail integrand, s0_m = sum_k w_k phi_m(t_k) its tail sum, and its
    # influence enters weighted by c_m = psi3_m / s0_m.  Every step below is
    # linear in phi's columns, so the sum over m comes first: with
    # tau_km = w_k phi_m(t_k) / s0_m, phi @ c = (tau @ psi3) / w
    ds, km = ctx.dataset, ctx.km
    n1, d = ds.n1, tau_psi3.shape[1]
    g0e = km.g0_at_events
    phi_c = tau_psi3 / ctx.w[:, None]                                     # (K, d)
    b = (km.event_counts * g0e)[:, None] * phi_c / n1
    tail = np.cumsum(b[::-1], axis=0)[::-1][ctx.tail_start]               # (n_c, d)

    # compensator: prefix over the kept censored records v, in time order, of
    # dv * tail(v); the dropped records, last in that order, have no tail
    n_c = ctx.tail_start.size
    cp = np.vstack([np.zeros((1, d)), np.cumsum(km.dv[:n_c, None] * tail, axis=0)])
    eta0p = -cp[np.searchsorted(km.censor_times[:n_c], ds.x, side="left")]  # (n1, d)
    ku = ctx.k_of_unc
    eta0p[ctx.unc_idx] += phi_c[ku] * g0e[ku, None]
    eta0p[ctx.cens_idx] += tail / km.at_risk[ctx.cens_idx, None]
    return -eta0p / n1


def asymptotic_variance(ctx: LikelihoodContext, theta_hat):
    """Sandwich covariance of sqrt(n0) (theta_hat - theta0) and its parts,
    read from ``ctx`` (the context the fit maximized) at ``theta_hat``."""
    A, psi, psi_pt, psi_qz = _second_order_pass(ctx, theta_hat)
    dataset = ctx.dataset
    pi_n = dataset.pi_n
    v_p = np.cov(psi + psi_pt, rowvar=False, ddof=1)
    v_q = np.cov(psi_qz, rowvar=False, ddof=1) if dataset.n2 > 1 else np.zeros_like(v_p)
    v_p = np.atleast_2d(v_p)
    v_q = np.atleast_2d(v_q)
    sigma_psi = min(1.0 / pi_n, 1.0 / (1.0 - pi_n)) * ((1.0 - pi_n) * v_p + pi_n * v_q)

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
