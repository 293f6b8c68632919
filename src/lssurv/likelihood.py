"""The approximated two-population log-likelihood and its exact gradient.

For a parameter vector theta the objective is the source average of

* ``log q(x_i, z_i)`` for events,
* minus ``log qhat_T(x_i)``, the target-averaged density at the event time,
* plus, for censored records, the log of the jump-weighted tail sum
  ``sum_{t_k > x_i} w_k q(t_k, z_i) / qhat_T(t_k)``

where ``w_k`` are the product-limit jumps of the source event-time CDF and
``qhat_T(t) = mean_j q(t, z_j)`` over the target covariates.  Everything is
evaluated in log space; ratios are formed through normalized weights so the
gradient is exact and stable.

Censored records with no event time beyond them have an undefined tail term
and are dropped with a warning count (the product-limit tail carries no
mass there).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .data import Dataset
from .errors import EmptyTail, NumericalUnderflow
from .models import SurvivalModel
from .nonparam import kaplan_meier

logger = logging.getLogger("lssurv")

_LOG_FLOOR = math.log(1e-300)


@dataclass
class SFunctionals:
    """Raw tail functionals at a query point: scalar s0 and the two
    d_theta-vectors s1 (gradient numerator) and s2 (mixture correction)."""

    s0: float
    s1: np.ndarray
    s2: np.ndarray


class LikelihoodContext:
    """Data-dependent, theta-independent scaffolding plus a one-slot cache
    of the last evaluated theta.

    The evaluation at the maximizer is also the state the sandwich variance
    reads: the product-limit fit, the kept censored records, the densities
    and the per-record score rows ``psi``.
    """

    def __init__(self, model: SurvivalModel, dataset: Dataset):
        self.model = model
        self.dataset = dataset
        self.km = kaplan_meier(dataset.x, dataset.delta)
        self.tk = self.km.event_times                      # (K,) distinct event times
        self.w = self.km.jumps.masses                      # (K,) product-limit jumps
        self.logw = np.log(self.w)
        self.K = self.tk.shape[0]

        delta = dataset.delta
        self.unc_idx = np.flatnonzero(delta == 1)
        self.cens_idx_all = np.flatnonzero(delta == 0)
        self.k_of_unc = np.searchsorted(self.tk, dataset.x[self.unc_idx])
        # censored records with at least one event time strictly beyond them
        tail_ok = dataset.x[self.cens_idx_all] < self.tk[-1]
        self.cens_idx = self.cens_idx_all[tail_ok]
        self.n_dropped = int((~tail_ok).sum())
        if self.n_dropped:
            logger.debug(
                "dropping %d censored record(s) beyond the last event time", self.n_dropped
            )
        if self.unc_idx.size == 0 and self.cens_idx.size == 0:
            raise EmptyTail("no usable source contribution")
        # tail mask: event time k strictly beyond censored record i
        self.tail_mask = self.tk[:, None] > dataset.x[self.cens_idx][None, :]
        # record order for the deterministic final reduction
        self.sum_order = np.lexsort((1 - dataset.delta, dataset.x))
        self._cache_key = None
        self._cache_val = None

    # -- per-theta evaluation ------------------------------------------------

    def _evaluate(self, theta, need_score: bool):
        env = self._cache_val
        if self._cache_key == theta.tobytes() and env is not None:
            if not need_score or "score" in env:
                return env
        model, ds = self.model, self.dataset
        theta = model.check_theta(theta, ds.d_z)
        tcol = self.tk[:, None]

        Ltgt = model.log_density(theta, tcol, ds.z_target)        # (K, n2)
        lqhat = special.logsumexp(Ltgt, axis=1) - math.log(ds.n2)  # (K,)
        if np.any(lqhat < _LOG_FLOOR) or not np.all(np.isfinite(lqhat)):
            raise NumericalUnderflow("target-averaged density underflow")

        x_unc = ds.x[self.unc_idx]
        own_logq = model.log_density(theta, x_unc, ds.z_source[self.unc_idx])
        if np.any(own_logq < _LOG_FLOOR) or not np.all(np.isfinite(own_logq)):
            raise NumericalUnderflow("event density underflow")

        z_cens = ds.z_source[self.cens_idx]
        Lcen = model.log_density(theta, tcol, z_cens) if self.cens_idx.size else np.zeros((self.K, 0))
        e = self.logw[:, None] + Lcen - lqhat[:, None]
        e = np.where(self.tail_mask, e, -np.inf)
        cens_logsum = special.logsumexp(e, axis=0) if self.cens_idx.size else np.zeros(0)
        if self.cens_idx.size and (
            np.any(cens_logsum < _LOG_FLOOR) or not np.all(np.isfinite(cens_logsum))
        ):
            raise NumericalUnderflow("censored tail underflow")

        contrib = np.zeros(ds.n1)
        contrib[self.unc_idx] = own_logq - lqhat[self.k_of_unc]
        contrib[self.cens_idx] = cens_logsum
        loglik = math.fsum(contrib[self.sum_order]) / ds.n1

        env = {
            "theta": theta,
            "Ltgt": Ltgt,
            "lqhat": lqhat,
            "own_logq": own_logq,
            "Lcen": Lcen,
            "cens_logsum": cens_logsum,
            "loglik": loglik,
        }
        if need_score:
            Gtgt = model.log_density_grad(theta, tcol, ds.z_target)  # (K, n2, d)
            Wt = np.exp(Ltgt - lqhat[:, None] - math.log(ds.n2))      # rows sum to 1
            qstar_ratio = np.einsum("kj,kjd->kd", Wt, Gtgt)           # qhat*_T / qhat_T
            d = theta.shape[0]
            psi = np.zeros((ds.n1, d))                               # per-record score rows
            rows_sum = np.zeros(d)
            if self.unc_idx.size:
                Gown = model.log_density_grad(theta, x_unc, ds.z_source[self.unc_idx])
                unc_rows = Gown - qstar_ratio[self.k_of_unc]
                psi[self.unc_idx] = unc_rows
                rows_sum += unc_rows.sum(axis=0)
            psi3 = np.zeros((self.cens_idx.size, d))
            if self.cens_idx.size:
                Gcen = model.log_density_grad(theta, tcol, z_cens)    # (K, n_c, d)
                u = np.exp(e - cens_logsum[None, :])
                u = np.where(self.tail_mask, u, 0.0)
                psi3 = np.einsum("ki,kid->id", u, Gcen) - np.einsum("ki,kd->id", u, qstar_ratio)
                psi[self.cens_idx] = psi3
                rows_sum += psi3.sum(axis=0)
            env["Wt"] = Wt
            env["qstar_ratio"] = qstar_ratio
            env["psi3_cens"] = psi3
            env["psi"] = psi
            env["score"] = rows_sum / ds.n1
        self._cache_key = theta.tobytes()
        self._cache_val = env
        return env

    def value_and_score(self, theta):
        env = self._evaluate(np.asarray(theta, dtype=float), need_score=True)
        return env["loglik"], env["score"]


def approx_loglik(ctx: LikelihoodContext, theta) -> float:
    return ctx._evaluate(np.asarray(theta, dtype=float), need_score=False)["loglik"]


def score(ctx: LikelihoodContext, theta) -> np.ndarray:
    """Exact gradient of ``approx_loglik`` in theta."""
    return ctx._evaluate(np.asarray(theta, dtype=float), need_score=True)["score"]


def qhat_T(ctx: LikelihoodContext, theta, t):
    """Target-averaged conditional density at time(s) t."""
    theta = ctx.model.check_theta(np.asarray(theta, dtype=float), ctx.dataset.d_z)
    t_arr = np.asarray(t, dtype=float)
    logq = ctx.model.log_density(theta, t_arr[..., None], ctx.dataset.z_target)
    out = np.exp(special.logsumexp(logq, axis=-1)) / ctx.dataset.n2
    return float(out) if np.isscalar(t) else out


def qhat_T_star(ctx: LikelihoodContext, theta, t):
    """Target-averaged density gradient at time(s) t (vector of length d)."""
    theta = ctx.model.check_theta(np.asarray(theta, dtype=float), ctx.dataset.d_z)
    t_arr = np.asarray(t, dtype=float)
    logq = ctx.model.log_density(theta, t_arr[..., None], ctx.dataset.z_target)
    grad = ctx.model.log_density_grad(theta, t_arr[..., None], ctx.dataset.z_target)
    return np.einsum("...j,...jd->...d", np.exp(logq), grad) / ctx.dataset.n2


def s_functionals(ctx: LikelihoodContext, theta, x, z) -> SFunctionals:
    """Raw tail functionals s0, s1, s2 at the query point (x, z); s0 may be
    zero when no event time lies beyond x (callers guard)."""
    theta = np.asarray(theta, dtype=float)
    env = ctx._evaluate(theta, need_score=True)
    mask = ctx.tk > float(x)
    lz = ctx.model.log_density(theta, ctx.tk, np.asarray(z, dtype=float))
    gz = ctx.model.log_density_grad(theta, ctx.tk, np.asarray(z, dtype=float))
    r = np.where(mask, ctx.w * np.exp(lz - env["lqhat"]), 0.0)
    s0 = float(r.sum())
    s1 = r @ gz
    s2 = r @ env["qstar_ratio"]
    return SFunctionals(s0=s0, s1=s1, s2=s2)
