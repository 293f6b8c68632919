"""Scalar reference implementations that the tests compare ``src`` against.

Each keeps its own arithmetic, apart from the array code it checks:

* ``product_limit_levels`` is the product-limit survival as a loop over
  the distinct times;
* ``gamma0_hat`` is the exp-cumsum over the distinct censored times, read
  through a left-continuous ``StepFunction``;
* ``influence_evaluator`` is the per-integrand suffix-sum form of the
  product-limit influence of a jump integral;
* ``s_functionals``, ``qhat_T`` and ``qhat_T_star`` are the tail
  functionals at one query point;
* ``eta_q_hat`` is the three target-side influence integrals at one
  conditioning point;
* ``target_weights`` and ``tail_weights`` are the dense (event time x
  record) weights of an evaluation, rebuilt from ``log_density``;
* ``rectangle_columns`` is the censored tail pass over the whole masked
  (event time x censored record) rectangle, all K rows in each column
  block, and the per-record score rows it gives;
* ``SURVIVAL`` holds each zoo model's survival function in closed form, in
  u-space, for the log-survival kernels;
* ``kernel_partials`` rebuilds a u-space kernel's dense cell partials
  (orders 1 and 2) from its feature and coefficient tables, one monomial
  at a time, and ``theta_partials`` lifts them to theta space;
* ``DenseKernels`` is one population's pair of shift-test kernels over the
  whole (grid point x event record) grid, built once and reweighted by one
  mass vector at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

import lssurv.likelihood as lik
from lssurv.likelihood import BlockSums, log_sum_weights
from lssurv.models import full_gradient


@dataclass(frozen=True)
class StepFunction:
    """A piecewise-constant function: ``values[k]`` on ``[knots[k],
    knots[k+1])`` and ``pre`` before the first knot.  With ``side='left'``
    it is left-continuous: a knot itself still takes the previous level."""

    knots: np.ndarray
    values: np.ndarray
    pre: float = 0.0
    side: str = "right"

    def __post_init__(self):
        if np.any(np.diff(self.knots) <= 0):
            raise ValueError("knots must be strictly increasing")

    def __call__(self, t):
        levels = np.concatenate(([self.pre], self.values))
        return levels[np.searchsorted(self.knots, t, side=self.side)]


def product_limit_levels(x, delta):
    """The distinct times and the survival level after each, one time at a
    time: at-risk and event counts by comparison, events before censorings."""
    times = np.unique(x)
    at_risk = np.sum(x >= times[:, None], axis=1)
    events = np.sum((x == times[:, None]) & (delta == 1), axis=1)
    levels = []
    s = 1.0
    for y, d in zip(at_risk, events):
        if d > 0:
            s *= (y - d) / y
        levels.append(s)
    return times, np.asarray(levels)


def _risk(x) -> StepFunction:
    """The at-risk fraction ``w -> #{x_i >= w} / n``."""
    times, removed = np.unique(x, return_counts=True)
    return StepFunction(times, (x.size - np.cumsum(removed)) / x.size, pre=1.0, side="left")


def gamma0_hat(x, delta) -> StepFunction:
    """``exp{ sum_{censored v < t} (1/n1) / risk(v) }`` over the strict past:
    identically 1 without censoring, and 1 at or before the first censoring."""
    x, delta = np.asarray(x, dtype=float), np.asarray(delta)
    vc, counts = np.unique(x[delta == 0], return_counts=True)
    values = np.exp(np.cumsum(counts / x.size / _risk(x)(vc)))
    return StepFunction(vc, values, pre=1.0, side="left")


@dataclass(frozen=True)
class InfluenceContext:
    """The sample's pieces for jump-integral influences; ``dv`` holds
    ``(1/n1) / risk(v)^2`` per censored record ``v`` (sorted)."""

    n1: int
    event_times: np.ndarray
    event_counts: np.ndarray
    censor_times: np.ndarray
    risk: StepFunction
    gamma0: StepFunction
    g0_at_events: np.ndarray
    dv: np.ndarray


def influence_context(x, delta) -> InfluenceContext:
    x, delta = np.asarray(x, dtype=float), np.asarray(delta)
    event_times, event_counts = np.unique(x[delta == 1], return_counts=True)
    censor_times = np.sort(x[delta == 0])
    risk, gamma0 = _risk(x), gamma0_hat(x, delta)
    return InfluenceContext(
        n1=x.size, event_times=event_times, event_counts=event_counts,
        censor_times=censor_times, risk=risk, gamma0=gamma0,
        g0_at_events=gamma0(event_times), dv=(1.0 / x.size) / risk(censor_times) ** 2,
    )


def influence_evaluator(ctx: InfluenceContext, phi):
    """Bind an integrand once; the result maps (x, delta) to its influence
    ``phi(x) g0(x)`` for an event, the tail average ``g1(x)`` for a
    censoring, minus the compensator ``g2(x)``.  Suffix sums of
    ``phi * g0`` over the event records make each point one binary search."""
    tk = ctx.event_times
    try:
        phi_at_events = np.asarray(phi(tk), dtype=float)
        if phi_at_events.shape != tk.shape:
            raise TypeError
    except TypeError:
        phi_at_events = np.array([phi(t) for t in tk], dtype=float)
    b = ctx.event_counts * phi_at_events * ctx.g0_at_events / ctx.n1
    # suffix[k] = sum over event times strictly beyond index k-1
    suffix = np.concatenate((np.cumsum(b[::-1])[::-1], [0.0]))
    # prefix over censored records of dv * tail-sum beyond v
    tail_at_v = suffix[np.searchsorted(tk, ctx.censor_times, side="right")]
    cens_prefix = np.concatenate(([0.0], np.cumsum(ctx.dv * tail_at_v)))

    def evaluate(x, delta):
        xs, ds = np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(delta)
        phi_x = np.array([phi(v) for v in xs], dtype=float)
        gamma1 = suffix[np.searchsorted(tk, xs, side="right")] / ctx.risk(xs)
        gamma2 = cens_prefix[np.searchsorted(ctx.censor_times, xs, side="left")]
        out = (np.where(ds == 1, phi_x * ctx.gamma0(xs), 0.0)
               + np.where(ds == 0, gamma1, 0.0) - gamma2)
        return float(out[0]) if np.ndim(x) == 0 else out

    return evaluate


# -- tail functionals at one query point ----------------------------------------

@dataclass
class SFunctionals:
    """Raw tail functionals at a query point: scalar s0 and the two
    d_theta-vectors s1 (gradient numerator) and s2 (mixture correction)."""

    s0: float
    s1: np.ndarray
    s2: np.ndarray


def qhat_T(ctx, theta, t):
    """Target-averaged conditional density at time(s) t."""
    theta = ctx.model.check_theta(np.asarray(theta, dtype=float), ctx.dataset.d_z)
    t_arr = np.asarray(t, dtype=float)
    logq = ctx.model.log_density(theta, t_arr[..., None], ctx.dataset.z_target)
    out = np.exp(log_sum_weights(logq, axis=-1)[0]) / ctx.dataset.n2
    return float(out) if np.isscalar(t) else out


def qhat_T_star(ctx, theta, t):
    """Target-averaged density gradient at time(s) t (vector of length d)."""
    theta = ctx.model.check_theta(np.asarray(theta, dtype=float), ctx.dataset.d_z)
    t_col = np.asarray(t, dtype=float)[..., None]
    lq = ctx.model.log_density(theta, t_col, ctx.dataset.z_target)
    grad = ctx.model.log_density_grad(theta, t_col, ctx.dataset.z_target)
    return np.einsum("...j,...jd->...d", np.exp(lq), grad) / ctx.dataset.n2


def s_functionals(ctx, theta, x, z) -> SFunctionals:
    """Raw tail functionals s0, s1, s2 at the query point (x, z); s0 is zero
    when no event time lies beyond x."""
    theta = np.asarray(theta, dtype=float)
    env = ctx._evaluate(theta, need_score=True)
    mask = ctx.tk > float(x)
    lz, cells = ctx.model.terms(theta, ctx.tk, np.asarray(z, dtype=float), 1)
    r = np.where(mask, ctx.w * np.exp(lz - env["lqhat"]), 0.0)
    return SFunctionals(s0=float(r.sum()), s1=r @ full_gradient(cells), s2=r @ env["qstar_ratio"])


def target_weights(ctx, env):
    """``Wt`` (K x n2): ``q(t_k, z_j) / (n2 qhat(t_k))``, rows summing to 1."""
    ds = ctx.dataset
    lq = ctx.model.log_density(env["theta"], ctx.tk[:, None], ds.z_target)
    return np.exp(lq - env["lqhat"][:, None] - math.log(ds.n2))


def tail_weights(ctx, env):
    """``tau`` (K x n_c) over the kept censored records in ``ctx.cens_idx``
    order: ``w_k q(t_k, Z_m) / qhat(t_k)`` over record m's tail sum beyond
    its censoring time, 0 elsewhere; columns summing to 1."""
    ds = ctx.dataset
    lc = ctx.model.log_density(env["theta"], ctx.tk[:, None], ds.z_source[ctx.cens_idx])
    mask = ctx.tk[:, None] > ds.x[ctx.cens_idx]
    return np.where(mask, np.exp(
        ctx.logw[:, None] + lc - env["lqhat"][:, None] - env["cens_logsum"]), 0.0)


def rectangle_columns(ctx, theta):
    """The log-likelihood and the per-record score rows (n1 x d, zero for a
    dropped record) with every censored tail summed over all K event-time
    rows, masked beyond the censoring time, in the evaluation's column
    blocks of the (K x n_c) rectangle; the target rows and the event
    records as the evaluation has them.  The blocks are the evaluation's
    because a record's row depends in its last bits on the records beside
    it: numpy and BLAS order a sum over event times by the block's shape."""
    env = ctx._evaluate(np.asarray(theta, dtype=float), need_score=True)
    theta, model, ds = env["theta"], ctx.model, ctx.dataset
    lqhat, qstar = env["lqhat"], env["qstar_ratio"]
    cens = ctx.cens_idx
    mask = ctx.tk[:, None] > ds.x[cens][None, :]
    z_cens = ds.z_source[cens]
    logsum, psi = np.empty(cens.size), np.zeros((ds.n1, theta.size))
    for m in lik._blocks(ctx.K - ctx.tail_start)[0]:
        lc, cells = model.terms(theta, ctx.tk[:, None], z_cens[m], 1)
        lc = ctx.logw[:, None] + lc - lqhat[:, None]
        lc[~mask[:, m]] = -np.inf
        logsum[m], tw, total = log_sum_weights(lc, axis=0)
        psi[cens[m]] = (BlockSums(cells, tw).over_times() - tw.T @ qstar) / total.T
    own = model.terms(theta, ds.x[ctx.unc_idx], ds.z_source[ctx.unc_idx], 1)
    contrib = np.zeros(ds.n1)
    contrib[ctx.unc_idx] = own[0] - lqhat[ctx.k_of_unc]
    contrib[cens] = logsum
    psi[ctx.unc_idx] = full_gradient(own[1]) - qstar[ctx.k_of_unc]
    return math.fsum(contrib) / ds.n1, psi


def eta_q_hat(ctx, theta, x, z):
    """The three target-side influence integrals of the tail functionals at
    the conditioning point ``(x, z)``, one value (or d-vector) per target
    record.  Each sums to zero over the target sample by construction,
    because the target average only enters through ratios against itself.
    """
    env = ctx._evaluate(np.asarray(theta, dtype=float), need_score=True)
    theta, model, tk, ds = env["theta"], ctx.model, ctx.tk, ctx.dataset
    rho_tgt = target_weights(ctx, env) * ds.n2
    qstar = env["qstar_ratio"]
    lz, cells = model.terms(theta, tk, np.asarray(z, dtype=float), 1)
    gz = full_gradient(cells)
    wr = ctx.w * np.where(tk > float(x), np.exp(lz - env["lqhat"]), 0.0)  # w_k q(t_k,z)/qhat(t_k)
    centered = rho_tgt - 1.0                                 # (q(t_k,Z_j) - qhat)/qhat
    eta0 = -centered.T @ wr                                  # (n2,)
    eta1 = -centered.T @ (wr[:, None] * gz)
    eta2 = -(wr @ qstar)[None, :] - 2.0 * centered.T @ (wr[:, None] * qstar)
    for k in (slice(a, a + 64) for a in range(0, ctx.K, 64)):
        tgt = model.log_density_grad(theta, tk[k, None], ds.z_target)
        eta2 += np.einsum("kj,kjd->jd", wr[k, None] * rho_tgt[k], tgt)
    return eta0, eta1, eta2


# -- closed-form survival functions in u-space --------------------------------

SURVIVAL = {
    "ph-weibull": lambda t, u, lam, gam: np.exp(-lam * np.power(t, gam) * np.exp(u)),
    "po-loglogistic": lambda t, u, mu, sigma: special.expit(-((np.log(t) - mu) / sigma + u)),
    "aft-lognormal": lambda t, u, mu, sigma: special.ndtr(-(np.log(t) - mu - u) / sigma),
    "aft-exponential": lambda t, u, lam: np.exp(-lam * t * np.exp(-u)),
    "ah-weibull": lambda t, u, lam, gam: np.exp(-lam * np.power(t, gam) * np.exp((gam - 1.0) * u)),
}


# -- dense partials from a kernel's feature tables -------------------------------

def _monomials(poly, phi, logt, u):
    """A u-space polynomial's cell values, summed one monomial at a time."""
    total = 0.0
    for (p, r, c), coef in (poly.items() if isinstance(poly, dict) else [((0, 0, 0), poly)]):
        total = total + coef * phi**p * logt**r * u**c
    return total


def kernel_partials(kernel, t, u, base, order=2):
    """The value of a u-space kernel (``u_terms`` or ``u_log_survival``) and
    its dense cell partials rebuilt from the feature and coefficient tables:
    the gradient slots ``g`` (S, *cells), slot 0 ``d/du`` and then the
    baseline, and at ``order=2`` the full symmetric Hessian ``h`` (S, S,
    *cells)."""
    out = kernel(t, u, *base, order=order)
    phi, logt = out[1], np.log(t)
    shape = np.broadcast_shapes(np.shape(t), np.shape(u))
    g = np.stack([np.broadcast_to(_monomials(p, phi, logt, u), shape) for p in out[2]])
    if order < 2:
        return out[0], g
    n = g.shape[0]
    h = np.empty((n, n) + shape)
    for a in range(n):
        for b in range(a, n):
            h[a, b] = h[b, a] = np.broadcast_to(_monomials(out[3][a][b - a], phi, logt, u), shape)
    return out[0], g, h


def theta_partials(g, h, z):
    """Theta-space gradient (..., d) and Hessian (..., d, d) cell arrays of
    u-space partials ``g`` (S, ...) and ``h`` (S, S, ...), regression rows
    ``z`` (..., d_z) entering through ``u = z @ beta``."""
    d_z = z.shape[-1]
    gu, gb = g[0], np.moveaxis(g[1:], 0, -1)
    grad = np.concatenate([gu[..., None] * z, gb], axis=-1)
    lead = grad.shape[:-1]
    d = grad.shape[-1]
    z = np.broadcast_to(z, lead + (d_z,))
    hess = np.empty(lead + (d, d))
    hess[..., :d_z, :d_z] = h[0, 0][..., None, None] * z[..., :, None] * z[..., None, :]
    cross = np.moveaxis(h[0, 1:], 0, -1)[..., None, :] * z[..., :, None]
    hess[..., :d_z, d_z:] = cross
    hess[..., d_z:, :d_z] = np.swapaxes(cross, -1, -2)
    hess[..., d_z:, d_z:] = np.moveaxis(h[1:, 1:], (0, 1), (-2, -1))
    return grad, hess


# -- the shift test's kernels over the whole grid ----------------------------

class DenseKernels:
    """One population's two shift-test kernels over the whole (grid point x
    event record) grid: the Gaussian time kernel ``kt`` and ``num_w``, the
    same times the product of the covariate CDF kernels.  Takes the arrays
    of ``shift_test._population``."""

    def __init__(self, x, delta, z, grid_z, grid_t, h_z, h_t):
        self.x, self.delta, self.n = x, delta, x.shape[0]
        self.events = np.flatnonzero(delta == 1)
        x_ev, z_ev = x[self.events], z[self.events]
        self.kt = np.exp(-0.5 * ((grid_t[:, None] - x_ev[None, :]) / h_t) ** 2)
        self.num_w = self.kt.copy()
        for j in range(z.shape[1]):
            self.num_w *= special.ndtr((grid_z[:, j][:, None] - z_ev[None, :, j]) / h_z[j])
        self.floor = 1e-10 * h_t * math.sqrt(2 * math.pi)

    def ratio(self, record_masses) -> np.ndarray:
        """Ratio estimates on the grid for an (n,) mass vector over the
        records; only the event records' entries are read."""
        masses = record_masses[self.events]
        return (self.num_w @ masses) / np.maximum(self.kt @ masses, self.floor)
