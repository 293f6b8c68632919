"""Independent reference arithmetic for the PH-Weibull output checks.

Written from the definitions, not from lssurv's code: the approximated
two-population log-likelihood (product-limit jumps of the source event
times, empirical target covariates) and the closed-form conditional
survival.  The checks use it on seeds that have no recorded reference.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate
from scipy.special import logsumexp


def ph_weibull_logq(theta, t, z):
    """log q(t | z) for hazard lam * gam * t**(gam - 1) * exp(z @ beta)."""
    beta, lam, gam = theta[:-2], theta[-2], theta[-1]
    u = z @ beta
    return np.log(lam * gam) + (gam - 1.0) * np.log(t) + u - lam * t**gam * np.exp(u)


def ph_weibull_survival(theta, t, z):
    beta, lam, gam = theta[:-2], theta[-2], theta[-1]
    return np.exp(-lam * t**gam * np.exp(z @ beta))


def km_jumps(x, delta):
    """Distinct event times and the product-limit jump at each."""
    order = np.argsort(x, kind="stable")
    xs, ds = x[order], delta[order]
    times, first = np.unique(xs, return_index=True)
    events = np.add.reduceat(ds, first)
    at_risk = len(xs) - first
    surv = np.cumprod(1.0 - events / at_risk)
    prev = np.concatenate(([1.0], surv[:-1]))
    keep = events > 0
    return times[keep], (prev - surv)[keep]


def approx_loglik(theta, x, delta, z_source, z_target):
    """Source mean of the per-record approximated log-likelihood terms;
    censored records with no event time beyond them contribute zero."""
    theta = np.asarray(theta, dtype=float)
    tk, w = km_jumps(x, delta)
    ltgt = ph_weibull_logq(theta, tk[:, None], z_target[None, :, :])
    log_qhat = logsumexp(ltgt, axis=1) - np.log(len(z_target))
    total = 0.0
    ev = delta == 1
    k_ev = np.searchsorted(tk, x[ev])
    total += np.sum(ph_weibull_logq(theta, x[ev], z_source[ev]) - log_qhat[k_ev])
    cens = (~ev) & (x < tk[-1])
    lcen = ph_weibull_logq(theta, tk[:, None], z_source[cens][None, :, :])
    terms = np.log(w)[:, None] + lcen - log_qhat[:, None]
    terms = np.where(tk[:, None] > x[cens][None, :], terms, -np.inf)
    total += np.sum(logsumexp(terms, axis=0))
    return total / len(x)


def fd_gradient(theta, x, delta, z_source, z_target, h=1e-4):
    """Central-difference gradient of ``approx_loglik``."""
    grad = np.empty(len(theta))
    for j in range(len(theta)):
        step = np.zeros(len(theta))
        step[j] = h
        grad[j] = (approx_loglik(theta + step, x, delta, z_source, z_target)
                   - approx_loglik(theta - step, x, delta, z_source, z_target)) / (2 * h)
    return grad


def conditional_mean(theta, z):
    """E[T | Z=z] as the integral of the closed-form survival."""
    val, _ = integrate.quad(lambda t: float(ph_weibull_survival(theta, t, z)), 0.0, np.inf,
                            limit=200)
    return val
