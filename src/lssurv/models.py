"""Parametric conditional event-time models q(t | z; theta).

Each model exposes vectorized log-density, analytic log-density gradient,
closed-form survival and inverse survival, a domain check and a crude
initializer.  Parameters are flat numpy vectors laid out as the regression
block followed by the baseline block; ``param_names`` documents the slots.

All concrete models depend on the covariates only through the linear
predictor ``u = z @ beta``, which the samplers exploit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError

_LOG_2PI = math.log(2.0 * math.pi)


def _linpred(z, beta):
    z = np.asarray(z, dtype=float)
    return z @ beta


def _exp_clip(a):
    """exp with the argument capped well below the overflow threshold; the
    result stays a huge finite number (with slack for scale factors) so
    downstream log-densities stay NaN-free."""
    return np.exp(np.minimum(a, 600.0))


class SurvivalModel:
    """Interface shared by the model zoo.  Stateless and thread-safe.

    A zoo model declares its baseline slot names (``baseline``) and which of
    them are constrained to (0, inf) (``positive``); the parameter layout
    ``beta_1 .. beta_{d_z}`` followed by the baseline block derives from them.
    """

    name: str = ""
    baseline: tuple = ()
    positive: tuple = ()

    def d_theta(self, d_z: int) -> int:
        return d_z + len(self.baseline)

    def param_names(self, d_z: int) -> list:
        return [f"beta{i + 1}" for i in range(d_z)] + list(self.baseline)

    def positive_mask(self, d_z: int) -> np.ndarray:
        """Slots constrained to (0, inf); the optimizer log-transforms these."""
        return np.array([False] * d_z + [b in self.positive for b in self.baseline], dtype=bool)

    def _split(self, theta):
        """Split a flat parameter vector into ``beta`` and the baseline scalars."""
        theta = np.asarray(theta, dtype=float)
        nb = len(self.baseline)
        return (theta[:-nb], *theta[-nb:])

    def check_theta(self, theta, d_z: int) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.d_theta(d_z),):
            raise DomainError(
                f"{self.name}: expected {self.d_theta(d_z)} parameters, got {theta.shape}"
            )
        if not np.all(np.isfinite(theta)):
            raise DomainError(f"{self.name}: non-finite parameter")
        if np.any(theta[self.positive_mask(d_z)] <= 0):
            raise DomainError(f"{self.name}: positivity constraint violated")
        return theta

    def log_density(self, theta, t, z):
        raise NotImplementedError

    def log_density_grad(self, theta, t, z):
        raise NotImplementedError

    def survival(self, theta, t, z):
        raise NotImplementedError

    def inverse_survival(self, theta, v, z):
        """Solve S(t) = v by bisection; models with closed forms override."""
        v = float(v)
        lo, hi = 1e-12, 1.0
        while self.survival(theta, hi, z) > v and hi < 1e15:
            hi *= 4.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.survival(theta, mid, z) > v:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def default_init(self, x, delta, z) -> np.ndarray:
        raise NotImplementedError


def _beta_grad(base_shape, z, scalar_factor):
    """Stack the regression-block gradient ``scalar_factor * z`` onto
    ``base_shape``; ``scalar_factor`` broadcasts over the leading axes."""
    z = np.asarray(z, dtype=float)
    d_z = z.shape[-1] if z.ndim else 0
    zb = np.broadcast_to(z, base_shape + (d_z,))
    return np.asarray(scalar_factor)[..., None] * zb


class PHWeibull(SurvivalModel):
    """Proportional hazards with Weibull baseline: hazard
    ``lam * gam * t**(gam-1) * exp(u)``."""

    name = "ph-weibull"
    baseline = ("lambda", "gamma")
    positive = ("lambda", "gamma")

    def log_density(self, theta, t, z):
        beta, lam, gam = self._split(theta)
        t = np.asarray(t, dtype=float)
        u = _linpred(z, beta)
        logt = np.log(t)
        return math.log(lam) + math.log(gam) + (gam - 1.0) * logt + u - lam * _exp_clip(gam * logt + u)

    def log_density_grad(self, theta, t, z):
        beta, lam, gam = self._split(theta)
        t = np.asarray(t, dtype=float)
        u = _linpred(z, beta)
        logt = np.log(t)
        He = _exp_clip(gam * logt + u) * lam  # H(t) * exp(u)
        base = np.broadcast(t, u).shape
        g_beta = _beta_grad(base, z, np.broadcast_to(1.0 - He, base))
        g_lam = np.broadcast_to(1.0 / lam - He / lam, base)
        g_gam = np.broadcast_to(1.0 / gam + logt * (1.0 - He), base)
        return np.concatenate([g_beta, g_lam[..., None], g_gam[..., None]], axis=-1)

    def survival(self, theta, t, z):
        beta, lam, gam = self._split(theta)
        t = np.asarray(t, dtype=float)
        u = _linpred(z, beta)
        return np.exp(-lam * np.power(t, gam) * np.exp(u))

    def inverse_survival(self, theta, v, z):
        beta, lam, gam = self._split(theta)
        u = _linpred(z, beta)
        return float((-np.log(v) / (lam * np.exp(u))) ** (1.0 / gam))

    def default_init(self, x, delta, z):
        lam = max(delta.sum() / x.sum(), 1e-3)
        return np.concatenate([np.zeros(z.shape[1]), [lam, 1.0]])


class POLogLogistic(SurvivalModel):
    """Proportional odds with log-logistic baseline survival
    ``1 / (1 + H(t) exp(u))``, ``H(t) = exp(-mu/sigma) t**(1/sigma)``."""

    name = "po-loglogistic"
    baseline = ("mu", "sigma")
    positive = ("sigma",)

    def _logH(self, t, mu, sigma):
        return (np.log(t) - mu) / sigma

    def log_density(self, theta, t, z):
        beta, mu, sigma = self._split(theta)
        t = np.asarray(t, dtype=float)
        u = _linpred(z, beta)
        logH = self._logH(t, mu, sigma)
        # log h = logH - log(sigma * t)
        return logH - np.log(sigma) - np.log(t) + u - 2.0 * np.logaddexp(0.0, logH + u)

    def log_density_grad(self, theta, t, z):
        beta, mu, sigma = self._split(theta)
        t = np.asarray(t, dtype=float)
        u = _linpred(z, beta)
        logH = self._logH(t, mu, sigma)
        G = special.expit(logH + u)  # H e^u / (1 + H e^u)
        base = np.broadcast(t, u).shape
        g_beta = _beta_grad(base, z, np.broadcast_to(1.0 - 2.0 * G, base))
        g_mu = np.broadcast_to((2.0 * G - 1.0) / sigma, base)
        g_sigma = np.broadcast_to((mu - np.log(t)) * (1.0 - 2.0 * G) / sigma**2 - 1.0 / sigma, base)
        return np.concatenate([g_beta, g_mu[..., None], g_sigma[..., None]], axis=-1)

    def survival(self, theta, t, z):
        beta, mu, sigma = self._split(theta)
        t = np.asarray(t, dtype=float)
        u = _linpred(z, beta)
        return special.expit(-(self._logH(t, mu, sigma) + u))

    def inverse_survival(self, theta, v, z):
        beta, mu, sigma = self._split(theta)
        u = _linpred(z, beta)
        logH = np.log1p(-v) - np.log(v) - u
        return float(np.exp(mu + sigma * logH))

    def default_init(self, x, delta, z):
        logs = np.log(x[delta == 1])
        sigma = max(float(np.std(logs)) * math.sqrt(3.0) / math.pi, 0.1)
        return np.concatenate([np.zeros(z.shape[1]), [float(np.mean(logs)), sigma]])


class AFTLogNormal(SurvivalModel):
    """Accelerated failure time with standard-normal log errors:
    ``log T = mu + u + sigma * eps``."""

    name = "aft-lognormal"
    baseline = ("mu", "sigma")
    positive = ("sigma",)

    def log_density(self, theta, t, z):
        beta, mu, sigma = self._split(theta)
        t = np.asarray(t, dtype=float)
        u = _linpred(z, beta)
        s = (np.log(t) - mu - u) / sigma
        return -np.log(sigma) - np.log(t) - 0.5 * s**2 - 0.5 * _LOG_2PI

    def log_density_grad(self, theta, t, z):
        beta, mu, sigma = self._split(theta)
        t = np.asarray(t, dtype=float)
        u = _linpred(z, beta)
        s = (np.log(t) - mu - u) / sigma
        base = np.broadcast(t, u).shape
        g_beta = _beta_grad(base, z, np.broadcast_to(s / sigma, base))
        g_mu = np.broadcast_to(s / sigma, base)
        g_sigma = np.broadcast_to((s**2 - 1.0) / sigma, base)
        return np.concatenate([g_beta, g_mu[..., None], g_sigma[..., None]], axis=-1)

    def survival(self, theta, t, z):
        beta, mu, sigma = self._split(theta)
        t = np.asarray(t, dtype=float)
        u = _linpred(z, beta)
        s = (np.log(t) - mu - u) / sigma
        return special.ndtr(-s)

    def inverse_survival(self, theta, v, z):
        beta, mu, sigma = self._split(theta)
        u = _linpred(z, beta)
        return float(np.exp(mu + u - sigma * special.ndtri(v)))

    def default_init(self, x, delta, z):
        logs = np.log(x[delta == 1])
        sigma = max(float(np.std(logs)), 0.1)
        return np.concatenate([np.zeros(z.shape[1]), [float(np.mean(logs)), sigma]])


class AFTExponential(SurvivalModel):
    """Accelerated failure time with a memoryless baseline:
    ``log T = u + log T0`` with ``T0`` exponential of rate ``lam``, hence
    ``q(t, z) = lam * exp(-u) * exp(-lam * t * exp(-u))``."""

    name = "aft-exponential"
    baseline = ("lambda",)
    positive = ("lambda",)

    def log_density(self, theta, t, z):
        beta, lam = self._split(theta)
        t = np.asarray(t, dtype=float)
        u = _linpred(z, beta)
        return math.log(lam) - u - lam * t * _exp_clip(-u)

    def log_density_grad(self, theta, t, z):
        beta, lam = self._split(theta)
        t = np.asarray(t, dtype=float)
        u = _linpred(z, beta)
        te = t * _exp_clip(-u)
        base = np.broadcast(t, u).shape
        g_beta = _beta_grad(base, z, np.broadcast_to(lam * te - 1.0, base))
        g_lam = np.broadcast_to(1.0 / lam - te, base)
        return np.concatenate([g_beta, g_lam[..., None]], axis=-1)

    def survival(self, theta, t, z):
        beta, lam = self._split(theta)
        t = np.asarray(t, dtype=float)
        u = _linpred(z, beta)
        return np.exp(-lam * t * np.exp(-u))

    def inverse_survival(self, theta, v, z):
        beta, lam = self._split(theta)
        u = _linpred(z, beta)
        return float(-np.log(v) * np.exp(u) / lam)

    def default_init(self, x, delta, z):
        lam = max(delta.sum() / x.sum(), 1e-3)
        return np.concatenate([np.zeros(z.shape[1]), [lam]])


class AHWeibull(SurvivalModel):
    """Accelerated hazards with Weibull baseline: the hazard at ``t`` is the
    baseline hazard evaluated at ``t * exp(u)``, giving cumulative hazard
    ``lam * t**gam * exp((gam - 1) * u)``.  ``gam = 1`` collapses the
    covariate effect entirely and is excluded (guard band 1e-6).
    """

    name = "ah-weibull"
    baseline = ("lambda", "gamma")
    positive = ("lambda", "gamma")
    _GUARD = 1e-6

    def check_theta(self, theta, d_z):
        theta = super().check_theta(theta, d_z)
        if abs(theta[-1] - 1.0) < self._GUARD:
            raise DomainError("ah-weibull: gamma must stay away from 1")
        return theta

    def log_density(self, theta, t, z):
        beta, lam, gam = self._split(theta)
        t = np.asarray(t, dtype=float)
        u = _linpred(z, beta)
        logt = np.log(t)
        H = lam * _exp_clip(gam * logt + (gam - 1.0) * u)
        return math.log(gam) + math.log(lam) + (gam - 1.0) * (logt + u) - H

    def log_density_grad(self, theta, t, z):
        beta, lam, gam = self._split(theta)
        t = np.asarray(t, dtype=float)
        u = _linpred(z, beta)
        logt = np.log(t)
        H = lam * _exp_clip(gam * logt + (gam - 1.0) * u)
        base = np.broadcast(t, u).shape
        g_beta = _beta_grad(base, z, np.broadcast_to((gam - 1.0) * (1.0 - H), base))
        g_lam = np.broadcast_to((1.0 - H) / lam, base)
        g_gam = np.broadcast_to(1.0 / gam + (logt + u) * (1.0 - H), base)
        return np.concatenate([g_beta, g_lam[..., None], g_gam[..., None]], axis=-1)

    def survival(self, theta, t, z):
        beta, lam, gam = self._split(theta)
        t = np.asarray(t, dtype=float)
        u = _linpred(z, beta)
        return np.exp(-lam * np.power(t, gam) * np.exp((gam - 1.0) * u))

    def inverse_survival(self, theta, v, z):
        beta, lam, gam = self._split(theta)
        u = _linpred(z, beta)
        return float((-np.log(v) / (lam * np.exp((gam - 1.0) * u))) ** (1.0 / gam))

    def default_init(self, x, delta, z):
        lam = max(delta.sum() / x.sum(), 1e-3)
        return np.concatenate([np.zeros(z.shape[1]), [lam, 1.3]])


REGISTRY = {
    m.name: m
    for m in (PHWeibull(), POLogLogistic(), AFTLogNormal(), AFTExponential(), AHWeibull())
}

REGISTRY_ORDER = list(REGISTRY)


def get_model(name: str) -> SurvivalModel:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; choose from {', '.join(REGISTRY_ORDER)}"
        ) from None


def density(model: SurvivalModel, theta, t, z):
    """q(t | z; theta) with domain checks on theta and t."""
    d_z = np.asarray(z, dtype=float).shape[-1] if np.asarray(z).ndim else 0
    theta = model.check_theta(theta, d_z)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0) or not np.all(np.isfinite(t_arr)):
        raise DomainError("t must be positive and finite")
    return np.exp(model.log_density(theta, t, z))


def log_density_grad(model: SurvivalModel, theta, t, z):
    d_z = np.asarray(z, dtype=float).shape[-1] if np.asarray(z).ndim else 0
    theta = model.check_theta(theta, d_z)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0) or not np.all(np.isfinite(t_arr)):
        raise DomainError("t must be positive and finite")
    return model.log_density_grad(theta, t, z)


def survival(model: SurvivalModel, theta, t, z):
    d_z = np.asarray(z, dtype=float).shape[-1] if np.asarray(z).ndim else 0
    theta = model.check_theta(theta, d_z)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0) or not np.all(np.isfinite(t_arr)):
        raise DomainError("t must be positive and finite")
    return model.survival(theta, t, z)


def sample_event_time(model: SurvivalModel, theta, z, rng) -> float:
    """Draw an event time by inverting the conditional survival at one
    uniform variate (``rng`` only needs a ``uniform()`` method)."""
    d_z = np.asarray(z, dtype=float).shape[-1] if np.asarray(z).ndim else 0
    theta = model.check_theta(theta, d_z)
    v = 1.0 - float(rng.uniform())
    return model.inverse_survival(theta, v, z)


def ratio_depends_on_z(model, theta, theta_tilde, t_grid, z_grid, tol=1e-8) -> bool:
    """Numerical identifiability diagnostic.

    Returns True iff the log-ratio of the two conditional densities varies
    with z somewhere on the grid: the model is identifiable from covariate
    variation only when no two distinct parameter vectors produce a z-free
    density ratio.
    """
    theta = np.asarray(theta, dtype=float)
    theta_tilde = np.asarray(theta_tilde, dtype=float)
    if np.array_equal(theta, theta_tilde):
        raise DomainError("theta and theta_tilde must differ")
    t_grid = np.asarray(t_grid, dtype=float)
    z_grid = np.asarray(z_grid, dtype=float)
    if z_grid.ndim == 1:
        z_grid = z_grid[:, None]
    if t_grid.size == 0 or z_grid.shape[0] < 2:
        raise DomainError("need a non-empty t grid and at least two z points")
    d_z = z_grid.shape[1]
    model.check_theta(theta, d_z)
    model.check_theta(theta_tilde, d_z)
    diff = model.log_density(theta, t_grid[:, None], z_grid) - model.log_density(
        theta_tilde, t_grid[:, None], z_grid
    )
    spread = diff.max(axis=1) - diff.min(axis=1)
    return bool(spread.max() > tol)
