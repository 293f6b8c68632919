"""Parametric conditional event-time models q(t | z; theta).

The model contract.  Every zoo model depends on the covariates only through
the linear predictor ``u = z @ beta``, so it is written once, in u-space.  A
zoo model declares its baseline slot names (``baseline``), the ones
constrained to (0, inf) (``positive``), and supplies three functions of
``(t, u, *base)``, ``base`` being the baseline scalars:

* ``u_terms(t, u, *base, order)``, one kernel for the log density and its
  partials, each with the broadcast shape of ``t`` and ``u``: ``[l]`` at
  ``order=0``; ``[l, (dl/du, (dl/dbase_1, ...))]`` at ``order=1``; and at
  ``order=2`` also ``(d2l/du2, (d2l/du dbase_s, ...), ((d2l/dbase_s
  dbase_r, ...), ...))``, the last a full symmetric table.  Its preamble
  (``log t`` and the one capped ``exp``) runs once per call, and each order
  adds its entries without changing the lower ones;
* ``u_log_survival(t, u, *base, order)``, the log survival function in
  the same layout up to ``order=1``: ``[log S]``, then ``(dlogS/du,
  (dlogS/dbase_1, ...))``, from the same preamble and capped ``exp`` as
  ``u_terms``, so it stays finite wherever ``u_terms`` does;
* ``u_inverse_survival``: the inverse of the survival function in ``t`` at
  level ``v``.

``SurvivalModel`` derives the rest: the parameter layout (``beta_1 ..
beta_{d_z}`` followed by the baseline block), and from theta and z (split
and ``u`` formed once per call) ``terms``, the one theta-space entry point
through which the likelihood, the sandwich and the functionals contract
(event time x record) grids without a (K, n, d) or (K, n, d, d) tensor,
``log_survival_terms``, its log-survival counterpart, which gives the
source-only start its exact gradient, plus ``log_density``,
``log_density_grad`` (regression block ``(dl/du) * z``), ``survival``
(``exp(log S)``) and ``inverse_survival``.

A model that is not a function of a linear predictor overrides the layout
(``d_theta``, ``param_names``, ``positive_mask``), ``survival`` and
``terms``, whose factors are a zero-width ``zr`` with its full gradient and
Hessian as ``g_base`` and ``h_bb``, so the contractions run unchanged; for
the ``"auto"`` (source-only) start it also overrides ``log_survival_terms``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import DomainError

_LOG_2PI = math.log(2.0 * math.pi)


def _exp_clip(a):
    """exp with the argument capped well below the overflow threshold; the
    result stays a huge finite number (with slack for scale factors) so
    downstream log-densities stay NaN-free."""
    return np.exp(np.minimum(a, 600.0))


def full_gradient(factors):
    """The gradient rows ``[g_u * zr, g_base...]`` of the first-order
    ``terms`` factors ``(g_u, g_base, zr)``."""
    g_u, g_base, zr = factors
    return np.concatenate([np.asarray(g_u)[..., None] * zr, np.stack(g_base, axis=-1)], axis=-1)


class SurvivalModel:
    """Interface shared by the model zoo.  Stateless and thread-safe.

    See the module docstring for the contract: a zoo model supplies the
    u-space functions, this class derives every theta-space method.
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

    def split(self, theta):
        """``(beta, baseline scalars)`` of a flat parameter vector."""
        theta = np.asarray(theta, dtype=float)
        nb = len(self.baseline)
        return theta[:-nb], theta[-nb:]

    def _u_args(self, theta, t, z):
        """``(t, u, *base)``, the arguments of the u-space functions."""
        beta, base = self.split(theta)
        return (np.asarray(t, dtype=float), np.asarray(z, dtype=float) @ beta, *base)

    def _u_kernel(self, kernel, theta, t, z, order):
        """A u-space kernel's output with ``z`` appended to its first-order
        factors, the regression block's rows."""
        out = kernel(*self._u_args(theta, t, z), order=order)
        if order >= 1:
            out[1] = (*out[1], np.asarray(z, dtype=float))
        return out

    def terms(self, theta, t, z, order=0):
        """The log density at theta and, up to ``order``, its factored
        partials: ``[l]``, then ``(g_u, g_base, zr)``, the gradient being
        ``g_u[..., None] * zr`` followed by one slot per entry of ``g_base``,
        then ``(h_uu, h_ub, h_bb)``, the Hessian with regression block
        ``h_uu[..., None, None] * zr zr^T``, regression-baseline column ``s``
        ``h_ub[s][..., None] * zr`` and baseline entries ``h_bb[s][r]``."""
        return self._u_kernel(self.u_terms, theta, t, z, order)

    def log_survival_terms(self, theta, t, z, order=0):
        """The log survival function at theta and, at ``order=1``, its
        factored gradient ``(g_u, g_base, zr)`` in the layout of ``terms``."""
        return self._u_kernel(self.u_log_survival, theta, t, z, order)

    def log_density(self, theta, t, z):
        return self.terms(theta, t, z)[0]

    def log_density_grad(self, theta, t, z):
        return full_gradient(self.terms(theta, t, z, 1)[1])

    def survival(self, theta, t, z):
        return np.exp(self.log_survival_terms(theta, t, z)[0])

    def inverse_survival(self, theta, v, z):
        return float(self.u_inverse_survival(*self._u_args(theta, v, z)))

    def default_init(self, x, delta, z) -> np.ndarray:
        raise NotImplementedError


class PHWeibull(SurvivalModel):
    """Proportional hazards with Weibull baseline: hazard
    ``lam * gam * t**(gam-1) * exp(u)``."""

    name = "ph-weibull"
    baseline = ("lambda", "gamma")
    positive = ("lambda", "gamma")

    def u_terms(self, t, u, lam, gam, order=0):
        logt = np.log(t)
        He = lam * _exp_clip(gam * logt + u)  # H(t) * exp(u)
        out = [math.log(lam) + math.log(gam) + (gam - 1.0) * logt + u - He]
        if order >= 1:
            g_u = 1.0 - He
            out.append((g_u, (1.0 / lam - He / lam, 1.0 / gam + logt * g_u)))
        if order >= 2:
            l_lg = -He * logt / lam
            out.append((-He, (-He / lam, -He * logt), (
                (-1.0 / lam**2, l_lg),
                (l_lg, -1.0 / gam**2 - He * logt**2),
            )))
        return out

    def u_log_survival(self, t, u, lam, gam, order=0):
        logt = np.log(t)
        He = lam * _exp_clip(gam * logt + u)
        out = [-He]
        if order >= 1:
            out.append((-He, (-He / lam, -He * logt)))
        return out

    def u_inverse_survival(self, v, u, lam, gam):
        return (-np.log(v) / (lam * np.exp(u))) ** (1.0 / gam)

    def default_init(self, x, delta, z):
        return np.concatenate([np.zeros(z.shape[1]), [delta.sum() / x.sum(), 1.0]])


class POLogLogistic(SurvivalModel):
    """Proportional odds with log-logistic baseline survival
    ``1 / (1 + H(t) exp(u))``, ``H(t) = exp(-mu/sigma) t**(1/sigma)``."""

    name = "po-loglogistic"
    baseline = ("mu", "sigma")
    positive = ("sigma",)

    def u_terms(self, t, u, mu, sigma, order=0):
        logt = np.log(t)
        logH = (logt - mu) / sigma
        # log h = logH - log(sigma * t)
        out = [logH - np.log(sigma) - logt + u - 2.0 * np.logaddexp(0.0, logH + u)]
        if order >= 1:
            G = special.expit(logH + u)  # H e^u / (1 + H e^u)
            r = mu - logt
            out.append((1.0 - 2.0 * G, (
                (2.0 * G - 1.0) / sigma,
                r * (1.0 - 2.0 * G) / sigma**2 - 1.0 / sigma,
            )))
        if order >= 2:
            D2 = 2.0 * G * (1.0 - G)                          # d(2G)/d(logit)
            l_ms = D2 * r / sigma**3 - (2.0 * G - 1.0) / sigma**2
            l_ss = (-D2 * r**2 / sigma**4 - 2.0 * r * (1.0 - 2.0 * G) / sigma**3
                    + 1.0 / sigma**2)
            out.append((-D2, (D2 / sigma, -D2 * r / sigma**2), ((-D2 / sigma**2, l_ms), (l_ms, l_ss))))
        return out

    def u_log_survival(self, t, u, mu, sigma, order=0):
        logt = np.log(t)
        logH = (logt - mu) / sigma
        out = [-np.logaddexp(0.0, logH + u)]
        if order >= 1:
            G = special.expit(logH + u)
            out.append((-G, (G / sigma, G * (logt - mu) / sigma**2)))
        return out

    def u_inverse_survival(self, v, u, mu, sigma):
        return np.exp(mu + sigma * (np.log1p(-v) - np.log(v) - u))

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

    def u_terms(self, t, u, mu, sigma, order=0):
        logt = np.log(t)
        s = (logt - mu - u) / sigma
        s2 = s**2
        out = [-np.log(sigma) - logt - 0.5 * s2 - 0.5 * _LOG_2PI]
        if order >= 1:
            out.append((s / sigma, (s / sigma, (s2 - 1.0) / sigma)))
        if order >= 2:
            l_ms = -2.0 * s / sigma**2
            h = -1.0 / sigma**2
            out.append((h, (h, l_ms), ((h, l_ms), (l_ms, (1.0 - 3.0 * s2) / sigma**2))))
        return out

    def u_log_survival(self, t, u, mu, sigma, order=0):
        logt = np.log(t)
        s = (logt - mu - u) / sigma
        log_tail = special.log_ndtr(-s)
        out = [log_tail]
        if order >= 1:
            # the inverse Mills ratio phi(s) / Phi(-s), from logs so that it
            # stays finite far in the upper tail
            mills = np.exp(-0.5 * s**2 - 0.5 * _LOG_2PI - log_tail)
            out.append((mills / sigma, (mills / sigma, mills * s / sigma)))
        return out

    def u_inverse_survival(self, v, u, mu, sigma):
        return np.exp(mu + u - sigma * special.ndtri(v))

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

    def u_terms(self, t, u, lam, order=0):
        # exp(-u), capped so that t exp(-u) stays finite as well
        E = _exp_clip(np.minimum(-u, 600.0 - np.log(t)))
        out = [math.log(lam) - u - lam * t * E]
        if order >= 1:
            te = t * E
            out.append((lam * te - 1.0, (1.0 / lam - te,)))
        if order >= 2:
            out.append((-lam * te, (te,), ((-1.0 / lam**2,),)))
        return out

    def u_log_survival(self, t, u, lam, order=0):
        te = t * _exp_clip(np.minimum(-u, 600.0 - np.log(t)))  # t exp(-u), capped as in u_terms
        out = [-lam * te]
        if order >= 1:
            out.append((lam * te, (-te,)))
        return out

    def u_inverse_survival(self, v, u, lam):
        return -np.log(v) * np.exp(u) / lam

    def default_init(self, x, delta, z):
        return np.concatenate([np.zeros(z.shape[1]), [delta.sum() / x.sum()]])


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

    def u_terms(self, t, u, lam, gam, order=0):
        logt = np.log(t)
        v = logt + u
        H = lam * _exp_clip(gam * logt + (gam - 1.0) * u)
        out = [math.log(gam) + math.log(lam) + (gam - 1.0) * v - H]
        if order >= 1:
            one_m_H = 1.0 - H
            out.append(((gam - 1.0) * one_m_H, (one_m_H / lam, 1.0 / gam + v * one_m_H)))
        if order >= 2:
            l_lg = -H * v / lam
            h_ub = (-(gam - 1.0) * H / lam, 1.0 - H - (gam - 1.0) * H * v)
            out.append((-((gam - 1.0) ** 2) * H, h_ub, (
                (-1.0 / lam**2, l_lg),
                (l_lg, -1.0 / gam**2 - H * v**2),
            )))
        return out

    def u_log_survival(self, t, u, lam, gam, order=0):
        logt = np.log(t)
        H = lam * _exp_clip(gam * logt + (gam - 1.0) * u)
        out = [-H]
        if order >= 1:
            out.append((-(gam - 1.0) * H, (-H / lam, -H * (logt + u))))
        return out

    def u_inverse_survival(self, v, u, lam, gam):
        return (-np.log(v) / (lam * np.exp((gam - 1.0) * u))) ** (1.0 / gam)

    def default_init(self, x, delta, z):
        return np.concatenate([np.zeros(z.shape[1]), [delta.sum() / x.sum(), 1.3]])


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


def _checked(model: SurvivalModel, theta, z, t=None) -> np.ndarray:
    """``theta`` checked against the dimension of ``z``; ``t``, when given,
    must be positive and finite."""
    d_z = np.asarray(z, dtype=float).shape[-1] if np.asarray(z).ndim else 0
    theta = model.check_theta(theta, d_z)
    if t is not None:
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr <= 0) or not np.all(np.isfinite(t_arr)):
            raise DomainError("t must be positive and finite")
    return theta


def density(model: SurvivalModel, theta, t, z):
    """q(t | z; theta) with domain checks on theta and t."""
    return np.exp(model.log_density(_checked(model, theta, z, t), t, z))


def log_density_grad(model: SurvivalModel, theta, t, z):
    return model.log_density_grad(_checked(model, theta, z, t), t, z)


def survival(model: SurvivalModel, theta, t, z):
    return model.survival(_checked(model, theta, z, t), t, z)


def sample_event_time(model: SurvivalModel, theta, z, rng) -> float:
    """Draw an event time by inverting the conditional survival at one
    uniform variate (``rng`` only needs a ``uniform()`` method)."""
    theta = _checked(model, theta, z)
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
