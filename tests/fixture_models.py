"""Test-only model families that sit outside the production zoo."""

import math
import threading

import numpy as np
from scipy import integrate, special

import lssurv as ls
from lssurv.models import Cells, PHWeibull, SurvivalModel

_LOG_2PI = math.log(2.0 * math.pi)


class FullGradientModel(SurvivalModel):
    """Base of the fixtures that are not functions of a linear predictor.

    A subclass supplies ``log_density``, ``log_density_grad`` and
    ``log_density_hess`` over its full parameter vector (the last two with
    trailing ``(d,)`` and ``(d, d)`` axes).  ``terms`` writes them as the
    ``Cells`` of the zoo contract with a unit feature and a zero-width
    regression block: one column per distinct covariate row (its
    indicator), and as the row basis every partial, and every entry of
    ``Hess + grad grad^T``, as a function of t at every such covariate row.
    The tables pick, for each slot, its own partial at the record's row, so
    the likelihood and sandwich contractions run unchanged."""

    def terms(self, theta, t, z, order=0):
        t, z = np.asarray(t, dtype=float), np.asarray(z, dtype=float)
        out = [self.log_density(theta, t, z)]
        if order == 0:
            return out
        levels, which = np.unique(z.reshape(-1, z.shape[-1]), axis=0, return_inverse=True)
        n_lev, at = levels.shape[0], t[..., None]            # every time at every level
        g = np.moveaxis(self.log_density_grad(theta, at, levels), -1, 0)
        d = g.shape[0]
        parts = [g]
        if order >= 2:
            h = np.moveaxis(self.log_density_hess(theta, at, levels), (-2, -1), (0, 1))
            parts.append((h + g[:, None] * g[None]).reshape((d * d,) + g.shape[1:]))
        rows = np.moveaxis(np.concatenate(parts), -1, 1).reshape((-1,) + t.shape)
        cols = (which.reshape(z.shape[:-1]) == np.arange(n_lev).reshape((-1,) + (1,) * (z.ndim - 1)))
        lev = np.arange(n_lev)
        grad = np.zeros((1 + d, 1, rows.shape[0], n_lev))
        curv = np.zeros((1 + d, 1 + d, 1, rows.shape[0], n_lev)) if order >= 2 else None
        for a in range(d):
            grad[1 + a, 0, a * n_lev + lev, lev] = 1.0
            for b in range(d if order >= 2 else 0):
                curv[1 + a, 1 + b, 0, (d + a * d + b) * n_lev + lev, lev] = 1.0
        return out + [Cells(1.0, rows, cols.astype(float), np.zeros(z.shape[:-1] + (0,)), grad, curv)]


class TwoPointLogNormal(FullGradientModel):
    """Test fixture: a log-normal event-time family over a two-point
    covariate whose induced conditional density is invariant under
    ``mu -> -mu``, so the family is not identifiable from the stacked
    two-population data.

    The construction: the source conditional given ``z`` is log-normal with
    scale ``beta * z``; the target marginal is log-normal ``(mu, sigma)``.
    The implied conditional in the target is the tilt of the source mixture
    by that marginal.  theta = (beta, mu, sigma) with beta, sigma > 0 and
    z restricted to {1, 2} with equal weight.
    """

    name = "twopoint-lognormal"
    _gh_nodes, _gh_weights = np.polynomial.hermite.hermgauss(64)

    def d_theta(self, d_z):
        return 3

    def param_names(self, d_z):
        return ["beta", "mu", "sigma"]

    def positive_mask(self, d_z):
        return np.array([True, False, True])

    def _log_mix_weight(self, s, beta, zval):
        # log of the z-component weight in the source mixture at log-time s
        comp = np.stack(
            [-(s**2) / (2.0 * (beta * zz) ** 2) - math.log(beta * zz) for zz in (1.0, 2.0)]
        )
        lse = special.logsumexp(comp, axis=0)
        pick = comp[0] if zval == 1.0 else comp[1]
        return pick - lse

    def _log_qz(self, theta, zval):
        beta, mu, sigma = np.asarray(theta, dtype=float)
        s = mu + math.sqrt(2.0) * sigma * self._gh_nodes
        logw = self._log_mix_weight(s, beta, zval)
        return special.logsumexp(logw + np.log(self._gh_weights)) - 0.5 * math.log(math.pi)

    def log_density(self, theta, t, z):
        beta, mu, sigma = np.asarray(theta, dtype=float)
        t = np.asarray(t, dtype=float)
        zv = np.asarray(z, dtype=float)
        zcol = zv[..., 0] if zv.ndim and zv.shape[-1] == 1 else zv
        s = np.log(t)
        lp_t1 = -0.5 * _LOG_2PI - s - math.log(beta) - s**2 / (2.0 * beta**2)
        lp_t2 = -0.5 * _LOG_2PI - s - math.log(2.0 * beta) - s**2 / (2.0 * (2.0 * beta) ** 2)
        lp_tz = np.where(np.isclose(zcol, 1.0), lp_t1, lp_t2)
        lp_t = np.logaddexp(math.log(0.5) + lp_t1, math.log(0.5) + lp_t2)
        lq_t = -0.5 * _LOG_2PI - np.log(sigma) - s - (s - mu) ** 2 / (2.0 * sigma**2)
        lqz = np.where(
            np.isclose(zcol, 1.0), self._log_qz(theta, 1.0), self._log_qz(theta, 2.0)
        )
        out = lp_tz + math.log(0.5) + lq_t - lp_t - lqz
        return np.broadcast_to(out, np.broadcast(t, zcol).shape).copy()

    def log_density_grad(self, theta, t, z):
        # central differences; the fixture is outside the analytic-gradient zoo
        theta = np.asarray(theta, dtype=float)
        base = self.log_density(theta, t, z)
        out = np.empty(base.shape + (3,))
        for s in range(3):
            h = 1e-6 * max(1.0, abs(theta[s]))
            up = theta.copy()
            dn = theta.copy()
            up[s] += h
            dn[s] -= h
            out[..., s] = (self.log_density(up, t, z) - self.log_density(dn, t, z)) / (2 * h)
        return out

    def log_density_hess(self, theta, t, z):
        # second central differences of the log density
        theta = np.asarray(theta, dtype=float)
        h = 1e-4 * np.maximum(1.0, np.abs(theta))
        step = np.diag(h)

        def f(*shifts):
            return self.log_density(theta + sum(shifts, np.zeros(3)), t, z)

        base = f()
        out = np.empty(base.shape + (3, 3))
        for s in range(3):
            out[..., s, s] = (f(step[s]) - 2.0 * base + f(-step[s])) / h[s] ** 2
            for r in range(s):
                out[..., s, r] = out[..., r, s] = (
                    f(step[s], step[r]) - f(step[s], -step[r])
                    - f(-step[s], step[r]) + f(-step[s], -step[r])
                ) / (4.0 * h[s] * h[r])
        return out

    def survival(self, theta, t, z):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        zv = np.asarray(z, dtype=float).reshape(-1)[:1]
        out = np.empty(t_arr.shape)
        for i, ti in enumerate(t_arr.ravel()):
            val, _ = integrate.quad(
                lambda s: float(np.exp(self.log_density(theta, s, zv))), ti, np.inf
            )
            out.ravel()[i] = min(max(val, 0.0), 1.0)
        return float(out[0]) if np.isscalar(t) else out

    def default_init(self, x, delta, z):
        return np.array([1.0, 0.5, 1.0])


def two_point_dataset(seed=42, n=60):
    """Censored source and target samples over the covariate {1, 2} of
    ``TwoPointLogNormal``, with log-normal event times of scale 0.75 z."""
    rng = np.random.default_rng(seed)
    zsrc = rng.integers(1, 3, n).astype(float)
    t = np.exp(rng.normal(0, 0.75 * zsrc))
    c = np.exp(rng.normal(0.8, 1.0, n))
    return ls.Dataset(np.minimum(t, c), (t <= c).astype(int), zsrc[:, None],
                      rng.integers(1, 3, n).astype(float)[:, None])


class OneSlot(FullGradientModel):
    """ph-weibull with everything frozen except the scale slot."""

    name = "one-slot"

    def __init__(self, frozen):
        self.frozen = np.asarray(frozen, dtype=float)
        self.inner = PHWeibull()

    def d_theta(self, d_z):
        return 1

    def param_names(self, d_z):
        return ["lambda"]

    def positive_mask(self, d_z):
        return np.array([True])

    def _full(self, theta):
        full = self.frozen.copy()
        full[-2] = theta[0]
        return full

    def log_density(self, theta, t, z):
        return self.inner.log_density(self._full(theta), t, z)

    def log_density_grad(self, theta, t, z):
        return self.inner.log_density_grad(self._full(theta), t, z)[..., -2:-1]

    def log_density_hess(self, theta, t, z):
        # d2/dlambda2 of the ph-weibull log density
        shape = np.shape(self.log_density(theta, t, z)) + (1, 1)
        return np.full(shape, -1.0 / float(theta[0]) ** 2)

    def survival(self, theta, t, z):
        return self.inner.survival(self._full(theta), t, z)

    def default_init(self, x, delta, z):
        return np.array([1.0])


class RecordingPHWeibull(PHWeibull):
    """ph-weibull that records, per ``terms`` call, the calling thread's name,
    numpy's error state and whether the call reached a time beyond ``late``,
    where it lowers the log density by ``drop``."""

    name = "recording-ph-weibull"

    def __init__(self, late=np.inf, drop=0.0):
        self.late, self.drop = late, drop
        self.calls = []

    def terms(self, theta, t, z, order=0):
        is_late = np.asarray(t) > self.late
        self.calls.append((threading.current_thread().name, np.geterr(), bool(np.any(is_late))))
        out = super().terms(theta, t, z, order)
        out[0] = np.where(is_late, out[0] - self.drop, out[0])
        return out
