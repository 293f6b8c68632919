"""Test-only model families that sit outside the production zoo."""

import math

import numpy as np
from scipy import integrate, special

from lssurv.models import SurvivalModel

_LOG_2PI = math.log(2.0 * math.pi)


class TwoPointLogNormal(SurvivalModel):
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
