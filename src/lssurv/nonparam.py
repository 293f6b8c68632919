"""Product-limit estimation and the influence machinery for its integrals.

``kaplan_meier`` builds the event-time CDF from censored observations.
``influence_evaluator`` implements the first-order expansion of a
jump-weighted integral ``sum_k w_k * phi(t_k)`` into per-observation
contributions: an uncensored point contributes ``phi(x) * g0(x)``, a
censored one the tail average ``g1(x)``, and every point pays the
compensator ``g2(x)``.  All three use the at-risk fraction and the
censoring sub-distribution, with strict-past / strict-future conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyTarget, NoEvents
from .stepfun import DiscreteMeasure, StepFunction


@dataclass(frozen=True)
class KmFit:
    """Everything the product-limit fit knows about the source sample."""

    cdf: StepFunction
    survival: StepFunction
    jumps: DiscreteMeasure
    risk: StepFunction
    h0: StepFunction
    h1: StepFunction
    n1: int
    event_times: np.ndarray     # distinct uncensored times, sorted
    event_counts: np.ndarray    # tie multiplicities per event time
    censor_times: np.ndarray    # censored observations (records, sorted)

    def risk_at(self, w):
        """Fraction of observations still at risk at ``w`` (>= convention)."""
        return self.risk(w)


def kaplan_meier(x, delta) -> KmFit:
    """Product-limit fit of the event-time distribution.

    Ties between events and censorings at the same time keep the censored
    records in the risk set, i.e. events are processed first.
    """
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=np.int64)
    n1 = x.shape[0]
    if n1 == 0 or not np.any(delta == 1):
        raise NoEvents("all observations are censored")

    order = np.argsort(x, kind="stable")
    xs = x[order]
    ds = delta[order]
    times, start = np.unique(xs, return_index=True)
    # per distinct time: events d_t, total removals m_t, at-risk count y_t
    boundaries = np.append(start, n1)
    d_t = np.add.reduceat(ds, start)
    m_t = np.diff(boundaries)
    y_t = n1 - start

    surv_levels = np.cumprod(np.where(d_t > 0, (y_t - d_t) / y_t, 1.0))

    survival = StepFunction(times, surv_levels, pre=1.0)
    cdf = StepFunction(times, 1.0 - surv_levels, pre=0.0)

    is_event_time = d_t > 0
    event_times = times[is_event_time]
    event_counts = d_t[is_event_time]
    prev_levels = np.concatenate(([1.0], surv_levels[:-1]))
    jump_sizes = prev_levels[is_event_time] - surv_levels[is_event_time]
    jumps = DiscreteMeasure(event_times, jump_sizes)

    # at-risk fraction as a left-continuous step function of w
    risk = StepFunction(times, (n1 - np.cumsum(m_t)) / n1, pre=1.0, side="left")

    c0 = np.add.reduceat(1 - ds, start)
    h0 = StepFunction(times, np.cumsum(c0) / n1, pre=0.0)
    h1 = StepFunction(times, np.cumsum(d_t) / n1, pre=0.0)

    censor_times = np.sort(x[delta == 0])
    return KmFit(
        cdf=cdf,
        survival=survival,
        jumps=jumps,
        risk=risk,
        h0=h0,
        h1=h1,
        n1=n1,
        event_times=event_times,
        event_counts=event_counts,
        censor_times=censor_times,
    )


def empirical_measure(z_target) -> DiscreteMeasure:
    """Each target point carries mass 1/n2; equal points are not merged."""
    z = np.asarray(z_target, dtype=float)
    n2 = z.shape[0]
    if n2 == 0:
        raise EmptyTarget("target sample is empty")
    return DiscreteMeasure(z, np.full(n2, 1.0 / n2))


def gamma0_hat(km: KmFit) -> StepFunction:
    """Exponential of the cumulative censoring/at-risk integral over the
    strict past: ``exp{ sum_{censored v < x} (1/n1) / risk(v) }``.

    Identically 1 when there is no censoring, and 1 at or before the first
    censored observation.
    """
    if km.censor_times.size == 0:
        return StepFunction(np.empty(0), np.empty(0), pre=1.0, side="left")
    vc, counts = np.unique(km.censor_times, return_counts=True)
    increments = counts / km.n1 / km.risk(vc)
    values = np.exp(np.cumsum(increments))
    return StepFunction(vc, values, pre=1.0, side="left")


@dataclass(frozen=True)
class InfluenceContext:
    """Precomputed pieces for evaluating jump-integral influences.

    ``dv`` holds ``(1/n1) / risk(v)^2`` per censored record ``v`` (sorted),
    the weight of the compensator's outer integral.
    """

    km: KmFit
    gamma0: StepFunction
    g0_at_events: np.ndarray
    dv: np.ndarray

    @property
    def n1(self) -> int:
        return self.km.n1


def influence_context(km: KmFit) -> InfluenceContext:
    gamma0 = gamma0_hat(km)
    g0_at_events = np.atleast_1d(gamma0(km.event_times))
    risk_v = np.atleast_1d(km.risk(km.censor_times)) if km.censor_times.size else np.empty(0)
    dv = (1.0 / km.n1) / risk_v**2
    return InfluenceContext(km=km, gamma0=gamma0, g0_at_events=g0_at_events, dv=dv)


class _PhiInfluence:
    """Per-integrand state: suffix sums of ``phi * g0`` over event records,
    so each evaluation costs one binary search."""

    def __init__(self, ctx: InfluenceContext, phi_at_events: np.ndarray):
        km = ctx.km
        self.ctx = ctx
        self.phi_at_events = np.asarray(phi_at_events, dtype=float)
        b = km.event_counts * self.phi_at_events * ctx.g0_at_events / km.n1
        # suffix[k] = sum over event times strictly beyond index k-1
        suffix = np.concatenate((np.cumsum(b[::-1])[::-1], [0.0]))
        self._suffix = suffix
        # prefix over censored records of dv * tail-sum beyond v
        if km.censor_times.size:
            tail_at_v = suffix[np.searchsorted(km.event_times, km.censor_times, side="right")]
            self._cens_prefix = np.concatenate(([0.0], np.cumsum(ctx.dv * tail_at_v)))
        else:
            self._cens_prefix = np.zeros(1)

    def tail_sum(self, x):
        """(1/n1) * sum over uncensored records w > x of phi(w) g0(w)."""
        idx = np.searchsorted(self.ctx.km.event_times, x, side="right")
        return self._suffix[idx]

    def gamma1(self, x):
        return self.tail_sum(x) / self.ctx.km.risk(x)

    def gamma2(self, x):
        idx = np.searchsorted(self.ctx.km.censor_times, x, side="left")
        return self._cens_prefix[idx]

    def __call__(self, x, delta, phi_at_x=None):
        x = np.asarray(x, dtype=float)
        delta = np.asarray(delta)
        if phi_at_x is None:
            k = np.searchsorted(self.ctx.km.event_times, x)
            k = np.clip(k, 0, self.ctx.km.event_times.size - 1)
            phi_at_x = self.phi_at_events[k]
        g0x = self.ctx.gamma0(x)
        out = (
            np.where(delta == 1, phi_at_x * g0x, 0.0)
            + np.where(delta == 0, self.gamma1(x), 0.0)
            - self.gamma2(x)
        )
        return out


def influence_evaluator(ctx: InfluenceContext, phi):
    """Bind an integrand once; the result maps (x, delta) to its influence."""
    tk = ctx.km.event_times
    try:
        phi_at_events = np.asarray(phi(tk), dtype=float)
        if phi_at_events.shape != tk.shape:
            raise TypeError
    except TypeError:
        phi_at_events = np.array([phi(t) for t in tk], dtype=float)
    bound = _PhiInfluence(ctx, phi_at_events)

    def evaluate(x, delta):
        scalar = np.isscalar(x)
        phi_x = None
        if np.any(np.asarray(delta) == 1):
            xs = np.atleast_1d(np.asarray(x, dtype=float))
            phi_x = np.array([phi(v) for v in xs], dtype=float)
            if scalar:
                phi_x = phi_x[0]
        out = bound(x, delta, phi_at_x=phi_x)
        return float(out) if scalar else out

    return evaluate


def km_influence(ctx: InfluenceContext, phi, x, delta):
    """One-shot influence of the integrand ``phi`` at the point ``(x, delta)``.

    Repeated evaluations with a fixed ``phi`` should go through
    ``influence_evaluator`` to reuse the suffix-sum setup.
    """
    return influence_evaluator(ctx, phi)(x, delta)
