"""The product-limit estimate of the source event-time law, as arrays.

``product_limit`` is the one count-weighted pass: per distinct time and per
column of record copies, the events, the copies at risk and the survival
level.  ``kaplan_meier`` reads the unit-count column into a ``KmFit``: the
jumps the likelihood weights its event times by, and the pieces the
sandwich needs for the first-order expansion of a jump-weighted integral
(Stute 1995): the at-risk fraction at each record and ``gamma0`` at the
event times.  The censored records' time order is not kept here: the
likelihood context owns it (``LikelihoodContext.cens_idx``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoEvents


def product_limit(x, delta, counts):
    """One product-limit pass per column of ``counts``, the (n, B) copies of
    each record.

    Returns ``(times, time_of, events, at_risk, survival)``: the sorted
    distinct times, each record's index into them and, per time and column,
    the event copies, the copies still at risk (time >= t) and the survival
    level just after t.  Events at a time are removed before the censorings
    tied with them, so those stay in its risk set.  A time a column does not
    hit multiplies its survival by exactly 1.
    """
    x = np.asarray(x, dtype=float)
    events = counts * (np.asarray(delta) == 1)[:, None]
    if not np.all(events.sum(axis=0) > 0):
        raise NoEvents("all observations are censored")
    order = np.argsort(x, kind="stable")
    times, start, inverse = np.unique(x[order], return_index=True, return_inverse=True)
    time_of = np.empty_like(inverse)
    time_of[order] = inverse
    d = np.add.reduceat(events[order], start)
    removed = np.add.reduceat(counts[order], start)
    at_risk = counts.sum(axis=0) - (np.cumsum(removed, axis=0) - removed)
    survival = np.cumprod(np.where(d > 0, (at_risk - d) / np.maximum(at_risk, 1), 1.0), axis=0)
    return times, time_of, d, at_risk, survival


@dataclass(frozen=True)
class KmFit:
    """The product-limit fit of the source sample."""

    event_times: np.ndarray     # (K,) distinct uncensored times, sorted
    event_counts: np.ndarray    # (K,) tied events per event time
    jumps: np.ndarray           # (K,) jump of the product-limit CDF per event time
    at_risk: np.ndarray         # (n1,) fraction of records with time >= each record's
    g0_at_events: np.ndarray    # (K,) gamma0 at the event times


def kaplan_meier(x, delta) -> KmFit:
    """Product-limit fit of the event-time distribution.

    ``gamma0(t) = exp{ sum_{censored v < t} (1/n1) / risk(v) }`` over the
    strict past, 1 at or before the first censoring.
    """
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=np.int64)
    n1 = x.shape[0]
    times, time_of, d, y, s = product_limit(x, delta, np.ones((n1, 1), dtype=np.int64))
    d, y, s = d[:, 0], y[:, 0], s[:, 0]
    is_event = d > 0
    censored = np.bincount(time_of[delta == 0], minlength=times.size)
    gamma0 = np.exp(np.concatenate(([0.0], np.cumsum(censored / n1 / (y / n1))[:-1])))
    return KmFit(
        event_times=times[is_event],
        event_counts=d[is_event],
        jumps=-np.diff(s, prepend=1.0)[is_event],
        at_risk=y[time_of] / n1,
        g0_at_events=gamma0[is_event],
    )
