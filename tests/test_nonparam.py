import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lssurv as ls
from lssurv.errors import EmptyTarget, NoEvents
from lssurv.nonparam import (
    empirical_measure,
    gamma0_hat,
    influence_context,
    influence_evaluator,
    kaplan_meier,
    km_influence,
)


def test_km_without_censoring_is_empirical():
    km = kaplan_meier(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]))
    assert km.survival(1.5) == pytest.approx(2 / 3)
    assert km.survival(2.5) == pytest.approx(1 / 3)
    assert km.survival(3.0) == 0.0
    assert km.jumps.total_mass == pytest.approx(1.0)


def test_km_with_censoring_by_hand():
    # risk set at t=3 is {3} alone after the censored 2
    km = kaplan_meier(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1]))
    assert km.survival(1.0) == pytest.approx(2 / 3)
    assert km.survival(2.9) == pytest.approx(2 / 3)
    assert km.survival(3.0) == 0.0


def test_km_all_censored_raises():
    with pytest.raises(NoEvents):
        kaplan_meier(np.array([1.0, 2.0]), np.array([0, 0]))


def test_km_tie_convention_events_first():
    # censored record at the same time stays in the risk set of the event
    km = kaplan_meier(np.array([1.0, 1.0, 2.0]), np.array([1, 0, 1]))
    assert km.survival(1.0) == pytest.approx(2 / 3)
    assert km.risk(1.0) == pytest.approx(1.0)


def test_h0_h1_partition():
    x = np.array([0.5, 1.0, 1.5, 2.5])
    delta = np.array([1, 0, 1, 0])
    km = kaplan_meier(x, delta)
    assert km.h0(np.inf) + km.h1(np.inf) == pytest.approx(1.0)
    for t in (0.4, 0.5, 1.2, 3.0):
        ecdf = np.mean(x <= t)
        assert km.h0(t) + km.h1(t) == pytest.approx(ecdf, abs=1e-15)


@given(st.integers(0, 2**32 - 1), st.integers(5, 60))
@settings(max_examples=40, deadline=None)
def test_km_properties_random(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.exponential(1.0, n).round(3) + 1e-3   # provoke occasional ties
    delta = rng.integers(0, 2, n)
    delta[rng.integers(0, n)] = 1
    km = kaplan_meier(x, delta)
    qs = np.sort(rng.uniform(0, x.max() * 1.2, 25))
    s = km.survival(qs)
    assert np.all((s >= -1e-15) & (s <= 1 + 1e-15))
    assert np.all(np.diff(s) <= 1e-15)
    assert km.jumps.total_mass == pytest.approx(km.cdf(x.max()), abs=1e-12)
    largest_uncensored = delta[np.argmax(x)] == 1 and np.sum(x == x.max()) == np.sum(
        (x == x.max()) & (delta == 1)
    )
    if largest_uncensored:
        assert km.survival(x.max()) == pytest.approx(0.0, abs=1e-15)
        assert km.jumps.total_mass == pytest.approx(1.0, abs=1e-12)
    # h0 + h1 is the empirical CDF everywhere
    for t in qs[:10]:
        assert km.h0(t) + km.h1(t) == pytest.approx(np.mean(x <= t), abs=1e-12)


def _product_limit_loop(x, delta):
    """Scalar product-limit oracle: survival level after each distinct time."""
    times = np.unique(x)
    levels = []
    s = 1.0
    for t in times:
        y = np.sum(x >= t)
        d = np.sum((x == t) & (delta == 1))
        if d > 0:
            s *= (y - d) / y
        levels.append(s)
    return times, np.asarray(levels)


@given(
    st.lists(st.tuples(st.integers(1, 8), st.booleans()), min_size=1, max_size=40),
    st.integers(0, 39),
)
@settings(max_examples=200, deadline=None)
def test_km_levels_match_scalar_loop_on_ties(records, event_at):
    # integer times on a small range: heavy ties between events and censorings
    x = np.array([float(t) for t, _ in records])
    delta = np.array([int(e) for _, e in records])
    delta[event_at % len(records)] = 1
    km = kaplan_meier(x, delta)
    times, levels = _product_limit_loop(x, delta)
    np.testing.assert_array_equal(km.survival.knots, times)
    np.testing.assert_array_equal(km.survival.values, levels)
    np.testing.assert_array_equal(km.cdf.values, 1.0 - levels)


def test_empirical_measure_masses():
    m = empirical_measure(np.array([[1.0, 2.0]]))
    assert m.total_mass == pytest.approx(1.0) and len(m) == 1
    m2 = empirical_measure(np.array([[1.0], [1.0]]))
    assert len(m2) == 2
    np.testing.assert_allclose(m2.masses, [0.5, 0.5])
    m4 = empirical_measure(np.arange(4.0)[:, None])
    np.testing.assert_allclose(m4.masses, 0.25)
    with pytest.raises(EmptyTarget):
        empirical_measure(np.empty((0, 1)))


def test_gamma0_no_censoring_is_one():
    km = kaplan_meier(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]))
    g0 = gamma0_hat(km)
    for t in (0.1, 1.0, 2.5, 10.0):
        assert g0(t) == 1.0


def test_gamma0_hand_example():
    km = kaplan_meier(np.array([1.0, 2.0]), np.array([0, 1]))
    g0 = gamma0_hat(km)
    assert g0(0.5) == 1.0
    assert g0(1.0) == 1.0          # strict past: the censored point itself excluded
    assert g0(2.0) == pytest.approx(math.exp(0.5))


def test_gamma0_monotone_steps_at_censored_times():
    rng = np.random.default_rng(4)
    x = rng.exponential(1.0, 80)
    delta = rng.integers(0, 2, 80)
    delta[0] = 1
    km = kaplan_meier(x, delta)
    g0 = gamma0_hat(km)
    qs = np.sort(np.concatenate([x, x + 1e-9, [0.0, x.max() + 1]]))
    vals = np.atleast_1d(g0(qs))
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all(vals >= 1.0)
    # jumps only just after censored times
    censored = set(x[delta == 0])
    for t in x:
        before, after = g0(t), g0(np.nextafter(t, np.inf))
        if t in censored:
            assert after > before
        elif t not in censored:
            assert after == before


def test_influence_no_censoring_reduces_to_phi():
    rng = np.random.default_rng(1)
    x = rng.exponential(1.0, 40)
    delta = np.ones(40, dtype=int)
    ctx = influence_context(kaplan_meier(x, delta))
    phi = lambda w: np.cos(w) + 2.0
    ev = influence_evaluator(ctx, phi)
    np.testing.assert_array_equal(ev(x, delta), phi(x))
    # sample mean equals the jump-weighted integral exactly
    km = ctx.km
    exact = float(np.sum(km.jumps.masses * phi(km.event_times)))
    assert np.mean(ev(x, delta)) == pytest.approx(exact, abs=1e-14)


def test_influence_constant_phi_no_censoring():
    x = np.array([0.3, 1.1, 2.2, 0.9])
    delta = np.ones(4, dtype=int)
    ctx = influence_context(kaplan_meier(x, delta))
    assert km_influence(ctx, lambda w: 3.5, 1.1, 1) == pytest.approx(3.5)


def test_influence_mean_approximates_km_integral():
    # representation error shrinks at the O(log^3 n / n) scale
    diffs = {}
    for n in (100, 500):
        rng = np.random.default_rng(7)
        t = rng.exponential(1, n)
        c = rng.exponential(2.5, n)
        x = np.minimum(t, c)
        delta = (t <= c).astype(int)
        km = kaplan_meier(x, delta)
        ctx = influence_context(km)
        phi = lambda w: np.sin(w) + 1.5
        ev = influence_evaluator(ctx, phi)
        exact = float(np.sum(km.jumps.masses * phi(km.event_times)))
        diffs[n] = abs(np.mean(ev(x, delta)) - exact)
    assert diffs[500] < 0.03
    assert diffs[500] < diffs[100]


def test_influence_scalar_and_vector_agree():
    rng = np.random.default_rng(3)
    t = rng.exponential(1, 30)
    c = rng.exponential(2.0, 30)
    x = np.minimum(t, c)
    delta = (t <= c).astype(int)
    delta[0] = 1
    ctx = influence_context(kaplan_meier(x, delta))
    phi = lambda w: np.exp(-np.asarray(w))
    ev = influence_evaluator(ctx, phi)
    vec = ev(x, delta)
    for i in (0, 5, 11):
        assert km_influence(ctx, phi, x[i], delta[i]) == pytest.approx(vec[i], abs=1e-14)
