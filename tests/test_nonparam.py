import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lssurv as ls
from lssurv.errors import NoEvents
from lssurv.likelihood import LikelihoodContext, approx_loglik
from lssurv.nonparam import kaplan_meier, product_limit
from lssurv.shift_test import stute_masses

from conftest import km_survival
from oracles import gamma0_hat, influence_context, influence_evaluator, product_limit_levels


def test_km_without_censoring_is_empirical():
    x, delta = np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1])
    surv = km_survival(x, delta)
    assert surv(1.5) == pytest.approx(2 / 3)
    assert surv(2.5) == pytest.approx(1 / 3)
    assert surv(3.0) == 0.0
    assert kaplan_meier(x, delta).jumps.sum() == pytest.approx(1.0)


def test_km_with_censoring_by_hand():
    # risk set at t=3 is {3} alone after the censored 2
    surv = km_survival(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1]))
    assert surv(1.0) == pytest.approx(2 / 3)
    assert surv(2.9) == pytest.approx(2 / 3)
    assert surv(3.0) == 0.0


def test_km_all_censored_raises():
    with pytest.raises(NoEvents):
        kaplan_meier(np.array([1.0, 2.0]), np.array([0, 0]))


def test_empty_sample_raises_no_events():
    # both the fit and the shift test's masses go through the one pass
    with pytest.raises(NoEvents):
        kaplan_meier(np.empty(0), np.empty(0, dtype=int))
    with pytest.raises(NoEvents):
        stute_masses(np.empty(0), np.empty(0, dtype=int))


def test_km_tie_convention_events_first():
    # censored record at the same time stays in the risk set of the event
    x, delta = np.array([1.0, 1.0, 2.0]), np.array([1, 0, 1])
    assert km_survival(x, delta)(1.0) == pytest.approx(2 / 3)
    assert kaplan_meier(x, delta).at_risk[0] == pytest.approx(1.0)


@given(st.integers(0, 2**32 - 1), st.integers(5, 60))
@settings(max_examples=40, deadline=None)
def test_km_properties_random(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.exponential(1.0, n).round(3) + 1e-3   # provoke occasional ties
    delta = rng.integers(0, 2, n)
    delta[rng.integers(0, n)] = 1
    km, surv = kaplan_meier(x, delta), km_survival(x, delta)
    qs = np.sort(rng.uniform(0, x.max() * 1.2, 25))
    s = surv(qs)
    assert np.all((s >= -1e-15) & (s <= 1 + 1e-15))
    assert np.all(np.diff(s) <= 1e-15)
    assert km.jumps.sum() == pytest.approx(1.0 - surv(x.max()), abs=1e-12)
    largest_uncensored = delta[np.argmax(x)] == 1 and np.sum(x == x.max()) == np.sum(
        (x == x.max()) & (delta == 1)
    )
    if largest_uncensored:
        assert surv(x.max()) == pytest.approx(0.0, abs=1e-15)
        assert km.jumps.sum() == pytest.approx(1.0, abs=1e-12)


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
    times, levels = product_limit_levels(x, delta)
    surv = km_survival(x, delta)
    np.testing.assert_array_equal(surv.knots, times)
    np.testing.assert_array_equal(surv.values, levels)
    is_event = np.isin(times, x[delta == 1])
    np.testing.assert_array_equal(kaplan_meier(x, delta).jumps,
                                  -np.diff(levels, prepend=1.0)[is_event])


def _tied_sample(rng, n, censored):
    """Times on a 0.1 grid (ties between events and censorings), each record
    censored with probability ``censored``, at least one event."""
    x = rng.integers(1, 40, n) / 10.0
    delta = (rng.random(n) >= censored).astype(int)
    delta[rng.integers(n)] = 1
    return x, delta


@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.sampled_from([0.0, 0.5, 0.85, 0.97]))
@settings(max_examples=60, deadline=None)
def test_gamma0_dv_and_risk_equal_the_scalar_oracle_bit_for_bit(seed, n, censored):
    x, delta = _tied_sample(np.random.default_rng(seed), n, censored)
    km, ref = kaplan_meier(x, delta), influence_context(x, delta)
    np.testing.assert_array_equal(km.event_times, ref.event_times)
    np.testing.assert_array_equal(km.event_counts, ref.event_counts)
    np.testing.assert_array_equal(km.g0_at_events, ref.g0_at_events)
    np.testing.assert_array_equal(km.g0_at_events, gamma0_hat(x, delta)(km.event_times))
    np.testing.assert_array_equal(km.at_risk, ref.risk(x))


# -- invariances of the source-sample definition ----------------------------------

def _tied_dataset(seed, n1):
    rng = np.random.default_rng(seed)
    x, delta = _tied_sample(rng, n1, 0.4)
    return ls.Dataset(x, delta, rng.normal(size=(n1, 2)), rng.normal(0.3, 1.0, (30, 2)))


THETA = np.array([0.4, -0.3, 1.0, 1.3])


@given(st.integers(0, 2**32 - 1), st.integers(2, 400))
@settings(max_examples=25, deadline=None)
def test_source_permutation_is_bit_identical(seed, n1):
    ds = _tied_dataset(seed, n1)
    perm = np.random.default_rng(seed + 1).permutation(n1)
    ds_p = ls.Dataset(ds.x[perm], ds.delta[perm], ds.z_source[perm], ds.z_target)
    km, km_p = kaplan_meier(ds.x, ds.delta), kaplan_meier(ds_p.x, ds_p.delta)
    for name in ("event_times", "event_counts", "jumps", "g0_at_events"):
        np.testing.assert_array_equal(getattr(km_p, name), getattr(km, name))
    np.testing.assert_array_equal(km_p.at_risk, km.at_risk[perm])
    model = ls.get_model("ph-weibull")
    assert (approx_loglik(LikelihoodContext(model, ds_p), THETA)
            == approx_loglik(LikelihoodContext(model, ds), THETA))


@given(st.integers(0, 2**32 - 1), st.integers(2, 400))
@settings(max_examples=25, deadline=None)
def test_source_duplication_leaves_fit_and_loglik_unchanged(seed, n1):
    ds = _tied_dataset(seed, n1)
    ds_2 = ls.Dataset(np.tile(ds.x, 2), np.tile(ds.delta, 2), np.tile(ds.z_source, (2, 1)),
                      ds.z_target)
    km, km_2 = kaplan_meier(ds.x, ds.delta), kaplan_meier(ds_2.x, ds_2.delta)
    np.testing.assert_allclose(km_2.jumps, km.jumps, rtol=1e-13, atol=0)
    np.testing.assert_allclose(km_2.g0_at_events, km.g0_at_events, rtol=1e-13, atol=0)
    model = ls.get_model("ph-weibull")
    assert approx_loglik(LikelihoodContext(model, ds_2), THETA) == pytest.approx(
        approx_loglik(LikelihoodContext(model, ds), THETA), rel=1e-13, abs=0)


@given(st.integers(0, 2**32 - 1), st.integers(1, 200), st.integers(2, 50))
@settings(max_examples=50, deadline=None)
def test_constant_counts_give_the_unit_count_levels(seed, n, c):
    x, delta = _tied_sample(np.random.default_rng(seed), n, 0.5)
    unit = product_limit(x, delta, np.ones((n, 1), dtype=np.int64))
    scaled = product_limit(x, delta, np.full((n, 1), c, dtype=np.int64))
    np.testing.assert_array_equal(scaled[0], unit[0])
    np.testing.assert_array_equal(scaled[1], unit[1])
    np.testing.assert_array_equal(scaled[2], c * unit[2])
    np.testing.assert_array_equal(scaled[3], c * unit[3])
    np.testing.assert_array_equal(scaled[4], unit[4])


# -- the scalar gamma0 and influence oracles --------------------------------------

def test_gamma0_no_censoring_is_one():
    g0 = gamma0_hat(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]))
    for t in (0.1, 1.0, 2.5, 10.0):
        assert g0(t) == 1.0


def test_gamma0_hand_example():
    g0 = gamma0_hat(np.array([1.0, 2.0]), np.array([0, 1]))
    assert g0(0.5) == 1.0
    assert g0(1.0) == 1.0          # strict past: the censored point itself excluded
    assert g0(2.0) == pytest.approx(math.exp(0.5))


def test_gamma0_monotone_steps_at_censored_times():
    rng = np.random.default_rng(4)
    x = rng.exponential(1.0, 80)
    delta = rng.integers(0, 2, 80)
    delta[0] = 1
    g0 = gamma0_hat(x, delta)
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
    phi = lambda w: np.cos(w) + 2.0
    ev = influence_evaluator(influence_context(x, delta), phi)
    np.testing.assert_array_equal(ev(x, delta), phi(x))
    # sample mean equals the jump-weighted integral exactly
    km = kaplan_meier(x, delta)
    exact = float(np.sum(km.jumps * phi(km.event_times)))
    assert np.mean(ev(x, delta)) == pytest.approx(exact, abs=1e-14)


def test_influence_constant_phi_no_censoring():
    x = np.array([0.3, 1.1, 2.2, 0.9])
    delta = np.ones(4, dtype=int)
    assert influence_evaluator(influence_context(x, delta), lambda w: 3.5)(1.1, 1) == pytest.approx(3.5)


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
        phi = lambda w: np.sin(w) + 1.5
        ev = influence_evaluator(influence_context(x, delta), phi)
        exact = float(np.sum(km.jumps * phi(km.event_times)))
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
    phi = lambda w: np.exp(-np.asarray(w))
    ev = influence_evaluator(influence_context(x, delta), phi)
    vec = ev(x, delta)
    for i in (0, 5, 11):
        assert ev(x[i], delta[i]) == pytest.approx(vec[i], abs=1e-14)
