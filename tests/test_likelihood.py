import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

import lssurv as ls
from lssurv.errors import NumericalUnderflow
from lssurv.likelihood import LikelihoodContext, approx_loglik, score
from lssurv.models import REGISTRY_ORDER
from lssurv.nonparam import kaplan_meier
from lssurv.variance import _second_order_pass

from conftest import SPOTS, km_survival, make_dataset
from oracles import qhat_T, qhat_T_star, s_functionals, target_weights


def brute_force_loglik(model, ds, theta):
    """Line-by-line transcription of the approximated likelihood."""
    km = kaplan_meier(ds.x, ds.delta)
    tk, w = km.event_times, km.jumps

    def qhat(t):
        return np.mean([float(np.exp(model.log_density(theta, t, ds.z_target[j])))
                        for j in range(ds.n2)])

    total = 0.0
    for i in range(ds.n1):
        if ds.delta[i] == 1:
            total += float(model.log_density(theta, ds.x[i], ds.z_source[i]))
            total -= math.log(qhat(ds.x[i]))
        else:
            s = sum(
                w[k] * float(np.exp(model.log_density(theta, tk[k], ds.z_source[i]))) / qhat(tk[k])
                for k in range(len(tk))
                if tk[k] > ds.x[i]
            )
            if s > 0:
                total += math.log(s)
    return total / ds.n1


def test_loglik_matches_transcription_oracle():
    # fixed 6-record synthetic dataset, mixed censoring
    ds = ls.Dataset(
        np.array([0.4, 0.9, 1.3, 1.9, 2.4, 3.1]),
        np.array([1, 0, 1, 1, 0, 1]),
        np.array([[0.2], [-0.5], [1.0], [0.1], [-1.2], [0.7]]),
        np.array([[0.0], [0.8], [-0.3]]),
    )
    model = ls.get_model("ph-weibull")
    theta = np.array([0.7, 1.2, 1.4])
    ctx = LikelihoodContext(model, ds)
    assert approx_loglik(ctx, theta) == pytest.approx(
        brute_force_loglik(model, ds, theta), abs=1e-12
    )


def test_loglik_two_event_identity():
    # with every record an event and a single target point the likelihood is
    # the average of log q(x_i, z_i) - log q(x_i, z'_1)
    ds = ls.Dataset(
        np.array([0.8, 1.7]),
        np.array([1, 1]),
        np.array([[0.4], [-0.2]]),
        np.array([[1.1]]),
    )
    model = ls.get_model("ph-weibull")
    theta = np.array([0.5, 1.0, 1.2])
    ctx = LikelihoodContext(model, ds)
    expected = np.mean(
        [
            float(model.log_density(theta, ds.x[i], ds.z_source[i]))
            - float(model.log_density(theta, ds.x[i], ds.z_target[0]))
            for i in range(2)
        ]
    )
    assert approx_loglik(ctx, theta) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_constant_in_z_collapse(name):
    # a covariate-free family: terms one and two cancel and the censored
    # term is the remaining jump mass beyond x_i
    rng = np.random.default_rng(9)
    n1 = 40
    t = rng.exponential(1.0, n1)
    c = rng.exponential(2.5, n1)
    x = np.minimum(t, c)
    delta = (t <= c).astype(int)
    delta[np.argmax(x)] = 1   # keep every censored tail non-empty
    ds = ls.Dataset(x, delta, np.empty((n1, 0)), np.empty((25, 0)))
    model = ls.get_model(name)
    theta = np.array(SPOTS[name][1])
    ctx = LikelihoodContext(model, ds)
    surv = km_survival(x, delta)
    tmax = kaplan_meier(x, delta).event_times[-1]
    expected = np.mean(
        [
            math.log(surv(x[i]) - surv(tmax)) if delta[i] == 0 else 0.0
            for i in range(n1)
        ]
    )
    assert approx_loglik(ctx, theta) == pytest.approx(expected, abs=1e-10)
    np.testing.assert_allclose(score(ctx, theta), 0.0, atol=1e-10)


def test_score_is_exact_gradient(small_dataset):
    model = ls.get_model("ph-weibull")
    theta = np.array([0.6, -0.4, 1.1, 1.4])
    ctx = LikelihoodContext(model, small_dataset)
    sc = score(ctx, theta)
    fd = np.empty_like(theta)
    for j in range(theta.size):
        h = 1e-5 * max(1.0, abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        fd[j] = (approx_loglik(ctx, up) - approx_loglik(ctx, dn)) / (2 * h)
    assert np.max(np.abs(sc - fd)) < 1e-5


def test_all_events_kill_censored_term(small_dataset):
    ds = small_dataset
    x = ds.x.copy()
    ds2 = ls.Dataset(x, np.ones_like(ds.delta), ds.z_source, ds.z_target)
    model = ls.get_model("ph-weibull")
    theta = np.array([0.3, 0.2, 1.0, 1.2])
    ctx = LikelihoodContext(model, ds2)
    assert ctx.cens_idx.size == 0
    sc = score(ctx, theta)
    # psi_3 contributes nothing: the score reduces to its first two pieces
    gown = model.log_density_grad(theta, ds2.x, ds2.z_source)
    lq = model.log_density(theta, ds2.x[:, None], ds2.z_target)
    lqh = logsumexp(lq, axis=1) - math.log(ds2.n2)
    Wt = np.exp(lq - lqh[:, None] - math.log(ds2.n2))
    qs = np.einsum("kj,kjd->kd", Wt, model.log_density_grad(theta, ds2.x[:, None], ds2.z_target))
    np.testing.assert_allclose(sc, (gown - qs).mean(axis=0), atol=1e-12)


def _uncensored_formula(model, ds, theta):
    """With every record an event: the mean over events of
    ``l(x_i, z_i) - log qhat(x_i)`` and its gradient, the target side
    weighted by the dense target weights."""
    ctx = LikelihoodContext(model, ds)
    tk = ctx.tk
    lq = model.log_density(theta, tk[:, None], ds.z_target)
    lqhat = logsumexp(lq, axis=1) - math.log(ds.n2)
    wt = target_weights(ctx, {"theta": theta, "lqhat": lqhat})
    qstar = np.einsum("kj,kjd->kd", wt, model.log_density_grad(theta, tk[:, None], ds.z_target))
    k = np.searchsorted(tk, ds.x)
    own = model.log_density(theta, ds.x, ds.z_source)
    gown = model.log_density_grad(theta, ds.x, ds.z_source)
    return np.mean(own - lqhat[k]), (gown - qstar[k]).mean(axis=0)


@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_no_censoring_matches_uncensored_formula(name):
    rng = np.random.default_rng(12)
    n1, n2 = 30, 20
    ds = ls.Dataset(rng.exponential(1.0, n1), np.ones(n1, dtype=int),
                    rng.normal(0.0, 1.0, (n1, 2)), rng.normal(0.3, 1.0, (n2, 2)))
    model = ls.get_model(name)
    beta, base = SPOTS[name]
    theta = np.array(beta + base)
    ctx = LikelihoodContext(model, ds)
    assert ctx.cens_idx.size == 0
    want_ll, want_sc = _uncensored_formula(model, ds, theta)
    ll, sc = ctx.value_and_score(theta)
    assert ll == pytest.approx(want_ll, abs=1e-12)
    np.testing.assert_allclose(sc, want_sc, rtol=0, atol=1e-12)
    fd = np.empty((theta.size, theta.size))
    for j in range(theta.size):
        h = 1e-5 * max(1.0, abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        fd[:, j] = (_uncensored_formula(model, ds, up)[1]
                    - _uncensored_formula(model, ds, dn)[1]) / (2 * h)
    np.testing.assert_allclose(_second_order_pass(ctx, theta)[0], fd, rtol=0, atol=1e-6)


def test_qhat_examples(small_dataset):
    model = ls.get_model("ph-weibull")
    theta = np.array([0.4, -0.2, 1.0, 1.3])
    ds1 = ls.Dataset(small_dataset.x, small_dataset.delta, small_dataset.z_source,
                     small_dataset.z_target[:1])
    ctx1 = LikelihoodContext(model, ds1)
    got = qhat_T(ctx1, theta, 0.9)
    want = float(np.exp(model.log_density(theta, 0.9, ds1.z_target[0])))
    assert got == pytest.approx(want, rel=1e-13)

    ctx = LikelihoodContext(model, small_dataset)
    t = 1.2
    naive = np.mean([float(np.exp(model.log_density(theta, t, z))) for z in small_dataset.z_target])
    assert qhat_T(ctx, theta, t) == pytest.approx(naive, abs=1e-12)
    naive_star = np.mean(
        [
            float(np.exp(model.log_density(theta, t, z))) * model.log_density_grad(theta, t, z)
            for z in small_dataset.z_target
        ],
        axis=0,
    )
    np.testing.assert_allclose(qhat_T_star(ctx, theta, t), naive_star, atol=1e-12)


def test_s_functionals_empty_tail_and_oracle(small_dataset):
    model = ls.get_model("ph-weibull")
    theta = np.array([0.4, -0.2, 1.0, 1.3])
    ctx = LikelihoodContext(model, small_dataset)
    sf = s_functionals(ctx, theta, small_dataset.x.max() + 1.0, small_dataset.z_source[0])
    assert sf.s0 == 0.0
    np.testing.assert_array_equal(sf.s1, 0.0)
    np.testing.assert_array_equal(sf.s2, 0.0)

    x0, z0 = 0.5, small_dataset.z_source[1]
    km = kaplan_meier(small_dataset.x, small_dataset.delta)
    tk, w = km.event_times, km.jumps
    qh = np.array([qhat_T(ctx, theta, t) for t in tk])
    qhs = np.array([qhat_T_star(ctx, theta, t) for t in tk])
    mask = tk > x0
    qz = np.exp(model.log_density(theta, tk, z0))
    gz = model.log_density_grad(theta, tk, z0)
    s0 = float(np.sum(w[mask] * qz[mask] / qh[mask]))
    s1 = np.sum((w * qz / qh)[mask, None] * gz[mask], axis=0)
    s2 = np.sum((w * qz / qh**2)[mask, None] * qhs[mask], axis=0)
    sf = s_functionals(ctx, theta, x0, z0)
    assert sf.s0 == pytest.approx(s0, abs=1e-12)
    np.testing.assert_allclose(sf.s1, s1, atol=1e-12)
    np.testing.assert_allclose(sf.s2, s2, atol=1e-12)


def test_s_functionals_constant_model_cancels():
    ds = ls.Dataset(
        np.array([0.5, 1.0, 2.0, 3.0]),
        np.array([1, 1, 0, 1]),
        np.empty((4, 0)),
        np.empty((3, 0)),
    )
    model = ls.get_model("ph-weibull")
    theta = np.array([1.0, 1.5])
    ctx = LikelihoodContext(model, ds)
    sf = s_functionals(ctx, theta, 0.7, np.empty(0))
    np.testing.assert_allclose(sf.s1 - sf.s2, 0.0, atol=1e-14)


def test_target_permutation_invariance(small_dataset):
    model = ls.get_model("ph-weibull")
    theta = np.array([0.6, -0.4, 1.1, 1.4])
    ctx = LikelihoodContext(model, small_dataset)
    base_ll = approx_loglik(ctx, theta)
    base_sc = score(ctx, theta)
    perm = np.random.default_rng(0).permutation(small_dataset.n2)
    ds2 = ls.Dataset(
        small_dataset.x, small_dataset.delta, small_dataset.z_source,
        small_dataset.z_target[perm],
    )
    ctx2 = LikelihoodContext(model, ds2)
    assert approx_loglik(ctx2, theta) == pytest.approx(base_ll, abs=1e-12)
    np.testing.assert_allclose(score(ctx2, theta), base_sc, atol=1e-12)


def test_target_duplication_reweighting(small_dataset):
    model = ls.get_model("ph-weibull")
    theta = np.array([0.6, -0.4, 1.1, 1.4])
    ctx = LikelihoodContext(model, small_dataset)
    n2 = small_dataset.n2
    t = 0.8
    base = qhat_T(ctx, theta, t)
    zdup = small_dataset.z_target[3]
    ds2 = ls.Dataset(
        small_dataset.x, small_dataset.delta, small_dataset.z_source,
        np.vstack([small_dataset.z_target, zdup]),
    )
    ctx2 = LikelihoodContext(model, ds2)
    qdup = float(np.exp(model.log_density(theta, t, zdup)))
    assert qhat_T(ctx2, theta, t) == pytest.approx((n2 * base + qdup) / (n2 + 1), rel=1e-13)


def test_cache_coherence(small_dataset):
    model = ls.get_model("ph-weibull")
    t1 = np.array([0.6, -0.4, 1.1, 1.4])
    t2 = np.array([0.2, 0.1, 0.9, 1.7])
    ctx = LikelihoodContext(model, small_dataset)
    ll_a = approx_loglik(ctx, t1)
    sc_a = score(ctx, t1)
    approx_loglik(ctx, t2)
    score(ctx, t2)
    # revisiting the first point reproduces the cached values bit for bit
    assert approx_loglik(ctx, t1) == ll_a
    np.testing.assert_array_equal(score(ctx, t1), sc_a)
    fresh = LikelihoodContext(model, small_dataset)
    assert approx_loglik(fresh, t1) == ll_a
    np.testing.assert_array_equal(score(fresh, t1), sc_a)


def test_empty_tail_records_are_dropped_with_warning_count():
    x = np.array([0.5, 1.0, 2.0, 3.0])
    delta = np.array([1, 1, 1, 0])       # censored record beyond the last event
    ds = ls.Dataset(x, delta, np.zeros((4, 1)), np.zeros((2, 1)))
    model = ls.get_model("ph-weibull")
    ctx = LikelihoodContext(model, ds)
    assert ctx.n_dropped == 1
    theta = np.array([0.0, 1.0, 1.0])
    assert math.isfinite(approx_loglik(ctx, theta))
    # the dropped record contributes exactly zero: removing it and rescaling
    ds_keep = ls.Dataset(x[:3], delta[:3], np.zeros((3, 1)), np.zeros((2, 1)))
    ctx_keep = LikelihoodContext(model, ds_keep)
    assert approx_loglik(ctx, theta) * 4 == pytest.approx(approx_loglik(ctx_keep, theta) * 3,
                                                          abs=1e-12)


def test_underflow_raises(small_dataset):
    model = ls.get_model("ph-weibull")
    ctx = LikelihoodContext(model, small_dataset)
    with pytest.raises(NumericalUnderflow):
        approx_loglik(ctx, np.array([300.0, 300.0, 1.0, 8.0]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_gradient_identity_random(seed):
    rng = np.random.default_rng(seed)
    ds = make_dataset(seed=seed, n1=int(rng.integers(8, 30)), n2=int(rng.integers(3, 20)))
    model = ls.get_model("ph-weibull")
    theta = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(0.5, 2.0), rng.uniform(0.7, 2.0)])
    ctx = LikelihoodContext(model, ds)
    sc = score(ctx, theta)
    fd = np.empty_like(theta)
    for j in range(theta.size):
        h = 1e-5 * max(1.0, abs(theta[j]))
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        fd[j] = (approx_loglik(ctx, up) - approx_loglik(ctx, dn)) / (2 * h)
    assert np.max(np.abs(sc - fd)) < 1e-5
