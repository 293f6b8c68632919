import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import lssurv as ls
from lssurv import simulation
from lssurv.errors import (
    DomainError,
    DomainEscape,
    LssurvError,
    NonConvergence,
    QuadratureFailure,
    SchemaError,
    SingularA,
    ValidationError,
)
from lssurv.estimator import (
    FitOptions,
    FitResult,
    bic_criterion,
    bic_select,
    conditional_functional,
    fit,
    source_only_mle,
)
from lssurv.likelihood import LikelihoodContext, approx_loglik, score
from lssurv.models import REGISTRY_ORDER, PHWeibull, get_model
from lssurv.variance import _second_order_pass, asymptotic_variance

from fixture_models import FullGradientModel, OneSlot, TwoPointLogNormal, two_point_dataset
from oracles import (eta_q_hat, influence_context, influence_evaluator, s_functionals,
                     target_weights)
from test_simulation import ZOO_THETA


def sim_dataset(seed=11, n1=160, n2=160):
    cfg = ls.SimConfig(model="ph-weibull", theta_true=(1.0, 1.0, 1.0, 1.5),
                       n1=n1, n2=n2, seed=seed)
    return ls.generate_dataset(cfg, np.random.default_rng(seed))


@pytest.fixture(scope="module")
def fitted():
    ds = sim_dataset()
    return ds, fit("ph-weibull", ds)


def test_fit_reaches_gradient_tolerance(fitted):
    ds, fr = fitted
    assert fr.converged and fr.grad_norm <= 1e-6
    ctx = LikelihoodContext(get_model("ph-weibull"), ds)
    np.testing.assert_allclose(score(ctx, fr.theta_hat), 0.0, atol=1e-6)
    assert np.all(fr.ci[:, 0] <= fr.theta_hat) and np.all(fr.theta_hat <= fr.ci[:, 1])


def test_fit_estimates_near_truth(fitted):
    _, fr = fitted
    # a generous sanity band: a few standard errors around the truth
    truth = np.array([1.0, 1.0, 1.0, 1.5])
    assert np.all(np.abs(fr.theta_hat - truth) <= 5 * fr.se + 0.05)


def test_one_dimensional_fit_matches_grid_search():
    ds = sim_dataset(seed=5, n1=80, n2=60)
    model = OneSlot([1.0, 1.0, 1.0, 1.5])
    fr = fit(model, ds, init=np.array([0.8]), opts=FitOptions(skip_variance=True))
    ctx = LikelihoodContext(model, ds)
    grid = np.linspace(0.2, 3.0, 10_000)
    vals = np.array([approx_loglik(ctx, np.array([g])) for g in grid])
    best = grid[np.argmax(vals)]
    assert abs(fr.theta_hat[0] - best) <= (grid[1] - grid[0])


def test_models_without_linear_predictor_take_the_same_contractions():
    # score and sandwich of models that supply their own full gradient
    # (zero-width regression block) instead of u-space partials
    cases = [
        (TwoPointLogNormal(), two_point_dataset(), np.array([0.75, 0.8, 0.6])),
        (OneSlot([1.0, 1.0, 1.0, 1.5]), sim_dataset(seed=5, n1=80, n2=60), np.array([0.9])),
    ]
    for model, ds, theta in cases:
        ctx = LikelihoodContext(model, ds)
        assert ctx.cens_idx.size and ctx.unc_idx.size
        fd = np.empty_like(theta)
        for j in range(theta.size):
            h = 1e-5 * max(1.0, abs(theta[j]))
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (approx_loglik(ctx, up) - approx_loglik(ctx, dn)) / (2 * h)
        np.testing.assert_allclose(score(ctx, theta), fd, rtol=1e-6, atol=1e-7)
        sigma, parts = asymptotic_variance(ctx, theta)
        assert sigma.shape == (theta.size, theta.size) and np.all(np.isfinite(sigma))
        assert np.all(np.isfinite(parts.psi_qZ_per_target))


def test_nonconvergence_raises():
    ds = sim_dataset(seed=3, n1=40, n2=40)
    with pytest.raises(NonConvergence):
        fit("ph-weibull", ds, opts=FitOptions(max_iter=1, grad_tol=1e-12))


def test_variance_shape_and_psd(fitted):
    ds, fr = fitted
    sigma, parts = asymptotic_variance(LikelihoodContext(get_model("ph-weibull"), ds), fr.theta_hat)
    assert np.allclose(sigma, sigma.T, atol=1e-10)
    assert np.min(np.linalg.eigvalsh(sigma)) >= -1e-10
    assert parts.psi_per_source.shape == (ds.n1, 4)
    assert parts.psi_qZ_per_target.shape == (ds.n2, 4)
    # mean of the source score rows is the estimating equation at theta_hat
    assert np.max(np.abs(parts.psi_per_source.mean(axis=0))) <= 1e-6
    # the event-CDF rows center near zero at the root-n scale
    scale = parts.psi_pT_per_source.std(axis=0) + 1e-12
    assert np.all(np.abs(parts.psi_pT_per_source.mean(axis=0)) <= 5 * scale / math.sqrt(ds.n1) + 1e-9)
    # the target rows center exactly
    assert np.max(np.abs(parts.psi_qZ_per_target.mean(axis=0))) < 1e-10


def test_a_matrix_is_loglik_hessian(fitted):
    # independent route: second differences of the scalar objective
    ds, fr = fitted
    model = get_model("ph-weibull")
    ctx = LikelihoodContext(model, ds)
    A = _second_order_pass(ctx, fr.theta_hat)[0]
    d = fr.theta_hat.size
    H = np.empty((d, d))
    h = 1e-4
    for j in range(d):
        for k in range(d):
            pp, pm, mp, mm = (fr.theta_hat.copy() for _ in range(4))
            pp[j] += h; pp[k] += h
            pm[j] += h; pm[k] -= h
            mp[j] -= h; mp[k] += h
            mm[j] -= h; mm[k] -= h
            H[j, k] = (
                approx_loglik(ctx, pp) - approx_loglik(ctx, pm)
                - approx_loglik(ctx, mp) + approx_loglik(ctx, mm)
            ) / (4 * h * h)
    H = 0.5 * (H + H.T)
    np.testing.assert_allclose(A, H, rtol=1e-3, atol=5e-4)


def test_eta_q_components_sum_to_zero(fitted):
    ds, fr = fitted
    model = get_model("ph-weibull")
    i = int(np.flatnonzero(ds.delta == 0)[0])
    eta0, eta1, eta2 = eta_q_hat(LikelihoodContext(model, ds), fr.theta_hat, ds.x[i], ds.z_source[i])
    tol = 1e-9 * ds.n2
    assert abs(eta0.sum()) < tol
    assert np.max(np.abs(eta1.sum(axis=0))) < tol
    assert np.max(np.abs(eta2.sum(axis=0))) < tol


def test_single_target_record():
    # every target sum of the psi_qZ terms vanishes by construction, so with
    # one target record each row is zero; the fit runs to the boundary
    # gamma -> 0 and is not reported as converged there
    ds0 = sim_dataset()
    ds = ls.Dataset(ds0.x, ds0.delta, ds0.z_source, ds0.z_target[:1])
    _, parts = asymptotic_variance(LikelihoodContext(get_model("ph-weibull"), ds),
                                   np.array([1.0, 1.0, 1.0, 1.5]))
    np.testing.assert_allclose(parts.psi_qZ_per_target, 0.0, atol=1e-12)
    with pytest.raises(NonConvergence):
        fit("ph-weibull", ds)


@pytest.mark.parametrize("name, n1, n2, seed, rep", [
    ("ph-weibull", 120, 80, 0, 11),      # gamma -> 0, beta -> 0
    ("aft-lognormal", 120, 80, 0, 16),   # sigma runs away towards 1e5
    ("ah-weibull", 120, 80, 0, 0),       # gamma at the gamma = 1 guard
    ("ah-weibull", 200, 200, 7, 10),     # gamma -> 0, beta -> 0
])
def test_boundary_fits_raise_nonconvergence(name, n1, n2, seed, rep):
    # BFGS stops short of the score tolerance on these drawn datasets while
    # running to a degenerate boundary; the fit is an error, not a result
    cfg = ls.SimConfig(name, ZOO_THETA[name], n1, n2, seed=seed)
    ds = simulation.generate_dataset(cfg, simulation._rep_rng(seed, rep))
    with pytest.raises(NonConvergence):
        fit(name, ds)


def test_psi_pt_vanishes_without_censoring():
    ds0 = sim_dataset(seed=21, n1=100, n2=80)
    ds = ls.Dataset(ds0.x, np.ones_like(ds0.delta), ds0.z_source, ds0.z_target)
    fr = fit("ph-weibull", ds)
    _, parts = asymptotic_variance(LikelihoodContext(get_model("ph-weibull"), ds), fr.theta_hat)
    np.testing.assert_array_equal(parts.psi_pT_per_source, 0.0)


def _reference_psi_pt(ctx, theta):
    """ψ_pT from the reference one-integrand path, assembled column by column
    over the kept censored records."""
    ds, model = ctx.dataset, ctx.model
    lqhat = ctx._evaluate(theta, need_score=True)["lqhat"]
    infl = influence_context(ds.x, ds.delta)
    got = np.zeros((ds.n1, theta.size))
    for m in ctx.cens_idx:
        x_m, z_m = ds.x[m], ds.z_source[m]

        def phi(w):
            w = np.asarray(w, dtype=float)
            lq = model.log_density(theta, w, z_m)
            lqh = np.interp(w, ctx.tk, lqhat)
            return np.where(w > x_m, np.exp(lq - lqh), 0.0)

        sf = s_functionals(ctx, theta, x_m, z_m)
        c_m = (sf.s1 - sf.s2) / sf.s0**2
        got -= np.outer(influence_evaluator(infl, phi)(ds.x, ds.delta), c_m) / ds.n1
    return got


def test_psi_pt_column_against_reference_influence(fitted):
    # the vectorized event-CDF rows agree with the reference one-integrand
    # path, assembled column by column over the kept censored records
    ds, fr = fitted
    ctx = LikelihoodContext(get_model("ph-weibull"), ds)
    _, parts = asymptotic_variance(ctx, fr.theta_hat)
    np.testing.assert_allclose(_reference_psi_pt(ctx, fr.theta_hat), parts.psi_pT_per_source,
                               atol=1e-12)


def test_psi_pt_against_reference_influence_with_ties_and_dropped_records():
    # times on a 0.1 grid: censorings tied with events, three censorings tied
    # with the last event time and ten beyond it, all thirteen dropped; the
    # compensator runs over the kept records in the context's time order
    rng = np.random.default_rng(5)
    n1, n2 = 120, 90
    x = rng.integers(1, 40, n1) / 10.0
    delta = (rng.random(n1) >= 0.35).astype(int)
    delta[x > 3.6] = 0
    x[:3], delta[:3] = 3.6, (1, 0, 0)
    ds = ls.Dataset(x, delta, rng.normal(size=(n1, 2)), rng.normal(0.3, 1.0, (n2, 2)))
    ctx = LikelihoodContext(get_model("ph-weibull"), ds)
    assert ctx.tk[-1] == 3.6 and ctx.n_dropped == 13
    assert len(np.unique(ds.x[ctx.cens_idx])) < ctx.cens_idx.size
    theta = np.array([0.4, -0.3, 0.8, 1.3])
    np.testing.assert_allclose(_reference_psi_pt(ctx, theta), _second_order_pass(ctx, theta)[2],
                               atol=1e-12)


def test_se_scales_with_root_n(fitted):
    ds, fr = fitted
    model = get_model("ph-weibull")
    sigma, _ = asymptotic_variance(LikelihoodContext(model, ds), fr.theta_hat)
    se = np.sqrt(np.diag(sigma) / ds.n0)
    dup = ls.Dataset(
        np.concatenate([ds.x, ds.x]),
        np.concatenate([ds.delta, ds.delta]),
        np.vstack([ds.z_source, ds.z_source]),
        np.vstack([ds.z_target, ds.z_target]),
    )
    sigma2, _ = asymptotic_variance(LikelihoodContext(model, dup), fr.theta_hat)
    se2 = np.sqrt(np.diag(sigma2) / dup.n0)
    np.testing.assert_allclose(se2, se / math.sqrt(2.0), rtol=0.05)


def test_singular_a_detected():
    # a covariate-free family has an identically-zero score surface
    rng = np.random.default_rng(2)
    x = rng.exponential(1.0, 40)
    delta = np.ones(40, dtype=int)
    ds = ls.Dataset(x, delta, np.empty((40, 0)), np.empty((20, 0)))
    with pytest.raises(SingularA):
        asymptotic_variance(LikelihoodContext(get_model("ph-weibull"), ds), np.array([1.0, 1.2]))


def test_conditional_functional_normalization(fitted):
    _, fr = fitted
    zeta, se, ci = conditional_functional("ph-weibull", fr, np.zeros(2), lambda t: 1.0)
    assert zeta == pytest.approx(1.0, abs=1e-8)
    assert se == pytest.approx(0.0, abs=1e-8)


def test_conditional_functional_weibull_mean():
    theta = np.array([0.0, 0.0, 1.0, 1.5])
    fr = FitResult(
        model_name="ph-weibull", param_names=["b1", "b2", "lambda", "gamma"],
        theta_hat=theta, loglik=0.0, sigma_hat=np.eye(4), se=None, ci=None,
        converged=True, iterations=0, grad_norm=0.0, n0=100, d_z=2,
    )
    zeta, se, _ = conditional_functional("ph-weibull", fr, np.zeros(2), lambda t: t)
    assert zeta == pytest.approx(math.gamma(5.0 / 3.0), abs=1e-6)
    assert se > 0


class NodeLog(PHWeibull):
    """ph-weibull recording the ``t`` of every ``terms`` and ``log_density`` call."""

    def __init__(self):
        self.terms_t, self.log_density_t = [], []

    def terms(self, theta, t, z, order=0):
        self.terms_t.append(float(t))
        return super().terms(theta, t, z, order)

    def log_density(self, theta, t, z):
        self.log_density_t.append(float(t))
        return super().log_density(theta, t, z)


def test_conditional_functional_evaluates_each_node_once():
    # zeta and the d gradient quadratures read one terms call per node
    fr = FitResult(
        model_name="ph-weibull", param_names=["b1", "b2", "lambda", "gamma"],
        theta_hat=np.array([0.2, -0.4, 1.0, 1.5]), loglik=0.0, sigma_hat=np.eye(4), se=None,
        ci=None, converged=True, iterations=0, grad_norm=0.0, n0=100, d_z=2,
    )
    for g, points in (((lambda t: t), None), ((lambda t: min(t, 2.0)), [2.0])):
        model = NodeLog()
        conditional_functional(model, fr, np.array([0.3, -0.8]), g, points=points)
        assert model.log_density_t == []
        assert len(model.terms_t) == len(set(model.terms_t)) > 0


def _functional_at(name, theta, sigma, z, g, points):
    fr = FitResult(
        model_name=name, param_names=get_model(name).param_names(2), theta_hat=theta,
        loglik=0.0, sigma_hat=sigma, se=None, ci=None, converged=True, iterations=0,
        grad_norm=0.0, n0=100, d_z=2,
    )
    return conditional_functional(name, fr, z, g, points=points)


@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_conditional_functional_every_zoo_model(name):
    # the restricted mean E[min(T, 2) | Z = z]: zeta against a scalar
    # quadrature of the density, gamma against central differences of zeta
    model = get_model(name)
    theta = np.array(GOLDEN_TRUTH[name])
    z = np.array([0.3, -0.8])
    g, points = (lambda t: min(t, 2.0)), [2.0]
    zeta = _functional_at(name, theta, np.eye(theta.size), z, g, points)[0]
    want = sum(integrate.quad(lambda t: g(t) * float(np.exp(model.log_density(theta, t, z))),
                              a, b, limit=200)[0] for a, b in ((0.0, 2.0), (2.0, np.inf)))
    assert zeta == pytest.approx(want, rel=1e-10)

    gamma = np.empty(theta.size)
    for s in range(theta.size):
        h = 1e-4 * max(1.0, abs(theta[s]))
        up, dn = theta.copy(), theta.copy()
        up[s] += h
        dn[s] -= h
        gamma[s] = (_functional_at(name, up, np.eye(theta.size), z, g, points)[0]
                    - _functional_at(name, dn, np.eye(theta.size), z, g, points)[0]) / (2 * h)
        # a one-slot covariance reads |gamma_s| off the SE
        unit = np.zeros((theta.size, theta.size))
        unit[s, s] = 1.0
        se_s = _functional_at(name, theta, unit, z, g, points)[1]
        assert se_s * math.sqrt(100) == pytest.approx(abs(gamma[s]), rel=1e-6, abs=1e-9)
    a = np.random.default_rng(3).normal(size=(theta.size, theta.size))
    sigma = a @ a.T + np.eye(theta.size)
    se = _functional_at(name, theta, sigma, z, g, points)[1]
    assert se == pytest.approx(math.sqrt(gamma @ sigma @ gamma / 100), rel=1e-6)


def test_conditional_functional_quadrature_failure(fitted):
    _, fr = fitted
    with pytest.raises(QuadratureFailure):
        conditional_functional("ph-weibull", fr, np.zeros(2), lambda t: math.exp(t * t))


def test_conditional_functional_checks_gradient_integral_errors(fitted, monkeypatch):
    from scipy import integrate

    _, fr = fitted
    quad = integrate.quad
    calls = []

    def noisy_quad(f, a, b, **kw):
        # call 0 is zeta; inflate the error estimate of one gradient integral
        val, err = quad(f, a, b, **kw)
        calls.append(err)
        return (val, 1.0) if len(calls) == 3 else (val, err)

    monkeypatch.setattr(integrate, "quad", noisy_quad)
    with pytest.raises(QuadratureFailure, match="gradient integral 1"):
        conditional_functional("ph-weibull", fr, np.zeros(2), lambda t: t)
    assert max(calls[:2]) < 1e-6


def test_conditional_functional_requires_covariance_before_quadrature(fitted, monkeypatch):
    from scipy import integrate

    _, fr = fitted
    bare = FitResult.from_json_dict(dict(fr.to_json_dict(), sigma=None, se=None, ci=None))

    def no_quad(*args, **kw):
        raise AssertionError("quadrature ran before the covariance check")

    monkeypatch.setattr(integrate, "quad", no_quad)
    with pytest.raises(ValidationError):
        conditional_functional("ph-weibull", bare, np.zeros(2), lambda t: t)
    # and the covariate point before quadrature: its length and finiteness
    for z in (np.zeros(3), np.array([0.0, np.nan]), np.zeros((1, 2)), 0.0):
        with pytest.raises(ValidationError, match="z must be 2 finite"):
            conditional_functional("ph-weibull", fr, z, lambda t: t)


def test_conditional_functional_rejects_another_models_fit(fitted, monkeypatch):
    # a ph-weibull theta read through another kernel gives a plausible number
    _, fr = fitted

    def no_quad(*args, **kw):
        raise AssertionError("quadrature ran before the model check")

    monkeypatch.setattr(integrate, "quad", no_quad)
    for name in ("aft-lognormal", "ah-weibull"):
        with pytest.raises(ValidationError, match=f"a ph-weibull fit read as {name}"):
            conditional_functional(name, fr, np.zeros(2), lambda t: t)


def test_conditional_functional_checks_theta_and_breakpoints_before_quadrature(monkeypatch):
    def no_quad(*args, **kw):
        raise AssertionError("quadrature ran before the input checks")

    monkeypatch.setattr(integrate, "quad", no_quad)
    with pytest.raises(DomainError, match="positivity"):
        _functional_at("ph-weibull", np.array([1.0, 1.0, -1.0, 1.5]), np.eye(4), np.zeros(2),
                       lambda t: t, None)
    for points in ([-1.0], [math.nan], [math.inf], [0.0], [2.0, -3.0], np.array([2.0, -3.0])):
        with pytest.raises(ValidationError, match="breakpoints must be finite and > 0"):
            _functional_at("ph-weibull", np.array([0.0, 0.0, 1.0, 1.5]), np.eye(4), np.zeros(2),
                           lambda t: t, points)


def _rescaled_back(name, theta, c):
    """A fit on times multiplied by ``c`` mapped back to the original scale."""
    back = theta.copy()
    if name == "ph-weibull":
        back[-2] *= c ** theta[-1]
    elif name == "aft-exponential":
        back[-1] *= c
    else:
        back[-2] -= math.log(c)
    return back


@pytest.mark.parametrize("name,c", [
    ("ph-weibull", 1e-6),
    ("ph-weibull", 1e6),
    ("aft-exponential", 1e-6),
    ("aft-exponential", 1e6),
    ("aft-lognormal", 1e-6),
    ("aft-lognormal", 1e6),
])
def test_fit_is_time_scale_equivariant(name, c):
    # rescaling time leaves beta and the shape fixed, rescales the rate
    # (lambda * c**-gamma, lambda / c) and shifts the log-normal location
    ds = sim_dataset(seed=3, n1=80, n2=80)
    scaled = ls.Dataset(ds.x * c, ds.delta, ds.z_source, ds.z_target)
    opts = FitOptions(skip_variance=True)
    want = fit(name, ds, opts=opts).theta_hat
    got = fit(name, scaled, opts=opts).theta_hat
    np.testing.assert_allclose(_rescaled_back(name, got, c), want, rtol=1e-5, atol=1e-6)


@given(st.integers(0, 2**16), st.floats(-6.0, 6.0))
@settings(max_examples=25, deadline=None)
def test_lognormal_location_shifts_by_log_c_on_drawn_data(seed, log10_c):
    # rescaling time by c shifts the aft-lognormal location by log c and
    # leaves every other slot fixed; a fit that fails must fail the same way
    c = 10.0 ** log10_c
    ds = sim_dataset(seed=seed, n1=80, n2=80)
    scaled = ls.Dataset(ds.x * c, ds.delta, ds.z_source, ds.z_target)
    opts = FitOptions(skip_variance=True)
    outcomes = []
    for data in (ds, scaled):
        try:
            outcomes.append(fit("aft-lognormal", data, opts=opts).theta_hat)
        except LssurvError as exc:
            outcomes.append(type(exc))
    want, got = outcomes
    if isinstance(want, type) or isinstance(got, type):
        assert want is got
    else:
        np.testing.assert_allclose(_rescaled_back("aft-lognormal", got, c), want,
                                   rtol=1e-5, atol=1e-6)


def _numbers(tree):
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, (list, tuple)):
        for item in tree:
            yield from _numbers(item)
    elif isinstance(tree, float):
        yield tree


def edge_dataset(case, seed, d_z=2, n1=40, n2=30):
    """``d_z=0``: no covariates, so the regression block is zero-width;
    ``tied-times``: every source record at one time, events and censorings
    alike (one event time, no censored tail); ``tied-covariates``: every
    record, source and target, at one covariate row."""
    rng = np.random.default_rng(seed)
    t, c = rng.exponential(1.0, n1), rng.exponential(2.5, n1)
    x, delta = np.minimum(t, c), (t <= c).astype(int)
    delta[0] = 1
    zs, zt = rng.normal(0.0, 1.0, (n1, d_z)), rng.normal(0.3, 1.0, (n2, d_z))
    if case == "d_z=0":
        zs, zt = zs[:, :0], zt[:, :0]
    elif case == "tied-times":
        x = np.full(n1, rng.uniform(0.1, 3.0))
    else:
        zs, zt = np.ones_like(zs) * zs[0], np.ones_like(zt) * zs[0]
    return ls.Dataset(x, delta, zs, zt)


@pytest.mark.parametrize("name", REGISTRY_ORDER)
@given(st.integers(0, 2**16), st.sampled_from(["d_z=0", "tied-times", "tied-covariates"]))
@settings(max_examples=12, deadline=None)
def test_degenerate_inputs_fit_or_raise_typed(name, seed, case):
    # a zero-width regression block, one event time or one covariate row:
    # the fit either reports finite numbers throughout or raises a typed error
    try:
        fr = fit(name, edge_dataset(case, seed))
    except LssurvError:
        return
    assert all(math.isfinite(v) for v in _numbers(fr.to_json_dict()))


def test_bic_penalty_arithmetic():
    L, n = -123.456, 400
    # adding an inert slot moves the criterion by exactly the log(n) penalty
    assert bic_criterion(L, n, 5) - bic_criterion(L, n, 4) == pytest.approx(
        math.log(n), abs=1e-12
    )
    assert bic_criterion(L, n, 4) == -2 * L + math.log(n) * 4


def test_bic_select_permutation_invariance():
    ds = sim_dataset(seed=31, n1=240, n2=240)
    names = ["ph-weibull", "aft-lognormal", "aft-exponential"]
    r1 = bic_select(names, ds, split_frac=0.3, seed=9)
    r2 = bic_select(names[::-1], ds, split_frac=0.3, seed=9)
    assert r1.chosen == r2.chosen
    assert r1.criteria == r2.criteria
    assert set(np.concatenate([r1.inference_source_idx, [0]])) <= set(range(ds.n1 + 1))


class _AlwaysFails(FullGradientModel):
    name = "always-fails"

    def d_theta(self, d_z):
        return 1

    def param_names(self, d_z):
        return ["a"]

    def positive_mask(self, d_z):
        return np.array([False])

    def log_density(self, theta, t, z):
        raise DomainError("deliberately broken")

    def log_density_grad(self, theta, t, z):
        raise DomainError("deliberately broken")

    def survival(self, theta, t, z):
        raise DomainError("deliberately broken")

    def default_init(self, x, delta, z):
        return np.array([0.0])


def test_bic_select_excludes_failed_models():
    ds = sim_dataset(seed=31, n1=240, n2=240)
    report = bic_select([get_model("ph-weibull"), _AlwaysFails()], ds, split_frac=0.3, seed=9)
    assert report.criteria["always-fails"] is None
    assert report.chosen == "ph-weibull"
    assert report.warnings


def test_fit_raises_domain_escape_when_nothing_evaluates():
    # every likelihood evaluation fails, the BFGS end point's included
    with pytest.raises(DomainEscape):
        fit(_AlwaysFails(), sim_dataset(seed=31, n1=60, n2=60))


def test_bic_select_split_preconditions():
    ds = sim_dataset(seed=31, n1=240, n2=240)
    with pytest.raises(ValidationError):
        bic_select(["ph-weibull"], ds)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    tiny = ls.Dataset(x, np.array([1, 1, 0, 0]), np.zeros((4, 1)), np.zeros((4, 1)))
    with pytest.raises(ValidationError):
        bic_select(["ph-weibull", "aft-exponential"], tiny, split_frac=0.25, seed=0)


def test_bic_select_needs_a_selection_part_it_can_fit(monkeypatch):
    # 300 records at split 0.001 select on none; at 0.01, on 3 source
    # records, no more events than the 4 parameters of ph-weibull
    import lssurv.estimator as est

    def no_fit(*args, **kw):
        raise AssertionError("a candidate was fit before the split checks")

    monkeypatch.setattr(est, "fit", no_fit)
    ds = sim_dataset(seed=31, n1=300, n2=300)
    for split in (0.001, 0.01):
        with pytest.raises(ValidationError, match=f"split {split} selects on"):
            bic_select(["ph-weibull", "ah-weibull"], ds, split_frac=split, seed=0)


def test_fit_result_json_roundtrip(fitted):
    _, fr = fitted
    doc = fr.to_json_dict()
    back = FitResult.from_json_dict(doc)
    np.testing.assert_array_equal(back.theta_hat, fr.theta_hat)
    np.testing.assert_array_equal(back.sigma_hat, fr.sigma_hat)
    assert back.model_name == fr.model_name and back.n0 == fr.n0


def test_malformed_fit_document_names_its_fault(fitted):
    _, fr = fitted
    doc = fr.to_json_dict()
    conv = {k: v for k, v in doc["convergence"].items() if k != "grad_norm"}
    nan = float("nan")
    # each array holds d_theta entries (rows for ci, d_theta^2 for sigma), all finite
    for bad, message in (({k: v for k, v in doc.items() if k != "convergence"}, "lacks convergence"),
                         ({k: v for k, v in doc.items() if k not in ("theta", "se")}, "lacks theta, se"),
                         (dict(doc, convergence=conv), "lacks convergence.grad_norm"),
                         (dict(doc, sigma=doc["sigma"][:-1]), "sigma holds 15 entries, not 4 x 4"),
                         (dict(doc, theta=doc["theta"][:3]), "theta holds 3 entries, not 4"),
                         (dict(doc, theta=None), "theta holds 1 entries, not 4"),
                         (dict(doc, theta=["a"] + doc["theta"][1:]),
                          "theta is not an array of numbers"),
                         (dict(doc, ci=[[0.0, 1.0]] * 3 + [[0.0]]), "ci is not an array of numbers"),
                         (dict(doc, params=doc["params"][:3]), "params holds 3 entries, not 4"),
                         (dict(doc, d_theta=4.0), "d_theta is 4.0, not a positive integer"),
                         (dict(doc, d_z=-1), "d_z is -1, not a non-negative integer"),
                         (dict(doc, se=doc["se"] + [0.1]), "se holds 5 entries, not 4"),
                         (dict(doc, ci=doc["ci"][:3]), "ci holds 3 x 2 entries, not 4 x 2"),
                         (dict(doc, ci=[row + [0.0] for row in doc["ci"]]),
                          "ci holds 4 x 3 entries, not 4 x 2"),
                         (dict(doc, sigma=[nan] * 16), "sigma holds a non-finite number"),
                         (dict(doc, theta=doc["theta"][:3] + [float("inf")]),
                          "theta holds a non-finite number"),
                         (dict(doc, se=[nan] + doc["se"][1:]), "se holds a non-finite number"),
                         (dict(doc, ci=[[nan, nan]] + doc["ci"][1:]),
                          "ci holds a non-finite number")):
        with pytest.raises(SchemaError, match=message):
            FitResult.from_json_dict(bad)


def test_domain_escape_transform_guard():
    from lssurv.estimator import _transforms

    _, to_theta, _ = _transforms(get_model("ph-weibull"), 2)
    with pytest.raises(DomainEscape):
        to_theta(np.array([0.0, 0.0, 800.0, 0.0]))


def test_psi_qz_rows_match_per_record_reconstruction():
    # independent route: assemble the target influence rows record by record
    # from the eta integrals instead of the pooled einsum path
    ds = sim_dataset(seed=51, n1=40, n2=25)
    model = get_model("ph-weibull")
    theta = np.array([0.9, 1.1, 1.0, 1.4])
    ctx = LikelihoodContext(model, ds)
    _, parts = asymptotic_variance(ctx, theta)
    fast = parts.psi_qZ_per_target

    env = ctx._evaluate(theta, need_score=True)
    rho_tgt = target_weights(ctx, env) * ds.n2
    qstar_ratio = env["qstar_ratio"]
    Gtgt = model.log_density_grad(theta, ctx.tk[:, None], ds.z_target)
    slow = np.zeros_like(fast)
    # uncensored part: the density-gradient mismatch term
    for m in ctx.unc_idx:
        k = int(np.searchsorted(ctx.tk, ds.x[m]))
        rho = rho_tgt[k]
        slow -= (rho[:, None] * Gtgt[k] - rho[:, None] * qstar_ratio[k]) / ds.n1
    # censored part: the three tail-integral corrections
    for m in ctx.cens_idx:
        eta0, eta1, eta2 = eta_q_hat(ctx, theta, ds.x[m], ds.z_source[m])
        sf = s_functionals(ctx, theta, ds.x[m], ds.z_source[m])
        c_m = (sf.s1 - sf.s2) / sf.s0**2
        slow += ((eta1 - eta2) / sf.s0 - np.outer(eta0, c_m)) / ds.n1
    np.testing.assert_allclose(fast, slow, atol=1e-11)


GOLDEN_TRUTH = {
    "ph-weibull": (0.5, -0.3, 1.2, 0.8),
    "po-loglogistic": (0.4, -0.6, -0.5, 0.7),
    "aft-lognormal": (0.7, -0.2, 0.3, 0.9),
    "aft-exponential": (0.5, -0.5, 1.4),
    "ah-weibull": (0.4, -0.3, 1.1, 1.8),
}


def _source_nll(model, dataset):
    """The censored source-only negative log-likelihood in log coordinates,
    with the simplex search's finite penalty where it cannot be evaluated."""
    from lssurv.estimator import _transforms

    x, delta, z = dataset.x, dataset.delta, dataset.z_source
    to_eta, to_theta, _ = _transforms(model, dataset.d_z)
    unc = delta == 1

    def nll(eta):
        try:
            theta = to_theta(eta)
            model.check_theta(theta, dataset.d_z)
            ll = float(np.sum(model.log_density(theta, x[unc], z[unc])))
            s = model.survival(theta, x[~unc], z[~unc])
            if np.any(s <= 0):
                return 1e18
            ll += float(np.sum(np.log(s)))
        except (DomainError, DomainEscape, FloatingPointError):
            return 1e18
        return -ll if np.isfinite(ll) else 1e18

    return nll, to_eta, to_theta


def _simplex_start(model, dataset):
    """Reference source-only start: a Nelder-Mead search of the same
    objective from the model's crude initializer."""
    from scipy import optimize

    nll, to_eta, to_theta = _source_nll(model, dataset)
    theta0 = model.default_init(dataset.x, dataset.delta, dataset.z_source)
    res = optimize.minimize(nll, to_eta(theta0), method="Nelder-Mead",
                            options={"maxiter": 2000, "xatol": 1e-6, "fatol": 1e-8})
    return to_theta(res.x)


@pytest.mark.parametrize("name", list(GOLDEN_TRUTH))
def test_source_only_start_matches_simplex_search(name):
    # the golden fixtures' data: n1 = n2 = 120 drawn from each model itself
    cfg = ls.SimConfig(model=name, theta_true=GOLDEN_TRUTH[name], n1=120, n2=120)
    ds = ls.generate_dataset(cfg, np.random.default_rng(20250627))
    model = get_model(name)
    got = source_only_mle(model, ds)
    want = _simplex_start(model, ds)
    np.testing.assert_allclose(got, want, rtol=1e-5)
    nll, to_eta, _ = _source_nll(model, ds)
    assert nll(to_eta(got)) <= nll(to_eta(want)) + 1e-10


@pytest.mark.parametrize("name", list(GOLDEN_TRUTH))
def test_source_start_gradient_matches_central_differences(name):
    from lssurv.estimator import _source_objective

    cfg = ls.SimConfig(model=name, theta_true=GOLDEN_TRUTH[name], n1=120, n2=120)
    ds = ls.generate_dataset(cfg, np.random.default_rng(20250627))
    model = get_model(name)
    objective = _source_objective(model, ds)
    oracle, to_eta, _ = _source_nll(model, ds)
    rng = np.random.default_rng(7)
    for shift in (0.0, 0.15, -0.3):
        eta = to_eta(GOLDEN_TRUTH[name]) + shift * rng.uniform(0.5, 1.0, len(GOLDEN_TRUTH[name]))
        value, grad = objective(eta)
        assert value == pytest.approx(oracle(eta), rel=1e-12)
        fd = np.empty_like(eta)
        for j in range(eta.size):
            step = np.zeros_like(eta)
            step[j] = 1e-6
            fd[j] = (objective(eta + step)[0] - objective(eta - step)[0]) / 2e-6
        # the differences' rounding is about eps * value / step = 2e-8
        np.testing.assert_allclose(grad, fd, rtol=1e-7, atol=1e-6)


def test_source_start_is_inf_where_nothing_evaluates():
    from lssurv.estimator import _source_objective

    objective = _source_objective(_AlwaysFails(), sim_dataset(seed=31, n1=60, n2=60))
    value, grad = objective(np.array([0.3]))
    assert value == np.inf
    np.testing.assert_array_equal(grad, [0.0])
