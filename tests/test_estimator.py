import math

import numpy as np
import pytest

import lssurv as ls
from lssurv.errors import (
    DomainError,
    NonConvergence,
    QuadratureFailure,
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
)
from lssurv.likelihood import LikelihoodContext, approx_loglik, s_functionals, score
from lssurv.models import PHWeibull, SurvivalModel, get_model
from lssurv.variance import a_matrix_fd, asymptotic_variance, eta_q_hat



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


class _OneSlot(SurvivalModel):
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

    def survival(self, theta, t, z):
        return self.inner.survival(self._full(theta), t, z)

    def default_init(self, x, delta, z):
        return np.array([1.0])


def test_one_dimensional_fit_matches_grid_search():
    ds = sim_dataset(seed=5, n1=80, n2=60)
    model = _OneSlot([1.0, 1.0, 1.0, 1.5])
    fr = fit(model, ds, init=np.array([0.8]), opts=FitOptions(skip_variance=True))
    ctx = LikelihoodContext(model, ds)
    grid = np.linspace(0.2, 3.0, 10_000)
    vals = np.array([approx_loglik(ctx, np.array([g])) for g in grid])
    best = grid[np.argmax(vals)]
    assert abs(fr.theta_hat[0] - best) <= (grid[1] - grid[0])


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
    A = a_matrix_fd(ctx, fr.theta_hat)
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


def test_psi_pt_vanishes_without_censoring():
    ds0 = sim_dataset(seed=21, n1=100, n2=80)
    ds = ls.Dataset(ds0.x, np.ones_like(ds0.delta), ds0.z_source, ds0.z_target)
    fr = fit("ph-weibull", ds)
    _, parts = asymptotic_variance(LikelihoodContext(get_model("ph-weibull"), ds), fr.theta_hat)
    np.testing.assert_array_equal(parts.psi_pT_per_source, 0.0)


def test_psi_pt_column_against_reference_influence(fitted):
    # the vectorized event-CDF rows agree with the reference one-integrand
    # path, assembled column by column over the kept censored records
    ds, fr = fitted
    model = get_model("ph-weibull")
    theta = fr.theta_hat
    ctx = LikelihoodContext(model, ds)
    _, parts = asymptotic_variance(ctx, theta)
    lqhat = ctx._evaluate(theta, need_score=True)["lqhat"]
    infl = ls.influence_context(ctx.km)

    got = np.zeros_like(parts.psi_pT_per_source)
    for m in ctx.cens_idx:
        x_m, z_m = ds.x[m], ds.z_source[m]

        def phi(w):
            w = np.asarray(w, dtype=float)
            lq = model.log_density(theta, w, z_m)
            lqh = np.interp(w, ctx.tk, lqhat)
            return np.where(w > x_m, np.exp(lq - lqh), 0.0)

        sf = s_functionals(ctx, theta, x_m, z_m)
        c_m = (sf.s1 - sf.s2) / sf.s0**2
        got -= np.outer(ls.influence_evaluator(infl, phi)(ds.x, ds.delta), c_m) / ds.n1
    expect = parts.psi_pT_per_source
    np.testing.assert_allclose(got, expect, atol=1e-12)


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


class _AlwaysFails(SurvivalModel):
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


def test_bic_select_split_preconditions():
    ds = sim_dataset(seed=31, n1=240, n2=240)
    with pytest.raises(ValidationError):
        bic_select(["ph-weibull"], ds)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    tiny = ls.Dataset(x, np.array([1, 1, 0, 0]), np.zeros((4, 1)), np.zeros((4, 1)))
    with pytest.raises(ValidationError):
        bic_select(["ph-weibull", "aft-exponential"], tiny, split_frac=0.25, seed=0)


def test_fit_result_json_roundtrip(fitted):
    _, fr = fitted
    doc = fr.to_json_dict()
    back = FitResult.from_json_dict(doc)
    np.testing.assert_array_equal(back.theta_hat, fr.theta_hat)
    np.testing.assert_array_equal(back.sigma_hat, fr.sigma_hat)
    assert back.model_name == fr.model_name and back.n0 == fr.n0


def test_domain_escape_transform_guard():
    from lssurv.estimator import _transforms
    from lssurv.errors import DomainEscape

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
    rho_tgt = env["Wt"] * ds.n2
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
