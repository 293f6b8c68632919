"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (visible with ``pytest -s``; the per-test verdicts
from ``pytest -v`` carry the same information).
"""

import json
import math
import os

import numpy as np
import pytest
from scipy import integrate

import lssurv as ls
from lssurv.cli import run_cli
from lssurv.estimator import FitOptions, bic_criterion, bic_select, conditional_functional, fit
from lssurv.likelihood import LikelihoodContext, approx_loglik, score
from lssurv.models import get_model, ratio_depends_on_z
from lssurv.nonparam import influence_context, influence_evaluator, kaplan_meier
from lssurv.simulation import SimConfig, generate_dataset, run_mc_study
from lssurv.shift_test import label_shift_test
from lssurv.variance import eta_q_hat

from conftest import gen_censored_population
from fixture_models import TwoPointLogNormal

JOBS = min(os.cpu_count() or 1, 4)
TRUTH = (1.0, 1.0, 1.0, 1.5)
PAPER_SE_500 = np.array([0.0689, 0.0740, 0.0918, 0.1027])


def _report(criterion, text):
    print(f"[criterion {criterion}] PASS: {text}")


def test_c1_simulation_table_reproduction():
    cfg = SimConfig(model="ph-weibull", theta_true=TRUTH, n1=500, n2=500,
                    n_reps=200, seed=20240809)
    rep = run_mc_study(cfg, n_jobs=JOBS)
    assert rep.n_failed <= 0.10 * cfg.n_reps
    assert np.all(np.abs(rep.bias) <= 0.03), rep.bias
    se_ratio = rep.se / PAPER_SE_500
    assert np.all((se_ratio >= 0.75) & (se_ratio <= 1.25)), se_ratio
    sehat_ratio = rep.se_hat_mean / rep.se
    assert np.all((sehat_ratio >= 0.85) & (sehat_ratio <= 1.15)), sehat_ratio
    assert np.all((rep.cp >= 0.91) & (rep.cp <= 0.98)), rep.cp
    # tighter reference bands for the first regression slot
    assert abs(rep.bias[0]) <= 0.02
    assert 0.055 <= rep.se[0] <= 0.085
    _report(1, f"bias={np.round(rep.bias, 4).tolist()} "
               f"se_ratio={np.round(se_ratio, 3).tolist()} "
               f"sehat/se={np.round(sehat_ratio, 3).tolist()} "
               f"cp={np.round(rep.cp, 3).tolist()}")


def test_c2_plugin_se_vs_bootstrap():
    cfg = SimConfig(model="ph-weibull", theta_true=TRUTH, n1=500, n2=500, seed=11)
    ds = generate_dataset(cfg, np.random.default_rng(11))
    fr = fit("ph-weibull", ds)
    # single-fit sanity at the reference scale: within 3 reference SEs
    assert abs(fr.theta_hat[0] - 1.0) <= 3 * 0.0689
    rng = np.random.default_rng(99)
    boots = []
    while len(boots) < 200:
        i1 = rng.integers(0, ds.n1, ds.n1)
        i2 = rng.integers(0, ds.n2, ds.n2)
        if ds.delta[i1].sum() < 2:
            continue
        dsb = ls.Dataset(ds.x[i1], ds.delta[i1], ds.z_source[i1], ds.z_target[i2])
        try:
            boots.append(
                fit("ph-weibull", dsb, init=fr.theta_hat,
                    opts=FitOptions(skip_variance=True)).theta_hat
            )
        except ls.LssurvError:
            continue
    boot_se = np.std(np.array(boots), axis=0, ddof=1)
    ratio = fr.se / boot_se
    assert np.all(np.abs(ratio - 1.0) < 0.20), ratio
    _report(2, f"plug-in/bootstrap SE ratios {np.round(ratio, 3).tolist()}")


SPOTS = {
    "ph-weibull": ([0.5, -0.3], [1.2, 0.8]),
    "po-loglogistic": ([0.4, -0.6], [-0.5, 0.7]),
    "aft-lognormal": ([0.7, -0.2], [0.3, 0.9]),
    "aft-exponential": ([0.5, -0.5], [1.4]),
    "ah-weibull": ([0.4, -0.3], [1.1, 1.8]),
}


def test_c3_gradient_identity_over_models():
    worst = 0.0
    draws = 0
    for name, (beta, extra) in SPOTS.items():
        model = get_model(name)
        rng = np.random.default_rng(abs(hash(name)) % 2**32)
        for _ in range(10):
            n1 = int(rng.integers(10, 51))
            n2 = int(rng.integers(5, 51))
            t = rng.exponential(1.0, n1)
            c = rng.exponential(2.0, n1)
            x = np.minimum(t, c)
            delta = (t <= c).astype(int)
            delta[int(np.argmax(x))] = 1
            ds = ls.Dataset(x, delta, rng.normal(0, 0.7, (n1, 2)),
                            rng.normal(0.2, 0.7, (n2, 2)))
            theta = np.array(beta + extra, dtype=float)
            theta += rng.uniform(-0.15, 0.15, theta.size)
            mask = model.positive_mask(2)
            theta[mask] = np.abs(theta[mask]) + 0.3
            if name == "ah-weibull" and abs(theta[-1] - 1.0) < 0.1:
                theta[-1] = 1.5
            ctx = LikelihoodContext(model, ds)
            sc = score(ctx, theta)
            fd = np.empty_like(theta)
            for j in range(theta.size):
                h = 1e-5 * max(1.0, abs(theta[j]))
                up, dn = theta.copy(), theta.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = (approx_loglik(ctx, up) - approx_loglik(ctx, dn)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(sc - fd))))
            draws += 1
    assert draws >= 50
    assert worst < 1e-5, worst
    _report(3, f"{draws} draws across 5 models, worst |score - fd| = {worst:.2e}")


def test_c4_exact_influence_invariants():
    cfg = SimConfig(model="ph-weibull", theta_true=TRUTH, n1=300, n2=250, seed=17)
    ds = generate_dataset(cfg, np.random.default_rng(17))
    theta = np.asarray(TRUTH)
    i = int(np.flatnonzero(ds.delta == 0)[2])
    ctx = LikelihoodContext(get_model("ph-weibull"), ds)
    eta0, eta1, eta2 = eta_q_hat(ctx, theta, ds.x[i], ds.z_source[i])
    tol = 1e-9 * ds.n2
    sums = [abs(eta0.sum()), float(np.max(np.abs(eta1.sum(axis=0)))),
            float(np.max(np.abs(eta2.sum(axis=0))))]
    assert all(s < tol for s in sums), sums

    rng = np.random.default_rng(23)
    x = rng.exponential(1.0, 120)
    delta = np.ones(120, dtype=int)
    km = kaplan_meier(x, delta)
    ctx = influence_context(km)
    g0 = ls.gamma0_hat(km)
    assert all(g0(v) == 1.0 for v in np.linspace(0.01, x.max() + 1, 50))
    phi = lambda w: np.cos(w) + 2.0
    ev = influence_evaluator(ctx, phi)
    np.testing.assert_array_equal(ev(x, delta), phi(x))
    order = np.argsort(x)
    np.testing.assert_allclose(km.cdf(np.sort(x)), (np.arange(120) + 1) / 120, atol=1e-12)
    _report(4, f"eta_q sums {['%.2e' % s for s in sums]}; no-censoring reductions exact")


def test_c5_constant_in_z_collapse():
    rng = np.random.default_rng(29)
    n1 = 60
    t = rng.exponential(1.0, n1)
    c = rng.exponential(2.5, n1)
    x = np.minimum(t, c)
    delta = (t <= c).astype(int)
    delta[int(np.argmax(x))] = 1
    ds = ls.Dataset(x, delta, np.empty((n1, 0)), np.empty((30, 0)))
    model = get_model("ph-weibull")
    theta = np.array([1.2, 1.6])
    ctx = LikelihoodContext(model, ds)
    km = kaplan_meier(x, delta)
    tmax = km.event_times[-1]
    oracle = np.mean([
        math.log(km.cdf(tmax) - km.cdf(x[i])) if delta[i] == 0 else 0.0
        for i in range(n1)
    ])
    ll_err = abs(approx_loglik(ctx, theta) - oracle)
    sc_err = float(np.max(np.abs(score(ctx, theta))))
    assert ll_err < 1e-10 and sc_err < 1e-10
    _report(5, f"loglik error {ll_err:.2e}, score sup-norm {sc_err:.2e}")


def test_c6_identifiability_fixtures():
    fx = TwoPointLogNormal()
    beta0, mu0, sigma0 = 0.75, 0.8, 0.6
    theta_a = np.array([beta0, mu0, sigma0])
    theta_b = np.array([beta0, -mu0, sigma0])
    t_grid = np.linspace(0.2, 4.0, 25)
    assert ratio_depends_on_z(fx, theta_a, theta_b, t_grid, np.array([[1.0], [2.0]])) is False
    ph = get_model("ph-weibull")
    z_grid = np.random.default_rng(0).normal(0, 1, (8, 2))
    assert ratio_depends_on_z(
        ph, np.array([1, 1, 1, 1.5]), np.array([1, 1, 2, 1.5]), t_grid, z_grid
    ) is True

    rng = np.random.default_rng(42)
    n = 200
    zsrc = rng.integers(1, 3, n).astype(float)
    T = np.exp(rng.normal(0, beta0 * zsrc))
    C = np.exp(rng.normal(0.8, 1.0, n))
    x = np.minimum(T, C)
    delta = (T <= C).astype(int)
    pz1 = math.exp(fx._log_qz(theta_a, 1.0))
    ztgt = np.where(rng.uniform(size=n) < pz1, 1.0, 2.0)
    ds = ls.Dataset(x, delta, zsrc[:, None], ztgt[:, None])
    fra = fit(fx, ds, init=np.array([0.7, 0.7, 0.65]), opts=FitOptions(skip_variance=True))
    frb = fit(fx, ds, init=np.array([0.7, -0.7, 0.65]), opts=FitOptions(skip_variance=True))
    gap = abs(fra.loglik - frb.loglik)
    sep = abs(fra.theta_hat[1] - frb.theta_hat[1])
    assert sep > 0.5, "the two starts collapsed to one optimum"
    assert gap < 1e-6, gap
    _report(6, f"two optima mu = {fra.theta_hat[1]:+.4f} / {frb.theta_hat[1]:+.4f}, "
               f"|delta loglik| = {gap:.2e}")


def test_c7_shift_test_level_power_and_pipeline(tmp_path):
    n, K, nsim = 500, 200, 100
    rej_h0 = rej_h1 = 0
    for s in range(nsim):
        rng = np.random.default_rng(31_000 + s)
        pp = gen_censored_population(rng, n, t_rate=1.0)
        pq0 = gen_censored_population(rng, n, t_rate=0.7)
        rej_h0 += label_shift_test(pp, pq0, K=K, alpha=0.05, seed=s).reject
        pq1 = gen_censored_population(rng, n, t_rate=0.7, z_shift=1.0)
        rej_h1 += label_shift_test(pp, pq1, K=K, alpha=0.05, seed=s).reject
    level = rej_h0 / nsim
    power = rej_h1 / nsim
    assert 0.01 <= level <= 0.12, level
    assert power > 0.5, power

    # the applied pipeline on simulated stand-in data: select -> fit -> CI report
    prefix = str(tmp_path / "standin")
    assert run_cli(["simulate", "--model", "ph-weibull", "--theta", "1,1,1,1.5",
                    "--n1", "400", "--n2", "400", "--seed", "77",
                    "--out-prefix", prefix]) == 0
    src, tgt = f"{prefix}_source.csv", f"{prefix}_target.csv"
    sel_path = str(tmp_path / "sel.json")
    assert run_cli(["select", "--source", src, "--target", tgt, "--split", "0.3",
                    "--seed", "5", "--json", "--out", sel_path]) == 0
    chosen = json.load(open(sel_path))["chosen"]
    fit_path = str(tmp_path / "fit.json")
    assert run_cli(["fit", "--model", chosen, "--source", src, "--target", tgt,
                    "--json", "--out", fit_path]) == 0
    doc = json.load(open(fit_path))
    assert doc["ci"] is not None and len(doc["ci"]) == doc["d_theta"]
    _report(7, f"level {level:.3f} in [0.01, 0.12], power {power:.2f} > 0.5; "
               f"pipeline selected {chosen} and reported CIs")


def test_c8_bic_recovery_and_penalty():
    assert bic_criterion(-10.0, 150, 5) - bic_criterion(-10.0, 150, 4) == pytest.approx(
        math.log(150), abs=1e-12
    )
    # ah-weibull spans the same family as ph-weibull (reparameterized), so
    # recovery is posed over the four genuinely distinct families
    cands = ["ph-weibull", "po-loglogistic", "aft-lognormal", "aft-exponential"]
    hits = 0
    nrep = 100
    for r in range(nrep):
        cfg = SimConfig(model="ph-weibull", theta_true=TRUTH, n1=1000, n2=1000, seed=777)
        ds = generate_dataset(cfg, np.random.default_rng(np.random.SeedSequence((777, r))))
        rep = bic_select(cands, ds, split_frac=0.2, seed=r)
        hits += rep.chosen == "ph-weibull"
    assert hits >= 80, hits
    _report(8, f"true family recovered {hits}/{nrep}; penalty arithmetic exact")


def test_c9_conditional_functional_and_its_se():
    theta0 = np.array([0.0, 0.0, 1.0, 1.5])
    base = ls.estimator.FitResult(
        model_name="ph-weibull", param_names=["b1", "b2", "lambda", "gamma"],
        theta_hat=theta0, loglik=0.0, sigma_hat=np.eye(4), se=None, ci=None,
        converged=True, iterations=0, grad_norm=0.0, n0=400, d_z=2,
    )
    zeta, _, _ = conditional_functional("ph-weibull", base, np.zeros(2), lambda t: t)
    err = abs(zeta - math.gamma(5.0 / 3.0))
    assert err < 1e-6, err

    cfg = SimConfig(model="ph-weibull", theta_true=TRUTH, n1=300, n2=300, seed=37)
    ds = generate_dataset(cfg, np.random.default_rng(37))
    fr = fit("ph-weibull", ds)
    z0 = np.zeros(2)
    zeta_hat, se_delta, _ = conditional_functional("ph-weibull", fr, z0, lambda t: t)
    model = get_model("ph-weibull")
    rng = np.random.default_rng(404)
    boot = []
    while len(boot) < 100:
        i1 = rng.integers(0, ds.n1, ds.n1)
        i2 = rng.integers(0, ds.n2, ds.n2)
        if ds.delta[i1].sum() < 2:
            continue
        dsb = ls.Dataset(ds.x[i1], ds.delta[i1], ds.z_source[i1], ds.z_target[i2])
        try:
            th = fit("ph-weibull", dsb, init=fr.theta_hat,
                     opts=FitOptions(skip_variance=True)).theta_hat
        except ls.LssurvError:
            continue
        val, _ = integrate.quad(
            lambda t: t * float(np.exp(model.log_density(th, t, z0))), 0, np.inf, limit=200
        )
        boot.append(val)
    boot_se = float(np.std(boot, ddof=1))
    ratio = se_delta / boot_se
    assert abs(ratio - 1.0) < 0.25, ratio
    _report(9, f"mean-time value error {err:.1e}; SE ratio delta/bootstrap {ratio:.3f}")
