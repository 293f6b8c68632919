import math

import numpy as np
import pytest
from scipy import integrate, stats

import lssurv as ls
from lssurv.errors import DomainError
from lssurv.models import (
    REGISTRY,
    REGISTRY_ORDER,
    density,
    get_model,
    ratio_depends_on_z,
    survival,
)

from conftest import SPOTS
from fixture_models import TwoPointLogNormal
from oracles import kernel_partials, theta_partials


def theta_for(name, rng=None, d_z=2):
    beta, extra = SPOTS[name]
    theta = np.array(beta[:d_z] + extra, dtype=float)
    if rng is not None:
        theta = theta + rng.uniform(-0.2, 0.2, theta.size)
        m = get_model(name).positive_mask(d_z)
        theta[m] = np.abs(theta[m]) + 0.2
        if name == "ah-weibull" and abs(theta[-1] - 1.0) < 0.05:
            theta[-1] = 1.4
    return theta


def test_registry_names_exact():
    assert REGISTRY_ORDER == [
        "ph-weibull",
        "po-loglogistic",
        "aft-lognormal",
        "aft-exponential",
        "ah-weibull",
    ]
    with pytest.raises(ValueError):
        get_model("weibull")


def test_ph_weibull_reduces_to_unit_exponential():
    m = get_model("ph-weibull")
    theta = np.array([0.0, 0.0, 1.0, 1.0])
    for t in (0.1, 1.0, 2.7):
        assert density(m, theta, t, np.zeros(2)) == pytest.approx(math.exp(-t), rel=1e-12)


def test_ph_weibull_table_truth_value():
    m = get_model("ph-weibull")
    theta = np.array([1.0, 1.0, 1.0, 1.5])
    val = density(m, theta, 1.0, np.zeros(2))
    assert val == pytest.approx(1.5 * math.exp(-1.0), rel=1e-12)


def test_aft_lognormal_standard_at_one():
    m = get_model("aft-lognormal")
    theta = np.array([0.0, 0.0, 0.0, 1.0])
    assert density(m, theta, 1.0, np.zeros(2)) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)


def test_domain_errors():
    m = get_model("ph-weibull")
    with pytest.raises(DomainError):
        density(m, np.array([0.0, 0.0, -1.0, 1.0]), 1.0, np.zeros(2))
    with pytest.raises(DomainError):
        density(m, np.array([0.0, 0.0, 1.0, 1.0]), -0.5, np.zeros(2))
    with pytest.raises(DomainError):
        density(m, np.array([0.0, 1.0, 1.0]), 1.0, np.zeros(2))
    ah = get_model("ah-weibull")
    with pytest.raises(DomainError):
        ah.check_theta(np.array([0.0, 0.0, 1.0, 1.0]), 2)
    with pytest.raises(DomainError):
        ah.check_theta(np.array([0.0, 0.0, 1.0, 1.0 + 5e-7]), 2)
    ah.check_theta(np.array([0.0, 0.0, 1.0, 1.01]), 2)


@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_gradient_matches_finite_differences(name):
    # the gradient of log_density_grad and the one rebuilt, monomial by
    # monomial, from the kernel's feature tables
    m = get_model(name)
    rng = np.random.default_rng(hash(name) % 2**32)
    for trial in range(25):
        theta = theta_for(name, rng)
        t = rng.uniform(0.05, 4.0)
        z = rng.normal(0, 1, 2)
        g = m.log_density_grad(theta, t, z)
        beta, base = m.split(theta)
        rebuilt = theta_partials(*kernel_partials(m.u_terms, t, z @ beta, base)[1:], z)[0]
        fd = np.empty_like(theta)
        for j in range(theta.size):
            h = 1e-6 * max(1.0, abs(theta[j]))
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (m.log_density(up, t, z) - m.log_density(dn, t, z)) / (2 * h)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(rebuilt, fd, rtol=1e-5, atol=1e-7)


def test_ph_beta_gradient_zero_at_origin():
    m = get_model("ph-weibull")
    g = m.log_density_grad(np.array([1.0, 1.0, 1.0, 1.5]), 0.7, np.zeros(2))
    np.testing.assert_allclose(g[:2], 0.0, atol=1e-15)


def test_aft_lognormal_mu_gradient_zero_at_mode():
    m = get_model("aft-lognormal")
    theta = np.array([0.5, -0.5, 0.4, 0.8])
    z = np.array([1.0, 2.0])
    t = math.exp(theta[2] + z @ theta[:2])
    g = m.log_density_grad(theta, t, z)
    assert abs(g[2]) < 1e-12


@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_survival_limits_and_quadrature(name):
    m = get_model(name)
    theta = theta_for(name)
    z = np.array([0.3, -0.2])
    assert survival(m, theta, 1e-12, z) == pytest.approx(1.0, abs=1e-9)
    for t0 in (0.4, 1.3):
        s = float(survival(m, theta, t0, z))
        quad, err = integrate.quad(
            lambda t: float(np.exp(m.log_density(theta, t, z))), t0, np.inf, limit=200
        )
        assert s == pytest.approx(quad, abs=max(1e-8, 2 * err))


def test_ph_exponential_median():
    m = get_model("ph-weibull")
    theta = np.array([0.0, 0.0, 1.0, 1.0])
    assert survival(m, theta, math.log(2.0), np.zeros(2)) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_density_integrates_to_one(name):
    m = get_model(name)
    rng = np.random.default_rng(11)
    for _ in range(3):
        theta = theta_for(name, rng)
        z = rng.normal(0, 1, 2)
        val, _ = integrate.quad(
            lambda t: float(np.exp(m.log_density(theta, t, z))), 0, np.inf, limit=300
        )
        assert val == pytest.approx(1.0, abs=1e-6)


def test_hazard_integral_identity_ph_ah():
    # survival equals exp(-integrated hazard) for the hazard-based families
    for name in ("ph-weibull", "ah-weibull"):
        m = get_model(name)
        theta = theta_for(name)
        z = np.array([0.5, 0.2])
        for t0 in (0.5, 1.7):
            dens = lambda t: float(np.exp(m.log_density(theta, t, z)))
            surv = lambda t: float(m.survival(theta, t, z))
            hazard = lambda t: dens(t) / surv(t)
            H, _ = integrate.quad(hazard, 0, t0, limit=200)
            assert surv(t0) == pytest.approx(math.exp(-H), abs=1e-8)


def test_aft_exponential_collapses_to_exponential():
    m = get_model("aft-exponential")
    lam = 1.7
    theta = np.array([0.0, 0.0, lam])
    t = np.linspace(0.05, 6.0, 40)
    # at beta = 0 the log-density is literally log(lam) - lam * t
    np.testing.assert_array_equal(
        m.log_density(theta, t, np.zeros(2)), math.log(lam) - lam * t
    )
    np.testing.assert_allclose(
        np.exp(m.log_density(theta, t, np.zeros(2))), lam * np.exp(-lam * t), rtol=1e-14
    )


def test_survival_ph_beta0_is_weibull():
    # at beta = 0 the conditional law is the Weibull baseline itself
    t = np.linspace(0.01, 4.0, 60)
    got = survival(get_model("ph-weibull"), np.array([0.0, 0.0, 1.0, 1.5]), t, np.zeros(2))
    np.testing.assert_allclose(got, stats.weibull_min(c=1.5, scale=1.0).sf(t), rtol=1e-12)


def test_ratio_diagnostic_ph_identifiable():
    m = get_model("ph-weibull")
    theta = np.array([1.0, 1.0, 1.0, 1.5])
    theta_tilde = np.array([1.0, 1.0, 2.0, 1.5])
    t_grid = np.linspace(0.1, 5.0, 30)
    z_grid = np.random.default_rng(0).normal(0, 1, (8, 2))
    assert ratio_depends_on_z(m, theta, theta_tilde, t_grid, z_grid) is True


def test_ratio_diagnostic_mirrored_family_not_identifiable():
    fx = TwoPointLogNormal()
    theta = np.array([0.75, 0.8, 0.6])
    theta_tilde = np.array([0.75, -0.8, 0.6])
    t_grid = np.linspace(0.2, 4.0, 25)
    z_grid = np.array([[1.0], [2.0]])
    assert ratio_depends_on_z(fx, theta, theta_tilde, t_grid, z_grid) is False


def test_ratio_diagnostic_rejects_equal_parameters():
    m = get_model("ph-weibull")
    theta = np.array([1.0, 1.0, 1.0, 1.5])
    with pytest.raises(DomainError):
        ratio_depends_on_z(m, theta, theta.copy(), np.linspace(0.1, 2, 5), np.zeros((2, 2)))


def test_fixture_density_normalizes():
    fx = TwoPointLogNormal()
    theta = np.array([0.75, 0.8, 0.6])
    for zv in (1.0, 2.0):
        val, _ = integrate.quad(
            lambda t: float(np.exp(fx.log_density(theta, t, np.array([zv])))), 0, np.inf,
            limit=300,
        )
        assert val == pytest.approx(1.0, abs=1e-6)
