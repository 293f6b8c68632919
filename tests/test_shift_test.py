import numpy as np
import pytest

from lssurv import shift_test
from lssurv.errors import DegenerateBandwidth, ValidationError
from lssurv.shift_test import (
    label_shift_test,
    ratio_estimate,
    silverman_bandwidths,
    stute_joint_cdf,
    stute_masses,
)

from conftest import gen_censored_population, km_survival


def test_stute_no_censoring_uniform_masses():
    x = np.array([0.5, 1.5, 2.5, 3.5])
    z = np.arange(4.0)[:, None]
    za, ta, m = stute_joint_cdf(x, np.ones(4, dtype=int), z)
    np.testing.assert_allclose(m, 0.25)
    assert m.sum() == pytest.approx(1.0)
    np.testing.assert_array_equal(ta, x)


def test_stute_hand_example():
    x = np.array([1.0, 2.0, 3.0])
    delta = np.array([1, 0, 1])
    z = np.array([[0.1], [0.2], [0.3]])
    za, ta, m = stute_joint_cdf(x, delta, z)
    np.testing.assert_array_equal(ta, [1.0, 3.0])
    np.testing.assert_allclose(m, [1 / 3, 2 / 3])
    assert m.sum() == pytest.approx(1.0 - km_survival(x, delta)(3.0))


def test_stute_total_mass_bounded():
    rng = np.random.default_rng(0)
    x = rng.exponential(1, 200)
    delta = rng.integers(0, 2, 200)
    delta[0] = 1
    masses = stute_masses(x, delta)
    assert masses.sum() <= 1 + 1e-12
    assert np.all(masses[delta == 0] == 0.0)


def test_ratio_independence_factorization():
    rng = np.random.default_rng(1)
    n = 2000
    t = rng.exponential(1.0, n)
    z = rng.normal(0.0, 1.0, n)[:, None]
    grid_z = np.linspace(-2, 2, 9)[:, None]
    grid_t = np.quantile(t, np.linspace(0.1, 0.9, 7))[:, None].ravel()
    gz, gt = np.meshgrid(grid_z.ravel(), grid_t)
    est = ratio_estimate(t, np.ones(n, dtype=int), z,
                         grid=(gz.ravel()[:, None], gt.ravel()))
    ecdf = np.array([np.mean(z.ravel() <= v) for v in gz.ravel()])
    assert np.max(np.abs(est.values - ecdf)) < 0.1


def test_ratio_constant_covariate_smoothed_indicator():
    rng = np.random.default_rng(2)
    n = 400
    t = rng.exponential(1.0, n)
    z = np.full((n, 1), 2.0)
    grid = (np.array([[0.0], [2.0], [4.0]]), np.full(3, np.median(t)))
    est = ratio_estimate(t, np.ones(n, dtype=int), z,
                         bandwidths=(np.array([0.2]), 0.3), grid=grid)
    assert est.values[0] == pytest.approx(0.0, abs=1e-6)
    assert est.values[1] == pytest.approx(0.5, abs=1e-6)
    assert est.values[2] == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(DegenerateBandwidth):
        ratio_estimate(t, np.ones(n, dtype=int), z, bandwidths="auto", grid=grid)


def test_ratio_reaches_one_far_right():
    rng = np.random.default_rng(3)
    x, delta, z = gen_censored_population(rng, 500)
    za, ta, _ = stute_joint_cdf(x, delta, z)
    h_z, h_t = silverman_bandwidths(za, ta)
    far = za.max() + 12 * h_z[0]
    grid_t = np.quantile(ta, [0.3, 0.5, 0.7])
    est = ratio_estimate(x, delta, z, grid=(np.full((3, 1), far), grid_t))
    np.testing.assert_allclose(est.values, 1.0, atol=0.05)


def test_identical_populations_give_zero_statistic():
    rng = np.random.default_rng(4)
    pop = gen_censored_population(rng, 300)
    res = label_shift_test(pop, pop, K=60, seed=0)
    assert res.t_n == 0.0
    assert res.p_value == 1.0
    assert not res.reject


def test_population_relabel_symmetry():
    rng = np.random.default_rng(5)
    pp = gen_censored_population(rng, 250, t_rate=1.0)
    pq = gen_censored_population(rng, 250, t_rate=0.6)
    a = label_shift_test(pp, pq, K=60, seed=3)
    b = label_shift_test(pq, pp, K=60, seed=3)
    assert a.t_n == pytest.approx(b.t_n, rel=1e-12)


def test_duplication_invariance_with_fixed_bandwidths():
    rng = np.random.default_rng(6)
    pp = gen_censored_population(rng, 200, t_rate=1.0)
    pq = gen_censored_population(rng, 200, t_rate=0.6)
    bw = (np.array([0.3]), 0.25)
    base = label_shift_test(pp, pq, K=60, seed=1, bandwidths=bw)
    dup = tuple(np.concatenate([a, a]) for a in pp), tuple(np.concatenate([a, a]) for a in pq)
    doubled = label_shift_test(dup[0], dup[1], K=60, seed=1, bandwidths=bw)
    assert doubled.t_n == pytest.approx(base.t_n, rel=1e-9)


def test_bootstrap_reproducibility():
    rng = np.random.default_rng(7)
    pp = gen_censored_population(rng, 200, t_rate=1.0)
    pq = gen_censored_population(rng, 200, t_rate=0.7)
    a = label_shift_test(pp, pq, K=60, seed=21)
    b = label_shift_test(pp, pq, K=60, seed=21)
    assert a.to_json_dict() == b.to_json_dict()


def test_input_validation():
    rng = np.random.default_rng(8)
    pp = gen_censored_population(rng, 100)
    with pytest.raises(ValidationError):
        label_shift_test(pp, pp, K=10)
    pq = (pp[0], pp[1], np.hstack([pp[2], pp[2]]))
    with pytest.raises(ValidationError):
        label_shift_test(pp, pq, K=60)


BAD_RECORDS = [
    (0, np.nan, "observed times must be finite and positive"),
    (0, np.inf, "observed times must be finite and positive"),
    (0, -1.0, "observed times must be finite and positive"),
    (0, 0.0, "observed times must be finite and positive"),
    (1, 2, "delta entries must be 0 or 1"),
    (1, -1, "delta entries must be 0 or 1"),
    (2, np.nan, "covariates must be finite"),
    (2, -np.inf, "covariates must be finite"),
]


@pytest.mark.parametrize("entry", ["label_shift_test", "stute_joint_cdf", "ratio_estimate"])
@pytest.mark.parametrize("slot, value, message", BAD_RECORDS)
def test_bad_records_raise_before_any_work(monkeypatch, entry, slot, value, message):
    # one bad entry in one array, on every entry point of the shift test
    def no_work(*args):
        raise AssertionError("the masses were computed before the input checks")

    monkeypatch.setattr(shift_test, "stute_masses", no_work)
    pp = gen_censored_population(np.random.default_rng(10), 100)
    bad = [np.array(a, dtype=float) for a in pp]
    bad[slot].flat[7] = value
    call = {"label_shift_test": lambda: label_shift_test(pp, tuple(bad), K=60),
            "stute_joint_cdf": lambda: stute_joint_cdf(*bad),
            "ratio_estimate": lambda: ratio_estimate(*bad)}[entry]
    with pytest.raises(ValidationError, match=message):
        call()


BAD_BANDWIDTHS = [
    ((np.array([np.nan]), 1.0), DegenerateBandwidth),
    ((np.array([np.inf]), 1.0), DegenerateBandwidth),
    ((np.array([0.0]), 1.0), DegenerateBandwidth),
    ((np.array([0.5]), np.inf), DegenerateBandwidth),
    ((np.array([0.5]), np.nan), DegenerateBandwidth),
    ((np.array([0.5]), -1.0), DegenerateBandwidth),
    ((np.array([0.5, 0.5]), 1.0), ValidationError),
    ((np.array([]), 1.0), ValidationError),
    ((0.5, 1.0), ValidationError),
]


@pytest.mark.parametrize("entry", ["label_shift_test", "ratio_estimate"])
@pytest.mark.parametrize("bandwidths, error", BAD_BANDWIDTHS)
def test_bad_bandwidths_raise_before_any_kernel(monkeypatch, entry, bandwidths, error):
    # one h_z per covariate (d_z = 1 here), every bandwidth finite and > 0
    def no_kernel(*args):
        raise AssertionError("a kernel was built before the bandwidth checks")

    monkeypatch.setattr(shift_test, "_statistics", no_kernel)
    monkeypatch.setattr(shift_test, "_ratio_rows", no_kernel)
    pp = gen_censored_population(np.random.default_rng(11), 100)
    call = {"label_shift_test": lambda: label_shift_test(pp, pp, K=60, bandwidths=bandwidths),
            "ratio_estimate": lambda: ratio_estimate(*pp, bandwidths=bandwidths)}[entry]
    with pytest.raises(error):
        call()


def test_bad_ratio_grid_raises_before_any_kernel(monkeypatch):
    # grid_z must be (m, d_z) and grid_t (m,), both finite (d_z = 2 here)
    def no_kernel(*args):
        raise AssertionError("a kernel was built before the grid checks")

    monkeypatch.setattr(shift_test, "_ratio_rows", no_kernel)
    rng = np.random.default_rng(12)
    x, delta, z = gen_censored_population(rng, 80)
    z = np.hstack([z, rng.normal(size=(80, 1))])
    gz, gt = rng.normal(size=(5, 2)), np.linspace(0.2, 1.0, 5)
    nan_t = gt.copy()
    nan_t[2] = np.nan
    for grid, message in [((gz[:, :1], gt), "shapes"), ((np.hstack([gz, gz[:, :1]]), gt), "shapes"),
                          ((gz, gt[:4]), "shapes"), ((gz, nan_t), "finite")]:
        with pytest.raises(ValidationError, match=message):
            ratio_estimate(x, delta, z, grid=grid)
    with pytest.raises(AssertionError, match="a kernel was built"):      # a good grid passes
        ratio_estimate(x, delta, z, grid=(gz, gt))


def test_bad_alpha_and_covariate_rows_fail_before_the_bootstrap(monkeypatch):
    def no_bootstrap(*args):
        raise AssertionError("the bootstrap ran before the input checks")

    monkeypatch.setattr(shift_test, "_statistics", no_bootstrap)
    rng = np.random.default_rng(9)
    pp = gen_censored_population(rng, 100)
    for alpha in (1.5, 0.0, 1.0, float("nan")):
        with pytest.raises(ValidationError, match="alpha must lie in"):
            label_shift_test(pp, pp, K=60, alpha=alpha)
    for K in (60.0, True):
        with pytest.raises(ValidationError, match="needs an integer K"):
            label_shift_test(pp, pp, K=K)
    with pytest.raises(AssertionError, match="the bootstrap ran"):        # a numpy integer passes
        label_shift_test(pp, pp, K=np.int64(60))
    bad = (pp[0], pp[1], np.zeros((101, 2)))
    for pops in ((bad, bad), (bad, pp), (pp, bad)):
        with pytest.raises(ValidationError, match="neither 100 rows nor 100 columns"):
            label_shift_test(*pops, K=60)
