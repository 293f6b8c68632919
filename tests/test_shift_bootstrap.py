"""The blocked shift-test statistics against the dense per-replicate loop.

The oracle builds each population's two kernels over the whole grid
(``oracles.DenseKernels``), draws every replicate as the test does, takes
the product-limit levels of each resample from the scalar loop, spreads each
copy's jump share back onto its record with ``np.add.at`` and reweights the
kernels one mass vector at a time.
"""

import tracemalloc

import jsonschema
import numpy as np
import pytest

from lssurv import likelihood, shift_test
from lssurv.errors import NoEvents
from lssurv.schemas import RESULT_SCHEMAS

from conftest import gen_censored_population
from oracles import DenseKernels, product_limit_levels

RTOL = 1e-12


def scalar_stute_masses(x, delta):
    """Per-record jump share: each event time's drop in the scalar
    product-limit levels, split over its tied events."""
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta)
    times, levels = product_limit_levels(x, delta)
    jumps = -np.diff(levels, prepend=1.0)
    masses = np.zeros(x.shape[0])
    unc = delta == 1
    k = np.searchsorted(times, x[unc])
    masses[unc] = jumps[k] / np.bincount(k, minlength=times.size)[k]
    return masses


def oracle_bootstrap(kp, kq, K, seed):
    """Bootstrap statistics and no-event redraws, one replicate at a time."""
    t_star = np.empty(K)
    redraws = 0
    for k in range(K):
        rk = np.random.default_rng(np.random.SeedSequence((seed, k)))
        ratios = []
        for pop in (kp, kq):
            for _ in range(100):
                idx = rk.integers(0, pop.n, size=pop.n)
                if np.any(pop.delta[idx] == 1):
                    break
                redraws += 1
            masses = scalar_stute_masses(pop.x[idx], pop.delta[idx])
            agg = np.zeros(pop.n)
            np.add.at(agg, idx, masses)
            ratios.append(pop.ratio(agg))
        t_star[k] = np.mean((ratios[0] - ratios[1]) ** 2)
    return t_star, redraws


def oracle_t_n(kp, kq):
    """The statistic of the samples themselves, from the dense kernels."""
    return float(np.mean((kp.ratio(scalar_stute_masses(kp.x, kp.delta))
                          - kq.ratio(scalar_stute_masses(kq.x, kq.delta))) ** 2))


@pytest.fixture
def seen(monkeypatch):
    """Records the dense kernels, the seed and the statistics of each run."""
    record = {}
    statistics = shift_test._statistics

    def spy(pops, own_masses, grid_z, grid_t, h_z, h_t, K, seed):
        out = statistics(pops, own_masses, grid_z, grid_t, h_z, h_t, K, seed)
        kp, kq = (DenseKernels(*pop, grid_z, grid_t, h_z, h_t) for pop in pops)
        record.update(kp=kp, kq=kq, seed=seed, t_n=out[0], t_star=out[1], redraws=out[2])
        return out

    monkeypatch.setattr(shift_test, "_statistics", spy)
    return record


def _tied(rng, n, t_rate=1.0):
    x, delta, z = gen_censored_population(rng, n, t_rate=t_rate)
    return np.round(x, 1) + 0.1, delta, z


def _one_event(rng, n=50):
    x, _, z = gen_censored_population(rng, n)
    delta = np.zeros(n, dtype=int)
    delta[n // 2] = 1
    return x, delta, z


def _two_covariates(rng, n, t_rate=1.0):
    x, delta, z = gen_censored_population(rng, n, t_rate=t_rate)
    return x, delta, np.hstack([z, rng.normal(size=(n, 1))])


CASES = {
    "ties": lambda rng: (_tied(rng, 240), _tied(rng, 240, t_rate=0.7)),
    "one-event": lambda rng: (_one_event(rng), gen_censored_population(rng, 200)),
    "d_z=2": lambda rng: (_two_covariates(rng, 200), _two_covariates(rng, 200, t_rate=0.6)),
    "n_p!=n_q": lambda rng: (gen_censored_population(rng, 150),
                             gen_censored_population(rng, 260, t_rate=0.7)),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("block_cols", [7, None])
def test_batched_t_star_matches_per_replicate_loop(case, block_cols, seen, monkeypatch):
    pp, pq = CASES[case](np.random.default_rng(11))
    K = 61
    if block_cols is not None:
        # blocks of at most 7 replicates
        monkeypatch.setattr(likelihood, "_BLOCK_CELLS", block_cols * max(len(pp[0]), len(pq[0])))
    monkeypatch.setattr(likelihood, "_threads", 1)
    res = shift_test.label_shift_test(pp, pq, K=K, seed=5)
    serial = seen["t_star"]
    t_star, redraws = oracle_bootstrap(seen["kp"], seen["kq"], K, seen["seed"])
    np.testing.assert_allclose(serial, t_star, rtol=RTOL, atol=0)
    np.testing.assert_allclose(res.t_n, oracle_t_n(seen["kp"], seen["kq"]), rtol=RTOL, atol=0)
    assert res.redraws == seen["redraws"] == redraws
    if case == "one-event":
        assert redraws > 0
    # two threads: the same bits
    monkeypatch.setattr(likelihood, "_threads", 2)
    threaded = shift_test.label_shift_test(pp, pq, K=K, seed=5)
    np.testing.assert_array_equal(seen["t_star"], serial)
    assert (threaded.t_n, threaded.critical_value, threaded.p_value, threaded.redraws) == (
        res.t_n, res.critical_value, res.p_value, res.redraws)


@pytest.mark.parametrize("s", range(5))
def test_reject_and_p_value_match_oracle_on_c7_seeds(s, seen):
    rng = np.random.default_rng(31_000 + s)
    pp = gen_censored_population(rng, 500, t_rate=1.0)
    pq0 = gen_censored_population(rng, 500, t_rate=0.7)
    pq1 = gen_censored_population(rng, 500, t_rate=0.7, z_shift=1.0)
    for pq in (pq0, pq1):
        res = shift_test.label_shift_test(pp, pq, K=200, alpha=0.05, seed=s)
        kp, kq = seen["kp"], seen["kq"]
        t_n = oracle_t_n(kp, kq)
        t_star, redraws = oracle_bootstrap(kp, kq, 200, s)
        critical = float(np.quantile(t_star - t_n, 0.95))
        assert res.t_n == pytest.approx(t_n, rel=RTOL)
        assert res.redraws == redraws
        assert res.p_value == float(np.mean(t_star - t_n >= t_n))
        assert res.reject == (t_n > critical)
        assert res.critical_value == pytest.approx(critical, rel=RTOL)


@pytest.mark.parametrize("block_rows", [7, None])
def test_ratio_estimate_matches_the_dense_kernels(block_rows, monkeypatch):
    x, delta, z = _two_covariates(np.random.default_rng(16), 120)
    z_atoms, t_atoms, masses = shift_test.stute_joint_cdf(x, delta, z)
    if block_rows is not None:
        # blocks of at most 7 grid rows
        monkeypatch.setattr(likelihood, "_BLOCK_CELLS", block_rows * t_atoms.size)
    est = shift_test.ratio_estimate(x, delta, z)
    atoms = DenseKernels(t_atoms, np.ones(t_atoms.size, dtype=int), z_atoms, z_atoms, t_atoms,
                         est.bandwidth_z, est.bandwidth_t)
    np.testing.assert_allclose(est.values, atoms.ratio(masses), rtol=RTOL, atol=0)


def test_label_shift_test_keeps_no_kernel():
    # n = 2000 per population, K = 50: one (grid point x event record)
    # float64 kernel alone takes about 30 MB
    rng = np.random.default_rng(15)
    pp, pq = gen_censored_population(rng, 2000), gen_censored_population(rng, 2000, t_rate=0.7)
    events = [int(np.sum(delta)) for _, delta, _ in (pp, pq)]
    kernel_bytes = 8 * sum(events) * max(events)
    tracemalloc.start()
    try:
        shift_test.label_shift_test(pp, pq, K=50, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < kernel_bytes


def test_stute_masses_equal_scalar_reference_on_ties():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        x = rng.integers(1, 8, n).astype(float)
        delta = rng.integers(0, 2, n)
        delta[rng.integers(n)] = 1
        np.testing.assert_array_equal(shift_test.stute_masses(x, delta),
                                      scalar_stute_masses(x, delta))


def test_exhausted_redraws_raise_no_events(monkeypatch):
    rng = np.random.default_rng(13)
    pp, pq = _one_event(rng), gen_censored_population(rng, 200)
    monkeypatch.setattr(shift_test, "_MAX_REDRAWS", 1)
    with pytest.raises(NoEvents):
        shift_test.label_shift_test(pp, pq, K=60, seed=0)


@pytest.mark.parametrize("bandwidths", [None, (np.array([0.5]), 0.5)])
def test_populations_without_events_raise_no_events(bandwidths):
    rng = np.random.default_rng(17)
    (xp, _, zp), (xq, _, zq) = gen_censored_population(rng, 100), gen_censored_population(rng, 100)
    censored = np.zeros(100, dtype=int)
    with pytest.raises(NoEvents):
        shift_test.label_shift_test((xp, censored, zp), (xq, censored, zq), K=50, seed=1,
                                    bandwidths=bandwidths)


def test_json_reports_redraws_and_bandwidths():
    rng = np.random.default_rng(14)
    pp, pq = _one_event(rng), _two_covariates(rng, 200)
    pp = (pp[0], pp[1], np.hstack([pp[2], pp[2]]))
    res = shift_test.label_shift_test(pp, pq, K=60, seed=2)
    doc = res.to_json_dict()
    jsonschema.validate(doc, RESULT_SCHEMAS["shift-test"])
    assert doc["redraws"] == res.redraws > 0
    assert doc["bandwidth_z"] == list(res.bandwidth_z) and len(doc["bandwidth_z"]) == 2
    assert doc["bandwidth_t"] == res.bandwidth_t > 0
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(dict(doc, redraws=-1), RESULT_SCHEMAS["shift-test"])
