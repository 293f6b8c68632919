import threading
import warnings

import numpy as np
import pytest
from scipy import optimize, stats

import lssurv as ls
from lssurv import likelihood, simulation
from oracles import kernel_partials
from lssurv.errors import TooManyFailures, ValidationError
from lssurv.simulation import (
    QzSpec,
    SimConfig,
    _envelope,
    _mh_conditional,
    generate_dataset,
    generate_source_latent,
    run_mc_study,
    sample_z_given_t,
    sample_z_given_t_batch,
)


def test_qzspec_parsing_and_sampling():
    qz = QzSpec.from_string("n:0,n:1:2,e:1.5,b:0.4,const:3")
    assert qz.d == 5
    rng = np.random.default_rng(0)
    z = qz.sample(rng, 5000)
    assert z.shape == (5000, 5)
    assert abs(z[:, 0].mean()) < 0.1
    assert abs(z[:, 1].std() - 2.0) < 0.1
    assert abs(z[:, 2].mean() - 1 / 1.5) < 0.05
    assert set(np.unique(z[:, 3])) == {0.0, 1.0}
    assert np.all(z[:, 4] == 3.0)
    lp = qz.log_pdf(z[:3])
    assert np.all(np.isfinite(lp))
    bad = z[:1].copy()
    bad[0, 3] = 0.5
    assert qz.log_pdf(bad)[0] == -np.inf


@pytest.mark.parametrize("slots", [
    (("normal", "0", 1.0),),
    (("normal", 0.0, None),),
    (("normal", 0.0),),
    (("gamma", 1.0),),
], ids=str)
def test_qzspec_rejects_bad_slots(slots):
    # built directly, not from a --qz string
    with pytest.raises(ValidationError):
        QzSpec(slots)


def test_point_mass_covariate_returns_the_point():
    qz = QzSpec((("const", 2.5), ("const", -1.0)))
    z = sample_z_given_t_batch(
        ls.get_model("ph-weibull"), np.array([1.0, 1.0, 1.0, 1.5]), qz,
        np.full(40, 1.0), np.random.default_rng(3),
    )
    assert np.all(z == np.array([2.5, -1.0]))


def test_constant_density_draws_from_qz_directly():
    qz = QzSpec()
    theta = np.array([0.0, 0.0, 1.0, 1.5])
    z = sample_z_given_t_batch(
        ls.get_model("ph-weibull"), theta, qz, np.full(20000, 0.7),
        np.random.default_rng(4),
    )
    assert abs(z[:, 0].mean()) < 4 / np.sqrt(20000) * 1.5
    assert abs(z[:, 1].mean() - 1.0) < 4 / np.sqrt(20000) * 1.5
    for j, mu in enumerate((0.0, 1.0)):
        ks = stats.kstest(z[:, j], stats.norm(mu, 1.0).cdf)
        assert ks.pvalue > 0.01


def test_rejection_sampler_matches_mh_oracle():
    model = ls.get_model("ph-weibull")
    theta = np.array([1.0, 1.0, 1.0, 1.5])
    qz = QzSpec()
    ts = np.full(8000, 0.8)
    z_ar = sample_z_given_t_batch(model, theta, qz, ts, np.random.default_rng(5))
    z_mh = _mh_conditional(model, theta, qz, ts, np.random.default_rng(6), steps=300)
    beta = theta[:2]
    ks = stats.ks_2samp(z_ar @ beta, z_mh @ beta)
    assert ks.pvalue > 0.01


def test_single_draw_wrapper():
    z = sample_z_given_t(
        ls.get_model("ph-weibull"), np.array([1.0, 1.0, 1.0, 1.5]), QzSpec(), 1.3,
        np.random.default_rng(8),
    )
    assert z.shape == (2,)


def test_latent_consistency_and_censoring_fraction():
    cfg = SimConfig(n1=4000, n2=10, pt_rate=1.0, pc_rate=0.4, seed=0)
    lat = generate_source_latent(cfg, np.random.default_rng(0))
    np.testing.assert_array_equal(lat["delta"], (lat["t"] <= lat["c"]).astype(int))
    np.testing.assert_array_equal(lat["x"], np.minimum(lat["t"], lat["c"]))
    frac = 1.0 - lat["delta"].mean()
    expect = 0.4 / 1.4
    sd = np.sqrt(expect * (1 - expect) / cfg.n1)
    assert abs(frac - expect) < 3 * sd


def test_target_block_means():
    cfg = SimConfig(n1=20, n2=3000, seed=1)
    ds = generate_dataset(cfg, np.random.default_rng(1))
    mean = ds.z_target.mean(axis=0)
    tol = 4 / np.sqrt(cfg.n2)
    assert abs(mean[0] - 0.0) < tol and abs(mean[1] - 1.0) < tol


def test_seed_reproducibility():
    cfg = SimConfig(n1=60, n2=40, seed=123)
    a = generate_dataset(cfg, np.random.default_rng(123))
    b = generate_dataset(cfg, np.random.default_rng(123))
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.delta, b.delta)
    np.testing.assert_array_equal(a.z_source, b.z_source)
    np.testing.assert_array_equal(a.z_target, b.z_target)


def test_conditional_matches_in_a_time_bin():
    # covariates of records whose latent time falls in a narrow bin follow
    # the conditional law at the bin center
    cfg = SimConfig(n1=50000, n2=10, seed=9)
    lat = generate_source_latent(cfg, np.random.default_rng(9))
    sel = (lat["t"] > 0.95) & (lat["t"] < 1.05)
    z_bin = lat["z"][sel]
    model = ls.get_model(cfg.model)
    z_cond = sample_z_given_t_batch(
        model, cfg.theta(), cfg.qz, np.full(8000, 1.0), np.random.default_rng(10)
    )
    beta = cfg.theta()[:2]
    ks = stats.ks_2samp(z_bin @ beta, z_cond @ beta)
    assert ks.pvalue > 0.001


def test_mc_report_identity_and_reproducibility():
    cfg = SimConfig(n1=120, n2=120, n_reps=6, seed=43)
    rep1 = run_mc_study(cfg, n_jobs=1)
    rep2 = run_mc_study(cfg, n_jobs=1)
    np.testing.assert_array_equal(rep1.mse, rep2.mse)
    np.testing.assert_array_equal(rep1.se_hat_mean, rep2.se_hat_mean)
    np.testing.assert_array_equal(rep1.cp, rep2.cp)
    # definitional identity with the shared ddof convention
    r = cfg.n_reps - rep1.n_failed
    np.testing.assert_allclose(
        rep1.mse, rep1.bias**2 + (r - 1) / r * rep1.se**2, atol=1e-10
    )
    assert np.all((rep1.cp >= 0) & (rep1.cp <= 1))
    assert rep1.mse.shape == (4,)


def test_mc_parallel_matches_serial(monkeypatch):
    # the serial study fits on two threads, so the parent holds a grid pool
    # when the workers fork; each of the two workers gets two threads as well
    monkeypatch.setattr(likelihood, "_threads", 2)
    monkeypatch.setattr(likelihood, "_BLOCK_CELLS", 1024)
    monkeypatch.setattr(simulation, "usable_cores", lambda: 4)
    cfg = SimConfig(n1=120, n2=120, n_reps=4, seed=77)
    a = run_mc_study(cfg, n_jobs=1)
    assert likelihood._pool is not None
    got = []
    # a worker that waited on the parent's pool threads would never return
    caller = threading.Thread(target=lambda: got.append(run_mc_study(cfg, n_jobs=2)), daemon=True)
    caller.start()
    caller.join(timeout=300)
    assert not caller.is_alive()
    assert got[0].to_json_dict() == a.to_json_dict()


def test_mc_pool_starts_at_most_n_reps_workers(monkeypatch):
    # the pool forks all its workers when it starts: 64 asked for, 3 reps, 3
    # workers, each with its share of 4 cores; this pool starts no process
    seen = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            seen.append((max_workers, initargs))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(simulation, "usable_cores", lambda: 4)
    cfg = SimConfig(n1=60, n2=60, n_reps=3, seed=5)
    got = run_mc_study(cfg, n_jobs=64)
    assert seen == [(3, (1,))]
    assert got.to_json_dict() == run_mc_study(cfg, n_jobs=1).to_json_dict()


@pytest.mark.parametrize("n_jobs", [0, -2, 2.0, "2", None])
def test_mc_rejects_a_bad_n_jobs_before_any_draw(monkeypatch, n_jobs):
    def no_draw(*args):
        raise AssertionError("a dataset was drawn before the n_jobs check")

    monkeypatch.setattr(simulation, "generate_dataset", no_draw)
    with pytest.raises(ValidationError, match="n_jobs must be an integer >= 1"):
        run_mc_study(SimConfig(n1=60, n2=60, n_reps=3, seed=5), n_jobs=n_jobs)


def test_mc_requires_minimum_sizes():
    with pytest.raises(ValidationError):
        run_mc_study(SimConfig(n1=5, n2=50, n_reps=4, seed=0))


@pytest.mark.parametrize("sizes", [
    {"n1": -3}, {"n1": 1}, {"n2": 0}, {"n1": 2.5}, {"n2": np.float64(3.0)}, {"n_reps": 4.0},
    {"n1": True}, {"n_reps": False},
], ids=lambda sizes: ",".join(f"{k}={v!r}" for k, v in sizes.items()))
def test_simconfig_checks_sample_sizes(sizes):
    with pytest.raises(ValidationError, match="need integer sizes with n1 >= 2 and n2 >= 1"):
        SimConfig(**sizes)


def test_simconfig_takes_numpy_integer_sizes():
    cfg = SimConfig(n1=np.int64(40), n2=np.int32(1), n_reps=np.int64(0))
    ds = generate_dataset(cfg, np.random.default_rng(0))
    assert (ds.n1, ds.n2) == (40, 1)


def test_oracle_ci_gives_full_coverage(monkeypatch):
    import lssurv.simulation as sim

    real_fit = sim.fit

    def wide_ci_fit(*args, **kwargs):
        fr = real_fit(*args, **kwargs)
        fr.ci = np.column_stack([np.full(4, -np.inf), np.full(4, np.inf)])
        return fr

    monkeypatch.setattr(sim, "fit", wide_ci_fit)
    rep = run_mc_study(SimConfig(n1=100, n2=100, n_reps=3, seed=13), n_jobs=1)
    np.testing.assert_array_equal(rep.cp, 1.0)


def test_too_many_failures(monkeypatch):
    import lssurv.simulation as sim

    def failing_fit(*args, **kwargs):
        raise ls.NonConvergence("forced")

    monkeypatch.setattr(sim, "fit", failing_fit)
    with pytest.raises(TooManyFailures):
        run_mc_study(SimConfig(n1=100, n2=100, n_reps=3, seed=13), n_jobs=1)


def test_mc_report_counts_failures_by_type(monkeypatch):
    import jsonschema

    import lssurv.simulation as sim
    from lssurv.schemas import MC_SCHEMA

    real_fit = sim.fit
    calls = []

    def first_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ls.NonConvergence("forced")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(sim, "fit", first_fails)
    rep = run_mc_study(SimConfig(n1=100, n2=100, n_reps=10, seed=13), n_jobs=1)
    doc = rep.to_json_dict()
    jsonschema.validate(doc, MC_SCHEMA)
    assert doc["diagnostics"]["failure_counts"] == {"NonConvergence": 1}
    assert doc["diagnostics"]["n_failed"] == 1


def test_envelope_failure_on_zero_density():
    from lssurv.errors import EnvelopeFailure
    from lssurv.models import SurvivalModel

    class _Zero(SurvivalModel):
        name = "zero"

        def d_theta(self, d_z):
            return 1

        def param_names(self, d_z):
            return ["a"]

        def positive_mask(self, d_z):
            return np.array([False])

        def log_density(self, theta, t, z):
            return np.full(np.broadcast(np.asarray(t), np.asarray(z)[..., 0]).shape, -np.inf)

        def default_init(self, x, delta, z):
            return np.zeros(1)

    with pytest.raises(EnvelopeFailure):
        _mh_conditional(_Zero(), np.zeros(1), QzSpec((("normal", 0.0, 1.0),)),
                        np.full(3, 1.0), np.random.default_rng(0))


ZOO_THETA = {
    "ph-weibull": (1.0, 1.0, 1.0, 1.5),
    "po-loglogistic": (0.4, -0.6, -0.5, 0.7),
    "aft-lognormal": (0.7, -0.2, 0.3, 0.9),
    "aft-exponential": (0.5, -0.5, 1.4),
    "ah-weibull": (0.4, -0.3, 1.1, 1.8),
}


def _scalar_envelope(model, theta, ts):
    """Reference envelope: a 1201-point grid on [-60, 60], then one bounded
    scalar search per time between the grid argmax's neighbours."""
    _, base = model.split(theta)
    grid = np.linspace(-60.0, 60.0, 1201)
    vals = model.u_terms(np.asarray(ts)[:, None], grid, *base, order=0)[0]
    out = np.empty(len(ts))
    for i, b in enumerate(np.argmax(vals, axis=1)):
        res = optimize.minimize_scalar(
            lambda u: -float(model.u_terms(ts[i], u, *base, order=0)[0]),
            bounds=(grid[max(b - 1, 0)], grid[min(b + 1, grid.size - 1)]),
            method="bounded",
            options={"xatol": 1e-8},
        )
        out[i] = -res.fun
    return out + 1e-10


@pytest.mark.parametrize("name", list(ZOO_THETA))
def test_envelope_matches_scalar_search(name):
    model = ls.get_model(name)
    theta = np.array(ZOO_THETA[name])
    ts = np.random.default_rng(0).exponential(1.0, 300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _envelope(model, theta, ts)
    np.testing.assert_allclose(got, _scalar_envelope(model, theta, ts), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", list(ZOO_THETA))
def test_envelope_bounds_the_density_at_extreme_times(name):
    # modes clamped to the edge of [-60, 60], where d2l/du2 underflows to 0
    model = ls.get_model(name)
    theta = np.array(ZOO_THETA[name])
    _, base = model.split(theta)
    ts = np.geomspace(1e-300, 1e300, 25)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _envelope(model, theta, ts)
    assert not caught
    assert np.all(np.isfinite(got))
    assert np.all(got >= _scalar_envelope(model, theta, ts))
    dense = np.linspace(-60.0, 60.0, 24001)
    assert np.all(got >= model.u_terms(ts[:, None], dense, *base, order=0)[0].max(axis=1))


@pytest.mark.parametrize("name", list(ZOO_THETA))
def test_u_mode_is_the_zero_of_dl_du(name):
    # the envelope reads each model's closed-form mode
    model = ls.get_model(name)
    _, base = model.split(np.array(ZOO_THETA[name]))
    t = np.geomspace(1e-8, 1e8, 33)
    _, g = kernel_partials(model.u_terms, t, model.u_mode(t, *base), base, order=1)
    np.testing.assert_allclose(g[0], 0.0, atol=1e-12)
