import numpy as np
import pytest

import lssurv as ls
from lssurv.nonparam import product_limit

from oracles import StepFunction


# admissible spot parameters per zoo model: (regression block, baseline block)
SPOTS = {
    "ph-weibull": ([0.5, -0.3], [1.2, 0.8]),
    "po-loglogistic": ([0.4, -0.6], [-0.5, 0.7]),
    "aft-lognormal": ([0.7, -0.2], [0.3, 0.9]),
    "aft-exponential": ([0.5, -0.5], [1.4]),
    "ah-weibull": ([0.4, -0.3], [1.1, 1.8]),
}


def make_dataset(seed=0, n1=20, n2=12, d_z=2, censor_rate=0.4):
    """Small random two-population dataset for unit tests."""
    rng = np.random.default_rng(seed)
    t = rng.exponential(1.0, n1)
    c = rng.exponential(1.0 / censor_rate, n1)
    x = np.minimum(t, c)
    delta = (t <= c).astype(int)
    if delta.sum() == 0:
        delta[0] = 1
    zs = rng.normal(0.0, 1.0, (n1, d_z))
    zt = rng.normal(0.3, 1.0, (n2, d_z))
    return ls.Dataset(x, delta, zs, zt)


def gen_censored_population(rng, n, t_rate=1.0, z_shift=0.0, c_rate=0.4):
    """One censored population with Z | T ~ N(t + shift, 1); two populations
    generated with the same shift share the conditional covariate law."""
    t = rng.exponential(1.0 / t_rate, n)
    c = rng.exponential(1.0 / c_rate, n)
    x = np.minimum(t, c)
    delta = (t <= c).astype(int)
    z = rng.normal(t + z_shift, 1.0, n)[:, None]
    return x, delta, z


def km_survival(x, delta) -> StepFunction:
    """The unit-count survival levels of ``nonparam.product_limit`` as a
    right-continuous step function of time."""
    times, _, _, _, survival = product_limit(x, delta, np.ones((len(x), 1), dtype=np.int64))
    return StepFunction(times, survival[:, 0], pre=1.0)


@pytest.fixture
def small_dataset():
    return make_dataset(seed=7)
