"""The sandwich under maps of the target sample, and its working memory.

The estimator reads the target sample only through its empirical measure.
Permuting the target rows therefore permutes the target influence rows and
leaves ``A``, the source rows and the covariance as they are; duplicating
every target row repeats the target influence rows and leaves the
likelihood, its score, ``A`` and the source rows as they are.

The evaluation walks the grids in blocks and keeps none of them; the
variance recomputes the tail weights block by block and contracts them with
the censored score rows before it forms any per-record array.  So neither
one's working memory comes near one (event time x record) grid.  Nor do
the blocks' freed temporaries go back to the kernel between blocks, to be
faulted in again by the next one."""

import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import lssurv as ls
import lssurv.likelihood as lik
from lssurv.likelihood import LikelihoodContext
from lssurv.models import REGISTRY_ORDER, get_model
from lssurv.variance import asymptotic_variance

from conftest import make_dataset
from test_contractions import BASELINE
from test_hessian import assert_rel

RTOL = 1e-12


def _sandwich(model, ds, theta):
    ctx = LikelihoodContext(model, ds)
    loglik, sc = ctx.value_and_score(theta)
    sigma, parts = asymptotic_variance(ctx, theta)
    return loglik, sc, sigma, parts


@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_target_permutation_permutes_only_the_target_rows(name):
    model = get_model(name)
    ds = make_dataset(seed=41, n1=60, n2=35)
    theta = np.array([0.4, -0.3] + BASELINE[name])
    _, _, sigma, parts = _sandwich(model, ds, theta)
    perm = np.random.default_rng(2).permutation(ds.n2)
    permuted = ls.Dataset(ds.x, ds.delta, ds.z_source, ds.z_target[perm])
    _, _, sigma_p, parts_p = _sandwich(model, permuted, theta)
    assert_rel(parts_p.psi_qZ_per_target, parts.psi_qZ_per_target[perm], RTOL)
    assert_rel(parts_p.a_matrix, parts.a_matrix, RTOL)
    assert_rel(parts_p.psi_per_source, parts.psi_per_source, RTOL)
    assert_rel(parts_p.psi_pT_per_source, parts.psi_pT_per_source, RTOL)
    assert_rel(sigma_p, sigma, RTOL)


@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_duplicated_targets_repeat_the_target_rows(name):
    model = get_model(name)
    ds = make_dataset(seed=43, n1=60, n2=35)
    theta = np.array([0.4, -0.3] + BASELINE[name])
    loglik, sc, _, parts = _sandwich(model, ds, theta)
    doubled = ls.Dataset(ds.x, ds.delta, ds.z_source, np.vstack([ds.z_target, ds.z_target]))
    loglik_d, sc_d, _, parts_d = _sandwich(model, doubled, theta)
    assert_rel(loglik_d, loglik, RTOL)
    assert_rel(sc_d, sc, RTOL)
    assert_rel(parts_d.a_matrix, parts.a_matrix, RTOL)
    assert_rel(parts_d.psi_per_source, parts.psi_per_source, RTOL)
    assert_rel(parts_d.psi_pT_per_source, parts.psi_pT_per_source, RTOL)
    assert_rel(parts_d.psi_qZ_per_target, np.vstack([parts.psi_qZ_per_target] * 2), RTOL)


def test_variance_forms_no_per_record_tail_grid(monkeypatch):
    # n1 = n2 = 2000 (K = 1428 event times, 571 kept censored records): one
    # (K x n_c) float64 grid is 6.5 MB and one (n1 x n_c) array 9.1 MB; a
    # variance that forms the per-record tail sums and their suffix sums
    # peaks at about 65 MB above the evaluation, the blocked passes at 10
    monkeypatch.setattr(lik, "_threads", 1)
    theta = np.array([1.0, 1.0, 1.0, 1.5])
    cfg = ls.SimConfig(model="ph-weibull", theta_true=tuple(theta), n1=2000, n2=2000, seed=1)
    ds = ls.generate_dataset(cfg, np.random.default_rng(1))
    ctx = LikelihoodContext(get_model("ph-weibull"), ds)
    ctx.value_and_score(theta)
    tracemalloc.start()
    try:
        kept = tracemalloc.get_traced_memory()[0]
        asymptotic_variance(ctx, theta)
        peak = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_evaluation_and_variance_form_no_event_time_by_record_grid(monkeypatch):
    # n1 = n2 = 4000 (K = 2866, 1134 kept censored records): a quarter of
    # one (K x n2) float64 grid is 22.9 MB, and the target and tail weights
    # of one evaluation as grids 118 MB; the blocks' temporaries take about
    # 4 MB in the evaluation and 11 MB in the variance, whatever n is
    monkeypatch.setattr(lik, "_threads", 1)
    theta = np.array([1.0, 1.0, 1.0, 1.5])
    cfg = ls.SimConfig(model="ph-weibull", theta_true=tuple(theta), n1=4000, n2=4000, seed=1)
    ds = ls.generate_dataset(cfg, np.random.default_rng(1))
    ctx = LikelihoodContext(get_model("ph-weibull"), ds)
    quarter = ctx.K * ds.n2 * 8 / 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ctx.value_and_score(theta)
        kept, eval_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        asymptotic_variance(ctx, theta)
        var_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eval_peak - before < quarter
    assert var_peak - kept < quarter
    assert kept - before < quarter / 10


_FAULT_PROBE = """
import resource
import numpy as np
import lssurv as ls
import lssurv.likelihood as lik
from lssurv.models import get_model
from lssurv.variance import _second_order_pass

lik._set_threads(1)
theta = np.array([1.0, 1.0, 1.0, 1.5])
ds = ls.generate_dataset(ls.SimConfig(n1=500, n2=500, seed=1), np.random.default_rng(1))
ctx = lik.LikelihoodContext(get_model("ph-weibull"), ds)
ctx.value_and_score(theta)
_second_order_pass(ctx, theta)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for step in (1, 2, 3):
    moved = theta * (1 + 1e-3 * step)
    ctx.value_and_score(moved)
    _second_order_pass(ctx, moved)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap thresholds")
def test_block_temporaries_stay_in_the_heap():
    # a fresh process, since the heap of this one depends on the tests run
    # before; at n1 = n2 = 500 one value_and_score and one second-order pass fault
    # in about 3K and 8K pages when glibc trims the freed block temporaries
    # after each block, and none when the context's freed array has raised
    # its thresholds; the probe runs its passes on one grid thread, as a
    # Monte Carlo worker on a two-core machine does
    src = os.path.dirname(os.path.dirname(ls.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 500
