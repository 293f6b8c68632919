"""The one u-space kernel per zoo model and the blocked grid passes.

``u_terms`` gives the log density and its partials from one preamble; each
order must repeat the lower orders' entries exactly and stay finite where
the capped exponent binds.  The grid passes walk the (event time x record)
grids in blocks of ``likelihood._BLOCK_CELLS`` cells; shrinking the budget
down to single rows and single columns must not move any output."""

import numpy as np
import pytest

import lssurv.likelihood as lik
from lssurv.likelihood import LikelihoodContext
from lssurv.models import REGISTRY_ORDER, get_model
from lssurv.variance import _psi_qz_rows, a_matrix

from conftest import make_dataset
from fixture_models import OneSlot, TwoPointLogNormal, two_point_dataset
from test_contractions import BASELINE
from test_hessian import assert_rel


def leaves(tree):
    if isinstance(tree, (list, tuple)):
        for item in tree:
            yield from leaves(item)
    else:
        yield np.asarray(tree)


@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_each_order_repeats_the_entries_of_order_two(name):
    model = get_model(name)
    rng = np.random.default_rng(11)
    t = (rng.exponential(1.5, 30) + 0.05)[:, None]
    u = rng.normal(0.0, 0.7, 20)
    full = model.u_terms(t, u, *BASELINE[name], order=2)
    assert len(full) == 3
    for order in (0, 1):
        got = model.u_terms(t, u, *BASELINE[name], order=order)
        assert len(got) == order + 1
        for a, b in zip(leaves(got), leaves(full[: order + 1]), strict=True):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_capped_exponent_keeps_value_and_partials_finite(name):
    # u = +-800 drives every capped exponent (gam log t + u, gam log t +
    # (gam - 1) u, -u) beyond 600 somewhere on the grid
    model = get_model(name)
    t = np.array([1e-3, 1.0, 1e3])[:, None]
    u = np.array([-800.0, 0.0, 800.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out = model.u_terms(t, u, *BASELINE[name], order=2)
    for leaf in leaves(out):
        assert np.all(np.isfinite(leaf))


def grid_outputs(model, ds, theta):
    ctx = LikelihoodContext(model, ds)
    env = ctx._evaluate(theta, need_score=True)
    phi = np.where(ctx.tail_mask, np.exp(env["Lcen"] - env["lqhat"][:, None]), 0.0)
    s0 = np.exp(env["cens_logsum"])
    c_mat = env["psi3_cens"] / s0[:, None]
    out = {key: env[key] for key in ("loglik", "score", "psi", "qstar_ratio", "Wt", "tail_w")}
    out["a_matrix"] = a_matrix(ctx, theta)
    out["psi_qz"] = _psi_qz_rows(ctx, env, phi, s0, c_mat)
    return out


def _case(case):
    if case == "twopoint-lognormal":
        return TwoPointLogNormal(), two_point_dataset(n=30), np.array([0.75, 0.8, 0.6])
    if case == "one-slot":
        return OneSlot([1.0, 1.0, 1.0, 1.5]), make_dataset(seed=5, n1=40, n2=3), np.array([0.9])
    name, d_z = case
    # three target records, so a 7-cell budget takes two event-time rows
    ds = make_dataset(seed=29 + d_z, n1=40, n2=3, d_z=d_z)
    return get_model(name), ds, np.array([0.4, -0.3, 0.2][:d_z] + BASELINE[name])


@pytest.mark.parametrize(
    "case",
    [(name, d_z) for name in REGISTRY_ORDER for d_z in (0, 1, 3)] + ["twopoint-lognormal", "one-slot"],
    ids=lambda case: case if isinstance(case, str) else f"{case[0]}-dz{case[1]}",
)
def test_block_budget_moves_no_output(case, monkeypatch):
    model, ds, theta = _case(case)
    want = grid_outputs(model, ds, theta)
    ctx = LikelihoodContext(model, ds)
    assert ctx.cens_idx.size and ctx.unc_idx.size
    assert len(lik.grid_blocks(ctx.K, ds.n2)) == 1
    for cells in (1, 7, 64):
        monkeypatch.setattr(lik, "_BLOCK_CELLS", cells)
        assert len(lik.grid_blocks(ctx.K, ctx.cens_idx.size)) > 1
        got = grid_outputs(model, ds, theta)
        for key, ref in want.items():
            assert_rel(got[key], ref, 1e-13)
