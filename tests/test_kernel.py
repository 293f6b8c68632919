"""The u-space kernels per zoo model and the blocked grid passes.

``u_terms`` gives the log density, its cell feature and the coefficient
tables of its partials from one preamble, and ``u_log_survival`` the log
survival function in the same layout from the same preamble; each order
must repeat the lower orders' entries exactly, and the value, the feature
and the partials rebuilt from the tables must stay finite where the capped
exponent binds.  The grid passes walk the (event
time x record) grids in blocks of at most ``likelihood._BLOCK_CELLS`` cells,
cut by one cutter from the items' widths: the target grid in balanced row
blocks, the censored tails in column blocks of the staircase the time-sorted
records make, the sandwich's censored rows in blocks of its transpose.
Shrinking the budget down to single rows and single columns must not move
any output, running the blocks on two threads must not move any bit of it,
and walking only the tails must give the bits of the whole masked
rectangle."""

import logging
import sys
import threading
import time

import numpy as np
import pytest

import lssurv as ls
import lssurv.likelihood as lik
from lssurv.errors import NumericalUnderflow
from lssurv.likelihood import LikelihoodContext
from lssurv.models import REGISTRY_ORDER, get_model
from lssurv.variance import _second_order_pass

from conftest import make_dataset
from fixture_models import OneSlot, RecordingPHWeibull, TwoPointLogNormal, two_point_dataset
from oracles import SURVIVAL, kernel_partials, rectangle_columns, tail_weights, target_weights
from test_contractions import BASELINE
from test_hessian import assert_rel


def leaves(tree):
    """The arrays of a kernel's output: cell arrays, and the (key,
    coefficient) rows of each coefficient polynomial."""
    if isinstance(tree, dict):
        yield np.array([[*key, coef] for key, coef in sorted(tree.items())])
    elif isinstance(tree, (list, tuple)):
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
    assert len(full) == 4
    for order, length in ((0, 1), (1, 3)):
        got = model.u_terms(t, u, *BASELINE[name], order=order)
        assert len(got) == length
        for a, b in zip(leaves(got), leaves(full[:length]), strict=True):
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
        rebuilt = kernel_partials(model.u_terms, t, u, BASELINE[name])
    for leaf in (*leaves(out), *rebuilt):
        assert np.all(np.isfinite(leaf))


@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_log_survival_matches_the_closed_form(name):
    model = get_model(name)
    rng = np.random.default_rng(12)
    t = (rng.exponential(1.5, 30) + 0.05)[:, None]
    u = rng.normal(0.0, 0.7, 20)
    got = model.u_log_survival(t, u, *BASELINE[name], order=0)
    assert len(got) == 1
    # compared as survival probabilities: the log of a closed form near 1
    # keeps only its absolute rounding
    np.testing.assert_allclose(np.exp(got[0]), SURVIVAL[name](t, u, *BASELINE[name]), rtol=1e-12)


@pytest.mark.parametrize("name", REGISTRY_ORDER)
def test_log_survival_order_one_repeats_order_zero_and_stays_finite(name):
    # t = 1e-300 and 1e300 push log t to -+690, past the capped exponent
    model = get_model(name)
    t = np.array([1e-300, 0.3, 2.0, 1e300])[:, None]
    u = np.array([-3.0, 0.0, 3.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        value = model.u_log_survival(t, u, *BASELINE[name], order=0)
        full = model.u_log_survival(t, u, *BASELINE[name], order=1)
        _, g = kernel_partials(model.u_log_survival, t, u, BASELINE[name], order=1)
    assert len(full) == 3
    np.testing.assert_array_equal(full[0], value[0])
    for leaf in (full[0], full[1], *g):
        assert leaf.shape == (4, 3) and np.all(np.isfinite(leaf))
    for leaf in leaves(full[2]):
        assert np.all(np.isfinite(leaf))


def tail_dataset():
    """Censored times that tie event times and each other, one censored
    record whose tail is the last event time alone, and censored records at
    and beyond the last event time (dropped)."""
    ds = make_dataset(seed=31, n1=40, n2=3, censor_rate=0.8)
    x, delta = ds.x.copy(), ds.delta.copy()
    events = np.sort(x[delta == 1])
    cens = np.flatnonzero(delta == 0)
    x[cens[:3]] = events[10]                     # ties an event time and each other
    x[cens[3:5]] = 0.5 * (events[5] + events[6])  # tie each other only
    x[cens[5]] = 0.5 * (events[-2] + events[-1])  # tail: the last event time alone
    x[cens[6]] = events[-1]                       # at the last event: dropped
    x[cens[7]] = events[-1] + 1.0                 # beyond it: dropped
    return ls.Dataset(x, delta, ds.z_source, ds.z_target)


def grid_outputs(model, ds, theta):
    ctx = LikelihoodContext(model, ds)
    A, psi, psi_pt, psi_qz = _second_order_pass(ctx, theta)
    env = ctx._evaluate(theta, need_score=True)             # the evaluation the pass read
    out = {key: env[key] for key in ("loglik", "score", "qstar_ratio", "cens_logsum")}
    out["Wt"] = target_weights(ctx, env)
    out["tail_w"] = tail_weights(ctx, env)
    out.update(psi=psi, a_matrix=A, psi_pt=psi_pt, psi_qz=psi_qz)
    return out


def _case(case):
    if case == "twopoint-lognormal":
        return TwoPointLogNormal(), two_point_dataset(n=30), np.array([0.75, 0.8, 0.6])
    if case == "one-slot":
        return OneSlot([1.0, 1.0, 1.0, 1.5]), make_dataset(seed=5, n1=40, n2=3), np.array([0.9])
    if case == "tied-tails":
        return get_model("ph-weibull"), tail_dataset(), np.array([0.4, -0.3, 1.2, 0.8])
    name, d_z = case
    # three target records, so a 7-cell budget takes two event-time rows
    ds = make_dataset(seed=29 + d_z, n1=40, n2=3, d_z=d_z)
    return get_model(name), ds, np.array([0.4, -0.3, 0.2][:d_z] + BASELINE[name])


def test_tail_dataset_has_its_edge_cases():
    ds = tail_dataset()
    ctx = LikelihoodContext(get_model("ph-weibull"), ds)
    x_cens, events = ds.x[ctx.cens_idx], np.sort(ds.x[ds.delta == 1])
    assert ctx.n_dropped == 2
    assert np.all(np.diff(x_cens) >= 0)
    assert np.sum(x_cens == events[10]) == 3
    assert np.sum(x_cens == 0.5 * (events[5] + events[6])) == 2
    assert np.sum(ctx.tail_start == ctx.K - 1) == 1
    np.testing.assert_array_equal(ctx.tail_start, np.searchsorted(ctx.tk, x_cens, side="right"))


def test_tail_indices_are_the_time_comparison():
    ds = tail_dataset()
    ctx = LikelihoodContext(get_model("ph-weibull"), ds)
    n_c = ctx.cens_idx.size
    want = ctx.tk[:, None] > ds.x[ctx.cens_idx]
    np.testing.assert_array_equal(ctx.in_tail(slice(0, ctx.K), slice(0, n_c)), want)
    np.testing.assert_array_equal(ctx.reach, want.sum(axis=1))
    for k, m in [(slice(0, 1), slice(0, n_c)), (slice(9, 12), slice(2, 6)),
                 (slice(ctx.K - 1, ctx.K), slice(n_c - 2, n_c))]:
        np.testing.assert_array_equal(ctx.in_tail(k, m), want[k, m])


def _cut(widths, cells):
    """The cutter's blocks over items ``widths``: in order over every item,
    none empty, each within ``cells`` at its widest item or one item wide."""
    blocks, counts = lik._blocks(widths)
    assert all(b.stop > b.start for b in blocks)
    assert [0, *(b.stop for b in blocks)] == [*(b.start for b in blocks), len(widths)]
    for b, n_cells in zip(blocks, counts, strict=True):
        # counted at the widest item: a column block's rows hold every tail
        # in it, a row block's columns every record that reaches it
        assert n_cells == (b.stop - b.start) * widths[b].max()
        assert n_cells <= cells or b.stop - b.start == 1
    return blocks


def test_grid_blocks_are_balanced(monkeypatch):
    # equal widths, the target grid's rows: as few blocks as the budget
    # allows, their row counts differing by at most one
    for cells in (lik._BLOCK_CELLS, 1, 7, 64, 500, 1 << 16):
        monkeypatch.setattr(lik, "_BLOCK_CELLS", cells)
        for n_rows, n_cols in [(200, 1000), (721, 500), (1428, 2000), (5, 1), (3, cells * 2), (0, 10)]:
            blocks = _cut(np.full(n_rows, n_cols), cells)
            sizes = [b.stop - b.start for b in blocks]
            step = max(1, cells // n_cols)
            assert len(blocks) == -(-n_rows // step)
            if sizes:
                assert max(sizes) - min(sizes) <= 1 and max(sizes) <= step
    monkeypatch.undo()
    # the shift test's 200 replicates at n = 1000: four blocks of 50
    assert [b.stop - b.start for b in lik._blocks(np.full(200, 1000))[0]] == [50] * 4


@pytest.mark.parametrize("cells", [1, 7, 64, 500, 1 << 16])
def test_tail_blocks_cut_the_staircase(cells, monkeypatch):
    # the tail staircase (non-increasing, ties included), its transpose and
    # a prefix staircase (non-decreasing, leading zeros)
    monkeypatch.setattr(lik, "_BLOCK_CELLS", cells)
    for ds in (tail_dataset(), make_dataset(seed=3, n1=300, n2=5)):
        ctx = LikelihoodContext(get_model("ph-weibull"), ds)
        for b in _cut(ctx.K - ctx.tail_start, cells):
            # every record's tail lies within its block's rows
            assert np.all(ctx.tail_start[b] >= ctx.tail_start[b.start])
        _cut(ctx.reach, cells)
    _cut(np.array([0, 0, 0, 1, 1, 5, 9, 9, 30, 400]), cells)
    assert lik._blocks(np.array([], dtype=int))[0] == []


@pytest.mark.parametrize("cells", [2048, 1 << 16])
@pytest.mark.parametrize("case", list(REGISTRY_ORDER) + ["twopoint-lognormal", "tied-tails"])
def test_tails_give_the_bits_of_the_masked_rectangle(case, cells, monkeypatch):
    monkeypatch.setattr(lik, "_BLOCK_CELLS", cells)
    if case in REGISTRY_ORDER:
        model, ds = get_model(case), make_dataset(seed=37, n1=1000, n2=40)
        theta = np.array([0.4, -0.3] + BASELINE[case])
    else:
        model, ds, theta = _case(case)
    ctx = LikelihoodContext(model, ds)
    loglik, sc = ctx.value_and_score(theta)
    want_loglik, want_score = rectangle_columns(ctx, theta)
    np.testing.assert_array_equal(loglik, want_loglik)
    np.testing.assert_array_equal(sc, want_score)


def test_an_evaluation_keeps_no_grid():
    ds = make_dataset(seed=37, n1=300, n2=40)
    ctx = LikelihoodContext(get_model("ph-weibull"), ds)
    env = ctx._evaluate(np.array([0.4, -0.3, 1.2, 0.8]), need_score=True)
    cells = ctx.K * min(ds.n2, ctx.cens_idx.size)
    assert all(np.size(v) < cells for v in env.values())
    assert all(np.size(v) < cells for v in vars(ctx).values() if isinstance(v, np.ndarray))


@pytest.mark.parametrize(
    "case",
    [(name, d_z) for name in REGISTRY_ORDER for d_z in (0, 1, 3)]
    + ["twopoint-lognormal", "one-slot", "tied-tails"],
    ids=lambda case: case if isinstance(case, str) else f"{case[0]}-dz{case[1]}",
)
def test_block_budget_moves_no_output(case, monkeypatch):
    model, ds, theta = _case(case)
    want = grid_outputs(model, ds, theta)
    ctx = LikelihoodContext(model, ds)
    assert ctx.cens_idx.size and ctx.unc_idx.size
    assert len(lik._blocks(np.full(ctx.K, ds.n2))[0]) == 1
    for cells in (1, 7, 64):
        monkeypatch.setattr(lik, "_BLOCK_CELLS", cells)
        assert len(lik._blocks(ctx.K - ctx.tail_start)[0]) > 1
        monkeypatch.setattr(lik, "_threads", 1)
        serial = grid_outputs(model, ds, theta)
        for key, ref in want.items():
            assert_rel(serial[key], ref, 1e-13)
        # two threads: the same bits
        monkeypatch.setattr(lik, "_threads", 2)
        threaded = grid_outputs(model, ds, theta)
        for key, ref in serial.items():
            np.testing.assert_array_equal(threaded[key], ref)


def _threaded_context(model, monkeypatch):
    # two threads and 8-cell blocks: every pass has chunks of at least two blocks
    monkeypatch.setattr(lik, "_threads", 2)
    monkeypatch.setattr(lik, "_BLOCK_CELLS", 8)
    return LikelihoodContext(model, make_dataset(seed=3, n1=40, n2=8))


def test_underflow_in_a_later_chunk_keeps_its_type(monkeypatch):
    model = RecordingPHWeibull()
    ctx = _threaded_context(model, monkeypatch)
    # only the last event-time row underflows, so only the last chunk raises
    model.late, model.drop = ctx.tk[-2], 1e4
    with pytest.raises(NumericalUnderflow, match="target-averaged density"):
        ctx.value_and_score(np.array([0.4, -0.3, 1.0, 1.5]))
    late_threads = {name for name, _, late in model.calls if late}
    assert late_threads and all(name.startswith("lssurv-grid") for name in late_threads)


def test_callers_error_state_holds_in_every_block(monkeypatch):
    model = RecordingPHWeibull()
    ctx = _threaded_context(model, monkeypatch)
    theta = np.array([0.4, -0.3, 1.0, 1.5])
    with np.errstate(over="raise"):
        ctx.value_and_score(theta)
        _second_order_pass(ctx, theta)
    assert len(model.calls) > 10
    assert all(err["over"] == "raise" for _, err, _ in model.calls)
    assert any(name.startswith("lssurv-grid") for name, _, _ in model.calls)


def test_map_blocks_from_a_pool_thread_runs_serially(monkeypatch):
    # a pool thread that waited on its own pool would never return
    monkeypatch.setattr(lik, "_threads", 2)
    inner, got = list(range(4)), []
    full = lik._BLOCK_CELLS
    caller = threading.Thread(target=lambda: got.append(lik.map_blocks(
        lambda b: (b.start, lik.map_blocks(lambda c: c.start * b.start, np.full(4, full))),
        np.full(6, full))), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert got == [[(b, [c * b for c in inner]) for b in range(6)]]


def test_map_blocks_raises_chunk_zeros_error_after_every_chunk_ends(monkeypatch):
    # three chunks of two 10-cell blocks: chunk 0 raises at once, chunk 1 at
    # its last block, and the pool's blocks are slow enough to be cut short
    monkeypatch.setattr(lik, "_pool", None)
    monkeypatch.setattr(lik, "_threads", 3)
    monkeypatch.setattr(lik, "_BLOCK_CELLS", 10)
    ran = []

    def fn(b):
        if b.start == 0:
            raise ValueError("chunk 0")
        time.sleep(0.05)
        ran.append(b.start)
        if b.start == 30:
            raise RuntimeError("chunk 1")
        return b.start

    with pytest.raises(ValueError, match="chunk 0"):
        lik.map_blocks(fn, np.ones(60))
    lik._pool.shutdown()
    assert sorted(ran) == [20, 30, 40, 50]


def test_pool_size_is_logged_once_on_creation(monkeypatch, caplog):
    monkeypatch.setattr(lik, "_pool", None)
    monkeypatch.setattr(lik, "_threads", 3)
    with caplog.at_level(logging.DEBUG, logger="lssurv"):
        for _ in range(2):
            assert lik.map_blocks(lambda b: 6 - b.start, np.full(6, lik._BLOCK_CELLS)) == [6, 5, 4, 3, 2, 1]
    lik._pool.shutdown()
    assert [r.getMessage() for r in caplog.records if "grid pool" in r.getMessage()] == [
        "grid pool: 2 worker thread(s) beside the caller"]


def test_map_blocks_keeps_block_order_under_switch_stress(monkeypatch):
    # more threads than cores, switching every microsecond: each block adds
    # to its own slice once and the results keep block order
    monkeypatch.setattr(lik, "_pool", None)
    monkeypatch.setattr(lik, "_threads", 4)
    monkeypatch.setattr(lik, "_BLOCK_CELLS", 50)
    out = np.zeros(400)
    blocks = [slice(i, i + 5) for i in range(0, 400, 5)]

    def fill(b):
        out[b] += np.arange(b.start, b.stop)
        return b.start

    got, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: got.append(
            lik.map_blocks(fill, np.full(400, 10))), daemon=True)
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    lik._pool.shutdown()
    assert got == [[b.start for b in blocks]]
    np.testing.assert_array_equal(out, np.arange(400.0))
