"""The approximated two-population log-likelihood and its exact gradient.

For a parameter vector theta the objective is the source average of

* ``log q(x_i, z_i)`` for events,
* minus ``log qhat(x_i)``, the target-averaged density at the event time,
* plus, for censored records, the log of the jump-weighted tail sum
  ``sum_{t_k > x_i} w_k q(t_k, z_i) / qhat(t_k)``

where ``w_k`` are the product-limit jumps of the source event-time CDF and
``qhat(t) = mean_j q(t, z_j)`` over the target covariates.  Everything is
evaluated in log space; ratios are formed through max-shifted weights so
the gradient is exact and stable.

Both (event time x record) grids are walked in blocks of at most
``_BLOCK_CELLS`` cells, one ``terms`` call per block, each contracted at
once: the target grid in blocks of event-time rows, since its log-sums run
over records, and the censored grid in blocks of record columns, since its
tail log-sums run over event times.  The kept censored records are sorted
by time, so each one's tail is a suffix of the event-time rows (the one tail
rule, ``LikelihoodContext.tail_start``) and a column block starts at its
first record's tail row: only that staircase is evaluated, not the whole
rectangle.  Every block's log-sum is complete, so the block size changes no
formula.  An evaluation keeps no grid, only per-row and per-record results.

A block is contracted through its ``Cells`` (``BlockSums``), not through a
cell array per partial: every partial is a polynomial in the block's one
cell feature ``phi``, a row basis and a column basis, so the block forms
``V * phi**p`` once per power, one cell pass each, and reduces it with one
small product against the column design ``[cols * z, cols]`` (sums over
records) or the row basis (sums over event times); the coefficient tables
then act on those (rows x a few) or (a few x records) sums.  The weights
``V`` are the max-shifted ``exp`` of the log-sums, unnormalized: a block
divides its weighted sums by the weights' totals instead.

Every grid pass hands ``map_blocks`` the cell width of each item it walks;
the one cutter, ``_blocks``, cuts the blocks from them, and ``map_blocks``
splits those into contiguous chunks of about equal cell counts, one per
thread and at most one per started ``_BLOCK_CELLS`` cells: the calling
thread runs chunk 0 and a pool of ``threads - 1`` workers, created on first
use, runs the rest.  ``threads`` is the number of CPUs the process may run on
(``usable_cores``); a Monte Carlo worker process gets its share.  Each
block writes only its own rows or columns and returns its partials in block
order, so the results do not depend on the thread count.  Passes of one
block or one budget of cells, and passes started from a pool thread, run as
a plain loop.

Censored records with no event time beyond them have an undefined tail term
and are dropped with a warning count (the product-limit tail carries no
mass there).
"""

from __future__ import annotations

import contextvars
import itertools
import logging
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .data import Dataset
from .errors import EmptyTail, NumericalUnderflow
from .models import SurvivalModel, full_gradient, theta_hessian, theta_rows
from .nonparam import kaplan_meier

logger = logging.getLogger("lssurv")

_LOG_FLOOR = math.log(1e-300)

# cells per block of a grid pass: 512 KiB per float64 temporary, so the
# temporaries of one block stay in cache
_BLOCK_CELLS = 1 << 16

# float64 temporaries a block of a second-order pass may hold at once
_BLOCK_TEMPORARIES = 16


def _blocks(widths):
    """Contiguous slices over the items of a grid pass, item ``i``
    ``widths[i]`` cells wide (monotone), and their cells at each block's
    widest item: at most ``_BLOCK_CELLS`` cells or one item per block.  The
    cuts run from the widest end; where the budget there allows a new item
    count, the items left are split evenly into as few blocks as it allows,
    so equal widths give item counts differing by at most one."""
    widths = np.asarray(widths, dtype=np.int64)
    n = widths.size
    backward = n > 0 and widths[-1] > widths[0]
    walk = widths[::-1] if backward else widths
    cuts, step = [0], 0
    while cuts[-1] < n:
        a = cuts[-1]
        fits = max(1, _BLOCK_CELLS // max(walk[a], 1))         # items the budget allows at a
        if fits != step:
            step, start, left, j = fits, a, n - a, 0
        j += 1
        cuts.append(start + left * j // -(-left // step))
    cuts = np.array(cuts)
    cells = np.diff(cuts) * walk[cuts[:-1]]
    if backward:
        cuts, cells = n - cuts[::-1], cells[::-1]
    return [slice(a, b) for a, b in zip(cuts.tolist(), cuts[1:].tolist())], cells


def usable_cores():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_threads = None          # threads per grid pass, the caller included; None: usable_cores()
_pool = None             # the grid pool, created and sized on first use
_pool_lock = threading.Lock()
_in_pool = threading.local()


def _set_threads(n):
    """Threads per grid pass from now on in this process (a Monte Carlo
    worker's share of the cores)."""
    global _threads
    _threads = n


def _forget_pool():
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _mark_pool_thread():
    _in_pool.active = True


def _grid_pool(workers):
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(workers, thread_name_prefix="lssurv-grid",
                                       initializer=_mark_pool_thread)
            logger.debug("grid pool: %d worker thread(s) beside the caller", workers)
        return _pool


def _run_chunk(fn, chunk):
    return [fn(b) for b in chunk]


def map_blocks(fn, widths):
    """``[fn(b) for b in _blocks(widths)[0]]``, in block order, item ``i`` of
    the pass ``widths[i]`` cells wide.

    When the blocks hold more than one budget of ``_BLOCK_CELLS`` cells, they
    are split into contiguous chunks of about equal cell counts, one per
    thread and at most one per started budget: a block goes to the chunk in
    which its middle cell falls.  The calling thread runs chunk 0 and the grid
    pool the others, each in a copy of the caller's context, so a caller's
    ``np.errstate`` holds in every chunk.  Every chunk runs to its end
    before the first exception, in chunk order, is raised as it is.
    Otherwise, and when called from a pool thread, this is the plain loop."""
    blocks, cells = _blocks(widths)
    threads = _threads or usable_cores()
    total = cells.sum()
    n_chunks = min(threads, len(blocks), math.ceil(total / _BLOCK_CELLS))
    if n_chunks < 2 or getattr(_in_pool, "active", False):
        return _run_chunk(fn, blocks)
    middles = np.cumsum(cells) - 0.5 * cells
    cuts = [0, *np.searchsorted(middles, total * np.arange(1, n_chunks) / n_chunks), len(blocks)]
    chunks = [blocks[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]
    pool = _grid_pool(threads - 1)
    futures = [pool.submit(contextvars.copy_context().run, _run_chunk, fn, chunk)
               for chunk in chunks[1:]]
    try:
        results = _run_chunk(fn, chunks[0])
    finally:
        wait(futures)
    for future in futures:
        results += future.result()
    return results


def _check(logs, what):
    if np.any(logs < _LOG_FLOOR) or not np.all(np.isfinite(logs)):
        raise NumericalUnderflow(f"{what} underflow")


def log_sum_weights(a, axis):
    """``log sum exp(a)`` along ``axis``, the weights ``exp(a - max)`` from
    one max-shifted ``exp``, formed in ``a`` itself, and their sums (kept
    dimension), by which a weighted sum is divided to normalize it."""
    m = np.max(a, axis=axis, keepdims=True)
    a -= m
    np.exp(a, out=a)
    total = a.sum(axis=axis, keepdims=True)
    return np.squeeze(m + np.log(total), axis=axis), a, total


class BlockSums:
    """Weighted sums of the partials of ``terms`` over one grid block, from
    the block's ``Cells`` and its weights ``V`` (event-time rows x record
    columns), without a cell array per partial.

    The block forms ``V * phi**p`` once per power ``p`` its tables use, one
    cell pass each.  A sum over records reduces it with one matrix product
    against the column design ``[cols * z, cols]``; a sum over event times
    reduces it with the row basis, one pass per (power, row) pair, in
    event-time order, so a record's sums do not depend on the zero rows
    before its tail; those row sums are kept for the block's other sums.
    The coefficient tables act only on the reductions."""

    def __init__(self, cells, V):
        self.cells = cells
        self._weighted = [V]
        self._row_sums = {}

    def _power(self, p):
        while len(self._weighted) <= p:
            self._weighted.append(self._weighted[-1] * self.cells.phi)
        return self._weighted[p]

    def _over_rows(self, table):
        """(P, R, n_cols): ``sum_k rows[r, k] * (V phi**p)[k, :]`` for every
        (p, r) the table uses, zero for the others."""
        P, R = table.shape[-3:-1]
        n_rows, n_cols = self._weighted[0].shape
        rows = self.cells.rows.reshape(R, n_rows)
        out = np.zeros((P, R, n_cols))
        for p, r in zip(*np.nonzero(table.any(axis=(*range(table.ndim - 3), -1)))):
            if (p, r) not in self._row_sums:
                self._row_sums[p, r] = np.einsum("k,kj->j", rows[r], self._power(p))
            out[p, r] = self._row_sums[p, r]
        return out

    def over_records(self):
        """``sum_j V[k, j] grad[k, j]`` (n_rows, d): one gradient sum per
        event-time row."""
        cells, g = self.cells, self.cells.grad
        P, R, C = g.shape[1:]
        z = cells.z
        (n_rows, n_cols), d_z = self._weighted[0].shape, z.shape[-1]
        cols = cells.cols.reshape(C, n_cols).T
        design = np.empty((n_cols, C, d_z + 1))          # per column term: [cols * z, cols]
        np.multiply(cols[:, :, None], z[:, None, :], out=design[:, :, :d_z])
        design[:, :, d_z] = cols
        design = design.reshape(n_cols, C * (d_z + 1))
        Y = np.empty((P, n_rows, C, d_z + 1))
        for p in range(P):
            np.matmul(self._power(p), design, out=Y[p].reshape(n_rows, C * (d_z + 1)))
        coef = np.einsum("aprc,rk->apkc", g, cells.rows.reshape(R, n_rows))
        out = np.empty((n_rows, d_z + g.shape[0] - 1))
        out[:, :d_z] = np.einsum("pkc,pkci->ki", coef[0], Y[..., :d_z])
        out[:, d_z:] = np.einsum("apkc,pkc->ka", coef[1:], Y[..., d_z])
        return out

    def _slots(self, table):
        # the per-record u-space sums of a table's cells (leading axes, n_cols)
        C = table.shape[-1]
        reduced = np.tensordot(table, self._over_rows(table), axes=([-3, -2], [0, 1]))
        return np.einsum("...cj,cj->...j", reduced,
                         self.cells.cols.reshape(C, self._weighted[0].shape[1]))

    def over_times(self):
        """``sum_k V[k, j] grad[k, j]`` (n_cols, d): one gradient sum per
        record."""
        return theta_rows(self._slots(self.cells.grad), self.cells.z)

    def hessian(self):
        """``sum V * (Hess + grad grad^T)`` over the block, (d, d)."""
        return theta_hessian(self._slots(self.cells.curv), self.cells.z)


class LikelihoodContext:
    """Data-dependent, theta-independent scaffolding plus a one-slot cache
    of the last evaluated theta.

    The kept censored records (``cens_idx``) run in time order, so record
    m's tail is the event-time rows from ``tail_start[m]`` on, and the
    tails that reach row k are those of the first ``reach[k]`` records.  The
    evaluation at the maximizer is also the state the sandwich variance
    reads: beside the product-limit fit and the kept censored records, it
    keeps ``lqhat`` and the tail log-sums ``cens_logsum`` (from which the
    variance's one pass recomputes the target and tail weights block by
    block) and, with the score, ``qstar_ratio`` and the per-record score rows
    ``psi``, whose mean is the score; no (event time x record) array.
    """

    def __init__(self, model: SurvivalModel, dataset: Dataset):
        self.model = model
        self.dataset = dataset
        self.km = kaplan_meier(dataset.x, dataset.delta)
        self.tk = self.km.event_times                      # (K,) distinct event times
        self.w = self.km.jumps                             # (K,) product-limit jumps
        self.logw = np.log(self.w)
        self.K = self.tk.shape[0]

        delta = dataset.delta
        self.unc_idx = np.flatnonzero(delta == 1)
        cens_idx_all = np.flatnonzero(delta == 0)
        self.k_of_unc = np.searchsorted(self.tk, dataset.x[self.unc_idx])
        # the one tail rule: record m's tail holds event-time row k iff t_k > x_m;
        # a censored record with no such row is dropped
        tail_start = np.searchsorted(self.tk, dataset.x[cens_idx_all], side="right")
        tail_ok = tail_start < self.K
        kept = cens_idx_all[tail_ok]
        self.n_dropped = int((~tail_ok).sum())
        if self.n_dropped:
            logger.debug(
                "dropping %d censored record(s) beyond the last event time", self.n_dropped
            )
        if self.unc_idx.size == 0 and kept.size == 0:
            raise EmptyTail("no usable source contribution")
        by_time = np.argsort(dataset.x[kept], kind="stable")
        self.cens_idx = kept[by_time]
        self.tail_start = tail_start[tail_ok][by_time]
        self.reach = np.searchsorted(self.tail_start, np.arange(self.K), side="right")
        self._cache_key = None
        self._cache_val = None
        # glibc raises its dynamic mmap threshold to the size of a freed
        # mmapped chunk, and its trim threshold to twice that: one chunk the
        # size of a block's temporaries, freed at once, keeps the blocks'
        # freed temporaries in the heap for the next block, instead of handed
        # back to the kernel and faulted in again.  This is the package's one
        # heap rule, in Monte Carlo worker processes as in the caller's.
        np.empty(_BLOCK_TEMPORARIES * _BLOCK_CELLS)

    def in_tail(self, k, m):
        """Whether kept record ``m``'s tail holds row ``k`` (slices), per cell."""
        return np.arange(k.start, k.stop)[:, None] >= self.tail_start[m]

    # -- per-theta evaluation ------------------------------------------------

    def _evaluate(self, theta, need_score: bool):
        env = self._cache_val
        if self._cache_key == theta.tobytes() and env is not None:
            if not need_score or "score" in env:
                return env
        model, ds = self.model, self.dataset
        theta = model.check_theta(theta, ds.d_z)
        order, d, K, n_c = int(need_score), theta.shape[0], self.K, self.cens_idx.size

        # target grid (K, n2) in blocks of event-time rows: each row's
        # log-sum over the target records is complete within its block
        lqhat = np.empty(K)
        qstar_ratio = np.empty((K, d))                            # qhat* / qhat

        def target_rows(k):
            block = model.terms(theta, self.tk[k, None], ds.z_target, order)
            lse, wt, total = log_sum_weights(block[0], axis=1)
            lqhat[k] = lse - math.log(ds.n2)
            _check(lqhat[k], "target-averaged density")
            if need_score:
                qstar_ratio[k] = BlockSums(block[1], wt).over_records() / total

        map_blocks(target_rows, np.full(K, ds.n2))

        own = model.terms(theta, ds.x[self.unc_idx], ds.z_source[self.unc_idx], order)
        _check(own[0], "event density")

        # censored grid in blocks of record columns, each from its first
        # record's tail row on: each tail log-sum is complete within its
        # block, and each block writes its own records' score rows
        z_cens = ds.z_source[self.cens_idx]
        cens_logsum, psi = np.empty(n_c), np.zeros((ds.n1, d))

        def censored_columns(m):
            k = slice(self.tail_start[m.start], K)
            block = model.terms(theta, self.tk[k, None], z_cens[m], order)
            lc = self.logw[k, None] + block[0] - lqhat[k, None]
            np.copyto(lc, -np.inf, where=~self.in_tail(k, m))
            cens_logsum[m], tw, total = log_sum_weights(lc, axis=0)
            _check(cens_logsum[m], "censored tail")
            if need_score:
                psi[self.cens_idx[m]] = (BlockSums(block[1], tw).over_times()
                                         - tw.T @ qstar_ratio[k]) / total.T

        map_blocks(censored_columns, K - self.tail_start)

        loglik = math.fsum(itertools.chain(own[0] - lqhat[self.k_of_unc], cens_logsum)) / ds.n1

        env = {
            "theta": theta,
            "lqhat": lqhat,
            "cens_logsum": cens_logsum,
            "loglik": loglik,
        }
        if need_score:
            psi[self.unc_idx] = full_gradient(own[1]) - qstar_ratio[self.k_of_unc]
            env["qstar_ratio"] = qstar_ratio
            env["psi"] = psi
            env["score"] = psi.sum(axis=0) / ds.n1
        self._cache_key = theta.tobytes()
        self._cache_val = env
        return env

    def value_and_score(self, theta):
        env = self._evaluate(np.asarray(theta, dtype=float), need_score=True)
        return env["loglik"], env["score"]


def approx_loglik(ctx: LikelihoodContext, theta) -> float:
    return ctx._evaluate(np.asarray(theta, dtype=float), need_score=False)["loglik"]


def score(ctx: LikelihoodContext, theta) -> np.ndarray:
    """Exact gradient of ``approx_loglik`` in theta."""
    return ctx._evaluate(np.asarray(theta, dtype=float), need_score=True)["score"]
