"""The approximated two-population log-likelihood and its exact gradient.

For a parameter vector theta the objective is the source average of

* ``log q(x_i, z_i)`` for events,
* minus ``log qhat(x_i)``, the target-averaged density at the event time,
* plus, for censored records, the log of the jump-weighted tail sum
  ``sum_{t_k > x_i} w_k q(t_k, z_i) / qhat(t_k)``

where ``w_k`` are the product-limit jumps of the source event-time CDF and
``qhat(t) = mean_j q(t, z_j)`` over the target covariates.  Everything is
evaluated in log space; ratios are formed through normalized weights so the
gradient is exact and stable.

Both (event time x record) grids are walked in blocks of at most
``_BLOCK_CELLS`` cells, one ``terms`` call per block, each contracted at
once: the target grid in blocks of event-time rows (``grid_blocks``), since
its log-sums run over records, and the censored grid in blocks of record
columns (``tail_blocks``), since its tail log-sums run over event times.  The
kept censored records are sorted by time, so each one's tail is a suffix of
the event-time rows and a column block starts at its first record's tail
row: only that staircase is evaluated, not the whole rectangle.  Every
block's log-sum is complete, so the block size changes no formula.  An
evaluation keeps no grid: only the per-row and per-record results.

A pass hands its blocks to ``map_blocks``, which splits them into contiguous
chunks, one per thread, when every chunk gets at least two blocks: the
calling thread runs chunk 0 and a pool of ``threads - 1`` workers, created
on first use, runs the rest.  ``threads`` is the number of CPUs the process
may run on (``usable_cores``); a Monte Carlo worker process gets its share.
Each block writes only its own rows or columns and returns its partials in
block order, so the results do not depend on the thread count.  Smaller
passes, and passes started from a pool thread, run as a plain loop.

Censored records with no event time beyond them have an undefined tail term
and are dropped with a warning count (the product-limit tail carries no
mass there).
"""

from __future__ import annotations

import contextvars
import logging
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .data import Dataset
from .errors import EmptyTail, NumericalUnderflow
from .models import SurvivalModel, full_gradient
from .nonparam import kaplan_meier

logger = logging.getLogger("lssurv")

_LOG_FLOOR = math.log(1e-300)

# cells per block of a grid pass: 512 KiB per float64 temporary, so the
# temporaries of one block stay in cache
_BLOCK_CELLS = 1 << 16

# float64 temporaries a block of a second-order pass may hold at once
_BLOCK_TEMPORARIES = 16


def grid_blocks(n_rows, n_cols):
    """Slices of at most ``_BLOCK_CELLS`` cells, and at least one row, over
    the rows of an (n_rows, n_cols) grid: as few blocks as that budget
    allows, their row counts differing by at most one."""
    step = max(1, _BLOCK_CELLS // max(n_cols, 1))
    n_blocks = -(-n_rows // step)
    return [slice(n_rows * i // n_blocks, n_rows * (i + 1) // n_blocks) for i in range(n_blocks)]


def tail_blocks(tail_start, n_rows):
    """Slices over records whose tails are the rows from ``tail_start``
    (non-decreasing) to ``n_rows``: each block covers the rows from its
    first record's tail start, at most ``_BLOCK_CELLS`` cells of them and at
    least one record."""
    blocks, a = [], 0
    while a < len(tail_start):
        b = a + max(1, _BLOCK_CELLS // (n_rows - int(tail_start[a])))
        blocks.append(slice(a, min(b, len(tail_start))))
        a = b
    return blocks


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


def map_blocks(fn, blocks):
    """``[fn(b) for b in blocks]``, in block order.

    When every chunk gets at least two blocks, the blocks are split into
    contiguous chunks, one per thread: the calling thread runs chunk 0 and
    the grid pool the others, each in a copy of the caller's context, so a
    caller's ``np.errstate`` holds in every chunk.  Every chunk runs to its
    end before the first exception, in chunk order, is raised as it is.
    Otherwise, and when called from a pool thread, this is the plain loop."""
    threads = _threads or usable_cores()
    n_chunks = min(threads, len(blocks) // 2)
    if n_chunks < 2 or getattr(_in_pool, "active", False):
        return _run_chunk(fn, blocks)
    cuts = [len(blocks) * i // n_chunks for i in range(n_chunks + 1)]
    chunks = [blocks[a:b] for a, b in zip(cuts, cuts[1:])]
    pool = _grid_pool(threads - 1)
    futures = [pool.submit(contextvars.copy_context().run, _run_chunk, fn, chunk)
               for chunk in chunks[1:]]
    results, errors = [], []
    try:
        results += _run_chunk(fn, chunks[0])
    except Exception as exc:
        errors.append(exc)
    for future in futures:
        exc = future.exception()
        if exc is None:
            results += future.result()
        else:
            errors.append(exc)
    if errors:
        raise errors[0]
    return results


def _check(logs, what):
    if np.any(logs < _LOG_FLOOR) or not np.all(np.isfinite(logs)):
        raise NumericalUnderflow(f"{what} underflow")


def log_sum_weights(a, axis, mask=None):
    """``log sum exp(a)`` along ``axis`` and the normalized weights
    ``exp(a - logsum)`` from one max-shifted ``exp``, formed in ``a`` itself;
    entries outside ``mask`` count as ``-inf`` (weight 0)."""
    if mask is not None:
        np.copyto(a, -np.inf, where=~mask)
    m = np.max(a, axis=axis, keepdims=True)
    a -= m
    np.exp(a, out=a)
    total = a.sum(axis=axis, keepdims=True)
    a /= total
    return np.squeeze(m + np.log(total), axis=axis), a


def contract_records(factors, W):
    """``sum_j W[..., j] * grad[..., j, :]`` for the density gradient on a
    grid whose last axis runs over records, from its ``terms`` factors: the
    regression block is one matrix product, the baseline block one weighted
    sum per slot, and the full gradient grid is never formed."""
    g_u, g_base, zr = factors
    base = [np.einsum("...j,...j->...", W, g) for g in g_base]
    return np.concatenate([(W * g_u) @ zr, np.stack(base, axis=-1)], axis=-1)


def contract_times(factors, W):
    """``sum_k W[k, j] * grad[k, j, :]`` over the event times of an (event
    time x record) grid, one row per record, from its ``terms`` factors."""
    g_u, g_base, zr = factors
    base = [np.einsum("kj,kj->j", W, g) for g in g_base]
    return np.concatenate([(W * g_u).sum(axis=0)[:, None] * zr, np.stack(base, axis=-1)], axis=-1)


def contract_hessian(factors, second, V):
    """``sum V * (H + g g^T)`` over a grid whose last axis runs over records,
    from its first- and second-order ``terms`` factors: the regression block is
    ``zr^T diag(colsum) zr``, the regression-baseline block one column-sum
    product with ``zr`` per slot and the baseline block plain sums, so no
    (..., d, d) array is formed."""
    g_u, g_b, zr = factors
    h_uu, h_ub, h_bb = second
    lead = tuple(range(np.ndim(V) - 1))

    def per_record(a):
        return np.sum(V * a, axis=lead)

    d_z, nb = zr.shape[-1], len(g_b)
    out = np.empty((d_z + nb, d_z + nb))
    out[:d_z, :d_z] = zr.T @ (per_record(h_uu + g_u * g_u)[:, None] * zr)
    for s in range(nb):
        out[:d_z, d_z + s] = out[d_z + s, :d_z] = zr.T @ per_record(h_ub[s] + g_u * g_b[s])
        for r in range(s, nb):
            out[d_z + s, d_z + r] = out[d_z + r, d_z + s] = np.sum(V * (h_bb[s][r] + g_b[s] * g_b[r]))
    return out


class LikelihoodContext:
    """Data-dependent, theta-independent scaffolding plus a one-slot cache
    of the last evaluated theta.

    The kept censored records (``cens_idx``) run in time order, so record
    m's tail is the event-time rows from ``tail_start[m]`` on.  The
    evaluation at the maximizer is also the state the sandwich variance
    reads: beside the product-limit fit and the kept censored records, it
    keeps ``lqhat`` and the tail log-sums ``cens_logsum`` (from which the
    variance's one pass recomputes the target and tail weights block by
    block) and, with the score, ``qstar_ratio`` and the score rows ``psi``
    (``psi3_cens`` censored); no (event time x record) array.
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
        self.cens_idx_all = np.flatnonzero(delta == 0)
        self.k_of_unc = np.searchsorted(self.tk, dataset.x[self.unc_idx])
        # censored records with at least one event time strictly beyond them
        tail_ok = dataset.x[self.cens_idx_all] < self.tk[-1]
        kept = self.cens_idx_all[tail_ok]
        self.n_dropped = int((~tail_ok).sum())
        if self.n_dropped:
            logger.debug(
                "dropping %d censored record(s) beyond the last event time", self.n_dropped
            )
        if self.unc_idx.size == 0 and kept.size == 0:
            raise EmptyTail("no usable source contribution")
        by_time = np.argsort(dataset.x[kept], kind="stable")
        self.cens_idx = kept[by_time]
        # first event time strictly beyond each kept censored record
        self.tail_start = np.searchsorted(self.tk, dataset.x[self.cens_idx], side="right")
        self.cens_by_record = np.argsort(by_time)
        self._cache_key = None
        self._cache_val = None
        # glibc raises its dynamic mmap threshold to the size of a freed
        # mmapped chunk, and its trim threshold to twice that: one chunk the
        # size of a block's temporaries, freed at once, keeps the blocks'
        # freed temporaries in the heap for the next block, instead of handed
        # back to the kernel and faulted in again.  This is the package's one
        # heap rule, in Monte Carlo worker processes as in the caller's.
        np.empty(_BLOCK_TEMPORARIES * _BLOCK_CELLS)

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
            lse, wt = log_sum_weights(block[0], axis=1)          # rows sum to 1
            lqhat[k] = lse - math.log(ds.n2)
            _check(lqhat[k], "target-averaged density")
            if need_score:
                qstar_ratio[k] = contract_records(block[1], wt)

        map_blocks(target_rows, grid_blocks(K, ds.n2))

        own = model.terms(theta, ds.x[self.unc_idx], ds.z_source[self.unc_idx], order)
        _check(own[0], "event density")

        # censored grid in blocks of record columns, each from its first
        # record's tail row on: each tail log-sum is complete within its block
        x_cens, z_cens = ds.x[self.cens_idx], ds.z_source[self.cens_idx]
        cens_logsum, psi3 = np.empty(n_c), np.zeros((n_c, d))

        def censored_columns(m):
            k = slice(self.tail_start[m.start], K)
            block = model.terms(theta, self.tk[k, None], z_cens[m], order)
            cens_logsum[m], tw = log_sum_weights(                  # columns sum to 1
                self.logw[k, None] + block[0] - lqhat[k, None], axis=0,
                mask=self.tk[k, None] > x_cens[m])
            _check(cens_logsum[m], "censored tail")
            if need_score:
                psi3[m] = contract_times(block[1], tw) - tw.T @ qstar_ratio[k]

        map_blocks(censored_columns, tail_blocks(self.tail_start, K))

        contrib = np.zeros(ds.n1)
        contrib[self.unc_idx] = own[0] - lqhat[self.k_of_unc]
        contrib[self.cens_idx] = cens_logsum
        loglik = math.fsum(contrib) / ds.n1

        env = {
            "theta": theta,
            "lqhat": lqhat,
            "cens_logsum": cens_logsum,
            "loglik": loglik,
        }
        if need_score:
            psi = np.zeros((ds.n1, d))                               # per-record score rows
            unc_rows = full_gradient(own[1]) - qstar_ratio[self.k_of_unc]
            psi[self.unc_idx] = unc_rows
            psi[self.cens_idx] = psi3
            env["qstar_ratio"] = qstar_ratio
            env["psi3_cens"] = psi3
            env["psi"] = psi
            env["score"] = (unc_rows.sum(axis=0) + psi3[self.cens_by_record].sum(axis=0)) / ds.n1
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
