"""Bootstrap check of the shared-conditional-covariate assumption.

Requires (possibly censored) responses in BOTH populations, so it is a
pre-deployment validation tool, not part of the estimator itself.  The
discrepancy compares, between populations, the smoothed conditional CDF of
the covariates given the response,

    R(z, t) = d/dt P_{Z,T}(z, t) / (d/dt P_T(t)),

with the joint CDF estimated by product-limit jump weights on the event
records, the time derivative by a Gaussian kernel, and the covariate
indicator by a product of Gaussian CDFs.  The double integral over (z, t)
is replaced by an equal-weight average over the pooled observed event
points, which keeps the statistic well-defined for multivariate z.

A bootstrap resample changes only how many copies of each record it holds,
so one count-weighted product-limit pass over a block of replicates' count
columns gives their jump masses (a censored record carries no mass in any
resample).  Each population keeps one (n_events x (K + 1)) mass array over
its event records: column 0 for the sample itself, column k + 1 for
replicate k, which draws from its own generator.  One pass over blocks of
grid rows then builds both kernels of each population for those rows only,
turns every mass column into ratio estimates with two matrix products and
sums the squared differences per column: ``T_n`` and every ``T*_k`` come
from that one pass, and no (grid point x record) kernel is kept.  Both
passes hand ``likelihood.map_blocks``, the one block cutter, one width per
item (the records a replicate or a grid row spans); their blocks run in
contiguous chunks on every usable core once each chunk gets two blocks, and
their results join in block order, so the statistics do not depend on the
thread count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import special

from .data import check_records
from .errors import DegenerateBandwidth, NoEvents, ValidationError
from .likelihood import map_blocks
from .nonparam import product_limit
from .schemas import plain

_DENOM_FLOOR = 1e-10
# draws per population and replicate before a resample with no event is an error
_MAX_REDRAWS = 100


def _product_limit_masses(x, delta, counts) -> np.ndarray:
    """Product-limit jump mass per record for each column of ``counts``, the
    (n, B) copies of each record: each event time's jump is split equally
    over its event copies, once per copy; censored records carry zero."""
    _, time_of, events, _, survival = product_limit(x, delta, counts)
    share = -np.diff(survival, axis=0, prepend=1.0) / np.maximum(events, 1)
    return share[time_of] * (counts * (np.asarray(delta) == 1)[:, None])


def stute_masses(x, delta) -> np.ndarray:
    """Per-record jump share of the product-limit CDF: the jump at each
    event time split equally over tied events; censored records carry zero."""
    return _product_limit_masses(x, delta, np.ones((np.shape(x)[0], 1), dtype=np.int64))[:, 0]


def _population(x, delta, z):
    """Float times, the indicators and the covariates as an (n, d_z) array
    (a (d_z, n) array is transposed), checked as a ``Dataset`` checks them."""
    x, delta = np.asarray(x, dtype=float), np.asarray(delta)
    z = np.atleast_2d(np.asarray(z, dtype=float))
    n = x.shape[0]
    if n not in z.shape:
        raise ValidationError(f"covariates of shape {z.shape} have neither {n} rows nor {n} columns")
    check_records(x, delta, z)
    return x, delta, (z.T if z.shape[0] != n else z)


def stute_joint_cdf(x, delta, z):
    """Weighted joint measure over (z, t): atoms at the uncensored records.

    Returns (z_atoms, t_atoms, masses); total mass equals the product-limit
    CDF at the largest observation.
    """
    x, delta, z = _population(x, delta, z)
    masses = stute_masses(x, delta)
    unc = delta == 1
    return z[unc], x[unc], masses[unc]


def silverman_bandwidths(z_atoms, t_atoms) -> tuple:
    """Rule-of-thumb bandwidth per coordinate on the given points."""
    m = t_atoms.shape[0]
    factor = 0.9 * m ** (-0.2)

    def one(col):
        sd = float(np.std(col))
        iqr = float(np.subtract(*np.percentile(col, [75, 25])))
        spread = min(sd, iqr / 1.34) if iqr > 0 else sd
        return factor * spread

    h_z = np.array([one(z_atoms[:, j]) for j in range(z_atoms.shape[1])])
    h_t = one(t_atoms)
    return h_z, h_t


def _bandwidths(bandwidths, z_atoms, t_atoms) -> tuple:
    """The rule of thumb on the given points for ``None`` or "auto", else the
    given (h_z, h_t) pair: one h_z per covariate, all finite and positive."""
    if bandwidths is None or (isinstance(bandwidths, str) and bandwidths == "auto"):
        h_z, h_t = silverman_bandwidths(z_atoms, t_atoms)
    else:
        h_z, h_t = np.asarray(bandwidths[0], dtype=float), float(bandwidths[1])
    if h_z.shape != (z_atoms.shape[1],):
        raise ValidationError(f"h_z of shape {h_z.shape} for {z_atoms.shape[1]} covariate(s)")
    if not (math.isfinite(h_t) and h_t > 0 and np.all(np.isfinite(h_z) & (h_z > 0))):
        raise DegenerateBandwidth(f"bandwidths h_z={h_z}, h_t={h_t}")
    return h_z, h_t


def _ratio_rows(x_ev, z_ev, grid_z, grid_t, h_z, h_t, masses) -> np.ndarray:
    """Ratio estimates at a block of grid points, (grid_z, grid_t), per
    column of ``masses``, the (n_events,) or (n_events, B) jump masses of the
    event records at (x_ev, z_ev): both kernels are built for these grid
    points only."""
    kt = np.exp(-0.5 * ((grid_t[:, None] - x_ev[None, :]) / h_t) ** 2)
    num_w = kt
    for j in range(z_ev.shape[1]):
        num_w = num_w * special.ndtr((grid_z[:, j, None] - z_ev[None, :, j]) / h_z[j])
    floor = _DENOM_FLOOR * h_t * math.sqrt(2 * math.pi)
    return (num_w @ masses) / np.maximum(kt @ masses, floor)


@dataclass
class RatioEstimate:
    grid_z: np.ndarray
    grid_t: np.ndarray
    values: np.ndarray
    bandwidth_z: np.ndarray
    bandwidth_t: float


def ratio_estimate(x, delta, z, bandwidths="auto", grid=None) -> RatioEstimate:
    """Smoothed conditional covariate CDF given the response, on a grid of
    (z, t) points.  ``bandwidths`` is "auto" (rule of thumb on the event
    atoms) or a pair (h_z_vector, h_t).
    """
    z_atoms, t_atoms, masses = stute_joint_cdf(x, delta, z)
    if grid is None:
        grid_z, grid_t = z_atoms, t_atoms
    else:
        grid_z, grid_t = grid
        grid_z = np.atleast_2d(np.asarray(grid_z, dtype=float))
        grid_t = np.asarray(grid_t, dtype=float)
        m, d_z = grid_t.size, z_atoms.shape[1]
        if m == 0 or grid_t.shape != (m,) or grid_z.shape != (m, d_z):
            raise ValidationError(f"grid of shapes {grid_z.shape} and {grid_t.shape}, "
                                  f"need (m, {d_z}) and (m,) with m >= 1")
        if not (np.isfinite(grid_z).all() and np.isfinite(grid_t).all()):
            raise ValidationError("grid points must be finite")
    h_z, h_t = _bandwidths(bandwidths, z_atoms, t_atoms)
    values = np.concatenate(map_blocks(
        lambda g: _ratio_rows(t_atoms, z_atoms, grid_z[g], grid_t[g], h_z, h_t, masses),
        np.full(grid_t.shape[0], t_atoms.shape[0])))
    return RatioEstimate(
        grid_z=grid_z, grid_t=grid_t, values=values, bandwidth_z=h_z, bandwidth_t=h_t
    )


@dataclass
class ShiftTestResult:
    t_n: float
    critical_value: float
    p_value: float
    reject: bool
    K: int
    alpha: float
    seed: int | None
    redraws: int
    bandwidth_z: np.ndarray
    bandwidth_t: float

    def to_json_dict(self) -> dict:
        return plain(asdict(self))


def _draw_counts(delta, rng):
    """Copies per record of one resample with at least one event, and the
    number of resamples with none drawn (and drawn again) before it."""
    n = delta.shape[0]
    for redraws in range(_MAX_REDRAWS):
        idx = rng.integers(0, n, size=n)
        if np.any(delta[idx] == 1):
            return np.bincount(idx, minlength=n), redraws
    raise NoEvents(f"{_MAX_REDRAWS} resamples in a row held no event")


def _statistics(pops, own_masses, grid_z, grid_t, h_z, h_t, K, seed):
    """``T_n``, the statistics ``T*_k`` of replicates 0..K-1 and the number
    of no-event redraws, for two populations in the arrays of
    ``_population`` with their ``stute_masses``.  Replicate k draws P, then
    Q, from its own generator; its jump masses are column k + 1 of each
    population's mass array, the sample's own column 0."""
    events = [np.flatnonzero(delta == 1) for _, delta, _ in pops]
    masses = [np.empty((ev.size, K + 1)) for ev in events]
    for ev, m, own in zip(events, masses, own_masses):
        m[:, 0] = own[ev]

    def replicates(block):
        rngs = [np.random.default_rng(np.random.SeedSequence((seed, k))) for k in range(K)[block]]
        draws = [[_draw_counts(delta, rng) for _, delta, _ in pops] for rng in rngs]
        for (x, delta, _), ev, m, pop_draws in zip(pops, events, masses, zip(*draws)):
            counts = np.column_stack([c for c, _ in pop_draws])
            m[:, block.start + 1:block.stop + 1] = _product_limit_masses(x, delta, counts)[ev]
        return sum(r for rng_draws in draws for _, r in rng_draws)

    redraws = sum(map_blocks(replicates, np.full(K, max(x.shape[0] for x, _, _ in pops))))

    def grid_rows(g):
        rp, rq = (_ratio_rows(x[ev], z[ev], grid_z[g], grid_t[g], h_z, h_t, m)
                  for (x, _, z), ev, m in zip(pops, events, masses))
        return np.sum((rp - rq) ** 2, axis=0)

    sums = sum(map_blocks(grid_rows, np.full(grid_t.shape[0], max(ev.size for ev in events))))
    stats = sums / grid_t.shape[0]
    return float(stats[0]), stats[1:], redraws


def label_shift_test(
    pop_p, pop_q, K: int = 200, alpha: float = 0.05, seed=None, bandwidths=None
) -> ShiftTestResult:
    """Bootstrap test of equality of the two conditional covariate laws.

    ``pop_p`` and ``pop_q`` are (x, delta, z) triples of censored samples.
    The critical value is the (1 - alpha) quantile of the recentred
    bootstrap statistics T*_n - T_n.  ``bandwidths`` overrides the pooled
    rule-of-thumb choice with a fixed (h_z, h_t) pair.  A resample with no
    event is drawn again; ``NoEvents`` after ``_MAX_REDRAWS`` such draws.
    """
    if isinstance(K, bool) or not isinstance(K, (int, np.integer)):
        raise ValidationError(f"bootstrap needs an integer K, got {K!r}")
    if K < 50:
        raise ValidationError("bootstrap needs K >= 50 replicates")
    if not 0 < alpha < 1:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    pops = [_population(*pop) for pop in (pop_p, pop_q)]
    if pops[0][2].shape[1] != pops[1][2].shape[1]:
        raise ValidationError("populations disagree on covariate dimension")

    own_masses = [stute_masses(x, delta) for x, delta, _ in pops]
    grid_z = np.vstack([z[delta == 1] for _, delta, z in pops])
    grid_t = np.concatenate([x[delta == 1] for x, delta, _ in pops])
    h_z, h_t = _bandwidths(bandwidths, grid_z, grid_t)
    seed_eff = seed if seed is not None else int(np.random.default_rng().integers(2**62))
    t_n, t_star, redraws = _statistics(pops, own_masses, grid_z, grid_t, h_z, h_t, K, seed_eff)
    recentred = t_star - t_n
    critical = float(np.quantile(recentred, 1.0 - alpha))
    p_value = float(np.mean(recentred >= t_n))
    return ShiftTestResult(
        t_n=t_n,
        critical_value=critical,
        p_value=p_value,
        reject=bool(t_n > critical),
        K=K,
        alpha=alpha,
        seed=seed if isinstance(seed, int) else None,
        redraws=redraws,
        bandwidth_z=h_z,
        bandwidth_t=h_t,
    )
