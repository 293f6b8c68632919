"""Two-population data generation and the Monte Carlo study harness.

Source event and censoring times are exponential.  The source covariate is
drawn given the latent event time t, with density proportional to
``q(t, z; theta_true) * q_Z(z)``: the law of T differs between populations
while the law of Z given T stays shared.  Target covariates come from q_Z.

The conditional draw is by rejection from q_Z.  Every zoo model touches z
only through ``u = z @ beta`` and is concave in u, so the envelope at t is
the log density at the model's closed-form mode ``u_mode``.  A short
random-walk Metropolis-Hastings chain takes the draws whose acceptance
stalls.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import EnvelopeFailure, LssurvError, TooManyFailures, ValidationError
from .estimator import FitOptions, fit
from .likelihood import _set_threads, usable_cores
from .models import SurvivalModel, get_model
from .schemas import plain

_LOG_HALF = math.log(0.5)
_MAX_ROUNDS = 1000   # rejection rounds before the Metropolis-Hastings chains
_PROPOSAL_SD = 0.5   # the chains' random-walk step


_SLOT_RULES = {
    "normal": (2, lambda sd: sd > 0, "mean and sd > 0"),
    "exp": (1, lambda rate: rate > 0, "rate > 0"),
    "bern": (1, lambda p: 0 < p < 1, "p in (0, 1)"),
    "const": (1, lambda value: True, "value"),
}
_SLOT_CODES = {"n": "normal", "e": "exp", "b": "bern", "const": "const"}


@dataclass(frozen=True)
class QzSpec:
    """Independent-slot covariate distribution: normal, exponential,
    Bernoulli or point-mass slots."""

    slots: tuple = (("normal", 0.0, 1.0), ("normal", 1.0, 1.0))

    def __post_init__(self):
        for kind, *args in self.slots:
            if kind not in _SLOT_RULES:
                raise ValidationError(f"unknown covariate slot kind {kind!r}")
            arity, keeps, takes = _SLOT_RULES[kind]
            finite = all(isinstance(a, numbers.Real) and math.isfinite(a) for a in args)
            if len(args) != arity or not finite or not keeps(args[-1]):
                raise ValidationError(f"{kind} slot needs a finite {takes}, got {args}")

    @property
    def d(self) -> int:
        return len(self.slots)

    @classmethod
    def from_string(cls, text: str) -> "QzSpec":
        """Parse comma-separated slots, e.g. ``"n:0,n:1:2,e:1,b:0.5,const:3"``:
        ``n:mean[:sd]`` normal (sd 1 unless given), ``e:rate`` exponential,
        ``b:p`` Bernoulli, ``const:value`` point mass."""
        slots = []
        for part in text.split(","):
            code, *args = part.strip().split(":")
            if code not in _SLOT_CODES:
                raise ValidationError(f"unknown covariate slot kind {code!r}")
            sd = [1.0] if code == "n" and len(args) == 1 else []  # the default sd
            slots.append((_SLOT_CODES[code], *map(float, args), *sd))
        return cls(tuple(slots))

    def sample(self, rng, n: int) -> np.ndarray:
        cols = []
        for slot in self.slots:
            kind = slot[0]
            if kind == "normal":
                cols.append(rng.normal(slot[1], slot[2], size=n))
            elif kind == "exp":
                cols.append(rng.exponential(1.0 / slot[1], size=n))
            elif kind == "bern":
                cols.append(rng.binomial(1, slot[1], size=n).astype(float))
            elif kind == "const":
                cols.append(np.full(n, slot[1]))
        return np.column_stack(cols) if cols else np.empty((n, 0))

    def log_pdf(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        out = np.zeros(z.shape[0])
        for col, (kind, *args) in zip(z.T, self.slots):
            if kind == "normal":
                mu, sd = args
                out += -0.5 * math.log(2 * math.pi) - math.log(sd) - (col - mu) ** 2 / (2 * sd**2)
            elif kind == "exp":
                rate = args[0]
                out += np.where(col >= 0, math.log(rate) - rate * col, -np.inf)
            elif kind == "bern":
                p = args[0]
                out += np.where(col == 1.0, math.log(p),
                                np.where(col == 0.0, math.log1p(-p), -np.inf))
            elif kind == "const":
                out += np.where(col == args[0], 0.0, -np.inf)
        return out

    def propose(self, z: np.ndarray, rng) -> np.ndarray:
        """Symmetric random-walk proposal: Gaussian steps of ``_PROPOSAL_SD``
        on continuous slots, probability-0.3 flips on Bernoulli slots."""
        z = np.array(z, dtype=float)
        for j, (kind, *_) in enumerate(self.slots):
            if kind in ("normal", "exp"):
                z[:, j] += rng.normal(0.0, _PROPOSAL_SD, size=z.shape[0])
            elif kind == "bern":
                flip = rng.uniform(size=z.shape[0]) < 0.3
                z[flip, j] = 1.0 - z[flip, j]
        return z


@dataclass(frozen=True)
class SimConfig:
    model: str = "ph-weibull"
    theta_true: tuple = (1.0, 1.0, 1.0, 1.5)
    n1: int = 500
    n2: int = 500
    qz: QzSpec = field(default_factory=QzSpec)
    pt_rate: float = 1.0
    pc_rate: float = 0.4   # exponential censoring, "mean 2.5" reading
    n_reps: int = 500
    seed: int = 0

    def __post_init__(self):
        sizes = (self.n1, self.n2, self.n_reps)
        if not (all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in sizes)
                and self.n1 >= 2 and self.n2 >= 1):
            raise ValidationError(f"need integer sizes with n1 >= 2 and n2 >= 1: n1 {self.n1!r}, "
                                  f"n2 {self.n2!r}, n_reps {self.n_reps!r}")
        if not all(math.isfinite(r) and r > 0 for r in (self.pt_rate, self.pc_rate)):
            raise ValidationError(f"need finite rates > 0: pt {self.pt_rate}, pc {self.pc_rate}")

    def theta(self) -> np.ndarray:
        return np.asarray(self.theta_true, dtype=float)


def _rep_rng(seed: int, rep: int):
    """Counter-style per-replication stream; independent of execution order."""
    return np.random.default_rng(np.random.SeedSequence((seed, rep)))


def _envelope(model, theta, ts):
    """Per-time log-supremum of the conditional density over the linear
    predictor on [-60, 60]: each zoo log density is concave in u, so it is
    the log density at the model's mode ``u_mode``, clipped to that range."""
    _, base = model.split(theta)
    ts = np.asarray(ts, dtype=float)
    return model.u_terms(ts, np.clip(model.u_mode(ts, *base), -60.0, 60.0), *base)[0] + 1e-10


def _mh_conditional(model, theta, qz: QzSpec, ts, rng, steps=50):
    """Vectorized random-walk chains from q_Z draws, targeting the conditional
    covariate law at each time; used as sampler fallback and as test oracle."""
    ts = np.asarray(ts, dtype=float)
    n = ts.shape[0]
    z = qz.sample(rng, n)
    logf = model.log_density(theta, ts, z) + qz.log_pdf(z)
    for _ in range(steps):
        zp = qz.propose(z, rng)
        logf_p = model.log_density(theta, ts, zp) + qz.log_pdf(zp)
        with np.errstate(invalid="ignore"):
            acc = np.log(rng.uniform(size=n)) < (logf_p - logf)
        acc &= np.isfinite(logf_p)
        z[acc] = zp[acc]
        logf[acc] = logf_p[acc]
    if not np.all(np.isfinite(logf)):
        raise EnvelopeFailure("non-finite conditional density after fallback chain")
    return z


def sample_z_given_t_batch(model: SurvivalModel, theta, qz: QzSpec, ts, rng):
    """Conditional covariate draws, one per entry of ``ts``."""
    theta = model.check_theta(np.asarray(theta, dtype=float), qz.d)
    ts = np.asarray(ts, dtype=float)
    n = ts.shape[0]
    beta = theta[: qz.d]
    if qz.d == 0 or not np.any(beta != 0.0):
        # density constant in z: acceptance probability is constant
        return qz.sample(rng, n)
    out = np.empty((n, qz.d))
    log_m = _envelope(model, theta, ts)
    pending = np.arange(n)
    rounds = 0
    while pending.size and rounds < _MAX_ROUNDS:
        z = qz.sample(rng, pending.size)
        logq = model.log_density(theta, ts[pending], z)
        accept = np.log(rng.uniform(size=pending.size)) < (logq - log_m[pending])
        out[pending[accept]] = z[accept]
        pending = pending[~accept]
        rounds += 1
    if pending.size:
        out[pending] = _mh_conditional(model, theta, qz, ts[pending], rng)
    return out


def sample_z_given_t(model: SurvivalModel, theta_true, qz_spec: QzSpec, t: float, rng):
    """One conditional covariate draw at the event time ``t``."""
    return sample_z_given_t_batch(model, theta_true, qz_spec, np.array([float(t)]), rng)[0]


def generate_source_latent(config: SimConfig, rng) -> dict:
    """Source generation with the latent pair retained (for diagnostics)."""
    model = get_model(config.model)
    t = rng.exponential(1.0 / config.pt_rate, size=config.n1)
    c = rng.exponential(1.0 / config.pc_rate, size=config.n1)
    x = np.minimum(t, c)
    delta = (t <= c).astype(np.int64)
    z = sample_z_given_t_batch(model, config.theta(), config.qz, t, rng)
    return {"t": t, "c": c, "x": x, "delta": delta, "z": z}

def generate_dataset(config: SimConfig, rng=None) -> Dataset:
    """Draw one two-population dataset; the latent times are discarded."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    latent = generate_source_latent(config, rng)
    z_target = config.qz.sample(rng, config.n2)
    return Dataset(latent["x"], latent["delta"], latent["z"], z_target)


@dataclass
class McReport:
    param_names: list
    theta_true: np.ndarray
    mse: np.ndarray
    bias: np.ndarray
    se: np.ndarray
    se_hat_mean: np.ndarray
    cp: np.ndarray
    n_reps: int
    n_failed: int
    failures: list
    empty_tail_warnings: int
    mean_censoring: float
    failure_counts: dict  # exception type name -> count

    def to_csv(self) -> str:
        lines = ["param,MSE,Bias,SE,SE_hat,CP"]
        for i, name in enumerate(self.param_names):
            lines.append(
                f"{name},{self.mse[i]:.6f},{self.bias[i]:.6f},{self.se[i]:.6f},"
                f"{self.se_hat_mean[i]:.6f},{self.cp[i]:.4f}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return plain({
            "params": self.param_names, "theta_true": self.theta_true, "mse": self.mse,
            "bias": self.bias, "se": self.se, "se_hat": self.se_hat_mean, "cp": self.cp,
            "diagnostics": {
                "n_reps": self.n_reps, "n_failed": self.n_failed, "failures": self.failures,
                "failure_counts": self.failure_counts,
                "empty_tail_warnings": self.empty_tail_warnings,
                "mean_censoring": self.mean_censoring},
        })


def _run_one_rep(config: SimConfig, rep: int):
    rng = _rep_rng(config.seed, rep)
    try:
        ds = generate_dataset(config, rng)
        fr = fit(config.model, ds, opts=FitOptions())
        covered = (fr.ci[:, 0] <= config.theta()) & (config.theta() <= fr.ci[:, 1])
        return {
            "rep": rep,
            "theta": fr.theta_hat,
            "se": fr.se,
            "covered": covered,
            "censoring": 1.0 - ds.delta.mean(),
            "empty_tail": sum(1 for w in fr.warnings if "dropped" in w),
        }
    except LssurvError as exc:
        return {"rep": rep, "error": f"{type(exc).__name__}: {exc}", "kind": type(exc).__name__}


def run_mc_study(config: SimConfig, n_jobs: int = 1) -> McReport:
    """Replicated generate/fit/variance cycles aggregated into a report.

    Per-replication seeds are derived from ``(config.seed, rep)`` so the
    study is reproducible and order-independent under any parallel schedule.
    """
    if config.n1 < 10 or config.n2 < 10 or config.n_reps < 2:
        raise ValidationError("Monte Carlo runs need n1, n2 >= 10 and n_reps >= 2")
    if not (isinstance(n_jobs, (int, np.integer)) and n_jobs >= 1):
        raise ValidationError(f"n_jobs must be an integer >= 1, got {n_jobs!r}")
    model = get_model(config.model)
    theta0 = config.theta()
    model.check_theta(theta0, config.qz.d)
    reps = range(config.n_reps)
    # the pool starts all its workers at once, so it gets no more than reps
    workers = min(n_jobs, config.n_reps)
    if workers > 1:
        # each worker's grid passes get its share of the cores
        share = max(1, usable_cores() // workers)
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_threads,
                                 initargs=(share,)) as ex:
            results = list(ex.map(_run_one_rep, [config] * config.n_reps, reps, chunksize=1))
    else:
        results = [_run_one_rep(config, r) for r in reps]
    results.sort(key=lambda r: r["rep"])
    good = [r for r in results if "error" not in r]
    failures = [f"rep {r['rep']}: {r['error']}" for r in results if "error" in r]
    if len(failures) > 0.10 * config.n_reps:
        raise TooManyFailures(f"{len(failures)}/{config.n_reps} replications failed")
    thetas = np.array([r["theta"] for r in good])
    ses = np.array([r["se"] for r in good])
    covered = np.array([r["covered"] for r in good])
    return McReport(
        param_names=model.param_names(config.qz.d),
        theta_true=theta0,
        mse=np.mean((thetas - theta0) ** 2, axis=0),
        bias=np.mean(thetas, axis=0) - theta0,
        se=np.std(thetas, axis=0, ddof=1),
        se_hat_mean=np.mean(ses, axis=0),
        cp=np.mean(covered, axis=0),
        n_reps=config.n_reps,
        n_failed=len(failures),
        failures=failures,
        empty_tail_warnings=int(sum(r["empty_tail"] for r in good)),
        mean_censoring=float(np.mean([r["censoring"] for r in good])),
        failure_counts=dict(Counter(r["kind"] for r in results if "error" in r)),
    )
