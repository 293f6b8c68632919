"""Maximization of the approximated likelihood and downstream inference.

Positive parameter slots are log-transformed so the search is unconstrained;
the analytic score is mapped through the chain rule.  One BFGS run from the
source-only start decides: its end point converges when the score, read slot
by slot with a positive slot below 1 in log coordinates, is within
tolerance, and raises ``NonConvergence`` otherwise.  There is no restart and
no second optimizer.  Both use the one ``LikelihoodContext`` built per fit,
which the variance then reads at the maximizer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import integrate, optimize

from .data import Dataset
from .errors import (
    DomainError,
    DomainEscape,
    LssurvError,
    NonConvergence,
    NumericalUnderflow,
    QuadratureFailure,
    SchemaError,
    ValidationError,
)
from .likelihood import LikelihoodContext
from .models import REGISTRY_ORDER, SurvivalModel, full_gradient, get_model
from .schemas import FIT_SCHEMA, plain
from .variance import asymptotic_variance

Z975 = 1.96

# the errors that mean "the likelihood cannot be evaluated at this theta"
_UNEVALUABLE = (NumericalUnderflow, DomainError, DomainEscape, FloatingPointError)


@dataclass
class FitOptions:
    grad_tol: float = 1e-6
    max_iter: int = 500
    skip_variance: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValidationError(f"grad_tol must be finite and > 0, got {self.grad_tol}")
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise ValidationError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass
class FitResult:
    model_name: str
    param_names: list
    theta_hat: np.ndarray
    loglik: float
    sigma_hat: np.ndarray | None
    se: np.ndarray | None
    ci: np.ndarray | None          # (d, 2)
    converged: bool
    iterations: int
    grad_norm: float
    warnings: list = field(default_factory=list)
    n0: int = 0
    d_z: int = 0

    def to_json_dict(self) -> dict:
        sigma = None if self.sigma_hat is None else self.sigma_hat.ravel()
        return plain({
            "model": self.model_name, "params": self.param_names, "theta": self.theta_hat,
            "se": self.se, "ci": self.ci, "loglik": self.loglik, "sigma": sigma,
            "d_theta": len(self.theta_hat), "d_z": self.d_z, "n0": self.n0,
            "convergence": {"converged": self.converged, "iterations": self.iterations,
                            "grad_norm": self.grad_norm, "warnings": self.warnings},
        })

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FitResult":
        conv_keys = FIT_SCHEMA["properties"]["convergence"]["required"]
        missing = [key for key in FIT_SCHEMA["required"] if key not in doc] or [
            f"convergence.{key}" for key in conv_keys if key not in doc["convergence"]]
        if missing:
            raise SchemaError(f"fit document lacks {', '.join(missing)}")
        for key, low in (("d_theta", 1), ("d_z", 0), ("n0", 1)):
            if not (type(doc[key]) is int and doc[key] >= low):
                raise SchemaError(f"fit document's {key} is {doc[key]!r}, "
                                  f"not a {('non-negative', 'positive')[low]} integer")
        d = doc["d_theta"]
        if len(doc["params"]) != d:
            raise SchemaError(f"fit document's params holds {len(doc['params'])} entries, not {d}")
        theta, sigma, se, ci = (_document_array(doc, key, shape) for key, shape in (
            ("theta", (d,)), ("sigma", (d, d)), ("se", (d,)), ("ci", (d, 2))))
        conv = doc["convergence"]
        return cls(
            model_name=doc["model"],
            param_names=list(doc["params"]),
            theta_hat=theta,
            loglik=float(doc["loglik"]),
            sigma_hat=sigma,
            se=se,
            ci=ci,
            converged=conv["converged"],
            iterations=conv["iterations"],
            grad_norm=conv["grad_norm"],
            warnings=list(conv["warnings"]),
            n0=doc["n0"],
            d_z=doc["d_z"],
        )


def _document_array(doc: dict, key: str, shape: tuple):
    """A fit document's array ``doc[key]`` of ``shape`` finite numbers
    (``sigma`` is stored flat), or None where an optional one is null."""
    if doc[key] is None and key != "theta":
        return None
    try:
        arr = np.array(doc[key], dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(f"fit document's {key} is not an array of numbers") from None
    if arr.size != math.prod(shape) or (key != "sigma" and arr.shape != shape):
        held = " x ".join(map(str, arr.shape or (1,)))
        raise SchemaError(f"fit document's {key} holds {held} entries, not "
                          f"{' x '.join(map(str, shape))}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"fit document's {key} holds a non-finite number")
    return arr.reshape(shape)


def _transforms(model: SurvivalModel, d_z: int):
    pos = model.positive_mask(d_z)

    def to_eta(theta):
        eta = np.array(theta, dtype=float)
        eta[pos] = np.log(eta[pos])
        return eta

    def to_theta(eta):
        theta = np.array(eta, dtype=float)
        if np.any(np.abs(theta[pos]) > 700):
            raise DomainEscape("parameter escaped to the domain boundary")
        theta[pos] = np.exp(theta[pos])
        return theta

    def jac_diag(theta):
        j = np.ones_like(theta)
        j[pos] = theta[pos]
        return j

    return to_eta, to_theta, jac_diag


def _source_objective(model: SurvivalModel, dataset: Dataset):
    """The censored source-only negative log-likelihood and its exact
    gradient as a function of ``fit``'s log coordinates: the model's
    ``terms`` at the events and ``log_survival_terms`` at the censorings.
    ``(inf, 0)`` where it cannot be evaluated, as in ``fit``."""
    x, delta, z = dataset.x, dataset.delta, dataset.z_source
    _, to_theta, jac_diag = _transforms(model, dataset.d_z)
    unc = delta == 1
    parts = ((model.terms, x[unc], z[unc]), (model.log_survival_terms, x[~unc], z[~unc]))

    def nll(eta):
        try:
            theta = to_theta(eta)
            model.check_theta(theta, dataset.d_z)
            ll, grad = 0.0, 0.0
            for kernel, t, zr in parts:
                val, cells = kernel(theta, t, zr, 1)
                ll += float(np.sum(val))
                grad = grad + full_gradient(cells).sum(axis=0)
        except _UNEVALUABLE:
            return np.inf, np.zeros_like(eta)
        if not (np.isfinite(ll) and np.all(np.isfinite(grad))):
            return np.inf, np.zeros_like(eta)
        return -ll, -grad * jac_diag(theta)

    return nll


def source_only_mle(model: SurvivalModel, dataset: Dataset) -> np.ndarray:
    """Censored maximum likelihood on the source sample alone.

    Consistent for theta when there is no shift; in general a starting
    point close enough to the basin of the full objective.  BFGS on the
    exact gradient (``_source_objective``), in the same log coordinates as
    ``fit``, from the model's ``default_init``.
    """
    theta0 = model.default_init(dataset.x, dataset.delta, dataset.z_source)
    to_eta, to_theta, _ = _transforms(model, dataset.d_z)
    nll = _source_objective(model, dataset)
    # a line-search step far out may overflow a kernel; nll is then inf
    with np.errstate(invalid="ignore", over="ignore"):
        res = optimize.minimize(nll, to_eta(theta0), jac=True, method="BFGS")
    try:
        theta = to_theta(res.x)
        model.check_theta(theta, dataset.d_z)
    except (DomainEscape, DomainError):
        return np.asarray(theta0, dtype=float)
    if np.max(np.abs(theta)) > 100.0:
        # a runaway source-only fit (e.g. a flat direction near an excluded
        # point) is a worse start than the crude moment initializer
        return np.asarray(theta0, dtype=float)
    return theta


def fit(model, dataset: Dataset, init="auto", opts: FitOptions | None = None) -> FitResult:
    """Maximize the approximated log-likelihood and assemble inference.

    ``model`` may be a registry name or a SurvivalModel instance;
    ``init`` is a parameter vector or ``"auto"`` (source-only MLE start).
    """
    if isinstance(model, str):
        model = get_model(model)
    opts = opts or FitOptions()
    ctx = LikelihoodContext(model, dataset)
    warnings = []
    if ctx.n_dropped:
        warnings.append(f"dropped {ctx.n_dropped} censored record(s) beyond the last event")

    if isinstance(init, str) and init == "auto":
        theta0 = source_only_mle(model, dataset)
    else:
        theta0 = model.check_theta(np.asarray(init, dtype=float), dataset.d_z)
    to_eta, to_theta, jac_diag = _transforms(model, dataset.d_z)

    def neg(eta):
        try:
            theta = to_theta(eta)
            ll, sc = ctx.value_and_score(theta)
        except _UNEVALUABLE:
            return np.inf, np.zeros_like(eta)
        return -ll, -sc * jac_diag(theta)

    def stationarity(theta, sc):
        """Sup-norm of the score with each positive slot below 1 scored in
        log coordinates: at a rate near 0 the theta-space score has a
        rounding floor of about n * eps / theta."""
        return float(np.max(np.abs(sc) * np.minimum(1.0, jac_diag(theta))))

    res = optimize.minimize(
        neg,
        to_eta(theta0),
        jac=True,
        method="BFGS",
        options={"gtol": 0.2 * opts.grad_tol, "maxiter": opts.max_iter},
    )
    iterations = int(res.nit)
    try:
        theta = to_theta(res.x)
        ll, sc = ctx.value_and_score(theta)
    except _UNEVALUABLE as exc:
        raise DomainEscape(f"optimizer left the parameter domain: {exc}") from exc
    grad_norm = stationarity(theta, sc)
    converged = grad_norm <= opts.grad_tol
    if not converged:
        raise NonConvergence(
            f"gradient sup-norm {grad_norm:.3g} above tolerance {opts.grad_tol:g} "
            f"after {iterations} iterations"
        )

    sigma = se = ci = None
    if not opts.skip_variance:
        sigma, _ = asymptotic_variance(ctx, theta)
        se = np.sqrt(np.maximum(np.diag(sigma), 0.0) / dataset.n0)
        ci = np.stack([theta - Z975 * se, theta + Z975 * se], axis=1)
    return FitResult(
        model_name=model.name,
        param_names=model.param_names(dataset.d_z),
        theta_hat=theta,
        loglik=ll,
        sigma_hat=sigma,
        se=se,
        ci=ci,
        converged=converged,
        iterations=iterations,
        grad_norm=grad_norm,
        warnings=warnings,
        n0=dataset.n0,
        d_z=dataset.d_z,
    )


def conditional_functional(model, fit_result: FitResult, z, g, points=None):
    """Plug-in estimate of E[g(T) | Z=z] in the target population with a
    delta-method standard error.

    Returns (zeta_hat, se, ci).  ``points`` marks integrand breakpoints
    (indicator or kink locations, each finite and > 0) to split the
    quadrature at.  One kept ``terms`` call per node gives ``g q`` and ``g q
    grad log q`` to the zeta quadrature and the d gradient quadratures.
    """
    if isinstance(model, str):
        model = get_model(model)
    if model.name != fit_result.model_name:
        raise ValidationError(f"a {fit_result.model_name} fit read as {model.name}")
    if fit_result.sigma_hat is None:
        raise ValidationError("fit result carries no covariance; rerun without skip_variance")
    d_z = fit_result.d_z
    theta = model.check_theta(fit_result.theta_hat, d_z)
    z = np.asarray(z, dtype=float)
    if z.shape != (d_z,) or not np.all(np.isfinite(z)):
        raise ValidationError(f"z must be {d_z} finite covariate values, got {z.tolist()}")
    points = sorted(float(p) for p in ([] if points is None else points))
    if not all(math.isfinite(p) and p > 0 for p in points):
        raise ValidationError(f"breakpoints must be finite and > 0, got {points}")
    edges = [0.0] + points + [np.inf]

    @functools.lru_cache(maxsize=None)
    def node(t):
        lq, cells = model.terms(theta, t, z, 1)
        gq = g(t) * float(np.exp(lq))
        return gq, gq * full_gradient(cells)

    def checked(f, what):
        val = err = 0.0
        try:
            for a, b in zip(edges[:-1], edges[1:]):
                v, e = integrate.quad(f, a, b, limit=200)
                val += v
                err += e
        except Exception as exc:
            raise QuadratureFailure(str(exc)) from exc
        if not math.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
            raise QuadratureFailure(f"{what} {val:.6g} with error estimate {err:.3g}")
        return val

    zeta = checked(lambda t: node(t)[0], "integral")
    gamma = np.empty(theta.shape[0])
    for s in range(gamma.size):
        gamma[s] = checked(lambda t, s=s: float(node(t)[1][s]), f"gradient integral {s}")
    var = float(gamma @ fit_result.sigma_hat @ gamma) / fit_result.n0
    se = math.sqrt(max(var, 0.0))
    return zeta, se, (zeta - Z975 * se, zeta + Z975 * se)


def bic_criterion(loglik_sum: float, n_total: int, d_theta: int) -> float:
    """-2 * summed log-likelihood + log(n) * d, the relative selection score."""
    return -2.0 * loglik_sum + math.log(n_total) * d_theta


@dataclass
class SelectionReport:
    criteria: dict
    chosen: str
    split_seed: int | None
    split_frac: float
    inference_source_idx: np.ndarray
    inference_target_idx: np.ndarray
    warnings: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return plain(asdict(self))


def bic_select(models, dataset: Dataset, split_frac: float = 0.2, seed=None) -> SelectionReport:
    """Split-sample model selection.

    Source and target rows are split independently; each candidate is fit on
    the selection part and scored by ``bic_criterion`` with n equal to the
    selection-part total size.  Ties keep registry order; failed fits are
    excluded and recorded.
    """
    models = [get_model(m) if isinstance(m, str) else m for m in models]
    if len(models) < 2:
        raise ValidationError("need at least two candidate models")
    if not 0 < split_frac < 1:
        raise ValidationError(f"split_frac must lie in (0, 1), got {split_frac}")
    rng = np.random.default_rng(seed)
    n1, n2 = dataset.n1, dataset.n2
    n1_sel, n2_sel = int(round(split_frac * n1)), int(round(split_frac * n2))
    perm1 = rng.permutation(n1)
    perm2 = rng.permutation(n2)
    sel1, inf1 = np.sort(perm1[:n1_sel]), np.sort(perm1[n1_sel:])
    sel2, inf2 = np.sort(perm2[:n2_sel]), np.sort(perm2[n2_sel:])
    events, d_max = int(dataset.delta[sel1].sum()), max(m.d_theta(dataset.d_z) for m in models)
    if n2_sel == 0 or events <= d_max:
        raise ValidationError(f"split {split_frac} selects on {n2_sel} target records and {events} "
                              f"source events; need one and more than {d_max}")
    if dataset.delta[inf1].sum() < 2:
        raise ValidationError("split leaves fewer than 2 source events to infer on")
    sel_data = dataset.take(sel1, sel2)
    n_sel_total = n1_sel + n2_sel

    criteria = {}
    warnings = []
    for m in models:
        try:
            fr = fit(m, sel_data, opts=FitOptions(skip_variance=True))
            criteria[m.name] = bic_criterion(fr.loglik * n1_sel, n_sel_total, m.d_theta(dataset.d_z))
        except LssurvError as exc:
            criteria[m.name] = None
            warnings.append(f"{m.name}: {exc}")
    valid = {k: v for k, v in criteria.items() if v is not None}
    if not valid:
        raise NonConvergence("every candidate model failed to fit")
    best = min(valid.values())
    ordering = REGISTRY_ORDER + [m.name for m in models if m.name not in REGISTRY_ORDER]
    chosen = next(name for name in ordering if valid.get(name) == best)
    return SelectionReport(
        criteria=criteria,
        chosen=chosen,
        split_seed=seed if isinstance(seed, int) else None,
        split_frac=split_frac,
        inference_source_idx=inf1,
        inference_target_idx=inf2,
        warnings=warnings,
    )
