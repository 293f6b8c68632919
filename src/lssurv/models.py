"""Parametric conditional event-time models q(t | z; theta).

The model contract.  Every zoo model depends on the covariates only through
the linear predictor ``u = z @ beta``, so it is written once, in u-space.  A
zoo model declares its baseline slot names (``baseline``), the ones
constrained to (0, inf) (``positive``), and supplies three functions,
``base`` being the baseline scalars:

* ``u_terms(t, u, *base, order)``, one kernel for the log density ``l``,
  ``[l]`` at ``order=0``, a cell array (the broadcast shape of ``t`` and
  ``u``).  Its partials are not cell arrays.  Each one, up to order 2, is a
  polynomial in three things: one *cell feature* ``F``, a cell array the
  kernel returns; ``L = log t``, a function of the event time alone (a
  grid's row); and ``U = u``, a function of the record alone (a grid's
  column).  Its coefficients depend on the baseline only.  So ``order=1``
  appends the feature and the gradient ``(dl/du, dl/dbase_1, ...)`` as
  ``Poly`` objects written with this module's ``F``, ``L`` and ``U``, and
  ``order=2`` appends the upper triangle of the Hessian by rows,
  ``((d2l/du2, d2l/du dbase_1, ...), (d2l/dbase_1^2, ...), ...)``.  The
  preamble (``log t`` and the one capped ``exp``) runs once per call, and
  each order appends its entries without changing the lower ones;
* ``u_log_survival(t, u, *base, order)``, the log survival function in the
  same layout up to ``order=1`` (its own feature), from the same preamble
  and capped ``exp`` as ``u_terms``, so it stays finite wherever
  ``u_terms`` does;
* ``u_mode(t, *base)``: the u at which the log density peaks, the zero of
  its feature (every zoo kernel is concave in u), in closed form.

Picking the feature.  The feature is the one cell array the partials need
beyond ``log t`` and ``u``: the capped ``exp`` term, or an affine map of
it.  Take the map that makes ``dl/du`` the feature itself (up to a
constant factor), so that no contracted sum is the difference of two large
sums that nearly cancel: ``ph-weibull``'s ``dl/du`` is ``1 - He``, so its
feature is ``1 - He``, and its regression score is one weighted sum of it,
not ``sum W z - sum W He z``.  The features are ``1 - He``
(``ph-weibull``), ``1 - H`` (``ah-weibull``), ``lam t e^-u - 1``
(``aft-exponential``), ``1 - 2G`` with ``G = expit(log H + u)``
(``po-loglogistic``) and ``s`` (``aft-lognormal``).

``SurvivalModel`` derives the rest: the parameter layout (``beta_1 ..
beta_{d_z}`` followed by the baseline block), and from theta and z (split
and ``u`` formed once per call) ``terms``, the one theta-space entry point
through which the likelihood, the sandwich and the functionals contract
(event time x record) grids: ``[l]``, or ``[l, Cells]`` from ``order=1`` on,
the feature with its coefficient tables over the powers of ``log t`` (the
row basis) and of ``u`` (the column basis).  Also ``log_survival_terms``,
its log-survival counterpart, which gives the source-only start its exact
gradient, plus ``log_density``, ``log_density_grad`` (regression block
``(dl/du) * z``) and ``survival`` (``exp(log S)``).
Per-record rows (own events, quadrature nodes) expand the tables through
``expand``.

A model that is not a function of a linear predictor overrides the layout
(``d_theta``, ``param_names``, ``positive_mask``), ``survival`` and
``terms``, whose ``Cells`` take any row and column bases, with a
zero-width ``z`` and its full gradient in the baseline slots, so the
contractions run unchanged; for the ``"auto"`` (source-only) start it also
overrides ``log_survival_terms``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import DomainError

_LOG_2PI = math.log(2.0 * math.pi)


def _exp_clip(row, col):
    """``a = row + col``, a row term plus a column term, and ``exp(a)`` with
    the argument capped well below the overflow threshold; the result stays
    a huge finite number (with slack for scale factors) so downstream
    log-densities stay NaN-free.  The cap costs a pass over the cells only
    where the largest row and column terms can reach it."""
    a = np.add(row, col)
    if np.asarray(row).max(initial=-np.inf) + np.asarray(col).max(initial=-np.inf) > 600.0:
        return a, np.exp(np.minimum(a, 600.0))
    return a, np.exp(a)


class Poly(dict):
    """A polynomial in the cell feature ``F``, ``L = log t`` and ``U = u``
    with scalar coefficients: ``{(p, r, c): coef}`` stands for the sum of
    ``coef * F**p * L**r * U**c``.  Numbers mix in as constants."""

    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    @staticmethod
    def of(x):
        return x if isinstance(x, Poly) else Poly({(0, 0, 0): float(x)})

    def __add__(self, other):
        out = Poly(self)
        for key, coef in Poly.of(other).items():
            out[key] = out.get(key, 0.0) + coef
        return out

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly({key: coef * other for key, coef in self.items()})
        out = Poly()
        for (p, r, c), a in self.items():
            for (q, s, e), b in other.items():
                key = (p + q, r + s, c + e)
                out[key] = out.get(key, 0.0) + a * b
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + -Poly.of(other)

    def __rsub__(self, other):
        return Poly.of(other) + -self

    def __truediv__(self, x):
        return self * (1.0 / x)


F = Poly({(1, 0, 0): 1.0})
L = Poly({(0, 1, 0): 1.0})
U = Poly({(0, 0, 1): 1.0})


class Cells(NamedTuple):
    """The partials of a log density (or log survival function) over cells.

    Slot ``a`` of the u-space gradient (slot 0 ``d/du``, then the baseline)
    is ``sum grad[a, p, r, c] * phi**p * rows[r] * cols[c]`` over (p, r, c),
    and at order 2 entry (a, b) of ``d2q/q``, the Hessian plus the outer
    product of the gradient, is the same sum over ``curv[a, b]``.  ``rows``
    (R, *t.shape) depends on the event time alone and ``cols`` (C, *u.shape)
    on the record alone; the theta-space gradient is ``slot_0 * z``
    followed by the baseline slots."""

    phi: object
    rows: np.ndarray
    cols: np.ndarray
    z: object
    grad: np.ndarray
    curv: object = None


def _powers(x, n):
    """``x**0 .. x**(n - 1)`` stacked along a new first axis."""
    x = np.asarray(x, dtype=float)
    return x ** np.arange(float(n)).reshape((n,) + (1,) * x.ndim)


def _dense(polys, shape):
    """Coefficient tables (len(polys), *shape) of polynomials."""
    out = np.zeros((len(polys),) + shape)
    for i, poly in enumerate(polys):
        for key, coef in Poly.of(poly).items():
            out[(i,) + key] = coef
    return out


def _tables(grad, hess=None):
    """Dense coefficient tables of gradient polynomials and, given the upper
    triangle of the Hessian, of the curvature ``hess + grad grad^T``, over
    the powers of ``F``, ``L`` and ``U`` the polynomials use."""
    grad = [Poly.of(p) for p in grad]
    n, curv = len(grad), []
    if hess is not None:
        curv = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                curv[a][b] = curv[b][a] = hess[a][b - a] + grad[a] * grad[b]
    flat = grad + [p for row in curv for p in row]
    P, R, C = (1 + max(key[i] for p in flat for key in p) for i in range(3))
    tables = [_dense(grad, (P, R, C))]
    if hess is not None:
        P2 = 1 + max(key[0] for p in flat[n:] for key in p)
        tables.append(_dense(flat[n:], (P2, R, C)).reshape((n, n, P2, R, C)))
    return tables


def _bases(t, u, table):
    """The row and column bases of a table: powers of ``log t`` and ``u``."""
    return _powers(np.log(t), table.shape[-2]), _powers(u, table.shape[-1])


def expand(table, cells):
    """The cell values of a coefficient table of ``cells``: the sum over
    (p, r, c) of ``table[..., p, r, c] * phi**p * rows[r] * cols[c]``, with
    the table's leading axes in front of the cells' shape."""
    bases = (_powers(cells.phi, table.shape[-3]), cells.rows, cells.cols)
    ndim = max(b.ndim for b in bases) - 1

    def lift(basis, axis):
        # to axis ``axis`` of (P, R, C), its cell axes aligned to the right
        head = [1, 1, 1]
        head[axis] = basis.shape[0]
        return basis.reshape(tuple(head) + (1,) * (ndim + 1 - basis.ndim) + basis.shape[1:])

    monomials = lift(bases[0], 0) * lift(bases[1], 1) * lift(bases[2], 2)
    P, R, C = table.shape[-3:]
    lead, shape = table.shape[:-3], monomials.shape[3:]
    flat = table.reshape(-1, P * R * C) @ monomials.reshape(P * R * C, -1)
    return flat.reshape(lead + shape)


def theta_rows(slots, z):
    """Theta-space rows (..., d) of u-space slot values (S, ...): the
    regression block ``slots[0] * z``, then the baseline slots."""
    base = slots[1:].transpose(tuple(range(1, slots.ndim)) + (0,))
    return np.concatenate([slots[0][..., None] * z, base], axis=-1)


def theta_hessian(pairs, z):
    """The (d, d) sum over records of the theta-space matrices of u-space
    slot-pair values ``pairs`` (S, S, n) with regression rows ``z`` (n, d_z)."""
    d_z = z.shape[-1]
    d = d_z + pairs.shape[0] - 1
    out = np.empty((d, d))
    out[:d_z, :d_z] = z.T @ (pairs[0, 0][:, None] * z)
    out[:d_z, d_z:] = z.T @ pairs[0, 1:].T
    out[d_z:, :d_z] = out[:d_z, d_z:].T
    out[d_z:, d_z:] = pairs[1:, 1:].sum(axis=-1)
    return out


def full_gradient(cells):
    """The theta-space gradient rows (..., d) of ``cells``, cell by cell."""
    return theta_rows(expand(cells.grad, cells), cells.z)


class SurvivalModel:
    """Interface shared by the model zoo.  Thread-safe: its only state is
    the last coefficient tables of each kernel, replaced whole.

    See the module docstring for the contract: a zoo model supplies the
    u-space functions, this class derives every theta-space method.
    """

    name: str = ""
    baseline: tuple = ()
    positive: tuple = ()

    def d_theta(self, d_z: int) -> int:
        return d_z + len(self.baseline)

    def param_names(self, d_z: int) -> list:
        return [f"beta{i + 1}" for i in range(d_z)] + list(self.baseline)

    def positive_mask(self, d_z: int) -> np.ndarray:
        """Slots constrained to (0, inf); the optimizer log-transforms these."""
        return np.array([False] * d_z + [b in self.positive for b in self.baseline], dtype=bool)

    def check_theta(self, theta, d_z: int) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.d_theta(d_z),):
            raise DomainError(
                f"{self.name}: expected {self.d_theta(d_z)} parameters, got {theta.shape}"
            )
        if not np.all(np.isfinite(theta)):
            raise DomainError(f"{self.name}: non-finite parameter")
        if np.any(theta[self.positive_mask(d_z)] <= 0):
            raise DomainError(f"{self.name}: positivity constraint violated")
        return theta

    def split(self, theta):
        """``(beta, baseline scalars)`` of a flat parameter vector."""
        theta = np.asarray(theta, dtype=float)
        d_z = theta.shape[0] - len(self.baseline)
        return theta[:d_z], theta[d_z:]

    def _u_args(self, theta, t, z):
        """``(t, u, *base)``, the arguments of the u-space functions."""
        beta, base = self.split(theta)
        return (np.asarray(t, dtype=float), np.asarray(z, dtype=float) @ beta, *base)

    def _cells(self, kernel, theta, t, z, order):
        """A u-space kernel's output at theta, its partials as ``Cells``
        over the powers of ``log t`` and ``u``, with ``d2q/q = hess + grad
        grad^T`` as the curvature.  The tables depend on the baseline alone,
        so the last ones of each kernel and order are kept for the next
        call (every block of a grid pass)."""
        t, u, *base = self._u_args(theta, t, z)
        out = kernel(t, u, *base, order=order)
        if order == 0:
            return out
        value, phi, *polys = out
        slot, memo = (kernel.__name__, order), self.__dict__.setdefault("_tables", {})
        kept = memo.get(slot)
        if kept is None or kept[0] != base:
            kept = memo[slot] = (base, _tables(*polys))
        tables = kept[1]
        return [value, Cells(phi, *_bases(t, u, tables[0]), np.asarray(z, dtype=float), *tables)]

    def terms(self, theta, t, z, order=0):
        """The log density at theta and, from ``order=1`` on, the ``Cells``
        of its partials (with the curvature at ``order=2``)."""
        return self._cells(self.u_terms, theta, t, z, order)

    def log_survival_terms(self, theta, t, z, order=0):
        """The log survival function at theta and, at ``order=1``, the
        ``Cells`` of its gradient."""
        return self._cells(self.u_log_survival, theta, t, z, order)

    def log_density(self, theta, t, z):
        return self.terms(theta, t, z)[0]

    def log_density_grad(self, theta, t, z):
        return full_gradient(self.terms(theta, t, z, 1)[1])

    def survival(self, theta, t, z):
        return np.exp(self.log_survival_terms(theta, t, z)[0])

    def default_init(self, x, delta, z) -> np.ndarray:
        raise NotImplementedError


class PHWeibull(SurvivalModel):
    """Proportional hazards with Weibull baseline: hazard
    ``lam * gam * t**(gam-1) * exp(u)``."""

    name = "ph-weibull"
    baseline = ("lambda", "gamma")
    positive = ("lambda", "gamma")

    def u_terms(self, t, u, lam, gam, order=0):
        logt = np.log(t)
        value, He = _exp_clip(gam * logt + math.log(lam), u)      # log He, He = H(t) * exp(u)
        value += math.log(gam) - logt
        value -= He
        out = [value]
        if order >= 1:
            out += [1.0 - He, (F, F / lam, 1.0 / gam + L * F)]  # feature 1 - He
        if order >= 2:
            h = F - 1.0                                           # -He
            out.append(((h, h / lam, L * h), (-1.0 / lam**2, L * h / lam),
                        (-1.0 / gam**2 + L * L * h,)))
        return out

    def u_log_survival(self, t, u, lam, gam, order=0):
        He = _exp_clip(gam * np.log(t) + math.log(lam), u)[1]
        out = [-He]
        if order >= 1:
            out += [He, (-F, -F / lam, -L * F)]                   # feature He
        return out

    def u_mode(self, t, lam, gam):
        return -(gam * np.log(t) + math.log(lam))                 # He = 1

    def default_init(self, x, delta, z):
        return np.concatenate([np.zeros(z.shape[1]), [delta.sum() / x.sum(), 1.0]])


class POLogLogistic(SurvivalModel):
    """Proportional odds with log-logistic baseline survival
    ``1 / (1 + H(t) exp(u))``, ``H(t) = exp(-mu/sigma) t**(1/sigma)``."""

    name = "po-loglogistic"
    baseline = ("mu", "sigma")
    positive = ("sigma",)

    def u_terms(self, t, u, mu, sigma, order=0):
        logt = np.log(t)
        logH = (logt - mu) / sigma
        # log h = logH - log(sigma * t)
        out = [logH - np.log(sigma) - logt + u - 2.0 * np.logaddexp(0.0, logH + u)]
        if order >= 1:
            # feature 1 - 2G, G = H e^u / (1 + H e^u)
            r = mu - L
            out += [1.0 - 2.0 * special.expit(logH + u),
                    (F, -F / sigma, r * F / sigma**2 - 1.0 / sigma)]
        if order >= 2:
            D2 = 0.5 * (1.0 - F * F)                              # d(2G)/d(logit)
            l_ms = D2 * r / sigma**3 + F / sigma**2
            l_ss = -D2 * r * r / sigma**4 - 2.0 * r * F / sigma**3 + 1.0 / sigma**2
            out.append(((-D2, D2 / sigma, -D2 * r / sigma**2), (-D2 / sigma**2, l_ms), (l_ss,)))
        return out

    def u_log_survival(self, t, u, mu, sigma, order=0):
        logt = np.log(t)
        logH = (logt - mu) / sigma
        out = [-np.logaddexp(0.0, logH + u)]
        if order >= 1:
            out += [special.expit(logH + u), (-F, F / sigma, F * (L - mu) / sigma**2)]  # feature G
        return out

    def u_mode(self, t, mu, sigma):
        return (mu - np.log(t)) / sigma                           # log H + u = 0

    def default_init(self, x, delta, z):
        logs = np.log(x[delta == 1])
        sigma = max(float(np.std(logs)) * math.sqrt(3.0) / math.pi, 0.1)
        return np.concatenate([np.zeros(z.shape[1]), [float(np.mean(logs)), sigma]])


class AFTLogNormal(SurvivalModel):
    """Accelerated failure time with standard-normal log errors:
    ``log T = mu + u + sigma * eps``."""

    name = "aft-lognormal"
    baseline = ("mu", "sigma")
    positive = ("sigma",)

    def u_terms(self, t, u, mu, sigma, order=0):
        logt = np.log(t)
        s = (logt - mu - u) / sigma
        out = [-np.log(sigma) - logt - 0.5 * s**2 - 0.5 * _LOG_2PI]
        if order >= 1:
            out += [s, (F / sigma, F / sigma, (F * F - 1.0) / sigma)]   # feature s
        if order >= 2:
            h = -1.0 / sigma**2
            l_ms = 2.0 * h * F
            out.append(((h, h, l_ms), (h, l_ms), ((1.0 - 3.0 * F * F) / sigma**2,)))
        return out

    def u_log_survival(self, t, u, mu, sigma, order=0):
        logt = np.log(t)
        s = (logt - mu - u) / sigma
        log_tail = special.log_ndtr(-s)
        out = [log_tail]
        if order >= 1:
            # feature: the inverse Mills ratio phi(s) / Phi(-s), from logs so
            # that it stays finite far in the upper tail
            mills = np.exp(-0.5 * s**2 - 0.5 * _LOG_2PI - log_tail)
            out += [mills, (F / sigma, F / sigma, F * (L - mu - U) / sigma**2)]
        return out

    def u_mode(self, t, mu, sigma):
        return np.log(t) - mu                                     # s = 0

    def default_init(self, x, delta, z):
        logs = np.log(x[delta == 1])
        sigma = max(float(np.std(logs)), 0.1)
        return np.concatenate([np.zeros(z.shape[1]), [float(np.mean(logs)), sigma]])


class AFTExponential(SurvivalModel):
    """Accelerated failure time with a memoryless baseline:
    ``log T = u + log T0`` with ``T0`` exponential of rate ``lam``, hence
    ``q(t, z) = lam * exp(-u) * exp(-lam * t * exp(-u))``."""

    name = "aft-exponential"
    baseline = ("lambda",)
    positive = ("lambda",)

    def u_terms(self, t, u, lam, order=0):
        # exp(-u), capped so that t exp(-u) stays finite as well
        E = np.exp(np.minimum(-u, 600.0 - np.log(t)))
        out = [math.log(lam) - u - lam * t * E]
        if order >= 1:
            out += [lam * (t * E) - 1.0, (F, -F / lam)]          # feature lam t e^-u - 1
        if order >= 2:
            out.append(((-(F + 1.0), (F + 1.0) / lam), (-1.0 / lam**2,)))
        return out

    def u_log_survival(self, t, u, lam, order=0):
        te = t * np.exp(np.minimum(-u, 600.0 - np.log(t)))    # t exp(-u), capped as in u_terms
        out = [-lam * te]
        if order >= 1:
            out += [te, (lam * F, -F)]                            # feature t e^-u
        return out

    def u_mode(self, t, lam):
        return math.log(lam) + np.log(t)                          # lam t e^-u = 1

    def default_init(self, x, delta, z):
        return np.concatenate([np.zeros(z.shape[1]), [delta.sum() / x.sum()]])


class AHWeibull(SurvivalModel):
    """Accelerated hazards with Weibull baseline: the hazard at ``t`` is the
    baseline hazard taken at ``t * exp(u)``, giving cumulative hazard
    ``lam * t**gam * exp((gam - 1) * u)``.  ``gam = 1`` collapses the
    covariate effect entirely and is excluded (guard band 1e-6).
    """

    name = "ah-weibull"
    baseline = ("lambda", "gamma")
    positive = ("lambda", "gamma")
    _GUARD = 1e-6

    def check_theta(self, theta, d_z):
        theta = super().check_theta(theta, d_z)
        if abs(theta[-1] - 1.0) < self._GUARD:
            raise DomainError("ah-weibull: gamma must stay away from 1")
        return theta

    def u_terms(self, t, u, lam, gam, order=0):
        logt = np.log(t)
        v = logt + u
        H = lam * _exp_clip(gam * logt, (gam - 1.0) * u)[1]
        value = math.log(gam) + math.log(lam) + (gam - 1.0) * v
        value -= H
        out = [value]
        if order >= 1:
            lv = L + U
            out += [1.0 - H, ((gam - 1.0) * F, F / lam, 1.0 / gam + lv * F)]  # feature 1 - H
        if order >= 2:
            h = F - 1.0                                                        # -H
            out.append((((gam - 1.0) ** 2 * h, (gam - 1.0) * h / lam, F + (gam - 1.0) * h * lv),
                        (-1.0 / lam**2, h * lv / lam), (-1.0 / gam**2 + h * lv * lv,)))
        return out

    def u_log_survival(self, t, u, lam, gam, order=0):
        H = lam * _exp_clip(gam * np.log(t), (gam - 1.0) * u)[1]
        out = [-H]
        if order >= 1:
            out += [H, (-(gam - 1.0) * F, -F / lam, -F * (L + U))]   # feature H
        return out

    def u_mode(self, t, lam, gam):
        return -(gam * np.log(t) + math.log(lam)) / (gam - 1.0)  # H = 1

    def default_init(self, x, delta, z):
        return np.concatenate([np.zeros(z.shape[1]), [delta.sum() / x.sum(), 1.3]])


REGISTRY = {
    m.name: m
    for m in (PHWeibull(), POLogLogistic(), AFTLogNormal(), AFTExponential(), AHWeibull())
}

REGISTRY_ORDER = list(REGISTRY)


def get_model(name: str) -> SurvivalModel:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; choose from {', '.join(REGISTRY_ORDER)}"
        ) from None


def _checked(model: SurvivalModel, theta, z, t) -> np.ndarray:
    """``theta`` checked against the dimension of ``z``; ``t`` must be
    positive and finite."""
    d_z = np.asarray(z, dtype=float).shape[-1] if np.asarray(z).ndim else 0
    theta = model.check_theta(theta, d_z)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0) or not np.all(np.isfinite(t_arr)):
        raise DomainError("t must be positive and finite")
    return theta


def density(model: SurvivalModel, theta, t, z):
    """q(t | z; theta) with domain checks on theta and t."""
    return np.exp(model.log_density(_checked(model, theta, z, t), t, z))


def log_density_grad(model: SurvivalModel, theta, t, z):
    return model.log_density_grad(_checked(model, theta, z, t), t, z)


def survival(model: SurvivalModel, theta, t, z):
    return model.survival(_checked(model, theta, z, t), t, z)


def ratio_depends_on_z(model, theta, theta_tilde, t_grid, z_grid, tol=1e-8) -> bool:
    """Numerical identifiability diagnostic.

    Returns True iff the log-ratio of the two conditional densities varies
    with z somewhere on the grid: the model is identifiable from covariate
    variation only when no two distinct parameter vectors produce a z-free
    density ratio.
    """
    theta = np.asarray(theta, dtype=float)
    theta_tilde = np.asarray(theta_tilde, dtype=float)
    if np.array_equal(theta, theta_tilde):
        raise DomainError("theta and theta_tilde must differ")
    t_grid = np.asarray(t_grid, dtype=float)
    z_grid = np.asarray(z_grid, dtype=float)
    if z_grid.ndim == 1:
        z_grid = z_grid[:, None]
    if t_grid.size == 0 or z_grid.shape[0] < 2:
        raise DomainError("need a non-empty t grid and at least two z points")
    d_z = z_grid.shape[1]
    model.check_theta(theta, d_z)
    model.check_theta(theta_tilde, d_z)
    diff = model.log_density(theta, t_grid[:, None], z_grid) - model.log_density(
        theta_tilde, t_grid[:, None], z_grid
    )
    spread = diff.max(axis=1) - diff.min(axis=1)
    return bool(spread.max() > tol)
