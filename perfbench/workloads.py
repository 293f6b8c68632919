"""The three benchmark workloads.

Each workload builds its inputs from the workload seed (``setup``), prepares
the input of operation ``i`` outside the timed region (``prepare``), runs one
timed operation (``run``) and checks its outputs (``check``).  ``check``
always applies invariants that hold for any seed; when a reference recorded
at the seed commit exists for the (seed, operation) pair it also compares
against it.

Reference tolerances: ``fit`` stops at a score sup-norm of ``grad_tol``
(1e-6), so a legitimate optimizer change moves theta-hat by about 1e-5 and
the log-likelihood (flat at the optimum) by about 1e-10.  Estimates are
therefore compared to 1% of their standard error and log-likelihoods to
1e-7; a wrong score, density or variance formula moves them by far more.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import jsonschema
import numpy as np

import lssurv as ls
from lssurv import cli
from lssurv.schemas import RESULT_SCHEMAS

import oracle

SE_SHARE = 0.01      # estimates may move by this share of their SE
LOGLIK_ATOL = 1e-7
SE_RTOL = 1e-3
STATIONARY_ATOL = 2e-5   # oracle gradient at theta-hat; fit stops at 1e-6
TIE_RTOL = 1e-6      # selection criteria this close count as a tie


@dataclass
class OpResult:
    digest: dict                 # JSON-able outputs compared with the reference
    units: int                   # work units completed by the operation
    fits_ok: int                 # model fits that converged
    fits: int                    # model fits attempted
    outputs: dict = field(default_factory=dict, repr=False)   # objects for the invariants


def _floats(v):
    return [float(a) for a in np.ravel(v)]


def _close(problems, label, got, ref, atol):
    got, ref, atol = np.asarray(got, float), np.asarray(ref, float), np.asarray(atol, float)
    if got.shape != ref.shape or not np.all(np.abs(got - ref) <= atol):
        problems.append(f"{label}: got {got.tolist()}, reference {ref.tolist()}")


def _ph_weibull_problems(theta, loglik, ds):
    """A PH-Weibull fit must reproduce the oracle log-likelihood and be a
    stationary point of it."""
    p = []
    ll = oracle.approx_loglik(theta, ds.x, ds.delta, ds.z_source, ds.z_target)
    _close(p, "loglik vs oracle", loglik, ll, 1e-9 * max(1.0, abs(ll)))
    grad = oracle.fd_gradient(theta, ds.x, ds.delta, ds.z_source, ds.z_target)
    if np.max(np.abs(grad)) > STATIONARY_ATOL:
        p.append(f"theta-hat is not stationary for the oracle likelihood (gradient {grad})")
    return p


def _mean_g(t):
    return t


def _survival_at_1(t):
    return 1.0 if t > 1.0 else 0.0


class Analysis:
    """One applied analysis: fit with variance, then two functionals."""

    name = "analysis-n2000"
    has_pool = False
    fits_per_op = 1

    def __init__(self, sizes, seed, workdir, n_jobs):
        self.sizes = sizes
        self.seed = seed
        self.theta_true = np.array(sizes["theta_true"])
        self.z_eval = np.array(sizes["z_eval"])
        self._first = None

    def _dataset(self, i):
        cfg = ls.SimConfig(model=self.sizes["model"], theta_true=tuple(self.theta_true),
                           n1=self.sizes["n1"], n2=self.sizes["n2"])
        return ls.generate_dataset(cfg, np.random.default_rng(np.random.SeedSequence((self.seed, i))))

    def setup(self):
        self._first = self._dataset(0)

    def prepare(self, i):
        return self._first if i == 0 else self._dataset(i)

    def run(self, ds, tracer, serial=False):
        fr = ls.fit(self.sizes["model"], ds)
        funcs = [ls.conditional_functional(self.sizes["model"], fr, self.z_eval, _mean_g),
                 ls.conditional_functional(self.sizes["model"], fr, self.z_eval, _survival_at_1,
                                           points=[1.0])]
        digest = {
            "theta": _floats(fr.theta_hat),
            "se": _floats(fr.se),
            "loglik": float(fr.loglik),
            "zeta": [float(f[0]) for f in funcs],
            "zeta_se": [float(f[1]) for f in funcs],
        }
        return OpResult(digest, units=1, fits_ok=int(fr.converged), fits=1,
                        outputs={"fit": fr, "dataset": ds})

    def check(self, res, ref):
        p = []
        d, fr, ds = res.digest, res.outputs["fit"], res.outputs["dataset"]
        theta = fr.theta_hat
        if not (fr.converged and np.all(np.isfinite(theta)) and np.all(fr.se > 0)):
            p.append("fit did not return a converged, finite estimate with positive SEs")
            return p
        p += _ph_weibull_problems(theta, d["loglik"], ds)
        _close(p, "zeta[mean] vs oracle", d["zeta"][0], oracle.conditional_mean(theta, self.z_eval),
               1e-6 * abs(d["zeta"][0]))
        _close(p, "zeta[survival-at:1] vs oracle", d["zeta"][1],
               oracle.ph_weibull_survival(theta, 1.0, self.z_eval), 1e-8)
        if ref is not None:
            _close(p, "theta", d["theta"], ref["theta"], SE_SHARE * np.array(ref["se"]))
            _close(p, "se", d["se"], ref["se"], SE_RTOL * np.array(ref["se"]))
            _close(p, "loglik", d["loglik"], ref["loglik"], LOGLIK_ATOL)
            _close(p, "zeta", d["zeta"], ref["zeta"], SE_SHARE * np.array(ref["zeta_se"]))
            _close(p, "zeta_se", d["zeta_se"], ref["zeta_se"], SE_RTOL * np.array(ref["zeta_se"]))
        return p


class McStudy:
    """One replicated study with its own process pool."""

    name = "mc-n500"
    has_pool = True

    def __init__(self, sizes, seed, workdir, n_jobs):
        self.sizes = sizes
        self.seed = seed
        self.n_jobs = n_jobs
        self.fits_per_op = sizes["n_reps"]

    def setup(self):
        ls.get_model(self.sizes["model"])

    def prepare(self, i):
        return ls.SimConfig(model=self.sizes["model"], theta_true=tuple(self.sizes["theta_true"]),
                            n1=self.sizes["n1"], n2=self.sizes["n2"],
                            n_reps=self.sizes["n_reps"], seed=self.seed * 1000 + i)

    def run(self, config, tracer, serial=False):
        rep = ls.run_mc_study(config, n_jobs=1 if serial else self.n_jobs)
        doc = rep.to_json_dict()
        digest = {k: doc[k] for k in ("mse", "bias", "se", "se_hat", "cp")}
        digest["n_failed"] = rep.n_failed
        ok = rep.n_reps - rep.n_failed
        return OpResult(digest, units=ok, fits_ok=ok, fits=rep.n_reps, outputs={"doc": doc})

    def check(self, res, ref):
        p = []
        d = res.digest
        n_good = self.sizes["n_reps"] - d["n_failed"]
        try:
            jsonschema.validate(res.outputs["doc"], RESULT_SCHEMAS["mc"])
        except jsonschema.ValidationError as exc:
            p.append(f"mc JSON fails its schema: {exc.message}")
        arrays = {k: np.array(d[k]) for k in ("mse", "bias", "se", "se_hat", "cp")}
        if not all(np.all(np.isfinite(a)) for a in arrays.values()):
            return ["non-finite entry in the MC table"]
        if np.any(arrays["se_hat"] <= 0) or np.any((arrays["cp"] < 0) | (arrays["cp"] > 1)):
            p.append("MC table has a non-positive SE or a coverage outside [0, 1]")
        # a wrong estimator shows as bias far outside the sampling error
        if np.any(np.abs(arrays["bias"]) > 6.0 * arrays["se_hat"] / math.sqrt(n_good)):
            p.append(f"MC bias {d['bias']} beyond 6 standard errors")
        if ref is not None and d["n_failed"] > ref["n_failed"]:
            p.append(f"{d['n_failed']} failed replications, reference {ref['n_failed']}")
        # with fewer failures than the reference the tables average different reps
        if ref is not None and d["n_failed"] == ref["n_failed"]:
            se_ref = np.array(ref["se_hat"])
            _close(p, "bias", d["bias"], ref["bias"], 2 * SE_SHARE * se_ref)
            _close(p, "se", d["se"], ref["se"], 2 * SE_SHARE * se_ref)
            _close(p, "mse", d["mse"], ref["mse"],
                   2 * SE_SHARE * se_ref * np.sqrt(ref["mse"]) + 1e-12)
            _close(p, "se_hat", d["se_hat"], ref["se_hat"], SE_RTOL * se_ref)
            _close(p, "cp", d["cp"], ref["cp"], 1.0 / n_good + 1e-12)
        return p


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(v)) for v in row] for row in rows)


class CliPipeline:
    """shift-test, select, fit --json and predict through ``run_cli``."""

    name = "pipeline-cli-n1000"
    has_pool = False

    def __init__(self, sizes, seed, workdir, n_jobs):
        self.sizes = sizes
        self.seed = seed
        self.paths = {k: os.path.join(workdir, f"{k}.csv") for k in ("pop_p", "pop_q", "source", "target")}
        self.fit_path = os.path.join(workdir, "fit.json")
        self.fits_per_op = len(ls.REGISTRY_ORDER) + 1
        self._written = None

    def _write_inputs(self, i):
        """CSVs of operation ``i``; every operation gets fresh populations."""
        s = self.sizes
        cfg = ls.SimConfig(model=s["model"], theta_true=tuple(s["theta_true"]), n1=s["n1"], n2=s["n2"])
        ds = ls.generate_dataset(cfg, np.random.default_rng(np.random.SeedSequence((self.seed, i, 0))))
        cli.write_dataset(ds, self.paths["source"], self.paths["target"])
        self.dataset = ds
        # pilot populations share Z | T ~ N(T, 1) and differ only in the law of T
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, i, 1)))
        for key, rate in (("pop_p", 1.0), ("pop_q", 0.7)):
            t = rng.exponential(1.0 / rate, s["n_pilot"])
            c = rng.exponential(2.5, s["n_pilot"])
            z = rng.normal(t, 1.0)
            _write_csv(self.paths[key], ["x", "delta", "z1"],
                       zip(np.minimum(t, c), (t <= c).astype(float), z))
        self._written = i

    def setup(self):
        self._write_inputs(0)

    def prepare(self, i):
        if self._written != i:
            self._write_inputs(i)
        return self.seed * 1000 + i

    def _cli(self, argv, tracer):
        out, err = io.StringIO(), io.StringIO()
        with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = cli.run_cli(argv)
        if rc != 0:
            raise RuntimeError(f"lssurv {argv[0]} exited {rc}: {err.getvalue().strip()}")
        return out.getvalue()

    def run(self, op_seed, tracer, serial=False):
        s, P, seed = self.sizes, self.paths, str(op_seed)
        docs = {
            "shift-test": json.loads(self._cli(
                ["shift-test", "--pop-p", P["pop_p"], "--pop-q", P["pop_q"],
                 "--boot-k", str(s["boot_k"]), "--seed", seed, "--json"], tracer)),
            "select": json.loads(self._cli(
                ["select", "--source", P["source"], "--target", P["target"], "--seed", seed,
                 "--json"], tracer)),
        }
        # PH- and AH-Weibull are reparametrizations of each other, so on
        # Weibull data their criteria tie up to rounding and lssurv's choice
        # between them flips with it; the workflow fits the first tied model
        # in registry order instead
        valid = {k: v for k, v in docs["select"]["criteria"].items() if v is not None}
        chosen = next(m for m in ls.REGISTRY_ORDER if m in _ties(valid))
        self._cli(["fit", "--model", chosen, "--source", P["source"], "--target", P["target"],
                   "--json", "--out", self.fit_path], tracer)
        with open(self.fit_path) as fh:
            docs["fit"] = json.load(fh)
        docs["predict"] = json.loads(self._cli(
            ["predict", "--fit", self.fit_path, "--z", ",".join(map(str, s["z_eval"])),
             "--g", "mean", "--json"], tracer))
        crit = docs["select"]["criteria"]
        digest = {
            "t_n": docs["shift-test"]["t_n"],
            "p_value": docs["shift-test"]["p_value"],
            "criteria": crit,
            "chosen": docs["select"]["chosen"],
            "fitted": chosen,
            "fit": {k: docs["fit"][k] for k in ("model", "theta", "se", "loglik")},
            "zeta": docs["predict"]["zeta"],
            "zeta_se": docs["predict"]["se"],
        }
        fits_ok = sum(v is not None for v in crit.values()) + int(docs["fit"]["convergence"]["converged"])
        return OpResult(digest, units=1, fits_ok=fits_ok, fits=len(crit) + 1, outputs={"docs": docs})

    def check(self, res, ref):
        p = []
        d, docs = res.digest, res.outputs["docs"]
        for cmd, doc in docs.items():
            try:
                jsonschema.validate(doc, RESULT_SCHEMAS[cmd])
            except jsonschema.ValidationError as exc:
                p.append(f"{cmd} JSON fails its schema: {exc.message}")
        if not (0.0 <= d["p_value"] <= 1.0 and d["t_n"] >= 0.0):
            p.append(f"shift test p={d['p_value']} T_n={d['t_n']}")
        valid = {k: v for k, v in d["criteria"].items() if v is not None}
        if d["chosen"] not in _ties(valid):
            p.append(f"chosen {d['chosen']} is not a minimizer of {valid}")
        if d["fit"]["model"] != d["fitted"] or not docs["fit"]["convergence"]["converged"]:
            p.append("fit document is not a converged fit of the selected model")
        if not (math.isfinite(d["zeta"]) and d["zeta_se"] > 0):
            p.append(f"predict gave zeta={d['zeta']} se={d['zeta_se']}")
        if d["fitted"] == "ph-weibull":
            p += _ph_weibull_problems(np.array(d["fit"]["theta"]), d["fit"]["loglik"], self.dataset)
            zeta = oracle.conditional_mean(np.array(d["fit"]["theta"]), np.array(self.sizes["z_eval"]))
            _close(p, "zeta vs oracle", d["zeta"], zeta, 1e-6 * abs(zeta))
        if ref is not None:
            _close(p, "t_n", d["t_n"], ref["t_n"], 1e-9 * abs(ref["t_n"]))
            _close(p, "p_value", d["p_value"], ref["p_value"], 1.0 / self.sizes["boot_k"] + 1e-12)
            if {k for k, v in d["criteria"].items() if v is None} != \
                    {k for k, v in ref["criteria"].items() if v is None}:
                p.append(f"failed candidates differ: {d['criteria']} vs {ref['criteria']}")
            else:
                names = sorted(valid)
                got = [valid[k] for k in names]
                want = [ref["criteria"][k] for k in names]
                _close(p, "criteria", got, want, 1e-5 + 1e-8 * np.abs(want))
            ref_valid = {k: v for k, v in ref["criteria"].items() if v is not None}
            if d["chosen"] not in _ties(ref_valid):
                p.append(f"chosen {d['chosen']}, reference minimizers {sorted(_ties(ref_valid))}")
            if d["fitted"] != ref["fitted"]:
                p.append(f"fitted {d['fitted']}, reference {ref['fitted']}")
            else:
                _close(p, "fit loglik", d["fit"]["loglik"], ref["fit"]["loglik"], LOGLIK_ATOL)
                _close(p, "fit theta", d["fit"]["theta"], ref["fit"]["theta"],
                       SE_SHARE * np.array(ref["fit"]["se"]))
                _close(p, "fit se", d["fit"]["se"], ref["fit"]["se"], SE_RTOL * np.array(ref["fit"]["se"]))
            _close(p, "zeta", d["zeta"], ref["zeta"], SE_SHARE * ref["zeta_se"])
        return p


def _ties(criteria):
    """Models whose criterion ties the smallest: equivalent parametrizations
    (PH and AH Weibull) differ only by rounding."""
    best = min(criteria.values())
    return {k for k, v in criteria.items() if v <= best + TIE_RTOL * max(1.0, abs(best))}


WORKLOADS = {cls.name: cls for cls in (Analysis, McStudy, CliPipeline)}
