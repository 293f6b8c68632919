"""Command-line front end: simulate / fit / predict / select / shift-test / mc.

Exit codes: 0 success, 1 domain or data errors, 2 usage errors.  With
``--json`` the result document goes to stdout; human-readable reports
otherwise.  Error messages always go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .data import Dataset
from .errors import LssurvError, ParseError, SchemaError, ValidationError
from .estimator import FitOptions, FitResult, bic_select, conditional_functional, fit
from .likelihood import usable_cores
from .models import REGISTRY_ORDER, get_model
from .schemas import plain
from .shift_test import label_shift_test
from .simulation import QzSpec, SimConfig, generate_dataset, run_mc_study


def _parse_float(text, path, lineno, col):
    try:
        v = float(text)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: cannot parse {col}={text!r} as a number") from None
    if not math.isfinite(v):
        raise ParseError(f"{path}:{lineno}: non-finite {col}={text!r}")
    return v


def _csv_rows(path, lead):
    """The non-blank rows, with their line numbers, of a CSV whose header is
    ``lead`` followed by ``z1,...,zd`` (d >= 1); each row has as many fields
    as the header."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        d = len(header) - len(lead)
        if d < 1 or header != lead + [f"z{i + 1}" for i in range(d)]:
            expected = ",".join(lead + ["z1", "...", "zd"])
            raise SchemaError(f"{path}: expected header {expected}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            yield lineno, row


def _z_fields(row, path, lineno):
    return [_parse_float(v, path, lineno, f"z{j + 1}") for j, v in enumerate(row)]


def read_source_csv(path):
    """Rows of ``x,delta,z1,...,zd``; returns (x, delta, z) arrays."""
    xs, ds_, zs = [], [], []
    for lineno, row in _csv_rows(path, ["x", "delta"]):
        x = _parse_float(row[0], path, lineno, "x")
        if x <= 0:
            raise ValidationError(f"{path}:{lineno}: x must be positive, got {x}")
        delta = _parse_float(row[1], path, lineno, "delta")
        if delta not in (0.0, 1.0):
            raise ValidationError(f"{path}:{lineno}: delta must be 0 or 1, got {row[1]}")
        xs.append(x)
        ds_.append(int(delta))
        zs.append(_z_fields(row[2:], path, lineno))
    return np.array(xs), np.array(ds_), np.array(zs)


def read_target_csv(path):
    """Rows of ``z1,...,zd``; returns the z array."""
    return np.array([_z_fields(row, path, lineno) for lineno, row in _csv_rows(path, [])])


def read_dataset(source_path, target_path) -> Dataset:
    x, delta, z = read_source_csv(source_path)
    zt = read_target_csv(target_path)
    return Dataset(x, delta, z, zt)


def write_dataset(dataset: Dataset, source_path, target_path):
    d = dataset.d_z
    with open(source_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "delta"] + [f"z{i + 1}" for i in range(d)])
        for i in range(dataset.n1):
            w.writerow(
                [repr(float(dataset.x[i])), int(dataset.delta[i])]
                + [repr(float(v)) for v in dataset.z_source[i]]
            )
    with open(target_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"z{i + 1}" for i in range(d)])
        for j in range(dataset.n2):
            w.writerow([repr(float(v)) for v in dataset.z_target[j]])


def _emit(args, doc: dict, human: str):
    text = json.dumps(doc, indent=2) if args.json else human
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _fit_table(fr: FitResult) -> str:
    lines = [f"model: {fr.model_name}   loglik: {fr.loglik:.6f}",
             f"{'param':<10}{'Est.':>12}{'SE':>12}{'CI':>28}"]
    for i, name in enumerate(fr.param_names):
        se = f"{fr.se[i]:.4f}" if fr.se is not None else "-"
        ci = f"[{fr.ci[i, 0]:.4f}, {fr.ci[i, 1]:.4f}]" if fr.ci is not None else "-"
        lines.append(f"{name:<10}{fr.theta_hat[i]:>12.4f}{se:>12}{ci:>28}")
    return "\n".join(lines)


def _theta_arg(text):
    return np.array([float(v) for v in text.split(",")])


def _g_from_menu(name: str):
    if name == "mean":
        return (lambda t: t), []
    if name.startswith(("survival-at:", "restricted-mean:")):
        t0 = float(name.split(":", 1)[1])
        if not t0 > 0:
            raise ValidationError(f"g-function {name!r} needs a time t > 0")
        if name.startswith("survival-at:"):
            return (lambda t: 1.0 if t > t0 else 0.0), [t0]
        return (lambda t: min(t, t0)), [t0]
    raise ValidationError(
        f"unknown g-function {name!r}; use mean, survival-at:<t> or restricted-mean:<t>"
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lssurv", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable stdout")
        sp.add_argument("--out", help="write the report to this path")
        sp.add_argument("--seed", type=int, default=None)

    def simulation(sp, reps=False):
        # --reps, of mc only, sits between the sample sizes and the laws
        sp.add_argument("--model", required=True)
        sp.add_argument("--theta", required=True, type=_theta_arg)
        sp.add_argument("--n1", type=int, required=True)
        sp.add_argument("--n2", type=int, required=True)
        if reps:
            sp.add_argument("--reps", type=int, required=True)
        sp.add_argument("--qz", default="n:0,n:1", help="covariate slots, comma-separated: "
                        "n:mean[:sd], e:rate, b:p or const:value")
        sp.add_argument("--pt-rate", type=float, default=1.0)
        sp.add_argument("--pc-rate", type=float, default=0.4)

    sp = sub.add_parser("simulate", help="generate a synthetic two-population dataset")
    common(sp)
    simulation(sp)
    sp.add_argument("--out-prefix", required=True)

    sp = sub.add_parser("fit", help="fit a model to source/target CSV data")
    common(sp)
    sp.add_argument("--model", required=True)
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--init", type=_theta_arg, default=None)
    sp.add_argument("--grad-tol", type=float, default=1e-6)
    sp.add_argument("--max-iter", type=int, default=500)
    sp.add_argument("--skip-variance", action="store_true")

    sp = sub.add_parser("predict", help="conditional functional from a saved fit")
    common(sp)
    sp.add_argument("--fit", required=True, help="path to a fit --json document")
    sp.add_argument("--z", required=True, type=_theta_arg)
    sp.add_argument("--g", default="mean")

    sp = sub.add_parser("select", help="split-sample criterion over candidate models")
    common(sp)
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--models", default=",".join(REGISTRY_ORDER))
    sp.add_argument("--split", type=float, default=0.2)

    sp = sub.add_parser("shift-test", help="bootstrap test of the shared conditional")
    common(sp)
    sp.add_argument("--pop-p", required=True, help="source-format CSV (x,delta,z1..zd)")
    sp.add_argument("--pop-q", required=True, help="source-format CSV (x,delta,z1..zd)")
    sp.add_argument("--boot-k", type=int, default=200)
    sp.add_argument("--alpha", type=float, default=0.05)

    sp = sub.add_parser("mc", help="Monte Carlo study; writes a table-shaped CSV")
    common(sp)
    simulation(sp, reps=True)
    sp.add_argument("--threads", type=int, default=usable_cores(),
                    help="worker processes (default: the CPUs this process may run on)")
    return p


def _sim_config(args, **extra) -> SimConfig:
    get_model(args.model)
    return SimConfig(
        model=args.model,
        theta_true=tuple(args.theta),
        n1=args.n1,
        n2=args.n2,
        qz=QzSpec.from_string(args.qz),
        pt_rate=args.pt_rate,
        pc_rate=args.pc_rate,
        seed=args.seed if args.seed is not None else 0,
        **extra,
    )


def _cmd_simulate(args):
    config = _sim_config(args)
    ds = generate_dataset(config)
    source_path = f"{args.out_prefix}_source.csv"
    target_path = f"{args.out_prefix}_target.csv"
    write_dataset(ds, source_path, target_path)
    doc = {
        "source_path": source_path,
        "target_path": target_path,
        "n1": ds.n1,
        "n2": ds.n2,
        "seed": config.seed,
        "censoring_fraction": float(1.0 - ds.delta.mean()),
    }
    human = (
        f"wrote {source_path} (n1={ds.n1}, censoring "
        f"{doc['censoring_fraction']:.1%}) and {target_path} (n2={ds.n2})"
    )
    _emit(args, doc, human)
    return 0


def _cmd_fit(args):
    model = get_model(args.model)
    ds = read_dataset(args.source, args.target)
    init = args.init if args.init is not None else "auto"
    fr = fit(model, ds, init=init,
             opts=FitOptions(grad_tol=args.grad_tol, max_iter=args.max_iter,
                             skip_variance=args.skip_variance))
    _emit(args, fr.to_json_dict(), _fit_table(fr))
    return 0


def _cmd_predict(args):
    with open(args.fit) as fh:
        fr = FitResult.from_json_dict(json.load(fh))
    model = get_model(fr.model_name)
    g, points = _g_from_menu(args.g)
    zeta, se, ci = conditional_functional(model, fr, args.z, g, points=points)
    doc = plain({"zeta": zeta, "se": se, "ci": ci, "g": args.g, "z": args.z})
    human = f"zeta = {zeta:.6f}   SE = {se:.6f}   CI = [{ci[0]:.6f}, {ci[1]:.6f}]"
    _emit(args, doc, human)
    return 0


def _cmd_select(args):
    ds = read_dataset(args.source, args.target)
    names = [m.strip() for m in args.models.split(",") if m.strip()]
    models = [get_model(n) for n in names]
    report = bic_select(models, ds, split_frac=args.split, seed=args.seed)
    lines = [f"{'model':<22}{'criterion':>14}"]
    for name, crit in report.criteria.items():
        lines.append(f"{name:<22}" + (f"{crit:>14.2f}" if crit is not None else f"{'failed':>14}"))
    lines.append(f"chosen: {report.chosen}")
    _emit(args, report.to_json_dict(), "\n".join(lines))
    return 0


def _cmd_shift_test(args):
    pop_p = read_source_csv(args.pop_p)
    pop_q = read_source_csv(args.pop_q)
    res = label_shift_test(pop_p, pop_q, K=args.boot_k, alpha=args.alpha, seed=args.seed)
    human = (
        f"T_n = {res.t_n:.6g}   critical({1 - res.alpha:.0%}) = {res.critical_value:.6g}   "
        f"p = {res.p_value:.4f}   {'REJECT' if res.reject else 'no rejection'}"
    )
    _emit(args, res.to_json_dict(), human)
    return 0


def _cmd_mc(args):
    config = _sim_config(args, n_reps=args.reps)
    report = run_mc_study(config, n_jobs=args.threads)
    _emit(args, report.to_json_dict(), report.to_csv().rstrip("\n"))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "select": _cmd_select,
    "shift-test": _cmd_shift_test,
    "mc": _cmd_mc,
}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        # unknown model names and malformed flag values are usage errors
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 2
    except LssurvError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
