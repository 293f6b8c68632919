#!/usr/bin/env python3
"""Benchmark of the lssurv library and CLI.

    python3 perfbench/run.py --workload analysis-n2000 --seed 1 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one process each

Run from the root of a checkout.  The workload's inputs are built from
``--seed``; operations then run back to back (a closed loop with one caller)
until ``--seconds`` have passed, and every output is checked.  Two JSON
lines are printed: a detail record (environment, per-operation times and
check results, sample counts) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are the per-layer metrics of a traced run, which alternates untraced
and traced executions of operation 0.

``--smoke`` swaps in tiny sizes for the self-tests.  The program is imported
from ``<root>/src``; when it is not there the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH_ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads(n: int) -> None:
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def import_program(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import lssurv

    if not Path(lssurv.__file__).resolve().is_relative_to(src):
        raise ImportError(f"lssurv resolved to {lssurv.__file__}, outside {src}")
    return lssurv


def _git_commit(root: Path):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src" / "lssurv").rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int, n_jobs: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "seed": seed,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "mc_n_jobs": n_jobs,
    }


def load_reference():
    path = HERE / "reference.json"
    return json.loads(path.read_text()) if path.exists() else {}


def reference_for(refs, wl, seed, i):
    return refs.get(wl.name, {}).get(str(seed), {}).get(str(i))


def run_op(wl, i, ref, tracer, serial=False) -> dict:
    """One timed operation and its output check."""
    prepared = wl.prepare(i)
    gc.collect()
    t = time.perf_counter()
    try:
        res = wl.run(prepared, tracer, serial=serial)
    except Exception as exc:  # an operation that raises counts as failed
        return {"i": i, "wall": time.perf_counter() - t, "ok": False,
                "error": f"{type(exc).__name__}: {exc}", "units": 0, "fits_ok": 0,
                "fits": wl.fits_per_op}
    wall = time.perf_counter() - t
    try:
        problems = wl.check(res, ref)
    except Exception as exc:
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return {"i": i, "wall": wall, "ok": not problems, "problems": problems[:5],
            "referenced": ref is not None, "units": res.units, "fits_ok": res.fits_ok,
            "fits": res.fits, "digest": res.digest}


def measure_plain(wl, seconds, refs, seed):
    import spans

    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        i = len(ops)
        ops.append(run_op(wl, i, reference_for(refs, wl, seed, i), spans.NullTracer()))
    return ops


def peak_rss_mb(pool_workers: int) -> float:
    """Own peak RSS plus, for a pool, workers x the largest child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if pool_workers else 0
    return (own + pool_workers * kids) / 1024.0


def probe_setup(args, extra: int) -> list:
    """Set-up time of ``extra`` fresh processes (import + input build)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--root", str(args.root), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(extra):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def plain_metrics(ops, setups, rss):
    done = [o for o in ops if "error" not in o]
    walls = [o["wall"] for o in (done or ops)]
    fits = sum(o["fits"] for o in ops)
    return {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(walls),
        "units_per_s": sum(o["units"] for o in done) / sum(o["wall"] for o in ops),
        "peak_rss_mb": rss,
        "op_ok_frac": sum(o["ok"] for o in ops) / len(ops),
        "fit_ok_frac": sum(o["fits_ok"] for o in ops) / fits if fits else 0.0,
    }, {
        "setup_s": len(setups), "op_p50_s": len(walls), "units_per_s": len(ops),
        "op_ok_frac": len(ops), "fit_ok_frac": fits,
    }


def measure_traced(wl, seconds, refs, seed, n_jobs):
    """Pairs of an untraced and a traced execution of operation 0 (for the
    MC study: untraced with the pool, untraced serial, traced serial), then
    one execution of operation 0 that takes only the tracemalloc peak of
    ``asymptotic_variance``."""
    import spans

    tracer = spans.Tracer()
    ref = reference_for(refs, wl, seed, 0)
    null = spans.NullTracer()
    plain, base, traced = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_op(wl, 0, ref, null))
        base.append(run_op(wl, 0, ref, null, serial=True) if wl.has_pool else plain[-1])
        tracer.op = len(traced)
        tracer.install()
        try:
            traced.append(run_op(wl, 0, ref, tracer, serial=True))
        finally:
            tracer.uninstall()
    mem = spans.Tracer(memory=True).install()
    try:
        memory = [run_op(wl, 0, ref, null, serial=True)]
    finally:
        mem.uninstall()
    n = len(traced)
    metrics = spans.layer_metrics(tracer.spans, n)
    metrics["variance.traced_peak_mb"] = spans.traced_peak_mb(mem.spans)
    median = statistics.median
    metrics["trace.overhead_frac"] = (median(o["wall"] for o in traced)
                                      / median(o["wall"] for o in base) - 1.0)
    metrics["simulation.mc.parallel_eff"] = (
        spans.rep_seconds(tracer.spans) / n / (median(o["wall"] for o in plain) * n_jobs)
        if wl.has_pool else 0.0)
    ops = plain + (base if wl.has_pool else []) + traced + memory
    return ops, metrics, tracer, {"traced_ops": n, "memory_ops": len(memory),
                                  "untraced_ops": len(ops) - n - len(memory)}


def run_all(args, names) -> int:
    """Run each workload in a fresh process; print each result line and,
    last, all results keyed by workload."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", str(args.root)] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr, end="")
            return out.returncode
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
        print(name, json.dumps(results[name]))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    bench = json.loads((BENCH_ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]],
                    help="default: every workload in turn, each in its own process")
    ap.add_argument("--seed", type=int, default=SPEC["default_seed"])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    ap.add_argument("--root", type=Path, default=Path.cwd(),
                    help="tree whose src/lssurv is measured (default: the working directory)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    args.root = args.root.resolve()
    if args.workload is None:
        return run_all(args, [w["name"] for w in bench["workloads"]])

    pin_blas_threads(SPEC["blas_threads"])
    n_jobs = nproc()
    t0 = time.perf_counter()
    try:
        import_program(args.root)
    except ImportError as exc:
        print(f"error: cannot import lssurv from {args.root / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    spec = SPEC["workloads"][args.workload]
    sizes = dict(spec["sizes"], **(spec["smoke_sizes"] if args.smoke else {}))
    (BENCH_ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=BENCH_ROOT / ".perfbench")
    try:
        wl = workloads.WORKLOADS[args.workload](sizes, args.seed, workdir, n_jobs)
        wl.setup()
        setup_s = time.perf_counter() - t0
        if args.setup_probe:
            print(setup_s)
            return 0
        refs = {} if args.smoke else load_reference()
        if args.trace:
            ops, values, tracer, counts = measure_traced(wl, args.seconds, refs, args.seed, n_jobs)
            spans_path = BENCH_ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.dump(spans_path)
            extra = {"absent": tracer.absent, "spans": str(spans_path.relative_to(BENCH_ROOT))}
            declared = bench["per_layer"]
        else:
            ops = measure_plain(wl, args.seconds, refs, args.seed)
            rss = peak_rss_mb(n_jobs if wl.has_pool and n_jobs > 1 else 0)
            setups = [setup_s] + probe_setup(args, SPEC["setup_repeats"] - 1)
            values, counts = plain_metrics(ops, setups, rss)
            extra = {}
            declared = bench["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not o["ok"] for o in ops)
    detail = {
        "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
        "env": environment(args.root, args.seed, n_jobs), "sizes": sizes, "counts": counts,
        "ops": [{k: o[k] for k in ("i", "wall", "ok", "referenced", "problems", "error")
                 if k in o} for o in ops],
        **extra,
    }
    print(json.dumps(detail))
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
