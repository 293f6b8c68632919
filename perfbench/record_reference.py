#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's output checks compare with.

    python3 perfbench/record_reference.py [--workload W ...] [--seeds 0 1 ...]

For every workload and seed (default: ``reference_seeds`` of spec.json) the
first ``reference_ops`` operations are run and the digests of their outputs
are merged into ``perfbench/reference.json``.  Each output must first pass
the seed-independent checks.  Record only at a commit whose outputs are
trusted; the committed file was recorded at the commit that introduced the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import run


def _format(refs) -> str:
    """JSON with one line per (workload, seed, operation) digest."""
    lines = ["{"]
    for wi, (name, seeds) in enumerate(sorted(refs.items())):
        lines.append(f"  {json.dumps(name)}: {{")
        seed_keys = sorted(seeds, key=int)
        for si, seed in enumerate(seed_keys):
            ops = seeds[seed]
            body = ",\n".join(f"      {json.dumps(i)}: {json.dumps(ops[i], sort_keys=True)}"
                               for i in sorted(ops, key=int))
            lines.append(f"    {json.dumps(seed)}: {{\n{body}\n    }}" + ("," if si < len(seed_keys) - 1 else ""))
        lines.append("  }" + ("," if wi < len(refs) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=list(run.SPEC["workloads"]))
    ap.add_argument("--seeds", type=int, nargs="+", default=run.SPEC["reference_seeds"])
    args = ap.parse_args(argv)
    run.pin_blas_threads(run.SPEC["blas_threads"])
    run.import_program(run.BENCH_ROOT)
    import spans
    import workloads

    path = run.HERE / "reference.json"
    refs = run.load_reference()
    n_jobs = run.nproc()
    (run.BENCH_ROOT / ".perfbench").mkdir(exist_ok=True)
    for name in args.workload or list(run.SPEC["workloads"]):
        spec = run.SPEC["workloads"][name]
        for seed in args.seeds:
            workdir = tempfile.mkdtemp(prefix="ref-", dir=run.BENCH_ROOT / ".perfbench")
            try:
                wl = workloads.WORKLOADS[name](spec["sizes"], seed, workdir, n_jobs)
                wl.setup()
                for i in range(spec["reference_ops"]):
                    res = wl.run(wl.prepare(i), spans.NullTracer())
                    problems = wl.check(res, None)
                    if problems:
                        raise SystemExit(f"{name} seed {seed} op {i} fails its checks: {problems}")
                    refs.setdefault(name, {}).setdefault(str(seed), {})[str(i)] = res.digest
                    print(f"{name} seed {seed} op {i} recorded", file=sys.stderr)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            path.write_text(_format(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
