#!/usr/bin/env python3
"""Compare two lssurv trees, such as a parent and a change, with the benchmark.

    python3 perfbench/compare.py PARENT_TREE CHANGE_TREE [--workload W ...]
        [--pairs 10] [--seed0 1]

Each tree is a directory holding ``src/lssurv``; both are measured with this
copy of the benchmark.  Pair ``i`` runs seed ``seed0 + i`` on both trees,
the parent first on even ``i`` and the change first on odd ``i``.  For every
(workload, end-to-end metric) pair the report gives each side's median and
quartiles, the change's win fraction over the pairs (ties count for
neither) and a verdict:

* ``improved``: the change wins at least 9 of 10 pairs, the medians
  differ by more than the parent's quartile distance and the change failed
  no more operations on the workload than the parent;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound (a share of the parent's median);
* ``unresolved``: fewer than 10 pairs; or the parent's quartile distance
  exceeds the bound and not every run of the change reads better than every
  run of the parent; or the change would be ``improved`` but failed more
  operations than the parent;
* ``unchanged``: otherwise.

Each run measures for the ``run_seconds`` of BENCHMARK.json.

Result sets whose environments differ (other than in commit, source digest
and seed) are refused.  Repeat a claimed gain with ``--seed0`` set to the
held-out seed of ``spec.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PER_RUN_ENV_KEYS = ("commit", "src_sha256", "seed")
MIN_PAIRS = 10


def run_once(tree, workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", "0", "--root", str(tree)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{tree} {workload} seed {seed} exited {out.returncode}: "
                           f"{out.stderr.strip()[-800:]}")
    lines = out.stdout.strip().splitlines()
    return {"seed": seed, "detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def collect(args):
    sides = {"parent": str(Path(args.parent).resolve()), "change": str(Path(args.change).resolve())}
    runs = {side: {w: [] for w in args.workload} for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in args.workload:
            for side in order:
                r = run_once(sides[side], w, args.seed0 + i)
                runs[side][w].append(r)
                print(f"pair {i} {w} {side}: correct={r['result']['correct']}", file=sys.stderr)
    return {"trees": sides, "runs": runs}


def check_environments(data):
    envs = set()
    for side in data["runs"].values():
        for runs in side.values():
            for r in runs:
                env = {k: v for k, v in r["detail"]["env"].items() if k not in PER_RUN_ENV_KEYS}
                envs.add(json.dumps(env, sort_keys=True))
    if len(envs) > 1:
        raise SystemExit("refusing to compare: environments differ:\n" + "\n".join(sorted(envs)))


def verdict(parent, change, better, bound, parent_failed=0, change_failed=0):
    """Verdict and win fraction for paired samples of one metric; the
    failure counts are the failed operations of each side's runs."""
    sign = 1.0 if better == "lower" else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = q3 - q1
    scale = abs(med_p) or 1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    win_frac = wins / len(parent)
    gain = sign * (med_p - med_c)
    all_better = (max(change) < min(parent)) if better == "lower" else (min(change) > max(parent))
    if len(parent) < MIN_PAIRS or (spread / scale > bound and not all_better):
        return "unresolved", win_frac
    if win_frac >= 0.9 and gain > spread:
        return ("improved" if change_failed <= parent_failed else "unresolved"), win_frac
    if -gain > bound * scale:
        return "worse", win_frac
    return "unchanged", win_frac


def report(data):
    check_environments(data)
    rows = []
    workloads = list(data["runs"]["parent"])
    for w in workloads:
        fails = [sum(r["result"]["failed"] for r in data["runs"][side][w])
                 for side in ("parent", "change")]
        for m in BENCH["end_to_end"]:
            vals = {side: [r["result"]["metrics"][m["name"]]["value"] for r in data["runs"][side][w]]
                    for side in ("parent", "change")}
            v, win = verdict(vals["parent"], vals["change"], m["better"], m["bound"], *fails)
            row = {"workload": w, "metric": m["name"], "unit": m["unit"], "verdict": v,
                   "change_win_frac": win, "n_pairs": len(vals["parent"])}
            for side, xs in vals.items():
                q1, _, q3 = statistics.quantiles(xs, n=4)
                row[side] = {"median": statistics.median(xs), "q1": q1, "q3": q3}
            rows.append(row)
    failed = {side: sum(r["result"]["failed"] for runs in data["runs"][side].values() for r in runs)
              for side in ("parent", "change")}
    return rows, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in BENCH["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        ap.error(f"give at least {MIN_PAIRS} pairs")
    args.workload = args.workload or [w["name"] for w in BENCH["workloads"]]
    rows, failed = report(collect(args))
    for r in rows:
        print(f"{r['workload']:<20} {r['metric']:<12} parent {r['parent']['median']:.6g} "
              f"[{r['parent']['q1']:.6g}, {r['parent']['q3']:.6g}]  change {r['change']['median']:.6g} "
              f"[{r['change']['q1']:.6g}, {r['change']['q3']:.6g}] {r['unit']:<6} "
              f"win {r['change_win_frac']:.2f}  {r['verdict']}")
    print(f"failed operations: parent {failed['parent']}, change {failed['change']}")
    print(json.dumps({"rows": rows, "failed_ops": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
