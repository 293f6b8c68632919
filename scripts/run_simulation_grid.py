#!/usr/bin/env python3
"""Replicated simulation study over a grid of sample sizes.

Writes one CSV block per (n1, n2) cell with the per-parameter MSE, bias,
empirical SE, mean estimated SE and coverage, mirroring the layout used in
the package's reference tables.  Each block is written as soon as its cell
finishes.  A cell with too many failed replications is named on stderr and
written from the replications that finished (none where fewer than 2 did);
the script goes on with the remaining cells and exits 1 at the end.

Example:
    python scripts/run_simulation_grid.py --model ph-weibull \
        --theta 1,1,1,1.5 --reps 500 --seed 1 --threads 4 --out grid.csv
"""

import argparse
import sys

from lssurv.errors import TooManyFailures
from lssurv.likelihood import usable_cores
from lssurv.simulation import QzSpec, SimConfig, run_mc_study

GRID = [(250, 500), (500, 250), (500, 500), (500, 750),
        (750, 500), (500, 1000), (1000, 500), (1000, 1000)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", default="ph-weibull")
    ap.add_argument("--theta", default="1,1,1,1.5")
    ap.add_argument("--qz", default="n:0,n:1", help="covariate slots, comma-separated: "
                    "n:mean[:sd], e:rate, b:p or const:value")
    ap.add_argument("--reps", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--threads", type=int, default=usable_cores())
    ap.add_argument("--pc-rate", type=float, default=0.4)
    ap.add_argument("--cells", default=None,
                    help="comma list like 500x500,1000x500 (default: full grid)")
    ap.add_argument("--out", default="simulation_grid.csv")
    args = ap.parse_args()

    theta = tuple(float(v) for v in args.theta.split(","))
    cells = GRID
    if args.cells:
        cells = [tuple(int(v) for v in c.split("x")) for c in args.cells.split(",")]

    failed = []
    with open(args.out, "w") as fh:
        fh.write("n1,n2,param,MSE,Bias,SE,SE_hat,CP\n")
        for n1, n2 in cells:
            cfg = SimConfig(model=args.model, theta_true=theta, n1=n1, n2=n2,
                            qz=QzSpec.from_string(args.qz), pc_rate=args.pc_rate,
                            n_reps=args.reps, seed=args.seed)
            try:
                rep = run_mc_study(cfg, n_jobs=args.threads)
            except TooManyFailures as exc:
                print(f"cell {n1}x{n2} failed: TooManyFailures: {exc}", file=sys.stderr)
                failed.append(f"{n1}x{n2}")
                rep = exc.report
                if rep is None:
                    continue
            fh.writelines(f"{n1},{n2},{line}\n" for line in rep.to_csv().splitlines()[1:])
            fh.flush()
            print(f"done {n1}/{n2}: failures {rep.n_failed}, "
                  f"mean censoring {rep.mean_censoring:.3f}", file=sys.stderr)
    print(f"wrote {args.out}")
    if failed:
        sys.exit(f"{len(failed)} cell(s) with too many failed replications: {', '.join(failed)}")


if __name__ == "__main__":
    main()
