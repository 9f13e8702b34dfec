#!/usr/bin/env python3
"""Sharpness scan: measured resolvent decay against the envelope rate.

For the 2x2 antidiagonal family on its critical manifold (s*t = 4), the
measured per-step decay of ||G_{n,1}(lambda)|| divided by the envelope sum
S_n should approach sqrt(-lambda) * sqrt(s+t)/2, while the provable rate is
gamma(lambda) < sqrt(-lambda).  This script tabulates both across alpha and
lambda.
"""

import argparse

import numpy as np

from blockjacobi import (BoundParams, StParams, assemble_truncation, gamma_rate,
                         scalar_envelope, st_family, verify_green_decay)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphas", default="0.55,0.6,0.7,0.8")
    ap.add_argument("--lambdas", default="-0.5,-1,-2")
    ap.add_argument("--N", type=int, default=300)
    ap.add_argument("--window", default="150:250",
                    help="index window for the empirical rate")
    args = ap.parse_args()
    lo, hi = (int(v) for v in args.window.split(":"))

    print(f"{'alpha':>6} {'lambda':>8} {'gamma':>9} {'empirical':>10} "
          f"{'ratio':>7} {'all_pass':>8}")
    lams = [float(v) for v in args.lambdas.split(",")]
    for alpha in (float(a) for a in args.alphas.split(",")):
        trunc = assemble_truncation(st_family(StParams(2.0, 2.0, alpha)), args.N)
        grid = [BoundParams(lam=lam, b=0.0, delta=1.0, eps=0.1) for lam in lams]
        S = scalar_envelope(trunc, grid[0].delta)
        for lam, p, rep in zip(lams, grid, verify_green_decay(trunc, grid)):
            rates = [-np.log(rep.measured[n - 1]) / S[n - 1]
                     for n in range(lo, hi + 1)]
            emp = float(np.mean(rates))
            print(f"{alpha:6.2f} {lam:8.2f} {gamma_rate(p):9.4f} {emp:10.4f} "
                  f"{emp / np.sqrt(-lam):7.4f} {str(rep.all_pass):>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
