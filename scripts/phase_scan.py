#!/usr/bin/env python3
"""Spectral phase scan over the (s, t) plane.

Classifies each point by the product s*t (threshold 4) and backs the
classification with the minimum eigenvalue of two truncation sizes: on the
critical manifold the minimum stays put near the edge, below it it dives,
above it the whole spectrum marches upward.
"""

import argparse

from blockjacobi import (StParams, assemble_truncation, phase_class,
                         st_family, tridiag_kth_eigenvalue)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--svals", default="0.5,1,2,3")
    ap.add_argument("--tvals", default="0.5,1,2,3")
    ap.add_argument("--alpha", type=float, default=0.6)
    ap.add_argument("--N1", type=int, default=100)
    ap.add_argument("--N2", type=int, default=400)
    args = ap.parse_args()

    print(f"{'s':>5} {'t':>5} {'st':>6} {'phase':<15} "
          f"{'min_eig(N1)':>12} {'min_eig(N2)':>12} {'drift':>9}")
    for s in (float(v) for v in args.svals.split(",")):
        for t in (float(v) for v in args.tvals.split(",")):
            fam = st_family(StParams(s, t, args.alpha))
            m1 = tridiag_kth_eigenvalue(assemble_truncation(fam, args.N1), 1)
            m2 = tridiag_kth_eigenvalue(assemble_truncation(fam, args.N2), 1)
            cls = phase_class(s, t)
            print(f"{s:5.2f} {t:5.2f} {s * t:6.2f} {cls.value:<15} "
                  f"{m1:12.4f} {m2:12.4f} {m2 - m1:9.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
