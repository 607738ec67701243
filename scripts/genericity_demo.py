#!/usr/bin/env python3
"""Side-by-side genericity probe: golden ratio versus a Liouville-type sum.

The golden ratio is badly approximable, so its linear-form minima decay
as slowly as possible and every height passes a generous threshold.
The factorial series admits super-polynomially good approximations and
fails the same threshold at the heights where a truncation denominator
fits in the box.
"""

import argparse

from genlab.dioph import genericity_probe
from genlab.tuples import RealTuple

LIOUVILLE = "1/10 + 1/10^2 + 1/10^6 + 1/10^24 + 1/10^120"


def show(name: str, theta: RealTuple, eta: float, c: float, heights) -> None:
    report = genericity_probe(theta, 2, eta, c, heights)
    print(f"{name}: {report.overall} (c_required_max = {report.c_required_max:.4f})")
    for v in report.verdicts:
        lo, hi = v.record.log_exp_value
        flag = {True: "pass", False: "FAIL", None: "undecided"}[v.passed]
        print(
            f"  D={v.D:3d}  l={v.record.l!s:>12}  "
            f"log|e^s - 1| in [{lo:9.4f}, {hi:9.4f}]  vs {v.threshold:9.4f}  {flag}"
        )
    print()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eta", type=float, default=2.0)
    ap.add_argument("--c", type=float, default=0.045)
    ap.add_argument("--min-D", type=int, default=7)
    ap.add_argument("--max-D", type=int, default=12)
    ap.add_argument("--prec", type=int, default=512)
    args = ap.parse_args()

    heights = range(args.min_D, args.max_D + 1)
    golden = RealTuple(("1", "(1 + sqrt(5))/2"), precision_bits=args.prec)
    liouville = RealTuple(("1", LIOUVILLE), precision_bits=args.prec)
    show("golden ratio", golden, args.eta, args.c, heights)
    show("factorial series", liouville, args.eta, args.c, heights)


if __name__ == "__main__":
    main()
