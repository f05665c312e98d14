#!/usr/bin/env python3
"""Track the two-weight growth forced by a kernel's pointwise blow-up.

Runs the blow-up experiment on uniform clouds in disks of shrinking
radius: at each scale the windowed kernel's in-ball entries are checked
against C' eps^(-alpha), the growth constant of the scanned balls is
chained to 2 * (Schur bound) * (restricted norm estimate), and the table
shows how both the growth witness and the restricted estimate scale like
r^(-alpha) as the disks shrink.

Example:
    python3 scripts/necessity_sweep.py --kernel cauchy --scales 2:6 --n 400
"""

import argparse
import sys
import time

from siolab import muckenhoupt
from siolab.measure import generate_measure
from siolab.kernels import kernel_from_name


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernel", default="cauchy")
    parser.add_argument("--scales", default="2:6",
                        help="dyadic exponent range k0:k1, radii 2^-k")
    parser.add_argument("--n", type=int, default=400, help="points per cloud")
    parser.add_argument("--p", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)

    kernel = kernel_from_name(args.kernel)
    k0, k1 = (int(v) for v in args.scales.split(":"))

    print(f"{'radius':>10} {'witness':>10} {'restricted':>10} {'ratio':>8} "
          f"{'pointwise':>9} {'chain':>6} {'secs':>6}")
    for k in range(k0, k1 + 1):
        r = 2.0**-k
        cloud = generate_measure(
            "ball_uniform",
            {"n": args.n, "radius": r, "dimension": kernel.dimension},
            args.seed,
        )
        t0 = time.perf_counter()
        rep = muckenhoupt.necessity_experiment(
            kernel, cloud, cloud, args.p, [r], seed=3
        )
        elapsed = time.perf_counter() - t0
        print(f"{r:>10.5f} {rep.growth.constant:>10.4f} {rep.restricted.value:>10.4f} "
              f"{rep.restricted.value / rep.growth.constant:>8.4f} "
              f"{str(rep.pointwise_ok):>9} {str(rep.chain_ok):>6} {elapsed:>6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
