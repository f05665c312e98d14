#!/usr/bin/env python3
"""Sweep the operator-to-restricted norm ratio over random measure pairs.

For each trial a pair of discrete measures with a controlled number of
shared support points is drawn, a random kernel matrix is placed on the
pair, and the ratio ||T|| / ||T||_restricted is recorded.  The class is
entries uniform in [-1, 1] off the coincident pairs and 0 on them, as a
kernel times a multiplier that vanishes at 0 gives (diagonal policy 0).  On
that class the ratio is 1 when no support is shared (the restriction
constraint is void) and is bounded by 2 in general; the sweep prints the
empirical distribution of the ratio as the overlap grows.  Free coincident
entries would leave the class: the restricted norm never sees them, so the
ratio is unbounded there.

Example:
    python3 scripts/factor2_sweep.py --trials 200 --max-shared 6
"""

import argparse
import sys

import numpy as np

from siolab import forms
from siolab.kernels import KernelMatrix
from siolab.measure import from_points, shared_point_indices


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=100, help="trials per overlap size")
    parser.add_argument("--max-shared", type=int, default=5,
                        help="largest number of shared support points")
    parser.add_argument("--private", type=int, default=5,
                        help="private support points per side")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    print(f"{'shared':>6} {'ratio min':>10} {'ratio mean':>10} {'ratio max':>10}")
    for n_shared in range(args.max_shared + 1):
        ratios = []
        for trial in range(args.trials):
            rng = np.random.default_rng((args.seed, n_shared, trial))
            shared = rng.uniform(0.0, 1.0, n_shared)
            mu_pts = np.concatenate([shared, rng.uniform(2.0, 3.0, args.private)])
            nu_pts = np.concatenate([shared, rng.uniform(4.0, 5.0, args.private)])
            n_mu, n_nu = len(mu_pts), len(nu_pts)
            mu = from_points(mu_pts, rng.uniform(0.5, 1.5, n_mu) / n_mu)
            nu = from_points(nu_pts, rng.uniform(0.5, 1.5, n_nu) / n_nu)
            entries = rng.uniform(-1.0, 1.0, (n_nu, n_mu))
            idx_mu, idx_nu = shared_point_indices(mu.points, nu.points)
            entries[idx_nu, idx_mu] = 0.0
            km = KernelMatrix(entries, mu, nu, 1, 0.0)
            operator = forms.operator_norm_p2(km).value
            restricted = forms.restricted_norm_exact(km, 2.0).value
            if restricted > 0:
                ratio = operator / restricted
                assert ratio <= 2.0 + 1e-9, "factor-2 bound violated"
                ratios.append(ratio)
        if ratios:
            print(f"{n_shared:>6} {min(ratios):>10.6f} "
                  f"{np.mean(ratios):>10.6f} {max(ratios):>10.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
