#!/usr/bin/env python3
"""Show a mean-pooled encoder collision that an exact GP separates.

Prints the two context sets, their (identical) pooled encodings, and the
exact GP posterior means at the query point.
"""

import argparse
import sys

from nplab.cnp import Encoder, example_collision_pair
from nplab.gp_oracle import posterior_mean
from nplab.kernels import KernelSpec


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--x-t", type=float, default=1.0)
    args = ap.parse_args(argv)

    spec = KernelSpec(family="rbf")
    pair = example_collision_pair()
    enc = Encoder()
    print("context A:", list(zip(pair.C.locations[:, 0],
                                 pair.C.values[:, 0])))
    print("context B:", list(zip(pair.C2.locations[:, 0],
                                 pair.C2.values[:, 0])))
    print("pooled encoding (both):", enc.mean_encoding(pair.C))

    mu_a = posterior_mean(spec, pair.C.locations, pair.C.values[:, 0],
                          args.x_t)
    mu_b = posterior_mean(spec, pair.C2.locations, pair.C2.values[:, 0],
                          args.x_t)
    print(f"gp posterior means at x_t={args.x_t:g}: "
          f"{mu_a:.6f} vs {mu_b:.6f} (gap {abs(mu_a - mu_b):.6f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
