"""Empirical paraproduct continuity: norm ratios across grid resolutions.

The operator bounds behind the product estimates are resolution independent;
this samples random fields at several grid sizes and reports the observed
ratio ||op(u, v)|| / (||u|| ||v||) in the probe's Besov indices. Ratios that
stay bounded as M grows are the numerical echo of continuity.

Example:
    python3 scripts/probe_continuity.py --sizes 32 64 128 --samples 25
"""
import argparse
import sys

from blcsim.dyadic import build_partition
from blcsim.norms import BesovIndex
from blcsim.paraproduct import continuity_probe_R, continuity_probe_T
from blcsim.spectral import Grid


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--N", type=int, default=2, choices=(2, 3))
    ap.add_argument("--sizes", type=int, nargs="+", default=(32, 64, 128))
    ap.add_argument("--samples", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    idx_t = BesovIndex(s=0.0, p=2.0, r=1.0)
    s_pair = (0.5, 0.5)
    print(f"N={args.N}, {args.samples} random pairs per size, seed={args.seed}")
    print(f"{'M':>5} {'blocks':>7} {'T: max ratio':>14} {'R: max ratio':>14}")
    rows = []
    for m in args.sizes:
        grid = Grid(dim=args.N, points=m)
        part = build_partition(grid)
        res_t = continuity_probe_T(part, idx_t,
                                   n_samples=args.samples, seed=args.seed)
        res_r = continuity_probe_R(part, s1=s_pair[0], s2=s_pair[1],
                                   r1=1.0, r2=1.0,
                                   n_samples=args.samples, seed=args.seed)
        rows.append((m, part.n_blocks, res_t.max_ratio, res_r.max_ratio))
        print(f"{m:>5} {part.n_blocks:>7} {res_t.max_ratio:>14.4f} "
              f"{res_r.max_ratio:>14.4f}")

    grew = all(b[2] <= 2.0 * a[2] + 0.1 and b[3] <= 2.0 * a[3] + 0.1
               for a, b in zip(rows, rows[1:]))
    print("bounded across refinement" if grew
          else "WARNING: ratios grew faster than expected")
    return 0 if grew else 1


if __name__ == "__main__":
    sys.exit(main())
