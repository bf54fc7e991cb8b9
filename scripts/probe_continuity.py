"""Empirical paraproduct continuity: norm ratios across grid resolutions.

The operator bounds behind the product estimates are resolution independent;
this samples random fields at several grid sizes and reports the observed
ratio ||op(u, v)|| / (||u|| ||v||) in the probe's Besov indices. Ratios that
stay bounded as M grows are the numerical echo of continuity. Each field is
blcsim.presets.random_modes: 20 unit modes with 0 < |k| <= M/4.

Example:
    python3 scripts/probe_continuity.py --sizes 32 64 128 --samples 25
"""
import argparse
import sys
from dataclasses import dataclass

import numpy as np

from blcsim.dyadic import DyadicPartition, build_partition
from blcsim.norms import INF, BesovIndex, besov_norm, lp_norm
from blcsim.paraproduct import paraproduct_T, remainder_R
from blcsim.presets import random_modes
from blcsim.spectral import Grid, to_physical


@dataclass
class ProbeResult:
    """Empirical operator-norm ratios from random trigonometric samples."""

    ratios: np.ndarray
    max_ratio: float
    skipped: int


def _probe(part: DyadicPartition, op, out_idx: BesovIndex, u_norm, v_norm,
           n_samples: int, seed: int) -> ProbeResult:
    """Ratios ||op(u, v)||_{B(out_idx)} / (u_norm(u) v_norm(v)), u drawn
    before v per sample; a denominator below 1e-13 skips the sample."""
    rng = np.random.default_rng(seed)
    k_max = part.grid.points // 4
    ratios, skipped = [], 0
    for _ in range(n_samples):
        u = random_modes(part.grid, rng, 20, k_max)
        v = random_modes(part.grid, rng, 20, k_max)
        denom = u_norm(u) * v_norm(v)
        if denom < 1e-13:
            skipped += 1
            continue
        ratios.append(besov_norm(op(u, v, part), out_idx, part) / denom)
    arr = np.asarray(ratios)
    return ProbeResult(arr, float(np.max(arr)) if arr.size else 0.0, skipped)


def continuity_probe_T(part: DyadicPartition, idx: BesovIndex,
                       n_samples: int = 25, seed: int = 0) -> ProbeResult:
    """Ratios ||T_u v||_{B^s_{p,r}} / (||u||_{L^inf} ||v||_{B^s_{p,r}}).

    Requires s < N/p, or s = N/p with r = 1.
    """
    n_over_p = part.grid.dim / idx.p if idx.p != INF else 0.0
    if not (idx.s < n_over_p or (idx.s == n_over_p and idx.r == 1.0)):
        raise ValueError(
            f"index (s={idx.s}, p={idx.p}, r={idx.r}) outside the continuity "
            f"range: need s < N/p or s = N/p with r = 1")
    return _probe(part, paraproduct_T, idx, lambda u: lp_norm(to_physical(u), INF),
                  lambda v: besov_norm(v, idx, part), n_samples, seed)


def continuity_probe_R(part: DyadicPartition, s1: float, r1: float,
                       s2: float, r2: float,
                       n_samples: int = 25, seed: int = 0) -> ProbeResult:
    """Ratios ||R(u,v)||_{B^sigma_{2,r}} / (||u||_{B^s1_{2,r1}} ||v||_{B^s2_{2,r2}}).

    All Lebesgue exponents are 2, so the output regularity carries the
    dimensional correction: sigma = s1 + s2 - N(1/p1 + 1/p2 - 1/p)
    = s1 + s2 - N/2. Requires s1 + s2 > 0 and sigma < N/2 (or sigma = N/2
    with r = 1); 1/r = min(1, 1/r1 + 1/r2).
    """
    if not s1 + s2 > 0:
        raise ValueError(f"remainder probe needs s1 + s2 > 0, got {s1 + s2}")
    n_half = part.grid.dim / 2.0
    sigma = s1 + s2 - n_half
    inv = (0.0 if r1 == INF else 1.0 / r1) + (0.0 if r2 == INF else 1.0 / r2)
    r = INF if inv == 0.0 else max(1.0, 1.0 / inv)
    if not (sigma < n_half or (sigma == n_half and r == 1.0)):
        raise ValueError(
            f"remainder probe needs sigma < N/2 (or sigma = N/2 with r = 1), "
            f"got sigma = {sigma}")
    out_idx = BesovIndex(sigma, 2.0, r)
    idx1, idx2 = BesovIndex(s1, 2.0, r1), BesovIndex(s2, 2.0, r2)
    return _probe(part, remainder_R, out_idx, lambda u: besov_norm(u, idx1, part),
                  lambda v: besov_norm(v, idx2, part), n_samples, seed)


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
