"""Bony decomposition of pointwise products on the periodic grid.

For scalar fields u, v the product splits as

    dealias(u v) = T_u v + T_v u + R(u, v) + low_terms

with the paraproduct T_u v = sum_q S_{q-1} u . Delta_q v, the remainder
R(u, v) = sum_{|p-q| <= 1} Delta_p u . Delta_q v (both over the resolvable
block range), and low_terms collecting the cross terms the truncated grid
decomposition cannot attribute to either: products involving residual_low
(the mean and sub-first-block content) paired with itself, and anything
touching the residual_high shoulder. In closed form

    low_terms = u_L v_L + u v_H + u_H v - u_H v_H

where u_L, u_H are the low/high residuals of u. Every partial product is
formed in physical space and dealiased, so the identity holds to roundoff
for dealiased inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicPartition, block_project, decompose
from .norms import INF, BesovIndex, besov_norm, lp_norm
from .spectral import (Grid, GridMismatchError, PhysicalField, SpectralField,
                       dealias, place_mode, to_physical, to_spectral)


def _check(u: SpectralField, v: SpectralField, part: DyadicPartition) -> None:
    if u.grid != v.grid or u.grid != part.grid:
        raise GridMismatchError("operands and partition must share one grid")
    if u.rank != 0 or v.rank != 0:
        raise ValueError("paraproducts are defined for scalar fields")


def _dealiased_product(a: PhysicalField, b: PhysicalField) -> SpectralField:
    prod = PhysicalField(a.grid, 0, a.values * b.values)
    return dealias(to_spectral(prod))


def paraproduct_T(u: SpectralField, v: SpectralField,
                  part: DyadicPartition) -> SpectralField:
    """T_u v = sum over q in q_range of S_{q-1} u . Delta_q v.

    S_{q-1} includes residual_low content, so a constant u multiplies
    straight through onto the blocks of v.
    """
    _check(u, v, part)
    acc = np.zeros(u.grid.shape, dtype=np.complex128)
    for q in part.q_range:
        low = to_physical(SpectralField(u.grid, 0, u.coeffs * part.chi_mask(q - 1)))
        blk = to_physical(block_project(v, q, part))
        acc = acc + _dealiased_product(low, blk).coeffs
    return SpectralField(u.grid, 0, acc)


def remainder_R(u: SpectralField, v: SpectralField,
                part: DyadicPartition) -> SpectralField:
    """R(u, v) = sum of Delta_p u . Delta_q v over |p - q| <= 1, p, q in range."""
    _check(u, v, part)
    phys_u = {q: to_physical(block_project(u, q, part)) for q in part.q_range}
    phys_v = {q: to_physical(block_project(v, q, part)) for q in part.q_range}
    acc = np.zeros(u.grid.shape, dtype=np.complex128)
    for p in part.q_range:
        for q in part.q_range:
            if abs(p - q) <= 1:
                acc = acc + _dealiased_product(phys_u[p], phys_v[q]).coeffs
    return SpectralField(u.grid, 0, acc)


@dataclass
class BonySplit:
    """The four pieces of the grid Bony decomposition of dealias(u v)."""

    t_uv: SpectralField
    t_vu: SpectralField
    remainder: SpectralField
    low_terms: SpectralField

    def total(self) -> SpectralField:
        return self.t_uv + self.t_vu + self.remainder + self.low_terms


def bony_reconstruct(u: SpectralField, v: SpectralField,
                     part: DyadicPartition) -> BonySplit:
    """Split dealias(u v) into paraproducts, remainder and residual cross terms.

    Verifies the reconstruction identity against the directly dealiased
    product and raises on disagreement beyond roundoff.
    """
    _check(u, v, part)
    du, dv = decompose(u, part), decompose(v, part)
    u_phys, v_phys = to_physical(u), to_physical(v)
    u_low, v_low = to_physical(du.residual_low), to_physical(dv.residual_low)
    u_high, v_high = to_physical(du.residual_high), to_physical(dv.residual_high)

    low_vals = (u_low.values * v_low.values
                + u_phys.values * v_high.values
                + u_high.values * v_phys.values
                - u_high.values * v_high.values)
    split = BonySplit(
        t_uv=paraproduct_T(u, v, part),
        t_vu=paraproduct_T(v, u, part),
        remainder=remainder_R(u, v, part),
        low_terms=dealias(to_spectral(PhysicalField(u.grid, 0, low_vals))),
    )
    direct = _dealiased_product(u_phys, v_phys)
    err = np.max(np.abs(split.total().coeffs - direct.coeffs))
    scale = max(float(np.max(np.abs(direct.coeffs))), 1e-300)
    if err > 1e-10 * scale:
        raise RuntimeError(
            f"Bony reconstruction failed: max deviation {err:.3e} "
            f"against product scale {scale:.3e}")
    return split


# ---------------------------------------------------------------------------
# Empirical continuity probes
# ---------------------------------------------------------------------------

@dataclass
class ProbeResult:
    """Empirical operator-norm ratios from random trigonometric samples."""

    ratios: np.ndarray
    max_ratio: float
    skipped: int


def random_trig_field(grid: Grid, rng: np.random.Generator,
                      n_modes: int = 20, k_max: int | None = None) -> SpectralField:
    """Real random trigonometric polynomial: n_modes modes, unit amplitudes."""
    if k_max is None:
        k_max = max(2, grid.points // 4)
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    count = 0
    while count < n_modes:
        k = tuple(int(rng.integers(-k_max, k_max + 1)) for _ in range(grid.dim))
        if all(c == 0 for c in k):
            continue
        place_mode(coeffs, grid, k, np.exp(2j * np.pi * rng.random()))
        count += 1
    return dealias(SpectralField(grid, 0, coeffs))


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
    rng = np.random.default_rng(seed)
    ratios, skipped = [], 0
    for _ in range(n_samples):
        u = random_trig_field(part.grid, rng)
        v = random_trig_field(part.grid, rng)
        denom = lp_norm(to_physical(u), INF) * besov_norm(v, idx, part)
        if denom < 1e-13:
            skipped += 1
            continue
        ratios.append(besov_norm(paraproduct_T(u, v, part), idx, part) / denom)
    arr = np.asarray(ratios)
    return ProbeResult(arr, float(np.max(arr)) if arr.size else 0.0, skipped)


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
    rng = np.random.default_rng(seed)
    ratios, skipped = [], 0
    for _ in range(n_samples):
        u = random_trig_field(part.grid, rng)
        v = random_trig_field(part.grid, rng)
        denom = besov_norm(u, idx1, part) * besov_norm(v, idx2, part)
        if denom < 1e-13:
            skipped += 1
            continue
        ratios.append(besov_norm(remainder_R(u, v, part), out_idx, part) / denom)
    arr = np.asarray(ratios)
    return ProbeResult(arr, float(np.max(arr)) if arr.size else 0.0, skipped)


def continuity_probe(kind: str, part: DyadicPartition, **kwargs) -> ProbeResult:
    """Dispatch to the paraproduct ('T') or remainder ('R') probe."""
    if kind == "T":
        return continuity_probe_T(part, **kwargs)
    if kind == "R":
        return continuity_probe_R(part, **kwargs)
    raise ValueError(f"unknown probe kind {kind!r}; expected 'T' or 'R'")
