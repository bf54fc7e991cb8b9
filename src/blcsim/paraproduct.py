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

where u_L, u_H are the low/high residuals of u. Each piece sums its partial
products in physical space, then takes one forward transform and one dealias:
both maps are linear, so the identity holds to roundoff for dealiased inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicPartition
from .norms import INF, BesovIndex, besov_norm, lp_norm
from .spectral import (Grid, GridMismatchError, SpectralField, dealias,
                       dealiased_spectrum, half_irfft, place_mode, to_physical)


def _check(u: SpectralField, v: SpectralField, part: DyadicPartition) -> None:
    if u.grid != v.grid or u.grid != part.grid:
        raise GridMismatchError("operands and partition must share one grid")
    if u.rank != 0 or v.rank != 0:
        raise ValueError("paraproducts are defined for scalar fields")


def _physical(masks: np.ndarray, f: SpectralField) -> np.ndarray:
    """Physical values of masks * f for a stack of masks (q ascending), one
    batched inverse transform of the half spectra, as to_physical makes."""
    half = f.grid.half
    return half_irfft(masks[half] * f.coeffs[half], f.grid)


def paraproduct_T(u: SpectralField, v: SpectralField,
                  part: DyadicPartition) -> SpectralField:
    """T_u v = sum over q in q_range of S_{q-1} u . Delta_q v.

    S_{q-1} includes residual_low content, so a constant u multiplies
    straight through onto the blocks of v.
    """
    _check(u, v, part)
    low = _physical(part.chi[:-2], u)      # S_{q-1} u, q in q_range
    blocks = _physical(part.phi, v)
    return dealiased_spectrum(u.grid, 0, np.sum(low * blocks, axis=0))


def remainder_R(u: SpectralField, v: SpectralField,
                part: DyadicPartition) -> SpectralField:
    """R(u, v) = sum of Delta_p u . Delta_q v over |p - q| <= 1, p, q in range."""
    _check(u, v, part)
    bu, bv = _physical(part.phi, u), _physical(part.phi, v)
    near = bv.copy()                       # Delta_{p-1} + Delta_p + Delta_{p+1} v
    near[1:] += bv[:-1]
    near[:-1] += bv[1:]
    return dealiased_spectrum(u.grid, 0, np.sum(bu * near, axis=0))


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
    # residual_low = S_{q_min} f, residual_high = f - S_{q_max + 1} f
    residuals = np.stack([part.chi[1], 1.0 - part.chi[-1]])
    u_low, u_high = _physical(residuals, u)
    v_low, v_high = _physical(residuals, v)
    u_phys, v_phys = to_physical(u).values, to_physical(v).values

    split = BonySplit(
        t_uv=paraproduct_T(u, v, part),
        t_vu=paraproduct_T(v, u, part),
        remainder=remainder_R(u, v, part),
        low_terms=dealiased_spectrum(u.grid, 0, u_low * v_low + u_phys * v_high
                                     + u_high * v_phys - u_high * v_high),
    )
    direct = dealiased_spectrum(u.grid, 0, u_phys * v_phys)
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
    if k_max < 1:   # only k = 0 could be drawn, and it is skipped
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    count = 0
    while count < n_modes:
        k = tuple(int(rng.integers(-k_max, k_max + 1)) for _ in range(grid.dim))
        if all(c == 0 for c in k):
            continue
        place_mode(coeffs, grid, k, np.exp(2j * np.pi * rng.random()))
        count += 1
    return dealias(SpectralField(grid, 0, coeffs))


def _probe(part: DyadicPartition, op, out_idx: BesovIndex, u_norm, v_norm,
           n_samples: int, seed: int) -> ProbeResult:
    """Ratios ||op(u, v)||_{B(out_idx)} / (u_norm(u) v_norm(v)), u drawn
    before v per sample; a denominator below 1e-13 skips the sample."""
    rng = np.random.default_rng(seed)
    ratios, skipped = [], 0
    for _ in range(n_samples):
        u = random_trig_field(part.grid, rng)
        v = random_trig_field(part.grid, rng)
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
