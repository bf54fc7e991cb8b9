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
from .spectral import (GridMismatchError, SpectralField, dealiased_spectrum,
                       half_irfft, to_physical)


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
        return SpectralField(self.t_uv.grid, 0, self.t_uv.coeffs + self.t_vu.coeffs
                             + self.remainder.coeffs + self.low_terms.coeffs)


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
