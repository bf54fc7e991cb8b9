"""Dyadic (Littlewood-Paley) partition of unity and block decomposition.

The partition is built from an explicit radial profile:

    g(t)   = exp(-1/t) for t > 0, else 0
    psi(t) = g(1 - t) / (g(t) + g(1 - t))        smooth step, 1 -> 0 on [0, 1]
    chi(r) = psi((r - 3/4) / (4/3 - 3/4))        1 on r <= 3/4, 0 on r >= 4/3
    phi(r) = chi(r/2) - chi(r)                   supported on 3/4 <= r <= 8/3

Block q uses phi_q(xi) = phi(|xi| / 2^q), supported on the annulus
(3/4) 2^q <= |xi| <= (8/3) 2^q, and the low-pass multiplier at level q is
chi(|xi| / 2^q). Because phi_q is stored as the literal difference of two chi
evaluations, the telescoping identity

    sum_{q=a}^{b} phi_q(xi) = chi(xi / 2^(b+1)) - chi(xi / 2^a)

holds to floating-point roundoff for every grid frequency and sub-range.

On a finite grid only blocks q in [q_min, q_max] carry resolvable content:
q_min is the first annulus containing the smallest nonzero frequency and
q_max the last annulus whose inner radius stays at or below the dealiasing
cutoff M/3. Content below the first block (including the mean) lives in
``residual_low``; the shoulder above the top block's low-pass cut (corner
modes near the Nyquist frequency) lives in
``residual_high`` so that reconstruction is exact for arbitrary grid fields.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import Grid, GridMismatchError, SpectralField

INNER_RADIUS = 3.0 / 4.0
OUTER_RADIUS = 8.0 / 3.0
_STEP_WIDTH = 4.0 / 3.0 - 3.0 / 4.0


def _bump(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0, exactly 0 elsewhere: one exp into zeros."""
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return np.exp(-1.0 / t, out=np.zeros_like(t), where=t > 0)


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 1 for t <= 0, 0 for t >= 1, strictly monotone between;
    one formula everywhere, exact 1 and 0 coming from _bump's exact zeros."""
    num = _bump(1.0 - np.asarray(t, dtype=np.float64))
    return num / (num + _bump(t))


def chi_profile(r) -> np.ndarray:
    """Radial low-pass profile: 1 on |r| <= 3/4, 0 on |r| >= 4/3."""
    r = np.abs(np.asarray(r, dtype=np.float64))
    return smooth_step((r - INNER_RADIUS) / _STEP_WIDTH)


def phi_profile(r) -> np.ndarray:
    """Annulus profile chi(r/2) - chi(r); in [0, 1], supported on [3/4, 8/3]."""
    r = np.asarray(r, dtype=np.float64)
    return chi_profile(r / 2.0) - chi_profile(r)


@dataclass
class DyadicPartition:
    """Grid-resolvable dyadic partition: low-pass levels chi_q (q_min - 1 ..
    q_max + 1) and block masks phi_q (q_range), stacked q ascending."""

    grid: Grid
    q_min: int
    q_max: int
    chi: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)

    @property
    def q_range(self) -> range:
        return range(self.q_min, self.q_max + 1)

    @property
    def n_blocks(self) -> int:
        return self.q_max - self.q_min + 1

    def chi_mask(self, q: int) -> np.ndarray:
        """Low-pass multiplier chi(|xi| / 2^q) on the grid."""
        if not self.q_min - 1 <= q <= self.q_max + 1:
            raise ValueError(f"q={q} outside low-pass range "
                             f"[{self.q_min - 1}, {self.q_max + 1}]")
        return self.chi[q - self.q_min + 1]

    def phi_mask(self, q: int) -> np.ndarray:
        if q not in self.q_range:
            raise ValueError(f"q={q} outside resolvable range "
                             f"[{self.q_min}, {self.q_max}]")
        return self.phi[q - self.q_min]

    @cached_property
    def squared_masks(self) -> np.ndarray:
        """phi_q^2 as one (n_blocks, M^N) matrix, q ascending, built once.

        The full-layout reference for half_squared_masks: block L^2 norms
        are sqrt(squared_masks @ power) for the flattened power (Parseval).
        """
        return self.phi.reshape(self.n_blocks, -1) ** 2

    @cached_property
    def half_masks(self) -> np.ndarray:
        """phi_q on the rfft half spectrum, (n_blocks, M, ..., M/2 + 1), built
        on first use."""
        return np.ascontiguousarray(self.phi[self.grid.half])

    @cached_property
    def half_mask_bands(self) -> tuple[int, ...]:
        """Per block, the largest |k_i| (integer frequency, any axis) where
        phi_q is nonzero: the band of Workspace transforms that holds it."""
        box = self.grid.box_radius
        return tuple(int(np.max(box, where=mask != 0, initial=0))
                     for mask in self.phi)

    @cached_property
    def half_squared_masks(self) -> np.ndarray:
        """phi_q^2 on the rfft half spectrum as one (n_blocks, -1) matrix.

        Columns 1 .. M/2 - 1 are doubled, since each stands for itself and
        its conjugate mirror: for a real field, half_squared_masks @ the
        flattened half-spectrum power equals squared_masks @ the full power.
        """
        sq = self.half_masks ** 2
        sq[..., 1:self.grid.points // 2] *= 2.0
        return sq.reshape(self.n_blocks, -1)


def build_partition(grid: Grid) -> DyadicPartition:
    """Construct the resolvable dyadic partition for a grid.

    q_min = ceil(log2(3/8)) = -1 on every grid, the first annulus containing
    |xi| = 1; q_max is the largest q with (3/4) 2^q <= dealias cutoff. Raises
    if fewer than 2 blocks fit. The low-pass levels chi_q, q_min - 1 <= q <=
    q_max + 1, are evaluated once, and phi_q is their literal difference.
    """
    q_min = math.ceil(math.log2(3.0 / 8.0))
    q_max = math.floor(math.log2(grid.dealias_cutoff / INNER_RADIUS) + 1e-12)
    if q_max - q_min + 1 < 2:
        raise ValueError(
            f"grid too coarse: only {q_max - q_min + 1} resolvable blocks")
    radius = grid.k_magnitude
    chi = np.stack([chi_profile(radius / 2.0 ** q)
                    for q in range(q_min - 1, q_max + 2)])
    # literal chi difference so that telescoping cancels exactly
    return DyadicPartition(grid=grid, q_min=q_min, q_max=q_max, chi=chi,
                           phi=chi[2:] - chi[1:-1])


def _check_grid(part: DyadicPartition, u: SpectralField) -> None:
    if u.grid != part.grid:
        raise GridMismatchError("field grid does not match partition grid")


def block_project(u: SpectralField, q: int, part: DyadicPartition) -> SpectralField:
    """Delta_q u: multiply coefficients by phi_q(xi)."""
    _check_grid(part, u)
    return SpectralField(u.grid, u.rank, u.coeffs * part.phi_mask(q))


def low_pass(u: SpectralField, q: int, part: DyadicPartition) -> SpectralField:
    """S_q u: multiply coefficients by chi(xi / 2^q).

    Equals residual_low + sum of blocks p <= q - 1 by exact telescoping.
    Valid for q in [q_min, q_max + 1].
    """
    _check_grid(part, u)
    if q < part.q_min or q > part.q_max + 1:
        raise ValueError(f"q={q} outside [{part.q_min}, {part.q_max + 1}]")
    return SpectralField(u.grid, u.rank, u.coeffs * part.chi_mask(q))


@dataclass
class BlockDecomposition:
    """Complete dyadic decomposition of a field on its grid.

    residual_low holds everything below the first block (including the mean),
    residual_high the shoulder above the top block's low-pass cut; the sum
    residual_low + sum_q blocks[q] + residual_high reproduces the field
    exactly.
    """

    blocks: dict[int, SpectralField]
    residual_low: SpectralField
    residual_high: SpectralField


def decompose(u: SpectralField, part: DyadicPartition) -> BlockDecomposition:
    _check_grid(part, u)
    blocks = {q: block_project(u, q, part) for q in part.q_range}
    low = SpectralField(u.grid, u.rank, u.coeffs * part.chi[1])       # S_{q_min}
    high = SpectralField(u.grid, u.rank, u.coeffs * (1.0 - part.chi[-1]))
    return BlockDecomposition(blocks=blocks, residual_low=low, residual_high=high)


def reconstruct(dec: BlockDecomposition) -> SpectralField:
    total = dec.residual_low.coeffs + dec.residual_high.coeffs
    for q in sorted(dec.blocks):
        total = total + dec.blocks[q].coeffs
    ref = dec.residual_low
    return SpectralField(ref.grid, ref.rank, total)


def half_block_l2_norms(half: np.ndarray, part: DyadicPartition) -> np.ndarray:
    """||Delta_q f||_{L^2}, q in q_range, of a real field f by Parseval through
    half_squared_masks: the rfft half spectra of f's components, shaped
    (..., n_comp, M, ..., M/2 + 1), give (..., n_blocks)."""
    dim = part.grid.dim
    power = np.sum(np.abs(half) ** 2, axis=-dim - 1)
    return np.sqrt(power.reshape(power.shape[:-dim] + (-1,)) @ part.half_squared_masks.T)


def dump_partition_csv(part: DyadicPartition, path, n_samples: int = 1024) -> None:
    """Write (q, |xi|, phi_q(|xi|)) rows at radial sample points.

    Intended for cross-implementation comparison of the partition profile.
    """
    r_max = float(np.max(part.grid.k_magnitude))
    radii = np.linspace(0.0, r_max, n_samples)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "xi_magnitude", "phi_q"])
        for q in part.q_range:
            vals = phi_profile(radii / 2.0 ** q)
            for r, v in zip(radii, vals):
                writer.writerow([q, f"{r:.10g}", f"{v:.17g}"])
