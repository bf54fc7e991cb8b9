"""Initial-data families.

Every preset returns (u0, tau0, dbar) with u0 divergence-free and zero-mean
and the director built as an exact rotation of dbar by a small tilt angle
field, so |tau0 + dbar| = 1 pointwise before dealiasing. The amplitude eps
scales both the velocity and the tilt angle; the critical norm E0 of the
result is measured, not prescribed.

random-band draws its fields with random_modes, the package's one
random-mode generator: distinct wavevectors in the ball 0 < |k| <= k_max,
not the box, each with a random phase.
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .spectral import (Grid, SpectralField, dealias, dealiased_spectrum,
                       leray_project, place_mode, to_physical)

PRESET_NAMES = ("zero", "single-mode", "random-band", "taylor-green")


def default_dbar(dim: int) -> np.ndarray:
    dbar = np.zeros(dim)
    dbar[-1] = 1.0
    return dbar


def tilted_director(grid: Grid, theta: np.ndarray, axis: np.ndarray,
                    dbar: np.ndarray) -> SpectralField:
    """tau for d = sin(theta) axis + cos(theta) dbar, with axis unit, axis _|_ dbar.

    The rotation keeps |d| = 1 exactly at every collocation point.
    """
    if abs(np.dot(axis, dbar)) > 1e-12 or abs(np.linalg.norm(axis) - 1.0) > 1e-12:
        raise ValueError("tilt axis must be a unit vector orthogonal to dbar")
    vals = (np.sin(theta)[None] * axis.reshape((grid.dim,) + (1,) * grid.dim)
            + (np.cos(theta) - 1.0)[None] * dbar.reshape((grid.dim,) + (1,) * grid.dim))
    return dealiased_spectrum(grid, 1, vals)


def build_preset(name: str, grid: Grid, eps: float,
                 seed: int = 0) -> tuple[SpectralField, SpectralField, np.ndarray]:
    """Construct (u0, tau0, dbar) for one of the named families."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    dim = grid.dim
    dbar = default_dbar(dim)
    axis = np.zeros(dim)
    axis[0] = 1.0

    if name == "zero":
        return (SpectralField.zeros(grid, 1), SpectralField.zeros(grid, 1), dbar)

    if name in ("single-mode", "taylor-green"):
        x = grid.coordinates()
        comps = [np.zeros(grid.shape) for _ in range(dim)]
        if name == "single-mode":
            comps[0] = eps * np.sin(x[1])
        elif dim == 2:
            comps[0] = eps * np.sin(x[0]) * np.cos(x[1])
            comps[1] = -eps * np.cos(x[0]) * np.sin(x[1])
        else:
            comps[0] = eps * np.sin(x[0]) * np.cos(x[1]) * np.cos(x[2])
            comps[1] = -eps * np.cos(x[0]) * np.sin(x[1]) * np.cos(x[2])
        u0 = dealiased_spectrum(grid, 1, np.stack(comps))
        tau0 = tilted_director(grid, eps * np.cos(x[0]), axis, dbar)
        return leray_project(u0), tau0, dbar

    # random-band: solenoidal velocity and tilt angle with spectra in |k| <= 4
    rng = np.random.default_rng(seed)
    field, _, scale = _random_band(grid, rng, eps, 1)
    u0 = leray_project(dealias(field * scale))
    _, theta, scale = _random_band(grid, rng, eps, 0)
    tau0 = tilted_director(grid, scale * theta, axis, dbar)
    return u0, tau0, dbar


def random_modes(grid: Grid, rng: np.random.Generator, n_modes: int,
                 k_max: int, rank: int = 0) -> SpectralField:
    """A real field of rank 0 or 1 whose every component is a sum of n_modes
    unit modes Re(exp(i (k.x + 2 pi a))).

    Each component draws its wavevectors first, then one phase a per mode in
    draw order. A wavevector is drawn uniformly from the box |k_i| <= k_max
    and kept when it lies in the ball 0 < |k| <= k_max and was not drawn
    before; k and -k are distinct draws and may both be kept. A ball that
    holds fewer than n_modes wavevectors raises ValueError.
    """
    if k_max < 1:   # the ball is empty
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    sq = np.arange(-k_max, k_max + 1) ** 2
    available = np.count_nonzero(reduce(np.add.outer, [sq] * grid.dim)
                                 <= k_max * k_max) - 1   # less k = 0
    if available < n_modes:
        raise ValueError(f"the ball 0 < |k| <= k_max = {k_max} holds "
                         f"{available} wavevectors, {n_modes} asked")
    coeffs = np.zeros((grid.dim,) * rank + grid.shape, dtype=np.complex128)
    for comp in coeffs.reshape((-1,) + grid.shape):
        modes = []
        while len(modes) < n_modes:
            k = tuple(int(rng.integers(-k_max, k_max + 1)) for _ in range(grid.dim))
            if 0 < sum(c * c for c in k) <= k_max * k_max and k not in modes:
                modes.append(k)
        for k in modes:
            place_mode(comp, grid, k, np.exp(2j * np.pi * rng.random()))
    return SpectralField(grid, rank, coeffs)


def _random_band(grid: Grid, rng: np.random.Generator, eps: float,
                 rank: int) -> tuple[SpectralField, np.ndarray, float]:
    """random_modes with 8 modes in 0 < |k| <= 4 per component: its spectrum,
    its samples and the factor that brings the samples' peak magnitude to eps
    (1 for a zero field)."""
    field = random_modes(grid, rng, 8, 4, rank)
    samples = to_physical(field)
    peak = np.max(samples.magnitude())
    return field, samples.values, (eps / peak if peak > 0 else 1.0)
