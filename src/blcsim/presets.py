"""Initial-data families.

Every preset returns (u0, tau0, dbar) with u0 divergence-free and zero-mean
and the director built as an exact rotation of dbar by a small tilt angle
field, so |tau0 + dbar| = 1 pointwise before dealiasing. The amplitude eps
scales both the velocity and the tilt angle; the critical norm E0 of the
result is measured, not prescribed.
"""
from __future__ import annotations

import math

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


def _band_modes(grid: Grid, rng: np.random.Generator, k_lo: float, k_hi: float,
                n_modes: int) -> list[tuple[int, ...]]:
    modes = []
    attempts = 0
    while len(modes) < n_modes and attempts < 1000:
        attempts += 1
        k = tuple(int(rng.integers(-int(k_hi), int(k_hi) + 1))
                  for _ in range(grid.dim))
        mag = np.sqrt(sum(c * c for c in k))
        if k_lo <= mag <= k_hi and k not in modes:
            modes.append(k)
    return modes


def _random_band(grid: Grid, rng: np.random.Generator, eps: float,
                 rank: int) -> tuple[SpectralField, np.ndarray, float]:
    """A real field of rank 0 or 1, each component 8 unit modes drawn in
    1 <= |k| <= 4: its spectrum, its samples and the factor that brings the
    samples' peak magnitude to eps (1 for a zero field)."""
    coeffs = np.zeros((grid.dim,) * rank + grid.shape, dtype=np.complex128)
    for comp in coeffs.reshape((-1,) + grid.shape):
        for k in _band_modes(grid, rng, 1.0, 4.0, 8):
            place_mode(comp, grid, k, np.exp(2j * np.pi * rng.random()))
    field = SpectralField(grid, rank, coeffs)
    samples = to_physical(field)
    peak = np.max(samples.magnitude())
    return field, samples.values, (eps / peak if peak > 0 else 1.0)
