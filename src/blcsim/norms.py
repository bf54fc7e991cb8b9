"""Homogeneous Besov norms and time-mixed (Chemin-Lerner) norms.

All norms contract over the grid-resolvable block range q in [q_min, q_max];
content in the residuals (the mean and the Nyquist-corner shoulder) does not
enter, consistent with the homogeneous, zero-mean convention. Semi-norms with
r = infinity over this truncated range are reported as truncated in exported
output.

Time integration uses the trapezoidal rule on the stored sample times; the
rho = infinity norm is the max over samples. The time norms are running
ones: one pass gives the norm over [t_0, t_j] at every sample t_j (a
cumulative sum, or a running max), so a monitored norm costs one pass over
the rows, not one integral per row. For exponents r >= rho the time-mixed
norm is dominated by the time-then-block norm (Minkowski); for r <= rho the
inequality reverses; r = rho makes both equal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dyadic import DyadicPartition, block_l2_norms
from .spectral import (BlowUpError, GridMismatchError, PhysicalField,
                       SpectralField)

INF = math.inf


class MinkowskiOrderingError(RuntimeError):
    """Computed norms violate the Minkowski ordering; internal inconsistency."""


def _valid_exponent(x: float) -> bool:
    return x == INF or 1.0 <= x < INF


@dataclass(frozen=True)
class BesovIndex:
    """Index triple (s, p, r) of a homogeneous Besov space B^s_{p,r}."""

    s: float
    p: float
    r: float

    def __post_init__(self):
        if not _valid_exponent(self.p):
            raise ValueError(f"p must be in [1, inf], got {self.p}")
        if not _valid_exponent(self.r):
            raise ValueError(f"r must be in [1, inf], got {self.r}")


@dataclass(frozen=True)
class CheminLernerIndex:
    """Time exponent rho paired with a Besov index."""

    rho: float
    space: BesovIndex

    def __post_init__(self):
        if not _valid_exponent(self.rho):
            raise ValueError(f"rho must be in [1, inf], got {self.rho}")


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sample times."""

    samples: tuple[float, ...]

    def __post_init__(self):
        t = np.asarray(self.samples, dtype=np.float64)
        if t.size == 0:
            raise ValueError("empty time grid")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("time samples must be strictly increasing")
        object.__setattr__(self, "samples", tuple(float(x) for x in t))

    def array(self) -> np.ndarray:
        return np.asarray(self.samples)


def lp_norm(f: PhysicalField, p: float) -> float:
    """Collocation L^p norm of the pointwise magnitude; max for p = inf."""
    if not _valid_exponent(p):
        raise ValueError(f"p must be in [1, inf], got {p}")
    mag = f.magnitude()
    if not np.all(np.isfinite(mag)):
        raise BlowUpError("non-finite values in lp_norm input")
    if p == INF:
        return float(np.max(mag))
    if p == 2.0:
        return float(np.sqrt(np.mean(mag ** 2)))
    return float(np.mean(mag ** p) ** (1.0 / p))


def _lr_contract(values: np.ndarray, r: float, axis: int | None = None):
    """l^r norm of a nonnegative sequence along axis; max for r = inf."""
    if r == INF:
        return np.max(values, axis=axis, initial=0.0)
    if r == 1.0:
        return np.sum(values, axis=axis)
    return np.sum(values ** r, axis=axis) ** (1.0 / r)


def block_lp_norms(u: SpectralField, part: DyadicPartition, p: float) -> np.ndarray:
    """||Delta_q u||_{L^p} for q in q_range.

    p = 2 goes through Parseval. Other p take one block at a time to
    physical space with the grid's Workspace transforms, pruned to the
    block's band, in the workspace's buffers, so the norms hold no batch of
    blocks of their own. The transform runs on the half spectrum, which
    assumes u is real (conjugate-symmetric coefficients); the result
    matches lp_norm(to_physical(block_project(u, q, part)), p) to roundoff.
    """
    if p == 2.0:
        return block_l2_norms(u, part)
    if not _valid_exponent(p):
        raise ValueError(f"p must be in [1, inf], got {p}")
    grid = part.grid
    if u.grid != grid:
        raise GridMismatchError("field grid does not match partition grid")
    ws = grid.workspace
    comps = u.flat_components()[grid.half]
    n_comp = comps.shape[0]
    spec, vals = ws.spec[:n_comp], ws.phys[:n_comp]
    flat = vals.reshape(n_comp, -1)
    mag = ws.phys[n_comp].reshape(-1)
    norms = np.empty(part.n_blocks)
    for b, (mask, band) in enumerate(zip(part.half_masks, part.half_mask_bands)):
        np.multiply(mask, comps, out=spec)
        ws.band_irfft(spec, band, out=vals)
        np.sum(np.square(flat, out=flat), axis=0, out=mag)
        if p == INF:
            # the max of the squares is NaN or inf if any square is, and
            # sqrt is monotone and correctly rounded: only the max is rooted
            top = np.max(mag)
            if not np.isfinite(top):
                raise BlowUpError("non-finite values in block_lp_norms input")
            norms[b] = np.sqrt(top)
        else:
            np.sqrt(mag, out=mag)
            if not np.all(np.isfinite(mag)):
                raise BlowUpError("non-finite values in block_lp_norms input")
            norms[b] = np.mean(mag ** p)
    return norms if p == INF else norms ** (1.0 / p)


def besov_norm(u: SpectralField, idx: BesovIndex, part: DyadicPartition) -> float:
    """Homogeneous Besov norm over the resolvable block range.

    ||u|| = l^r over q of 2^(q s) ||Delta_q u||_{L^p}. The k = 0 mode never
    contributes (annuli exclude the origin).
    """
    norms = block_lp_norms(u, part, idx.p)
    weights = 2.0 ** (idx.s * np.arange(part.q_min, part.q_max + 1))
    return float(_lr_contract(weights * norms, idx.r))


@dataclass
class BlockNormSeries:
    """Per-block L^p norms sampled in time: values[i, j] = ||Delta_{q_i} u(t_j)||."""

    qs: np.ndarray
    times: np.ndarray
    values: np.ndarray
    p: float

    def __post_init__(self):
        self.qs = np.asarray(self.qs, dtype=np.int64)
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.qs.size, self.times.size):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"({self.qs.size} blocks, {self.times.size} times)")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("time samples must be strictly increasing")


def build_block_norm_series(fields: Sequence[SpectralField],
                            times: TimeGrid | Sequence[float],
                            part: DyadicPartition, p: float) -> BlockNormSeries:
    t = times.array() if isinstance(times, TimeGrid) else np.asarray(times, float)
    if len(fields) != t.size:
        raise ValueError("one field per time sample required")
    cols = [block_lp_norms(f, part, p) for f in fields]
    values = np.stack(cols, axis=1) if cols else np.zeros((part.n_blocks, 0))
    return BlockNormSeries(np.arange(part.q_min, part.q_max + 1), t, values, p)


def _time_lr(values: np.ndarray, times: np.ndarray, rho: float) -> np.ndarray:
    """Running time L^rho norm over [times[0], times[j]] at every sample j,
    shaped like values (time on the last axis).

    For finite rho it is the cumulative sum of the trapezoid terms of
    values**rho, to the power 1/rho; for rho = inf the running max. The
    entry at the first sample is 0 (max: the first value).
    """
    if rho == INF:
        return np.maximum.accumulate(values, axis=-1)
    y = values ** rho
    running = np.zeros_like(y)
    np.cumsum(np.diff(times) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1,
              out=running[..., 1:])
    return running ** (1.0 / rho)


def running_chemin_lerner_norm(values: np.ndarray, qs: np.ndarray,
                               times: np.ndarray,
                               idx: CheminLernerIndex) -> np.ndarray:
    """Block-then-time norm over [times[0], times[j]] for every sample j:
    l^r over q of 2^(q s) ||values_q||_{L^rho_t}, values[i, j] the norm of
    block qs[i] at times[j]."""
    weights = 2.0 ** (idx.space.s * qs)
    return _lr_contract(weights[:, None] * _time_lr(values, times, idx.rho),
                        idx.space.r, axis=0)


def chemin_lerner_norm(series: BlockNormSeries, idx: CheminLernerIndex) -> float:
    """Block-then-time norm over the whole series: l^r over q of
    2^(q s) ||series_q||_{L^rho_t}."""
    if series.times.size == 0:
        raise ValueError("empty time grid")
    return float(running_chemin_lerner_norm(series.values, series.qs,
                                            series.times, idx)[-1])


def lebesgue_besov_norm(series: BlockNormSeries, idx: CheminLernerIndex) -> float:
    """Time-then-block norm: L^rho in time of the instantaneous Besov norm."""
    if series.times.size == 0:
        raise ValueError("empty time grid")
    weights = 2.0 ** (idx.space.s * series.qs)
    inst = _lr_contract(weights[:, None] * series.values, idx.space.r, axis=0)
    return float(_time_lr(inst, series.times, idx.rho)[-1])


def minkowski_compare(series: BlockNormSeries,
                      idx: CheminLernerIndex) -> tuple[float, float]:
    """Return (time-mixed, plain) norms, enforcing the Minkowski ordering.

    r >= rho requires tilde <= plain; r <= rho the reverse; equality for
    r = rho. A violation beyond roundoff raises MinkowskiOrderingError.
    """
    tilde = chemin_lerner_norm(series, idx)
    plain = lebesgue_besov_norm(series, idx)
    scale = max(tilde, plain, 1e-300)
    slack = 1e-12 * scale
    r, rho = idx.space.r, idx.rho
    if r == rho:
        ok = abs(tilde - plain) <= slack
    elif r >= rho:
        ok = tilde <= plain + slack
    else:
        ok = tilde >= plain - slack
    if not ok:
        raise MinkowskiOrderingError(
            f"ordering violated for r={r}, rho={rho}: "
            f"time-mixed={tilde!r}, plain={plain!r}")
    return tilde, plain
