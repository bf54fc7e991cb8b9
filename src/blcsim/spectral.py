"""Periodic grids, spectral/physical fields and the basic Fourier operators.

Conventions used throughout the package:

* The domain is the N-torus (N = 2 or 3) of side 2*pi, sampled on a
  uniform collocation grid with M points per axis (M even).
* Frequencies per axis are the integers {-M/2+1, ..., M/2}. The Nyquist
  index is labelled +M/2; it is excluded from first-derivative multipliers
  so that derivatives of real fields stay real.
* The forward transform divides by M^N, so coefficients are Fourier-series
  amplitudes: u(x) = sum_k u_hat(k) exp(i k.x). A constant field c has the
  single coefficient c at k = 0, and cos(6 x_1) has coefficients 1/2 at
  k = (+-6, 0, ...).
* L^p norms are collocation means: ||u||_{L^p} = (mean |u|^p)^{1/p}, with the
  max for p = infinity. Under this normalization Parseval reads
  mean |u|^2 = sum_k |u_hat(k)|^2.
* Dealiasing follows the 2/3 rule: coefficients with any |k_i| > M/3 are set
  to zero, so quadratic products of dealiased fields are alias-free on the
  retained modes.
"""
from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import BinaryIO

import numpy as np

TWO_PI = 2.0 * np.pi

SNAPSHOT_MAGIC = b"BLCF"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIIIId")


class GridMismatchError(ValueError):
    """Operands live on different grids."""


class ShapeMismatchError(ValueError):
    """Coefficient array does not match the declared rank and grid."""


class BlowUpError(RuntimeError):
    """Non-finite values or a norm past the configured blow-up threshold."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class Grid:
    """Uniform periodic collocation grid.

    Attributes:
        dim: spatial dimension, 2 or 3.
        points: number of collocation points per axis (even, >= 8).
    """

    dim: int
    points: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.points < 8 or self.points % 2 != 0:
            raise ValueError(f"points must be even and >= 8, got {self.points}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    @property
    def half(self) -> tuple:
        """Index of the rfft half spectrum: the last axis cut to M/2 + 1."""
        return (Ellipsis, slice(0, self.points // 2 + 1))

    @property
    def dealias_cutoff(self) -> float:
        """Largest per-axis frequency kept by dealias(), M/3."""
        return self.points / 3.0

    @property
    def dealias_band(self) -> int:
        """Largest per-axis integer frequency kept by dealias(), floor(M/3)."""
        return self.points // 3

    @cached_property
    def workspace(self) -> "Workspace":
        """Reused transform buffers for this grid, built on first use."""
        return Workspace(self)

    @cached_property
    def int_freqs(self) -> np.ndarray:
        """Per-axis integer frequencies in FFT order, Nyquist labelled +M/2."""
        n = np.fft.fftfreq(self.points, d=1.0 / self.points).astype(np.int64)
        n[self.points // 2] = self.points // 2
        return n

    def _per_axis(self, values: np.ndarray) -> np.ndarray:
        """Shape (dim, M, ..., M): entry i holds values along axis i."""
        return np.stack(np.broadcast_arrays(*np.ix_(*[values] * self.dim)))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Frequency arrays (the integer frequencies as floats), shape
        (dim, M, ..., M)."""
        return self._per_axis(self.int_freqs.astype(np.float64))

    @cached_property
    def deriv_wavenumbers(self) -> np.ndarray:
        """Like wavenumbers but with the Nyquist mode zeroed per axis.

        First derivatives of real fields have no well-defined sign at the
        Nyquist frequency; zeroing it keeps d/dx real-to-real. The mode is
        removed by dealias() anyway.
        """
        freqs = self.int_freqs.astype(np.float64)
        freqs[self.points // 2] = 0.0
        return self._per_axis(freqs)

    @cached_property
    def deriv_k_squared(self) -> np.ndarray:
        """|k|^2 from deriv_wavenumbers: the symbol of -Lap on first
        derivatives, so ||grad f||^2 = sum_k deriv_k_squared |f_hat(k)|^2."""
        return np.sum(self.deriv_wavenumbers ** 2, axis=0)

    @cached_property
    def k_squared(self) -> np.ndarray:
        return np.sum(self.wavenumbers ** 2, axis=0)

    @cached_property
    def k_magnitude(self) -> np.ndarray:
        return np.sqrt(self.k_squared)

    @cached_property
    def box_radius(self) -> np.ndarray:
        """max_i |k_i| per mode (integer frequencies), shape (M, ..., M)."""
        return reduce(np.maximum, np.ix_(*[np.abs(self.int_freqs)] * self.dim))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        return self.box_radius <= self.dealias_band

    def coordinates(self) -> np.ndarray:
        """Collocation coordinates, shape (dim, M, ..., M)."""
        x = np.arange(self.points) * (TWO_PI / self.points)
        grids = np.meshgrid(*([x] * self.dim), indexing="ij")
        return np.stack(grids)


class Workspace:
    """Reused arrays and exact band-limited real transforms for one grid.

    A band c is the box |k_i| <= c (integer frequencies) on every axis. On
    the rfft half spectrum it keeps the rows 0..c and M-c..M-1 of each full
    axis, two contiguous slices, and the columns 0..c of the last axis. The
    transforms make numpy's irfftn/rfftn passes in numpy's order with
    norm="forward" (coefficients are Fourier-series amplitudes, so the
    inverse is an unscaled sum), but run each complex pass only on the
    lines that can be nonzero in the band (FFT pruning): the other lines
    are exactly zero, so the results equal half_irfft and numpy's rfftn
    times the band's mask. Every pass writes through out=, so a transform
    allocates nothing.

    The buffers are shared by every caller on the grid: spec holds
    2 N + N^2 half spectra, phys as many physical fields, and prod the
    N (N + 1) / 2 + N + 1 physical products of the nonlinear term. Nothing
    may keep a view of them across calls, and a caller must not be
    re-entered while it uses them.

    The half-spectrum multipliers of the solver are kept here too, built
    once: ik (i times deriv_wavenumbers), the 2/3 mask, the wavenumbers k
    and the Leray denominator k2 = |k|^2 with the k = 0 entry set to 1
    (see solenoidal_part). They are read, never written.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        dim, m = grid.dim, grid.points
        n_batch = 2 * dim + dim * dim
        self.spec = np.empty((n_batch,) + grid.shape[:-1] + (m // 2 + 1,),
                             dtype=np.complex128)
        self.phys = np.empty((n_batch,) + grid.shape)
        self.prod = np.empty((dim * (dim + 1) // 2 + dim + 1,) + grid.shape)
        half = grid.half
        self.ik = 1j * grid.deriv_wavenumbers[half]
        self.mask = grid.dealias_mask[half]
        self.k = grid.wavenumbers[half]
        self.k2 = leray_denominator(self.k)

    def _rows(self, c: int) -> tuple[slice, slice]:
        """Rows of a full axis with |k| <= c; the Nyquist row appears once."""
        m = self.grid.points
        return slice(0, c + 1), slice(max(c + 1, m - c), m)

    def _lines(self, axis: int, c: int):
        """Indices of the lines along axis that a pass must transform: band
        rows on the axes between axis and the last, band columns on the
        last, every row of axis and of the axes in front of it."""
        cols = slice(0, c + 1)
        for mid in itertools.product(self._rows(c), repeat=-axis - 2):
            yield (Ellipsis, slice(None)) + mid + (cols,)

    def band_irfft(self, spec: np.ndarray, c: int, out: np.ndarray) -> np.ndarray:
        """half_irfft(spec, grid) into out.

        spec is a batch of half spectra that vanish outside band c; it is
        overwritten with intermediate passes.
        """
        m = self.grid.points
        for axis in range(-self.grid.dim, -1):
            for idx in self._lines(axis, c):
                v = spec[idx]
                np.fft.ifft(v, axis=axis, norm="forward", out=v)
        return np.fft.irfft(spec, n=m, axis=-1, norm="forward", out=out)

    def band_rfft(self, phys: np.ndarray, c: int, out: np.ndarray) -> np.ndarray:
        """numpy's rfftn(phys, norm="forward") times band c's mask, into out."""
        dim = self.grid.dim
        np.fft.rfft(phys, axis=-1, norm="forward", out=out)
        for axis in range(-2, -dim - 1, -1):
            for idx in self._lines(axis, c):
                v = out[idx]
                np.fft.fft(v, axis=axis, norm="forward", out=v)
        # zero what lies outside the band: the columns past c, then the
        # rows between the two slices on each full axis
        out[..., c + 1:] = 0.0
        lo, hi = self._rows(c)
        for axis in range(-dim, -1):
            out[(Ellipsis, slice(lo.stop, hi.start))
                + (slice(None),) * (-axis - 2) + (slice(0, c + 1),)] = 0.0
        return out


def _component_shape(dim: int, rank: int) -> tuple[int, ...]:
    return (dim,) * rank


def _check_array(grid: Grid, rank: int, arr: np.ndarray) -> None:
    expected = _component_shape(grid.dim, rank) + grid.shape
    if arr.shape != expected:
        raise ShapeMismatchError(
            f"array shape {arr.shape} does not match rank {rank} on grid "
            f"{grid.shape}; expected {expected}")


@dataclass
class SpectralField:
    """Fourier-side field of tensor rank 0, 1 or 2.

    coeffs has shape (dim,)*rank + (M,)*dim, complex. Real-valued fields are
    represented by conjugate-symmetric coefficients.
    """

    grid: Grid
    rank: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.rank not in (0, 1, 2):
            raise ValueError(f"rank must be 0, 1 or 2, got {self.rank}")
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        _check_array(self.grid, self.rank, self.coeffs)

    @classmethod
    def zeros(cls, grid: Grid, rank: int = 0) -> "SpectralField":
        shape = _component_shape(grid.dim, rank) + grid.shape
        return cls(grid, rank, np.zeros(shape, dtype=np.complex128))

    def flat_components(self) -> np.ndarray:
        """View with all component axes collapsed: (n_comp,) + grid.shape."""
        return self.coeffs.reshape((-1,) + self.grid.shape)

    def is_real_consistent(self, tol: float = 1e-12) -> bool:
        """True if coefficients are conjugate-symmetric to within tol times
        max(1, max |c|) in each component c; a NaN coefficient fails."""
        flat = self.flat_components()
        mirror = -np.arange(self.grid.points) % self.grid.points   # -k per axis
        mirrored = np.conj(flat[(slice(None),) + np.ix_(*[mirror] * self.grid.dim)])
        axes = tuple(range(1, flat.ndim))
        scale = np.maximum(1.0, np.max(np.abs(flat), axis=axes))
        return bool(np.all(np.max(np.abs(flat - mirrored), axis=axes) <= tol * scale))

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.rank, self.coeffs * scalar)

    __rmul__ = __mul__


def hermitian_expand(half: np.ndarray, dim: int, points: int) -> np.ndarray:
    """Rebuild a full FFT spectrum from its rfft half (last axis truncated).

    The input's trailing dim axes are (M, ..., M, M/2 + 1); the missing
    last-axis columns j in (M/2, M) are filled with conj at the mirrored
    frequency, so the result is exactly conjugate-symmetric whenever the
    half-spectrum came from a real field. It is written by slices: along
    each other axis index i mirrors to -i mod M (0 stays, 1 .. M-1 reverse).
    """
    m, h = points, points // 2 + 1
    if half.shape[-1] != h or half.shape[-dim:-1] != (m,) * (dim - 1):
        raise ShapeMismatchError(
            f"half spectrum shape {half.shape} does not match rfft layout "
            f"for dim={dim}, points={m}")
    full = np.empty(half.shape[:-1] + (m,), dtype=np.complex128)
    full[..., :h] = half
    src = half[..., 1:m - h + 1][..., ::-1]  # columns M-1 .. M/2+1 mirrored
    pieces = ((slice(0, 1), slice(0, 1)), (slice(1, None), slice(None, 0, -1)))
    for block in itertools.product(pieces, repeat=dim - 1):
        to, frm = zip(*block, (slice(h, None), slice(None)))
        np.conjugate(src[(..., *frm)], out=full[(..., *to)])
    return full


@dataclass
class PhysicalField:
    """Collocation-sampled field of tensor rank 0, 1 or 2."""

    grid: Grid
    rank: int
    values: np.ndarray

    def __post_init__(self):
        if self.rank not in (0, 1, 2):
            raise ValueError(f"rank must be 0, 1 or 2, got {self.rank}")
        self.values = np.asarray(self.values, dtype=np.float64)
        _check_array(self.grid, self.rank, self.values)

    def flat_components(self) -> np.ndarray:
        return self.values.reshape((-1,) + self.grid.shape)

    def squared_magnitude(self) -> np.ndarray:
        """Pointwise sum of squares, added one component at a time: the bits of
        np.sum(flat ** 2, axis=0), the package's one, without its temporary."""
        flat = self.flat_components()
        sq = np.square(flat[0])
        for comp in flat[1:]:
            sq += np.square(comp)
        return sq

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean (Frobenius for rank 2) magnitude."""
        sq = self.squared_magnitude()
        return np.sqrt(sq, out=sq)


def half_irfft(half: np.ndarray, grid: Grid) -> np.ndarray:
    """The one unpruned inverse transform: real fields' samples from their rfft
    half spectra (trailing axes M, ..., M/2 + 1); Workspace's band ones equal it."""
    return np.fft.irfftn(half, s=grid.shape, axes=tuple(range(-grid.dim, 0)),
                         norm="forward")


def to_physical(f: SpectralField) -> PhysicalField:
    """Inverse transform of a real field, half_irfft of its rfft half spectrum:
    for conjugate-symmetric f, as block_lp_norms assumes too, it matches
    np.fft.ifftn(f.coeffs) * M^N, real part, to roundoff."""
    return PhysicalField(f.grid, f.rank, half_irfft(f.coeffs[f.grid.half], f.grid))


def to_spectral(f: PhysicalField) -> SpectralField:
    n = f.grid.dim
    scale = f.grid.points ** n
    coeffs = np.fft.fftn(f.values, axes=tuple(range(-n, 0))) / scale
    return SpectralField(f.grid, f.rank, coeffs)


def gradient(f: SpectralField) -> SpectralField:
    """Spectral gradient; raises rank by one, new derivative axis first.

    For a vector field tau the result G[i, k] = d_i tau_k.
    """
    if f.rank >= 2:
        raise ValueError("gradient supports rank 0 and 1 fields")
    k = f.grid.deriv_wavenumbers  # (dim, *shape)
    expand = (slice(None),) + (None,) * f.rank
    out = 1j * k[expand + (Ellipsis,)] * f.coeffs[None, ...]
    return SpectralField(f.grid, f.rank + 1, out)


def divergence(f: SpectralField) -> SpectralField:
    """Contract the leading component axis with ik; lowers rank by one."""
    if f.rank < 1:
        raise ValueError("divergence needs rank >= 1")
    k = f.grid.deriv_wavenumbers
    expand = (slice(None),) + (None,) * (f.rank - 1)
    out = np.sum(1j * k[expand + (Ellipsis,)] * f.coeffs, axis=0)
    return SpectralField(f.grid, f.rank - 1, out)


def leray_denominator(k: np.ndarray) -> np.ndarray:
    """|k|^2 per mode with the k = 0 entry set to 1, for solenoidal_part."""
    k2 = np.einsum("i...,i...->...", k, k)
    k2[(0,) * (k.ndim - 1)] = 1.0
    return k2


def solenoidal_part(coeffs: np.ndarray, k: np.ndarray,
                    k2: np.ndarray) -> np.ndarray:
    """Mode-wise (I - k k^T / |k|^2) v_hat(k); the k = 0 mode maps to 0.

    coeffs has shape (dim, ...) and k holds the matching wavenumbers, so the
    full spectrum and the rfft half spectrum both work; k = 0 sits at index 0
    of every frequency axis in either layout. k2 is leray_denominator(k).
    """
    zero = (0,) * (k.ndim - 1)
    kdotv = np.einsum("i...,i...->...", k, coeffs)
    kdotv /= k2
    out = np.empty_like(kdotv, shape=coeffs.shape)
    for i in range(len(k)):  # per component: no broadcast copy of kdotv
        np.multiply(k[i], kdotv, out=out[i])
    np.subtract(coeffs, out, out=out)
    out[(slice(None),) + zero] = 0.0
    return out


def leray_project(v: SpectralField) -> SpectralField:
    """Project a vector field onto divergence-free modes."""
    if v.rank != 1:
        raise ValueError("leray_project needs a rank-1 field")
    k = v.grid.wavenumbers
    return SpectralField(v.grid, 1, solenoidal_part(v.coeffs, k,
                                                    leray_denominator(k)))


def place_mode(coeffs: np.ndarray, grid: Grid, k: tuple[int, ...],
               amplitude: complex) -> None:
    """Add amplitude/2 at mode k and its conjugate at -k to one component's
    full-layout coefficients, which adds Re(amplitude exp(i k.x))."""
    idx = tuple(c % grid.points for c in k)
    conj_idx = tuple((-c) % grid.points for c in k)
    coeffs[idx] += 0.5 * amplitude
    coeffs[conj_idx] += 0.5 * np.conj(amplitude)


def dealias(f: SpectralField) -> SpectralField:
    """Zero every coefficient with any |k_i| > M/3 (2/3 rule). Idempotent."""
    return SpectralField(f.grid, f.rank, f.coeffs * f.grid.dealias_mask)


def dealiased_spectrum(grid: Grid, rank: int, values: np.ndarray) -> SpectralField:
    """The package's one path from physical samples to a dealiased spectrum."""
    return dealias(to_spectral(PhysicalField(grid, rank, values)))


def grad_outer(tau: SpectralField) -> SpectralField:
    """Dealiased tensor with entries sum_k d_i tau_k d_j tau_k."""
    g = to_physical(gradient(tau))  # g[i, k] = d_i tau_k
    vals = np.einsum("ik...,jk...->ij...", g.values, g.values)
    return dealiased_spectrum(tau.grid, 2, vals)


# ---------------------------------------------------------------------------
# Binary snapshot format
#
# One record per field: header <4s I I I I d> = magic "BLCF", version,
# dim, M, rank, time; then the physical samples as little-endian float64,
# component-major, row-major within each component.
# ---------------------------------------------------------------------------

def write_field(fh: BinaryIO, f: PhysicalField, time: float) -> None:
    fh.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, f.grid.dim,
                          f.grid.points, f.rank, float(time)))
    fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_field(fh: BinaryIO) -> tuple[PhysicalField, float]:
    raw = fh.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("truncated snapshot header")
    magic, version, dim, m, rank, time = _HEADER.unpack(raw)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"bad snapshot magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version}")
    grid = Grid(dim, m)
    if rank not in (0, 1, 2):
        raise ValueError(f"snapshot field rank must be 0, 1 or 2, got {rank}")
    count = (dim ** rank) * m ** dim
    # the read below allocates what the header claims, so check that first
    here = fh.tell()
    left = fh.seek(0, 2) - here       # the bytes after the header
    fh.seek(here)
    if count * 8 > left:
        raise ValueError(f"snapshot header claims {count * 8} bytes of "
                         f"samples, {left} follow")
    data = np.frombuffer(fh.read(count * 8), dtype="<f8", count=count)
    if not np.all(np.isfinite(data)):
        raise ValueError("non-finite samples in snapshot")
    vals = data.reshape(_component_shape(dim, rank) + grid.shape).copy()
    return PhysicalField(grid, rank, vals), time
