"""Grid, field, transform, calculus, projection, and snapshot-format tests."""
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blcsim.spectral import (
    _HEADER, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, Grid, GridMismatchError, PhysicalField, ShapeMismatchError, SpectralField,
    dealias, divergence, gradient, grad_outer, hermitian_expand,
    leray_project, read_field, to_physical, to_spectral, write_field,
)
from conftest import random_scalar, random_vector, single_block_scalar


# -- grid ------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(dim=4, points=64)
    with pytest.raises(ValueError):
        Grid(dim=2, points=63)
    with pytest.raises(ValueError):
        Grid(dim=2, points=4)


def test_grid_frequencies(grid2d):
    f = grid2d.int_freqs
    assert f[0] == 0
    assert f[1] == 1
    assert f[-1] == -1
    # Nyquist is labelled +M/2 ...
    assert f[grid2d.points // 2] == grid2d.points // 2
    # ... but carries no derivative weight.
    d = grid2d.deriv_wavenumbers
    assert d[0][grid2d.points // 2, 0] == 0.0
    assert d[0][1, 0] == 1.0
    assert d[1][0, 1] == 1.0


def test_grid_coordinates(grid2d):
    x = grid2d.coordinates()
    assert x.shape == (2, 64, 64)
    assert x[0, 0, 0] == 0.0
    assert np.isclose(x[0, 1, 0], 2 * np.pi / 64)
    assert np.isclose(x[1, 0, 1], 2 * np.pi / 64)


def test_dealias_cutoff(grid2d):
    assert grid2d.dealias_cutoff == pytest.approx(64 / 3)


# -- field containers --------------------------------------------------------

def test_field_shape_validation(grid2d):
    with pytest.raises(ShapeMismatchError):
        SpectralField(grid2d, 1, np.zeros((64, 64), dtype=complex))
    with pytest.raises(ShapeMismatchError):
        SpectralField(grid2d, 0, np.zeros((2, 64, 64), dtype=complex))
    with pytest.raises(ValueError):
        SpectralField(grid2d, 3, np.zeros((2, 2, 2, 64, 64), dtype=complex))


def test_field_arithmetic(grid2d):
    a = random_scalar(grid2d, seed=1)
    b = random_scalar(grid2d, seed=2)
    s = a + b
    assert np.allclose(s.coeffs, a.coeffs + b.coeffs)
    d = a - b
    assert np.allclose(d.coeffs, a.coeffs - b.coeffs)
    m = 2.5 * a
    assert np.allclose(m.coeffs, 2.5 * a.coeffs)
    n = -a
    assert np.allclose(n.coeffs, -a.coeffs)


def test_field_grid_mismatch(grid2d, grid2d_small):
    a = random_scalar(grid2d, seed=1)
    b = random_scalar(grid2d_small, seed=1)
    with pytest.raises(GridMismatchError):
        a + b


def test_mean_coefficient(grid2d):
    f = SpectralField.zeros(grid2d, rank=1)
    f.coeffs[0, 0, 0] = 0.7
    f.coeffs[1, 3, 0] = 0.1
    assert np.allclose(f.mean_coefficient(), [0.7, 0.0])


def test_real_consistency(grid2d):
    f = random_scalar(grid2d, seed=3)
    assert f.is_real_consistent()
    f.coeffs[1, 0] += 1.0j   # break the conjugate pair
    assert not f.is_real_consistent()


def test_real_consistency_at_nyquist(grid2d):
    """The Nyquist index is its own mirror: a real coefficient there is
    conjugate-symmetric, an imaginary one is not."""
    f = random_scalar(grid2d, seed=3)
    nyquist = (grid2d.points // 2, 0)
    f.coeffs[nyquist] = 0.5
    assert f.is_real_consistent()
    f.coeffs[nyquist] = 0.5j
    assert not f.is_real_consistent()


def test_real_consistency_rejects_nan():
    f = random_scalar(Grid(2, 16), seed=3)
    f.coeffs[1, 2] = np.nan
    assert not f.is_real_consistent()


def test_physical_magnitude(grid2d):
    v = PhysicalField(grid2d, 1, np.stack([
        np.full(grid2d.shape, 3.0), np.full(grid2d.shape, 4.0)]))
    assert np.allclose(v.magnitude(), 5.0)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("rank", [0, 1, 2])
def test_magnitude_bits_match_sum_of_squares(dim, rank):
    """magnitude() adds the squares one component at a time, in the order
    of np.sum over the component axis, so the bits are the same."""
    grid = Grid(dim, 16)
    rng = np.random.default_rng(10 * dim + rank)
    shape = (dim,) * rank + grid.shape
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, size=shape)
    f = PhysicalField(grid, rank, vals)
    flat = f.flat_components()
    assert np.array_equal(f.magnitude(), np.sqrt(np.sum(flat ** 2, axis=0)))
    assert np.array_equal(f.squared_magnitude(), np.sum(flat ** 2, axis=0))


def test_magnitude_allocates_under_two_fields_beside_its_result(grid3d_mid):
    """A rank-2 3D field's magnitude keeps one running sum and one squared
    component alive, not a squared copy of all nine components."""
    import tracemalloc
    rng = np.random.default_rng(8)
    f = PhysicalField(grid3d_mid, 2, rng.standard_normal((3, 3) + grid3d_mid.shape))
    field_bytes = f.values[0, 0].nbytes
    f.magnitude()   # warm up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        mag = f.magnitude()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - mag.nbytes < 2 * field_bytes


# -- transforms ---------------------------------------------------------------

def test_transform_convention(grid2d):
    x = grid2d.coordinates()
    p = PhysicalField(grid2d, 0, np.cos(6 * x[0]))
    f = to_spectral(p)
    assert f.coeffs[6, 0] == pytest.approx(0.5)
    assert f.coeffs[-6, 0] == pytest.approx(0.5)
    mask = np.ones(grid2d.shape, dtype=bool)
    mask[6, 0] = mask[-6, 0] = False
    assert np.max(np.abs(f.coeffs[mask])) < 1e-14


def test_constant_field_transform(grid2d):
    p = PhysicalField(grid2d, 0, np.full(grid2d.shape, 2.25))
    f = to_spectral(p)
    assert f.coeffs[0, 0] == pytest.approx(2.25)
    assert abs(np.sum(np.abs(f.coeffs)) - 2.25) < 1e-12


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_round_trip(seed):
    grid = Grid(dim=2, points=32)
    f = random_scalar(grid, seed=seed)
    back = to_spectral(to_physical(f))
    scale = max(1.0, np.max(np.abs(f.coeffs)))
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12 * scale


def test_round_trip_3d(grid3d):
    f = random_vector(grid3d, seed=5, n_modes=10)
    back = to_spectral(to_physical(f))
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12


@pytest.mark.parametrize("dim,m", [(2, 32), (3, 16)])
def test_to_physical_matches_full_inverse(dim, m):
    """to_physical reads only the rfft half spectrum; on real fields of
    every rank, Nyquist modes included, it matches the real part of the
    full complex inverse to 1e-14."""
    grid = Grid(dim, m)
    rng = np.random.default_rng(10 * dim + m)
    axes = tuple(range(-dim, 0))
    for rank in (0, 1, 2):
        vals = rng.standard_normal((dim,) * rank + grid.shape)
        f = to_spectral(PhysicalField(grid, rank, vals))
        want = (np.fft.ifftn(f.coeffs, axes=axes) * m ** dim).real
        got = to_physical(f).values
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_parseval(grid2d):
    f = random_scalar(grid2d, seed=7)
    p = to_physical(f)
    mean_sq = np.mean(p.values ** 2)
    assert mean_sq == pytest.approx(np.sum(np.abs(f.coeffs) ** 2), rel=1e-12)


def test_hermitian_expand_round_trip(grid2d, grid3d):
    for grid, seed in ((grid2d, 11), (grid3d, 12)):
        f = random_vector(grid, seed=seed, n_modes=8)
        h = grid.points // 2 + 1
        half = f.coeffs[..., :h]
        full = hermitian_expand(half, grid.dim, grid.points)
        assert np.max(np.abs(full - f.coeffs)) < 1e-15


def test_hermitian_expand_shape_check(grid2d):
    with pytest.raises(ValueError):
        hermitian_expand(np.zeros((64, 10), dtype=complex), 2, 64)


def _roll_flip_expand(half, dim, points):
    """The mirror as an np.roll(np.flip(...)) chain over the other axes: the
    reference the sliced hermitian_expand must match bit for bit."""
    m, h = points, points // 2 + 1
    full = np.empty(half.shape[:-1] + (m,), dtype=np.complex128)
    full[..., :h] = half
    src = half[..., 1:m - h + 1][..., ::-1]
    for ax in range(-dim, -1):
        src = np.roll(np.flip(src, axis=ax), 1, axis=ax)
    full[..., h:] = np.conj(src)
    return full


@pytest.mark.parametrize("dim, m, lead", [(2, 64, ()), (3, 32, ()),
                                          (2, 16, (5, 2, 2)), (3, 8, (2, 3))])
def test_hermitian_expand_matches_roll_flip(dim, m, lead):
    """Random half spectra, not only those of real fields, with and without
    leading batch axes."""
    rng = np.random.default_rng(dim * m)
    shape = lead + (m,) * (dim - 1) + (m // 2 + 1,)
    half = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = hermitian_expand(half, dim, m)
    want = _roll_flip_expand(half, dim, m)
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


# -- calculus -----------------------------------------------------------------

def test_gradient_of_cosine(grid2d):
    f = single_block_scalar(grid2d)          # cos(6 x1)
    g = to_physical(gradient(f))
    x = grid2d.coordinates()
    assert np.max(np.abs(g.values[0] + 6 * np.sin(6 * x[0]))) < 1e-12
    assert np.max(np.abs(g.values[1])) < 1e-14


def test_divergence_of_gradient_is_laplacian(grid2d):
    f = random_scalar(grid2d, seed=13)
    a = divergence(gradient(f))
    b = -grid2d.k_squared * f.coeffs
    assert np.max(np.abs(a.coeffs - b)) < 1e-12


def test_stream_function_is_solenoidal(grid2d):
    psi = random_scalar(grid2d, seed=17)
    g = gradient(psi)
    u = SpectralField(grid2d, 1, np.stack([g.coeffs[1], -g.coeffs[0]]))
    div = divergence(u)
    assert np.max(np.abs(div.coeffs)) < 1e-12


# -- Leray projection ---------------------------------------------------------

def test_leray_known_mode(grid2d):
    v = SpectralField.zeros(grid2d, rank=1)
    v.coeffs[0, 1, 1] = 1.0
    v.coeffs[0, -1, -1] = 1.0
    p = leray_project(v)
    # at k = (1, 1): (1, 0) minus k (k.v)/|k|^2 = (1/2, -1/2)
    assert p.coeffs[0, 1, 1] == pytest.approx(0.5)
    assert p.coeffs[1, 1, 1] == pytest.approx(-0.5)


def test_leray_idempotent(grid2d):
    v = random_vector(grid2d, seed=23)
    p1 = leray_project(v)
    p2 = leray_project(p1)
    scale = max(1.0, np.max(np.abs(p1.coeffs)))
    assert np.max(np.abs(p2.coeffs - p1.coeffs)) < 1e-12 * scale


def test_leray_annihilates_gradients(grid2d):
    g = gradient(random_scalar(grid2d, seed=29))
    p = leray_project(g)
    scale = max(1.0, np.max(np.abs(g.coeffs)))
    assert np.max(np.abs(p.coeffs)) < 1e-12 * scale


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_leray_output_solenoidal(seed):
    grid = Grid(dim=2, points=32)
    v = random_vector(grid, seed=seed)
    div = divergence(leray_project(v))
    assert np.max(np.abs(div.coeffs)) < 1e-12


def test_leray_3d(grid3d):
    v = random_vector(grid3d, seed=31)
    p = leray_project(v)
    assert np.max(np.abs(divergence(p).coeffs)) < 1e-12
    assert np.max(np.abs(leray_project(p).coeffs - p.coeffs)) < 1e-12


# -- dealiasing ---------------------------------------------------------------

def test_dealias_rules(grid2d):
    f = SpectralField.zeros(grid2d, rank=0)
    f.coeffs[1, 0] = 1.0       # low mode survives
    f.coeffs[30, 0] = 1.0      # |k| > 64/3 dropped
    f.coeffs[32, 0] = 1.0      # Nyquist dropped
    g = dealias(f)
    assert g.coeffs[1, 0] == 1.0
    assert g.coeffs[30, 0] == 0.0
    assert g.coeffs[32, 0] == 0.0
    # boundary mode |k_i| = 21 <= 64/3 is kept
    f2 = SpectralField.zeros(grid2d, rank=0)
    f2.coeffs[21, 21] = 1.0
    assert dealias(f2).coeffs[21, 21] == 1.0


def test_dealias_idempotent(grid2d):
    f = random_scalar(grid2d, seed=37)
    once = dealias(f)
    twice = dealias(once)
    assert np.array_equal(once.coeffs, twice.coeffs)


# -- band-limited workspace transforms -------------------------------------------

def _band_mask(grid, c):
    """Half-spectrum mask of the box |k_i| <= c."""
    keep = np.abs(grid.int_freqs) <= c
    mask = np.ones(grid.shape, dtype=bool)
    for i in range(grid.dim):
        sh = [1] * grid.dim
        sh[i] = grid.points
        mask &= keep.reshape(sh)
    return mask[grid.half]


BAND_GRIDS = [(2, 32), (2, 64), (3, 16), (3, 32)]


@pytest.mark.parametrize("dim,m", BAND_GRIDS)
def test_band_transforms_match_numpy(dim, m):
    """The pruned transforms equal irfftn and rfftn times the band's mask
    for every cutoff, up to the full half spectrum at c = M/2."""
    grid = Grid(dim, m)
    ws = grid.workspace
    rng = np.random.default_rng(dim * 100 + m)
    axes = tuple(range(-dim, 0))
    for c in (1, 5, m // 3, m // 2):
        mask = _band_mask(grid, c)
        n = 4
        spec = (rng.standard_normal((n,) + mask.shape)
                + 1j * rng.standard_normal((n,) + mask.shape)) * mask
        want = np.fft.irfftn(spec, s=grid.shape, axes=axes, norm="forward")
        got = ws.band_irfft(spec.copy(), c, out=ws.phys[:n])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

        phys = rng.standard_normal((n,) + grid.shape)
        want = np.fft.rfftn(phys, axes=axes, norm="forward") * mask
        got = ws.band_rfft(phys, c, out=ws.spec[:n])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        assert np.all(got[..., ~mask] == 0)


def test_band_transforms_allocate_no_fields(grid3d):
    import tracemalloc
    ws = grid3d.workspace
    c = grid3d.dealias_band
    rng = np.random.default_rng(11)
    mask = _band_mask(grid3d, c)
    spec = (rng.standard_normal((4,) + mask.shape) + 0j) * mask
    field_bytes = ws.phys[0].nbytes
    ws.band_irfft(spec.copy(), c, out=ws.phys[:4])   # warm up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ws.band_irfft(spec, c, out=ws.phys[:4])
        ws.band_rfft(ws.phys[:4], c, out=ws.spec[:4])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < field_bytes


def test_dealias_band_is_the_mask(grid2d, grid3d):
    for grid in (grid2d, grid3d):
        assert np.array_equal(_band_mask(grid, grid.dealias_band),
                              grid.dealias_mask[grid.half])


# -- products -----------------------------------------------------------------

def test_grad_outer_symmetric(grid2d):
    tau = random_vector(grid2d, seed=47)
    s = grad_outer(tau)
    assert np.max(np.abs(s.coeffs - np.swapaxes(s.coeffs, 0, 1))) < 1e-13


# -- snapshot format ----------------------------------------------------------

def test_snapshot_round_trip(grid2d):
    f = to_physical(random_vector(grid2d, seed=61))
    buf = io.BytesIO()
    write_field(buf, f, 0.37)
    buf.seek(0)
    g, t = read_field(buf)
    assert t == 0.37
    assert g.grid == grid2d
    assert g.rank == 1
    assert np.array_equal(g.values, f.values)


def test_snapshot_round_trip_3d_scalar(grid3d):
    f = to_physical(random_scalar(grid3d, seed=67, n_modes=5))
    buf = io.BytesIO()
    write_field(buf, f, 2.5)
    buf.seek(0)
    g, t = read_field(buf)
    assert t == 2.5
    assert g.grid.dim == 3
    assert np.array_equal(g.values, f.values)


def test_snapshot_bad_magic(grid2d):
    f = to_physical(random_scalar(grid2d, seed=71))
    buf = io.BytesIO()
    write_field(buf, f, 0.0)
    data = bytearray(buf.getvalue())
    data[:4] = b"XXXX"
    with pytest.raises(ValueError, match="magic"):
        read_field(io.BytesIO(bytes(data)))


def test_snapshot_bad_version(grid2d):
    f = to_physical(random_scalar(grid2d, seed=73))
    buf = io.BytesIO()
    write_field(buf, f, 0.0)
    data = bytearray(buf.getvalue())
    data[4:8] = (99).to_bytes(4, "little")
    with pytest.raises(ValueError, match="version"):
        read_field(io.BytesIO(bytes(data)))


def test_snapshot_truncated(grid2d):
    f = to_physical(random_scalar(grid2d, seed=79))
    buf = io.BytesIO()
    write_field(buf, f, 0.0)
    data = buf.getvalue()
    with pytest.raises(ValueError, match="claims"):
        read_field(io.BytesIO(data[: len(data) // 2]))
    with pytest.raises(ValueError, match="header"):
        read_field(io.BytesIO(data[:10]))
    # N = 3, M = 2^20: a byte count too large for a read() argument
    header = _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 3, 2 ** 20, 1, 0.0)
    with pytest.raises(ValueError, match="claims"):
        read_field(io.BytesIO(header + bytes(64)))

