"""Lebesgue, Besov, and time-mixed norm tests with closed-form oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blcsim.norms import (
    INF, BesovIndex, BlockNormSeries, CheminLernerIndex, MinkowskiOrderingError,
    TimeGrid, besov_norm, block_lp_norms, build_block_norm_series,
    chemin_lerner_norm, lebesgue_besov_norm, lp_norm, minkowski_compare,
    running_chemin_lerner_norm,
)
from blcsim.spectral import (BlowUpError, PhysicalField, SpectralField,
                             to_physical, to_spectral)
from conftest import (random_scalar, random_vector, single_block_scalar,
                      windowed_chemin_lerner_norms)


# -- index validation ---------------------------------------------------------

def test_besov_index_validation():
    BesovIndex(0.0, 2.0, 1.0)
    BesovIndex(-1.5, INF, INF)
    with pytest.raises(ValueError):
        BesovIndex(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        BesovIndex(0.0, 2.0, 0.0)


def test_chemin_lerner_index_validation():
    CheminLernerIndex(4.0, BesovIndex(1.0, 2.0, 1.0))
    with pytest.raises(ValueError):
        CheminLernerIndex(0.9, BesovIndex(1.0, 2.0, 1.0))


def test_time_grid_validation():
    TimeGrid((0.0, 0.5, 1.0))
    with pytest.raises(ValueError):
        TimeGrid(())
    with pytest.raises(ValueError):
        TimeGrid((0.0, 0.5, 0.5))


# -- pointwise Lp -------------------------------------------------------------

def test_lp_constant(grid2d):
    f = PhysicalField(grid2d, 0, np.full(grid2d.shape, -2.0))
    for p in (1.0, 2.0, 3.5, INF):
        assert lp_norm(f, p) == pytest.approx(2.0)


def test_lp_cosine(grid2d):
    f = to_physical(single_block_scalar(grid2d))
    assert lp_norm(f, 2.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert lp_norm(f, INF) == pytest.approx(1.0, rel=1e-12)


def test_lp_vector_magnitude(grid2d):
    v = PhysicalField(grid2d, 1, np.stack([
        np.full(grid2d.shape, 3.0), np.full(grid2d.shape, 4.0)]))
    assert lp_norm(v, 1.0) == pytest.approx(5.0)
    assert lp_norm(v, INF) == pytest.approx(5.0)


@given(c=st.floats(-100.0, 100.0), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_lp_homogeneous(c, seed):
    from blcsim.spectral import Grid
    grid = Grid(dim=2, points=16)
    f = to_physical(random_scalar(grid, seed=seed, n_modes=5))
    scaled = PhysicalField(grid, 0, c * f.values)
    base = lp_norm(f, 2.0)
    assert lp_norm(scaled, 2.0) == pytest.approx(abs(c) * base, rel=1e-10, abs=1e-12)


def test_lp_rejects_bad_exponent(grid2d):
    f = to_physical(single_block_scalar(grid2d))
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_lp_nan_blows_up(grid2d):
    vals = np.zeros(grid2d.shape)
    vals[0, 0] = np.nan
    with pytest.raises(BlowUpError):
        lp_norm(PhysicalField(grid2d, 0, vals), 2.0)


# -- block norms and Besov ----------------------------------------------------

def test_block_lp_inf_matches_direct(grid2d, part2d):
    from blcsim.dyadic import block_project
    u = random_scalar(grid2d, seed=201)
    norms = block_lp_norms(u, part2d, INF)
    for i, q in enumerate(range(part2d.q_min, part2d.q_max + 1)):
        direct = lp_norm(to_physical(block_project(u, q, part2d)), INF)
        assert norms[i] == pytest.approx(direct, rel=1e-12, abs=1e-15)


def test_block_lp_inf_roots_only_the_max(grid2d, part2d):
    """Rooting only the largest squared magnitude gives, bit for bit, the
    max over the pointwise magnitudes of each block."""
    u = _full_band_field(grid2d, 1, seed=203)
    ws = grid2d.workspace
    comps = u.coeffs[grid2d.half]
    want = []
    for mask, band in zip(part2d.half_masks, part2d.half_mask_bands):
        vals = ws.band_irfft(mask * comps, band, out=np.empty((2,) + grid2d.shape))
        want.append(np.max(np.sqrt(np.sum(vals ** 2, axis=0))))
    assert np.array_equal(block_lp_norms(u, part2d, INF), want)


def _full_band_field(grid, rank, seed):
    """A real field with content in every mode, up to the Nyquist corner."""
    shape = (grid.dim,) * rank + grid.shape
    vals = np.random.default_rng(seed).standard_normal(shape)
    return to_spectral(PhysicalField(grid, rank, vals))


@pytest.mark.parametrize("p", [1.0, 3.0, INF])
def test_block_lp_norms_match_definition(grid2d, part2d, grid3d, part3d, p):
    """The band-limited half-spectrum transform gives each block's own L^p
    norm, also for fields that are not dealiased, whose top block reaches
    past the 2/3 box."""
    from blcsim.dyadic import block_project
    for grid, part in ((grid2d, part2d), (grid3d, part3d)):
        assert part.half_mask_bands[-1] > grid.dealias_band
        for u in (random_scalar(grid, seed=203), random_vector(grid, seed=207),
                  _full_band_field(grid, 0, 209), _full_band_field(grid, 1, 210)):
            got = block_lp_norms(u, part, p)
            want = np.array([lp_norm(to_physical(block_project(u, q, part)), p)
                             for q in part.q_range])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_block_lp_norms_non_finite_blows_up(grid2d, part2d, bad):
    u = random_vector(grid2d, seed=211)
    u.coeffs[0, 3, 4] = bad
    for p in (1.0, INF):
        with pytest.raises(BlowUpError), np.errstate(invalid="ignore"):
            block_lp_norms(u, part2d, p)


def test_block_lp_norms_reject_bad_exponent(grid2d, part2d):
    u = random_scalar(grid2d, seed=213)
    for p in (0.5, -1.0):
        with pytest.raises(ValueError):
            block_lp_norms(u, part2d, p)


def test_besov_single_block_closed_form(grid2d, part2d):
    A = 0.7
    f = single_block_scalar(grid2d, amplitude=A)   # block q = 2, L2 = A/sqrt(2)
    for s in (-1.0, 0.0, 0.5, 1.5):
        for r in (1.0, 2.0, INF):
            idx = BesovIndex(s, 2.0, r)
            expected = 2.0 ** (2 * s) * A / math.sqrt(2.0)
            assert besov_norm(f, idx, part2d) == pytest.approx(expected, rel=1e-12)


def test_besov_zero_field(grid2d, part2d):
    z = SpectralField.zeros(grid2d, rank=0)
    assert besov_norm(z, BesovIndex(1.0, 2.0, 1.0), part2d) == 0.0


def test_besov_r_monotone(grid2d, part2d):
    """l^r norms shrink as r grows, so B_{2,inf} <= B_{2,2} <= B_{2,1}."""
    u = random_scalar(grid2d, seed=203)
    s = 0.5
    n_inf = besov_norm(u, BesovIndex(s, 2.0, INF), part2d)
    n_2 = besov_norm(u, BesovIndex(s, 2.0, 2.0), part2d)
    n_1 = besov_norm(u, BesovIndex(s, 2.0, 1.0), part2d)
    assert n_inf <= n_2 + 1e-12
    assert n_2 <= n_1 + 1e-12


# -- series construction ------------------------------------------------------

def test_build_series_matches_columns(grid2d, part2d):
    fields = [random_scalar(grid2d, seed=s) for s in (211, 223, 227)]
    times = TimeGrid((0.0, 0.1, 0.3))
    ser = build_block_norm_series(fields, times, part2d, 2.0)
    assert ser.values.shape == (part2d.n_blocks, 3)
    for j, f in enumerate(fields):
        assert np.allclose(ser.values[:, j], block_lp_norms(f, part2d, 2.0))


def test_series_shape_validation():
    with pytest.raises(ValueError):
        BlockNormSeries(np.arange(3), np.array([0.0, 1.0]),
                        np.zeros((3, 3)), 2.0)
    with pytest.raises(ValueError):
        BlockNormSeries(np.arange(2), np.array([0.0, 0.0]),
                        np.zeros((2, 2)), 2.0)


# -- time-mixed norms ---------------------------------------------------------

def _single_block_series(part, q, curve, times):
    vals = np.zeros((part.n_blocks, times.size))
    vals[q - part.q_min] = curve
    return BlockNormSeries(np.arange(part.q_min, part.q_max + 1),
                           times, vals, 2.0)


def test_constant_series_closed_form(part2d):
    """Constant-in-time single block: norm is T^(1/rho) 2^(qs) value."""
    T = 0.8
    times = np.linspace(0.0, T, 33)
    A = 0.42
    ser = _single_block_series(part2d, 2, np.full(times.size, A), times)
    for rho in (1.0, 2.0, 4.0):
        idx = CheminLernerIndex(rho, BesovIndex(1.5, 2.0, 1.0))
        expected = T ** (1.0 / rho) * 2.0 ** (2 * 1.5) * A
        assert chemin_lerner_norm(ser, idx) == pytest.approx(expected, rel=1e-10)


def test_sup_in_time_norm(part2d):
    times = np.linspace(0.0, 1.0, 9)
    curve = np.array([0.1, 0.5, 0.2, 0.9, 0.3, 0.4, 0.8, 0.2, 0.1])
    ser = _single_block_series(part2d, 1, curve, times)
    idx = CheminLernerIndex(INF, BesovIndex(0.0, 2.0, 1.0))
    assert chemin_lerner_norm(ser, idx) == pytest.approx(2.0 ** 0 * 0.9)


def test_exponential_decay_closed_form(part2d):
    """exp(-t) on one block, rho = 2 on [0, 1]: integral is (1-e^-2)/2."""
    times = np.linspace(0.0, 1.0, 1001)
    A = 0.3
    curve = (A / math.sqrt(2.0)) * np.exp(-times)
    ser = _single_block_series(part2d, 2, curve, times)
    idx = CheminLernerIndex(2.0, BesovIndex(0.5, 2.0, 1.0))
    expected = 2.0 ** (2 * 0.5) * (A / math.sqrt(2.0)) * math.sqrt(
        (1.0 - math.exp(-2.0)) / 2.0)
    assert chemin_lerner_norm(ser, idx) == pytest.approx(expected, rel=1e-6)


def test_quadrature_second_order(part2d):
    """Trapezoid error in the time integral decays like h^2."""
    idx = CheminLernerIndex(2.0, BesovIndex(0.0, 2.0, 1.0))
    exact = math.sqrt((1.0 - math.exp(-2.0)) / 2.0)
    errs = []
    for n in (101, 201):
        times = np.linspace(0.0, 1.0, n)
        ser = _single_block_series(part2d, 2, np.exp(-times), times)
        errs.append(abs(chemin_lerner_norm(ser, idx) - exact))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


@pytest.mark.parametrize("n", [1, 2, 9, 300])
@pytest.mark.parametrize("rho, r", [(1.0, 1.0), (3.0, 2.0), (4.0, INF),
                                    (INF, 1.0), (INF, INF)])
def test_running_norm_matches_windowed_reference(part2d, n, rho, r):
    """Entry j of the running norm is the norm over [times[0], times[j]]."""
    rng = np.random.default_rng(n)
    times = np.cumsum(rng.uniform(0.01, 0.1, n))
    values = rng.random((part2d.n_blocks, n))
    qs = np.arange(part2d.q_min, part2d.q_max + 1)
    idx = CheminLernerIndex(rho, BesovIndex(0.5, 2.0, r))
    running = running_chemin_lerner_norm(values, qs, times, idx)
    assert running.shape == (n,)
    np.testing.assert_allclose(
        running, windowed_chemin_lerner_norms(values, qs, times, idx),
        rtol=1e-13, atol=0.0)


def test_empty_series_rejected(part2d):
    ser = _single_block_series(part2d, 2, np.zeros(0), np.zeros(0))
    idx = CheminLernerIndex(2.0, BesovIndex(0.0, 2.0, 1.0))
    for norm in (chemin_lerner_norm, lebesgue_besov_norm):
        with pytest.raises(ValueError, match="empty"):
            norm(ser, idx)


def test_single_sample_time_norm_is_zero(part2d):
    ser = _single_block_series(part2d, 2, np.array([1.0]), np.array([0.0]))
    idx = CheminLernerIndex(2.0, BesovIndex(0.0, 2.0, 1.0))
    assert chemin_lerner_norm(ser, idx) == 0.0
    idx_inf = CheminLernerIndex(INF, BesovIndex(0.0, 2.0, 1.0))
    assert chemin_lerner_norm(ser, idx_inf) == pytest.approx(1.0)


def test_tilde_equals_plain_single_block(part2d):
    """With one active block the block sum is trivial, so the two orders of
    integration agree for any r."""
    times = np.linspace(0.0, 1.0, 57)
    curve = 0.5 + 0.3 * np.sin(7 * times)
    ser = _single_block_series(part2d, 3, curve, times)
    for r in (1.0, 2.0, INF):
        idx = CheminLernerIndex(3.0, BesovIndex(0.25, 2.0, r))
        tilde = chemin_lerner_norm(ser, idx)
        plain = lebesgue_besov_norm(ser, idx)
        assert tilde == pytest.approx(plain, rel=1e-12)


def test_tilde_equals_plain_r_equals_rho(part2d):
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 1.0, 41)
    vals = rng.uniform(0.0, 1.0, (part2d.n_blocks, times.size))
    ser = BlockNormSeries(np.arange(part2d.q_min, part2d.q_max + 1),
                          times, vals, 2.0)
    idx = CheminLernerIndex(2.0, BesovIndex(0.5, 2.0, 2.0))
    tilde, plain = minkowski_compare(ser, idx)
    assert tilde == pytest.approx(plain, rel=1e-12)


def test_minkowski_orderings(part2d):
    """Disjoint in time peaks make the orderings strict."""
    times = np.array([0.0, 1.0])
    vals = np.zeros((part2d.n_blocks, 2))
    vals[0, 0] = 1.0   # block q_min peaks at t = 0
    vals[1, 1] = 1.0   # next block peaks at t = 1
    ser = BlockNormSeries(np.arange(part2d.q_min, part2d.q_max + 1),
                          times, vals, 2.0)
    s = 0.0
    # rho > r: time-mixed dominates
    tilde, plain = minkowski_compare(ser, CheminLernerIndex(INF, BesovIndex(s, 2.0, 1.0)))
    assert tilde > plain
    assert tilde == pytest.approx(2.0 ** (s * 0) + 2.0 ** s) or tilde > 0
    # rho < r: plain dominates
    tilde2, plain2 = minkowski_compare(ser, CheminLernerIndex(1.0, BesovIndex(s, 2.0, INF)))
    assert tilde2 < plain2


def test_minkowski_flags_non_finite(part2d):
    """The ordering holds pointwise for any real data, so the check is an
    internal-consistency guard; NaN contamination is the reachable trigger."""
    times = np.array([0.0, 1.0])
    vals = np.ones((part2d.n_blocks, 2))
    ser = BlockNormSeries(np.arange(part2d.q_min, part2d.q_max + 1),
                          times, vals, 2.0)
    idx = CheminLernerIndex(2.0, BesovIndex(0.0, 2.0, 2.0))
    tilde, plain = minkowski_compare(ser, idx)   # sane data passes
    assert tilde == pytest.approx(plain)

    bad = BlockNormSeries(ser.qs, ser.times, vals.copy(), 2.0)
    bad.values[0, 0] = np.nan
    with pytest.raises(MinkowskiOrderingError):
        minkowski_compare(bad, idx)
