"""Paraproduct, remainder, Bony split, and continuity probe tests."""
import numpy as np
import pytest

from blcsim.dyadic import block_project, build_partition, decompose
from blcsim.norms import BesovIndex
from blcsim.paraproduct import bony_reconstruct, paraproduct_T, remainder_R
from blcsim.spectral import (
    Grid, GridMismatchError, PhysicalField, SpectralField, dealias, place_mode,
    to_physical, to_spectral,
)
from conftest import load_script, make_rng, random_scalar, single_block_scalar

probe = load_script("probe_continuity")


def _mode(grid, k, amplitude=1.0):
    f = SpectralField.zeros(grid, rank=0)
    f.coeffs[k] = amplitude / 2
    f.coeffs[tuple(-np.array(k))] = amplitude / 2
    return f


# -- paraproduct --------------------------------------------------------------

def test_constant_times_single_block(grid2d, part2d):
    c = SpectralField.zeros(grid2d, rank=0)
    c.coeffs[0, 0] = 2.5
    v = single_block_scalar(grid2d)
    t = paraproduct_T(c, v, part2d)
    assert np.max(np.abs(t.coeffs - 2.5 * v.coeffs)) < 1e-14


def test_high_low_paraproduct_vanishes(grid2d, part2d):
    """High-frequency u cannot appear in any low-pass factor that meets the
    single low block of v, so T_u v = 0 exactly."""
    u = _mode(grid2d, (0, 16))            # |k| = 16
    v = single_block_scalar(grid2d)       # |k| = 6, block q = 2 only
    t = paraproduct_T(u, v, part2d)
    assert np.max(np.abs(t.coeffs)) == 0.0
    # the mirrored paraproduct is nonzero
    t2 = paraproduct_T(v, u, part2d)
    assert np.max(np.abs(t2.coeffs)) > 1e-3


def test_paraproduct_bilinear(grid2d, part2d):
    a = random_scalar(grid2d, seed=301)
    b = random_scalar(grid2d, seed=303)
    v = random_scalar(grid2d, seed=307)
    comb = SpectralField(grid2d, 0, a.coeffs + 2.0 * b.coeffs)
    lhs = paraproduct_T(comb, v, part2d).coeffs
    rhs = paraproduct_T(a, v, part2d).coeffs + 2.0 * paraproduct_T(b, v, part2d).coeffs
    scale = max(1.0, float(np.max(np.abs(lhs))))
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * scale
    lhs2 = paraproduct_T(v, comb, part2d).coeffs
    rhs2 = paraproduct_T(v, a, part2d).coeffs + 2.0 * paraproduct_T(v, b, part2d).coeffs
    assert np.max(np.abs(lhs2 - rhs2)) < 1e-13 * scale


def test_paraproduct_summand_localization(grid2d, part2d):
    """Each term S_{q-1} u Delta_q v is supported in the dyadic annulus
    [2^q / 12, 10 2^q / 3] (low cap at (2/3) 2^q meets the block annulus)."""
    u = random_scalar(grid2d, seed=311)
    v = random_scalar(grid2d, seed=313)
    kmag = grid2d.k_magnitude
    for q in part2d.q_range:
        low = SpectralField(grid2d, 0, u.coeffs * part2d.chi_mask(q - 1))
        from blcsim.dyadic import block_project
        blk = block_project(v, q, part2d)
        prod = to_spectral(PhysicalField(grid2d, 0,
                                         to_physical(low).values
                                         * to_physical(blk).values))
        outside = (kmag < (1.0 / 12.0) * 2.0 ** q - 1e-9) | (
            kmag > (10.0 / 3.0) * 2.0 ** q + 1e-9)
        scale = max(1.0, float(np.max(np.abs(prod.coeffs))))
        assert np.max(np.abs(prod.coeffs[outside])) < 1e-13 * scale


def test_paraproduct_rejects_two_grids(grid2d, grid2d_small, part2d):
    a = random_scalar(grid2d, seed=1)
    b = random_scalar(grid2d_small, seed=1)
    with pytest.raises(GridMismatchError):
        paraproduct_T(a, b, part2d)


def test_paraproduct_rejects_vectors(grid2d, part2d):
    v = SpectralField.zeros(grid2d, rank=1)
    s = SpectralField.zeros(grid2d, rank=0)
    with pytest.raises(ValueError):
        paraproduct_T(v, s, part2d)


# -- remainder ----------------------------------------------------------------

def test_remainder_symmetric(grid2d, part2d):
    u = random_scalar(grid2d, seed=317)
    v = random_scalar(grid2d, seed=331)
    ruv = remainder_R(u, v, part2d)
    rvu = remainder_R(v, u, part2d)
    scale = max(1.0, float(np.max(np.abs(ruv.coeffs))))
    assert np.max(np.abs(ruv.coeffs - rvu.coeffs)) < 1e-13 * scale


def test_remainder_far_blocks_vanish(grid2d, part2d):
    u = _mode(grid2d, (0, 16))            # blocks q >= 3
    v = _mode(grid2d, (3, 0))             # block q = 1 only
    r = remainder_R(u, v, part2d)
    assert np.max(np.abs(r.coeffs)) == 0.0


def test_remainder_of_single_block_square(grid2d, part2d):
    u = single_block_scalar(grid2d, amplitude=0.8)
    r = remainder_R(u, u, part2d)
    direct = dealias(to_spectral(PhysicalField(
        grid2d, 0, to_physical(u).values ** 2)))
    assert np.max(np.abs(r.coeffs - direct.coeffs)) < 1e-14


def test_remainder_of_zero(grid2d, part2d):
    u = random_scalar(grid2d, seed=337)
    z = SpectralField.zeros(grid2d, rank=0)
    assert np.max(np.abs(remainder_R(u, z, part2d).coeffs)) == 0.0


# -- Bony reconstruction --------------------------------------------------------

def test_bony_squared_cosine(grid2d, part2d):
    x = grid2d.coordinates()
    u = to_spectral(PhysicalField(grid2d, 0, np.cos(x[0])))
    split = bony_reconstruct(u, u, part2d)
    total = split.total()
    # cos^2 = 1/2 + cos(2 x)/2
    assert total.coeffs[0, 0] == pytest.approx(0.5, abs=1e-14)
    assert total.coeffs[2, 0] == pytest.approx(0.25, abs=1e-14)
    assert total.coeffs[-2, 0] == pytest.approx(0.25, abs=1e-14)


def test_bony_zero_operand(grid2d, part2d):
    u = random_scalar(grid2d, seed=347)
    z = SpectralField.zeros(grid2d, rank=0)
    split = bony_reconstruct(u, z, part2d)
    for part_field in (split.t_uv, split.t_vu, split.remainder, split.low_terms):
        assert np.max(np.abs(part_field.coeffs)) == 0.0


@pytest.mark.parametrize("seed", [351, 353, 359, 367, 373])
def test_bony_random_reconstruction(grid2d, part2d, seed):
    u = random_scalar(grid2d, seed=seed)
    v = random_scalar(grid2d, seed=seed + 1000)
    split = bony_reconstruct(u, v, part2d)     # raises if identity fails
    direct = dealias(to_spectral(PhysicalField(
        grid2d, 0, to_physical(u).values * to_physical(v).values)))
    err = np.max(np.abs(split.total().coeffs - direct.coeffs))
    scale = max(float(np.max(np.abs(direct.coeffs))), 1e-300)
    assert err < 1e-12 * scale


def test_bony_3d(grid3d, part3d):
    u = random_scalar(grid3d, seed=379, n_modes=8)
    v = random_scalar(grid3d, seed=383, n_modes=8)
    split = bony_reconstruct(u, v, part3d)
    direct = dealias(to_spectral(PhysicalField(
        grid3d, 0, to_physical(u).values * to_physical(v).values)))
    err = np.max(np.abs(split.total().coeffs - direct.coeffs))
    scale = max(float(np.max(np.abs(direct.coeffs))), 1e-300)
    assert err < 1e-12 * scale


# -- reference: one transform per block pair -------------------------------------

def _ref_product(a, b):
    return dealias(to_spectral(PhysicalField(a.grid, 0, a.values * b.values)))


def _ref_T(u, v, part):
    acc = np.zeros(u.grid.shape, dtype=np.complex128)
    for q in part.q_range:
        low = to_physical(SpectralField(u.grid, 0, u.coeffs * part.chi_mask(q - 1)))
        blk = to_physical(block_project(v, q, part))
        acc = acc + _ref_product(low, blk).coeffs
    return acc


def _ref_R(u, v, part):
    phys_u = {q: to_physical(block_project(u, q, part)) for q in part.q_range}
    phys_v = {q: to_physical(block_project(v, q, part)) for q in part.q_range}
    acc = np.zeros(u.grid.shape, dtype=np.complex128)
    for p in part.q_range:
        for q in part.q_range:
            if abs(p - q) <= 1:
                acc = acc + _ref_product(phys_u[p], phys_v[q]).coeffs
    return acc


def _ref_low_terms(u, v, part):
    du, dv = decompose(u, part), decompose(v, part)
    u_phys, v_phys = to_physical(u).values, to_physical(v).values
    u_low, u_high = (to_physical(f).values for f in (du.residual_low, du.residual_high))
    v_low, v_high = (to_physical(f).values for f in (dv.residual_low, dv.residual_high))
    vals = u_low * v_low + u_phys * v_high + u_high * v_phys - u_high * v_high
    return dealias(to_spectral(PhysicalField(u.grid, 0, vals))).coeffs


def _full_band_field(grid, rng):
    """Random real field of 40 unit modes drawn over the whole 2/3 box
    |k_i| <= M/3, plus a mean, so both residuals of the decomposition carry
    content: the box's corners reach past the last block."""
    band = grid.dealias_band
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for k in rng.integers(-band, band + 1, size=(40, grid.dim)):
        place_mode(coeffs, grid, tuple(k), np.exp(2j * np.pi * rng.random()))
    coeffs[(0,) * grid.dim] = 0.7
    return SpectralField(grid, 0, coeffs)


@pytest.mark.parametrize("dim,m", [(2, 64), (3, 32)])
def test_pieces_match_per_block_loops(dim, m):
    """Summing each piece in physical space before one forward transform
    matches dealiasing every block product on its own, to 1e-13 relative."""
    grid = Grid(dim, m)
    part = build_partition(grid)
    rng = make_rng(389)
    u, v = _full_band_field(grid, rng), _full_band_field(grid, rng)
    for f in (u, v):
        pieces = decompose(f, part)
        assert np.any(pieces.residual_low.coeffs)
        assert np.any(pieces.residual_high.coeffs)
    split = bony_reconstruct(u, v, part)
    pairs = [(paraproduct_T(u, v, part), _ref_T(u, v, part)),
             (remainder_R(u, v, part), _ref_R(u, v, part)),
             (split.t_uv, _ref_T(u, v, part)), (split.t_vu, _ref_T(v, u, part)),
             (split.remainder, _ref_R(u, v, part)),
             (split.low_terms, _ref_low_terms(u, v, part))]
    for got, want in pairs:
        scale = float(np.max(np.abs(want)))
        assert scale > 0.0
        assert np.max(np.abs(got.coeffs - want)) <= 1e-13 * scale


# -- continuity probes ----------------------------------------------------------

def test_probe_t_index_validation(part2d):
    # s > N/p is outside the mapping range
    with pytest.raises(ValueError):
        probe.continuity_probe_T(part2d, BesovIndex(1.5, 2.0, 1.0))
    # s = N/p needs r = 1
    with pytest.raises(ValueError):
        probe.continuity_probe_T(part2d, BesovIndex(1.0, 2.0, 2.0))
    probe.continuity_probe_T(part2d, BesovIndex(1.0, 2.0, 1.0), n_samples=2)


def test_probe_r_index_validation(part2d):
    with pytest.raises(ValueError):
        probe.continuity_probe_R(part2d, -0.5, 1.0, 0.25, 1.0)    # s1 + s2 <= 0
    with pytest.raises(ValueError):
        probe.continuity_probe_R(part2d, 1.5, 2.0, 1.5, 2.0)      # sigma > N/2


def test_probe_ratios_bounded_across_resolutions():
    """Empirical operator norms stay bounded as the grid refines."""
    maxima_t, maxima_r = [], []
    for m in (32, 64):
        part = build_partition(Grid(dim=2, points=m))
        rt = probe.continuity_probe_T(part, BesovIndex(0.5, 2.0, 1.0),
                                      n_samples=10, seed=11)
        rr = probe.continuity_probe_R(part, 0.5, 2.0, 0.5, 2.0,
                                      n_samples=10, seed=13)
        assert np.all(np.isfinite(rt.ratios)) and np.all(np.isfinite(rr.ratios))
        maxima_t.append(rt.max_ratio)
        maxima_r.append(rr.max_ratio)
    assert max(maxima_t) < 5.0
    assert max(maxima_r) < 5.0
    # refinement must not inflate the constants
    assert maxima_t[1] < 2.0 * maxima_t[0] + 0.1
    assert maxima_r[1] < 2.0 * maxima_r[0] + 0.1
