"""Dyadic partition profile, block projection, and telescoping tests."""
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blcsim.dyadic import (
    INNER_RADIUS, OUTER_RADIUS, block_project, build_partition,
    chi_profile, decompose, dump_partition_csv, half_block_l2_norms, low_pass,
    phi_profile, reconstruct, smooth_step,
)
from blcsim.norms import block_lp_norms, lp_norm
from blcsim.spectral import (Grid, PhysicalField, SpectralField, dealias,
                             gradient, to_physical, to_spectral)
from conftest import random_scalar, single_block_scalar, plateau_mode_scalar


# -- profiles -----------------------------------------------------------------

def test_smooth_step_endpoints():
    """The one formula gives exactly 1 for t <= 0 and +0 for t >= 1 (and
    next to them, where g underflows), with no floating-point exception on
    the way, at the extreme arguments too."""
    below = np.array([-np.inf, -3.0, -1.0, -1e-300, -0.0, 0.0, 5e-324, 1e-300])
    above = np.array([1.0 - 1e-16, 1.0, 1.0 + 1e-16, 2.0, 1e300, np.inf])
    with np.errstate(all="raise"):
        ones, zeros = smooth_step(below), smooth_step(above)
    assert np.all(ones == 1.0)
    assert np.all(zeros == 0.0) and not np.any(np.signbit(zeros))
    assert smooth_step(0.5) == 0.5 and smooth_step([-1.0]).tolist() == [1.0]


def test_smooth_step_monotone():
    t = np.linspace(-0.5, 1.5, 401)
    s = smooth_step(t)
    assert np.all(np.diff(s) <= 1e-15)
    assert np.all((0.0 <= s) & (s <= 1.0))


def test_chi_midpoint_value():
    # chi(1) = psi(3/7) = 1 / (1 + exp(-7/12)), worked out from the
    # exponential bump: psi(t) = g(1-t) / (g(t) + g(1-t)), g(t) = exp(-1/t)
    expected = 1.0 / (1.0 + math.exp(-7.0 / 12.0))
    got = float(chi_profile(np.array(1.0)))
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(0.6418340450887309, abs=1e-15)


def test_chi_support():
    r = np.array([0.0, 0.5, INNER_RADIUS, 4.0 / 3.0, 2.0, 10.0])
    c = chi_profile(r)
    assert c[0] == 1.0 and c[1] == 1.0 and c[2] == 1.0
    assert c[3] == 0.0 and c[4] == 0.0 and c[5] == 0.0


def test_phi_support_and_plateau():
    assert float(phi_profile(np.array(0.7))) == 0.0       # below 3/4
    assert float(phi_profile(np.array(2.7))) == 0.0       # above 8/3
    for r in (4.0 / 3.0, 1.4, 1.5):                       # plateau
        assert float(phi_profile(np.array(r))) == 1.0
    assert float(phi_profile(np.array(1.0))) == pytest.approx(
        1.0 - 1.0 / (1.0 + math.exp(-7.0 / 12.0)), rel=1e-14)


def test_phi_is_chi_difference():
    r = np.linspace(0.01, 4.0, 1000)
    diff = chi_profile(r / 2.0) - chi_profile(r)
    assert np.max(np.abs(phi_profile(r) - diff)) < 1e-15


# -- partition construction ---------------------------------------------------

def test_block_range_m64(part2d):
    assert (part2d.q_min, part2d.q_max) == (-1, 4)
    assert part2d.n_blocks == 6


def test_block_range_m32(part2d_small):
    assert (part2d_small.q_min, part2d_small.q_max) == (-1, 3)


def test_block_range_m16(part3d):
    assert (part3d.q_min, part3d.q_max) == (-1, 2)


def test_coarsest_grid_still_partitions():
    part = build_partition(Grid(dim=2, points=8))
    assert part.n_blocks >= 2


def test_stacked_masks_shape(part2d):
    m = part2d.phi
    assert m.shape == (6, 64, 64)
    assert np.all((0.0 <= m) & (m <= 1.0))


def test_phi_mask_out_of_range(part2d):
    with pytest.raises(ValueError):
        part2d.phi_mask(part2d.q_min - 1)
    with pytest.raises(ValueError):
        part2d.phi_mask(part2d.q_max + 1)


# -- telescoping --------------------------------------------------------------

def test_telescoping_all_subranges(part2d):
    """sum_{q=a}^{b} phi_q = chi_{b+1} - chi_a exactly, every sub-range."""
    qs = range(part2d.q_min, part2d.q_max + 1)
    worst = 0.0
    for a in qs:
        for b in qs:
            if b < a:
                continue
            total = np.zeros(part2d.grid.shape)
            for q in range(a, b + 1):
                total += part2d.phi_mask(q)
            target = part2d.chi_mask(b + 1) - part2d.chi_mask(a)
            worst = max(worst, float(np.max(np.abs(total - target))))
    assert worst <= 1e-14


@pytest.mark.parametrize("part", ["part2d", "part3d"])
def test_block_is_literal_chi_difference(part, request):
    """phi_q is stored as chi_{q+1} - chi_q of the cached low-pass levels,
    bit for bit."""
    part = request.getfixturevalue(part)
    for q in range(part.q_min, part.q_max + 1):
        assert np.array_equal(part.phi_mask(q),
                              part.chi_mask(q + 1) - part.chi_mask(q))


@pytest.mark.parametrize("dim,m", [(2, 64), (3, 16)])
def test_stacks_are_the_profile_and_its_differences(dim, m):
    """chi holds chi_profile(|xi| / 2^q) for q_min - 1 .. q_max + 1 and phi
    the literal differences of its neighbours, bit for bit; chi_mask and
    phi_mask index them and raise just outside their ranges."""
    grid = Grid(dim, m)
    part = build_partition(grid)
    levels = range(part.q_min - 1, part.q_max + 2)
    assert part.chi.shape == (len(levels),) + grid.shape
    assert part.phi.shape == (part.n_blocks,) + grid.shape
    for i, q in enumerate(levels):
        want = chi_profile(grid.k_magnitude / 2.0 ** q)
        assert np.array_equal(part.chi[i], want)
        assert np.array_equal(part.chi_mask(q), want)
    for i, q in enumerate(part.q_range):
        want = (chi_profile(grid.k_magnitude / 2.0 ** (q + 1))
                - chi_profile(grid.k_magnitude / 2.0 ** q))
        assert np.array_equal(part.phi[i], want)
        assert np.array_equal(part.phi_mask(q), want)
    for q in (part.q_min - 2, part.q_max + 2):
        with pytest.raises(ValueError):
            part.chi_mask(q)


def test_partition_of_unity_inside_ball(part2d):
    """Blocks plus the low cap sum to chi_{q_max+1}, which is 1 well inside
    the resolved ball."""
    total = part2d.phi.sum(axis=0) + part2d.chi_mask(part2d.q_min)
    cap = part2d.chi_mask(part2d.q_max + 1)
    assert np.max(np.abs(total - cap)) <= 1e-14
    kmag = part2d.grid.k_magnitude
    inner = kmag <= INNER_RADIUS * 2.0 ** (part2d.q_max + 1)
    assert np.all(cap[inner] == 1.0)


# -- block placement ----------------------------------------------------------

def test_single_block_mode(grid2d, part2d):
    f = single_block_scalar(grid2d)          # |k| = 6 lives in block q = 2
    for q in range(part2d.q_min, part2d.q_max + 1):
        blk = block_project(f, q, part2d)
        if q == 2:
            assert np.max(np.abs(blk.coeffs - f.coeffs)) < 1e-15
        else:
            assert np.max(np.abs(blk.coeffs)) == 0.0


def test_plateau_mode(grid2d, part2d):
    f = plateau_mode_scalar(grid2d)          # |k| = 3 sits on the q = 1 plateau
    blk = block_project(f, 1, part2d)
    assert np.max(np.abs(blk.coeffs - f.coeffs)) < 1e-15


def test_straddling_mode(grid2d, part2d):
    """|k| = 2 splits between q = 0 and q = 1 with weights chi(1), 1 - chi(1)."""
    f = SpectralField.zeros(grid2d, rank=0)
    f.coeffs[2, 0] = 1.0
    f.coeffs[-2, 0] = 1.0
    chi1 = 1.0 / (1.0 + math.exp(-7.0 / 12.0))
    b0 = block_project(f, 0, part2d)
    b1 = block_project(f, 1, part2d)
    assert b0.coeffs[2, 0] == pytest.approx(chi1, rel=1e-14)
    assert b1.coeffs[2, 0] == pytest.approx(1.0 - chi1, rel=1e-14)


def test_mean_mode_outside_all_blocks(grid2d, part2d):
    f = SpectralField.zeros(grid2d, rank=0)
    f.coeffs[0, 0] = 3.0
    for q in range(part2d.q_min, part2d.q_max + 1):
        assert np.max(np.abs(block_project(f, q, part2d).coeffs)) == 0.0
    dec = decompose(f, part2d)
    assert dec.residual_low.coeffs[0, 0] == 3.0


def test_block_projection_linear(grid2d, part2d):
    a = random_scalar(grid2d, seed=101)
    b = random_scalar(grid2d, seed=103)
    lhs = block_project(SpectralField(grid2d, 0, a.coeffs + 2.0 * b.coeffs), 2, part2d)
    rhs = block_project(a, 2, part2d).coeffs + 2.0 * block_project(b, 2, part2d).coeffs
    assert np.max(np.abs(lhs.coeffs - rhs)) < 1e-14


def test_far_blocks_orthogonal(grid2d, part2d):
    """Blocks two or more apart have disjoint spectral support."""
    u = random_scalar(grid2d, seed=107)
    blocks = {q: block_project(u, q, part2d)
              for q in range(part2d.q_min, part2d.q_max + 1)}
    for p in blocks:
        for q in blocks:
            if abs(p - q) >= 2:
                inner = np.sum(blocks[p].coeffs * np.conj(blocks[q].coeffs))
                assert abs(inner) == 0.0


# -- low-pass -----------------------------------------------------------------

def test_low_pass_on_single_mode(grid2d, part2d):
    f = single_block_scalar(grid2d)          # |k| = 6
    s2 = low_pass(f, 2, part2d)              # cut at chi(6/4), 1.5 >= 4/3
    assert np.max(np.abs(s2.coeffs)) == 0.0
    s4 = low_pass(f, 4, part2d)              # chi(6/16) = 1
    assert np.max(np.abs(s4.coeffs - f.coeffs)) == 0.0


def test_low_pass_composition(grid2d, part2d):
    """S_q S_q' = S_min(q, q') for distinct q, q'."""
    u = random_scalar(grid2d, seed=109)
    for qa, qb in [(0, 2), (3, 1), (-1, 4), (5, 2)]:
        lhs = low_pass(low_pass(u, qb, part2d), qa, part2d)
        rhs = low_pass(u, min(qa, qb), part2d)
        scale = max(1.0, float(np.max(np.abs(rhs.coeffs))))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-14 * scale


def test_low_pass_range_errors(grid2d, part2d):
    u = random_scalar(grid2d, seed=113)
    with pytest.raises(ValueError):
        low_pass(u, part2d.q_min - 1, part2d)
    with pytest.raises(ValueError):
        low_pass(u, part2d.q_max + 2, part2d)


# -- decomposition ------------------------------------------------------------

@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_decompose_reconstruct_exact(seed):
    grid = Grid(dim=2, points=32)
    part = build_partition(grid)
    u = random_scalar(grid, seed=seed)
    dec = decompose(u, part)
    back = reconstruct(dec)
    scale = max(1.0, float(np.max(np.abs(u.coeffs))))
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-14 * scale


def test_decompose_reconstruct_3d(grid3d, part3d):
    u = random_scalar(grid3d, seed=127, n_modes=8)
    back = reconstruct(decompose(u, part3d))
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-14


def test_block_l2_norms_match_physical(grid2d, part2d):
    u = random_scalar(grid2d, seed=131)
    norms = block_lp_norms(u, part2d, 2.0)
    for i, q in enumerate(range(part2d.q_min, part2d.q_max + 1)):
        direct = lp_norm(to_physical(block_project(u, q, part2d)), 2.0)
        assert norms[i] == pytest.approx(direct, rel=1e-12, abs=1e-15)


def _random_real_field(grid, rank, seed):
    shape = (grid.dim,) * rank + grid.shape
    vals = np.random.default_rng(seed).normal(size=shape)
    return to_spectral(PhysicalField(grid, rank, vals))


def _full_block_l2(comps, part):
    """The full-layout Parseval reference: components (n_comp, M, ..., M)."""
    return np.sqrt(part.squared_masks @ np.sum(np.abs(comps) ** 2, axis=0).ravel())


def _check_half_parseval(grid):
    part = build_partition(grid)
    for rank in (0, 1, 2):
        u = _random_real_field(grid, rank, seed=grid.points + rank)
        comps = u.flat_components()
        half_power = np.sum(np.abs(comps[grid.half]) ** 2, axis=0).ravel()
        want = _full_block_l2(comps, part)
        for got in (np.sqrt(part.half_squared_masks @ half_power),
                    half_block_l2_norms(comps[grid.half], part),
                    block_lp_norms(u, part, 2.0)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want), rank


@pytest.mark.parametrize("m", [32, 64])
def test_half_squared_masks_match_full(m):
    """Doubling columns 1 .. M/2 - 1 of the half spectrum accounts for the
    conjugate mirrors, including the self-mirrored Nyquist column: the half
    Parseval route gives the full layout's block L^2 norms of real rank 0,
    1 and 2 fields in 2D."""
    _check_half_parseval(Grid(2, m))


def test_half_squared_masks_match_full_3d():
    """As above, for rank 0, 1 and 2 fields in 3D at M = 16."""
    _check_half_parseval(Grid(3, 16))


@pytest.mark.parametrize("dim,m", [(2, 32), (3, 16)])
def test_half_block_l2_norms_batched_rows(dim, m):
    """A (rows, dim, M, ..., M/2 + 1) batch of half spectra, as the Picard
    sweep passes its difference buffer, gives each row's block norms."""
    grid = Grid(dim, m)
    part = build_partition(grid)
    fields = [_random_real_field(grid, 1, seed=s) for s in range(5)]
    batch = np.stack([f.coeffs[grid.half] for f in fields])
    got = half_block_l2_norms(batch, part)
    assert got.shape == (5, part.n_blocks)
    for row, f in zip(got, fields):
        want = _full_block_l2(f.flat_components(), part)
        assert np.max(np.abs(row - want)) <= 1e-13 * np.max(want)


@pytest.mark.parametrize("dim,m", [(2, 32), (2, 64), (3, 16)])
def test_half_mask_bands_bound_the_support(dim, m):
    """Each block's band is the smallest box |k_i| <= c holding its mask."""
    grid = Grid(dim, m)
    part = build_partition(grid)
    n = np.abs(grid.int_freqs)
    box = np.max(np.stack(np.meshgrid(*[n] * dim, indexing="ij")), axis=0)
    for q, band in zip(part.q_range, part.half_mask_bands):
        support = part.phi_mask(q) != 0
        assert not np.any(support & (box > band))
        assert np.any(support & (box == band))


def test_bernstein_bounds(grid2d, part2d):
    """Gradient of a block lives between the annulus radii times 2^q."""
    for seed in (137, 139, 149):
        u = random_scalar(grid2d, seed=seed)
        for q in range(part2d.q_min, part2d.q_max + 1):
            blk = block_project(u, q, part2d)
            nrm = np.sqrt(np.sum(np.abs(blk.coeffs) ** 2))
            if nrm < 1e-12:
                continue
            gnrm = np.sqrt(np.sum(np.abs(gradient(blk).coeffs) ** 2))
            ratio = gnrm / nrm
            lo = INNER_RADIUS * 2.0 ** q
            hi = OUTER_RADIUS * 2.0 ** q
            assert lo * (1 - 1e-12) <= ratio <= hi * (1 + 1e-12)


# -- grid guards --------------------------------------------------------------

def test_partition_grid_guard(grid2d_small, part2d):
    u = random_scalar(grid2d_small, seed=151)
    with pytest.raises(Exception):
        block_project(u, 1, part2d)


# -- csv dump -----------------------------------------------------------------

def test_dump_partition_csv(tmp_path, part2d):
    path = tmp_path / "partition.csv"
    dump_partition_csv(part2d, path, n_samples=128)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["q", "xi_magnitude", "phi_q"]
    body = rows[1:]
    assert len(body) == 128 * part2d.n_blocks
    qs = sorted({int(r[0]) for r in body})
    assert qs == list(range(part2d.q_min, part2d.q_max + 1))
    vals = np.array([float(r[2]) for r in body])
    assert np.all((0.0 <= vals) & (vals <= 1.0))
