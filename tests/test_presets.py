"""The random-mode generator behind the random-band preset and the tests'
random fields."""
import numpy as np
import pytest

from blcsim.presets import random_modes
from blcsim.spectral import Grid, dealias, place_mode
from conftest import make_rng


def _band_draw(grid, rng, k_max, n_modes, rank):
    """The random-band preset's draw as it was first written: per component,
    rejection-sample distinct wavevectors in 1 <= |k| <= k_max from the box,
    then one phase per mode."""
    coeffs = np.zeros((grid.dim,) * rank + grid.shape, dtype=np.complex128)
    for comp in coeffs.reshape((-1,) + grid.shape):
        modes = []
        while len(modes) < n_modes:
            k = tuple(int(rng.integers(-k_max, k_max + 1)) for _ in range(grid.dim))
            if 1.0 <= np.sqrt(sum(c * c for c in k)) <= k_max and k not in modes:
                modes.append(k)
        for k in modes:
            place_mode(comp, grid, k, np.exp(2j * np.pi * rng.random()))
    return coeffs


@pytest.mark.parametrize("dim, m, rank", [(2, 16, 0), (2, 32, 1), (3, 16, 1)])
def test_random_modes_is_the_band_draw(dim, m, rank):
    """Bit for bit the draw the random-band preset and its benchmark
    references were made with, and the generator leaves rng where it did."""
    grid = Grid(dim, m)
    for seed in range(5):
        rng_a, rng_b = make_rng(seed), make_rng(seed)
        got = random_modes(grid, rng_a, 8, 4, rank)
        assert got.rank == rank
        assert np.array_equal(got.coeffs, _band_draw(grid, rng_b, 4, 8, rank))
        assert rng_a.random() == rng_b.random()


def test_random_modes_properties(grid2d):
    k_max = grid2d.points // 4
    f = random_modes(grid2d, make_rng(7), 20, k_max)
    assert f.rank == 0
    assert f.is_real_consistent()
    assert f.coeffs[0, 0] == 0.0
    assert np.array_equal(dealias(f).coeffs, f.coeffs)
    support = np.abs(f.coeffs) > 0
    assert np.all(grid2d.k_magnitude[support] <= k_max)
    # 20 distinct wavevectors: up to 40 entries with their conjugates
    assert 20 <= np.count_nonzero(support) <= 40


def test_random_modes_rejects_a_short_ball():
    """A ball with fewer wavevectors than asked is refused, not looped on or
    returned short: 0 < |k| <= 2 holds 12 in 2D."""
    grid = Grid(2, 16)
    with pytest.raises(ValueError, match="k_max must be at least 1"):
        random_modes(grid, make_rng(7), 1, 0)
    with pytest.raises(ValueError, match="holds 12 wavevectors, 13 asked"):
        random_modes(grid, make_rng(7), 13, 2)
    full = random_modes(grid, make_rng(7), 12, 2)
    assert np.count_nonzero(full.coeffs) == 12
