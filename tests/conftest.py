"""Shared fixtures: grids, partitions, and random field factories."""
import math
import sys

import numpy as np
import pytest

from blcsim.dyadic import build_partition
from blcsim.paraproduct import random_trig_field
from blcsim.spectral import Grid, SpectralField, leray_project


@pytest.fixture(scope="session")
def grid2d():
    return Grid(dim=2, points=64)


@pytest.fixture(scope="session")
def grid2d_small():
    return Grid(dim=2, points=32)


@pytest.fixture(scope="session")
def grid3d():
    return Grid(dim=3, points=16)


@pytest.fixture(scope="session")
def grid3d_mid():
    return Grid(dim=3, points=32)


@pytest.fixture(scope="session")
def part2d(grid2d):
    return build_partition(grid2d)


@pytest.fixture(scope="session")
def part2d_small(grid2d_small):
    return build_partition(grid2d_small)


@pytest.fixture(scope="session")
def part3d(grid3d):
    return build_partition(grid3d)


def make_rng(seed):
    return np.random.default_rng(seed)


def random_scalar(grid, seed, n_modes=20):
    return random_trig_field(grid, make_rng(seed), n_modes=n_modes)


def random_vector(grid, seed, n_modes=20, solenoidal=False):
    """Random dealiased rank-1 field; optionally Leray projected."""
    rng = make_rng(seed)
    comps = [random_trig_field(grid, rng, n_modes=n_modes).coeffs
             for _ in range(grid.dim)]
    f = SpectralField(grid, 1, np.stack(comps, axis=0))
    return leray_project(f) if solenoidal else f


def single_block_scalar(grid, amplitude=1.0):
    """amplitude * cos(6 x1): lands exactly on the q=2 block."""
    f = SpectralField.zeros(grid, rank=0)
    f.coeffs[(6,) + (0,) * (grid.dim - 1)] = amplitude / 2
    f.coeffs[(-6,) + (0,) * (grid.dim - 1)] = amplitude / 2
    return f


def plateau_mode_scalar(grid, amplitude=1.0):
    """amplitude * cos(3 x1): |k| = 3 sits on the q=1 plateau."""
    f = SpectralField.zeros(grid, rank=0)
    f.coeffs[(3,) + (0,) * (grid.dim - 1)] = amplitude / 2
    f.coeffs[(-3,) + (0,) * (grid.dim - 1)] = amplitude / 2
    return f


def windowed_chemin_lerner_norms(values, qs, times, idx):
    """Reference for the running block-then-time norm: for each sample j,
    integrate afresh over [times[0], times[j]] (np.trapezoid; max for
    rho = inf), then take l^r over the blocks of 2^(q s) times it."""
    w = 2.0 ** (idx.space.s * np.asarray(qs))
    out = np.zeros(times.size)
    for j in range(times.size):
        window = values[:, :j + 1]
        if idx.rho == math.inf:
            per_block = np.max(window, axis=1)
        else:
            per_block = np.trapezoid(window ** idx.rho, times[:j + 1],
                                     axis=1) ** (1.0 / idx.rho)
        weighted = w * per_block
        if idx.space.r == math.inf:
            out[j] = np.max(weighted)
        else:
            out[j] = np.sum(weighted ** idx.space.r) ** (1.0 / idx.space.r)
    return out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion lines past pytest's output capture."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
