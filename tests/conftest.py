"""Shared fixtures: grids, partitions, and random field factories."""
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from blcsim.dyadic import build_partition
from blcsim.presets import random_modes
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


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """The module of scripts/<name>.py, loaded without running its main."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_rng(seed):
    return np.random.default_rng(seed)


def draw_scalar(grid, rng, n_modes=20, k_max=None):
    """random_modes scalar from rng: n_modes unit modes with 0 < |k| <= k_max,
    M/4 by default, so the field is dealiased."""
    return random_modes(grid, rng, n_modes, k_max or grid.points // 4)


def random_scalar(grid, seed, n_modes=20):
    return draw_scalar(grid, make_rng(seed), n_modes)


def random_vector(grid, seed, n_modes=20, solenoidal=False):
    """Random dealiased rank-1 field; optionally Leray projected."""
    f = random_modes(grid, make_rng(seed), n_modes, grid.points // 4, rank=1)
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
