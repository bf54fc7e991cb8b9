"""Structural invariants of the PDE, checked on whole runs.

Critical scaling. If (u, tau) solves the system, so does
(l u(l x, l^2 t), tau(l x, l^2 t)) with mu unchanged. On the torus l = 2
is exact in the discrete scheme: tiling the prepared data's physical
values from M to 2M points sends mode k to 2k, and a run of the lift with
dt/4 to T/4 sees the same dealias band, heat factors (|2k|^2 dt/4 =
|k|^2 dt) and partition (block q maps to block q + 1; the fine grid's
first block stays empty). So crit1 and crit2 are invariant, and crit3 and
E scale by 2^(N/2), because the torus's L^2 norm is an average over a
fixed volume. The check runs the criterion exponents, the critical
weights and the time quadrature together, to roundoff.

The 2D director is an angle. For d = sin(theta) e1 + cos(theta) dbar the
director equation is theta_t + u.grad theta = Lap theta, a transported
heat equation, so max theta cannot rise and min theta cannot fall.
"""
import math

import numpy as np
import pytest

from blcsim.presets import build_preset
from blcsim.solver import SolverConfig, State, prepare_initial, solve, stable_dt
from blcsim.spectral import Grid, PhysicalField, to_physical, to_spectral


def _tile(values: np.ndarray, dim: int) -> np.ndarray:
    """Physical values on M points per axis, repeated twice along each
    axis: f(2x) on 2M points."""
    return np.tile(values, (1,) + (2,) * dim)


def _lift(state: State) -> State:
    """The state on the grid of 2M points: u -> 2 u(2x), tau -> tau(2x)."""
    dim = state.grid.dim
    fine = Grid(dim, 2 * state.grid.points)

    def lifted(f, factor):
        values = factor * _tile(to_physical(f).values, dim)
        return to_spectral(PhysicalField(fine, 1, values))
    return State(lifted(state.u, 2.0), lifted(state.tau, 1.0), state.t,
                 state.dbar)


def _scaled_runs(preset, dim, points, eps, t_end, stride, **settings):
    """Solve the prepared preset data on M points to T, and its lift on 2M
    points to T/4, each with one explicit dt below both grids' stability
    rule (dt/4 on the fine grid) and one report stride; returns both
    (trajectory, report) pairs, coarse first."""
    u0, tau0, dbar = build_preset(preset, Grid(dim, points), eps)
    coarse = prepare_initial(u0, tau0, dbar)
    fine = _lift(coarse)
    n_steps = math.ceil(t_end / min(stable_dt(coarse), 4.0 * stable_dt(fine)))
    return [solve(state.u, state.tau, dbar,
                  SolverConfig(t_end=scale * t_end, dt=scale * t_end / n_steps,
                               report_stride=stride, **settings))
            for state, scale in ((coarse, 1.0), (fine, 0.25))]


def _assert_scaled(coarse, fine, dim):
    """Every recorded row of the fine run is the coarse run's, rescaled:
    times / 4, crit1 and crit2 equal, crit3 and E times 2^(N/2), all to
    1e-13; and the final u is 2 u(2x)."""
    (traj_c, rep_c), (traj_f, rep_f) = coarse, fine
    assert traj_f.steps == traj_c.steps
    assert np.array_equal(traj_f.times, traj_c.times / 4.0)
    ratio = 2.0 ** (dim / 2.0)
    expected = {"crit1": (rep_f.crit[0], rep_c.crit[0]),
                "crit2": (rep_f.crit[1], rep_c.crit[1]),
                "crit3": (rep_f.crit[2], ratio * rep_c.crit[2]),
                "E": (traj_f.e, ratio * traj_c.e)}
    for name, (got, want) in expected.items():
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=name)
    u_c = to_physical(traj_c.states[-1].u).values
    u_f = to_physical(traj_f.states[-1].u).values
    want = 2.0 * _tile(u_c, dim)
    assert np.max(np.abs(u_f - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("preset, dim, points, eps, t_end, stride", [
    ("random-band", 2, 32, 1.0, 0.2, 16),
    ("random-band", 3, 16, 0.5, 0.05, 2),
    pytest.param("taylor-green", 2, 64, 2.0, 0.1, 64, marks=pytest.mark.slow),
])
def test_whole_run_critical_scaling(preset, dim, points, eps, t_end, stride):
    coarse, fine = _scaled_runs(preset, dim, points, eps, t_end, stride)
    _assert_scaled(coarse, fine, dim)


def test_whole_run_critical_scaling_picard():
    """The Picard sweep rescales too. Its distances scale like E, so the
    tolerance sits where both runs make the same sweeps; both converge with
    an error estimate past it and refine to the same grid."""
    coarse, fine = _scaled_runs("random-band", 2, 32, 1.0, 0.05, 4,
                                mode="picard", picard_tol=1e-9)
    pic_c, pic_f = coarse[1].picard, fine[1].picard
    assert pic_f.grids == pic_c.grids and len(pic_c.grids) == 2
    assert len(pic_f.diffs) == len(pic_c.diffs)
    assert pic_c.converged and pic_f.converged
    _assert_scaled(coarse, fine, 2)


@pytest.mark.parametrize("preset, points, eps", [
    ("random-band", 32, 0.3),
    pytest.param("random-band", 64, 1.0, marks=pytest.mark.slow),
    pytest.param("random-band", 64, 2.5, marks=pytest.mark.slow),
    pytest.param("taylor-green", 64, 2.0, marks=pytest.mark.slow),
])
def test_2d_angle_maximum_principle(preset, points, eps):
    """theta = atan2(d_1, d_2) on every recorded row: max theta does not
    rise and min theta does not fall."""
    u0, tau0, dbar = build_preset(preset, Grid(2, points), eps, seed=1)
    traj, _ = solve(u0, tau0, dbar, SolverConfig(t_end=0.3))
    theta = [np.arctan2(*state.director().values) for state in traj.states]
    assert len(theta) > 100
    assert np.all(np.diff([np.max(th) for th in theta]) <= 0.0)
    assert np.all(np.diff([np.min(th) for th in theta]) >= 0.0)
