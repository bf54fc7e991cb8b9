"""Time stepping, Duhamel quadrature, Picard iteration, and state IO tests."""
import math

import numpy as np
import pytest

from blcsim.dyadic import build_partition
from blcsim.norms import (INF, BesovIndex, CheminLernerIndex, besov_norm,
                          block_lp_norms, build_block_norm_series,
                          chemin_lerner_norm)
from blcsim.presets import build_preset, default_dbar
from blcsim.solver import (
    PicardResult, SolverConfig, State, Trajectory, duhamel_integral,
    heat_propagate, nonlinear_rhs, picard_iterate, prepare_initial,
    save_state, load_state, solve, stable_dt, step_direct,
)
from blcsim.spectral import (
    BlowUpError, Grid, PhysicalField, SpectralField, dealias, divergence,
    grad_outer, gradient, leray_project, to_physical, to_spectral,
)
from blcsim.monitor import critical_indices, state_energy
from conftest import random_scalar, random_vector, single_block_scalar


def _mode_vector(grid, k, component=0, amplitude=1.0):
    f = SpectralField.zeros(grid, rank=1)
    f.coeffs[(component,) + k] = amplitude / 2
    f.coeffs[(component,) + tuple(-np.array(k))] = amplitude / 2
    return f


# -- heat propagator ------------------------------------------------------------

def test_heat_plane_wave(grid2d):
    f = _mode_vector(grid2d, (6, 0))
    g = heat_propagate(f, 1.0, 0.1)
    factor = math.exp(-36.0 * 0.1)
    assert g.coeffs[0, 6, 0] == pytest.approx(0.5 * factor, rel=1e-12)
    assert g.coeffs[0, -6, 0] == pytest.approx(0.5 * factor, rel=1e-12)


def test_heat_zero_time_identity(grid2d):
    f = random_vector(grid2d, seed=401)
    g = heat_propagate(f, 1.0, 0.0)
    assert np.array_equal(g.coeffs, f.coeffs)


def test_heat_composition(grid2d):
    f = random_vector(grid2d, seed=403)
    one = heat_propagate(f, 0.7, 0.3)
    two = heat_propagate(heat_propagate(f, 0.7, 0.1), 0.7, 0.2)
    scale = max(1.0, float(np.max(np.abs(one.coeffs))))
    assert np.max(np.abs(one.coeffs - two.coeffs)) < 1e-13 * scale


def test_heat_argument_validation(grid2d):
    f = random_vector(grid2d, seed=405)
    with pytest.raises(ValueError):
        heat_propagate(f, 1.0, -0.1)
    with pytest.raises(ValueError):
        heat_propagate(f, -1.0, 0.1)


def test_heat_block_decay_bound(grid2d, part2d):
    """Each block decays at least as fast as its inner radius dictates."""
    from blcsim.dyadic import block_l2_norms
    rng_seeds = (407, 409, 419)
    a, t = 0.8, 0.05
    for seed in rng_seeds:
        u = random_scalar(grid2d, seed=seed)
        before = block_l2_norms(u, part2d)
        after = block_l2_norms(heat_propagate(u, a, t), part2d)
        for i, q in enumerate(range(part2d.q_min, part2d.q_max + 1)):
            if before[i] < 1e-14:
                continue
            bound = math.exp(-a * (0.75 * 2.0 ** q) ** 2 * t) * before[i]
            assert after[i] <= bound * (1.0 + 1e-12)


# -- nonlinear right-hand sides ---------------------------------------------------

def test_rhs_shear_flow_vanishes(grid2d):
    """u = (sin x2, 0) advects nothing and feels no director stress."""
    x = grid2d.coordinates()
    u = to_spectral(PhysicalField(grid2d, 1, np.stack(
        [np.sin(x[1]), np.zeros(grid2d.shape)])))
    tau = SpectralField.zeros(grid2d, rank=1)
    st = State(u, tau, 0.0, default_dbar(2))
    fu, ft = nonlinear_rhs(st)
    assert np.max(np.abs(fu.coeffs)) < 1e-14
    assert np.max(np.abs(ft.coeffs)) < 1e-14


def test_rhs_director_closed_form(grid2d):
    """tau = eps cos(x1) e1 with dbar = e2 gives
    |grad tau|^2 (tau + dbar) = eps^2 sin^2(x1) (eps cos(x1) e1 + e2)."""
    eps = 0.1
    x = grid2d.coordinates()
    tau = to_spectral(PhysicalField(grid2d, 1, np.stack(
        [eps * np.cos(x[0]), np.zeros(grid2d.shape)])))
    u = SpectralField.zeros(grid2d, rank=1)
    st = State(u, tau, 0.0, np.array([0.0, 1.0]))
    ft = to_physical(nonlinear_rhs(st)[1])
    sin2 = np.sin(x[0]) ** 2
    expected0 = eps ** 2 * sin2 * (eps * np.cos(x[0]))
    expected1 = eps ** 2 * sin2
    assert np.max(np.abs(ft.values[0] - expected0)) < 1e-13
    assert np.max(np.abs(ft.values[1] - expected1)) < 1e-13


def test_rhs_constant_tau_vanishes(grid2d):
    tau = SpectralField.zeros(grid2d, rank=1)
    tau.coeffs[0, 0, 0] = 0.05     # spatially constant deviation
    u = SpectralField.zeros(grid2d, rank=1)
    st = State(u, tau, 0.0, default_dbar(2))
    fu, ft = nonlinear_rhs(st)
    assert np.max(np.abs(ft.coeffs)) == 0.0
    assert np.max(np.abs(fu.coeffs)) == 0.0


def test_rhs_velocity_is_solenoidal(grid2d):
    u0, tau0, dbar = build_preset("random-band", grid2d, eps=0.5, seed=2)
    st = prepare_initial(u0, tau0, dbar)
    fu, _ = nonlinear_rhs(st)
    scale = max(1.0, float(np.max(np.abs(fu.coeffs))))
    assert np.max(np.abs(divergence(fu).coeffs)) < 1e-12 * scale


def test_rhs_3d_runs(grid3d):
    u0, tau0, dbar = build_preset("taylor-green", grid3d, eps=0.3)
    st = prepare_initial(u0, tau0, dbar)
    fu, ft = nonlinear_rhs(st)
    assert fu.is_real_consistent(1e-10)
    assert ft.is_real_consistent(1e-10)


def _advective_rhs(state):
    """Both nonlinear terms in advective form, from the public operators."""
    grid = state.grid

    def spec(vals, rank):
        return dealias(to_spectral(PhysicalField(grid, rank, vals)))

    u_p = to_physical(state.u).values
    tau_p = to_physical(state.tau).values
    gu_p = to_physical(gradient(state.u)).values     # [i, j] = d_i u_j
    gt_p = to_physical(gradient(state.tau)).values   # [i, k] = d_i tau_k
    adv_u = spec(np.einsum("i...,ij...->j...", u_p, gu_p), 1)
    fu = -1.0 * leray_project(adv_u + divergence(grad_outer(state.tau)))
    adv_tau = spec(np.einsum("i...,ik...->k...", u_p, gt_p), 1)
    grad_sq = spec(np.einsum("ik...,ik...->...", gt_p, gt_p), 0)
    cubic = spec(to_physical(grad_sq).values[None] * tau_p, 1)
    along_dbar = grad_sq.coeffs[None] * state.dbar.reshape((grid.dim,) + (1,) * grid.dim)
    ft = SpectralField(grid, 1, cubic.coeffs - adv_tau.coeffs + along_dbar)
    return fu, ft


@pytest.mark.parametrize("grid_name", ["grid2d_small", "grid3d"])
def test_rhs_matches_advective_oracle(grid_name, request):
    """The divergence-form momentum term equals u.grad u on solenoidal,
    dealiased data (2D M = 32, 3D M = 16)."""
    grid = request.getfixturevalue(grid_name)
    u0, tau0, dbar = build_preset("random-band", grid, eps=0.5, seed=5)
    st = prepare_initial(u0, tau0, dbar)
    got = nonlinear_rhs(st)
    want = _advective_rhs(st)
    for g, w in zip(got, want):
        scale = float(np.max(np.abs(w.coeffs)))
        assert scale > 0.0
        assert np.max(np.abs(g.coeffs - w.coeffs)) < 1e-12 * scale


@pytest.mark.parametrize("grid_name,forward,inverse",
                         [("grid2d_small", 6, 9), ("grid3d", 10, 16)])
def test_rhs_transform_counts(grid_name, forward, inverse, request,
                              monkeypatch):
    """One _nonlinear_rhs call transforms N(N+1)/2 + N + 1 fields forward
    (the symmetric tensor, the director force and |grad tau|^2) and
    2N + N^2 + 1 back (u, tau, grad tau and the dealiased |grad tau|^2)."""
    from blcsim.solver import _half_pair, _nonlinear_rhs
    from blcsim.spectral import Workspace
    grid = request.getfixturevalue(grid_name)
    st = prepare_initial(*build_preset("random-band", grid, eps=0.3, seed=1))
    fields = {"band_rfft": 0, "band_irfft": 0}
    for name in fields:
        def counted(self, batch, c, out, _name=name,
                    _real=getattr(Workspace, name)):
            fields[_name] += batch.shape[0]
            return _real(self, batch, c, out)
        monkeypatch.setattr(Workspace, name, counted)
    _nonlinear_rhs(_half_pair(st), st.dbar, grid)
    assert (fields["band_rfft"], fields["band_irfft"]) == (forward, inverse)


def test_rhs_results_do_not_alias_the_workspace(grid3d):
    """_nonlinear_rhs works in the grid's shared buffers but returns fresh
    arrays: a second call leaves the first results as they were."""
    from blcsim.solver import _half_pair, _nonlinear_rhs
    first_st = prepare_initial(*build_preset("random-band", grid3d, eps=0.5, seed=3))
    second_st = prepare_initial(*build_preset("taylor-green", grid3d, eps=0.3))
    first = _nonlinear_rhs(_half_pair(first_st), first_st.dbar, grid3d)
    kept = [a.copy() for a in first]
    second = _nonlinear_rhs(_half_pair(second_st), second_st.dbar, grid3d)
    ws = grid3d.workspace
    for got, want, other in zip(first, kept, second):
        assert np.array_equal(got, want)
        assert not np.array_equal(got, other)
        for buf in (ws.spec, ws.phys, ws.prod, other):
            assert not np.shares_memory(got, buf)


def test_rhs_transform_temporaries_stay_below_one_batch(grid3d):
    """After a warm-up call, a 3D M = 16 _nonlinear_rhs call allocates, apart
    from its result, less than one 2N + N^2 half-spectrum batch (the
    transform input of one RHS): the transforms run in the workspace. The
    batched irfftn/rfftn this replaced took it past four batches."""
    import tracemalloc
    from blcsim.solver import _half_pair, _nonlinear_rhs
    st = prepare_initial(*build_preset("random-band", grid3d, eps=0.3, seed=1))
    y = _half_pair(st)
    _nonlinear_rhs(y, st.dbar, grid3d)
    batch = (2 * 3 + 3 * 3) * y[0, 0].nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = _nonlinear_rhs(y, st.dbar, grid3d)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - res.nbytes < batch


def test_step_allocates_no_transform_temporaries(grid3d):
    """After a warm-up step, a 3D M = 16 IF-RK4 step peaks below three
    2N + N^2 half-spectrum batches (the transform input of one RHS). What
    it must keep (the stage results and the combine) is about two of them;
    the batched irfftn/rfftn temporaries this replaced took the peak past
    six."""
    import tracemalloc
    from blcsim.solver import _half_pair, _make_factors, _step_core
    st = prepare_initial(*build_preset("random-band", grid3d, eps=0.3, seed=1))
    factors = _make_factors(grid3d, 1.0, 1e-3)

    def step(y):
        return _step_core(y, st.dbar, grid3d, factors, False)

    y = step(_half_pair(st))
    half_field = np.empty(grid3d.shape[:-1] + (9,), dtype=np.complex128).nbytes
    batch = (2 * 3 + 3 * 3) * half_field
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        y = step(y)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * batch


# -- stepping ------------------------------------------------------------------

def test_stable_dt_zero_state(grid2d):
    z = SpectralField.zeros(grid2d, rank=1)
    st = State(z, z.copy(), 0.0, default_dbar(2))
    expected = 0.25 / grid2d.dealias_cutoff ** 2
    assert stable_dt(st) == pytest.approx(expected)


def test_stable_dt_shrinks_with_amplitude(grid2d):
    u1, tau1, dbar = build_preset("taylor-green", grid2d, eps=0.1)
    u2, tau2, _ = build_preset("taylor-green", grid2d, eps=10.0)
    s1 = State(u1, tau1, 0.0, dbar)
    s2 = State(u2, tau2, 0.0, dbar)
    assert stable_dt(s2) < stable_dt(s1)


def test_step_zero_state_fixed(grid2d):
    z = SpectralField.zeros(grid2d, rank=1)
    st = State(z, z.copy(), 0.0, default_dbar(2))
    cfg = SolverConfig(t_end=1.0)
    out = step_direct(st, cfg, 1e-3)
    assert np.max(np.abs(out.u.coeffs)) == 0.0
    assert np.max(np.abs(out.tau.coeffs)) == 0.0
    assert out.t == pytest.approx(1e-3)


def test_step_pure_heat_limit(grid2d, monkeypatch):
    """With the nonlinear terms forced to zero the step is the exact
    semigroup (with the velocity re-projection a no-op)."""
    import blcsim.solver as solver_mod
    u = leray_project(random_vector(grid2d, seed=421))
    tau = random_vector(grid2d, seed=431)
    st = State(u, tau, 0.0, default_dbar(2))
    cfg = SolverConfig(t_end=1.0, mu=0.7)

    def zero_rhs(y, dbar, grid):
        return np.zeros_like(y)

    monkeypatch.setattr(solver_mod, "_nonlinear_rhs", zero_rhs)
    out = step_direct(st, cfg, 0.01)
    eu = heat_propagate(u, 0.7, 0.01)
    et = heat_propagate(tau, 1.0, 0.01)
    assert np.max(np.abs(out.u.coeffs - eu.coeffs)) < 1e-14
    assert np.max(np.abs(out.tau.coeffs - et.coeffs)) < 1e-14


def test_step_rejects_bad_dt(grid2d):
    z = SpectralField.zeros(grid2d, rank=1)
    st = State(z, z.copy(), 0.0, default_dbar(2))
    with pytest.raises(ValueError):
        step_direct(st, SolverConfig(), 0.0)


def test_state_validation(grid2d):
    z = SpectralField.zeros(grid2d, rank=1)
    with pytest.raises(ValueError):
        State(z, z.copy(), 0.0, np.array([1.0, 1.0]))     # not unit
    with pytest.raises(ValueError):
        State(z, z.copy(), 0.0, np.array([1.0, 0.0, 0.0]))  # wrong length
    s = SpectralField.zeros(grid2d, rank=0)
    with pytest.raises(ValueError):
        State(z, s, 0.0, np.array([0.0, 1.0]))            # rank mismatch


# -- Duhamel quadrature -----------------------------------------------------------

def test_duhamel_zero_forcing(grid2d):
    z = SpectralField.zeros(grid2d, rank=1)
    times = np.linspace(0.0, 1.0, 11)
    out = duhamel_integral([z] * 11, times, 1.0)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_duhamel_validation(grid2d):
    z = SpectralField.zeros(grid2d, rank=1)
    with pytest.raises(ValueError):
        duhamel_integral([], [], 1.0)
    with pytest.raises(ValueError):
        duhamel_integral([z, z], [0.0], 1.0)
    with pytest.raises(ValueError):
        duhamel_integral([z, z], [0.5, 0.5], 1.0)


def test_duhamel_constant_forcing_closed_form(grid2d):
    """For constant G the integral is (1 - exp(-coef k^2 T)) / (coef k^2) G."""
    from blcsim.paraproduct import random_trig_field
    rng = np.random.default_rng(433)
    comps = [random_trig_field(grid2d, rng, n_modes=8, k_max=4).coeffs
             for _ in range(2)]
    g = SpectralField(grid2d, 1, np.stack(comps))
    T, coef, n = 0.5, 0.8, 1001
    times = np.linspace(0.0, T, n)
    out = duhamel_integral([g] * n, times, coef)
    k2 = grid2d.k_squared
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(k2 > 0, (1.0 - np.exp(-coef * k2 * T)) / (coef * k2), T)
    expected = g.coeffs * factor
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(out.coeffs - expected)) < 1e-6 * scale


def test_duhamel_matches_forced_step(grid2d, monkeypatch):
    """Low-mode constant forcing: the trapezoid integral agrees with the
    RK4 stepper on the same linear problem."""
    import blcsim.solver as solver_mod
    rng = np.random.default_rng(15)
    g = SpectralField.zeros(grid2d, rank=1)
    for k in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        amp = rng.normal() * 0.5
        for c in range(2):
            g.coeffs[(c,) + k] = amp / 2
            g.coeffs[(c,) + tuple(-np.array(k))] = amp / 2
    mu, T, dt = 0.9, 0.5, 1e-3
    n = round(T / dt)

    def rhs(y, dbar, grid):
        return np.stack([g.coeffs[grid.half], np.zeros_like(y[1])])

    monkeypatch.setattr(solver_mod, "_nonlinear_rhs", rhs)
    z = SpectralField.zeros(grid2d, rank=1)
    st = State(z, z.copy(), 0.0, default_dbar(2))
    cfg = SolverConfig(t_end=T, mu=mu)
    for _ in range(n):
        st = step_direct(st, cfg, dt)
    # stepping projects u each step; compare against the projected forcing
    times = np.linspace(0.0, T, n + 1)
    proj = leray_project(g)
    integral = duhamel_integral([proj] * (n + 1), times, mu)
    scale = max(1.0, float(np.max(np.abs(integral.coeffs))))
    assert np.max(np.abs(st.u.coeffs - integral.coeffs)) < 1e-6 * scale


@pytest.mark.parametrize("key, value", [
    ("mode", "nope"), ("t_end", 0.0), ("t_end", float("nan")), ("dt", -0.1),
    ("t_end", float("inf")), ("mu", -1.0), ("mu", float("nan")),
    ("mu", float("inf")), ("report_stride", 0),
    ("report_stride", 2.5), ("blowup_factor", 0.0), ("picard_max_iter", 0),
    ("picard_max_iter", -3), ("picard_tol", -1.0), ("picard_tol", float("nan")),
])
def test_solver_config_rejects_bad_values(key, value):
    with pytest.raises(ValueError, match=key):
        SolverConfig(**{key: value})


# -- direct solve ----------------------------------------------------------------

def test_solve_divergence_and_times(grid2d):
    u0, tau0, dbar = build_preset("taylor-green", grid2d, eps=0.3)
    cfg = SolverConfig(t_end=0.05)
    traj, report = solve(u0, tau0, dbar, cfg)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.05)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.blowup is None
    for st in traj.states:
        assert st.max_divergence() < 1e-11


def test_recorded_l2_rows_are_the_block_norms(grid2d_small):
    """Direct mode hands the E check's L^2 rows to the recorder."""
    u0, tau0, dbar = build_preset("random-band", grid2d_small, eps=0.3, seed=2)
    traj, _ = solve(u0, tau0, dbar, SolverConfig(t_end=0.02))
    part = traj.part
    for j, st in enumerate(traj.states):
        assert np.array_equal(traj.u_l2[:, j], block_lp_norms(st.u, part, 2.0))
        assert np.array_equal(traj.tau_l2[:, j], block_lp_norms(st.tau, part, 2.0))
        assert np.array_equal(traj.u_linf[:, j], block_lp_norms(st.u, part, INF))


@pytest.mark.parametrize("mode", ["direct", "picard"])
def test_solve_expands_only_recorded_rows(mode, monkeypatch):
    """The solve loops stay on the half spectrum: each recorded row after
    the data costs one expansion per field, the data's row none, and no
    block norm goes through the full-layout Parseval matrix."""
    import blcsim.solver as solver_mod
    calls = []
    real_expand = solver_mod.hermitian_expand

    def counting_expand(*args, **kwargs):
        calls.append(1)
        return real_expand(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "hermitian_expand", counting_expand)
    grid = Grid(2, 32)
    part = build_partition(grid)
    u0, tau0, dbar = build_preset("random-band", grid, eps=0.3, seed=2)
    cfg = SolverConfig(t_end=0.02, mode=mode, report_stride=3)
    traj, _ = solve(u0, tau0, dbar, cfg, part=part)
    assert 2 < len(traj.times) < round(0.02 / traj.dt) + 1
    assert len(calls) == 2 * (len(traj.times) - 1)
    assert "squared_masks" not in part.__dict__


@pytest.mark.parametrize("renormalize", [False, True])
def test_step_direct_iterates_to_solve(renormalize):
    """step_direct and the direct solve loop are one stepper: iterated from
    the prepared data at the solve's dt, step_direct ends bitwise on the
    solve's last recorded state."""
    from blcsim.solver import _time_grid
    grid = Grid(2, 32)
    u0, tau0, dbar = build_preset("random-band", grid, eps=0.3, seed=1)
    cfg = SolverConfig(t_end=0.02, report_stride=3,
                       renormalize_director=renormalize)
    traj, _ = solve(u0, tau0, dbar, cfg)
    st = prepare_initial(u0, tau0, dbar)
    dt, n_steps = _time_grid(st, cfg)
    for _ in range(n_steps):
        st = step_direct(st, cfg, dt)
    last = traj.states[-1]
    assert np.array_equal(st.u.coeffs, last.u.coeffs)
    assert np.array_equal(st.tau.coeffs, last.tau.coeffs)
    assert st.t == last.t


@pytest.mark.parametrize("seed", [0, 1])
def test_renormalize_director_lowers_drift(seed):
    """Putting d back on the unit sphere every step leaves less final drift
    |d| - 1 on random-band data than the plain scheme."""
    from blcsim.monitor import state_drift
    grid = Grid(2, 32)
    u0, tau0, dbar = build_preset("random-band", grid, eps=0.3, seed=seed)
    drift = {}
    for renormalize in (False, True):
        cfg = SolverConfig(t_end=0.02, renormalize_director=renormalize)
        traj, _ = solve(u0, tau0, dbar, cfg)
        drift[renormalize] = state_drift(traj.states[-1])
    assert 0.0 < drift[True] < drift[False]


def test_solve_energy_inequality(grid2d_small):
    u0, tau0, dbar = build_preset("taylor-green", grid2d_small, eps=0.5)
    cfg = SolverConfig(t_end=0.2)
    traj, _ = solve(u0, tau0, dbar, cfg)
    e0 = state_energy(traj.states[0])
    e1 = state_energy(traj.states[-1])
    assert e1 <= e0 * (1.0 + 1e-10)


def test_solve_honors_explicit_dt(grid2d_small):
    u0, tau0, dbar = build_preset("single-mode", grid2d_small, eps=1e-3)
    cfg = SolverConfig(t_end=0.01, dt=1e-3)
    traj, _ = solve(u0, tau0, dbar, cfg)
    assert traj.dt == pytest.approx(1e-3)


def test_solve_blowup_detection(grid2d_small):
    """A threshold below the initial norm trips immediately."""
    u0, tau0, dbar = build_preset("taylor-green", grid2d_small, eps=0.5)
    cfg = SolverConfig(t_end=0.05, blowup_factor=1e-12)
    traj, report = solve(u0, tau0, dbar, cfg)
    assert traj.blowup is not None
    assert report.blowup_flag[-1] == 1
    assert np.sum(report.blowup_flag) == 1
    assert report.blowup_time is not None
    assert report.fastest_growing in ("crit1", "crit2", "crit3")
    assert traj.times[-1] < 0.05


def test_heat_flow_mixed_norm_bound(grid2d, part2d):
    """Free heat flow obeys the semigroup smoothing bound with the sharp
    block constant ((3/4)^2 rho)^(-1/rho) at p = 2, r = 1."""
    a, T, rho, s = 1.0, 1.0, 4.0, 0.0
    v0 = random_scalar(grid2d, seed=439)
    n = 2001
    times = np.linspace(0.0, T, n)
    fields = [heat_propagate(v0, a, float(t)) for t in times]
    ser = build_block_norm_series(fields, times, part2d, 2.0)
    idx = CheminLernerIndex(rho, BesovIndex(s + 2.0 / rho, 2.0, 1.0))
    lhs = a ** (1.0 / rho) * chemin_lerner_norm(ser, idx)
    rhs_bound = ((0.75 ** 2) * rho) ** (-1.0 / rho) * besov_norm(
        v0, BesovIndex(s, 2.0, 1.0), part2d)
    assert lhs <= rhs_bound * 1.05

    # per-block closed-form bound is tighter and still holds
    from blcsim.dyadic import block_l2_norms
    k = 0.75 ** 2
    qs = np.arange(part2d.q_min, part2d.q_max + 1)
    b0 = block_l2_norms(v0, part2d)
    per_block = ((1.0 - np.exp(-k * a * rho * T * 4.0 ** qs))
                 / (k * a * rho * 4.0 ** qs)) ** (1.0 / rho)
    bound = float(np.sum(2.0 ** (qs * (s + 2.0 / rho)) * per_block * b0))
    assert chemin_lerner_norm(ser, idx) <= bound * 1.01


# -- Picard iteration -------------------------------------------------------------

def test_picard_zero_data_fixed_point(grid2d_small):
    z = SpectralField.zeros(grid2d_small, rank=1)
    cfg = SolverConfig(t_end=0.05, mode="picard")
    res = picard_iterate(z, z.copy(), default_dbar(2), cfg)
    assert res.converged
    assert all(d == 0.0 for d in res.diffs)
    assert np.max(np.abs(res.trajectory.states[-1].u.coeffs)) == 0.0
    assert np.max(np.abs(res.trajectory.states[-1].tau.coeffs)) == 0.0


def test_picard_converges_and_matches_direct(grid2d_small):
    u0, tau0, dbar = build_preset("single-mode", grid2d_small, eps=0.01)
    part = build_partition(grid2d_small)
    cfg = SolverConfig(t_end=0.1, mode="picard", picard_tol=1e-12)
    res = picard_iterate(u0, tau0, dbar, cfg, part=part)
    assert res.converged
    assert res.iterations <= 8
    assert all(r < 1.0 for r in res.ratios)

    traj_d, _ = solve(u0, tau0, dbar, SolverConfig(t_end=0.1), part=part)
    idx_u, _ = critical_indices(2)
    du = res.trajectory.states[-1].u - traj_d.states[-1].u
    dtau = res.trajectory.states[-1].tau - traj_d.states[-1].tau
    assert besov_norm(du, BesovIndex(0.0, 2.0, 1.0), part) < 1e-6
    assert besov_norm(dtau, BesovIndex(0.0, 2.0, 1.0), part) < 1e-6


def test_picard_through_solve(grid2d_small):
    u0, tau0, dbar = build_preset("single-mode", grid2d_small, eps=0.01)
    cfg = SolverConfig(t_end=0.05, mode="picard")
    traj, report = solve(u0, tau0, dbar, cfg)
    assert report.picard_converged
    assert report.picard_diffs is not None and len(report.picard_diffs) >= 1


def _picard_full_reference(u0, tau0, dbar, cfg, part):
    """Picard on full-layout arrays: each field's heat flow, then trapezoid
    sweeps of nonlinear_rhs, with the sup-in-time critical distance of
    successive iterates. Returns the time grid, the final iterate and the
    distances."""
    from blcsim.monitor import critical_weights
    from blcsim.solver import _time_grid
    st0 = prepare_initial(u0, tau0, dbar)
    grid = st0.grid
    dt, n_steps = _time_grid(st0, cfg)
    times = np.arange(n_steps + 1) * dt
    k2 = grid.k_squared
    w_u, w_tau = critical_weights(part)

    def dist(a, b):
        power = np.sum(np.abs(a - b) ** 2, axis=1).reshape(n_steps + 1, -1)
        return np.sqrt(power @ part.squared_masks.T)

    u = np.empty((n_steps + 1,) + st0.u.coeffs.shape, dtype=np.complex128)
    tau = np.empty_like(u)
    u[0], tau[0] = st0.u.coeffs, st0.tau.coeffs
    for i in range(n_steps):
        u[i + 1] = np.exp(-cfg.mu * k2 * dt) * u[i]
        tau[i + 1] = np.exp(-k2 * dt) * tau[i]
    diffs = []
    for _ in range(cfg.picard_max_iter):
        forcings = [nonlinear_rhs(State(SpectralField(grid, 1, u[i]),
                                        SpectralField(grid, 1, tau[i]),
                                        float(times[i]), st0.dbar))
                    for i in range(n_steps + 1)]
        u_next, tau_next = np.empty_like(u), np.empty_like(tau)
        u_next[0], tau_next[0] = u[0], tau[0]
        for i in range(n_steps):
            for arr, coef, c in ((u_next, cfg.mu, 0), (tau_next, 1.0, 1)):
                arr[i + 1] = np.exp(-coef * k2 * dt) * (
                    arr[i] + 0.5 * dt * forcings[i][c].coeffs) \
                    + 0.5 * dt * forcings[i + 1][c].coeffs
        diffs.append(float(np.max(dist(u_next, u) @ w_u
                                  + dist(tau_next, tau) @ w_tau)))
        u, tau = u_next, tau_next
        if diffs[-1] < cfg.picard_tol:
            break
    return times, u, tau, diffs


@pytest.mark.parametrize("grid, mu", [(Grid(2, 32), 1.0), (Grid(3, 16), 1.0),
                                      (Grid(2, 32), 0.7)],
                         ids=["2d32", "3d16", "2d32-mu0.7"])
def test_picard_matches_full_reference(grid, mu):
    """The half-spectrum iterates, recorded after the last sweep, match a
    full-layout sweep in every recorded row and every successive distance,
    at the default viscosity and at one where u and tau decay differently."""
    u0, tau0, dbar = build_preset("random-band", grid, eps=0.3, seed=4)
    part = build_partition(grid)
    cfg = SolverConfig(t_end=0.02, mu=mu, mode="picard", report_stride=2,
                       picard_max_iter=4)
    res = picard_iterate(u0, tau0, dbar, cfg, part=part)
    times, u_ref, tau_ref, diffs_ref = _picard_full_reference(
        u0, tau0, dbar, cfg, part)

    assert res.diffs == pytest.approx(diffs_ref, rel=1e-12)
    traj = res.trajectory
    n = times.size
    rows = list(range(0, n, 2)) + ([n - 1] if (n - 1) % 2 else [])
    assert traj.times.tolist() == times[rows].tolist()
    for st, r in zip(traj.states, rows):
        for got, ref in ((st.u.coeffs, u_ref[r]), (st.tau.coeffs, tau_ref[r])):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_picard_records_only_the_final_iterate():
    """Peak memory of a Picard solve stays below four half-spectrum iterate
    arrays plus one recorded trajectory; a recorded trajectory per iterate
    adds at least one more."""
    import tracemalloc
    from blcsim.solver import _time_grid
    grid = Grid(2, 32)
    part = build_partition(grid)
    u0, tau0, dbar = build_preset("single-mode", grid, eps=1e-3)
    cfg = SolverConfig(t_end=0.1, mode="picard", report_stride=1)
    _, n_steps = _time_grid(prepare_initial(u0, tau0, dbar), cfg)
    half_field = np.empty((n_steps + 1, 2, 32, 17), dtype=np.complex128).nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = picard_iterate(u0, tau0, dbar, cfg, part=part)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.converged and len(res.diffs) >= 2
    states = sum(st.u.coeffs.nbytes + st.tau.coeffs.nbytes
                 for st in res.trajectory.states)
    assert len(res.trajectory.states) == n_steps + 1
    assert peak < 4 * half_field + states


def test_picard_keeps_one_iterate_per_field():
    """A 2D M = 32 Picard solve to T = 0.5 peaks below two and a half
    iterate arrays plus the recorded trajectory: the one array per field that
    each sweep overwrites in place, and small per-chunk difference buffers.
    A separate previous and next iterate peaks at about 3.4 arrays plus the
    trajectory."""
    import tracemalloc
    from blcsim.solver import _time_grid
    grid = Grid(2, 32)
    part = build_partition(grid)
    u0, tau0, dbar = build_preset("single-mode", grid, eps=1e-3)
    cfg = SolverConfig(t_end=0.5, mode="picard")
    _, n_steps = _time_grid(prepare_initial(u0, tau0, dbar), cfg)
    iterate = np.empty((n_steps + 1, 2, 32, 17), dtype=np.complex128).nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = picard_iterate(u0, tau0, dbar, cfg, part=part)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.converged and len(res.diffs) >= 2
    states = sum(st.u.coeffs.nbytes + st.tau.coeffs.nbytes
                 for st in res.trajectory.states)
    assert peak < 2.5 * iterate + states


@pytest.mark.parametrize("n_steps", [1, 31, 32, 33, 65])
def test_picard_chunk_edges_match_full_reference(n_steps):
    """The distances are taken in chunks of 32 rows during the sweep; step
    counts at and around the chunk edges give the full-layout reference's
    distances and final iterate in every row."""
    grid = Grid(2, 32)
    u0, tau0, dbar = build_preset("random-band", grid, eps=0.3, seed=4)
    part = build_partition(grid)
    t_end = 0.002   # below the stability rule's step, so dt sets n_steps
    cfg = SolverConfig(t_end=t_end, dt=t_end / n_steps, mode="picard",
                       report_stride=1, picard_max_iter=4)
    res = picard_iterate(u0, tau0, dbar, cfg, part=part)
    times, u_ref, tau_ref, diffs_ref = _picard_full_reference(
        u0, tau0, dbar, cfg, part)

    assert times.size == n_steps + 1
    assert res.diffs == pytest.approx(diffs_ref, rel=1e-12)
    assert res.trajectory.times.tolist() == times.tolist()
    for st, u_r, tau_r in zip(res.trajectory.states, u_ref, tau_ref):
        for got, ref in ((st.u.coeffs, u_r), (st.tau.coeffs, tau_r)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_picard_non_finite_sweep_raises(monkeypatch):
    """A forcing that turns NaN partway through the second sweep ends the
    run with BlowUpError at t_end instead of a result."""
    import blcsim.solver as solver_mod
    from blcsim.solver import _time_grid
    grid = Grid(2, 16)
    u0, tau0, dbar = build_preset("random-band", grid, eps=0.3, seed=4)
    cfg = SolverConfig(t_end=0.01, mode="picard", picard_tol=0.0)
    _, n_steps = _time_grid(prepare_initial(u0, tau0, dbar), cfg)
    first_nan = (n_steps + 1) + (n_steps + 1) // 2
    real_rhs = solver_mod._nonlinear_rhs
    calls = []

    def nan_rhs(y, dbar, grid):
        calls.append(None)
        f = real_rhs(y, dbar, grid)
        if len(calls) > first_nan:
            f[...] = np.nan
        return f

    monkeypatch.setattr(solver_mod, "_nonlinear_rhs", nan_rhs)
    results = []
    with pytest.raises(BlowUpError) as err:
        results.append(picard_iterate(u0, tau0, dbar, cfg))
    assert n_steps >= 2 and len(calls) == 2 * (n_steps + 1)
    assert err.value.time == pytest.approx(cfg.t_end)
    assert results == []


# -- snapshots and resume -----------------------------------------------------------

def test_save_load_round_trip(tmp_path, grid2d_small):
    u0, tau0, dbar = build_preset("random-band", grid2d_small, eps=0.2, seed=9)
    st = prepare_initial(u0, tau0, dbar)
    st = State(st.u, st.tau, 1.25, st.dbar)
    path = tmp_path / "state.blcf"
    save_state(path, st)
    back = load_state(path)
    assert back.t == pytest.approx(1.25)
    assert np.allclose(back.dbar, dbar, atol=1e-14)
    assert np.max(np.abs(back.u.coeffs - st.u.coeffs)) < 1e-13
    assert np.max(np.abs(back.tau.coeffs - st.tau.coeffs)) < 1e-13


def test_save_state_is_atomic(tmp_path, grid2d_small, monkeypatch):
    """A write that fails part-way leaves no file at the target, and an
    existing snapshot there stays intact."""
    import blcsim.solver as solver_mod
    u0, tau0, dbar = build_preset("random-band", grid2d_small, eps=0.2, seed=9)
    st = prepare_initial(u0, tau0, dbar)
    real_write = solver_mod.write_field
    calls = []

    def failing_write(fh, field, time):
        calls.append(time)
        if len(calls) == 2:
            raise OSError("disk full")
        real_write(fh, field, time)

    monkeypatch.setattr(solver_mod, "write_field", failing_write)
    fresh = tmp_path / "state_00000.blcf"
    with pytest.raises(OSError):
        save_state(fresh, st)
    assert not fresh.exists()
    assert list(tmp_path.iterdir()) == []

    kept = tmp_path / "state_00001.blcf"
    monkeypatch.setattr(solver_mod, "write_field", real_write)
    save_state(kept, st)
    before = kept.read_bytes()
    monkeypatch.setattr(solver_mod, "write_field", failing_write)
    calls.clear()
    with pytest.raises(OSError):
        save_state(kept, State(st.u, st.tau, 2.0, st.dbar))
    assert kept.read_bytes() == before
    assert list(tmp_path.iterdir()) == [kept]


def test_load_rejects_varying_dbar(tmp_path, grid2d_small):
    from blcsim.spectral import write_field
    u0, tau0, dbar = build_preset("single-mode", grid2d_small, eps=0.1)
    st = prepare_initial(u0, tau0, dbar)
    path = tmp_path / "bad.blcf"
    x = grid2d_small.coordinates()
    wobble = np.stack([0.01 * np.sin(x[0]), 1.0 + 0.0 * x[0]])
    with open(path, "wb") as fh:
        write_field(fh, to_physical(st.u), 0.0)
        write_field(fh, to_physical(st.tau), 0.0)
        write_field(fh, PhysicalField(grid2d_small, 1, wobble), 0.0)
    with pytest.raises(ValueError):
        load_state(path)


def test_resume_equivalence(tmp_path, grid2d_small):
    """Stopping, saving, and restarting reproduces the continuous run."""
    u0, tau0, dbar = build_preset("taylor-green", grid2d_small, eps=0.3)
    dt = 5e-4
    cfg_full = SolverConfig(t_end=0.4, dt=dt)
    traj_full, _ = solve(u0, tau0, dbar, cfg_full)

    cfg_half = SolverConfig(t_end=0.2, dt=dt)
    traj_a, _ = solve(u0, tau0, dbar, cfg_half)
    path = tmp_path / "mid.blcf"
    save_state(path, traj_a.states[-1])
    mid = load_state(path)
    traj_b, _ = solve(mid.u, mid.tau, mid.dbar, cfg_half)

    final_direct = traj_full.states[-1]
    final_resumed = traj_b.states[-1]
    assert np.max(np.abs(final_resumed.u.coeffs - final_direct.u.coeffs)) < 1e-9
    assert np.max(np.abs(final_resumed.tau.coeffs - final_direct.tau.coeffs)) < 1e-9
