"""Criterion norms, scaling checks, drift, energy, and report export tests."""
import csv
import json
import math

import numpy as np
import pytest

from blcsim.dyadic import build_partition
from blcsim.monitor import (
    CRITERION_NAMES, CriterionConfig, RunReport, ScalingCheckError,
    admissibility_margin, build_report, criterion_admissible,
    criterion_indices, criterion_norms, dyadic_rescale, export_series,
    scaling_check, state_drift, state_energy,
)
from blcsim.norms import INF, besov_norm, BesovIndex, block_lp_norms
from blcsim.presets import build_preset, default_dbar
from blcsim.solver import SolverConfig, State, Trajectory, solve, prepare_initial
from blcsim.spectral import (Grid, PhysicalField, SpectralField, gradient,
                             to_spectral)
from conftest import (random_scalar, single_block_scalar,
                      windowed_chemin_lerner_norms)


def _const_trajectory(part, u, tau, dbar, T=0.8, n=41):
    times = np.linspace(0.0, T, n)
    states = [State(u.copy(), tau.copy(), float(t), dbar) for t in times]
    cols = {}
    for name, f, p in (("u_l2", u, 2.0), ("u_linf", u, INF),
                       ("tau_l2", tau, 2.0), ("tau_linf", tau, INF)):
        cols[name] = np.tile(block_lp_norms(f, part, p)[:, None], (1, n))
    return Trajectory(part=part, times=times, states=states,
                      u_l2=cols["u_l2"], u_linf=cols["u_linf"],
                      tau_l2=cols["tau_l2"], tau_linf=cols["tau_linf"],
                      dt=times[1] - times[0], dbar=dbar)


# -- admissibility ---------------------------------------------------------------

def test_admissibility_margins():
    assert admissibility_margin(CriterionConfig(4.0, 4.0, 4.0), 2) == pytest.approx(0.0)
    assert admissibility_margin(CriterionConfig(4.0, 3.0, 3.0), 2) == pytest.approx(1.0 / 3.0)
    assert admissibility_margin(CriterionConfig(4.0, 4.0, 4.0), 3) == pytest.approx(0.5)


def test_admissibility_strictness():
    margin, ok = criterion_admissible(CriterionConfig(4.0, 4.0, 4.0), 2)
    assert margin == pytest.approx(0.0)
    assert not ok                                     # zero margin rejected
    margin2, ok2 = criterion_admissible(CriterionConfig(4.0, 3.0, 3.0), 2)
    assert ok2 and margin2 > 0


def test_admissibility_symmetric_in_rho23():
    a = admissibility_margin(CriterionConfig(4.0, 3.0, 5.0), 2)
    b = admissibility_margin(CriterionConfig(4.0, 5.0, 3.0), 2)
    assert a == pytest.approx(b)


def test_exponent_open_interval():
    with pytest.raises(ValueError):
        CriterionConfig(2.0, 3.0, 3.0)
    with pytest.raises(ValueError):
        CriterionConfig(4.0, INF, 3.0)
    with pytest.raises(ValueError):
        CriterionConfig(4.0, 3.0, 1.5)


def test_default_exponents():
    assert CriterionConfig.default_for(2) == CriterionConfig(4.0, 3.0, 3.0)
    assert CriterionConfig.default_for(3) == CriterionConfig(4.0, 4.0, 4.0)


def test_criterion_indices_structure():
    cfg = CriterionConfig(4.0, 3.0, 3.0)
    i1, i2, i3 = criterion_indices(cfg, 2)
    assert i1.rho == 4.0 and i1.space.s == pytest.approx(-0.5)
    assert i1.space.p == INF and i1.space.r == INF
    assert i2.space.s == pytest.approx(2.0 / 3.0)
    assert i3.space.p == 2.0
    assert i3.space.s == pytest.approx(1.0 + 2.0 / 3.0)


# -- criterion norms --------------------------------------------------------------

def test_criterion_norms_zero_trajectory(grid2d, part2d):
    z = SpectralField.zeros(grid2d, rank=1)
    traj = _const_trajectory(part2d, z, z, default_dbar(2))
    c = criterion_norms(traj, CriterionConfig.default_for(2))
    assert c[:, -1].tolist() == [0.0, 0.0, 0.0]


def test_crit3_closed_form(grid2d, part2d):
    """Constant-in-time single-block deviation: crit3 = 2^(q s3) (A/sqrt 2) T^(1/rho3)."""
    A, T = 0.3, 0.8
    tau = SpectralField.zeros(grid2d, rank=1)
    tau.coeffs[0, 6, 0] = A / 2
    tau.coeffs[0, -6, 0] = A / 2
    z = SpectralField.zeros(grid2d, rank=1)
    traj = _const_trajectory(part2d, z, tau, default_dbar(2), T=T)
    cfg = CriterionConfig(4.0, 3.0, 3.0)
    c1, c2, c3 = criterion_norms(traj, cfg)[:, -1]
    s3 = 1.0 + 2.0 / 3.0
    assert c3 == pytest.approx(2.0 ** (2 * s3) * (A / math.sqrt(2.0))
                               * T ** (1.0 / 3.0), rel=1e-12)
    # crit2 sees the same block through the collocation maximum A
    assert c2 == pytest.approx(2.0 ** (2 * (2.0 / 3.0)) * A * T ** (1.0 / 3.0),
                               rel=1e-12)
    assert c1 == 0.0


def test_criterion_norms_cumulative(grid2d_small):
    u0, tau0, dbar = build_preset("taylor-green", grid2d_small, eps=0.4)
    traj, report = solve(u0, tau0, dbar, SolverConfig(t_end=0.1))
    for row in report.crit:
        assert np.all(np.isfinite(row))
        assert np.all(np.diff(row) >= 0)


def _synthetic_trajectory(part, n_rows, seed):
    """Random block norms on irregular, strictly increasing times."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.01, 0.1, n_rows)) - 0.01
    cols = [rng.random((part.n_blocks, n_rows)) for _ in range(4)]
    return Trajectory(part=part, times=times, states=[], u_l2=cols[0],
                      u_linf=cols[1], tau_l2=cols[2], tau_linf=cols[3],
                      dt=0.01, dbar=default_dbar(2))


@pytest.mark.parametrize("n_rows", [1, 2, 9, 300])
def test_criterion_norms_match_windowed_reference(part2d, n_rows):
    """One running pass gives the prefix norms (9 and 300 rows cross numpy's
    8-term pairwise-summation block)."""
    traj = _synthetic_trajectory(part2d, n_rows, seed=n_rows)
    cfg = CriterionConfig.default_for(2)
    crit = criterion_norms(traj, cfg)
    assert crit.shape == (3, n_rows)
    qs = np.arange(part2d.q_min, part2d.q_max + 1)
    values = (traj.u_linf, traj.tau_linf, traj.tau_l2)
    for row, v, idx in zip(crit, values, criterion_indices(cfg, 2)):
        ref = windowed_chemin_lerner_norms(v, qs, traj.times, idx)
        np.testing.assert_allclose(row, ref, rtol=1e-13, atol=0.0)


def test_criterion_norms_empty_trajectory(part2d):
    traj = _synthetic_trajectory(part2d, 0, seed=0)
    assert criterion_norms(traj, CriterionConfig.default_for(2)).shape == (3, 0)


# -- drift and energy --------------------------------------------------------------

def test_drift_zero_deviation(grid2d, part2d):
    z = SpectralField.zeros(grid2d, rank=1)
    traj = _const_trajectory(part2d, z, z, default_dbar(2), n=3)
    assert max(state_drift(s) for s in traj.states) == 0.0


def test_tilted_preset_starts_on_sphere(grid2d):
    u0, tau0, dbar = build_preset("single-mode", grid2d, eps=1e-3)
    st = prepare_initial(u0, tau0, dbar)
    assert state_drift(st) < 1e-13


def test_state_energy_closed_form(grid2d):
    A, B = 0.4, 0.2
    u = SpectralField.zeros(grid2d, rank=1)
    u.coeffs[0, 6, 0] = A / 2
    u.coeffs[0, -6, 0] = A / 2
    tau = SpectralField.zeros(grid2d, rank=1)
    tau.coeffs[1, 3, 0] = B / 2
    tau.coeffs[1, -3, 0] = B / 2
    st = State(u, tau, 0.0, default_dbar(2))
    expected = 0.25 * A ** 2 + 0.25 * 9.0 * B ** 2
    assert state_energy(st) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dim,m", [(2, 32), (3, 16)])
def test_state_energy_matches_gradient_route(dim, m):
    """The Parseval sum over |k|^2 |tau_hat|^2 gives the energy of the
    built gradient field, on real data with Nyquist content, to 1e-13."""
    grid = Grid(dim, m)
    rng = np.random.default_rng(dim + m)
    u, tau = (to_spectral(PhysicalField(grid, 1, rng.standard_normal(
        (dim,) + grid.shape))) for _ in range(2))
    st = State(u, tau, 0.0, default_dbar(dim))
    g_sq = np.sum(np.abs(gradient(tau).coeffs) ** 2)
    want = 0.5 * np.sum(np.abs(u.coeffs) ** 2) + 0.5 * g_sq
    assert state_energy(st) == pytest.approx(want, rel=1e-13)


# -- discrete rescaling --------------------------------------------------------------

def test_rescale_single_block(grid2d, part2d):
    f = SpectralField.zeros(grid2d, rank=0)
    f.coeffs[3, 0] = 0.5
    f.coeffs[-3, 0] = 0.5
    s = 0.5
    g = dyadic_rescale(f, 1, s)
    assert g.coeffs[6, 0] == pytest.approx(0.5 * 2.0 ** (-s), rel=1e-14)
    assert g.coeffs[3, 0] == 0.0
    idx = BesovIndex(s, 2.0, 1.0)
    assert besov_norm(g, idx, part2d) == pytest.approx(
        besov_norm(f, idx, part2d), rel=1e-12)


def test_rescale_multi_block_invariance(grid2d, part2d):
    f = SpectralField.zeros(grid2d, rank=0)
    for k in [(1, 0), (0, 3), (2, 2)]:
        f.coeffs[k] = 0.3
        f.coeffs[tuple(-np.array(k))] = 0.3
    for s in (0.0, 1.0):
        before, after = scaling_check(f, 1, s, part2d, tol=1e-10)
        assert after == pytest.approx(before, rel=1e-10)


def test_rescale_3d_director_index(grid3d, part3d):
    f = SpectralField.zeros(grid3d, rank=1)
    f.coeffs[0, 2, 0, 0] = 0.5
    f.coeffs[0, -2, 0, 0] = 0.5
    s = 1.5                                    # deviation index N/2 in 3d
    before, after = scaling_check(f, 1, s, part3d, tol=1e-10)
    assert after == pytest.approx(before, rel=1e-10)


def test_rescale_out_of_band(grid2d):
    f = SpectralField.zeros(grid2d, rank=0)
    f.coeffs[20, 0] = 0.5
    f.coeffs[-20, 0] = 0.5
    with pytest.raises(ValueError, match="outside"):
        dyadic_rescale(f, 1, 0.5)


def test_rescale_rejects_zero_exponent(grid2d):
    f = single_block_scalar(grid2d)
    with pytest.raises(ValueError):
        dyadic_rescale(f, 0, 0.5)


def test_scaling_check_wiring(grid2d, part2d):
    """With zero tolerance the comparison must either be exact or raise;
    both branches show the checker actually compares the norms."""
    f = single_block_scalar(grid2d)
    try:
        before, after = scaling_check(f, 1, 1.0 / 3.0, part2d, tol=0.0)
    except ScalingCheckError:
        pass
    else:
        assert before == after


# -- reports and export ----------------------------------------------------------------

def _small_run(grid, mode="direct", t_end=0.05):
    u0, tau0, dbar = build_preset("single-mode", grid, eps=0.01)
    cfg = SolverConfig(t_end=t_end, mode=mode)
    return solve(u0, tau0, dbar, cfg, config_echo={"preset": "single-mode"})


def test_report_fields(grid2d_small):
    traj, report = _small_run(grid2d_small)
    n = report.times.size
    assert report.e_values.shape == (n,)
    assert report.crit.shape == (3, n)
    assert report.drift.shape == (n,)
    assert report.energy.shape == (n,)
    assert np.all(report.blowup_flag == 0)
    assert report.e0 == pytest.approx(report.e_values[0])
    assert report.e0 > 0
    assert report.blowup_time is None
    assert report.fastest_growing is None
    assert report.admissibility == pytest.approx(1.0 / 3.0)
    assert report.config_echo["preset"] == "single-mode"


def test_export_series_files(tmp_path, grid2d_small):
    traj, report = _small_run(grid2d_small)
    csv_path, json_path = export_series(report, tmp_path / "out")
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "E", "crit1", "crit2", "crit3", "drift",
                       "energy", "blowup_flag"]
    assert len(rows) == 1 + report.times.size
    floats = [float(x) for x in rows[1][:7]]
    assert floats[0] == 0.0

    with open(json_path) as fh:
        summary = json.load(fh)
    assert summary["q_range"] == [-1, 3]
    assert summary["block_range_truncated"] is True
    assert summary["E0"] == pytest.approx(report.e0)
    assert summary["criterion_exponents"] == [4.0, 3.0, 3.0]
    assert summary["admissibility_margin"] == pytest.approx(1.0 / 3.0)
    assert summary["rows"] == report.times.size
    assert summary["config"]["preset"] == "single-mode"
    assert summary["final"]["t"] == pytest.approx(0.05)
    assert summary["blowup"]["detected"] is False
    assert "picard" not in summary


def test_export_picard_block(tmp_path, grid2d_small):
    traj, report = _small_run(grid2d_small, mode="picard")
    _, json_path = export_series(report, tmp_path / "out")
    with open(json_path) as fh:
        summary = json.load(fh)
    assert summary["picard"]["converged"] is True
    assert len(summary["picard"]["diffs"]) >= 1


def test_export_empty_report(tmp_path, part2d):
    traj = Trajectory(part=part2d, times=np.zeros(0), states=[],
                      u_l2=np.zeros((part2d.n_blocks, 0)),
                      u_linf=np.zeros((part2d.n_blocks, 0)),
                      tau_l2=np.zeros((part2d.n_blocks, 0)),
                      tau_linf=np.zeros((part2d.n_blocks, 0)),
                      dt=0.1, dbar=default_dbar(2).copy())
    report = build_report(traj, CriterionConfig.default_for(2))
    csv_path, json_path = export_series(report, tmp_path / "empty")
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1          # header only
    with open(json_path) as fh:
        summary = json.load(fh)
    assert summary["rows"] == 0
    assert "final" not in summary


def test_blowup_report_marks_fastest(grid2d_small):
    u0, tau0, dbar = build_preset("taylor-green", grid2d_small, eps=0.5)
    cfg = SolverConfig(t_end=0.05, blowup_factor=1e-12)
    traj, report = solve(u0, tau0, dbar, cfg)
    assert report.blowup_time is not None
    assert report.fastest_growing in CRITERION_NAMES
    assert report.blowup_flag[-1] == 1
