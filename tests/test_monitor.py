"""Criterion norms, scaling checks, drift, energy, and report export tests."""
import csv
import json
import math

import numpy as np
import pytest

from blcsim.dyadic import build_partition
from blcsim.monitor import (
    CRITERION_NAMES, CriterionConfig, RunReport, ScalingCheckError,
    admissibility_margin, build_report, criterion_indices, criterion_norms, dyadic_rescale, export_series,
    scaling_check, state_drift, state_energy,
)
from blcsim.norms import INF, besov_norm, BesovIndex, block_lp_norms
from blcsim.presets import build_preset, default_dbar
from blcsim.solver import SolverConfig, State, Trajectory, solve, prepare_initial
from blcsim.spectral import (Grid, PhysicalField, SpectralField, gradient,
                             to_physical, to_spectral)
from conftest import (random_scalar, single_block_scalar,
                      windowed_chemin_lerner_norms)


def _const_trajectory(part, u, tau, dbar, T=0.8, n=41):
    times = np.linspace(0.0, T, n)
    states = [State(SpectralField(u.grid, 1, u.coeffs.copy()),
                    SpectralField(tau.grid, 1, tau.coeffs.copy()), float(t), dbar)
              for t in times]
    cols = {}
    for name, f, p in (("u_l2", u, 2.0), ("u_linf", u, INF),
                       ("tau_l2", tau, 2.0), ("tau_linf", tau, INF)):
        cols[name] = np.tile(block_lp_norms(f, part, p)[:, None], (1, n))
    return Trajectory(part=part, times=times, states=states,
                      u_l2=cols["u_l2"], u_linf=cols["u_linf"],
                      tau_l2=cols["tau_l2"], tau_linf=cols["tau_linf"],
                      **_row_series(states), dt=times[1] - times[0])


def _row_series(states):
    """The per-row e, drift and energy of a hand-built Trajectory; the
    criterion norms read none of them, so E is left at zero."""
    return {"e": np.zeros(len(states)),
            "drift": np.asarray([state_drift(s) for s in states]),
            "energy": np.asarray([state_energy(s) for s in states])}


# -- admissibility ---------------------------------------------------------------

def test_admissibility_margins():
    assert admissibility_margin(CriterionConfig(4.0, 4.0, 4.0), 2) == pytest.approx(0.0)
    assert admissibility_margin(CriterionConfig(4.0, 3.0, 3.0), 2) == pytest.approx(1.0 / 3.0)
    assert admissibility_margin(CriterionConfig(4.0, 4.0, 4.0), 3) == pytest.approx(0.5)


def test_admissibility_strictness():
    margin = admissibility_margin(CriterionConfig(4.0, 4.0, 4.0), 2)
    assert margin == pytest.approx(0.0)
    assert not margin > 0                             # zero margin rejected
    margin2 = admissibility_margin(CriterionConfig(4.0, 3.0, 3.0), 2)
    assert margin2 > 0


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
                      e=np.zeros(n_rows), drift=np.zeros(n_rows),
                      energy=np.zeros(n_rows), dt=0.01)


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


@pytest.mark.parametrize("dim, m, rank, lambda_exp",
                         [(3, 32, 1, 1), (2, 64, 2, 1), (2, 64, 0, 2)])
def test_rescale_samples_the_dilated_field(dim, m, rank, lambda_exp):
    """dyadic_rescale(f, l, s) is 2^(-l s) times the spectrum of f(2^l x),
    whose samples are f_phys[(2^l j) mod M], for a real field that fills
    the box the rescale keeps (2^l |k_i| <= M // 3)."""
    grid = Grid(dim, m)
    lam = 2 ** lambda_exp
    rng = np.random.default_rng(dim + m + rank)
    vals = rng.standard_normal((dim,) * rank + grid.shape)
    kept = lam * grid.box_radius <= grid.dealias_band
    f = SpectralField(grid, rank, to_spectral(PhysicalField(grid, rank, vals)).coeffs * kept)
    assert np.all(f.flat_components()[:, kept] != 0)
    s = 0.7
    dilated = np.ix_(*[lam * np.arange(m) % m] * dim)
    samples = to_physical(f).values[(Ellipsis,) + dilated]
    want = to_spectral(PhysicalField(grid, rank, samples)).coeffs * 2.0 ** (-lambda_exp * s)
    got = dyadic_rescale(f, lambda_exp, s).coeffs
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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


def test_scaling_check_fails_nan_norms(grid2d, part2d):
    f = single_block_scalar(grid2d)
    f.coeffs[1, 0] = np.nan
    with pytest.raises(ScalingCheckError):
        scaling_check(f, 1, 0.5, part2d)


# -- reports and export ----------------------------------------------------------------

def _small_run(grid, mode="direct", t_end=0.05):
    u0, tau0, dbar = build_preset("single-mode", grid, eps=0.01)
    cfg = SolverConfig(t_end=t_end, mode=mode)
    return solve(u0, tau0, dbar, cfg)


def _exported(report, out_dir, config=None):
    """The rows of report.csv and the summary.json that export_series writes."""
    csv_path, json_path = export_series(report, out_dir, config or {})
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(json_path) as fh:
        return rows, json.load(fh)


def test_report_fields(tmp_path, grid2d_small):
    traj, report = _small_run(grid2d_small)
    assert report.trajectory is traj
    n = traj.times.size
    assert traj.e.shape == (n,)
    assert report.crit.shape == (3, n)
    assert traj.drift.shape == (n,)
    assert traj.energy.shape == (n,)
    rows, summary = _exported(report, tmp_path, {"preset": "single-mode"})
    assert all(row[7] == "0" for row in rows[1:])
    assert summary["E0"] == pytest.approx(traj.e[0])
    assert summary["E0"] > 0
    assert summary["blowup"]["time"] is None
    assert report.fastest_growing is None
    assert summary["admissibility_margin"] == pytest.approx(1.0 / 3.0)
    assert summary["config"]["preset"] == "single-mode"


def test_export_series_files(tmp_path, grid2d_small):
    traj, report = _small_run(grid2d_small)
    rows, summary = _exported(report, tmp_path / "out", {"preset": "single-mode"})
    assert rows[0] == ["t", "E", "crit1", "crit2", "crit3", "drift",
                       "energy", "blowup_flag"]
    assert len(rows) == 1 + traj.times.size
    floats = [float(x) for x in rows[1][:7]]
    assert floats[0] == 0.0

    assert summary["q_range"] == [-1, 3]
    assert summary["block_range_truncated"] is True
    assert summary["E0"] == pytest.approx(traj.e[0])
    assert summary["criterion_exponents"] == [4.0, 3.0, 3.0]
    assert summary["admissibility_margin"] == pytest.approx(1.0 / 3.0)
    assert summary["rows"] == traj.times.size
    assert summary["config"]["preset"] == "single-mode"
    assert summary["final"]["t"] == pytest.approx(0.05)
    assert summary["blowup"]["detected"] is False
    assert "picard" not in summary


def test_export_picard_block(tmp_path, grid2d_small):
    traj, report = _small_run(grid2d_small, mode="picard")
    _, summary = _exported(report, tmp_path / "out")
    assert summary["picard"]["converged"] is True
    assert len(summary["picard"]["diffs"]) >= 1


def test_export_empty_report(tmp_path, part2d):
    traj = Trajectory(part=part2d, times=np.zeros(0), states=[],
                      u_l2=np.zeros((part2d.n_blocks, 0)),
                      u_linf=np.zeros((part2d.n_blocks, 0)),
                      tau_l2=np.zeros((part2d.n_blocks, 0)),
                      tau_linf=np.zeros((part2d.n_blocks, 0)),
                      **_row_series([]), dt=0.1)
    report = build_report(traj, CriterionConfig.default_for(2))
    rows, summary = _exported(report, tmp_path / "empty")
    assert len(rows) == 1          # header only
    assert summary["rows"] == 0
    assert "final" not in summary


def test_blowup_report_marks_fastest(tmp_path, grid2d_small):
    u0, tau0, dbar = build_preset("taylor-green", grid2d_small, eps=0.5)
    cfg = SolverConfig(t_end=0.05, blowup_factor=1e-12)
    traj, report = solve(u0, tau0, dbar, cfg)
    rows, summary = _exported(report, tmp_path)
    assert summary["blowup"]["time"] is not None
    assert report.fastest_growing in CRITERION_NAMES
    assert rows[-1][7] == "1"


def test_one_row_blowup_names_no_criterion(tmp_path, monkeypatch):
    """A direct run whose first step is non-finite records only row 0, so
    there is no recorded interval to grow over: the report names no fastest
    growing criterion, and summary.json writes null."""
    import blcsim.solver as solver_mod
    u0, tau0, dbar = build_preset("random-band", Grid(2, 16), eps=0.3, seed=4)
    monkeypatch.setattr(solver_mod, "_nonlinear_rhs",
                        lambda y, dbar, grid: np.full_like(y, np.nan))
    traj, report = solve(u0, tau0, dbar, SolverConfig(t_end=0.01))
    assert traj.blowup is not None and traj.times.tolist() == [0.0]
    rows, summary = _exported(report, tmp_path)
    assert [row[7] for row in rows[1:]] == ["1"]
    assert report.fastest_growing is None
    blowup = summary["blowup"]
    assert blowup == {"detected": True, "time": traj.blowup.time,
                      "fastest_growing_criterion": None}


# -- rows measured as they are recorded ---------------------------------------------

@pytest.mark.parametrize("mode", ["direct", "picard"])
def test_report_reads_no_state(tmp_path, grid2d_small, mode):
    """E, drift and energy are taken as each row is recorded, so a report
    built after the States are dropped writes the same files."""
    traj, report = _small_run(grid2d_small, mode=mode)
    kept = export_series(report, tmp_path / "kept", {})
    traj.states.clear()
    again = build_report(traj, report.criterion_config, picard=report.picard)
    dropped = export_series(again, tmp_path / "dropped", {})
    for want, got in zip(kept, dropped):
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("mode", ["direct", "picard"])
def test_recorded_e_is_the_checked_e(grid2d_small, monkeypatch, mode):
    """With every grid point recorded, the E values the blow-up check
    compared with its threshold, row 0's first, are traj.e, bit for bit."""
    import blcsim.solver as solver_mod
    checked = []
    norms = solver_mod._Recorder._norms

    def spy(self, y):
        l2, e = norms(self, y)
        checked.append(e)
        return l2, e

    monkeypatch.setattr(solver_mod._Recorder, "_norms", spy)
    u0, tau0, dbar = build_preset("random-band", grid2d_small, eps=0.3, seed=2)
    cfg = SolverConfig(t_end=0.02, mode=mode, report_stride=1)
    traj, _ = solve(u0, tau0, dbar, cfg)
    assert traj.times.size > 2
    assert traj.e.tolist() == checked


def test_blowup_row_writes_the_e_past_threshold(tmp_path, grid2d_small):
    """A threshold a hair under row 1's E trips there, and the flagged row
    of report.csv writes an E past blowup_factor * E0."""
    u0, tau0, dbar = build_preset("taylor-green", grid2d_small, eps=0.5)
    free, _ = solve(u0, tau0, dbar, SolverConfig(t_end=0.05))
    factor = free.e[1] / free.e[0] * (1.0 - 1e-9)
    traj, report = solve(u0, tau0, dbar,
                         SolverConfig(t_end=0.05, blowup_factor=factor))
    rows, summary = _exported(report, tmp_path)
    assert traj.blowup is not None
    assert [row[7] for row in rows[1:]] == ["0", "1"]
    assert float(rows[-1][1]) > factor * summary["E0"]
    assert traj.e[-1] > factor * traj.e[0]
