"""Acceptance gate: the twelve primary criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v`; each criterion records a
[PASS]/[FAIL] line with its measured quantities, echoed in a terminal
summary section by the conftest hook so the gate is legible even under
capture. Criteria 9-11 integrate to physical times and take minutes.
"""
import time

import numpy as np
import pytest

from blcsim.spectral import (
    Grid, PhysicalField, SpectralField, dealias, divergence, gradient,
    leray_project, to_physical, to_spectral,
)
from blcsim.dyadic import (
    block_project, build_partition, chi_profile, decompose,
    reconstruct,
)
from blcsim.norms import (
    BesovIndex, BlockNormSeries, CheminLernerIndex, besov_norm,
    block_lp_norms, build_block_norm_series, chemin_lerner_norm,
    minkowski_compare,
)
from blcsim.paraproduct import random_trig_field
from blcsim.paraproduct import bony_reconstruct
from blcsim.solver import (
    SolverConfig, heat_propagate, prepare_initial, solve, step_direct,
)
from blcsim.monitor import CriterionConfig, admissibility_margin, scaling_check
from blcsim.presets import build_preset
from conftest import random_scalar, random_vector

INF = float("inf")

CRITERION_LINES = []


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d}: {desc}"
    if detail:
        line += f"  ({detail})"
    CRITERION_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def _l2(coeffs):
    return float(np.linalg.norm(coeffs))


def _critical_e(part, u, tau):
    dim = part.grid.dim
    qs = np.arange(part.q_min, part.q_max + 1)
    w_u = 2.0 ** ((dim / 2.0 - 1.0) * qs)
    w_tau = 2.0 ** ((dim / 2.0) * qs)
    return float(w_u @ block_lp_norms(u, part, 2.0)
                 + w_tau @ block_lp_norms(tau, part, 2.0))


def _scaled_small_data(grid, part, e0):
    """single-mode data rescaled so the critical norm sum is exactly e0."""
    u0, tau0, dbar = build_preset("single-mode", grid, eps=1e-3)
    c = e0 / _critical_e(part, u0, tau0)
    u0 = SpectralField(grid, u0.rank, u0.coeffs * c)
    tau0 = SpectralField(grid, tau0.rank, tau0.coeffs * c)
    return u0, tau0, dbar


# -- 1: partition-of-unity telescoping ----------------------------------------

def test_criterion_01_telescoping(grid2d, part2d):
    mag = np.sqrt(grid2d.k_squared)
    t0 = time.perf_counter()
    chi_at = {j: chi_profile(mag / 2.0 ** j)
              for j in range(part2d.q_min, part2d.q_max + 2)}
    worst = 0.0
    for a in range(part2d.q_min, part2d.q_max + 1):
        total = np.zeros(grid2d.shape)
        for b in range(a, part2d.q_max + 1):
            total = total + part2d.phi_mask(b)
            gap = np.max(np.abs(total - (chi_at[b + 1] - chi_at[a])))
            worst = max(worst, float(gap))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-14 and elapsed < 1.0
    _report(1, "telescoping sum of phi_q equals chi difference",
            ok, f"max gap {worst:.2e}, {elapsed * 1e3:.0f} ms")


# -- 2: Littlewood-Paley reconstruction ----------------------------------------

def test_criterion_02_reconstruction(grid2d, part2d):
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(100 + i)
        u = random_trig_field(grid2d, rng)
        back = reconstruct(decompose(u, part2d))
        worst = max(worst, _l2(back.coeffs - u.coeffs) / _l2(u.coeffs))
    ok = worst < 1e-13
    _report(2, "decompose/reconstruct round trip on 50 random fields",
            ok, f"worst rel err {worst:.2e}")


# -- 3: Bony identity ------------------------------------------------------------

def test_criterion_03_bony(grid2d, part2d):
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(200 + i)
        u = random_trig_field(grid2d, rng)
        v = random_trig_field(grid2d, rng)
        split = bony_reconstruct(u, v, part2d)
        prod = to_physical(u).values * to_physical(v).values
        direct = dealias(to_spectral(PhysicalField(grid2d, 0, prod)))
        rel = _l2(split.total().coeffs - direct.coeffs) / _l2(direct.coeffs)
        worst = max(worst, rel)
    ok = worst < 1e-12
    _report(3, "Bony split reassembles dealiased product on 50 pairs",
            ok, f"worst rel err {worst:.2e}")


# -- 4: Leray projector ------------------------------------------------------------

def test_criterion_04_leray(grid2d):
    worst_idem = worst_grad = worst_div = 0.0
    for i in range(20):
        u = random_vector(grid2d, seed=300 + i)
        pu = leray_project(u)
        worst_idem = max(worst_idem,
                         _l2(leray_project(pu).coeffs - pu.coeffs)
                         / max(_l2(pu.coeffs), 1e-300))
        worst_div = max(worst_div,
                        _l2(divergence(pu).coeffs) / _l2(u.coeffs))
        g = gradient(random_scalar(grid2d, seed=400 + i))
        worst_grad = max(worst_grad,
                         _l2(leray_project(g).coeffs) / _l2(g.coeffs))
    ok = worst_idem < 1e-12 and worst_grad < 1e-12 and worst_div < 1e-12
    _report(4, "Leray idempotence, gradient annihilation, solenoidal output",
            ok, f"idem {worst_idem:.1e}, grad {worst_grad:.1e}, "
                f"div {worst_div:.1e}")


# -- 5: heat semigroup ---------------------------------------------------------------

def test_criterion_05_heat(grid2d, part2d):
    x = grid2d.coordinates()
    wave = to_spectral(PhysicalField(grid2d, 0, np.cos(3 * x[0] + 2 * x[1])))
    worst_wave = 0.0
    for a, t in ((1.0, 0.2), (0.7, 0.45), (2.5, 0.05)):
        got = to_physical(heat_propagate(wave, a, t)).values
        want = np.exp(-a * 13.0 * t) * np.cos(3 * x[0] + 2 * x[1])
        worst_wave = max(worst_wave,
                         float(np.max(np.abs(got - want)) / np.max(np.abs(want))))

    rng = np.random.default_rng(500)
    f = random_trig_field(grid2d, rng)
    two_leg = heat_propagate(heat_propagate(f, 0.8, 0.3), 0.8, 0.5)
    one_leg = heat_propagate(f, 0.8, 0.8)
    comp = _l2(two_leg.coeffs - one_leg.coeffs) / _l2(one_leg.coeffs)

    k_fac = (3.0 / 4.0) ** 2
    worst_slack = -INF
    for i in range(100):
        rng = np.random.default_rng(600 + i)
        q = int(rng.integers(part2d.q_min, part2d.q_max + 1))
        blk = block_project(random_trig_field(grid2d, rng), q, part2d)
        base = _l2(blk.coeffs)
        a, t = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.01, 1.0))
        lhs = _l2(heat_propagate(blk, a, t).coeffs)
        bound = np.exp(-a * k_fac * 4.0 ** q * t) * base
        worst_slack = max(worst_slack, float(lhs - bound * (1.0 + 1e-12)))
    ok = worst_wave <= 1e-12 and comp <= 1e-13 and worst_slack <= 0.0
    _report(5, "heat flow: plane-wave exactness, composition, block decay",
            ok, f"wave {worst_wave:.1e}, comp {comp:.1e}, "
                f"decay slack {worst_slack:.1e}")


# -- 6: Chemin-Lerner norms vs closed forms -----------------------------------------

def test_criterion_06_chemin_lerner(grid2d, part2d):
    rng = np.random.default_rng(700)
    u = random_trig_field(grid2d, rng)
    times = np.linspace(0.0, 0.7, 41)
    const_series = build_block_norm_series([u] * times.size, times, part2d, 2.0)
    worst_const = 0.0
    for s, rho, r in ((0.5, 3.0, 1.0), (-0.25, 2.5, 2.0), (1.0, INF, 1.0)):
        idx = CheminLernerIndex(rho, BesovIndex(s, 2.0, r))
        tilde = chemin_lerner_norm(const_series, idx)
        horizon = 0.7 ** (1.0 / rho) if rho != INF else 1.0
        want = horizon * besov_norm(u, BesovIndex(s, 2.0, r), part2d)
        worst_const = max(worst_const, abs(tilde - want) / want)

    q = 2
    a_q = float(np.linalg.norm(block_project(u, q, part2d).coeffs))
    qs_all = np.arange(part2d.q_min, part2d.q_max + 1)
    t1000 = np.linspace(0.0, 1.0, 1000)
    vals = np.zeros((qs_all.size, t1000.size))
    vals[q - part2d.q_min] = a_q * np.exp(-t1000)
    decay_series = BlockNormSeries(qs_all, t1000, vals, 2.0)
    worst_decay = 0.0
    for s, rho in ((0.5, 1.0), (0.0, 2.0), (-1.0, INF)):
        idx = CheminLernerIndex(rho, BesovIndex(s, 2.0, 1.0))
        tilde = chemin_lerner_norm(decay_series, idx)
        if rho == INF:
            want = 2.0 ** (q * s) * a_q
        else:
            want = ((1.0 - np.exp(-rho)) / rho) ** (1.0 / rho) \
                * 2.0 ** (q * s) * a_q
        worst_decay = max(worst_decay, abs(tilde - want) / want)

    qs = np.arange(part2d.q_min, part2d.q_max + 1)
    checked = 0
    for i in range(100):
        rng = np.random.default_rng(800 + i)
        tgrid = np.cumsum(rng.uniform(0.01, 1.0, size=17))
        vals = rng.uniform(0.0, 1.0, size=(qs.size, tgrid.size))
        series = BlockNormSeries(qs, tgrid, vals, 2.0)
        for r, rho in ((1.0, INF), (INF, 1.0), (2.0, 2.0)):
            idx = CheminLernerIndex(rho, BesovIndex(0.25, 2.0, r))
            tilde, plain = minkowski_compare(series, idx)  # raises on violation
            scale = max(tilde, plain)
            if r < rho:
                assert tilde >= plain - 1e-12 * scale
            elif r > rho:
                assert tilde <= plain + 1e-12 * scale
            else:
                assert abs(tilde - plain) <= 1e-10 * scale
            checked += 1
    ok = worst_const < 1e-10 and worst_decay < 1e-6 and checked == 300
    _report(6, "time-mixed norms: closed forms and Minkowski ordering",
            ok, f"const {worst_const:.1e}, decay {worst_decay:.1e}, "
                f"{checked} orderings")


# -- 7: critical-scaling identity -----------------------------------------------------

def test_criterion_07_scaling(grid2d, part2d, grid3d_mid):
    cases = []
    part3d = build_partition(grid3d_mid)
    for grid, part, k_max, q_single in ((grid2d, part2d, 8, 1),
                                        (grid3d_mid, part3d, 4, 1)):
        dim = grid.dim
        rng = np.random.default_rng(900 + dim)
        multi = random_trig_field(grid, rng, n_modes=12, k_max=k_max)
        single = block_project(random_trig_field(grid, rng, k_max=k_max),
                               q_single, part)
        for s, label in ((dim / 2.0 - 1.0, "u"), (dim / 2.0, "tau")):
            for f, kind in ((single, "single"), (multi, "multi")):
                before, after = scaling_check(f, 1, s, part=part, tol=1e-10)
                rel = abs(before - after) / max(before, 1e-300)
                cases.append((dim, label, kind, rel))
    worst = max(c[-1] for c in cases)
    ok = len(cases) == 8 and worst < 1e-10
    _report(7, "dyadic rescale leaves critical norms invariant (N=2,3)",
            ok, f"8 cases, worst rel dev {worst:.1e}")


# -- 8: fourth-order convergence -------------------------------------------------------

def test_criterion_08_richardson(grid2d):
    u0, tau0, dbar = build_preset("taylor-green", grid2d, eps=1.0)
    cfg = SolverConfig(t_end=0.1)
    finals = []
    for dt in (0.01, 0.005, 0.0025):
        n = round(0.1 / dt)
        assert abs(n * dt - 0.1) < 1e-12
        state = prepare_initial(u0, tau0, dbar)
        for _ in range(n):
            state = step_direct(state, cfg, dt)
        finals.append(state)
    e1 = _l2(finals[0].u.coeffs - finals[1].u.coeffs)
    e2 = _l2(finals[1].u.coeffs - finals[2].u.coeffs)
    ratio = e1 / e2
    ok = 14.0 <= ratio <= 18.0
    _report(8, "Richardson ratio of the direct stepper is 16 +- 2",
            ok, f"ratio {ratio:.2f} (errs {e1:.2e}, {e2:.2e})")


# -- 9: small-data global boundedness ---------------------------------------------------

@pytest.mark.slow
def test_criterion_09_small_data(grid2d, part2d):
    e0 = 1e-3
    u0, tau0, dbar = _scaled_small_data(grid2d, part2d, e0)
    t0 = time.perf_counter()
    traj, report = solve(u0, tau0, dbar, SolverConfig(t_end=10.0), part=part2d)
    elapsed = time.perf_counter() - t0
    assert traj.e[0] == pytest.approx(e0, rel=1e-9)
    peak = float(np.max(traj.e))
    finite = bool(np.all(np.isfinite(report.crit)))
    monotone = bool(np.all(np.diff(report.crit, axis=1) >= -1e-12))
    ok = (traj.blowup is None and peak <= 10.0 * e0
          and finite and monotone and elapsed < 300.0)
    _report(9, "E(t) stays within 10x E0 over T=10; criteria finite, monotone",
            ok, f"peak E/E0 {peak / e0:.3f}, {elapsed:.1f} s")


# -- 10: contraction of the linearizing iteration ----------------------------------------

def test_criterion_10_picard(grid2d, part2d):
    u0, tau0, dbar = _scaled_small_data(grid2d, part2d, 1e-3)
    cfg_p = SolverConfig(t_end=0.5, mode="picard")
    traj_p, rep_p = solve(u0, tau0, dbar, cfg_p, part=part2d)
    traj_d, _ = solve(u0, tau0, dbar, SolverConfig(t_end=0.5), part=part2d)

    tp = np.round(traj_p.times, 9)
    td = np.round(traj_d.times, 9)
    _, ip, idn = np.intersect1d(tp, td, return_indices=True)
    assert ip.size >= 10
    idx0 = BesovIndex(0.0, 2.0, 1.0)
    sup = 0.0
    for i, j in zip(ip, idn):
        diff = SpectralField(grid2d, 1,
                             traj_p.states[i].u.coeffs - traj_d.states[j].u.coeffs)
        sup = max(sup, besov_norm(diff, idx0, part2d))
    ratios_ok = len(rep_p.picard.ratios) > 0 and max(rep_p.picard.ratios) <= 0.5
    ok = (rep_p.picard.converged and len(rep_p.picard.diffs) <= 5
          and ratios_ok and sup < 1e-5)
    _report(10, "Picard iterates contract and match the direct run",
            ok, f"{len(rep_p.picard.diffs)} diffs, worst ratio "
                f"{max(rep_p.picard.ratios):.2e}, sup dist {sup:.2e}")


# -- 11: unit-sphere preservation ----------------------------------------------------------

@pytest.mark.slow
def test_criterion_11_drift():
    grid = Grid(2, 128)
    u0, tau0, dbar = build_preset("single-mode", grid, eps=1e-3)
    cfg = SolverConfig(t_end=1.0, renormalize_director=False)
    t0 = time.perf_counter()
    traj, report = solve(u0, tau0, dbar, cfg)
    elapsed = time.perf_counter() - t0
    drift = float(np.max(traj.drift))
    ok = traj.blowup is None and drift < 1e-5
    _report(11, "director magnitude drift stays below 1e-5 over T=1 at M=128",
            ok, f"max drift {drift:.2e}, {elapsed:.1f} s")


# -- 12: admissibility gate ----------------------------------------------------------------

def test_criterion_12_admissibility():
    margin0 = admissibility_margin(CriterionConfig(rho2=4.0, rho3=4.0), 2)
    margin1 = admissibility_margin(CriterionConfig(rho2=3.0, rho3=3.0), 2)
    ok = (margin0 == 0.0 and not margin0 > 0
          and margin1 == pytest.approx(1.0 / 3.0, rel=1e-12) and margin1 > 0)
    _report(12, "exponent gate rejects margin 0 and accepts margin 1/3",
            ok, f"margins {margin0:.3g}, {margin1:.6g}")
