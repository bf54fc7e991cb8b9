"""Direct and Picard-iteration solvers for the simplified liquid-crystal flow.

State is the pair (u, tau) with u the divergence-free velocity and tau the
deviation of the director field from a fixed unit far-field vector dbar:
d = tau + dbar, |dbar| = 1. The evolution solved here is

    u_t   = mu Lap u - P[ u.grad u + div(grad tau (.) grad tau) ]
    tau_t =     Lap tau - u.grad tau + |grad tau|^2 (tau + dbar)

with P the Leray projector and (grad tau (.) grad tau)_{ij} =
sum_k d_i tau_k d_j tau_k. All products are formed pointwise on the
collocation grid and dealiased. The director force
|grad tau|^2_d (tau + dbar) - u.grad tau is one pointwise expression,
transformed once; |grad tau|^2_d is the dealiased square, so the cubic term
is a product of two dealiased factors and no aliased energy reaches
retained modes. The momentum term is evaluated in divergence form, as
-P[ div(u (x) u + grad tau (.) grad tau) ]: u is solenoidal and dealiased,
so div(u (x) u) = u.grad u exactly on the retained modes, and one symmetric
tensor replaces the transforms of grad u.

Both modes work on the rfft half spectra (last axis M/2 + 1) of the real
fields u and tau, stacked as one state y = (u, tau) of shape
(2, N, M, ..., M/2 + 1): the system is y_t = L y + N(y) with L diagonal.
The solve loops step, check and record on y; States, trajectories and
snapshots keep the full FFT layout of SpectralField, and _half_state
expands a row to a State only where it is recorded or where step_direct
returns one. Both modes use the same heat factors (_make_factors),
exp(-mu |k|^2 dt) for u and exp(-|k|^2 dt) for tau, stacked like y.

The nonlinear term transforms through the grid's Workspace (spectral.py):
reused buffers and real transforms pruned to the 2/3 box, which skip the
FFT lines the box leaves zero and allocate nothing. The shared buffers
make _nonlinear_rhs non-reentrant: a Grid object serves one solve, in one
thread, at a time.

Two integration modes:

* direct: classical RK4 on the Duhamel (integrating-factor) form, so the
  stiff linear heat part is integrated exactly and the scheme reduces to the
  exact semigroup when the nonlinearity vanishes.
* picard: the linearizing iteration used in small-data existence arguments.
  Each iterate solves linear heat problems forced by the previous iterate's
  nonlinear terms, starting from each field's own heat flow; successive
  differences are monitored in the critical norms and their ratios exposed.

The velocity mean is conserved at zero exactly (the projected nonlinearity
has no k = 0 component). The director deviation's mean is allowed to evolve:
the source |grad tau|^2 (tau + dbar) carries a genuine mean component, and
suppressing it would corrupt the unit-sphere constraint on d.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dyadic import DyadicPartition, build_partition, half_block_l2_norms
from .monitor import (CriterionConfig, RunReport, build_report,
                      critical_weights)
from .norms import INF, block_lp_norms
from .spectral import (BlowUpError, Grid, PhysicalField, SpectralField,
                       dealias, divergence, gradient, hermitian_expand,
                       leray_project, read_field, solenoidal_part, to_physical,
                       to_spectral, write_field)

@dataclass
class State:
    """Velocity/director-deviation pair at one instant."""

    u: SpectralField
    tau: SpectralField
    t: float
    dbar: np.ndarray

    def __post_init__(self):
        if self.u.grid != self.tau.grid:
            raise ValueError("u and tau must share a grid")
        if self.u.rank != 1 or self.tau.rank != 1:
            raise ValueError("u and tau must be rank-1 fields")
        self.dbar = np.asarray(self.dbar, dtype=np.float64)
        if self.dbar.shape != (self.u.grid.dim,):
            raise ValueError("dbar must have one entry per dimension")
        if abs(np.linalg.norm(self.dbar) - 1.0) > 1e-12:
            raise ValueError("dbar must be a unit vector")

    @property
    def grid(self) -> Grid:
        return self.u.grid

    def max_divergence(self) -> float:
        return float(np.max(np.abs(divergence(self.u).coeffs)))

    def director(self) -> PhysicalField:
        """Physical director field d = tau + dbar."""
        vals = to_physical(self.tau).values   # a fresh array: add in place
        for i in range(self.grid.dim):
            vals[i] += self.dbar[i]
        return PhysicalField(self.grid, 1, vals)


@dataclass
class SolverConfig:
    """Run parameters for both integration modes."""

    t_end: float = 1.0
    dt: float | None = None          # None: use the stability rule
    mu: float = 1.0                  # viscosity
    mode: str = "direct"             # "direct" or "picard"
    report_stride: int | None = None  # steps between recorded rows
    blowup_factor: float = 1e6       # abort when E(t) > factor * E(0)
    # put |d| back to 1 after each step; the final dealias gives back part
    # of the correction, so drift falls only 4-33% (random-band, M = 32)
    renormalize_director: bool = False
    picard_tol: float = 1e-10
    picard_max_iter: int = 12

    def __post_init__(self):
        if self.mode not in ("direct", "picard"):
            raise ValueError(f"mode must be 'direct' or 'picard', got {self.mode}")
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if self.report_stride is not None and not (
                isinstance(self.report_stride, int) and self.report_stride > 0):
            raise ValueError("report_stride must be a positive integer")
        if not self.blowup_factor > 0:
            raise ValueError("blowup_factor must be positive")
        if not (isinstance(self.picard_max_iter, int) and self.picard_max_iter > 0):
            raise ValueError("picard_max_iter must be a positive integer")
        if not self.picard_tol >= 0:
            raise ValueError("picard_tol must be nonnegative")


def heat_propagate(f: SpectralField, coef: float, dt: float) -> SpectralField:
    """Exact heat semigroup: multiply each mode by exp(-coef |k|^2 dt)."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    if coef < 0:
        raise ValueError("coef must be nonnegative")
    return SpectralField(f.grid, f.rank,
                         f.coeffs * np.exp(-coef * f.grid.k_squared * dt))


# ---------------------------------------------------------------------------
# Nonlinear right-hand sides (heat parts excluded; handled by the propagator)
# ---------------------------------------------------------------------------

def _nonlinear_rhs(y: np.ndarray, dbar: np.ndarray, grid: Grid) -> np.ndarray:
    """Both nonlinear terms on the rfft half spectrum, with batched transforms.

    y stacks the rfft half spectra of the real fields u and tau, shape
    (2, N, M, ..., M/2 + 1), and so does the result; modes outside the 2/3
    box are ignored, as if y were dealiased first. The momentum force is
    evaluated in divergence form, div(u (x) u + grad tau (.) grad tau):
    for a solenoidal, dealiased u the product u (x) u is alias-free on the
    retained modes and div(u (x) u) = u.grad u there exactly. The symmetric
    tensor is transformed as its N(N+1)/2 distinct entries.

    The director force is one pointwise expression,
    |grad tau|^2_d (tau + dbar) - u.grad tau, formed in physical space and
    transformed once, with |grad tau|^2_d the dealiased square (one
    forward and one inverse transform of a single field), so the cubic
    term is a product of two dealiased factors. Per call that is 2 N + N^2
    + 1 inverse and N (N + 1) / 2 + N + 1 forward field transforms: 9 and
    6 in 2D, 16 and 10 in 3D.

    The transforms are the grid's Workspace transforms pruned to the 2/3
    box, working in its buffers; the result is a fresh array. The shared
    buffers make this function non-reentrant.
    """
    dim, band = grid.dim, grid.dealias_band
    ws = grid.workspace
    ik = ws.ik
    hshape = y.shape[2:]
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    n_sym = len(pairs)

    # the band transforms need inputs that vanish outside the 2/3 box
    batch = ws.spec
    np.multiply(y, ws.mask, out=batch[:2 * dim].reshape(y.shape))
    np.multiply(ik[:, None], batch[None, dim:2 * dim],  # (i, k): d_i tau_k
                out=batch[2 * dim:].reshape((dim, dim) + hshape))
    phys = ws.band_irfft(batch, band, out=ws.phys)
    u_p, tau_p = phys[:2 * dim].reshape((2, dim) + grid.shape)
    gt_p = phys[2 * dim:].reshape((dim, dim) + grid.shape)

    # fwd holds the symmetric tensor (row table[i, j] the (i, j) entry),
    # then the director force, then |grad tau|^2
    table = np.empty((dim, dim), dtype=np.intp)
    fwd = ws.prod
    for e, (i, j) in enumerate(pairs):
        table[i, j] = table[j, i] = e
        np.einsum("k...,k...->...", gt_p[i], gt_p[j], out=fwd[e])
        fwd[e] += u_p[i] * u_p[j]
    adv = fwd[n_sym:n_sym + dim]
    np.einsum("i...,ik...->k...", u_p, gt_p, out=adv)
    np.einsum("ik...,ik...->...", gt_p, gt_p, out=fwd[-1])

    # |grad tau|^2 dealiased: forward into the batch's (spent) first slot
    # and back into u_p's first slot, free now that u_p is used
    ws.band_rfft(fwd[-1:], band, out=batch[:1])
    grad_sq_d = ws.band_irfft(batch[:1], band, out=phys[:1])[0]
    tau_p += dbar.reshape((dim,) + (1,) * dim)
    tau_p *= grad_sq_d
    np.subtract(tau_p, adv, out=adv)
    spec = ws.band_rfft(fwd[:n_sym + dim], band, out=batch[:n_sym + dim])
    sym_h = spec[:n_sym]

    # velocity: -P[ div(u (x) u + grad tau (.) grad tau) ], summed over i in
    # place rather than through a gathered copy of the tensor
    rhs = np.empty_like(y)
    force = rhs[0]
    for j in range(dim):
        np.multiply(ik[0], sym_h[table[0, j]], out=force[j])
        for i in range(1, dim):
            force[j] += ik[i] * sym_h[table[i, j]]
    np.negative(solenoidal_part(force, ws.k, ws.k2), out=force)
    rhs[1] = spec[n_sym:]
    return rhs


def nonlinear_rhs(state: State) -> tuple[SpectralField, SpectralField]:
    """The velocity and director nonlinear terms, dealiased:

    -P[u.grad u + div(grad tau (.) grad tau)] and
    -u.grad tau + |grad tau|^2 (tau + dbar),

    for a state whose u is solenoidal and whose u and tau are dealiased (as
    prepare_initial and every step leave them): modes of u or tau outside
    the 2/3 box are ignored. The momentum term is evaluated in divergence
    form. Like _nonlinear_rhs, this is non-reentrant on one Grid.
    """
    grid = state.grid
    rhs = _nonlinear_rhs(_half_pair(state), state.dbar, grid)
    return tuple(SpectralField(grid, 1, hermitian_expand(f, grid.dim, grid.points))
                 for f in rhs)


def stable_dt(state: State) -> float:
    """Conservative step bound for the explicit nonlinear terms.

    dt <= min( 0.5 / (max|u| k_max), 0.25 / (k_max^2 max(1, ||grad tau||_inf)) )
    with k_max the dealiasing cutoff frequency.
    """
    k_max = state.grid.dealias_cutoff
    u_max = float(np.max(to_physical(state.u).magnitude()))
    g_max = float(np.max(to_physical(gradient(state.tau)).magnitude()))
    advective = math.inf if u_max == 0.0 else 0.5 / (u_max * k_max)
    director = 0.25 / (k_max ** 2 * max(1.0, g_max))
    return min(advective, director)


@dataclass
class _StepFactors:
    e: np.ndarray         # exp(-L dt) in y's layout, (2, 1, M, ..., M/2 + 1)
    e_half: np.ndarray    # exp(-L dt / 2)
    dt: float


def _make_factors(grid: Grid, mu: float, dt: float) -> _StepFactors:
    """Heat factors on the rfft half spectrum, shaped to broadcast over y."""
    k2 = grid.k_squared[grid.half]
    coef = np.array([mu, 1.0]).reshape((2, 1) + (1,) * grid.dim)
    return _StepFactors(e=np.exp(-coef * k2 * dt),
                        e_half=np.exp(-coef * k2 * (dt / 2.0)), dt=dt)


def _half_pair(state: State) -> np.ndarray:
    """The pair y of a State: its u and tau rfft half spectra, stacked."""
    return np.stack([f.coeffs[state.grid.half] for f in (state.u, state.tau)])


def _half_state(y, t: float, dbar: np.ndarray, grid: Grid) -> State:
    """The full-layout State of the pair of rfft half spectra y = (u_h, tau_h)."""
    u, tau = (SpectralField(grid, 1, hermitian_expand(f, grid.dim, grid.points))
              for f in y)
    return State(u, tau, t, dbar)


def _step_core(y: np.ndarray, dbar: np.ndarray, grid: Grid,
               factors: _StepFactors, renormalize: bool) -> np.ndarray:
    """One integrating-factor RK4 step of the pair y = (u, tau) of half spectra.

    With w = exp(-tL) y the system becomes w' = exp(-tL) N(exp(tL) w);
    classical RK4 on w gives, back in y variables,

        F1 = N(y)                     F2 = N(E_h (y + dt/2 F1))
        F3 = N(E_h y + dt/2 F2)       F4 = N(E y + dt E_h F3)
        y+ = E y + dt/6 (E F1 + 2 E_h (F2 + F3) + F4)

    where E, E_h are the full/half-step heat factors and N is
    _nonlinear_rhs, the system being autonomous. The pure heat limit
    (N = 0) is exact.

    Everything runs on the half spectrum, renormalize included, and the
    result is the pair one step of factors.dt later.
    """
    dt, e, e_half = factors.dt, factors.e, factors.e_half
    # the combine E F1 + 2 E_h (F2 + F3) + F4 is summed, in that order and
    # in place, as the stages arrive, so each stage is dropped once used
    f1 = _nonlinear_rhs(y, dbar, grid)
    f2 = _nonlinear_rhs(e_half * (y + 0.5 * dt * f1), dbar, grid)
    comb = e * f1
    del f1
    f3 = _nonlinear_rhs(e_half * y + 0.5 * dt * f2, dbar, grid)
    y4 = e * y
    y4 += dt * e_half * f3
    f2 += f3
    comb += 2.0 * e_half * f2
    del f2, f3
    comb += _nonlinear_rhs(y4, dbar, grid)
    del y4

    y_new = e * y + (dt / 6.0) * comb
    # keep div u = 0 against drift
    ws = grid.workspace
    y_new[0] = solenoidal_part(y_new[0], ws.k, ws.k2)
    if renormalize:
        y_new[1] = _renormalize(y_new[1], dbar, grid)
    return y_new


def _renormalize(tau_h: np.ndarray, dbar: np.ndarray, grid: Grid) -> np.ndarray:
    """Put d = tau + dbar back on the unit sphere pointwise; returns the
    dealiased half spectrum of the new tau."""
    axes = tuple(range(-grid.dim, 0))
    shift = dbar.reshape((grid.dim,) + (1,) * grid.dim)
    d = np.fft.irfftn(tau_h, s=grid.shape, axes=axes, norm="forward") + shift
    d /= np.sqrt(np.sum(d ** 2, axis=0))
    d -= shift
    return np.fft.rfftn(d, axes=axes, norm="forward") * grid.workspace.mask


def step_direct(state: State, cfg: SolverConfig, dt: float) -> State:
    """Advance one IF-RK4 step of size dt with the solver's nonlinear terms;
    see _step_core for the scheme. Returns the full-layout State at t + dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = state.grid
    y = _step_core(_half_pair(state), state.dbar, grid,
                   _make_factors(grid, cfg.mu, dt), cfg.renormalize_director)
    return _half_state(y, state.t + dt, state.dbar, grid)


# ---------------------------------------------------------------------------
# Trajectories and the direct solve loop
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Recorded rows of a run: states and per-block norm series."""

    part: DyadicPartition
    times: np.ndarray
    states: list[State]
    u_l2: np.ndarray      # (n_blocks, n_rows)
    u_linf: np.ndarray
    tau_l2: np.ndarray
    tau_linf: np.ndarray
    dt: float
    dbar: np.ndarray
    blowup: BlowUpError | None = None


class _Recorder:
    def __init__(self, part: DyadicPartition):
        self.part = part
        self.times: list[float] = []
        self.states: list[State] = []
        self.cols: dict[str, list[np.ndarray]] = {
            "u_l2": [], "u_linf": [], "tau_l2": [], "tau_linf": []}

    def record(self, state: State,
               l2: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        """Append a row; l2 passes the (u, tau) block L^2 norms if known."""
        if l2 is None:
            l2 = tuple(half_block_l2_norms(f, self.part) for f in _half_pair(state))
        self.times.append(state.t)
        self.states.append(state)
        self.cols["u_l2"].append(l2[0])
        self.cols["u_linf"].append(block_lp_norms(state.u, self.part, INF))
        self.cols["tau_l2"].append(l2[1])
        self.cols["tau_linf"].append(block_lp_norms(state.tau, self.part, INF))

    def build(self, dt: float, dbar: np.ndarray) -> Trajectory:
        def stack(name):
            cols = self.cols[name]
            return (np.stack(cols, axis=1) if cols
                    else np.zeros((self.part.n_blocks, 0)))
        return Trajectory(part=self.part, times=np.asarray(self.times),
                          states=self.states, u_l2=stack("u_l2"),
                          u_linf=stack("u_linf"), tau_l2=stack("tau_l2"),
                          tau_linf=stack("tau_linf"), dt=dt, dbar=dbar)


def prepare_initial(u0: SpectralField, tau0: SpectralField,
                    dbar: np.ndarray) -> State:
    """Dealias, project the velocity and zero its mean; leave tau's mean."""
    u = leray_project(dealias(u0))
    tau = dealias(tau0)
    return State(u, tau, 0.0, dbar)


def _time_grid(state: State, cfg: SolverConfig) -> tuple[float, int]:
    """Step size and step count covering [0, cfg.t_end] in equal steps.

    The step is the stability rule at the given state, capped by cfg.dt,
    then shortened so that a whole number of steps ends exactly at t_end.
    """
    rule = stable_dt(state)
    dt = min(cfg.dt, rule) if cfg.dt is not None else rule
    n_steps = max(1, math.ceil(cfg.t_end / dt - 1e-12))
    return cfg.t_end / n_steps, n_steps


def _recorded_rows(n_steps: int, cfg: SolverConfig, default_rows: int) -> list[int]:
    """Time-grid points 0 .. n_steps to record: every stride-th and the last,
    the stride cfg.report_stride or, if unset, about n_steps / default_rows."""
    stride = cfg.report_stride or max(1, round(n_steps / default_rows))
    rows = list(range(0, n_steps + 1, stride))
    if rows[-1] != n_steps:
        rows.append(n_steps)
    return rows


def solve(u0: SpectralField, tau0: SpectralField, dbar: np.ndarray,
          cfg: SolverConfig, crit: CriterionConfig | None = None,
          part: DyadicPartition | None = None,
          config_echo: dict | None = None) -> tuple[Trajectory, RunReport]:
    """Integrate to cfg.t_end; returns the trajectory and its monitor report.

    Direct mode steps with the integrating-factor RK4 scheme, checking the
    blow-up threshold every step: the run aborts (flagged on trajectory and
    report, with the last valid time and norms) when the critical norm sum
    exceeds cfg.blowup_factor times its initial value or turns non-finite.
    Picard mode delegates to picard_iterate and records the final iterate;
    the report then carries the successive-difference ratios.
    """
    if crit is None:
        crit = CriterionConfig.default_for(u0.grid.dim)
    if cfg.mode == "picard":
        result = picard_iterate(u0, tau0, dbar, cfg, part)
        report = build_report(result.trajectory, crit, picard=result,
                              config_echo=config_echo)
        return result.trajectory, report

    state = prepare_initial(u0, tau0, dbar)
    grid, dbar = state.grid, state.dbar
    if part is None:
        part = build_partition(grid)
    dt, n_steps = _time_grid(state, cfg)
    recorded = set(_recorded_rows(n_steps, cfg, 256))

    w_u, w_tau = critical_weights(part)

    # the E check's block L^2 rows, one call per field, go on to the recorder
    def l2_and_e(y) -> tuple[tuple[np.ndarray, np.ndarray], float]:
        l2 = half_block_l2_norms(y[0], part), half_block_l2_norms(y[1], part)
        return l2, float(w_u @ l2[0] + w_tau @ l2[1])

    y, t = _half_pair(state), state.t
    l2, e0 = l2_and_e(y)
    threshold = cfg.blowup_factor * e0 if e0 > 0 else math.inf

    recorder = _Recorder(part)
    recorder.record(state, l2)
    factors = _make_factors(grid, cfg.mu, dt)
    blowup: BlowUpError | None = None
    for row in range(1, n_steps + 1):
        y = _step_core(y, dbar, grid, factors, cfg.renormalize_director)
        t += dt
        l2, e_now = l2_and_e(y)
        if not math.isfinite(e_now) or e_now > threshold:
            blowup = BlowUpError(
                f"critical norm {e_now:.6g} past threshold {threshold:.6g} "
                f"at t = {t:.6g}", time=t, norms={"E": e_now, "E0": e0})
            if math.isfinite(e_now):
                recorder.record(_half_state(y, t, dbar, grid), l2)
            break
        if row in recorded:
            recorder.record(_half_state(y, t, dbar, grid), l2)

    traj = recorder.build(dt, dbar)
    traj.blowup = blowup
    report = build_report(traj, crit, config_echo=config_echo)
    return traj, report


# ---------------------------------------------------------------------------
# Duhamel quadrature and the Picard iteration
# ---------------------------------------------------------------------------

def duhamel_integral(forcings: Sequence[SpectralField], times: Sequence[float],
                     coef: float) -> SpectralField:
    """int_0^T exp(-coef |k|^2 (T - s)) G(s) ds by trapezoid on the samples.

    Uses the exact per-mode integrating factor between samples, swept
    forward, which is algebraically identical to the weighted trapezoid sum.
    """
    if len(forcings) == 0:
        raise ValueError("empty forcing sequence")
    t = np.asarray(times, dtype=np.float64)
    if t.size != len(forcings):
        raise ValueError("one forcing per time sample required")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise ValueError("time samples must be strictly increasing")
    grid = forcings[0].grid
    k2 = grid.k_squared
    acc = np.zeros_like(forcings[0].coeffs)
    for i in range(t.size - 1):
        h = t[i + 1] - t[i]
        decay = np.exp(-coef * k2 * h)
        acc = decay * (acc + 0.5 * h * forcings[i].coeffs) \
            + 0.5 * h * forcings[i + 1].coeffs
    return SpectralField(grid, forcings[0].rank, acc)


@dataclass
class PicardResult:
    """Outcome of the linearizing iteration."""

    trajectory: Trajectory
    diffs: list[float]
    ratios: list[float]
    converged: bool
    iterations: int


def _traj_from_arrays(times: np.ndarray, u_arr: np.ndarray, tau_arr: np.ndarray,
                      rows: Sequence[int], rec: _Recorder, dt: float,
                      dbar: np.ndarray) -> Trajectory:
    """Record the given rows of half-spectrum iterate arrays into rec and build."""
    for r in rows:
        rec.record(_half_state((u_arr[r], tau_arr[r]), float(times[r]), dbar,
                               rec.part.grid))
    return rec.build(dt, dbar)


def picard_iterate(u0: SpectralField, tau0: SpectralField, dbar: np.ndarray,
                   cfg: SolverConfig,
                   part: DyadicPartition | None = None) -> PicardResult:
    """Run the linearizing iteration on [0, t_end].

    Iterate 1 is each field's heat flow, exp(mu t Lap) u0 and exp(t Lap)
    tau0. Iterate n + 1 solves the same heat problems forced by iterate n's
    nonlinear terms via the trapezoidal Duhamel sweep on the direct-mode
    time grid, with the IF-RK4 step's heat factors. Stops when the
    sup-in-time critical-norm distance between successive iterates falls
    below cfg.picard_tol; reports the successive-difference ratios either
    way.

    The iterate is stored on the rfft half spectrum, one array y_it of
    shape (n_steps + 1, 2, N, M, ..., M/2 + 1) for the whole run, row i the
    pair (u, tau) at time-grid point i. Each sweep overwrites it in place:
    row i + 1 of iterate n is read for its forcing before row i + 1 of
    iterate n + 1 is written there, and the difference of the two rows goes
    to a buffer of min(32, n_steps) rows, which gives that chunk's
    critical-norm distances when full. The new row
    e (y_i + dt/2 f_i) + dt/2 f_{i+1} is formed in place in one work array,
    each forcing scaled by dt/2 once, with one _nonlinear_rhs call per
    time-grid point per sweep. Only the final iterate is recorded,
    and only its recorded rows are expanded to full-layout States; row 0 is
    the data, shared by all iterates, and is recorded as prepare_initial's
    State before the first sweep.
    """
    state0 = prepare_initial(u0, tau0, dbar)
    grid = state0.grid
    if part is None:
        part = build_partition(grid)

    dt, n_steps = _time_grid(state0, cfg)
    times = np.arange(n_steps + 1) * dt
    rows = _recorded_rows(n_steps, cfg, 64)

    e = _make_factors(grid, cfg.mu, dt).e
    w_u, w_tau = critical_weights(part)

    # iterate 1: each field's heat flow
    y_it = np.empty((n_steps + 1, 2, grid.dim) + e.shape[2:], dtype=np.complex128)
    y_it[0] = _half_pair(state0)
    rec = _Recorder(part)
    rec.record(state0)
    for i in range(n_steps):
        y_it[i + 1] = e * y_it[i]

    diffs: list[float] = []
    ratios: list[float] = []
    converged = False
    iterations = 1

    # row i + 1's new - old goes to dy[:, i % n_buf]; per_t[i] is its distance
    n_buf = min(32, n_steps)
    dy = np.empty((2, n_buf) + y_it.shape[2:], dtype=np.complex128)
    per_t = np.empty(n_steps)
    h = 0.5 * dt   # scales each forcing once, as it arrives
    w = np.empty_like(y_it[0])
    for _ in range(cfg.picard_max_iter):
        hf_prev = _nonlinear_rhs(y_it[0], state0.dbar, grid)
        hf_prev *= h
        for i in range(n_steps):
            hf_next = _nonlinear_rhs(y_it[i + 1], state0.dbar, grid)
            hf_next *= h
            np.add(y_it[i], hf_prev, out=w)
            w *= e
            w += hf_next
            j = i % n_buf
            np.subtract(w, y_it[i + 1], out=dy[:, j])
            y_it[i + 1] = w
            if j == n_buf - 1 or i == n_steps - 1:
                per_t[i - j:i + 1] = (
                    half_block_l2_norms(dy[0, :j + 1], part) @ w_u
                    + half_block_l2_norms(dy[1, :j + 1], part) @ w_tau)
            hf_prev = hf_next

        if not np.all(np.isfinite(y_it[-1])):
            raise BlowUpError("non-finite iterate in Picard sweep",
                              time=float(times[-1]))

        diff = float(np.max(per_t))
        diffs.append(diff)
        if len(diffs) >= 2 and diffs[-2] > 0:
            ratios.append(diffs[-1] / diffs[-2])
        iterations += 1
        if diff < cfg.picard_tol:
            converged = True
            break

    del dy   # not alive beside the recorded States
    trajectory = _traj_from_arrays(times, y_it[:, 0], y_it[:, 1], rows[1:], rec,
                                   dt, state0.dbar)
    return PicardResult(trajectory=trajectory, diffs=diffs, ratios=ratios,
                        converged=converged, iterations=iterations)


# ---------------------------------------------------------------------------
# State snapshots: u, tau and the far-field director as three field records
# ---------------------------------------------------------------------------

def save_state(path, state: State) -> None:
    """Write a state snapshot: records for u, tau, and dbar (constant field).

    The records go to a temporary file in the target directory, which then
    replaces path, so a process stopped mid-write never leaves a partial
    snapshot at path (a killed one may leave the temporary). The file is not
    fsynced, so this does not hold across an operating-system crash.
    """
    grid = state.grid
    dbar_vals = np.broadcast_to(
        state.dbar.reshape((grid.dim,) + (1,) * grid.dim),
        (grid.dim,) + grid.shape).copy()
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write_field(fh, to_physical(state.u), state.t)
            write_field(fh, to_physical(state.tau), state.t)
            write_field(fh, PhysicalField(grid, 1, dbar_vals), state.t)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def remove_stale_temporaries(directory) -> None:
    """Delete the .*.blcf.tmp files that save_state calls killed mid-write
    left in directory, if the directory exists."""
    for path in list(Path(directory).glob(".*.blcf.tmp")):
        path.unlink(missing_ok=True)


def load_state(path, period: float | None = None) -> State:
    kwargs = {} if period is None else {"period": period}
    with open(path, "rb") as fh:
        u_p, t = read_field(fh, **kwargs)
        tau_p, _ = read_field(fh, **kwargs)
        dbar_p, _ = read_field(fh, **kwargs)
    flat = dbar_p.flat_components().reshape(dbar_p.grid.dim, -1)
    if np.max(np.ptp(flat, axis=1)) > 1e-12:
        raise ValueError("far-field director record is not constant")
    dbar = flat[:, 0]
    return State(to_spectral(u_p), to_spectral(tau_p), t, dbar)
