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
returns one. Both modes use the same heat factor (_heat_factor),
exp(-mu |k|^2 dt) for u and exp(-|k|^2 dt) for tau, stacked like y, and the
same start (_start) and blow-up threshold (_Recorder.check).

The nonlinear term and the director renormalization transform through the
grid's Workspace (spectral.py): reused buffers and real transforms pruned
to the 2/3 box, which skip the FFT lines the box leaves zero and allocate
nothing. The shared buffers make _nonlinear_rhs and _renormalize
non-reentrant: a Grid object serves one solve, in one thread, at a time.

Two integration modes:

* direct: classical RK4 on the Duhamel (integrating-factor) form, so the
  stiff linear heat part is integrated exactly and the scheme reduces to the
  exact semigroup when the nonlinearity vanishes.
* picard: the linearizing iteration used in small-data existence arguments.
  Each iterate solves linear heat problems forced by the previous iterate's
  nonlinear terms, starting from each field's own heat flow; successive
  differences are monitored in the critical norms and their ratios exposed.
  The sweep's heat factors are exact, so it runs on the output grid, not the
  stability rule's, and refines that grid when a Richardson estimate of its
  quadrature error is above picard_tol.

The velocity mean is conserved at zero exactly (the projected nonlinearity
has no k = 0 component). The director deviation's mean is allowed to evolve:
the source |grad tau|^2 (tau + dbar) carries a genuine mean component, and
suppressing it would corrupt the unit-sphere constraint on d.
"""
from __future__ import annotations

import math
import os
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dyadic import DyadicPartition, build_partition, half_block_l2_norms
from .monitor import (CriterionConfig, RunReport, build_report,
                      critical_weights, state_drift, state_energy)
from .norms import INF, block_lp_norms
from .spectral import (BlowUpError, Grid, PhysicalField, SpectralField,
                       dealias, divergence, gradient, hermitian_expand,
                       leray_project, read_field, solenoidal_part,
                       to_physical, to_spectral, write_field)

MAX_STEPS = 2 ** 31 - 1   # a step rule that asks for more reads as blow-up

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
        vals += self.dbar.reshape((self.grid.dim,) + (1,) * self.grid.dim)
        return PhysicalField(self.grid, 1, vals)


@dataclass
class SolverConfig:
    """Run parameters for both integration modes."""

    t_end: float = 1.0
    dt: float | None = None          # None: use the stability rule
    mu: float = 1.0                  # viscosity
    mode: str = "direct"             # "direct" or "picard"
    # steps between recorded rows; None: every step, or every
    # round(n / 256)-th past the rule's n = 256 steps, on a step count
    # rounded to Picard's coarser grid, whose every point it records
    # (_output_grid)
    report_stride: int | None = None
    blowup_factor: float = 1e6       # abort when E(t) > factor * E(0)
    # direct mode: put |d| back to 1 after each step; the dealias that follows
    # gives back part of it, so final drift falls only 4-33% by T = 0.02 but
    # 450-820x by T = 0.3-0.5 (random-band, M = 32); t = 0's drift stays
    renormalize_director: bool = False
    # absolute, on E-type distances, which scale by 2^(N/2) under l = 2 lifts
    picard_tol: float = 1e-10
    picard_max_iter: int = 12

    def __post_init__(self):
        if self.mode not in ("direct", "picard"):
            raise ValueError(f"mode must be 'direct' or 'picard', got {self.mode}")
        if self.renormalize_director and self.mode == "picard":
            raise ValueError("renormalize_director applies to direct mode only")
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.dt is not None and self.dt < self.t_end / MAX_STEPS:
            raise ValueError(f"dt must be at least t_end / {MAX_STEPS}")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if self.report_stride is not None and not (
                isinstance(self.report_stride, int) and self.report_stride > 0):
            raise ValueError("report_stride must be a positive integer")
        if not 0 < self.blowup_factor < math.inf:
            raise ValueError(f"blowup_factor must be positive and finite, "
                             f"got {self.blowup_factor}")
        if not (isinstance(self.picard_max_iter, int) and self.picard_max_iter > 0):
            raise ValueError("picard_max_iter must be a positive integer")
        if not 0 <= self.picard_tol < math.inf:
            raise ValueError(f"picard_tol must be nonnegative and finite, "
                             f"got {self.picard_tol}")


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
    prepare_initial and every step leave them; other modes are ignored), in
    divergence form: _nonlinear_rhs expanded by _half_state, the solver's
    one expansion of a pair, and like _nonlinear_rhs non-reentrant on a Grid.
    """
    y = _nonlinear_rhs(_half_pair(state), state.dbar, state.grid)
    rhs = _half_state(y, state.t, state.dbar, state.grid)
    return rhs.u, rhs.tau


def stable_dt(state: State) -> float:
    """Conservative step bound for the explicit nonlinear terms.

    dt <= min( 0.5 / (max|u| k_max), 0.25 / (k_max^2 max(1, ||grad tau||_inf)) )
    with k_max the dealiasing cutoff frequency; a non-finite max raises.
    """
    k_max = state.grid.dealias_cutoff
    with np.errstate(over="ignore"):
        u_max = float(np.max(to_physical(state.u).magnitude()))
        g_max = float(np.max(to_physical(gradient(state.tau)).magnitude()))
    for name, value in (("max|u|", u_max), ("max|grad tau|", g_max)):
        if not math.isfinite(value):
            raise BlowUpError(f"{name} = {value} at t = {state.t:.6g}: no "
                              f"stable step", time=state.t)
    advective = math.inf if u_max == 0.0 else 0.5 / (u_max * k_max)
    director = 0.25 / (k_max ** 2 * max(1.0, g_max))
    return min(advective, director)


def _heat_factor(grid: Grid, mu: float, dt: float) -> np.ndarray:
    """exp(-L dt) on the rfft half spectrum, shape (2, 1, M, ..., M/2 + 1)
    to broadcast over y: exp(-mu |k|^2 dt) for u, exp(-|k|^2 dt) for tau."""
    k2 = grid.k_squared[grid.half]
    coef = np.array([mu, 1.0]).reshape((2, 1) + (1,) * grid.dim)
    return np.exp(-coef * k2 * dt)


def _half_pair(state: State) -> np.ndarray:
    """The pair y of a State: its u and tau rfft half spectra, stacked."""
    return np.stack([f.coeffs[state.grid.half] for f in (state.u, state.tau)])


def _half_state(y, t: float, dbar: np.ndarray, grid: Grid) -> State:
    """The full-layout State of the pair of rfft half spectra y = (u_h, tau_h),
    expanded once, as a pair: its u and tau are views of one array."""
    u, tau = hermitian_expand(y, grid.dim, grid.points)
    return State(SpectralField(grid, 1, u), SpectralField(grid, 1, tau), t, dbar)


def _step_core(y: np.ndarray, dbar: np.ndarray, grid: Grid, dt: float,
               e: np.ndarray, e_half: np.ndarray, renormalize: bool) -> np.ndarray:
    """One integrating-factor RK4 step of the pair y = (u, tau) of half spectra.

    With w = exp(-tL) y the system becomes w' = exp(-tL) N(exp(tL) w);
    classical RK4 on w gives, back in y variables,

        F1 = N(y)                     F2 = N(E_h (y + dt/2 F1))
        F3 = N(E_h y + dt/2 F2)       F4 = N(E y + dt E_h F3)
        y+ = E y + dt/6 (E F1 + 2 E_h (F2 + F3) + F4)

    where E = e, E_h = e_half are the heat factors of dt and dt/2 and N is
    _nonlinear_rhs, the system being autonomous. The pure heat limit
    (N = 0) is exact.

    Everything runs on the half spectrum, renormalize included, and the
    result is the pair one step of dt later.
    """
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
    dealiased half spectrum of the new tau, a view of the grid Workspace's
    buffer (copy it out before the next transform). Modes of tau_h outside
    the 2/3 box are ignored, as in _nonlinear_rhs; a step's result has none."""
    ws, dim, band = grid.workspace, grid.dim, grid.dealias_band
    shift = dbar.reshape((dim,) + (1,) * dim)
    spec = np.multiply(tau_h, ws.mask, out=ws.spec[:dim])
    d = ws.band_irfft(spec, band, out=ws.phys[:dim])
    d += shift
    d /= np.sqrt(PhysicalField(grid, 1, d).squared_magnitude())
    d -= shift
    return ws.band_rfft(d, band, out=spec)


def step_direct(state: State, cfg: SolverConfig, dt: float) -> State:
    """Advance one IF-RK4 step of size dt with the solver's nonlinear terms;
    see _step_core for the scheme. Returns the full-layout State at t + dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = state.grid
    y = _step_core(_half_pair(state), state.dbar, grid, dt,
                   _heat_factor(grid, cfg.mu, dt),
                   _heat_factor(grid, cfg.mu, dt / 2.0), cfg.renormalize_director)
    return _half_state(y, state.t + dt, state.dbar, grid)


# ---------------------------------------------------------------------------
# Trajectories and the direct solve loop
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Recorded rows of a run: states, block norm series, E, drift, energy."""

    part: DyadicPartition
    times: np.ndarray
    states: list[State]
    u_l2: np.ndarray      # (n_blocks, n_rows)
    u_linf: np.ndarray
    tau_l2: np.ndarray
    tau_linf: np.ndarray
    e: np.ndarray         # (n_rows,) the E the blow-up rule compared
    drift: np.ndarray     # (n_rows,) monitor.state_drift
    energy: np.ndarray    # (n_rows,) monitor.state_energy
    dt: float
    steps: int = 0        # IF-RK4 steps taken, or Picard time-grid intervals
    blowup: BlowUpError | None = None


class _Recorder:
    """The recorded rows of a run, each measured once as it is recorded, and its
    blow-up check from row 0, the data y0, on: a row whose critical norm sum E
    is non-finite or past blowup_factor times row 0's E0 (E0 > 0) ends the run."""

    def __init__(self, part: DyadicPartition, dbar: np.ndarray, y0,
                 blowup_factor: float):
        self.part = part
        self.dbar = dbar
        self.weights = critical_weights(part)
        self.states: list[State] = []
        self.cols: dict[str, list] = defaultdict(list)   # Trajectory's series
        self.blowup: BlowUpError | None = None
        l2, self.e0 = self._norms(y0)
        self.threshold = blowup_factor * self.e0 if self.e0 > 0 else math.inf
        self.record(y0, 0.0, l2, self.e0)

    def critical_sum(self, l2) -> float:
        """E, the critical norm sum, of a pair's (u, tau) block L^2 rows l2."""
        w_u, w_tau = self.weights
        return float(w_u @ l2[0] + w_tau @ l2[1])

    def _norms(self, y) -> tuple[tuple[np.ndarray, np.ndarray], float]:
        """The (u, tau) block L^2 norms of the pair y, and its E."""
        l2 = tuple(half_block_l2_norms(f, self.part) for f in y)
        return l2, self.critical_sum(l2)

    def check(self, y, t: float, record: bool = True) -> bool:
        """Check the pair y at t against the threshold; record it if asked,
        or if it trips the threshold with a finite E. True ends the run."""
        l2, e_now = self._norms(y)
        past = not (math.isfinite(e_now) and e_now <= self.threshold)
        if past:
            self.blowup = BlowUpError(
                f"critical norm {e_now:.6g} past threshold {self.threshold:.6g} "
                f"at t = {t:.6g}", time=t)
            record = math.isfinite(e_now)
        if record:
            self.record(y, t, l2, e_now)
        return past

    def record(self, y, t: float, l2: tuple[np.ndarray, np.ndarray],
               e: float) -> None:
        """Append the row of the pair y = (u_h, tau_h) at t, given its (u, tau)
        block L^2 norms l2 and its E; the rest is measured on its State."""
        state = _half_state(y, t, self.dbar, self.part.grid)
        self.states.append(state)
        row = {"times": t, "u_l2": l2[0], "tau_l2": l2[1], "e": e,
               "u_linf": block_lp_norms(state.u, self.part, INF),
               "tau_linf": block_lp_norms(state.tau, self.part, INF),
               "drift": state_drift(state), "energy": state_energy(state)}
        for name, value in row.items():
            self.cols[name].append(value)

    def build(self, dt: float, steps: int) -> Trajectory:
        cols = {name: np.stack(c, axis=-1) for name, c in self.cols.items()}
        return Trajectory(part=self.part, states=self.states, dt=dt, steps=steps,
                          blowup=self.blowup, **cols)


def prepare_initial(u0: SpectralField, tau0: SpectralField,
                    dbar: np.ndarray) -> State:
    """Dealias, project the velocity and zero its mean; leave tau's mean."""
    u = leray_project(dealias(u0))
    tau = dealias(tau0)
    return State(u, tau, 0.0, dbar)


def _time_grid(state: State, cfg: SolverConfig) -> int:
    """Step count of the stability rule over [0, cfg.t_end]: the fewest
    equal steps no longer than the rule's step at the given state, capped
    by cfg.dt. A count past MAX_STEPS raises BlowUpError."""
    rule = stable_dt(state)
    dt = min(cfg.dt, rule) if cfg.dt is not None else rule
    steps = cfg.t_end / dt - 1e-12
    if not steps <= MAX_STEPS:
        raise BlowUpError(f"the rule's {steps:.6g} steps pass MAX_STEPS", time=state.t)
    return max(1, math.ceil(steps))


def _start(u0: SpectralField, tau0: SpectralField, dbar: np.ndarray,
           cfg: SolverConfig, part: DyadicPartition | None
           ) -> tuple[np.ndarray, np.ndarray, DyadicPartition, int]:
    """Both modes' start: the prepared data's half-spectrum pair y0, its
    dbar, the partition (built if none is given) and the rule's step count.
    The State is dropped here, so row 0 is recorded from one full copy."""
    state = prepare_initial(u0, tau0, dbar)
    if part is None:
        part = build_partition(state.grid)
    n_rule = _time_grid(state, cfg)
    return _half_pair(state), state.dbar, part, n_rule


def _output_grid(n: int, cfg: SolverConfig) -> tuple[int, int]:
    """The mode's time grid over [0, cfg.t_end], given the rule's step count
    n: its number of equal intervals and its record stride (every
    stride-th point and the last are recorded).

    With report_stride set, direct mode takes n steps and records every
    report_stride-th, and Picard runs ceil(n / report_stride) intervals.
    Unset, one rule serves both: Picard's intervals are p rule steps each,
    p = 4 s past n = 256 steps, s = round(n / 256), and p = round(n / 64)
    (at least 1) up to there; direct mode rounds its step count up to a
    multiple of p and records every s-th step, or every step up to
    n = 256, so every Picard point is a direct row. That adds no step up to
    n = 96, at most 1.33% more steps from 97 to 256 and at most 1.82%
    (n = 385) past it.

    Picard records every point of its grid. The Duhamel sweep's heat
    factors are exact, so its grid follows the output, not the stability
    rule; picard_iterate refines it when its error estimate asks for it.
    """
    if cfg.report_stride is not None:
        s = cfg.report_stride
        return (n, s) if cfg.mode == "direct" else (math.ceil(n / s), 1)
    s = round(n / 256) if n > 256 else 1
    p = 4 * s if n > 256 else max(1, round(n / 64))
    intervals = math.ceil(n / p)
    return (p * intervals, s) if cfg.mode == "direct" else (intervals, 1)


def _recorded_rows(n_steps: int, stride: int) -> list[int]:
    """Time-grid points 0 .. n_steps to record: every stride-th and the last."""
    rows = list(range(0, n_steps + 1, stride))
    if rows[-1] != n_steps:
        rows.append(n_steps)
    return rows


def solve(u0: SpectralField, tau0: SpectralField, dbar: np.ndarray,
          cfg: SolverConfig, crit: CriterionConfig | None = None,
          part: DyadicPartition | None = None) -> tuple[Trajectory, RunReport]:
    """Integrate to cfg.t_end; returns the trajectory and its monitor report.

    Both modes take their time grid and recorded rows from _output_grid.
    Direct mode steps with the integrating-factor RK4 scheme, checking the
    blow-up threshold every step: the run aborts (trajectory.blowup set,
    with the last valid time and norms) when the critical norm sum
    exceeds cfg.blowup_factor times its initial value or turns non-finite.
    Picard mode delegates to picard_iterate, which checks its recorded rows
    the same way; the report's picard field holds the PicardResult.
    """
    if crit is None:
        crit = CriterionConfig.default_for(u0.grid.dim)
    if cfg.mode == "picard":
        result = picard_iterate(u0, tau0, dbar, cfg, part)
        return result.trajectory, build_report(result.trajectory, crit,
                                               picard=result)

    y, dbar, part, n_rule = _start(u0, tau0, dbar, cfg, part)
    grid = part.grid
    n_steps, stride = _output_grid(n_rule, cfg)
    dt = cfg.t_end / n_steps
    recorded = set(_recorded_rows(n_steps, stride))
    recorder = _Recorder(part, dbar, y, cfg.blowup_factor)
    e, e_half = _heat_factor(grid, cfg.mu, dt), _heat_factor(grid, cfg.mu, dt / 2.0)
    t = 0.0
    for row in range(1, n_steps + 1):
        y = _step_core(y, dbar, grid, dt, e, e_half, cfg.renormalize_director)
        t += dt
        if recorder.check(y, t, row in recorded):
            break

    traj = recorder.build(dt, steps=row)
    return traj, build_report(traj, crit)


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
    grids: list[int]                # interval counts tried, in order
    error_estimate: float | None    # the final grid's; None under 2 intervals


def _traj_from_arrays(times: np.ndarray, y_it: np.ndarray, rows: Sequence[int],
                      rec: _Recorder, dt: float) -> Trajectory:
    """Record the given rows of the half-spectrum iterate y_it into rec, as
    views, up to the first that trips its blow-up threshold, and build."""
    for r in rows:
        if rec.check(y_it[r], float(times[r])):
            break
    return rec.build(dt, steps=times.size - 1)


def _sweeps(y0: np.ndarray, rec: _Recorder, cfg: SolverConfig, n_steps: int
            ) -> tuple[np.ndarray, list[float], bool, float | None]:
    """The iteration on n_steps equal intervals: the heat-flow iterate, then
    Duhamel sweeps until the successive distance (rec's critical sum)
    falls below cfg.picard_tol or cfg.picard_max_iter sweeps are made.

    Returns the final iterate y_it, shape (n_steps + 1,) + y0.shape, the
    successive distances, whether they converged, and the last sweep's
    Richardson estimate of its quadrature error (None under 2 intervals).
    """
    dbar, grid = rec.dbar, rec.part.grid
    dt = cfg.t_end / n_steps
    e = _heat_factor(grid, cfg.mu, dt)
    e2 = _heat_factor(grid, cfg.mu, 2.0 * dt)

    def dist(d):   # both rows of the difference in one product, not _norms
        return rec.critical_sum(half_block_l2_norms(d, rec.part))

    # iterate 1: each field's heat flow
    y_it = np.empty((n_steps + 1,) + y0.shape, dtype=np.complex128)
    y_it[0] = y0
    for i in range(n_steps):
        y_it[i + 1] = e * y_it[i]

    diffs: list[float] = []
    # z is the same quadrature on every second point, 2 dt apart; d takes
    # each row's new - old, and at even rows i + 1 its fine - coarse
    h = 0.5 * dt   # scales each forcing once, as it arrives
    w = np.empty_like(y0)
    z = np.empty_like(y0)
    d = np.empty_like(y0)
    for _ in range(cfg.picard_max_iter):
        hf_prev = _nonlinear_rhs(y_it[0], dbar, grid)
        hf_prev *= h
        z[...] = y_it[0]
        step = est = 0.0
        for i in range(n_steps):
            hf_next = _nonlinear_rhs(y_it[i + 1], dbar, grid)
            hf_next *= h
            np.add(y_it[i], hf_prev, out=w)
            w *= e
            w += hf_next
            step = max(step, dist(np.subtract(w, y_it[i + 1], out=d)))
            if i % 2 == 0:
                z += 2.0 * hf_prev
                z *= e2
            else:
                z += 2.0 * hf_next
                est = max(est, dist(np.subtract(w, z, out=d)))
            y_it[i + 1] = w
            hf_prev = hf_next

        if not np.all(np.isfinite(y_it[-1])):
            raise BlowUpError("non-finite iterate in Picard sweep",
                              time=cfg.t_end)
        diffs.append(step)
        if diffs[-1] < cfg.picard_tol:
            break
    converged = diffs[-1] < cfg.picard_tol
    return y_it, diffs, converged, (est / 3.0 if n_steps >= 2 else None)


def picard_iterate(u0: SpectralField, tau0: SpectralField, dbar: np.ndarray,
                   cfg: SolverConfig,
                   part: DyadicPartition | None = None) -> PicardResult:
    """Run the linearizing iteration on [0, t_end].

    Iterate 1 is each field's heat flow, exp(mu t Lap) u0 and exp(t Lap)
    tau0. Iterate n + 1 solves the same heat problems forced by iterate n's
    nonlinear terms via the trapezoidal Duhamel sweep, with the exact heat
    factors of the IF-RK4 step. Stops when the sup-in-time critical-norm
    distance between successive iterates falls below cfg.picard_tol;
    reports the successive-difference ratios either way.

    The sweep runs on its own grid, not the stability rule's: k R equal
    intervals, recording every k-th point, with R from _output_grid and k
    starting at 1. Each sweep also forms the same quadrature on every
    second point, from the forcings it already has, and the Richardson
    estimate (fine - coarse) / 3 of the trapezoid's error, sup over the
    even rows in the sweep's distance. When a converged run's last
    estimate is above cfg.picard_tol, k grows to
    ceil(k sqrt(estimate / picard_tol)), at most ceil(n / R) for the
    rule's n steps, and the iteration restarts from the heat flow; the
    diffs and ratios describe the final grid. A run that does not
    converge is not refined.

    The iterate is stored on the rfft half spectrum, one array y_it of
    shape (n_steps + 1, 2, N, M, ..., M/2 + 1) for the whole run, row i the
    pair (u, tau) at time-grid point i. Each sweep overwrites it in place:
    row i + 1 of iterate n is read for its forcing before row i + 1 of
    iterate n + 1 is written there, and the critical-norm distance of the
    two rows is taken as the new row is formed. The new row
    e (y_i + dt/2 f_i) + dt/2 f_{i+1} is formed in place in one work array,
    each forcing scaled by dt/2 once, with one _nonlinear_rhs call per
    time-grid point per sweep. Only the final iterate is recorded,
    and only its recorded rows are expanded to full-layout States; row 0 is
    the data, shared by all iterates, and is recorded before the first
    sweep.

    The recorded rows meet the direct run's blow-up threshold: the first
    whose critical norm sum is past cfg.blowup_factor times row 0's (if
    positive) ends the trajectory, whose blowup names it; steps stays the
    final grid's interval count. A non-finite sweep raises BlowUpError.
    """
    y0, dbar, part, n_rule = _start(u0, tau0, dbar, cfg, part)
    intervals = _output_grid(n_rule, cfg)[0]
    k_max = math.ceil(n_rule / intervals)
    rec = _Recorder(part, dbar, y0, cfg.blowup_factor)

    k = 1
    grids: list[int] = []
    while True:
        n_steps = k * intervals
        grids.append(n_steps)
        y_it, diffs, converged, est = _sweeps(y0, rec, cfg, n_steps)
        if not converged or est is None or est <= cfg.picard_tol or k == k_max:
            break
        del y_it   # not alive beside the next grid's iterate
        k = min(k_max, math.ceil(k * math.sqrt(est / cfg.picard_tol)))

    ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0]
    times = np.arange(n_steps + 1) * (cfg.t_end / n_steps)
    trajectory = _traj_from_arrays(times, y_it, _recorded_rows(n_steps, k)[1:],
                                   rec, cfg.t_end / n_steps)
    return PicardResult(trajectory=trajectory, diffs=diffs, ratios=ratios,
                        converged=converged, grids=grids, error_estimate=est)


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
    dbar_vals = np.broadcast_to(   # read-only: write_field makes the one copy
        state.dbar.reshape((grid.dim,) + (1,) * grid.dim), (grid.dim,) + grid.shape)
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


def load_state(path) -> State:
    with open(path, "rb") as fh:
        (u_p, t), (tau_p, t_tau), (dbar_p, t_dbar) = (read_field(fh)
                                                      for _ in range(3))
    if dbar_p.rank != 1 or dbar_p.grid != u_p.grid:
        raise ValueError("far-field director record is not a vector field "
                         "on the velocity's grid")
    if not t == t_tau == t_dbar:
        raise ValueError(f"snapshot records disagree on the time: "
                         f"{t}, {t_tau}, {t_dbar}")
    flat = dbar_p.flat_components().reshape(dbar_p.grid.dim, -1)
    if np.max(np.ptp(flat, axis=1)) > 1e-12:
        raise ValueError("far-field director record is not constant")
    dbar = flat[:, 0]
    return State(to_spectral(u_p), to_spectral(tau_p), t, dbar)
