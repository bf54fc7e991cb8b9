"""Run diagnostics: criterion norms, admissibility, scaling checks, exports.

The monitored quantities are the three time-mixed norms

    crit1 = ||u||   over [t0,t] with exponent rho1 in B^(-1+2/rho1)_{inf,inf}
    crit2 = ||tau|| over [t0,t] with exponent rho2 in B^(2/rho2)_{inf,inf}
    crit3 = ||tau|| over [t0,t] with exponent rho3 in B^(N/2+2/rho3)_{2,inf}

with t0 the run's start, each of which must stay finite for the solution
to continue. The exponent triple is admissible when every rho_i lies in the
open interval (2, inf) and the margin N/2 + 2/rho2 + 2/rho3 - 2 is strictly
positive. All B_{inf,inf} semi-norms are computed over the grid-resolvable
block range and flagged as truncated in exported summaries.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .dyadic import DyadicPartition
from .norms import (INF, BesovIndex, CheminLernerIndex, besov_norm,
                    block_weights, running_chemin_lerner_norm)
from .spectral import SpectralField

CRITERION_NAMES = ("crit1", "crit2", "crit3")


class ScalingCheckError(RuntimeError):
    """Discrete rescale failed to preserve the critical norm."""


@dataclass(frozen=True)
class CriterionConfig:
    """Integrability exponents of the three criterion norms.

    Each exponent must lie strictly inside (2, inf).
    """

    rho1: float = 4.0
    rho2: float = 4.0
    rho3: float = 4.0

    def __post_init__(self):
        for name in ("rho1", "rho2", "rho3"):
            val = getattr(self, name)
            if not (2.0 < val < INF):
                raise ValueError(f"{name} must lie in (2, inf), got {val}")

    @classmethod
    def default_for(cls, dim: int) -> "CriterionConfig":
        if dim == 2:
            return cls(rho1=4.0, rho2=3.0, rho3=3.0)
        return cls(rho1=4.0, rho2=4.0, rho3=4.0)


def admissibility_margin(cfg: CriterionConfig, dim: int) -> float:
    """N/2 + 2/rho2 + 2/rho3 - 2; must be strictly positive."""
    return dim / 2.0 + 2.0 / cfg.rho2 + 2.0 / cfg.rho3 - 2.0


def critical_indices(dim: int) -> tuple[BesovIndex, BesovIndex]:
    """Critical indices: B^{N/2-1}_{2,1} for u and B^{N/2}_{2,1} for tau."""
    return (BesovIndex(dim / 2.0 - 1.0, 2.0, 1.0),
            BesovIndex(dim / 2.0, 2.0, 1.0))


def critical_weights(part: DyadicPartition) -> tuple[np.ndarray, np.ndarray]:
    """Block weights 2^(q s) of the critical indices of u and tau.

    E = w_u @ ||Delta_q u||_{L^2} + w_tau @ ||Delta_q tau||_{L^2} is the
    critical norm sum.
    """
    return tuple(block_weights(part.q_range, idx.s)
                 for idx in critical_indices(part.grid.dim))


def criterion_indices(cfg: CriterionConfig,
                      dim: int) -> tuple[CheminLernerIndex, ...]:
    return (
        CheminLernerIndex(cfg.rho1, BesovIndex(-1.0 + 2.0 / cfg.rho1, INF, INF)),
        CheminLernerIndex(cfg.rho2, BesovIndex(2.0 / cfg.rho2, INF, INF)),
        CheminLernerIndex(cfg.rho3, BesovIndex(dim / 2.0 + 2.0 / cfg.rho3,
                                               2.0, INF)),
    )


def criterion_norms(traj, cfg: CriterionConfig) -> np.ndarray:
    """The three criterion norms over [t0, t] at every recorded row t.

    Returns a (3, n_rows) array, one running pass per norm over the rows'
    block norms (traj.u_linf, traj.tau_linf, traj.tau_l2); (3, 0) for a
    trajectory without rows.
    """
    qs, indices = traj.part.q_range, criterion_indices(cfg, traj.part.grid.dim)
    values = (traj.u_linf, traj.tau_linf, traj.tau_l2)
    return np.stack([running_chemin_lerner_norm(v, qs, traj.times, idx)
                     for v, idx in zip(values, indices)])


def state_drift(state) -> float:
    """Max over grid points of | |tau + dbar| - 1 |."""
    mag = state.director().magnitude()
    return float(np.max(np.abs(mag - 1.0)))


def state_energy(state) -> float:
    """(1/2)||u||_{L^2}^2 + (1/2)||grad d||_{L^2}^2 (grad d = grad tau).

    By Parseval ||grad tau||^2 = sum_k |k|^2 |tau_hat(k)|^2, with |k|^2 from
    the derivative wavenumbers (Nyquist zeroed, as gradient() does), so the
    gradient field is never built.
    """
    u_sq = float(np.sum(np.abs(state.u.flat_components()) ** 2))
    tau_sq = np.abs(state.tau.flat_components()) ** 2
    g_sq = float(np.sum(state.grid.deriv_k_squared * tau_sq))
    return 0.5 * u_sq + 0.5 * g_sq


# ---------------------------------------------------------------------------
# Discrete critical-scaling check
# ---------------------------------------------------------------------------

def dyadic_rescale(f: SpectralField, lambda_exp: int, s: float) -> SpectralField:
    """Shift every mode k -> 2^lambda_exp k with amplitude factor 2^(-lambda_exp s).

    This is the discrete form of u -> lambda u(lambda x) at critical index s
    with the change-of-variables Jacobian made explicit: block q moves to
    q + lambda_exp and 2^(qs)-weighted block norms are unchanged. Raises if
    any populated mode would leave the dealiased band (the shift must keep
    all blocks inside the resolvable range).
    """
    if lambda_exp < 1:
        raise ValueError("lambda_exp must be a positive integer")
    lam = 2 ** lambda_exp
    grid = f.grid
    band, freqs = grid.dealias_band, grid.int_freqs
    flat = f.flat_components()
    leaves = np.any(flat != 0, axis=0) & (lam * grid.box_radius > band)
    if leaves.any():   # the first such mode in C order
        k = freqs[list(np.unravel_index(np.argmax(leaves), leaves.shape))]
        raise ValueError(
            f"rescale pushes mode {tuple(k.tolist())} to "
            f"{tuple((lam * k).tolist())}, outside "
            f"the dealiased band (|k_i| <= {band})")
    # the kept box lam |k_i| <= band moves to lam k mod M in one gather
    src = np.flatnonzero(lam * np.abs(freqs) <= band)
    dst = (lam * freqs[src]) % grid.points
    out = np.zeros_like(flat)
    out[(slice(None),) + np.ix_(*[dst] * grid.dim)] = \
        flat[(slice(None),) + np.ix_(*[src] * grid.dim)]
    out = out.reshape(f.coeffs.shape) * (2.0 ** (-lambda_exp * s))
    return SpectralField(grid, f.rank, out)


def scaling_check(f: SpectralField, lambda_exp: int, s: float,
                  part: DyadicPartition,
                  tol: float = 1e-10) -> tuple[float, float]:
    """Assert invariance of the B^s_{2,1} norm under the discrete rescale.

    Returns (original, rescaled) norms; raises ScalingCheckError if they
    disagree in relative terms beyond tol, or if either is NaN.
    """
    idx = BesovIndex(s, 2.0, 1.0)
    before = besov_norm(f, idx, part)
    after = besov_norm(dyadic_rescale(f, lambda_exp, s), idx, part)
    scale = max(before, after, 1e-300)
    if not abs(before - after) <= tol * scale:
        raise ScalingCheckError(
            f"norm not invariant under dyadic rescale: {before!r} -> {after!r}")
    return before, after


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    """The cross-row results of one run beside its trajectory, which holds
    the per-row series (E, drift, energy)."""

    trajectory: Any             # the run's solver.Trajectory
    crit: np.ndarray            # (3, n_rows)
    criterion_config: CriterionConfig
    fastest_growing: str | None = None
    picard: Any = None          # the run's solver.PicardResult, Picard mode only


def build_report(traj, crit_cfg: CriterionConfig, picard=None) -> RunReport:
    """The results that span a recorded trajectory's rows, from its block
    norm series alone (no State is read).

    Criterion norms are cumulative over [t0, t]. On blow-up the fastest
    growing criterion over the final recorded interval is identified; a
    blow-up with one recorded row has no interval and names none.
    """
    crit = criterion_norms(traj, crit_cfg)
    fastest = None
    if traj.blowup is not None and traj.times.size >= 2:
        prev = np.maximum(crit[:, -2], 1e-300)
        growth = (crit[:, -1] - crit[:, -2]) / prev
        fastest = CRITERION_NAMES[int(np.argmax(growth))]
    return RunReport(trajectory=traj, crit=crit, criterion_config=crit_cfg,
                     fastest_growing=fastest, picard=picard)


def export_series(report: RunReport, out_dir,
                  config: dict[str, Any]) -> tuple[Path, Path]:
    """Write report.csv and summary.json under out_dir; returns both paths.

    config is the run's settings, echoed into summary.json. E, drift and
    energy are the trajectory's, as recorded; the blowup_flag column marks
    the last row of a run that ended in blow-up.
    """
    traj = report.trajectory
    times, blowup, n_rows = traj.times, traj.blowup, traj.times.size
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "report.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "E", "crit1", "crit2", "crit3", "drift",
                         "energy", "blowup_flag"])
        for j in range(n_rows):
            numbers = (times[j], traj.e[j], *report.crit[:, j], traj.drift[j],
                       traj.energy[j])
            writer.writerow([f"{x:.12g}" for x in numbers]
                            + [int(blowup is not None and j == n_rows - 1)])

    crit_cfg = report.criterion_config
    summary: dict[str, Any] = {
        "q_range": [traj.part.q_min, traj.part.q_max],
        "block_range_truncated": True,
        "E0": float(traj.e[0]) if n_rows else 0.0,
        "criterion_exponents": [crit_cfg.rho1, crit_cfg.rho2, crit_cfg.rho3],
        "admissibility_margin": admissibility_margin(crit_cfg,
                                                     traj.part.grid.dim),
        "rows": n_rows,
        "dt": traj.dt,
        "steps": traj.steps,
        "config": config,
    }
    if n_rows:
        summary["final"] = {
            "t": float(times[-1]),
            "E": float(traj.e[-1]),
            "crit": [float(x) for x in report.crit[:, -1]],
            "drift": float(traj.drift[-1]),
            "energy": float(traj.energy[-1]),
        }
    summary["blowup"] = {
        "detected": blowup is not None,
        "time": blowup.time if blowup is not None else None,
        "fastest_growing_criterion": report.fastest_growing,
    }
    pic = report.picard
    if pic is not None:
        summary["picard"] = {
            "converged": pic.converged,
            "diffs": pic.diffs,
            "contraction_ratios": pic.ratios,
            "grids": pic.grids,
            "error_estimate": pic.error_estimate,
        }
    json_path = out / "summary.json"
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return csv_path, json_path
