"""Run diagnostics: criterion norms, admissibility, scaling checks, exports.

The monitored quantities are the three time-mixed norms

    crit1 = ||u||   over [0,t] with exponent rho1 in B^(-1+2/rho1)_{inf,inf}
    crit2 = ||tau|| over [0,t] with exponent rho2 in B^(2/rho2)_{inf,inf}
    crit3 = ||tau|| over [0,t] with exponent rho3 in B^(N/2+2/rho3)_{2,inf}

each of which must stay finite for the solution to continue. The exponent
triple is admissible when every rho_i lies in the open interval (2, inf) and
the margin N/2 + 2/rho2 + 2/rho3 - 2 is strictly positive. All B_{inf,inf}
semi-norms are computed over the grid-resolvable block range and flagged as
truncated in exported summaries.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .dyadic import DyadicPartition, build_partition
from .norms import (INF, BesovIndex, CheminLernerIndex, besov_norm,
                    running_chemin_lerner_norm)
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


def criterion_admissible(cfg: CriterionConfig, dim: int) -> tuple[float, bool]:
    margin = admissibility_margin(cfg, dim)
    return margin, margin > 0.0


def critical_indices(dim: int) -> tuple[BesovIndex, BesovIndex]:
    """Critical indices: B^{N/2-1}_{2,1} for u and B^{N/2}_{2,1} for tau."""
    return (BesovIndex(dim / 2.0 - 1.0, 2.0, 1.0),
            BesovIndex(dim / 2.0, 2.0, 1.0))


def critical_weights(part: DyadicPartition) -> tuple[np.ndarray, np.ndarray]:
    """Block weights 2^(q s) of the critical indices of u and tau.

    E = w_u @ ||Delta_q u||_{L^2} + w_tau @ ||Delta_q tau||_{L^2} is the
    critical norm sum.
    """
    qs = np.arange(part.q_min, part.q_max + 1)
    idx_u, idx_tau = critical_indices(part.grid.dim)
    return 2.0 ** (idx_u.s * qs), 2.0 ** (idx_tau.s * qs)


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
    qs = np.arange(traj.part.q_min, traj.part.q_max + 1)
    indices = criterion_indices(cfg, traj.part.grid.dim)
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
    band = grid.dealias_band
    flat = f.flat_components()
    out = np.zeros_like(f.coeffs).reshape(flat.shape)
    freqs = grid.int_freqs
    nz = np.argwhere(np.any(np.abs(flat) > 0, axis=0))
    for idx in nz:
        k = freqs[idx]
        target = lam * k
        if np.any(np.abs(target) > band):
            raise ValueError(
                f"rescale pushes mode {tuple(k.tolist())} to "
                f"{tuple(target.tolist())}, outside "
                f"the dealiased band (|k_i| <= {band})")
        tgt_idx = tuple(int(t) % grid.points for t in target)
        out[(slice(None),) + tgt_idx] = flat[(slice(None),) + tuple(idx)]
    out = out.reshape(f.coeffs.shape) * (2.0 ** (-lambda_exp * s))
    return SpectralField(grid, f.rank, out)


def scaling_check(f: SpectralField, lambda_exp: int, s: float,
                  part: DyadicPartition | None = None,
                  tol: float = 1e-10) -> tuple[float, float]:
    """Assert invariance of the B^s_{2,1} norm under the discrete rescale.

    Returns (original, rescaled) norms; raises ScalingCheckError if they
    disagree in relative terms beyond tol.
    """
    if part is None:
        part = build_partition(f.grid)
    idx = BesovIndex(s, 2.0, 1.0)
    before = besov_norm(f, idx, part)
    after = besov_norm(dyadic_rescale(f, lambda_exp, s), idx, part)
    scale = max(before, after, 1e-300)
    if abs(before - after) > tol * scale:
        raise ScalingCheckError(
            f"norm not invariant under dyadic rescale: {before!r} -> {after!r}")
    return before, after


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    """Per-row monitor series plus summary metadata for one run."""

    times: np.ndarray
    e_values: np.ndarray
    crit: np.ndarray            # (3, n_rows)
    drift: np.ndarray
    energy: np.ndarray
    blowup_flag: np.ndarray     # 0/1 per row
    q_min: int
    q_max: int
    e0: float
    admissibility: float
    criterion_config: CriterionConfig
    blowup_time: float | None = None
    fastest_growing: str | None = None
    picard_diffs: list[float] = field(default_factory=list)
    picard_ratios: list[float] = field(default_factory=list)
    picard_converged: bool | None = None
    config_echo: dict[str, Any] = field(default_factory=dict)


def build_report(traj, crit_cfg: CriterionConfig,
                 picard=None, config_echo: dict[str, Any] | None = None) -> RunReport:
    """Assemble the monitor series for a recorded trajectory.

    E(t) is the critical norm sum ||u||_{B^(N/2-1)_{2,1}} + ||tau||_{B^(N/2)_{2,1}};
    criterion norms are cumulative over [t0, t]. On blow-up the fastest
    growing criterion over the final recorded interval is identified.
    """
    part: DyadicPartition = traj.part
    dim = part.grid.dim
    w_u, w_tau = critical_weights(part)
    e_values = w_u @ traj.u_l2 + w_tau @ traj.tau_l2

    n_rows = traj.times.size
    crit = criterion_norms(traj, crit_cfg)

    drift = np.asarray([state_drift(s) for s in traj.states])
    energy = np.asarray([state_energy(s) for s in traj.states])

    blowup = getattr(traj, "blowup", None)
    flags = np.zeros(n_rows, dtype=np.int64)
    blowup_time = None
    fastest = None
    if blowup is not None:
        flags[-1] = 1
        blowup_time = blowup.time
        if n_rows >= 2:
            prev = np.maximum(crit[:, -2], 1e-300)
            growth = (crit[:, -1] - crit[:, -2]) / prev
            fastest = CRITERION_NAMES[int(np.argmax(growth))]
        else:
            fastest = CRITERION_NAMES[int(np.argmax(crit[:, -1]))]

    margin = admissibility_margin(crit_cfg, dim)
    report = RunReport(
        times=traj.times, e_values=np.asarray(e_values), crit=crit,
        drift=drift, energy=energy, blowup_flag=flags,
        q_min=part.q_min, q_max=part.q_max,
        e0=float(e_values[0]) if n_rows else 0.0,
        admissibility=margin, criterion_config=crit_cfg,
        blowup_time=blowup_time, fastest_growing=fastest,
        config_echo=dict(config_echo or {}))
    if picard is not None:
        report.picard_diffs = list(picard.diffs)
        report.picard_ratios = list(picard.ratios)
        report.picard_converged = picard.converged
    return report


def export_series(report: RunReport, out_dir) -> tuple[Path, Path]:
    """Write report.csv and summary.json under out_dir; returns both paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "report.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "E", "crit1", "crit2", "crit3", "drift",
                         "energy", "blowup_flag"])
        for j in range(report.times.size):
            writer.writerow([
                f"{report.times[j]:.12g}", f"{report.e_values[j]:.12g}",
                f"{report.crit[0, j]:.12g}", f"{report.crit[1, j]:.12g}",
                f"{report.crit[2, j]:.12g}", f"{report.drift[j]:.12g}",
                f"{report.energy[j]:.12g}", int(report.blowup_flag[j]),
            ])

    summary: dict[str, Any] = {
        "q_range": [report.q_min, report.q_max],
        "block_range_truncated": True,
        "E0": report.e0,
        "criterion_exponents": [report.criterion_config.rho1,
                                report.criterion_config.rho2,
                                report.criterion_config.rho3],
        "admissibility_margin": report.admissibility,
        "rows": int(report.times.size),
        "config": report.config_echo,
    }
    if report.times.size:
        summary["final"] = {
            "t": float(report.times[-1]),
            "E": float(report.e_values[-1]),
            "crit": [float(x) for x in report.crit[:, -1]],
            "drift": float(report.drift[-1]),
            "energy": float(report.energy[-1]),
        }
    summary["blowup"] = {
        "detected": report.blowup_time is not None,
        "time": report.blowup_time,
        "fastest_growing_criterion": report.fastest_growing,
    }
    if report.picard_converged is not None:
        summary["picard"] = {
            "converged": report.picard_converged,
            "diffs": report.picard_diffs,
            "contraction_ratios": report.picard_ratios,
        }
    json_path = out / "summary.json"
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return csv_path, json_path
