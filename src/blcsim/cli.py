"""Command-line entry point.

Subcommands:

    blcsim run ...             integrate a run and export monitor output
    blcsim dump-partition ...  write the dyadic partition profile as CSV

Exit codes for `run` (every path maps to exactly one):

    0  clean finish
    1  blow-up detected
    2  inadmissible criterion configuration
    3  numerical failure (Picard non-convergence, failed self-check)
    4  usage or configuration error
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .dyadic import build_partition, dump_partition_csv
from .monitor import (CriterionConfig, ScalingCheckError, criterion_admissible,
                      critical_indices, export_series, scaling_check)
from .presets import PRESET_NAMES, build_preset
from .solver import (SolverConfig, load_state, remove_stale_temporaries,
                     save_state, solve)
from .spectral import BlowUpError, Grid, SpectralField, place_mode

EXIT_CLEAN = 0
EXIT_BLOWUP = 1
EXIT_INADMISSIBLE = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 4
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="blcsim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate and monitor a run")
    run.add_argument("--config", type=str, default=None,
                     help="key = value configuration file")
    run.add_argument("--preset", type=str, default=None, choices=PRESET_NAMES)
    run.add_argument("--eps", type=float, default=None,
                     help="initial-data amplitude (default 1e-3)")
    run.add_argument("--N", type=int, default=None, choices=(2, 3),
                     help="spatial dimension (default 2)")
    run.add_argument("--M", type=int, default=None,
                     help="grid points per axis (default 64)")
    run.add_argument("--T", type=float, default=None,
                     help="final time (default 1.0)")
    run.add_argument("--dt", type=float, default=None,
                     help="time step; default follows the stability rule")
    run.add_argument("--mode", type=str, default=None,
                     choices=("direct", "picard"))
    run.add_argument("--rho1", type=float, default=None)
    run.add_argument("--rho2", type=float, default=None)
    run.add_argument("--rho3", type=float, default=None)
    run.add_argument("--out", type=str, default=None,
                     help="output directory (default blc_run)")
    run.add_argument("--check-scaling", action="store_true",
                     help="run the dyadic rescale self-check and exit")
    run.add_argument("--resume", type=str, default=None,
                     help="state snapshot (.blcf) to continue from")

    dump = sub.add_parser("dump-partition", help="write partition profile CSV")
    dump.add_argument("--N", type=int, default=2, choices=(2, 3))
    dump.add_argument("--M", type=int, default=64)
    dump.add_argument("--out", type=str, default="partition.csv")
    dump.add_argument("--samples", type=int, default=1024)
    return parser


def _parse_value(raw: str):
    text = raw.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def read_config_file(path: str) -> dict:
    """Parse a `key = value` file; '#' starts a comment."""
    settings = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        settings[key.strip()] = _parse_value(value)
    return settings


_DEFAULTS = {
    "preset": "single-mode", "eps": 1e-3, "N": 2, "M": 64, "T": 1.0,
    "dt": None, "mode": "direct", "rho1": None, "rho2": None, "rho3": None,
    "out": "blc_run", "mu": 1.0, "seed": 0,
    "report_stride": None, "snapshot_every": 0, "blowup_factor": 1e6,
    "renormalize_director": False, "picard_tol": 1e-10, "picard_max_iter": 12,
}


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS)
    if args.config:
        file_settings = read_config_file(args.config)
        unknown = set(file_settings) - set(_DEFAULTS)
        if unknown:
            raise _UsageError(f"unknown config keys: {sorted(unknown)}")
        settings.update(file_settings)
    for key in ("preset", "eps", "N", "M", "T", "dt", "mode",
                "rho1", "rho2", "rho3", "out"):
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    return settings


def _criterion_config(settings: dict, dim: int) -> CriterionConfig:
    base = CriterionConfig.default_for(dim)
    try:
        return CriterionConfig(
            rho1=settings["rho1"] if settings["rho1"] is not None else base.rho1,
            rho2=settings["rho2"] if settings["rho2"] is not None else base.rho2,
            rho3=settings["rho3"] if settings["rho3"] is not None else base.rho3)
    except ValueError as exc:
        raise _InadmissibleError(str(exc)) from exc


class _InadmissibleError(Exception):
    pass


def _run_scaling_check(grid: Grid, out) -> int:
    part = build_partition(grid)
    rng = np.random.default_rng(7)
    dim = grid.dim
    # single-block field at q = 1 (|k| = 3 sits on the phi_1 plateau), and a
    # multi-block field spanning q in [0, 2]
    fields = {}
    single = np.zeros((dim,) + grid.shape, dtype=np.complex128)
    place_mode(single[dim - 1], grid, (3,) + (0,) * (dim - 1), 1.0)
    fields["single-block"] = SpectralField(grid, 1, single)
    multi = np.zeros((dim,) + grid.shape, dtype=np.complex128)
    for k in [(1,) + (0,) * (dim - 1), (0, 3) + (0,) * (dim - 2),
              (2, 2) + (0,) * (dim - 2)]:
        amp = 0.3 + 0.1 * rng.random()
        place_mode(multi[0], grid, k, 2 * amp)
    fields["multi-block"] = SpectralField(grid, 1, multi)

    idx_u, idx_tau = critical_indices(dim)
    indices = {"velocity": idx_u.s, "director": idx_tau.s}
    failed = False
    for fname, f in fields.items():
        for iname, s in indices.items():
            try:
                before, after = scaling_check(f, 1, s, part)
                print(f"scaling {fname} {iname} index s={s:g}: PASS "
                      f"({before:.12g} -> {after:.12g})", file=out)
            except ScalingCheckError as exc:
                failed = True
                print(f"scaling {fname} {iname} index s={s:g}: FAIL ({exc})",
                      file=out)
    return EXIT_NUMERICAL if failed else EXIT_CLEAN


def _cmd_run(args: argparse.Namespace, out) -> int:
    settings = _merge_settings(args)
    state = None
    if args.resume:
        try:
            state = load_state(args.resume)
        except (OSError, ValueError) as exc:
            raise _UsageError(f"cannot resume from {args.resume}: {exc}") from exc
        # the snapshot fixes the grid; an explicit flag may only repeat it
        for key, value in (("N", state.grid.dim), ("M", state.grid.points)):
            given = getattr(args, key)
            if given is not None and given != value:
                raise _UsageError(f"--{key} {given} conflicts with the resume "
                                  f"snapshot's {key} = {value}")
            settings[key] = value
    dim, m = int(settings["N"]), int(settings["M"])
    try:
        grid = Grid(dim, m)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    if args.check_scaling:
        return _run_scaling_check(grid, out)

    try:
        crit = _criterion_config(settings, dim)
        margin, ok = criterion_admissible(crit, dim)
        if not ok:
            print(f"inadmissible criterion exponents: margin "
                  f"N/2 + 2/rho2 + 2/rho3 - 2 = {margin:g} (need > 0)",
                  file=out)
            return EXIT_INADMISSIBLE
    except _InadmissibleError as exc:
        print(f"inadmissible criterion exponents: {exc}", file=out)
        return EXIT_INADMISSIBLE

    if state is not None:
        u0, tau0, dbar = state.u, state.tau, state.dbar
        t_offset = state.t
    else:
        u0, tau0, dbar = build_preset(settings["preset"], grid,
                                      float(settings["eps"]),
                                      seed=int(settings["seed"]))
        t_offset = 0.0

    remaining = float(settings["T"]) - t_offset
    if remaining <= 0:
        raise _UsageError(f"final time {settings['T']} does not extend past "
                          f"the resume time {t_offset}")
    cfg = SolverConfig(
        t_end=remaining, dt=settings["dt"], mu=float(settings["mu"]),
        mode=settings["mode"], report_stride=settings["report_stride"],
        blowup_factor=float(settings["blowup_factor"]),
        renormalize_director=bool(settings["renormalize_director"]),
        picard_tol=float(settings["picard_tol"]),
        picard_max_iter=int(settings["picard_max_iter"]))

    out_dir = Path(settings["out"])
    snap_dir = out_dir / "snapshots"
    # a run killed while writing a snapshot leaves save_state's temporary
    remove_stale_temporaries(snap_dir)

    echo = {k: settings[k] for k in sorted(settings)}
    echo["resume_from"] = args.resume
    traj, report = solve(u0, tau0, dbar, cfg, crit=crit, config_echo=echo)
    if t_offset:
        report.times = report.times + t_offset

    csv_path, json_path = export_series(report, out_dir)
    snap_dir.mkdir(parents=True, exist_ok=True)
    every = int(settings["snapshot_every"])
    for i, st in enumerate(traj.states):
        last = i == len(traj.states) - 1
        if last or (every > 0 and i % every == 0):
            # snapshots keep the absolute clock, like the report
            save_state(snap_dir / f"state_{i:05d}.blcf",
                       dataclasses.replace(st, t=st.t + t_offset))

    print(f"rows: {report.times.size}  E0: {report.e0:.6g}  "
          f"final E: {report.e_values[-1]:.6g}", file=out)
    print(f"report: {csv_path}  summary: {json_path}", file=out)

    if report.blowup_time is not None:
        print(f"blow-up detected at t = {report.blowup_time:.6g} "
              f"(fastest growing: {report.fastest_growing})", file=out)
        return EXIT_BLOWUP
    if report.picard_converged is False:
        print(f"Picard iteration did not converge; ratios: "
              f"{report.picard_ratios}", file=out)
        return EXIT_NUMERICAL
    return EXIT_CLEAN


def _cmd_dump_partition(args: argparse.Namespace, out) -> int:
    grid = Grid(int(args.N), int(args.M))
    part = build_partition(grid)
    dump_partition_csv(part, args.out, n_samples=int(args.samples))
    print(f"wrote {args.out} (q range [{part.q_min}, {part.q_max}])", file=out)
    return EXIT_CLEAN


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args, out)
        return _cmd_dump_partition(args, out)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BlowUpError as exc:
        print(f"blow-up detected: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
