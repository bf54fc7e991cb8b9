"""Command-line entry point.

Subcommands:

    blcsim run ...             integrate a run and export monitor output
    blcsim dump-partition ...  write the dyadic partition profile as CSV

Exit codes (every path maps to exactly one; `dump-partition` ends in 0 or 4):

    0  clean finish
    1  blow-up detected
    2  inadmissible criterion exponents rho1-rho3
    3  numerical failure (Picard non-convergence, failed scaling self-check)
    4  usage or configuration error: a bad flag, config key or value, or
       resume snapshot, an --out that cannot be written, or an --M too
       coarse for --check-scaling; for `dump-partition`, a bad --N, --M,
       --samples or --out
"""
from __future__ import annotations

import argparse
import dataclasses
import math
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


# The CLI's own keys, then the solver's, whose defaults SolverConfig holds
# (t_end under the flag name T).
_SOLVER_KEYS = tuple(f.name for f in dataclasses.fields(SolverConfig)
                     if f.name != "t_end")
_DEFAULTS = {
    "preset": "single-mode", "eps": 1e-3, "N": 2, "M": 64,
    "rho1": None, "rho2": None, "rho3": None, "out": "blc_run",
    "seed": 0, "snapshot_every": 0, "T": SolverConfig.t_end,
    **{k: getattr(SolverConfig, k) for k in _SOLVER_KEYS},
}


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
                     help=f"initial-data amplitude (default {_DEFAULTS['eps']})")
    run.add_argument("--N", type=int, default=None, choices=(2, 3),
                     help=f"spatial dimension (default {_DEFAULTS['N']})")
    run.add_argument("--M", type=int, default=None,
                     help=f"grid points per axis (default {_DEFAULTS['M']})")
    run.add_argument("--T", type=float, default=None,
                     help=f"final time (default {_DEFAULTS['T']})")
    run.add_argument("--dt", type=float, default=None,
                     help="time step; default follows the stability rule")
    run.add_argument("--mode", type=str, default=None,
                     choices=("direct", "picard"))
    run.add_argument("--rho1", type=float, default=None)
    run.add_argument("--rho2", type=float, default=None)
    run.add_argument("--rho3", type=float, default=None)
    run.add_argument("--out", type=str, default=None,
                     help=f"output directory (default {_DEFAULTS['out']})")
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


def _merge_settings(args: argparse.Namespace) -> dict:
    settings = dict(_DEFAULTS)
    if args.config:
        file_settings = read_config_file(args.config)
        unknown = set(file_settings) - set(_DEFAULTS)
        if unknown:
            raise _UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_settings.items():
            _check_type(key, value)
        settings.update(file_settings)
    settings.update((key, value) for key, value in vars(args).items()
                    if key in _DEFAULTS and value is not None)
    return settings


def _check_type(key: str, value) -> None:
    """A file value must have its default's type, except that a float key, or
    a key without a default, takes any number."""
    kind = type(_DEFAULTS[key])
    if kind in (float, type(None)):
        ok, expected = type(value) in (int, float), "a number"
    else:
        ok, expected = type(value) is kind, {bool: "true or false",
                                             int: "an integer",
                                             str: "a string"}[kind]
    if not ok:
        raise _UsageError(f"config key {key} = {value!r}: expected {expected}")


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
            except ValueError as exc:   # the rescale leaves the band
                raise _UsageError(f"--M {grid.points} is too coarse for the "
                                  f"scaling check: {exc}") from exc
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
    dim = settings["N"]
    try:
        grid = Grid(dim, settings["M"])
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    if args.check_scaling:
        return _run_scaling_check(grid, out)

    rhos = {k: settings[k] for k in ("rho1", "rho2", "rho3")
            if settings[k] is not None}
    try:
        crit = dataclasses.replace(CriterionConfig.default_for(dim), **rhos)
    except ValueError as exc:
        print(f"inadmissible criterion exponents: {exc}", file=out)
        return EXIT_INADMISSIBLE
    margin, ok = criterion_admissible(crit, dim)
    if not ok:
        print(f"inadmissible criterion exponents: margin "
              f"N/2 + 2/rho2 + 2/rho3 - 2 = {margin:g} (need > 0)", file=out)
        return EXIT_INADMISSIBLE

    try:
        if state is not None:
            u0, tau0, dbar = state.u, state.tau, state.dbar
            t_offset = state.t
        else:
            u0, tau0, dbar = build_preset(settings["preset"], grid,
                                          settings["eps"], seed=settings["seed"])
            t_offset = 0.0
        remaining = settings["T"] - t_offset
        if not 0 < remaining < math.inf:
            raise _UsageError(f"final time T = {settings['T']} must be finite "
                              f"and extend past the start time {t_offset}")
        cfg = SolverConfig(t_end=remaining,
                           **{k: settings[k] for k in _SOLVER_KEYS})
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    every = settings["snapshot_every"]
    if every < 0:
        raise _UsageError(f"snapshot_every must be nonnegative, got {every}")

    out_dir = Path(settings["out"])
    snap_dir = out_dir / "snapshots"
    try:
        # an unwritable --out fails here, before the solve
        snap_dir.mkdir(parents=True, exist_ok=True)
        # a run killed while writing a snapshot leaves save_state's temporary
        remove_stale_temporaries(snap_dir)
    except OSError as exc:
        raise _UsageError(f"cannot write to --out {out_dir}: {exc}") from exc

    echo = {k: settings[k] for k in sorted(settings)}
    echo["resume_from"] = args.resume
    traj, report = solve(u0, tau0, dbar, cfg, crit=crit, config_echo=echo)
    if t_offset:
        report.times = report.times + t_offset

    try:
        csv_path, json_path = export_series(report, out_dir)
        for i, st in enumerate(traj.states):
            last = i == len(traj.states) - 1
            if last or (every > 0 and i % every == 0):
                # snapshots keep the absolute clock, like the report
                save_state(snap_dir / f"state_{i:05d}.blcf",
                           dataclasses.replace(st, t=st.t + t_offset))
    except OSError as exc:
        raise _UsageError(f"cannot write to --out {out_dir}: {exc}") from exc

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
    try:
        part = build_partition(Grid(args.N, args.M))
        dump_partition_csv(part, args.out, n_samples=args.samples)
    except (ValueError, OSError) as exc:
        raise _UsageError(str(exc)) from exc
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
