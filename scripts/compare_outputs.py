"""Check that two checkouts write the same outputs on the benchmark workloads.

    python3 scripts/compare_outputs.py OLD_ROOT NEW_ROOT [--workload NAME]

Each workload in perfbench/workloads.json (read only), and each of the
EXTRA configurations below, runs once per checkout, as `python3 -m
blcsim.cli run` with PYTHONPATH=<root>/src, the workload's flags and its
config as a --config file, into a temporary directory; the random-band
workload runs at seeds 0, 1 and 5. The EXTRA runs take the paths that the
benchmark workloads skip: a Picard run that refines its grid (57 -> 912
intervals, about 6 s), a direct and a Picard run that end in blow-up
(exit 1, outputs still written), a direct run with renormalize_director
(2D M = 32 random-band, eps 0.3, seed 1, T = 0.05, a snapshot every 4
rows), and a resumed run: leg 1 runs to T = 0.01 with a snapshot every
row, and leg 2 continues with --resume from leg 1's last snapshot to
T = 0.02; leg 2's files are the ones compared. For
report.csv, summary.json (less config.out and config.resume_from, the
paths) and every snapshot one line says "identical" or gives the largest
relative difference of the file's numbers; snapshot numbers are read with
blcsim's reader, so a differing snapshot is sized only when blcsim is
importable (PYTHONPATH=src). The GRID_COMMANDS run one blcsim command
at N = 2 and 3, each at M = 32 and 64, in a fresh directory, and compare
exit code, printed output and the bytes of every file it writes there:
`blcsim run --check-scaling`, and `blcsim dump-partition`, whose phi_q
column is the partition profile printed to 17 digits at radii off the
grid. The SCRIPT_RUNS run each checkout's own scripts/probe_continuity.py
at a fixed seed, in 2D and 3D, and compare exit code and printed ratios,
so a change to the random-mode generator or to the probes shows. The exit
status is 0 only when every file of every run, and every grid command's
and script's output, is identical. --workload NAME (repeatable) limits
the set.
"""
import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"
# the seeds of each workload listed here; every other one runs at seed 0
SEEDS = {"randband-3d32": (0, 1, 5), "renormalize": (1,)}
_BLOWUP = {"preset": "taylor-green", "eps": 0.5, "M": 16, "T": 0.01}
EXTRA = {   # in the shape of a workloads.json entry
    "picard-refine": {"flags": {"preset": "taylor-green", "eps": 0.5, "T": 0.5,
                                "mode": "picard"},
                      "config": {}, "input_seeds": 0},
    "blowup-direct": {"flags": dict(_BLOWUP, mode="direct"),
                      "config": {"blowup_factor": 1e-12}, "input_seeds": 0},
    "blowup-picard": {"flags": dict(_BLOWUP, mode="picard"),
                      "config": {"blowup_factor": 1e-12}, "input_seeds": 0},
    "renormalize": {"flags": {"preset": "random-band", "eps": 0.3, "N": 2, "M": 32,
                              "T": 0.05, "mode": "direct"},
                    "config": {"renormalize_director": "true", "snapshot_every": 4},
                    "input_seeds": 1},
    # leg 1 as given, then leg 2 resumed from its last snapshot to resume_T
    "resume": {"flags": {"preset": "random-band", "eps": 0.3, "N": 3, "M": 32,
                         "T": 0.01, "mode": "direct"},
               "config": {"snapshot_every": 1}, "input_seeds": 0,
               "resume_T": 0.02},
}
GRID_COMMANDS = {   # name: (N, label, blcsim arguments), run at each M in GRID_M
    "scaling-2d": (2, "--check-scaling", ["run", "--check-scaling"]),
    "scaling-3d": (3, "--check-scaling", ["run", "--check-scaling"]),
    "partition-2d": (2, "dump-partition", ["dump-partition", "--out", "p.csv"]),
    "partition-3d": (3, "dump-partition", ["dump-partition", "--out", "p.csv"]),
}
GRID_M = (32, 64)
SCRIPT_RUNS = {   # name: (a script in each checkout's scripts/, its arguments)
    "probe-2d": ("probe_continuity.py", ["--N", "2", "--sizes", "16", "32", "64",
                                         "--samples", "5", "--seed", "0"]),
    "probe-3d": ("probe_continuity.py", ["--N", "3", "--sizes", "16", "32",
                                         "--samples", "3", "--seed", "0"]),
}


def run_cli(root: Path, workload: dict, seed: int, run_dir: Path) -> int:
    """One `blcsim run` of a workload from the checkout at root; its exit code."""
    config = dict(workload["config"])
    if workload["input_seeds"]:
        config["seed"] = seed
    run_dir.mkdir(parents=True)
    cfg = run_dir / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    argv = [sys.executable, "-m", "blcsim.cli", "run", "--config", str(cfg),
            "--out", str(run_dir / "out")]
    for key, value in workload["flags"].items():
        argv += [f"--{key}", str(value)]
    return _cli(root, argv).returncode


def _cli(root: Path, argv: list[str], cwd: Path | None = None
         ) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    return subprocess.run(argv, env=env, capture_output=True, text=True, cwd=cwd)


def run_resume(root: Path, workload: dict, seed: int, run_dir: Path) -> int:
    """Leg 1 of a resume workload beside run_dir, then leg 2 into run_dir,
    resumed from leg 1's last snapshot to workload["resume_T"]; leg 2's exit
    code, or leg 1's when leg 1 fails."""
    leg1 = run_dir.with_name(run_dir.name + "-leg1")
    code = run_cli(root, workload, seed, leg1)
    snapshots = sorted((leg1 / "out" / "snapshots").glob("state_*.blcf"))
    if code != 0 or not snapshots:
        return code or 1
    flags = dict(workload["flags"], T=workload["resume_T"], resume=snapshots[-1])
    return run_cli(root, dict(workload, flags=flags), seed, run_dir)


def run_grid_command(root: Path, name: str, run_dir: Path) -> list[tuple]:
    """(M, (exit code, stdout, {file name: bytes})) of the grid command name
    for each M in GRID_M, each run in a fresh directory under run_dir."""
    dim, _, args = GRID_COMMANDS[name]
    outputs = []
    for m in GRID_M:
        cwd = run_dir / f"M{m}"
        cwd.mkdir(parents=True)
        proc = _cli(root, [sys.executable, "-m", "blcsim.cli", *args,
                           "--N", str(dim), "--M", str(m)], cwd=cwd)
        files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
        outputs.append((m, (proc.returncode, proc.stdout, files)))
    return outputs


def run_script(root: Path, name: str) -> tuple[int, str]:
    """(exit code, stdout) of the script run name from the checkout at root."""
    script, args = SCRIPT_RUNS[name]
    proc = _cli(root, [sys.executable,
                       str(Path(root).resolve() / "scripts" / script), *args])
    return proc.returncode, proc.stdout


def compare_script(old: tuple[int, str], new: tuple[int, str]) -> str:
    """'identical', or how two (exit code, stdout) of one script run differ:
    the largest relative difference of the decimals they print."""
    if not (old[1] and new[1]):
        return "differs: no output"
    if old == new:
        return "identical"
    if old[0] != new[0]:
        return f"differs: exit code {old[0]} against {new[0]}"
    return _max_rel_diff(*([float(x) for x in re.findall(r"-?\d+\.\d+", out)]
                           for _, out in (old, new)))


def _csv_numbers(path: Path) -> list[float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [float(cell) for row in rows[1:] for cell in row]


def _summary(path: Path) -> dict:
    with open(path) as fh:
        summary = json.load(fh)
    for key in ("out", "resume_from"):
        summary.get("config", {}).pop(key, None)
    return summary


def _json_numbers(value) -> list[float]:
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in _json_numbers(value[key])]
    if isinstance(value, list):
        return [x for item in value for x in _json_numbers(item)]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    return []


def _snapshot_numbers(path: Path) -> list[float]:
    from blcsim.spectral import read_field
    numbers = []
    with open(path, "rb") as fh:
        for _ in range(3):
            field, t = read_field(fh)
            numbers += [t] + field.values.ravel().tolist()
    return numbers


def _max_rel_diff(a: list[float], b: list[float]) -> str:
    if len(a) != len(b):
        return f"differs: {len(a)} numbers against {len(b)}"
    worst = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = max(abs(x), abs(y))
        worst = max(worst, abs(x - y) / scale if math.isfinite(scale) else math.inf)
    return f"max rel diff {worst:.3g}"


def compare_file(old: Path, new: Path) -> str:
    """'identical' or how the two copies of one output file differ."""
    if old.name == "summary.json":
        a, b = _summary(old), _summary(new)
        if json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True):
            return "identical"
        return _max_rel_diff(_json_numbers(a), _json_numbers(b))
    if old.read_bytes() == new.read_bytes():
        return "identical"
    numbers = _csv_numbers if old.suffix == ".csv" else _snapshot_numbers
    try:
        return _max_rel_diff(numbers(old), numbers(new))
    except (ValueError, OSError, ImportError) as exc:
        return f"differs: {exc}"


def compare_dirs(old: Path, new: Path) -> list[tuple[str, str]]:
    """(file, verdict) for report.csv, summary.json and every snapshot
    found in either of two output directories."""
    names = ["report.csv", "summary.json"] + sorted(
        {p.relative_to(d).as_posix() for d in (old, new)
         for p in (d / "snapshots").glob("*.blcf")})
    verdicts = []
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            verdicts.append((name, "differs: missing on one side"))
        else:
            verdicts.append((name, compare_file(a, b)))
    return verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_root", type=Path)
    ap.add_argument("new_root", type=Path)
    ap.add_argument("--workload", action="append", default=None,
                    help="run only this workload (repeatable)")
    args = ap.parse_args(argv)
    with open(WORKLOADS) as fh:
        workloads = {**json.load(fh)["workloads"], **EXTRA}
    known = list(workloads) + list(GRID_COMMANDS) + list(SCRIPT_RUNS)
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        ap.error(f"unknown workloads {unknown}; choose from {sorted(known)}")

    roots = (args.old_root, args.new_root)
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            if name in SCRIPT_RUNS:
                verdict = compare_script(*(run_script(root, name) for root in roots))
                same = same and verdict == "identical"
                print(f"{name}  {SCRIPT_RUNS[name][0]}  {verdict}")
                continue
            if name in GRID_COMMANDS:
                old, new = (run_grid_command(root, name, Path(tmp) / f"{name}-{i}")
                            for i, root in enumerate(roots))
                for (m, a), (_, b) in zip(old, new):
                    ok = a == b and a[1] != ""   # both silent: neither ran
                    same = same and ok
                    print(f"{name} M={m}  {GRID_COMMANDS[name][1]}  "
                          f"{'identical' if ok else 'differs'}")
                continue
            run = run_resume if "resume_T" in workloads[name] else run_cli
            for seed in SEEDS.get(name, (0,)):
                tag = f"{name} seed {seed}"
                run_dirs = [Path(tmp) / f"{name}-{seed}-{side}"
                            for side in ("old", "new")]
                codes = [run(root, workloads[name], seed, d)
                         for root, d in zip(roots, run_dirs)]
                if codes[0] != codes[1]:
                    same = False
                    print(f"{tag}  exit code {codes[0]} against {codes[1]}")
                for file, verdict in compare_dirs(*(d / "out" for d in run_dirs)):
                    same = same and verdict == "identical"
                    print(f"{tag}  {file}  {verdict}")
    print("all identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
