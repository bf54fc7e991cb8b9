"""Check that two checkouts write the same outputs on the benchmark workloads.

    python3 scripts/compare_outputs.py OLD_ROOT NEW_ROOT [--workload NAME]

Each workload in perfbench/workloads.json (read only), and each of the
EXTRA configurations below, runs once per checkout, as `python3 -m
blcsim.cli run` with PYTHONPATH=<root>/src, the workload's flags and its
config as a --config file, into a temporary directory; the random-band
workload runs at seeds 0, 1 and 5. The EXTRA runs take the paths that the
benchmark workloads skip: a Picard run that refines its grid (57 -> 912
intervals, about 6 s), and a direct and a Picard run that end in blow-up
(exit 1, outputs still written). For
report.csv, summary.json (less config.out, the output path) and every
snapshot one line says "identical" or gives the largest relative
difference of the file's numbers; snapshot numbers are read with
blcsim's reader, so a differing snapshot is sized only when blcsim is
importable (PYTHONPATH=src). The exit status is 0 only when every file of
every run is identical. --workload NAME (repeatable) limits the set.
"""
import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json"
SEEDS = {"randband-3d32": (0, 1, 5)}   # every other workload runs at seed 0
_BLOWUP = {"preset": "taylor-green", "eps": 0.5, "M": 16, "T": 0.01}
EXTRA = {   # in the shape of a workloads.json entry
    "picard-refine": {"flags": {"preset": "taylor-green", "eps": 0.5, "T": 0.5,
                                "mode": "picard"},
                      "config": {}, "input_seeds": 0},
    "blowup-direct": {"flags": dict(_BLOWUP, mode="direct"),
                      "config": {"blowup_factor": 1e-12}, "input_seeds": 0},
    "blowup-picard": {"flags": dict(_BLOWUP, mode="picard"),
                      "config": {"blowup_factor": 1e-12}, "input_seeds": 0},
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
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    return subprocess.run(argv, env=env, capture_output=True).returncode


def _csv_numbers(path: Path) -> list[float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [float(cell) for row in rows[1:] for cell in row]


def _summary(path: Path) -> dict:
    with open(path) as fh:
        summary = json.load(fh)
    summary.get("config", {}).pop("out", None)
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
    names = args.workload or list(workloads)
    unknown = sorted(set(names) - set(workloads))
    if unknown:
        ap.error(f"unknown workloads {unknown}; choose from {sorted(workloads)}")

    same = True
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for seed in SEEDS.get(name, (0,)):
                tag = f"{name} seed {seed}"
                run_dirs = [Path(tmp) / f"{name}-{seed}-{side}"
                            for side in ("old", "new")]
                codes = [run_cli(root, workloads[name], seed, d)
                         for root, d in zip((args.old_root, args.new_root), run_dirs)]
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
