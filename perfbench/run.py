"""Benchmark for blcsim: whole `blcsim run` invocations, end to end and by layer.

    python3 perfbench/run.py --workload randband-3d32 --seed 1 --seconds 55 --trace 0

`--workload all` runs every workload in turn and prints one result line
with metric names prefixed by the workload.

Run from the root of a blcsim checkout; the package is taken from `src/`
through PYTHONPATH, so nothing needs installing. Each timed run is a fresh
process that calls the `blcsim` console entry point named in
`pyproject.toml` with the workload's flags and `--config` file, so timed runs
depend only on the CLI contract: flags, config keys, exit codes,
`report.csv` and `summary.json`. Runs go one at a time, with `BLC_THREADS`
removed from the environment so the program uses its default.

--trace 0 reports the end-to-end metrics. It runs rounds of a gauge
reading, a timed run, a second gauge reading and a setup probe while another
round fits in --seconds, so an invocation takes --seconds plus one warm-up
probe:

    wall_s       wall time of one complete run to the workload's fixed T
    cpu_s        user + sys CPU time of that run (from wait4, this child only)
    peak_rss_mb  peak resident memory of that run (a fresh process each time)
    setup_s      time from the start of a fresh process to the solver's first
                 recorded row (import, Grid, build_partition, build_preset, the
                 dt rule): the real CLI, run by setup_probe.py and stopped there

Each is the median over its samples. The three times are then put in
reference-speed seconds: multiplied by GAUGE_REF_S over the median gauge()
reading of the same invocation. gauge() times a fixed mix of numpy FFTs,
array arithmetic and Python that runs no blcsim code, so the scale follows
the machine and never the program. The shared 2 vCPU host this benchmark
was tuned on ran the same runs and imports 30-40% slower for minutes at a
time: over ten back-to-back 55 s invocations of randband-3d32 the raw median
wall time spread by 38% (IQR over median), the scaled one by 10%. The raw
medians and quartiles are printed beside the reported values. For the same
reason BENCHMARK.json gates two workloads at 55 s each rather than three at
30 s; smalldata-2d64 stays defined in workloads.json and runs by name.

--trace 1 makes two traced runs (traced.py; the second also tracks numpy
allocations with tracemalloc) and untraced runs for the remaining time,
and reports the per-layer metrics. Counts must agree exactly between the two
traced runs. trace.overhead_s is the first traced run's wall time minus the
untraced median; it is one sample, so machine noise can make it negative.
Sizes in MB are 2**20 bytes.

Every run passes the correctness gate in `check_run`. Failed runs are counted
in `failed` and `fail_frac` (printed) and make `correct` false. The last line
of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import csv
import functools
import importlib.metadata
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3           # timed runs per invocation, whatever --seconds says
GAUGE_REF_S = 0.1      # gauge() at the usual speed of the machine it was tuned on
COUNT_METRICS = ("fft.calls", "fft.fields", "solver.steps", "norms.calls",
                 "monitor.rows", "cli.snapshots")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class CheckoutError(Exception):
    """The directory the benchmark runs in is not a blcsim checkout."""


def load_spec() -> dict:
    with open(HERE / "workloads.json") as fh:
        return json.load(fh)


def entry_point(root: Path) -> tuple[str, str]:
    """(module, function) of the `blcsim` console script in pyproject.toml."""
    pyproject = root / "pyproject.toml"
    if not (root / "src" / "blcsim" / "__init__.py").is_file() or not pyproject.is_file():
        raise CheckoutError(f"{root} holds no src/blcsim package and pyproject.toml")
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts", {})
    if "blcsim" not in scripts:
        raise CheckoutError("pyproject.toml defines no `blcsim` console script")
    module, _, func = scripts["blcsim"].partition(":")
    return module, func


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("BLC_THREADS", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def input_seed(workload: dict, seed: int) -> int:
    """The preset seed a benchmark seed selects; references exist for each."""
    n = workload["input_seeds"]
    return seed % n if n else 0


def cli_argv(workload: dict, in_seed: int, run_dir: Path) -> list[str]:
    """`blcsim run` arguments for one run writing into run_dir."""
    config = dict(workload["config"])
    if workload["input_seeds"]:
        config["seed"] = in_seed
    run_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = run_dir / "run.cfg"
    cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    argv = ["run", "--config", str(cfg_path), "--out", str(run_dir / "out")]
    for key, value in workload["flags"].items():
        argv += [f"--{key}", str(value)]
    return argv


def run_process(cmd: list[str], env: dict, log_path: Path) -> dict:
    """Run one child to completion; wall, CPU and peak RSS of that child only."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def _close(value: float, ref: float, tol: dict) -> bool:
    return math.isfinite(value) and abs(value - ref) <= tol["rtol"] * abs(ref) + tol["atol"]


def read_summary(out_dir: Path) -> dict:
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def final_values(final: dict) -> dict:
    """E, energy, drift and crit1..crit3 of a summary's final row."""
    values = {key: final[key] for key in ("E", "energy", "drift")}
    for i in range(3):
        values[f"crit{i + 1}"] = final["crit"][i]
    return values


def check_run(rc: int, out_dir: Path, reference: dict | None, tolerance: dict,
              snapshot_every: int) -> list[str]:
    """Reasons a run is wrong; an empty list means it passed the gate.

    With reference None (recording references) the final values are not
    compared with a reference; every other check still applies.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        summary = read_summary(out_dir)
        with open(out_dir / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    if summary.get("blowup", {}).get("detected") is not False:
        problems.append("blow-up reported")
    if "picard" in summary and summary["picard"].get("converged") is not True:
        problems.append("Picard did not converge")
    final = summary.get("final")
    if not final or not rows:
        return problems + ["no final row"]
    got, want = final_values(final), final_values(reference or final)
    for key, value in got.items():
        tol = tolerance["crit" if key.startswith("crit") else key]
        if not _close(value, want[key], tol):
            problems.append(f"{key} = {value!r}, reference {want[key]!r}")
        if not _close(float(rows[-1][key]), value, {"rtol": 1e-9, "atol": 1e-300}):
            problems.append(f"report.csv last row {key} disagrees with summary.json")
    snapshots = len(list((out_dir / "snapshots").glob("*.blcf")))
    expected = summary["rows"] if snapshot_every == 1 else 1
    if snapshots < 1 or (snapshot_every == 1 and snapshots != expected):
        problems.append(f"{snapshots} snapshots, expected {expected}")
    return problems


class Bench:
    """One benchmark invocation: a workload, its input seed and a work area."""

    def __init__(self, name: str, seed: int, spec: dict, record: bool = False):
        self.workload = spec["workloads"][name]
        self.tolerance = spec["tolerance"]
        self.in_seed = input_seed(self.workload, seed)
        # recording references is the one case that runs without them
        self.reference = None if record else self.workload["reference"][str(self.in_seed)]
        module, func = entry_point(ROOT)
        self.entry = f"{module}:{func}"
        self.launch = (f"import sys; from {module} import {func}; "
                       f"sys.exit({func}())")
        self.env = child_env(ROOT)
        self.work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
        self.runs: list[dict] = []
        self.failures: list[str] = []
        self.setup_failed = False

    def _gated(self, cmd_prefix: list[str], tag: str) -> dict:
        run_dir = self.work / f"{tag}-{len(self.runs)}"
        cmd = cmd_prefix + cli_argv(self.workload, self.in_seed, run_dir)
        result = run_process(cmd, self.env, run_dir / "log.txt")
        problems = check_run(result["rc"], run_dir / "out", self.reference,
                             self.tolerance,
                             int(self.workload["config"].get("snapshot_every", 0)))
        result["problems"] = problems
        try:
            summary = read_summary(run_dir / "out")
        except (OSError, ValueError):
            summary = {}
        diffs = summary.get("picard", {}).get("diffs", [])
        result["final"] = summary.get("final")
        result["rows"] = summary.get("rows", 0)
        result["sweeps"] = len(diffs)
        # a sweep is useful when it shrinks the successive difference
        result["useful"] = (1 + sum(b < a for a, b in zip(diffs, diffs[1:]))) if diffs else 0
        if problems:
            log = (run_dir / "log.txt").read_text(errors="replace")[-2000:]
            self.failures.append(f"{tag} run {len(self.runs)}: {'; '.join(problems)}\n{log}")
        self.runs.append(result)
        shutil.rmtree(run_dir / "out", ignore_errors=True)
        return result

    def timed_run(self) -> dict:
        return self._gated([sys.executable, "-c", self.launch], "timed")

    def traced_run(self, memory: bool) -> tuple[dict, dict]:
        trace_path = self.work / f"trace-{len(self.runs)}.json"
        cmd = [sys.executable, str(HERE / "traced.py"), "--trace-out",
               str(trace_path), "--entry", self.entry]
        if memory:
            cmd.append("--memory")
        result = self._gated(cmd + ["--"], "traced")
        try:
            with open(trace_path) as fh:
                trace = json.load(fh)
        except (OSError, ValueError):
            trace = {"spans": {}, "counters": {}, "absent": ["<no trace written>"]}
        return result, trace

    def setup_probe(self) -> list[float]:
        """One setup_s sample, or none; a probe that cannot reach the first row
        is a failure, and no later probe is made in this invocation."""
        if self.setup_failed:
            return []
        run_dir = self.work / "setup"
        cmd = ([sys.executable, str(HERE / "setup_probe.py"), "--entry", self.entry, "--"]
               + cli_argv(self.workload, self.in_seed, run_dir))
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        try:
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            probe = {}
        if proc.returncode != 0 or probe.get("absent") or "setup_s" not in probe:
            self.failures.append(f"setup probe: {proc.stdout[-500:]} {proc.stderr[-2000:]}")
            self.setup_failed = True
            return []
        return [probe["setup_s"]]


def untraced_loop(bench: Bench, deadline: float, minimum: int) -> list[dict]:
    """Timed runs, one at a time, while another fits before the deadline."""
    runs = []
    while len(runs) < minimum or (
            time.perf_counter() + runs[-1]["wall_s"] <= deadline):
        runs.append(bench.timed_run())
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@functools.cache
def _gauge_inputs() -> tuple:
    import numpy
    rng = numpy.random.default_rng(0)
    return (rng.standard_normal((3, 32, 32, 32)), rng.standard_normal((3, 64, 64)),
            rng.standard_normal(2 ** 22), numpy.empty(2 ** 22))


def gauge() -> float:
    """Seconds taken by a fixed mix of numpy FFTs, memory-bound array
    arithmetic and interpreted Python that runs no blcsim code: a reading of
    how fast this machine runs just now, GAUGE_REF_S at its usual speed."""
    import numpy
    cube, square, big, out = _gauge_inputs()
    start = time.perf_counter()
    for _ in range(8):
        f = numpy.fft.rfftn(cube, axes=(1, 2, 3))
        numpy.fft.irfftn(f * f.conj(), s=cube.shape[1:], axes=(1, 2, 3))
        g = numpy.fft.rfftn(square, axes=(1, 2))
        numpy.fft.irfftn(g * 0.5, s=square.shape[1:], axes=(1, 2))
        numpy.multiply(big, 1.000001, out=out)
        acc = 0.0
        for k in range(3000):
            acc += k * 0.5
    return time.perf_counter() - start


def end_to_end(bench: Bench, seconds: float) -> dict:
    """Rounds of gauge, timed run, gauge and setup probe while another round
    fits in --seconds; each timing is the median over its samples times the
    speed scale GAUGE_REF_S / (median gauge), with the raw figures printed."""
    deadline = time.perf_counter() + seconds
    bench.setup_probe()   # warm-up: fills the bytecode cache, not reported
    gauge()
    gauges: list[float] = []
    setup: list[float] = []
    runs: list[dict] = []
    last = 0.0
    while len(runs) < MIN_RUNS or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        gauges.append(gauge())
        runs.append(bench.timed_run())
        gauges.append(gauge())
        setup += bench.setup_probe()
        last = time.perf_counter() - start
    g1, g2, g3 = quartiles(gauges)
    scale = GAUGE_REF_S / g2
    print(f"gauge median {g2:.4f} s  quartiles [{g1:.4f}, {g3:.4f}]  n={len(gauges)}, "
          f"reference {GAUGE_REF_S} s: speed scale {scale:.4f}")
    samples = {"wall_s": ([r["wall_s"] for r in runs], scale),
               "cpu_s": ([r["cpu_s"] for r in runs], scale),
               "peak_rss_mb": ([r["peak_rss_mb"] for r in runs], 1.0),
               "setup_s": (setup or [math.nan], scale)}
    metrics = {}
    for name, (values, factor) in samples.items():
        unit = "MB" if name == "peak_rss_mb" else "s"
        q1, med, q3 = quartiles(values)
        print(f"{name:>12} {med * factor:.4f} {unit}   raw median {med:.4f}  "
              f"quartiles [{q1:.4f}, {q3:.4f}]  n={len(values)}")
        metrics[name] = {"value": med * factor, "unit": unit}
    return metrics


def layer_metrics(run: dict, trace: dict) -> dict:
    """Per-layer metrics from one traced run; see traced.py for the spans."""
    spans, counters = trace["spans"], trace["counters"]
    summary_rows, sweeps = run["rows"], run["sweeps"]

    def span(name, field="s"):
        return spans.get(name, {}).get(field, 0.0)

    fft = [v for k, v in spans.items() if k.startswith("fft.")]
    steps = counters.get("solver.steps", 0)
    stepping = (span("solver.solve") - span("norms.block_lp_norms")
                - span("monitor.build_report") - span("dyadic.build_partition"))
    rows = summary_rows or 1
    return {
        "fft.calls": (sum(v["calls"] for v in fft), "count"),
        "fft.fields": (int(counters.get("fft.fields", 0)), "count"),
        "fft.s": (sum(v["s"] for v in fft), "s"),
        "fft.bytes_computed": (int(counters.get("fft.bytes", 0)), "B"),
        "solver.steps": (int(steps), "count"),
        "solver.step_ms": (1000.0 * stepping / steps if steps else 0.0, "ms"),
        "solver.self_s": (span("solver.solve", "self_s")
                          + span("solver.picard_iterate", "self_s"), "s"),
        "solver.picard_iterations": (sweeps, "count"),
        "solver.picard_useful_frac": (run["useful"] / sweeps if sweeps else 0.0, "1"),
        "solver.retained_states": (int(counters.get("solver.retained_states", 0)), "count"),
        "solver.retained_mb_computed": (counters.get("solver.retained_mb_computed", 0.0), "MB"),
        "norms.calls": (span("norms.block_lp_norms", "calls"), "count"),
        "norms.s": (span("norms.block_lp_norms"), "s"),
        "norms.row_ms": (1000.0 * span("norms.block_lp_norms") / rows, "ms"),
        "monitor.rows": (summary_rows, "count"),
        "monitor.report_s": (span("monitor.build_report"), "s"),
        "cli.snapshots": (span("cli.save_state", "calls"), "count"),
        "cli.snapshot_bytes": (int(counters.get("cli.snapshot_bytes", 0)), "B"),
        "cli.snapshot_s": (span("cli.save_state"), "s"),
        "cli.export_s": (span("cli.export_series"), "s"),
        "setup.import_s": (counters.get("setup.import_s", 0.0), "s"),
        "presets.s": (span("presets.build_preset"), "s"),
        "dyadic.partition_s": (span("dyadic.build_partition"), "s"),
    }


def count_mismatches(first: dict, second: dict) -> list[str]:
    """Count metrics that differ between two traced runs; they must repeat."""
    return [f"count {k} differs between traced runs: {first[k][0]} vs {second[k][0]}"
            for k in COUNT_METRICS if first[k][0] != second[k][0]]


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    deadline = time.perf_counter() + seconds
    traced = [bench.traced_run(memory=False), bench.traced_run(memory=True)]
    untraced = untraced_loop(bench, deadline, 2)
    layers = [layer_metrics(run, trace) for run, trace in traced]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers[0].items()}
    # allocation tracking slows the run, so its peak comes from the second run only
    metrics["solver.peak_alloc_mb"] = {
        "value": traced[1][1]["counters"].get("solver.peak_alloc_mb", 0.0), "unit": "MB"}
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    overhead = traced[0][0]["wall_s"] - untraced_wall
    print(f"traced wall_s {traced[0][0]['wall_s']:.4f} s, untraced median "
          f"{untraced_wall:.4f} s over {len(untraced)} runs")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    absent = sorted(set(traced[0][1]["absent"]) | set(traced[1][1]["absent"]))
    metrics["trace.absent_names"] = {"value": len(absent), "unit": "count"}
    for name, m in metrics.items():
        print(f"{name:>28} {m['value']:.6g} {m['unit']}")
    if absent:
        print(f"absent names (not traced): {', '.join(absent)}")
    used = sorted({k.split(".")[1] for k, v in traced[0][1]["spans"].items()
                   if k.startswith("fft.") and v["calls"]})
    print(f"fft modules called: {', '.join(used) or 'none'}")
    return metrics, count_mismatches(layers[0], layers[1])


def environment() -> dict:
    import numpy

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    backend = ("pocketfft" if hasattr(numpy.fft, "_pocketfft_umath")
               or hasattr(numpy.fft, "_pocketfft") else "unknown")
    blas = getattr(numpy, "__config__", None)
    blas = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "fft_backend": f"numpy.fft ({backend})",
        "blas": blas.get("name"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "BLC_THREADS_set_by_caller": "BLC_THREADS" in os.environ,
        "BLC_THREADS_in_runs": "unset (default)",
    }


def tally(runs: list[dict], failures: list[str], metrics: dict) -> dict:
    """The result line: a run fails when the gate found any problem in it."""
    failed = sum(1 for r in runs if r["problems"])
    return {"correct": not failures, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, args: argparse.Namespace, spec: dict) -> dict:
    """One workload's result line; raises CheckoutError outside a checkout."""
    bench = Bench(name, args.seed, spec)
    try:
        print(f"workload {name}  seed {args.seed} -> input seed {bench.in_seed}  "
              f"flags {bench.workload['flags']}  config {bench.workload['config']}")
        print("env:", json.dumps(environment()))
        if args.trace:
            metrics, problems = per_layer(bench, args.seconds)
            bench.failures += problems
        else:
            metrics = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    result = tally(bench.runs, bench.failures, metrics)
    print(f"fail_frac {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} runs)")
    for failure in bench.failures:
        print(f"FAILED: {failure}")
    return result


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in spec["workloads"]]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from "
              f"{sorted(spec['workloads'])} or 'all'", file=sys.stderr)
        return 2
    try:
        results = {name: run_workload(name, args, spec) for name in names}
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:   # --workload all: one line, metric names prefixed by workload
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
