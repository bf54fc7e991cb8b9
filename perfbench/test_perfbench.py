"""Tests of the benchmark itself: the correctness gate, counting and tracing.

    python3 -m pytest -q perfbench
"""
import csv
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import setup_probe
import traced

REFERENCE = {"E": 0.4, "crit": [0.05, 0.12, 0.1], "energy": 0.03, "drift": 2e-6}
TOLERANCE = run.load_spec()["tolerance"]


def write_outputs(out: Path, final=None, rows=3, blowup=False, picard=None,
                  snapshots=1, csv_final=None):
    """A run directory as `blcsim run` leaves it, with chosen final values."""
    final = dict(final or {"t": 0.02, **REFERENCE})
    out.mkdir(parents=True)
    summary = {"rows": rows, "final": final,
               "blowup": {"detected": blowup, "time": None,
                          "fastest_growing_criterion": None}}
    if picard is not None:
        summary["picard"] = picard
    (out / "summary.json").write_text(json.dumps(summary))
    last = dict(csv_final or final)
    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "E", "crit1", "crit2", "crit3", "drift", "energy",
                         "blowup_flag"])
        writer.writerow([last["t"], last["E"], *last["crit"], last["drift"],
                         last["energy"], int(blowup)])
    (out / "snapshots").mkdir()
    for i in range(snapshots):
        (out / "snapshots" / f"state_{i:05d}.blcf").write_bytes(b"BLCF")
    return out


def check(out, rc=0, snapshot_every=0):
    return run.check_run(rc, out, REFERENCE, TOLERANCE, snapshot_every)


def perturbed(**changes):
    final = {"t": 0.02, **REFERENCE}
    final.update(changes)
    return final


def test_clean_run_passes(tmp_path):
    assert check(write_outputs(tmp_path / "out")) == []


@pytest.mark.parametrize("case, kwargs, rc, every, reason", [
    ("exit code", {}, 3, 0, "exit code 3"),
    ("blow-up", {"blowup": True}, 0, 0, "blow-up"),
    ("picard", {"picard": {"converged": False, "diffs": [1e-3, 2e-3]}}, 0, 0, "Picard"),
    ("E", {"final": perturbed(E=0.4 * (1 + 1e-4))}, 0, 0, "E ="),
    ("energy", {"final": perturbed(energy=0.03 * 0.999)}, 0, 0, "energy ="),
    ("crit", {"final": perturbed(crit=[0.05, 0.12, 0.2])}, 0, 0, "crit3 ="),
    ("drift", {"final": perturbed(drift=1e-3)}, 0, 0, "drift ="),
    ("nan", {"final": perturbed(E=float("nan"))}, 0, 0, "E ="),
    ("csv", {"csv_final": perturbed(E=0.5)}, 0, 0, "report.csv"),
    ("snapshots", {"rows": 3, "snapshots": 2}, 0, 1, "snapshots"),
])
def test_each_failure_kind_is_caught(tmp_path, case, kwargs, rc, every, reason):
    problems = check(write_outputs(tmp_path / "out", **kwargs), rc, every)
    assert any(reason in p for p in problems), (case, problems)


def test_missing_outputs_fail(tmp_path):
    assert check(tmp_path / "nothing")[0].startswith("unreadable output")


def test_tolerance_admits_a_larger_time_step(tmp_path):
    # a 16x step moved E by 3e-7 and crit by 1.6e-2 on random-band
    final = perturbed(E=0.4 * (1 + 3e-7), crit=[0.05 * 1.016, 0.12, 0.1],
                      drift=2e-6 * 1.02)
    assert check(write_outputs(tmp_path / "out", final=final)) == []
    # on Picard small data the same step moved the round-off drift 1.7e-14 -> 3.5e-12
    small = {"t": 0.2, "E": 1e-3, "crit": [5e-4, 2e-4, 1e-4], "energy": 3e-7, "drift": 1.7e-14}
    moved = dict(small, drift=3.5e-12)
    assert run.check_run(0, write_outputs(tmp_path / "small", final=moved),
                         small, TOLERANCE, 0) == []


def test_recording_skips_only_the_reference_comparison(tmp_path):
    far = perturbed(E=9.0, crit=[1.0, 2.0, 3.0])
    out = write_outputs(tmp_path / "out", final=far)
    assert run.check_run(0, out, None, TOLERANCE, 0) == []
    assert run.check_run(2, out, None, TOLERANCE, 0) == ["exit code 2"]
    blown = write_outputs(tmp_path / "blown", final=far, blowup=True)
    assert "blow-up reported" in run.check_run(0, blown, None, TOLERANCE, 0)


def test_failed_runs_are_counted():
    runs = [{"problems": []}, {"problems": ["exit code 1"]},
            {"problems": ["blow-up reported"]}, {"problems": []}]
    result = run.tally(runs, ["two runs failed"], {})
    assert (result["attempted"], result["failed"], result["correct"]) == (4, 2, False)
    assert run.tally(runs[:1], [], {})["correct"] is True


def test_count_mismatch_is_reported():
    a = {k: (10, "count") for k in run.COUNT_METRICS}
    b = dict(a, **{"fft.calls": (11, "count")})
    assert run.count_mismatches(a, dict(a)) == []
    assert "fft.calls" in run.count_mismatches(a, b)[0]


def test_seed_reaches_random_band_config(tmp_path):
    spec = run.load_spec()
    workload = spec["workloads"]["randband-3d32"]
    in_seed = run.input_seed(workload, 37)
    assert str(in_seed) in workload["reference"]
    argv = run.cli_argv(workload, in_seed, tmp_path)
    config = (tmp_path / "run.cfg").read_text()
    assert f"seed = {in_seed}\n" in config and "snapshot_every = 1\n" in config
    assert argv[argv.index("--preset") + 1] == "random-band"
    for name, w in spec["workloads"].items():
        assert set(w["reference"]) == {str(s) for s in range(max(1, w["input_seeds"]))}


def test_absent_names_are_reported_not_raised():
    tracer = traced.Tracer(memory=False)
    tracer.wrap("json", "no_such_function", "cli.missing")
    tracer.wrap("no_such_module_here", "solve", "solver.solve")
    assert tracer.absent == ["json.no_such_function", "no_such_module_here.solve"]


def test_setup_probe_reports_an_absent_first_row_name(monkeypatch):
    monkeypatch.setattr(setup_probe, "FIRST_ROW", ("json", "no_such_function"))
    absent = []
    assert setup_probe.stop_at_first_row(absent) is False
    assert absent == ["json.no_such_function"]


def test_setup_probe_times_the_real_cli():
    bench = run.Bench("smalldata-2d64", 0, run.load_spec())
    try:
        samples = bench.setup_probe()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    assert bench.failures == []
    assert len(samples) == 1 and 0 < samples[0] < 60


def test_setup_probe_that_never_reaches_a_row_fails_the_gate():
    spec = run.load_spec()
    spec["workloads"]["smalldata-2d64"]["config"] = {"no_such_key": 1}
    bench = run.Bench("smalldata-2d64", 0, spec)
    try:
        samples = bench.setup_probe() + bench.setup_probe()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    # the second probe is not made once the first has failed
    assert samples == [] and len(bench.failures) == 1
    assert run.tally([], bench.failures, {})["correct"] is False


def test_span_self_time_excludes_children():
    tracer = traced.Tracer(memory=False)
    inner = tracer._span("norms.inner", lambda: time.sleep(0.02), None, None)

    def outer_fn():
        time.sleep(0.01)
        inner()
    outer = tracer._span("solver.outer", outer_fn, None, None)
    outer()
    spans = tracer.spans
    assert spans["norms.inner"]["calls"] == 1
    assert spans["solver.outer"]["s"] >= spans["norms.inner"]["s"]
    assert spans["solver.outer"]["self_s"] == pytest.approx(
        spans["solver.outer"]["s"] - spans["norms.inner"]["s"])


@pytest.mark.parametrize("call, fields", [
    (lambda a: ((a,), {"s": (8, 8), "axes": (-2, -1)}), 6),
    (lambda a: ((a,), {}), 1),
    (lambda a: ((a, None, (-1,)), {}), 48),
])
def test_fft_fields_counts_the_batch(call, fields):
    args, kwargs = call(np.zeros((6, 8, 8)))
    assert traced.fft_fields(0, args, kwargs) == fields
    assert traced.fft_fields(1, (np.zeros((6, 8, 8)),), {}) == 48


def test_refuses_a_directory_without_the_program(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "smalldata-2d64", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def traced_cli(tmp_path: Path, tag: str, config: str, *flags: str):
    """A traced `blcsim run` of a small 2D case: exit code, trace, summary."""
    module, func = run.entry_point(run.ROOT)
    trace_path, cfg = tmp_path / f"trace-{tag}.json", tmp_path / f"{tag}.cfg"
    cfg.write_text(config)
    cmd = [sys.executable, str(Path(traced.__file__)), "--trace-out",
           str(trace_path), "--entry", f"{module}:{func}", "--",
           "run", "--preset", "single-mode", "--M", "16", "--config", str(cfg),
           "--out", str(tmp_path / tag), *flags]
    proc = subprocess.run(cmd, env=run.child_env(run.ROOT), cwd=run.ROOT,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, json.loads(trace_path.read_text()), run.read_summary(tmp_path / tag)


def test_steps_are_the_steps_taken(tmp_path):
    # one row per step, so rows - 1 steps were planned and taken
    rc, trace, summary = traced_cli(tmp_path, "direct", "report_stride = 1\n", "--T", "0.01")
    assert rc == 0 and trace["counters"]["solver.steps"] == summary["rows"] - 1 > 1
    # a threshold below E0 stops the run after its first step
    rc, trace, summary = traced_cli(tmp_path, "blowup", "blowup_factor = 0.5\n", "--T", "0.01")
    assert rc != 0 and summary["blowup"]["detected"]
    assert trace["counters"]["solver.steps"] == 1


def test_picard_steps_and_iterate_memory(tmp_path):
    rc, trace, summary = traced_cli(tmp_path, "picard", "report_stride = 1\n",
                                    "--T", "0.01", "--mode", "picard")
    assert rc == 0
    sweeps, points = len(summary["picard"]["diffs"]), summary["rows"]
    # one nonlinear evaluation per time-grid point per sweep
    assert trace["counters"]["solver.steps"] == sweeps * points
    # previous and next iterate, u and tau, 2 components of 16 x 16 complex each
    iterates = 2 * 2 * points * 2 * 16 * 16 * 16 / 2 ** 20
    assert trace["counters"]["solver.retained_mb_computed"] > iterates


def test_traced_run_counts_repeat_on_the_real_program(tmp_path):
    traces = []
    for i in range(2):
        rc, trace, summary = traced_cli(tmp_path, f"out{i}", "", "--T", "0.01")
        assert rc == 0
        traces.append(trace)
        traces[-1]["run"] = {"rows": summary["rows"], "sweeps": 0, "useful": 0}
    layers = [run.layer_metrics(t["run"], t) for t in traces]
    assert run.count_mismatches(layers[0], layers[1]) == []
    assert [a for a in traces[0]["absent"] if not a.startswith("scipy")] == []
    for name in ("fft.calls", "solver.steps", "norms.calls", "monitor.rows",
                 "cli.snapshots"):
        assert layers[0][name][0] > 0, name


class StubBench:
    """Stands in for Bench: fixed run and setup times, no processes."""
    def __init__(self):
        self.runs = 0

    def timed_run(self):
        self.runs += 1
        return {"wall_s": 4.0, "cpu_s": 3.0, "peak_rss_mb": 100.0}

    def setup_probe(self):
        return [0.5]


def test_times_are_scaled_by_the_gauge(monkeypatch):
    # a machine at half the reference speed: reported times are half the raw ones
    monkeypatch.setattr(run, "gauge", lambda: 2 * run.GAUGE_REF_S)
    bench = StubBench()
    metrics = run.end_to_end(bench, 0.0)
    assert bench.runs == run.MIN_RUNS
    assert {k: v["value"] for k, v in metrics.items()} == pytest.approx(
        {"wall_s": 2.0, "cpu_s": 1.5, "peak_rss_mb": 100.0, "setup_s": 0.25})
