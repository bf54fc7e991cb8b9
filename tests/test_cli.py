"""Command-line interface tests: exit codes, config handling, file outputs."""
import csv
import dataclasses
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from blcsim import cli, solver
from blcsim.cli import (
    EXIT_BLOWUP, EXIT_CLEAN, EXIT_INADMISSIBLE, EXIT_NUMERICAL, EXIT_USAGE,
    main, read_config_file,
)
from blcsim.solver import load_state
from blcsim.spectral import _HEADER


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


# -- dump-partition -----------------------------------------------------------

def test_dump_partition(tmp_path):
    path = tmp_path / "part.csv"
    code, text = run_cli("dump-partition", "--M", "32", "--out", str(path))
    assert code == EXIT_CLEAN
    assert "q range [-1, 3]" in text
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["q", "xi_magnitude", "phi_q"]
    assert len(rows) > 1


# -- run: clean paths ----------------------------------------------------------

def test_run_zero_preset(tmp_path):
    out = tmp_path / "run0"
    code, text = run_cli("run", "--preset", "zero", "--M", "16",
                         "--T", "0.01", "--out", str(out))
    assert code == EXIT_CLEAN
    assert "rows:" in text and "report:" in text
    assert (out / "report.csv").exists()
    assert (out / "summary.json").exists()
    snaps = sorted((out / "snapshots").glob("state_*.blcf"))
    assert len(snaps) == 1          # final state only by default


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_run_report_contents(tmp_path):
    out = tmp_path / "run1"
    code, _ = run_cli("run", "--preset", "single-mode", "--eps", "0.001",
                      "--M", "16", "--T", "0.02", "--out", str(out))
    assert code == EXIT_CLEAN
    with open(out / "summary.json") as fh:   # strict JSON: no NaN or Infinity
        summary = json.load(fh, parse_constant=_refuse_constant)
    assert summary["config"]["preset"] == "single-mode"
    assert summary["config"]["eps"] == 0.001
    assert summary["rows"] >= 2
    assert summary["blowup"]["detected"] is False
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t"
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(0.02, rel=1e-9)


def test_run_picard_mode(tmp_path):
    out = tmp_path / "run2"
    code, _ = run_cli("run", "--preset", "single-mode", "--eps", "0.001",
                      "--M", "16", "--T", "0.01", "--mode", "picard",
                      "--out", str(out))
    assert code == EXIT_CLEAN
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["picard"]["converged"] is True


def _summary_after(tmp_path, config, *argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    code, _ = run_cli("run", "--config", str(cfg), "--preset", "single-mode",
                      "--eps", "0.001", "--M", "16", *argv, "--out", str(out))
    return code, json.loads((out / "summary.json").read_text())


def test_summary_records_steps_taken(tmp_path):
    code, summary = _summary_after(tmp_path, "report_stride = 1\n",
                                   "--T", "0.02")
    assert code == EXIT_CLEAN
    assert summary["steps"] > 1 and summary["rows"] == summary["steps"] + 1
    assert summary["dt"] * summary["steps"] == pytest.approx(0.02, rel=1e-12)


def test_summary_steps_stop_at_blowup(tmp_path):
    code, summary = _summary_after(tmp_path, "blowup_factor = 0.5\n",
                                   "--T", "0.01")
    assert code == EXIT_BLOWUP
    assert summary["steps"] == 1
    assert summary["dt"] < 0.01      # more steps were planned


def test_summary_picard_steps_are_grid_intervals(tmp_path):
    code, summary = _summary_after(tmp_path, "report_stride = 1\n",
                                   "--T", "0.01", "--mode", "picard")
    assert code == EXIT_CLEAN
    assert summary["steps"] > 1 and summary["rows"] == summary["steps"] + 1
    assert summary["dt"] * summary["steps"] == pytest.approx(0.01, rel=1e-12)


def test_summary_picard_refines_to_its_tolerance(tmp_path):
    """picard-2d64's run with picard_tol = 1e-14: the first grid's error
    estimate is above the tolerance, so the iteration restarts once on a
    finer grid, whose estimate meets the tolerance unless the grid reached
    its cap, a multiple of the first grid at least the rule's step count."""
    from blcsim.presets import build_preset
    from blcsim.spectral import Grid
    cfg = tmp_path / "run.cfg"
    cfg.write_text("picard_tol = 1e-14\n")
    out = tmp_path / "out"
    code, _ = run_cli("run", "--config", str(cfg), "--preset", "single-mode",
                      "--eps", "0.001", "--N", "2", "--M", "64", "--T", "0.2",
                      "--mode", "picard", "--out", str(out))
    summary = json.loads((out / "summary.json").read_text())
    picard = summary["picard"]
    assert code == EXIT_CLEAN and picard["converged"]
    grids = picard["grids"]
    assert len(grids) == 2 and grids[1] % grids[0] == 0 and grids[1] > grids[0]
    assert summary["steps"] == grids[1] and summary["rows"] == grids[0] + 1
    u0, tau0, dbar = build_preset("single-mode", Grid(2, 64), 0.001)
    n_rule = solver._time_grid(
        solver.prepare_initial(u0, tau0, dbar),
        solver.SolverConfig(t_end=0.2, mode="picard"))
    at_cap = grids[1] == math.ceil(n_rule / grids[0]) * grids[0]
    assert picard["error_estimate"] <= 1e-14 or at_cap


def test_summary_picard_error_estimate_null_on_one_interval(tmp_path):
    code, summary = _summary_after(tmp_path, "", "--T", "1e-4", "--mode",
                                   "picard")
    assert code == EXIT_CLEAN
    assert summary["steps"] == 1 and summary["picard"]["grids"] == [1]
    assert summary["picard"]["error_estimate"] is None


def test_check_scaling(tmp_path):
    code, text = run_cli("run", "--check-scaling", "--M", "32")
    assert code == EXIT_CLEAN
    assert "PASS" in text
    assert "FAIL" not in text


@pytest.mark.parametrize("dim", ["2", "3"])
def test_check_scaling_coarse_grid_rejected(tmp_path, capsys, dim):
    """The test modes need M >= 18: a coarser grid is a usage error naming
    --M, and M = 18 passes."""
    code, _ = run_cli("run", "--check-scaling", "--N", dim, "--M", "16")
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "--M" in err
    assert "Traceback" not in err
    code, text = run_cli("run", "--check-scaling", "--N", dim, "--M", "18")
    assert code == EXIT_CLEAN and "FAIL" not in text


# -- run: failure paths -----------------------------------------------------------

def test_inadmissible_exponents(tmp_path):
    """Exponents with a nonpositive margin, or one outside its range, exit 2
    before the solve."""
    out = tmp_path / "run3"
    for flags, message in ((("--rho2", "4", "--rho3", "4"), "margin"),
                           (("--rho1", "2"), "inadmissible criterion exponents: "
                            "rho1 must lie in (2, inf), got 2.0")):
        code, text = run_cli("run", "--M", "16", "--T", "0.01", *flags,
                             "--out", str(out))
        assert code == EXIT_INADMISSIBLE
        assert message in text
        assert not (out / "report.csv").exists()


@pytest.mark.parametrize("mode", ["direct", "picard"])
def test_blowup_exit(tmp_path, mode):
    """Both modes end at the first row past blowup_factor * E0: the direct
    run's first step, which is also Picard's first recorded row."""
    out = tmp_path / "run4"
    cfg = tmp_path / "blow.cfg"
    cfg.write_text("blowup_factor = 1e-12\n")
    code, text = run_cli("run", "--config", str(cfg), "--preset",
                         "taylor-green", "--eps", "0.5", "--M", "16",
                         "--T", "0.01", "--mode", mode, "--out", str(out))
    assert code == EXIT_BLOWUP
    assert "blow-up detected" in text
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["blowup"]["detected"] is True
    assert summary["rows"] == 2
    assert summary["blowup"]["time"] == pytest.approx(0.005, rel=1e-12)


def test_picard_non_finite_sweep_exit(tmp_path, capsys, monkeypatch):
    """A Picard sweep that turns non-finite exits 1 with one error line on
    stderr and no traceback, writing no report."""
    def nan_rhs(y, dbar, grid):
        return y * math.nan

    monkeypatch.setattr(solver, "_nonlinear_rhs", nan_rhs)
    out = tmp_path / "run"
    code, _ = run_cli("run", "--M", "16", "--T", "0.01", "--mode", "picard",
                      "--out", str(out))
    err = capsys.readouterr().err
    assert code == EXIT_BLOWUP
    assert err.startswith("blow-up detected:") and "Traceback" not in err
    assert not (out / "report.csv").exists()


@pytest.mark.parametrize("mode", ["direct", "picard"])
@pytest.mark.parametrize("eps", ["1e160", "1e300"])
def test_overflowing_data_exit(tmp_path, capsys, mode, eps):
    """Data whose |u|^2 overflows exits 1 with the blow-up line on stderr
    and no traceback, writing no report."""
    out = tmp_path / "run"
    code, _ = run_cli("run", "--preset", "taylor-green", "--eps", eps, "--M",
                      "16", "--T", "0.01", "--mode", mode, "--out", str(out))
    err = capsys.readouterr().err
    assert code == EXIT_BLOWUP
    assert err.startswith("blow-up detected: max|u| = inf")
    assert "Traceback" not in err
    assert not (out / "report.csv").exists()


def _run_child(*argv):
    """`blcsim run` in a child process that may take at most 60 s."""
    return subprocess.run([sys.executable, "-m", "blcsim.cli", "run", *argv],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("mode", ["direct", "picard"])
def test_runaway_step_count_exits_blowup(tmp_path, mode):
    """Data whose step rule asks for about 1e149 steps (E stays within its
    threshold, so no step would trip it) exits 1 before any step, naming
    the step count on stderr, with no traceback and no report."""
    out = tmp_path / "run"
    proc = _run_child("--preset", "taylor-green", "--eps", "1e150", "--M", "16",
                      "--T", "0.01", "--mode", mode, "--out", str(out))
    assert proc.returncode == EXIT_BLOWUP
    assert proc.stderr.startswith("blow-up detected:")
    assert "1.06667e+149 steps" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "report.csv").exists()


def test_runaway_dt_exits_usage(tmp_path):
    """A --dt that would take more than MAX_STEPS steps is a usage error."""
    out = tmp_path / "run"
    proc = _run_child("--dt", "1e-20", "--T", "1", "--M", "16", "--out", str(out))
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error: dt must be at least t_end /")
    assert not (out / "report.csv").exists()


def test_picard_nonconvergence_exit(tmp_path):
    out = tmp_path / "run5"
    cfg = tmp_path / "stubborn.cfg"
    cfg.write_text("picard_tol = 0.0\npicard_max_iter = 2\n")
    code, text = run_cli("run", "--config", str(cfg), "--preset",
                         "single-mode", "--eps", "0.001", "--M", "16",
                         "--T", "0.01", "--mode", "picard", "--out", str(out))
    assert code == EXIT_NUMERICAL
    assert "did not converge" in text


# -- usage errors ------------------------------------------------------------------

def test_bad_flag():
    code, _ = run_cli("run", "--bogus")
    assert code == EXIT_USAGE


def test_bad_preset():
    code, _ = run_cli("run", "--preset", "vortex")
    assert code == EXIT_USAGE


def test_bad_resume_path(tmp_path):
    code, _ = run_cli("run", "--resume", str(tmp_path / "missing.blcf"),
                      "--T", "1.0")
    assert code == EXIT_USAGE


def _usage_error(tmp_path, capsys, *argv):
    """Run argv with --out in an empty directory; check that it exits 4 with
    an error line and no traceback, and writes nothing."""
    out = tmp_path / ("part.csv" if argv[0] == "dump-partition" else "run")
    code, _ = run_cli(*argv, "--out", str(out))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE, argv
    assert err.startswith("error:") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_odd_grid_rejected(tmp_path, capsys):
    """An odd M is a usage error in either subcommand."""
    for command in (("run", "--T", "0.01"), ("dump-partition",)):
        _usage_error(tmp_path, capsys, *command, "--M", "33")


def test_dump_partition_bad_samples_rejected(tmp_path, capsys):
    """A --samples below 1 is refused at the flag, by name: 0 would write a
    CSV of the header alone."""
    for samples in ("0", "-1", "-5"):
        code, _ = run_cli("dump-partition", "--samples", samples,
                          "--out", str(tmp_path / "part.csv"))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == f"error: --samples must be at least 1, got {samples}\n"
        assert list(tmp_path.iterdir()) == []


def test_unwritable_out_rejected(tmp_path, capsys, monkeypatch):
    """An --out under a regular file, or under a missing directory for
    dump-partition, exits 4 with one error line and no traceback; run
    stops before the solve."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")

    def no_solve(*args, **kwargs):
        raise AssertionError("solve ran with an unwritable --out")

    monkeypatch.setattr(cli, "solve", no_solve)
    for argv in (("run", "--preset", "zero", "--M", "16", "--T", "0.01",
                  "--out", str(blocker / "run")),
                 ("dump-partition", "--M", "16",
                  "--out", str(tmp_path / "missing" / "p.csv"))):
        code, _ = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, argv
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]


def test_unknown_config_key(tmp_path, capsys):
    """An unknown key, a line without '=' and an unreadable file each exit 4
    with an error line naming the fault."""
    cfg = tmp_path / "bad.cfg"
    for text, message in (("bogus_knob = 7\n", "unknown config keys"),
                          ("# a comment\nmu 2\n", ":2: expected 'key = value'"),
                          (None, "cannot read config file")):
        if text is None:
            cfg.unlink()
        else:
            cfg.write_text(text)
        code, _ = run_cli("run", "--config", str(cfg), "--T", "0.01")
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error:") and message in err


_BAD_VALUES = ["mu = abc", "T = abc", "dt = abc", "preset = vortex",
               "mode = nope", "mu = -1", "renormalize_director = no",
               "N = 2.5", "seed = 1.5", "picard_max_iter = 2.5",
               "report_stride = 0", "report_stride = 2.5", "blowup_factor = 0",
               "picard_max_iter = 0", "picard_max_iter = -3", "picard_tol = -1",
               "picard_tol = nan", "T = inf", "mu = inf", "eps = nan",
               "eps = inf", "snapshot_every = -1", "seed = -1", "dt = inf",
               "blowup_factor = inf", "picard_tol = inf"]


def _run_with_config_line(tmp_path, line, preset="zero"):
    """A short run of preset whose config file holds `line`; flags set the
    other keys, never the one under test."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    key = line.split("=")[0].strip()
    flags = {"preset": preset, "M": "16", "T": "0.01"}
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out")]
    for flag, value in flags.items():
        if flag != key:
            argv += [f"--{flag}", value]
    return key, run_cli(*argv)


@pytest.mark.parametrize("line", _BAD_VALUES)
def test_bad_config_value_exits_usage(tmp_path, capsys, line):
    key, (code, _) = _run_with_config_line(tmp_path, line)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "report.csv").exists()


def test_renormalize_in_picard_mode_exits_usage(tmp_path, capsys):
    """renormalize_director applies to direct mode only."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("renormalize_director = true\n")
    code, _ = run_cli("run", "--config", str(cfg), "--preset", "zero", "--M", "16",
                      "--T", "0.01", "--mode", "picard", "--out", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "renormalize_director" in err
    assert not (tmp_path / "out").exists()


def test_refused_allocation_exits_usage(tmp_path, capsys, monkeypatch):
    """A run too large to allocate (e.g. --N 3 --M 4096) exits 4 with one
    error line, not 1, the blow-up code, with a traceback. The allocation is
    refused by a stand-in: a real one may be granted and fill the memory."""
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 512. GiB for an array")
    monkeypatch.setattr(cli, "build_preset", refuse)
    code, _ = run_cli("run", "--M", "16", "--T", "0.01",
                      "--out", str(tmp_path / "out"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "error: out of memory: Unable to allocate 512. GiB for an array"]


def test_negative_seed_named_for_random_band(tmp_path, capsys):
    """random-band draws with the seed, where numpy's own message would
    not name the key."""
    _, (code, _) = _run_with_config_line(tmp_path, "seed = -1",
                                         preset="random-band")
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "seed" in err
    assert "Traceback" not in err


def test_config_ints_stand_for_floats(tmp_path):
    _, (code, _) = _run_with_config_line(tmp_path, "mu = 1")
    assert code == EXIT_CLEAN
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["mu"] == 1


# -- config file parsing -------------------------------------------------------------

def test_config_file_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "preset = zero\n"
        "M = 16\n"
        "T = 0.01\n"
        "renormalize_director = true\n"
        "report_stride = 4\n")
    parsed = read_config_file(str(cfg))
    assert parsed["preset"] == "zero"
    assert parsed["M"] == 16
    assert parsed["T"] == 0.01
    assert parsed["renormalize_director"] is True
    assert parsed["report_stride"] == 4


def test_cli_overrides_config(tmp_path):
    out = tmp_path / "run6"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("preset = zero\neps = 0.5\nM = 16\nT = 0.01\n")
    code, _ = run_cli("run", "--config", str(cfg), "--eps", "0.001",
                      "--out", str(out))
    assert code == EXIT_CLEAN
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["config"]["eps"] == 0.001        # flag beats file
    assert summary["config"]["preset"] == "zero"    # file beats default


def test_snapshot_every(tmp_path):
    out = tmp_path / "run7"
    cfg = tmp_path / "snap.cfg"
    cfg.write_text("snapshot_every = 2\n")
    code, _ = run_cli("run", "--config", str(cfg), "--preset", "zero",
                      "--M", "16", "--T", "0.01", "--out", str(out))
    assert code == EXIT_CLEAN
    snaps = sorted((out / "snapshots").glob("state_*.blcf"))
    assert len(snaps) >= 2


def test_run_removes_stale_snapshot_temporaries(tmp_path):
    """A run starts by deleting the temporaries a killed save_state left."""
    out = tmp_path / "run8"
    snaps = out / "snapshots"
    snaps.mkdir(parents=True)
    stale = snaps / ".state_00003.blcf.tmp"
    stale.write_bytes(b"partial")
    other = snaps / "notes.txt"
    other.write_text("kept")
    code, _ = run_cli("run", "--preset", "zero", "--M", "16", "--T", "0.01",
                      "--out", str(out))
    assert code == EXIT_CLEAN
    assert not stale.exists()
    assert other.read_text() == "kept"
    assert list(snaps.glob("state_*.blcf"))


# -- resume --------------------------------------------------------------------------

def _report_times(out):
    with open(out / "report.csv", newline="") as fh:
        return [float(row[0]) for row in list(csv.reader(fh))[1:]]


def test_resume_continues(tmp_path):
    first = tmp_path / "leg1"
    code, _ = run_cli("run", "--preset", "single-mode", "--eps", "0.001",
                      "--M", "16", "--T", "0.02", "--out", str(first))
    assert code == EXIT_CLEAN
    snaps = sorted((first / "snapshots").glob("state_*.blcf"))
    last_snap = snaps[-1]

    second = tmp_path / "leg2"
    code2, _ = run_cli("run", "--resume", str(last_snap), "--M", "16",
                       "--T", "0.04", "--out", str(second))
    assert code2 == EXIT_CLEAN
    times = _report_times(second)
    assert times[0] == pytest.approx(0.02, rel=1e-9)
    assert times[-1] == pytest.approx(0.04, rel=1e-9)

    # a second resume starts where the resumed leg ended
    third = tmp_path / "leg3"
    snaps2 = sorted((second / "snapshots").glob("state_*.blcf"))
    code3, _ = run_cli("run", "--resume", str(snaps2[-1]), "--M", "16",
                       "--T", "0.06", "--out", str(third))
    assert code3 == EXIT_CLEAN
    assert _report_times(third)[0] == pytest.approx(0.04, rel=1e-9)

    # every snapshot carries the time of its report row
    for leg in (first, second, third):
        times = _report_times(leg)
        for snap in sorted((leg / "snapshots").glob("state_*.blcf")):
            row = int(snap.stem.split("_")[1])
            assert load_state(snap).t == pytest.approx(times[row], rel=1e-9)


def test_resume_takes_grid_from_snapshot(tmp_path):
    """A 3D snapshot resumed without --N keeps its dimension and grid size,
    so the criterion exponents and the echoed N and M match leg 1's."""
    first = tmp_path / "leg1"
    code, _ = run_cli("run", "--preset", "random-band", "--eps", "0.1",
                      "--N", "3", "--M", "16", "--T", "0.01",
                      "--out", str(first))
    assert code == EXIT_CLEAN
    snap = sorted((first / "snapshots").glob("state_*.blcf"))[-1]

    second = tmp_path / "leg2"
    code2, _ = run_cli("run", "--resume", str(snap), "--T", "0.02",
                       "--out", str(second))
    assert code2 == EXIT_CLEAN
    s1 = json.loads((first / "summary.json").read_text())
    s2 = json.loads((second / "summary.json").read_text())
    assert s2["criterion_exponents"] == s1["criterion_exponents"]
    assert s2["admissibility_margin"] == s1["admissibility_margin"]
    assert (s2["config"]["N"], s2["config"]["M"]) == (3, 16)
    assert s2["q_range"] == s1["q_range"]

    # a flag that contradicts the snapshot is a usage error
    for flag, value in (("--N", "2"), ("--M", "32")):
        code3, _ = run_cli("run", "--resume", str(snap), flag, value,
                           "--T", "0.02", "--out", str(tmp_path / "leg3"))
        assert code3 == EXIT_USAGE


def test_resume_must_extend(tmp_path):
    first = tmp_path / "leg1"
    run_cli("run", "--preset", "single-mode", "--eps", "0.001",
            "--M", "16", "--T", "0.02", "--out", str(first))
    snaps = sorted((first / "snapshots").glob("state_*.blcf"))
    code, _ = run_cli("run", "--resume", str(snaps[-1]), "--M", "16",
                      "--T", "0.01", "--out", str(tmp_path / "leg2"))
    assert code == EXIT_USAGE


def test_resume_nonfinite_snapshot_rejected(tmp_path, capsys):
    """A snapshot holding a NaN sample cannot be resumed: exit 4, one error
    line, no report."""
    first = tmp_path / "leg1"
    run_cli("run", "--preset", "zero", "--M", "16", "--T", "0.01",
            "--out", str(first))
    snap = sorted((first / "snapshots").glob("state_*.blcf"))[-1]
    raw = bytearray(snap.read_bytes())
    raw[_HEADER.size:_HEADER.size + 8] = struct.pack("<d", math.nan)
    snap.write_bytes(bytes(raw))
    capsys.readouterr()
    second = tmp_path / "leg2"
    code, _ = run_cli("run", "--resume", str(snap), "--T", "0.02",
                      "--out", str(second))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "Traceback" not in err
    assert not (second / "report.csv").exists()


def test_resume_blowup_time_is_absolute(tmp_path):
    """A resumed run that blows up reports the flagged row's absolute time
    in summary.json and on stdout."""
    first = tmp_path / "leg1"
    code, _ = run_cli("run", "--preset", "taylor-green", "--eps", "0.5",
                      "--M", "16", "--T", "0.01", "--out", str(first))
    assert code == EXIT_CLEAN
    snap = sorted((first / "snapshots").glob("state_*.blcf"))[-1]
    cfg = tmp_path / "blow.cfg"
    cfg.write_text("blowup_factor = 1e-12\n")
    second = tmp_path / "leg2"
    code2, text = run_cli("run", "--config", str(cfg), "--resume", str(snap),
                          "--T", "0.02", "--out", str(second))
    assert code2 == EXIT_BLOWUP
    with open(second / "report.csv", newline="") as fh:
        flagged = [float(row["t"]) for row in csv.DictReader(fh)
                   if row["blowup_flag"] == "1"]
    time = json.loads((second / "summary.json").read_text())["blowup"]["time"]
    assert flagged == [pytest.approx(0.015, rel=1e-9)]
    assert time == pytest.approx(flagged[0], rel=1e-12)
    assert "blow-up detected at t = 0.015 " in text


def test_resume_oversized_header_rejected(tmp_path, capsys):
    """A snapshot header claiming N = 3, M = 2^20 (more samples than a read
    can ask for) is a usage error, not a traceback."""
    snap = tmp_path / "huge.blcf"
    snap.write_bytes(_HEADER.pack(b"BLCF", 1, 3, 2 ** 20, 1, 0.0) + bytes(64))
    out = tmp_path / "out"
    code, _ = run_cli("run", "--resume", str(snap), "--T", "0.02",
                      "--out", str(out))
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error:") and "Traceback" not in err
    assert not (out / "report.csv").exists()


def test_cli_defaults_match_solver_config():
    """The CLI's defaults repeat SolverConfig's, t_end under the flag name T."""
    for field in dataclasses.fields(solver.SolverConfig):
        key = "T" if field.name == "t_end" else field.name
        assert key in cli._DEFAULTS, key
        assert cli._DEFAULTS[key] == field.default, key


# -- BLAS threads ---------------------------------------------------------------

def _child_env(**overrides):
    """This environment without OPENBLAS_NUM_THREADS, blcsim importable."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.update(overrides)
    return env


_IMPORT_PROBE = """
import json, os
before = dict(os.environ)
{first}
import blcsim.cli
task = "/proc/self/task"
print(json.dumps({{
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "unchanged": dict(os.environ) == before,
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None}}))
"""


def _fresh_import(first="", **env):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE.format(first=first)],
                          env=_child_env(**env), capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def test_cli_starts_numpy_on_one_blas_thread():
    probe = _fresh_import()
    assert probe["blas"] == "1"
    if probe["threads"] is None:
        pytest.skip("no /proc/self/task to count threads")
    assert probe["threads"] == 1


def test_cli_keeps_the_callers_blas_threads():
    assert _fresh_import(OPENBLAS_NUM_THREADS="2")["blas"] == "2"


def test_cli_imported_after_numpy_leaves_environment_alone():
    probe = _fresh_import(first="import numpy")
    assert probe["unchanged"] and probe["blas"] is None


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    """A Picard run, whose distance chunks go through a gemm, writes the same
    bytes on one BLAS thread and on two."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("report_stride = 1\n")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        subprocess.run([sys.executable, "-c",
                        "import sys; from blcsim.cli import main; sys.exit(main())",
                        "run", "--config", str(cfg), "--M", "16", "--T", "0.01",
                        "--mode", "picard", "--out", str(out)],
                       env=_child_env(OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, check=True)
        snaps = sorted((out / "snapshots").glob("*.blcf"))
        assert len(snaps) == 1
        outputs.append(((out / "report.csv").read_bytes(),
                        (out / "summary.json").read_text().replace(str(out), "OUT"),
                        snaps[0].name, snaps[0].read_bytes()))
    assert outputs[0] == outputs[1]


# -- benchmark hooks -----------------------------------------------------------------

def test_bench_hook_names():
    """The benchmark wraps these names by module attribute; keep them callable."""
    for module, names in ((solver, ("_step_core", "_nonlinear_rhs",
                                    "_traj_from_arrays", "block_lp_norms",
                                    "build_partition", "build_report",
                                    "picard_iterate")),
                          (cli, ("solve", "build_preset", "export_series",
                                 "save_state"))):
        for name in names:
            assert callable(getattr(module, name, None)), \
                f"{module.__name__}.{name}"
