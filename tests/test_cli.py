"""Command-line interface tests: exit codes, config handling, file outputs."""
import csv
import dataclasses
import io
import json
import math
import struct

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


def test_run_report_contents(tmp_path):
    out = tmp_path / "run1"
    code, _ = run_cli("run", "--preset", "single-mode", "--eps", "0.001",
                      "--M", "16", "--T", "0.02", "--out", str(out))
    assert code == EXIT_CLEAN
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
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
    out = tmp_path / "run3"
    code, text = run_cli("run", "--M", "16", "--T", "0.01",
                         "--rho2", "4", "--rho3", "4", "--out", str(out))
    assert code == EXIT_INADMISSIBLE
    assert "margin" in text
    assert not (out / "report.csv").exists()


def test_blowup_exit(tmp_path):
    out = tmp_path / "run4"
    cfg = tmp_path / "blow.cfg"
    cfg.write_text("blowup_factor = 1e-12\n")
    code, text = run_cli("run", "--config", str(cfg), "--preset",
                         "taylor-green", "--eps", "0.5", "--M", "16",
                         "--T", "0.01", "--out", str(out))
    assert code == EXIT_BLOWUP
    assert "blow-up detected" in text
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["blowup"]["detected"] is True


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
    _usage_error(tmp_path, capsys, "dump-partition", "--samples", "-1")


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


def test_unknown_config_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_knob = 7\n")
    code, _ = run_cli("run", "--config", str(cfg), "--T", "0.01")
    assert code == EXIT_USAGE


_BAD_VALUES = ["mu = abc", "T = abc", "dt = abc", "preset = vortex",
               "mode = nope", "mu = -1", "renormalize_director = no",
               "N = 2.5", "seed = 1.5", "picard_max_iter = 2.5",
               "report_stride = 0", "report_stride = 2.5", "blowup_factor = 0",
               "picard_max_iter = 0", "picard_max_iter = -3", "picard_tol = -1",
               "picard_tol = nan", "T = inf", "mu = inf", "eps = nan",
               "eps = inf", "snapshot_every = -1"]


def _run_with_config_line(tmp_path, line):
    """A short zero-data run whose config file holds `line`; flags set the
    other keys, never the one under test."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    key = line.split("=")[0].strip()
    flags = {"preset": "zero", "M": "16", "T": "0.01"}
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


def test_cli_defaults_match_solver_config():
    """The CLI's defaults repeat SolverConfig's, t_end under the flag name T."""
    for field in dataclasses.fields(solver.SolverConfig):
        key = "T" if field.name == "t_end" else field.name
        assert key in cli._DEFAULTS, key
        assert cli._DEFAULTS[key] == field.default, key


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
