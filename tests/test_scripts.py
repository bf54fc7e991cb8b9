"""Smoke tests of the scripts README documents."""
import json

from conftest import SCRIPTS, load_script


def test_probe_continuity_runs(capsys):
    probe = load_script("probe_continuity")
    assert probe.main(["--sizes", "16", "32", "--samples", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:-1]]
    assert [row[0] for row in rows] == ["16", "32"]
    assert lines[-1] == "bounded across refinement"


def _output_dir(path, e="0.00107440893877", out="somewhere", t=0.0):
    """A run directory as `blcsim run` leaves it: report.csv, summary.json
    and one snapshot."""
    from blcsim.presets import build_preset
    from blcsim.solver import State, save_state
    from blcsim.spectral import Grid
    (path / "snapshots").mkdir(parents=True)
    (path / "report.csv").write_text(
        "t,E,crit1,crit2,crit3,drift,energy,blowup_flag\n"
        f"0,{e},0,0,0,1.11e-16,4.09e-07,0\n")
    (path / "summary.json").write_text(json.dumps(
        {"E0": 0.00107440893877, "config": {"out": out, "M": 16}}))
    u, tau, dbar = build_preset("single-mode", Grid(2, 16), 1e-3)
    save_state(path / "snapshots" / "state_00000.blcf", State(u, tau, t, dbar))
    return path


def test_compare_outputs_identical_directories(tmp_path):
    compare = load_script("compare_outputs")
    old = _output_dir(tmp_path / "old", out="a")
    new = _output_dir(tmp_path / "new", out="b")   # config.out is not compared
    assert compare.compare_dirs(old, new) == [
        ("report.csv", "identical"), ("summary.json", "identical"),
        ("snapshots/state_00000.blcf", "identical")]


def test_compare_outputs_reports_one_changed_digit(tmp_path):
    compare = load_script("compare_outputs")
    old = _output_dir(tmp_path / "old")
    new = _output_dir(tmp_path / "new", e="0.00107440893878", t=0.5)
    verdicts = dict(compare.compare_dirs(old, new))
    assert verdicts["report.csv"] == "max rel diff 9.31e-12"
    assert verdicts["summary.json"] == "identical"
    assert verdicts["snapshots/state_00000.blcf"] == "max rel diff 1"
    (new / "snapshots" / "state_00001.blcf").write_bytes(b"")
    verdicts = dict(compare.compare_dirs(old, new))
    assert verdicts["snapshots/state_00001.blcf"] == "differs: missing on one side"


def test_compare_outputs_picard_smoke(capsys):
    """One picard-2d64 run with this checkout on both sides."""
    compare = load_script("compare_outputs")
    root = str(SCRIPTS.parent)
    assert compare.main([root, root, "--workload", "picard-2d64"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "picard-2d64 seed 0  report.csv  identical"
    assert lines[-1] == "all identical"


def test_compare_outputs_renormalize_smoke(capsys):
    """The renormalized direct run, the one configuration that steps
    through solver._renormalize, writes its report and snapshots alike on
    both sides."""
    compare = load_script("compare_outputs")
    root = str(SCRIPTS.parent)
    assert compare.main([root, root, "--workload", "renormalize"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "renormalize seed 1  report.csv  identical"
    assert sum("snapshots/state_" in line for line in lines) >= 2
    assert lines[-1] == "all identical"


def test_compare_outputs_blowup_smoke(capsys, tmp_path):
    """One of the script's own configurations: a direct run that ends in
    blow-up exits 1 and still writes every output, on both sides."""
    compare = load_script("compare_outputs")
    root = SCRIPTS.parent
    assert compare.run_cli(root, compare.EXTRA["blowup-direct"], 0, tmp_path / "run") == 1
    assert compare.main([str(root), str(root), "--workload", "blowup-direct"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["blowup-direct seed 0  report.csv  identical",
                     "blowup-direct seed 0  summary.json  identical",
                     "blowup-direct seed 0  snapshots/state_00001.blcf  identical",
                     "all identical"]


def test_compare_outputs_resume_smoke(capsys, tmp_path):
    """The resume configuration: leg 2 continues from leg 1's last snapshot
    on the absolute clock, and both sides' leg 2 and --check-scaling outputs,
    in 2D and 3D, compare identical."""
    compare = load_script("compare_outputs")
    root = SCRIPTS.parent
    run_dir = tmp_path / "run"
    assert compare.run_resume(root, compare.EXTRA["resume"], 0, run_dir) == 0
    snapshots = sorted((tmp_path / "run-leg1" / "out" / "snapshots").glob("*.blcf"))
    summary = json.loads((run_dir / "out" / "summary.json").read_text())
    assert summary["config"]["resume_from"] == str(snapshots[-1])
    rows = (run_dir / "out" / "report.csv").read_text().splitlines()[1:]
    assert [float(rows[i].split(",")[0]) for i in (0, -1)] == [0.01, 0.02]
    assert compare.main([str(root), str(root), "--workload", "resume",
                         "--workload", "scaling-2d", "--workload", "scaling-3d"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["resume seed 0  report.csv  identical",
                         "resume seed 0  summary.json  identical"]
    assert lines[-5:] == [f"scaling-{n}d M={m}  --check-scaling  identical"
                          for n in (2, 3) for m in (32, 64)] + ["all identical"]


def test_compare_outputs_partition_smoke(capsys, tmp_path):
    """dump-partition at N = 2: each M writes its CSV in a directory of its
    own, and both sides' CSVs compare byte for byte."""
    compare = load_script("compare_outputs")
    root = SCRIPTS.parent
    outputs = compare.run_grid_command(root, "partition-2d", tmp_path)
    assert [m for m, _ in outputs] == [32, 64]
    for _, (code, stdout, files) in outputs:
        assert code == 0 and stdout.startswith("wrote p.csv")
        assert list(files) == ["p.csv"]
        assert files["p.csv"].startswith(b"q,xi_magnitude,phi_q\r\n")
    assert compare.main([str(root), str(root), "--workload", "partition-2d"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "partition-2d M=32  dump-partition  identical",
        "partition-2d M=64  dump-partition  identical",
        "all identical"]


def test_compare_outputs_probe_runs(capsys):
    """Both probe runs print their ratios from this checkout on both sides;
    a changed ratio is sized, a missing output or exit code named."""
    compare = load_script("compare_outputs")
    root = str(SCRIPTS.parent)
    assert compare.main([root, root, "--workload", "probe-2d",
                         "--workload", "probe-3d"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "probe-2d  probe_continuity.py  identical",
        "probe-3d  probe_continuity.py  identical",
        "all identical"]
    code, out = compare.run_script(SCRIPTS.parent, "probe-2d")
    assert code == 0 and out.endswith("bounded across refinement\n")
    changed = out.replace("0.", "0.0", 1)   # first printed ratio / 10
    assert compare.compare_script((0, out), (0, changed)) == "max rel diff 0.9"
    assert compare.compare_script((0, out), (1, out)) == "differs: exit code 0 against 1"
    assert compare.compare_script((0, out), (0, "")) == "differs: no output"
