"""Smoke tests of the scripts README documents."""
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_continuity_runs(capsys):
    probe = _load("probe_continuity")
    assert probe.main(["--sizes", "16", "32", "--samples", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:-1]]
    assert [row[0] for row in rows] == ["16", "32"]
    assert lines[-1] == "bounded across refinement"
