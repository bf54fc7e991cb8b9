"""Every function in blcsim is reached by a CLI run or has a named keeper.

The guard runs one in-process `blcsim` invocation of each CLI path under
sys.setprofile, on 16- and 32-point grids, and lists the functions of
src/blcsim that none of them called. Each must appear in KEPT with the
reason it stays: the open item that will call it, or the test format or
oracle that a decided entry or an acceptance criterion keeps. A function
that is neither reached nor kept fails the guard, and so does a KEPT entry
that no longer names an unreached function.
"""
import inspect
import io
import json
import sys
import types
from pathlib import Path

import blcsim
from blcsim import cli

SRC = Path(blcsim.__file__).resolve().parent

_BLOWUP = ["--preset", "taylor-green", "--eps", "0.5", "--M", "16", "--T", "0.01"]
_RANDOM_3D = ["--preset", "random-band", "--eps", "0.3", "--N", "3", "--M", "16"]

# name: (blcsim arguments, config file lines); {out} is the run's directory
RUNS = {
    "direct": (["run", "--preset", "random-band", "--eps", "0.3", "--M", "16",
                "--T", "0.01"], []),
    "stride": (["run", "--M", "16", "--T", "0.02"], ["report_stride = 3"]),
    "picard": (["run", "--M", "16", "--T", "0.02", "--mode", "picard"], []),
    "picard-refine": (["run", "--preset", "taylor-green", "--eps", "0.5",
                       "--M", "16", "--T", "0.1", "--dt", "0.001",
                       "--mode", "picard"], []),
    "blowup-direct": (["run", *_BLOWUP], ["blowup_factor = 1e-12"]),
    "blowup-picard": (["run", *_BLOWUP, "--mode", "picard"],
                      ["blowup_factor = 1e-12"]),
    "renormalize": (["run", "--preset", "random-band", "--eps", "0.3",
                     "--M", "16", "--T", "0.01"],
                    ["renormalize_director = true", "snapshot_every = 4"]),
    "snapshots-3d": (["run", *_RANDOM_3D, "--T", "0.005"], ["snapshot_every = 1"]),
    "resume-3d": (["run", *_RANDOM_3D, "--T", "0.01", "--resume",
                   "{snapshots-3d}/snapshots/state_00001.blcf"], []),
    "zero": (["run", "--preset", "zero", "--M", "16", "--T", "0.01"], []),
    "scaling-2d": (["run", "--check-scaling", "--N", "2", "--M", "32"], []),
    "scaling-3d": (["run", "--check-scaling", "--N", "3", "--M", "32"], []),
    "dump-partition": (["dump-partition", "--M", "16", "--samples", "64"], []),
}

# qualified name in its module: the keeper
KEPT = {
    "spectral.divergence": "item 3's max|div u| column",
    "solver.State.max_divergence": "item 3's max|div u| column",
    "norms.BlockNormSeries.__post_init__": "items 3 and 18",
    "norms.build_block_norm_series": "items 3 and 18",
    "norms.chemin_lerner_norm": "items 3 and 18",
    "norms.lebesgue_besov_norm": "items 3 and 18",
    "norms._check_series": "items 3 and 18",
    "norms.minkowski_compare": "item 3's per-row Minkowski check, criterion 6",
    "paraproduct._check": "item 12's Bony splits of the solution",
    "paraproduct._physical": "item 12",
    "paraproduct.paraproduct_T": "item 12",
    "paraproduct.remainder_R": "item 12",
    "paraproduct.BonySplit.total": "item 12",
    "paraproduct.bony_reconstruct": "item 12, criterion 3",
    "dyadic.DyadicPartition.chi_mask": "criteria 1, 2 and 5",
    "dyadic.DyadicPartition.phi_mask": "criteria 1, 2 and 5",
    "dyadic.DyadicPartition.squared_masks": "item 8",
    "dyadic.low_pass": "criteria 1, 2 and 5",
    "dyadic.decompose": "criteria 1, 2 and 5",
    "dyadic.reconstruct": "criteria 1, 2 and 5",
    "dyadic.block_project": "criteria 1, 2 and 5",
    "spectral.SpectralField.is_real_consistent": "item 8",
    "spectral.grad_outer": "the nonlinear-term oracle tests",
    "solver.heat_propagate": "Decided: full-layout test format, criterion 5",
    "solver.nonlinear_rhs": "Decided: full-layout test format",
    "solver.step_direct": "Decided: full-layout test format, criterion 8",
    "solver.duhamel_integral": "Decided: the Picard sweep's test reference",
    "cli._Parser.error": "a bad flag's exit 4, which tests/test_cli.py checks",
}


def _key(code):
    """A code object's identity, the same whether compiled here or imported:
    (module, first line, name)."""
    return Path(code.co_filename).stem, code.co_firstlineno, code.co_name


def _functions():
    """Every def in src/blcsim, its _key to its qualified name
    'module.qualname': the code objects of functions, not of modules, class
    bodies, lambdas or comprehensions. The names are built while walking the
    nested code objects, as co_qualname (Python 3.11 and later) spells them."""
    names = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(compile(path.read_text(), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            inner = ""
            if code.co_name != "<module>":
                qualname = prefix + code.co_name
                is_def = code.co_flags & inspect.CO_NEWLOCALS
                if is_def and code.co_name[0] != "<":
                    names[_key(code)] = f"{path.stem}.{qualname}"
                inner = qualname + (".<locals>." if is_def else ".")
            stack += [(c, inner) for c in code.co_consts
                      if isinstance(c, types.CodeType)]
    return names


def _run_all(tmp_path):
    """Run every CLI path in process; the _keys of the blcsim functions they
    called."""
    reached = set()
    src = str(SRC)

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(src):
            reached.add(_key(code))

    outs = {name: tmp_path / name for name in RUNS}
    sys.setprofile(profile)
    try:
        for name, (argv, config) in RUNS.items():
            argv = [a.format(**outs) for a in argv]
            if argv[0] == "run":
                cfg = tmp_path / f"{name}.cfg"
                cfg.write_text("".join(line + "\n" for line in config))
                argv += ["--config", str(cfg)]
            argv += ["--out", str(outs[name] if argv[0] == "run"
                                  else tmp_path / f"{name}.csv")]
            code = cli.main(argv, out=io.StringIO())
            assert code == (1 if name.startswith("blowup") else 0), (name, code)
    finally:
        sys.setprofile(None)
    return reached


def test_every_function_is_reached_or_kept(tmp_path):
    reached = _run_all(tmp_path)
    summary = json.loads((tmp_path / "picard-refine" / "summary.json").read_text())
    assert summary["picard"]["grids"] == [50, 100]   # the sweep refined
    functions = _functions()
    unreached = {functions[key] for key in functions.keys() - reached}
    orphans = sorted(unreached - set(KEPT))
    assert not orphans, f"reached by no CLI path and kept by nothing: {orphans}"
    stale = sorted(set(KEPT) - unreached)
    assert not stale, f"KEPT entries that are reached or gone: {stale}"
