"""Run one `blcsim run` in this process with a span around each layer's calls.

    python3 perfbench/traced.py --trace-out trace.json --entry blcsim.cli:main \
        [--memory] -- run --preset single-mode ...

Spans are recorded from here, around public names where the calling module
looks them up (for example `blcsim.solver.block_lp_norms`, which the solver
calls, and `blcsim.cli.save_state`), and around every transform in
`numpy.fft` and `scipy.fft`. Those are wrapped before blcsim is imported, so
a `from numpy.fft import rfftn` in the program is traced too. A name that no
longer exists is listed under "absent" and the run goes on without it.

Steps are counted as they are taken: each call of the IF-RK4 step
`blcsim.solver._step_core`, and in Picard mode each evaluation of the
nonlinear term `blcsim.solver._nonlinear_rhs` made by a sweep of
`picard_iterate` (one per time-grid point, n_steps + 1 per sweep). Retained
memory is computed from array sizes: the recorded State copies, plus in
Picard mode the previous and the next full-length iterate (u and tau each)
that are alive together during a sweep, sized from the arrays passed to
`blcsim.solver._traj_from_arrays`. These three are hooks without a span, so
their time stays in the solver's self time.

Each span adds its duration to the span that is open around it, so a span's
self time is its duration minus that of its children. With --memory,
tracemalloc follows Python's and numpy's allocations and the peak above the
starting level during the solve is recorded; it slows the run, so run.py
takes times from a run without it.
"""
import argparse
import functools
import importlib
import json
import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict

# transforms by how many axes they act on when none are given
FFT_FUNCTIONS = {
    1: ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft"),
    2: ("fft2", "ifft2", "rfft2", "irfft2"),
    0: ("fftn", "ifftn", "rfftn", "irfftn"),
}

# (module where the caller looks the name up, attribute, span name)
LAYER_SPANS = (
    ("blcsim.cli", "build_preset", "presets.build_preset"),
    ("blcsim.cli", "solve", "solver.solve"),
    ("blcsim.solver", "picard_iterate", "solver.picard_iterate"),
    ("blcsim.solver", "build_partition", "dyadic.build_partition"),
    ("blcsim.solver", "block_lp_norms", "norms.block_lp_norms"),
    ("blcsim.solver", "build_report", "monitor.build_report"),
    ("blcsim.cli", "export_series", "cli.export_series"),
    ("blcsim.cli", "save_state", "cli.save_state"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else (args[index] if len(args) > index else None)


def fft_fields(n_axes: int, args, kwargs) -> int:
    """How many independent fields one transform call covers (its batch size)."""
    shape = getattr(args[0], "shape", None) if args else None
    if shape is None:
        return 1
    if n_axes == 1:
        axis = _arg(args, kwargs, 2, "axis")
        axes = [-1 if axis is None else axis]
    else:
        axes = _arg(args, kwargs, 2, "axes")
        if axes is None and n_axes == 2:
            axes = (-2, -1)
        elif axes is None:
            s = _arg(args, kwargs, 1, "s")
            axes = range(-len(s), 0) if s is not None else range(len(shape))
    per_field = math.prod(shape[ax] for ax in axes)
    return math.prod(shape) // per_field if per_field else 0


class Tracer:
    """Spans and counters for one run, kept in memory and written at the end."""

    def __init__(self, memory: bool):
        self.spans = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        self.counters = defaultdict(float)
        self.absent: list[str] = []
        self.stack: list[list] = []      # [span name, seconds of children]
        self.memory = memory
        self.retained: dict[int, int] = {}   # id(state) -> bytes

    def _replace(self, module_name: str, attr: str, make) -> None:
        """Set module.attr to make(old function), or note the name as absent."""
        try:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
        except (ImportError, AttributeError):
            self.note_absent(f"{module_name}.{attr}")
            return
        setattr(module, attr, make(fn))

    def wrap(self, module_name: str, attr: str, name: str, before=None, after=None):
        self._replace(module_name, attr, lambda fn: self._span(name, fn, before, after))

    def hook(self, module_name: str, attr: str, before=None, after=None):
        """Wrap a name with hooks but no span, so its time is not split off."""
        def make(fn):
            @functools.wraps(fn)
            def hooked(*args, **kwargs):
                if before:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after:
                    after(args, kwargs, result)
                return result
            return hooked
        self._replace(module_name, attr, make)

    def _span(self, name, fn, before, after):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.stack and self.stack[-1][0].split(".")[0] == layer == "fft":
                return fn(*args, **kwargs)   # a transform built on another
            token = before(args, kwargs) if before else None
            frame = [name, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += duration
                record = self.spans[name]
                record["calls"] += 1
                record["s"] += duration
                record["self_s"] += duration - frame[1]
            if after:
                after(args, kwargs, result, token)
            return result
        return traced

    # -- hooks ----------------------------------------------------------------

    def fft_hooks(self, n_axes: int):
        def before(args, kwargs):
            self.counters["fft.fields"] += fft_fields(n_axes, args, kwargs)
            self.counters["fft.bytes"] += getattr(args[0], "nbytes", 0) if args else 0

        def after(args, kwargs, result, token):
            self.counters["fft.bytes"] += getattr(result, "nbytes", 0)
        return before, after

    def retain(self, states) -> None:
        for state in states:
            try:
                size = state.u.coeffs.nbytes + state.tau.coeffs.nbytes
            except AttributeError:
                self.note_absent("State.u/tau.coeffs")
                return
            self.retained[id(state)] = size

    def note_absent(self, what: str) -> None:
        if what not in self.absent:
            self.absent.append(what)

    def solve_before(self, args, kwargs):
        if not self.memory:
            return None
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0]

    def solve_after(self, args, kwargs, result, base):
        if base is not None:
            peak = tracemalloc.get_traced_memory()[1]
            self.counters["solver.peak_alloc_mb"] = (peak - base) / 2 ** 20
        traj = result[0] if isinstance(result, tuple) and result else None
        self.retain(getattr(traj, "states", ()))

    def count_step(self, args, kwargs):
        self.counters["solver.steps"] += 1

    def count_sweep_rhs(self, args, kwargs):
        if self.stack and self.stack[-1][0] == "solver.picard_iterate":
            self.counters["solver.steps"] += 1

    def iterate_arrays(self, args, kwargs, result):
        size = sum(getattr(_arg(args, kwargs, i, name), "nbytes", 0)
                   for i, name in ((1, "u_arr"), (2, "tau_arr")))
        self.counters["solver.iterate_bytes"] = max(
            self.counters["solver.iterate_bytes"], size)

    def picard_after(self, args, kwargs, result, token):
        for traj in getattr(result, "iterate_series", ()):
            self.retain(getattr(traj, "states", ()))

    def snapshot_after(self, args, kwargs, result, token):
        path = _arg(args, kwargs, 0, "path")
        try:
            self.counters["cli.snapshot_bytes"] += os.path.getsize(path)
        except (OSError, TypeError):
            self.note_absent("save_state path")

    def dump(self, path: str) -> None:
        self.counters["solver.retained_states"] = len(self.retained)
        # the previous and the next Picard iterate are alive together
        live = sum(self.retained.values()) + 2 * self.counters["solver.iterate_bytes"]
        self.counters["solver.retained_mb_computed"] = live / 2 ** 20
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "absent": self.absent}, fh, indent=1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--entry", required=True, help="module:function of the CLI")
    parser.add_argument("--memory", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.memory)
    if args.memory:
        tracemalloc.start()
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import_s = time.perf_counter() - t0
    fft_modules = ["numpy.fft"]
    try:
        import scipy.fft  # noqa: F401
        fft_modules.append("scipy.fft")
    except ImportError:
        tracer.note_absent("scipy.fft")
    for module_name in fft_modules:
        short = module_name.split(".")[0]
        for n_axes, names in FFT_FUNCTIONS.items():
            for attr in names:
                before, after = tracer.fft_hooks(n_axes)
                tracer.wrap(module_name, attr, f"fft.{short}.{attr}", before, after)

    module_name, _, func_name = args.entry.partition(":")
    t0 = time.perf_counter()
    module = importlib.import_module(module_name)
    tracer.counters["setup.import_s"] = import_s + time.perf_counter() - t0

    hooks = {"solver.solve": (tracer.solve_before, tracer.solve_after),
             "solver.picard_iterate": (None, tracer.picard_after),
             "cli.save_state": (None, tracer.snapshot_after)}
    for where, attr, name in LAYER_SPANS:
        tracer.wrap(where, attr, name, *hooks.get(name, (None, None)))
    tracer.hook("blcsim.solver", "_step_core", before=tracer.count_step)
    tracer.hook("blcsim.solver", "_nonlinear_rhs", before=tracer.count_sweep_rhs)
    tracer.hook("blcsim.solver", "_traj_from_arrays", after=tracer.iterate_arrays)

    sys.argv = ["blcsim"] + cli_args
    try:
        rc = getattr(module, func_name)()
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code
    tracer.dump(args.trace_out)
    return rc if isinstance(rc, int) else 1


if __name__ == "__main__":
    sys.exit(main())
