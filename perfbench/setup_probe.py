"""Time what a `blcsim run` pays before its first recorded row, in a fresh process.

    python3 perfbench/setup_probe.py --entry blcsim.cli:main -- run --preset ...

Runs the real CLI with the given arguments and stops it at the first call of
`blcsim.solver.block_lp_norms`, which is where the solver records its first
row. Everything the program does before that is timed: importing blcsim
(numpy included), parsing the flags and config, building the Grid, the
preset, the dyadic partition and the dt rule, and whatever a later version
adds there. Prints one JSON line, {"setup_s": ..., "absent": [...]}, and
exits 0 only when the first row was reached; a hooked name that no longer
exists, or a run that ends without recording a row, exits 1.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

FIRST_ROW = ("blcsim.solver", "block_lp_norms")


class FirstRow(BaseException):
    """Raised at the first recorded row; BaseException so no handler swallows it."""


def stop_at_first_row(absent: list) -> bool:
    module_name, attr = FIRST_ROW
    try:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
    except (ImportError, AttributeError):
        absent.append(f"{module_name}.{attr}")
        return False

    @functools.wraps(fn)
    def first_row(*args, **kwargs):
        raise FirstRow(time.perf_counter() - _START)
    setattr(module, attr, first_row)
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entry", required=True, help="module:function of the CLI")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    module_name, _, func_name = args.entry.partition(":")
    absent: list[str] = []
    entry = getattr(importlib.import_module(module_name), func_name)
    if not stop_at_first_row(absent):
        print(json.dumps({"absent": absent}))
        return 1
    sys.argv = ["blcsim"] + cli_args
    try:
        rc = entry()
    except FirstRow as row:
        print(json.dumps({"setup_s": row.args[0], "absent": absent}))
        return 0
    print(json.dumps({"absent": absent, "error": f"no row recorded, exit code {rc}"}))
    return 1


if __name__ == "__main__":
    sys.exit(main())
