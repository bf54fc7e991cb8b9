"""Record the reference outputs that the benchmark's correctness gate checks.

    python3 perfbench/make_references.py [WORKLOAD ...]

Runs each workload once per input seed through the benchmark's own timed run
(`Bench.timed_run`, gated by `check_run` with every check but the reference
comparison) and stores the final E, crit, energy and drift from
`summary.json` in workloads.json. Run it only at a commit whose answers are
trusted: the references are what later commits are compared with.
"""
import json
import shutil
import sys

from run import HERE, Bench, load_spec


def main(names: list[str]) -> int:
    spec = load_spec()
    for name in names or list(spec["workloads"]):
        workload = spec["workloads"][name]
        refs = {}
        for in_seed in range(max(1, workload["input_seeds"])):
            bench = Bench(name, in_seed, spec, record=True)
            try:
                result = bench.timed_run()
            finally:
                shutil.rmtree(bench.work, ignore_errors=True)
            if result["problems"]:
                print(f"{name} seed {in_seed}: no reference written\n"
                      + "\n".join(bench.failures), file=sys.stderr)
                return 1
            final = result["final"]
            refs[str(in_seed)] = {k: final[k] for k in ("E", "crit", "energy", "drift")}
            print(f"{name} seed {in_seed}: {refs[str(in_seed)]}  ({result['wall_s']:.2f} s)")
        workload["reference"] = refs
    try:
        bench.work.parent.rmdir()
    except OSError:
        pass
    (HERE / "workloads.json").write_text(json.dumps(spec, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
