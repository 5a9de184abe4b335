"""Regenerate golden.json from the program at the current checkout.

    python3 perfbench/freeze.py [workload ...]

Runs one untraced round of every workload variant and stores its
outputs: the 23 features of every pair and the fit_eval statistics.
Only refreeze on purpose, when a change is meant to alter values, and
say so in CHANGES.md.
"""

import json
import os
import sys

import run


def main(workloads):
    """Refreeze the named workloads (all by default), keep the rest."""
    run.use_checkout()
    path = os.path.join(run.HERE, "golden.json")
    golden = {}
    if os.path.exists(path):
        with open(path) as stream:
            golden = json.load(stream)
    golden["tolerance"] = {"rel": run.REL_TOL, "abs": run.ABS_TOL}
    for workload in workloads or run.ALL_WORKLOADS:
        golden[workload] = {}
        for variant in range(run.VARIANTS):
            meta = run.prepare_inputs(workload, variant)
            spec = {"workload": workload, "trace": False, "src": run.SRC,
                    "inputs": meta["dir"],
                    "jobs": run.jobs_for(workload),
                    "work": os.path.join(run.WORK, "rounds",
                                         f"freeze-{workload}-{variant}")}
            result, error = run.run_child(spec, timeout=600)
            if error:
                sys.exit(f"{workload} variant {variant}: {error}")
            golden[workload][str(variant)] = result["outputs"]
            print(f"{workload} v{variant}: {result['wall_s']:.1f} s",
                  file=sys.stderr)
    with open(path, "w") as stream:
        json.dump(golden, stream, indent=1, sort_keys=True)
        stream.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
