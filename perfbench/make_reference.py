"""Write the stored reference outputs the benchmark checks against.

Usage: python3 perfbench/make_reference.py

Runs each workload once per stored seed (the default and the held-out
seed; flow takes no seed) and writes its CSV to ``perfbench/reference/``,
plus, for flow, the potential of the written .exp files at the probe
points.  Run it only at a commit whose outputs are known to be right; the
stored files were made at the commit that introduced the benchmark.
"""
import json
import os
import sys

import env

err = env.prepare()
if err:
    sys.exit(err)

import workloads as W  # noqa: E402


def main():
    os.makedirs(W.REFERENCE_DIR, exist_ok=True)
    for wl in W.WORKLOADS.values():
        for seed in (W.DEFAULT_SEED, W.HELDOUT_SEED) if wl.seeded else (W.DEFAULT_SEED,):
            *_, out = W.run_pass(wl, seed, env.WORK_DIR)
            if out.exit_code != 0:
                sys.exit("%s seed %d failed: %s" % (wl.name, seed, out.error))
            with open(wl.reference_path(seed), "w") as fh:
                fh.write(out.csv_text)
            if wl.command == "flow":
                problems = []
                probes = W.flow_probe_potentials(out.exp_texts, wl, problems)
                if problems:
                    sys.exit("flow outputs: %s" % problems)
                with open(os.path.join(W.REFERENCE_DIR, "flow-probes.json"), "w") as fh:
                    json.dump(probes, fh, indent=1)
            print("wrote", wl.reference_path(seed))


if __name__ == "__main__":
    main()
