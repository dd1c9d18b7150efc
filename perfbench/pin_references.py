"""Regenerate references.json from the current magspec sources.

    python3 perfbench/pin_references.py

Runs one pass of every workload at both scales with seed 0 and stores what
the correctness checks compare against: census counts, eigenvalues,
persistent levels, the positivity shift and singular values.  Pin only from
a commit whose results have been verified independently.
"""

import json
import os
import sys

import run  # sets the BLAS thread count before numpy loads


def main():
    wmod = run._import_workloads()
    refs = {}
    for scale in ("full", "toy"):
        refs[scale] = {}
        for name, cls in wmod.WORKLOADS.items():
            wl = cls(scale)
            state = wl.prepare(os.path.join(run.OUT, "work", f"pin-{name}-{scale}"))
            refs[scale][name] = wl.reference(wl.run_pass(state, 0))
            print(f"pinned {scale} {name}", file=sys.stderr)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
