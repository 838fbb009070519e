"""Freeze the correctness gate's expected values from the current program.

    PYTHONPATH=src python3 perfbench/freeze.py

Runs one pass of every workload and writes D_eps of each sweep cell and
max|U| of each solve request to perfbench/expected.json.  The committed
file was frozen from the seed program; refreeze only when a change to
the program is meant to change its results, and say so in the change.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workload


def main() -> int:
    values = {}
    with tempfile.TemporaryDirectory(dir=workload.HERE) as tmp:
        for name in workload.WORKLOADS:
            result = workload.run_pass(workload.make_requests(name, seed=0),
                                       Path(tmp), expected=None)
            if result.failures:
                print("\n".join(result.failures), file=sys.stderr)
                return 1
            values.update(result.observed)
    doc = {"rel_tol": workload.REL_TOL, "residual_limit": workload.RESIDUAL_LIMIT,
           "values": dict(sorted(values.items()))}
    workload.EXPECTED_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(values)} values to {workload.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
