"""One-shot end-to-end time of the desk tables, for the ROADMAP record.

    python3 perfbench/desk.py --label seed

Runs ``cd2d sweep --config configs/table1.ini`` and ``table2.ini`` once
each, in fresh processes from the source tree, and writes their wall
times, exit codes and the machine to
``perfbench/records/desk-<label>.json``.  This is not one of the gated
workloads: it takes minutes, runs once, and is not repeated per seed.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time

import run

TABLES = ("table1", "table2")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="name of the record, e.g. the commit measured")
    args = parser.parse_args(argv)
    env = run.child_env()
    record = {"label": args.label, "machine": run.machine_info(env),
              "tables": {}}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        for table in TABLES:
            config = run.ROOT / "configs" / f"{table}.ini"
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "cd2d.cli", "sweep", "--config",
                 str(config), "--out-dir", tmp],
                env=env, cwd=run.ROOT, stdout=subprocess.DEVNULL)
            seconds = time.perf_counter() - start
            record["tables"][table] = {"wall_s": seconds,
                                       "exit_code": proc.returncode}
            print(f"{table}: {seconds:.1f} s, exit {proc.returncode}")
    out = run.HERE / "records" / f"desk-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
