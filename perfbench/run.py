"""cd2d benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/cd2d`` must be there; the
package is used from source, nothing is installed).  It measures set-up
time in fresh interpreters, then runs the workload in its own child
process (``workload.py``), and prints as its last line one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones.  The line before it records the machine.  Raw results and, for
traced runs, every span are kept under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("sweep-bisect", "sweep-regenerate", "solve-dump")

SETUP_REPEATS = 5
SETUP_CODE = ("import cd2d, cd2d.cli\n"
              "cd2d.builtin_problem('Example1')\n"
              "cd2d.builtin_problem('Example2')\n")
# Whole-run limit is 180 s; leave room for set-up and reporting.
CHILD_TIMEOUT_S = 150

# One client on a shared 2-core box: keep BLAS from starting its own
# threads unless the caller chose a count.
PINNED_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")
RECORDED_ENV_VARS = PINNED_THREAD_VARS + (
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS", "PYTHONHASHSEED")


def metric_units(trace: bool) -> dict:
    """Name -> unit of the metrics a run prints, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in PINNED_THREAD_VARS:
        env.setdefault(var, "1")
    return env


def _proc_field(path: str, prefix: str) -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_info(env: dict) -> dict:
    mem_kb = _proc_field("/proc/meminfo", "MemTotal").split()[0]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "ram_gb": round(int(mem_kb) / 2 ** 20, 2) if mem_kb.isdigit() else None,
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "env": {var: env.get(var) for var in RECORDED_ENV_VARS},
    }


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure_setup(env: dict) -> float:
    """Wall time of a fresh interpreter importing cd2d and building specs."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                   check=True, timeout=60)
    return time.perf_counter() - start


def scaled(child: dict, runs: dict) -> tuple[list[float], list[list[float]]]:
    """Pass and request times in seconds at the probe's reference speed."""
    factors = [child["probe_ref_s"] / p for p in runs["probe_seconds"]]
    passes = [t * f for t, f in zip(runs["pass_seconds"], factors)]
    requests = [[t * f for t in times]
                for times, f in zip(runs["request_seconds"], factors)]
    return passes, requests


def end_to_end(child: dict, setup: list[float]) -> dict:
    runs = child["untraced"]
    passes, requests = scaled(child, runs)
    # Each distinct request's latency is its median over the passes.  The
    # solve-dump requests split evenly into N = 64 and N = 128 solves, so a
    # median of the pooled samples would fall in the gap between the two
    # groups and read the noisy extremes of both.
    latencies = [statistics.median(samples) for samples in zip(*requests)]
    return {
        "wall_s": statistics.median(passes),
        "request_s.p50": percentile(latencies, 0.5),
        "request_s.p90": percentile(latencies, 0.9),
        "peak_rss_mb": child["peak_rss_mb"],
        # Set-up runs in other processes just before the workload, so it
        # is scaled by the workload's median probe time.
        "setup_s": (statistics.median(setup) * child["probe_ref_s"]
                    / statistics.median(runs["probe_seconds"])),
    }


def per_layer(child: dict, units: dict) -> dict:
    """Per-pass layer figures averaged over the traced passes; times are
    scaled like the end-to-end ones."""
    traced = child["traced"]
    factors = [child["probe_ref_s"] / p for p in traced["probe_seconds"]]
    out = {}
    for name in traced["layers"][0]:
        values = [layer[name] for layer in traced["layers"]]
        if None in values:
            out[name] = None
        elif units[name] == "s":
            out[name] = statistics.fmean(v * f for v, f in zip(values, factors))
        else:
            out[name] = statistics.fmean(values)
    out["cli.output_bytes"] = statistics.fmean(traced["output_bytes"])
    out["trace.overhead_s"] = (statistics.median(scaled(child, traced)[0])
                               - statistics.median(scaled(child, child["untraced"])[0]))
    out["failed_ratio"] = child["failed"] / child["attempted"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cd2d benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cd2d" / "__init__.py").is_file():
        print(f"error: no cd2d source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    machine = machine_info(env)
    try:
        setup = ([] if args.trace
                 else [measure_setup(env) for _ in range(SETUP_REPEATS)])
        result_path = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                             f"-{os.getpid()}.json")
        subprocess.run(
            [sys.executable, str(HERE / "workload.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--result", str(result_path)],
            env=env, cwd=ROOT, stdout=sys.stderr, check=True,
            timeout=CHILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    child = json.loads(result_path.read_text())
    units = metric_units(bool(args.trace))
    values = per_layer(child, units) if args.trace else end_to_end(child, setup)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    machine["versions"] = child["versions"]
    child.update(machine=machine, setup_seconds=setup, metrics=metrics)
    result_path.write_text(json.dumps(child, indent=1) + "\n")
    for failure in child["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(json.dumps({"correct": child["failed"] == 0,
                      "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
