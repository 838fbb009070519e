"""One benchmark workload, run in its own process through the cd2d CLI.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --result PATH

Runs whole passes of the workload, closed loop (one request at a time,
sweeps with one worker), for about S seconds, checks every output against
the values in ``expected.json`` and writes the raw timings, speed-probe
times, counts and failures as JSON to PATH.  ``run.py`` starts this process and turns the
raw figures into metrics.  With ``--trace 1`` half of the time runs
untraced and half traced, so the tracing overhead can be measured.

Workloads (why each was chosen is in README.md):

* sweep-bisect      ``cd2d sweep`` Example1, transformed, bisect
* sweep-regenerate  ``cd2d sweep`` Example2, transformed, regenerate
* solve-dump        16 ``cd2d solve`` requests, each writing its grid dump

The seed permutes the order of the eps rows and of the solve requests;
expected values are keyed by cell or request, so any seed is checked.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import cd2d.cli
import spans

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
REL_TOL = 1e-10
RESIDUAL_LIMIT = 1e-12

EPSILONS = (1e-1, 1e-4)
SWEEP_NS = (16, 32, 64, 128)
DUMP_NS = (64, 128)
PROBLEMS = ("Example1", "Example2")
SWEEPS = {"sweep-bisect": ("Example1", "bisect"),
          "sweep-regenerate": ("Example2", "regenerate")}
WORKLOADS = (*SWEEPS, "solve-dump")


@dataclass(frozen=True)
class Request:
    """One CLI invocation: a whole sweep, or one solve with its dump."""
    command: str
    problem: str
    variant: str
    epsilons: tuple[float, ...]
    Ns: tuple[int, ...]
    mode: Optional[str] = None

    def argv(self, out_dir: Path) -> list[str]:
        argv = [self.command, "--problem", self.problem,
                "--variant", self.variant, "--out-dir", str(out_dir)]
        for eps in self.epsilons:
            argv += ["--epsilon", repr(eps)]
        for n in self.Ns:
            argv += ["--N", str(n)]
        if self.command == "sweep":
            argv += ["--double-mesh", self.mode, "--workers", "1"]
        return argv

    def key(self, eps: float, N: int) -> str:
        """Expected-value key of one sweep cell or one solve request."""
        head = (f"sweep:{self.problem}/{self.variant}/{self.mode}"
                if self.command == "sweep"
                else f"solve:{self.problem}/{self.variant}")
        return f"{head}/eps={eps:.0e}/N={N}"


def make_requests(workload: str, seed: int) -> list[Request]:
    """The requests of one pass; the seed fixes their order."""
    rng = random.Random(seed)
    if workload in SWEEPS:
        problem, mode = SWEEPS[workload]
        eps = list(EPSILONS)
        rng.shuffle(eps)
        return [Request("sweep", problem, "transformed", tuple(eps),
                        SWEEP_NS, mode)]
    if workload == "solve-dump":
        requests = [Request("solve", p, v, (e,), (n,))
                    for p in PROBLEMS for v in ("transformed", "raw")
                    for e in EPSILONS for n in DUMP_NS]
        rng.shuffle(requests)
        return requests
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# Run before timing so lazy imports and first-call set-up are not measured.
WARM_UP = (Request("solve", "Example2", "raw", (1e-2,), (128,)),
           Request("sweep", "Example2", "transformed", (1e-2,), (8, 16),
                   "regenerate"))


# ---------------------------------------------------------------------------
# Correctness gate.

def gate(expected: dict, key: str, value) -> Optional[str]:
    """None if value matches the frozen one to REL_TOL, else the reason."""
    if key not in expected:
        return f"{key}: no expected value"
    want = expected[key]
    if value is None or not abs(value - want) <= REL_TOL * abs(want):
        return f"{key}: got {value!r}, expected {want!r}"
    return None


def _outputs(out_dir: Path, suffixes: tuple[str, ...]) -> dict[str, Path]:
    """The single output file of each suffix; raises if one is missing."""
    found = {}
    for suffix in suffixes:
        paths = sorted(out_dir.glob(f"*{suffix}"))
        if len(paths) != 1 or paths[0].stat().st_size == 0:
            raise FileNotFoundError(
                f"expected one non-empty *{suffix} in {out_dir}, found {len(paths)}")
        found[suffix] = paths[0]
    return found


def _check_residuals(key: str, residuals) -> Optional[str]:
    for r in residuals:
        if r is None or not r <= RESIDUAL_LIMIT:
            return f"{key}: residual {r!r} above {RESIDUAL_LIMIT}"
    return None


def check_request(request: Request, out_dir: Path, exit_code,
                  expected: Optional[dict]) -> tuple[dict, list[str]]:
    """Observed values by key, and one failure message per failed key.

    A sweep has one key per (eps, N) cell, a solve one key; each key
    counts as one attempt.  With expected=None only the observed values
    are collected (used when freezing the expected values).
    """
    keys = [request.key(e, n) for e in request.epsilons for n in request.Ns]
    try:
        if request.command == "sweep":
            files = _outputs(out_dir, (".csv", ".json"))
            doc = json.loads(files[".json"].read_text())
            cells = {request.key(c["epsilon"], c["N"]): c for c in doc["cells"]}
            observed = {k: cells[k]["D_eps"] for k in keys if k in cells}
            residuals = {k: (cells[k]["residual_coarse"], cells[k]["residual_fine"])
                         for k in observed}
        else:
            files = _outputs(out_dir, (".dat", ".json"))
            doc = json.loads(files[".json"].read_text())
            observed = {keys[0]: doc["max_abs_u"]}
            residuals = {keys[0]: (doc["residual"],)}
    except (OSError, ValueError, KeyError) as exc:
        return {}, [f"{k}: exit {exit_code}, {type(exc).__name__}: {exc}"
                    for k in keys]
    failures = []
    for k in keys:
        if observed.get(k) is None:
            reason = f"{k}: no value in the output (exit {exit_code})"
        else:
            reason = (_check_residuals(k, residuals[k])
                      or (gate(expected, k, observed[k])
                          if expected is not None else None))
        if reason:
            failures.append(reason)
    return {k: v for k, v in observed.items() if v is not None}, failures


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())["values"]


# ---------------------------------------------------------------------------
# Machine-speed probe.  On a shared host the same pass runs up to 1.6x
# slower while other tenants contend for the core, in phases that last
# from seconds to minutes.  A fixed sparse LU that does not touch cd2d is
# timed between passes; pass times are scaled by PROBE_REF_S / probe time
# to seconds at the reference speed, on which the probe takes PROBE_REF_S.

# The probe's LU is smaller than the warm-up's, so it does not raise the
# peak RSS the workload reports.
PROBE_GRID = 120
PROBE_REF_S = 0.055
PROBE_REPEATS = 5


class SpeedProbe:
    def __init__(self):
        n = PROBE_GRID
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.matrix = (sp.kron(eye, t) + sp.kron(t, eye)
                       + sp.identity(n * n)).tocsc()
        self.rhs = numpy.ones(n * n)

    def __call__(self) -> float:
        """Median time of PROBE_REPEATS factor-and-solves."""
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            spla.splu(self.matrix).solve(self.rhs)
            times.append(time.perf_counter() - start)
        return statistics.median(times)


# ---------------------------------------------------------------------------
# Passes.

@dataclass
class PassResult:
    request_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)
    output_bytes: int = 0
    layers: Optional[dict] = None
    probe_seconds: Optional[float] = None

    @property
    def seconds(self) -> float:
        """Pass wall time: the CLI calls only, not the benchmark's checks."""
        return sum(self.request_seconds)


def run_request(request: Request, out_dir: Path) -> tuple[float, object, str]:
    """Time one in-process CLI call; returns (seconds, exit code, output).

    A crash inside the program is recorded as that request's output, so
    its cells count as failed and the run goes on.
    """
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cd2d.cli.main(request.argv(out_dir))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "crash"
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return seconds, code, sink.getvalue()


def run_pass(requests: list[Request], workdir: Path, expected: Optional[dict],
             tracer: Optional[spans.Tracer] = None) -> PassResult:
    result = PassResult()
    if tracer is not None:
        tracer.start_pass()
    for index, request in enumerate(requests):
        out_dir = workdir / f"request-{index}"
        if tracer is not None:
            tracer.request = index
        seconds, code, output = run_request(request, out_dir)
        result.request_seconds.append(seconds)
        observed, failures = check_request(request, out_dir, code, expected)
        if failures and code != 0:
            failures[0] += f"\n{output[-2000:]}"
        result.attempted += len(request.epsilons) * len(request.Ns)
        result.failures += failures
        result.observed.update(observed)
        if out_dir.is_dir():
            result.output_bytes += sum(p.stat().st_size for p in out_dir.iterdir())
            shutil.rmtree(out_dir)
    if tracer is not None:
        tracer.request = None
        result.layers = tracer.pass_metrics()
    return result


def run_passes(requests, workdir, expected, seconds, probe: SpeedProbe,
               tracer=None) -> list[PassResult]:
    """At least one pass; another only if it is predicted to end in time.

    Each pass is bracketed by probes; its probe time is their mean.
    """
    results = []
    start = time.perf_counter()
    before = probe()
    while True:
        t0 = time.perf_counter()
        result = run_pass(requests, workdir, expected, tracer)
        after = probe()
        result.probe_seconds = (before + after) / 2
        results.append(result)
        before = after
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return results


def warm_up(workdir: Path) -> None:
    for index, request in enumerate(WARM_UP):
        out_dir = workdir / f"warm-up-{index}"
        _, code, text = run_request(request, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"warm-up request failed ({code}): {text}")


def _summary(results: list[PassResult]) -> dict:
    return {"probe_seconds": [r.probe_seconds for r in results],
            "pass_seconds": [r.seconds for r in results],
            "request_seconds": [r.request_seconds for r in results],
            "output_bytes": [r.output_bytes for r in results],
            "layers": [r.layers for r in results if r.layers is not None]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, spans_path: Optional[Path] = None) -> dict:
    requests = make_requests(workload, seed)
    expected = load_expected()
    probe = SpeedProbe()
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warm_up(workdir)
        untraced = run_passes(requests, workdir, expected,
                              seconds / 2 if trace else seconds, probe)
        traced = []
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_passes(requests, workdir, expected, seconds / 2,
                                    probe, tracer)
            finally:
                tracer.uninstall()
            if spans_path is not None:
                tracer.write_spans(spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes = untraced + traced
    failures = [f for r in passes for f in r.failures]
    return {
        "workload": workload,
        "seed": seed,
        "requests": [r.argv(Path("OUT")) for r in requests],
        "attempted": sum(r.attempted for r in passes),
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe_ref_s": PROBE_REF_S,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "untraced": _summary(untraced),
        "traced": _summary(traced),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    stem = args.result.with_suffix("")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), Path(f"{stem}-work"),
                          Path(f"{stem}-spans.jsonl") if args.trace else None)
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
