"""Tests of the benchmark itself: gate, tracer, counts and the bare-tree exit.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cd2d.analysis  # noqa: E402
import cd2d.cli  # noqa: E402
import cd2d.solve  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

# Exact counts.  cli.output_bytes is not one: the solve metadata JSON
# records the wall time, whose printed length varies.
COUNT_METRICS = ("solve.direct_calls", "solve.unknowns", "solve.duplicate_ratio",
                 "assembly.calls", "assembly.nnz", "mesh.build_calls",
                 "problems.validate_calls")


def _small_solve() -> workload.Request:
    return next(r for r in workload.make_requests("solve-dump", seed=0)
                if r.Ns == (64,) and r.problem == "Example2" and r.variant == "raw")


def _traced_pass(requests, tmp_path, targets=spans.TARGETS):
    tracer = spans.Tracer(targets)
    tracer.install()
    try:
        return workload.run_pass(requests, tmp_path, None, tracer)
    finally:
        tracer.uninstall()


def test_seed_permutes_order_and_every_key_has_expected_value():
    expected = workload.load_expected()
    for name in workload.WORKLOADS:
        orders = {tuple(workload.make_requests(name, seed)) for seed in range(8)}
        assert len(orders) > 1
        assert workload.make_requests(name, 3) == workload.make_requests(name, 3)
        for request in workload.make_requests(name, 0):
            for eps in request.epsilons:
                for n in request.Ns:
                    assert request.key(eps, n) in expected


def test_gate_counts_perturbed_expected_value_as_failure(tmp_path):
    request = _small_solve()
    key = request.key(request.epsilons[0], request.Ns[0])
    expected = workload.load_expected()
    ok = workload.run_pass([request], tmp_path, expected)
    assert (ok.attempted, ok.failures) == (1, [])
    perturbed = dict(expected)
    perturbed[key] *= 1.0 + 1e-8
    bad = workload.run_pass([request], tmp_path, perturbed)
    assert bad.attempted == 1
    assert len(bad.failures) == 1 and key in bad.failures[0]


def test_gate_perturbed_sweep_cell_fails_only_that_cell(tmp_path):
    request = workload.Request("sweep", "Example1", "transformed",
                               workload.EPSILONS, (32,), "bisect")
    expected = dict(workload.load_expected())
    key = request.key(1e-4, 32)
    expected[key] *= 1.0 - 1e-8
    result = workload.run_pass([request], tmp_path, expected)
    assert result.attempted == 2
    assert len(result.failures) == 1 and key in result.failures[0]


def test_program_crash_fails_the_request_and_the_pass_goes_on(tmp_path, monkeypatch):
    def crash(argv):
        raise TypeError("boom")

    monkeypatch.setattr(cd2d.cli, "main", crash)
    requests = workload.make_requests("solve-dump", seed=0)[:2]
    result = workload.run_pass(requests, tmp_path, workload.load_expected())
    assert result.attempted == 2 and len(result.failures) == 2
    assert "TypeError: boom" in result.failures[0]


def test_missing_outputs_fail_every_key(tmp_path):
    request = workload.Request("sweep", "Example1", "transformed",
                               workload.EPSILONS, (32, 64), "bisect")
    observed, failures = workload.check_request(
        request, tmp_path / "absent", 0, workload.load_expected())
    assert observed == {} and len(failures) == 4


def test_regenerate_repeats_three_of_eight_solves_and_counts_repeat(tmp_path):
    requests = workload.make_requests("sweep-regenerate", seed=1)
    first = _traced_pass(requests, tmp_path).layers
    second = _traced_pass(requests, tmp_path).layers
    assert first["solve.duplicate_ratio"] == 0.375
    assert first["solve.direct_calls"] == 16
    # validate, x-axis, y-axis and the companion mesh: 4 builds per cell.
    assert (first["problems.validate_calls"], first["mesh.build_calls"]) == (8, 32)
    for name in COUNT_METRICS:
        assert first[name] == second[name], name


def test_bisect_repeats_no_solve(tmp_path):
    requests = workload.make_requests("sweep-bisect", seed=1)
    assert _traced_pass(requests, tmp_path).layers["solve.duplicate_ratio"] == 0.0


def test_missing_target_leaves_layer_unmeasured(tmp_path):
    targets = [(name, layer, ("cd2d.analysis:no_such_solver",), hook)
               if name == "solve.direct" else (name, layer, names, hook)
               for name, layer, names, hook in spans.TARGETS]
    result = _traced_pass([_small_solve()], tmp_path, targets)
    assert result.failures == []
    assert result.layers["solve.direct_s"] is None
    assert result.layers["solve.unknowns"] is None
    assert result.layers["solve.dump_s"] > 0.0


def test_uninstall_restores_originals(tmp_path):
    _traced_pass([_small_solve()], tmp_path)
    assert cd2d.analysis.solve_direct is cd2d.solve.solve_direct


def test_self_time_subtracts_direct_children():
    tree = [spans.Span("a", 0.0, 10.0, None, 0),
            spans.Span("b", 1.0, 4.0, 0, 0),
            spans.Span("c", 2.0, 3.0, 1, 0)]
    assert spans.self_times(tree) == [7.0, 2.0, 1.0]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_counts_identical_across_two_traced_runs():
    runs = []
    for seed in (1, 2):
        proc = _bench("--workload", "solve-dump", "--seed", str(seed),
                      "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert result["metrics"].keys() == run.metric_units(trace=True).keys()
        runs.append({k: result["metrics"][k]["value"] for k in COUNT_METRICS})
    assert runs[0] == runs[1]
    assert runs[0]["solve.duplicate_ratio"] == 0.0


def test_tree_without_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "solve-dump", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("values,q,want", [([3.0], 0.9, 3.0),
                                           ([1.0, 2.0, 3.0, 4.0], 0.5, 2.5),
                                           ([0.0, 10.0], 0.9, 9.0)])
def test_percentile_interpolates(values, q, want):
    assert run.percentile(values, q) == pytest.approx(want)
