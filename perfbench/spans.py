"""In-memory span tracer that wraps cd2d's public functions from outside.

Each wrapped call records a span (name, start, end, parent, request id).
Spans stay in memory and are written out when the run ends; per-layer
times and counts are computed from them afterwards.

Functions are wrapped at the names their callers resolve, for example
``cd2d.analysis.solve_direct`` (imported by name into ``analysis``) and
``cd2d.mesh.build_mesh_x`` (reached through the module attribute).  A
target that no longer exists is skipped; a layer none of whose targets
exist is reported as unmeasured, so a refactor that renames a function
loses that layer's numbers instead of breaking the run.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _count_validate(counts, args, kwargs, result):
    counts["problems.validate_calls"] += 1


def _count_assembly(counts, args, kwargs, result):
    counts["assembly.calls"] += 1
    counts["assembly.nnz"] += int(result.matrix.nnz)


def _count_solve(counts, args, kwargs, result):
    system = _first_arg(args, kwargs, "system")
    digest = hashlib.blake2b(digest_size=16)
    for arr in (system.matrix.indptr, system.matrix.indices,
                system.matrix.data, system.rhs):
        digest.update(arr.tobytes())
    key = digest.hexdigest()
    counts["solve.direct_calls"] += 1
    counts["solve.unknowns"] += int(result.values.size)
    if key in counts.seen_systems:
        counts["solve.duplicates"] += 1
    counts.seen_systems.add(key)


def _count_residual(counts, args, kwargs, result):
    counts["solve.residual_max"] = max(counts["solve.residual_max"],
                                       float(result))


# (span name, layer, targets "module:attribute", count hook).  The layer
# names the metrics that go unmeasured when none of its targets exist.
# Each function is also wrapped in the module that defines it, so a caller
# that switches to reaching it through that module is still traced.
TARGETS: list[tuple[str, str, tuple[str, ...], Optional[Callable]]] = [
    ("cli.main", "cli", ("cd2d.cli:main",), None),
    ("problems.validate", "problems",
     ("cd2d.analysis:validate", "cd2d.cli:validate", "cd2d.problems:validate"),
     _count_validate),
    ("mesh.build", "mesh",
     ("cd2d.mesh:build_tensor_mesh", "cd2d.mesh:build_mesh_x",
      "cd2d.mesh:build_mesh_y", "cd2d.mesh:bisect"), None),
    ("assembly.assemble", "assembly",
     ("cd2d.analysis:assemble_system", "cd2d.cli:assemble_system",
      "cd2d.assembly:assemble_system"), _count_assembly),
    ("solve.direct", "solve.direct",
     ("cd2d.analysis:solve_direct", "cd2d.cli:solve_direct",
      "cd2d.solve:solve_direct"), _count_solve),
    ("solve.residual", "solve.residual",
     ("cd2d.analysis:residual_norm", "cd2d.cli:residual_norm",
      "cd2d.solve:residual_norm"), _count_residual),
    ("solve.dump", "solve.dump",
     ("cd2d.cli:write_grid_dump", "cd2d.solve:write_grid_dump"), None),
    ("analysis.estimate", "analysis.estimate",
     ("cd2d.analysis:double_mesh_error",
      "cd2d.analysis:double_mesh_error_bilinear"), None),
    ("analysis.cell", "analysis.cell", ("cd2d.analysis:run_cell",), None),
]

# Per-layer metric -> the layer it needs.
METRIC_LAYER = {
    "solve.direct_s": "solve.direct",
    "solve.direct_calls": "solve.direct",
    "solve.unknowns": "solve.direct",
    "solve.duplicate_ratio": "solve.direct",
    "solve.residual_s": "solve.residual",
    "solve.residual_max": "solve.residual",
    "solve.dump_s": "solve.dump",
    "assembly.assemble_s": "assembly",
    "assembly.calls": "assembly",
    "assembly.nnz": "assembly",
    "problems.validate_s": "problems",
    "problems.validate_calls": "problems",
    "mesh.build_s": "mesh",
    "mesh.build_calls": "mesh",
    "analysis.estimate_s": "analysis.estimate",
    "analysis.cell_self_s": "analysis.cell",
    "cli.self_s": "cli",
}

HOOK_SPAN = "trace.hook"


class Counts(dict):
    """Exact counts of one pass, plus the hashes of systems solved in it."""

    def __init__(self):
        super().__init__()
        self.seen_systems: set[str] = set()

    def __missing__(self, key):
        return 0


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Optional[Span]] = []
        self.counts = Counts()
        self.passes: list[list[Optional[Span]]] = []
        self.request: Optional[int] = None
        self.unmeasured: set[str] = set()
        self._stack: list[tuple[int, str]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        for name, layer, targets, hook in self.targets:
            found = False
            for target in targets:
                module_name, attr = target.split(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    continue
                found = True
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(name, layer, original, hook))
            if not found:
                self.unmeasured.add(layer)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append((idx, name))
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans[idx] = Span(name, start, time.perf_counter(), parent,
                               self.request)

    def _wrap(self, name, layer, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A call nested in a span of the same name is part of that
            # call's work and is not counted again.
            nested = bool(self._stack) and self._stack[-1][1] == name
            idx = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start)
            if hook is not None and not nested and layer not in self.unmeasured:
                hidx = self._open(HOOK_SPAN)
                hstart = time.perf_counter()
                try:
                    hook(self.counts, args, kwargs, result)
                except Exception:
                    # The program's signature moved under the hook; its
                    # counts can no longer be trusted.
                    self.unmeasured.add(layer)
                finally:
                    self._close(hidx, HOOK_SPAN, hstart)
            return result
        return wrapper

    # -- passes -------------------------------------------------------------
    def start_pass(self) -> None:
        self.spans = []
        self.counts = Counts()
        self.passes.append(self.spans)

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the spans and counts since start_pass."""
        return layer_metrics(self.spans, self.counts, self.unmeasured)

    def write_spans(self, path) -> None:
        """Write every pass's spans, one JSON object a line."""
        with open(path, "w") as fh:
            for pass_index, spans in enumerate(self.passes):
                for idx, span in enumerate(spans):
                    fh.write(json.dumps({"pass": pass_index, "id": idx,
                                         **asdict(span)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: list[Span], counts: Counts,
                  unmeasured: set[str]) -> dict:
    selfs = self_times(spans)
    inclusive: dict[str, float] = {}
    outermost: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    for s, own in zip(spans, selfs):
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + own
        nested = s.parent is not None and spans[s.parent].name == s.name
        if not nested:
            inclusive[s.name] = inclusive.get(s.name, 0.0) + s.duration
            outermost[s.name] = outermost.get(s.name, 0) + 1
    calls = counts["solve.direct_calls"]
    metrics = {
        "solve.direct_s": inclusive.get("solve.direct", 0.0),
        "solve.direct_calls": calls,
        "solve.unknowns": counts["solve.unknowns"],
        "solve.duplicate_ratio": counts["solve.duplicates"] / calls if calls else 0.0,
        "solve.residual_s": inclusive.get("solve.residual", 0.0),
        "solve.residual_max": counts["solve.residual_max"],
        "solve.dump_s": inclusive.get("solve.dump", 0.0),
        "assembly.assemble_s": inclusive.get("assembly.assemble", 0.0),
        "assembly.calls": counts["assembly.calls"],
        "assembly.nnz": counts["assembly.nnz"],
        "problems.validate_s": inclusive.get("problems.validate", 0.0),
        "problems.validate_calls": counts["problems.validate_calls"],
        "mesh.build_s": inclusive.get("mesh.build", 0.0),
        "mesh.build_calls": outermost.get("mesh.build", 0),
        "analysis.estimate_s": inclusive.get("analysis.estimate", 0.0),
        "analysis.cell_self_s": self_by_name.get("analysis.cell", 0.0),
        "cli.self_s": self_by_name.get("cli.main", 0.0),
    }
    for metric, layer in METRIC_LAYER.items():
        if layer in unmeasured:
            metrics[metric] = None
    return metrics
