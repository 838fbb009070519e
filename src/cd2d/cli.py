"""Command-line front end: single solves, convergence sweeps, property checks.

Commands:

* ``solve``  - one (eps, N) run; writes a plot-ready grid dump plus a
  metadata JSON (transition widths, residual, solver path, wall time,
  stage timings).
* ``sweep``  - an (eps, N) error table via the double-mesh estimate;
  writes CSV and JSON reports.
* ``verify`` - runs the built-in property checks (matrix sign structure,
  inverse positivity, stability bound, variant agreement for every eps;
  smooth-oracle convergence order once) and reports pass/fail per property.

Configuration may come from an INI file (section ``[run]``) with the same
keys as the flags; explicit flags win over the file.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import analysis, mesh as mesh_mod
from .assembly import Variant, assemble_system, m_matrix_check
from .analysis import DoubleMeshMode
from .errors import (CD2DError, CONTAINED_FAILURES, GeometryError,
                     MalformedSpec)
from .problems import ProblemSpec, builtin_problem, problem_names, validate
from .solve import solve_direct, write_grid_dump

EXIT_OK = 0
EXIT_INCOMPLETE = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

FULL_EPSILONS = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
FULL_NS = [32, 64, 128, 256, 512, 1024]


@dataclass
class RunConfig:
    """The settings of a run.  Each field name is also its ``[run]`` key and
    the ``dest`` of its flag."""
    problem: str = "Example1"
    epsilons: list[float] = field(default_factory=FULL_EPSILONS.copy)
    ns: list[int] = field(default_factory=FULL_NS.copy)
    variant: Variant = Variant.TRANSFORMED
    double_mesh: DoubleMeshMode = DoubleMeshMode.BISECT
    workers: int = 1
    out_dir: str = "."

    def __post_init__(self):
        if self.workers < 1:
            raise CD2DError(f"workers must be at least 1, got {self.workers}")
        self.variant = Variant(self.variant)
        self.double_mesh = DoubleMeshMode(self.double_mesh)


def _parse_list(kind, text: str) -> list:
    return [kind(p) for p in text.replace(",", " ").split()]


# [run] key (= RunConfig field) -> parser of the key's text
_CONFIG_KEYS = {
    "problem": str.strip,
    "epsilons": lambda t: _parse_list(float, t),
    "ns": lambda t: _parse_list(int, t),
    "variant": lambda t: Variant(t.strip().lower()),
    "double_mesh": lambda t: DoubleMeshMode(t.strip().lower()),
    "workers": int,
    "out_dir": str.strip,
}

# [run] keys each command ignores: solve makes one mesh and no estimate;
# verify also has fixed meshes and no output files
_IGNORED_KEYS = {"solve": ("double_mesh", "workers"),
                 "verify": ("ns", "double_mesh", "workers", "out_dir")}


def _read_config(text: str) -> dict:
    """RunConfig keyword arguments from an INI config (section [run]); an
    unknown key or a value its field cannot take raises ``CD2DError``."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    if not parser.has_section("run"):
        raise CD2DError("config file has no [run] section")
    kwargs = {}
    for key, value in parser["run"].items():
        if key not in _CONFIG_KEYS:
            raise CD2DError(f"unknown [run] key {key!r}")
        try:
            kwargs[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise CD2DError(f"[run] {key} cannot be {value!r}") from None
    return kwargs


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """File settings overridden by explicit flags (every flag not given is
    None).  The given settings the command ignores are named on stderr."""
    if args.command == "verify" and args.ns:
        raise CD2DError("verify checks the fixed meshes N = 16 and 32 "
                        "and takes no --N")
    kwargs = _read_config(Path(args.config).read_text()) if args.config else {}
    kwargs.update({k: v for k, v in vars(args).items()
                   if k in _CONFIG_KEYS and v is not None})
    config = RunConfig(**kwargs)
    ignored = [k for k in _IGNORED_KEYS.get(args.command, ()) if k in kwargs]
    if ignored:
        print(f"warning: {args.command} ignores " + ", ".join(ignored),
              file=sys.stderr)
    return config


def _print_warnings(spec: ProblemSpec, tm: mesh_mod.TensorMesh,
                    printed: set) -> list[str]:
    """Print on stderr the problem's warnings on mesh ``tm`` that
    ``printed`` does not hold yet, and add them to it; returns all of them."""
    warnings = validate(spec, tm)
    for warning in warnings:
        if warning not in printed:
            print(f"warning: {warning}", file=sys.stderr)
    printed.update(warnings)
    return warnings


def _file_stem(stem: str) -> str:
    """``stem``, checked to name a file in the output directory (a problem
    name may hold a path separator) before any directory or mesh is made."""
    if Path(stem).name != stem:
        raise MalformedSpec(f"output name {stem!r} is not a file name")
    return stem


def cmd_solve(config: RunConfig) -> int:
    if len(config.epsilons) != 1 or len(config.ns) != 1:
        print("solve needs exactly one --epsilon and one --N", file=sys.stderr)
        return EXIT_CONFIG
    eps, N = config.epsilons[0], config.ns[0]
    spec = builtin_problem(config.problem).with_epsilon(eps)
    # the shortest text that reads back as eps: distinct eps, distinct files
    tag = repr(float(eps)).replace("-", "m")
    stem = _file_stem(f"u_{spec.name.lower()}_{config.variant.value}"
                      f"_eps{tag}_N{N}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tm = mesh_mod.build_tensor_mesh(spec, N)
    warnings = _print_warnings(spec, tm, set())
    timings = dict.fromkeys(("assemble_s", "solve_s", "residual_s", "dump_s"),
                            0.0)
    system = analysis.timed(timings, "assemble_s", assemble_system, spec, tm,
                            config.variant)
    solved = analysis.solve_on(system, timings)
    solution = solved.solution
    grid_path = out / f"{stem}.dat"
    meta_path = out / f"{stem}.json"
    with open(grid_path, "wb") as fh:
        analysis.timed(timings, "dump_s", write_grid_dump, solution, fh)
    meta = {
        "problem": spec.name,
        "variant": config.variant.value,
        "epsilon": eps,
        "N": N,
        "sigma_x": tm.sigma_x,
        "sigma_y": tm.sigma_y,
        "residual": solved.residual,
        "solver": solved.solver,
        "max_abs_u": solution.max_norm(),
        "wall_time": timings["assemble_s"] + timings["solve_s"],
        "timings": timings,
        "warnings": warnings,
    }
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {grid_path} and {meta_path}")
    return EXIT_OK


def cmd_sweep(config: RunConfig) -> int:
    if not config.epsilons or not config.ns:
        print("sweep needs at least one epsilon and one N", file=sys.stderr)
        return EXIT_CONFIG
    spec = builtin_problem(config.problem)
    stem = _file_stem(f"table_{spec.name.lower()}_{config.variant.value}"
                      f"_{config.double_mesh.value}")
    for eps in config.epsilons:     # an eps outside (0, 1) fails here
        spec.with_epsilon(eps)
    for N in config.ns:
        mesh_mod.check_mesh_parameter(N)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = analysis.run_sweep(spec, config.epsilons, config.ns,
                                variant=config.variant, mode=config.double_mesh,
                                workers=config.workers)
    csv_path = out / f"{stem}.csv"
    json_path = out / f"{stem}.json"
    print(analysis.format_table_text(result.table))
    with open(csv_path, "w") as fh:
        analysis.write_table_csv(result.table, fh)
    with open(json_path, "w") as fh:
        json.dump(analysis.sweep_to_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {csv_path} and {json_path}")
    failed = [c for c in result.cells if not c.ok]
    for cell in failed:
        print(f"missing cell eps={float(cell.epsilon)!r} N={cell.N}: "
              f"{cell.error}", file=sys.stderr)
    return EXIT_OK if not failed else EXIT_INCOMPLETE


def _verify_checks(spec: ProblemSpec, systems: list, variant: Variant
                   ) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) of each check at ``spec.epsilon`` on the
    systems of ``variant`` for N = 16 and N = 32."""
    at = f" at eps={float(spec.epsilon)!r}"
    system = systems[0]
    other = assemble_system(spec, system.mesh, Variant.RAW
                            if variant is Variant.TRANSFORMED
                            else Variant.TRANSFORMED)
    report = m_matrix_check(system)
    inv = report.min_inverse_entry
    solutions = [solve_direct(s) for s in systems]
    diff = float(np.max(np.abs(solutions[0].values
                               - solve_direct(other).values)))
    return [
        (f"matrix sign structure ({variant.value}, N=16){at}",
         report.sign_ok, report.summary()),
        (f"inverse positivity (N=16){at}",
         inv is not None and inv >= -1e-12, f"min inverse entry {inv:.3e}"),
        (f"stability bound{at}",
         all(u.max_norm() <= s.bound for s, u in zip(systems, solutions)),
         "; ".join(f"N={s.mesh.n}: |U|={u.max_norm():.4e} bound={s.bound:.4e}"
                   for s, u in zip(systems, solutions))),
        (f"raw/transformed agreement (N=16){at}", diff <= 1e-9,
         f"max difference {diff:.3e}"),
    ]


def cmd_verify(config: RunConfig) -> int:
    if not config.epsilons:
        print("verify needs at least one epsilon", file=sys.stderr)
        return EXIT_CONFIG
    base = builtin_problem(config.problem)
    cases = [(base.with_epsilon(eps), N)
             for eps in config.epsilons for N in (16, 32)]
    meshes = [mesh_mod.build_tensor_mesh(spec, N) for spec, N in cases]
    # Assembly checks the problem data; the findings on every mesh are
    # reported before any solve, each distinct warning and error once.
    systems, printed, reported = [], set(), set()
    for (spec, _), tm in zip(cases, meshes):
        try:
            _print_warnings(spec, tm, printed)
            systems.append(assemble_system(spec, tm, config.variant))
        except MalformedSpec as exc:
            if str(exc) not in reported:
                print(f"error: {exc}", file=sys.stderr)
            reported.add(str(exc))
    if len(systems) < len(cases):
        return EXIT_CONFIG
    checks = [check for k in range(0, len(cases), 2) for check in
              _verify_checks(cases[k][0], systems[k:k + 2], config.variant)]
    mms = analysis.manufactured_solution_study([32, 64, 128], config.variant)
    orders = mms.E_uniform
    checks.append(("smooth-oracle order in [0.90, 1.15]",
                   bool(np.all((orders >= 0.9) & (orders <= 1.15))),
                   "orders " + ", ".join(f"{o:.3f}" for o in orders)))

    for name, ok, detail_text in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail_text}")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_INCOMPLETE


@functools.lru_cache(maxsize=1)
def _parser(names: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser naming the problems ``names``; cached, so ``main`` builds
    it on its first call and again only after a problem is registered."""
    parser = argparse.ArgumentParser(
        prog="cd2d",
        description="Fitted-mesh upwind solver for 2-D convection-diffusion "
                    "with a discontinuous source")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("solve", "single (eps, N) solve with grid dump"),
                            ("sweep", "double-mesh convergence table"),
                            ("verify", "property checks")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--problem", default=None,
                       help="registered problem name (builtin: "
                            + ", ".join(names) + ")")
        p.add_argument("--epsilon", dest="epsilons", metavar="EPSILON",
                       type=float, action="append", default=None,
                       help="perturbation parameter (repeatable)")
        p.add_argument("--N", dest="ns", metavar="N", type=int,
                       action="append", default=None,
                       help="mesh intervals per axis, multiple of 8 (repeatable)")
        p.add_argument("--variant", choices=[v.value for v in Variant],
                       default=None, help="interface row treatment")
        p.add_argument("--double-mesh", dest="double_mesh",
                       choices=[m.value for m in DoubleMeshMode], default=None,
                       help="companion-mesh convention for the error estimate")
        p.add_argument("--workers", type=int, default=None,
                       help="parallel sweep cells")
        p.add_argument("--out-dir", dest="out_dir", default=None,
                       help="output directory")
        p.add_argument("--config", default=None,
                       help="INI config file; flags override it")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser(tuple(problem_names())).parse_args(argv)
    try:
        config = _merge_config(args)
    except (CD2DError, ValueError, OSError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    command = {"solve": cmd_solve, "sweep": cmd_sweep,
               "verify": cmd_verify}[args.command]
    try:
        return command(config)
    # the user's problem data, N, eps or output path is at fault, not the LU
    except (MalformedSpec, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CONTAINED_FAILURES as exc:
        # name a MemoryError, whose message may be empty
        why = exc if isinstance(exc, CD2DError) else ": ".join(
            filter(None, ("MemoryError", str(exc))))
        print(f"solver failure: {why}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
