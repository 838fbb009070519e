import argparse
import dataclasses
import io
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cd2d import analysis, cli, errors, mesh as mesh_mod
from cd2d.cli import (
    EXIT_CONFIG,
    EXIT_INCOMPLETE,
    EXIT_OK,
    EXIT_SOLVER,
    FULL_EPSILONS,
    FULL_NS,
    RunConfig,
    _merge_config,
    main,
)
from cd2d.analysis import DoubleMeshMode
from cd2d.assembly import Variant, assemble_system, m_matrix_check
from cd2d.errors import (CD2DError, GeometryError, MalformedSpec,
                         MeshMismatch, SingularMatrix)
from cd2d.mesh import build_tensor_mesh
from cd2d.problems import (_REGISTRY, builtin_problem, problem_names,
                           register_problem)


# ---------------------------------------------------------------------------
# configuration handling


def test_run_config_defaults():
    cfg = RunConfig()
    assert cfg.problem == "Example1"
    assert cfg.epsilons == FULL_EPSILONS
    assert cfg.ns == FULL_NS
    assert cfg.workers == 1


def config_from(tmp_path, text: str) -> RunConfig:
    """The RunConfig of a sweep given only ``--config`` with ``text``."""
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    return _merge_config(cli._parser(tuple(problem_names())).parse_args(
        ["sweep", "--config", str(ini)]))


def test_parse_config_full(tmp_path):
    cfg = config_from(
        tmp_path,
        "[run]\n"
        "problem = Example2\n"
        "epsilons = 1e-1, 1e-3\n"
        "ns = 16 32\n"
        "variant = raw\n"
        "double_mesh = regenerate\n"
        "workers = 3\n")
    assert cfg.problem == "Example2"
    assert cfg.epsilons == [1e-1, 1e-3]
    assert cfg.ns == [16, 32]
    assert cfg.variant.value == "raw"
    assert cfg.double_mesh.value == "regenerate"
    assert cfg.workers == 3


def test_parse_config_requires_run_section(tmp_path):
    with pytest.raises(CD2DError, match=r"no \[run\] section"):
        config_from(tmp_path, "[other]\nproblem = Example1\n")


def test_flags_override_config(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nproblem = Example2\nepsilons = 0.5\nns = 8\n")
    rc = main(["solve", "--config", str(ini), "--problem", "Example1",
               "--epsilon", "1e-2", "--N", "16",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "u_example1_transformed_eps0.01_N16.dat" in out
    assert (tmp_path / "u_example1_transformed_eps0.01_N16.dat").exists()


def test_missing_config_file_is_config_error(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.ini")])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def must_not_run(*args, **kwargs):
    raise AssertionError("mesh or LU work before the output directory")


def test_config_unknown_key_is_config_error(tmp_path, capsys, monkeypatch):
    # a typo for ns would otherwise leave the sweep on FULL_NS (N = 1024)
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nepsilons = 1e-2\nn = 32, 64\n")
    monkeypatch.setattr(analysis, "run_sweep", must_not_run)
    rc = main(["sweep", "--config", str(ini), "--out-dir", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown [run] key 'n'\n"


def test_config_workers_must_be_an_integer(tmp_path, capsys, monkeypatch):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nepsilons = 1e-2\nns = 16\nworkers = many\n")
    monkeypatch.setattr(analysis, "run_sweep", must_not_run)
    rc = main(["sweep", "--config", str(ini), "--out-dir", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: [run] workers cannot be 'many'\n")


def test_removed_settings_are_rejected(tmp_path, capsys, monkeypatch):
    # each setting has one spelling; any other is a config error, never a
    # silent default; the bounds alpha and beta are the problem's own data
    monkeypatch.setattr(mesh_mod, "build_tensor_mesh", must_not_run)
    monkeypatch.setattr(analysis, "run_sweep", must_not_run)
    for flags in (["--desk"], ["--alpha", "4"], ["--beta", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--epsilon", "1e-2", "--N", "16", *flags])
        assert exc.value.code == EXIT_CONFIG
        assert ("unrecognized arguments: " + " ".join(flags)
                in capsys.readouterr().err)
    ini = tmp_path / "run.ini"
    for line, message in (("desk = yes", "unknown [run] key 'desk'"),
                          ("alpha = 4.0", "unknown [run] key 'alpha'"),
                          ("beta = 2.0", "unknown [run] key 'beta'")):
        ini.write_text(f"[run]\nepsilons = 1e-2\nns = 16\n{line}\n")
        rc = main(["sweep", "--config", str(ini), "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG, line
        assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("problem = Example2\n", "File contains no section headers."),
    ("[run]\nns = 16\nns = 32\n",
     "option 'ns' in section 'run' already exists")])
def test_malformed_ini_is_config_error(tmp_path, capsys, monkeypatch, text,
                                       message):
    # no section header, a duplicated key
    ini = tmp_path / "run.ini"
    ini.write_text(text)
    monkeypatch.setattr(mesh_mod, "build_tensor_mesh", must_not_run)
    rc = main(["verify", "--config", str(ini)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err


# each setting: its flag arguments and its [run] line, giving the same value
SETTINGS = {
    "problem": (["--problem", "Example2"], "problem = Example2"),
    "epsilons": (["--epsilon", "1e-2", "--epsilon", "1e-4"],
                 "epsilons = 1e-2, 1e-4"),
    "ns": (["--N", "16", "--N", "512"], "ns = 16 512"),
    "variant": (["--variant", "raw"], "variant = raw"),
    "double_mesh": (["--double-mesh", "regenerate"],
                    "double_mesh = regenerate"),
    "workers": (["--workers", "3"], "workers = 3"),
    "out_dir": (["--out-dir", "results"], "out_dir = results"),
}


def test_one_name_per_setting(tmp_path, capsys):
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    assert list(cli._CONFIG_KEYS) == fields
    assert list(SETTINGS) == fields
    ini = tmp_path / "run.ini"
    parser = cli._parser(tuple(problem_names()))
    for name, (flags, line) in SETTINGS.items():
        ini.write_text(f"[run]\n{line}\n")
        from_flags = _merge_config(parser.parse_args(["sweep"] + flags))
        from_file = _merge_config(
            parser.parse_args(["sweep", "--config", str(ini)]))
        assert from_flags == from_file, name
        assert from_flags != RunConfig(), name
        assert isinstance(from_flags.variant, Variant)
        assert isinstance(from_flags.double_mesh, DoubleMeshMode)
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", "--N"])
    err = capsys.readouterr().err
    assert "[--epsilon EPSILON] [--N N]" in err
    assert "argument --N: expected one argument" in err


def test_readme_settings_table_lists_the_fields():
    # README's table "INI key = RunConfig field" names every setting, in order
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = lines.index(next(ln for ln in lines
                             if ln.startswith("| INI key = `RunConfig` field")))
    rows = itertools.takewhile(lambda ln: ln.startswith("|"), lines[start + 2:])
    keys = [row.split("|")[1].strip().strip("`") for row in rows]
    assert keys == [f.name for f in dataclasses.fields(RunConfig)]


def test_main_builds_one_parser_for_many_calls(tmp_path, capsys,
                                              monkeypatch):
    # argparse builds a parser per subcommand too: count the ones named cd2d
    progs = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli._parser.__wrapped__(tuple(problem_names()))
    per_build = len(progs)
    assert progs.count("cd2d") == 1 and per_build > 1
    progs.clear()
    cli._parser.cache_clear()
    for eps in ("1e-1", "1e-2", "1e-3"):
        assert main(["solve", "--epsilon", eps, "--N", "8",
                     "--out-dir", str(tmp_path)]) == EXIT_OK
    assert progs.count("cd2d") == 1
    assert len(progs) == per_build


def test_help_lists_a_problem_registered_later(capsys, monkeypatch):
    # wide help lines: argparse would wrap a name at its hyphen
    monkeypatch.setenv("COLUMNS", "200")
    name = "probe-x"
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    assert name not in capsys.readouterr().out
    try:
        register_problem(name, lambda: builtin_problem("example1"))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
    finally:
        _REGISTRY.pop(name, None)
    assert exc.value.code == 0
    assert name in capsys.readouterr().out


def test_calls_sharing_a_parser_get_their_own_settings(monkeypatch):
    configs = []
    monkeypatch.setattr(cli, "cmd_solve",
                        lambda config: configs.append(config) or EXIT_OK)
    assert main(["solve", "--epsilon", "1e-1", "--N", "8"]) == EXIT_OK
    assert main(["solve", "--epsilon", "1e-3", "--epsilon", "1e-4",
                 "--N", "16"]) == EXIT_OK
    first, second = configs
    assert (first.epsilons, first.ns) == ([1e-1], [8])
    assert (second.epsilons, second.ns) == ([1e-3, 1e-4], [16])
    assert first.epsilons is not second.epsilons
    assert first.ns is not second.ns


def test_workers_below_one_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mesh_mod, "build_tensor_mesh", must_not_run)
    monkeypatch.setattr(analysis, "run_sweep", must_not_run)
    for workers in ("0", "-2"):
        rc = main(["sweep", "--epsilon", "1e-2", "--N", "16", "--workers",
                   workers, "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: workers must be at least 1, got {workers}\n")
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nepsilons = 1e-2\nns = 16\nworkers = 0\n")
    rc = main(["sweep", "--config", str(ini), "--out-dir", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: workers must be at least 1, got 0\n")


# ---------------------------------------------------------------------------
# solve command


def test_solve_writes_grid_and_metadata(tmp_path, capsys):
    rc = main(["solve", "--problem", "Example2", "--epsilon", "1e-3",
               "--N", "16", "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    dat = tmp_path / "u_example2_transformed_eps0.001_N16.dat"
    meta_path = tmp_path / "u_example2_transformed_eps0.001_N16.json"
    assert dat.exists() and meta_path.exists()
    lines = dat.read_text().splitlines()
    assert len(lines) == 17 * 17 + 16
    meta = json.loads(meta_path.read_text())
    assert meta["problem"] == "Example2"
    assert meta["N"] == 16 and meta["epsilon"] == 1e-3
    assert meta["residual"] <= 1e-10
    assert meta["max_abs_u"] <= 1.5
    tm = build_tensor_mesh(builtin_problem("example2").with_epsilon(1e-3), 16)
    assert meta["sigma_x"] == tm.sigma_x and meta["sigma_y"] == tm.sigma_y
    timings = meta["timings"]
    assert set(timings) == {"assemble_s", "solve_s", "residual_s", "dump_s"}
    assert all(math.isfinite(t) and t >= 0.0 for t in timings.values())
    assert meta["wall_time"] == timings["assemble_s"] + timings["solve_s"]
    assert set(meta) == {"problem", "variant", "epsilon", "N", "sigma_x",
                         "sigma_y", "residual", "max_abs_u", "wall_time",
                         "timings", "warnings", "solver"}
    # Example2's b varies by about 1% along y: the tensor path, refined
    assert meta["solver"] == "tensor"


def test_solve_names_keep_every_digit_of_eps(tmp_path, capsys):
    # eps that agree in 6 significant digits write distinct files; an eps
    # of at most 6 significant digits keeps its short name
    tags = {"1e-3": "0.001", "1.0000001e-3": "0.0010000001",
            "0.3333333": "0.3333333", "0.33333333": "0.33333333",
            "1e-1": "0.1", "1e-4": "0.0001", "1e-5": "1em05",
            "2.5e-3": "0.0025"}
    for eps in tags:
        assert main(["solve", "--epsilon", eps, "--N", "16",
                     "--out-dir", str(tmp_path)]) == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"u_example1_transformed_eps{tag}_N16.{ext}"
        for tag in tags.values() for ext in ("dat", "json"))


def test_solve_metadata_names_the_lu_path(tmp_path):
    # b = 25 + 25y varies too much with y for the tensor path
    name = "cli_lu_path_probe"
    try:
        register_problem(name, lambda: dataclasses.replace(
            builtin_problem("example2"), name=name,
            b_field=lambda x, y: 25.0 + 25.0 * y))
        rc = main(["solve", "--problem", name, "--epsilon", "1e-3",
                   "--N", "16", "--out-dir", str(tmp_path)])
    finally:
        _REGISTRY.pop(name, None)
    assert rc == EXIT_OK
    meta = json.loads((tmp_path / f"u_{name}_transformed_eps0.001_N16.json")
                      .read_text())
    assert meta["residual"] <= 1e-10
    assert meta["solver"] == "MMD_AT_PLUS_A"


def test_solve_unwritable_out_dir_is_config_error(tmp_path, capsys,
                                                  monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    with monkeypatch.context() as m:
        m.setattr(mesh_mod, "build_tensor_mesh", must_not_run)
        rc = main(["solve", "--epsilon", "1e-2", "--N", "8",
                   "--out-dir", str(blocker / "sub")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    # an output path taken by a directory fails the write, not the solve
    (tmp_path / "u_example1_transformed_eps0.01_N8.dat").mkdir()
    rc = main(["solve", "--epsilon", "1e-2", "--N", "8",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_data_error_is_config_error(tmp_path, capsys):
    name = "cli_nan_b_solve_probe"
    try:
        register_problem(name, lambda: dataclasses.replace(
            builtin_problem("example1"), name=name,
            b_field=lambda x, y: np.full(np.shape(x), np.nan)))
        rc = main(["solve", "--problem", name, "--epsilon", "1e-3",
                   "--N", "16", "--out-dir", str(tmp_path)])
    finally:
        _REGISTRY.pop(name, None)
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: b is not finite at 289 mesh points\n")
    assert list(tmp_path.iterdir()) == []


def _west_fails_inside(y):
    if 0.2 < y < 0.8:
        raise ValueError("no data inside")
    return 0.0


def test_failing_trace_is_a_data_error(tmp_path, capsys, monkeypatch):
    # solve and verify report the trace and exit 2, with no solve
    monkeypatch.setattr(cli, "solve_direct", must_not_run)
    monkeypatch.setattr(analysis, "solve_direct", must_not_run)
    name = "cli_failing_trace_probe"
    try:
        register_problem(name, lambda: dataclasses.replace(
            builtin_problem("example1"), name=name,
            q_edges=(_west_fails_inside,) * 4))
        common = ["--problem", name, "--epsilon", "1e-2"]
        for args in (["solve", *common, "--N", "16", "--out-dir", str(tmp_path)],
                     ["verify", *common]):
            rc = main(args)
            assert rc == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error: west trace fails at 0.25: "
                                  "ValueError: no data inside; "), err
    finally:
        _REGISTRY.pop(name, None)
    assert list(tmp_path.iterdir()) == []


def test_solve_needs_single_cell(capsys):
    rc = main(["solve", "--epsilon", "1e-2", "--epsilon", "1e-3", "--N", "16"])
    assert rc == EXIT_CONFIG
    rc = main(["solve", "--epsilon", "1e-2"])   # six default Ns
    assert rc == EXIT_CONFIG


def test_solve_bad_n_is_config_error(capsys):
    rc = main(["solve", "--epsilon", "1e-2", "--N", "12"])
    assert rc == EXIT_CONFIG
    assert "multiple of 8" in capsys.readouterr().err


def test_solve_unknown_problem(capsys):
    rc = main(["solve", "--problem", "nosuch", "--epsilon", "1e-2", "--N", "8"])
    assert rc == EXIT_CONFIG
    assert "unknown problem" in capsys.readouterr().err


def test_solve_warns_in_classical_regime(tmp_path, capsys):
    rc = main(["solve", "--epsilon", "0.5", "--N", "64",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    assert "classical regime" in capsys.readouterr().err


def test_solve_alpha_override_changes_mesh(tmp_path):
    # README's recipe for other bounds: a registered replacement problem
    name = "example2_alpha4"
    try:
        register_problem(name, lambda: dataclasses.replace(
            builtin_problem("Example2"), alpha=4.0))
        rc = main(["solve", "--problem", name, "--epsilon", "1e-2",
                   "--N", "16", "--out-dir", str(tmp_path)])
    finally:
        _REGISTRY.pop(name, None)
    assert rc == EXIT_OK
    meta = json.loads(
        (tmp_path / "u_example2_transformed_eps0.01_N16.json").read_text())
    base = build_tensor_mesh(builtin_problem("example2").with_epsilon(1e-2), 16)
    assert meta["sigma_x"] == pytest.approx(base.sigma_x / 2.0, rel=1e-12)
    assert meta["sigma_y"] == base.sigma_y


def test_solve_layer_locations_example2(tmp_path):
    # steepest x-gradients must sit in the fine strips before x = d1 and x = 1
    rc = main(["solve", "--problem", "Example2", "--epsilon", "1e-3",
               "--N", "32", "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    dat = tmp_path / "u_example2_transformed_eps0.001_N32.dat"
    rows = [list(map(float, ln.split()))
            for ln in dat.read_text().splitlines() if ln]
    xs = np.array([r[0] for r in rows[:33]])
    grid = np.array([r[2] for r in rows]).reshape(33, 33)
    slopes = np.abs(np.diff(grid, axis=1)) / np.diff(xs)
    spec = builtin_problem("example2").with_epsilon(1e-3)
    p = build_tensor_mesh(spec, 32)
    steep = xs[np.argmax(slopes, axis=1)]     # left end of steepest interval
    interior = steep[1:-1]
    in_d1_strip = (interior >= spec.d1 - p.sigma_x - 1e-12) & (interior < spec.d1)
    in_outflow_strip = interior >= 1.0 - p.sigma_x - 1e-12
    assert np.all(in_d1_strip | in_outflow_strip)


# ---------------------------------------------------------------------------
# sweep command


def test_sweep_complete_run(tmp_path, capsys):
    rc = main(["sweep", "--epsilon", "1e-1", "--epsilon", "1e-2",
               "--N", "8", "--N", "16", "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    csv_path = tmp_path / "table_example1_transformed_bisect.csv"
    json_path = tmp_path / "table_example1_transformed_bisect.json"
    assert csv_path.exists() and json_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "eps,8,16"
    assert len(lines) == 5            # two eps rows + D + E
    payload = json.loads(json_path.read_text())
    assert payload["Ns"] == [8, 16]
    assert all(v is not None for row in payload["D_eps"] for v in row)
    text = capsys.readouterr().out
    assert "eps" in text and "wrote" in text


def test_sweep_json_records_cell_timings_and_reuse(tmp_path):
    rc = main(["sweep", "--epsilon", "1e-2", "--N", "8", "--N", "16",
               "--double-mesh", "regenerate", "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    payload = json.loads(
        (tmp_path / "table_example1_transformed_regenerate.json").read_text())
    cells = payload["cells"]
    assert [c["coarse_reused"] for c in cells] == [False, True]
    for cell in cells:
        assert set(cell["timings"]) == {"mesh_s", "assemble_s", "solve_s",
                                        "residual_s", "estimate_s"}
        assert all(math.isfinite(v) and v >= 0.0
                   for v in cell["timings"].values())


def test_sweep_single_column_has_no_e_row_entries(tmp_path):
    rc = main(["sweep", "--epsilon", "1e-1", "--N", "8",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    lines = (tmp_path / "table_example1_transformed_bisect.csv") \
        .read_text().splitlines()
    assert lines[-1] == "E,"          # no estimable order from one column
    assert lines[-2].startswith("D,")


def test_sweep_deterministic_output(tmp_path):
    args = ["sweep", "--epsilon", "1e-2", "--epsilon", "1e-4",
            "--N", "8", "--N", "16", "--problem", "Example2"]
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a_dir)]) == EXIT_OK
    assert main(args + ["--out-dir", str(b_dir), "--workers", "2"]) == EXIT_OK
    name = "table_example2_transformed_bisect.csv"
    assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_sweep_unwritable_out_dir_is_config_error(tmp_path, capsys,
                                                  monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(analysis, "run_sweep", must_not_run)
    rc = main(["sweep", "--epsilon", "1e-2", "--N", "8",
               "--out-dir", str(blocker / "sub")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("name", ["a/b", "../up"])
def test_output_name_that_is_not_a_file_name(tmp_path, capsys, monkeypatch,
                                             command, name):
    # the problem name becomes part of a file name; one holding a path
    # separator is a data error before any directory or mesh is made
    out = tmp_path / "out"
    monkeypatch.setattr(mesh_mod, "build_tensor_mesh", must_not_run)
    try:
        register_problem(name, lambda: dataclasses.replace(
            builtin_problem("example1"), name=name))
        rc = main([command, "--problem", name, "--epsilon", "1e-2",
                   "--N", "8", "--out-dir", str(out)])
    finally:
        _REGISTRY.pop(name.lower(), None)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: output name ") and "not a file name" in err
    assert not out.exists()


def test_sweep_empty_epsilons_config_error(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nepsilons =\nns = 8\n")
    rc = main(["sweep", "--config", str(ini)])
    assert rc == EXIT_CONFIG
    assert "at least one" in capsys.readouterr().err


def test_sweep_bad_n_config_error(capsys):
    rc = main(["sweep", "--epsilon", "1e-2", "--N", "20"])
    assert rc == EXIT_CONFIG


def test_sweep_out_of_range_epsilon_is_config_error(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setattr(analysis, "run_sweep", must_not_run)
    rc = main(["sweep", "--epsilon", "1e-2", "--epsilon", "1.5", "--N", "16",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: epsilon must lie in (0,1), got 1.5\n")


def test_sweep_missing_cell_exit(tmp_path, capsys):
    # a problem whose layer pieces collide for large eps: d1 = 0.7 needs
    # sigma_x >= 0.3 to fail, reachable at eps = 0.5
    name = "cli_badgeom_probe"
    try:
        register_problem(
            name, lambda: dataclasses.replace(builtin_problem("example1"),
                                              d1=0.7, name=name))
        rc = main(["sweep", "--problem", name, "--epsilon", "0.5",
                   "--epsilon", "1e-3", "--N", "8", "--out-dir", str(tmp_path)])
        assert rc == EXIT_INCOMPLETE
        err = capsys.readouterr().err
        assert "missing cell" in err and "GeometryError" in err
        csv_path = tmp_path / f"table_{name}_transformed_bisect.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[1] == "5.0e-01,"         # failed row left blank
        assert lines[2].startswith("1.0e-03,") and len(lines[2]) > 9
    finally:
        _REGISTRY.pop(name, None)


def test_sweep_unresolvable_eps_is_a_missing_cell(tmp_path, capsys):
    # solve and verify reject this eps up front (status 2); sweep finds it
    # per cell and records it there
    rc = main(["sweep", "--epsilon", "1e-12", "--N", "16",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_INCOMPLETE
    assert "missing cell eps=1e-12 N=16: GeometryError" in capsys.readouterr().err
    doc = json.loads(
        (tmp_path / "table_example1_transformed_bisect.json").read_text())
    [cell] = doc["cells"]
    assert (cell["epsilon"], cell["N"], cell["D_eps"]) == (1e-12, 16, None)
    assert cell["error"].startswith("GeometryError: eps = 1e-12 is below ")


CELL_KEYS = {"epsilon", "N", "D_eps", "sigma_x", "sigma_y",
             "residual_coarse", "residual_fine", "max_u_coarse", "max_u_fine",
             "wall_time", "timings", "coarse_reused", "solver", "warnings",
             "error"}


def test_sweep_cell_past_the_companion_limit_is_missing(tmp_path, capsys,
                                                        monkeypatch):
    # N = 8760 is a valid N, but its 2N companion is past the int32 limit:
    # the cell fails while its meshes are built, and nothing is assembled
    def must_not_assemble(*args):
        raise AssertionError("assembled a cell whose companion is too large")

    monkeypatch.setattr(analysis, "assemble_system", must_not_assemble)
    rc = main(["sweep", "--epsilon", "1e-2", "--N", "8760",
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_INCOMPLETE
    assert capsys.readouterr().err == (
        "missing cell eps=0.01 N=8760: GeometryError: N = 17520 overflows "
        "the int32 CSR indices\n")
    doc = json.loads(
        (tmp_path / "table_example1_transformed_bisect.json").read_text())
    assert doc["D_eps"] == [[None]]


@pytest.mark.parametrize("argv, status, err", [
    (["solve", "--N", "80000"], EXIT_CONFIG,
     "error: N = 80000 overflows the int32 CSR indices\n"),
    (["sweep", "--N", "17520"], EXIT_INCOMPLETE,
     "missing cell eps=0.01 N=17520: GeometryError: N = 17520 overflows "
     "the int32 CSR indices\n"),
], ids=["solve", "sweep"])
def test_oversize_n_is_refused_before_its_axes(tmp_path, capsys, argv, status,
                                               err):
    # solve takes it for bad input, a sweep records a missing cell; neither
    # allocates the mesh's axes first
    cli._parser(tuple(problem_names()))     # built outside the measurement
    tracemalloc.start()
    try:
        rc = main(argv + ["--epsilon", "1e-2", "--out-dir", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, capsys.readouterr().err) == (status, err)
    assert peak < 64 * 2 ** 10


def test_sweep_cell_json_keys(tmp_path):
    # the d1 = 0.7 problem of test_sweep_missing_cell_exit: eps 0.5 fails
    name = "cli_badgeom_keys"
    try:
        register_problem(
            name, lambda: dataclasses.replace(builtin_problem("example1"),
                                              d1=0.7, name=name))
        rc = main(["sweep", "--problem", name, "--epsilon", "0.5",
                   "--epsilon", "1e-3", "--N", "8", "--out-dir", str(tmp_path)])
    finally:
        _REGISTRY.pop(name, None)
    assert rc == EXIT_INCOMPLETE
    failed, good = json.loads(
        (tmp_path / f"table_{name}_transformed_bisect.json").read_text())["cells"]
    assert set(failed) == set(good) == CELL_KEYS
    assert failed["error"].startswith("GeometryError") and good["error"] is None
    for key in ("D_eps", "sigma_x", "sigma_y", "residual_coarse",
                "residual_fine", "max_u_coarse", "max_u_fine"):
        assert failed[key] is None, key
        assert math.isfinite(good[key]), key
    # a cell that fails before its first solve names no solver path
    assert failed["solver"] is None and good["solver"] == "tensor"


# ---------------------------------------------------------------------------
# verify command


def test_verify_transformed_reports_defect(capsys):
    rc = main(["verify", "--epsilon", "1e-3"])
    assert rc == EXIT_INCOMPLETE
    out = capsys.readouterr().out
    assert "FAIL  matrix sign structure (transformed, N=16)" in out
    assert "FAIL  inverse positivity" in out
    assert "PASS  stability bound" in out
    assert "FAIL  raw/transformed agreement" in out
    assert "PASS  smooth-oracle order" in out


def test_verify_raw_variant(capsys):
    rc = main(["verify", "--variant", "raw", "--epsilon", "1e-1"])
    assert rc == EXIT_INCOMPLETE
    out = capsys.readouterr().out
    assert "FAIL  matrix sign structure (raw, N=16)" in out
    assert "PASS  stability bound" in out
    assert "PASS  smooth-oracle order" in out


def test_verify_unknown_problem(capsys):
    rc = main(["verify", "--problem", "missing"])
    assert rc == EXIT_CONFIG


def test_verify_empty_epsilons_config_error(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nepsilons =\n")
    rc = main(["verify", "--config", str(ini)])
    assert rc == EXIT_CONFIG
    assert "at least one epsilon" in capsys.readouterr().err


def test_verify_validates_before_solving(capsys, monkeypatch):
    name = "cli_nan_b_probe"
    monkeypatch.setattr(cli, "solve_direct", must_not_run)
    try:
        register_problem(name, lambda: dataclasses.replace(
            builtin_problem("example1"), name=name,
            b_field=lambda x, y: np.full(np.shape(x), np.nan)))
        rc = main(["verify", "--problem", name, "--epsilon", "1e-3"])
    finally:
        _REGISTRY.pop(name, None)
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "error: b is not finite at 289 mesh points" in captured.err
    assert "error: b is not finite at 1089 mesh points" in captured.err
    assert captured.out == ""


def test_verify_assembles_and_solves_each_system_once(capsys, monkeypatch):
    calls = {"assemble": 0, "solve": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "assemble_system",
                        counted("assemble", cli.assemble_system))
    monkeypatch.setattr(cli, "solve_direct", counted("solve", cli.solve_direct))
    assert main(["verify", "--epsilon", "1e-3"]) == EXIT_INCOMPLETE
    # the variant on N = 16 and 32, the other variant on N = 16
    assert calls == {"assemble": 3, "solve": 3}


def test_verify_checks_every_epsilon(capsys):
    rc = main(["verify", "--variant", "raw",
               "--epsilon", "1e-1", "--epsilon", "1e-3"])
    assert rc == EXIT_INCOMPLETE
    out = capsys.readouterr().out
    for eps in ("0.1", "0.001"):
        assert f"FAIL  matrix sign structure (raw, N=16) at eps={eps}:" in out
        assert f"PASS  stability bound at eps={eps}:" in out
        assert f"FAIL  raw/transformed agreement (N=16) at eps={eps}:" in out
    assert out.count("smooth-oracle order") == 1


def test_verify_prints_each_warning_once(capsys):
    # the corner warnings hold on all four meshes, the small-layer warnings
    # differ with (eps, N): each distinct line is printed once, in the order
    # first seen
    name = "cli_west_trace_probe"
    spec = dataclasses.replace(
        builtin_problem("example1"), name=name,
        q_edges=(lambda y: 1.0, lambda x: 0.0, lambda y: 0.0, lambda x: 0.0))
    every = [w for s in (spec.with_epsilon(0.2), spec.with_epsilon(1e-3))
             for N in (16, 32)
             for w in cli.validate(s, build_tensor_mesh(s, N))]
    try:
        register_problem(name, lambda: spec)
        rc = main(["verify", "--problem", name,
                   "--epsilon", "0.2", "--epsilon", "1e-3"])
    finally:
        _REGISTRY.pop(name, None)
    assert rc == EXIT_INCOMPLETE
    distinct = list(dict.fromkeys(every))
    assert len(every) == 12 and len(distinct) == 6
    assert sum("classical regime" in w for w in distinct) == 4
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {w}" for w in distinct]


def test_verify_prints_each_error_once(capsys, monkeypatch):
    # b = NaN fails alike for both eps: each mesh size's line once
    name = "cli_nan_b_twice_probe"
    monkeypatch.setattr(cli, "solve_direct", must_not_run)
    try:
        register_problem(name, lambda: dataclasses.replace(
            builtin_problem("example1"), name=name,
            b_field=lambda x, y: np.full(np.shape(x), np.nan)))
        rc = main(["verify", "--problem", name,
                   "--epsilon", "1e-1", "--epsilon", "1e-3"])
    finally:
        _REGISTRY.pop(name, None)
    assert rc == EXIT_CONFIG
    errors_printed = [line for line in capsys.readouterr().err.splitlines()
                      if line.startswith("error: ")]
    assert errors_printed == ["error: b is not finite at 289 mesh points",
                              "error: b is not finite at 1089 mesh points"]


def test_close_epsilons_get_distinct_labels(tmp_path, capsys):
    # 1e-3 and 1.0000001e-3 share the .1e and :g texts
    close = ["--epsilon", "1e-3", "--epsilon", "1.0000001e-3"]
    assert main(["verify"] + close) == EXIT_INCOMPLETE
    out = capsys.readouterr().out
    for eps in ("0.001", "0.0010000001"):
        assert out.count(f"stability bound at eps={eps}:") == 1
    assert main(["sweep", "--N", "8", "--out-dir", str(tmp_path)]
                + close) == EXIT_OK
    text = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in text[1:3]] == ["0.001",
                                                       "0.0010000001"]
    csv = (tmp_path / "table_example1_transformed_bisect.csv").read_text()
    assert [line.split(",")[0] for line in csv.splitlines()[1:3]] == [
        "0.001", "0.0010000001"]


@pytest.mark.parametrize("config", ["table1.ini", "table2.ini"])
def test_desk_table_epsilons_keep_short_labels(config):
    path = Path(__file__).resolve().parents[1] / "configs" / config
    epsilons = cli._read_config(path.read_text())["epsilons"]
    table = analysis.ConvergenceTable(epsilons, [32],
                                      np.ones((len(epsilons), 1)))
    buf = io.StringIO()
    analysis.write_table_csv(table, buf)
    assert [line.split(",")[0] for line in buf.getvalue().splitlines()[1:-2]
            ] == ["1.0e-01", "1.0e-02", "1.0e-03", "1.0e-04", "1.0e-05",
                  "1.0e-06"]


def test_verify_rejects_n(capsys, monkeypatch):
    monkeypatch.setattr(cli, "solve_direct", must_not_run)
    rc = main(["verify", "--epsilon", "1e-3", "--N", "64"])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: verify checks "
                                              "the fixed meshes N = 16 and 32")


def test_verify_solver_failure_exit(capsys, monkeypatch):
    def singular(system):
        raise SingularMatrix("factorization broke down")

    monkeypatch.setattr(cli, "solve_direct", singular)
    rc = main(["verify", "--epsilon", "1e-3"])
    assert rc == EXIT_SOLVER
    assert capsys.readouterr().err == (
        "solver failure: factorization broke down\n")


def test_verify_fails_singular_inverse(capsys, monkeypatch):
    # a singular matrix has no inverse to be positive: its NaN minimum
    # entry is a failed check, not a pass
    def check_with_repeated_row(system):
        matrix = system.matrix.tolil()
        matrix[20] = matrix[10]
        return m_matrix_check(dataclasses.replace(system,
                                                  matrix=matrix.tocsr()))

    monkeypatch.setattr(cli, "m_matrix_check", check_with_repeated_row)
    assert main(["verify", "--epsilon", "1e-1"]) == EXIT_INCOMPLETE
    out = capsys.readouterr().out
    assert ("FAIL  inverse positivity (N=16) at eps=0.1: "
            "min inverse entry nan\n") in out


def test_verify_names_ignored_settings(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nepsilons = 1e-3\nns = 64\n"
                   "double_mesh = regenerate\nout_dir = elsewhere\n")
    rc = main(["verify", "--config", str(ini), "--workers", "2"])
    assert rc == EXIT_INCOMPLETE
    assert capsys.readouterr().err == (
        "warning: verify ignores ns, double_mesh, workers, out_dir\n")
    ini.write_text("[run]\nepsilons = 1e-3\nvariant = raw\n")
    assert main(["verify", "--config", str(ini)]) == EXIT_INCOMPLETE
    assert capsys.readouterr().err == ""


def assert_same_outputs(one: Path, other: Path):
    """The two directories hold the same files; their JSON is equal apart
    from the run's timings, every other file byte for byte."""
    names = sorted(p.name for p in one.iterdir())
    assert names and names == sorted(p.name for p in other.iterdir())
    for name in names:
        if name.endswith(".json"):
            a, b = (json.loads((d / name).read_text()) for d in (one, other))
            for meta in (a, b):
                del meta["timings"], meta["wall_time"]
            assert a == b
        else:
            assert (one / name).read_bytes() == (other / name).read_bytes()


def test_config_values_are_taken_literally(tmp_path, capsys):
    # no '%' interpolation in the file: a path holding a bare '%' or a
    # '%(problem)s' names the directory the flag names
    args = ["solve", "--epsilon", "1e-3", "--N", "16"]
    ini = tmp_path / "run.ini"
    for name in ("out50%", "%(problem)s"):
        by_flag, by_file = tmp_path / "flag" / name, tmp_path / "file" / name
        assert main(args + ["--out-dir", str(by_flag)]) == EXIT_OK
        ini.write_text(f"[run]\nout_dir = {by_file}\n")
        assert main(args + ["--config", str(ini)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert_same_outputs(by_flag, by_file)


def test_solve_names_ignored_settings(tmp_path, capsys):
    args = ["solve", "--epsilon", "1e-3", "--N", "16"]
    plain, flagged = tmp_path / "plain", tmp_path / "flagged"
    assert main(args + ["--out-dir", str(plain)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert main(args + ["--out-dir", str(flagged), "--workers", "2",
                        "--double-mesh", "regenerate"]) == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: solve ignores double_mesh, workers\n")
    assert_same_outputs(plain, flagged)
    # sweep uses both settings
    assert main(["sweep", "--epsilon", "1e-2", "--N", "8", "--workers", "2",
                 "--double-mesh", "regenerate",
                 "--out-dir", str(tmp_path / "sweep")]) == EXIT_OK
    assert "ignores" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit status


# The reaction to each error type: the user's input is at fault (status 2)
# or the solver is (status 3).  A new type fails the test below until it is
# placed here.
_EXIT_STATUS = {MalformedSpec: EXIT_CONFIG, GeometryError: EXIT_CONFIG,
                CD2DError: EXIT_SOLVER, SingularMatrix: EXIT_SOLVER,
                MeshMismatch: EXIT_SOLVER}
_ERROR_TYPES = sorted((value for value in vars(errors).values()
                       if isinstance(value, type)
                       and issubclass(value, CD2DError)
                       and value.__module__ == errors.__name__),
                      key=lambda value: value.__name__)


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("error", _ERROR_TYPES, ids=lambda e: e.__name__)
def test_exit_status_follows_error_type(tmp_path, capsys, monkeypatch,
                                        command, error):
    def failing_solve(system):
        raise error("injected")

    monkeypatch.setattr(analysis, "solve_direct", failing_solve)
    monkeypatch.setattr(cli, "solve_direct", failing_solve)
    args = [command, "--epsilon", "1e-3"]
    if command == "solve":
        args += ["--N", "16", "--out-dir", str(tmp_path)]
    rc = main(args)
    err = capsys.readouterr().err
    assert rc == _EXIT_STATUS[error]
    assert err == ("error: injected\n" if rc == EXIT_CONFIG
                   else "solver failure: injected\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("message, line", [
    ("", "solver failure: MemoryError\n"),
    ("Unable to allocate 235. MiB",
     "solver failure: MemoryError: Unable to allocate 235. MiB\n")],
    ids=["bare", "message"])
def test_memory_error_is_a_solver_failure(tmp_path, capsys, monkeypatch,
                                          command, message, line):
    # running out of memory is contained as in a sweep cell: one named
    # line, status 3, no output file
    def failing_assembly(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "assemble_system", failing_assembly)
    args = [command, "--epsilon", "1e-3"]
    if command == "solve":
        args += ["--N", "16", "--out-dir", str(tmp_path)]
    assert main(args) == EXIT_SOLVER
    assert capsys.readouterr().err == line
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_unresolvable_epsilon_exits_before_any_solve(tmp_path, capsys,
                                                     monkeypatch, command):
    # eps = 1e-12 is below what a fitted mesh resolves: a GeometryError in
    # the input, status 2 before any solve
    monkeypatch.setattr(analysis, "solve_direct", must_not_run)
    monkeypatch.setattr(cli, "solve_direct", must_not_run)
    args = [command, "--epsilon", "1e-12"]
    if command == "solve":
        args += ["--N", "16", "--out-dir", str(tmp_path)]
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: eps = 1e-12 is below "), err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# stability bound of an assembled system, read by verify


def test_stability_bound_values(ex1, ex2):
    tm1 = build_tensor_mesh(ex1, 16)
    assert assemble_system(ex1, tm1).bound == pytest.approx(0.3)
    tm2 = build_tensor_mesh(ex2, 16)
    # max f = 1 + x + y = 3 at the northeast corner, alpha = 2
    assert assemble_system(ex2, tm2).bound == pytest.approx(1.5)


def test_stability_bound_includes_traces(ex1):
    spec = dataclasses.replace(
        ex1, q_edges=(lambda y: 0.25, lambda x: 0.0,
                      lambda y: 0.0, lambda x: 0.0))
    tm = build_tensor_mesh(spec, 16)
    assert assemble_system(spec, tm).bound == pytest.approx(0.55)
