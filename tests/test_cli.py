import dataclasses
import json
import math

import numpy as np
import pytest

from cd2d import analysis, mesh as mesh_mod
from cd2d.cli import (
    EXIT_CONFIG,
    EXIT_INCOMPLETE,
    EXIT_OK,
    DESK_N_CAP,
    FULL_EPSILONS,
    FULL_NS,
    RunConfig,
    _merge_config,
    build_parser,
    main,
    parse_config,
    stability_bound,
)
from cd2d.errors import CD2DError
from cd2d.mesh import build_tensor_mesh
from cd2d.problems import _REGISTRY, builtin_problem, register_problem


# ---------------------------------------------------------------------------
# configuration handling


def test_run_config_defaults():
    cfg = RunConfig()
    assert cfg.problem == "Example1"
    assert cfg.epsilons == FULL_EPSILONS
    assert cfg.Ns == FULL_NS
    assert cfg.workers == 1 and not cfg.desk


def test_run_config_desk_caps_ns():
    cfg = RunConfig(desk=True)
    assert cfg.Ns == [n for n in FULL_NS if n <= DESK_N_CAP]
    assert 512 not in cfg.Ns


def test_parse_config_full():
    cfg = parse_config(
        "[run]\n"
        "problem = Example2\n"
        "epsilons = 1e-1, 1e-3\n"
        "ns = 16 32\n"
        "variant = raw\n"
        "double_mesh = regenerate\n"
        "workers = 3\n"
        "desk = yes\n"
        "alpha = 4.0\n")
    assert cfg.problem == "Example2"
    assert cfg.epsilons == [1e-1, 1e-3]
    assert cfg.Ns == [16, 32]
    assert cfg.variant.value == "raw"
    assert cfg.double_mesh.value == "regenerate"
    assert cfg.workers == 3
    assert cfg.desk
    assert cfg.alpha == 4.0 and cfg.beta is None


def test_parse_config_requires_run_section():
    with pytest.raises(CD2DError):
        parse_config("[other]\nproblem = Example1\n")


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


def test_desk_cap_applies_after_merging(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\ndesk = true\n")
    args = build_parser().parse_args(
        ["sweep", "--config", str(ini), "--N", "16", "--N", "512"])
    assert _merge_config(args).Ns == [16]
    ini.write_text("[run]\nns = 16 512\n")
    args = build_parser().parse_args(
        ["sweep", "--config", str(ini), "--desk"])
    assert _merge_config(args).Ns == [16]


def test_missing_config_file_is_config_error(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.ini")])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def must_not_run(*args, **kwargs):
    raise AssertionError("mesh or LU work before the output directory")


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
    rc = main(["solve", "--problem", "Example2", "--epsilon", "1e-2",
               "--N", "16", "--alpha", "4", "--out-dir", str(tmp_path)])
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


def test_sweep_empty_epsilons_config_error(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nepsilons =\nns = 8\n")
    rc = main(["sweep", "--config", str(ini)])
    assert rc == EXIT_CONFIG
    assert "at least one" in capsys.readouterr().err


def test_sweep_bad_n_config_error(capsys):
    rc = main(["sweep", "--epsilon", "1e-2", "--N", "20"])
    assert rc == EXIT_CONFIG


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


# ---------------------------------------------------------------------------
# stability bound helper


def test_stability_bound_values(ex1, ex2):
    tm1 = build_tensor_mesh(ex1, 16)
    assert stability_bound(ex1, tm1) == pytest.approx(0.3)
    tm2 = build_tensor_mesh(ex2, 16)
    # max f = 1 + x + y = 3 at the northeast corner, alpha = 2
    assert stability_bound(ex2, tm2) == pytest.approx(1.5)


def test_stability_bound_includes_traces(ex1):
    spec = dataclasses.replace(
        ex1, q_edges=(lambda y: 0.25, lambda x: 0.0,
                      lambda y: 0.0, lambda x: 0.0))
    tm = build_tensor_mesh(spec, 16)
    assert stability_bound(spec, tm) == pytest.approx(0.55)
