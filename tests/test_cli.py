from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml

from jacobispec import cli, config, models
from jacobispec.classify import ScanRecord


def _parsed(path, loader):
    try:
        with open(path, encoding="utf-8") as fh:
            return yaml.load(fh, Loader=loader)
    except yaml.YAMLError as exc:
        return type(exc)


@pytest.fixture(autouse=True)
def yaml_io_matches_pure_python(monkeypatch):
    """Every config a test runs parses to the same data under the loader
    ``load_config`` uses as under PyYAML's pure-Python ``SafeLoader``, and
    every report embeds the config byte for byte as ``yaml.safe_dump`` would."""
    load, write = config.load_config, cli._write_report

    def checked_load(path):
        if Path(path).exists():
            assert _parsed(path, config.YAML_LOADER) == _parsed(path, yaml.SafeLoader)
        return load(path)

    def checked_write(path, cfg, body):
        write(path, cfg, body)
        dump = yaml.safe_dump(asdict(cfg), sort_keys=True, default_flow_style=None).rstrip()
        head = "jacobispec report\n=================\n\nresolved config:\n"
        assert Path(path).read_text(encoding="utf-8").startswith(f"{head}{dump}\n\n")

    monkeypatch.setattr(config, "load_config", checked_load)
    monkeypatch.setattr(cli, "_write_report", checked_write)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return path


FREE1 = {"kind": "free", "dim": 1}
GOLDEN_AMO = {
    "kind": "dynamical",
    "alpha": [0.6180339887498949],
    "omega": [0.0],
    "f_d": {"kind": "constant", "matrix": [[1.0]]},
    "f_v": {
        "kind": "cosine",
        "constant": [[0.0]],
        "terms": [{"freq": [1], "amplitude": [[0.5]], "phase": 0.0}],
    },
}


def test_validate_task_reports_extremes(tmp_path):
    cfg = write_config(
        tmp_path, "v.yaml",
        {"model": FREE1, "task": "validate", "output": {"dir": str(tmp_path / "out")}},
    )
    assert cli.main(["run", str(cfg)]) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "min s_l[D] = 1" in report
    assert "passed = True" in report


@pytest.mark.parametrize("alpha, quotients", [
    (0.6180339887498949, "[0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]"),
    (1.0e-300, "[0]"),  # its denominator 2^1049 is beyond float range
], ids=["golden", "tiny"])
def test_validate_reports_rotation_number_probe(tmp_path, alpha, quotients):
    cfg = write_config(
        tmp_path, "v.yaml",
        {"model": dict(GOLDEN_AMO, alpha=[alpha]), "task": "validate",
         "output": {"dir": str(tmp_path / "out")}},
    )
    assert cli.main(["validate", str(cfg)]) == 0
    probe = [line for line in (tmp_path / "out" / "report.txt").read_text().splitlines()
             if line.startswith("rotation-number probe: ")]
    assert probe == [f"rotation-number probe: {{0: {{'terminates_within_depth': "
                     f"{quotients == '[0]'}, 'partial_quotients': {quotients}}}}}"]


def test_validate_failure_exit_code(tmp_path):
    bad = {
        "kind": "explicit",
        "extension": "wrap",
        "pairs": [[[[1.0]], [[0.0]]], [[[0.0]], [[0.0]]]],
    }
    cfg = write_config(
        tmp_path, "bad.yaml",
        {"model": bad, "task": "validate", "output": {"dir": str(tmp_path / "out")}},
    )
    assert cli.main(["run", str(cfg)]) == 3


@pytest.mark.parametrize("task, params", [
    ("validate", {}),
    ("scan", {"x_grid": [0.0, 1.5], "l_grid": [64, 128], "with_rank": False}),
    ("jl-sweep", {"n_points": 2}),
    ("probe", {"x": 0.3, "y": 0.1}),
])
def test_model_that_invert_rejects_fails_validation_in_every_task(tmp_path, capsys, task, params):
    # s_l / s_1 = 1e-13: singular for matblock.invert, so every task stops at validation
    model = {"kind": "periodic", "ds": [[[1.0e6, 0.0], [0.0, 1.0e-7]]], "vs": [[[0.0, 0.0], [0.0, 1.0]]]}
    cfg = write_config(tmp_path, "c.yaml", {"model": model, "task": task, "params": params,
                                            "output": {"dir": str(tmp_path / "out")}})
    assert cli.main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("model validation failed: ")


def test_tiny_well_conditioned_d_validates_and_scans(tmp_path):
    # D = 1e-13 I is far below 1 but perfectly conditioned: the hypotheses hold
    model = {"kind": "periodic", "ds": [[[1.0e-13, 0.0], [0.0, 1.0e-13]]], "vs": [[[0.0, 0.0], [0.0, 1.0]]]}
    for task, params in (("validate", {}), ("scan", {"x_grid": [-1.0, 0.5, 2.0], "l_grid": [64, 128]})):
        out = tmp_path / task
        cfg = write_config(tmp_path, f"{task}.yaml", {"model": model, "task": task, "params": params,
                                                     "output": {"dir": str(out)}})
        assert cli.main(["run", str(cfg)]) == 0
    rows = (tmp_path / "scan" / "scan.csv").read_text().splitlines()[1:]
    assert len(rows) == 3 and not any(row.endswith(",error") for row in rows)


def test_schema_error_exit_code(tmp_path):
    cfg = write_config(
        tmp_path, "s.yaml",
        {"model": FREE1, "task": "scan", "params": {"x_gird": [0.0]}},
    )
    assert cli.main(["run", str(cfg)]) == 2
    cfg2 = write_config(tmp_path, "s2.yaml", {"model": FREE1, "task": "fly"})
    assert cli.main(["run", str(cfg2)]) == 2
    assert cli.main(["run", str(tmp_path / "missing.yaml")]) == 2


def test_probe_matches_closed_form(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "p.yaml",
        {
            "model": FREE1,
            "task": "probe",
            "params": {"x": 0.3, "y": 0.05},
            "output": {"dir": str(out)},
        },
    )
    assert cli.main(["run", str(cfg)]) == 0
    lines = (out / "probe.csv").read_text().strip().splitlines()
    assert lines[0].startswith("x,y,method,depth,m_re_11,m_im_11")
    z = 0.3 + 0.05j
    r = np.sqrt(z * z - 4)
    exact = (-z + r) / 2 if ((-z + r) / 2).imag > 0 else (-z - r) / 2
    for line in lines[1:]:
        parts = line.split(",")
        got = complex(float(parts[4]), float(parts[5]))
        assert abs(got - exact) <= 1e-8


def test_scan_free_grid_multiplicities(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "scan.yaml",
        {
            "model": FREE1,
            "task": "scan",
            "params": {"x_grid": [-3.0, 0.0, 3.0], "l_grid": [256, 512, 1024, 2048]},
            "output": {"dir": str(out)},
        },
    )
    assert cli.main(["run", str(cfg)]) == 0
    lines = (out / "scan.csv").read_text().strip().splitlines()
    assert lines[0] == "x,r_ces,slope_r1,r_rank,trace_growth,r_flo,flags"
    mult = [int(line.split(",")[1]) for line in lines[1:]]
    assert mult == [0, 1, 0]
    ranks = [int(line.split(",")[3]) for line in lines[1:]]
    assert ranks == [0, 1, 0]


def test_csv_determinism_and_roundtrip(tmp_path):
    payload = {
        "model": {"kind": "periodic", "ds": [[[1.0, 0.0], [0.0, 1.0]]],
                  "vs": [[[0.0, 0.0], [0.0, 1.0]]]},
        "task": "scan",
        "params": {
            "x_grid": {"start": -2.5, "stop": 2.5, "count": 9},
            "l_grid": [256, 512, 1024],
            "with_rank": False,
        },
        "seed": 7,
    }
    cfg1 = write_config(tmp_path, "a.yaml", dict(payload, output={"dir": str(tmp_path / "o1")}))
    cfg2 = write_config(tmp_path, "b.yaml", dict(payload, output={"dir": str(tmp_path / "o2")}))
    assert cli.main(["run", str(cfg1)]) == 0
    assert cli.main(["run", str(cfg1)]) == 0  # rerun over itself
    assert cli.main(["run", str(cfg2)]) == 0
    b1 = (tmp_path / "o1" / "scan.csv").read_bytes()
    b2 = (tmp_path / "o2" / "scan.csv").read_bytes()
    assert b1 == b2
    # round-trip: parsed rows reproduce the formatted values bit-for-bit
    lines = b1.decode().strip().splitlines()
    for line in lines[1:]:
        parts = line.split(",")
        assert cli._fmt(float(parts[0])) == parts[0]
        assert cli._fmt(float(parts[2])) == parts[2]


def test_emit_csv_empty_and_single(tmp_path):
    path = tmp_path / "empty.csv"
    cli.emit_csv([], path, dim=2)
    assert path.read_text() == "x,r_ces,slope_r1,slope_r2,r_rank,trace_growth,r_flo,flags\n"
    rec = ScanRecord(
        x=0.5, r_ces=2, slopes=(0.01, 0.02), low_confidence=False,
        r_rank=2, trace_growth=0.0, r_flo=2, flags=["ces=flo"],
    )
    path2 = tmp_path / "one.csv"
    cli.emit_csv([rec], path2, dim=2)
    lines = path2.read_text().strip().splitlines()
    assert len(lines) == 2
    parts = lines[1].split(",")
    assert float(parts[0]) == 0.5
    assert parts[-1] == "ces=flo"


def test_jl_sweep_task(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "jl.yaml",
        {
            "model": FREE1,
            "task": "jl-sweep",
            "params": {"n_points": 5, "x_range": [-2.0, 2.0], "y_range": [0.05, 1.0]},
            "output": {"dir": str(out)},
            "seed": 3,
        },
    )
    assert cli.main(["run", str(cfg)]) == 0
    lines = (out / "jl_sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 6
    verdicts = [line.split(",")[10] for line in lines[1:]]
    assert all(v == "true" for v in verdicts)
    assert "5/5 points satisfied" in (out / "report.txt").read_text()


def test_constancy_task_with_explicit_phases(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "c.yaml",
        {
            "model": GOLDEN_AMO,
            "task": "constancy",
            "params": {
                "x_grid": {"start": -2.4, "stop": 2.4, "count": 7},
                "l_grid": [256, 512, 1024],
                "phases": [[0.2], [0.7]],
            },
            "output": {"dir": str(out)},
        },
    )
    assert cli.main(["run", str(cfg)]) == 0
    lines = (out / "constancy.csv").read_text().strip().splitlines()
    assert lines[0] == (
        "x,r_plus_p0,r_minus_p0,mult_p0,determinate_p0,"
        "r_plus_p1,r_minus_p1,mult_p1,determinate_p1"
    )
    assert len(lines) == 8
    assert "agreement" in (out / "report.txt").read_text()


@pytest.mark.parametrize("task", ["scan", "constancy"])
def test_empty_grid_writes_header_only_csv(tmp_path, task):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "empty.yaml",
        {
            "model": GOLDEN_AMO,
            "task": task,
            "params": {"x_grid": [], "l_grid": [64, 128]},
            "output": {"dir": str(out)},
        },
    )
    assert cli.main(["run", str(cfg)]) == 0
    lines = (out / f"{task}.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("x,")


def test_out_flag_overrides_dir(tmp_path):
    cfg = write_config(
        tmp_path, "v.yaml",
        {"model": FREE1, "task": "validate", "output": {"dir": str(tmp_path / "ignored")}},
    )
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "cli_out")]) == 0
    assert (tmp_path / "cli_out" / "report.txt").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_threads_flag_is_a_usage_error(tmp_path, capsys, command):
    cfg = write_config(
        tmp_path, "v.yaml",
        {"model": FREE1, "task": "validate", "output": {"dir": str(tmp_path / "out")}},
    )
    with pytest.raises(SystemExit) as exc:
        cli.main([command, str(cfg), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_subcommand_forces_task(tmp_path):
    cfg = write_config(
        tmp_path, "scan.yaml",
        {
            "model": FREE1,
            "task": "scan",
            "params": {"x_grid": [0.0], "l_grid": [64, 128]},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert cli.main(["validate", str(cfg)]) == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "min s_l[D] = 1" in report
    assert not (tmp_path / "out" / "scan.csv").exists()


def test_convergence_failure_exit_code(tmp_path, monkeypatch):
    from jacobispec import weyl as weyl_mod
    from jacobispec.errors import ConvergenceError

    def explode(*a, **k):
        raise ConvergenceError("forced", last_delta=1.0, depth=2)

    monkeypatch.setattr(weyl_mod, "m_riccati", explode)
    cfg = write_config(
        tmp_path, "p.yaml",
        {"model": FREE1, "task": "probe", "params": {"x": 0.0, "y": 0.1},
         "output": {"dir": str(tmp_path / "out")}},
    )
    assert cli.main(["run", str(cfg)]) == 4


def test_jl_sweep_with_cutoff_target_out_of_float_range_is_one_error_line(tmp_path, capsys):
    # 2 y ||D0^-1||_F overflows for every y of the range: an InvalidInputError
    # before any track, with no numpy warning on the way
    cfg = write_config(
        tmp_path, "jl.yaml",
        {"model": FREE1, "task": "jl-sweep", "params": {"n_points": 3, "y_range": [1.0e308, 1.5e308]},
         "output": {"dir": str(tmp_path / "out")}},
    )
    assert cli.run_config(cfg) == 1
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cutoff target")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x, y", [(0.3, 1e8), (1e30, 0.1)])
def test_jl_sweep_rows_with_an_unresolved_cutoff_have_no_verdict(tmp_path, x, y):
    # the cutoff solver leaves a residual of 1.0 at these points: each row
    # reads cutoff-unresolved with no verdict and no bounds, and the run exits 0
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "jl.yaml",
        {"model": FREE1, "task": "jl-sweep",
         "params": {"n_points": 3, "x_range": [x, x], "y_range": [y, y]}, "output": {"dir": str(out)}},
    )
    assert cli.run_config(cfg) == 0
    lines = (out / "jl_sweep.csv").read_text().strip().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert len(rows) == 3
    for row in rows:
        assert row["status"] == "cutoff-unresolved"
        assert row["verdict"] == row["lower"] == row["upper"] == ""
    assert ("bound sweep: 0/3 points satisfied both bounds "
            "(3 without a verdict; cutoff-unresolved: 3)") in (out / "report.txt").read_text()


def test_report_embeds_resolved_overrides(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "scan.yaml",
        {
            "model": FREE1,
            "task": "scan",
            "params": {"x_grid": [0.0], "l_grid": [64, 128], "with_rank": False},
            "output": {"dir": str(out)},
        },
    )
    assert cli.main(["run", str(cfg)]) == 0
    report = (out / "report.txt").read_text()
    assert "with_rank: false" in report
    assert "with_floquet: true" in report  # untouched default is embedded too


def test_scan_csv_reparse_matches_records(tmp_path):
    from jacobispec import classify, models

    spec = models.free_model(1)
    params = classify.ScanParams(l_grid=(256, 512, 1024), with_rank=False)
    records = classify.scan_energy_grid(spec, [-2.2, 0.1, 2.2], params)
    path = tmp_path / "again.csv"
    cli.emit_csv(records, path, dim=1)
    lines = path.read_text().strip().splitlines()[1:]
    for rec, line in zip(records, lines):
        parts = line.split(",")
        assert float(parts[0]) == rec.x  # 17 digits round-trip doubles exactly
        assert int(parts[1]) == rec.r_ces
        assert float(parts[2]) == rec.slopes[0]
        assert parts[3] == ""  # rank disabled -> empty column
        assert parts[5] == str(rec.r_flo)


def test_scan_without_grid_is_config_error(tmp_path):
    cfg = write_config(
        tmp_path, "nogrid.yaml",
        {"model": FREE1, "task": "scan", "output": {"dir": str(tmp_path / "out")}},
    )
    assert cli.main(["run", str(cfg)]) == 2


def test_scan_with_error_rows_exits_nonzero(tmp_path, monkeypatch):
    from jacobispec import classify
    from jacobispec.errors import ConvergenceError

    original = classify.cesaro_profiles_grid

    def sabotaged(spec, xs, l_grid):
        if np.any(np.isclose(xs, 0.5)):
            raise ConvergenceError("synthetic failure")
        return original(spec, xs, l_grid)

    monkeypatch.setattr(classify, "cesaro_profiles_grid", sabotaged)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "scan.yaml",
        {
            "model": FREE1,
            "task": "scan",
            "params": {"x_grid": [0.0, 0.5, 1.0], "l_grid": [64, 128], "with_rank": False},
            "output": {"dir": str(out)},
        },
    )
    assert cli.main(["run", str(cfg)]) == cli.EXIT_ROWS_FAILED == 5
    rows = (out / "scan.csv").read_text().strip().splitlines()[1:]
    assert [row.endswith("error") for row in rows] == [False, True, False]
    assert "error rows: 1 (ConvergenceError: 1)" in (out / "report.txt").read_text()


DIAG01 = {"kind": "periodic", "ds": [[[1.0, 0.0], [0.0, 1.0]]], "vs": [[[0.0, 0.0], [0.0, 1.0]]]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scan_energy_beyond_float_range_costs_one_row(tmp_path):
    # the blocks at x = 1e200 leave float range within 8 steps: the scan
    # writes one TrackOverflowError row, lets no numpy warning out, and
    # writes every other row as the scan without that energy does
    xs = [-1.0, 0.5, 1.0e200, 2.5]
    rows, reports = {}, {}
    for name, grid in (("poisoned", xs), ("clean", xs[:2] + xs[3:])):
        out = tmp_path / name
        cfg = write_config(tmp_path, f"{name}.yaml", {
            "model": DIAG01, "task": "scan", "output": {"dir": str(out)},
            "params": {"x_grid": grid, "l_grid": [256, 512, 1024]},
        })
        code = cli.run_config(cfg)
        assert code == (cli.EXIT_ROWS_FAILED if name == "poisoned" else cli.EXIT_OK)
        rows[name] = (out / "scan.csv").read_text().strip().splitlines()
        reports[name] = (out / "report.txt").read_text()
    assert "error rows: 1 (TrackOverflowError: 1)" in reports["poisoned"]
    assert rows["poisoned"][3].endswith(",error")
    assert rows["poisoned"][:3] + rows["poisoned"][4:] == rows["clean"]


GOLDEN_AMO = {
    "kind": "dynamical",
    "alpha": [0.6180339887498949],
    "omega": [0.0],
    "f_d": {"kind": "constant", "matrix": [[1.0]]},
    "f_v": {
        "kind": "cosine",
        "constant": [[0.0]],
        "terms": [{"freq": [1], "amplitude": [[0.5]], "phase": 0.0}],
    },
}
PERIODIC1 = {"kind": "periodic", "ds": [[[1.0]]], "vs": [[[0.0]]]}
ABSENT = object()  # a config section left out


@pytest.mark.parametrize("model, task, params, seed", [
    ({"kind": "periodic"}, "validate", {}, 0),
    ({"kind": "free", "dim": 0}, "validate", {}, 0),
    (dict(GOLDEN_AMO, f_d={"kind": "constant"}), "validate", {}, 0),
    ({"kind": "explicit", "pairs": [[[[1.0]]]]}, "validate", {}, 0),
    ({"kind": "periodic", "ds": [[[1.0, 0.0], [0.0]]], "vs": [[[0.0]]]}, "validate", {}, 0),
    (dict(PERIODIC1, alpha=[0.1]), "validate", {}, 0),
    ({"kind": "reflected", "base": dict(PERIODIC1, bogus=1)}, "validate", {}, 0),
    ({"kind": "reflected", "base": {"kind": "periodic", "ds": [[[1.0]]]}}, "validate", {}, 0),
    (dict(GOLDEN_AMO, f_v={"kind": "cosine", "constant": [[0.0]], "terms": [{"freq": [1]}]}),
     "validate", {}, 0),
    (FREE1, "jl-sweep", {"x_range": [1.0]}, 0),
    (FREE1, "jl-sweep", {"n_points": "two"}, 0),
    (FREE1, "jl-sweep", {"m_tol": 1e-8}, 0),
    (FREE1, "validate", {}, "two"),
    (GOLDEN_AMO, "constancy", {"x_grid": [0.0], "y_ladder": [0.1, 0.01]}, 0),
    (FREE1, "scan", {"x_grid": [0.0], "with_rank": "yes"}, 0),
    (FREE1, "scan", {"x_grid": [0.0, 1.0], "l_grid": [64], "with_rank": False}, 0),
    (FREE1, "scan", {"x_grid": [0.0], "l_grid": [64, 128], "y_ladder": [0.01, 0.1]}, 0),
    (FREE1, "jl-sweep", {"x_range": [1.0, -1.0]}, 0),
    (FREE1, "jl-sweep", {"y_range": [0.5, 0.1]}, 0),
    (FREE1, "scan", {"x_grid": [0.0], "l_grid": [64, 128], "y_ladder": [0.1, 1e-9]}, 0),
    (FREE1, "probe", {"y": 0.0}, 0),
    (FREE1, "probe", {"y": 1e-9}, 0),
    (GOLDEN_AMO, "constancy", {"x_grid": [0.0], "phases": [[0.1]]}, 0),
    (GOLDEN_AMO, "constancy", {"x_grid": [0.0], "n_random_phases": 1}, 0),
    (PERIODIC1, "constancy", {"x_grid": [0.0]}, 0),
    (GOLDEN_AMO, "constancy", {"x_grid": [0.0], "phases": [[0.1, 0.2], [0.3, 0.4]]}, 0),
    (FREE1, "scan", {"x_grid": [0.0], "l_grid": [64, 128], "y_ladder": [0.1]}, 0),
    (FREE1, "scan", {"x_grid": [0.0], "l_grid": [64, 128], "y_ladder": [0.1, 0.01]}, 0),
    (FREE1, "jl-sweep", {"y_range": [float("nan"), 0.1]}, 0),
    (FREE1, "scan", {"x_grid": [0.5, float("nan"), float("inf")]}, 0),
    (FREE1, "jl-sweep", {"n_points": float("inf")}, 0),
    (FREE1, "jl-sweep", {"n_points": 2.7}, 0),
    (FREE1, "scan", {"x_grid": {"start": 0.0, "stop": 1.0, "count": 4.5}}, 0),
    (FREE1, "jl-sweep", {}, -1),
    (GOLDEN_AMO, "constancy", {"x_grid": [0.0]}, -1),
    # tolerances that are module constants, not parameters
    (FREE1, "scan", {"x_grid": [0.0], "tau_rel": 1e-3}, 0),
    (FREE1, "scan", {"x_grid": [0.0], "rank_tol": 1e-8}, 0),
    (FREE1, "scan", {"x_grid": [0.0], "floquet_eps": 1e-6}, 0),
    (FREE1, "scan", {"x_grid": [0.0], "edge_exclusion": 0.05}, 0),
    (FREE1, "probe", {"m_tol": 1e-10}, 0),
    # settings that are module constants, not parameters
    (FREE1, "validate", {"window": 100}, 0),
    (FREE1, "probe", {"window": 100}, 0),
    (FREE1, "jl-sweep", {"window": 100}, 0),
    (FREE1, "scan", {"x_grid": [0.0], "window": 100}, 0),
    (GOLDEN_AMO, "constancy", {"x_grid": [0.0], "window": 100}, 0),
    (FREE1, "scan", {"x_grid": [0.0], "slope_threshold": 0.2}, 0),
    (GOLDEN_AMO, "constancy", {"x_grid": [0.0], "slope_threshold": 0.2}, 0),
    (GOLDEN_AMO, "constancy", {"x_grid": [0.0], "n_random_phases": 2}, 0),
    # torus maps that do not fit the model's torus
    (dict(GOLDEN_AMO, f_v=dict(GOLDEN_AMO["f_v"], terms=[{"freq": [1, 1], "amplitude": [[0.5]]}])),
     "validate", {}, 0),
    (dict(GOLDEN_AMO, alpha=[0.6180339887498949, 0.4142135623730951], omega=[0.0, 0.0]),
     "validate", {}, 0),
    (dict(GOLDEN_AMO, alpha=[0.6180339887498949, 0.4142135623730951], omega=[0.0, 0.0],
          f_v={"kind": "arcs", "breaks": [0.5, 1.0], "matrices": [[[0.0]], [[1.0]]]}),
     "validate", {}, 0),
    # input checks of the config reader and the model constructors
    (FREE1, "validate", [1], 0),
    (ABSENT, "validate", {}, 0),
    (FREE1, ABSENT, {}, 0),
    (FREE1, "jl-sweep", {"x_range": []}, 0),
    (FREE1, "jl-sweep", {"n_points": 0}, 0),
    (FREE1, "jl-sweep", {"slack": 0.0}, 0),
    ({"kind": "periodic", "ds": [[[1.0, 2.0], [3.0, 1.0]]], "vs": [[[0.0, 0.0], [0.0, 0.0]]]},
     "validate", {}, 0),
    ({"kind": "banded"}, "validate", {}, 0),
    ({"kind": "explicit", "pairs": [[[[1.0]], [[0.0]]]], "extension": "mirror"}, "validate", {}, 0),
    ({"kind": "explicit", "pairs": []}, "validate", {}, 0),
    ({"kind": "periodic", "ds": [[[1.0]]], "vs": [[[0.0]], [[0.5]]]}, "validate", {}, 0),
    (dict(GOLDEN_AMO, omega=[0.0, 0.0]), "validate", {}, 0),
    (dict(GOLDEN_AMO, f_d={"kind": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]}),
     "validate", {}, 0),
    ({"kind": "periodic", "ds": [[[1.0, 0.0]]], "vs": [[[0.0, 0.0]]]}, "validate", {}, 0),
    # numbers of the model section and params, each read by models._number
    ({"kind": "free", "dim": 1.5}, "validate", {}, 0),
    ({"kind": "free", "dim": True}, "validate", {}, 0),
    (dict(GOLDEN_AMO, f_v=dict(GOLDEN_AMO["f_v"], terms=[{"freq": [1.5], "amplitude": [[0.5]]}])),
     "validate", {}, 0),
    (dict(GOLDEN_AMO, f_v=dict(GOLDEN_AMO["f_v"], terms=[{"freq": [True], "amplitude": [[0.5]]}])),
     "validate", {}, 0),
    (dict(GOLDEN_AMO, omega=[float("nan")]), "validate", {}, 0),
    (dict(GOLDEN_AMO, f_v=dict(GOLDEN_AMO["f_v"], terms=[
        {"freq": [1], "amplitude": [[0.5]], "phase": float("inf")}])), "validate", {}, 0),
    (dict(GOLDEN_AMO, f_v={"kind": "arcs", "breaks": [float("nan"), 1.0],
                           "matrices": [[[0.0]], [[1.0]]]}), "validate", {}, 0),
    (FREE1, "jl-sweep", {"n_points": True}, 0),
    (FREE1, "jl-sweep", {}, True),
    # every entry of a block, by the same number rule
    ({"kind": "periodic", "ds": [[[True]]], "vs": [[[0.0]]]}, "validate", {}, 0),
    ({"kind": "periodic", "ds": [[[1.0, True], [True, 1.0]]], "vs": [[[0.0, 0.0], [0.0, 0.0]]]},
     "validate", {}, 0),
    ({"kind": "explicit", "pairs": [[[[1.0]], [[False]]]]}, "validate", {}, 0),
    ({"kind": "explicit", "pairs": [[[[1.0]], [[0.0]]]], "left": [[[[True]], [[0.0]]]]},
     "validate", {}, 0),
    (dict(GOLDEN_AMO, f_d={"kind": "constant", "matrix": [[True]]}), "validate", {}, 0),
    (dict(GOLDEN_AMO, f_v=dict(GOLDEN_AMO["f_v"], constant=[[False]])), "validate", {}, 0),
    (dict(GOLDEN_AMO, f_v=dict(GOLDEN_AMO["f_v"], terms=[{"freq": [1], "amplitude": [[True]]}])),
     "validate", {}, 0),
    (dict(GOLDEN_AMO, f_v={"kind": "arcs", "breaks": [0.5, 1.0], "matrices": [[[0.0]], [[True]]]}),
     "validate", {}, 0),
], ids=[
    "periodic-without-ds", "free-dimension-zero", "constant-map-without-matrix", "pair-without-v", "ragged-block",
    "alpha-on-periodic", "unknown-key-in-reflected-base", "reflected-base-without-vs",
    "cosine-term-without-amplitude", "one-number-range", "n-points-not-a-number",
    "m-tol-in-jl-sweep", "seed-not-a-number", "y-ladder-in-constancy", "with-rank-not-a-bool",
    "one-cutoff-l-grid", "increasing-y-ladder", "decreasing-x-range", "decreasing-y-range",
    "y-ladder-below-min-im-z", "probe-on-real-axis", "probe-below-min-im-z", "one-phase",
    "one-random-phase", "constancy-on-periodic", "phases-of-wrong-dimension",
    "one-rung-y-ladder", "two-rung-y-ladder", "nan-in-y-range", "non-finite-x-grid",
    "infinite-n-points", "fractional-n-points", "fractional-x-grid-count",
    "negative-seed-jl-sweep", "negative-seed-constancy-drawn-phases",
    "tau-rel-in-scan", "rank-tol-in-scan", "floquet-eps-in-scan", "edge-exclusion-in-scan",
    "m-tol-in-probe", "window-in-validate", "window-in-probe", "window-in-jl-sweep",
    "window-in-scan", "window-in-constancy", "slope-threshold-in-scan",
    "slope-threshold-in-constancy", "n-random-phases-in-constancy",
    "cosine-freq-longer-than-torus", "cosine-freq-shorter-than-torus", "arcs-on-2d-torus",
    "params-not-a-mapping", "no-model-section", "no-task-section", "empty-x-range",
    "zero-n-points", "zero-slack", "non-symmetric-block", "unknown-model-kind",
    "unknown-extension", "explicit-without-pairs", "more-vs-than-ds",
    "omega-of-another-dimension", "f-d-and-f-v-of-unequal-size", "non-square-block",
    "fractional-dim", "bool-dim", "fractional-freq", "bool-freq", "nan-omega", "infinite-phase",
    "nan-arc-break", "bool-n-points", "bool-seed",
    "bool-block", "bool-in-float-block", "bool-explicit-v", "bool-left-d",
    "bool-constant-matrix", "bool-cosine-constant", "bool-cosine-amplitude", "bool-arc-block",
])
def test_malformed_config_is_one_line_config_error(tmp_path, capsys, model, task, params, seed):
    payload = {"model": model, "task": task, "params": params, "seed": seed,
               "output": {"dir": str(tmp_path / "out")}}
    cfg = write_config(tmp_path, "bad.yaml", {k: v for k, v in payload.items() if v is not ABSENT})
    assert cli.main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not (tmp_path / "out").exists()


def test_unparsable_yaml_is_one_line_config_error(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("model: [kind, free\ntask: validate\n", encoding="utf-8")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("config error: config is not valid YAML: ")
    assert not (tmp_path / "out").exists()


def test_config_root_that_is_not_a_mapping_is_one_line_config_error(tmp_path, capsys):
    path = tmp_path / "list.yaml"
    path.write_text("- model\n- task\n", encoding="utf-8")
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: config root must be a mapping"]
    assert not (tmp_path / "out").exists()


def test_scalar_blocks_are_one_by_one_blocks(tmp_path):
    # a number where a block goes is read as the 1 x 1 block
    cfg = write_config(tmp_path, "scalar.yaml", {
        "model": {"kind": "periodic", "ds": [1.0, 0.5], "vs": [0.0, 0.3]},
        "task": "validate", "output": {"dir": str(tmp_path / "out")},
    })
    assert cli.main(["run", str(cfg)]) == 0
    assert "min s_l[D] = 0.5\n" in (tmp_path / "out" / "report.txt").read_text()


def test_report_lists_resolved_defaults(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "c.yaml",
        {
            "model": GOLDEN_AMO,
            "task": "constancy",
            "params": {"x_grid": [-1.0, 0.5], "l_grid": [64, 128]},
            "output": {"dir": str(out)},
            "seed": 5,
        },
    )
    assert cli.main(["run", str(cfg)]) == 0
    report = (out / "report.txt").read_text()
    assert "phases: null" in report  # drawn from the seed
    assert "window" not in report and "n_random_phases" not in report  # constants
    assert "y_ladder" not in report  # constancy does not read it
    phases = report.rsplit("\nphases: ", 1)[-1]
    assert phases.startswith("[(0.") and "float64" not in phases
    # PyYAML reads 1e-3 (no dot) as a string; the report shows the number used
    path = tmp_path / "jl.yaml"
    path.write_text(
        "model: {kind: free, dim: 1}\ntask: jl-sweep\n"
        f"params: {{n_points: 2, slack: 1e-3}}\noutput: {{dir: {tmp_path / 'jl'}}}\n",
        encoding="utf-8",
    )
    assert cli.main(["run", str(path)]) == 0
    assert "slack: 0.001" in (tmp_path / "jl" / "report.txt").read_text()


def test_scan_rows_and_band_edges_read_floquet_eps(tmp_path, monkeypatch):
    from jacobispec import classify

    # a unit-circle tolerance of 0.5 counts the free chain's multipliers at
    # x = 2.1 (moduli 1.37 and 0.73) as open, and moves the edge inside
    # [-3, 2.1] from -2 to -13/6, where the larger modulus is 1.5
    monkeypatch.setattr(classify, "FLOQUET_EPS", 0.5)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "scan.yaml",
        {
            "model": FREE1,
            "task": "scan",
            "params": {"x_grid": [-3.0, 0.0, 2.1], "l_grid": [64, 128], "with_rank": False},
            "output": {"dir": str(out)},
        },
    )
    assert cli.main(["run", str(cfg)]) == 0
    rows = (out / "scan.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[-2] for row in rows] == ["0", "1", "1"]
    assert "\nband edges: -2.166667\n" in (out / "report.txt").read_text()


def test_scan_without_floquet_rows_skips_band_edges(tmp_path, monkeypatch):
    from jacobispec import classify

    calls = []
    monkeypatch.setattr(classify, "floquet_band_edges", lambda *args: calls.append(args))
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "scan.yaml",
        {
            "model": {"kind": "periodic", "ds": [[[1.0, 0.0], [0.0, 1.0]]],
                      "vs": [[[0.0, 0.0], [0.0, 1.0]]]},
            "task": "scan",
            "params": {"x_grid": [-1.5, 0.5], "l_grid": [64, 128], "with_rank": False,
                       "with_floquet": False},
            "output": {"dir": str(out)},
        },
    )
    assert cli.main(["run", str(cfg)]) == 0
    assert calls == []
    assert "band edges:" not in (out / "report.txt").read_text()


def test_readme_configuration_table_matches_task_params():
    import re

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    table = {task: {} for task in config.TASKS}
    for key, tasks, default in re.findall(r"^\| `(\w+)` \| (.*?) \| (.*?) \|$", section, flags=re.M):
        # a literal default is the cell's first code span; a parameter with none reads "none"
        value = None if default.startswith("none") else yaml.safe_load(re.match(r"`(.*?)`", default)[1])
        value = float(value) if isinstance(value, str) else value  # YAML reads 1e-9 as a string
        for task in config.TASKS if tasks == "every task" else re.findall(r"`([\w-]+)`", tasks):
            table[task][key] = value
    want = {task: {key: list(v) if isinstance(v, tuple) else v for key, v in params.items()}
            for task, params in config.TASK_PARAMS.items()}
    assert table == want


def test_readme_model_tables_match_the_schemas():
    import re

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Models\n", 1)[1].split("\n## ", 1)[0]
    tables = {}
    table_re = r"^\| (model|map) kind \|.*\n\|.*\n((?:\|.*\n)+)"
    row_re = r"^\| `(\w+)` \| (.*?) \| (.*?) \|$"
    for head, rows in re.findall(table_re, section, flags=re.M):
        table = tables[head] = {}
        for kind, required, optional in re.findall(row_re, rows, flags=re.M):
            # a cell's keys are its code spans outside parentheses; "none" has none
            table[kind] = tuple(tuple(re.findall(r"`(\w+)`", re.sub(r"\(.*?\)", "", cell)))
                                for cell in (required, optional))
    assert tables == {"model": models._MODEL_SCHEMA, "map": models._MAP_SCHEMA}


def test_readme_configs_parse():
    import re
    from pathlib import Path

    from jacobispec import config, models

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```yaml\n(.*?)```", readme, flags=re.S)
    assert len(blocks) >= 2
    for block in blocks:
        cfg = config.parse_config(yaml.safe_load(block))
        models.spec_from_config(cfg.model)


def test_readme_library_example_runs():
    import re

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"## Library example\n\n```python\n(.*?)```", readme, flags=re.S)
    names = {}
    exec(block, names)
    assert np.max(np.abs(names["m"].m - names["m2"].m)) <= 1e-9
    assert names["r"] == names["r_oracle"] == 2
    assert names["rep"].verdict is True
