from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import yaml

from jacobispec import cli, config
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
    assert "sufficient-condition-met" in report


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


def test_report_embeds_resolved_overrides(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path, "scan.yaml",
        {
            "model": FREE1,
            "task": "scan",
            "params": {"x_grid": [0.0], "l_grid": [64, 128], "slope_threshold": 0.31},
            "output": {"dir": str(out)},
        },
    )
    assert cli.main(["run", str(cfg)]) == 0
    report = (out / "report.txt").read_text()
    assert "slope_threshold: 0.31" in report
    assert "tau_rel: 0.001" in report  # untouched default is embedded too


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
])
def test_malformed_config_is_one_line_config_error(tmp_path, capsys, model, task, params, seed):
    cfg = write_config(
        tmp_path, "bad.yaml",
        {"model": model, "task": task, "params": params, "seed": seed,
         "output": {"dir": str(tmp_path / "out")}},
    )
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
    assert "window: 100" in report
    assert "n_random_phases: 2" in report
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


def test_scan_band_edges_use_configured_eps(tmp_path, monkeypatch):
    from jacobispec import classify

    seen = []
    original = classify.floquet_band_edges

    def spy(*args, **kwargs):
        seen.append(kwargs.get("eps"))
        return original(*args, **kwargs)

    monkeypatch.setattr(classify, "floquet_band_edges", spy)
    cfg = write_config(
        tmp_path, "scan.yaml",
        {
            "model": FREE1,
            "task": "scan",
            "params": {"x_grid": [0.0, 1.0], "l_grid": [64, 128], "with_rank": False,
                       "floquet_eps": 1e-7},
            "output": {"dir": str(tmp_path / "out")},
        },
    )
    assert cli.main(["run", str(cfg)]) == 0
    assert seen == [1e-7]


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
