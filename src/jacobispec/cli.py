"""Batch command-line front end.

    jacobispec run <config.yaml> [--out DIR]
    jacobispec validate <config.yaml> [--out DIR]

One config file per run; outputs are a task CSV plus report.txt with the
fully resolved configuration embedded for provenance. Each task reads its
parameters from ``RunConfig.params``, already checked, coerced and
defaulted from ``config.TASK_PARAMS``; the model section is checked by
``models.spec_from_config``. Every task validates the model over |n| <=
``models.VALIDATION_WINDOW``. A scan's tolerances are the constants
``weyl.LADDER_TOL``, ``weyl.LADDER_TAU_REL``, ``classify.FLOQUET_EPS`` and
``classify.EDGE_EXCLUSION``; scan and constancy read "bounded" off
``classify.SLOPE_THRESHOLD``, and constancy given no phases draws
``classify.N_RANDOM_PHASES`` from the seed. Malformed input of either kind
is a config error with one ``config error:`` line on stderr. Exit codes: 0
ok, 1 any other library error (such as a ``constancy`` run whose blocks leave
float range), 2 config/schema error, 3 model validation failure,
4 non-convergence, 5 a scan wrote error rows (the CSV and report are
still written; the report counts the error rows by exception type).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

from . import classify, config as config_mod, models, weyl
from .errors import (
    ConvergenceError,
    JacobiSpecError,
    ModelValidationError,
    TargetUnreachableError,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_CONVERGENCE = 4
EXIT_ROWS_FAILED = 5


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def _write_csv(path, cols, rows):
    """Header row, then one line per row with every value through ``_fmt``."""
    lines = [",".join(cols)] + [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_csv(records, path, dim):
    """Write scan records: header row, one record per line, 17 digits."""
    cols = ["x", "r_ces"] + [f"slope_r{r}" for r in range(1, dim + 1)] + [
        "r_rank", "trace_growth", "r_flo", "flags",
    ]
    rows = [
        [rec.x, rec.r_ces, *rec.slopes, *[float("nan")] * (dim - len(rec.slopes)),
         rec.r_rank, rec.trace_growth, rec.r_flo, rec.flags]
        for rec in records
    ]
    _write_csv(path, cols, rows)


def _write_report(path, cfg, body):
    text = [
        "jacobispec report",
        "=================",
        "",
        "resolved config:",
        yaml.dump(asdict(cfg), Dumper=config_mod.YAML_DUMPER, sort_keys=True,
                  default_flow_style=None).rstrip(),
        "",
        body,
        "",
    ]
    Path(path).write_text("\n".join(text), encoding="utf-8")


def _task_validate(cfg, spec, out_dir):
    report = models.validate_model(spec, models.VALIDATION_WINDOW)
    body = "validation:\n" + report.summary()
    if hasattr(spec, "rationality_report"):
        body += f"\nrotation-number probe: {spec.rationality_report()}"
    _write_report(out_dir / cfg.output["report"], cfg, body)
    return EXIT_OK


def _task_probe(cfg, spec, out_dir):
    x, y = cfg.params["x"], cfg.params["y"]
    z = complex(x, y)
    ric = weyl.m_riccati(spec, z)
    res = weyl.m_resolvent(spec, z)
    entries = [(i, j) for i in range(spec.dim) for j in range(spec.dim)]
    cols = ["x", "y", "method", "depth"]
    for i, j in entries:
        cols += [f"m_re_{i + 1}{j + 1}", f"m_im_{i + 1}{j + 1}"]
    rows = []
    for tag, m in (("riccati", ric), ("resolvent", res)):
        row = [x, y, tag, m.depth]
        for i, j in entries:
            row += [float(m.m[i, j].real), float(m.m[i, j].imag)]
        rows.append(row)
    _write_csv(out_dir / cfg.output["csv"], cols, rows)
    gap = float(np.sqrt(np.sum(np.abs(ric.m - res.m) ** 2)))
    body = (
        f"probe at z = {x:.17g} + {y:.17g}i\n"
        f"riccati depth {ric.depth}, resolvent blocks {res.depth}\n"
        f"method gap |M_riccati - M_resolvent|_F = {gap:.17g}"
    )
    _write_report(out_dir / cfg.output["report"], cfg, body)
    return EXIT_OK


def _task_jl_sweep(cfg, spec, out_dir):
    p = cfg.params
    rng = np.random.default_rng(cfg.seed)
    n = p["n_points"]
    (x_lo, x_hi), (y_lo, y_hi) = p["x_range"], p["y_range"]
    xs = rng.uniform(x_lo, x_hi, n)
    ys = np.exp(rng.uniform(np.log(y_lo), np.log(y_hi), n))
    reports = weyl.jl_bounds_grid(spec, xs, ys, slack=p["slack"])
    cols = ["x", "y", "L", "ratio", "condition_term", "k1", "k2",
            "m_norm", "lower", "upper", "verdict", "status"]
    rows = [[rep.x, rep.y, rep.l_cutoff, rep.ratio, rep.condition_term, rep.k1, rep.k2,
             rep.m_norm, rep.lower, rep.upper, rep.verdict, rep.status] for rep in reports]
    _write_csv(out_dir / cfg.output["csv"], cols, rows)
    holds = sum(1 for rep in reports if rep.verdict)
    skipped = Counter(rep.status for rep in reports if rep.verdict is None)
    body = (f"bound sweep: {holds}/{n} points satisfied both bounds ({sum(skipped.values())} "
            f"without a verdict{''.join(f'; {k}: {c}' for k, c in sorted(skipped.items()))})")
    _write_report(out_dir / cfg.output["report"], cfg, body)
    return EXIT_OK


def _task_scan(cfg, spec, out_dir):
    xs = cfg.x_grid()
    params = cfg.scan_params()
    records = classify.scan_energy_grid(spec, xs, params)
    emit_csv(records, out_dir / cfg.output["csv"], spec.dim)
    edges = []
    # the rows carry r_flo exactly when they ran the Floquet oracle
    if any(rec.r_flo is not None for rec in records):
        edges = classify.floquet_band_edges(spec, float(np.min(xs)), float(np.max(xs)))
    stats = classify.agreement_summary(records, edges)
    body = "scan summary:\n" + "\n".join(f"  {k} = {v}" for k, v in sorted(stats.items()))
    if edges:
        body += "\nband edges: " + ", ".join(f"{e:.6f}" for e in edges)
    # error strings read "<exception type>: <message>"
    errors = Counter(rec.error.split(":", 1)[0] for rec in records if rec.error)
    if errors:
        body += f"\nerror rows: {sum(errors.values())} (" + ", ".join(
            f"{name}: {count}" for name, count in sorted(errors.items())
        ) + ")"
    _write_report(out_dir / cfg.output["report"], cfg, body)
    return EXIT_ROWS_FAILED if errors else EXIT_OK


def _task_constancy(cfg, spec, out_dir):
    xs = cfg.x_grid()
    phases = cfg.params["phases"]
    if not phases:
        rng = np.random.default_rng(cfg.seed)
        phases = [rng.uniform(0.0, 1.0, size=spec.torus_dim).tolist()
                  for _ in range(classify.N_RANDOM_PHASES)]
    report = classify.constancy_experiment(spec, phases, xs, cfg.scan_params())
    cols = ["x"]
    for i in range(len(phases)):
        cols += [f"r_plus_p{i}", f"r_minus_p{i}", f"mult_p{i}", f"determinate_p{i}"]
    rows = []
    for j, x in enumerate(xs):
        row = [float(x)]
        for cls in report.classifications:
            row += [int(cls.r_plus[j]), int(cls.r_minus[j]),
                    int(cls.full_multiplicity[j]), bool(cls.determinate[j])]
        rows.append(row)
    _write_csv(out_dir / cfg.output["csv"], cols, rows)
    body = "constancy experiment:\n" + report.summary()
    body += f"\nphases: {report.phases}"
    _write_report(out_dir / cfg.output["report"], cfg, body)
    return EXIT_OK


_TASKS = {
    "validate": _task_validate,
    "probe": _task_probe,
    "jl-sweep": _task_jl_sweep,
    "scan": _task_scan,
    "constancy": _task_constancy,
}


def run_config(config_path, *, threads=1, out_dir=None, force_task=None) -> int:
    """Run one config and return the exit code; ``threads`` is ignored."""
    try:
        cfg = config_mod.load_config(config_path)
        spec = models.spec_from_config(cfg.model)
        task = force_task or cfg.task
        if task == "constancy":
            config_mod.check_constancy_model(cfg.params, spec)
    except JacobiSpecError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    target = Path(out_dir) if out_dir else Path(cfg.output["dir"])
    target.mkdir(parents=True, exist_ok=True)
    try:
        if task != "validate":
            models.validate_model(spec, models.VALIDATION_WINDOW)
        return _TASKS[task](cfg, spec, target)
    except ModelValidationError as exc:
        print(f"model validation failed: {exc}", file=sys.stderr)
        if exc.report is not None:
            _write_report(target / cfg.output["report"], cfg, "validation:\n" + exc.report.summary())
        return EXIT_VALIDATION
    except (ConvergenceError, TargetUnreachableError) as exc:
        print(f"numeric non-convergence: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except JacobiSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="jacobispec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    force = "validate" if args.command == "validate" else None
    return run_config(args.config, out_dir=args.out, force_task=force)


if __name__ == "__main__":
    sys.exit(main())
