"""Batch command-line front end.

    jacobispec run <config.yaml> [--threads N] [--out DIR]
    jacobispec validate <config.yaml> [--out DIR]

One config file per run; outputs are a task CSV plus report.txt with the
fully resolved configuration embedded for provenance. Exit codes: 0 ok,
2 config/schema error, 3 model validation failure, 4 non-convergence,
5 a scan wrote error rows (the CSV and report are still written; the
report counts the error rows by exception type).

``--threads`` (and ``run_config(threads=...)``) is accepted and ignored:
every task runs in one thread, with the energy grid as one wide batch,
which measured faster than splitting it over threads.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import yaml

from . import classify, config as config_mod, models, weyl
from .errors import (
    ConfigError,
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


def emit_csv(records, path, dim):
    """Write scan records: header row, one record per line, 17 digits."""
    cols = ["x", "r_ces"] + [f"slope_r{r}" for r in range(1, dim + 1)] + [
        "r_rank", "trace_growth", "r_flo", "flags",
    ]
    lines = [",".join(cols)]
    for rec in records:
        slopes = list(rec.slopes) + [float("nan")] * (dim - len(rec.slopes))
        row = [
            _fmt(rec.x),
            _fmt(rec.r_ces),
            *[_fmt(s) for s in slopes],
            _fmt(rec.r_rank),
            _fmt(rec.trace_growth),
            _fmt(rec.r_flo),
            _fmt(rec.flags),
        ]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_report(path, cfg, body):
    text = [
        "jacobispec report",
        "=================",
        "",
        "resolved config:",
        yaml.safe_dump(cfg.resolved, sort_keys=True, default_flow_style=None).rstrip(),
        "",
        body,
        "",
    ]
    Path(path).write_text("\n".join(text), encoding="utf-8")


def _task_validate(cfg, spec, out_dir):
    window = int(cfg.params.get("window", 100))
    report = models.validate_model(spec, window)
    body = "validation:\n" + report.summary()
    if hasattr(spec, "rationality_report"):
        body += f"\nrotation-number probe: {spec.rationality_report()}"
    sums, verdict = models.limit_point_partial_sum(spec, window)
    body += f"\nlimit-point partial sum over window = {sums:.17g} ({verdict})"
    _write_report(out_dir / cfg.output["report"], cfg, body)
    return EXIT_OK


def _task_probe(cfg, spec, out_dir):
    x = float(cfg.params.get("x", 0.0))
    y = float(cfg.params.get("y", 0.1))
    tol = float(cfg.params.get("m_tol", 1e-10))
    z = complex(x, y)
    ric = weyl.m_riccati(spec, z, tol=tol)
    res = weyl.m_resolvent(spec, z, tol=tol)
    l = spec.dim
    cols = ["x", "y", "method", "depth"]
    for i in range(l):
        for j in range(l):
            cols += [f"m_re_{i + 1}{j + 1}", f"m_im_{i + 1}{j + 1}"]
    lines = [",".join(cols)]
    for tag, m in (("riccati", ric), ("resolvent", res)):
        row = [_fmt(x), _fmt(y), tag, _fmt(m.depth)]
        for i in range(l):
            for j in range(l):
                row += [_fmt(float(m.m[i, j].real)), _fmt(float(m.m[i, j].imag))]
        lines.append(",".join(row))
    (out_dir / cfg.output["csv"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    gap = float(np.sqrt(np.sum(np.abs(ric.m - res.m) ** 2)))
    body = (
        f"probe at z = {x:.17g} + {y:.17g}i (m_tol = {tol:g})\n"
        f"riccati depth {ric.depth}, resolvent blocks {res.depth}\n"
        f"method gap |M_riccati - M_resolvent|_F = {gap:.17g}"
    )
    _write_report(out_dir / cfg.output["report"], cfg, body)
    return EXIT_OK


def _task_jl_sweep(cfg, spec, out_dir):
    rng = np.random.default_rng(cfg.seed)
    n = int(cfg.params.get("n_points", 100))
    x_lo, x_hi = (float(v) for v in cfg.params.get("x_range", [-3.0, 3.0]))
    y_lo, y_hi = (float(v) for v in cfg.params.get("y_range", [1e-2, 1.0]))
    slack = float(cfg.params.get("slack", 1e-9))
    xs = rng.uniform(x_lo, x_hi, n)
    ys = np.exp(rng.uniform(np.log(y_lo), np.log(y_hi), n))
    cols = ["x", "y", "L", "ratio", "condition_term", "k1", "k2",
            "m_norm", "lower", "upper", "verdict", "status"]
    lines = [",".join(cols)]
    holds = 0
    skipped = 0
    for rep in weyl.jl_bounds_grid(spec, xs, ys, slack=slack):
        if rep.verdict:
            holds += 1
        if rep.verdict is None:
            skipped += 1
        lines.append(",".join([
            _fmt(rep.x), _fmt(rep.y), _fmt(rep.l_cutoff), _fmt(rep.ratio),
            _fmt(rep.condition_term), _fmt(rep.k1), _fmt(rep.k2),
            _fmt(rep.m_norm), _fmt(rep.extras.get("lower")),
            _fmt(rep.extras.get("upper")), _fmt(rep.verdict), rep.status,
        ]))
    (out_dir / cfg.output["csv"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    body = (
        f"bound sweep: {holds}/{n} points satisfied both bounds "
        f"({skipped} skipped as condition-overflow)"
    )
    _write_report(out_dir / cfg.output["report"], cfg, body)
    return EXIT_OK


def _task_scan(cfg, spec, out_dir):
    xs = cfg.x_grid()
    params = cfg.scan_params()
    records = classify.scan_energy_grid(spec, xs, params)
    emit_csv(records, out_dir / cfg.output["csv"], spec.dim)
    edges = []
    if getattr(spec, "period", None) is not None and xs.size:
        edges = classify.floquet_band_edges(spec, float(np.min(xs)), float(np.max(xs)))
    stats = classify.agreement_summary(records, edges, params.edge_exclusion)
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
    params = cfg.scan_params()
    xs = cfg.x_grid()
    phases = cfg.params.get("phases")
    if not phases:
        count = int(cfg.params.get("n_random_phases", 2))
        rng = np.random.default_rng(cfg.seed)
        phases = [rng.uniform(0.0, 1.0, size=max(1, getattr(spec, "torus_dim", 1))).tolist()
                  for _ in range(count)]
    report = classify.constancy_experiment(spec, phases, xs, params)
    cols = ["x"]
    for i in range(len(phases)):
        cols += [f"r_plus_p{i}", f"r_minus_p{i}", f"mult_p{i}", f"determinate_p{i}"]
    lines = [",".join(cols)]
    for j, x in enumerate(xs):
        row = [_fmt(float(x))]
        for cls in report.classifications:
            row += [
                _fmt(int(cls.r_plus[j])), _fmt(int(cls.r_minus[j])),
                _fmt(int(cls.full_multiplicity[j])), _fmt(bool(cls.determinate[j])),
            ]
        lines.append(",".join(row))
    (out_dir / cfg.output["csv"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        spec = models.spec_from_config(cfg.model)
    except JacobiSpecError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    target = Path(out_dir) if out_dir else Path(cfg.output["dir"])
    target.mkdir(parents=True, exist_ok=True)
    task = force_task or cfg.task
    try:
        if task != "validate":
            models.validate_model(spec, int(cfg.params.get("window", 100)))
        return _TASKS[task](cfg, spec, target)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    force = "validate" if args.command == "validate" else None
    return run_config(args.config, threads=args.threads, out_dir=args.out, force_task=force)


if __name__ == "__main__":
    sys.exit(main())
