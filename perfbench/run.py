"""Seeded benchmark of the jacobispec CLI tasks.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root. Each workload writes YAML configs from the
seed and runs them through ``jacobispec.cli.run_config`` in this process
(``threads=1``, one BLAS thread), pass after pass, for ``--seconds``
seconds. Every pass is checked against an oracle and must reproduce the
first pass's CSV bytes. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates plain and traced passes and reports the per-layer
metrics of the fastest traced pass. A workload's wall time is the sum
over its configs of each config's fastest run; ``wall_cal`` divides it by
the fastest run of a fixed calibration kernel timed between the passes.
Set-up time is the fastest of its repeats. Every repeat is kept in the
record. The last line of standard output is one JSON result; the line
before it is a record of the machine, the inputs and the answers. Work
files go to ``.perfbench_run/`` under the repository root.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# one BLAS thread, set before numpy loads: the run stays on one core
for _key in BLAS_ENV:
    os.environ[_key] = "1"

from workloads import WORKLOADS, write_configs  # noqa: E402  (loads numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
SETUP_REPEATS = 7

END_TO_END = (
    ("wall_cal", "cal"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("agree_frac", "frac"),
    ("determinate_frac", "frac"),
)
PER_LAYER = (
    ("config.load_config.time_s", "s"),
    ("models.spec_from_config.time_s", "s"),
    ("models.validate_model.time_s", "s"),
    ("models.coefficient_at.calls", "count"),
    ("models.coefficient_at.time_s", "s"),
    ("classify.cesaro_profiles_grid.calls", "count"),
    ("classify.cesaro_profiles_grid.time_s", "s"),
    ("classify.cesaro_profiles_grid.energy_steps", "count"),
    ("matblock.batched_singular_sq.calls", "count"),
    ("matblock.batched_singular_sq.time_s", "s"),
    ("matblock.batched_inv.calls", "count"),
    ("matblock.batched_inv.time_s", "s"),
    ("weyl.im_m_boundary_grid.time_s", "s"),
    *(
        (f"weyl.m_riccati_grid.rung{k}.{stat}", unit)
        for k in range(5)
        for stat, unit in (("time_s", "s"), ("depth", "count"), ("last_delta", "norm"))
    ),
    ("classify.floquet_multiplicity.calls", "count"),
    ("classify.floquet_multiplicity.time_s", "s"),
    ("classify.floquet_band_edges.time_s", "s"),
    ("weyl.m_resolvent.calls", "count"),
    ("weyl.m_resolvent.time_s", "s"),
    ("weyl.m_resolvent.blocks", "count"),
    ("weyl.m_resolvent.bumped", "count"),
    ("weyl.m_resolvent.p50_ms", "ms"),
    ("weyl.m_resolvent.p90_ms", "ms"),
    ("weyl.jl_bounds.p50_ms", "ms"),
    ("weyl.jl_bounds.p90_ms", "ms"),
    ("truncnorm.solve_l_of_y.calls", "count"),
    ("truncnorm.solve_l_of_y.time_s", "s"),
    ("truncnorm.solve_l_of_y.track_blocks", "count"),
    ("recurrence.dirichlet_neumann.calls", "count"),
    ("recurrence.dirichlet_neumann.time_s", "s"),
    ("recurrence.dirichlet_neumann.blocks", "count"),
    ("recurrence.SolutionTrack.extended.calls", "count"),
    ("recurrence.SolutionTrack.extended.time_s", "s"),
    *(
        (f"{layer}.self_s", "s")
        for layer in ("cli", "config", "models", "classify", "weyl", "truncnorm", "recurrence", "matblock")
    ),
    ("trace.cover_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)

# Set-up as a user pays it: a fresh interpreter imports the package, reads
# the config, builds the model and validates it.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import jacobispec
from jacobispec import config, models
cfg = config.load_config(sys.argv[1])
spec = models.spec_from_config(cfg.model)
models.validate_model(spec, int(cfg.params.get("window", 100)))
print(time.perf_counter() - t0)
"""


def calibration_seconds():
    """Seconds one fixed piece of work takes: the yardstick for ``wall_cal``.

    A batched 2x2 Riccati-type descent plus scalar Python arithmetic, the
    same mix of interpreter and small-array numpy work as the workloads;
    it uses nothing from jacobispec, so a change to the program cannot move it.
    """
    import numpy as np

    z = (np.linspace(-2.0, 2.0, 64) + 0.05j)[:, None, None]
    d = np.array([[1.0, 0.2], [0.2, 0.9]])
    v = np.diag([0.0, 1.0])
    eye = np.eye(2)
    m = np.zeros((64, 2, 2), dtype=complex)
    start = time.perf_counter()
    for n in range(2400):
        core = (v - z * eye) - d @ m @ d
        a, b, c, e = core[..., 0, 0], core[..., 0, 1], core[..., 1, 0], core[..., 1, 1]
        det = a * e - b * c
        m = np.empty_like(core)
        m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = e / det, -b / det, -c / det, a / det
        acc = 0.0
        for k in range(20):
            acc += ((n * 40503 + k) % 65536) / 65536.0
    return time.perf_counter() - start


def time_setup(config_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def machine_record():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def layer_metrics(tracer):
    """Per-layer values of one traced pass, keyed as in PER_LAYER."""
    import numpy as np

    calls = defaultdict(int)
    seconds = defaultdict(float)
    durations = defaultdict(list)
    attrs = defaultdict(float)
    for name, start, end, _, extra, _ in tracer.spans:
        calls[name] += 1
        seconds[name] += end - start
        durations[name].append(end - start)
        for key, value in extra.items():
            slot = f"{name}.{key}"
            # a rung reports the depth and delta it stopped at; sizes add up
            attrs[slot] = max(attrs[slot], value) if key in ("depth", "last_delta") else attrs[slot] + value
    for name, (count, took) in tracer.counters.items():
        calls[name] += count
        seconds[name] += took
    self_s = tracer.self_times()
    out = {}
    for metric, _ in PER_LAYER:
        key, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = calls[key]
        elif stat == "time_s":
            out[metric] = seconds[key]
        elif stat in ("p50_ms", "p90_ms"):
            samples = durations[key]
            q = 50 if stat == "p50_ms" else 90
            out[metric] = float(np.percentile(samples, q)) * 1e3 if samples else 0.0
        elif stat == "self_s":
            out[metric] = self_s[key]
        elif key != "trace":
            out[metric] = attrs[metric]
    return out


def fastest_sum(passes):
    """Sum over configs of each config's fastest run across passes."""
    return sum(min(col) for col in zip(*passes))


def run_pass(cli, paths, cfgs, out_root, tracer):
    """One pass over the configs.

    Returns the wall seconds of each config's run, the exit codes, the CSV
    texts and the pass start time.
    """
    from tracing import install_jacobispec

    gc.collect()
    if tracer is not None:
        tracer.reset()
        install_jacobispec(tracer)
    codes, walls = [], []
    began = time.perf_counter()
    try:
        for k, path in enumerate(paths):
            start = time.perf_counter()
            codes.append(cli.run_config(str(path), threads=1, out_dir=str(out_root / f"{k:02d}")))
            walls.append(time.perf_counter() - start)
    finally:
        if tracer is not None:
            tracer.restore()
    texts = []
    for k, cfg in enumerate(cfgs):
        csv_path = out_root / f"{k:02d}" / cfg["output"]["csv"]
        texts.append(csv_path.read_text(encoding="utf-8") if csv_path.is_file() else "")
    return walls, codes, texts, began


def run_workload(name, seed, seconds, trace, tiny):
    from jacobispec import cli
    from tracing import Tracer

    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{trace}{'-tiny' if tiny else ''}"
    shutil.rmtree(work, ignore_errors=True)
    paths, cfgs = write_configs(workload, seed, tiny, work / "configs")
    expected_rows = sum(workload.rows(cfg) for cfg in cfgs)
    tracer = Tracer() if trace else None
    plain_walls, traced_walls, layer_passes, spans = [], [], [], []
    attempted = failed = 0
    problems, answers, digest, setup, calibration = [], {}, None, [], []
    began = time.perf_counter()
    while (len(plain_walls) + len(traced_walls) < (2 if trace else 1)
           or time.perf_counter() - began < seconds):
        # set-up samples are spread over the run, like the passes
        if not trace and time.perf_counter() - began >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(time_setup(paths[0]))
        if not trace:
            calibration.append(calibration_seconds())
        traced = trace and len(plain_walls) > len(traced_walls)
        try:
            walls, codes, texts, t0 = run_pass(cli, paths, cfgs, work / "out", tracer if traced else None)
        except Exception:  # noqa: BLE001 - a crashing pass has no timing to report
            traceback.print_exc()
            raise SystemExit(f"perfbench: {name} crashed in pass "
                             f"{len(plain_walls) + len(traced_walls)}")
        attempted += expected_rows
        sha = hashlib.sha256("".join(texts).encode("utf-8")).hexdigest()
        if any(codes):
            failed += expected_rows
            problems.append(f"exit codes {codes}")
        elif digest is None:
            digest = sha
            checked = workload.check(texts, cfgs)
            answers = checked.answers
            first_failed = checked.failed_rows + max(expected_rows - checked.rows, 0)
            failed += first_failed
            problems.extend(checked.problems[:20])
        elif sha != digest:
            failed += expected_rows
            problems.append(f"pass {len(plain_walls) + len(traced_walls)}: CSV bytes differ from pass 0")
        else:
            failed += first_failed
        if traced:
            traced_walls.append(walls)
            layer = layer_metrics(tracer)
            layer["trace.cover_frac"] = sum(tracer.self_times().values()) / sum(walls)
            layer_passes.append(layer)
            spans.append(tracer.export(t0))
        else:
            plain_walls.append(walls)

    while not trace and len(setup) < SETUP_REPEATS:
        setup.append(time_setup(paths[0]))
    # Timings are the fastest repeat, of each config's run, of set-up and of
    # the calibration work: on a shared machine the slowdowns come from other
    # tenants, so the minimum is the repeatable cost. Slowdowns that last the
    # whole run hit the workload and the calibration alike, and cancel in
    # wall_cal.
    if trace:
        fastest = min(range(len(traced_walls)), key=lambda p: sum(traced_walls[p]))
        metrics = dict(layer_passes[fastest])
        metrics["trace.overhead_frac"] = fastest_sum(traced_walls) / fastest_sum(plain_walls) - 1.0
        units = dict(PER_LAYER)
    else:
        metrics = {
            "wall_cal": fastest_sum(plain_walls) / min(calibration),
            "setup_s": min(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "agree_frac": answers.get("agree_frac", 0.0),
            "determinate_frac": answers.get("determinate_frac", 0.0),
        }
        units = dict(END_TO_END)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in metrics.items()},
    }
    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "machine": machine_record(),
        "csv_sha256": digest,
        "answers": answers,
        "problems": problems,
        "plain_walls_s": [sum(w) for w in plain_walls],
        "traced_walls_s": [sum(w) for w in traced_walls],
        "fastest_config_walls_s": [min(col) for col in zip(*plain_walls)],
        "wall_s": fastest_sum(plain_walls),
        "calibration_s": calibration,
        "setup_s": setup,
    }
    (work / "result.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    if spans:
        (work / "spans.json").write_text(json.dumps(spans))
    return record, result


def run_all(args):
    """Every workload, each in its own process; one combined line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            sys.stderr.write(proc.stderr)
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        print(json.dumps({"workload": name, **result}), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if not (SRC / "jacobispec" / "__init__.py").is_file():
        print(f"perfbench: no jacobispec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    record, result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
