"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workload NAME ...] [--trace 0|1] [--out FILE]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. ``--out`` writes the same summary, the
raw values and the machine record as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        values, correct, machine = {}, [], None
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                   check=True, timeout=900).stdout.strip().splitlines()
            machine = json.loads(lines[-2])["record"]["machine"]
            result = json.loads(lines[-1])
            correct.append(result["correct"] and result["failed"] == 0)
            for metric, got in result["metrics"].items():
                values.setdefault(metric, []).append(got["value"])
        rows = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            rows[metric] = {"median": median, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / median if median else 0.0,
                            "bound": bounds.get(metric), "values": vals}
            print(f"{name:16s} {metric:44s} median {median:<12.6g} spread "
                  f"{rows[metric]['spread']:.4f} bound {bounds.get(metric)}")
        print(f"{name:16s} all runs correct: {all(correct)} ({len(correct)} runs)", flush=True)
        summary["workloads"][name] = {"all_correct": all(correct), "metrics": rows}
        summary["machine"] = machine
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
