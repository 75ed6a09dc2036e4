"""Run workloads over several seeds; print (and optionally record) the spread.

    python3 perfbench/baseline.py --runs 10 --seconds 25 [--workloads mine-quest,...] [--write]

Each run is a fresh process of the ``BENCHMARK.json`` command, started from
the checkout root, with seeds 1..runs.  For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median.
``--write`` records them in ``perfbench/baseline.json`` with the seeds, the
host's CPU count and each workload's input shape, after first recording the
``mine-quest`` digests of the default seed (1) that the output check uses.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
DEFAULT_SEED = 1


def shapes():
    import mining
    import serving

    return {
        "mine-loops": mining.loop_shape(),
        "mine-quest": mining.quest_shape(),
        "serve-sessions": serving.SESSIONS.as_dict(),
    }


def quest_digests():
    """Mine the default seed's QUEST input once and digest the output."""
    import mining

    database, original = mining.quest_database(DEFAULT_SEED)
    patterns = mining.ClosedIterativePatternMiner(mining.QUEST_PATTERNS).mine(database)
    rules = mining.NonRedundantRecurrentRuleMiner(mining.QUEST_RULES).mine(database)
    return mining.quest_digest(patterns.patterns, rules.rules, original)


def run_once(workload: str, seed: int, seconds: float):
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    detail = next(
        json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: ")
    )
    if not result["correct"]:
        print(done.stderr, file=sys.stderr)
    return result, detail


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument(
        "--workloads", help="comma-separated (default: the workloads in BENCHMARK.json)"
    )
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    baseline = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.exists() else {}
    if args.write:
        baseline["mine-quest_digests"] = quest_digests()
        BASELINE.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    shape = shapes()
    seeds = list(range(1, args.runs + 1))
    if args.workloads is None:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = [entry["name"] for entry in benchmark["workloads"]]
    else:
        workloads = [name for name in args.workloads.split(",") if name]
    for workload in workloads:
        metrics, details, units, incorrect = {}, {}, {}, 0
        for seed in seeds:
            result, detail = run_once(workload, seed, args.seconds)
            incorrect += not result["correct"]
            for name, entry in result["metrics"].items():
                metrics.setdefault(name, []).append(entry["value"])
                units[name] = entry["unit"]
            for name, value in detail.items():
                details.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={entry['value']:.6g}" for name, entry in result["metrics"].items()
            ), flush=True)
        summary = {
            name: dict(describe(values), unit=units[name]) for name, values in metrics.items()
        }
        for name, entry in summary.items():
            print(
                f"  {workload:<15} {name:<14} median {entry['median']:<12.6g} "
                f"q1 {entry['q1']:<12.6g} q3 {entry['q3']:<12.6g} spread {entry['spread']:.4f}"
            )
        print(f"  {workload}: {incorrect} of {len(seeds)} runs failed an output check", flush=True)
        if args.write:
            baseline.setdefault("workloads", {})[workload] = {
                "shape": shape[workload],
                "metrics": summary,
                "detail": {
                    name: {"median": statistics.median(v), "values": v}
                    for name, v in details.items()
                },
                "incorrect_runs": incorrect,
            }
            baseline["host"] = {"nproc": os.cpu_count()}
            baseline["seeds"] = seeds
            baseline["seconds"] = args.seconds
            BASELINE.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
