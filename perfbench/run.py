"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mine-loops --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the workload once untraced and once with the
per-layer wrappers installed and reports the per-layer metrics.  Human
readable lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Scratch files go
to ``.perfbench/`` in the checkout; traced runs leave their spans there.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mine-loops", "mine-quest", "serve-sessions")
#: The end-to-end metrics every workload reports (see README.md for what
#: each one is on each workload).
END_TO_END = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
#: Longest pass of a traced run: spans are kept in memory (about 250 bytes
#: each; serving records one per event fed).
TRACE_SECONDS = 10.0


def load_digests():
    """The mined-set digests recorded for ``mine-quest``, if any."""
    baseline = HERE / "baseline.json"
    if not baseline.exists():
        return None
    return json.loads(baseline.read_text(encoding="utf-8")).get("mine-quest_digests")


def measure(workload: str, seed: int, seconds: float, workdir: Path):
    import mining
    import serving

    if workload == "mine-loops":
        return mining.run_mine_loops(seed, seconds, workdir, None)
    if workload == "mine-quest":
        return mining.run_mine_quest(seed, seconds, None, load_digests())
    return serving.run_serving(ROOT, workdir, seed, seconds)


def trace(workload: str, seed: int, seconds: float, workdir: Path, spans_dir: Path):
    """A traced run; returns its result with every per-layer metric set.

    Both passes, untraced then traced, last ``min(seconds, TRACE_SECONDS)``.
    """
    import mining
    import serving
    from layers import LAYER_METRICS, SERVING_LAYERS, install_mining_layers, span_metrics
    from tracer import Tracer, root_coverage

    seconds = min(seconds, TRACE_SECONDS)
    if workload == serving.NAME:
        result = serving.trace_serving(ROOT, workdir, spans_dir, seed, seconds)
        total_s = result.layers.pop("server_cpu_s")
        # Queue wait is waiting, not CPU, so it is left out of the cover.
        covered = sum(
            result.layers.get(f"{layer}_s", 0.0)
            for layer in SERVING_LAYERS
            if layer != "pool.queue_wait"
        )
        basis = "server CPU time during the traced drive"
    else:
        plain = measure(workload, seed, seconds, workdir)
        tracer = Tracer()
        install_mining_layers(tracer)
        try:
            if workload == "mine-loops":
                result = mining.run_mine_loops(seed, seconds, workdir, tracer)
            else:
                result = mining.run_mine_quest(seed, seconds, tracer, load_digests())
        finally:
            tracer.uninstall()
        values = span_metrics(tracer.spans, tracer.totals)
        values.update(result.layers)
        candidates = values.pop("rules.candidates", 0)
        values["rules.kept_ratio"] = values.pop("rules.kept", 0) / candidates if candidates else 0.0
        total_s, covered = root_coverage(tracer.spans, "run.")
        values["trace.overhead_events_per_s"] = (
            plain.metrics["events_per_s"][0] / result.metrics["events_per_s"][0]
        )
        values["trace.overhead_op_p50"] = (
            result.metrics["op_p50_ms"][0] / plain.metrics["op_p50_ms"][0]
        )
        result.attempted += plain.attempted
        result.failed += plain.failed
        result.mismatches.extend(plain.mismatches)
        spans_path = spans_dir / f"spans-{workload}-{seed}.jsonl"
        tracer.write_jsonl(str(spans_path))
        result.spans = str(spans_path)
        result.layers = values
        basis = "wall time of the timed operations (run.* spans)"
    result.layers["trace.layer_coverage"] = covered / total_s
    (Path(f"{result.spans}.meta.json")).write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "total_s": total_s,
                "covered_s": covered,
                "basis": basis,
                "window": result.window,
            }
        ),
        encoding="utf-8",
    )
    units = dict(LAYER_METRICS)
    result.layers = {
        name: (float(result.layers.get(name, 0.0)), units[name])
        for name, _ in LAYER_METRICS
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    spans_dir = ROOT / ".perfbench"
    spans_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=spans_dir))
    try:
        if args.trace:
            result = trace(args.workload, args.seed, args.seconds, workdir, spans_dir)
        else:
            result = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    error_rate = result.failed / result.attempted if result.attempted else 0.0
    result.detail["error_rate"] = (error_rate, "ratio")
    for name, (value, unit) in result.detail.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  ({result.failed} of {result.attempted} operations and checks failed)")
    print("detail: " + json.dumps({name: value for name, (value, _) in result.detail.items()}))
    for line in result.mismatches:
        print(f"MISMATCH {line}", file=sys.stderr)
    if args.trace:
        from summarize import load, summary_lines

        spans, meta = load(result.spans)
        print(f"spans: {result.spans}")
        for line in summary_lines(spans, meta):
            print(f"  {line}")
        metrics = result.layers
    else:
        metrics = result.metrics
        missing = [name for name, _ in END_TO_END if name not in metrics]
        if missing:
            raise RuntimeError(f"{args.workload} did not measure {missing}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": max(result.attempted, 1),
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
