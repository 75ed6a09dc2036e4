"""Print the per-layer split of one traced run from its span JSONL.

    python3 perfbench/summarize.py .perfbench/spans-mine-loops-1.jsonl

For each layer: self time (duration minus child spans), call count, share of
the run's end-to-end time, and the end-to-end figure the layer should move;
then how much of the end-to-end time the layers cover.  Both times come from
the ``.meta.json`` file the traced run wrote beside the spans: for mining,
the wall time of the timed operations (set-up layers are listed but not
part of it); for serving, the server's CPU time during the drive.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from layers import MINING_LAYERS, SERVING_LAYERS
from tracer import layer_totals, read_jsonl, within


def summary_lines(spans, meta: Dict[str, object]) -> List[str]:
    """The per-layer table; ``meta`` is the run's ``.meta.json`` content."""
    total_s, covered, basis = meta["total_s"], meta["covered_s"], meta["basis"]
    moves: Dict[str, str] = {**MINING_LAYERS, **SERVING_LAYERS}
    totals = layer_totals(spans)
    rows = sorted(
        ((name, seconds, calls) for name, (seconds, calls) in totals.items() if name in moves),
        key=lambda row: -row[1],
    )
    lines = [
        f"end-to-end: {total_s:.4f} s ({basis})",
        f"{'layer':<22} {'self_s':>10} {'calls':>9} {'share':>7}  moves",
    ]
    for name, seconds, calls in rows:
        share = seconds / total_s if total_s > 0 else 0.0
        lines.append(f"{name:<22} {seconds:>10.4f} {calls:>9} {share:>7.1%}  {moves[name]}")
    lines.append(f"{'covered by layers':<22} {covered:>10.4f} {'':>9} {covered / total_s:>7.1%}")
    return lines


def load(path: str) -> Tuple[list, Dict[str, object]]:
    """The spans of a traced run (inside its window, if any) and its meta."""
    meta = json.loads(Path(f"{path}.meta.json").read_text(encoding="utf-8"))
    spans = read_jsonl(path)
    if meta.get("window"):
        spans = within(spans, *meta["window"])
    return spans, meta


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spans, meta = load(argv[0])
    print(f"{meta['workload']} seed {meta['seed']}")
    for line in summary_lines(spans, meta):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
