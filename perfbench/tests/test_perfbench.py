"""Tests of the benchmark itself: metric names, tracing, and output checks.

    python3 -m pytest perfbench/tests -q

The output-check tests corrupt a correct output (one rule dropped, one
violation removed, one statistic changed) and assert the check counts it.
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import inputs  # noqa: E402
import mining  # noqa: E402
import serving  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402
from measure import RunResult  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import Tracer, layer_totals, root_coverage  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_and_units():
    benchmark = _benchmark()
    for entry in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert NAME.match(entry["name"]), entry
        assert UNIT.match(entry["unit"]), entry
    names = [e["name"] for e in benchmark["end_to_end"] + benchmark["per_layer"]]
    assert len(names) == len(set(names))
    assert [(e["name"], e["unit"]) for e in benchmark["end_to_end"]] == END_TO_END
    assert [(e["name"], e["unit"]) for e in benchmark["per_layer"]] == LAYER_METRICS


def test_self_time_subtracts_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("run.op"):  # 0 .. 7
        with tracer.span("outer"):  # 1 .. 6
            with tracer.span("inner"):  # 2 .. 3
                pass
            with tracer.span("inner"):  # 4 .. 5
                pass
    totals = layer_totals(tracer.spans)
    assert totals["inner"] == (2.0, 2)
    assert totals["outer"] == (3.0, 1)
    assert root_coverage(tracer.spans, "run.") == (7.0, 5.0)


def test_wrap_records_and_uninstall_restores():
    class Target:
        def double(self, value):
            return 2 * value

        @classmethod
        def make(cls):
            return cls()

    original = Target.__dict__["double"]
    tracer = Tracer()
    tracer.wrap(Target, "double", "layer.double")
    tracer.wrap(Target, "make", "layer.make")
    assert Target.make().double(4) == 8
    assert sorted(span[2] for span in tracer.spans) == ["layer.double", "layer.make"]
    tracer.uninstall()
    assert Target.__dict__["double"] is original
    assert isinstance(Target.__dict__["make"], classmethod)


@pytest.fixture(scope="module")
def quest():
    database, original = mining.quest_database(1)
    patterns = mining.ClosedIterativePatternMiner(mining.QUEST_PATTERNS).mine(database)
    rules = mining.NonRedundantRecurrentRuleMiner(mining.QUEST_RULES).mine(database)
    return database, original, patterns.patterns, rules.rules


def test_quest_digest_is_seed_independent(quest):
    _, original, patterns, rules = quest
    database, renamed = mining.quest_database(2)
    again = mining.NonRedundantRecurrentRuleMiner(mining.QUEST_RULES).mine(database).rules
    digest = mining.quest_digest(patterns, rules, original)
    assert mining.quest_digest(patterns, again, renamed)["rules"] == digest["rules"]


def test_quest_check_catches_a_dropped_rule(quest):
    database, original, patterns, rules = quest
    digests = mining.quest_digest(patterns, rules, original)
    clean = RunResult()
    mining.check_quest(clean, database, original, patterns, rules, digests)
    assert clean.failed == 0, clean.mismatches
    corrupted = RunResult()
    mining.check_quest(corrupted, database, original, patterns, rules[1:], digests)
    assert corrupted.failed == 1


def test_quest_check_catches_a_wrong_statistic(quest):
    database, original, patterns, rules = quest
    digests = mining.quest_digest(patterns, rules, original)
    wrong = dataclasses.replace(rules[0], i_support=rules[0].i_support + 1)
    corrupted = RunResult()
    mining.check_quest(corrupted, database, original, patterns, [wrong] + rules[1:], digests)
    # The digest differs and rule_statistics disagrees with the one rule.
    assert corrupted.failed == 2


def test_loops_check_catches_a_dropped_rule(tmp_path):
    store, _, _ = mining.ingest_loops(3, tmp_path)
    rules = mining.NonRedundantRecurrentRuleMiner(mining.LOOP_RULES).mine(store.snapshot()).rules
    clean = RunResult()
    mining.check_refresh(clean, rules, store)
    assert clean.failed == 0
    corrupted = RunResult()
    mining.check_refresh(corrupted, rules[:-1], store)
    assert corrupted.failed == 1


def _served_run(sessions: int = 20):
    """A drive as the server would have seen it, plus its reference."""
    families, rules = serving.mine_served_rules(5)
    stream = inputs.session_stream(random.Random(5), families, 2, 1, 4)
    run = serving.Drive()
    for index in range(sessions):
        run.admitted.append((f"s{index}", next(stream), 0))
    merged, reports, _ = serving.reference(run, rules, [])
    for (session_id, _, _), report in zip(run.admitted, reports):
        run.verdicts[session_id] = (
            report.total_points,
            report.satisfied_points,
            report.violation_count,
        )
    return run, rules, merged


def test_serving_check_catches_a_removed_violation():
    run, rules, merged = _served_run()
    assert merged.violation_count > 0
    clean = RunResult()
    serving.verify(clean, serving.report_payload_bytes(merged), run, rules, [])
    assert clean.failed == 0, clean.mismatches

    merged.violations.pop()
    corrupted = RunResult()
    served = serving.report_payload_bytes(merged)
    serving.verify(corrupted, served, run, rules, [])
    assert corrupted.failed == 1


def test_serving_check_catches_a_wrong_verdict():
    run, rules, merged = _served_run()
    session_id = run.admitted[0][0]
    points, satisfied, violations = run.verdicts[session_id]
    run.verdicts[session_id] = (points, satisfied, violations + 1)
    corrupted = RunResult()
    serving.verify(corrupted, serving.report_payload_bytes(merged), run, rules, [])
    assert corrupted.failed == 1


def test_plan_calibrates_only_with_no_session_open():
    families = inputs.family_labels(random.Random(5))
    frames, admitted = serving.plan(5, families, [{}], 2 * serving.SEGMENT_SESSIONS + 100)
    assert len(admitted) == 2 * serving.SEGMENT_SESSIONS + 100
    assert frames[0][0] == frames[-1][0] == "CALIBRATE"
    assert sum(kind == "CALIBRATE" for kind, _ in frames) == 4
    open_sessions = set()
    for kind, payload in frames:
        if kind == "CALIBRATE":
            assert not open_sessions
        elif kind == "BATCH":
            open_sessions.add(payload["session"])
        elif kind == "END":
            open_sessions.remove(payload["session"])


def test_serving_timings_scale_by_the_calibrations_around_each_segment():
    reference = serving.REFERENCE_CALIBRATION_S
    run = serving.Drive(
        segments=[(1.0, 100), (2.0, 100)],
        calibrations=[reference, reference, 2 * reference],
        verdict_ms=[(3.0, 0), (3.0, 1)],
    )
    assert run.scales() == pytest.approx([1.0, 2.0 / 3.0])
    assert run.events_per_s(scaled=False) == pytest.approx(200 / 3.0)
    assert run.events_per_s() == pytest.approx(200 / (1.0 + 2.0 * 2.0 / 3.0))
    assert run.times_ms(run.verdict_ms) == pytest.approx([3.0, 2.0])


def test_run_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, the command
    exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = _benchmark()["command"] + [
        "--workload", "mine-quest", "--seed", "1", "--seconds", "1", "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
