"""scripts/pairs.py's summary on canned perfbench result lines."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

BETTER = {"election_ref": "lower", "setup_s": "lower", "peak_rss_mb": "lower"}


def line(ref, setup=0.3, rss=88.0, correct=True):
    """The last stdout line of one ``perfbench/run.py --trace 0`` run."""
    metrics = {"election_ref": {"unit": "ratio", "value": ref},
               "setup_s": {"unit": "s", "value": setup},
               "peak_rss_mb": {"unit": "MB", "value": rss}}
    return json.dumps({"correct": correct, "attempted": 30, "failed": 0 if correct else 1,
                       "metrics": metrics}, sort_keys=True)


def result(text):
    return pairs.result_line(f"workload dpol-ring, seed 7, 40 s, trace 0\n  ...\n{text}\n")


def test_summary_reports_medians_ratio_and_pairs_won():
    runs = [(result(line(7.0)), result(line(6.3))),
            (result(line(7.2)), result(line(6.6, rss=88.5))),
            (result(line(6.9)), result(line(7.1)))]
    lines, code = pairs.summary(runs, BETTER)
    assert code == 0
    assert lines == [
        "3 pairs, 0 runs not correct",
        "election_ref: parent 7, change 6.6, change/parent 0.9429, change won 2 of 3",
        "setup_s: parent 0.3, change 0.3, change/parent 1.0000, change won 0 of 3",
        "peak_rss_mb: parent 88, change 88, change/parent 1.0000, change won 0 of 3",
    ]


def test_a_run_that_is_not_correct_or_has_no_result_line_exits_1():
    runs = [(result(line(7.0)), result(line(6.0, correct=False))),
            (result(line(7.0)), pairs.result_line("Traceback (most recent call last):\n"))]
    lines, code = pairs.summary(runs, BETTER)
    assert code == 1
    assert lines[0] == "2 pairs, 2 runs not correct"
    # Only whole pairs are compared; an incorrect run still has its metrics.
    assert lines[1] == ("election_ref: parent 7, change 6, change/parent 0.8571, "
                        "change won 1 of 1")


def test_higher_is_better_counts_the_other_way():
    runs = [(result(line(7.0)), result(line(6.0))), (result(line(7.0)), result(line(8.0)))]
    lines, _ = pairs.summary(runs, {"election_ref": "higher"})
    assert lines[1].endswith("change won 1 of 2")
