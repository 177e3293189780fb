"""Tests of the benchmark's own correctness gate and wrappers.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

Each negative test corrupts one expectation (a pinned digest, the expected
tally, a pinned exact count) and checks that every election of a short
dpol-ring run then counts as failed and that the benchmark exits nonzero.
The file is not named test_*.py, so the repository's pytest run does not
collect it; it takes about a minute.
"""

from __future__ import annotations

import copy
import io
import json
import unittest
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import run

run.load_program()

import elections  # noqa: E402  (needs the sys.path set by load_program)
import layers  # noqa: E402

WORKLOAD = "dpol-ring"
SHORT_RUN = ["--workload", WORKLOAD, "--seed", str(elections.DEFAULT_SEED), "--seconds", "0.1"]


def first_pin(pins: dict) -> dict:
    seed = elections.election_seed(WORKLOAD, elections.DEFAULT_SEED, 0)
    return pins[WORKLOAD][str(seed)]


def bench(argv: list[str], pins: dict | None = None) -> tuple[int, dict]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run.main(argv, pins=pins)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


class GateTest(unittest.TestCase):
    def assert_all_failed(self, code: int, result: dict) -> None:
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])  # failed_frac = 1

    def test_pinned_inputs_pass(self):
        code, result = bench(SHORT_RUN)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_wrong_pinned_digest_fails(self):
        pins = copy.deepcopy(elections.load_pins())
        first_pin(pins)["digest"] = "0" * 64
        self.assert_all_failed(*bench(SHORT_RUN, pins))

    def test_wrong_expected_tally_fails(self):
        with mock.patch.object(elections, "expected_tally", lambda sc: (sc.n + 1, 0)):
            self.assert_all_failed(*bench(SHORT_RUN))

    def test_wrong_pinned_count_fails(self):
        pins = copy.deepcopy(elections.load_pins())
        first_pin(pins)["counts"]["simnet.events"] += 1
        self.assert_all_failed(*bench(SHORT_RUN + ["--trace", "1"], pins))


class TracerTest(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        import votesim.baselines as baselines
        import votesim.chainvote as chainvote
        import votesim.crypto as crypto
        import votesim.spp as spp

        names = [(baselines, "verify_ballot"), (baselines, "combine"),
                 (baselines, "partial_decrypt"), (spp, "verify_ballot"), (spp, "combine"),
                 (spp, "partial_decrypt"), (chainvote, "verify_token"),
                 (chainvote, "mine_block"), (crypto, "verify_ballot")]
        before = [getattr(mod, name) for mod, name in names]
        with layers.Tracer().installed():
            for (mod, name), original in zip(names, before):
                self.assertIs(getattr(mod, name).__wrapped__, original, f"{mod.__name__}.{name}")
        self.assertEqual([getattr(mod, name) for mod, name in names], before)


if __name__ == "__main__":
    unittest.main(verbosity=2)
