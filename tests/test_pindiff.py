"""scripts/pindiff.py on two hand-made pin files, in a throwaway git repository
that holds a copy of the script (it reads the pins beside it)."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pindiff.py"


def pin(run_seed, digest, events):
    return {"run_seed": run_seed, "digest": digest,
            "counts": {"simnet.events": events, "wire.digest.calls": events}}


PINS = {
    "dpol-ring": {"11": pin(7, "a" * 64, 100), "12": pin(11, "b" * 64, 120)},
    "helios-bulletin": {"21": pin(7, "c" * 64, 300), "22": pin(11, "d" * 64, 310)},
}


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=pins", "-c", "user.email=pins@example.com",
                    "-c", "commit.gpgsign=false", *args], cwd=repo, check=True,
                   capture_output=True)


@pytest.fixture
def repo(tmp_path):
    """A repository whose HEAD holds PINS in perfbench/pins.json."""
    (tmp_path / "scripts").mkdir()
    (tmp_path / "perfbench").mkdir()
    shutil.copy(SCRIPT, tmp_path / "scripts" / "pindiff.py")
    (tmp_path / "perfbench" / "pins.json").write_text(json.dumps(PINS))
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", ".")
    git(tmp_path, "commit", "-q", "-m", "pins")
    return tmp_path


def pindiff(repo, pins, *args):
    (repo / "perfbench" / "pins.json").write_text(json.dumps(pins))
    return subprocess.run([sys.executable, str(repo / "scripts" / "pindiff.py"), *args],
                          cwd=repo, capture_output=True, text=True)


def helios_moved():
    pins = copy.deepcopy(PINS)
    pins["helios-bulletin"]["22"] = pin(11, "e" * 64, 312)
    return pins


def test_unchanged_pins_exit_0(repo):
    done = pindiff(repo, PINS)
    assert done.returncode == 0
    assert done.stdout.splitlines() == ["dpol-ring: unchanged", "helios-bulletin: unchanged"]


def test_a_move_inside_expect_exits_0_and_says_what_moved(repo):
    done = pindiff(repo, helios_moved(), "HEAD", "--expect", "helios-bulletin")
    assert done.returncode == 0
    assert done.stdout.splitlines() == [
        "dpol-ring: unchanged",
        "helios-bulletin run seed 7: 0 of 1 elections moved",
        "helios-bulletin run seed 11: 1 of 1 elections moved",
        f"  election 22: digest {'d' * 12} -> {'e' * 12}; simnet.events 310 -> 312; "
        "wire.digest.calls 310 -> 312",
    ]


def test_a_move_outside_expect_exits_1(repo):
    done = pindiff(repo, helios_moved(), "--expect", "dpol-ring")
    assert done.returncode == 1
    assert done.stdout.splitlines()[-1] == "moved outside --expect: helios-bulletin"


def test_an_election_in_one_file_only_is_a_move(repo):
    pins = copy.deepcopy(PINS)
    del pins["dpol-ring"]["12"]
    done = pindiff(repo, pins)
    assert done.returncode == 1
    assert "  election 12: removed" in done.stdout.splitlines()
