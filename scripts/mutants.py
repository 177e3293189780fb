#!/usr/bin/env python3
"""Mutation check for the security checks, and for the group memo's key that
verification reads: deleting or weakening any one of them must make a named
test file fail.

    python3 scripts/mutants.py

Each mutant is an exact source string, its replacement, and the test file
that must fail without the check. The script copies src/, tests/ and
pyproject.toml to a temporary directory, runs each named test file there
unmutated (it must pass), then applies one mutant at a time and runs only
its test file with ``pytest -x``. It exits 1 if a named file fails
unmutated, a mutant's source string is not found exactly once, or a
mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (what the mutant breaks, file, exact old string, replacement, test file that must fail)
MUTANTS = [
    ("verify_ballot: the OR-proof challenge check", "src/votesim/crypto/proofs.py",
     "        if (c.e0 + c.e1) % q != e:\n            return False\n", "",
     "tests/test_crypto.py"),
    ("verify_ballot: the OR-proof h-equation", "src/votesim/crypto/proofs.py",
     "            if group.exp(h, zv) != group.mul(bv_c, group.exp(bv, ev)):\n"
     "                return False\n", "",
     "tests/test_crypto.py"),
    ("verify_ballot: the sum-proof g-equation", "src/votesim/crypto/proofs.py",
     "    if group.exp(g, sp.z) != group.mul(sp.w1, group.exp(total.a, e_s)):\n"
     "        return False\n", "",
     "tests/test_crypto.py"),
    ("verify_ballot: the ciphertext subgroup check", "src/votesim/crypto/proofs.py",
     "        if not (group.is_element(ct.a) and group.is_element(ct.b)):\n"
     "            return False\n", "        pass\n",
     "tests/test_crypto.py"),
    ("HeliosVoter._verify_bulletin: accepted == len(ballots)", "src/votesim/baselines.py",
     "sum(tally) == accepted == len(ballots)", "sum(tally) == accepted",
     "tests/test_baselines.py"),
    ("HeliosHub.on_message: a voter's second ballot is ignored", "src/votesim/baselines.py",
     'if kind == "ballot" and 0 <= sender < self.params.n and sender not in self.ballots:',
     'if kind == "ballot" and 0 <= sender < self.params.n:',
     "tests/test_baselines.py"),
    ("SppVoter.on_message: a member's second ballot is ignored", "src/votesim/spp.py",
     'elif kind == "ballot" and sender in self.members and sender not in self.ballots:',
     'elif kind == "ballot" and sender in self.members:',
     "tests/test_spp.py"),
    ("SppVoter._parent_majority: a sender outside the parent cluster is refused",
     "src/votesim/spp.py",
     "        if sender not in self.parent_members:\n            return False\n", "",
     "tests/test_spp.py"),
    # Helios and SPP share the ballot rule and the share rule: each protocol's
    # tests must catch a break in them.
    ("count_ballots: a ballot counts only if its proofs verify (Helios)",
     "src/votesim/crypto/proofs.py",
     "if b is not None and verify_ballot(pk, *b)]", "if b is not None]",
     "tests/test_baselines.py"),
    ("count_ballots: a ballot counts only if its proofs verify (SPP)",
     "src/votesim/crypto/proofs.py",
     "if b is not None and verify_ballot(pk, *b)]", "if b is not None]",
     "tests/test_spp.py"),
    ("decrypt_tally: a wrong share is passed over (Helios)", "src/votesim/crypto/elgamal.py",
     "for subset in combinations(sorted(shares), pk.t):",
     "for subset in [sorted(shares)[: pk.t]]:",
     "tests/test_baselines.py"),
    ("decrypt_tally: a wrong share is passed over (SPP)", "src/votesim/crypto/elgamal.py",
     "for subset in combinations(sorted(shares), pk.t):",
     "for subset in [sorted(shares)[: pk.t]]:",
     "tests/test_spp.py"),
    ("combine: only the lowest t shares are interpolated", "src/votesim/crypto/elgamal.py",
     "idx = sorted(shares)[: pk.t]", "idx = sorted(shares)",
     "tests/test_crypto.py"),
    ("Group.hash_scalar: the memo key holds the domain", "src/votesim/crypto/group.py",
     "        key = (domain, parts)\n", "        key = parts\n",
     "tests/test_crypto.py"),
]


def run_tests(copy: Path, test_file: str) -> int:
    """pytest's exit code for test_file in the copy: 0 all passed, 1 some failed."""
    # No bytecode cache: a mutant and its restored source must never share one.
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test_file]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="votesim-mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", copy / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        for test_file in sorted({m[4] for m in MUTANTS}):
            if run_tests(copy, test_file) != 0:
                print(f"FAIL  {test_file} fails without any mutant")
                failures += 1
        for name, path, old, new, test_file in MUTANTS:
            target = copy / path
            source = target.read_text()
            if source.count(old) != 1:
                print(f"FAIL  {name}: the source string occurs {source.count(old)} times "
                      f"in {path}")
                failures += 1
                continue
            start = time.perf_counter()
            target.write_text(source.replace(old, new))
            try:
                code = run_tests(copy, test_file)
            finally:
                target.write_text(source)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            print(f"{verdict:9} {name}  ({test_file}, {time.perf_counter() - start:.1f} s)")
            failures += code != 1
    print(f"{len(MUTANTS)} mutants, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
