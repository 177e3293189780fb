"""Regenerate perfbench/pins.json: trace digests and exact counts.

Usage, from the root of the repository:

    python3 perfbench/pin.py

Runs the traced loop of measure.py on every input of the default and the
held-out workload seed and records, per election seed, the SHA-256 of the
rendered trace and the counts named in elections.EXACT_COUNTS. Re-pin only
when a change is meant to alter the simulated work or the trace bytes, and
say so where the change is described.
"""

from __future__ import annotations

import json

import run


def main() -> int:
    run.load_program()
    import elections
    import measure

    pins: dict[str, dict] = {}
    for name, wl in elections.WORKLOADS.items():
        pins[name] = {}
        for seed in (elections.DEFAULT_SEED, elections.HELD_OUT_SEED):
            gate = measure.Gate()
            elections.run_election(elections.warmup_scenario(wl, seed))
            _, _, records = measure.traced_loop(wl, seed, 0.0, {}, gate,
                                                min_pairs=elections.INPUTS)
            if gate.failed:
                print(f"{name} seed {seed}: {gate.failed} pairs failed; nothing written")
                return 1
            for rec in records:
                pins[name][str(rec["seed"])] = {
                    "run_seed": seed,
                    "digest": rec["digest"],
                    "counts": {k: rec[k] for k in elections.EXACT_COUNTS},
                }
            print(f"{name} seed {seed}: pinned {len(records)} elections")
    elections.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
