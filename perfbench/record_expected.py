"""Regenerate ``perfbench/expected.json`` from the library as it is now.

Run from the repository root: ``python3 perfbench/record_expected.py``.
Only do so when a change is meant to alter these outputs, and say which
outputs changed and why in the change's description: the benchmark
fails every run whose outputs differ from this file.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import (  # noqa: E402
    EXPECTED_PATH, N_INPUT_SEEDS, ChaosLoad, FabricDes, SuiteE12,
)


def main() -> None:
    expected = {}
    for cls in (FabricDes, ChaosLoad, SuiteE12):
        table = expected[cls.name] = {}
        for profile in ("full", "tiny"):
            seeds = [0] if cls is SuiteE12 else range(N_INPUT_SEEDS)
            rows = table[profile] = {}
            for seed in seeds:
                key = "all" if cls is SuiteE12 else str(seed)
                rows[key] = cls.expected_value(cls(profile, seed).compute())
                print(cls.name, profile, key, flush=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
