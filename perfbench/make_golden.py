#!/usr/bin/env python3
"""Rewrite golden.json: output digests of the first items of episode 0 of
every workload, for the default seed and one held-out seed.

    python3 perfbench/make_golden.py

Run it only when a change of output is intended; the benchmark compares
every run on these seeds against the committed digests.
"""

import json

from run import HERE, import_cbtk

SEEDS = (0, 2026)  # the default --seed and a held-out one


def main() -> None:
    import_cbtk()
    from workloads import WORKLOADS, digest
    golden = {
        w.name: {str(seed): [digest(w, w.call(item))
                             for item in w.episode(seed, 0)[:w.golden_prefix]]
                 for seed in SEEDS}
        for w in WORKLOADS.values()
    }
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
