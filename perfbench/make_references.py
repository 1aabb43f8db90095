#!/usr/bin/env python3
"""Recompute ``references.json``: the digest of each workload's reference
prefix at full size, for the default and the confirmation seed.

Run from the repository root after a change that is meant to alter the
benchmark's outputs (never to make a failing run pass):

    python3 perfbench/make_references.py
"""

import json
import sys

import run

DEFAULT_SEED = 0
CONFIRMATION_SEED = 1000


def main() -> int:
    digests = {}
    for name in sorted(run.WORKLOADS):
        digests[name] = {}
        for seed in (DEFAULT_SEED, CONFIRMATION_SEED):
            failed, digest = run.prefix_digest(name, seed)
            if failed:
                print(f"{name} seed {seed}: {failed} items fail; no reference written",
                      file=sys.stderr)
                return 1
            digests[name][str(seed)] = digest
            print(f"{name} seed {seed}: {digest}")
    doc = {"default_seed": DEFAULT_SEED, "confirmation_seed": CONFIRMATION_SEED,
           "digests": digests}
    with open(run.REFERENCES, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
