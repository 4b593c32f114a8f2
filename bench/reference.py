"""Regenerate reference.json, the brute-force references the checks use.

    python3 bench/reference.py

Every value comes from `oracles`, never from sumprod: the exhaustive
minima scan all n-sets without canonicalizing, and the fixed large pair's
values are computed with Python sets and Counters (about a minute).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import oracles as orc

# (p, n) cells whose minimum of max{|A+A|, |AA|} the checks need
EXTREMAL_CELLS = ((13, 4), (17, 5), (19, 5), (23, 4), (29, 4), (31, 4))
RATIO_PRIMES = (5, 7, 11, 13, 17)
LARGE_FIXED_N = 4096
LARGE_FIXED_P = 65521
LARGE_FIXED_SEED = 4096


def fixed_pair():
    """The zero-free pair (A, B), |A| = |B| = 4096, at p = 65521."""
    rng = random.Random(LARGE_FIXED_SEED)
    p = LARGE_FIXED_P
    return rng.sample(range(1, p), LARGE_FIXED_N), rng.sample(range(1, p), LARGE_FIXED_N)


def build():
    a, b = fixed_pair()
    return {
        "extremal": {f"{p},{n}": list(orc.extremal_brute(p, n)) for p, n in EXTREMAL_CELLS},
        "ratio_threshold": {str(p): orc.ratio_threshold_brute(p) for p in RATIO_PRIMES},
        "large_pair": orc.pair_expectations(a, b, LARGE_FIXED_P),
    }


if __name__ == "__main__":
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
