"""Recompute and freeze the regression floors used by the acceptance gate.

Run from the repository root after an intentional behavior change:

    python3 scripts/freeze_regressions.py

Writes tests/data/regression_floors.json.  The acceptance tests assert
that the chang bucket ratio and every chain final ratio never fall below
these frozen values, and that the sweep's report digest (SHA-256 over
repr() of every chain report) is unchanged.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from _sweeps import chain_sweep, chang_min_ratio  # noqa: E402
from conftest import suite_instances  # noqa: E402


def main() -> None:
    violations, floors, digest = chain_sweep()
    if violations:
        raise SystemExit(f"exact-step violations present; refusing to freeze: {violations[:5]}")
    chang = chang_min_ratio(suite_instances())
    data = {
        "chang_ratio_floor": {"num": chang.numerator, "den": chang.denominator},
        "chain_final_floors": {
            key: {"num": r.numerator, "den": r.denominator}
            for key, r in sorted(floors.items())
        },
        "chain_report_digest": digest,
    }
    out = ROOT / "tests" / "data" / "regression_floors.json"
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    print(f"chang floor: {chang}")
    print(f"chain report digest: {digest}")
    for key, r in sorted(floors.items()):
        print(f"  {key}: {r}")


if __name__ == "__main__":
    main()
