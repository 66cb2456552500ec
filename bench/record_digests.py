"""Record the sha256 of every unit's output into ``digests.json``.

    python3 bench/record_digests.py

Run it only when a change to nadops is meant to change its output bytes,
and say so in the change.  Every unit must report a pass; a failing unit
stops the recording.
"""

from __future__ import annotations

import json
import sys

from worker import DIGESTS, import_nadops, run_pass


def _record(units) -> dict[str, str]:
    result = run_pass(units, None)
    if result["failed"]:
        raise SystemExit("error: " + "; ".join(result["errors"]))
    return result["digests"]


def main() -> int:
    import_nadops()
    import workloads

    table = {
        "divergence": _record(workloads.build_units("divergence", 0)),
        "subdisc": _record(workloads.build_units("subdisc", 0)),
        "algebra": {str(i): _record(workloads.build_units("algebra", i))
                    for i in range(workloads.ALGEBRA_POOL)},
    }
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
