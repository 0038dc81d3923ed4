"""Record reference.json: seed-independent values and golden digests.

    python3 perfbench/record.py

Run it only at a commit whose outputs are the accepted ones (it was run at
the seed commit), with one BLAS thread as ``run.py`` uses.  For every call of every workload it stores the values the
checks compare against and the digest of the results payload at GOLDEN_SEED.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import SINGLE_THREAD_ENV  # noqa: E402

os.environ.update(SINGLE_THREAD_ENV)  # before numpy is imported, as in run.py

from perfbench import checks, runner, workloads  # noqa: E402
from perfbench.metrics import WORKLOADS  # noqa: E402


def main() -> int:
    client = runner.Client({"calls": {}})
    calls = {}
    for w in WORKLOADS:
        for call in workloads.calls(w):
            outcome = client.execute(call, workloads.GOLDEN_SEED)
            if outcome.error:
                print(f"error: {call.key}: {outcome.error}", file=sys.stderr)
                return 1
            command = call.argv[0] if call.argv else "library"
            calls[call.key] = {
                "values": checks.seed_independent(command, outcome.results),
                "golden": checks.digest(outcome.results),
            }
    reference = {"golden_seed": workloads.GOLDEN_SEED, "calls": calls}
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(calls)} calls to {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
