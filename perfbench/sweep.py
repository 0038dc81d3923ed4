"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads mc_dense,exact] [--seconds 20]
        [--trace] [--write perfbench/baseline/untraced.json]

Each run is ``run.py`` in its own process, one after another.  For every
metric the table gives the median over the seeds, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median.  Spreads of
end-to-end metrics are compared with a third of their bound in
BENCHMARK.json.  ``--write`` stores every run's result and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default="mc_dense,spacings,large_n,exact")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    trace = int(args.trace)
    out = {"seconds": seconds, "trace": trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, trace) for seed in args.seeds]
        names = runs[0]["result"]["metrics"]
        summary = {}
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds[0]}..{args.seeds[-1]}")
        for name in names:
            stats = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            summary[name] = dict(stats, unit=names[name]["unit"])
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s" and stats["spread"] is not None:
                steady = stats["spread"] < bound / 3
                ok &= steady
                flag = "" if steady else f"  spread above bound/3 = {bound / 3:.3f}"
            spread = "-" if stats["spread"] is None else f"{stats['spread']:.3f}"
            print(f"  {name:38s} {stats['median']:12.6g} {names[name]['unit']:6s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {spread}{flag}")
        failed = sum(r["result"]["failed"] for r in runs)
        ok &= failed == 0 and all(r["result"]["correct"] for r in runs)
        print(f"  failed calls: {failed} of {sum(r['result']['attempted'] for r in runs)}")
        out["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.write:
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
