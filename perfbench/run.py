"""Run one workload of the permspectra benchmark and print its metrics.

    python3 perfbench/run.py --workload mc_dense --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` of that checkout, never from an installed copy.  The last line of
standard output is the result object ``{correct, attempted, failed,
metrics}``; with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones.  The line before it records the run
environment, and the same record goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import SINGLE_THREAD_ENV  # noqa: E402
from perfbench.metrics import WORKLOADS  # noqa: E402

os.environ.update(SINGLE_THREAD_ENV)  # before permspectra imports numpy


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package() -> str:
    """Import permspectra from this checkout's src/; an error message if impossible."""
    src = ROOT / "src"
    if not (src / "permspectra" / "__init__.py").is_file():
        return f"no package source at {src / 'permspectra'}"
    sys.path.insert(0, str(src))
    import permspectra

    if Path(permspectra.__file__).resolve().parent != (src / "permspectra").resolve():
        return f"permspectra was imported from {permspectra.__file__}, not from {src}"
    return ""


def main(argv=None) -> int:
    args = _arguments(argv)
    problem = _import_package()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from perfbench import runner

    env = runner.environment(ROOT, args.workload, args.seed, args.trace)
    if args.trace:
        result, info = runner.run_traced(args.workload, args.seed, args.seconds, ROOT)
    else:
        result, info = runner.run_untraced(args.workload, args.seed, args.seconds, ROOT)
    record = {"environment": env, "info": info, "result": result}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    for metric, entry in result["metrics"].items():
        print(f"{metric:40s} {entry['value']:.6g} {entry['unit']}")
    for failure in info["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"environment": env, "info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
