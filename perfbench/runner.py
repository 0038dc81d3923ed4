"""Timed passes (untraced runs) and the traced run.

Load shape: a closed loop, one client in one process, ``--jobs 1``.  Each call
starts when the previous one has returned, and starts with the package's
function caches empty, as it would in a fresh CLI process.  A pass is one
round over a workload's calls; the first pass of a run is an untimed warm-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

import permspectra
from permspectra.cli import main as cli_main

from . import calibrate, checks, workloads
from .metrics import END_TO_END, MC_WORKLOADS, PER_LAYER, WORKLOADS
from .replay import (
    LIBRARY_CALLS,
    Tracer,
    parse,
    replay,
    replay_library,
    replay_matches,
    wrapped_call,
)

SETUP_REPEATS = 3  # interpreter launches in each of three set-up blocks
GROUP_S = 0.05  # least time of the calls timed between two calibration units


# ---------------------------------------------------------------------------
# one call
# ---------------------------------------------------------------------------


def _cache_clearers():
    """cache_clear of every lru_cache'd function in the package."""
    clearers = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "permspectra" or module is None:
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and getattr(value, "__module__", "") == name:
                clearers.append(clear)
    return clearers


@dataclass
class Outcome:
    seconds: float
    results: object = None  # the CLI's results payload or the library value
    error: str = ""


class Client:
    """Runs calls the way a user does and checks what they return."""

    def __init__(self, reference: dict):
        self._clearers = _cache_clearers()
        self.reference = reference["calls"]
        self.attempted = 0
        self.failures: list[str] = []

    def _cold(self):
        for clear in self._clearers:
            clear()

    def execute(self, call: workloads.Call, seed: int, jobs: int = 1) -> Outcome:
        self._cold()
        if call.library is not None:
            start = time.perf_counter()
            value = LIBRARY_CALLS[call.library]()
            return Outcome(time.perf_counter() - start, value)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(list(call.with_seed(seed, jobs)))
        except (Exception, SystemExit) as exc:  # a failed call is counted, not fatal
            return Outcome(time.perf_counter() - start, error=f"raised {exc!r}")
        seconds = time.perf_counter() - start
        if code != 0:
            return Outcome(seconds, error=f"exit code {code}: {err.getvalue().strip()}")
        return Outcome(seconds, json.loads(out.getvalue())["results"])

    def run(self, call: workloads.Call, seed: int, jobs: int = 1) -> Outcome:
        """Execute and check one call; failures are recorded, never raised."""
        self.attempted += 1
        outcome = self.execute(call, seed, jobs)
        if not outcome.error:
            args = parse(call.with_seed(seed, jobs)) if call.argv else None
            command = args.command if args else "library"
            failed = checks.check(command, args, outcome.results, self.reference.get(call.key))
            outcome.error = "; ".join(failed)
        if outcome.error:
            self.failures.append(f"{call.key} (seed {seed}): {outcome.error}")
        return outcome

    def golden_mismatches(self, call: workloads.Call, outcome: Outcome) -> int:
        recorded = self.reference.get(call.key, {}).get("golden")
        return int(outcome.error != "" or recorded != checks.digest(outcome.results))


def timed_pass(client: Client, calls, seed: int, jobs: int = 1) -> tuple[float, list[Outcome]]:
    outcomes = [client.run(c, seed, jobs) for c in calls]
    return sum(o.seconds for o in outcomes), outcomes


def call_groups(calls, outcomes: list[Outcome]) -> list[list[workloads.Call]]:
    """Consecutive calls, grouped so that each group took at least GROUP_S in
    the pass that gave ``outcomes``; a short remainder joins the last group."""
    groups, group, spent = [], [], 0.0
    for call, outcome in zip(calls, outcomes):
        group.append(call)
        spent += outcome.seconds
        if spent >= GROUP_S:
            groups.append(group)
            group, spent = [], 0.0
    if group and groups:
        groups[-1].extend(group)
    elif group:
        groups.append(group)
    return groups


def calibrated_pass(client: Client, groups, seed: int) -> list[tuple[float, float]]:
    """Each group's wall time, with the mean calibration unit timed either side of it."""
    before = calibrate.unit_seconds()
    timed = []
    for group in groups:
        seconds = sum(client.run(call, seed).seconds for call in group)
        after = calibrate.unit_seconds()
        timed.append((seconds, (before + after) / 2))
        before = after
    return timed


# ---------------------------------------------------------------------------
# end-to-end metrics
# ---------------------------------------------------------------------------


def _launch(code: str, root: Path, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-B", "-c", code], cwd=root, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_seconds(root: Path, repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """Wall time of fresh interpreters that import permspectra.cli and exit,
    each with the mean of the reference launches timed either side of it."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    before = _launch(calibrate.REFERENCE_IMPORT, root, env)
    timed = []
    for _ in range(repeats):
        seconds = _launch("import permspectra.cli", root, env)
        after = _launch(calibrate.REFERENCE_IMPORT, root, env)
        timed.append((seconds, (before + after) / 2))
        before = after
    return timed


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """The highest of the percentiles 50..99 with at least ten samples above it."""
    ordered = sorted(values)
    best = (50, statistics.median(ordered))
    for level in (75, 90, 95, 99):
        index = int(len(ordered) * level / 100)
        if len(ordered) - index - 1 >= 10:
            best = (level, ordered[index])
    return best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload: str, seed: int, seconds: float, root: Path,
                 scale: float = 1.0, setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Timed passes for ``seconds``, with set-up timed before, halfway and after.

    ``wall_s`` is a pass at the host speed of ``calibrate.REFERENCE_S``.  The
    calls are timed in groups of consecutive calls (``call_groups``), with a
    calibration unit between groups.  Each group's time over the mean of the
    units either side of it, its median over the run's passes, summed over the
    groups and scaled by ``REFERENCE_S``, is ``wall_s``.  On a shared host the
    speed of the same code drifts by 10-40% over seconds to minutes, and the
    calibration unit drifts with it.  The run record keeps the raw times:
    every pass, the median and fastest pass, each group's fastest time summed,
    and the highest percentile that has ten passes above it.

    ``setup_s`` is a launch at the host speed of ``calibrate.REFERENCE_IMPORT_S``:
    the median over the run's launches of each launch's time over the mean of
    the reference launches either side of it, scaled by ``REFERENCE_IMPORT_S``.
    The record keeps the raw launch and reference times.
    """
    client = Client(checks.load_reference())
    calls = workloads.ordered(workloads.calls(workload, scale), seed)
    groups = call_groups(calls, timed_pass(client, calls, workloads.GOLDEN_SEED)[1])  # warm-up
    calibrate.unit_seconds()
    setup, passes = [], []
    elapsed = 0.0  # time in passes, set-up blocks excluded
    for share in (0.5, 1.0):
        setup += setup_seconds(root, setup_repeats)
        while not passes or elapsed < share * seconds:
            start = time.perf_counter()
            passes.append(calibrated_pass(client, groups, seed))
            elapsed += time.perf_counter() - start
    setup += setup_seconds(root, setup_repeats)
    per_group = list(zip(*passes))
    wall = calibrate.REFERENCE_S * sum(statistics.median(t / unit for t, unit in timed)
                                       for timed in per_group)
    walls = [sum(t for t, _ in timed) for timed in passes]
    units = [unit for timed in passes for _, unit in timed]
    per_pass = sum(c.trials for c in calls) or len(calls)
    level, tail = tail_percentile(walls)
    metrics = {
        "setup_s": calibrate.REFERENCE_IMPORT_S * statistics.median(t / ref for t, ref in setup),
        "wall_s": wall,
        "trials_per_s": per_pass / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"passes": len(walls), "pass_s_fastest": min(walls),
            "pass_s_median": statistics.median(walls), f"pass_s_p{level}": tail,
            "groups": len(groups), "groups_s_fastest": sum(min(t for t, _ in timed)
                                                           for timed in per_group),
            "unit_s_median": statistics.median(units), "unit_s_fastest": min(units),
            "pass_walls": walls, "setup_samples": [t for t, _ in setup],
            "setup_reference_samples": [ref for _, ref in setup], "trials_per_pass": per_pass}
    return _result(client, metrics, END_TO_END, info)


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


@dataclass
class TracedWorkload:
    """What the traced run measured on one workload, one entry per round."""

    cli: dict = field(default_factory=lambda: defaultdict(list))  # key -> CLI walls
    lib: dict = field(default_factory=lambda: defaultdict(list))  # key -> library walls
    spans: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(list)))
    counters: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(list)))
    self_s: list = field(default_factory=list)  # library pass wall - replayed layer time
    traced: list = field(default_factory=list)  # traced replay pass wall
    untraced: list = field(default_factory=list)  # untraced replay pass wall


def _trace_round(client: Client, calls, seed: int, rec: TracedWorkload) -> None:
    lib_wall = layer = traced = untraced = 0.0
    for call in calls:
        outcome = client.run(call, seed)
        rec.cli[call.key].append(outcome.seconds)
        tracer = Tracer()
        if call.library is not None:
            start = time.perf_counter()
            replay_library(call.library, tracer)
            traced += time.perf_counter() - start
            start = time.perf_counter()
            replay_library(call.library, Tracer(enabled=False))
            untraced += time.perf_counter() - start
            lib_wall += outcome.seconds
            rec.lib[call.key].append(outcome.seconds)
        else:
            args = parse(call.with_seed(seed))
            start = time.perf_counter()
            lib = wrapped_call(args)
            seconds = time.perf_counter() - start
            if lib is None:  # constants: no library call, no replay
                continue
            lib_wall += seconds
            rec.lib[call.key].append(seconds)
            start = time.perf_counter()
            out = replay(args, tracer)
            traced += time.perf_counter() - start
            start = time.perf_counter()
            replay(args, Tracer(enabled=False))
            untraced += time.perf_counter() - start
            client.attempted += 1
            if not replay_matches(args, lib, out):
                client.failures.append(f"{call.key} (seed {seed}): replay differs from the library call")
        layer += tracer.layer_ns() / 1e9
        for name, durations in tracer.spans.items():
            rec.spans[name][call.key].extend(durations)
        for name, values in tracer.counters.items():
            rec.counters[name][call.key].extend(values)
    rec.self_s.append(lib_wall - layer)
    rec.traced.append(traced)
    rec.untraced.append(untraced)


def _layer_value(layer, recs: dict[str, TracedWorkload]) -> float:
    rec = recs[layer.owner]
    if layer.unit == "count":
        per_call = rec.counters[layer.span]
        return statistics.fmean(statistics.fmean(v) for v in per_call.values())
    per_call = rec.spans[layer.span]
    scale = {"us": 1e3, "ms": 1e6}[layer.unit]
    return statistics.fmean(statistics.median(v) for v in per_call.values()) / scale


def run_traced(workload: str, seed: int, seconds: float, root: Path,
               scale: float = 1.0) -> tuple[dict, dict]:
    """Trace every workload once (each per-layer metric is taken on the workload
    it belongs to), then give the named workload extra rounds."""
    client = Client(checks.load_reference())
    recs = {w: TracedWorkload() for w in WORKLOADS}
    mismatched = 0
    start = time.perf_counter()
    for w in WORKLOADS:
        calls = workloads.ordered(workloads.calls(w, scale), seed)
        _, golden = timed_pass(client, calls, workloads.GOLDEN_SEED)  # also the warm-up
        mismatched += sum(client.golden_mismatches(c, o) for c, o in zip(calls, golden))
        _trace_round(client, calls, seed, recs[w])
    calls = workloads.ordered(workloads.calls(workload, scale), seed)
    deadline = start + seconds
    while time.perf_counter() < deadline:
        _trace_round(client, calls, seed, recs[workload])

    dense = workloads.calls("mc_dense", scale)
    wall1, one = timed_pass(client, dense, seed, jobs=1)
    wall2, two = timed_pass(client, dense, seed, jobs=2)
    if [checks.digest(o.results) for o in one] != [checks.digest(o.results) for o in two]:
        client.failures.append(f"mc_dense (seed {seed}): --jobs 2 results differ from --jobs 1")

    exact = recs["exact"]
    overhead = [statistics.median(exact.cli[k]) - statistics.median(exact.lib[k])
                for k in exact.lib if k not in workloads.LIBRARY_KEYS]
    metrics = {layer.name: _layer_value(layer, recs) for layer in PER_LAYER if layer.span}
    metrics.update({
        "experiments.self_s": sum(statistics.median(recs[w].self_s) for w in MC_WORKLOADS),
        "experiments.jobs2_speedup": wall1 / wall2,
        "experiments.golden_mismatch": mismatched,
        "cli.overhead_ms": statistics.fmean(overhead) * 1e3,
        "trace.overhead_frac": sum(statistics.median(r.traced) for r in recs.values())
        / sum(statistics.median(r.untraced) for r in recs.values()) - 1.0,
    })
    info = {"rounds": {w: len(r.traced) for w, r in recs.items()}}
    return _result(client, metrics, PER_LAYER, info)


# ---------------------------------------------------------------------------
# result
# ---------------------------------------------------------------------------


def _result(client: Client, values: dict, declared, info: dict) -> tuple[dict, dict]:
    """The result line, and what the run decided and saw besides."""
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in declared}
    result = {
        "correct": not client.failures,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": metrics,
    }
    return result, dict(info, failures=client.failures)


def environment(root: Path, workload: str, seed: int, trace: int) -> dict:
    """What the run ran on: commit, seed, machine and versions."""
    sha = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        sha = done.stdout.strip() or None
    cpu = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "git_sha": sha,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "jobs": 1,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "load_average": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "permspectra": getattr(permspectra, "__version__", None),
    }
