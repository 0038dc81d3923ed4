"""Tests of the benchmark itself: declarations, smoke passes, checks that bite.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import SINGLE_THREAD_ENV, checks, runner, workloads  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SMOKE = 0.02  # share of each Monte Carlo call's trials a smoke pass runs


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced():
    """A smoke traced run in an interpreter of its own, with one BLAS thread as
    run.py sets: the golden digests were recorded so."""
    code = ("import json; from pathlib import Path; from perfbench import runner; "
            "print(json.dumps(runner.run_traced("
            f"'exact', seed=3, seconds=0, root=Path.cwd(), scale={SMOKE})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
               **SINGLE_THREAD_ENV)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True, timeout=600)
    return tuple(json.loads(done.stdout.splitlines()[-1]))


def _declared(entries):
    return {(m["name"], m["unit"], m["better"]) for m in entries}


def test_declarations_match_benchmark_json(spec):
    assert _declared(spec["end_to_end"]) == {(m.name, m.unit, m.better) for m in END_TO_END}
    assert _declared(spec["per_layer"]) == {(m.name, m.unit, m.better) for m in PER_LAYER}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(m.owner in (*WORKLOADS, "mc", "all") for m in PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_emits_every_end_to_end_metric(spec, workload):
    result, info = runner.run_untraced(workload, seed=5, seconds=0, root=ROOT, scale=SMOKE,
                                       setup_repeats=1)
    assert result["correct"], info["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_call_groups_keep_order_and_least_time():
    calls = workloads.calls("exact")
    seconds = [0.01 * (i % 7) for i in range(len(calls))]
    groups = runner.call_groups(calls, [runner.Outcome(s) for s in seconds])
    assert [c for g in groups for c in g] == calls
    spent = iter(seconds)
    assert all(sum(next(spent) for _ in g) >= runner.GROUP_S for g in groups)


def test_traced_run_emits_every_per_layer_metric_and_replays_exactly(spec, traced):
    result, info = traced
    assert result["correct"], info["failures"]  # includes replay == library output
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_exact_calls_match_golden_digests(traced):
    # smoke passes shrink the Monte Carlo calls, so only exact's 59 digests can match
    result, _ = traced
    mc_calls = sum(len(workloads.calls(w)) for w in ("mc_dense", "spacings", "large_n"))
    assert result["metrics"]["experiments.golden_mismatch"]["value"] == mc_calls


def _corrupting(monkeypatch, command, corrupt):
    execute = runner.Client.execute

    def patched(self, call, seed, jobs=1):
        outcome = execute(self, call, seed, jobs)
        if call.argv and call.argv[0] == command:
            corrupt(outcome.results)
        return outcome

    monkeypatch.setattr(runner.Client, "execute", patched)


def test_perturbed_exact_value_is_counted_as_failed(monkeypatch):
    def corrupt(results):
        results["variance"] *= 1 + 1e-6

    _corrupting(monkeypatch, "exact-moments", corrupt)
    result, _ = runner.run_untraced("exact", seed=1, seconds=0, root=ROOT, setup_repeats=1)
    assert not result["correct"]
    assert result["failed"] == 2 * 45  # every exact-moments call, warm-up and timed pass


def test_forced_violation_is_counted_as_failed(monkeypatch):
    def corrupt(results):
        results["rows"][-1]["violations_n2d"] = 1

    _corrupting(monkeypatch, "spacings", corrupt)
    result, _ = runner.run_untraced("spacings", seed=1, seconds=0, root=ROOT, scale=SMOKE,
                                    setup_repeats=1)
    assert result["failed"] == 2 and not result["correct"]


@pytest.mark.parametrize("call", [c for w in ("mc_dense", "spacings", "large_n")
                                  for c in workloads.calls(w, SMOKE)][::2],
                         ids=lambda c: c.key)
def test_replay_mismatch_is_detected(call):
    from perfbench.replay import Tracer, parse, replay, replay_matches, wrapped_call

    args = parse(call.with_seed(11))
    lib, out = wrapped_call(args), replay(args, Tracer())
    assert replay_matches(args, lib, out)
    if isinstance(out, dict):  # per-n rows: shift the largest n's statistics or counts
        row = out[max(out)]
        out = {**out, max(out): row + 1 if isinstance(row, np.ndarray)
               else {**row, "counts": row["counts"] + 1}}
    else:
        out = out + 1
    assert not replay_matches(args, lib, out)


def test_check_rules_bite():
    coupling = {"bound": 1.0, "std_error": 0.01, "empirical_mean": 1.05, "tail_bound": 0.0,
                "horizon": 2}
    fixed = {"values": checks.seed_independent("coupling-check", coupling)}
    assert checks.check("coupling-check", None, coupling, fixed) == [
        "coupling bound + 3 SE exceeded"]
    clt = {"reports": [{"sample_size": 1000, "reference_variance": 1.0,
                        "empirical_variance": 1.5}],
           "moments": [], "reference_correlation": []}
    fixed = {"values": checks.seed_independent("clt", clt)}
    assert checks.check("clt", None, clt, fixed) == ["clt variance outside 5 standard errors"]
    assert checks.check("identities", None, {"all_pass": False}, {"values": {}}) == [
        "identity suite failed"]


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
