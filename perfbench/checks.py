"""Output checks behind ``failed``, and the reference values they compare with.

A call fails if it raised, returned non-zero, or its ``results`` payload
fails the check for its command:

* ``spacings``: every violation counter is zero (the bounds are theorems);
* ``coupling-check``: bound + 3 std_error - (empirical_mean + tail_bound) >= 0;
* ``identities``: ``all_pass``;
* ``clt``: per arc, |sample variance - exact variance| <= 5 standard errors of
  the variance estimator.  The CLI prints no fourth moment, so the standard
  error is the normal-theory one, exact variance * sqrt(2 / (m - 1));
* ``exact-moments`` with the modified model: mean = n * width;
* every seed-independent value (exact moments, identities, constants,
  reference correlations, exact mesoscopic variances, coupling bounds, the
  library calls) matches the value recorded at the seed commit to a relative
  1e-9 (``reference.json``), or to an absolute 1e-12 for values that are
  themselves cancellation residues near zero (off-diagonal correlations of
  nearly independent arcs).

KS p-values are never checked: integer counts cannot pass a KS test against
a continuous law at these variances (the lattice obstruction).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from permspectra.cli import parse_arc

REFERENCE_PATH = Path(__file__).with_name("reference.json")
RELATIVE_TOLERANCE = 1e-9
ABSOLUTE_TOLERANCE = 1e-12


def digest(results) -> str:
    """Digest of a results payload, as the CLI would serialise it."""
    text = json.dumps(results, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def seed_independent(command: str, results):
    """The part of a payload that does not depend on the seed or trial count."""
    if command == "exact-moments":
        return {"mean": results["mean"], "variance": results["variance"]}
    if command == "identities":
        return {k: [v["lhs"], v["rhs"]] for k, v in results.items() if isinstance(v, dict)}
    if command == "constants":
        return {k: v for k, v in results.items() if k not in ("case", "class")}
    if command == "clt":
        return {"moments": results["moments"],
                "reference_correlation": results["reference_correlation"]}
    if command == "mesoscopic":
        rows = results["rows"]
        return {
            "constant": results["constant"],
            "delta": [r["delta"] for r in rows],
            "target": [r["target"] for r in rows],
            "exact_variance": [r["variance"] for r in rows if r["variance_is_exact"]],
            "reference_mean": results["report"]["reference_mean"],
        }
    if command == "coupling-check":
        return {k: results[k] for k in ("bound", "tail_bound", "horizon")}
    if command == "spacings":
        return None
    return results  # library calls: the whole value is deterministic


def close(a, b) -> bool:
    """Recursive comparison of numbers to RELATIVE_TOLERANCE or ABSOLUTE_TOLERANCE."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= max(RELATIVE_TOLERANCE * max(abs(a), abs(b)), ABSOLUTE_TOLERANCE)
    return a == b


def _clt_ok(results) -> bool:
    for r in results["reports"]:
        m, exact = r["sample_size"], r["reference_variance"]
        se = exact * math.sqrt(2.0 / (m - 1))
        if not abs(r["empirical_variance"] - exact) <= 5.0 * se:
            return False
    return True


def _coupling_ok(results) -> bool:
    margin = results["bound"] + 3.0 * results["std_error"] - (
        results["empirical_mean"] + results["tail_bound"])
    return margin >= 0


def _spacings_ok(results) -> bool:
    return all(r[k] == 0 for r in results["rows"]
               for k in ("violations_nD", "violations_n2d", "violations_dtilde"))


def _mod_mean_ok(args, results) -> bool:
    expected = args.n * float(parse_arc(args.alpha, args.beta).width)
    return abs(results["mean"] - expected) <= 1e-12 * abs(expected)


def check(command: str, args, results, reference) -> list[str]:
    """Names of the checks a payload fails (empty when it passes).

    ``reference`` is this call's entry in ``reference.json`` or None; args is
    the parsed argv (None for library calls).
    """
    failures = []
    if command == "clt" and not _clt_ok(results):
        failures.append("clt variance outside 5 standard errors")
    if command == "coupling-check" and not _coupling_ok(results):
        failures.append("coupling bound + 3 SE exceeded")
    if command == "spacings" and not _spacings_ok(results):
        failures.append("spacing bound violated")
    if command == "identities" and results["all_pass"] is not True:
        failures.append("identity suite failed")
    if command == "exact-moments" and args.model == "mod" and not _mod_mean_ok(args, results):
        failures.append("mod mean differs from n * width")
    fixed = seed_independent(command, results)
    if fixed is not None:
        if reference is None:
            failures.append("no reference value recorded")
        elif not close(fixed, reference["values"]):
            failures.append("differs from the seed commit's reference values")
    return failures


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
