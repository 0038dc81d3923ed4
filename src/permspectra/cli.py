"""Command-line driver with reproducible, machine-readable output.

Every command prints a JSON envelope on stdout:

    {"schema_version": "1", "command": ..., "config_echo": {...},
     "results": {...}, "timing_ms": ...}

or, with ``--format csv``, the tabular part of the results as RFC-4180
style CSV with a header row.  Stochastic commands require an explicit
``--seed``; identical argv reproduces identical results bit for bit
whatever ``--jobs`` says (``sample`` runs in one process and takes none),
only ``timing_ms`` may differ.

Arc endpoints accept plain decimals, exact rationals ``rat:p/q`` and named
irrationals ``irr:golden`` / ``irr:sqrt2`` / ``irr:sqrt3`` / ``irr:e`` /
``irr:pi`` (their fractional parts).  Exact tokens are what unlock the
closed-form constant machinery; a decimal is treated as just a number, never
as evidence of rationality or irrationality.  The ``constants`` command reads
an affine pair beta = p/q + (r/s) alpha from ``--case affine`` and its
``--p --q --r --s`` options.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import time
from dataclasses import asdict, astuple, fields, is_dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .ewens import draw_batch
from .experiments import (
    ExperimentConfig,
    MesoscopicRow,
    _run_trials,
    run_clt_fixed,
    run_coupling_check,
    run_mesoscopic,
    run_spacings,
)
from .limits import (
    AffineRelated,
    DeclaredIrrational,
    NAMED_IRRATIONALS,
    c2_closed,
    c2_meso,
    ell_closed,
    s3_closed,
)
from .cesaro import (
    check_theta,
    verify_harmonic_identity,
    verify_mean_identity,
    verify_quadratic_identity,
    verify_telescoping,
)
from .spectral import Arc, exact_moments_mod, exact_moments_perm

SCHEMA_VERSION = "1"

__all__ = ["main"]


# ---------------------------------------------------------------------------
# endpoint and arc parsing
# ---------------------------------------------------------------------------


def parse_endpoint(token: str):
    """Decimal, rat:p/q (-> Fraction) or irr:name (-> DeclaredIrrational)."""
    token = token.strip()
    if token.startswith("rat:"):
        match = re.fullmatch(r"(-?[0-9]+)/([0-9]+)", token[4:])
        if match is None:
            raise ValueError(f"malformed rational {token!r}; write rat:p/q with integers p and q")
        num, den = map(int, match.groups())
        if den == 0:
            raise ValueError(f"zero denominator in {token!r}")
        return Fraction(num, den)
    if token.startswith("irr:"):
        name = token[4:]
        if name not in NAMED_IRRATIONALS:
            raise ValueError(
                f"unknown irrational {name!r}; choose from {sorted(NAMED_IRRATIONALS)}"
            )
        return NAMED_IRRATIONALS[name]
    return float(token)


def parse_arc(alpha_token: str, beta_token: str) -> Arc:
    return Arc(alpha=parse_endpoint(alpha_token), beta=parse_endpoint(beta_token))


def parse_arcs(spec: str) -> tuple[Arc, ...]:
    """Semicolon-separated comma pairs: "a1,b1;a2,b2"."""
    arcs = []
    for chunk in spec.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"arc {chunk!r} must be 'alpha,beta'")
        arcs.append(parse_arc(parts[0], parts[1]))
    return tuple(arcs)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(envelope: dict, fmt: str, csv_rows) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(_jsonable(envelope), sort_keys=True, allow_nan=False) + "\n")
        return
    header, rows = csv_rows
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    # CSV has no envelope, so the schema version rides along as a column
    writer.writerow([*header, "schema_version"])
    for row in rows:
        writer.writerow([*(_csv_cell(c) for c in row), SCHEMA_VERSION])
    sys.stdout.write(buf.getvalue())


def _csv_cell(value):
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"a result is not finite ({value!r}); CSV carries finite numbers only")
        return format(value, ".17g")
    return value


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (results_dict, csv_rows)
# ---------------------------------------------------------------------------


def _sample_entries(batch) -> np.ndarray:
    """Each trial's JSON entry: cycle counts, and lengths and phases if drawn."""
    entries = np.empty(batch.trials, dtype=object)
    for t in range(batch.trials):
        cycles = slice(batch.starts[t], batch.starts[t + 1])
        lengths, multiplicity = np.unique(batch.lengths[cycles], return_counts=True)
        entry = {"cycle_counts": dict(zip(map(str, lengths.tolist()), multiplicity.tolist()))}
        if batch.phases is not None:
            entry["phases"] = batch.phases[cycles].tolist()
            entry["lengths"] = batch.lengths[cycles].tolist()
        entries[t] = entry
    return entries


def _cmd_sample(args):
    check_theta(args.theta)
    if args.trials < 1:
        raise ValueError(f"need trials >= 1, got {args.trials}")
    phases = args.model == "mod"
    trials = _run_trials(partial(draw_batch, args.n, args.theta, phases=phases),
                         _sample_entries, args.seed, args.trials, 1).tolist()
    if phases:  # a row per cycle, as the JSON's lengths and phases
        header = ["trial", "cycle_length", "phase"]
        rows = [
            (t, j, phase)
            for t, entry in enumerate(trials)
            for j, phase in zip(entry["lengths"], entry["phases"])
        ]
    else:
        header = ["trial", "cycle_length", "multiplicity"]
        rows = [
            (t, j, a)
            for t, entry in enumerate(trials)
            for j, a in entry["cycle_counts"].items()
        ]
    return {"trials": trials}, (header, rows)


def _cmd_exact_moments(args):
    arc = parse_arc(args.alpha, args.beta)
    if args.model == "mod":
        m = exact_moments_mod(args.n, args.theta, arc)
    else:
        m = exact_moments_perm(args.n, args.theta, arc)
    results = {"mean": m.mean, "variance": m.variance, "model": args.model}
    return results, (["mean", "variance"], [(m.mean, m.variance)])


#: constants case -> (its endpoints, then the class text of a pair or the
#: result key of one endpoint).  An endpoint is rational from two integer
#: options, with the name its errors use; irrational from an endpoint option
#: and its default token; or "affine", beta = p/q + (r/s) alpha.
_CONSTANT_CASES = {
    "both-irrational-independent": (
        ("alpha", "irr:sqrt2"), ("beta", "irr:golden"),
        "BothIrrationalIndependent(alpha_value={0!r}, beta_value={1!r})"),
    "rational-alpha": (
        ("p", "q", "alpha"), ("beta", "irr:golden"),
        "RationalAlpha(p={0.numerator}, q={0.denominator}, beta_value={1!r})"),
    "rational-beta": (
        ("alpha", "irr:golden"), ("r", "s", "beta"),
        "RationalBeta(alpha_value={0!r}, r={1.numerator}, s={1.denominator})"),
    "both-rational": (
        ("p", "q", "alpha"), ("r", "s", "beta"),
        "BothRational(p={0.numerator}, q={0.denominator}, r={1.numerator}, s={1.denominator})"),
    "affine": (
        ("alpha", "irr:golden"), "affine",
        "AffineRelated(p={1.p}, q={1.q}, r={1.r}, s={1.s}, alpha_value={0!r})"),
    "ell-rational": (("p", "q", "delta"), "ell"),
    "ell-irrational": (("alpha", "irr:golden"), "ell"),
    "meso-rational": (("p", "q", "alpha"), "c2_meso"),
    "meso-irrational": (("alpha", "irr:golden"), "c2_meso"),
}

_ONE_ENDPOINT_CONSTANTS = {"ell": ell_closed, "c2_meso": c2_meso}


def _constants_endpoint(args, spec):
    """One endpoint of a constants case, read from ``args`` as ``spec`` says."""
    if spec == "affine":
        return AffineRelated(args.p, args.q, args.r, args.s)
    if len(spec) == 3:
        num, den = getattr(args, spec[0]), getattr(args, spec[1])
        if den < 1:
            raise ValueError(f"{spec[2]}: denominator must be >= 1, got {den}")
        return Fraction(num, den)
    option, default = spec
    x = parse_endpoint(getattr(args, option) or default)
    if not isinstance(x, DeclaredIrrational):  # any other token would change the class
        raise ValueError("irrational cases need an irr: endpoint")
    return x


def _cmd_constants(args):
    *specs, text = _CONSTANT_CASES[args.case]
    ends = [_constants_endpoint(args, spec) for spec in specs]
    if len(ends) == 1:
        value = _ONE_ENDPOINT_CONSTANTS[text](ends[0])
        return {"case": args.case, text: value}, ([text], [(value,)])
    c2, s3 = c2_closed(*ends), s3_closed(*ends)
    results = {"case": args.case, "c2": c2, "s3": s3, "class": text.format(*ends)}
    return results, (["c2", "s3"], [(c2, s3)])


def _cmd_identities(args):
    if args.n < 2:  # the telescoping probe needs some j in [1, n-1]
        raise ValueError(f"identities need n >= 2, got n = {args.n}")
    checks = {}
    lhs, rhs = verify_mean_identity(args.n, args.theta)
    checks["mean"] = (lhs, rhs)
    lhs, rhs = verify_harmonic_identity(args.n, args.theta)
    checks["harmonic"] = (lhs, rhs)
    lhs, rhs = verify_quadratic_identity(args.n, args.theta)
    checks["quadratic"] = (lhs, rhs)
    j_probe = max(1, args.n // 3)
    lhs, rhs = verify_telescoping(args.n, j_probe, args.theta)
    checks["telescoping"] = (lhs, rhs)

    rows = []
    results = {}
    worst = 0.0
    for name, (left, right) in checks.items():
        gap = abs(left - right) / max(abs(right), 1e-300)
        tol = 1e-8 if name == "quadratic" else 1e-10
        ok = gap < tol
        worst = max(worst, gap)
        results[name] = {"lhs": left, "rhs": right, "relative_gap": gap, "pass": ok}
        rows.append((name, left, right, gap, ok))
    results["max_relative_gap"] = worst
    results["all_pass"] = all(v["pass"] for v in results.values() if isinstance(v, dict))
    header = ["identity", "lhs", "rhs", "relative_gap", "pass"]
    return results, (header, rows)


def _cmd_clt(args):
    config = ExperimentConfig(
        theta=args.theta,
        trials=args.trials,
        master_seed=args.seed,
        model=args.model,
        n=args.n,
        arcs=parse_arcs(args.arcs),
    )
    res = run_clt_fixed(config, jobs=args.jobs)
    results = {
        "reports": [_jsonable(r) for r in res.reports],
        "empirical_correlation": [[None if math.isnan(c) else c for c in row]  # NaN: equal counts
                                  for row in res.empirical_correlation.tolist()],
        "reference_correlation": res.reference_correlation.tolist(),
        "moments": [{"mean": m, "variance": v} for m, v in res.moments],
    }
    header = ["arc", "ks_statistic", "ks_p_value", "empirical_mean", "empirical_variance",
              "reference_mean", "reference_variance"]
    rows = [
        (k, r.ks_statistic, r.ks_p_value, r.empirical_mean, r.empirical_variance,
         r.reference_mean, r.reference_variance)
        for k, r in enumerate(res.reports)
    ]
    return results, (header, rows)


def _cmd_mesoscopic(args):
    alpha = parse_endpoint(args.alpha) if args.alpha else Fraction(0)
    if not isinstance(alpha, (Fraction, DeclaredIrrational)):
        raise ValueError(
            "mesoscopic anchor must be rat:p/q or irr:name; rationality cannot "
            "be inferred from a decimal"
        )
    config = ExperimentConfig(
        theta=args.theta,
        trials=args.trials,
        master_seed=args.seed,
        model=args.model,
        n_schedule=tuple(args.n_list),
        gamma=args.gamma,
        meso_alpha=alpha,
    )
    res = run_mesoscopic(config, jobs=args.jobs)
    header = [f.name for f in fields(MesoscopicRow)]
    return _jsonable(res), (header, [astuple(r) for r in res.rows])


def _cmd_spacings(args):
    res = run_spacings(args.n_list, args.theta, args.trials, args.seed, jobs=args.jobs)
    header = ["n", "statistic"] + [f"q{int(100 * q)}" for q in res.rows[0].quantile_levels]
    statistics = ("nD", "n2d", "nD_mod", "n2d_mod")
    rows = [(r.n, name, *getattr(r, name)) for r in res.rows for name in statistics]
    return _jsonable(res), (header, rows)


def _cmd_coupling_check(args):
    rep = run_coupling_check(
        args.n, args.theta, args.trials, args.seed,
        epsilon_tail=args.epsilon_tail, jobs=args.jobs,
    )
    results = _jsonable(rep)
    header = ["n", "theta", "empirical_mean", "std_error", "tail_bound", "bound", "horizon"]
    rows = [(rep.n, rep.theta, rep.empirical_mean, rep.std_error, rep.tail_bound,
             rep.bound, rep.horizon)]
    return results, (header, rows)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _master_seed(text: str) -> int:
    """--seed: SeedSequence takes non-negative integers only."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _add_common(p, stochastic: bool, theta: bool, jobs: bool) -> None:
    if theta:
        p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    if stochastic:
        p.add_argument("--seed", type=_master_seed, required=True,
                       help="master seed (required; no silent time seeding)")
        p.add_argument("--trials", type=int, default=2000)
    if jobs:
        p.add_argument("--jobs", type=int, default=1)


def _args_sample(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--model", choices=("perm", "mod"), default="perm")


def _args_exact_moments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--model", choices=("perm", "mod"), default="perm")


def _args_constants(p):
    p.add_argument("--case", required=True, choices=tuple(_CONSTANT_CASES))
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--alpha")
    p.add_argument("--beta")


def _args_identities(p):
    p.add_argument("--n", type=int, default=500)


def _args_clt(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--arcs", required=True, help="'a1,b1;a2,b2' endpoint tokens")
    p.add_argument("--model", choices=("perm", "mod"), default="mod")


def _args_mesoscopic(p):
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--alpha", help="rat:p/q or irr:name anchor (default rat:0/1)")
    p.add_argument("--model", choices=("perm", "mod"), default="mod")


def _args_spacings(p):
    p.add_argument("--n-list", type=_int_list, required=True)


def _args_coupling_check(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon-tail", type=float, default=1e-3)


#: name -> (help, argument adder, stochastic, handler)
_COMMANDS = {
    "sample": ("draw cycle structures (and phases)", _args_sample, True, _cmd_sample),
    "exact-moments": ("exact finite-n count moments for one arc", _args_exact_moments, False,
                      _cmd_exact_moments),
    "constants": ("closed-form limit constants", _args_constants, False, _cmd_constants),
    "identities": ("Cesàro-weight identity suite", _args_identities, False, _cmd_identities),
    "clt": ("fixed-arc normality experiment", _args_clt, True, _cmd_clt),
    "mesoscopic": ("shrinking-arc variance and normality", _args_mesoscopic, True,
                   _cmd_mesoscopic),
    "spacings": ("extremal spacing quantiles across sizes", _args_spacings, True,
                 _cmd_spacings),
    "coupling-check": ("Feller coupling distance vs bound", _args_coupling_check, True,
                       _cmd_coupling_check),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The CLI's parser; without ``argv`` every subcommand is complete.

    Given ``argv``, only the subcommand named by its first token gets its
    arguments: building all eight costs about 2 ms, more than most
    exact-moments calls compute.  If that token names no command (an
    option, a typo, nothing), the eight are added bare, so that the help and
    the invalid-choice error still list them all.
    """
    parser = argparse.ArgumentParser(
        prog="permspectra",
        description="Eigenvalue counting statistics for random permutation matrices",
    )
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    # a parser holding one subcommand would list only that one in its usage line
    metavar = "{" + ",".join(_COMMANDS) + "}" if named else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments, stochastic, _) in _COMMANDS.items():
        if named in (None, name):
            p = sub.add_parser(name, help=help_text)
            if argv is None or named:
                add_arguments(p)
                # limits need no theta, and sample draws in one process
                _add_common(p, stochastic, theta=name != "constants",
                            jobs=stochastic and name != "sample")
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    config_echo = dict(sorted(vars(args).items()))
    start = time.monotonic()
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        results, csv_rows = _COMMANDS[args.command][3](args)
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "config_echo": config_echo,
            "results": results,
            "timing_ms": int((time.monotonic() - start) * 1000),
        }
        _emit(envelope, args.format, csv_rows)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
