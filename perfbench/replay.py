"""Library calls, and the traced replay of each call through public layer functions.

``wrapped_call`` runs the library function a CLI command wraps.  ``replay``
re-runs the same computation layer by layer, in the experiments' order of random
draws (trial_rng, then the sampler, then phases, then counting or spacings),
with a span around each call into a layer.  ``replay_matches`` checks that the
replay reproduced the library call's output exactly, so that the per-layer numbers
describe the program that the end-to-end numbers time.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import numpy as np

from permspectra import cesaro, ewens, experiments, limits, rng, spacings, spectral
from permspectra.cli import build_parser, parse_arc, parse_arcs, parse_endpoint

N_NUMERIC = 10**6  # the CLI's n_numeric for the reference covariance


class Tracer:
    """Span durations (ns) and counters, grouped by span name.

    With ``enabled`` false, ``call`` is a plain call, so the same replay code
    gives the untraced wall time that the tracing overhead is measured against.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: dict[str, list[int]] = defaultdict(list)
        self.counters: dict[str, list[float]] = defaultdict(list)

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = time.perf_counter_ns()
        out = fn(*args)
        self.spans[name].append(time.perf_counter_ns() - start)
        return out

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[name].append(value)

    def layer_ns(self) -> int:
        return sum(sum(v) for v in self.spans.values())


def _readme_arcs():
    return parse_arcs("irr:sqrt2,irr:golden;irr:e,irr:sqrt3")


def _endpoints():
    # (s, t, u, v) = (beta1, alpha1, beta2, alpha2) of the README arcs
    a1, a2 = _readme_arcs()
    return float(a1.beta), float(a1.alpha), float(a2.beta), float(a2.alpha)


LIBRARY_CALLS = {
    "covariance_D": lambda: limits.covariance_D(_readme_arcs(), N_NUMERIC).entries.tolist(),
    "covariance_Dtilde":
        lambda: limits.covariance_Dtilde(_readme_arcs(), N_NUMERIC).entries.tolist(),
    "c_numeric": lambda: limits.c_numeric(*_endpoints(), N_NUMERIC),
    "ctilde_numeric": lambda: limits.ctilde_numeric(*_endpoints(), N_NUMERIC),
}


@lru_cache(maxsize=None)
def parse(argv: tuple[str, ...]):
    """The CLI's own reading of an argv (cached: a pass repeats the same argvs)."""
    return build_parser().parse_args(list(argv))


# ---------------------------------------------------------------------------
# the library call each CLI command wraps
# ---------------------------------------------------------------------------


def _config(args, **kw):
    return experiments.ExperimentConfig(
        theta=args.theta, trials=args.trials, master_seed=args.seed, model=args.model, **kw
    )


def _meso_alpha(args):
    return parse_endpoint(args.alpha) if args.alpha else Fraction(0)


def wrapped_call(args):
    """The library call behind one CLI command, or None (``constants``)."""
    cmd = args.command
    if cmd == "clt":
        return experiments.run_clt_fixed(
            _config(args, n=args.n, arcs=parse_arcs(args.arcs)), jobs=args.jobs)
    if cmd == "mesoscopic":
        return experiments.run_mesoscopic(
            _config(args, n_schedule=tuple(args.n_list), gamma=args.gamma,
                    meso_alpha=_meso_alpha(args)), jobs=args.jobs)
    if cmd == "spacings":
        return experiments.run_spacings(args.n_list, args.theta, args.trials, args.seed,
                                        jobs=args.jobs)
    if cmd == "coupling-check":
        return experiments.run_coupling_check(args.n, args.theta, args.trials, args.seed,
                                              epsilon_tail=args.epsilon_tail, jobs=args.jobs)
    if cmd == "exact-moments":
        fn = spectral.exact_moments_mod if args.model == "mod" else spectral.exact_moments_perm
        return fn(args.n, args.theta, parse_arc(args.alpha, args.beta))
    if cmd == "identities":
        return _identities(args, Tracer(enabled=False))
    return None


def _identities(args, tr: Tracer):
    return (
        tr.call("cesaro.verify_mean_identity", cesaro.verify_mean_identity, args.n, args.theta),
        tr.call("cesaro.verify_harmonic_identity", cesaro.verify_harmonic_identity,
                args.n, args.theta),
        tr.call("cesaro.verify_quadratic_identity", cesaro.verify_quadratic_identity,
                args.n, args.theta),
        tr.call("cesaro.verify_telescoping", cesaro.verify_telescoping,
                args.n, max(1, args.n // 3), args.theta),
    )


# ---------------------------------------------------------------------------
# replays
# ---------------------------------------------------------------------------


def _sample(tr: Tracer, n: int, params, gen):
    counts = tr.call(f"ewens.sample_cycle_counts@{n}", ewens.sample_cycle_counts, n, params, gen)
    tr.count(f"ewens.cycles@{n}", counts.total_cycles())
    return counts


def _replay_clt(args, tr: Tracer):
    n, theta, arcs = args.n, args.theta, parse_arcs(args.arcs)
    exact = spectral.exact_moments_mod if args.model == "mod" else spectral.exact_moments_perm
    for a in arcs:
        tr.call(f"spectral.exact_moments_{args.model}@{n}", exact, n, theta, a)
    params = ewens.EwensParams(theta)
    out = np.empty((args.trials, len(arcs)), dtype=np.int64)
    for t in range(args.trials):
        gen = tr.call("rng.trial_rng", rng.trial_rng, args.seed, t)
        counts = _sample(tr, n, params, gen)
        if args.model == "mod":
            spectrum = tr.call("spectral.attach_phases", spectral.attach_phases, counts, gen)
            out[t] = [tr.call("spectral.count_arc_mod", spectral.count_arc_mod, spectrum, a)
                      for a in arcs]
        else:
            out[t] = [tr.call("spectral.count_arc_perm", spectral.count_arc_perm, counts, a)
                      for a in arcs]
    if args.model == "mod":
        tr.call("limits.covariance_Dtilde", limits.covariance_Dtilde, arcs, N_NUMERIC)
    else:
        tr.call("limits.covariance_D", limits.covariance_D, arcs, N_NUMERIC)
    return out


def _replay_mesoscopic(args, tr: Tracer):
    alpha = _meso_alpha(args)
    endpoint = alpha.value if isinstance(alpha, limits.DeclaredIrrational) else alpha
    params = ewens.EwensParams(args.theta)
    largest = max(args.n_list)
    out = {}
    for n in args.n_list:
        delta = float(n) ** (-args.gamma)
        arc = spectral.Arc(alpha=endpoint, beta=float(endpoint) + delta)
        row = {}
        if args.model == "perm" or n == largest:
            counts = np.empty(args.trials, dtype=np.int64)
            for t in range(args.trials):
                gen = tr.call("rng.trial_rng", rng.trial_rng, args.seed, t)
                cycle_counts = _sample(tr, n, params, gen)
                if args.model == "mod":
                    spectrum = tr.call("spectral.attach_phases", spectral.attach_phases,
                                       cycle_counts, gen)
                    counts[t] = tr.call("spectral.count_arc_mod", spectral.count_arc_mod,
                                        spectrum, arc)
                else:
                    counts[t] = tr.call("spectral.count_arc_perm", spectral.count_arc_perm,
                                        cycle_counts, arc)
            row["counts"] = counts
        if args.model == "mod":
            row["variance"] = tr.call(f"spectral.exact_moments_mod@{n}",
                                      spectral.exact_moments_mod, n, args.theta, arc).variance
        else:
            psi = tr.call(f"cesaro.psi_values@{n}", cesaro.psi_values, n, args.theta)
            omega = (tr.call("spectral.frac_parts", spectral.frac_parts, arc.beta, n)
                     - tr.call("spectral.frac_parts", spectral.frac_parts, arc.alpha, n))
            j = np.arange(1, n + 1, dtype=np.float64)
            row["mean"] = n * float(arc.width) - args.theta * float((psi * omega / j).sum())
        out[n] = row
    return out


def _replay_coupling(args, tr: Tracer):
    # time the uncached call, which every CLI invocation pays
    cache_clear = getattr(ewens.coupling_horizon, "cache_clear", None)
    if cache_clear is not None:
        cache_clear()
    tr.call("ewens.coupling_horizon", ewens.coupling_horizon,
            args.n, args.theta, args.epsilon_tail)
    params = ewens.EwensParams(args.theta)
    distances = np.empty(args.trials, dtype=np.int64)
    for t in range(args.trials):
        gen = tr.call("rng.trial_rng", rng.trial_rng, args.seed, t)
        sample = tr.call("ewens.sample_coupled", ewens.sample_coupled,
                         args.n, params, gen, args.epsilon_tail)
        distances[t] = tr.call("ewens.coupling_distance", ewens.coupling_distance, sample)
    return distances


def _totients(n: int) -> np.ndarray:
    phi = np.arange(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:  # p is prime
            phi[p::p] -= phi[p::p] // p
    return phi


def _distinct_angles(lengths, phi: np.ndarray) -> int:
    """Distinct eigenangles of the plain spectrum: the union of the j-th root
    grids, which has sum(phi(d)) points over every d dividing a present j."""
    present = np.zeros(len(phi), dtype=bool)
    for j in lengths:
        d = np.arange(1, j + 1)
        present[d[j % d == 0]] = True
    return int(phi[present].sum())


def _replay_spacings(args, tr: Tracer):
    params = ewens.EwensParams(args.theta)
    out = {}
    for idx, n in enumerate(args.n_list):
        phi = _totients(n) if tr.enabled else None
        data = np.empty((args.trials, 7), dtype=np.float64)
        for t in range(args.trials):
            gen = tr.call("rng.trial_rng", rng.trial_rng, args.seed + idx, t)
            counts = _sample(tr, n, params, gen)
            perm = tr.call(f"spacings.spacings_perm@{n}", spacings.spacings_perm, counts)
            spectrum = tr.call("spectral.attach_phases", spectral.attach_phases, counts, gen)
            mod = tr.call("spacings.spacings_mod", spacings.spacings_mod, spectrum)
            lcm = tr.call("spacings.max_pairwise_lcm", spacings.max_pairwise_lcm, counts)
            norm_p = spacings.normalized_spacings(perm)
            norm_m = spacings.normalized_spacings(mod)
            if tr.enabled:
                tr.count("spacings.distinct_angles", _distinct_angles(counts.counts, phi))
            data[t] = (
                norm_p.nD, norm_p.n2d, norm_m.nD, norm_m.n2d,
                float(n * perm.largest_exact.numerator < perm.largest_exact.denominator),
                float(n * n < lcm),
                float(mod.smallest > perm.smallest + 1e-12),
            )
        out[n] = data
    return out


def _replay_exact_moments(args, tr: Tracer):
    arc = parse_arc(args.alpha, args.beta)
    if args.model == "mod":
        # psi_values is timed on its own: exact_moments_mod spends part of its time in it
        tr.call(f"cesaro.psi_values@{args.n}", cesaro.psi_values, args.n, args.theta)
        fn = spectral.exact_moments_mod
    else:
        fn = spectral.exact_moments_perm
    return tr.call(f"spectral.exact_moments_{args.model}@{args.n}", fn, args.n, args.theta, arc)


_REPLAYS = {
    "clt": _replay_clt,
    "mesoscopic": _replay_mesoscopic,
    "coupling-check": _replay_coupling,
    "spacings": _replay_spacings,
    "exact-moments": _replay_exact_moments,
    "identities": _identities,
}


def replay(args, tr: Tracer):
    """Replay one CLI call layer by layer; None for commands without a replay."""
    fn = _REPLAYS.get(args.command)
    return None if fn is None else fn(args, tr)


def replay_library(name: str, tr: Tracer):
    return tr.call(f"limits.{name}", LIBRARY_CALLS[name])


def _fsum_mean(x: np.ndarray) -> float:
    return math.fsum(x.tolist()) / len(x)


def replay_matches(args, lib, out) -> bool:
    """True when the replay reproduced the library call's output exactly."""
    cmd = args.command
    if cmd == "clt":
        return np.array_equal(lib.counts, out)
    if cmd == "mesoscopic":
        largest = max(args.n_list)
        ok = True
        for row in lib.rows:
            mine = out[row.n]
            if args.model == "mod":
                ok &= row.variance == mine["variance"]
            else:
                ok &= row.variance == float(np.var(mine["counts"], ddof=1))
        report, mine = lib.report, out[largest]
        ok &= report.empirical_mean == _fsum_mean(mine["counts"])
        if args.model == "perm":
            ok &= report.reference_mean == mine["mean"]
        return bool(ok)
    if cmd == "coupling-check":
        return (lib.empirical_mean == float(np.mean(out))
                and lib.std_error == float(np.std(out, ddof=1) / math.sqrt(args.trials)))
    if cmd == "spacings":
        ok = True
        for row in lib.rows:
            data = out[row.n]
            for c, got in enumerate((row.nD, row.n2d, row.nD_mod, row.n2d_mod)):
                ok &= np.quantile(data[:, c], row.quantile_levels).tolist() == got
            ok &= [row.violations_nD, row.violations_n2d, row.violations_dtilde] == [
                int(data[:, c].sum()) for c in (4, 5, 6)]
        return bool(ok)
    return lib == out
