import argparse
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import permspectra
from permspectra import (
    NAMED_IRRATIONALS, EwensParams, attach_phases, cli, sample_cycle_counts, trial_rng,
)
from permspectra.cli import build_parser, main, parse_arcs, parse_endpoint
from permspectra.experiments import _CHUNK_TRIALS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestParsing:
    def test_endpoint_tokens(self):
        from fractions import Fraction

        assert parse_endpoint("0.25") == 0.25
        assert parse_endpoint("rat:3/8") == Fraction(3, 8)
        irr = parse_endpoint("irr:golden")
        assert 0.618 < float(irr) < 0.619

    def test_unknown_irrational(self):
        with pytest.raises(ValueError):
            parse_endpoint("irr:feigenbaum")

    def test_arc_list(self):
        arcs = parse_arcs("0.1,0.4;rat:1/2,rat:3/4")
        assert len(arcs) == 2
        assert float(arcs[1].alpha) == 0.5

    def test_declared_endpoints_enter_arcs_as_they_are(self):
        arc = parse_arcs("irr:sqrt2,irr:golden")[0]
        assert arc.alpha is NAMED_IRRATIONALS["sqrt2"] and arc.beta is NAMED_IRRATIONALS["golden"]

    def test_every_documented_endpoint_form_parses(self):
        # each ``prefix:...`` form that the module docstring advertises, its
        # letters read as integers, and each irr: name there
        forms = re.findall(r"``([a-z]+):([^`]*)``", cli.__doc__)
        assert {"rat", "irr"} <= {prefix for prefix, _ in forms}
        for prefix, body in forms:
            if prefix == "irr":
                assert body in NAMED_IRRATIONALS
                parse_endpoint(f"irr:{body}")
            else:
                parse_endpoint(f"{prefix}:" + re.sub(r"[a-z]+", "1", body))


#: the results of every constants case that the benchmark's exact workload calls
PINNED_CONSTANTS = [
    (("both-irrational-independent",),
     {"case": "both-irrational-independent", "c2": 0.16666666666666666, "s3": 0.25,
      "class": "BothIrrationalIndependent(alpha_value=0.41421356237309515, "
               "beta_value=0.6180339887498949)"}),
    (("rational-alpha", "--p", "1", "--q", "3"),
     {"case": "rational-alpha", "c2": 0.18518518518518517, "s3": 0.16666666666666666,
      "class": "RationalAlpha(p=1, q=3, beta_value=0.6180339887498949)"}),
    (("rational-beta", "--r", "3", "--s", "4"),
     {"case": "rational-beta", "c2": 0.17708333333333334, "s3": 0.1875,
      "class": "RationalBeta(alpha_value=0.6180339887498949, r=3, s=4)"}),
    (("both-rational", "--p", "1", "--q", "3", "--r", "3", "--s", "4"),
     {"case": "both-rational", "c2": 0.15393518518518517, "s3": 0.125,
      "class": "BothRational(p=1, q=3, r=3, s=4)"}),
    (("affine", "--p", "1", "--q", "3", "--r", "1", "--s", "2"),
     {"case": "affine", "c2": 0.1574074074074074, "s3": 0.25462962962962965,
      "class": "AffineRelated(p=1, q=3, r=1, s=2, alpha_value=0.6180339887498949)"}),
    (("ell-rational", "--p", "1", "--q", "3"),
     {"case": "ell-rational", "ell": 0.14814814814814814}),
    (("ell-irrational",), {"case": "ell-irrational", "ell": 0.16666666666666666}),
    (("meso-rational", "--p", "1", "--q", "3"),
     {"case": "meso-rational", "c2_meso": 0.18518518518518517}),
    (("meso-irrational",), {"case": "meso-irrational", "c2_meso": 0.16666666666666666}),
]


class TestCommands:
    def test_exact_moments_single_eigenangle(self, capsys):
        env = run_json(
            capsys, "exact-moments", "--n", "1", "--theta", "1",
            "--alpha", "0.2", "--beta", "0.7", "--model", "mod",
        )
        assert env["results"]["mean"] == pytest.approx(0.5)
        assert env["results"]["variance"] == pytest.approx(0.25)
        assert env["schema_version"] == "1"
        assert env["config_echo"]["n"] == 1

    def test_constants_independent_case(self, capsys):
        env = run_json(capsys, "constants", "--case", "both-irrational-independent")
        assert env["results"]["c2"] == pytest.approx(1 / 6, abs=1e-15)

    def test_constants_affine(self, capsys):
        env = run_json(
            capsys, "constants", "--case", "affine",
            "--p", "0", "--q", "1", "--r", "3", "--s", "2",
        )
        assert env["results"]["s3"] == pytest.approx(1 / 4 + 1 / 72)

    def test_constants_take_rationals_in_lowest_terms(self, capsys):
        # 2/6 is 1/3: the same constants, and the class text says 1/3
        want = dict(PINNED_CONSTANTS[1][1])
        assert run_json(capsys, "constants", "--case", "rational-alpha", "--p", "2",
                        "--q", "6")["results"] == want

    def test_constants_ell_and_meso(self, capsys):
        env = run_json(capsys, "constants", "--case", "ell-rational", "--p", "1", "--q", "2")
        assert env["results"]["ell"] == pytest.approx(1 / 8)
        env = run_json(capsys, "constants", "--case", "meso-rational", "--p", "0", "--q", "1")
        assert env["results"]["c2_meso"] == pytest.approx(1 / 3)

    @pytest.mark.parametrize("argv, results", PINNED_CONSTANTS,
                             ids=[argv[0] for argv, _ in PINNED_CONSTANTS])
    def test_constants_results_pinned(self, capsys, argv, results):
        assert run_json(capsys, "constants", "--case", *argv)["results"] == results

    def test_identities_pass(self, capsys):
        env = run_json(capsys, "identities", "--n", "500", "--theta", "0.7")
        assert env["results"]["all_pass"] is True
        assert env["results"]["max_relative_gap"] < 1e-8

    def test_sample_mod_includes_phases(self, capsys):
        env = run_json(
            capsys, "sample", "--n", "8", "--model", "mod",
            "--seed", "4", "--trials", "2",
        )
        trials = env["results"]["trials"]
        assert len(trials) == 2
        assert "phases" in trials[0]
        total = sum(int(j) * a for j, a in trials[0]["cycle_counts"].items())
        assert total == 8

    @pytest.mark.parametrize("n, model, trials", [
        (50, "perm", 3),
        (50, "mod", 3),
        (300, "mod", 80),
        (10_000, "perm", 5),
        (10_000, "mod", 5),
        (10_000, "mod", 83),
        (3, "mod", _CHUNK_TRIALS + 5),  # two chunks
    ])
    def test_sample_matches_one_trial_composition(self, capsys, n, model, trials):
        # the batch draws against trial_rng -> sample_cycle_counts -> attach_phases
        argv = ("sample", "--n", str(n), "--model", model, "--theta", "0.8",
                "--seed", "31", "--trials", str(trials))
        want = []
        for t in range(trials):
            rng = trial_rng(31, t)
            counts = sample_cycle_counts(n, EwensParams(0.8), rng)
            entry = {"cycle_counts": {str(j): a for j, a in sorted(counts.counts.items())}}
            if model == "mod":
                spectrum = attach_phases(counts, rng)
                entry["phases"] = spectrum.phases.tolist()
                entry["lengths"] = spectrum.lengths.tolist()
            want.append(entry)
        assert run_json(capsys, *argv)["results"] == {"trials": want}
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        if model == "mod":  # a row per cycle with its phase, as the JSON carries
            assert list(csv.reader(io.StringIO(out))) == [
                ["trial", "cycle_length", "phase", "schema_version"],
                *([str(t), str(j), format(phase, ".17g"), "1"] for t, entry in enumerate(want)
                  for j, phase in zip(entry["lengths"], entry["phases"])),
            ]
        else:
            assert list(csv.reader(io.StringIO(out))) == [
                ["trial", "cycle_length", "multiplicity", "schema_version"],
                *([str(t), j, str(a), "1"] for t, entry in enumerate(want)
                  for j, a in entry["cycle_counts"].items()),
            ]

    def test_clt_small(self, capsys):
        env = run_json(
            capsys, "clt", "--n", "200", "--arcs", "0.1,0.45",
            "--model", "mod", "--seed", "9", "--trials", "64",
        )
        assert len(env["results"]["reports"]) == 1
        assert env["results"]["reports"][0]["sample_size"] == 64

    def test_clt_with_exact_rational_arcs(self, capsys):
        env = run_json(
            capsys, "clt", "--n", "300", "--arcs", "rat:1/10,rat:3/5",
            "--model", "perm", "--seed", "12", "--trials", "64",
        )
        assert env["results"]["reports"][0]["sample_size"] == 64

    def test_mesoscopic_small(self, capsys):
        env = run_json(
            capsys, "mesoscopic", "--n-list", "500,1000", "--gamma", "0.5",
            "--alpha", "rat:0/1", "--model", "mod", "--seed", "3", "--trials", "32",
        )
        assert len(env["results"]["rows"]) == 2
        assert env["results"]["constant"] == pytest.approx(1 / 6)

    def test_mesoscopic_decimal_alpha_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "mesoscopic", "--n-list", "500", "--alpha", "0.5",
            "--seed", "3", "--trials", "16",
        )
        assert code == 1
        assert "rat:" in err

    def test_mesoscopic_constant_sample_refused(self, capsys):
        # at theta = 513 and n = 400 all 50 plain counts come out equal: their
        # variance is 0, so no normal law can be fitted to them
        code, out, err = run_cli(
            capsys, "mesoscopic", "--n-list", "100,400", "--model", "perm",
            "--theta", "513", "--trials", "50", "--seed", "1",
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: lattice KS needs a positive reference variance, got 0.0 for 50 samples\n"
        )

    def test_spacings_small(self, capsys):
        env = run_json(
            capsys, "spacings", "--n-list", "50,100", "--seed", "2", "--trials", "40",
        )
        rows = env["results"]["rows"]
        assert [r["n"] for r in rows] == [50, 100]
        assert rows[0]["violations_dtilde"] == 0

    def test_coupling_check_small(self, capsys):
        env = run_json(
            capsys, "coupling-check", "--n", "120", "--theta", "0.5",
            "--seed", "8", "--trials", "200",
        )
        res = env["results"]
        assert res["empirical_mean"] + res["tail_bound"] <= res["bound"] + 3 * res["std_error"]


class TestCliContract:
    def test_missing_seed_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["clt", "--n", "100", "--arcs", "0.1,0.3"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["identities", "--frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_constants_takes_no_theta(self, capsys):
        # the limit constants do not depend on theta; a --theta there used to
        # be echoed in config_echo without effect, negative or not
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--case", "both-irrational-independent", "--theta", "-5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --theta -5" in capsys.readouterr().err

    def test_runtime_failure_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "exact-moments", "--n", "1", "--alpha", "0.9", "--beta", "0.1",
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("exact-moments", "--n", "10", "--alpha", "rat:1/0", "--beta", "0.5"),
            ("mesoscopic", "--n-list", "100,0", "--seed", "1", "--trials", "10"),
            ("coupling-check", "--n", "0", "--seed", "1", "--trials", "10"),
            ("spacings", "--n-list", ",", "--seed", "1", "--trials", "10"),
            ("coupling-check", "--n", "5", "--seed", "1", "--trials", "1"),
            ("coupling-check", "--n", "10", "--theta", "-1", "--seed", "1", "--trials", "5"),
            ("spacings", "--n-list", "50", "--theta", "0", "--seed", "1", "--trials", "5"),
            ("exact-moments", "--n", "100", "--theta", "inf", "--alpha", "0.1", "--beta", "0.4"),
            ("exact-moments", "--n", "100", "--theta", "inf", "--alpha", "0.1", "--beta", "0.4",
             "--model", "mod"),
            ("identities", "--theta", "inf"),
            ("clt", "--n", "100", "--arcs", "0.1,0.3", "--theta", "inf", "--seed", "1",
             "--trials", "5"),
            ("exact-moments", "--n", "10", "--alpha", "0.1", "--beta", "0.5", "--theta", "1e308",
             "--model", "perm"),
            ("identities", "--n", "10", "--theta", "1e308"),
        ],
        ids=["zero-denominator", "zero-size", "coupling-n0", "empty-n-list", "one-trial",
             "coupling-negative-theta", "spacings-zero-theta", "exact-perm-infinite-theta",
             "exact-mod-infinite-theta", "identities-infinite-theta", "clt-infinite-theta",
             "exact-perm-huge-theta", "identities-huge-theta"],
    )
    def test_malformed_input_is_one_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("spacings", "--n-list", "50", "--seed", "1", "--trials", "4", "--jobs", "-3"),
             "--jobs must be >= 1, got -3"),
            (("clt", "--n", "5", "--arcs", "0.1,0.5", "--seed", "1", "--trials", "2",
              "--jobs", "0"), "--jobs must be >= 1, got 0"),
            (("coupling-check", "--n", "10", "--seed", "1", "--trials", "5",
              "--epsilon-tail", "nan"), "epsilon_tail must be positive and finite, got nan"),
            (("coupling-check", "--n", "10", "--seed", "1", "--trials", "5",
              "--epsilon-tail", "inf"), "epsilon_tail must be positive and finite, got inf"),
            (("exact-moments", "--n", "100", "--theta", "inf", "--alpha", "0.1", "--beta", "0.4"),
             "theta must be positive and finite, got inf"),
            (("exact-moments", "--n", "100", "--theta", "inf", "--alpha", "0.1", "--beta", "0.4",
              "--model", "mod"), "theta must be positive and finite, got inf"),
            (("identities", "--n", "100", "--theta", "inf"),
             "theta must be positive and finite, got inf"),
            (("clt", "--n", "100", "--arcs", "0.1,0.3", "--theta", "inf", "--seed", "1",
              "--trials", "5"), "theta must be positive and finite, got inf"),
            (("exact-moments", "--n", "10", "--alpha", "0.1", "--beta", "0.5", "--theta",
              "1e308", "--model", "perm"),
             "theta = 1e+308 exceeds 2**53, the guard against overflow in these sums"),
            (("identities", "--n", "10", "--theta", "1e308"),
             "theta = 1e+308 exceeds 2**53, the guard against overflow in these sums"),
            # an infinite theta made every trial one n-cycle (spacings) or
            # doubled the coupling horizon up to 2**40
            (("spacings", "--n-list", "50", "--theta", "inf", "--trials", "4", "--seed", "1"),
             "theta must be positive and finite, got inf"),
            (("coupling-check", "--n", "10", "--theta", "inf", "--trials", "5", "--seed", "1"),
             "theta must be positive and finite, got inf"),
            # n = 1 failed inside the telescoping probe, which needs j in [1, n-1]
            (("identities", "--n", "1"), "identities need n >= 2, got n = 1"),
            (("identities", "--n", "0"), "identities need n >= 2, got n = 0"),
            # rat:1/ ran as the integer 1; rat:a/3 named int()'s literal, not the token
            (("exact-moments", "--n", "10", "--alpha", "rat:1/", "--beta", "0.5"),
             "malformed rational 'rat:1/'; write rat:p/q with integers p and q"),
            (("exact-moments", "--n", "10", "--alpha", "rat:a/3", "--beta", "0.5"),
             "malformed rational 'rat:a/3'; write rat:p/q with integers p and q"),
            (("clt", "--n", "100", "--arcs", "0.1,rat:1/2/3", "--seed", "1", "--trials", "5"),
             "malformed rational 'rat:1/2/3'; write rat:p/q with integers p and q"),
            (("mesoscopic", "--n-list", "100", "--alpha", "rat:1", "--seed", "1",
              "--trials", "5"),
             "malformed rational 'rat:1'; write rat:p/q with integers p and q"),
            (("exact-moments", "--n", "10", "--alpha", "rat:/3", "--beta", "0.5"),
             "malformed rational 'rat:/3'; write rat:p/q with integers p and q"),
            (("exact-moments", "--n", "10", "--alpha", "rat:1_0/30", "--beta", "0.5"),
             "malformed rational 'rat:1_0/30'; write rat:p/q with integers p and q"),
            # a zero denominator ended in a ZeroDivisionError traceback
            (("constants", "--case", "ell-rational", "--p", "1", "--q", "0"),
             "delta: denominator must be >= 1, got 0"),
            (("constants", "--case", "meso-rational", "--q", "0"),
             "alpha: denominator must be >= 1, got 0"),
            # a rational or decimal irrational endpoint printed another class's
            # constants: c2 = 0.18519, s3 = 0.16667 where 1/3, 1/4 give 0.15394, 0.125
            (("constants", "--case", "rational-alpha", "--p", "1", "--q", "3",
              "--beta", "rat:1/4"), "irrational cases need an irr: endpoint"),
            (("constants", "--case", "rational-beta", "--alpha", "0.25"),
             "irrational cases need an irr: endpoint"),
            (("constants", "--case", "both-irrational-independent", "--alpha", "rat:1/5"),
             "irrational cases need an irr: endpoint"),
            (("constants", "--case", "both-irrational-independent", "--beta", "0.3"),
             "irrational cases need an irr: endpoint"),
            (("constants", "--case", "affine", "--alpha", "rat:1/5"),
             "irrational cases need an irr: endpoint"),
            (("constants", "--case", "ell-irrational", "--alpha", "rat:1/3"),
             "irrational cases need an irr: endpoint"),
            (("constants", "--case", "meso-irrational", "--alpha", "0.4"),
             "irrational cases need an irr: endpoint"),
            # the exact moments were computed and every trial sampled before
            # the KS report refused fewer than 8 samples
            (("clt", "--n", "100", "--arcs", "0.1,0.3", "--seed", "1", "--trials", "5"),
             "need at least 8 trials, got 5"),
            (("mesoscopic", "--n-list", "100", "--seed", "1", "--trials", "7"),
             "need at least 8 trials, got 7"),
            # sample printed {"trials": []} and exited 0
            (("sample", "--n", "5", "--seed", "1", "--trials", "-3"),
             "need trials >= 1, got -3"),
            (("sample", "--n", "5", "--seed", "1", "--trials", "0"), "need trials >= 1, got 0"),
            # the walk's int64 positions failed with "Python int too large to
            # convert to C long"
            (("sample", "--n", "10000000000000000000", "--seed", "1", "--trials", "2"),
             "n = 10000000000000000000 exceeds 2**62, the largest size a walk takes"),
            (("clt", "--n", "100", "--arcs", "0.1,0.2;", "--seed", "1", "--trials", "8"),
             "arc '' must be 'alpha,beta'"),
            # 1/theta**2 overflowed: numpy warnings, then NaN and Infinity printed
            (("identities", "--n", "500", "--theta", "1e-200"),
             "theta = 1e-200 is below 2**-500, the floor of the identity checks, "
             "whose sums reach 1/theta**2"),
            # psi(n, n) ~ n/theta overflowed: a numpy warning in the psi table
            (("exact-moments", "--model", "mod", "--n", "10000", "--theta", "1e-306",
              "--alpha", "0.2", "--beta", "0.7"),
             "theta = 1e-306 is below 2**-500, the floor of the modified exact moments, "
             "whose psi table reaches n/theta"),
        ],
        ids=["negative-jobs", "zero-jobs", "nan-epsilon-tail", "inf-epsilon-tail",
             "exact-perm-inf-theta", "exact-mod-inf-theta", "identities-inf-theta",
             "clt-inf-theta", "exact-perm-huge-theta", "identities-huge-theta",
             "spacings-inf-theta", "coupling-inf-theta", "identities-n1", "identities-n0",
             "rat-empty-denominator", "rat-letter-numerator", "rat-two-slashes",
             "rat-no-slash", "rat-empty-numerator", "rat-underscore", "ell-rational-q0",
             "meso-rational-q0", "rational-alpha-rat-beta", "rational-beta-decimal-alpha",
             "independent-rat-alpha", "independent-decimal-beta", "affine-rat-alpha",
             "ell-irrational-rat", "meso-irrational-decimal", "clt-five-trials",
             "mesoscopic-seven-trials", "sample-negative-trials", "sample-zero-trials",
             "sample-n-above-2-62",
             "clt-trailing-semicolon", "identities-tiny-theta", "exact-mod-tiny-theta"],
    )
    def test_bad_value_named_in_one_error_line(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ["mesoscopic", "--n-list", "10000,30000", "--model", "perm", "--seed", "1"],
        ["mesoscopic", "--n-list", "30000", "--model", "mod", "--seed", "1"],
        ["exact-moments", "--n", "30000", "--alpha", "0.1", "--beta", "0.3", "--model", "mod"],
        ["exact-moments", "--n", "30000", "--alpha", "0.1", "--beta", "0.3", "--model", "perm"],
        ["identities", "--n", "30000"],
        ["coupling-check", "--n", "30000", "--seed", "1"],
    ])
    def test_size_beyond_the_table_limit_refused_before_sampling(self, capsys, monkeypatch,
                                                                   argv):
        # a lowered limit stands in for n = 10^9, whose arrays would not fit in memory
        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before the size check")

        monkeypatch.setattr("permspectra.cesaro.TABLE_SIZE_LIMIT", 20_000)
        monkeypatch.setattr("permspectra.experiments.draw_batch", no_draws)
        monkeypatch.setattr("permspectra.experiments._nested_batches", no_draws)
        message = ("n = 30000 exceeds the size limit 20000 of a psi table "
                   "(up to 48 bytes per element at the peak)")
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("theta, message", [
        ("513", "theta = 513.0 exceeds 2**9, the limit of the plain-ensemble exact "
                "moments, whose cancellation loses digits in proportion to theta"),
        ("0.001", "theta = 0.001 is below 2**-6, the floor of the plain-ensemble exact "
                  "moments, whose cancellation loses digits as theta shrinks"),
    ], ids=["above", "below"])
    @pytest.mark.parametrize("argv", [
        ["exact-moments", "--n", "100", "--alpha", "0.1", "--beta", "0.3", "--model", "perm"],
        ["clt", "--n", "100", "--arcs", "0.1,0.3", "--model", "perm", "--seed", "1"],
    ])
    def test_plain_theta_beyond_the_accuracy_limit_refused_before_sampling(
        self, capsys, monkeypatch, argv, theta, message
    ):
        # the plain moments' cancellation grows with theta, and as it shrinks;
        # the modified ones, sums of non-negative terms, keep theta up to 2**53
        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before the theta check")

        monkeypatch.setattr("permspectra.experiments.draw_batch", no_draws)
        assert run_cli(capsys, *argv, "--theta", theta) == (1, "", f"error: {message}\n")
        if argv[0] == "exact-moments":
            code, out, _ = run_cli(capsys, *argv[:-1], "mod", "--theta", theta)
            assert code == 0 and json.loads(out)["results"]["variance"] > 0

    @pytest.mark.parametrize("theta", ["1e-17", "1e-310"])
    def test_coupling_theta_below_the_tail_floor_refused(self, capsys, theta):
        # the printed tail_bound was -2.06e-33 at 1e-17, and 1e-310 failed
        # to print its non-finite bound as JSON
        message = (f"theta = {float(theta)} is below 2**-17, the floor of the coupling tail "
                   "bound, whose cancellation loses digits as theta shrinks")
        argv = ("coupling-check", "--n", "1000", "--seed", "1", "--trials", "20", "--theta", theta)
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")

    def test_plain_mesoscopic_takes_theta_beyond_the_accuracy_limit(self, capsys):
        # its variances are Monte Carlo estimates, and the exact mean only
        # centres the KS report of a few hundred counts
        code, out, _ = run_cli(capsys, "mesoscopic", "--n-list", "100,400", "--gamma", "0.2",
                               "--model", "perm", "--theta", "513", "--trials", "50", "--seed", "1")
        assert code == 0 and len(json.loads(out)["results"]["rows"]) == 2

    @pytest.mark.parametrize("argv", [
        ["exact-moments", "--n", "10910", "--alpha", "0.1", "--beta", "0.3", "--model", "perm"],
        ["clt", "--n", "10910", "--arcs", "0.1,0.3", "--model", "perm", "--seed", "1"],
    ])
    def test_plain_covariance_beyond_its_share_of_the_limit_refused(self, capsys, monkeypatch,
                                                                    argv):
        # the FFT holds about 88 resident bytes per element (tracemalloc sees
        # 40-48), so n is capped at the limit times 48/88 (20000 -> 10909 here)
        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before the size check")

        monkeypatch.setattr("permspectra.cesaro.TABLE_SIZE_LIMIT", 20_000)
        monkeypatch.setattr("permspectra.experiments.draw_batch", no_draws)
        message = ("n = 10910 exceeds the size limit 10909 of the plain-ensemble covariance "
                   "(its FFT takes up to 88 bytes per element)")
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")
        out = run_json(capsys, "exact-moments", "--n", "10909", "--alpha", "0.1", "--beta", "0.3",
                       "--model", "perm")
        assert out["results"]["variance"] > 0

    def test_spacings_size_refused_before_any_trial(self, capsys, monkeypatch):
        # the mod spacings sort all n angles of a third of the trials
        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before the size check")

        monkeypatch.setattr("permspectra.experiments.draw_batch", no_draws)
        message = ("n = 1000000000 exceeds the size limit 40000000 of the sorted angles "
                   "of a trial (32-48 bytes per element)")
        assert run_cli(capsys, "spacings", "--n-list", "1000,1000000000", "--seed", "1") == (
            1, "", f"error: {message}\n"
        )

    def test_sample_beyond_the_table_limit_runs(self, capsys, monkeypatch):
        # a walked word holds only its ones, so sample takes no size cap
        monkeypatch.setattr("permspectra.cesaro.TABLE_SIZE_LIMIT", 20_000)
        out = run_json(capsys, "sample", "--n", "100000", "--seed", "1", "--trials", "1")
        assert sum(int(j) * a for j, a in out["results"]["trials"][0]["cycle_counts"].items()) == (
            100_000
        )

    def test_spacings_size_below_one_refused_before_any_trial(self, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before the size check")

        monkeypatch.setattr("permspectra.experiments.draw_batch", no_draws)
        argv = ("spacings", "--n-list", "5,-3", "--seed", "1", "--trials", "2")
        assert run_cli(capsys, *argv) == (1, "", "error: n must be >= 1, got -3\n")

    @pytest.mark.parametrize("argv", [
        ["exact-moments", "--n", "6000", "--alpha", f"rat:1/{2**60}", "--beta", "rat:1/4",
         "--model", "mod"],
        ["mesoscopic", "--n-list", "1000,6000", "--alpha", f"rat:1/{2**60}", "--model", "perm",
         "--seed", "1"],
        ["exact-moments", "--n", "5217", "--alpha", f"rat:1/{2**60}", "--beta", "0.75",
         "--model", "mod"],
        ["exact-moments", "--n", "6000", "--alpha", f"rat:1/{2**40}", "--beta", "0.75",
         "--model", "mod"],
        ["exact-moments", "--n", "6000", "--alpha", "0.25", "--beta", "0.75", "--model", "mod"],
    ])
    def test_huge_denominators_take_no_size_cap_of_their_own(self, capsys, monkeypatch, argv):
        # n q >= 2**62 takes Python-integer products, built a short run of j
        # at a time, so such n run up to the table's limit like any other
        monkeypatch.setattr("permspectra.cesaro.TABLE_SIZE_LIMIT", 20_000)
        results = run_json(capsys, *argv)["results"]
        variances = [row["variance"] for row in results.get("rows", [results])]
        assert variances and min(variances) > 0

    def test_import_leaves_heavy_scipy_modules_unloaded(self):
        # scipy.special alone was most of a CLI call's start-up; no command
        # imports scipy, and the process pool is imported only for --jobs > 1
        code = (
            "import sys, permspectra.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
            " or m == 'concurrent.futures.process'))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(permspectra.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert proc.stdout.strip() == "[]"

    def test_monte_carlo_commands_load_no_scipy(self):
        # the lattice KS report's Phi and Kolmogorov tail and the coupling
        # bound's digamma are computed from math alone
        code = (
            "import contextlib, io, sys\n"
            "from permspectra.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['clt', '--n', '200', '--arcs', '0.1,0.4;0.3,0.8',\n"
            "                 '--model', 'mod', '--seed', '1', '--trials', '50']) == 0\n"
            "    assert main(['mesoscopic', '--n-list', '400,1600', '--gamma', '0.5',\n"
            "                 '--model', 'perm', '--seed', '2', '--trials', '50']) == 0\n"
            "    assert main(['coupling-check', '--n', '100', '--theta', '0.5',\n"
            "                 '--seed', '3', '--trials', '50']) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(permspectra.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert proc.stdout.strip() == "[]"

    def test_exact_layer_leaves_scipy_fft_signal_special_unloaded(self):
        # the plain covariance's FFT is numpy.fft, and the identities need
        # no log-gamma
        code = (
            "import contextlib, io, sys\n"
            "from permspectra.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['exact-moments', '--model', 'perm', '--n', '6000',\n"
            "                 '--alpha', '0.2', '--beta', '0.7']) == 0\n"
            "    assert main(['identities', '--n', '300', '--theta', '0.7']) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('scipy.fft', 'scipy.signal', 'scipy.special'))))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(permspectra.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert proc.stdout.strip() == "[]"

    def test_plain_exact_moments_at_a_million_in_a_fresh_process(self):
        # the FFT cross term: n = 6000 was refused while it was an O(n^2) sum
        env = {**os.environ, "PYTHONPATH": str(Path(permspectra.__file__).parents[1])}
        argv = [sys.executable, "-m", "permspectra", "exact-moments", "--model", "perm",
                "--n", "1000000", "--alpha", "0", "--beta", "irr:golden"]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["variance"] == pytest.approx(4.371946, rel=1e-6)
        assert elapsed < 1.0

    # the telescoping row failed at large theta while it differenced
    # log-gamma values, and the harmonic row from theta = 1e-6 down while its
    # right side formed theta + 1 (a gap of 8.3e-8 at 1e-10)
    @pytest.mark.parametrize("n, theta", [
        ("10", "1e6"), ("10", "1e10"), ("10", "1e15"),
        ("500", "1e-6"), ("500", "1e-10"), ("500", "1e-16"), ("500", "1e-100"),
    ])
    def test_identities_pass_at_extreme_theta(self, capsys, n, theta):
        out = run_json(capsys, "identities", "--n", n, "--theta", theta)
        assert out["results"]["telescoping"]["pass"] is True
        assert out["results"]["all_pass"] is True

    def test_undefined_correlation_printed_as_null(self, capsys):
        # the first arc's 8 counts are all 0: numpy warned on stderr and the
        # output held NaN, which is not JSON; and while the correlation was
        # taken of the standardised counts, rounding in (0 - mean) / sd left
        # noise that printed as a correlation near 1
        code, out, err = run_cli(capsys, "clt", "--n", "3", "--arcs", "0.01,0.010001;0.5,0.9",
                                 "--model", "mod", "--seed", "1", "--trials", "8")
        assert (code, err) == (0, "")

        def refuse(constant):
            raise AssertionError(f"{constant} in the output")

        results = json.loads(out, parse_constant=refuse)["results"]
        assert results["reports"][0]["empirical_variance"] == 0.0
        corr = results["empirical_correlation"]
        assert corr[0] == [None, None] and corr[1][0] is None
        assert corr[1][1] == pytest.approx(1.0)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_result_is_one_error_line(self, capsys, monkeypatch, fmt):
        # "variance": Infinity was printed with exit 0 when psi(n, n) ~ n/theta
        # overflowed; the library now refuses that theta and any infinite
        # CountMoments, so a stand-in result reaches the writer's own guard
        def infinite(n, theta, arc):
            return SimpleNamespace(mean=n * float(arc.width), variance=math.inf)

        monkeypatch.setattr("permspectra.cli.exact_moments_mod", infinite)
        code, out, err = run_cli(capsys, "exact-moments", "--model", "mod", "--n", "10000",
                                 "--theta", "0.5", "--alpha", "0.2", "--beta", "0.7",
                                 "--format", fmt)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_byte_identical_reruns(self, capsys):
        argv = ["clt", "--n", "150", "--arcs", "0.1,0.6", "--model", "perm",
                "--seed", "77", "--trials", "48"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        a, b = json.loads(out1), json.loads(out2)
        a.pop("timing_ms"), b.pop("timing_ms")
        assert a == b

    def test_declared_arcs_cross_into_workers(self, capsys):
        # irr: endpoints reach the workers of --jobs 2 as pickled DeclaredIrrationals
        argv = ("clt", "--n", "300", "--arcs", "irr:sqrt2,irr:golden;irr:e,irr:sqrt3",
                "--model", "mod", "--seed", "4", "--trials", "40")
        payloads = [run_json(capsys, *argv, "--jobs", jobs)["results"] for jobs in ("1", "2")]
        assert payloads[0] == payloads[1]

    def test_jobs_do_not_change_results_payload(self, capsys):
        base = ["spacings", "--n-list", "60", "--seed", "5", "--trials", "36"]
        _, out1, _ = run_cli(capsys, *base, "--jobs", "1")
        _, out2, _ = run_cli(capsys, *base, "--jobs", "3")
        r1 = json.dumps(json.loads(out1)["results"], sort_keys=True)
        r2 = json.dumps(json.loads(out2)["results"], sort_keys=True)
        assert r1 == r2

    @pytest.mark.parametrize("argv", [
        ("clt", "--n", "10000", "--arcs", "0.1,0.6", "--model", "mod"),
        ("clt", "--n", "10000", "--arcs", "irr:sqrt2,irr:golden;rat:1/3,rat:5/7", "--model",
         "mod"),
        ("clt", "--n", "10000", "--arcs", "irr:sqrt2,irr:golden;rat:1/3,rat:5/7", "--model",
         "perm"),
        ("mesoscopic", "--n-list", "1000,10000,3000", "--model", "perm"),
        ("coupling-check", "--n", "1000"),
        ("spacings", "--n-list", "10000"),
    ], ids=["clt", "clt-mod-exact-arcs", "clt-perm-exact-arcs", "mesoscopic-perm",
            "coupling-check", "spacings"])
    def test_walk_results_independent_of_chunking(self, capsys, monkeypatch, argv):
        # 150 trials are one chunk at --jobs 1, two chunks of 75 at --jobs 2
        # and four of 38 or 36 at --jobs 4, or 150 chunks of one trial and 22
        # of seven with the chunk cap at 1 or 7; irr: and rat: endpoints and
        # each driver's draw and statistic cross into the workers pickled
        argv = (*argv, "--seed", "8", "--trials", "150")
        payloads = []
        for chunk, jobs in [*itertools.product((_CHUNK_TRIALS, 1, 7), ("1", "2")),
                            (_CHUNK_TRIALS, "4")]:
            monkeypatch.setattr("permspectra.experiments._CHUNK_TRIALS", chunk)
            payloads.append(run_json(capsys, *argv, "--jobs", jobs)["results"])
        assert len({json.dumps(p, sort_keys=True) for p in payloads}) == 1

    def test_csv_output_roundtrip(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact-moments", "--n", "40", "--theta", "1.3",
            "--alpha", "0.2", "--beta", "0.85", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["mean", "variance", "schema_version"]
        assert rows[1][2] == "1"
        mean, variance = float(rows[1][0]), float(rows[1][1])
        code, out, _ = run_cli(
            capsys, "exact-moments", "--n", "40", "--theta", "1.3",
            "--alpha", "0.2", "--beta", "0.85",
        )
        env = json.loads(out)
        # 17 significant digits round-trip exactly through the CSV cell
        assert mean == env["results"]["mean"]
        assert variance == env["results"]["variance"]


COMMANDS = ("sample", "exact-moments", "constants", "identities", "clt", "mesoscopic",
            "spacings", "coupling-check")

_FORMAT = {"format": ("json", False)}
_THETA = {"theta": (1.0, False), **_FORMAT}
_SEEDED = {**_THETA, "seed": (None, True), "trials": (2000, False)}
_STOCHASTIC = {**_SEEDED, "jobs": (1, False)}

#: dest -> (default, required) of every subcommand; config_echo is built from these
PINNED_ARGUMENTS = {
    "sample": {"n": (None, True), "model": ("perm", False), **_SEEDED},
    "exact-moments": {"n": (None, True), "alpha": (None, True), "beta": (None, True),
                      "model": ("perm", False), **_THETA},
    "constants": {"case": (None, True), "p": (0, False), "q": (1, False), "r": (1, False),
                  "s": (1, False), "alpha": (None, False), "beta": (None, False), **_FORMAT},
    "identities": {"n": (500, False), **_THETA},
    "clt": {"n": (None, True), "arcs": (None, True), "model": ("mod", False), **_STOCHASTIC},
    "mesoscopic": {"n_list": (None, True), "gamma": (0.5, False), "alpha": (None, False),
                   "model": ("mod", False), **_STOCHASTIC},
    "spacings": {"n_list": (None, True), **_STOCHASTIC},
    "coupling-check": {"n": (None, True), "epsilon_tail": (1e-3, False), **_STOCHASTIC},
}


def _subparser(parser, name):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


def _arguments(subparser):
    return {a.dest: (a.default, a.required) for a in subparser._actions if a.dest != "help"}


class TestLazyParser:
    """main builds only the subparser its argv names; help, errors and
    config_echo stay those of the full parser."""

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(COMMANDS) + "}" in out
        for name in COMMANDS:
            assert f"\n    {name} " in out

    def test_unknown_command_error_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--n", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'frobnicate'" in err
        # the list in order, whether or not argparse quotes the names
        listed = err.split("(choose from ", 1)[1].split(")", 1)[0]
        assert [name.strip().strip("'") for name in listed.split(",")] == list(COMMANDS)

    def test_usage_of_a_one_command_parser_lists_every_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["identities", "--n", "5", "surplus"])
        err = capsys.readouterr().err
        assert err.startswith(build_parser().format_usage())
        assert "{" + ",".join(COMMANDS) + "}" in err
        assert "unrecognized arguments: surplus" in err

    @pytest.mark.parametrize("name", COMMANDS)
    def test_arguments_match_the_pinned_table(self, name):
        assert _arguments(_subparser(build_parser(), name)) == PINNED_ARGUMENTS[name]
        assert _arguments(_subparser(build_parser([name]), name)) == PINNED_ARGUMENTS[name]

    def test_full_parser_without_argv(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert tuple(sub.choices) == COMMANDS

    @pytest.mark.parametrize("argv, built", [
        (["constants", "--case", "ell-rational", "--p", "1", "--q", "3"], 1),
        (["frobnicate"], len(COMMANDS)),
    ])
    def test_main_adds_only_the_named_subparser(self, capsys, monkeypatch, argv, built):
        added = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(self, name, **kwargs):
            added.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        try:
            main(argv)
        except SystemExit:
            pass
        assert len(added) == built
