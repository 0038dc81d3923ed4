"""Chunked trial seeding against its definition, numpy's own SeedSequence.

``trial_rngs(s, lo, hi)`` hashes a whole chunk of trial indexes at once; it
must hand out exactly the generators ``default_rng(SeedSequence((s, i)))``
of the installed numpy, state for state and draw for draw.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permspectra.cli import main
from permspectra.ewens import draw_batch
from permspectra.experiments import _run_trials
from permspectra.rng import trial_rng, trial_rngs
from permspectra.spectral import Arc, count_arcs_mod

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100]


def reference(seed, i):
    return np.random.default_rng(np.random.SeedSequence((seed, i)))


def assert_matches_seed_sequence(seed, lo, hi):
    got = list(trial_rngs(seed, lo, hi))
    assert len(got) == max(0, hi - lo)
    for i, rng in zip(range(lo, hi), got):
        ref = reference(seed, i)
        assert rng.bit_generator.state == ref.bit_generator.state, (seed, i)
        assert rng.random(4).tolist() == ref.random(4).tolist()
        assert rng.integers(2**63, size=3).tolist() == ref.integers(2**63, size=3).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_first_trials_match(seed):
    assert_matches_seed_sequence(seed, 0, 40)


@pytest.mark.parametrize("seed", SEEDS)
def test_chunk_straddling_two_word_indexes(seed):
    # below 2**32 an index is one entropy word, from there on two
    assert_matches_seed_sequence(seed, 2**32 - 3, 2**32 + 3)


@pytest.mark.parametrize("seed", SEEDS)
def test_chunk_of_two_word_indexes_up_to_the_last(seed):
    assert_matches_seed_sequence(seed, 2**64 - 5, 2**64)


@pytest.mark.parametrize("lo, hi", [(0, 0), (7, 7), (2**32, 2**32), (9, 3)])
def test_empty_chunks(lo, hi):
    assert list(trial_rngs(5, lo, hi)) == []


def test_long_seed_beyond_the_tabulated_constants():
    # 70 entropy words for the seed alone: the hash constants are computed per call
    assert_matches_seed_sequence(2**2230 + 12345, 3, 6)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**40), st.integers(0, 2**130)),
    lo=st.one_of(st.integers(0, 300), st.integers(2**32 - 20, 2**32 + 20),
                 st.integers(2**64 - 20, 2**64 - 1)),
    size=st.integers(-2, 12),
)
def test_property_matches_seed_sequence(seed, lo, size):
    assert_matches_seed_sequence(seed, lo, min(lo + size, 2**64))


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_negative_master_seed_refused(seed):
    with pytest.raises(ValueError):
        np.random.SeedSequence((seed, 0))
    with pytest.raises(ValueError, match="master seed must be non-negative"):
        trial_rngs(seed, 0, 4)
    with pytest.raises(ValueError, match="master seed must be non-negative"):
        trial_rngs(seed, 3, 3)  # also for an empty chunk


@pytest.mark.parametrize("lo, hi", [(-1, 3), (2**64 - 1, 2**64 + 1)])
def test_trial_indexes_outside_uint64_refused(lo, hi):
    with pytest.raises(ValueError, match="trial indexes must lie in"):
        trial_rngs(1, lo, hi)


@pytest.mark.parametrize("argv", [
    ["clt", "--n", "100", "--arcs", "0.1,0.3", "--seed", "-1"],
    ["sample", "--n", "10", "--seed", "-7"],
    ["spacings", "--n-list", "50", "--seed", "abc"],
])
def test_cli_refuses_bad_seed_at_parse_time(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before the seed was checked")

    monkeypatch.setattr("permspectra.cli.run_clt_fixed", no_work)
    monkeypatch.setattr("permspectra.cli.draw_batch", no_work)
    monkeypatch.setattr("permspectra.cli.run_spacings", no_work)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    errors = [line for line in out.err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "argument --seed: expected a non-negative integer" in errors[0]


def test_run_trials_rows_identical_across_jobs_and_to_per_trial_seeding():
    arcs = (Arc(0.1, 0.45), Arc(0.3, 0.9))
    seed, n, theta, trials = 17, 300, 0.7, 53
    expected = count_arcs_mod(
        draw_batch(n, theta, (trial_rng(seed, t) for t in range(trials)), phases=True), arcs
    )
    for jobs in (1, 2, 3):
        rows = _run_trials(count_arcs_mod, (arcs,), seed, n, theta, trials, jobs, phases=True)
        np.testing.assert_array_equal(rows, expected)
