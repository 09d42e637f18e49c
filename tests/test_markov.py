"""Transition matrices, k-step evolution, and stationary distributions."""

import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillsgraph import build_transition_matrix, stationary_distribution, step_distribution
from skillsgraph.errors import (
    CountsFormatError,
    EmptyCounts,
    NegativeCount,
    ShapeMismatch,
    StateMismatch,
)
from skillsgraph.markov import MAX_ITERATIONS, load_counts

SWAP = build_transition_matrix(["a", "b"], [[0, 1], [1, 0]])


def random_counts(rng, n):
    return [[rng.randint(0, 20) for _ in range(n)] for _ in range(n)]


class TestBuildMatrix:
    def test_row_normalization(self):
        tm = build_transition_matrix(["a", "b"], [[3, 1], [0, 4]])
        assert tm.matrix.tolist() == [[0.75, 0.25], [0.0, 1.0]]

    def test_zero_row_becomes_self_loop(self):
        tm = build_transition_matrix(["a", "b", "c"], [[0, 0, 0], [1, 1, 0], [0, 0, 5]])
        assert tm.matrix[0].tolist() == [1.0, 0.0, 0.0]

    def test_negative_count(self):
        with pytest.raises(NegativeCount):
            build_transition_matrix(["a", "b"], [[1, -1], [0, 1]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            build_transition_matrix(["a", "b"], [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ShapeMismatch):
            build_transition_matrix(["a", "b", "b"], [[1] * 3] * 3)

    def test_empty(self):
        with pytest.raises(EmptyCounts):
            build_transition_matrix([], [])

    def test_rows_sum_to_one(self):
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randint(1, 6)
            states = [f"s{i}" for i in range(n)]
            tm = build_transition_matrix(states, random_counts(rng, n))
            assert np.allclose(tm.matrix.sum(axis=1), 1.0, atol=1e-12)
            assert ((tm.matrix >= 0) & (tm.matrix <= 1)).all()

    def test_powers_stay_row_stochastic(self):
        rng = random.Random(10)
        for _ in range(20):
            n = rng.randint(2, 5)
            tm = build_transition_matrix([f"s{i}" for i in range(n)], random_counts(rng, n))
            power = np.linalg.matrix_power(tm.matrix, 32)
            assert np.allclose(power.sum(axis=1), 1.0, atol=1e-9)


class TestStepDistribution:
    def test_swap_one_step(self):
        assert step_distribution(SWAP, {"a": 1.0, "b": 0.0}) == {"a": 0.0, "b": 1.0}

    def test_zero_steps_identity(self):
        d = {"a": 0.3, "b": 0.7}
        assert step_distribution(SWAP, d, steps=0) == d

    def test_swap_period_two(self):
        assert step_distribution(SWAP, {"a": 1.0, "b": 0.0}, steps=2) == {"a": 1.0, "b": 0.0}

    def test_matches_matrix_power(self):
        rng = random.Random(21)
        for _ in range(20):
            n = rng.randint(2, 5)
            states = [f"s{i}" for i in range(n)]
            tm = build_transition_matrix(states, random_counts(rng, n))
            weights = [rng.random() + 0.01 for _ in range(n)]
            total = sum(weights)
            d = {s: w / total for s, w in zip(states, weights)}
            k = rng.randint(0, 6)
            got = step_distribution(tm, d, steps=k)
            want = np.array([d[s] for s in states]) @ np.linalg.matrix_power(tm.matrix, k)
            assert np.allclose([got[s] for s in states], want, atol=1e-10)
            assert sum(got.values()) == pytest.approx(1.0, abs=1e-10)
            assert all(v >= 0 for v in got.values())

    def test_state_mismatch(self):
        with pytest.raises(StateMismatch):
            step_distribution(SWAP, {"a": 1.0})
        with pytest.raises(StateMismatch):
            step_distribution(SWAP, {"a": 0.5, "zz": 0.5})

    def test_non_distribution_rejected(self):
        with pytest.raises(StateMismatch):
            step_distribution(SWAP, {"a": 0.5, "b": 0.6})
        with pytest.raises(StateMismatch):
            step_distribution(SWAP, {"a": -0.5, "b": 1.5})

    def test_negative_steps_rejected(self):
        with pytest.raises(StateMismatch):
            step_distribution(SWAP, {"a": 1.0, "b": 0.0}, steps=-1)

    @pytest.mark.parametrize("steps", [MAX_ITERATIONS + 1, 10**20])
    def test_steps_beyond_the_cap_rejected(self, steps):
        # refused before any step: 10**20 steps would never end
        with pytest.raises(StateMismatch, match=f"{MAX_ITERATIONS}"):
            step_distribution(SWAP, {"a": 1.0, "b": 0.0}, steps=steps)


class TestStationary:
    def test_hand_case(self):
        tm = build_transition_matrix(["a", "b"], [[9, 1], [5, 5]])
        pi = stationary_distribution(tm)
        assert pi["a"] == pytest.approx(5 / 6, abs=1e-9)
        assert pi["b"] == pytest.approx(1 / 6, abs=1e-9)

    def test_periodic_swap(self):
        pi = stationary_distribution(SWAP)
        assert pi == {"a": 0.5, "b": 0.5}

    def test_uniform_matrix(self):
        tm = build_transition_matrix(["a", "b"], [[1, 1], [1, 1]])
        pi = stationary_distribution(tm)
        assert pi["a"] == pytest.approx(0.5, abs=1e-9)

    def test_absorbing_state(self):
        tm = build_transition_matrix(["a", "b"], [[1, 1], [0, 0]])
        pi = stationary_distribution(tm)
        assert pi["b"] == pytest.approx(1.0, abs=1e-9)

    def test_residual_bound_random(self):
        rng = random.Random(33)
        for _ in range(50):
            n = rng.randint(1, 6)
            states = [f"s{i}" for i in range(n)]
            tm = build_transition_matrix(states, random_counts(rng, n))
            pi = stationary_distribution(tm)
            vec = np.array([pi[s] for s in states])
            assert np.abs(vec @ tm.matrix - vec).max() <= 1e-9
            assert vec.sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_residual_property(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        states = [f"s{i}" for i in range(n)]
        tm = build_transition_matrix(states, random_counts(rng, n))
        pi = stationary_distribution(tm)
        vec = np.array([pi[s] for s in states])
        assert np.abs(vec @ tm.matrix - vec).max() <= 1e-9


class TestCountsFile:
    def test_load(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,b\n9,1\n5,5\n")
        states, counts = load_counts(p)
        assert states == ["a", "b"]
        assert counts == [[9, 1], [5, 5]]

    @pytest.mark.parametrize(
        "text",
        ["", "a,b\n9\n5,5\n", "a,b\nx,1\n5,5\n", "a,\n1,2\n3,4\n"],
    )
    def test_malformed(self, tmp_path, text):
        p = tmp_path / "c.csv"
        p.write_text(text)
        with pytest.raises(CountsFormatError):
            load_counts(p)

    @pytest.mark.parametrize("digits", ["1" + "0" * 400, "-" + "9" * 400], ids=["huge", "huge_negative"])
    def test_count_beyond_a_float_names_the_line(self, tmp_path, digits):
        p = tmp_path / "c.csv"
        p.write_text(f"a,b\n9,1\n5,{digits}\n")
        with pytest.raises(CountsFormatError, match=r"line 3: counts must fit a float, got an integer of 40[01] digits"):
            load_counts(p)

    def test_cell_beyond_the_csv_field_limit_names_the_line(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("a,b\n9,1\n5," + "1" * 200_000 + "\n")
        with pytest.raises(CountsFormatError, match="line 3: field larger than field limit"):
            load_counts(p)

    def test_bundled_example(self):
        bundled = Path(__file__).resolve().parents[1] / "scenarios" / "case_study" / "transitions.csv"
        states, counts = load_counts(bundled)
        tm = build_transition_matrix(states, counts)
        pi = stationary_distribution(tm)
        assert pi["novice"] == pytest.approx(5 / 6, abs=1e-9)
