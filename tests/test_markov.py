"""Transition matrices, k-step evolution, and stationary distributions."""

import random
import warnings
from fractions import Fraction
from functools import reduce
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillsgraph import build_transition_matrix, stationary_distribution, step_distribution
from skillsgraph.errors import (
    ChainTooLarge,
    CountsFormatError,
    EmptyCounts,
    FloatRangeExceeded,
    NegativeCount,
    ShapeMismatch,
    StateMismatch,
)
from skillsgraph.markov import MAX_ITERATIONS, MAX_STATES, MAX_STEP_WORK, load_counts

SWAP = build_transition_matrix(["a", "b"], [[0, 1], [1, 0]])


def random_counts(rng, n):
    return [[rng.randint(0, 20) for _ in range(n)] for _ in range(n)]


def _solve(rows, rhs):
    """x with rows @ x == rhs, by Gauss-Jordan on Fractions; rows square and nonsingular."""
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(len(m)):
        pivot = next(i for i in range(c, len(m)) if m[i][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        for i in range(len(m)):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[-1] / row[i] for i, row in enumerate(m)]


def exact_chain(counts):
    """The row-stochastic matrix of integer counts, in Fractions."""
    n = len(counts)
    return [
        [Fraction(c, sum(row)) for c in row] if any(row) else [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(counts)
    ]


def closed_classes(P):
    """Each closed communicating class, as a sorted tuple, from the support of P."""
    n = len(P)
    reach = [[i == j or P[i][j] > 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [x or y for x, y in zip(reach[i], reach[k])]
    return sorted(
        {tuple(j for j in range(n) if reach[i][j]) for i in range(n)
         if all(reach[j][i] for j in range(n) if reach[i][j])}
    )


def exact_cesaro_limit(counts):
    """lim (1/K) sum_{k<K} d0 P^k from the uniform d0, in Fractions.

    It is sum_C h_C pi_C over the closed classes C: pi_C solves pi P = pi on
    C, and h_C is the mean over the start states of the probability of
    ending in C (h = P h on the transient states, 1 on C, 0 on the other
    classes). Transient states get 0.
    """
    P = exact_chain(counts)
    n = len(P)
    classes = closed_classes(P)
    transient = [i for i in range(n) if not any(i in C for C in classes)]
    pi = [Fraction(0)] * n
    for C in classes:
        # pi (P_C - I) = 0 and sum(pi) = 1: the last balance equation gives way to the sum
        balance = [[P[i][j] - (i == j) for i in C] for j in C][:-1]
        local = _solve(balance + [[1] * len(C)], [0] * (len(C) - 1) + [1])
        h = dict.fromkeys(C, Fraction(1))
        if transient:
            rows = [[(i == j) - P[i][j] for j in transient] for i in transient]
            h.update(zip(transient, _solve(rows, [sum(P[i][c] for c in C) for i in transient])))
        weight = sum(h.values()) / n
        for i, v in zip(C, local):
            pi[i] = weight * v
    return pi


def period(P, C):
    """The gcd of the return times to C[0] of up to 2 len(P) steps."""
    here, returns = {C[0]}, []
    for k in range(1, 2 * len(P) + 1):
        here = {j for i in here for j in range(len(P)) if P[i][j] > 0}
        if C[0] in here:
            returns.append(k)
    return reduce(gcd, returns)


def two_blocks(m, leak_ab, leak_ba):
    """Two uniform blocks A and B of m states each. State 0 of A moves to
    each state of A with (1 - leak_ab) / m and to state 0 of B with leak_ab;
    state 0 of B does the same with leak_ba.

    By symmetry the other states of A each hold (1 - leak_ab) times A's
    state 0, and the flow balance between the blocks is
    pi_A0 leak_ab = pi_B0 leak_ba. With leak_ba = 2 leak_ab, block A holds
    r / (1 + r) of the mass, where
    r = 2 (1 + (m - 1)(1 - leak_ab)) / (1 + (m - 1)(1 - leak_ba)).
    """
    counts = np.zeros((2 * m, 2 * m))
    counts[:m, :m] = counts[m:, m:] = 1.0
    counts[0, :m] = (1 - leak_ab) / m
    counts[0, m] = leak_ab
    counts[m, m:] = (1 - leak_ba) / m
    counts[m, 0] = leak_ba
    return build_transition_matrix([f"s{i}" for i in range(2 * m)], counts)


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

    def test_rows_keep_their_bits_and_sums_cannot_overflow(self):
        # each row is scaled by a power of two before it is divided by its
        # sum: exact, so a row whose sum fits a float divides as it did
        rng = random.Random(11)
        overflows = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            counts = [[rng.choice([0, 10**308, rng.randint(1, 10 ** rng.choice([1, 5, 17, 150, 300, 308]))])
                       for _ in range(n)] for _ in range(n)]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                tm = build_transition_matrix([f"s{i}" for i in range(n)], counts)
            for row, got in zip(counts, tm.matrix):
                row = np.asarray(row, dtype=float)
                if not row.any():
                    continue
                with np.errstate(over="ignore"):
                    total = row.sum()
                if np.isfinite(total):
                    assert got.tobytes() == (row / total).tobytes()
                else:
                    overflows += 1
                    assert got.sum() == pytest.approx(1.0, abs=1e-15)
        assert overflows > 0

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

    def test_work_beyond_the_cap_rejected(self):
        # 317 states is the fewest for which MAX_ITERATIONS steps pass the
        # cap; refused before the first of them
        n = 317
        assert MAX_ITERATIONS * (n - 1) ** 2 <= MAX_STEP_WORK < MAX_ITERATIONS * n**2
        tm = build_transition_matrix([f"s{i}" for i in range(n)], np.eye(n, dtype=int))
        uniform = {s: 1.0 / n for s in tm.states}
        with pytest.raises(ChainTooLarge) as exc:
            step_distribution(tm, uniform, MAX_ITERATIONS)
        assert str(exc.value) == (
            f"{MAX_ITERATIONS} steps over {n} states are {MAX_ITERATIONS * n**2} units of work "
            f"(steps x states^2), more than the cap of MAX_STEP_WORK = {MAX_STEP_WORK}"
        )
        assert step_distribution(tm, uniform, 2) == uniform


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

    def test_exact_cesaro_limit(self):
        # zero-heavy counts: all-zero rows, absorbing states, several closed
        # classes, transient states and periodic classes all occur
        rng = random.Random(20261019)
        seen = set()
        for _ in range(400):
            n = rng.randint(1, 8)
            counts = [[rng.randint(1, 9) if rng.random() < 0.35 else 0 for _ in range(n)] for _ in range(n)]
            want = exact_cesaro_limit(counts)
            assert sum(want) == 1
            states = [f"s{i}" for i in range(n)]
            pi = stationary_distribution(build_transition_matrix(states, counts))
            assert all(abs(Fraction(pi[s]) - w) <= 1e-15 for s, w in zip(states, want))
            P = exact_chain(counts)
            classes = closed_classes(P)
            seen.update(
                kind for kind, present in [
                    ("all-zero row", not all(map(any, counts))),
                    ("absorbing", any(len(C) == 1 for C in classes)),
                    ("several classes", len(classes) > 1),
                    ("transient", sum(map(len, classes)) < n),
                    ("periodic", any(period(P, C) > 1 for C in classes)),
                ] if present
            )
        assert seen == {"all-zero row", "absorbing", "several classes", "transient", "periodic"}

    @pytest.mark.parametrize(
        "m, leak_ab, leak_ba, share",
        [(200, 1e-6, 2e-6, 0.6666669), (100, 1e-5, 2e-5, 0.6666689), (25, 1e-4, 2e-4, 0.6666880)],
    )
    def test_two_blocks_with_small_leaks(self, m, leak_ab, leak_ba, share):
        # a chain that mixes slowly, where a small max|pi P - pi| does not
        # bound the error of a vector
        tm = two_blocks(m, leak_ab, leak_ba)
        pi = stationary_distribution(tm)
        got = sum(pi[s] for s in tm.states[:m])
        r = 2 * (1 + (m - 1) * (1 - leak_ab)) / (1 + (m - 1) * (1 - leak_ba))
        assert abs(got - r / (1 + r)) <= 1e-12
        assert got == pytest.approx(share, abs=1e-7)

    def test_shares_far_below_one_another(self):
        # a leaves for b, and b for c, with chance 1e-300; c returns to a
        big = 10**300
        pi = stationary_distribution(build_transition_matrix("abc", [[big, 1, 0], [0, big, 1], [1, 0, 0]]))
        assert pi["a"] == pytest.approx(0.5, rel=1e-12) and pi["b"] == pytest.approx(0.5, rel=1e-12)
        assert pi["c"] == pytest.approx(5e-301, rel=1e-12)

    @pytest.mark.parametrize(
        "counts",
        [
            # the exit from {a, b} to the absorbing c underflows to 0
            [[10**300, 1, 0], [10**300, 0, 1], [0, 0, 1]],
            # a holds about 1e-600 of c's share: back-substituted from a, c's overflows
            [[0, 0, 1], [1, 0, 10**300], [0, 1, 10**300]],
        ],
        ids=["outflow_underflows", "share_overflows"],
    )
    def test_probabilities_beyond_the_float_range(self, counts):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatRangeExceeded):
                stationary_distribution(build_transition_matrix("abc", counts))


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

    @pytest.mark.parametrize(
        "row", ["x", "1," * (MAX_STATES + 1) + "1", "1" * 200_000], ids=["not_a_count", "too_wide", "beyond_field_limit"]
    )
    def test_header_beyond_the_state_cap_is_refused_before_any_row(self, tmp_path, row):
        p = tmp_path / "c.csv"
        header = ",".join(f"s{i}" for i in range(MAX_STATES + 1))
        p.write_text(f"{header}\n{row}\n")
        with pytest.raises(ChainTooLarge) as exc:
            load_counts(p)
        assert str(exc.value) == (
            f"{p}: the header names {MAX_STATES + 1} states, more than the cap of MAX_STATES = {MAX_STATES}"
        )
        # one state fewer passes the cap, and the row's own error shows
        p.write_text(header.rsplit(",", 1)[0] + f"\n{row}\n")
        with pytest.raises(CountsFormatError):
            load_counts(p)

    def test_bundled_example(self):
        bundled = Path(__file__).resolve().parents[1] / "scenarios" / "case_study" / "transitions.csv"
        states, counts = load_counts(bundled)
        tm = build_transition_matrix(states, counts)
        pi = stationary_distribution(tm)
        assert pi["novice"] == pytest.approx(5 / 6, abs=1e-9)
