"""Skill-state transitions as a row-stochastic Markov chain.

Transition probabilities come from observed movement counts between states.
A state with no observed departures is treated as absorbing (self-loop), which
keeps every row stochastic. The stationary distribution is exact up to
rounding: one pass of GTH state reduction, with no iteration or tolerance.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ChainTooLarge,
    CountsFormatError,
    EmptyCounts,
    FloatRangeExceeded,
    NegativeCount,
    ShapeMismatch,
    StateMismatch,
    open_text,
)
from .graph import finite_number

MAX_ITERATIONS = 100_000
# GTH takes O(n^3) time: 1.4 s at 1,000 states and 4.7 s at 1,500 (2 CPUs,
# Python 3.11, numpy 2.4), after a 0.3 s load of the 1,000-state file
MAX_STATES = 1_000
# one step is an n x n matrix product: 10,000 steps at 1,000 states took 1.8 s
MAX_STEP_WORK = 10_000_000_000  # steps x states^2


@dataclass(frozen=True)
class TransitionMatrix:
    states: tuple[str, ...]
    matrix: np.ndarray  # row-stochastic, shape (n, n)


def build_transition_matrix(states: Sequence[str], counts) -> TransitionMatrix:
    """Row-normalize a square nonnegative integer count matrix.

    counts[i][j] = observed moves states[i] -> states[j]. An all-zero row
    becomes a self-loop.
    """
    states = tuple(states)
    if not states:
        raise EmptyCounts("need at least one state")
    if len(set(states)) != len(states):
        raise ShapeMismatch("state ids must be unique")
    arr = np.asarray(counts, dtype=float)
    if arr.ndim != 2 or arr.shape != (len(states), len(states)):
        raise ShapeMismatch(
            f"counts must be {len(states)}x{len(states)}, got shape {arr.shape}"
        )
    if np.any(arr < 0):
        raise NegativeCount("counts must be >= 0")

    # exact power-of-two scaling, to a row maximum in [0.5, 1): no sum overflows
    arr = np.ldexp(arr, -np.frexp(arr.max(axis=1, keepdims=True))[1])
    sums = arr.sum(axis=1, keepdims=True)
    matrix = np.divide(arr, sums, out=np.eye(len(states)), where=sums > 0)  # a zero row: self-loop
    matrix.setflags(write=False)
    return TransitionMatrix(states=states, matrix=matrix)


def _as_vector(tm: TransitionMatrix, dist: Mapping[str, float]) -> np.ndarray:
    if set(dist) != set(tm.states):
        raise StateMismatch(
            f"distribution states {sorted(dist)} do not match chain states {sorted(tm.states)}"
        )
    vec = np.array([dist[s] for s in tm.states], dtype=float)
    if np.any(vec < 0) or abs(vec.sum() - 1.0) > 1e-9:
        raise StateMismatch("distribution must be nonnegative and sum to 1")
    return vec


def step_distribution(
    tm: TransitionMatrix, dist: Mapping[str, float], steps: int = 1
) -> dict:
    """Push a distribution forward: d P^steps, for 0 <= steps <= MAX_ITERATIONS
    and steps x states^2 <= MAX_STEP_WORK (ChainTooLarge)."""
    if not 0 <= steps <= MAX_ITERATIONS:
        raise StateMismatch(f"steps must be in [0, {MAX_ITERATIONS}], got {steps}")
    n = len(tm.states)
    if steps * n * n > MAX_STEP_WORK:
        raise ChainTooLarge(
            f"{steps} steps over {n} states are {steps * n * n} units of work (steps x states^2), "
            f"more than the cap of MAX_STEP_WORK = {MAX_STEP_WORK}"
        )
    vec = _as_vector(tm, dist)
    for _ in range(steps):
        vec = vec @ tm.matrix
    return {s: float(v) for s, v in zip(tm.states, vec)}


def stationary_distribution(tm: TransitionMatrix) -> dict:
    """Long-run share of time in each state from the uniform start d0.

    That is the Cesaro limit lim (1/K) sum_{k<K} d0 P^k: for a reducible
    chain, each closed class's own distribution weighted by the chance of
    ending in that class, and 0 on transient states. GTH state reduction
    (Grassmann, Taksar & Heyman, 1985; Stewart, 1994) eliminates the states
    last to first, adding P[i,k] P[k,j] / s_k to P[i,j] and moving k's start
    mass on alike, where s_k sums k's entries into the live states. A state
    with none on the exact support (a float product can underflow) is the
    root of its closed class and stays live; back-substitution from the
    roots gives each class. No subtraction or tolerance: O(n^3) time,
    O(n^2) memory, which load_counts bounds with MAX_STATES.
    FloatRangeExceeded if products of probabilities leave the float range.
    """
    n = len(tm.states)
    p = np.array(tm.matrix)  # censored to the live states as the pass goes
    support = p > 0
    live = np.ones(n, dtype=bool)
    mass = np.full(n, 1.0 / n)
    outflow = np.zeros(n)
    with np.errstate(all="ignore"):  # a range fault ends as NaN or inf, checked below
        for k in range(n - 1, -1, -1):
            live[k] = False
            if not support[k, live].any():
                live[k] = True
                continue
            out = np.where(live, p[k], 0.0)
            outflow[k] = out.sum()
            share = out / outflow[k]
            mass += mass[k] * share
            p[:k] += np.outer(p[:k, k], share)
            support[:k] |= np.outer(support[:k, k], support[k] & live)
        x = np.eye(n)[:, live]  # a column per root: its class's distribution, unnormalized
        for k in np.flatnonzero(~live):
            x[k] = p[:k, k] @ x[:k] / outflow[k]
        pi = x @ (mass[live] / x.sum(axis=0))
    if not np.isfinite(pi).all():
        raise FloatRangeExceeded("the chain's transition probabilities multiply beyond the float range")
    return {s: float(v) for s, v in zip(tm.states, pi)}


# -- counts CSV -----------------------------------------------------------------
#
# Header row of state ids, then one row of integer counts per source state,
# in header order.


def load_counts(path) -> tuple[list[str], list[list[int]]]:
    """The states and count rows of a counts file. The header is checked,
    and its state count against MAX_STATES (ChainTooLarge), before any
    further row is read."""
    with open_text(path, CountsFormatError, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise CountsFormatError(f"{path}: empty counts file")
            states = [s.strip() for s in header]
            if any(not s for s in states):
                raise CountsFormatError(f"{path}: blank state id in header")
            if len(states) > MAX_STATES:
                raise ChainTooLarge(
                    f"{path}: the header names {len(states)} states, more than the cap of MAX_STATES = {MAX_STATES}"
                )
            rows = list(reader)
        except csv.Error as exc:  # a cell beyond the csv field limit, or a NUL before Python 3.11
            raise CountsFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    counts = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(states):
            raise CountsFormatError(
                f"{path}: line {lineno}: expected {len(states)} cells, got {len(row)}"
            )
        try:
            cells = [int(cell) for cell in row]
        except ValueError:
            raise CountsFormatError(f"{path}: line {lineno}: counts must be integers") from None
        try:
            sum(map(float, cells))  # float() raises exactly where finite_number says no
        except OverflowError:
            wide = next(len(str(cell)) for cell in cells if not finite_number(cell))
            raise CountsFormatError(
                f"{path}: line {lineno}: counts must fit a float, got an integer of {wide} digits"
            ) from None
        counts.append(cells)
    return states, counts
