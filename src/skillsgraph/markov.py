"""Skill-state transitions as a row-stochastic Markov chain.

Transition probabilities come from observed movement counts between states.
A state with no observed departures is treated as absorbing (self-loop), which
keeps every row stochastic.

stationary_distribution computes the Cesaro limit lim (1/K) sum d0 P^k from
the uniform start. Evaluating the running average literally converges like
1/K, far too slowly for the tolerances promised here; power iteration on the
half-lazy chain Q = (P + I)/2 has the same limit (identical eigenvalue-1
projector, and Q damps every other unit-circle mode, periodic chains
included) and converges geometrically, so that is what runs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CountsFormatError,
    EmptyCounts,
    NegativeCount,
    NotConverged,
    ShapeMismatch,
    StateMismatch,
    open_text,
)
from .graph import finite_number

DIFF_TOLERANCE = 1e-10
RESIDUAL_TOLERANCE = 1e-9
MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class TransitionMatrix:
    states: tuple[str, ...]
    matrix: np.ndarray  # row-stochastic, shape (n, n)

    def to_dict(self) -> dict:
        return {"states": list(self.states), "matrix": self.matrix.tolist()}


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

    matrix = np.zeros_like(arr)
    for i, row_sum in enumerate(arr.sum(axis=1)):
        if row_sum == 0:
            matrix[i, i] = 1.0
        else:
            matrix[i] = arr[i] / row_sum
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
    """Push a distribution forward: d P^steps, for 0 <= steps <= MAX_ITERATIONS."""
    if not 0 <= steps <= MAX_ITERATIONS:
        raise StateMismatch(f"steps must be in [0, {MAX_ITERATIONS}], got {steps}")
    vec = _as_vector(tm, dist)
    for _ in range(steps):
        vec = vec @ tm.matrix
    return {s: float(v) for s, v in zip(tm.states, vec)}


def stationary_distribution(tm: TransitionMatrix) -> dict:
    """Stationary distribution reached from the uniform start.

    Iterates until successive iterates agree within 1e-10 (max norm), capped
    at 100000 rounds; the result must satisfy max|pi P - pi| <= 1e-9 or
    NotConverged is raised. Reducible chains yield one valid stationary
    distribution, with no uniqueness detection.
    """
    P = tm.matrix
    n = len(tm.states)
    lazy = 0.5 * (P + np.eye(n))
    d = np.full(n, 1.0 / n)
    iterations = 0
    while iterations < MAX_ITERATIONS:
        nxt = d @ lazy
        diff = float(np.max(np.abs(nxt - d)))
        d = nxt
        iterations += 1
        if diff < DIFF_TOLERANCE and _residual(d, P) <= RESIDUAL_TOLERANCE:
            break
    residual = _residual(d, P)
    if residual > RESIDUAL_TOLERANCE:
        raise NotConverged(
            f"no stationary distribution after {iterations} iterations "
            f"(residual {residual:.3e})"
        )
    d = d / d.sum()
    return {s: float(v) for s, v in zip(tm.states, d)}


def _residual(d: np.ndarray, P: np.ndarray) -> float:
    return float(np.max(np.abs(d @ P - d)))


# -- counts CSV -----------------------------------------------------------------
#
# Header row of state ids, then one row of integer counts per source state,
# in header order.


def load_counts(path) -> tuple[list[str], list[list[int]]]:
    with open_text(path, CountsFormatError, newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:  # a cell beyond the csv field limit, or a NUL before Python 3.11
            raise CountsFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise CountsFormatError(f"{path}: empty counts file")
    states = [s.strip() for s in rows[0]]
    if any(not s for s in states):
        raise CountsFormatError(f"{path}: blank state id in header")
    counts = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(states):
            raise CountsFormatError(
                f"{path}: line {lineno}: expected {len(states)} cells, got {len(row)}"
            )
        try:
            cells = [int(cell) for cell in row]
        except ValueError:
            raise CountsFormatError(f"{path}: line {lineno}: counts must be integers") from None
        wide = [len(str(cell)) for cell in cells if not finite_number(cell)]
        if wide:
            raise CountsFormatError(
                f"{path}: line {lineno}: counts must fit a float, got an integer of {wide[0]} digits"
            )
        counts.append(cells)
    return states, counts
