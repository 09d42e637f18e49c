"""Budgeted allocation, both modes, checked against exhaustive oracles.

The knapsack oracle enumerates every subset with exact integer arithmetic
(costs in cents, effectiveness as dyadic integers), so "equal objective"
means equality, not closeness. The fractional oracle walks the whole
0.01-step grid for tiny instances.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillsgraph import (
    SkillNode,
    allocate_fractional,
    build_graph,
    select_knapsack,
)
from skillsgraph.allocate import DEFAULT_MAX_CELLS, plan_to_dict
from skillsgraph.errors import (
    CostPrecisionError,
    CostResolutionExceeded,
    FloatRangeExceeded,
    NegativeBudget,
)
from skillsgraph.exact import scale_to_integers


def item_graph(items, capacities=None):
    """items: list of (effectiveness, cost); ids a, b, c, ... in order."""
    capacities = capacities or {}
    nodes = [
        SkillNode(chr(ord("a") + i), f"item {i}", f, c, capacities.get(i))
        for i, (f, c) in enumerate(items)
    ]
    return build_graph(nodes, [])


def knapsack_oracle(items, budget):
    """Best subset by exhaustive enumeration with exact arithmetic.

    Maximize total effectiveness; ties prefer fewer items, then the
    lexicographically smallest id tuple. Returns (ids, objective Fraction).
    """
    budget_cents = round(budget * 100)
    best = None
    ids = [chr(ord("a") + i) for i in range(len(items))]
    for mask in itertools.product([0, 1], repeat=len(items)):
        cost = sum(round(c * 100) for (f, c), bit in zip(items, mask) if bit)
        if cost > budget_cents:
            continue
        value = sum((Fraction(f) for (f, c), bit in zip(items, mask) if bit), Fraction(0))
        chosen = tuple(i for i, bit in zip(ids, mask) if bit)
        key = (-value, len(chosen), chosen)
        if best is None or key < best[0]:
            best = (key, chosen, value)
    return best[1], best[2]


class TestKnapsack:
    def test_three_item_fixture(self):
        g = item_graph([(6.0, 5.0), (5.0, 4.0), (4.0, 3.0)])
        sel = select_knapsack(g, 7.0)
        assert sel.chosen == ("b", "c")
        assert sel.objective == 9.0

    def test_zero_budget(self):
        g = item_graph([(6.0, 5.0), (5.0, 4.0)])
        sel = select_knapsack(g, 0.0)
        assert sel.chosen == ()
        assert sel.objective == 0.0

    def test_budget_slack_takes_everything(self):
        g = item_graph([(6.0, 5.0), (5.0, 4.0), (4.0, 3.0)])
        sel = select_knapsack(g, 100.0)
        assert sel.chosen == ("a", "b", "c")
        assert sel.objective == 15.0

    def test_tie_prefers_fewer_then_lexicographic(self):
        # {a} and {b, c} both reach 4.0 under budget; fewer items wins
        g = item_graph([(4.0, 2.0), (2.0, 1.0), (2.0, 1.0)])
        assert select_knapsack(g, 2.0).chosen == ("a",)
        # {a, d} and {b, c} tie on value and size; lexicographic set wins
        g = item_graph([(2.0, 1.0), (2.0, 1.0), (2.0, 1.0), (2.0, 1.0)])
        assert select_knapsack(g, 2.0).chosen == ("a", "b")

    def test_oracle_agreement_200_instances(self):
        rng = random.Random(2024)
        for trial in range(200):
            n = rng.randint(1, 12)
            items = [
                (rng.randint(0, 1000) / 100, rng.randint(0, 1000) / 100)
                for _ in range(n)
            ]
            budget = rng.randint(0, 2500) / 100
            g = item_graph(items)
            sel = select_knapsack(g, budget)
            want_ids, want_value = knapsack_oracle(items, budget)
            assert sel.chosen == want_ids, (trial, items, budget)
            # reported objective is the correctly-rounded float of the exact sum
            assert sel.objective == float(want_value), (trial, items, budget)

    def test_int64_keys_match_oracle(self):
        # effectiveness in 64ths keeps every DP key inside int64
        rng = random.Random(64)
        for trial in range(40):
            n = rng.randint(1, 11)
            items = [(rng.randint(0, 64) / 64, rng.randint(0, 400) / 100) for _ in range(n)]
            values, _ = scale_to_integers([f for f, _ in items])
            assert (sum(values) + 1) * (n + 1) < 2**62
            budget = rng.randint(0, 1800) / 100
            sel = select_knapsack(item_graph(items), budget)
            want_ids, want_value = knapsack_oracle(items, budget)
            assert sel.chosen == want_ids, (trial, items, budget)
            assert sel.objective == float(want_value), (trial, items, budget)

    def test_exact_python_int_keys_match_oracle(self):
        # 1e300 next to 1e-300 needs integers far beyond int64; the tiny
        # values can still decide between otherwise equal big sums
        rng = random.Random(300)
        choices = [1e300, 0.5e300, 1e-300, 3e-300, 0.0, 1.0]
        for trial in range(40):
            n = rng.randint(2, 10)
            items = [(rng.choice(choices), rng.randint(0, 8) / 2) for _ in range(n)]
            items[0] = (1e300, items[0][1])
            items[1] = (1e-300, items[1][1])
            values, _ = scale_to_integers([f for f, _ in items])
            assert (sum(values) + 1) * (n + 1) >= 2**62
            budget = rng.randint(0, 1600) / 100
            sel = select_knapsack(item_graph(items), budget)
            want_ids, want_value = knapsack_oracle(items, budget)
            assert sel.chosen == want_ids, (trial, items, budget)
            assert sel.objective == float(want_value), (trial, items, budget)

    def test_memory_near_the_cell_cap(self):
        # 99 nodes x 99,901 budget cells, just under the cap. Nine "g" nodes
        # fill the budget exactly; "h" ties each of them but sorts after,
        # and the cheap "d" nodes are worth far less per cent.
        nodes = [SkillNode(f"g{i}", "gold", 100.0, 111.0) for i in range(9)]
        nodes.append(SkillNode("h", "twin", 100.0, 111.0))
        nodes += [SkillNode(f"d{i:02d}", "decoy", 1.0, 11.1) for i in range(89)]
        g = build_graph(nodes, [])
        budget = 999.0
        cells = (len(g.nodes) + 1) * (round(budget * 100) + 1)
        assert cells == 9_990_100 <= DEFAULT_MAX_CELLS
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            sel = select_knapsack(g, budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sel.chosen == tuple(f"g{i}" for i in range(9))
        assert sel.objective == 900.0
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_budget_monotonicity(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 8)
            items = [(rng.randint(0, 900) / 100, rng.randint(1, 900) / 100) for _ in range(n)]
            g = item_graph(items)
            budgets = sorted(rng.randint(0, 1500) / 100 for _ in range(4))
            objectives = [select_knapsack(g, b).objective for b in budgets]
            assert objectives == sorted(objectives)

    def test_feasibility_invariant(self):
        rng = random.Random(17)
        for _ in range(50):
            items = [(rng.randint(0, 500) / 100, rng.randint(0, 500) / 100) for _ in range(6)]
            budget = rng.randint(0, 1200) / 100
            g = item_graph(items)
            sel = select_knapsack(g, budget)
            spent = sum(g.node(i).cost for i in sel.chosen)
            assert spent <= budget + 1e-9
            assert sel.objective == pytest.approx(
                sum(g.node(i).effectiveness for i in sel.chosen), abs=1e-9
            )

    def test_sub_cent_cost_rejected(self):
        g = item_graph([(1.0, 0.005)])
        with pytest.raises(CostPrecisionError):
            select_knapsack(g, 1.0)

    def test_sub_cent_budget_rejected(self):
        g = item_graph([(1.0, 1.0)])
        with pytest.raises(CostPrecisionError):
            select_knapsack(g, 0.015)

    def test_negative_budget(self):
        g = item_graph([(1.0, 1.0)])
        with pytest.raises(NegativeBudget):
            select_knapsack(g, -1.0)

    @pytest.mark.parametrize("budget", [True, False])
    def test_bool_budget_rejected(self, budget):
        g = item_graph([(1.0, 1.0)])
        with pytest.raises(NegativeBudget):
            select_knapsack(g, budget)

    def test_int_budget_beyond_float_range_rejected(self):
        # a JSON budget of 1 followed by 400 zeros loads as an exact int
        g = item_graph([(1.0, 1.0)])
        with pytest.raises(NegativeBudget):
            select_knapsack(g, 10**400)

    def test_table_bound(self):
        g = item_graph([(1.0, 50_000.0), (2.0, 60_000.0)])
        with pytest.raises(CostResolutionExceeded):
            select_knapsack(g, 100_000.0, max_cells=1_000_000)

    def test_plan_dict_shape(self):
        g = item_graph([(6.0, 5.0), (5.0, 4.0), (4.0, 3.0)])
        d = plan_to_dict(select_knapsack(g, 7.0))
        assert d == {"mode": "select", "budget": 7.0, "chosen": ["b", "c"], "objective": 9.0}


def fractional_oracle(items, capacities, budget_cents):
    """Best 0.01-grid plan by recursive enumeration; returns a Fraction."""
    best = Fraction(0)

    def rec(i, left_cents, value):
        nonlocal best
        if i == len(items):
            best = max(best, value)
            return
        f = Fraction(items[i][0])
        cap = min(left_cents, capacities[i])
        for units in range(cap + 1):
            rec(i + 1, left_cents - units, value + f * Fraction(units, 100))

    rec(0, budget_cents, Fraction(0))
    return best


class TestFractional:
    def test_three_item_fixture(self):
        g = item_graph([(3.0, 0.0), (2.0, 0.0), (1.0, 0.0)], capacities={0: 1.0, 1: 1.0, 2: 1.0})
        plan = allocate_fractional(g, 2.0)
        assert plan.allocation == {"a": 1.0, "b": 1.0, "c": 0.0}
        assert plan.objective == 5.0

    def test_zero_budget(self):
        g = item_graph([(3.0, 0.0), (2.0, 0.0)], capacities={0: 1.0, 1: 1.0})
        plan = allocate_fractional(g, 0.0)
        assert plan.allocation == {"a": 0.0, "b": 0.0}
        assert plan.objective == 0.0

    def test_budget_slack_fills_capacity(self):
        g = item_graph([(1.0, 0.0), (1.0, 0.0)], capacities={0: 5.0, 1: 5.0})
        plan = allocate_fractional(g, 20.0)
        assert plan.allocation == {"a": 5.0, "b": 5.0}

    def test_unbounded_capacity_soaks_budget(self):
        g = item_graph([(2.0, 0.0), (1.0, 0.0)], capacities={1: 1.0})
        plan = allocate_fractional(g, 7.5)
        assert plan.allocation == {"a": 7.5, "b": 0.0}

    def test_effectiveness_tie_prefers_lower_id(self):
        g = item_graph([(1.0, 0.0), (1.0, 0.0)], capacities={0: 1.0, 1: 1.0})
        plan = allocate_fractional(g, 1.0)
        assert plan.allocation == {"a": 1.0, "b": 0.0}

    @pytest.mark.parametrize("budget", [True, False])
    def test_bool_budget_rejected(self, budget):
        g = item_graph([(1.0, 0.0)], capacities={0: 1.0})
        with pytest.raises(NegativeBudget):
            allocate_fractional(g, budget)

    def test_zero_effectiveness_gets_nothing(self):
        g = item_graph([(0.0, 0.0), (1.0, 0.0)], capacities={0: 1.0, 1: 1.0})
        plan = allocate_fractional(g, 5.0)
        assert plan.allocation == {"a": 0.0, "b": 1.0}

    @pytest.mark.parametrize("capacities", [{}, {0: 1.0, 1: 1.0}], ids=["one-term", "partial-sum"])
    def test_objective_beyond_the_float_range(self, capacities):
        g = item_graph([(1e308, 0.0), (1e308, 0.0)], capacities=capacities)
        with pytest.raises(FloatRangeExceeded, match="float range"):
            allocate_fractional(g, 2.0)

    def test_objective_at_the_float_range_still_answers(self):
        g = item_graph([(1e308, 0.0), (1e308, 0.0)], capacities={0: 1.0, 1: 1.0})
        assert allocate_fractional(g, 1.0).objective == 1e308

    def test_grid_dominance(self):
        rng = random.Random(99)
        for _ in range(5):
            n = rng.randint(1, 4)
            items = [(rng.randint(0, 40) / 10, 0.0) for _ in range(n)]
            caps_cents = [rng.randint(0, 15) for _ in range(n)]
            budget_cents = rng.randint(0, 25)
            g = item_graph(items, capacities={i: c / 100 for i, c in enumerate(caps_cents)})
            plan = allocate_fractional(g, budget_cents / 100)
            best_grid = fractional_oracle(items, caps_cents, budget_cents)
            assert plan.objective >= float(best_grid) - 1e-9

    def test_budget_monotonicity_100_instances(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(1, 6)
            items = [(rng.randint(0, 50) / 10, 0.0) for _ in range(n)]
            caps = {i: rng.randint(0, 60) / 10 for i in range(n)}
            g = item_graph(items, capacities=caps)
            b1 = rng.randint(0, 100) / 10
            b2 = b1 + rng.randint(0, 50) / 10
            assert allocate_fractional(g, b2).objective >= allocate_fractional(g, b1).objective - 1e-12

    @given(
        st.lists(st.tuples(st.integers(0, 50), st.integers(0, 60)), min_size=1, max_size=6),
        st.integers(0, 120),
    )
    @settings(max_examples=60, deadline=None)
    def test_feasibility_property(self, raw, budget_tenths):
        items = [(f / 10, 0.0) for f, _ in raw]
        caps = {i: c / 10 for i, (_, c) in enumerate(raw)}
        budget = budget_tenths / 10
        g = item_graph(items, capacities=caps)
        plan = allocate_fractional(g, budget)
        assert sum(plan.allocation.values()) <= budget + 1e-9
        for i, (_, c) in enumerate(raw):
            assert 0.0 <= plan.allocation[chr(ord("a") + i)] <= c / 10 + 1e-9

    def test_plan_dict_shape(self):
        g = item_graph([(3.0, 0.0)], capacities={0: 1.0})
        d = plan_to_dict(allocate_fractional(g, 2.0))
        assert d == {"mode": "fractional", "budget": 2.0, "allocation": {"a": 1.0}, "objective": 3.0}
