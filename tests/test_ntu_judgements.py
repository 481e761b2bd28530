"""The stacked NTU judgement equals the branch-and-bound, byte for byte.

``ntu_judgements`` weighs every leaf of ``ntu_subset_instability``'s search
at once, for a stack of rounds of one arrival shape, and marks the rows it is
exact for; ``run``'s block judge sends every other row to the search itself.
The properties draw random, quarter-integer, decimal (whose subsidy totals
tie to within a few ulps), signed-zero and negative-matched-utility markets,
every arrival shape the judge stacks, empty sides included, and stacks of 1
to 400 rows. The pinned markets reach each rule that sends a row back to the
search: a chain of totals within 1e-15 of each other, and a leaf that totals
less than one of its prefix bounds, which the search prunes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smbandits import environment as env
from smbandits.environment import _judge_block, _restrict_outcome
from smbandits import instability
from smbandits.instability import (
    _NTU_STACK_CELLS,
    _NTU_STACK_ROUNDS,
    ntu_judgements,
    ntu_subset_instability,
    ntu_subset_instability_bruteforce,
)
from smbandits.market import Matching, MarketOutcome, UtilityMatrix

pytestmark = pytest.mark.byte_pinned

PROPERTY = settings(max_examples=500, deadline=None, database=None, derandomize=True)

QUARTERS = st.sampled_from([-1.0, -0.75, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0])
# Tenths and their neighbours: gains such as 0.7 - 0.4 and totals such as
# 0.1 + 0.2 land a few ulps from each other.
DECIMALS = st.sampled_from(
    [k / 10 for k in range(-10, 11)] + [0.1 + 0.2, 0.7 - 0.4, float(np.nextafter(0.5, 1)), -0.0, -1e-16]
)
FLOATS = st.floats(-1.0, 1.0, allow_nan=False)
FAMILIES = (QUARTERS, DECIMALS, FLOATS, st.one_of(QUARTERS, DECIMALS, FLOATS))


def stacked_shapes(n_c, n_p):
    """The arrival shapes of an n_c x n_p market that ``ntu_judgements`` stacks, largest first (Hypothesis favours
    the first)."""
    shapes = [(a, b) for a in range(n_c + 1) for b in range(n_p + 1) if (b + 1) ** a * b <= _NTU_STACK_CELLS]
    return shapes[::-1]


@st.composite
def markets(draw, max_side=6):
    n_c, n_p = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    entries = draw(st.sampled_from(FAMILIES))
    cv = draw(st.lists(entries, min_size=n_c * n_p, max_size=n_c * n_p))
    pv = draw(st.lists(entries, min_size=n_c * n_p, max_size=n_c * n_p))
    return UtilityMatrix(np.reshape(cv, (n_c, n_p)), np.reshape(pv, (n_p, n_c)))


@st.composite
def rounds_of_shape(draw, u, a, b):
    """Sorted arrivals of the shape and a matching among them: random, so a
    matched agent's utility may be negative and give it a positive floor."""
    cust = np.array(sorted(draw(st.permutations(range(u.num_customers)))[:a]), dtype=int)
    prov = np.array(sorted(draw(st.permutations(range(u.num_providers)))[:b]), dtype=int)
    k = draw(st.integers(0, min(a, b)))
    pairs = zip(draw(st.permutations(cust.tolist()))[:k], draw(st.permutations(prov.tolist()))[:k])
    return Matching(list(pairs)), cust, prov


def search(u, matching, cust, prov):
    outcome = MarketOutcome.ntu(matching, u.num_customers, u.num_providers)
    return ntu_subset_instability(u.restrict(cust, prov), _restrict_outcome(outcome, cust, prov).matching)


def stack(u, rows):
    """``ntu_judgements`` of ``rows``, each (matching, customers, providers) of one shape."""
    matchings, cust, prov = (list(column) for column in zip(*rows))
    return ntu_judgements(u, matchings, np.array(cust), np.array(prov))


def judged(u, rows):
    """The block judge's values and flags of ``rows``: the stack, and the
    search for every row it leaves."""
    values, stable, exact = stack(u, rows)
    for r in np.flatnonzero(~exact):
        report = search(u, *rows[r])
        values[r], stable[r] = report.value, report.stable
    return values, stable, exact


def assert_rows_equal_search(u, values, stable, rows):
    assert values.shape == stable.shape == (len(rows),)
    for value, flag, row in zip(values.tolist(), stable.tolist(), rows):
        report = search(u, *row)
        assert np.float64(value).tobytes() == np.float64(report.value).tobytes()
        assert flag == report.stable


@PROPERTY
@given(st.data())
def test_stack_equals_search(data):
    u = data.draw(markets())
    a, b = data.draw(st.sampled_from(stacked_shapes(u.num_customers, u.num_providers)))
    size = data.draw(st.integers(1, 400))
    distinct = [data.draw(rounds_of_shape(u, a, b)) for _ in range(data.draw(st.integers(1, min(6, size))))]
    rows = [distinct[r % len(distinct)] for r in range(size)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instability, "_NTU_STACK_ROUNDS", 1)  # stacks below the crossover too
        values, stable, _ = judged(u, rows)
    assert_rows_equal_search(u, values[: len(distinct)], stable[: len(distinct)], distinct)
    for r, row in enumerate(distinct):
        same = np.arange(r, size, len(distinct))
        assert (values[same].view(np.int64) == values[r].view(np.int64)).all() and (stable[same] == stable[r]).all()
    matching, cust, prov = distinct[0]
    sub = u.restrict(cust, prov)
    local = _restrict_outcome(MarketOutcome.ntu(matching, u.num_customers, u.num_providers), cust, prov).matching
    assert abs(values[0] - ntu_subset_instability_bruteforce(sub, local)) <= 1e-12


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_block_of_mixed_shapes_equals_search(data):
    # Shapes above the cell cap and shapes with fewer rounds than the
    # crossover take the search; the others share a stack.
    u = data.draw(markets())
    items = []
    for t in range(data.draw(st.integers(1, 24))):
        shape = data.draw(st.tuples(st.integers(0, u.num_customers), st.integers(0, u.num_providers)))
        matching, cust, prov = data.draw(rounds_of_shape(u, *shape))
        items.append((MarketOutcome.ntu(matching, u.num_customers, u.num_providers), cust, prov, t))
    columns = (np.zeros(len(items)) for _ in range(4)), (np.zeros(len(items), dtype=bool) for _ in range(3))
    trace = env.RegretTrace(0, "match_ntu_ucb", len(items), *columns[0], *columns[1])
    _judge_block(trace, u, items, ntu=True)
    assert_rows_equal_search(u, trace.instability, trace.stable_truth, [(o.matching, c, p) for o, c, p, _ in items])
    assert not trace.bound_only.any()


def test_below_the_crossover_and_above_the_cap_every_row_goes_to_the_search():
    u = UtilityMatrix(np.array([[0.3, 0.5]]), np.array([[0.1], [0.7]]))
    rows = [one_round(u)] * (_NTU_STACK_ROUNDS - 1)
    assert not stack(u, rows)[2].any() and stack(u, rows * 2)[2].all()
    wide = UtilityMatrix(np.full((1, _NTU_STACK_CELLS), 0.5), np.full((_NTU_STACK_CELLS, 1), 0.5))
    assert not stack(wide, [one_round(wide)] * _NTU_STACK_ROUNDS)[2].any()
    # Nine customers and no provider: one leaf, but the search takes at most eight customers.
    nine = UtilityMatrix(np.full((9, 1), 0.5), np.full((1, 9), 0.5))
    rows = [(Matching(), np.arange(9), np.arange(0))] * _NTU_STACK_ROUNDS
    assert not stack(nine, rows)[2].any()


def one_round(u, pairs=()):
    return Matching(list(pairs)), np.arange(u.num_customers), np.arange(u.num_providers)


def test_the_first_leaf_within_the_band_is_kept():
    # One unmatched pair; the leaves total 0.1 + 0.2 (provider subsidised)
    # and then 0.3 (customer subsidised). The second is less, but not by more
    # than 1e-15, so the search keeps the first.
    u = UtilityMatrix(np.array([[0.3]]), np.array([[0.1 + 0.2]]))
    rows = [one_round(u)] * _NTU_STACK_ROUNDS
    values, stable, exact = stack(u, rows)
    assert exact.all() and values[0] == 0.1 + 0.2 > 0.3
    assert_rows_equal_search(u, values, stable, rows)


def test_a_chain_of_near_ties_goes_to_the_search():
    # Leaves in the search's order total 0.5 + 1.5e-15, 0.5 + 0.8e-15 and
    # 0.5. The second is within 1e-15 of the least but does not beat the
    # first by more than 1e-15; the search keeps the third.
    u = UtilityMatrix(np.array([[0.25 + 0.8e-15, 0.5]]), np.array([[0.25 + 1.5e-15], [0.25]]))
    rows = [one_round(u)] * 3
    values, stable, exact = stack(u, rows)
    assert not exact.any() and values[0] != search(u, *rows[0]).value == 0.5
    assert_rows_equal_search(u, *judged(u, rows)[:2], rows)


def test_a_leaf_below_its_prefix_bound_goes_to_the_search():
    # Customers 1 and 2 are matched at utilities -0.4 and -0.2; customer 0 and
    # provider 0 block unless one of them is subsidised. Subsidising the
    # customer totals (0.1 + 0.4) + 0.2 = 0.7, below its prefix bound
    # 0.1 + (0.2 + 0.4) = 0.7000000000000001; the search, whose best is the
    # first leaf, 0.7000000000000011, prunes it, and keeps that first leaf.
    y = 0.10000000000000092
    u = UtilityMatrix(
        np.array([[0.1, -1.0, -1.0], [-1.0, -0.4, -1.0], [-1.0, -1.0, -0.2]]),
        np.array([[y, -1.0, -1.0], [-1.0, 0.5, -1.0], [-1.0, -1.0, 0.5]]),
    )
    rows = [one_round(u, [(1, 1), (2, 2)])] * 3
    values, stable, exact = stack(u, rows)
    assert not exact.any() and values[0] == 0.7 == ntu_subset_instability_bruteforce(u, rows[0][0])
    assert search(u, *rows[0]).value == 0.7000000000000011
    assert_rows_equal_search(u, *judged(u, rows)[:2], rows)


def test_judged_rounds_of_a_small_market_take_the_stack(monkeypatch):
    # 3x3 match_ntu_ucb at interval constant 1: nearly every round is judged,
    # and each block's rounds share one stack that leaves no row to the search.
    calls = []
    search_calls = lambda *args: calls.append(args) or ntu_subset_instability(*args)  # noqa: E731
    monkeypatch.setattr(env, "ntu_subset_instability", search_calls)
    spec = env.PolicySpec("match_ntu_ucb", env.ConfidenceConfig(ucb_scale=1.0))
    trace = env.run(env.gen_instance("unstructured", 3, 3, 1), spec, 600)
    assert trace.reused_rounds < 60 and not calls
