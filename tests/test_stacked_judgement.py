"""The stacked TU judgement, ``tu_judgements``, equals the one-outcome
reference ``reference_tu_judgement`` (conftest) byte for byte, value and
flag, on every row of a stack: random and tie-heavy markets up to 6x6,
transfers of 0.0 and -0.0, submarkets of iid arrivals with a side left empty,
and, through ``run``'s block judge, stacks that mix arrival shapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_tu_judgement
from smbandits import environment as env
from smbandits.environment import _judge_block, _restrict_outcome
from smbandits.errors import InvalidOutcome
from smbandits.instability import tu_judgements
from smbandits.market import (
    Matching,
    MarketOutcome,
    UtilityMatrix,
    max_weight_matching_with_duals,
    stable_outcome_from_duals,
)

PROPERTY = settings(max_examples=200, deadline=None, database=None, derandomize=True)

# Quarters give ties between gains, payoffs and floors; signed zeros reach
# every max(0, -q) and every sum of terms.
TIES = st.sampled_from([-1.0, -0.75, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0])
ENTRIES = st.one_of(TIES, st.floats(-1.0, 1.0, allow_nan=False))
TRANSFERS = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.25]), st.floats(-1.5, 1.5, allow_nan=False))


@st.composite
def markets(draw, max_side=6):
    n_c, n_p = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    entries = TIES if draw(st.booleans()) else ENTRIES
    cv = draw(st.lists(entries, min_size=n_c * n_p, max_size=n_c * n_p))
    pv = draw(st.lists(entries, min_size=n_c * n_p, max_size=n_c * n_p))
    return UtilityMatrix(np.reshape(cv, (n_c, n_p)), np.reshape(pv, (n_p, n_c)))


@st.composite
def outcomes_on(draw, u, cust, prov):
    """A zero-sum outcome of ``u`` among the arrivals ``cust`` and ``prov``;
    the agents who did not arrive carry any transfer, which the submarket
    leaves out."""
    k = draw(st.integers(0, min(len(cust), len(prov))))
    ci = draw(st.permutations(cust.tolist()))[:k]
    pj = draw(st.permutations(prov.tolist()))[:k]
    tau_c = np.array(draw(st.lists(TRANSFERS, min_size=u.num_customers, max_size=u.num_customers)))
    tau_p = np.array(draw(st.lists(TRANSFERS, min_size=u.num_providers, max_size=u.num_providers)))
    tau_c[cust] = draw(st.sampled_from([0.0, -0.0]))
    tau_p[prov] = draw(st.sampled_from([0.0, -0.0]))
    for i, j in zip(ci, pj):
        x = draw(TRANSFERS)
        tau_c[i], tau_p[j] = x, -x
    return MarketOutcome(Matching(list(zip(ci, pj))), tau_c, tau_p)


def arrivals(draw, n, size):
    return np.array(sorted(draw(st.permutations(list(range(n))))[:size]), dtype=int)


def assert_rows_equal_reference(values, stable, references):
    assert values.shape == stable.shape == (len(references),)
    for value, flag, (ref_value, ref_flag) in zip(values.tolist(), stable.tolist(), references):
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert flag == ref_flag


@PROPERTY
@given(st.data())
def test_full_market_stack_equals_reference(data):
    u = data.draw(markets())
    every = np.arange(u.num_customers), np.arange(u.num_providers)
    outcomes = [data.draw(outcomes_on(u, *every)) for _ in range(data.draw(st.integers(1, 5)))]
    values, stable = tu_judgements(u, outcomes)
    assert_rows_equal_reference(values, stable, [reference_tu_judgement(u, o) for o in outcomes])


@PROPERTY
@given(st.data())
def test_submarket_stack_equals_reference(data):
    # One arrival shape per stack, as run groups them; a side may be empty.
    u = data.draw(markets())
    a, b = data.draw(st.integers(0, u.num_customers)), data.draw(st.integers(0, u.num_providers))
    rows = [
        (arrivals(data.draw, u.num_customers, a), arrivals(data.draw, u.num_providers, b))
        for _ in range(data.draw(st.integers(1, 5)))
    ]
    outcomes = [data.draw(outcomes_on(u, cust, prov)) for cust, prov in rows]
    customers = np.array([cust for cust, _ in rows], dtype=int).reshape(len(rows), a)
    providers = np.array([prov for _, prov in rows], dtype=int).reshape(len(rows), b)
    values, stable = tu_judgements(u, outcomes, customers, providers)
    references = [
        reference_tu_judgement(u.restrict(cust, prov), _restrict_outcome(o, cust, prov))
        for (cust, prov), o in zip(rows, outcomes)
    ]
    assert_rows_equal_reference(values, stable, references)


@PROPERTY
@given(st.data())
def test_block_of_mixed_shapes_equals_reference(data):
    # run's block judge groups a block's rounds by arrival shape, full
    # arrivals included, and writes each round's value and flag in place.
    u = data.draw(markets())
    n_c, n_p = u.num_customers, u.num_providers
    judged = []
    for t in range(data.draw(st.integers(1, 8))):
        if data.draw(st.booleans()):
            cust, prov = np.arange(n_c), np.arange(n_p)
        else:
            cust = arrivals(data.draw, n_c, data.draw(st.integers(0, n_c)))
            prov = arrivals(data.draw, n_p, data.draw(st.integers(0, n_p)))
        judged.append((data.draw(outcomes_on(u, cust, prov)), cust, prov, t))
    columns = (np.zeros(len(judged)) for _ in range(4)), (np.zeros(len(judged), dtype=bool) for _ in range(3))
    trace = env.RegretTrace(0, "match_ucb", len(judged), *columns[0], *columns[1])
    _judge_block(trace, u, judged, ntu=False)
    references = [
        reference_tu_judgement(u.restrict(cust, prov), _restrict_outcome(o, cust, prov)) for o, cust, prov, _ in judged
    ]
    assert_rows_equal_reference(trace.instability, trace.stable_truth, references)
    assert not trace.bound_only.any()


def test_stacks_of_stable_and_unstable_rows():
    # Stable rows (read off optimal duals) reach the pair test; random ones
    # mostly fail individual rationality first.
    rng = np.random.default_rng(5)
    u = UtilityMatrix(rng.uniform(-1, 1, (4, 5)), rng.uniform(-1, 1, (5, 4)))
    outcomes = [stable_outcome_from_duals(u, *max_weight_matching_with_duals(u))] * 3
    for k in range(40):
        matching = Matching(list(zip(rng.permutation(4)[: k % 5].tolist(), rng.permutation(5)[: k % 5].tolist())))
        tau_c, tau_p = np.zeros(4), np.zeros(5)
        for i, j in matching.pairs:
            tau_c[i] = x = float(rng.uniform(-1, 1))
            tau_p[j] = -x
        outcomes.append(MarketOutcome(matching, tau_c, tau_p))
    values, stable = tu_judgements(u, outcomes)
    assert_rows_equal_reference(values, stable, [reference_tu_judgement(u, o) for o in outcomes])
    assert stable.any() and not stable.all() and (values == 0.0).any() and (values > 0.0).any()


@pytest.mark.parametrize("restricted", [False, True])
def test_a_stack_with_one_non_zero_sum_outcome_raises_its_message(restricted):
    u = UtilityMatrix(np.full((3, 3), 0.5), np.full((3, 3), 0.25))
    good = MarketOutcome(Matching([(0, 0)]), np.array([0.5, 0.0, 0.0]), np.array([-0.5, 0.0, 0.0]))
    bad = MarketOutcome(Matching([(1, 2)]), np.array([0.0, 0.5, 0.0]), np.array([0.0, 0.0, -0.4]))
    with pytest.raises(InvalidOutcome) as own:
        bad.check_zero_sum()
    arrived = (np.array([[0, 1], [0, 1]]), np.array([[0, 2], [0, 2]])) if restricted else ()
    with pytest.raises(InvalidOutcome) as stacked:
        tu_judgements(u, [good, bad], *arrived)
    assert str(stacked.value) == str(own.value)
    # A transfer of an agent who did not arrive is outside the submarket.
    outside = MarketOutcome(Matching([(0, 0)]), np.array([0.0, 0.0, 3.0]), np.array([0.0, 0.0, 0.0]))
    if restricted:
        tu_judgements(u, [good, outside], *arrived)


# (q_i, q_j, joint_ij) whose slack (q_i + q_j) - joint_ij rounds to just
# below -1e-9 while -((joint_ij - q_i) - q_j) rounds to just above it.
EDGE_SLACKS = [
    (0.9572101796109636, 0.1487640122324979, 1.1059741928434614),
    (0.812335398111254, 0.6678894055713512, 1.4802248046826052),
    (0.08893564024627199, 0.9819426931267062, 1.0708783343729782),
]


@pytest.mark.parametrize("a, b, c", EDGE_SLACKS)
def test_pair_test_rounds_as_is_stable_tu(a, b, c):
    # Customer 0 with provider 0 and customer 1 with provider 1, no
    # transfers: payoffs (a, 0.5) and (0.25, b), every other pair slack, so
    # the flag rests on the cross pair (0, 1) alone.
    u = UtilityMatrix(np.array([[a, c], [0.0, 0.5]]), np.array([[0.25, 0.0], [0.0, b]]))
    outcome = MarketOutcome(Matching([(0, 0), (1, 1)]), np.zeros(2), np.zeros(2))
    values, stable = tu_judgements(u, [outcome] * 2)
    assert_rows_equal_reference(values, stable, [reference_tu_judgement(u, outcome)] * 2)
    assert not stable.any()
