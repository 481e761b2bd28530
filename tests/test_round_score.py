"""The fused TU round score, ``tu_judgements(u, [outcome])`` (the
one-outcome case of the stacked judgement), equals the one-outcome reference
of conftest and ``is_stable_tu`` to the last bit, and so does
``subset_instability_value``; and it keeps the paper's identity "instability
is zero exactly when the outcome is stable"."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_market, random_zero_sum_outcome, reference_tu_judgement
from smbandits.environment import _restrict_outcome, gen_hard_instance
from smbandits.errors import InvalidOutcome
from smbandits.instability import subset_instability_value, tu_judgements
from smbandits.market import (
    Matching,
    MarketOutcome,
    UtilityMatrix,
    is_stable_tu,
    max_weight_matching_with_duals,
    stable_outcome_from_duals,
)

PROPERTY = settings(max_examples=200, deadline=None, database=None, derandomize=True)


def assert_fused_equals_separate(u, outcome):
    (value,), (stable,) = tu_judgements(u, [outcome])
    ref_value, ref_stable = reference_tu_judgement(u, outcome)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert np.float64(subset_instability_value(u, outcome)).tobytes() == np.float64(ref_value).tobytes()
    assert stable == ref_stable == is_stable_tu(u, outcome, 0.0)
    return value, stable


def integer_market(rng, n_c, n_p):
    return UtilityMatrix(
        rng.integers(-3, 4, (n_c, n_p)).astype(float),
        rng.integers(-3, 4, (n_p, n_c)).astype(float),
    )


def integer_zero_sum_outcome(rng, u):
    """A random matching with integer transfers. On integer utilities many
    gains and payoffs are exactly zero, at the edge of the TOL tests."""
    n_c, n_p = u.num_customers, u.num_providers
    k = int(rng.integers(0, min(n_c, n_p) + 1))
    pairs = list(zip(rng.permutation(n_c)[:k].tolist(), rng.permutation(n_p)[:k].tolist()))
    tau_c = np.zeros(n_c)
    tau_p = np.zeros(n_p)
    for i, j in pairs:
        x = float(rng.integers(-3, 4))
        tau_c[i] = x
        tau_p[j] = -x
    return MarketOutcome(Matching(pairs), tau_c, tau_p)


class TestFusedEqualsSeparate:
    def test_random_outcomes(self):
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(400):
            n_c, n_p = rng.integers(1, 6, 2)
            u = random_market(rng, int(n_c), int(n_p))
            seen.add(assert_fused_equals_separate(u, random_zero_sum_outcome(rng, u))[1])
        assert seen == {True, False}

    def test_tie_heavy_integer_outcomes(self):
        rng = np.random.default_rng(32)
        seen = set()
        for _ in range(400):
            n_c, n_p = rng.integers(1, 6, 2)
            u = integer_market(rng, int(n_c), int(n_p))
            seen.add(assert_fused_equals_separate(u, integer_zero_sum_outcome(rng, u))[1])
        assert seen == {True, False}

    def test_rectangular_outcomes(self):
        rng = np.random.default_rng(33)
        for n_c, n_p in [(1, 6), (6, 1), (2, 7), (7, 3), (12, 40)]:
            for _ in range(20):
                u = random_market(rng, n_c, n_p)
                assert_fused_equals_separate(u, random_zero_sum_outcome(rng, u))
        hard = gen_hard_instance(4, 1000, seed=3).truth
        for _ in range(5):
            assert_fused_equals_separate(hard, random_zero_sum_outcome(rng, hard))

    def test_empty_matching(self):
        rng = np.random.default_rng(34)
        for n_c, n_p in [(1, 1), (3, 3), (2, 5)]:
            u = random_market(rng, n_c, n_p)
            value, stable = assert_fused_equals_separate(u, MarketOutcome.ntu(Matching(), n_c, n_p))
            assert stable == (u.joint().max() <= 1e-9)
        # No agent on one side: only the IR floors count.
        u = UtilityMatrix(np.zeros((3, 0)), np.zeros((0, 3)))
        assert assert_fused_equals_separate(u, MarketOutcome.ntu(Matching(), 3, 0)) == (0.0, True)

    def test_submarket_restricted_outcomes(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            u = random_market(rng, 5, 6)
            outcome = random_zero_sum_outcome(rng, u)
            matched_c = {i for i, _ in outcome.matching.pairs}
            matched_p = {j for _, j in outcome.matching.pairs}
            # Arrivals keep every matched agent and a random subset of the rest.
            cust = np.array([i for i in range(5) if i in matched_c or rng.random() < 0.5], dtype=int)
            prov = np.array([j for j in range(6) if j in matched_p or rng.random() < 0.5], dtype=int)
            assert_fused_equals_separate(u.restrict(cust, prov), _restrict_outcome(outcome, cust, prov))

    def test_full_size_arrivals_out_of_order_are_reindexed(self):
        outcome = MarketOutcome(Matching([(0, 1), (2, 0)]), np.array([1.0, 2.0, -3.0]), np.array([3.0, -1.0, 0.0]))
        assert _restrict_outcome(outcome, np.arange(3), np.arange(3)) is outcome
        sub = _restrict_outcome(outcome, np.array([2, 0, 1]), np.array([1, 0, 2]))
        assert sub.matching.pairs == ((0, 1), (1, 0))
        assert sub.customer_transfers.tolist() == [-3.0, 1.0, 2.0]
        assert sub.provider_transfers.tolist() == [-1.0, 3.0, 0.0]

    def test_outcomes_from_duals_are_stable_with_zero_value(self):
        rng = np.random.default_rng(36)
        for k in range(300):
            n_c, n_p = rng.integers(1, 6, 2)
            market = integer_market if k % 3 == 0 else random_market
            u = market(rng, int(n_c), int(n_p))
            match, duals = max_weight_matching_with_duals(u)
            value, stable = assert_fused_equals_separate(u, stable_outcome_from_duals(u, match, duals))
            assert stable and value <= 1e-9

    @pytest.mark.parametrize(
        "pairs, tau_c, tau_p",
        [
            ([(0, 0), (1, 1)], [0.5, 0.0], [-0.5, 0.2]),
            ([(0, 0)], [0.5, 0.3], [-0.5, 0.0]),
            ([(0, 0)], [0.5, 0.0], [-0.5, 0.0, -0.1]),
        ],
    )
    def test_non_zero_sum_raises_the_same_message(self, pairs, tau_c, tau_p):
        u = random_market(np.random.default_rng(37), len(tau_c), len(tau_p))
        outcome = MarketOutcome(Matching(pairs), np.array(tau_c), np.array(tau_p))
        with pytest.raises(InvalidOutcome) as separate:
            subset_instability_value(u, outcome)
        with pytest.raises(InvalidOutcome) as fused:
            tu_judgements(u, [outcome])
        assert str(fused.value) == str(separate.value)


# -- properties: zero instability <=> stable ------------------------------------


@st.composite
def dual_derived(draw):
    """A market with entries in [-1, 1] (quarters, for ties, or any float)
    and the stable outcome read off its optimal duals."""
    n_c = draw(st.integers(1, 5))
    n_p = draw(st.integers(1, 5))
    if draw(st.booleans()):
        entries = st.integers(-4, 4).map(lambda k: k / 4.0)
    else:
        entries = st.floats(-1.0, 1.0, allow_nan=False)
    cv = draw(st.lists(entries, min_size=n_c * n_p, max_size=n_c * n_p))
    pv = draw(st.lists(entries, min_size=n_c * n_p, max_size=n_c * n_p))
    u = UtilityMatrix(np.reshape(cv, (n_c, n_p)), np.reshape(pv, (n_p, n_c)))
    match, duals = max_weight_matching_with_duals(u)
    return u, stable_outcome_from_duals(u, match, duals)


@PROPERTY
@given(dual_derived())
def test_dual_derived_outcomes_score_zero_and_stable(case):
    u, outcome = case
    (value,), (stable,) = tu_judgements(u, [outcome])
    assert stable
    assert value <= 1e-9


@PROPERTY
@given(dual_derived(), st.data())
def test_zero_sum_perturbations_flag_equals_is_stable_tu(case, data):
    u, outcome = case
    deltas = data.draw(
        st.lists(st.floats(-0.5, 0.5, allow_nan=False), min_size=len(outcome.matching), max_size=len(outcome.matching))
    )
    tau_c = outcome.customer_transfers.copy()
    tau_p = outcome.provider_transfers.copy()
    for (i, j), d in zip(outcome.matching.pairs, deltas):
        tau_c[i] += d
        tau_p[j] -= d
    perturbed = MarketOutcome(outcome.matching, tau_c, tau_p)
    value, stable = assert_fused_equals_separate(u, perturbed)
    # Zero <=> stable, up to TOL per agent: an unstable outcome has positive
    # instability, a stable one at most TOL of it per agent.
    if stable:
        assert value <= (u.num_agents + 1) * 1e-9
    else:
        assert value > 0.0
