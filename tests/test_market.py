import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_matchings, brute_force_max_weight, random_market, random_zero_sum_outcome
from smbandits.errors import InvalidOutcome, NoAlternative, UncertifiedDuals
from smbandits.market import (
    Matching,
    MarketOutcome,
    UtilityMatrix,
    _duals_for_matching,
    assignment_with_duals,
    certified_duals,
    is_stable_ntu,
    is_stable_tu,
    max_weight_matching_with_duals,
    payoff_inequalities_hold,
    second_best_matching,
    stable_outcome_from_duals,
)


def scaled(u: UtilityMatrix, factor: float) -> UtilityMatrix:
    return UtilityMatrix(u.customer_values * factor, u.provider_values * factor)


def dual_total(duals) -> float:
    return float(duals[0].sum() + duals[1].sum())


class TestRestrict:
    def test_index_order_returns_the_market(self):
        u = random_market(np.random.default_rng(1), 3, 2)
        assert u.restrict(np.arange(3), np.arange(2)) is u

    def test_full_size_arrays_out_of_order_are_gathered(self):
        u = random_market(np.random.default_rng(2), 3, 2)
        for cust, prov in [([2, 0, 1], [0, 1]), ([0, 1, 2], [1, 0]), ([0, 0, 2], [0, 1])]:
            sub = u.restrict(np.array(cust), np.array(prov))
            np.testing.assert_array_equal(sub.customer_values, u.customer_values[np.ix_(cust, prov)])
            np.testing.assert_array_equal(sub.provider_values, u.provider_values[np.ix_(prov, cust)])


class TestMatchingType:
    def test_rejects_duplicate_agents(self):
        with pytest.raises(ValueError):
            Matching([(0, 0), (0, 1)])
        with pytest.raises(ValueError):
            Matching([(0, 0), (1, 0)])

    def test_normalizes_order(self):
        assert Matching([(1, 0), (0, 1)]).pairs == ((0, 1), (1, 0))


class TestMaxWeightMatching:
    def test_fig1_scaled(self, fig1_market):
        u = scaled(fig1_market, 1.0 / 12.0)
        match, duals = max_weight_matching_with_duals(u)
        assert match.pairs == ((0, 0),)
        assert match.total_utility(u) == pytest.approx(4.0 / 12.0, abs=1e-12)
        assert dual_total(duals) == pytest.approx(4.0 / 12.0, abs=1e-12)

    def test_negative_pair_stays_unmatched(self):
        u = UtilityMatrix(np.array([[0.3]]), np.array([[-0.5]]))
        match, duals = max_weight_matching_with_duals(u)
        assert match.pairs == ()
        assert dual_total(duals) == 0.0

    def test_empty_market(self):
        u = UtilityMatrix(np.zeros((0, 3)), np.zeros((3, 0)))
        match, duals = max_weight_matching_with_duals(u)
        assert match.pairs == ()
        assert duals[1].shape == (3,)

    def test_random_4x4_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = random_market(rng, 4, 4)
            match, duals = max_weight_matching_with_duals(u)
            best = brute_force_max_weight(u.joint())
            assert match.total_utility(u) == pytest.approx(best, abs=1e-9)
            assert dual_total(duals) == pytest.approx(best, abs=1e-9)

    def test_dual_feasibility_and_slackness(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n_c, n_p = rng.integers(1, 6, 2)
            u = random_market(rng, int(n_c), int(n_p))
            match, duals = max_weight_matching_with_duals(u)
            joint = u.joint()
            p_c, p_p = duals
            slack = p_c[:, None] + p_p[None, :] - joint
            assert slack.min() > -1e-9
            assert p_c.min() >= 0.0 and p_p.min() >= 0.0
            for i, j in match.pairs:
                assert slack[i, j] == pytest.approx(0.0, abs=1e-9)

    def test_price_reconstruction_is_stable(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n_c, n_p = rng.integers(1, 5, 2)
            u = random_market(rng, int(n_c), int(n_p))
            match, duals = max_weight_matching_with_duals(u)
            outcome = stable_outcome_from_duals(u, match, duals)
            assert is_stable_tu(u, outcome, 0.0)


class TestDualCertificate:
    def test_non_optimal_pairs_raise(self):
        w = np.array([[2.0, 1.0], [1.0, 2.0]])
        p_c, p_p = _duals_for_matching(w, np.array([0, 1]), np.array([0, 1]))
        assert p_c.sum() + p_p.sum() == pytest.approx(4.0, abs=1e-12)
        with pytest.raises(UncertifiedDuals):
            _duals_for_matching(w, np.array([0, 1]), np.array([1, 0]))
        # A positive edge left between two unmatched agents.
        with pytest.raises(UncertifiedDuals):
            _duals_for_matching(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0]), np.array([0]))


def dual_pass_corpus():
    """Seeded joints for the dual pass: random, integer tie-heavy and
    zero-heavy (signed zeros included) at every shape from 1x1 to 12x12,
    plus one 4x360."""
    rng = np.random.default_rng(1729)
    joints = []
    for n_c, n_p in itertools.product(range(1, 13), repeat=2):
        joints.append(rng.uniform(-1.0, 1.0, (n_c, n_p)))
        joints.append(rng.integers(-2, 3, (n_c, n_p)).astype(float))
        zeros = rng.choice(np.array([0.0, -0.0, 0.5, 1.0, -0.25]), (n_c, n_p), p=[0.4, 0.3, 0.1, 0.1, 0.1])
        joints.append(zeros)
    joints.append(rng.uniform(-0.5, 1.0, (4, 360)))
    return joints


# sha256 of every corpus joint's assignment_with_duals (pairs, p_c bytes,
# p_p bytes) and certified_duals of the same matching. Price bytes, signed
# zeros included, enter every trace digest through the transfers, so a
# change to the dual pass that moves one bit fails here in seconds.
DUAL_PASS_DIGEST = "999d7c04d988429b78a562e029b861169d60ae232dd1cd6a45fd1b5838322d35"


def test_dual_pass_bytes_pinned():
    h = hashlib.sha256()
    for joint in dual_pass_corpus():
        rows, cols, p_c, p_p = assignment_with_duals(joint)
        h.update(repr(list(zip(rows.tolist(), cols.tolist()))).encode())
        h.update(p_c.tobytes())
        h.update(p_p.tobytes())
        c_c, c_p = certified_duals(joint, Matching._from_arrays(rows, cols))
        h.update(c_c.tobytes())
        h.update(c_p.tobytes())
    assert h.hexdigest() == DUAL_PASS_DIGEST


class TestSecondBest:
    def test_fig1_gap(self, fig1_market):
        u = scaled(fig1_market, 1.0 / 12.0)
        best, _ = max_weight_matching_with_duals(u)
        second, weight = second_best_matching(u, best)
        assert second.pairs == ((0, 1),)
        assert weight == pytest.approx(2.0 / 12.0, abs=1e-12)
        assert best.total_utility(u) - weight == pytest.approx(2.0 / 12.0, abs=1e-12)

    def test_single_positive_pair(self):
        u = UtilityMatrix(np.array([[0.6]]), np.array([[0.2]]))
        best, _ = max_weight_matching_with_duals(u)
        second, weight = second_best_matching(u, best)
        assert second.pairs == ()
        assert weight == pytest.approx(0.0)

    def test_no_agents_signals(self):
        u = UtilityMatrix(np.zeros((0, 0)), np.zeros((0, 0)))
        with pytest.raises(NoAlternative):
            second_best_matching(u, Matching())

    def test_random_4x4_agrees_with_enumeration(self):
        # Beyond 4x4, the rectangular shapes and the market with no positive
        # edge (empty best matching) are where the best matching leaves agents
        # unmatched, so the candidate built without a solve decides the result.
        rng = np.random.default_rng(10)
        markets = [random_market(rng, n_c, n_p) for n_c, n_p in [(4, 4)] * 40 + [(1, 3), (2, 4), (4, 2)] * 20]
        no_positive_edge = UtilityMatrix(-rng.uniform(0.1, 1.0, (3, 3)), -rng.uniform(0.1, 1.0, (3, 3)))
        for u in markets + [no_positive_edge]:
            best, _ = max_weight_matching_with_duals(u)
            second, weight = second_best_matching(u, best)
            best_set = frozenset(best.pairs)
            expected = max(
                sum(u.joint()[i, j] for i, j in m)
                for m in brute_force_matchings(u.num_customers, u.num_providers)
                if frozenset(m) != best_set
            )
            assert weight == pytest.approx(expected, abs=1e-9)
            assert second.total_utility(u) == pytest.approx(weight, abs=1e-12)
            assert frozenset(second.pairs) != best_set
            assert weight <= best.total_utility(u) + 1e-12
        assert max_weight_matching_with_duals(no_positive_edge)[0].pairs == ()


class TestStabilityTU:
    def test_fig1_good_outcome(self, fig1_market):
        outcome = MarketOutcome(Matching([(0, 0)]), np.array([-6.0]), np.array([6.0, 0.0]))
        assert is_stable_tu(fig1_market, outcome, 0.0)

    def test_fig1_bad_outcome(self, fig1_market, fig1_bad_outcome):
        assert not is_stable_tu(fig1_market, fig1_bad_outcome, 0.0)

    def test_empty_market(self):
        u = UtilityMatrix(np.zeros((0, 0)), np.zeros((0, 0)))
        outcome = MarketOutcome(Matching(), np.zeros(0), np.zeros(0))
        assert is_stable_tu(u, outcome, 0.0)

    def test_non_zero_sum_rejected(self, fig1_market):
        outcome = MarketOutcome(Matching([(0, 0)]), np.array([-6.0]), np.array([5.0, 0.0]))
        with pytest.raises(InvalidOutcome):
            is_stable_tu(fig1_market, outcome, 0.0)

    @pytest.mark.parametrize(
        "tau_c, tau_p, message",
        [
            # Pair (1, 0) breaks zero sum and unmatched agents hold transfers:
            # the pair is reported first.
            ([0.5, 0.2, 0.0], [-0.1, -0.5, 0.3], r"pair \(1,0\)"),
            ([0.5, -0.1, 0.2], [0.1, -0.5, 0.3], "unmatched customer 2"),
            ([0.5, -0.1, 0.0], [0.1, -0.5, 0.3], "unmatched provider 2"),
        ],
    )
    def test_zero_sum_violations_named_in_order(self, tau_c, tau_p, message):
        outcome = MarketOutcome(Matching([(0, 1), (1, 0)]), np.array(tau_c), np.array(tau_p))
        with pytest.raises(InvalidOutcome, match=message):
            outcome.check_zero_sum()

    def test_eps_relaxation(self, fig1_market):
        # Customer overpays by 0.5: IR is violated by 0.5 and the idle
        # expensive provider blocks with gain 2.5, so stability needs
        # eps >= 1.25 (blocking slack is 2*eps).
        outcome = MarketOutcome(Matching([(0, 0)]), np.array([-9.5]), np.array([9.5, 0.0]))
        assert not is_stable_tu(fig1_market, outcome, 0.0)
        assert not is_stable_tu(fig1_market, outcome, 1.0)
        assert is_stable_tu(fig1_market, outcome, 1.25)

    def test_inequalities_ignore_zero_sum(self, fig1_market):
        outcome = MarketOutcome(Matching([(0, 0)]), np.array([-5.0]), np.array([6.0, 0.0]))
        assert payoff_inequalities_hold(*outcome.net_payoffs(fig1_market), fig1_market.joint(), 0.0)

    def test_negative_eps_rejected(self, fig1_market):
        outcome = MarketOutcome(Matching([(0, 0)]), np.array([-6.0]), np.array([6.0, 0.0]))
        with pytest.raises(ValueError, match="eps"):
            is_stable_tu(fig1_market, outcome, -0.1)
        with pytest.raises(ValueError, match="eps"):
            payoff_inequalities_hold(*outcome.net_payoffs(fig1_market), fig1_market.joint(), -0.1)

    def test_stable_implies_max_weight(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(300):
            n_c, n_p = rng.integers(1, 5, 2)
            u = random_market(rng, int(n_c), int(n_p))
            outcome = random_zero_sum_outcome(rng, u)
            if is_stable_tu(u, outcome, 0.0):
                best = brute_force_max_weight(u.joint())
                assert outcome.matching.total_utility(u) == pytest.approx(best, abs=1e-9)
                checked += 1
        assert checked > 0


class TestStabilityNTU:
    def test_unique_stable_matching(self):
        u = UtilityMatrix(np.array([[0.1, 0.2]]), np.array([[1.0], [0.5]]))
        assert is_stable_ntu(u, Matching([(0, 1)]))
        assert not is_stable_ntu(u, Matching([(0, 0)]))

    def test_empty_matching_when_all_negative(self):
        u = UtilityMatrix(np.array([[-0.5, -0.2]]), np.array([[-0.1], [-0.9]]))
        assert is_stable_ntu(u, Matching())


# -- property: second best = heaviest of all other matchings ---------------------


def all_matchings(n_c: int, n_p: int):
    """Every matching of an n_c x n_p market as a sorted pair tuple."""
    for k in range(min(n_c, n_p) + 1):
        for rows in itertools.combinations(range(n_c), k):
            for cols in itertools.permutations(range(n_p), k):
                yield tuple(zip(rows, cols))


@st.composite
def small_markets(draw):
    """1x1 to 4x4 markets with entries in quarters from -1 to 1 (ties, zeros
    and negative entries are common) or any float in [-1, 1]."""
    n_c = draw(st.integers(1, 4))
    n_p = draw(st.integers(1, 4))
    if draw(st.booleans()):
        entries = st.integers(-4, 4).map(lambda k: k / 4.0)
    else:
        entries = st.floats(-1.0, 1.0, allow_nan=False)
    cv = draw(st.lists(entries, min_size=n_c * n_p, max_size=n_c * n_p))
    pv = draw(st.lists(entries, min_size=n_c * n_p, max_size=n_c * n_p))
    return UtilityMatrix(np.reshape(cv, (n_c, n_p)), np.reshape(pv, (n_p, n_c)))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(small_markets())
def test_second_best_is_heaviest_other_matching(u):
    best, _ = max_weight_matching_with_duals(u)
    second, weight = second_best_matching(u, best)
    joint = u.customer_values + u.provider_values.T
    others = [sum(joint[i, j] for i, j in m) for m in all_matchings(*joint.shape) if m != best.pairs]
    assert second.pairs != best.pairs
    assert weight == pytest.approx(max(others), abs=1e-12)
    assert weight == second.weight(joint)
