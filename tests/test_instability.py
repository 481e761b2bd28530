import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entries, random_market, random_zero_sum_outcome, tu_markets_and_outcomes
from smbandits.errors import InvalidOutcome, TooLarge
from smbandits.instability import (
    max_unhappiness_coalition,
    min_stabilizing_subsidy,
    ntu_subset_instability,
    ntu_subset_instability_bruteforce,
    subset_instability,
    subset_instability_bruteforce,
    subset_instability_value,
    utility_difference,
)
from smbandits.market import (
    Matching,
    MarketOutcome,
    UtilityMatrix,
    is_stable_ntu,
    is_stable_tu,
    max_weight_matching_with_duals,
    stable_outcome_from_duals,
)


# Markets with one customer or one provider are drawn as often as the rest.
_THIN_OR_RECTANGULAR = st.one_of(
    st.tuples(st.just(1), st.integers(1, 6)),
    st.tuples(st.integers(1, 6), st.just(1)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
)


class TestGoldenExample:
    def test_value_and_witness(self, fig1_market, fig1_bad_outcome):
        report = subset_instability(fig1_market, fig1_bad_outcome)
        assert report.value == pytest.approx(3.0, abs=1e-12)
        assert [a.tolist() for a in report.witness_subset] == [[0], [0]]
        assert [a.tolist() for a in report.blocking_pairs] == [[0], [0]]

    def test_subsidy_total(self, fig1_market, fig1_bad_outcome):
        value, s_c, s_p = min_stabilizing_subsidy(fig1_market, fig1_bad_outcome)
        assert value == pytest.approx(3.0, abs=1e-12)
        assert s_c[0] + s_p[0] == pytest.approx(3.0, abs=1e-12)
        assert s_p[1] == pytest.approx(0.0, abs=1e-12)

    def test_coalition(self, fig1_market, fig1_bad_outcome):
        value, coalition = max_unhappiness_coalition(fig1_market, fig1_bad_outcome)
        assert value == pytest.approx(3.0, abs=1e-12)
        assert [a.tolist() for a in coalition] == [[0], [0]]

    def test_utility_difference(self, fig1_market, fig1_bad_outcome):
        assert utility_difference(fig1_market, fig1_bad_outcome) == pytest.approx(2.0, abs=1e-12)

    def test_brute_force_agrees(self, fig1_market, fig1_bad_outcome):
        assert subset_instability_bruteforce(fig1_market, fig1_bad_outcome) == pytest.approx(3.0, abs=1e-12)


class TestSubsetInstability:
    def test_stable_outcome_scores_zero(self, fig1_market):
        outcome = MarketOutcome(Matching([(0, 0)]), np.array([-6.0]), np.array([6.0, 0.0]))
        assert subset_instability(fig1_market, outcome).value == pytest.approx(0.0, abs=1e-12)

    def test_non_zero_sum_rejected(self, fig1_market):
        outcome = MarketOutcome(Matching([(0, 0)]), np.array([-6.0]), np.array([7.0, 0.0]))
        with pytest.raises(InvalidOutcome):
            subset_instability(fig1_market, outcome)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n_c, n_p = rng.integers(1, 4, 2)
            u = random_market(rng, int(n_c), int(n_p))
            outcome = random_zero_sum_outcome(rng, u)
            report = subset_instability(u, outcome)
            brute = subset_instability_bruteforce(u, outcome)
            assert report.value == pytest.approx(brute, abs=1e-9)
            assert subset_instability_value(u, outcome) == pytest.approx(brute, abs=1e-9)

    def test_matches_brute_force_at_ten_agents(self):
        rng = np.random.default_rng(210)
        for _ in range(20):
            u = random_market(rng, 5, 5)
            outcome = random_zero_sum_outcome(rng, u)
            assert subset_instability_value(u, outcome) == pytest.approx(
                subset_instability_bruteforce(u, outcome), abs=1e-9
            )

    def test_witness_expression_equals_value(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            u = random_market(rng, 3, 3)
            outcome = random_zero_sum_outcome(rng, u)
            report = subset_instability(u, outcome)
            wc, wp = report.witness_subset
            sub = u.restrict(wc, wp)
            best_sub, _ = max_weight_matching_with_duals(sub)
            q_c, q_p = outcome.net_payoffs(u)
            expression = best_sub.total_utility(sub) - (q_c[wc].sum() + q_p[wp].sum())
            assert expression == pytest.approx(report.value, abs=1e-9)

    def test_zero_iff_stable_both_directions(self):
        rng = np.random.default_rng(23)
        stable_seen = unstable_seen = 0
        for _ in range(500):
            n_c, n_p = rng.integers(1, 4, 2)
            u = random_market(rng, int(n_c), int(n_p))
            outcome = random_zero_sum_outcome(rng, u)
            value = subset_instability_value(u, outcome)
            stable = is_stable_tu(u, outcome, 0.0)
            assert (value <= 1e-9) == stable
            stable_seen += stable
            unstable_seen += not stable
        assert stable_seen > 0 and unstable_seen > 0

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(tu_markets_and_outcomes(_THIN_OR_RECTANGULAR), st.data())
    def test_lipschitz_in_utilities(self, case, data):
        """|SI(u') - SI(u)| <= 2 (sum_i max_j |dc_ij| + sum_j max_i |dp_ji|) for the same outcome, on random and
        tie-heavy markets, under perturbations whose entries are quarter-integers or floats, about half of them 0."""
        u, outcome = case
        n_c, n_p = u.num_customers, u.num_providers
        delta = st.one_of(st.just(0.0), entries(data.draw(st.booleans()), 4))
        dc = np.reshape(data.draw(st.lists(delta, min_size=n_c * n_p, max_size=n_c * n_p)), (n_c, n_p))
        dp = np.reshape(data.draw(st.lists(delta, min_size=n_c * n_p, max_size=n_c * n_p)), (n_p, n_c))
        if data.draw(st.booleans()):
            # One agent's row alone, where the bound charges one maximum for a whole row and is tightest.
            row = np.arange(n_c + n_p) == data.draw(st.integers(0, n_c + n_p - 1))
            dc, dp = np.where(row[:n_c, None], dc, 0.0), np.where(row[n_c:, None], dp, 0.0)
        perturbed = UtilityMatrix(u.customer_values + dc, u.provider_values + dp)
        bound = 2.0 * (np.abs(dc).max(axis=1).sum() + np.abs(dp).max(axis=1).sum())
        for value in (subset_instability_value, lambda *a: subset_instability(*a).value):
            assert abs(value(perturbed, outcome) - value(u, outcome)) <= bound + 1e-9

    def test_utility_difference_lower_bound(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            n_c, n_p = rng.integers(1, 5, 2)
            u = random_market(rng, int(n_c), int(n_p))
            outcome = random_zero_sum_outcome(rng, u)
            assert utility_difference(u, outcome) <= subset_instability_value(u, outcome) + 1e-9

    def test_utility_difference_zero_for_optimal_matching(self):
        rng = np.random.default_rng(26)
        u = random_market(rng, 3, 3)
        match, duals = max_weight_matching_with_duals(u)
        outcome = stable_outcome_from_duals(u, match, duals)
        assert utility_difference(u, outcome) == pytest.approx(0.0, abs=1e-9)

    def test_brute_force_guard(self):
        u = UtilityMatrix(np.zeros((7, 7)), np.zeros((7, 7)))
        outcome = MarketOutcome(Matching(), np.zeros(7), np.zeros(7))
        with pytest.raises(TooLarge):
            subset_instability_bruteforce(u, outcome)


class TestSubsidies:
    def test_feasibility_and_total(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            n_c, n_p = rng.integers(1, 5, 2)
            u = random_market(rng, int(n_c), int(n_p))
            outcome = random_zero_sum_outcome(rng, u)
            report = subset_instability(u, outcome)
            s_c, s_p = report.subsidies_customers, report.subsidies_providers
            assert s_c.min() >= 0.0 and s_p.min() >= 0.0
            assert report.subsidy_total() == pytest.approx(report.value, abs=1e-9)
            q_c, q_p = outcome.net_payoffs(u)
            assert (q_c + s_c).min() >= -1e-9
            assert (q_p + s_p).min() >= -1e-9
            slack = (q_c + s_c)[:, None] + (q_p + s_p)[None, :] - u.joint()
            assert slack.min() >= -1e-9

    def test_stable_outcome_gets_zero_subsidies(self, fig1_market):
        outcome = MarketOutcome(Matching([(0, 0)]), np.array([-6.0]), np.array([6.0, 0.0]))
        value, s_c, s_p = min_stabilizing_subsidy(fig1_market, outcome)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(s_c, 0.0) and np.allclose(s_p, 0.0)


class TestCoalition:
    def test_three_way_equivalence(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            n_c, n_p = rng.integers(1, 5, 2)
            u = random_market(rng, int(n_c), int(n_p))
            outcome = random_zero_sum_outcome(rng, u)
            value = subset_instability_value(u, outcome)
            subsidy_value, _, _ = min_stabilizing_subsidy(u, outcome)
            unhappiness, _ = max_unhappiness_coalition(u, outcome)
            assert subsidy_value == pytest.approx(value, abs=1e-9)
            assert unhappiness == pytest.approx(value, abs=1e-9)

    def test_stable_outcome_has_empty_coalition(self, fig1_market):
        outcome = MarketOutcome(Matching([(0, 0)]), np.array([-6.0]), np.array([6.0, 0.0]))
        value, coalition = max_unhappiness_coalition(fig1_market, outcome)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert [a.tolist() for a in coalition] == [[], []]


class TestNtuInstability:
    def test_stable_matching_scores_zero(self):
        u = UtilityMatrix(np.array([[0.1, 0.2]]), np.array([[1.0], [0.5]]))
        assert ntu_subset_instability(u, Matching([(0, 1)])).value == pytest.approx(0.0, abs=1e-12)

    def test_cheapest_side_subsidized(self):
        # Unstable matching: the customer's 0.1 upgrade is cheaper to buy off
        # than the jilted provider's 0.5 gain.
        u = UtilityMatrix(np.array([[0.1, 0.2]]), np.array([[1.0], [0.5]]))
        report = ntu_subset_instability(u, Matching([(0, 0)]))
        assert report.value == pytest.approx(0.1, abs=1e-12)
        assert report.subsidies_customers[0] == pytest.approx(0.1, abs=1e-12)
        assert ntu_subset_instability_bruteforce(u, Matching([(0, 0)])) == pytest.approx(0.1, abs=1e-12)

    def test_single_blocked_pair_min_gain(self):
        u = UtilityMatrix(np.array([[0.7]]), np.array([[0.4]]))
        assert ntu_subset_instability(u, Matching()).value == pytest.approx(0.4, abs=1e-12)

    def test_value_equals_subsidy_sum_and_feasible(self):
        rng = np.random.default_rng(30)
        for _ in range(150):
            n_c, n_p = rng.integers(1, 4, 2)
            u = random_market(rng, int(n_c), int(n_p))
            outcome = random_zero_sum_outcome(rng, u)
            m = outcome.matching
            report = ntu_subset_instability(u, m)
            assert report.value == pytest.approx(
                report.subsidies_customers.sum() + report.subsidies_providers.sum(), abs=1e-12
            )
            assert report.value == pytest.approx(ntu_subset_instability_bruteforce(u, m), abs=1e-9)
            assert (report.value <= 1e-9) == is_stable_ntu(u, m)

    def test_ntu_lipschitz(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            u = random_market(rng, 3, 3)
            m = random_zero_sum_outcome(rng, u).matching
            delta_c = rng.uniform(-0.1, 0.1, u.customer_values.shape)
            delta_p = rng.uniform(-0.1, 0.1, u.provider_values.shape)
            perturbed = UtilityMatrix(u.customer_values + delta_c, u.provider_values + delta_p)
            lhs = abs(ntu_subset_instability(u, m).value - ntu_subset_instability(perturbed, m).value)
            bound = 2.0 * (np.abs(delta_c).max(axis=1).sum() + np.abs(delta_p).max(axis=1).sum())
            assert lhs <= bound + 1e-9

    def test_exact_solver_guard(self):
        u = UtilityMatrix(np.zeros((9, 2)), np.zeros((2, 9)))
        with pytest.raises(TooLarge):
            ntu_subset_instability(u, Matching())


class TestNtuUpperBound:
    def test_width_sum_arithmetic(self):
        from smbandits.confidence import UnstructuredConfidence

        conf = UnstructuredConfidence(2, 2)
        # Fresh sets: every orientation has width 2, one pair contributes 4.
        assert conf.width_sum(Matching([(0, 0)])) == 4.0
        assert conf.width_sum(Matching([(0, 0), (1, 1)])) == 8.0
        conf.lo_c[0, 0], conf.hi_c[0, 0] = 0.1, 0.4
        conf.lo_p[0, 0], conf.hi_p[0, 0] = -0.2, 0.3
        assert conf.width_sum(Matching([(0, 0)])) == pytest.approx(0.8)

    def test_certifies_exact_value_under_containment(self):
        from smbandits.confidence import UnstructuredConfidence
        from smbandits.policies import all_arrivals, compute_match_ntu

        rng = np.random.default_rng(32)
        for _ in range(60):
            truth = random_market(rng, 3, 3)
            conf = UnstructuredConfidence(3, 3)
            width = rng.uniform(0.05, 0.8)
            off_c = rng.uniform(0.0, width, (3, 3))
            off_p = rng.uniform(0.0, width, (3, 3))
            conf.lo_c[:] = truth.customer_values - off_c
            conf.hi_c[:] = conf.lo_c + width
            conf.lo_p[:] = truth.provider_values - off_p
            conf.hi_p[:] = conf.lo_p + width
            matching = compute_match_ntu(conf, all_arrivals(3, 3))
            bound = conf.width_sum(matching)
            exact = ntu_subset_instability(truth, matching).value
            assert exact <= bound + 1e-9


class TestIdentityProperties:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(tu_markets_and_outcomes())
    def test_value_subsidy_and_coalition_identities(self, case):
        u, outcome = case
        report = subset_instability(u, outcome)
        value = report.value
        tol = 1e-9 * max(1.0, abs(value))
        assert utility_difference(u, outcome) <= value + tol
        assert abs(report.subsidy_total() - value) <= tol
        # The largest gain of any coalition, by literal enumeration of subsets.
        assert abs(subset_instability_bruteforce(u, outcome) - value) <= tol
        # The witness: distinct sorted indices in range, every blocking pair
        # inside it, and a coalition whose gain is the value.
        wc, wp = report.witness_subset
        for w, n in ((wc, u.num_customers), (wp, u.num_providers)):
            assert w.dtype == np.intp and (np.diff(w) > 0).all() and ((0 <= w) & (w < n)).all()
        rows, cols = report.blocking_pairs
        assert np.isin(rows, wc).all() and np.isin(cols, wp).all()
        sub = u.restrict(wc, wp)
        q_c, q_p = outcome.net_payoffs(u)
        gain = max_weight_matching_with_duals(sub)[0].total_utility(sub) - (q_c[wc].sum() + q_p[wp].sum())
        assert abs(gain - value) <= tol

