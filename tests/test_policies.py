import math

import numpy as np
import pytest

from conftest import random_market
from smbandits.confidence import ConfidenceConfig, LinearConfidence, UnstructuredConfidence
from smbandits.errors import ProtocolViolation
from smbandits.instability import subset_instability_value
from smbandits.market import (
    Matching,
    UtilityMatrix,
    is_stable_ntu,
    is_stable_tu,
    payoff_inequalities_hold,
)
from smbandits.policies import (
    EtcPolicy,
    MatchNtuUcbPolicy,
    MatchUcbPolicy,
    MatchUcbPrimePolicy,
    RevenueFrictionsPolicy,
    all_arrivals,
    compute_match,
    compute_match_ntu,
    compute_match_prime,
    expanded_upper_bounds,
)


def collapsed_conf(values: UtilityMatrix) -> UnstructuredConfidence:
    conf = UnstructuredConfidence(values.num_customers, values.num_providers)
    conf.collapse_to(values)
    return conf


def shifted_conf(truth: UtilityMatrix, rng: np.random.Generator, width: float) -> UnstructuredConfidence:
    """Intervals of the given width positioned randomly around the truth."""
    conf = UnstructuredConfidence(truth.num_customers, truth.num_providers)
    off_c = rng.uniform(0.0, width, truth.customer_values.shape)
    off_p = rng.uniform(0.0, width, truth.provider_values.shape)
    conf.lo_c[:] = truth.customer_values - off_c
    conf.hi_c[:] = conf.lo_c + width
    conf.lo_p[:] = truth.provider_values - off_p
    conf.hi_p[:] = conf.lo_p + width
    return conf


def echo_feedback(truth: UtilityMatrix):
    def feedback(matching: Matching) -> tuple[np.ndarray, np.ndarray]:
        ci, pj = matching.index_arrays
        return truth.customer_values[ci, pj], truth.provider_values[pj, ci]

    return feedback


class TestComputeMatch:
    def test_fig1_upper_bounds_pick_expensive_provider(self):
        # Optimistic utilities from the example's uncertainty sets: the
        # expensive provider looks better (joint 7 vs 6), so it is chosen.
        ucb = UtilityMatrix(np.array([[10.0, 16.0]]), np.array([[-4.0], [-9.0]]))
        conf = collapsed_conf(ucb)
        outcome = compute_match(conf, all_arrivals(1, 2))
        assert outcome.matching.pairs == ((0, 1),)

    def test_collapsed_sets_give_truth_stable_outcome(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            truth = random_market(rng, 3, 3)
            conf = collapsed_conf(truth)
            outcome = compute_match(conf, all_arrivals(3, 3))
            assert is_stable_tu(truth, outcome, 0.0)
            assert subset_instability_value(truth, outcome) == pytest.approx(0.0, abs=1e-9)

    def test_outcome_stable_for_ucb_utilities(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            truth = random_market(rng, 4, 3)
            conf = shifted_conf(truth, rng, width=rng.uniform(0.05, 1.0))
            outcome = compute_match(conf, all_arrivals(4, 3))
            assert is_stable_tu(conf.ucb_matrix(), outcome, 0.0)

    def test_restricts_to_arrivals(self):
        ucb = UtilityMatrix(np.array([[10.0, 16.0]]), np.array([[-4.0], [-9.0]]))
        conf = collapsed_conf(ucb)
        outcome = compute_match(conf, (np.array([0]), np.array([0])))
        assert outcome.matching.pairs == ((0, 0),)
        assert outcome.provider_transfers[1] == 0.0

    def test_full_arrivals_out_of_order(self):
        # Arrivals listing every agent, in another order, are the same agents:
        # the market is gathered through them, not taken in index order.
        rng = np.random.default_rng(3)
        conf = UnstructuredConfidence(3, 3)
        conf.hi_c[:] = rng.uniform(-1.0, 1.0, (3, 3))
        conf.hi_p[:] = rng.uniform(-1.0, 1.0, (3, 3))
        scrambled = compute_match(conf, (np.array([2, 1, 0]), np.array([0, 1, 2])))
        ordered = compute_match(conf, all_arrivals(3, 3))
        assert scrambled.matching.pairs == ordered.matching.pairs == ((0, 2),)
        assert is_stable_tu(conf.ucb_matrix(), scrambled)


class TestComputeMatchPrime:
    def test_collapsed_sets_match_compute_match(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            truth = random_market(rng, 3, 3)
            conf = collapsed_conf(truth)
            plain = compute_match(conf, all_arrivals(3, 3))
            prime, info = compute_match_prime(conf, all_arrivals(3, 3))
            assert prime.matching.pairs == plain.matching.pairs

    def test_returned_pair_optimal_for_its_ucb(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            truth = random_market(rng, 3, 3)
            conf = shifted_conf(truth, rng, width=rng.uniform(0.02, 0.6))
            outcome, info = compute_match_prime(conf, all_arrivals(3, 3))
            reference = expanded_upper_bounds(conf) if info["branch"] == "expanded" else conf.ucb_matrix()
            # Stability against the utilities it was computed from is exactly
            # optimality of the primal-dual pair.
            assert payoff_inequalities_hold(*outcome.net_payoffs(reference), reference.joint(), 0.0)
            outcome.check_zero_sum()

    def test_small_widths_give_truth_stable_outcome(self):
        # The gap hypothesis: widths at most 0.05 * gap / |A| with the truth
        # inside every interval force a truth-stable outcome.
        rng = np.random.default_rng(44)
        checked = 0
        for _ in range(40):
            truth = random_market(rng, 2, 2)
            from smbandits.market import max_weight_matching_with_duals, second_best_matching

            best, _ = max_weight_matching_with_duals(truth)
            try:
                _, second_w = second_best_matching(truth, best)
            except Exception:
                continue
            gap = best.total_utility(truth) - second_w
            if gap < 0.05:
                continue
            width = 0.04 * gap / 4.0
            conf = shifted_conf(truth, rng, width=width)
            outcome, _ = compute_match_prime(conf, all_arrivals(2, 2))
            assert is_stable_tu(truth, outcome, 0.0)
            checked += 1
        assert checked >= 10

    def test_zero_gap_falls_back(self):
        # Two identical pairs: the best and second-best matchings tie.
        u = UtilityMatrix(np.array([[0.5, 0.5]]), np.array([[0.1], [0.1]]))
        conf = collapsed_conf(u)
        outcome, info = compute_match_prime(conf, all_arrivals(1, 2))
        assert info["branch"] == "fallback"
        assert is_stable_tu(u, outcome, 0.0)


    def test_policy_records_branch_and_gap(self):
        rng = np.random.default_rng(45)
        truth = random_market(rng, 3, 3)
        feedback = echo_feedback(truth)
        conf = UnstructuredConfidence(3, 3, config=ConfidenceConfig(ucb_scale=1.0))
        policy = MatchUcbPrimePolicy(conf, horizon=200)
        branches = set()
        for _ in range(80):
            expected_outcome, expected_info = compute_match_prime(policy.conf, all_arrivals(3, 3))
            decision = policy.step(all_arrivals(3, 3), feedback)
            assert decision.info == expected_info
            assert set(decision.info) == {"branch", "gap"}
            assert decision.outcome.matching.pairs == expected_outcome.matching.pairs
            expanded = decision.info["branch"] == "expanded"
            assert decision.certified_instability_bound == (2.0 if expanded else 1.0) * decision.width_sum
            branches.add(decision.info["branch"])
        assert "robust" in branches and len(branches) >= 2

    def test_other_policies_record_no_info(self):
        truth = random_market(np.random.default_rng(46), 2, 2)
        for cls in (MatchUcbPolicy, MatchNtuUcbPolicy, EtcPolicy):
            policy = cls(UnstructuredConfidence(2, 2), horizon=10)
            assert policy.step(all_arrivals(2, 2), echo_feedback(truth)).info is None


class TestComputeMatchNtu:
    def test_example_market_unique_stable_matching(self):
        u = UtilityMatrix(np.array([[0.1, 0.2]]), np.array([[1.0], [0.5]]))
        conf = collapsed_conf(u)
        assert compute_match_ntu(conf, all_arrivals(1, 2)).pairs == ((0, 1),)

    def test_negative_side_gives_empty_matching(self):
        u = UtilityMatrix(np.array([[0.5, 0.6]]), np.array([[-0.2], [-0.4]]))
        conf = collapsed_conf(u)
        assert compute_match_ntu(conf, all_arrivals(1, 2)).pairs == ()

    def test_no_blocking_pairs_under_ucb(self):
        rng = np.random.default_rng(45)
        for _ in range(60):
            truth = random_market(rng, 5, 5)
            conf = shifted_conf(truth, rng, width=rng.uniform(0.0, 0.8))
            matching = compute_match_ntu(conf, all_arrivals(5, 5))
            assert is_stable_ntu(conf.ucb_matrix(), matching)


class TestPolicyLoops:
    def test_width_sum_on_first_round(self):
        truth = random_market(np.random.default_rng(46), 3, 3)
        conf = UnstructuredConfidence(3, 3)
        policy = MatchUcbPolicy(conf, horizon=100)
        decision = policy.step(all_arrivals(3, 3), echo_feedback(truth))
        assert decision.width_sum == 4.0 * len(decision.outcome.matching)

    def test_mode_compatibility_enforced(self):
        ctx = np.eye(2)
        conf = LinearConfidence(ctx, ctx)
        with pytest.raises(ValueError):
            MatchUcbPrimePolicy(conf, horizon=10)
        with pytest.raises(ValueError):
            MatchNtuUcbPolicy(conf, horizon=10)

    def test_feedback_cardinality_checked(self):
        truth = random_market(np.random.default_rng(47), 2, 2)
        conf = UnstructuredConfidence(2, 2)
        policy = MatchUcbPolicy(conf, horizon=10)

        def broken(matching: Matching) -> tuple[np.ndarray, np.ndarray]:
            r_c, r_p = echo_feedback(truth)(matching)
            return r_c[1:], r_p

        with pytest.raises(ProtocolViolation):
            policy.step(all_arrivals(2, 2), broken)


class TestEtc:
    def test_pulls_per_pair_formula(self):
        horizon, agents = 5000, 6
        expected = math.ceil((horizon / agents) ** (2 / 3) * math.log(agents * horizon) ** (1 / 3))
        assert EtcPolicy.default_pulls_per_pair(agents, horizon) == expected

    def test_explores_each_pair_then_freezes(self):
        truth = random_market(np.random.default_rng(48), 2, 2)
        conf = UnstructuredConfidence(2, 2)
        policy = EtcPolicy(conf, horizon=400, pulls_per_pair=5)
        feedback = echo_feedback(truth)
        rounds = 0
        while not policy.committed:
            policy.step(all_arrivals(2, 2), feedback)
            rounds += 1
            assert rounds < 100
        assert (policy.explored == 5).all()
        names = ("lo_c", "hi_c", "lo_p", "hi_p", "counts", "mean")
        frozen = {name: getattr(policy.conf, name).copy() for name in names}
        for _ in range(5):
            decision = policy.step(all_arrivals(2, 2), feedback)
            assert is_stable_tu(policy.conf.ucb_matrix(), decision.outcome, 0.0)
        for name in names:
            np.testing.assert_array_equal(getattr(policy.conf, name), frozen[name], err_msg=name)

    def test_round_robin_is_balanced(self):
        conf = UnstructuredConfidence(3, 3)
        policy = EtcPolicy(conf, horizon=1000, pulls_per_pair=4)
        truth = random_market(np.random.default_rng(49), 3, 3)
        feedback = echo_feedback(truth)
        for _ in range(3):
            policy.step(all_arrivals(3, 3), feedback)
            assert policy.explored.max() - policy.explored.min() <= 1


class TestZeroSumInvariants:
    def test_tu_policies_emit_zero_sum_and_ucb_stable_outcomes(self):
        rng = np.random.default_rng(52)
        truth = random_market(rng, 3, 3)
        feedback = echo_feedback(truth)
        for cls in (MatchUcbPolicy, MatchUcbPrimePolicy, EtcPolicy):
            conf = UnstructuredConfidence(3, 3, config=ConfidenceConfig(ucb_scale=1.0))
            policy = cls(conf, horizon=100)
            for _ in range(60):
                ucb_before = policy.conf.ucb_matrix()
                decision = policy.step(all_arrivals(3, 3), feedback)
                decision.outcome.check_zero_sum()
                if cls is MatchUcbPolicy:
                    assert is_stable_tu(ucb_before, decision.outcome, 0.0)

    def test_ntu_policy_emits_zero_transfers(self):
        rng = np.random.default_rng(53)
        truth = random_market(rng, 3, 3)
        conf = UnstructuredConfidence(3, 3)
        policy = MatchNtuUcbPolicy(conf, horizon=50)
        for _ in range(20):
            decision = policy.step(all_arrivals(3, 3), echo_feedback(truth))
            assert (decision.outcome.customer_transfers == 0).all()
            assert (decision.outcome.provider_transfers == 0).all()


class TestMistakeBound:
    def test_unstable_rounds_are_rare_and_front_loaded(self):
        # Instance-dependent behaviour on the fixed gap-0.4 market: in a
        # regime whose constants fit the horizon (interval constant 0.1,
        # noise sigma 0.05), unstable rounds stay below 1% of the horizon
        # and essentially stop accruing in the second half.
        from smbandits.environment import ArrivalSpec, MarketInstance, NoiseSpec, PolicySpec, UnstructuredClass, run

        truth = UtilityMatrix(
            np.array([[0.5, 0.4], [0.2, 0.35]]),
            np.array([[0.3, 0.3], [0.1, 0.25]]),
        )
        spec = PolicySpec("match_ucb_prime", ConfidenceConfig(ucb_scale=0.1))
        horizon = 10_000
        for seed in (0, 1):
            inst = MarketInstance(truth, UnstructuredClass(), ArrivalSpec(), NoiseSpec(sigma=0.05), seed)
            trace = run(inst, spec, horizon)
            unstable = ~trace.stable_truth
            total = int(unstable.sum())
            late = int(unstable[horizon // 2 :].sum())
            assert total < 0.01 * horizon, f"{total} unstable rounds out of {horizon}"
            assert late <= max(5, 0.1 * (total - late)), f"not flat: {late} late vs {total - late} early"


class TestRevenueFrictions:
    def test_collapsed_sets_charge_epsilon_per_matched_agent(self):
        rng = np.random.default_rng(50)
        truth = random_market(rng, 3, 3)
        conf = collapsed_conf(truth)
        policy = RevenueFrictionsPolicy(conf, horizon=100, epsilon=0.3)
        decision = policy.step(all_arrivals(3, 3), echo_feedback(truth))
        matched = 2 * len(decision.outcome.matching)
        assert decision.revenue == pytest.approx(0.3 * matched, abs=1e-9)

    def test_published_outcome_eps_stable_under_containment(self):
        rng = np.random.default_rng(51)
        eps = 0.25
        for _ in range(40):
            truth = random_market(rng, 3, 3)
            conf = shifted_conf(truth, rng, width=rng.uniform(0.0, 0.5))
            policy = RevenueFrictionsPolicy(conf, horizon=100, epsilon=eps)
            decision = policy.step(all_arrivals(3, 3), echo_feedback(truth))
            assert payoff_inequalities_hold(*decision.outcome.net_payoffs(truth), truth.joint(), eps)
            decision.scored_outcome.check_zero_sum()

    def test_rejects_nonpositive_epsilon(self):
        conf = UnstructuredConfidence(2, 2)
        with pytest.raises(ValueError):
            RevenueFrictionsPolicy(conf, horizon=10, epsilon=0.0)
