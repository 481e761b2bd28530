"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS line on success (pytest reports failures). The
simulation criteria pin their exploration constants explicitly; the interval
constant stays at its published default of 8 wherever that regime exhibits
the claimed behaviour at desk scale, and is reduced (documented per test)
where the default's constants put the claimed effect beyond the stated
horizon.
"""

import time

import numpy as np
import pytest

from conftest import random_market, random_zero_sum_outcome
from smbandits.confidence import ConfidenceConfig, UnstructuredConfidence
from smbandits.environment import (
    ArrivalSpec,
    MarketInstance,
    NoiseSpec,
    PolicySpec,
    UnstructuredClass,
    gen_instance,
    run,
)
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
    customer,
    is_stable_ntu,
    is_stable_tu,
    max_weight_matching_with_duals,
    provider,
    stable_outcome_from_duals,
)
from smbandits.policies import MatchNtuUcbPolicy

SEEDS = tuple(range(20))

# Gap-0.4 market: diagonal matching weighs 1.4, the crossed one 1.0.
GAP_TRUTH = UtilityMatrix(
    np.array([[0.5, 0.4], [0.2, 0.35]]),
    np.array([[0.3, 0.3], [0.1, 0.25]]),
)


def report(number: int, description: str) -> None:
    print(f"criterion {number:02d}: PASS  {description}")


def elapsed_under(started: float, budget_s: float, number: int) -> None:
    took = time.perf_counter() - started
    assert took < budget_s, f"criterion {number} exceeded its {budget_s}s budget ({took:.1f}s)"


def fig1() -> tuple[UtilityMatrix, MarketOutcome]:
    truth = UtilityMatrix(np.array([[9.0, 12.0]]), np.array([[-5.0], [-10.0]]))
    outcome = MarketOutcome(Matching([(0, 1)]), np.array([-11.0]), np.array([0.0, 11.0]))
    return truth, outcome


def test_criterion_01_golden_values():
    truth, outcome = fig1()
    # Warm up, then time one full evaluation.
    subset_instability(truth, outcome)
    times = []
    for _ in range(30):
        t0 = time.perf_counter()
        rep = subset_instability(truth, outcome)
        ud = utility_difference(truth, outcome)
        times.append(time.perf_counter() - t0)
    assert rep.value == 3.0
    assert ud == 2.0
    assert rep.subsidy_total() == pytest.approx(3.0, abs=1e-12)
    assert rep.witness_subset == frozenset({customer(0), provider(0)})
    value, coalition = max_unhappiness_coalition(truth, outcome)
    assert value == 3.0 and coalition == frozenset({customer(0), provider(0)})
    median = sorted(times)[len(times) // 2]
    assert median < 1e-3, f"golden evaluation took {median * 1e3:.3f} ms"
    report(1, f"golden values exact; evaluation {median * 1e6:.0f} us")


def test_criterion_02_metric_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    for _ in range(200):
        n_c = int(rng.integers(1, 5))
        n_p = int(rng.integers(1, min(9 - n_c, 5)))
        u = random_market(rng, n_c, n_p)
        outcome = random_zero_sum_outcome(rng, u)
        value = subset_instability_value(u, outcome)
        brute = subset_instability_bruteforce(u, outcome)
        subsidy, _, _ = min_stabilizing_subsidy(u, outcome)
        unhappiness, _ = max_unhappiness_coalition(u, outcome)
        assert value == pytest.approx(brute, abs=1e-9)
        assert subsidy == pytest.approx(value, abs=1e-9)
        assert unhappiness == pytest.approx(value, abs=1e-9)
    elapsed_under(t0, 60.0, 2)
    report(2, "dual reduction = brute force = min subsidy = max unhappiness on 200 instances")


def test_criterion_03_metric_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    stable_count = 0
    for _ in range(500):
        n_c, n_p = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        u = random_market(rng, n_c, n_p)
        outcome = random_zero_sum_outcome(rng, u)
        value = subset_instability_value(u, outcome)
        stable = is_stable_tu(u, outcome, 0.0)
        assert (value <= 1e-9) == stable
        assert utility_difference(u, outcome) <= value + 1e-9
        stable_count += stable
    assert 0 < stable_count < 500  # both directions actually exercised
    for _ in range(100):
        u = random_market(rng, 3, 3)
        outcome = random_zero_sum_outcome(rng, u)
        delta_c = rng.uniform(-0.2, 0.2, (3, 3))
        delta_p = rng.uniform(-0.2, 0.2, (3, 3))
        perturbed = UtilityMatrix(u.customer_values + delta_c, u.provider_values + delta_p)
        change = abs(subset_instability_value(u, outcome) - subset_instability_value(perturbed, outcome))
        bound = 2.0 * (np.abs(delta_c).max(axis=1).sum() + np.abs(delta_p).max(axis=1).sum())
        assert change <= bound + 1e-9
    elapsed_under(t0, 60.0, 3)
    report(3, "zero iff stable (both directions), Lipschitz bound, utility-difference lower bound")


def test_criterion_04_width_certificate():
    t0 = time.perf_counter()
    spec = PolicySpec("match_ucb")  # published interval constant (8)
    contained_everywhere = 0
    for seed in SEEDS:
        inst = gen_instance("unstructured", 3, 3, seed=seed)
        trace = run(inst, spec, 2000)
        mask = trace.containment
        assert (trace.instability[mask] <= trace.width_sum[mask] + 1e-9).all()
        contained_everywhere += bool(mask.all())
    assert contained_everywhere >= 19, f"containment on all rounds in only {contained_everywhere}/20 seeds"
    elapsed_under(t0, 120.0, 4)
    report(4, f"certificate holds; containment on all rounds in {contained_everywhere}/20 seeds")


def test_criterion_05_sqrt_t_scaling():
    t0 = time.perf_counter()
    spec = PolicySpec("match_ucb")  # published interval constant (8)
    at_2000, at_8000 = [], []
    for seed in SEEDS:
        inst = gen_instance("unstructured", 3, 3, seed=seed)
        trace = run(inst, spec, 8000)
        cum = trace.cum_regret
        at_2000.append(cum[1999])
        at_8000.append(cum[-1])
    ratio = float(np.mean(at_8000) / np.mean(at_2000))
    assert 1.6 <= ratio <= 2.6, f"T=8000/T=2000 regret ratio {ratio:.3f} outside [1.6, 2.6]"
    elapsed_under(t0, 300.0, 5)
    report(5, f"regret ratio {ratio:.3f} (ideal 2.0 for sqrt-T growth)")


def test_criterion_06_structure_separation():
    t0 = time.perf_counter()
    means = {}
    cells = [
        ("typed", PolicySpec("match_typed_ucb")),
        ("linear", PolicySpec("match_lin_ucb")),
        ("unstructured", PolicySpec("match_ucb")),
    ]
    for klass, spec in cells:
        finals = []
        for seed in SEEDS:
            inst = gen_instance(klass, 12, 12, seed=seed, num_types=3, dim=3)
            finals.append(run(inst, spec, 4000).cum_regret[-1])
        means[klass] = float(np.mean(finals))
    typed, linear, unstructured = means["typed"], means["linear"], means["unstructured"]
    assert typed < linear < unstructured, f"ordering violated: {means}"
    gap_tl = (linear - typed) / linear
    gap_lu = (unstructured - linear) / unstructured
    assert gap_tl >= 0.20, f"typed/linear gap {gap_tl:.2%} below 20%"
    assert gap_lu >= 0.20, f"linear/unstructured gap {gap_lu:.2%} below 20%"
    elapsed_under(t0, 600.0, 6)
    report(6, f"typed {typed:.0f} < linear {linear:.0f} < unstructured {unstructured:.0f} (gaps {gap_tl:.0%}, {gap_lu:.0%})")


def test_criterion_07_instance_dependent_plateau():
    # Interval constant 1.0: with the published 8 the widths still dominate
    # the 0.4 gap at T=20,000 and the plateau has not begun.
    t0 = time.perf_counter()
    spec = PolicySpec("match_ucb_prime", ConfidenceConfig(ucb_scale=1.0))
    first_half, second_half = 0, 0
    for seed in SEEDS:
        inst = MarketInstance(GAP_TRUTH, UnstructuredClass(), ArrivalSpec(), NoiseSpec(), seed)
        trace = run(inst, spec, 20000)
        unstable = ~trace.stable_truth
        first_half += int(unstable[:10000].sum())
        second_half += int(unstable[10000:].sum())
    assert second_half <= 1.2 * first_half, (
        f"unstable rounds grew: {second_half} in (10k, 20k] vs {first_half} in [1, 10k]"
    )
    elapsed_under(t0, 300.0, 7)
    report(7, f"unstable rounds {first_half} then {second_half} (ratio {second_half / max(first_half, 1):.3f})")


def test_criterion_08_revenue_crossover():
    # Interval constant 1.0: uncertainty refunds under the published constant
    # exceed the eps fee for the whole horizon, deferring profit beyond it.
    t0 = time.perf_counter()
    eps = 0.3
    spec = PolicySpec("revenue_frictions", ConfidenceConfig(ucb_scale=1.0), epsilon=eps)
    crossed = 0
    for seed in SEEDS:
        inst = gen_instance("unstructured", 3, 3, seed=seed)
        trace = run(inst, spec, 5000)
        cum = trace.cum_revenue
        assert cum[99] < 0.0, "revenue not negative early"
        if (cum > 0).any():
            crossed += 1
        mask = trace.containment
        assert trace.stable_truth[mask].all(), "eps-stability violated on a containment round"
    assert crossed >= 18, f"revenue crossed zero in only {crossed}/20 seeds"
    elapsed_under(t0, 180.0, 8)
    report(8, f"revenue negative early, crossed zero before T=5000 in {crossed}/20 seeds, eps-stable throughout")


def test_criterion_09_ntu_suite():
    t0 = time.perf_counter()

    # Deferred acceptance output has no blocking pair w.r.t. the optimistic
    # utilities, checked against the pre-update sets on every round.
    inst = gen_instance("unstructured", 3, 3, seed=0)
    conf = UnstructuredConfidence(3, 3)
    policy = MatchNtuUcbPolicy(conf, horizon=1000)
    arrivals = (np.arange(3), np.arange(3))
    noise_rng = np.random.default_rng(90)

    def feedback_for(truth):
        def feedback(matching):
            r_c, r_p = [], []
            for i, j in matching.pairs:
                r_c.append(truth.customer_values[i, j] + noise_rng.standard_normal())
                r_p.append(truth.provider_values[j, i] + noise_rng.standard_normal())
            return np.array(r_c), np.array(r_p)

        return feedback

    for _ in range(1000):
        ucb_before = conf.ucb_matrix()
        decision = policy.step(arrivals, feedback_for(inst.truth))
        assert is_stable_ntu(ucb_before, decision.outcome.matching)

    # Exact NTU metric agrees with the candidate-enumeration oracle.
    rng = np.random.default_rng(1009)
    for _ in range(100):
        n_c, n_p = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        u = random_market(rng, n_c, n_p)
        m = random_zero_sum_outcome(rng, u).matching
        exact = ntu_subset_instability(u, m).value
        oracle = ntu_subset_instability_bruteforce(u, m)
        assert exact == pytest.approx(oracle, abs=1e-9)

    # Cumulative-regret scaling of the NTU bandit loop.
    ntu_spec = PolicySpec("match_ntu_ucb")  # published interval constant (8)
    at_2000, at_8000 = [], []
    for seed in SEEDS:
        instance = gen_instance("unstructured", 3, 3, seed=seed)
        trace = run(instance, ntu_spec, 8000)
        cum = trace.cum_regret
        at_2000.append(cum[1999])
        at_8000.append(cum[-1])
    ratio = float(np.mean(at_8000) / np.mean(at_2000))
    assert 1.6 <= ratio <= 2.6, f"NTU regret ratio {ratio:.3f} outside [1.6, 2.6]"
    elapsed_under(t0, 300.0, 9)
    report(9, f"DA blocking-free, exact = oracle on 100 instances, regret ratio {ratio:.3f}")


def test_criterion_10_duality_core():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        n_c = int(rng.integers(1, 6))
        n_p = int(rng.integers(1, min(11 - n_c, 6)))
        u = random_market(rng, n_c, n_p)
        match, duals = max_weight_matching_with_duals(u)
        assert abs(float(duals[0].sum() + duals[1].sum()) - match.total_utility(u)) <= 1e-9
        outcome = stable_outcome_from_duals(u, match, duals)
        assert is_stable_tu(u, outcome, 0.0)
    elapsed_under(t0, 30.0, 10)
    report(10, "matching weight = dual total within 1e-9 and reconstructed outcome stable, 1000 instances")
