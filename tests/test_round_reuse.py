"""Reusing a round's outcome and score never changes a trace.

``Policy._memo`` replays the last optimistic outcome while the arrivals and
the upper bounds are bytewise unchanged, and ``run`` then replays that
round's score. Patching ``_memo`` to call through turns both off, so every
trace below is compared, to the last bit, with the trace computed afresh
each round.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import trace_digest
from smbandits import environment as env
from smbandits import policies as pol
from smbandits.confidence import ConfidenceConfig, TypedConfidence, UnstructuredConfidence
from smbandits.instability import tu_judgements
from smbandits.market import Matching, MarketOutcome

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def call_through(self, fn, arrivals):
    return fn(self.conf, arrivals)


def fresh_and_reused(monkeypatch, instance, spec, horizon):
    reused = env.run(instance, spec, horizon, record_outcomes=True)
    with monkeypatch.context() as patch:
        patch.setattr(pol.Policy, "_memo", call_through)
        fresh = env.run(instance, spec, horizon, record_outcomes=True)
    assert fresh.reused_rounds == 0
    return fresh, reused


def benchmark_cases():
    workloads = load_workloads()
    for workload in workloads.WORKLOADS.values():
        for cell in workload.cells:
            for seed in (0, 1, 2):
                yield f"{workload.name}-{cell.name}-{seed}", cell.instance(seed), cell.spec(), cell.horizon


def test_benchmark_cells(monkeypatch):
    reused_rounds = {}
    for name, instance, spec, horizon in benchmark_cases():
        fresh, reused = fresh_and_reused(monkeypatch, instance, spec, horizon)
        assert trace_digest(reused) == trace_digest(fresh), name
        reused_rounds[name] = reused.reused_rounds
    assert len(reused_rounds) == 30
    # The hard family's upper bounds stay at 1, so every round after the
    # first is reused; match_ucb_prime is not memoised.
    assert reused_rounds["imbalanced_hard-hard_k8-0"] == 39
    assert [reused_rounds[f"small_square-ucb_prime_3x3-{seed}"] for seed in (0, 1, 2)] == [0, 0, 0]
    assert sum(reused_rounds.values()) > 3000


IID_HALF = env.ArrivalSpec(kind="iid_subset", probability=0.5)
ALL3 = (0, 1, 2)
# Each entry twice in a row, so that fixed arrivals give reused rounds too.
SCHEDULE = env.ArrivalSpec(kind="fixed", schedule=((ALL3, ALL3), (ALL3, ALL3), ((2, 0), (1, 2)), ((2, 0), (1, 2))))

OTHER_CASES = {
    # The base outcome repeats while the published transfers change with the widths.
    "revenue_frictions": ("unstructured", 3, 3, env.PolicySpec("revenue_frictions"), env.ArrivalSpec(), 200),
    "iid_revenue": ("unstructured", 4, 4, env.PolicySpec("revenue_frictions"), IID_HALF, 200),
    # Three pulls per pair: about ten exploration rounds, then the committed phase.
    "etc": ("unstructured", 3, 3, env.PolicySpec("etc", etc_pulls_per_pair=3), env.ArrivalSpec(), 200),
    "iid_ucb": ("unstructured", 4, 4, env.PolicySpec("match_ucb"), IID_HALF, 200),
    "iid_ntu": ("unstructured", 4, 4, env.PolicySpec("match_ntu_ucb"), IID_HALF, 200),
    "fixed_ucb": ("unstructured", 3, 3, env.PolicySpec("match_ucb"), SCHEDULE, 200),
    "fixed_ntu": ("unstructured", 3, 3, env.PolicySpec("match_ntu_ucb"), SCHEDULE, 200),
    "fixed_typed": ("typed", 6, 6, env.PolicySpec("match_typed_ucb"), SCHEDULE, 200),
    "narrow_ucb": ("unstructured", 3, 3, env.PolicySpec("match_ucb", ConfidenceConfig(ucb_scale=0.5)), IID_HALF, 200),
    # Nine customers exceed the exact NTU solver: every round is bound_only.
    "ntu_9x9": ("unstructured", 9, 9, env.PolicySpec("match_ntu_ucb"), env.ArrivalSpec(), 120),
}


@pytest.mark.parametrize("case", sorted(OTHER_CASES))
def test_other_policies_and_arrivals(monkeypatch, case):
    klass, n_c, n_p, spec, arrival, horizon = OTHER_CASES[case]
    for seed in (0, 1, 2):
        instance = env.gen_instance(klass, n_c, n_p, seed, arrival=arrival)
        fresh, reused = fresh_and_reused(monkeypatch, instance, spec, horizon)
        assert trace_digest(reused) == trace_digest(fresh)
        if case == "ntu_9x9":
            assert reused.bound_only.all() and reused.reused_rounds > 0
            # A reused bound_only round records its own certified bound.
            np.testing.assert_array_equal(reused.instability, reused.certified_bound)
        if case == "etc":
            # At least nine exploration rounds, then a committed phase.
            assert horizon // 2 < reused.reused_rounds < horizon - 9
        if case.startswith("fixed") or case == "revenue_frictions":
            assert reused.reused_rounds > 0


def top_rewards(matching):
    # Rewards at the top of [-1, 1] keep every upper bound at 1, so only the
    # in-place edit below changes the sets' upper bounds.
    return np.ones(len(matching.pairs)), np.ones(len(matching.pairs))


POLICIES = {
    "match_ucb": (lambda conf: pol.MatchUcbPolicy(conf, 100), pol.compute_match),
    "etc": (lambda conf: pol.EtcPolicy(conf, 100, pulls_per_pair=0), pol.compute_match),
    "revenue_frictions": (lambda conf: pol.RevenueFrictionsPolicy(conf, 100, 0.3), pol.compute_match),
    "match_ntu_ucb": (lambda conf: pol.MatchNtuUcbPolicy(conf, 100), pol.compute_match_ntu),
    # Typed sets rewrite every pair cell from its type cell on each update.
    "match_typed_ucb": (lambda conf: pol.MatchUcbPolicy(conf, 100), pol.compute_match),
}


def fresh_sets(kind):
    if kind == "match_typed_ucb":
        return TypedConfidence(np.array([0, 1, 1]), np.array([1, 0, 1]), 2)
    return UnstructuredConfidence(3, 3)


@pytest.mark.parametrize("kind", sorted(POLICIES))
def test_in_place_edits_are_seen(kind):
    build, compute = POLICIES[kind]
    conf = fresh_sets(kind)
    policy = build(conf)
    arrivals = pol.all_arrivals(3, 3)
    first = policy.step(arrivals, top_rewards).scored_outcome
    assert policy.step(arrivals, top_rewards).scored_outcome is first
    i, j = first.matching.pairs[0]
    conf.hi_c[i, j] = -1.0
    want = compute(conf, arrivals)
    got = policy.step(arrivals, top_rewards).scored_outcome
    if kind == "match_ntu_ucb":
        assert got.matching == want
    else:
        assert got.matching == want.matching
        assert got.customer_transfers.tobytes() == want.customer_transfers.tobytes()
        assert got.provider_transfers.tobytes() == want.provider_transfers.tobytes()
    assert (i, j) not in got.matching.pairs


def test_memo_compares_bytes_not_values():
    conf = UnstructuredConfidence(2, 2)
    policy = pol.MatchUcbPolicy(conf, 10)
    calls = []

    def fn(c, arrivals):
        calls.append(arrivals)
        return object()

    arrivals = pol.all_arrivals(2, 2)
    conf.hi_c[0, 0] = 0.0
    first = policy._memo(fn, arrivals)
    assert policy._memo(fn, arrivals) is first
    conf.hi_c[0, 0] = -0.0  # equal as a value, not as bytes
    assert policy._memo(fn, arrivals) is not first
    assert policy._memo(fn, (np.arange(1), np.arange(2))) is not first
    assert len(calls) == 3


def test_reused_revenue_round_judges_its_published_outcome(monkeypatch):
    # The same base outcome every round, published alternately as it is
    # (zero-sum and stable for the truth) and with a fee of 10 on each
    # matched agent, which breaks individual rationality.
    instance = env.gen_instance("unstructured", 3, 3, 0)
    truth = instance.truth
    conf = UnstructuredConfidence(3, 3)
    conf.collapse_to(truth)
    base = pol.compute_match(conf, pol.all_arrivals(3, 3))
    ci, pj = base.matching.index_arrays
    charged = MarketOutcome(base.matching, base.customer_transfers.copy(), base.provider_transfers.copy())
    charged.customer_transfers[ci] -= 10.0
    charged.provider_transfers[pj] -= 10.0

    rounds = itertools.count(1)

    def select(self, arrivals):
        published = charged if next(rounds) % 2 == 0 else base
        return pol.RoundDecision(published, 0.0, 0.0, 0.0, scored_outcome=base)

    monkeypatch.setattr(pol.RevenueFrictionsPolicy, "_select", select)
    trace = env.run(instance, env.PolicySpec("revenue_frictions"), 6)
    assert trace.reused_rounds == 5
    assert trace.stable_truth.tolist() == [True, False] * 3
    assert len(set(trace.instability.tolist())) == 1


def test_replay_needs_the_same_arrivals(monkeypatch):
    # One scored outcome object every round, on a schedule that alternates two
    # arrival sets that both hold its matched agents: only a round that repeats
    # the arrivals of the round before may copy its judgement.
    small, full = ((0, 1), (0, 1)), ((0, 1, 2), (0, 1, 2))
    schedule = (small, full, full, small, small, small, full, small)
    instance = env.gen_instance("unstructured", 3, 3, 0, arrival=env.ArrivalSpec(kind="fixed", schedule=schedule))
    outcome = MarketOutcome(Matching([(0, 1), (1, 0)]), np.array([0.3, -0.2, 0.0]), np.array([0.2, -0.3, 0.0]))
    monkeypatch.setattr(pol.MatchUcbPolicy, "_select", lambda self, arrivals: pol.RoundDecision(outcome, 0.0, 0.0, 0.0))
    horizon = 2 * len(schedule)
    trace = env.run(instance, env.PolicySpec("match_ucb"), horizon)
    rounds = [schedule[t % len(schedule)] for t in range(horizon)]
    assert trace.reused_rounds == sum(a == b for a, b in zip(rounds, rounds[1:]))
    for t, (cust, prov) in enumerate(rounds):
        cust, prov = np.array(cust), np.array(prov)
        sub = instance.truth.restrict(cust, prov)
        (value,), (stable,) = tu_judgements(sub, [env._restrict_outcome(outcome, cust, prov)])
        assert (trace.instability[t], trace.stable_truth[t]) == (value, stable), t
    # The two submarkets judge the outcome differently.
    assert len(set(trace.instability.tolist())) == 2
