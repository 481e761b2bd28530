"""``run`` judges outcomes and checks containment once per block of rounds,
and the size of a block moves no bit of a trace.

``_BLOCK_CELLS`` is patched down: at 1, 2 and 3 every round's cells reach
the cap, so each block holds one round and every replay copies a judgement
from an earlier block; at 60 and 700 blocks hold a few to a few dozen rounds.
``_BLOCK_ROUNDS`` is patched to 1, 2 and 3 rounds, and to the horizon, where
only the cell cap ends a block. Every trace column, recorded outcome,
``info`` column and ``reused_rounds`` must equal those of the run with the
module's own caps.
"""

import hashlib

import numpy as np
import pytest
from test_containment import CELLS as CONTAINMENT_CELLS
from test_containment import containment_and_full_checks

from conftest import trace_digest
from smbandits import environment as env
from smbandits import policies as pol
from smbandits.confidence import ConfidenceConfig
from smbandits.errors import InvalidOutcome
from smbandits.market import MarketOutcome

pytestmark = pytest.mark.byte_pinned

CAPS = (1, 2, 3, 60, 700)

IID = env.ArrivalSpec(kind="iid_subset", probability=0.5)
ALL3 = (0, 1, 2)
# Each entry twice in a row, so that fixed arrivals give replayed rounds too.
SCHEDULE = env.ArrivalSpec(kind="fixed", schedule=((ALL3, ALL3), (ALL3, ALL3), ((2,), (1, 2)), ((2,), (1, 2))))


def unstructured(n_c, n_p, arrival=env.ArrivalSpec()):
    return lambda seed: env.gen_instance("unstructured", n_c, n_p, seed, arrival=arrival)


# name: (instance for a seed, policy spec, horizon)
CASES = {
    # Most rounds replay the round before.
    "replay_ucb_3x3": (unstructured(3, 3), env.PolicySpec("match_ucb"), 150),
    "hard_k4": (lambda seed: env.gen_hard_instance(4, 1000, seed), env.PolicySpec("match_ucb"), 25),
    # Nine customers exceed the exact NTU solver: every round is bound_only.
    "ntu_bound_only_9x9": (unstructured(9, 9), env.PolicySpec("match_ntu_ucb"), 40),
    "ntu_3x3": (unstructured(3, 3), env.PolicySpec("match_ntu_ucb"), 150),
    # Most rounds judged, in several arrival shapes, past the module's round cap.
    "ntu_iid_4x4": (unstructured(4, 4, IID), env.PolicySpec("match_ntu_ucb", ConfidenceConfig(ucb_scale=1.0)), 700),
    "revenue_frictions": (unstructured(3, 3), env.PolicySpec("revenue_frictions"), 150),
    "fixed_ucb": (unstructured(3, 3, SCHEDULE), env.PolicySpec("match_ucb"), 100),
    "fixed_ntu": (unstructured(3, 3, SCHEDULE), env.PolicySpec("match_ntu_ucb"), 100),
    "iid_ucb": (unstructured(4, 4, IID), env.PolicySpec("match_ucb"), 150),
    "iid_revenue": (unstructured(4, 4, IID), env.PolicySpec("revenue_frictions"), 150),
    "prime_3x3": (unstructured(3, 3), env.PolicySpec("match_ucb_prime", ConfidenceConfig(ucb_scale=1.0)), 100),
    # About ten exploration rounds, then rounds whose sets take no update.
    "etc_3x3": (unstructured(3, 3), env.PolicySpec("etc", etc_pulls_per_pair=3), 100),
    "typed_6x6": (lambda seed: env.gen_instance("typed", 6, 6, seed), env.PolicySpec("match_typed_ucb"), 60),
    "linear_5x5": (lambda seed: env.gen_instance("linear", 5, 5, seed), env.PolicySpec("match_lin_ucb"), 40),
}


def full_digest(trace) -> str:
    h = hashlib.sha256(trace_digest(trace).encode())
    for key in sorted(trace.info or {}):
        h.update(key.encode() + repr(trace.info[key].tolist()).encode())
    h.update(str(trace.reused_rounds).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_block_size_moves_no_bit(monkeypatch, name):
    make, spec, horizon = CASES[name]
    for seed in (0, 1):
        instance = make(seed)
        base = env.run(instance, spec, horizon, record_outcomes=True)
        for limit, cap in [("_BLOCK_CELLS", cap) for cap in CAPS] + [("_BLOCK_ROUNDS", r) for r in (1, 2, 3, horizon)]:
            with monkeypatch.context() as patch:
                patch.setattr(env, limit, cap)
                blocked = env.run(instance, spec, horizon, record_outcomes=True)
            assert full_digest(blocked) == full_digest(base), f"{name} seed {seed} {limit} {cap}"
        if name.startswith(("replay", "hard", "fixed", "revenue")):
            assert base.reused_rounds > 0
        if name == "ntu_bound_only_9x9":
            assert base.bound_only.all()
            np.testing.assert_array_equal(base.instability, base.certified_bound)


@pytest.mark.parametrize("cap", [1, 50])
@pytest.mark.parametrize("name", ["ucb_3x3", "iid_5x9", "typed_12", "linear_12", "narrow_ucb_3x3"])
def test_containment_equals_contains_in_small_blocks(monkeypatch, name, cap):
    make, spec, horizon = CONTAINMENT_CELLS[name]
    monkeypatch.setattr(env, "_BLOCK_CELLS", cap)
    for seed in (0, 1):
        kept, full, _ = containment_and_full_checks(monkeypatch, make(seed), spec, horizon)
        np.testing.assert_array_equal(kept, full, err_msg=f"{name} seed {seed}")


@pytest.mark.parametrize("cap", [1, None])
@pytest.mark.parametrize("arrival", [env.ArrivalSpec(), IID])
def test_a_scored_outcome_that_is_not_zero_sum_raises(monkeypatch, arrival, cap):
    # Every arrived customer is paid 0.5 more than the outcome it scores.
    select = pol.MatchUcbPolicy._select

    def unbalanced(self, arrivals):
        decision = select(self, arrivals)
        tau_c = decision.scored_outcome.customer_transfers.copy()
        tau_c[arrivals[0]] += 0.5
        scored = MarketOutcome(decision.scored_outcome.matching, tau_c, decision.scored_outcome.provider_transfers)
        return pol.RoundDecision(decision.outcome, decision.width_sum, decision.width_sum, 0.0, scored_outcome=scored)

    monkeypatch.setattr(pol.MatchUcbPolicy, "_select", unbalanced)
    if cap is not None:
        monkeypatch.setattr(env, "_BLOCK_CELLS", cap)
    instance = env.gen_instance("unstructured", 4, 4, 0, arrival=arrival)
    with pytest.raises(InvalidOutcome):
        env.run(instance, env.PolicySpec("match_ucb"), 30)


@pytest.mark.parametrize("cap", [1, 60, None])
def test_containment_after_a_snapshot_inside_a_block(monkeypatch, cap):
    # Collapsing the sets onto the truth every 25th round names no positions,
    # so the next round takes a snapshot inside its block; the narrow updates
    # that follow flip the column both ways.
    instance = env.gen_instance("unstructured", 3, 3, 2, noise=env.NoiseSpec(sigma=0.3))
    learn = pol.MatchUcbPolicy._learn
    rounds = []

    def collapsing(self, matching, observations):
        learn(self, matching, observations)
        rounds.append(None)
        if len(rounds) % 25 == 0:
            self.conf.collapse_to(instance.truth)

    monkeypatch.setattr(pol.MatchUcbPolicy, "_learn", collapsing)
    if cap is not None:
        monkeypatch.setattr(env, "_BLOCK_CELLS", cap)
    spec = env.PolicySpec("match_ucb", ConfidenceConfig(ucb_scale=0.05))
    kept, full, _ = containment_and_full_checks(monkeypatch, instance, spec, 200)
    np.testing.assert_array_equal(kept, full)
    assert {(True, False), (False, True)} <= set(zip(kept[:-1].tolist(), kept[1:].tolist()))
