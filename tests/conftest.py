import hashlib

import numpy as np
import pytest

from smbandits.market import Matching, MarketOutcome, UtilityMatrix


@pytest.fixture
def fig1_market() -> UtilityMatrix:
    """One customer, two providers; the running three-agent example.

    Customer values the providers at 9 and 12; serving costs them 5 and 10.
    The unique efficient matching pairs the customer with the cheap provider.
    """
    return UtilityMatrix(np.array([[9.0, 12.0]]), np.array([[-5.0], [-10.0]]))


@pytest.fixture
def fig1_bad_outcome() -> MarketOutcome:
    """Customer matched to the expensive provider, paying 11."""
    return MarketOutcome(Matching([(0, 1)]), np.array([-11.0]), np.array([0.0, 11.0]))


def random_market(rng: np.random.Generator, n_c: int, n_p: int, scale: float = 1.0) -> UtilityMatrix:
    return UtilityMatrix(
        rng.uniform(-scale, scale, (n_c, n_p)),
        rng.uniform(-scale, scale, (n_p, n_c)),
    )


def random_zero_sum_outcome(rng: np.random.Generator, u: UtilityMatrix) -> MarketOutcome:
    n_c, n_p = u.num_customers, u.num_providers
    k = int(rng.integers(0, min(n_c, n_p) + 1))
    ci = rng.permutation(n_c)[:k]
    pj = rng.permutation(n_p)[:k]
    matching = Matching(list(zip(ci.tolist(), pj.tolist())))
    tau_c = np.zeros(n_c)
    tau_p = np.zeros(n_p)
    for i, j in matching.pairs:
        x = float(rng.uniform(-1.5, 1.5))
        tau_c[i] = x
        tau_p[j] = -x
    return MarketOutcome(matching, tau_c, tau_p)


def brute_force_matchings(n_c: int, n_p: int):
    """Every matching between the two sides, as lists of pairs."""
    results = []

    def rec(i: int, used: int, acc: list):
        if i == n_c:
            results.append(list(acc))
            return
        rec(i + 1, used, acc)
        for j in range(n_p):
            if not used >> j & 1:
                acc.append((i, j))
                rec(i + 1, used | 1 << j, acc)
                acc.pop()

    rec(0, 0, [])
    return results


def brute_force_max_weight(joint: np.ndarray) -> float:
    best = 0.0
    for m in brute_force_matchings(*joint.shape):
        best = max(best, sum(joint[i, j] for i, j in m))
    return best


def trace_digest(trace) -> str:
    """sha256 of the seven trace columns and of every scored outcome's pairs
    and transfer bytes (``run(..., record_outcomes=True)``)."""
    h = hashlib.sha256()
    for column in (
        trace.instability,
        trace.width_sum,
        trace.certified_bound,
        trace.revenue,
        trace.containment,
        trace.stable_truth,
        trace.bound_only,
    ):
        h.update(np.ascontiguousarray(column).tobytes())
    for outcome in trace.outcomes:
        h.update(repr(outcome.matching.pairs).encode())
        h.update(outcome.customer_transfers.tobytes())
        h.update(outcome.provider_transfers.tobytes())
    return h.hexdigest()
