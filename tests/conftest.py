import hashlib

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from smbandits.market import Matching, MarketOutcome, UtilityMatrix, is_stable_tu


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


def entries(ties: bool, bound: int):
    """Quarter-integers in [-bound/4, bound/4] (tie-heavy), or floats in
    [-bound/4, bound/4]."""
    if ties:
        return st.integers(-bound, bound).map(lambda x: x / 4.0)
    return st.floats(-bound / 4.0, bound / 4.0, allow_nan=False)


@st.composite
def tu_markets_and_outcomes(draw, shapes=st.tuples(st.integers(1, 6), st.integers(1, 6))):
    """A market of a shape drawn from ``shapes`` (up to 6x6 by default) and a zero-sum outcome on a random
    matching; half the markets hold quarter-integers only, so they are full of ties."""
    n_c, n_p = draw(shapes)
    ties = draw(st.booleans())
    cv = draw(st.lists(entries(ties, 4), min_size=n_c * n_p, max_size=n_c * n_p))
    pv = draw(st.lists(entries(ties, 4), min_size=n_c * n_p, max_size=n_c * n_p))
    u = UtilityMatrix(np.reshape(cv, (n_c, n_p)), np.reshape(pv, (n_p, n_c)))
    k = draw(st.integers(0, min(n_c, n_p)))
    ci = draw(st.permutations(range(n_c)))[:k]
    pj = draw(st.permutations(range(n_p)))[:k]
    tau_c, tau_p = np.zeros(n_c), np.zeros(n_p)
    for i, j, x in zip(ci, pj, draw(st.lists(entries(ties, 6), min_size=k, max_size=k))):
        tau_c[i], tau_p[j] = x, -x
    return u, MarketOutcome(Matching(zip(ci, pj)), tau_c, tau_p)


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


def reference_tu_judgement(u: UtilityMatrix, outcome: MarketOutcome) -> tuple[float, bool]:
    """The TU instability and the is_stable_tu flag of one zero-sum outcome,
    sharing no code with the stacked judgement: payoffs by a loop over the
    pairs, one rectangular solve of the reduced gains, and the terms
    (customers, then providers) added as one 1-D array."""
    outcome.check_zero_sum()
    n_c = u.num_customers
    q = np.concatenate((outcome.customer_transfers, outcome.provider_transfers))
    for i, j in outcome.matching.pairs:
        q[i] += u.customer_values[i, j]
        q[n_c + j] += u.provider_values[j, i]
    joint = u.customer_values + u.provider_values.T
    g = joint - q[:n_c, None] - q[None, n_c:]
    f = np.maximum(0.0, -q)
    h = g - f[:n_c, None] - f[None, n_c:]
    rows, cols = linear_sum_assignment(np.maximum(h, 0.0), maximize=True)
    keep = h[rows, cols] > 0.0
    terms = f.copy()
    terms[rows[keep]] = g[rows[keep], cols[keep]]
    terms[n_c + cols[keep]] = 0.0
    return max(0.0, float(terms.sum())), is_stable_tu(u, outcome)
