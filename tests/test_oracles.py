"""Oracle checks of the assignment engine and the instability report at scale.

The oracles share no code with ``market.py``: the primal weight comes from
networkx's blossom matching, and the instability value from HiGHS on the
minimum-subsidy linear program. The inputs are an imbalanced hard-family
market (4x360, one value repeated across whole blocks) and a 30x50 market of
small integer utilities, where optimal matchings and witnesses are far from
unique.
"""

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import linprog

from smbandits.environment import gen_hard_instance
from smbandits.instability import subset_instability
from smbandits.market import (
    Matching,
    MarketOutcome,
    UtilityMatrix,
    assignment_pairs,
    max_weight_matching_with_duals,
    stable_outcome_from_duals,
)

TOL = 1e-7


def _hard_market() -> UtilityMatrix:
    return gen_hard_instance(4, 1000, seed=5).truth


def _integer_market() -> UtilityMatrix:
    rng = np.random.default_rng(31)
    return UtilityMatrix(
        rng.integers(-2, 4, (30, 50)).astype(float),
        rng.integers(-2, 4, (50, 30)).astype(float),
    )


MARKETS = {"hard_4x360": _hard_market, "integer_30x50": _integer_market}


def _near_stable_outcome(u: UtilityMatrix, seed: int) -> MarketOutcome:
    """Stable for a noisy estimate of ``u``, as a learner would play it."""
    rng = np.random.default_rng(seed)
    estimate = UtilityMatrix(
        u.customer_values + rng.normal(0.0, 0.1, u.customer_values.shape),
        u.provider_values + rng.normal(0.0, 0.1, u.provider_values.shape),
    )
    matching, prices = max_weight_matching_with_duals(estimate)
    return stable_outcome_from_duals(estimate, matching, prices)


def _random_outcome(u: UtilityMatrix, seed: int) -> MarketOutcome:
    """A random matching with integer zero-sum transfers: many tied gains."""
    rng = np.random.default_rng(seed)
    k = min(u.num_customers, u.num_providers)
    customers = rng.permutation(u.num_customers)[:k].tolist()
    pairs = list(zip(customers, rng.permutation(u.num_providers)[:k].tolist()))
    tau_c = np.zeros(u.num_customers)
    tau_p = np.zeros(u.num_providers)
    for i, j in pairs:
        tau_c[i] = float(rng.integers(-2, 3))
        tau_p[j] = -tau_c[i]
    return MarketOutcome(Matching(pairs), tau_c, tau_p)


def _outcomes(u: UtilityMatrix) -> list[MarketOutcome]:
    return [_near_stable_outcome(u, 1), _near_stable_outcome(u, 2), _random_outcome(u, 3)]


def _networkx_weight(joint: np.ndarray) -> float:
    """Maximum-weight matching weight over the positive edges, by blossom."""
    graph = nx.Graph()
    for i, j in zip(*np.nonzero(joint > 0.0)):
        graph.add_edge(("c", int(i)), ("p", int(j)), weight=float(joint[i, j]))
    matching = nx.max_weight_matching(graph)
    return sum(graph[a][b]["weight"] for a, b in matching)


def _subsidy_lp(u: UtilityMatrix, q_c: np.ndarray, q_p: np.ndarray) -> float:
    """min sum(s) s.t. s >= 0, q + s >= 0, (q_i + s_i) + (q_j + s_j) >= joint_ij."""
    n_c, n_p = u.num_customers, u.num_providers
    joint = u.joint()
    rows = np.arange(n_c * n_p)
    a_ub = np.zeros((n_c * n_p, n_c + n_p))
    a_ub[rows, np.repeat(np.arange(n_c), n_p)] = -1.0
    a_ub[rows, n_c + np.tile(np.arange(n_p), n_c)] = -1.0
    b_ub = (q_c[:, None] + q_p[None, :] - joint).ravel()
    floors = np.maximum(0.0, -np.concatenate((q_c, q_p)))
    bounds = [(floor, None) for floor in floors]
    res = linprog(np.ones(n_c + n_p), A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.mark.parametrize("name", sorted(MARKETS))
def test_assignment_weight_matches_networkx(name):
    u = MARKETS[name]()
    joint = u.joint()
    pairs = assignment_pairs(joint)
    weight = sum(joint[i, j] for i, j in pairs)
    assert weight == pytest.approx(_networkx_weight(joint), abs=TOL)


@pytest.mark.parametrize("name", sorted(MARKETS))
def test_instability_matches_subsidy_lp(name):
    u = MARKETS[name]()
    for outcome in _outcomes(u):
        q_c, q_p = outcome.net_payoffs(u)
        report = subset_instability(u, outcome)
        lp = _subsidy_lp(u, q_c, q_p)
        assert report.value == pytest.approx(lp, abs=TOL * max(1.0, lp))


@pytest.mark.parametrize("name", sorted(MARKETS))
def test_reported_subsidies_are_feasible(name):
    u = MARKETS[name]()
    for outcome in _outcomes(u):
        q_c, q_p = outcome.net_payoffs(u)
        report = subset_instability(u, outcome)
        s_c, s_p = report.subsidies_customers, report.subsidies_providers
        assert s_c.min() >= 0.0 and s_p.min() >= 0.0
        assert (q_c + s_c).min() >= -TOL and (q_p + s_p).min() >= -TOL
        slack = (q_c + s_c)[:, None] + (q_p + s_p)[None, :] - u.joint()
        assert slack.min() >= -TOL
        assert report.subsidy_total() == pytest.approx(report.value, abs=TOL)


@pytest.mark.parametrize("name", sorted(MARKETS))
def test_witness_expression_equals_value(name):
    u = MARKETS[name]()
    for outcome in _outcomes(u):
        q_c, q_p = outcome.net_payoffs(u)
        report = subset_instability(u, outcome)
        wc = sorted(a.index for a in report.witness_subset if a.side.value == "customer")
        wp = sorted(a.index for a in report.witness_subset if a.side.value == "provider")
        best = _networkx_weight(u.joint()[np.ix_(wc, wp)]) if wc and wp else 0.0
        expression = best - (q_c[wc].sum() + q_p[wp].sum())
        assert expression == pytest.approx(report.value, abs=TOL * max(1.0, report.value))
