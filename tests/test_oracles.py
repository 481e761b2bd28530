"""Oracle checks of the assignment engine and the instability reports.

The oracles share no code with ``market.py`` or the solvers of
``instability.py``: the primal weight comes from networkx's blossom matching,
the TU instability value from HiGHS on the minimum-subsidy linear program,
and the NTU instability value from an enumeration over the raw utilities of
which side silences each blocking pair. The TU inputs are two imbalanced
hard-family markets (4x360 and 8x800, one value repeated across whole
blocks), a 30x50 market of small integer utilities, where optimal matchings
and witnesses are far from unique, and a 6x8 integer market whose agents come
in identical pairs, so that optimal matchings and subsidies tie. The NTU
inputs are random and quarter-integer markets up to 3x4.
"""

import itertools
import math

import networkx as nx
import numpy as np
import pytest
from scipy.optimize import linprog

from smbandits.environment import gen_hard_instance
from smbandits.instability import (
    ntu_judgements,
    ntu_subset_instability,
    ntu_subset_instability_bruteforce,
    subset_instability,
)
from smbandits.market import (
    TOL as GAIN_TOL,
    Matching,
    MarketOutcome,
    UtilityMatrix,
    assignment_pairs,
    is_stable_ntu,
    max_weight_matching_with_duals,
    stable_outcome_from_duals,
)

TOL = 1e-7


def _hard_market() -> UtilityMatrix:
    return gen_hard_instance(4, 1000, seed=5).truth


def _hard_8x800() -> UtilityMatrix:
    return gen_hard_instance(8, 2000, seed=5).truth


def _integer_market() -> UtilityMatrix:
    rng = np.random.default_rng(31)
    return UtilityMatrix(
        rng.integers(-2, 4, (30, 50)).astype(float),
        rng.integers(-2, 4, (50, 30)).astype(float),
    )


def _twin_market() -> UtilityMatrix:
    """Three customers and four providers on small integers, each agent cloned: twins value and are valued alike."""
    rng = np.random.default_rng(41)
    cust, prov = np.repeat(np.arange(3), 2), np.repeat(np.arange(4), 2)
    cv, pv = rng.integers(-1, 4, (3, 4)).astype(float), rng.integers(-1, 4, (4, 3)).astype(float)
    return UtilityMatrix(cv[np.ix_(cust, prov)], pv[np.ix_(prov, cust)])


MARKETS = {
    "hard_4x360": _hard_market,
    "hard_8x800": _hard_8x800,
    "integer_30x50": _integer_market,
    "twins_6x8": _twin_market,
}


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
    rows, cols = assignment_pairs(joint)
    weight = sum(joint[i, j] for i, j in zip(rows, cols))
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
        wc, wp = report.witness_subset
        best = _networkx_weight(u.joint()[np.ix_(wc, wp)]) if len(wc) and len(wp) else 0.0
        expression = best - (q_c[wc].sum() + q_p[wp].sum())
        assert expression == pytest.approx(report.value, abs=TOL * max(1.0, report.value))


# -- NTU: which side silences each blocking pair ----------------------------

_NTU_MAX_BLOCKING = 12


def _ntu_side_choice(u: UtilityMatrix, pairs: list[tuple[int, int]]) -> float:
    """The NTU instability of a matching from the raw utilities. Every agent gets at least its floor
    max(0, -mu). A pair whose customer and provider both gain more than ``GAIN_TOL`` over their matched
    utilities blocks, and is silenced by a subsidy of the full gain on the side chosen for it. The value is the
    least total over every choice of sides."""
    cv, pv = u.customer_values.tolist(), u.provider_values.tolist()
    n_c, n_p = u.num_customers, u.num_providers
    mu_c, mu_p = [0.0] * n_c, [0.0] * n_p
    for i, j in pairs:
        mu_c[i], mu_p[j] = cv[i][j], pv[j][i]
    blocking = []
    for i in range(n_c):
        for j in range(n_p):
            gain_c, gain_p = cv[i][j] - mu_c[i], pv[j][i] - mu_p[j]
            if gain_c > GAIN_TOL and gain_p > GAIN_TOL:
                blocking.append((i, j, gain_c, gain_p))
    assert len(blocking) <= _NTU_MAX_BLOCKING
    best = math.inf
    for sides in itertools.product((True, False), repeat=len(blocking)):
        s_c = [max(0.0, -m) for m in mu_c]
        s_p = [max(0.0, -m) for m in mu_p]
        for on_customer, (i, j, gain_c, gain_p) in zip(sides, blocking):
            if on_customer:
                s_c[i] = max(s_c[i], gain_c)
            else:
                s_p[j] = max(s_p[j], gain_p)
        best = min(best, sum(s_c) + sum(s_p))
    return best


def _random_matching(rng, n_c: int, n_p: int) -> Matching:
    k = int(rng.integers(0, min(n_c, n_p) + 1))
    return Matching(zip(rng.permutation(n_c)[:k].tolist(), rng.permutation(n_p)[:k].tolist()))


@pytest.mark.parametrize("values", ["random", "quarter"])
def test_ntu_instability_matches_side_choice_oracle(values):
    # Four matchings per market, so that ntu_judgements stacks them; it is
    # compared on the rows it reports exact.
    rng = np.random.default_rng(97)
    shapes = [(n_c, n_p) for n_c in range(1, 4) for n_p in range(1, 5)]
    compared = stacked = blocked = 0
    for _ in range(125):
        for n_c, n_p in shapes:
            if values == "random":
                u = UtilityMatrix(rng.uniform(-1.0, 1.0, (n_c, n_p)), rng.uniform(-1.0, 1.0, (n_p, n_c)))
            else:
                u = UtilityMatrix(rng.integers(-4, 5, (n_c, n_p)) / 4.0, rng.integers(-4, 5, (n_p, n_c)) / 4.0)
            matchings = [_random_matching(rng, n_c, n_p) for _ in range(4)]
            oracle = [_ntu_side_choice(u, m.pairs) for m in matchings]
            for m, want in zip(matchings, oracle):
                assert ntu_subset_instability(u, m).value == pytest.approx(want, abs=1e-12)
                assert ntu_subset_instability_bruteforce(u, m) == pytest.approx(want, abs=1e-12)
                blocked += want > 0.0
            agents = (np.tile(np.arange(n_c), (4, 1)), np.tile(np.arange(n_p), (4, 1)))
            got, _, exact = ntu_judgements(u, matchings, *agents)
            for value, want in zip(got[exact], np.array(oracle)[exact]):
                assert value == pytest.approx(want, abs=1e-12)
            compared += len(matchings)
            stacked += int(exact.sum())
    assert blocked >= compared // 2 and stacked >= 0.9 * compared, (blocked, stacked, compared)


def _three_paths(u: UtilityMatrix, matchings: list[Matching]) -> tuple[list, list, np.ndarray, np.ndarray]:
    """The search's and the grid oracle's value of each matching, the stack's values and the rows it is exact for."""
    agents = (np.tile(np.arange(n), (len(matchings), 1)) for n in (u.num_customers, u.num_providers))
    stacked, _, exact = ntu_judgements(u, matchings, *agents)
    search = [ntu_subset_instability(u, m).value for m in matchings]
    return search, [ntu_subset_instability_bruteforce(u, m) for m in matchings], stacked, exact


def test_a_provider_gain_within_tol_does_not_block():
    # Customer 0 gains 0.5 from provider 1, which gains only 5e-10 <= TOL from customer 0: no pair blocks.
    u = UtilityMatrix(np.array([[0.2, 0.7]]), np.array([[0.3], [5e-10]]))
    m = Matching([(0, 0)])
    assert is_stable_ntu(u, m)
    assert _ntu_side_choice(u, m.pairs) == 0.0
    search, grid, stacked, exact = _three_paths(u, [m] * 3)
    assert search == grid == stacked.tolist() == [0.0] * 3
    assert exact.all()


@pytest.mark.xfail(
    strict=True,
    reason="within TOL the search charges a provider the full largest uncovered gain but lets a customer subsidy sit "
    "up to TOL below the gain it covers (on seed 0, 46 of 2 880 matchings differ, each by about TOL)",
)
def test_gains_at_the_tolerance_on_both_sides_match_side_choice_oracle():
    # As the provider-side property below, with customer values shifted too: customer gains then land within TOL
    # of each other.
    rng = np.random.default_rng(0)
    shifts = np.array([0.0, GAIN_TOL, -GAIN_TOL, 2 * GAIN_TOL])
    differ = []
    for _ in range(60):
        for n_c, n_p in [(n_c, n_p) for n_c in range(1, 4) for n_p in range(1, 5)]:
            cv = rng.integers(-2, 3, (n_c, n_p)) / 4.0 + rng.choice(shifts, (n_c, n_p))
            pv = rng.integers(-2, 3, (n_p, n_c)) / 4.0 + rng.choice(shifts, (n_p, n_c))
            u = UtilityMatrix(cv, pv)
            for m in [_random_matching(rng, n_c, n_p) for _ in range(4)]:
                search, oracle = ntu_subset_instability(u, m).value, _ntu_side_choice(u, m.pairs)
                if search != pytest.approx(oracle, abs=1e-12):
                    differ.append((n_c, n_p, search, oracle))
    assert differ == []


@pytest.mark.parametrize("seed", range(4))
def test_gains_at_the_tolerance_match_side_choice_oracle(seed):
    # Provider values on quarter-integers shifted by 0, +-TOL or 2 TOL: a provider's gains land on or next to 0,
    # +-TOL, +-2 TOL and +-3 TOL, on both sides of the line between a gain that blocks and one that does not.
    # Customer values stay on quarters, so no two customer gains lie within TOL of each other and the search's
    # customer subsidies are the oracle's full gains.
    rng = np.random.default_rng(seed)
    shifts = np.array([0.0, GAIN_TOL, -GAIN_TOL, 2 * GAIN_TOL])
    compared = near = 0
    for _ in range(60):
        for n_c, n_p in [(n_c, n_p) for n_c in range(1, 4) for n_p in range(1, 5)]:
            cv = rng.integers(-2, 3, (n_c, n_p)) / 4.0
            pv = rng.integers(-2, 3, (n_p, n_c)) / 4.0 + rng.choice(shifts, (n_p, n_c))
            u = UtilityMatrix(cv, pv)
            matchings = [_random_matching(rng, n_c, n_p) for _ in range(4)]
            oracle = [_ntu_side_choice(u, m.pairs) for m in matchings]
            search, grid, stacked, exact = _three_paths(u, matchings)
            assert search == pytest.approx(oracle, abs=1e-12)
            assert grid == pytest.approx(oracle, abs=1e-12)
            assert stacked[exact].tolist() == pytest.approx(np.array(oracle)[exact].tolist(), abs=1e-12)
            compared += len(matchings)
            near += sum(0.0 < w < 10 * GAIN_TOL for w in oracle)
    assert near >= compared // 50, (near, compared)
