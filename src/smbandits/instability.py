"""Distance-from-stability metrics for market outcomes.

The TU metric is the maximum, over agent subsets, of the gap between the best
matching on the subset and the subset's realized payoff. It equals both the
minimum total subsidy that restores stability and the maximum unhappiness of
any coalition. With net payoffs q, pair gains g_ij = joint(i, j) - q_i - q_j
and individual-rationality floors f_a = max(0, -q_a), the metric is the sum of
the floors plus the maximum-weight matching of the reduced gains
h_ij = g_ij - f_i - f_j: one rectangular assignment solve gives the value, its
matched pairs and unmatched floors give the witness coalition, and its dual
prices plus the floors give the optimal subsidies. Brute-force oracles and
the NTU variant (minimum subsidies under disjunctive no-blocking constraints)
live here too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge
from .market import (
    TOL,
    Matching,
    MarketOutcome,
    UtilityMatrix,
    _inequalities_hold,
    _ntu_stable,
    assignment_pairs,
    assignment_with_duals,
    linear_sum_assignment,
    ntu_gains,
)

_BRUTE_FORCE_MAX_AGENTS = 12
_NTU_EXACT_MAX_CUSTOMERS = 8
# ntu_judgements stacks one arrival shape (a, b) from this many rounds, and up to (b + 1)**a * b cells.
_NTU_STACK_ROUNDS = 3
_NTU_STACK_CELLS = 512
_NTU_BRUTE_MAX_SIDE = 6


@dataclass(frozen=True)
class InstabilityReport:
    """Value of the instability metric together with all three witnesses. The coalition
    ``witness_subset`` is two sorted index arrays (customers, providers); ``blocking_pairs``
    holds the solver's blocking pairs as (rows, cols), rows increasing."""

    value: float
    witness_subset: tuple[np.ndarray, np.ndarray]
    subsidies_customers: np.ndarray
    subsidies_providers: np.ndarray
    blocking_pairs: tuple[np.ndarray, np.ndarray]

    def subsidy_total(self) -> float:
        return float(self.subsidies_customers.sum() + self.subsidies_providers.sum())


@dataclass(frozen=True)
class NtuInstabilityReport:
    value: float
    subsidies_customers: np.ndarray
    subsidies_providers: np.ndarray
    stable: bool  # is_stable_ntu of the matching, from the same gains


def _gains(joint: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair gains g, floors f = max(0, -q) and reduced gains h = g - f_i - f_j of net payoffs q, customers
    first, against joint weights (n_c, n_p); or of each row of q (R, n_c + n_p) against (n_c, n_p) or (R, n_c, n_p)."""
    n_c = joint.shape[-2]
    g = joint - q[..., :n_c, None]
    g -= q[..., None, n_c:]
    f = np.maximum(0.0, -q)
    h = g - f[..., :n_c, None]
    h -= f[..., None, n_c:]
    return g, f, h


def _terms_sum(g: np.ndarray, f: np.ndarray, rows, cols, *rr) -> np.ndarray:
    """The sum of one term per customer (the gain of its matched pair, else its floor), then one per provider (zero
    if matched, else its floor), whose positive part is the metric; per row r of stacked g and f, over the pairs where
    ``rr`` is r. A contiguous row adds its terms as its own 1-D array would; the golden trace depends on that order."""
    terms = f.copy()
    terms[(*rr, rows)] = g[(*rr, rows, cols)]
    terms[(*rr, g.shape[-2] + cols)] = 0.0
    return terms.sum(axis=-1)


def tu_judgements(
    u: UtilityMatrix, outcomes: list, customers: np.ndarray | None = None, providers: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``subset_instability(u, o).value`` and ``is_stable_tu(u, o)`` of each outcome o of ``u``, bitwise, as two
    arrays, on the submarket of the sorted agents in row r of ``customers`` (R, a) and ``providers`` (R, b), None
    for all: one zero-sum check, net-payoff add and (R, a, b) gain stack for all rows, and one rectangular solve per
    row. An outcome that is not zero-sum on its submarket raises InvalidOutcome from its own ``check_zero_sum``."""
    n_c = u.num_customers
    tau = np.concatenate(([o.customer_transfers for o in outcomes], [o.provider_transfers for o in outcomes]), 1)
    pairs = [o.matching.index_arrays for o in outcomes]
    ci, pj = (np.concatenate(side) for side in zip(*pairs))
    at = np.repeat(np.arange(0, tau.size, tau.shape[1]), [len(c) for c, _ in pairs])  # each pair's row
    at_c, at_p = at + ci, at + n_c + pj  # each pair's two cells in the flat payoffs
    q = tau.reshape(-1)
    tau_c, tau_p = q[at_c], q[at_p]
    resid = q.copy()
    resid[at_c], resid[at_p] = tau_c + tau_p, 0.0
    q[at_c], q[at_p] = tau_c + u.customer_values[ci, pj], tau_p + u.provider_values[pj, ci]
    resid, joint = resid.reshape(tau.shape), u.joint()
    if customers is not None:
        arrived = np.concatenate((customers, n_c + providers), 1)
        resid, tau = (np.take_along_axis(x, arrived, 1) for x in (resid, tau))
        joint = joint[customers[:, :, None], providers[:, None, :]]
    if np.abs(resid).max(initial=0.0) > TOL:
        outcomes[int(np.argmax((np.abs(resid) > TOL).any(axis=1)))].check_zero_sum()
    values, g = _subset_instabilities(joint, tau)
    # is_stable_tu's test on the same payoffs, in g's place.
    return values, _inequalities_hold(tau, joint, out=g)


def _subset_instabilities(joint: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The metric of each row of net payoffs q (R, n_c + n_p), customers first, against joint weights (n_c, n_p) or
    (R, n_c, n_p), one rectangular solve per row, and the pair gains g it leaves free for reuse."""
    g, f, h = _gains(joint, q)
    np.maximum(h, 0.0, out=h)  # positive exactly where the reduced gain is
    solved = [linear_sum_assignment(m, maximize=True) for m in h]
    rows, cols = (np.concatenate(side) for side in zip(*solved))
    rr = np.repeat(np.arange(len(solved)), [len(r) for r, _ in solved])
    keep = h[rr, rows, cols] > 0.0
    total = _terms_sum(g, f, rows[keep], cols[keep], rr[keep])
    return np.where(total > 0.0, total, 0.0), g


def subset_instability_value(u: UtilityMatrix, outcome: MarketOutcome) -> float:
    """``subset_instability(u, outcome).value``, bitwise, as the one-outcome case of :func:`tu_judgements`."""
    return float(tu_judgements(u, [outcome])[0][0])


def subset_instability(u: UtilityMatrix, outcome: MarketOutcome) -> InstabilityReport:
    """Exact instability of a zero-sum outcome, with all three witnesses.

    One maximum-weight matching of the reduced gains h = g - f_i - f_j gives
    everything: the value is the sum of the floors f plus its weight; its
    matched pairs with positive gain block, its unmatched agents with a
    positive floor violate individual rationality, and together they form the
    witness coalition; its dual prices t give the optimal subsidies f + t.
    """
    outcome.check_zero_sum()
    g, f, h = _gains(u.joint(), outcome._payoff_vector(u))
    n_c = u.num_customers
    rows, cols, t_c, t_p = assignment_with_duals(h)
    value = max(0.0, float(_terms_sum(g, f, rows, cols)))

    blocks = g[rows, cols] > TOL
    member = f > TOL
    member[rows] = blocks
    member[n_c + cols] = blocks

    return InstabilityReport(
        value=value,
        witness_subset=(np.flatnonzero(member[:n_c]), np.flatnonzero(member[n_c:])),
        subsidies_customers=f[:n_c] + t_c,
        subsidies_providers=f[n_c:] + t_p,
        blocking_pairs=(rows[blocks], cols[blocks]),
    )


def min_stabilizing_subsidy(u: UtilityMatrix, outcome: MarketOutcome) -> tuple[float, np.ndarray, np.ndarray]:
    """Minimum total subsidy making the outcome stable, with a per-agent witness."""
    report = subset_instability(u, outcome)
    return report.subsidy_total(), report.subsidies_customers, report.subsidies_providers


def max_unhappiness_coalition(u: UtilityMatrix, outcome: MarketOutcome) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Largest joint gain a coalition can secure without hurting any member,
    with the coalition as sorted customer and provider index arrays."""
    report = subset_instability(u, outcome)
    return report.value, report.witness_subset


def utility_difference(u: UtilityMatrix, outcome: MarketOutcome) -> float:
    """Total utility of the best matching minus that of the outcome's matching."""
    joint = u.joint()
    best = Matching._from_arrays(*assignment_pairs(joint))
    return best.weight(joint) - outcome.matching.weight(joint)


def subset_instability_bruteforce(u: UtilityMatrix, outcome: MarketOutcome) -> float:
    """Literal subset-maximization oracle; exponential, guarded at 12 agents.

    Enumerates every subset of agents and evaluates the best matching on it by
    dynamic programming over provider bitmasks, independent of the dual
    reduction used by :func:`subset_instability`.
    """
    n_c, n_p = u.num_customers, u.num_providers
    if n_c + n_p > _BRUTE_FORCE_MAX_AGENTS:
        raise TooLarge(f"brute force is limited to {_BRUTE_FORCE_MAX_AGENTS} agents")
    outcome.check_zero_sum()
    q_c, q_p = outcome.net_payoffs(u)
    joint = u.joint()

    best = 0.0
    for c_mask in range(1 << n_c):
        members = [i for i in range(n_c) if c_mask >> i & 1]
        # table[p_mask] = best matching weight using customers `members`
        # and providers within p_mask; built one customer at a time.
        table = [0.0] * (1 << n_p)
        for i in members:
            new = table[:]
            for p_mask in range(1 << n_p):
                base = table[p_mask]
                for j in range(n_p):
                    if p_mask >> j & 1 and joint[i, j] > 0:
                        cand = table[p_mask & ~(1 << j)] + joint[i, j]
                        if cand > base:
                            base = cand
                new[p_mask] = base
            table = new
        payoff_c = sum(q_c[i] for i in members)
        for p_mask in range(1 << n_p):
            payoff = payoff_c + sum(q_p[j] for j in range(n_p) if p_mask >> j & 1)
            gap = table[p_mask] - payoff
            if gap > best:
                best = gap
    return best


def _ntu_candidates(gain_c: np.ndarray, ir_c: np.ndarray) -> list[list[float]]:
    """Per-customer candidate subsidy levels: thresholds where constraints flip.
    Each list holds at least the customer's floor ``ir_c[i]``."""
    out = []
    for row, ir in zip(gain_c.tolist(), ir_c.tolist()):
        vals = {0.0, ir}
        vals.update([max(0.0, v) for v in row])
        out.append(sorted([v for v in vals if v >= ir - 1e-15]))
    return out


def _ntu_forced_providers(s_c: np.ndarray, gain_c: np.ndarray, gain_p: np.ndarray, ir_p: np.ndarray) -> np.ndarray:
    """Cheapest provider subsidies once customer subsidies are fixed."""
    uncovered = gain_c - s_c[:, None] > TOL
    s_p = ir_p.copy()
    if uncovered.any():
        need = np.where(uncovered, gain_p, -np.inf).max(axis=0)
        s_p = np.maximum(s_p, np.maximum(need, 0.0))
    return s_p


def ntu_subset_instability(u: UtilityMatrix, matching: Matching) -> NtuInstabilityReport:
    """Exact NTU instability by branch-and-bound over customer subsidy levels.

    The disjunctive no-blocking constraint means each blocking pair is silenced
    on the customer side or the provider side; optimal customer subsidies lie
    in a finite threshold set, and provider subsidies are then forced.
    """
    n_c, n_p = u.num_customers, u.num_providers
    if n_c > _NTU_EXACT_MAX_CUSTOMERS:
        raise TooLarge(f"exact NTU solver is limited to {_NTU_EXACT_MAX_CUSTOMERS} customers")
    mu_c, mu_p, gain_c, gain_p = ntu_gains(u, matching)
    stable = bool(_ntu_stable(mu_c, mu_p, gain_c, gain_p))
    ir_c, ir_p = np.maximum(0.0, -mu_c), np.maximum(0.0, -mu_p)

    if n_p == 0 or n_c == 0:
        return NtuInstabilityReport(float(ir_c.sum() + ir_p.sum()), ir_c, ir_p, stable)

    candidates = _ntu_candidates(gain_c, ir_c)
    min_rest = np.array([min(c) for c in candidates])
    tail_min = np.concatenate([np.cumsum(min_rest[::-1])[::-1], [0.0]])
    provider_floor = float(ir_p.sum())

    best_total = np.inf
    best_sc = ir_c.copy()
    stack_sc = np.zeros(n_c)

    def dfs(i: int, partial: float) -> None:
        nonlocal best_total, best_sc
        if partial + tail_min[i] + provider_floor >= best_total - 1e-15:
            return
        if i == n_c:
            s_p = _ntu_forced_providers(stack_sc, gain_c, gain_p, ir_p)
            total = partial + float(s_p.sum())
            if total < best_total - 1e-15:
                best_total = total
                best_sc = stack_sc.copy()
            return
        for v in candidates[i]:
            stack_sc[i] = v
            dfs(i + 1, partial + v)

    dfs(0, 0.0)
    s_c = best_sc
    s_p = _ntu_forced_providers(s_c, gain_c, gain_p, ir_p)
    return NtuInstabilityReport(float(s_c.sum() + s_p.sum()), s_c, s_p, stable)


def ntu_judgements(u: UtilityMatrix, matchings: list, customers: np.ndarray, providers: np.ndarray) -> tuple:
    """``ntu_subset_instability``'s value and stable flag of each matching of ``u`` on the submarket of the sorted
    agents in row r of ``customers`` (R, a) and ``providers`` (R, b), and a mask of the rows they are exact for: none
    below the crossover or above the cap, else those whose first leaf within 1e-15 of the least total beats every
    leaf before it by more than 1e-15 and whose leaves total at least the prefix bounds the search prunes on."""
    R, a, b = len(matchings), customers.shape[1], providers.shape[1]
    if R < _NTU_STACK_ROUNDS or a > _NTU_EXACT_MAX_CUSTOMERS or (b + 1) ** a * b > _NTU_STACK_CELLS:
        return np.zeros(R), np.zeros(R, dtype=bool), np.zeros(R, dtype=bool)
    rows, pairs = np.arange(R), [m.index_arrays for m in matchings]
    (ci, pj), rr = (np.concatenate(side) for side in zip(*pairs)), np.repeat(rows, [len(c) for c, _ in pairs])
    mu_c, mu_p = np.zeros((R, u.num_customers)), np.zeros((R, u.num_providers))
    mu_c[rr, ci], mu_p[rr, pj] = u.customer_values[ci, pj], u.provider_values[pj, ci]
    mu_c, mu_p = mu_c[rows[:, None], customers], mu_p[rows[:, None], providers]
    sub = (customers[:, :, None], providers[:, None, :])
    gain_c, gain_p = u.customer_values[sub] - mu_c[:, :, None], u.provider_values.T[sub] - mu_p[:, None, :]
    ir_c, ir_p = np.maximum(0.0, -mu_c), np.maximum(0.0, -mu_p)
    # A customer's candidates: its floor and its positive gains (its own pair's is 0.0), sorted, with the search's +0.0
    # for an unmatched floor's -0.0; a repeat, or a value below the floor by more than 1e-15, is none and weighs inf.
    # Digit i of a leaf's index in base b + 1 is customer i's slot, so leaves run in the search's order.
    slots = np.sort(np.concatenate((ir_c[:, :, None], np.where(gain_c > 0.0, gain_c, 0.0)), 2), 2) + 0.0
    slots[(slots < ir_c[:, :, None] - 1e-15) | (np.diff(slots, axis=2, prepend=-np.inf) == 0.0)] = np.inf
    tail = np.cumsum(slots.min(2)[:, ::-1], 1)[:, ::-1]  # the search's tail_min
    needs = np.where(gain_c[:, :, None, :] - slots[:, :, :, None] > TOL, gain_p[:, :, None, :], -np.inf)
    partial, low, s_p = np.zeros((R, 1)), np.full((R, 1), -np.inf), ir_p[:, None]
    for i in range(a):
        low = np.repeat(np.maximum(low, partial + tail[:, i, None]), b + 1, 1)
        partial = (partial[:, :, None] + slots[:, i, None, :]).reshape(R, -1)
        s_p = np.maximum(s_p[:, :, None], needs[:, i, None]).reshape(*partial.shape, b)  # forced provider subsidies
    total = partial + s_p.sum(2)  # no zero's sign reaches a sum, which starts at +0.0
    k = (total - 1e-15 <= total.min(1)[:, None]).argmax(1)
    exact = (k == 0) | (total[rows, k] < np.minimum.accumulate(total, 1)[rows, k - 1] - 1e-15)
    exact &= (total >= low + ir_p.sum(1)[:, None]).all(1)
    s_c = slots[rows[:, None], np.arange(a), k[:, None] // (b + 1) ** np.arange(a - 1, -1, -1) % (b + 1)]
    return s_c.sum(1) + s_p[rows, k].sum(1), _ntu_stable(mu_c, mu_p, gain_c, gain_p), exact


def ntu_subset_instability_bruteforce(u: UtilityMatrix, matching: Matching) -> float:
    """Exhaustive candidate-grid oracle for the NTU metric (no pruning).

    Enumerates the full product of customer candidate levels, derives provider
    subsidies, and verifies feasibility of every evaluated vector explicitly.
    """
    n_c, n_p = u.num_customers, u.num_providers
    if n_c > _NTU_BRUTE_MAX_SIDE or n_p > _NTU_BRUTE_MAX_SIDE:
        raise TooLarge(f"NTU oracle is limited to {_NTU_BRUTE_MAX_SIDE} agents per side")
    mu_c, mu_p, gain_c, gain_p = ntu_gains(u, matching)
    ir_c, ir_p = np.maximum(0.0, -mu_c), np.maximum(0.0, -mu_p)

    if n_p == 0 or n_c == 0:
        return float(ir_c.sum() + ir_p.sum())

    best = np.inf
    for combo in itertools.product(*_ntu_candidates(gain_c, ir_c)):
        s_c = np.array(combo)
        s_p = _ntu_forced_providers(s_c, gain_c, gain_p, ir_p)
        covered = np.minimum(gain_c - s_c[:, None], gain_p - s_p[None, :]) <= TOL
        feasible = (
            covered.all()
            and (mu_c + s_c >= -TOL).all()
            and (mu_p + s_p >= -TOL).all()
            and (s_c >= -TOL).all()
            and (s_p >= -TOL).all()
        )
        if feasible:
            best = min(best, float(s_c.sum() + s_p.sum()))
    return best

