"""Round-level matching policies driven by confidence sets.

``compute_match`` solves the optimistic primal-dual pair and reads transfers
off the dual prices; ``compute_match_prime`` adds the gap-aware dual lift and
the expanded-set cross-check needed for instance-dependent guarantees;
``compute_match_ntu`` runs customer-proposing deferred acceptance on the upper
confidence bounds. The policy classes wrap these into bandit loops with
semi-bandit feedback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confidence import ConfidenceSets, TypedConfidence, UnstructuredConfidence
from .instability import _subset_instabilities
from .market import (
    TOL,
    Matching,
    MarketOutcome,
    UtilityMatrix,
    assignment_pairs,
    assignment_with_duals,
    certified_duals,
    heaviest_matchings,
    lists_all_in_order,
    second_best_matching,
)

Arrivals = tuple[np.ndarray, np.ndarray]  # (customer indices, provider indices), each sorted and distinct

# A round's revenue is at most eps + 5 per agent (|tau| <= 3 plus a refund <= 2) and a sweep sums at most 2e7 rounds,
# so below this bound every revenue sum, and 2 * eps in the eps-stability test, stays finite under 9e10 agents.
_EPSILON_MAX = 1e290


def all_arrivals(num_customers: int, num_providers: int) -> Arrivals:
    return np.arange(num_customers), np.arange(num_providers)


def _outcome_from_duals(
    ucb: UtilityMatrix, local: Matching, p_c: np.ndarray, p_p: np.ndarray, arrivals: Arrivals, n_c: int, n_p: int
) -> MarketOutcome:
    """Global-index outcome with transfers tau_a = p_a - ucb_a(mu(a)), from
    prices 0 on unmatched agents. On full arrivals the transfers are written
    into ``p_c`` and ``p_p`` and the matching is ``local`` itself."""
    cust, prov = arrivals
    li, lj = local.index_arrays
    p_c[li] -= ucb.customer_values[li, lj]
    p_p[lj] -= ucb.provider_values[lj, li]
    if lists_all_in_order(cust, n_c) and lists_all_in_order(prov, n_p):
        return MarketOutcome(local, p_c, p_p)
    gi, gj = cust[li], prov[lj]
    tau_c, tau_p = np.zeros(n_c), np.zeros(n_p)
    tau_c[gi], tau_p[gj] = p_c[li], p_p[lj]
    return MarketOutcome(Matching._from_arrays(gi, gj), tau_c, tau_p)


def _optimistic_outcome(
    conf: ConfidenceSets, arrivals: Arrivals, ucb: UtilityMatrix, joint: np.ndarray
) -> MarketOutcome:
    """The outcome stable for ``ucb``, the upper bounds restricted to the
    arrivals, whose joint weights are ``joint``."""
    rows, cols, p_c, p_p = assignment_with_duals(joint)
    local = Matching._from_arrays(rows, cols)
    return _outcome_from_duals(ucb, local, p_c, p_p, arrivals, conf.num_customers, conf.num_providers)


def compute_match(conf: ConfidenceSets, arrivals: Arrivals) -> MarketOutcome:
    """Stable-for-the-upper-bounds outcome on this round's arrivals, read in place from ``conf.hi``."""
    sub = UtilityMatrix._trusted(conf.hi_c, conf.hi_p).restrict(*arrivals)
    return _optimistic_outcome(conf, arrivals, sub, sub.joint())


def expanded_upper_bounds(conf: ConfidenceSets) -> UtilityMatrix:
    """Upper bounds of the doubled-width sets C' (not clipped to [-1, 1])."""
    return UtilityMatrix._trusted(*conf._blocks(conf.hi + (conf.hi - conf.lo) / 2.0))


def _best_and_gap(ucb: UtilityMatrix, joint: np.ndarray) -> tuple[Matching | None, float]:
    """The best matching of ``joint`` and its gap to the second best, or
    (None, 0.0) when that gap is at most TOL.

    Small markets read both from the matching table: its gap, best minus
    second-best table weight, is at most TOL beyond the float-error band, or
    its best and second-best matchings are each heavier than the next by more
    than the band. Any other case, and larger markets, take the solver and
    Murty's branching. Either way a gap that is played is the left-to-right
    difference of the two matchings' weights.
    """
    ranked = heaviest_matchings(joint, 3)
    if ranked is not None:
        (best, second, _), (w1, w2, w3), band = ranked
        if w1 - w2 < TOL - band:
            return None, 0.0
        if w1 - w2 > TOL + band and w2 - w3 > band:
            return best, best.weight(joint) - second.weight(joint)
    best = Matching._from_arrays(*assignment_pairs(joint))
    return best, best.weight(joint) - second_best_matching(ucb, best)[1]


def _best_matching(joint: np.ndarray) -> Matching:
    """The matching :func:`assignment_pairs` returns, from the matching table
    when the best table weight leads the next by more than the band."""
    ranked = heaviest_matchings(joint, 2)
    if ranked is not None:
        (best, _), (w1, w2), band = ranked
        if w1 - w2 > band:
            return best
    return Matching._from_arrays(*assignment_pairs(joint))


def compute_match_prime(conf: ConfidenceSets, arrivals: Arrivals) -> tuple[MarketOutcome, dict]:
    """Gap-aware variant selecting robust dual prices.

    On the original upper bounds it computes the best matching and the gap to
    the second-best matching; a zero gap falls back to compute_match's
    outcome, built from the same bounds. When the best matching of the
    doubled-width sets differs, the doubled-set outcome is played, with that
    matching's duals. Otherwise the duals come from a perturbed utility that
    shaves gap/|A| off every matched edge endpoint; adding gap/|A| back to
    them yields an optimal-but-robust primal-dual pair. Only the played
    branch builds duals: one dual pass per call.
    """
    cust, prov = arrivals
    n_c, n_p = conf.num_customers, conf.num_providers
    # Full arrivals read the upper bounds in place, as views of conf.hi.
    full = lists_all_in_order(cust, n_c) and lists_all_in_order(prov, n_p)
    hi = UtilityMatrix._trusted(conf.hi_c, conf.hi_p)
    ucb = hi if full else hi.restrict(cust, prov)
    joint = ucb.joint()
    x_star, gap = _best_and_gap(ucb, joint) if len(cust) and len(prov) else (None, 0.0)
    if gap <= TOL:
        return _optimistic_outcome(conf, arrivals, ucb, joint), {"branch": "fallback", "gap": 0.0}

    ucb2 = expanded_upper_bounds(conf) if full else expanded_upper_bounds(conf).restrict(cust, prov)
    joint2 = ucb2.joint()
    x_expanded = _best_matching(joint2)
    if x_expanded.pairs != x_star.pairs:
        p2_c, p2_p = certified_duals(joint2, x_expanded)
        outcome = _outcome_from_duals(ucb2, x_expanded, p2_c, p2_p, arrivals, n_c, n_p)
        return outcome, {"branch": "expanded", "gap": gap}

    # Perturbed utilities: matched-edge entries reduced by gap/|A| per side,
    # so only the matched entries of the joint weights change.
    shave = gap / (len(cust) + len(prov))
    joint_prime = joint.copy()
    for i, j in x_star.pairs:
        joint_prime[i, j] = (ucb.customer_values[i, j] - shave) + (ucb.provider_values[j, i] - shave)
    _, _, p_c, p_p = assignment_with_duals(joint_prime)
    for i, j in x_star.pairs:
        p_c[i] += shave
        p_p[j] += shave
    outcome = _outcome_from_duals(ucb, x_star, p_c, p_p, arrivals, n_c, n_p)
    return outcome, {"branch": "robust", "gap": gap}


def compute_match_ntu(conf: ConfidenceSets, arrivals: Arrivals) -> Matching:
    """Customer-proposing deferred acceptance on the upper confidence bounds.

    Customers propose in decreasing optimistic value, skipping partners with
    negative value; providers hold the best individually-rational proposer.
    Proposal-order ties break toward the lower provider index.
    """
    cust, prov = arrivals
    sub = conf.ucb_matrix().restrict(cust, prov)
    u_c = sub.customer_values
    u_p = sub.provider_values.tolist()
    n_c = len(cust)

    # A stable argsort of -u is the (-u, j) order.
    pref_lists = [
        [j for j in order if row[j] >= 0.0]
        for order, row in zip(np.argsort(-u_c, axis=1, kind="stable").tolist(), u_c.tolist())
    ]
    next_choice = [0] * n_c
    holder: dict[int, int] = {}
    free = list(range(n_c))
    while free:
        i = free.pop(0)
        while next_choice[i] < len(pref_lists[i]):
            j = pref_lists[i][next_choice[i]]
            next_choice[i] += 1
            if u_p[j][i] < 0.0:
                continue
            current = holder.get(j)
            if current is None:
                holder[j] = i
                break
            if u_p[j][i] > u_p[j][current]:
                holder[j] = i
                free.insert(0, current)
                break
        # Exhausted list: customer stays unmatched.
    return Matching._from_arrays(cust[list(holder.values())], prov[list(holder)])


def _ntu_outcome(conf: ConfidenceSets, arrivals: Arrivals) -> MarketOutcome:
    """``compute_match_ntu``'s matching as an outcome with zero transfers."""
    return MarketOutcome.ntu(compute_match_ntu(conf, arrivals), conf.num_customers, conf.num_providers)


@dataclass
class RoundDecision:
    """One round's outcome plus diagnostics.

    ``certified_instability_bound`` is the confidence-width certificate; it is
    valid whenever the sets contain the truth. ``scored_outcome`` is the
    zero-sum outcome to score regret against (differs from ``outcome`` only
    for the revenue policy, whose published transfers include fees).
    ``info`` holds policy-internal choices, e.g. the branch and gap of
    ``match_ucb_prime``; None when the policy records none.
    """

    outcome: MarketOutcome
    width_sum: float
    certified_instability_bound: float
    revenue: float
    scored_outcome: MarketOutcome = None  # type: ignore[assignment]
    info: dict | None = None

    def __post_init__(self) -> None:
        if self.scored_outcome is None:
            self.scored_outcome = self.outcome


class Policy:
    """Base bandit policy: select an outcome, consume feedback, update sets."""

    kind = "base"
    compatible_sets: tuple[type[ConfidenceSets], ...] = (ConfidenceSets,)

    def __init__(self, conf: ConfidenceSets, horizon: int) -> None:
        if not isinstance(conf, self.compatible_sets):
            raise ValueError(f"{self.kind} is incompatible with {conf.mode} confidence sets")
        self.conf = conf
        self.horizon = horizon
        self._memo_key: tuple | None = None
        self._memo_value = None

    def step(self, arrivals: Arrivals, feedback) -> RoundDecision:
        """Play one round. ``feedback(matching)`` returns the observed rewards
        ``(r_c, r_p)``: two float arrays aligned with ``matching.pairs``."""
        decision = self._select(arrivals)
        observations = feedback(decision.outcome.matching)
        self._learn(decision.outcome.matching, observations)
        return decision

    def _select(self, arrivals: Arrivals) -> RoundDecision:
        raise NotImplementedError

    def _memo(self, fn, arrivals: Arrivals):
        """``fn(self.conf, arrivals)``, reused while ``fn``, the arrivals and
        the upper bounds ``conf.hi`` are bytewise those of the last call.

        Bytes, not values, are compared, so -0.0 and 0.0 differ and a reused
        result is the one a fresh call would return. The key holds the arrays'
        contents, not a version counter: callers may write the sets in place.
        """
        key = (fn, *[(a.shape, a.tobytes()) for a in arrivals], self.conf.hi.tobytes())
        if key != self._memo_key:
            self._memo_value = fn(self.conf, arrivals)
            self._memo_key = key
        return self._memo_value

    def _learn(self, matching: Matching, observations: tuple[np.ndarray, np.ndarray]) -> None:
        self.conf.update(matching, observations, self.horizon)


class MatchUcbPolicy(Policy):
    """Optimistic primal-dual matching; the unstructured/typed/linear loops
    differ only in the confidence sets they carry."""

    kind = "match_ucb"

    def _select(self, arrivals: Arrivals) -> RoundDecision:
        outcome = self._memo(compute_match, arrivals)
        w = self.conf.width_sum(outcome.matching)
        return RoundDecision(outcome, w, w, 0.0)


class MatchUcbPrimePolicy(Policy):
    kind = "match_ucb_prime"
    compatible_sets = (UnstructuredConfidence,)

    # Not memoised: the branch reads the lower bounds too, and the key would
    # match in about 1% of rounds.
    def _select(self, arrivals: Arrivals) -> RoundDecision:
        outcome, info = compute_match_prime(self.conf, arrivals)
        w = self.conf.width_sum(outcome.matching)
        bound = 2.0 * w if info["branch"] == "expanded" else w
        return RoundDecision(outcome, w, bound, 0.0, info=info)


class MatchNtuUcbPolicy(Policy):
    kind = "match_ntu_ucb"
    compatible_sets = (UnstructuredConfidence, TypedConfidence)

    def _select(self, arrivals: Arrivals) -> RoundDecision:
        outcome = self._memo(_ntu_outcome, arrivals)
        w = self.conf.width_sum(outcome.matching)
        return RoundDecision(outcome, w, w, 0.0)


class EtcPolicy(Policy):
    """Explore-then-commit: force each pair a fixed number of times, then play
    the optimistic outcome on frozen sets.

    Exploration packs disjoint pairs via a diagonal-offset round-robin:
    offset k matches customer i with provider (i + k) mod max(sides), so one
    full sweep of offsets visits every pair exactly once.
    """

    kind = "etc"
    compatible_sets = (UnstructuredConfidence,)

    def __init__(self, conf: ConfidenceSets, horizon: int, pulls_per_pair: int | None = None) -> None:
        super().__init__(conf, horizon)
        if pulls_per_pair is None:
            pulls_per_pair = self.default_pulls_per_pair(conf.num_agents, horizon)
        self.pulls_per_pair = pulls_per_pair
        self.explored = np.zeros((conf.num_customers, conf.num_providers), dtype=int)
        self.committed = False
        self._offset = 0

    @staticmethod
    def default_pulls_per_pair(num_agents: int, horizon: int) -> int:
        if num_agents == 0:
            return 0
        log_term = math.log(max(num_agents * horizon, 2))
        return int(math.ceil((horizon / num_agents) ** (2.0 / 3.0) * log_term ** (1.0 / 3.0)))

    def _select(self, arrivals: Arrivals) -> RoundDecision:
        if not self.committed and (self.explored >= self.pulls_per_pair).all():
            self.committed = True
        if self.committed:
            outcome = self._memo(compute_match, arrivals)
            w = self.conf.width_sum(outcome.matching)
            return RoundDecision(outcome, w, w, 0.0)

        cust, prov = arrivals
        n_p = self.conf.num_providers
        modulus = max(self.conf.num_customers, n_p, 1)
        pset = set(prov.tolist())
        pairs = []
        for i in cust.tolist():
            j = (i + self._offset) % modulus
            if j < n_p and j in pset and self.explored[i, j] < self.pulls_per_pair:
                pairs.append((i, j))
                self.explored[i, j] += 1
        self._offset = (self._offset + 1) % modulus
        matching = Matching(pairs)
        outcome = MarketOutcome.ntu(matching, self.conf.num_customers, self.conf.num_providers)
        # Forced pairs with zero transfers are not stable for the upper bounds, so their width bounds nothing. With
        # the truth in the sets, their instability is at most the metric of the arrived joint upper bounds against
        # the matched payoffs at the lower bounds.
        ci, pj = matching.index_arrays
        q_c, q_p = np.zeros(self.conf.num_customers), np.zeros(n_p)
        q_c[ci], q_p[pj] = self.conf.lo_c[ci, pj], self.conf.lo_p[pj, ci]
        joint = UtilityMatrix._trusted(self.conf.hi_c, self.conf.hi_p).restrict(cust, prov).joint()
        bound = float(_subset_instabilities(joint, np.concatenate((q_c[cust], q_p[prov]))[None])[0][0])
        return RoundDecision(outcome, self.conf.width_sum(matching), bound, 0.0)

    def _learn(self, matching: Matching, observations: tuple[np.ndarray, np.ndarray]) -> None:
        if not self.committed:
            super()._learn(matching, observations)
        # Committed phase keeps the sets frozen; feedback is discarded.


class RevenueFrictionsPolicy(Policy):
    """Search-frictions pricing: charge each matched agent eps but refund the
    platform's current uncertainty about them. Published transfers are not
    zero-sum; regret is scored on the underlying zero-sum outcome."""

    kind = "revenue_frictions"
    compatible_sets = (UnstructuredConfidence,)

    def __init__(self, conf: ConfidenceSets, horizon: int, epsilon: float) -> None:
        if not 0 < epsilon <= _EPSILON_MAX:
            raise ValueError(f"epsilon must lie in (0, {_EPSILON_MAX:g}]")
        super().__init__(conf, horizon)
        self.epsilon = epsilon

    def _select(self, arrivals: Arrivals) -> RoundDecision:
        base = self._memo(compute_match, arrivals)
        tau_c = base.customer_transfers.copy()
        tau_p = base.provider_transfers.copy()
        for i, j in base.matching.pairs:
            tau_c[i] += -self.epsilon + (self.conf.hi_c[i, j] - self.conf.lo_c[i, j])
            tau_p[j] += -self.epsilon + (self.conf.hi_p[j, i] - self.conf.lo_p[j, i])
        published = MarketOutcome(base.matching, tau_c, tau_p)
        w = self.conf.width_sum(base.matching)
        revenue = -float(tau_c.sum() + tau_p.sum())
        return RoundDecision(published, w, w, revenue, scored_outcome=base)
