"""Two-sided markets with transferable utilities.

Agents live on two sides (customers and providers). A matching pairs agents
across sides; a market outcome adds per-agent monetary transfers. The central
solver returns a maximum-weight matching together with supporting dual prices,
which is exactly the primal-dual pair that characterizes stable outcomes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InvalidOutcome, NoAlternative, UncertifiedDuals

TOL = 1e-9

# Dual certificates hold to this tolerance relative to the largest weight.
_DUAL_RTOL = 1e-9

_FORBIDDEN = -np.inf

# Markets of at most this many cells n_c * n_p rank their matchings by one
# matmul over a table of every matching instead of calling the assignment
# solver. The table's cost grows with its length: the picks of one
# match_ucb_prime round took 38 us against the solver's 66 us at 4x4 (209
# matchings), as long at 4x5 (501) and 2.6 times as long at 5x5 (1546), on
# a 2-core x86-64 box.
_TABLE_MAX_CELLS = 16

# Within the cap a matching has at most 4 edges, each of magnitude at most s,
# the largest magnitude of any matching weight (an edge is a matching). In
# any order, the matmul's or the left-to-right one of Matching.weight, their
# sum takes at most 3 roundings: an error below 3 * 2**-53 * 4s < 1.4e-15 * s.
# A difference of two weights is thus off by less than 3e-15 * s, and the
# band _TABLE_RTOL * (1 + s) is over 300 times that.
_TABLE_RTOL = 1e-12

_new = object.__new__


@lru_cache(maxsize=64)
def _arange_bytes(n: int) -> bytes:
    return np.arange(n).tobytes()


def lists_all_in_order(idx: np.ndarray, n: int) -> bool:
    """Whether the index array ``idx`` is exactly 0, 1, ..., n - 1."""
    return len(idx) == n and idx.tobytes() == _arange_bytes(n)


@dataclass(frozen=True)
class UtilityMatrix:
    """Global utility function over ordered cross-side pairs.

    ``customer_values[i, j]`` is the utility customer ``i`` derives from being
    matched to provider ``j``; ``provider_values[j, i]`` is the reverse
    direction. Unmatched utility is implicitly zero. The bandit environment
    keeps entries in [-1, 1]; the scoring code accepts arbitrary scales.
    """

    customer_values: np.ndarray
    provider_values: np.ndarray

    def __post_init__(self) -> None:
        cv = np.asarray(self.customer_values, dtype=float)
        pv = np.asarray(self.provider_values, dtype=float)
        if cv.ndim != 2 or pv.ndim != 2 or cv.shape != pv.shape[::-1]:
            raise ValueError(f"inconsistent utility shapes {cv.shape} / {pv.shape}")
        if not (np.all(np.isfinite(cv)) and np.all(np.isfinite(pv))):
            raise ValueError("utilities must be finite")
        object.__setattr__(self, "customer_values", cv)
        object.__setattr__(self, "provider_values", pv)

    @classmethod
    def _trusted(cls, customer_values: np.ndarray, provider_values: np.ndarray) -> UtilityMatrix:
        """A matrix of finite float arrays of transposed shapes, unchecked."""
        u = _new(cls)
        u.__dict__.update(customer_values=customer_values, provider_values=provider_values)
        return u

    @property
    def num_customers(self) -> int:
        return self.customer_values.shape[0]

    @property
    def num_providers(self) -> int:
        return self.customer_values.shape[1]

    @property
    def num_agents(self) -> int:
        return self.num_customers + self.num_providers

    def joint(self) -> np.ndarray:
        """Joint pair weights u_i(j) + u_j(i), shape (customers, providers)."""
        return self.customer_values + self.provider_values.T

    def restrict(self, customers: np.ndarray, providers: np.ndarray) -> UtilityMatrix:
        """Submarket on the given index arrays, in their order; arrays that
        list every agent in index order return the market itself."""
        if lists_all_in_order(customers, self.num_customers) and lists_all_in_order(providers, self.num_providers):
            return self
        return UtilityMatrix._trusted(
            self.customer_values.take(customers, 0).take(providers, 1),
            self.provider_values.take(providers, 0).take(customers, 1),
        )


@dataclass(frozen=True)
class Matching:
    """A set of pairwise-disjoint (customer, provider) index pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs=()) -> None:
        normalized = tuple(sorted((int(i), int(j)) for i, j in pairs))
        if len({i for i, _ in normalized}) < len(normalized) or len({j for _, j in normalized}) < len(normalized):
            raise ValueError("matching pairs are not disjoint")
        object.__setattr__(self, "pairs", normalized)

    @classmethod
    def _from_arrays(cls, rows: np.ndarray, cols: np.ndarray) -> Matching:
        """A matching of index arrays disjoint by construction: solver output,
        or solver output lifted through arrival indices. They become its
        read-only ``index_arrays``, reordered by customer unless, as solver
        output and increasing arrivals keep them, they already are."""
        r = rows.tolist()
        if r != sorted(r):
            order = rows.argsort()
            rows, cols = rows[order], cols[order]
            r = rows.tolist()
        rows.setflags(write=False)
        cols.setflags(write=False)
        m = _new(cls)
        m.__dict__.update(pairs=tuple(zip(r, cols.tolist())), index_arrays=(rows, cols))
        return m

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    @cached_property
    def index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only customer and provider index arrays, aligned with ``pairs``."""
        idx = np.array(self.pairs, dtype=np.intp).reshape(-1, 2)
        idx.flags.writeable = False
        return idx[:, 0], idx[:, 1]

    def weight(self, joint: np.ndarray) -> float:
        """Sum of ``joint`` over the pairs, added left to right in pair order."""
        return float(sum(joint[i, j] for i, j in self.pairs))

    def total_utility(self, u: UtilityMatrix) -> float:
        return self.weight(u.joint())


@dataclass(frozen=True)
class MarketOutcome:
    """A matching plus per-agent transfers (zero-sum in TU mode, zero in NTU)."""

    matching: Matching
    customer_transfers: np.ndarray
    provider_transfers: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "customer_transfers", np.asarray(self.customer_transfers, dtype=float))
        object.__setattr__(self, "provider_transfers", np.asarray(self.provider_transfers, dtype=float))

    @classmethod
    def ntu(cls, matching: Matching, num_customers: int, num_providers: int) -> MarketOutcome:
        return cls(matching, np.zeros(num_customers), np.zeros(num_providers))

    def net_payoffs(self, u: UtilityMatrix) -> tuple[np.ndarray, np.ndarray]:
        """Per-agent match utility plus transfer (zero for unmatched agents)."""
        q = self._payoff_vector(u)
        return q[: u.num_customers], q[u.num_customers :]

    def _payoff_vector(self, u: UtilityMatrix) -> np.ndarray:
        """The net payoffs of every customer, then of every provider, as one vector."""
        n_c = u.num_customers
        q = np.concatenate((self.customer_transfers, self.provider_transfers))
        for i, j in self.matching.pairs:
            q[i] += u.customer_values[i, j]
            q[n_c + j] += u.provider_values[j, i]
        return q

    def check_zero_sum(self, tol: float = TOL) -> None:
        """Raise InvalidOutcome unless every matched pair's transfers sum to
        zero and every unmatched agent's transfer is zero, within ``tol``.
        The first failing pair is reported, then unmatched customers, then
        unmatched providers."""
        ci, pj = self.matching.index_arrays
        tau_c, tau_p = self.customer_transfers, self.provider_transfers
        n_c = len(tau_c)
        # One residual per agent: the pair sum on matched customers, zero on
        # matched providers, and the transfer itself on unmatched agents.
        resid = np.concatenate((tau_c, tau_p))
        resid[ci] = tau_c[ci] + tau_p[pj]
        resid[n_c + pj] = 0.0
        bad = np.abs(resid) > tol
        if not bad.any():
            return
        if bad[ci].any():
            k = int(np.argmax(bad[ci]))
            raise InvalidOutcome(f"transfers of pair ({ci[k]},{pj[k]}) are not zero-sum")
        if bad[:n_c].any():
            raise InvalidOutcome(f"unmatched customer {int(np.argmax(bad[:n_c]))} has nonzero transfer")
        raise InvalidOutcome(f"unmatched provider {int(np.argmax(bad[n_c:]))} has nonzero transfer")


def _positive_assignment(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clipped weights ``w = max(joint, 0)`` and the matched rows and cols of
    one rectangular maximum-weight solve on ``w``, kept where the weight is
    positive."""
    w = np.maximum(joint, 0.0)
    rows, cols = linear_sum_assignment(w, maximize=True)
    keep = joint[rows, cols] > 0.0
    return w, rows[keep], cols[keep]


def assignment_pairs(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-weight bipartite matching as matched rows and cols, rows
    increasing; agents may stay unmatched at zero.

    One rectangular solve on the clipped weights. Edges with weight <= 0 are
    never used.
    """
    return _positive_assignment(joint)[1:]


def assignment_with_duals(joint: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximum-weight bipartite matching with dual prices.

    ``joint[i, j]`` is the weight of matching customer ``i`` with provider
    ``j``; agents may stay unmatched at weight zero, so edges with weight <= 0
    are never used. Returns the matched rows and cols, as
    :func:`assignment_pairs` does, and per-side dual prices ``p`` with
    ``p >= 0``, ``p_i + p_j >= max(joint[i, j], 0)`` for all pairs, equality
    on matched pairs, and ``p = 0`` on unmatched agents.
    """
    w, rows, cols = _positive_assignment(joint)
    return (rows, cols, *_duals_for_matching(w, rows, cols))


def certified_duals(joint: np.ndarray, matching: Matching) -> tuple[np.ndarray, np.ndarray]:
    """The dual prices of :func:`assignment_with_duals` for ``matching``, a
    maximum-weight matching of ``joint`` found by :func:`assignment_pairs`,
    without solving again."""
    ci, pj = matching.index_arrays
    return _duals_for_matching(np.maximum(joint, 0.0), ci, pj)


def _duals_for_matching(w: np.ndarray, ci: np.ndarray, pj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dual prices supporting an optimal matching of nonnegative weights ``w``.

    The matching pairs customer ``ci[k]`` with provider ``pj[k]``. Unmatched
    agents are pinned at zero (complementary slackness). For matched pair k
    the customer price x_k determines the provider price w_k - x_k, and
    feasibility against all other edges becomes a shortest-path problem. The
    system of difference constraints is feasible exactly when the matching is
    optimal for ``w``. The result is checked against every dual constraint,
    to a tolerance relative to the largest weight, and UncertifiedDuals is
    raised when the check fails.
    """
    n_c, n_p = w.shape
    p_c = np.zeros(n_c)
    p_p = np.zeros(n_p)
    k = len(ci)
    if not k:
        return p_c, p_p

    sub = w.take(ci, 0).take(pj, 1)  # sub[k, l] = w[i_k, j_l]
    wk = sub.diagonal()

    # Start from the upper bounds x_k <= w_k (p_p >= 0) and x_k <= w_k - w[i, j_k]
    # over unmatched customers i; the lower bounds are left to the certificate.
    x = wk
    if k < n_c:
        free_c = np.ones(n_c, dtype=bool)
        free_c[ci] = False
        x = wk - w.take(pj, 1)[free_c].max(axis=0)

    # Cross constraints x_k - x_l >= w[i_k, j_l] - w_l = d[k, l] give the
    # shortest-path relaxation x_l <- min(x_l, min_{k != l} x_k - d[k, l]);
    # d[l, l] = -inf leaves out k = l. Small vectors compare as lists.
    d = sub - wk
    d.ravel()[:: k + 1] = -np.inf
    xl = x.tolist()
    for _ in range(k):
        new_x = np.minimum(x, (x[:, None] - d).min(axis=0))
        new_xl = new_x.tolist()
        if new_xl == xl:
            break
        x, xl = new_x, new_xl

    # Certificate: p >= 0, p_i + p_j >= w_ij, and equality on matched pairs,
    # whose slack is x_k + (w_k - x_k) - w_k. The provider prices w_k - x_k
    # are nonnegative by construction, as x <= w_k.
    p_c[ci] = x
    p_p[pj] = wk - x
    slack = p_c[:, None] + p_p
    slack -= w
    tol = _DUAL_RTOL * w.max()
    if min(xl) < -tol or slack.min() < -tol or max([a + (b - a) - b for a, b in zip(xl, wk.tolist())]) > tol:
        raise UncertifiedDuals(f"no dual prices certify the matching to tolerance {tol:.3g}")
    # Within that tolerance, customer prices round to the sign constraint.
    np.maximum(p_c, 0.0, out=p_c)
    return p_c, p_p


def max_weight_matching_with_duals(u: UtilityMatrix) -> tuple[Matching, tuple[np.ndarray, np.ndarray]]:
    """Maximum-weight matching and dual prices ``(p_c, p_p)`` for the market ``u``.

    The prices are nonnegative, feasible for the assignment dual,
    complementary slack with the returned matching, and sum to its weight.
    """
    rows, cols, p_c, p_p = assignment_with_duals(u.joint())
    return Matching._from_arrays(rows, cols), (p_c, p_p)


def stable_outcome_from_duals(
    u: UtilityMatrix, matching: Matching, prices: tuple[np.ndarray, np.ndarray]
) -> MarketOutcome:
    """Transfers tau_a = p_a - u_a(mu(a)) from prices ``(p_c, p_p)``; stable
    whenever (matching, prices) is optimal."""
    ci, pj = matching.index_arrays
    tau_c, tau_p = prices[0].copy(), prices[1].copy()
    tau_c[ci] -= u.customer_values[ci, pj]
    tau_p[pj] -= u.provider_values[pj, ci]
    return MarketOutcome(matching, tau_c, tau_p)


def second_best_matching(u: UtilityMatrix, best: Matching) -> tuple[Matching, float]:
    """Maximum-weight matching over all matchings different from ``best``.

    ``best`` must be a maximum-weight matching of ``u``. Any other matching
    either misses an edge of ``best`` or strictly contains it. The first kind
    is covered by one solve per edge of ``best`` with that edge forbidden
    (Murty's branching). Every edge between agents ``best`` leaves unmatched
    weighs <= 0, so the best of the second kind is ``best`` plus the highest
    such edge, which needs no solve. Raises NoAlternative when no other
    matching exists.
    """
    n_c, n_p = u.num_customers, u.num_providers
    if n_c == 0 or n_p == 0:
        raise NoAlternative("market admits only the empty matching")

    joint = u.joint()
    candidates: list[tuple[float, Matching]] = []

    for edge in best.pairs:
        modified = joint.copy()
        modified[edge] = _FORBIDDEN
        m = Matching._from_arrays(*assignment_pairs(modified))
        candidates.append((m.weight(joint), m))

    matched_c = {i for i, _ in best.pairs}
    matched_p = {j for _, j in best.pairs}
    free_c = [i for i in range(n_c) if i not in matched_c]
    free_p = [j for j in range(n_p) if j not in matched_p]
    if free_c and free_p:
        a, b = divmod(int(np.argmax(joint[np.ix_(free_c, free_p)])), len(free_p))
        m = Matching(best.pairs + ((free_c[a], free_p[b]),))
        candidates.append((m.weight(joint), m))

    if not candidates:
        raise NoAlternative("no matching other than the given one exists")
    weight, match = max(candidates, key=lambda t: t[0])
    return match, float(weight)


@lru_cache(maxsize=64)  # 50 shapes have at most 16 cells
def _matching_table(n_c: int, n_p: int) -> tuple[tuple[Matching, ...], np.ndarray]:
    """Every matching of an n_c x n_p market, the empty one included, and
    their 0/1 incidence matrix over the row-major cells."""
    matchings = tuple(
        Matching._from_arrays(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp))
        for k in range(min(n_c, n_p) + 1)
        for rows in itertools.combinations(range(n_c), k)
        for cols in itertools.permutations(range(n_p), k)
    )
    incidence = np.zeros((len(matchings), n_c * n_p))
    for m, matching in enumerate(matchings):
        ci, pj = matching.index_arrays
        incidence[m, ci * n_p + pj] = 1.0
    incidence.flags.writeable = False
    return matchings, incidence


def heaviest_matchings(joint: np.ndarray, count: int) -> tuple[list[Matching | None], list[float], float] | None:
    """The ``count`` heaviest matchings of ``joint`` and their weights,
    heaviest first, and the float-error band of those weights; None when the
    market has more than ``_TABLE_MAX_CELLS`` cells.

    Every matching of the shape is weighed by one matmul, edges <= 0
    included; a market with fewer matchings pads the lists with None and
    -inf. Weights within the band of each other are ties whose order is
    arbitrary, so callers defer them to the solver. A matching heavier than
    every other by more than the band has no edge <= 0 (dropping that edge
    would not make it lighter), so it is the one :func:`assignment_pairs`
    returns.
    """
    n_c, n_p = joint.shape
    if n_c * n_p > _TABLE_MAX_CELLS:
        return None
    matchings, incidence = _matching_table(n_c, n_p)
    w = incidence.dot(joint.ravel())
    order = w.argsort().tolist()
    weights = w.tolist()
    top = order[: -count - 1 : -1]
    band = _TABLE_RTOL * (1.0 + max(weights[order[-1]], -weights[order[0]]))
    pad = count - len(top)
    return [matchings[m] for m in top] + [None] * pad, [weights[m] for m in top] + [-np.inf] * pad, band


def payoff_inequalities_hold(q_c: np.ndarray, q_p: np.ndarray, joint: np.ndarray, eps: float = 0.0) -> bool:
    """Individual rationality and no blocking pair on net payoffs ``q``
    and joint weights, with slack eps and 2*eps: every q_a >= -eps - TOL,
    and every q_i + q_j - joint(i, j) + 2*eps >= -TOL.

    Transfers need not be zero-sum; this is also the eps-stability notion
    of the search-frictions setting, where fees make them non-zero-sum.
    """
    return bool(_inequalities_hold(np.concatenate((q_c, q_p)), joint, eps))


def _inequalities_hold(q: np.ndarray, joint: np.ndarray, eps: float = 0.0, out: np.ndarray | None = None):
    """:func:`payoff_inequalities_hold` on one vector of customer, then provider, net payoffs against joint weights
    (n_c, n_p); or, as a boolean array, on each row of q (R, n_c + n_p) against (n_c, n_p) or (R, n_c, n_p). The pair
    test, written into ``out`` when given, runs only where individual rationality holds."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    n_c = joint.shape[-2]
    holds = ~(q.min(axis=-1, initial=np.inf) < -eps - TOL)
    if holds.any():
        slack = np.add(q[..., :n_c, None], q[..., None, n_c:], out=out)
        slack -= joint
        if eps:  # adding 0.0 changes no comparison; it would cost a pass over every stacked pair
            slack += 2.0 * eps
        holds &= ~(slack.min(axis=(-2, -1), initial=np.inf) < -TOL)
    return holds


def is_stable_tu(u: UtilityMatrix, outcome: MarketOutcome, eps: float = 0.0) -> bool:
    """Stability with transfers: individual rationality and no blocking pairs.

    ``eps > 0`` gives the search-frictions relaxation: the IR constraints are
    slackened by eps and the blocking constraints by 2*eps. Transfers must be
    zero-sum (InvalidOutcome otherwise).
    """
    outcome.check_zero_sum()
    return bool(_inequalities_hold(outcome._payoff_vector(u), u.joint(), eps))


def ntu_gains(u: UtilityMatrix, matching: Matching) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Matched utilities ``mu`` (zero when unmatched) and each side's gain
    from every pair over them: ``gain_c[i, j] = u_i(j) - mu_i`` and
    ``gain_p[i, j] = u_j(i) - mu_j``, both shaped (customers, providers)."""
    mu_c = np.zeros(u.num_customers)
    mu_p = np.zeros(u.num_providers)
    for i, j in matching.pairs:
        mu_c[i] = u.customer_values[i, j]
        mu_p[j] = u.provider_values[j, i]
    return mu_c, mu_p, u.customer_values - mu_c[:, None], u.provider_values.T - mu_p[None, :]


def is_stable_ntu(u: UtilityMatrix, matching: Matching) -> bool:
    """Stability without transfers: IR plus no pair where both strictly gain."""
    return _ntu_stable(*ntu_gains(u, matching))


def _ntu_stable(mu_c: np.ndarray, mu_p: np.ndarray, gain_c: np.ndarray, gain_p: np.ndarray) -> bool:
    if (mu_c.size and mu_c.min() < -TOL) or (mu_p.size and mu_p.min() < -TOL):
        return False
    return not (gain_c.size and np.minimum(gain_c, gain_p).max() > TOL)
