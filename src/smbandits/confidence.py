"""Per-pair confidence intervals for the three preference classes.

All variants expose the same surface: intervals clipped to [-1, 1] for every
ordered cross pair, an upper-confidence utility matrix, and width accounting
over matchings. The unstructured and typed variants keep running means with
half-width ``scale * sqrt(log(|A| T) / n)``; the linear variant maintains a
ridge-regression ellipsoid per agent and projects it onto each partner's
context.

Feedback for one round is a pair of float arrays ``(r_c, r_p)``, both aligned
with ``matching.pairs``: ``r_c[k]`` is the reward customer ``i_k`` observed
from provider ``j_k`` and ``r_p[k]`` the reward provider ``j_k`` observed from
customer ``i_k``. Each class folds a round in with one batched array update.

A ConfidenceSets instance is mutable state owned by a single simulation
replica; updates are sequential within that replica, and independent replicas
hold independent instances.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidContext, ProtocolViolation
from .market import TOL, Matching, UtilityMatrix


# An agent's V is ridge * I plus at most one outer product of unit-ball contexts per round: over 2e7 rounds this
# ridge keeps its condition number below 2e13, far from singular (a ridge of 1e-308 gives a zero pivot at once).
_RIDGE_MIN = 1e-6


@dataclass(frozen=True)
class ConfidenceConfig:
    """Width constants. ``ucb_scale`` multiplies the sqrt(log(|A|T)/n)
    half-width of the unstructured/typed intervals (default 8); the
    linear-mode ellipsoid radius is
    ``beta = lin_beta_d_coeff * d * log(1 + T) + lin_beta_log_coeff * log(|A| T)``
    with ridge ``lin_ridge``. All four are tunable defaults, not sharp
    theoretical prescriptions."""

    ucb_scale: float = 8.0
    lin_beta_d_coeff: float = 4.0
    lin_beta_log_coeff: float = 8.0
    lin_ridge: float = 1.0

    def __post_init__(self) -> None:
        # Finite constants, nonnegative widths and a ridge of at least _RIDGE_MIN
        # keep every interval finite with lo <= hi. Messages start with the field name.
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name}: must be finite")
        for name in ("ucb_scale", "lin_beta_d_coeff", "lin_beta_log_coeff"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be nonnegative")
        if self.lin_ridge < _RIDGE_MIN:
            raise ValueError(f"lin_ridge: must be at least {_RIDGE_MIN:g}")


def _width(lo: list[float], hi: list[float]) -> float:
    """The total of ``hi - lo`` over aligned intervals, added left to right."""
    total = 0.0
    for a, b in zip(lo, hi):
        total += b - a
    return total


def _clip_intervals(mean: np.ndarray, hw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[mean - hw, mean + hw] intersected with [-1, 1], elementwise, for hw >= 0.

    The outer clamps pin an interval lying wholly outside [-1, 1] to the
    nearest boundary, so lo <= hi always holds."""
    lo = np.minimum(np.maximum(mean - hw, -1.0), 1.0)
    hi = np.maximum(np.minimum(mean + hw, 1.0), -1.0)
    return lo, hi


@lru_cache(maxsize=64)
def _pair_positions(n_c: int, n_p: int) -> np.ndarray:
    """The read-only table, one per market shape, of both buffer positions of each pair: i * n_p + j, then
    n_c * n_p + j * n_c + i, at [i, j]."""
    cells = np.arange(2 * n_c * n_p)
    table = np.stack((cells[: n_c * n_p].reshape(n_c, n_p), cells[n_c * n_p :].reshape(n_p, n_c).T), 2)
    table.flags.writeable = False
    return table


class ConfidenceSets:
    """Common interval surface; subclasses own the update rule.

    Intervals live in two flat buffers, ``lo`` and ``hi``: the customer-side
    (nI, nJ) block, then the provider-side (nJ, nI) block, viewed as ``lo_c``,
    ``hi_c``, ``lo_p`` and ``hi_p``. Every writer writes in place, so the views
    never go stale. ``written`` holds the positions the last ``update``
    rewrote, None when that may be every cell; its owner may empty it.
    """

    mode: str  # "unstructured" | "typed" | "linear"

    def __init__(self, num_customers: int, num_providers: int) -> None:
        self.num_customers = num_customers
        self.num_providers = num_providers
        self.num_agents = num_customers + num_providers
        self.lo = np.full(2 * num_customers * num_providers, -1.0)
        self.hi = np.full(self.lo.size, 1.0)
        self.lo_c, self.lo_p = self._blocks(self.lo)
        self.hi_c, self.hi_p = self._blocks(self.hi)
        self.written: np.ndarray | None = None
        self._placed: tuple[Matching | None, np.ndarray | None] = (None, None)

    def _blocks(self, buffer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The customer-side and provider-side matrices viewing ``buffer``."""
        n_c, n_p = self.num_customers, self.num_providers
        return buffer[: n_c * n_p].reshape(n_c, n_p), buffer[n_c * n_p :].reshape(n_p, n_c)

    def _positions(self, matching: Matching) -> np.ndarray:
        """Buffer positions of the matched cells, customer 0, provider 0, customer 1, ...,
        gathered at the matching's index arrays. The last matching's are kept."""
        if self._placed[0] is not matching:
            table = _pair_positions(self.num_customers, self.num_providers)
            self._placed = matching, table[matching.index_arrays].reshape(-1)
        return self._placed[1]

    # -- updates ------------------------------------------------------------
    def update(self, matching: Matching, rewards: tuple[np.ndarray, np.ndarray], horizon: int) -> None:
        """Fold one round of semi-bandit feedback ``(r_c, r_p)`` into the intervals."""
        try:
            r_c, r_p = rewards
        except (TypeError, ValueError) as exc:
            raise ProtocolViolation(f"feedback is not a pair of reward arrays: {exc}") from exc
        expected = (len(matching.pairs),)
        if np.shape(r_c) != expected or np.shape(r_p) != expected:
            raise ProtocolViolation(
                f"feedback shapes {np.shape(r_c)} / {np.shape(r_p)} do not match "
                f"the {expected[0]} matched pairs"
            )
        r_c = np.asarray(r_c, dtype=float)
        r_p = np.asarray(r_p, dtype=float)
        # Checked here, where they enter: the round's matrices are not checked.
        if not all(map(math.isfinite, r_c.tolist() + r_p.tolist())):
            raise ProtocolViolation("feedback holds a non-finite reward")
        if expected[0]:
            self.written = self._apply(matching, r_c, r_p, horizon)

    def _apply(self, matching: Matching, r_c: np.ndarray, r_p: np.ndarray, horizon: int) -> np.ndarray | None:
        """Fold the round into the intervals; return the positions rewritten, None if maybe every cell."""
        raise NotImplementedError

    # -- projections ----------------------------------------------------------
    def ucb_matrix(self) -> UtilityMatrix:
        return UtilityMatrix._trusted(*self._blocks(self.hi.copy()))

    def width_sum(self, matching: Matching) -> float:
        """Total width over both orientations of each matched pair, added left
        to right: customer 0, provider 0, customer 1, ..."""
        pos = self._positions(matching)
        return _width(self.lo[pos].tolist(), self.hi[pos].tolist())

    def contains(self, truth: UtilityMatrix) -> bool:
        """Whether every interval contains the true utility within ``TOL`` (diagnostic)."""
        values = np.concatenate((truth.customer_values, truth.provider_values), axis=None)
        return bool(((self.lo - TOL <= values) & (values <= self.hi + TOL)).all())

    # -- test/diagnostic helpers ----------------------------------------------
    def collapse_to(self, truth: UtilityMatrix) -> None:
        """Degenerate all intervals to the true utilities (oracle sets)."""
        self.lo[:] = self.hi[:] = np.concatenate((truth.customer_values, truth.provider_values), axis=None)
        self.written = None


class UnstructuredConfidence(ConfidenceSets):
    mode = "unstructured"

    def __init__(self, num_customers: int, num_providers: int, config: ConfidenceConfig | None = None) -> None:
        super().__init__(num_customers, num_providers)
        self.config = config or ConfidenceConfig()
        # Python lists laid out like ``lo`` and ``hi``; both orientations of a pair share a count.
        self.counts = [0] * self.lo.size
        self.mean = [0.0] * self.lo.size

    def _apply(self, matching: Matching, r_c: np.ndarray, r_p: np.ndarray, horizon: int) -> np.ndarray:
        pos = self._positions(matching)
        rewards = [0.0] * pos.size
        rewards[::2], rewards[1::2] = r_c.tolist(), r_p.tolist()
        self.lo[pos], self.hi[pos] = next(self._fold(pos.tolist(), rewards, horizon))
        return pos

    def _fold(self, pos: list[int], rewards: list[float], horizon: int) -> Iterator[tuple[list[float], list[float]]]:
        """Fold rounds of feedback into the counts and means at the buffer positions ``pos``, no two alike, and yield
        each round's new ``lo`` and ``hi`` at ``pos`` once it is folded. ``rewards`` holds len(pos) rewards per round,
        each round in the order of ``pos``; the caller takes as many rounds as it gave and writes the buffers."""
        # One scalar pass in the order customer 0, provider 0, customer 1, ...: at a few pairs a round numpy's fixed
        # cost per call outweighs its arithmetic.
        log_term = math.log(max(self.num_agents * horizon, 2))
        scale, sqrt, counts, means = self.config.ucb_scale, math.sqrt, self.counts, self.mean
        rewards = iter(rewards)
        while True:
            lo, hi = [], []
            for q, r in zip(pos, rewards):
                counts[q] = n = counts[q] + 1
                m = means[q]
                means[q] = m = m + (r - m) / n
                hw = scale * sqrt(log_term / n)
                # min(max(m - hw, -1), 1) and max(min(m + hw, 1), -1), without the calls.
                a, b = m - hw, m + hw
                lo.append(-1.0 if a < -1.0 else 1.0 if a > 1.0 else a)
                hi.append(1.0 if b > 1.0 else -1.0 if b < -1.0 else b)
            yield lo, hi


class TypedConfidence(ConfidenceSets):
    """Intervals at type-pair granularity, pooled across both market roles.

    An observation by an agent of type x matched to type y updates the (x, y)
    cell; the reverse-orientation cell is updated by the partner's feedback.
    """

    mode = "typed"

    def __init__(
        self,
        customer_types: np.ndarray,
        provider_types: np.ndarray,
        num_types: int,
        config: ConfidenceConfig | None = None,
    ) -> None:
        super().__init__(len(customer_types), len(provider_types))
        self.config = config or ConfidenceConfig()
        self.customer_types = np.asarray(customer_types, dtype=int)
        self.provider_types = np.asarray(provider_types, dtype=int)
        self.num_types = num_types
        self.type_counts = np.zeros((num_types, num_types), dtype=int)
        self.type_mean = np.zeros((num_types, num_types))
        self.type_lo = np.full((num_types, num_types), -1.0)
        self.type_hi = np.full((num_types, num_types), 1.0)
        # Flat type-cell index of every buffer cell.
        tc, tp = self.customer_types, self.provider_types
        self._cells = np.concatenate((tc[:, None] * num_types + tp, tp[:, None] * num_types + tc), axis=None)

    def _apply(self, matching: Matching, r_c: np.ndarray, r_p: np.ndarray, horizon: int) -> None:
        log_term = math.log(max(self.num_agents * horizon, 2))
        # Cells repeat within a round (shared type pairs, or tc == tp), so the
        # running means fold observations one at a time, in the order
        # customer 0, provider 0, customer 1, provider 1, ...
        cells = self._cells[self._positions(matching)]
        rewards = np.array((r_c, r_p)).T.reshape(-1)
        touched = np.unique(cells)
        counts = self.type_counts.reshape(-1)
        mean = self.type_mean.reshape(-1)
        n = counts[touched].tolist()
        m = mean[touched].tolist()
        for k, r in zip(np.searchsorted(touched, cells).tolist(), rewards.tolist()):
            n[k] += 1
            m[k] += (r - m[k]) / n[k]
        counts[touched] = n
        mean[touched] = m
        # An interval depends only on its cell's final count and mean.
        hw = self.config.ucb_scale * np.sqrt(log_term / counts[touched])
        lo, hi = _clip_intervals(mean[touched], hw)
        self.type_lo.reshape(-1)[touched] = lo
        self.type_hi.reshape(-1)[touched] = hi
        self.type_lo.take(self._cells, out=self.lo)
        self.type_hi.take(self._cells, out=self.hi)


class LinearConfidence(ConfidenceSets):
    """Ellipsoid-induced intervals for separable linear preferences.

    Each agent owns a hidden vector in the unit ball; utility for a partner is
    the inner product with the partner's known context. A ridge least-squares
    estimate (projected to the ball) plus the ellipsoid radius beta give the
    interval for each partner.
    """

    mode = "linear"

    def __init__(
        self,
        customer_contexts: np.ndarray,
        provider_contexts: np.ndarray,
        config: ConfidenceConfig | None = None,
    ) -> None:
        cc = np.asarray(customer_contexts, dtype=float)
        pc = np.asarray(provider_contexts, dtype=float)
        if cc.ndim != 2 or pc.ndim != 2 or cc.shape[1] != pc.shape[1]:
            raise InvalidContext("contexts must be 2-d with a common dimension")
        if not (np.isfinite(cc).all() and np.isfinite(pc).all()):
            raise InvalidContext("contexts must be finite")
        norms = [np.linalg.norm(cc, axis=1), np.linalg.norm(pc, axis=1)]
        if any(n.size and n.max() > 1.0 + 1e-12 for n in norms):
            raise InvalidContext("context norm exceeds 1")
        super().__init__(cc.shape[0], pc.shape[0])
        self.config = config or ConfidenceConfig()
        self.dim = cc.shape[1]
        self.customer_contexts = cc
        self.provider_contexts = pc
        lam = self.config.lin_ridge
        n_agents = self.num_agents
        self.V = np.tile(np.eye(self.dim) * lam, (n_agents, 1, 1))
        self.b = np.zeros((n_agents, self.dim))

    def beta(self, horizon: int) -> float:
        return (
            self.config.lin_beta_d_coeff * self.dim * math.log(1.0 + horizon)
            + self.config.lin_beta_log_coeff * math.log(max(self.num_agents * horizon, 2))
        )

    def _apply(self, matching: Matching, r_c: np.ndarray, r_p: np.ndarray, horizon: int) -> None:
        # Each agent is matched at most once per round, so both sides stack
        # into 2k distinct slots, customers first, for one update, solve and
        # inverse (LAPACK treats each matrix as a one-agent call would); only
        # centre and bonus, whose partners differ, stay per side. The matmuls
        # match ``partners @ phi`` and ``np.linalg.norm(phi)`` to the last bit.
        cc, pc = self.customer_contexts, self.provider_contexts
        ci, pj = matching.index_arrays
        slots = np.concatenate((ci, self.num_customers + pj))
        ctx = np.concatenate((pc[pj], cc[ci]))
        self.V[slots] = V = self.V[slots] + ctx[:, :, None] * ctx[:, None, :]
        self.b[slots] = b = self.b[slots] + np.concatenate((r_c, r_p))[:, None] * ctx
        phi = np.linalg.solve(V, b[:, :, None])[:, :, 0]
        norm = np.sqrt((phi[:, None, :] @ phi[:, :, None])[:, 0, :])
        np.divide(phi, norm, out=phi, where=norm > 1.0)
        V_inv = np.linalg.inv(V)
        root_beta = np.sqrt(self.beta(horizon))
        for side, rows, partners, lo, hi in (
            (slice(None, len(ci)), ci, pc, self.lo_c, self.hi_c),
            (slice(len(ci), None), pj, cc, self.lo_p, self.hi_p),
        ):
            center = (partners[None] @ phi[side, :, None])[:, :, 0]
            bonus = root_beta * np.sqrt(np.einsum("nd,kde,ne->kn", partners, V_inv[side], partners))
            lo[rows] = np.maximum(-1.0, center - bonus)
            hi[rows] = np.minimum(1.0, center + bonus)
