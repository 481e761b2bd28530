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
from dataclasses import dataclass

import numpy as np

from .errors import InvalidContext, ProtocolViolation
from .market import Matching, UtilityMatrix


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
        # Finite constants, a nonnegative radius and a positive ridge keep
        # every interval finite. Messages start with the field name.
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name}: must be finite")
        for name in ("lin_beta_d_coeff", "lin_beta_log_coeff"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be nonnegative")
        if self.lin_ridge <= 0:
            raise ValueError("lin_ridge: must be positive")


def _clip_intervals(mean: np.ndarray, hw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[mean - hw, mean + hw] intersected with [-1, 1], elementwise, for hw >= 0.

    The outer clamps pin an interval lying wholly outside [-1, 1] to the
    nearest boundary, so lo <= hi always holds."""
    lo = np.minimum(np.maximum(mean - hw, -1.0), 1.0)
    hi = np.maximum(np.minimum(mean + hw, 1.0), -1.0)
    return lo, hi


class ConfidenceSets:
    """Common interval surface; subclasses own the update rule."""

    mode: str  # "unstructured" | "typed" | "linear"

    def __init__(self, num_customers: int, num_providers: int) -> None:
        self.num_customers = num_customers
        self.num_providers = num_providers
        self.num_agents = num_customers + num_providers
        # Interval matrices, customer-side (nI, nJ) and provider-side (nJ, nI).
        self.lo_c = np.full((num_customers, num_providers), -1.0)
        self.hi_c = np.full((num_customers, num_providers), 1.0)
        self.lo_p = np.full((num_providers, num_customers), -1.0)
        self.hi_p = np.full((num_providers, num_customers), 1.0)

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
            ci, pj = matching.index_arrays
            self._apply(ci, pj, r_c, r_p, horizon)

    def _apply(self, ci: np.ndarray, pj: np.ndarray, r_c: np.ndarray, r_p: np.ndarray, horizon: int) -> None:
        """Fold rewards of the disjoint pairs (ci[k], pj[k]) into the intervals."""
        raise NotImplementedError

    # -- projections ----------------------------------------------------------
    def ucb_matrix(self) -> UtilityMatrix:
        return UtilityMatrix._trusted(self.hi_c.copy(), self.hi_p.copy())

    def width_sum(self, matching: Matching) -> float:
        """Total width over both orientations of each matched pair."""
        total = 0.0
        for i, j in matching.pairs:
            total += self.hi_c[i, j] - self.lo_c[i, j]
            total += self.hi_p[j, i] - self.lo_p[j, i]
        return float(total)

    def contains(self, truth: UtilityMatrix, tol: float = 1e-9) -> bool:
        """Whether every interval contains the true utility (diagnostic)."""
        return bool(
            (self.lo_c - tol <= truth.customer_values).all()
            and (truth.customer_values <= self.hi_c + tol).all()
            and (self.lo_p - tol <= truth.provider_values).all()
            and (truth.provider_values <= self.hi_p + tol).all()
        )

    # -- test/diagnostic helpers ----------------------------------------------
    def collapse_to(self, truth: UtilityMatrix) -> None:
        """Degenerate all intervals to the true utilities (oracle sets)."""
        self.lo_c = truth.customer_values.copy()
        self.hi_c = truth.customer_values.copy()
        self.lo_p = truth.provider_values.copy()
        self.hi_p = truth.provider_values.copy()


class UnstructuredConfidence(ConfidenceSets):
    mode = "unstructured"

    def __init__(self, num_customers: int, num_providers: int, config: ConfidenceConfig | None = None) -> None:
        super().__init__(num_customers, num_providers)
        self.config = config or ConfidenceConfig()
        self.counts = np.zeros((num_customers, num_providers), dtype=int)
        self.mean_c = np.zeros((num_customers, num_providers))
        self.mean_p = np.zeros((num_providers, num_customers))

    def _apply(self, ci: np.ndarray, pj: np.ndarray, r_c: np.ndarray, r_p: np.ndarray, horizon: int) -> None:
        # Pairs are disjoint, so no index repeats within one fancy-index update.
        log_term = math.log(max(self.num_agents * horizon, 2))
        n = self.counts[ci, pj] + 1
        self.counts[ci, pj] = n
        mean_c = self.mean_c[ci, pj]
        mean_c += (r_c - mean_c) / n
        self.mean_c[ci, pj] = mean_c
        mean_p = self.mean_p[pj, ci]
        mean_p += (r_p - mean_p) / n
        self.mean_p[pj, ci] = mean_p
        hw = self.config.ucb_scale * np.sqrt(log_term / n)
        self.lo_c[ci, pj], self.hi_c[ci, pj] = _clip_intervals(mean_c, hw)
        self.lo_p[pj, ci], self.hi_p[pj, ci] = _clip_intervals(mean_p, hw)


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
        # Flat type-cell index of every ordered pair, customer-side (nI, nJ)
        # and provider-side (nJ, nI).
        self._cell_c = self.customer_types[:, None] * num_types + self.provider_types[None, :]
        self._cell_p = self.provider_types[:, None] * num_types + self.customer_types[None, :]

    def _apply(self, ci: np.ndarray, pj: np.ndarray, r_c: np.ndarray, r_p: np.ndarray, horizon: int) -> None:
        log_term = math.log(max(self.num_agents * horizon, 2))
        # Cells repeat within a round (shared type pairs, or tc == tp), so the
        # running means fold observations one at a time, in the order
        # customer 0, provider 0, customer 1, provider 1, ...
        cells = np.empty(2 * len(ci), dtype=np.intp)
        cells[0::2] = self._cell_c[ci, pj]
        cells[1::2] = self._cell_p[pj, ci]
        rewards = np.empty(cells.size)
        rewards[0::2] = r_c
        rewards[1::2] = r_p
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
        self._refresh_pairs()

    def _refresh_pairs(self) -> None:
        lo = self.type_lo.reshape(-1)
        hi = self.type_hi.reshape(-1)
        self.lo_c = lo[self._cell_c]
        self.hi_c = hi[self._cell_c]
        self.lo_p = lo[self._cell_p]
        self.hi_p = hi[self._cell_p]


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

    def _apply(self, ci: np.ndarray, pj: np.ndarray, r_c: np.ndarray, r_p: np.ndarray, horizon: int) -> None:
        # Each agent is matched at most once per round, so both sides stack
        # into 2k distinct slots, customers first, for one update, solve and
        # inverse (LAPACK treats each matrix as a one-agent call would); only
        # centre and bonus, whose partners differ, stay per side. The matmuls
        # match ``partners @ phi`` and ``np.linalg.norm(phi)`` to the last bit.
        cc, pc = self.customer_contexts, self.provider_contexts
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
