"""Instance generation, the round loop, and regret accounting.

An instance is a ground-truth utility matrix plus the processes that drive a
simulation: arrivals, feedback noise, and (for typed/linear preferences) the
structure the learner is told about. ``run`` executes one policy against one
instance; ``sweep`` fans replicas out over seeds and cells.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import policies as pol
from .confidence import ConfidenceConfig, ConfidenceSets, LinearConfidence, TypedConfidence, UnstructuredConfidence
from .errors import ConfigError, TooLarge
# subset_instability_value is not called here; perfbench/tracer.py patches this name.
from .instability import ntu_subset_instability, subset_instability_and_stability, subset_instability_value
from .market import (
    Matching,
    MarketOutcome,
    UtilityMatrix,
    _inequalities_hold,
    is_stable_ntu,
    is_stable_tu,  # not called here; perfbench/tracer.py patches this name
    lists_all_in_order,
)

_TOTAL_ROUNDS_GUARD = 20_000_000

_STREAM_ARRIVALS = 1
_STREAM_NOISE = 2
_MASK64 = (1 << 64) - 1


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based RNG split: one Philox key per (seed, stream) pair."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# --------------------------------------------------------------------------
# Instance descriptions


@dataclass(frozen=True)
class UnstructuredClass:
    kind: str = "unstructured"


@dataclass(frozen=True)
class TypedClass:
    num_types: int
    customer_types: np.ndarray
    provider_types: np.ndarray
    type_values: np.ndarray  # (num_types, num_types), f(own type, partner type)
    kind: str = "typed"


@dataclass(frozen=True)
class LinearClass:
    dim: int
    customer_hidden: np.ndarray
    provider_hidden: np.ndarray
    customer_contexts: np.ndarray
    provider_contexts: np.ndarray
    kind: str = "linear"


@dataclass(frozen=True)
class ArrivalSpec:
    kind: str = "all"  # all | iid_subset | fixed
    probability: float = 1.0
    schedule: tuple = ()  # fixed mode: tuple of (customer tuple, provider tuple)

    def __post_init__(self) -> None:
        # Each side of a schedule entry is a set of agents; the round takes
        # sorted index arrays, so the sets are sorted once, here.
        sorted_schedule = tuple((tuple(sorted(c)), tuple(sorted(p))) for c, p in self.schedule)
        object.__setattr__(self, "schedule", sorted_schedule)


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "gaussian"  # gaussian | bernoulli
    sigma: float = 1.0


@dataclass(frozen=True)
class MarketInstance:
    truth: UtilityMatrix
    klass: object
    arrival: ArrivalSpec
    noise: NoiseSpec
    seed: int

    @property
    def num_customers(self) -> int:
        return self.truth.num_customers

    @property
    def num_providers(self) -> int:
        return self.truth.num_providers

    def snapshot(self) -> dict:
        """JSON-serializable description: agents, class parameters, truth."""
        out = {
            "schema_version": 1,
            "customers": self.num_customers,
            "providers": self.num_providers,
            "customer_values": self.truth.customer_values.tolist(),
            "provider_values": self.truth.provider_values.tolist(),
            "class": getattr(self.klass, "kind", "unstructured"),
            "seed": self.seed,
        }
        if isinstance(self.klass, TypedClass):
            out["customer_types"] = self.klass.customer_types.tolist()
            out["provider_types"] = self.klass.provider_types.tolist()
            out["num_types"] = self.klass.num_types
        if isinstance(self.klass, LinearClass):
            out["dim"] = self.klass.dim
            out["customer_contexts"] = self.klass.customer_contexts.tolist()
            out["provider_contexts"] = self.klass.provider_contexts.tolist()
        return out


def _unit_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Uniform directions scaled by Uniform[0,1]; all inside the unit ball."""
    raw = rng.normal(size=(count, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return raw / norms * rng.uniform(0.0, 1.0, size=(count, 1))


def gen_instance(
    klass: str,
    num_customers: int,
    num_providers: int,
    seed: int,
    *,
    num_types: int = 3,
    dim: int = 3,
    arrival: ArrivalSpec | None = None,
    noise: NoiseSpec | None = None,
) -> MarketInstance:
    """Deterministic instance of the requested preference class."""
    if num_customers <= 0 or num_providers <= 0:
        raise ConfigError("market sizes must be positive")
    rng = stream_rng(seed, 0)
    arrival = arrival or ArrivalSpec()
    noise = noise or NoiseSpec()

    if klass == "unstructured":
        cv = rng.uniform(-1.0, 1.0, (num_customers, num_providers))
        pv = rng.uniform(-1.0, 1.0, (num_providers, num_customers))
        return MarketInstance(UtilityMatrix(cv, pv), UnstructuredClass(), arrival, noise, seed)

    if klass == "typed":
        if num_types <= 0:
            raise ConfigError("num_types must be positive")
        f = rng.uniform(-1.0, 1.0, (num_types, num_types))
        tc = rng.integers(0, num_types, num_customers)
        tp = rng.integers(0, num_types, num_providers)
        cv = f[np.ix_(tc, tp)]
        pv = f[np.ix_(tp, tc)]
        spec = TypedClass(num_types, tc, tp, f)
        return MarketInstance(UtilityMatrix(cv, pv), spec, arrival, noise, seed)

    if klass == "linear":
        if dim < 1:
            raise ConfigError("linear class needs dim >= 1")
        phi_c = _unit_vectors(rng, num_customers, dim)
        phi_p = _unit_vectors(rng, num_providers, dim)
        ctx_c = _unit_vectors(rng, num_customers, dim)
        ctx_p = _unit_vectors(rng, num_providers, dim)
        cv = phi_c @ ctx_p.T
        pv = phi_p @ ctx_c.T
        spec = LinearClass(dim, phi_c, phi_p, ctx_c, ctx_p)
        return MarketInstance(UtilityMatrix(cv, pv), spec, arrival, noise, seed)

    raise ConfigError(f"unknown preference class {klass!r}")


def gen_hard_instance(K: int, horizon: int, seed: int, rho: float | None = None) -> MarketInstance:
    """The imbalanced worst-case family for unstructured preferences.

    K customers face 10*K*ceil(log(K*horizon)) providers grouped into blocks of
    ceil(log K); each customer values one uniformly chosen block at 1/2 + rho
    and everything else at 1/2, providers value everyone at zero, and feedback
    is Bernoulli.
    """
    if K < 2:
        raise ConfigError("hard family needs K >= 2")
    if rho is None:
        rho = math.sqrt(K / float(horizon))
    if not 0.0 < rho <= 0.5:
        raise ConfigError("rho must lie in (0, 0.5]")
    rng = stream_rng(seed, 0)
    block = max(1, math.ceil(math.log(K)))
    num_providers = 10 * K * math.ceil(math.log(K * horizon))
    cv = np.full((K, num_providers), 0.5)
    alpha = rng.integers(0, K, K)
    for i in range(K):
        start = int(alpha[i]) * block
        cv[i, start : start + block] = 0.5 + rho
    pv = np.zeros((num_providers, K))
    return MarketInstance(
        UtilityMatrix(cv, pv),
        UnstructuredClass(),
        ArrivalSpec(),
        NoiseSpec(kind="bernoulli"),
        seed,
    )


# --------------------------------------------------------------------------
# Policy construction


# Each policy kind: the policy class that plays it and the confidence sets it
# reads. Typed and linear sets need an instance of the class of that name.
POLICY_KINDS: dict[str, tuple[type[pol.Policy], type[ConfidenceSets]]] = {
    "match_ucb": (pol.MatchUcbPolicy, UnstructuredConfidence),
    "match_typed_ucb": (pol.MatchUcbPolicy, TypedConfidence),
    "match_lin_ucb": (pol.MatchUcbPolicy, LinearConfidence),
    "match_ucb_prime": (pol.MatchUcbPrimePolicy, UnstructuredConfidence),
    "match_ntu_ucb": (pol.MatchNtuUcbPolicy, UnstructuredConfidence),
    "etc": (pol.EtcPolicy, UnstructuredConfidence),
    "revenue_frictions": (pol.RevenueFrictionsPolicy, UnstructuredConfidence),
}


@dataclass(frozen=True)
class PolicySpec:
    """Declarative policy description; `build` instantiates fresh state."""

    kind: str  # a key of POLICY_KINDS
    confidence: ConfidenceConfig = field(default_factory=ConfidenceConfig)
    epsilon: float = 0.3
    etc_pulls_per_pair: int | None = None

    def build(self, instance: MarketInstance, horizon: int) -> pol.Policy:
        if self.kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind {self.kind!r}")
        policy_cls, sets = POLICY_KINDS[self.kind]
        conf = _confidence_for(sets, self.confidence, instance)
        if policy_cls is pol.EtcPolicy:
            return pol.EtcPolicy(conf, horizon, self.etc_pulls_per_pair)
        if policy_cls is pol.RevenueFrictionsPolicy:
            return pol.RevenueFrictionsPolicy(conf, horizon, self.epsilon)
        return policy_cls(conf, horizon)


def _confidence_for(
    sets: type[ConfidenceSets], config: ConfidenceConfig, instance: MarketInstance
) -> ConfidenceSets:
    """Fresh sets of the given class: every interval [-1, 1], every counter zero."""
    klass = instance.klass
    if sets is TypedConfidence:
        if not isinstance(klass, TypedClass):
            raise ConfigError("typed policy requires a typed instance")
        return TypedConfidence(klass.customer_types, klass.provider_types, klass.num_types, config)
    if sets is LinearConfidence:
        if not isinstance(klass, LinearClass):
            raise ConfigError("linear policy requires a linear instance")
        return LinearConfidence(klass.customer_contexts, klass.provider_contexts, config)
    return UnstructuredConfidence(instance.num_customers, instance.num_providers, config)


# --------------------------------------------------------------------------
# The round loop


@dataclass
class RegretTrace:
    """Per-round diagnostics of one replica. Column-major numpy storage."""

    seed: int
    policy_kind: str
    horizon: int
    instability: np.ndarray
    width_sum: np.ndarray
    certified_bound: np.ndarray
    revenue: np.ndarray
    containment: np.ndarray  # bool: all intervals contained truth this round
    stable_truth: np.ndarray  # bool: outcome stable for the true utilities
    bound_only: np.ndarray  # bool: instability column holds a bound, not the exact value
    outcomes: list[MarketOutcome] | None = None  # populated when record_outcomes=True
    reused_rounds: int = 0  # rounds that replayed the previous round's outcome and score
    info: dict[str, np.ndarray] | None = None  # one column per RoundDecision.info key, when the policy records one

    @property
    def cum_regret(self) -> np.ndarray:
        return np.cumsum(self.instability)

    @property
    def cum_revenue(self) -> np.ndarray:
        return np.cumsum(self.revenue)


def run(
    instance: MarketInstance,
    spec: PolicySpec,
    horizon: int,
    record_outcomes: bool = False,
) -> RegretTrace:
    """Execute one replica: deterministic in (instance.seed, spec, horizon).

    Every TU round is scored, and judged for exact stability, from one gain
    matrix of its zero-sum outcome. The NTU policy is scored by the NTU
    metric and judged by NTU stability; a round too large for the exact NTU
    solver records the certified width bound instead (``bound_only``). The
    revenue policy's ``stable_truth`` is then replaced by the eps-stability
    of its published outcome at its own fee eps, checked every round.
    ``record_outcomes`` keeps each round's scored outcome on the trace.

    A round whose decision scores the very outcome object of the round
    before, on bytewise the same arrivals, reuses that round's judgement.

    Inside ``run`` the sets change only through ``update``, once per round,
    which names the buffer positions it rewrote (``conf.written``): the
    containment column rechecks only those, or takes a full ``contains``.
    """
    policy = spec.build(instance, horizon)
    arrivals_rng = stream_rng(instance.seed, _STREAM_ARRIVALS)
    noise_rng = stream_rng(instance.seed, _STREAM_NOISE)
    truth = instance.truth
    n_c, n_p = instance.num_customers, instance.num_providers
    ntu = isinstance(policy, pol.MatchNtuUcbPolicy)
    fee = policy.epsilon if isinstance(policy, pol.RevenueFrictionsPolicy) else 0.0
    trace = RegretTrace(
        instance.seed,
        spec.kind,
        horizon,
        *(np.zeros(horizon) for _ in range(4)),
        *(np.zeros(horizon, dtype=bool) for _ in range(3)),
        outcomes=[] if record_outcomes else None,
    )
    infos: list[dict] = []
    last: tuple | None = None  # scored outcome, arrival bytes and _judge result of the last judged round
    values = np.concatenate((truth.customer_values, truth.provider_values), axis=None)  # laid out like conf.lo
    outside = None  # per buffer cell, whether its interval misses the truth; None when not known

    def feedback(matching: Matching) -> tuple[np.ndarray, np.ndarray]:
        return _observe(values, policy.conf._positions(matching), instance.noise, noise_rng)

    for t in range(horizon):
        cust, prov = _draw_arrivals(instance.arrival, n_c, n_p, t, arrivals_rng)
        written, policy.conf.written = policy.conf.written, ()
        if written is None:
            trace.containment[t] = policy.conf.contains(truth)
            outside = None
        else:
            if outside is None:
                outside = policy.conf.outside(values)
                missed = np.count_nonzero(outside)
            elif len(written):
                now = policy.conf.outside(values, written)
                missed += np.count_nonzero(now) - np.count_nonzero(outside[written])
                outside[written] = now
            trace.containment[t] = missed == 0
        decision = policy.step((cust, prov), feedback)
        arrived = (cust.tobytes(), prov.tobytes())
        if last is not None and last[0] is decision.scored_outcome and last[1] == arrived:
            trace.reused_rounds += 1
        else:
            last = (decision.scored_outcome, arrived, _judge(truth, decision.scored_outcome, cust, prov, ntu))
        inst, stable, bound = last[2]
        if fee > 0:
            # The published transfers charge the fee and refund this round's widths.
            truth_sub = truth.restrict(cust, prov)
            payoffs = _restrict_outcome(decision.outcome, cust, prov)._payoff_vector(truth_sub)
            stable = _inequalities_hold(payoffs, truth_sub.joint(), fee)
        trace.instability[t] = decision.certified_instability_bound if bound else inst
        trace.width_sum[t] = decision.width_sum
        trace.certified_bound[t] = decision.certified_instability_bound
        trace.revenue[t] = decision.revenue
        trace.stable_truth[t] = stable
        trace.bound_only[t] = bound
        if record_outcomes:
            trace.outcomes.append(decision.scored_outcome)
        if decision.info is not None:
            infos.append(decision.info)

    trace.info = {key: np.array([info[key] for info in infos]) for key in infos[0]} if infos else None
    return trace


def _judge(
    truth: UtilityMatrix, scored_outcome: MarketOutcome, cust: np.ndarray, prov: np.ndarray, ntu: bool
) -> tuple[float, bool, bool]:
    """``(instability, stable_truth, bound_only)`` of one round's scored
    outcome on its arrivals; the instability of a ``bound_only`` round is
    nan, for the caller to fill with the round's certified bound."""
    truth_sub = truth.restrict(cust, prov)
    sub_outcome = _restrict_outcome(scored_outcome, cust, prov)
    if ntu:
        try:
            report = ntu_subset_instability(truth_sub, sub_outcome.matching)
        except TooLarge:
            return math.nan, is_stable_ntu(truth_sub, sub_outcome.matching), True
        return report.value, report.stable, False
    # One gain matrix gives the value and the is_stable_tu flag.
    inst, stable = subset_instability_and_stability(truth_sub, sub_outcome)
    return inst, stable, False


def _draw_arrivals(
    spec: ArrivalSpec, n_c: int, n_p: int, t: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    if spec.kind == "all":
        return np.arange(n_c), np.arange(n_p)
    if spec.kind == "iid_subset":
        cust = np.flatnonzero(rng.random(n_c) < spec.probability)
        prov = np.flatnonzero(rng.random(n_p) < spec.probability)
        return cust, prov
    if spec.kind == "fixed":
        cust_t, prov_t = spec.schedule[t % len(spec.schedule)]
        return np.asarray(cust_t, dtype=int), np.asarray(prov_t, dtype=int)
    raise ConfigError(f"unknown arrival kind {spec.kind!r}")


def _observe(
    values: np.ndarray, pos: np.ndarray, noise: NoiseSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Noisy rewards (customer side, provider side), aligned with a matching's pairs, of the true
    utilities ``values``, laid out like ``conf.lo``, at the pairs' buffer positions ``pos``:
    customer 0, provider 0, customer 1, ..., which is also the order of the draws."""
    if not len(pos):
        return np.empty(0), np.empty(0)
    means = values[pos]
    if noise.kind == "gaussian":
        draws = means + noise.sigma * rng.standard_normal(means.size)
    elif noise.kind == "bernoulli":
        if means.min() < 0.0 or means.max() > 1.0:
            raise ConfigError("bernoulli feedback needs utilities in [0, 1]")
        draws = (rng.random(means.size) < means).astype(float)
    else:
        raise ConfigError(f"unknown noise kind {noise.kind!r}")
    return draws[0::2], draws[1::2]


def _restrict_outcome(outcome: MarketOutcome, cust: np.ndarray, prov: np.ndarray) -> MarketOutcome:
    """Reindex an outcome onto the arrival submarket, which holds its matched agents."""
    n_c, n_p = len(outcome.customer_transfers), len(outcome.provider_transfers)
    if lists_all_in_order(cust, n_c) and lists_all_in_order(prov, n_p):
        return outcome
    c_pos, p_pos = np.empty(n_c, dtype=np.intp), np.empty(n_p, dtype=np.intp)
    c_pos[cust], p_pos[prov] = np.arange(len(cust)), np.arange(len(prov))
    ci, pj = outcome.matching.index_arrays
    sub = Matching._from_arrays(c_pos[ci], p_pos[pj])
    return MarketOutcome(sub, outcome.customer_transfers[cust], outcome.provider_transfers[prov])


# --------------------------------------------------------------------------
# Sweeps


@dataclass(frozen=True)
class SweepCell:
    """One experiment cell: an instance recipe plus a policy and horizon.

    ``truth`` pins the utility matrix (fixed-instance mode); the per-seed
    randomness then drives only arrivals and noise.
    """

    name: str
    klass: str
    num_customers: int
    num_providers: int
    horizon: int
    policy: PolicySpec
    seeds: tuple[int, ...]
    num_types: int = 3
    dim: int = 3
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    truth: UtilityMatrix | None = None


def _run_cell_seed(args: tuple[SweepCell, int]) -> tuple[str, int, RegretTrace]:
    cell, seed = args
    if cell.truth is not None:
        instance = MarketInstance(cell.truth, UnstructuredClass(), cell.arrival, cell.noise, seed)
    else:
        instance = gen_instance(
            cell.klass,
            cell.num_customers,
            cell.num_providers,
            seed,
            num_types=cell.num_types,
            dim=cell.dim,
            arrival=cell.arrival,
            noise=cell.noise,
        )
    trace = run(instance, cell.policy, cell.horizon)
    return cell.name, seed, trace


def sweep(cells: list[SweepCell], threads: int = 1) -> dict[str, dict[int, RegretTrace]]:
    """Run every (cell, seed) replica; aggregation order is deterministic."""
    total_rounds = sum(cell.horizon * len(cell.seeds) for cell in cells)
    if total_rounds > _TOTAL_ROUNDS_GUARD:
        raise ConfigError(f"sweep of {total_rounds} rounds exceeds the guard ({_TOTAL_ROUNDS_GUARD})")
    jobs = [(cell, seed) for cell in cells for seed in cell.seeds]
    results: dict[str, dict[int, RegretTrace]] = {cell.name: {} for cell in cells}
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for name, seed, trace in pool.map(_run_cell_seed, jobs):
                results[name][seed] = trace
    else:
        for job in jobs:
            name, seed, trace = _run_cell_seed(job)
            results[name][seed] = trace
    return results


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


def summarize(traces: dict[int, RegretTrace]) -> dict:
    """Final-regret statistics, the log-log slope over the last half, and
    round diagnostics over every replica: the share of rounds whose sets
    contained the truth, the share stable for the truth, the ``bound_only``
    round count and the share of rounds that reused the previous round's
    outcome and score. ``match_ucb_prime`` replicas add their rounds per
    branch and the 10th, 50th and 90th percentiles of the gap over the
    rounds that did not fall back (None without such rounds)."""
    ordered = [traces[s] for s in sorted(traces)]
    rounds = sum(t.horizon for t in ordered)
    finals = np.array([t.cum_regret[-1] for t in ordered])
    mean, stderr = mean_stderr(finals)
    curve = np.mean([t.cum_regret for t in ordered], axis=0)
    horizon = len(curve)
    lo = max(horizon // 2, 1)
    ts = np.arange(1, horizon + 1)[lo:]
    ys = np.maximum(curve[lo:], 1e-12)
    slope = float(np.polyfit(np.log(ts), np.log(ys), 1)[0]) if len(ts) >= 2 else 0.0
    summary = {
        "replicas": len(ordered),
        "final_cum_regret_mean": mean,
        "final_cum_regret_stderr": stderr,
        "log_slope_last_half": slope,
        "containment_rate": sum(int(t.containment.sum()) for t in ordered) / rounds,
        "stable_truth_rate": sum(int(t.stable_truth.sum()) for t in ordered) / rounds,
        "bound_only_rounds": sum(int(t.bound_only.sum()) for t in ordered),
        "reused_round_frac": sum(t.reused_rounds for t in ordered) / rounds,
    }
    if ordered[0].policy_kind == "match_ucb_prime":
        branch = np.concatenate([t.info["branch"] for t in ordered])
        gap = np.concatenate([t.info["gap"] for t in ordered])[branch != "fallback"]
        summary["branch_counts"] = {b: int((branch == b).sum()) for b in ("fallback", "robust", "expanded")}
        for q in (10, 50, 90):
            summary[f"gap_p{q}"] = float(np.percentile(gap, q)) if gap.size else None
    return summary
