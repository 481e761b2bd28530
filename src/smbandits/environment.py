"""Instance generation, the round loop, and regret accounting.

An instance is a ground-truth utility matrix plus the processes that drive a
simulation: arrivals, feedback noise, and (for typed/linear preferences) the
structure the learner is told about. ``run`` executes one policy against one
instance; ``sweep`` fans replicas out over seeds and cells.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import policies as pol
from .confidence import (
    ConfidenceConfig,
    ConfidenceSets,
    LinearConfidence,
    TypedConfidence,
    UnstructuredConfidence,
    _width,
)
from .errors import ConfigError, TooLarge
# subset_instability_value is not called here; perfbench/tracer.py patches this name.
from .instability import ntu_judgements, ntu_subset_instability, subset_instability_value, tu_judgements
from .market import (
    TOL,
    Matching,
    MarketOutcome,
    UtilityMatrix,
    _inequalities_hold,
    is_stable_ntu,
    is_stable_tu,  # not called here; perfbench/tracer.py patches this name
    lists_all_in_order,
)

_TOTAL_ROUNDS_GUARD = 20_000_000

# run judges a block of rounds once its gain, snapshot and rewritten cells, plus one per round, reach this count,
# or once it holds this many rounds, which bounds its queued Python objects and its NTU stacks on small markets.
_BLOCK_CELLS = 2**16
_BLOCK_ROUNDS = 512

_STREAM_ARRIVALS = 1
_STREAM_NOISE = 2
_MASK64 = (1 << 64) - 1


def _require(cond: bool, path: str, message: str) -> None:
    """Raise ``ConfigError("path: message")`` unless ``cond``; ``path`` is the config key path of the checked value."""
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _is_int(x) -> bool:
    """Whether ``x`` is a Python or numpy integer and not a boolean, which Python reads as 0 or 1."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _require_counts(**counts) -> None:
    """Raise ConfigError, led by the key, unless every value is a positive integer."""
    for key, value in counts.items():
        _require(_is_int(value) and value >= 1, key, "must be a positive integer")


def _seed_ok(seed) -> bool:
    """Whether ``seed`` lies in [0, 2**64); the streams key on its low 64 bits, so outside it two seeds alias."""
    return _is_int(seed) and 0 <= int(seed) < 2**64


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
        try:
            sorted_schedule = tuple((tuple(sorted(c)), tuple(sorted(p))) for c, p in self.schedule)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"arrival: expected a schedule of (customers, providers) index pairs: {exc}") from exc
        object.__setattr__(self, "schedule", sorted_schedule)


@dataclass(frozen=True)
class NoiseSpec:
    kind: str = "gaussian"  # gaussian | bernoulli
    sigma: float = 1.0


# The bound on sigma, and on every number of a config. Gaussian feedback is mean + sigma * z, and numpy's ziggurat
# sampler keeps |z| < 14: below this bound |sigma * z| is under half an ulp of the largest double (2**970, about
# 1e292), so every draw is finite for every utility in [-1, 1].
_NUMBER_MAX = 1e290


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


def _check_recipe(klass: str, num_customers: int, num_providers: int, num_types: int, dim: int) -> None:
    """Raise ConfigError, led by the config key, unless these describe a market ``gen_instance`` can generate."""
    _require(klass in ("unstructured", "typed", "linear"), "class", "must be unstructured|typed|linear")
    _require_counts(customers=num_customers, providers=num_providers, num_types=num_types, dim=dim)


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
    _check_recipe(klass, num_customers, num_providers, num_types, dim)
    rng = stream_rng(seed, 0)
    arrival = arrival or ArrivalSpec()
    noise = noise or NoiseSpec()

    if klass == "unstructured":
        cv = rng.uniform(-1.0, 1.0, (num_customers, num_providers))
        pv = rng.uniform(-1.0, 1.0, (num_providers, num_customers))
        return MarketInstance(UtilityMatrix(cv, pv), UnstructuredClass(), arrival, noise, seed)

    if klass == "typed":
        f = rng.uniform(-1.0, 1.0, (num_types, num_types))
        tc = rng.integers(0, num_types, num_customers)
        tp = rng.integers(0, num_types, num_providers)
        cv = f[np.ix_(tc, tp)]
        pv = f[np.ix_(tp, tc)]
        spec = TypedClass(num_types, tc, tp, f)
        return MarketInstance(UtilityMatrix(cv, pv), spec, arrival, noise, seed)

    # linear, the one class left after _check_recipe
    phi_c = _unit_vectors(rng, num_customers, dim)
    phi_p = _unit_vectors(rng, num_providers, dim)
    ctx_c = _unit_vectors(rng, num_customers, dim)
    ctx_p = _unit_vectors(rng, num_providers, dim)
    cv = phi_c @ ctx_p.T
    pv = phi_p @ ctx_c.T
    spec = LinearClass(dim, phi_c, phi_p, ctx_c, ctx_p)
    return MarketInstance(UtilityMatrix(cv, pv), spec, arrival, noise, seed)


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
    epsilon: float = 0.3  # the fee of revenue_frictions
    etc_pulls_per_pair: int | None = None  # None: etc's default

    def __post_init__(self) -> None:
        kind, eps, pulls = self.kind, self.epsilon, self.etc_pulls_per_pair
        _require(isinstance(kind, str) and kind in POLICY_KINDS, "kind", f"must be one of {tuple(POLICY_KINDS)}")
        if not (isinstance(eps, numbers.Real) and 0 < eps <= pol._EPSILON_MAX):
            raise ConfigError(f"epsilon: must lie in (0, {pol._EPSILON_MAX:g}]")
        _require(pulls is None or _is_int(pulls) and pulls >= 0, "etc_pulls_per_pair", "must be a nonnegative integer")

    def build(self, instance: MarketInstance, horizon: int) -> pol.Policy:
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
    """Execute one replica: deterministic in (instance.seed, spec, horizon), after ``_check`` accepts the instance.

    A round does only what the learner reads: arrivals, ``policy.step`` and the decision's width, bound and
    revenue. The rest waits for the end of a block of rounds (``_BLOCK_CELLS``, ``_BLOCK_ROUNDS``): ``_judge_block``
    judges each round that does not score the very outcome object of the round before on bytewise the same arrivals
    (those copy its judgement), ``_containment`` reads the positions each ``update`` rewrote (``conf.written``; the
    sets change through nothing else), and a ``revenue_frictions`` round's ``stable_truth`` is the eps-stability of
    its published outcome at the policy's fee. ``record_outcomes`` keeps each round's scored outcome on the trace.

    A round that would replay the last one skips ``step``: when every agent arrives, ``_replayed`` says once per run
    whether the pass may stand in for the policy's rounds. If it may, the memoised outcome is the one last scored,
    and whenever the upper bounds are bytewise those it was selected on, ``_replay`` plays the rounds that follow in
    one scalar pass, up to the first whose fold moves an upper bound and short of the round that ends the block.
    """
    _require_counts(horizon=horizon)
    _check(instance)
    policy = spec.build(instance, horizon)
    conf = policy.conf
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
    last: tuple | None = None  # scored outcome, arrivals and round of the last judged round
    values = np.concatenate((truth.customer_values, truth.provider_values), axis=None)  # laid out like conf.lo
    source = np.arange(horizon)  # the round whose judgement each round copies
    # All arrivals: the same two read-only arrays every round.
    every = instance.arrival.kind == "all" and tuple(np.frombuffer(np.arange(n).tobytes(), int) for n in (n_c, n_p))
    replays = every and _replayed(policy)
    judged, published, records, snaps, cells, start = [], [], [], [], 0, 0

    def feedback(matching: Matching) -> tuple[np.ndarray, np.ndarray]:
        draws = _draws(values, conf._positions(matching), instance.noise, noise_rng)
        return draws[0::2], draws[1::2]

    t = 0
    while t < horizon:
        cust, prov = every or _draw_arrivals(instance.arrival, n_c, n_p, t, arrivals_rng)
        written, conf.written = conf.written, ()
        if written is None or t == start:
            records.append(None)
            snaps.append((conf.lo - TOL <= values) & (values <= conf.hi + TOL))
        else:
            records.append((written, conf.lo[written], conf.hi[written]))
        cells += values.size if records[-1] is None else len(written)
        if replays and last and policy._memo_key[-1] == conf.hi.tobytes():
            pos = conf._positions(last[0].matching)
            # Each round adds its record and one cell; the round that reaches a cap ends the block, stepwise.
            cap = -((cells + 1 - _BLOCK_CELLS) // (pos.size + 1))
            rounds = min(horizon - 1 - t, start + _BLOCK_ROUNDS - 1 - t, cap)
            widths = rounds > 0 and _replay(conf, pos, values, instance.noise, noise_rng, horizon, rounds, records)
            if widths:
                r = len(widths)
                trace.width_sum[t : t + r] = trace.certified_bound[t : t + r] = widths
                trace.reused_rounds += r
                source[t : t + r] = last[3]
                if record_outcomes:
                    trace.outcomes += [last[0]] * r
                cells += r + (r - 1) * pos.size
                t += r
                continue
        decision = policy.step((cust, prov), feedback)
        if last and last[0] is decision.scored_outcome and (
            last[1] is cust and last[2] is prov
            or (last[1].tobytes(), last[2].tobytes()) == (cust.tobytes(), prov.tobytes())
        ):
            trace.reused_rounds += 1
            source[t] = last[3]
        else:
            last = (decision.scored_outcome, cust, prov, t)
            judged.append(last)
            cells += len(cust) * len(prov)
        if fee > 0:
            published.append((decision.outcome, cust, prov))
        trace.width_sum[t] = decision.width_sum
        trace.certified_bound[t] = decision.certified_instability_bound
        trace.revenue[t] = decision.revenue
        if record_outcomes:
            trace.outcomes.append(decision.scored_outcome)
        if decision.info is not None:
            infos.append(decision.info)
        cells += 1
        t += 1
        if cells < _BLOCK_CELLS and t - start < _BLOCK_ROUNDS and t < horizon:
            continue
        block = slice(start, t)
        trace.containment[block] = _containment(values, records, snaps)
        _judge_block(trace, truth, judged, ntu)
        for column in (trace.instability, trace.stable_truth, trace.bound_only):
            column[block] = column[source[block]]
        np.copyto(trace.instability[block], trace.certified_bound[block], where=trace.bound_only[block])
        for k, (outcome, c, p) in enumerate(published, start):
            truth_sub = truth.restrict(c, p)
            payoffs = _restrict_outcome(outcome, c, p)._payoff_vector(truth_sub)
            trace.stable_truth[k] = _inequalities_hold(payoffs, truth_sub.joint(), fee)
        judged, published, records, snaps, cells, start = [], [], [], [], 0, t

    trace.info = {key: np.array([info[key] for info in infos]) for key in infos[0]} if infos else None
    return trace


# The round hooks the replay pass stands in for, as their classes define them, and the function whose result each
# policy class memoises. A policy or sets with one of these replaced, on its class or on the instance (a tracer, a
# probe), play every round through ``step``, so that the replacement sees every round.
_MEMOISED = {pol.MatchUcbPolicy: pol.compute_match, pol.MatchNtuUcbPolicy: pol._ntu_outcome}
_HOOKS = {
    cls: {name: getattr(cls, name) for name in names}
    for cls, names in [
        (pol.MatchUcbPolicy, ("step", "_select", "_learn", "_memo")),
        (pol.MatchNtuUcbPolicy, ("step", "_select", "_learn", "_memo")),
        (UnstructuredConfidence, ("update", "_apply", "width_sum")),
    ]
}


def _replayed(policy: pol.Policy) -> bool:
    """Whether ``_replay`` may stand in for the rounds of ``policy``: a ``_MEMOISED`` policy class on unstructured
    sets, with every hook in ``_HOOKS`` as defined and the memoised function still the module's own. Then every
    round the policy plays on all arrivals scores its memoised outcome, keyed on ``conf.hi`` alone."""
    conf = policy.conf
    fn = _MEMOISED.get(type(policy))
    if fn is None or type(conf) is not UnstructuredConfidence or getattr(pol, fn.__name__) is not fn:
        return False
    return all(
        getattr(type(owner), name) is hook and name not in vars(owner)
        for owner in (policy, conf)
        for name, hook in _HOOKS[type(owner)].items()
    )


def _replay(
    conf: UnstructuredConfidence,
    pos: np.ndarray,
    values: np.ndarray,
    noise: NoiseSpec,
    rng: np.random.Generator,
    horizon: int,
    rounds: int,
    records: list,
) -> list[float]:
    """Play up to ``rounds`` >= 1 rounds, from the next on, that replay the last one: each round's width, then its
    feedback at the played buffer positions ``pos``, folded into ``conf``. Stops after the first round whose fold
    moves a byte of ``hi`` (-0.0 against 0.0 too; the round after selects afresh); every draw is finite (see
    ``_NUMBER_MAX``). Returns each round's width. For each but the first (the caller took its record) appends its count
    of played intervals missing ``values``, less the first's. Leaves the last fold written to ``conf``.

    The noise is drawn for chunks of rounds, doubling in size; a pass that stops inside a chunk puts the stream
    back to the end of the draws of the rounds it played, where the rounds played one at a time would leave it."""
    plist, truth = pos.tolist(), values[pos].tolist()
    lo, hi = conf.lo[pos].tolist(), conf.hi[pos].tolist()
    clip = [-1.0] * len(lo), [1.0] * len(hi)  # intervals that hold every utility _check accepts
    first = _misses(lo, hi, truth)
    widths: list[float] = []
    chunk, moved = 8, False
    while len(widths) < rounds and not moved:
        n = min(chunk, rounds - len(widths))
        state = rng.bit_generator.state
        folds = conf._fold(plist, _draws(values, pos, noise, rng, n).tolist(), horizon)
        for played, (lo_next, hi_next) in enumerate(itertools.islice(folds, n), 1):
            if widths:
                records.append((0 if (lo, hi) == clip else _misses(lo, hi, truth)) - first)
            widths.append(_width(lo, hi))
            moved = not _same_bytes(hi_next, hi)
            lo, hi = lo_next, hi_next
            if moved:
                break
        if played < n:
            rng.bit_generator.state = state
            _draws(values, pos, noise, rng, played)
        chunk *= 2
    conf.lo[pos], conf.hi[pos] = lo, hi
    conf.written = pos
    return widths


def _misses(lo: list[float], hi: list[float], truth: list[float]) -> int:
    """How many intervals [lo, hi] miss the aligned ``truth`` by more than TOL, as ``_containment`` tests them."""
    return sum(not a - TOL <= v <= b + TOL for a, v, b in zip(lo, truth, hi))


def _same_bytes(a: list[float], b: list[float]) -> bool:
    """Whether two lists of finite floats are bytewise equal: equal values, and zeros of the same sign."""
    return a == b and (0.0 not in a or [math.copysign(1.0, x) for x in a] == [math.copysign(1.0, x) for x in b])


def _judge_block(trace: RegretTrace, truth: UtilityMatrix, judged: list[tuple], ntu: bool) -> None:
    """Judge each (scored outcome, customers, providers, round) of ``judged``, by arrival shape: one ``tu_judgements``
    call, or ``ntu_judgements`` and then ``ntu_subset_instability`` on each round it leaves; ``bound_only`` waits."""
    shapes: dict[tuple, list[tuple]] = {}
    for item in judged:
        shapes.setdefault((len(item[1]), len(item[2])), []).append(item)
    for shape, items in shapes.items():
        outcomes, cust, prov, rounds = (list(column) for column in zip(*items))
        if ntu:
            stacked = ntu_judgements(truth, [o.matching for o in outcomes], np.array(cust), np.array(prov))
            trace.instability[rounds], trace.stable_truth[rounds], exact = stacked
            for outcome, c, p, t in (item for item, done in zip(items, exact) if not done):
                truth_sub, matching = truth.restrict(c, p), _restrict_outcome(outcome, c, p).matching
                try:
                    report = ntu_subset_instability(truth_sub, matching)
                    trace.instability[t], trace.stable_truth[t] = report.value, report.stable
                except TooLarge:
                    trace.stable_truth[t], trace.bound_only[t] = is_stable_ntu(truth_sub, matching), True
            continue
        # Arrivals are sorted and distinct, so a full shape lists every agent.
        arrivals = () if shape == (truth.num_customers, truth.num_providers) else (np.array(cust), np.array(prov))
        trace.instability[rounds], trace.stable_truth[rounds] = tu_judgements(truth, outcomes, *arrivals)


def _containment(values: np.ndarray, records: list, snaps: list) -> np.ndarray:
    """Per round, whether every interval holds the truth ``values`` (laid out like ``lo``) within TOL. A record is
    None for the next of ``snaps``, every cell's flag (a block starts with one); the positions an update rewrote
    with their new ``lo`` and ``hi``; or a replayed round's misses less those of its pass's first round. A stable
    sort by (snapshot, position) pairs each write with the flag it replaces; cumulative sums count the misses."""
    snap = np.array([r is None for r in records])
    seg = snap.cumsum() - 1  # the snapshot each round builds on
    missed = values.size - np.array([np.count_nonzero(h) for h in snaps])
    replayed = np.array([r if type(r) is int else 0 for r in records])
    sizes = [len(r[0]) if type(r) is tuple else 0 for r in records]
    ends = np.cumsum(sizes)
    change = np.zeros(ends[-1] + 1, dtype=np.int64)  # change[1 + e]: the count's change at write e
    if ends[-1]:
        pos, lo, hi = (np.concatenate([r[i] for r in records if type(r) is tuple and len(r[0])]) for i in range(3))
        now = (lo - TOL <= values[pos]) & (values[pos] <= hi + TOL)
        key = np.repeat(seg, sizes) * values.size + pos  # the flat index into snaps of the flag a write replaces
        order = key.argsort(kind="stable")
        key, now = key[order], now[order]
        first = np.concatenate(([True], key[1:] != key[:-1]))
        before = np.where(first, np.concatenate(snaps)[key], np.concatenate(([False], now[:-1])))
        change[1 + order] = before.view(np.int8) - now.view(np.int8)
    total = np.cumsum(change)[ends]
    return missed[seg] + total - total[snap][seg] + replayed == 0


def _check(instance: MarketInstance) -> None:
    """Raise ConfigError unless ``run`` may trust ``instance``: ``_check_inputs`` and the seed range."""
    _check_inputs(instance.arrival, instance.noise, instance.truth, instance.num_customers, instance.num_providers)
    _require(_seed_ok(instance.seed), "seed", "must be an integer in [0, 2**64)")


def _check_inputs(arrival: ArrivalSpec, noise: NoiseSpec, truth: UtilityMatrix | None, n_c: int, n_p: int) -> None:
    """Raise ConfigError, led by the key path, unless an n_c x n_p market's rounds may trust these: a known arrival
    kind, p in (0, 1] for ``iid_subset``, a non-empty ``fixed`` schedule of distinct agent indices in range on each
    side; a known noise kind, sigma in [0, ``_NUMBER_MAX``]; a truth (None: generated) in [-1, 1], the range the sets
    are clipped to, and in [0, 1] if fixed under Bernoulli feedback, at every pair, played or not."""
    _require(arrival.kind in ("all", "iid_subset", "fixed"), "arrival.kind", "must be all|iid_subset|fixed")
    if arrival.kind == "iid_subset":
        p = arrival.probability
        _require(isinstance(p, numbers.Real) and 0.0 < p <= 1.0, "arrival.p", "must lie in (0, 1]")
    _require(arrival.kind != "fixed" or len(arrival.schedule) > 0, "arrival.schedule", "must be a non-empty list")
    # ArrivalSpec sorted each side, so the message names the side and the agent, not a position in the side.
    for k, entry in enumerate(arrival.schedule):
        for s, (side, n) in enumerate(zip(entry, (n_c, n_p))):
            for x in side:
                if not (_is_int(x) and 0 <= x < n):
                    raise ConfigError(f"arrival.schedule[{k}][{s}]: agent {x} is not an index in [0, {n})")
            for a, b in zip(side, side[1:]):
                if a == b:
                    raise ConfigError(f"arrival.schedule[{k}][{s}]: agent {a} is listed twice")
    _require(noise.kind in ("gaussian", "bernoulli"), "noise.kind", "must be gaussian|bernoulli")
    if not (isinstance(noise.sigma, numbers.Real) and 0.0 <= noise.sigma <= _NUMBER_MAX):
        raise ConfigError(f"noise.sigma: must lie in [0, {_NUMBER_MAX:g}]")
    values = () if truth is None else (("customer", truth.customer_values), ("provider", truth.provider_values))
    for side, v in values:
        if not np.abs(v).max(initial=0.0) <= 1.0:
            raise ConfigError(f"truth.{side}_values: entries must lie in [-1, 1]")
    _require(
        noise.kind != "bernoulli" or truth is not None and all(v.min(initial=0.0) >= 0.0 for _, v in values),
        "noise.kind",
        "bernoulli feedback needs a fixed truth with every value in [0, 1]",
    )


def _draw_arrivals(
    spec: ArrivalSpec, n_c: int, n_p: int, t: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    if spec.kind == "iid_subset":
        cust = np.flatnonzero(rng.random(n_c) < spec.probability)
        prov = np.flatnonzero(rng.random(n_p) < spec.probability)
        return cust, prov
    cust_t, prov_t = spec.schedule[t % len(spec.schedule)]
    return np.asarray(cust_t, dtype=int), np.asarray(prov_t, dtype=int)


def _draws(
    values: np.ndarray, pos: np.ndarray, noise: NoiseSpec, rng: np.random.Generator, rounds: int = 1
) -> np.ndarray:
    """Noisy rewards of ``rounds`` rounds that each observe the true utilities ``values``, laid out like ``conf.lo``,
    at the buffer positions ``pos`` (a matching's are customer 0, provider 0, customer 1, ...), round after round,
    each in the order of ``pos``: the stream's draws in the order it gives them. ``_check`` has passed the noise."""
    means = values[pos] if rounds == 1 else np.tile(values[pos], rounds)
    if noise.kind == "gaussian":
        return means + noise.sigma * rng.standard_normal(means.size)
    return (rng.random(means.size) < means).astype(float)


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

    def __post_init__(self) -> None:
        n_c, n_p, seeds = self.num_customers, self.num_providers, self.seeds
        _check_recipe(self.klass, n_c, n_p, self.num_types, self.dim)
        _require_counts(horizon=self.horizon)
        ints = isinstance(seeds, (tuple, list)) and len(seeds) > 0 and all(map(_is_int, seeds))
        _require(ints, "seeds", "must be a non-empty list of integers")
        _require(all(map(_seed_ok, seeds)), "seeds", "entries must lie in [0, 2**64)")
        _require(len(set(seeds)) == len(seeds), "seeds", "entries must be distinct")
        # Typed and linear sets read the structure of an instance of that class.
        sets = POLICY_KINDS[self.policy.kind][1].mode
        _require(sets in ("unstructured", self.klass), "class", f"{self.policy.kind} needs class={sets}")
        if self.truth is not None:
            _require(self.klass == "unstructured", "truth", "fixed truth requires class=unstructured")
            shape = (self.truth.num_customers, self.truth.num_providers)
            _require(shape == (n_c, n_p), "truth", f"shape {shape[0]}x{shape[1]} differs from the market's {n_c}x{n_p}")
        _check_inputs(self.arrival, self.noise, self.truth, n_c, n_p)


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
        from concurrent.futures import ProcessPoolExecutor

        # Under fork, the pool starts all max_workers at the first submit.
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
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
