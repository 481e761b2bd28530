"""JSON input: experiment configs and the instance and outcome files of ``score``.

Every JSON value the program reads is validated here, by one set of hand-rolled
readers, so the rules are written once and each error names the offending key
path. Keeping the dependency surface at zero rules out a schema library.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .confidence import ConfidenceConfig
from .environment import POLICY_KINDS, ArrivalSpec, NoiseSpec, PolicySpec, SweepCell
from .errors import ConfigError
from .market import Matching, MarketOutcome, UtilityMatrix
from .policies import _EPSILON_MAX

SCHEMA_VERSION = 1

_CLASSES = ("unstructured", "typed", "linear")

# The bound on every JSON number's magnitude. Gaussian feedback is mean + sigma * z, and numpy's ziggurat sampler
# keeps |z| < 14: below this bound |sigma * z| is under half an ulp of the largest double (2**970, about 1e292), so
# every draw is finite for every finite mean. A scored gain or floor of values and transfers within it is below
# 6e290, so every sum of one term per agent stays finite for any market under 10**17 agents.
_NUMBER_MAX = 1e290
_NUMBER_RULE = f"finite, of magnitude at most {_NUMBER_MAX:g}"

_NUMBER = (int, float)
_VALUE_KEYS = ("customer_values", "provider_values")


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _of_type(x, types: type | tuple[type, ...]) -> bool:
    """``isinstance(x, types)``, false for a JSON boolean, which Python
    reads as the int 0 or 1."""
    return isinstance(x, types) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """The numeric rule: a JSON number that is not a boolean, finite and of magnitude at most ``_NUMBER_MAX``.
    An integer too large for a float compares exactly, so it fails here instead of overflowing ``float``."""
    return _of_type(x, _NUMBER) and abs(x) <= _NUMBER_MAX


def _require_object(obj, path: str) -> None:
    _require(isinstance(obj, dict), path, "expected a JSON object")


def _take(obj: dict, path: str, allowed: dict[str, type | tuple[type, ...]]) -> dict:
    """Check types of present keys and reject unknown ones; no key takes a
    boolean, and every number keeps the numeric rule."""
    _require_object(obj, path)
    unknown = set(obj) - set(allowed)
    _require(not unknown, path, f"unknown keys {sorted(unknown)}")
    for key, types in allowed.items():
        if key in obj:
            value = obj[key]
            _require(_of_type(value, types), f"{path}.{key}", f"expected {types}")
            _require(_is_number(value) or not _of_type(value, _NUMBER), f"{path}.{key}", f"must be {_NUMBER_RULE}")
    return obj


# The readers that ``score`` runs test before they format a message: every benchmark workload times ``score``.
def _agent_indices(xs: list, counts, path: str, *index: int) -> None:
    """Raise at ``path[index]...[k]`` for the first entry k of ``xs`` that is not an agent index in [0, counts[k])."""
    for k, (x, count) in enumerate(zip(xs, counts)):
        # ``type`` rather than ``isinstance``: JSON true is not an index.
        if not (type(x) is int and 0 <= x < count):
            raise ConfigError(f"{path}{''.join(f'[{i}]' for i in (*index, k))}: must be an agent index in [0, {count})")


def _number_array(raw, where: str, ndim: int, may_hold_bool: bool = True) -> np.ndarray:
    """``raw`` as a float array of ``ndim`` dimensions whose entries keep the numeric rule.

    Strings, nulls, objects, ragged nesting, NaN, Infinity and numbers beyond
    the bound raise ConfigError at ``where``, and so do booleans unless
    ``may_hold_bool`` is false, which skips the walk that finds them."""
    try:
        arr = np.asarray(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if arr.dtype.kind == "O" and all(_of_type(x, _NUMBER) for x in arr.flat):
        # Integers beyond 64 bits; one beyond the bound reads as infinity, which the bound rejects below.
        arr = np.array([x if abs(x) <= _NUMBER_MAX else math.inf for x in arr.flat], dtype=float).reshape(arr.shape)
    # ``np.asarray`` reads true and false among numbers as 1 and 0.
    ok = arr.ndim == ndim and arr.dtype.kind in "iuf"
    if not ok or (may_hold_bool and bool in set(map(type, raw if ndim == 1 else [x for row in raw for x in row]))):
        raise ConfigError(f"{where}: expected a {ndim}-D array of numbers")
    arr = arr.astype(float, copy=False)
    if not np.abs(arr).max(initial=0.0) <= _NUMBER_MAX:
        raise ConfigError(f"{where}: entries must be {_NUMBER_RULE}")
    return arr


def _spells_bool(text: str) -> bool:
    """Whether ``text`` holds ``true`` or ``false``, as every JSON boolean does. A one-character
    search finds each candidate; ``"true" in text`` is about 25 times slower on a 40×40 instance."""
    for word in ("true", "false"):
        i = -1
        while (i := text.find(word[0], i + 1)) >= 0:
            if text.startswith(word, i):
                return True
    return False


def _utility(obj, path: str, sep: str, may_hold_bool: bool = True) -> UtilityMatrix:
    """The value matrices of ``obj``, each read at key path ``path + sep + key``."""
    _require_object(obj, path)
    for key in _VALUE_KEYS:
        if key not in obj:
            raise ConfigError(f"{path}: missing {key}")
    cv, pv = [_number_array(obj[key], f"{path}{sep}{key}", 2, may_hold_bool) for key in _VALUE_KEYS]
    if pv.shape != cv.shape[::-1]:
        raise ConfigError(
            f"{path}{sep}provider_values: shape {pv.shape} must be {cv.shape[::-1]}, the transpose of customer_values"
        )
    return UtilityMatrix._trusted(cv, pv)


def _outcome(obj, path: str, n_c: int, n_p: int) -> tuple[MarketOutcome, bool]:
    """The outcome of ``score`` file ``path`` on an n_c x n_p market, and whether it is scored as NTU."""
    _require_object(obj, path)
    _require("matching" in obj, path, "missing matching")
    raw, where = obj["matching"], f"{path}: matching"
    _require(isinstance(raw, list), where, "expected a list of [customer, provider] pairs")
    for k, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"{where}[{k}]: expected a [customer, provider] pair")
        _agent_indices(pair, (n_c, n_p), where, k)
    try:
        matching = Matching(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    ntu = obj.get("ntu", False)
    if type(ntu) is not bool:
        raise ConfigError(f"{path}: ntu: expected true or false, got {ntu!r}")
    transfers = []
    for key, n in (("customer_transfers", n_c), ("provider_transfers", n_p)):
        tau = _number_array(obj[key], f"{path}: {key}", 1) if key in obj else np.zeros(n)
        if tau.shape != (n,):
            raise ConfigError(f"{path}: {key}: expected length {n}, got {tau.shape[0]}")
        transfers.append(tau)
    return MarketOutcome(matching, *transfers), ntu


def _parse_policy(obj: dict, path: str) -> PolicySpec:
    knobs = [f.name for f in dataclasses.fields(ConfidenceConfig)]
    _take(obj, path, {"kind": str, **dict.fromkeys(knobs, _NUMBER), "epsilon": _NUMBER, "etc_pulls_per_pair": int})
    kind = obj.get("kind")
    _require(kind in POLICY_KINDS, f"{path}.kind", f"must be one of {tuple(POLICY_KINDS)}")
    pulls = obj.get("etc_pulls_per_pair")
    _require(pulls is None or pulls >= 0, f"{path}.etc_pulls_per_pair", "must be nonnegative")
    try:
        conf = ConfidenceConfig(**{key: float(obj[key]) for key in knobs if key in obj})
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc
    epsilon = float(obj.get("epsilon", PolicySpec.epsilon))
    if kind == "revenue_frictions":
        _require(0 < epsilon <= _EPSILON_MAX, f"{path}.epsilon", f"must lie in (0, {_EPSILON_MAX:g}]")
    return PolicySpec(kind=kind, confidence=conf, epsilon=epsilon, etc_pulls_per_pair=pulls)


def _parse_agents(raw, path: str, count: int) -> tuple[int, ...]:
    """Distinct agent indices in [0, count)."""
    _require(isinstance(raw, list), path, "expected a list of agent indices")
    _agent_indices(raw, [count] * len(raw), path)
    _require(len(set(raw)) == len(raw), path, "repeats an agent index")
    return tuple(raw)


def _parse_arrival(obj: dict, path: str, n_c: int, n_p: int) -> ArrivalSpec:
    _take(obj, path, {"kind": str, "p": _NUMBER, "schedule": list})
    kind = obj.get("kind", ArrivalSpec.kind)
    _require(kind in ("all", "iid_subset", "fixed"), f"{path}.kind", "must be all|iid_subset|fixed")
    if kind == "iid_subset":
        p = float(obj.get("p", ArrivalSpec.probability))
        _require(0.0 < p <= 1.0, f"{path}.p", "must lie in (0, 1]")
        return ArrivalSpec(kind="iid_subset", probability=p)
    if kind == "fixed":
        raw = obj.get("schedule")
        _require(isinstance(raw, list) and raw, f"{path}.schedule", "must be a non-empty list")
        schedule = []
        for k, entry in enumerate(raw):
            _require(
                isinstance(entry, list) and len(entry) == 2,
                f"{path}.schedule[{k}]",
                "expected [customer list, provider list]",
            )
            schedule.append(
                (
                    _parse_agents(entry[0], f"{path}.schedule[{k}][0]", n_c),
                    _parse_agents(entry[1], f"{path}.schedule[{k}][1]", n_p),
                )
            )
        return ArrivalSpec(kind="fixed", schedule=tuple(schedule))
    return ArrivalSpec()


def _parse_noise(obj: dict, path: str) -> NoiseSpec:
    _take(obj, path, {"kind": str, "sigma": _NUMBER})
    kind = obj.get("kind", NoiseSpec.kind)
    _require(kind in ("gaussian", "bernoulli"), f"{path}.kind", "must be gaussian|bernoulli")
    sigma = float(obj.get("sigma", NoiseSpec.sigma))
    _require(sigma >= 0, f"{path}.sigma", f"must lie in [0, {_NUMBER_MAX:g}]")
    return NoiseSpec(kind=kind, sigma=sigma)


def _parse_truth(obj: dict, path: str, n_c: int, n_p: int) -> UtilityMatrix:
    _take(obj, path, dict.fromkeys(_VALUE_KEYS, list))
    truth = _utility(obj, path, ".")
    for key in _VALUE_KEYS:
        # The confidence sets are clipped to [-1, 1], so they never contain a truth outside it.
        _require(np.abs(getattr(truth, key)).max(initial=0.0) <= 1.0, f"{path}.{key}", "entries must lie in [-1, 1]")
    _require(
        truth.num_customers == n_c and truth.num_providers == n_p,
        path,
        f"truth shape {truth.num_customers}x{truth.num_providers} differs from market {n_c}x{n_p}",
    )
    return truth


def parse_config(obj: dict, path: str = "config") -> SweepCell:
    _take(
        obj,
        path,
        {
            "schema_version": int,
            "name": str,
            "class": str,
            "customers": int,
            "providers": int,
            "num_types": int,
            "dim": int,
            "policy": dict,
            "horizon": int,
            "seeds": list,
            "arrival": dict,
            "noise": dict,
            "truth": dict,
        },
    )
    _require("schema_version" in obj, f"{path}.schema_version", "is required")
    _require(
        obj["schema_version"] == SCHEMA_VERSION,
        f"{path}.schema_version",
        f"unsupported version {obj['schema_version']} (expected {SCHEMA_VERSION})",
    )
    for key in ("class", "customers", "providers", "policy", "horizon", "seeds"):
        _require(key in obj, f"{path}.{key}", "is required")
    _require(obj["class"] in _CLASSES, f"{path}.class", f"must be one of {_CLASSES}")
    _require(obj["customers"] > 0, f"{path}.customers", "must be positive")
    _require(obj["providers"] > 0, f"{path}.providers", "must be positive")
    _require(obj["horizon"] > 0, f"{path}.horizon", "must be positive")
    seeds = obj["seeds"]
    _require(bool(seeds), f"{path}.seeds", "must be a non-empty list")
    _require(all(_of_type(s, int) for s in seeds), f"{path}.seeds", "entries must be integers")
    # The RNG keys on a seed's low 64 bits: outside [0, 2**64) two seeds can name one replica.
    _require(all(0 <= s < 2**64 for s in seeds), f"{path}.seeds", "entries must lie in [0, 2**64)")
    _require(len(set(seeds)) == len(seeds), f"{path}.seeds", "entries must be distinct")
    for key in ("num_types", "dim"):
        _require(obj.get(key, 1) >= 1, f"{path}.{key}", "must be at least 1")
    policy = _parse_policy(obj["policy"], f"{path}.policy")
    # Typed and linear sets read the structure of an instance of that class.
    sets = POLICY_KINDS[policy.kind][1].mode
    if sets != "unstructured":
        _require(obj["class"] == sets, f"{path}.class", f"{policy.kind} needs class={sets}")
    n_c, n_p = obj["customers"], obj["providers"]
    arrival = _parse_arrival(obj.get("arrival", {}), f"{path}.arrival", n_c, n_p)
    noise = _parse_noise(obj.get("noise", {}), f"{path}.noise")
    truth = None
    if "truth" in obj:
        _require(obj["class"] == "unstructured", f"{path}.truth", "fixed truth requires class=unstructured")
        truth = _parse_truth(obj["truth"], f"{path}.truth", n_c, n_p)
    if noise.kind == "bernoulli":
        _require(
            truth is not None
            and all(0.0 <= v.min() and v.max() <= 1.0 for v in (truth.customer_values, truth.provider_values)),
            f"{path}.noise.kind",
            "bernoulli feedback needs a fixed truth with every value in [0, 1]",
        )
    return SweepCell(
        name=obj.get("name", "experiment"),
        klass=obj["class"],
        num_customers=n_c,
        num_providers=n_p,
        horizon=obj["horizon"],
        policy=policy,
        seeds=tuple(seeds),
        arrival=arrival,
        noise=noise,
        truth=truth,
        **{key: obj[key] for key in ("num_types", "dim") if key in obj},
    )


def read_json(path: str) -> tuple[object, str]:
    """The parsed JSON file and its text; an unreadable or malformed file raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return json.loads(text), text
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    # Unreadable, not UTF-8 (a ValueError), nested too deep, or an integer too long to convert.
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path: str) -> SweepCell:
    return parse_config(read_json(path)[0])


def load_score(instance_path: str, outcome_path: str) -> tuple[UtilityMatrix, MarketOutcome, bool]:
    """The true utilities of a ``score`` instance file, the outcome of its outcome file and whether the
    outcome is scored as NTU."""
    instance, text = read_json(instance_path)
    outcome, _ = read_json(outcome_path)
    truth = _utility(instance, instance_path, ": ", _spells_bool(text))
    return (truth, *_outcome(outcome, outcome_path, truth.num_customers, truth.num_providers))
