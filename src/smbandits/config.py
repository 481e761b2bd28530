"""JSON input: experiment configs and the instance and outcome files of ``score``.

This module reads JSON: it checks each value's JSON type and the numeric rule, rejects unknown keys and the keys a
policy kind does not read, and builds the library objects. Those check every value of a run, once, in
``environment`` (``PolicySpec``, ``SweepCell``) and ``confidence`` (``ConfidenceConfig``); their messages start with
the key path, and ``config.`` goes in front. Keeping the dependency surface at zero rules out a schema library.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .confidence import ConfidenceConfig
from .environment import _NUMBER_MAX, POLICY_KINDS, ArrivalSpec, NoiseSpec, PolicySpec, SweepCell, _require
from .errors import ConfigError
from .market import Matching, MarketOutcome, UtilityMatrix

SCHEMA_VERSION = 1

# Every JSON number keeps the sigma bound ``_NUMBER_MAX``. A scored gain or floor of values and transfers within it
# is below 6e290, so every sum of one term per agent stays finite for any market under 10**17 agents.
_NUMBER_RULE = f"finite, of magnitude at most {_NUMBER_MAX:g}"

_NUMBER = (int, float)
_VALUE_KEYS = ("customer_values", "provider_values")


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
        for s, (x, count) in enumerate(zip(pair, (n_c, n_p))):
            # ``type`` rather than ``isinstance``: JSON true is not an index.
            if not (type(x) is int and 0 <= x < count):
                raise ConfigError(f"{where}[{k}][{s}]: must be an agent index in [0, {count})")
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
        if ntu and tau.any():
            raise ConfigError(f"{path}: {key}: an NTU outcome has no transfers, so every entry must be 0")
        transfers.append(tau)
    return MarketOutcome(matching, *transfers), ntu


# The policy keys each kind reads besides ``kind``: the width constants of its confidence sets, and one key of its own.
# A key the kind never reads would change nothing, so it fails to parse.
_WIDTH_KEYS = {"linear": ("lin_beta_d_coeff", "lin_beta_log_coeff", "lin_ridge")}
_OWN_KEYS = {"revenue_frictions": ("epsilon",), "etc": ("etc_pulls_per_pair",)}


def _parse_policy(obj: dict, path: str) -> PolicySpec:
    knobs = [f.name for f in dataclasses.fields(ConfidenceConfig)]
    _take(obj, path, {"kind": str, **dict.fromkeys(knobs, _NUMBER), "epsilon": _NUMBER, "etc_pulls_per_pair": int})
    try:
        spec = PolicySpec(
            kind=obj.get("kind"),
            confidence=ConfidenceConfig(**{key: float(obj[key]) for key in knobs if key in obj}),
            epsilon=float(obj.get("epsilon", PolicySpec.epsilon)),
            etc_pulls_per_pair=obj.get("etc_pulls_per_pair"),
        )
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{path}.{exc}") from exc
    reads = ("kind", *_WIDTH_KEYS.get(POLICY_KINDS[spec.kind][1].mode, ("ucb_scale",)), *_OWN_KEYS.get(spec.kind, ()))
    for key in obj:
        _require(key in reads, f"{path}.{key}", f"policy kind {spec.kind} does not read this key")
    return spec


def _parse_arrival(obj: dict, path: str) -> dict:
    """The ``ArrivalSpec`` arguments of ``obj``: ``p`` only for ``iid_subset``, ``schedule`` only for ``fixed``."""
    _take(obj, path, {"kind": str, "p": _NUMBER, "schedule": list})
    kind = obj.get("kind", ArrivalSpec.kind)
    schedule = obj.get("schedule", []) if kind == "fixed" else []
    for k, entry in enumerate(schedule):
        shape = isinstance(entry, list) and len(entry) == 2 and all(isinstance(side, list) for side in entry)
        _require(shape, f"{path}.schedule[{k}]", "expected [customer list, provider list]")
    p = obj.get("p", ArrivalSpec.probability) if kind == "iid_subset" else ArrivalSpec.probability
    return {"kind": kind, "probability": float(p), "schedule": tuple((tuple(c), tuple(q)) for c, q in schedule)}


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
    policy = _parse_policy(obj["policy"], f"{path}.policy")
    arrival = _parse_arrival(obj.get("arrival", {}), f"{path}.arrival")
    noise = _take(obj.get("noise", {}), f"{path}.noise", {"kind": str, "sigma": _NUMBER})
    truth = None
    if "truth" in obj:
        _take(obj["truth"], f"{path}.truth", dict.fromkeys(_VALUE_KEYS, list))
        truth = _utility(obj["truth"], f"{path}.truth", ".")
    try:
        return SweepCell(
            name=obj.get("name", "experiment"),
            klass=obj["class"],
            num_customers=obj["customers"],
            num_providers=obj["providers"],
            horizon=obj["horizon"],
            policy=policy,
            seeds=tuple(obj["seeds"]),
            arrival=ArrivalSpec(**arrival),
            noise=NoiseSpec(noise.get("kind", NoiseSpec.kind), float(noise.get("sigma", NoiseSpec.sigma))),
            truth=truth,
            **{key: obj[key] for key in ("num_types", "dim") if key in obj},
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


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
