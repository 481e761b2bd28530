"""Experiment configuration: versioned JSON schema with strict validation.

Hand-rolled validation keeps the dependency surface at zero and lets error
messages point at the offending key path.
"""

from __future__ import annotations

import json

import numpy as np

from .confidence import ConfidenceConfig
from .environment import POLICY_KINDS, ArrivalSpec, NoiseSpec, PolicySpec, SweepCell
from .errors import ConfigError
from .market import UtilityMatrix
from .policies import _EPSILON_MAX

SCHEMA_VERSION = 1

_CLASSES = ("unstructured", "typed", "linear")

# Gaussian feedback is mean + sigma * z, and numpy's ziggurat sampler keeps |z| < 14. Below this bound |sigma * z|
# is under half an ulp of the largest double (2**970, about 1e292), so every draw is finite for every finite mean.
_SIGMA_MAX = 1e290


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _of_type(x, types: type | tuple[type, ...]) -> bool:
    """``isinstance(x, types)``, false for a JSON boolean, which Python
    reads as the int 0 or 1."""
    return isinstance(x, types) and not isinstance(x, bool)


def _take(obj: dict, path: str, allowed: dict[str, type | tuple[type, ...]]) -> dict:
    """Check types of present keys and reject unknown ones; no key takes a
    boolean."""
    _require(isinstance(obj, dict), path, "expected an object")
    unknown = set(obj) - set(allowed)
    _require(not unknown, path, f"unknown keys {sorted(unknown)}")
    for key, types in allowed.items():
        if key in obj:
            _require(_of_type(obj[key], types), f"{path}.{key}", f"expected {types}")
    return obj


def _parse_policy(obj: dict, path: str) -> PolicySpec:
    _take(
        obj,
        path,
        {
            "kind": str,
            "ucb_scale": (int, float),
            "lin_beta_d_coeff": (int, float),
            "lin_beta_log_coeff": (int, float),
            "lin_ridge": (int, float),
            "epsilon": (int, float),
            "etc_pulls_per_pair": int,
        },
    )
    kind = obj.get("kind")
    _require(kind in POLICY_KINDS, f"{path}.kind", f"must be one of {tuple(POLICY_KINDS)}")
    pulls = obj.get("etc_pulls_per_pair")
    _require(pulls is None or pulls >= 0, f"{path}.etc_pulls_per_pair", "must be nonnegative")
    try:
        conf = ConfidenceConfig(
            ucb_scale=float(obj.get("ucb_scale", 8.0)),
            lin_beta_d_coeff=float(obj.get("lin_beta_d_coeff", 4.0)),
            lin_beta_log_coeff=float(obj.get("lin_beta_log_coeff", 8.0)),
            lin_ridge=float(obj.get("lin_ridge", 1.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from exc
    epsilon = float(obj.get("epsilon", 0.3))
    if kind == "revenue_frictions":
        _require(0 < epsilon <= _EPSILON_MAX, f"{path}.epsilon", f"must lie in (0, {_EPSILON_MAX:g}]")
    return PolicySpec(
        kind=kind,
        confidence=conf,
        epsilon=epsilon,
        etc_pulls_per_pair=pulls,
    )


def _parse_agents(raw, path: str, count: int) -> tuple[int, ...]:
    """Distinct agent indices in [0, count)."""
    _require(isinstance(raw, list), path, "expected a list of agent indices")
    for k, x in enumerate(raw):
        _require(
            _of_type(x, int) and 0 <= x < count,
            f"{path}[{k}]",
            f"must be an agent index in [0, {count})",
        )
    _require(len(set(raw)) == len(raw), path, "repeats an agent index")
    return tuple(raw)


def _parse_arrival(obj: dict, path: str, n_c: int, n_p: int) -> ArrivalSpec:
    _take(obj, path, {"kind": str, "p": (int, float), "schedule": list})
    kind = obj.get("kind", "all")
    _require(kind in ("all", "iid_subset", "fixed"), f"{path}.kind", "must be all|iid_subset|fixed")
    if kind == "iid_subset":
        p = float(obj.get("p", 1.0))
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
    _take(obj, path, {"kind": str, "sigma": (int, float)})
    kind = obj.get("kind", "gaussian")
    _require(kind in ("gaussian", "bernoulli"), f"{path}.kind", "must be gaussian|bernoulli")
    sigma = float(obj.get("sigma", 1.0))
    _require(0 <= sigma <= _SIGMA_MAX, f"{path}.sigma", f"must lie in [0, {_SIGMA_MAX:g}]")
    return NoiseSpec(kind=kind, sigma=sigma)


def _parse_truth(obj: dict, path: str, n_c: int, n_p: int) -> UtilityMatrix:
    _take(obj, path, {"customer_values": list, "provider_values": list})
    _require("customer_values" in obj and "provider_values" in obj, path, "needs both value matrices")
    for key in ("customer_values", "provider_values"):
        _require(
            all(isinstance(row, list) and all(_of_type(x, (int, float)) for x in row) for row in obj[key]),
            f"{path}.{key}",
            "must be a list of rows of numbers",
        )
    try:
        truth = UtilityMatrix(np.asarray(obj["customer_values"]), np.asarray(obj["provider_values"]))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
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
        num_types=obj.get("num_types", 3),
        dim=obj.get("dim", 3),
        arrival=arrival,
        noise=noise,
        truth=truth,
    )


def read_json(path: str) -> tuple[object, str]:
    """The parsed JSON file and its text; an unreadable or malformed file raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return json.loads(text), text
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_config(path: str) -> SweepCell:
    return parse_config(read_json(path)[0])
