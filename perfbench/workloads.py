"""Benchmark workloads: cells, score mixes and the inputs built from a seed.

A workload runs fixed *cycles*. One cycle is one replica of every cell
followed by every score command of one of the workload's score sets (each
set has the same mix of shapes, on different inputs). The timed loop runs
whole cycles until its time is up, so every run keeps the same mix.

Every workload carries both kinds of operation, because every end-to-end
metric has to be measured on every workload; the mix puts the workload's
named layer in front (see README.md for the reasons and the predictions).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from smbandits import environment as env
from smbandits.confidence import ConfidenceConfig
from smbandits.market import UtilityMatrix, max_weight_matching_with_duals, stable_outcome_from_duals

# Cycle 0 of every run uses this seed for every cell, and its final
# cumulative regret must match REFERENCE_REGRET within REFERENCE_RTOL.
REFERENCE_SEED = 0
# Relative tolerance of the reference check: absorbs summation-order
# differences in the last bits, but not a change of any matching played.
REFERENCE_RTOL = 1e-6


@dataclass(frozen=True)
class Cell:
    """One simulated market and policy; ``klass`` "hard" is gen_hard_instance(K, size_horizon)."""

    name: str
    klass: str
    size: tuple[int, int]  # (customers, providers); (K, size_horizon) for "hard"
    policy: str
    horizon: int
    arrival: env.ArrivalSpec = env.ArrivalSpec()
    ucb_scale: float = 8.0

    def spec(self) -> env.PolicySpec:
        return env.PolicySpec(self.policy, ConfidenceConfig(ucb_scale=self.ucb_scale))

    def instance(self, seed: int) -> env.MarketInstance:
        return _instance(self.klass, self.size, seed, self.arrival)


@dataclass(frozen=True)
class ScoreKind:
    """``count`` score commands per cycle on distinct inputs of one shape."""

    name: str
    klass: str  # unstructured | typed | linear | hard
    size: tuple[int, int]
    ntu: bool
    count: int
    noise: float  # std-dev of the estimation error behind the scored outcome


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    scores: tuple[ScoreKind, ...]
    pool: int  # distinct cycles of replica seeds; the loop wraps around after it
    score_sets: int = 1  # distinct score mixes; cycle k runs mix k % score_sets


_IID_HALF = env.ArrivalSpec(kind="iid_subset", probability=0.5)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small_square",
            cells=(
                Cell("ucb_3x3", "unstructured", (3, 3), "match_ucb", 300),
                # Interval constant 1 as in acceptance criterion 7: with the
                # default 8 every round of this horizon takes the fallback branch.
                Cell("ucb_prime_3x3", "unstructured", (3, 3), "match_ucb_prime", 300, ucb_scale=1.0),
                Cell("ntu_3x3", "unstructured", (3, 3), "match_ntu_ucb", 300),
            ),
            scores=(
                ScoreKind("tu_3x3", "unstructured", (3, 3), False, 6, 0.3),
                ScoreKind("ntu_3x3", "unstructured", (3, 3), True, 2, 0.3),
            ),
            pool=128,
            # 3x3 score latency depends on the input; rotating through 64
            # inputs keeps the latency percentiles from hanging on eight.
            score_sets=8,
        ),
        Workload(
            "structured_12",
            cells=(
                Cell("typed_12", "typed", (12, 12), "match_typed_ucb", 200),
                Cell("lin_12", "linear", (12, 12), "match_lin_ucb", 200),
                Cell("ucb_12", "unstructured", (12, 12), "match_ucb", 200),
                Cell("ucb_iid_12", "unstructured", (12, 12), "match_ucb", 200, _IID_HALF),
            ),
            scores=(
                ScoreKind("tu_typed_12", "typed", (12, 12), False, 3, 0.3),
                ScoreKind("tu_lin_12", "linear", (12, 12), False, 3, 0.3),
                ScoreKind("tu_12", "unstructured", (12, 12), False, 2, 0.3),
            ),
            pool=128,
        ),
        Workload(
            "imbalanced_hard",
            cells=(
                # size_horizon 1000 gives 4x360 and 2000 gives 8x800 markets;
                # the replica horizon is shorter so that a run sees many replicas.
                Cell("hard_k4", "hard", (4, 1000), "match_ucb", 100),
                Cell("hard_k8", "hard", (8, 2000), "match_ucb", 40),
            ),
            scores=(ScoreKind("tu_hard_k4", "hard", (4, 1000), False, 12, 0.1),),
            pool=32,
        ),
        Workload(
            "score_batch",
            cells=(Cell("ucb_3x3", "unstructured", (3, 3), "match_ucb", 50),),
            # Counts put p50 inside the 12x12 band and p90 inside the 4x360
            # band of the latency distribution, away from band edges.
            scores=(
                ScoreKind("ntu_3x3", "unstructured", (3, 3), True, 1, 0.3),
                ScoreKind("ntu_4x4", "unstructured", (4, 4), True, 1, 0.3),
                ScoreKind("ntu_5x5", "unstructured", (5, 5), True, 1, 0.3),
                ScoreKind("ntu_6x6", "unstructured", (6, 6), True, 2, 0.3),
                ScoreKind("tu_3x3", "unstructured", (3, 3), False, 3, 0.3),
                ScoreKind("tu_12", "unstructured", (12, 12), False, 4, 0.3),
                ScoreKind("tu_40", "unstructured", (40, 40), False, 4, 0.3),
                ScoreKind("tu_hard_k4", "hard", (4, 1000), False, 4, 0.1),
            ),
            pool=512,
        ),
    )
}

# Final cumulative regret of each cell's replica on REFERENCE_SEED.
REFERENCE_REGRET = {
    "small_square": {
        "ucb_3x3": 1079.4596046511049,
        "ucb_prime_3x3": 402.2876388472793,
        "ntu_3x3": 871.9117634324695,
    },
    "structured_12": {
        "typed_12": 2284.603586612313,
        "lin_12": 998.1697038981812,
        "ucb_12": 2842.573695434271,
        "ucb_iid_12": 1318.4419820239584,
    },
    "imbalanced_hard": {"hard_k4": 400.0, "hard_k8": 320.0},
    "score_batch": {"ucb_3x3": 297.7054253146123},
}


@dataclass(frozen=True)
class ScoreInput:
    kind: ScoreKind
    instance_path: str
    outcome_path: str
    truth: UtilityMatrix
    matching: tuple[tuple[int, int], ...]
    customer_transfers: np.ndarray
    provider_transfers: np.ndarray


@dataclass
class Inputs:
    """Everything a run needs, generated from the workload seed."""

    workload: Workload
    cycles: list[list[tuple[Cell, env.MarketInstance]]]
    score_sets: list[list[ScoreInput]]


def _instance(
    klass: str, size: tuple[int, int], seed: int, arrival: env.ArrivalSpec | None = None
) -> env.MarketInstance:
    if klass == "hard":
        return env.gen_hard_instance(size[0], size[1], seed)
    return env.gen_instance(klass, size[0], size[1], seed, arrival=arrival)


def _score_input(kind: ScoreKind, seed: int, rng: np.random.Generator, out_dir: Path, tag: str) -> ScoreInput:
    """An instance file and the outcome a learner with noisy estimates would play.

    The outcome is stable for utilities perturbed by Gaussian noise, so it is
    close to, but not, stable for the truth; the NTU variant keeps the
    matching and drops the transfers.
    """
    instance = _instance(kind.klass, kind.size, seed)
    truth = instance.truth
    estimate = UtilityMatrix(
        truth.customer_values + rng.normal(0.0, kind.noise, truth.customer_values.shape),
        truth.provider_values + rng.normal(0.0, kind.noise, truth.provider_values.shape),
    )
    matching, prices = max_weight_matching_with_duals(estimate)
    outcome = stable_outcome_from_duals(estimate, matching, prices)
    if kind.ntu:
        tau_c = np.zeros(truth.num_customers)
        tau_p = np.zeros(truth.num_providers)
    else:
        tau_c, tau_p = outcome.customer_transfers, outcome.provider_transfers
    instance_path = out_dir / f"{tag}_instance.json"
    outcome_path = out_dir / f"{tag}_outcome.json"
    instance_path.write_text(json.dumps(instance.snapshot()), encoding="utf-8")
    payload = {"matching": [list(p) for p in matching.pairs], "ntu": kind.ntu}
    if not kind.ntu:
        payload["customer_transfers"] = tau_c.tolist()
        payload["provider_transfers"] = tau_p.tolist()
    outcome_path.write_text(json.dumps(payload), encoding="utf-8")
    return ScoreInput(kind, str(instance_path), str(outcome_path), truth, matching.pairs, tau_c, tau_p)


def build(name: str, seed: int, out_dir: Path) -> Inputs:
    """Generate the replica instances and write the score files for one run."""
    workload = WORKLOADS[name]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    seeds = rng.integers(1, 2**62, size=(workload.pool, len(workload.cells)))
    seeds[0] = REFERENCE_SEED
    cycles = [
        [(cell, cell.instance(int(s))) for cell, s in zip(workload.cells, row)] for row in seeds
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    score_sets = []
    for j in range(workload.score_sets):
        scores = []
        for kind in workload.scores:
            for k in range(kind.count):
                tag = f"{kind.name}_{j}_{k}"
                scores.append(_score_input(kind, int(rng.integers(1, 2**62)), rng, out_dir, tag))
        score_sets.append(scores)
    return Inputs(workload, cycles, score_sets)
