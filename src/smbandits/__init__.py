"""Matching markets with transfers, instability metrics, and UCB-style policies."""

from .confidence import ConfidenceConfig, ConfidenceSets, LinearConfidence, TypedConfidence, UnstructuredConfidence
from .environment import (
    ArrivalSpec,
    MarketInstance,
    NoiseSpec,
    POLICY_KINDS,
    PolicySpec,
    RegretTrace,
    gen_hard_instance,
    gen_instance,
    run,
    sweep,
)
from .errors import (
    ConfigError,
    InvalidContext,
    InvalidOutcome,
    NoAlternative,
    ProtocolViolation,
    SmbError,
    TooLarge,
    UncertifiedDuals,
)
from .instability import (
    InstabilityReport,
    NtuInstabilityReport,
    max_unhappiness_coalition,
    min_stabilizing_subsidy,
    ntu_subset_instability,
    ntu_subset_instability_bruteforce,
    subset_instability,
    subset_instability_and_stability,
    subset_instability_bruteforce,
    subset_instability_value,
    utility_difference,
)
from .market import (
    Matching,
    MarketOutcome,
    UtilityMatrix,
    is_stable_ntu,
    is_stable_tu,
    max_weight_matching_with_duals,
    payoff_inequalities_hold,
    second_best_matching,
)
from .policies import (
    RoundDecision,
    compute_match,
    compute_match_ntu,
    compute_match_prime,
)

__all__ = [name for name in dir() if not name.startswith("_")]
