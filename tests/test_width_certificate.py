"""The width certificate holds on every policy kind.

A round's ``certified_bound`` bounds its instability whenever the confidence
sets contain the truth: the width sum of the played matching for an outcome
stable for the upper bounds, twice it on ``match_ucb_prime``'s expanded
branch. Criterion 4 checks this on 3x3 ``match_ucb`` only; the property below
draws the policy kind, the shape, the interval constant and the arrivals.

``etc`` plays forced pairs with zero transfers while it explores. Such an
outcome is not stable for the upper bounds, so its bound is the metric of the
arrived joint upper bounds against the matched payoffs at the lower bounds;
``test_etc_exploration_round_bound`` pins rounds where the width of the
forced pairs falls short of the instability.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smbandits import environment as env
from smbandits.confidence import ConfidenceConfig

CLASS = {"match_typed_ucb": "typed", "match_lin_ucb": "linear"}
ARRIVALS = (env.ArrivalSpec(), env.ArrivalSpec(kind="iid_subset", probability=0.5))
# Round 90 of this cell is contained, expanded, and more unstable than its width.
EXPANDED = dict(kind="match_ucb_prime", n_c=2, n_p=2, constant=1.0, arrival=ARRIVALS[1], seed=1, horizon=100)


def certified_rounds(kind, n_c, n_p, constant, arrival, seed, horizon):
    """The trace, and the rounds the certificate covers: contained and not ``bound_only``."""
    instance = env.gen_instance(CLASS.get(kind, "unstructured"), n_c, n_p, seed, arrival=arrival)
    trace = env.run(instance, env.PolicySpec(kind, ConfidenceConfig(ucb_scale=constant)), horizon)
    return trace, trace.containment & ~trace.bound_only


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(env.POLICY_KINDS)),
    n_c=st.integers(1, 4),
    n_p=st.integers(1, 4),
    constant=st.sampled_from((8.0, 1.0, 0.25)),
    arrival=st.sampled_from(ARRIVALS),
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 200),
)
@example(**EXPANDED)
def test_instability_within_certified_bound(kind, n_c, n_p, constant, arrival, seed, horizon):
    trace, covered = certified_rounds(kind, n_c, n_p, constant, arrival, seed, horizon)
    assert (trace.instability[covered] <= trace.certified_bound[covered] + 1e-9).all()


def test_expanded_example_needs_twice_the_width():
    trace, covered = certified_rounds(**EXPANDED)
    expanded = covered & (trace.info["branch"] == "expanded")
    assert (trace.instability[expanded] > trace.width_sum[expanded] + 1e-9).any()


@pytest.mark.parametrize(
    "n_c, n_p, constant, arrival, seed",
    [
        # Ten contained rounds play the empty matching: no forced pair arrived.
        (2, 3, 8.0, ARRIVALS[1], 1),
        # A negative pair value: two rounds are more unstable than their width.
        (1, 1, 0.25, ARRIVALS[0], 0),
    ],
)
def test_etc_exploration_round_bound(n_c, n_p, constant, arrival, seed):
    trace, covered = certified_rounds("etc", n_c, n_p, constant, arrival, seed, 60)
    assert (trace.instability[covered] <= trace.certified_bound[covered] + 1e-9).all()
    assert (trace.instability[covered] > trace.width_sum[covered] + 1e-9).sum() >= 2
