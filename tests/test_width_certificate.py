"""The width certificate holds on every policy kind.

A round's ``certified_bound`` bounds its instability whenever the confidence
sets contain the truth: the width sum of the played matching for an outcome
stable for the upper bounds, twice it on ``match_ucb_prime``'s expanded
branch. Criterion 4 checks this on 3x3 ``match_ucb`` only; the property below
draws the policy kind, the shape, the interval constant and the arrivals.

``etc`` plays forced pairs with zero transfers while it explores. Such an
outcome is not stable for the upper bounds, and the width of its pairs bounds
nothing, so the property holds ``etc`` to its committed rounds only;
``test_etc_exploration_round_bound`` records a round where the width falls
short.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smbandits import environment as env
from smbandits import policies as pol
from smbandits.confidence import ConfidenceConfig

CLASS = {"match_typed_ucb": "typed", "match_lin_ucb": "linear"}
ARRIVALS = (env.ArrivalSpec(), env.ArrivalSpec(kind="iid_subset", probability=0.5))
# Round 90 of this cell is contained, expanded, and more unstable than its width.
EXPANDED = dict(kind="match_ucb_prime", n_c=2, n_p=2, constant=1.0, arrival=ARRIVALS[1], seed=1, horizon=100)


def certified_rounds(kind, n_c, n_p, constant, arrival, seed, horizon):
    """The trace, and the rounds the certificate covers: contained, not
    ``bound_only`` and, for ``etc``, committed."""
    instance = env.gen_instance(CLASS.get(kind, "unstructured"), n_c, n_p, seed, arrival=arrival)
    spec = env.PolicySpec(kind, ConfidenceConfig(ucb_scale=constant))
    committed = []
    select = pol.EtcPolicy._select

    def recording_select(self, arrivals):
        decision = select(self, arrivals)
        committed.append(self.committed)
        return decision

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pol.EtcPolicy, "_select", recording_select)
        trace = env.run(instance, spec, horizon)
    covered = trace.containment & ~trace.bound_only
    if kind == "etc":
        covered &= np.array(committed)
    return trace, covered


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


@pytest.mark.xfail(strict=True, reason="etc reports its width as the bound of a forced exploration round")
def test_etc_exploration_round_bound():
    trace, _ = certified_rounds("etc", 2, 3, 8.0, ARRIVALS[1], 1, 60)
    contained = trace.containment & ~trace.bound_only
    assert (trace.instability[contained] <= trace.certified_bound[contained] + 1e-9).all()
