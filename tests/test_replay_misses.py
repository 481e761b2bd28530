"""The replay pass counts the containment of the rounds it plays, misses included.

With Bernoulli truths near 1 and interval constant 0.1, a played upper bound
sits clipped at 1 while its lower bound rises above the truth: the pass keeps
replaying rounds whose played intervals miss it. Each run here must equal, in
every trace column, the same run played round by round through ``step``, and
the rounds whose containment the pass counts must include the case tested.
"""

import numpy as np
import pytest
from test_replay_pass import digest

from smbandits import environment as env
from smbandits import policies as pol
from smbandits.confidence import ConfidenceConfig
from smbandits.market import TOL, UtilityMatrix

pytestmark = pytest.mark.byte_pinned

def ucb(scale):
    return env.PolicySpec("match_ucb", ConfidenceConfig(ucb_scale=scale))


def near_one(n_c, n_p, seed, low=0.9):
    """A market with every utility drawn from U[low, 1], all arrivals and Bernoulli feedback."""
    rng = np.random.default_rng(seed)
    truth = UtilityMatrix(rng.uniform(low, 1.0, (n_c, n_p)), rng.uniform(low, 1.0, (n_p, n_c)))
    return env.MarketInstance(truth, env.UnstructuredClass(), env.ArrivalSpec(), env.NoiseSpec(kind="bernoulli"), seed)


def with_passes(monkeypatch, instance, spec, horizon):
    """The run with its replay pass, and each pass as its first round, the rounds it played and the positions it
    played at. The pass counts the containment of its rounds but the first, whose record ``run`` takes before it."""
    blocks, passes = [], []
    replay, containment = env._replay, env._containment

    def judged(values, records, snaps):
        blocks.append(len(records))
        return containment(values, records, snaps)

    def played(conf, pos, values, noise, rng, horizon, rounds, records):
        t = sum(blocks) + len(records) - 1  # one record per round, the pass's first round last
        widths = replay(conf, pos, values, noise, rng, horizon, rounds, records)
        passes.append((t, len(widths), pos))
        return widths

    with monkeypatch.context() as patch:
        patch.setattr(env, "_containment", judged)
        patch.setattr(env, "_replay", played)
        trace = env.run(instance, spec, horizon, record_outcomes=True)
    return trace, passes


def stepwise_with_flags(monkeypatch, instance, spec, horizon):
    """The run with every round played through ``step``, and each round's flags: whether each interval held the
    truth within TOL before the round."""
    flags, step = [], pol.Policy.step
    values = np.concatenate((instance.truth.customer_values, instance.truth.provider_values), axis=None)

    def checked(policy, arrivals, feedback):
        flags.append((policy.conf.lo - TOL <= values) & (values <= policy.conf.hi + TOL))
        return step(policy, arrivals, feedback)

    with monkeypatch.context() as patch:
        patch.setattr(pol.Policy, "step", checked)
        trace = env.run(instance, spec, horizon, record_outcomes=True)
    return trace, flags


def same_run(monkeypatch, instance, spec, horizon):
    """Assert the pass moves no bit of the run; return its passes and the stepwise run's flags."""
    fast, passes = with_passes(monkeypatch, instance, spec, horizon)
    slow, flags = stepwise_with_flags(monkeypatch, instance, spec, horizon)
    assert digest(fast) == digest(slow)
    return passes, flags


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (3, 3)], ids="{0[0]}x{0[1]}".format)
def test_pass_rounds_that_miss_the_truth(monkeypatch, shape):
    counted = missed = 0
    for seed in range(4):
        passes, flags = same_run(monkeypatch, near_one(*shape, seed), ucb(0.1), 400)
        rounds = [(r, pos) for t, played, pos in passes for r in range(t + 1, t + played)]
        counted += len(rounds)
        missed += sum(not flags[r][pos].all() for r, pos in rounds)
    assert 0 < missed < counted


@pytest.mark.parametrize(
    "shape, seed, scale", [((1, 1), 5, 0.05), ((3, 3), 4, 0.1)], ids=["1x1_seed5_scale0.05", "3x3_seed4_scale0.1"]
)
def test_pass_that_starts_on_a_miss_and_comes_to_contain(monkeypatch, shape, seed, scale):
    # A played lower bound above the truth when the pass starts falls below it within the pass, the upper bound
    # still clipped at 1: the misses of the pass's first round must not carry into such a round.
    passes, flags = same_run(monkeypatch, near_one(*shape, seed, low=0.95), ucb(scale), 600)
    assert any(
        not flags[t][pos].all() and any(flags[r][pos].all() for r in range(t + 1, t + played))
        for t, played, pos in passes
    )
