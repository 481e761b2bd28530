"""``run``'s replay pass moves no bit of a run.

While every agent arrives and the upper bounds stay bytewise those the
policy's memoised outcome was selected on, ``run`` plays the rounds that
replay the last one in one pass (``environment._replay``) instead of
``Policy.step``. Each run here must equal, in every trace column, recorded
outcome, ``info`` column, ``reused_rounds`` and block boundary, the same run
with ``Policy.step`` wrapped in a pass-through, which turns the pass off.
"""

import hashlib

import numpy as np
import pytest

from smbandits import environment as env
from smbandits import policies as pol
from smbandits.confidence import ConfidenceConfig, UnstructuredConfidence
from smbandits.market import Matching, UtilityMatrix

pytestmark = pytest.mark.byte_pinned

UCB, NTU = env.PolicySpec("match_ucb"), env.PolicySpec("match_ntu_ucb")
# At interval constant 1 a played upper bound leaves the clip at 1 within a few pulls, inside a pass.
NARROW = ConfidenceConfig(ucb_scale=1.0)


def market(n_c, n_p, noise, seed):
    """An unstructured market with all arrivals: Gaussian feedback on utilities in [-1, 1], or Bernoulli feedback
    on utilities in [0, 1]."""
    if noise == "gaussian":
        return env.gen_instance("unstructured", n_c, n_p, seed)
    rng = np.random.default_rng(seed)
    truth = UtilityMatrix(rng.uniform(0.0, 1.0, (n_c, n_p)), rng.uniform(0.0, 1.0, (n_p, n_c)))
    return env.MarketInstance(truth, env.UnstructuredClass(), env.ArrivalSpec(), env.NoiseSpec(kind="bernoulli"), seed)


def digest(trace) -> str:
    h = hashlib.sha256()
    for column in (
        trace.instability,
        trace.width_sum,
        trace.certified_bound,
        trace.revenue,
        trace.containment,
        trace.stable_truth,
        trace.bound_only,
    ):
        h.update(column.tobytes())
    for outcome in trace.outcomes or ():
        h.update(repr(outcome.matching.pairs).encode())
        h.update(outcome.customer_transfers.tobytes() + outcome.provider_transfers.tobytes())
    for key in sorted(trace.info or {}):
        h.update(key.encode() + trace.info[key].tobytes())
    h.update(f"{trace.reused_rounds} {trace.outcomes is None} {trace.info is None}".encode())
    return h.hexdigest()


def blocks_of(patch):
    """The number of rounds of each block ``run`` judges, as it judges them."""
    sizes = []
    containment = env._containment

    def counted(values, records, snaps):
        sizes.append(len(records))
        return containment(values, records, snaps)

    patch.setattr(env, "_containment", counted)
    return sizes


def with_pass(monkeypatch, instance, spec, horizon, record=True):
    """The run, its blocks and, per pass, the rounds it played and the rounds it was offered."""
    passes = []
    replay = env._replay

    def counted(conf, pos, values, noise, rng, horizon, rounds, records):
        widths = replay(conf, pos, values, noise, rng, horizon, rounds, records)
        passes.append((len(widths), rounds))
        return widths

    with monkeypatch.context() as patch:
        blocks = blocks_of(patch)
        patch.setattr(env, "_replay", counted)
        trace = env.run(instance, spec, horizon, record_outcomes=record)
    return trace, blocks, passes


def stepwise(monkeypatch, instance, spec, horizon, record=True):
    """The run with every round played through ``step``, and its blocks."""
    step = pol.Policy.step
    with monkeypatch.context() as patch:
        blocks = blocks_of(patch)
        patch.setattr(pol.Policy, "step", lambda policy, arrivals, feedback: step(policy, arrivals, feedback))
        trace = env.run(instance, spec, horizon, record_outcomes=record)
    return trace, blocks


def assert_same_run(monkeypatch, instance, spec, horizon, record=True):
    """Assert the pass moves no bit of the run; return its passes."""
    fast, fast_blocks, passes = with_pass(monkeypatch, instance, spec, horizon, record)
    slow, slow_blocks = stepwise(monkeypatch, instance, spec, horizon, record)
    assert digest(fast) == digest(slow)
    assert fast_blocks == slow_blocks
    return passes, fast


@pytest.mark.parametrize("noise", ["gaussian", "bernoulli"])
@pytest.mark.parametrize("spec", [UCB, NTU], ids=["ucb", "ntu"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1), (3, 3), (12, 12)], ids="{0[0]}x{0[1]}".format)
def test_pass_equals_stepwise(monkeypatch, shape, spec, noise):
    for seed in (0, 1):
        passes, trace = assert_same_run(monkeypatch, market(*shape, noise, seed), spec, 150)
        played = sum(p for p, _ in passes)
        assert played > 0 and trace.reused_rounds >= played


@pytest.mark.parametrize("spec", [UCB, NTU], ids=["ucb", "ntu"])
def test_hard_4x360(monkeypatch, spec):
    for seed in (0, 1):
        instance = env.gen_hard_instance(4, 1000, seed)
        passes, _ = assert_same_run(monkeypatch, instance, spec, 60)
        assert sum(p for p, _ in passes) > 0


@pytest.mark.parametrize("cap", [1, 2, 3, 60])
@pytest.mark.parametrize("limit", ["_BLOCK_CELLS", "_BLOCK_ROUNDS"])
@pytest.mark.parametrize("spec", [UCB, NTU], ids=["ucb", "ntu"])
def test_pass_stops_before_a_block_ends(monkeypatch, spec, limit, cap):
    monkeypatch.setattr(env, limit, cap)
    for shape, noise in [((1, 1), "gaussian"), ((1, 4), "bernoulli"), ((3, 3), "gaussian"), ((3, 3), "bernoulli")]:
        passes, _ = assert_same_run(monkeypatch, market(*shape, noise, 0), spec, 120)
        if cap == 60:
            assert sum(p for p, _ in passes) > 0


@pytest.mark.parametrize("spec", [UCB, NTU], ids=["ucb", "ntu"])
def test_without_recorded_outcomes(monkeypatch, spec):
    for shape in ((3, 3), (4, 1)):
        passes, trace = assert_same_run(monkeypatch, market(*shape, "gaussian", 2), spec, 150, record=False)
        assert trace.outcomes is None and sum(p for p, _ in passes) > 0


@pytest.mark.parametrize("noise", ["gaussian", "bernoulli"])
@pytest.mark.parametrize("spec", [env.PolicySpec("match_ucb", NARROW), env.PolicySpec("match_ntu_ucb", NARROW)])
def test_an_upper_bound_leaving_the_clip_ends_the_pass(monkeypatch, spec, noise):
    # A pass that stops inside its chunk of draws puts the noise stream back where the rounds it played leave it.
    cut = 0
    for seed in (0, 1, 2):
        passes, _ = assert_same_run(monkeypatch, market(3, 3, noise, seed), spec, 150)
        cut += sum(played < offered for played, offered in passes)
    assert cut > 0


def test_a_fold_from_negative_zero_to_zero_ends_the_pass():
    # A greedy learner (interval constant 0) on a cell of zero utility folds its upper bound to 0.0 every round:
    # equal in value to -0.0, yet a fresh selection would read other bytes.
    conf = UnstructuredConfidence(1, 1, ConfidenceConfig(ucb_scale=0.0))
    pos = conf._positions(Matching([(0, 0)]))
    conf.hi[pos] = -0.0
    rng, records = np.random.default_rng(0), []
    widths = env._replay(conf, pos, np.zeros(2), env.NoiseSpec(kind="bernoulli"), rng, 10, 5, records)
    assert widths == [2.0] and records == []
    assert conf.hi.tobytes() == np.zeros(2).tobytes() and conf.written is pos
    expected = np.random.default_rng(0)
    expected.random(2)
    assert rng.bit_generator.state == expected.bit_generator.state
    # From 0.0 on, the bound holds: the pass plays every round it is offered.
    assert env._replay(conf, pos, np.zeros(2), env.NoiseSpec(kind="bernoulli"), rng, 10, 5, records) == [0.0] * 5
    assert len(records) == 4


def test_a_replaced_hook_turns_the_pass_off(monkeypatch):
    instance = market(3, 3, "gaussian", 0)
    for owner, name in [
        (pol.MatchUcbPolicy, "_select"),
        (pol.Policy, "_learn"),
        (pol.Policy, "_memo"),
        (UnstructuredConfidence, "_apply"),
        (UnstructuredConfidence, "width_sum"),
        (pol, "compute_match"),
    ]:
        original = getattr(owner, name)
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, lambda *args, original=original: original(*args))
            _, _, passes = with_pass(monkeypatch, instance, UCB, 100)
        assert passes == [], name
