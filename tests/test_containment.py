"""The containment column of ``run``, kept from the buffer positions each
update rewrote, equals a full ``contains`` check of the sets taken before
every round; and the per-orientation interval matrices stay views of the
flat buffers through every writer."""

import numpy as np
import pytest
from test_environment import OracleSpec

from smbandits import environment as env
from smbandits import policies as pol
from smbandits.confidence import (
    ConfidenceConfig,
    LinearConfidence,
    TypedConfidence,
    UnstructuredConfidence,
)
from smbandits.market import Matching

NARROW = ConfidenceConfig(ucb_scale=0.05)
SMALL_NOISE = env.NoiseSpec(sigma=0.05)
IID = env.ArrivalSpec(kind="iid_subset", probability=0.6)

# name: (instance for a seed, policy spec, horizon)
CELLS = {
    "ucb_3x3": (lambda s: env.gen_instance("unstructured", 3, 3, s), env.PolicySpec("match_ucb"), 300),
    "hard_8x800": (lambda s: env.gen_hard_instance(8, 2000, s), env.PolicySpec("match_ucb"), 30),
    "iid_5x9": (lambda s: env.gen_instance("unstructured", 5, 9, s, arrival=IID), env.PolicySpec("match_ucb"), 200),
    "typed_12": (lambda s: env.gen_instance("typed", 12, 12, s), env.PolicySpec("match_typed_ucb"), 60),
    "linear_12": (lambda s: env.gen_instance("linear", 12, 12, s), env.PolicySpec("match_lin_ucb"), 30),
    # Three pulls per pair: about ten exploration rounds, then the committed phase.
    "etc_3x3": (
        lambda s: env.gen_instance("unstructured", 3, 3, s),
        env.PolicySpec("etc", etc_pulls_per_pair=3),
        100,
    ),
    "oracle_3x3": (lambda s: env.gen_instance("unstructured", 3, 3, s), OracleSpec(), 50),
    # Narrow intervals around small noise: the column flips both ways.
    "narrow_ucb_3x3": (
        lambda s: env.gen_instance("unstructured", 3, 3, s, noise=SMALL_NOISE),
        env.PolicySpec("match_ucb", NARROW),
        400,
    ),
    "narrow_ntu_3x3": (
        lambda s: env.gen_instance("unstructured", 3, 3, s, noise=SMALL_NOISE),
        env.PolicySpec("match_ntu_ucb", NARROW),
        400,
    ),
    "narrow_iid_5x9": (
        lambda s: env.gen_instance("unstructured", 5, 9, s, arrival=IID, noise=SMALL_NOISE),
        env.PolicySpec("match_ucb", NARROW),
        400,
    ),
}


def containment_and_full_checks(monkeypatch, instance, spec, horizon):
    """``run``'s containment column, ``contains`` taken before every step,
    and whether an ``etc`` policy had committed before each step."""
    full, committed = [], []
    step = pol.Policy.step

    def checked_step(policy, arrivals, feedback):
        full.append(policy.conf.contains(instance.truth))
        committed.append(getattr(policy, "committed", False))
        return step(policy, arrivals, feedback)

    with monkeypatch.context() as patch:
        patch.setattr(pol.Policy, "step", checked_step)
        trace = env.run(instance, spec, horizon)
    return trace.containment, np.array(full), committed


@pytest.mark.parametrize("name", sorted(CELLS))
def test_containment_equals_full_check(monkeypatch, name):
    make, spec, horizon = CELLS[name]
    flips = set()
    for seed in (0, 1):
        kept, full, committed = containment_and_full_checks(monkeypatch, make(seed), spec, horizon)
        np.testing.assert_array_equal(kept, full, err_msg=f"{name} seed {seed}")
        flips.update(zip(kept[:-1].tolist(), kept[1:].tolist()))
        if name == "etc_3x3":
            assert 9 <= committed.index(True) < horizon - 9
    if name.startswith("narrow"):
        assert {(True, False), (False, True)} <= flips


def views_share_buffers(conf):
    size = conf.num_customers * conf.num_providers
    for view, buffer, block in (
        (conf.lo_c, conf.lo, slice(None, size)),
        (conf.hi_c, conf.hi, slice(None, size)),
        (conf.lo_p, conf.lo, slice(size, None)),
        (conf.hi_p, conf.hi, slice(size, None)),
    ):
        assert np.shares_memory(view, buffer)
        assert view.tobytes() == buffer[block].tobytes()


# Narrow enough that one update moves the upper bounds below 1.
TIGHT = ConfidenceConfig(ucb_scale=0.3, lin_beta_d_coeff=0.02, lin_beta_log_coeff=0.02)
SETS = {
    "unstructured": lambda: UnstructuredConfidence(3, 4, TIGHT),
    "typed": lambda: TypedConfidence(np.array([0, 1, 1]), np.array([1, 0, 2, 1]), 3, TIGHT),
    "linear": lambda: LinearConfidence(np.full((3, 2), 0.5), np.full((4, 2), 0.25), TIGHT),
}


@pytest.mark.parametrize("kind", sorted(SETS))
def test_views_stay_views(kind):
    conf = SETS[kind]()
    truth = env.gen_instance("unstructured", 3, 4, 0).truth
    views_share_buffers(conf)
    matching = Matching([(0, 1), (2, 3)])
    conf.update(matching, (np.array([-0.3, -0.2]), np.array([0.1, -0.4])), 100)
    views_share_buffers(conf)
    # An update rewrites cells; the views see it.
    assert conf.hi_c[0, 1] < 1.0 and conf.hi_p[3, 2] < 1.0
    conf.collapse_to(truth)
    views_share_buffers(conf)
    np.testing.assert_array_equal(conf.lo_c, truth.customer_values)
    np.testing.assert_array_equal(conf.hi_p, truth.provider_values)
    conf.update(matching, (np.array([0.9, 0.9]), np.array([0.9, 0.9])), 100)
    views_share_buffers(conf)
