"""The batched confidence updates equal, to the last bit, a per-observation
reference: the one-agent-at-a-time loops the batched forms replace."""

import math

import numpy as np
import pytest
from conftest import trace_digest

from smbandits import environment as env
from smbandits.confidence import (
    ConfidenceConfig,
    LinearConfidence,
    TypedConfidence,
    UnstructuredConfidence,
)
from smbandits.market import Matching

pytestmark = pytest.mark.byte_pinned

NARROW = ConfidenceConfig(ucb_scale=0.3, lin_beta_d_coeff=0.02, lin_beta_log_coeff=0.02)


def clip_interval(mean, hw):
    lo = max(-1.0, mean - hw)
    hi = min(1.0, mean + hw)
    if lo > hi:
        pinned = max(-1.0, min(1.0, mean))
        return pinned, pinned
    return lo, hi


def reference_unstructured(conf, pairs, r_c, r_p, horizon):
    log_term = math.log(max(conf.num_agents * horizon, 2))
    n_c, n_p = conf.num_customers, conf.num_providers
    for k, (i, j) in enumerate(pairs):
        # The flat buffers hold the (n_c, n_p) customer-side block, then the
        # (n_p, n_c) provider-side block.
        c, p = i * n_p + j, n_c * n_p + j * n_c + i
        n = conf.counts[c] + 1
        conf.counts[c] = conf.counts[p] = n
        conf.mean[c] += (float(r_c[k]) - conf.mean[c]) / n
        conf.mean[p] += (float(r_p[k]) - conf.mean[p]) / n
        hw = conf.config.ucb_scale * math.sqrt(log_term / n)
        conf.lo[c], conf.hi[c] = clip_interval(conf.mean[c], hw)
        conf.lo[p], conf.hi[p] = clip_interval(conf.mean[p], hw)


def reference_typed(conf, pairs, r_c, r_p, horizon):
    log_term = math.log(max(conf.num_agents * horizon, 2))
    for k, (i, j) in enumerate(pairs):
        tc = conf.customer_types[i]
        tp = conf.provider_types[j]
        for (x, y), r in (((tc, tp), float(r_c[k])), ((tp, tc), float(r_p[k]))):
            n = conf.type_counts[x, y] + 1
            conf.type_counts[x, y] = n
            conf.type_mean[x, y] += (r - conf.type_mean[x, y]) / n
            hw = conf.config.ucb_scale * math.sqrt(log_term / n)
            conf.type_lo[x, y], conf.type_hi[x, y] = clip_interval(conf.type_mean[x, y], hw)
    tc, tp = conf.customer_types, conf.provider_types
    conf.lo_c[:] = conf.type_lo[np.ix_(tc, tp)]
    conf.hi_c[:] = conf.type_hi[np.ix_(tc, tp)]
    conf.lo_p[:] = conf.type_lo[np.ix_(tp, tc)]
    conf.hi_p[:] = conf.type_hi[np.ix_(tp, tc)]


def reference_linear(conf, pairs, r_c, r_p, horizon):
    """One agent at a time; returns how many estimates were projected onto the ball."""
    n_c = conf.num_customers
    updated = []
    for k, (i, j) in enumerate(pairs):
        for slot, ctx, r in ((i, conf.provider_contexts[j], r_c[k]), (n_c + j, conf.customer_contexts[i], r_p[k])):
            conf.V[slot] += np.outer(ctx, ctx)
            conf.b[slot] += float(r) * ctx
            updated.append(slot)
    projected = 0
    for slot in updated:
        phi = np.linalg.solve(conf.V[slot], conf.b[slot])
        norm = np.linalg.norm(phi)
        if norm > 1.0:
            phi = phi / norm
            projected += 1
        customer_side = slot < n_c
        partners = conf.provider_contexts if customer_side else conf.customer_contexts
        if partners.shape[0] == 0:
            continue
        center = partners @ phi
        vinv = np.linalg.inv(conf.V[slot])
        bonus = np.sqrt(conf.beta(horizon)) * np.sqrt(np.einsum("nd,de,ne->n", partners, vinv, partners))
        lo, hi = (conf.lo_c, conf.hi_c) if customer_side else (conf.lo_p, conf.hi_p)
        row = slot if customer_side else slot - n_c
        lo[row] = np.maximum(-1.0, center - bonus)
        hi[row] = np.minimum(1.0, center + bonus)
    return projected


def unit_rows(rng, count, dim):
    x = rng.normal(size=(count, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True) * rng.uniform(0.3, 1.0, (count, 1))


def random_round(rng, n_c, n_p):
    """A random matching, empty about one round in eight, and its rewards;
    some rewards lie far outside [-1, 1] to reach the pinning and projection branches."""
    k = 0 if rng.random() < 0.125 else int(rng.integers(1, min(n_c, n_p) + 1))
    pairs = Matching(zip(rng.permutation(n_c)[:k].tolist(), rng.permutation(n_p)[:k].tolist())).pairs
    scale = 4.0 if rng.random() < 0.2 else 1.0
    return pairs, rng.normal(0.2, scale, k), rng.normal(-0.1, scale, k)


def assert_same_state(got, want, names):
    for name in names + ("lo_c", "hi_c", "lo_p", "hi_p"):
        # Unstructured counts and means are Python lists: compared as the arrays they convert to.
        g, w = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        np.testing.assert_array_equal(g, w, err_msg=name)
        # Bytes too: equal values may still differ in the sign of a zero.
        assert (g.dtype, g.tobytes()) == (w.dtype, w.tobytes()), name


def play(make, reference, names, rng, n_c, n_p, rounds=40):
    """Play random rounds on the batched update and on ``reference``; return
    the reference's results and the matchings' sizes."""
    got, want = make(), make()
    horizon = int(rng.integers(10, 1000))
    results, sizes = [], []
    for _ in range(rounds):
        pairs, r_c, r_p = random_round(rng, n_c, n_p)
        got.update(Matching(pairs), (r_c, r_p), horizon)
        results.append(reference(want, pairs, r_c, r_p, horizon))
        sizes.append(len(pairs))
        assert_same_state(got, want, names)
    return results, sizes


@pytest.mark.parametrize("seed", range(6))
def test_unstructured_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n_c, n_p = (int(x) for x in rng.integers(1, 9, 2))
    play(
        lambda: UnstructuredConfidence(n_c, n_p, NARROW),
        reference_unstructured,
        ("counts", "mean"),
        rng, n_c, n_p,
    )


@pytest.mark.parametrize("shape", [(1, 8), (8, 1)], ids=["1x8", "8x1"])
@pytest.mark.parametrize("config", [NARROW, ConfidenceConfig()], ids=["narrow", "default"])
def test_unstructured_single_row_or_column_matches_reference(shape, config):
    rng = np.random.default_rng(shape[0])
    play(lambda: UnstructuredConfidence(*shape, config), reference_unstructured, ("counts", "mean"), rng, *shape)


def play_given(conf_for, rounds, horizon=100):
    """Play the given ``(pairs, r_c, r_p)`` rounds on the update and on the
    reference, comparing state after each; return the updated sets."""
    got, want = conf_for(), conf_for()
    for pairs, r_c, r_p in rounds:
        r_c, r_p = np.array(r_c, dtype=float), np.array(r_p, dtype=float)
        got.update(Matching(pairs), (r_c, r_p), horizon)
        reference_unstructured(want, pairs, r_c, r_p, horizon)
        assert_same_state(got, want, ("counts", "mean"))
    return got


def reward_landing_on(bound, hw):
    """A first reward r with r + hw (bound 1) or r - hw (bound -1) exactly ``bound`` in floats."""
    start = bound - math.copysign(hw, bound)
    for r in (start, math.nextafter(start, math.inf), math.nextafter(start, -math.inf)):
        if (r + hw if bound > 0 else r - hw) == bound:
            return r
    raise AssertionError(f"no reward lands on {bound} with half-width {hw!r}")


DIAGONAL = ((0, 0), (1, 1))


@pytest.mark.parametrize("horizon", [10, 100, 1000, 5000])
def test_unstructured_bounds_landing_exactly_on_one(horizon):
    config = ConfidenceConfig(ucb_scale=0.3)
    hw = config.ucb_scale * math.sqrt(math.log(4 * horizon))
    top, bottom = reward_landing_on(1.0, hw), reward_landing_on(-1.0, hw)
    conf = play_given(lambda: UnstructuredConfidence(2, 2, config), [(DIAGONAL, [top, bottom], [bottom, top])], horizon)
    assert conf.hi_c[0, 0] == conf.hi_p[1, 1] == 1.0 and conf.lo_c[0, 0] == top - hw
    assert conf.lo_c[1, 1] == conf.lo_p[0, 0] == -1.0 and conf.hi_c[1, 1] == bottom + hw
    # Without a width the interval is the mean itself, here exactly on the bounds.
    flat = ConfidenceConfig(ucb_scale=0.0)
    conf = play_given(lambda: UnstructuredConfidence(2, 2, flat), [(DIAGONAL, [1.0, -1.0], [-1.0, 1.0])] * 3, horizon)
    assert conf.lo_c[0, 0] == conf.hi_c[0, 0] == 1.0 and conf.lo_c[1, 1] == conf.hi_c[1, 1] == -1.0


@pytest.mark.parametrize("reward, pinned", [(5.0, 1.0), (-5.0, -1.0)])
def test_unstructured_interval_outside_the_range_is_pinned(reward, pinned):
    # Half-width 0.3 * sqrt(log 400) < 0.75: the interval around 5 (or -5)
    # lies wholly outside [-1, 1] and pins to the nearer bound.
    rounds = [(DIAGONAL, [reward, 0.2], [reward, -0.2])] * 2 + [(((0, 1),), [0.5], [reward])]
    conf = play_given(lambda: UnstructuredConfidence(2, 2, NARROW), rounds)
    assert conf.lo_c[0, 0] == conf.hi_c[0, 0] == pinned and conf.lo_p[0, 0] == conf.hi_p[0, 0] == pinned
    assert conf.lo_p[1, 0] == conf.hi_p[1, 0] == pinned
    assert -1.0 < conf.lo_c[1, 1] < conf.hi_c[1, 1] < 1.0


@pytest.mark.parametrize("config", [NARROW, ConfidenceConfig(ucb_scale=0.0)], ids=["narrow", "flat"])
def test_unstructured_signed_zero_rewards(config):
    rounds = [(DIAGONAL, [0.0, -0.0], [-0.0, 0.0]), (DIAGONAL, [-0.0, -0.0], [0.0, -0.0]), (((1, 0),), [-0.0], [0.0])]
    conf = play_given(lambda: UnstructuredConfidence(2, 2, config), rounds * 2)
    assert np.asarray(conf.counts).tolist() == [4, 0, 2, 4, 4, 2, 0, 4]


@pytest.mark.parametrize("seed", range(6))
def test_typed_matches_reference(seed):
    rng = np.random.default_rng(100 + seed)
    n_c, n_p = (int(x) for x in rng.integers(2, 9, 2))
    # Few types: type pairs repeat within a round, and tc == tp occurs.
    num_types = 1 + seed % 3
    ct = rng.integers(0, num_types, n_c)
    pt = rng.integers(0, num_types, n_p)
    play(
        lambda: TypedConfidence(ct, pt, num_types, NARROW),
        reference_typed,
        ("type_counts", "type_mean", "type_lo", "type_hi"),
        rng, n_c, n_p,
    )


def play_linear(rng, n_c, n_p, dim):
    cc, pc = unit_rows(rng, n_c, dim), unit_rows(rng, n_p, dim)
    config = ConfidenceConfig(
        lin_beta_d_coeff=NARROW.lin_beta_d_coeff,
        lin_beta_log_coeff=NARROW.lin_beta_log_coeff,
        lin_ridge=float(rng.uniform(0.2, 2.0)),
    )
    projected, sizes = play(
        lambda: LinearConfidence(cc, pc, config),
        reference_linear,
        ("V", "b"),
        rng, n_c, n_p,
    )
    # Rewards far outside [-1, 1] drive some estimates out of the unit ball.
    assert sum(projected) > 0
    return sizes


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", range(3))
def test_linear_matches_reference(dim, seed):
    rng = np.random.default_rng(1000 * dim + seed)
    n_c, n_p = (int(x) for x in rng.integers(1, 10, 2))
    play_linear(rng, n_c, n_p, dim)


@pytest.mark.parametrize("shape", [(5, 9), (9, 4)], ids=["5x9", "9x4"])
@pytest.mark.parametrize("dim", [1, 3, 5])
def test_linear_rectangular_matches_reference(shape, dim):
    rng = np.random.default_rng(100 * dim + shape[0])
    sizes = play_linear(rng, *shape, dim)
    assert any(0 < k < min(shape) for k in sizes), sizes


# conftest.trace_digest of two 300-round match_lin_ucb runs, recorded while
# each side of a round was updated by its own solve and inverse:
# (customers, providers, seed, arrivals) and the digest.
LINEAR_RUNS = {
    "all_12x12": ((12, 12, 4, env.ArrivalSpec()), "6990d8c9bb2154a2b01b3523d772ce12f93377d158b236da3a2edefb33c28d2f"),
    "iid_9x4": (
        (9, 4, 7, env.ArrivalSpec(kind="iid_subset", probability=0.6)),
        "a179d274fa872f13e64b35f9ed7cc80ab1c3cc2ebb37d8eba54880c623f8cd38",
    ),
}


@pytest.mark.parametrize("name", sorted(LINEAR_RUNS))
def test_linear_trajectory_digest(name):
    (n_c, n_p, seed, arrival), digest = LINEAR_RUNS[name]
    instance = env.gen_instance("linear", n_c, n_p, seed=seed, arrival=arrival)
    trace = env.run(instance, env.PolicySpec("match_lin_ucb"), 300, record_outcomes=True)
    assert trace_digest(trace) == digest
