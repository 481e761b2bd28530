"""The inverse that LinearConfidence keeps by rank-1 updates, against V rebuilt from a log of the played contexts.

Each agent's V is ``ridge * I`` plus one outer product per observed partner context. The oracle here rebuilds V and
b from the log alone and inverts V afresh; the intervals are checked against the per-round solve and inverse that the
rank-1 update replaced, kept below as ``solve_and_inverse_intervals``.
"""

import numpy as np
import pytest

from smbandits.confidence import ConfidenceConfig, LinearConfidence
from smbandits.market import Matching

pytestmark = pytest.mark.byte_pinned  # V_inv's symmetry is a bitwise claim

ROUNDS = 3000
CHECK_EVERY = 500


def unit_rows(rng, count, dim):
    x = rng.normal(size=(count, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True) * rng.uniform(0.3, 1.0, (count, 1))


def solve_and_inverse_intervals(V, b, partners, beta):
    """One agent's intervals by a fresh solve and inverse of its V: the formulation the kept inverse replaced."""
    phi = np.linalg.solve(V, b)
    norm = np.linalg.norm(phi)
    if norm > 1.0:
        phi = phi / norm
    center = partners @ phi
    bonus = np.sqrt(beta) * np.sqrt(np.einsum("nd,de,ne->n", partners, np.linalg.inv(V), partners))
    return np.maximum(-1.0, center - bonus), np.minimum(1.0, center + bonus)


def quadratic_forms(inverse, partners):
    return np.einsum("nd,de,ne->n", partners, inverse, partners)


def check_against_log(conf, log, ridge, horizon):
    """Rebuild every agent's V and b from ``log`` (per slot: played contexts and rewards) and compare."""
    n_c = conf.num_customers
    V_inv = conf.V_inv
    assert (V_inv.view(np.uint64) == V_inv.transpose(0, 2, 1).view(np.uint64)).all(), "V_inv is not bitwise symmetric"
    for slot, (contexts, rewards) in enumerate(log):
        customer = slot < n_c
        partners = conf.provider_contexts if customer else conf.customer_contexts
        X, r = np.array(contexts).reshape(-1, conf.dim), np.array(rewards)
        V = ridge * np.eye(conf.dim) + X.T @ X
        np.testing.assert_allclose(
            quadratic_forms(V_inv[slot], partners), quadratic_forms(np.linalg.inv(V), partners), rtol=1e-8, atol=0
        )
        if not rewards:
            continue
        lo, hi = solve_and_inverse_intervals(V, X.T @ r, partners, conf.beta(horizon))
        row = slot if customer else slot - n_c
        got_lo, got_hi = (conf.lo_c, conf.hi_c) if customer else (conf.lo_p, conf.hi_p)
        np.testing.assert_allclose(got_lo[row], lo, rtol=0, atol=1e-9)
        np.testing.assert_allclose(got_hi[row], hi, rtol=0, atol=1e-9)


@pytest.mark.parametrize("dim", [1, 3, 5])
@pytest.mark.parametrize("ridge", [1.0, 1e-3, 1e-6])
def test_kept_inverse_matches_a_fresh_inverse_of_the_logged_design(ridge, dim):
    rng = np.random.default_rng([dim, int(-np.log10(ridge))])
    # At least d + 1 agents a side, so every agent's partners span its space.
    n_c, n_p = dim + 1, dim + 2
    cc, pc = unit_rows(rng, n_c, dim), unit_rows(rng, n_p, dim)
    theta = unit_rows(rng, n_c + n_p, dim)
    conf = LinearConfidence(cc, pc, ConfidenceConfig(lin_ridge=ridge))
    log = [([], []) for _ in range(n_c + n_p)]
    for t in range(1, ROUNDS + 1):
        k = int(rng.integers(1, n_c + 1))
        # Customers in increasing order, as ``Matching.pairs`` lists them and the rewards align.
        ci, pj = np.sort(rng.permutation(n_c)[:k]), rng.permutation(n_p)[:k]
        r_c = np.einsum("kd,kd->k", theta[ci], pc[pj]) + rng.normal(0.0, 0.5, k)
        r_p = np.einsum("kd,kd->k", theta[n_c + pj], cc[ci]) + rng.normal(0.0, 0.5, k)
        conf.update(Matching(zip(ci.tolist(), pj.tolist())), (r_c, r_p), ROUNDS)
        for i, j, a, b in zip(ci.tolist(), pj.tolist(), r_c.tolist(), r_p.tolist()):
            log[i][0].append(pc[j])
            log[i][1].append(a)
            log[n_c + j][0].append(cc[i])
            log[n_c + j][1].append(b)
        if t % CHECK_EVERY == 0 or t <= dim + 1:
            check_against_log(conf, log, ridge, ROUNDS)
