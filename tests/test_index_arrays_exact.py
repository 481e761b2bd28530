"""The round's index-array helpers equal, to the last bit, the per-pair loops
they replace.

The ``ref_*`` functions below are verbatim copies of the loops as they were
when matchings travelled as pair tuples, except that a lifted matching goes
through the checked ``Matching`` constructor, which sorts the same way. The
tests compare pairs, index arrays and float bytes, signed zeros included, on
random, tie-heavy integer and rectangular markets from 1x1 to 12x40 and on
the hard 4x360 market, with full, iid, empty and unsorted full-size arrivals.
"""

import numpy as np
import pytest

from smbandits.confidence import UnstructuredConfidence
from smbandits.environment import NoiseSpec, _draws, _restrict_outcome, gen_hard_instance, stream_rng
from smbandits.errors import ConfigError
from smbandits.market import Matching, MarketOutcome, UtilityMatrix, assignment_with_duals, lists_all_in_order
from smbandits.policies import _outcome_from_duals

pytestmark = pytest.mark.byte_pinned

# -- references ----------------------------------------------------------------


def ref_outcome_from_duals(ucb, local, p_c, p_p, arrivals, n_c, n_p):
    cust, prov = arrivals
    tau_c = np.zeros(n_c)
    tau_p = np.zeros(n_p)
    lifted = []
    for (li, lj) in local.pairs:
        gi, gj = int(cust[li]), int(prov[lj])
        tau_c[gi] = p_c[li] - ucb.customer_values[li, lj]
        tau_p[gj] = p_p[lj] - ucb.provider_values[lj, li]
        lifted.append((gi, gj))
    lifted = tuple(lifted)
    return MarketOutcome(local if lifted == local.pairs else Matching(lifted), tau_c, tau_p)


def ref_payoff_vector(outcome, u):
    n_c = u.num_customers
    q = np.concatenate((outcome.customer_transfers, outcome.provider_transfers))
    for i, j in outcome.matching.pairs:
        q[i] += u.customer_values[i, j]
        q[n_c + j] += u.provider_values[j, i]
    return q


def ref_positions(n_c, n_p, matching):
    pos = [p for i, j in matching.pairs for p in (i * n_p + j, n_c * n_p + j * n_c + i)]
    return np.array(pos, dtype=np.intp)


def ref_restrict_outcome(outcome, cust, prov):
    if lists_all_in_order(cust, len(outcome.customer_transfers)) and lists_all_in_order(
        prov, len(outcome.provider_transfers)
    ):
        return outcome
    c_pos = {g: k for k, g in enumerate(cust.tolist())}
    p_pos = {g: k for k, g in enumerate(prov.tolist())}
    pairs = tuple([(c_pos[i], p_pos[j]) for i, j in outcome.matching.pairs])
    return MarketOutcome(Matching(pairs), outcome.customer_transfers[cust], outcome.provider_transfers[prov])


def ref_observe(truth, matching, noise, rng):
    if not matching.pairs:
        return np.empty(0), np.empty(0)
    ci, pj = matching.index_arrays
    means = np.empty(2 * len(ci))
    means[0::2] = truth.customer_values[ci, pj]
    means[1::2] = truth.provider_values[pj, ci]
    if noise.kind == "gaussian":
        values = means + noise.sigma * rng.standard_normal(means.size)
    elif noise.kind == "bernoulli":
        if means.min() < 0.0 or means.max() > 1.0:
            raise ConfigError("bernoulli feedback needs utilities in [0, 1]")
        values = (rng.random(means.size) < means).astype(float)
    else:
        raise ConfigError(f"unknown noise kind {noise.kind!r}")
    return values[0::2], values[1::2]


# -- inputs --------------------------------------------------------------------

SHAPES = [(1, 1), (1, 3), (3, 1), (2, 2), (3, 3), (4, 2), (2, 5), (5, 5), (6, 9), (12, 12), (12, 40), (40, 12)]


def signed_zeros(rng, x):
    """``x`` with about half of its zeros made -0.0."""
    return np.where((x == 0.0) & (rng.random(x.shape) < 0.5), -0.0, x)


def market(rng, n_c, n_p, kind):
    if kind == "random":
        return UtilityMatrix(rng.uniform(-1.0, 1.0, (n_c, n_p)), rng.uniform(-1.0, 1.0, (n_p, n_c)))
    # Tie-heavy: integer values in {-1, 0, 1}, zeros of both signs.
    cv, pv = (signed_zeros(rng, rng.integers(-1, 2, s).astype(float)) for s in ((n_c, n_p), (n_p, n_c)))
    return UtilityMatrix(cv, pv)


def arrivals(rng, n_c, n_p):
    """Full, iid-half, empty and unsorted full-size arrivals."""
    yield np.arange(n_c), np.arange(n_p)
    yield np.flatnonzero(rng.random(n_c) < 0.5), np.flatnonzero(rng.random(n_p) < 0.5)
    yield np.arange(0), np.arange(n_p)
    yield rng.permutation(n_c), rng.permutation(n_p)


def cases(seed=0):
    """(market, arrivals, local matching, p_c, p_p) from the dual pass, on every
    shape and kind, plus the hard 4x360 market."""
    rng = np.random.default_rng(seed)
    markets = [market(rng, n_c, n_p, kind) for n_c, n_p in SHAPES for kind in ("random", "ties") for _ in range(3)]
    markets.append(gen_hard_instance(4, 1000, seed).truth)
    for u in markets:
        for cust, prov in arrivals(rng, u.num_customers, u.num_providers):
            sub = u.restrict(cust, prov)
            rows, cols, p_c, p_p = assignment_with_duals(sub.joint())
            # Prices that equal the matched value give transfers of zero; -0.0
            # prices and values give both signs of zero.
            tie = rng.random(len(rows)) < 0.3
            p_c[rows[tie]] = sub.customer_values[rows[tie], cols[tie]]
            p_c[rows] = signed_zeros(rng, p_c[rows])
            yield u, sub, (cust, prov), rows, cols, p_c, p_p


def same_outcome(a, b):
    assert a.matching.pairs == b.matching.pairs
    ci, pj = a.matching.index_arrays
    assert ci.tolist() == [i for i, _ in b.matching.pairs] and pj.tolist() == [j for _, j in b.matching.pairs]
    assert a.customer_transfers.tobytes() == b.customer_transfers.tobytes()
    assert a.provider_transfers.tobytes() == b.provider_transfers.tobytes()


# -- tests ---------------------------------------------------------------------


def test_outcome_from_duals_matches_the_pair_loop():
    for u, sub, arrived, rows, cols, p_c, p_p in cases():
        n_c, n_p = u.num_customers, u.num_providers
        new = _outcome_from_duals(sub, Matching._from_arrays(rows, cols), p_c.copy(), p_p.copy(), arrived, n_c, n_p)
        local = Matching(list(zip(rows.tolist(), cols.tolist())))
        same_outcome(new, ref_outcome_from_duals(sub, local, p_c, p_p, arrived, n_c, n_p))


def test_full_arrivals_transfer_in_place():
    u, sub, arrived, rows, cols, p_c, p_p = next(cases())
    local = Matching._from_arrays(rows, cols)
    outcome = _outcome_from_duals(sub, local, p_c, p_p, arrived, u.num_customers, u.num_providers)
    assert outcome.matching is local
    assert outcome.customer_transfers is p_c and outcome.provider_transfers is p_p


def test_payoff_vector_matches_the_pair_loop():
    rng = np.random.default_rng(1)
    for u, sub, arrived, rows, cols, p_c, p_p in cases(1):
        outcome = _outcome_from_duals(
            sub, Matching._from_arrays(rows, cols), p_c, p_p, arrived, u.num_customers, u.num_providers
        )
        # Zero-sum transfers with zeros of both signs, on the global market.
        tau_c, tau_p = np.zeros(u.num_customers), np.zeros(u.num_providers)
        ci, pj = outcome.matching.index_arrays
        tau_c[ci] = signed_zeros(rng, rng.integers(-1, 2, len(ci)).astype(float))
        tau_p[pj] = -tau_c[ci]
        for o in (outcome, MarketOutcome(outcome.matching, tau_c, tau_p)):
            assert o._payoff_vector(u).tobytes() == ref_payoff_vector(o, u).tobytes()


def test_positions_match_the_pair_loop():
    rng = np.random.default_rng(2)
    for n_c, n_p in SHAPES + [(4, 360)]:
        conf = UnstructuredConfidence(n_c, n_p)
        for _ in range(5):
            k = int(rng.integers(0, min(n_c, n_p) + 1))
            matching = Matching(list(zip(rng.permutation(n_c)[:k].tolist(), rng.permutation(n_p)[:k].tolist())))
            pos = conf._positions(matching)
            assert pos.dtype == np.intp
            assert pos.tobytes() == ref_positions(n_c, n_p, matching).tobytes()


def test_restrict_outcome_matches_the_pair_loop():
    rng = np.random.default_rng(3)
    for u, sub, arrived, rows, cols, p_c, p_p in cases(3):
        n_c, n_p = u.num_customers, u.num_providers
        outcome = _outcome_from_duals(sub, Matching._from_arrays(rows, cols), p_c, p_p, arrived, n_c, n_p)
        # The outcome's own arrivals, and every agent in another order.
        for cust, prov in (arrived, (rng.permutation(n_c), rng.permutation(n_p))):
            new = _restrict_outcome(outcome, cust, prov)
            ref = ref_restrict_outcome(outcome, cust, prov)
            assert (new is outcome) == (ref is outcome)
            same_outcome(new, ref)


@pytest.mark.parametrize("noise", [NoiseSpec(), NoiseSpec(sigma=0.3), NoiseSpec(kind="bernoulli")])
def test_observe_matches_the_pair_loop(noise):
    rng = np.random.default_rng(4)
    shapes = SHAPES if noise.kind == "gaussian" else [(4, 360)]
    for n_c, n_p in shapes:
        if noise.kind == "gaussian":
            truth = market(rng, n_c, n_p, "ties" if n_c % 2 else "random")
        else:
            truth = gen_hard_instance(4, 1000, n_p).truth
        values = np.concatenate((truth.customer_values, truth.provider_values), axis=None)
        conf = UnstructuredConfidence(truth.num_customers, truth.num_providers)
        draws_new, draws_ref = stream_rng(n_c, 2), stream_rng(n_c, 2)
        for _ in range(4):
            k = int(rng.integers(0, min(n_c, n_p) + 1))
            ci = rng.permutation(truth.num_customers)[:k]
            pj = rng.permutation(truth.num_providers)[:k]
            matching = Matching(list(zip(ci.tolist(), pj.tolist())))
            draws = _draws(values, conf._positions(matching), noise, draws_new)
            new = draws[0::2], draws[1::2]
            ref = ref_observe(truth, matching, noise, draws_ref)
            assert [a.tobytes() for a in new] == [a.tobytes() for a in ref]
            # The same draws were taken: none for an empty matching.
            assert repr(draws_new.bit_generator.state) == repr(draws_ref.bit_generator.state)
