"""``compute_match_prime`` equals, to the last bit, the two-dual-pass version
it replaces, and makes exactly one dual pass per call.

The reference below is that earlier version: it builds the duals of the
perturbed utilities and of the doubled-width sets on every non-fallback
call and plays one of them, solves the assignment again for every dual
pass, and scores second-best candidates with ``Matching.total_utility``.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from smbandits import market
from smbandits.confidence import ConfidenceConfig, UnstructuredConfidence
from smbandits.errors import NoAlternative, UncertifiedDuals
from smbandits.market import TOL, Matching, UtilityMatrix
from smbandits.policies import (
    MatchUcbPrimePolicy,
    _outcome_from_duals,
    all_arrivals,
    compute_match_prime,
    expanded_upper_bounds,
)

pytestmark = pytest.mark.byte_pinned

# -- reference: the two-dual-pass version --------------------------------------


def ref_assignment_pairs(joint):
    rows, cols = linear_sum_assignment(np.maximum(joint, 0.0), maximize=True)
    return [(int(i), int(j)) for i, j in zip(rows, cols) if joint[i, j] > 0.0]


def ref_assignment_with_duals(joint):
    n_c, n_p = joint.shape
    pairs = ref_assignment_pairs(joint)
    if not pairs:
        return [], np.zeros(n_c), np.zeros(n_p)
    p_c, p_p = ref_duals_for_matching(np.maximum(joint, 0.0), pairs)
    return pairs, p_c, p_p


def ref_duals_for_matching(w, pairs):
    n_c, n_p = w.shape
    p_c = np.zeros(n_c)
    p_p = np.zeros(n_p)
    if not pairs:
        return p_c, p_p
    ci = np.array([i for i, _ in pairs])
    pj = np.array([j for _, j in pairs])
    wk = w[ci, pj]
    x = wk.copy()
    if len(pairs) < n_c:
        free_c = np.ones(n_c, dtype=bool)
        free_c[ci] = False
        x -= w[free_c][:, pj].max(axis=0)
    edge = -(w[ci][:, pj] - wk[None, :])
    np.fill_diagonal(edge, np.inf)
    for _ in range(len(pairs)):
        new_x = np.minimum(x, np.min(x[:, None] + edge, axis=0))
        if (new_x == x).all():
            break
        x = new_x
    p_c[ci] = x
    p_p[pj] = wk - x
    slack = p_c[:, None] + p_p[None, :] - w
    tol = 1e-9 * w.max()
    if x.min() < -tol or slack.min() < -tol or slack[ci, pj].max() > tol:
        raise UncertifiedDuals(f"no dual prices certify the matching to tolerance {tol:.3g}")
    np.maximum(p_c, 0.0, out=p_c)
    return p_c, p_p


def ref_second_best_matching(u, best):
    n_c, n_p = u.num_customers, u.num_providers
    if n_c == 0 or n_p == 0:
        raise NoAlternative("market admits only the empty matching")
    joint = u.joint()
    candidates = []
    for edge in best.pairs:
        modified = joint.copy()
        modified[edge] = -np.inf
        m = Matching(ref_assignment_pairs(modified))
        candidates.append((m.total_utility(u), m))
    matched_c = {i for i, _ in best.pairs}
    matched_p = {j for _, j in best.pairs}
    free_c = [i for i in range(n_c) if i not in matched_c]
    free_p = [j for j in range(n_p) if j not in matched_p]
    if free_c and free_p:
        a, b = divmod(int(np.argmax(joint[np.ix_(free_c, free_p)])), len(free_p))
        m = Matching(best.pairs + ((free_c[a], free_p[b]),))
        candidates.append((m.total_utility(u), m))
    if not candidates:
        raise NoAlternative("no matching other than the given one exists")
    weight, match = max(candidates, key=lambda t: t[0])
    return match, float(weight)


def ref_compute_match(conf, arrivals):
    cust, prov = arrivals
    sub = conf.ucb_matrix().restrict(cust, prov)
    pairs, p_c, p_p = ref_assignment_with_duals(sub.joint())
    return _outcome_from_duals(sub, Matching(pairs), p_c, p_p, arrivals, conf.num_customers, conf.num_providers)


def ref_compute_match_prime(conf, arrivals):
    cust, prov = arrivals
    n_c, n_p = conf.num_customers, conf.num_providers
    n_arrived = len(cust) + len(prov)
    ucb = conf.ucb_matrix().restrict(cust, prov)

    if len(cust) == 0 or len(prov) == 0:
        return ref_compute_match(conf, arrivals), {"branch": "fallback", "gap": 0.0}

    x_star = Matching(ref_assignment_pairs(ucb.joint()))
    try:
        _, second_weight = ref_second_best_matching(ucb, x_star)
    except NoAlternative:
        return ref_compute_match(conf, arrivals), {"branch": "fallback", "gap": 0.0}
    gap = x_star.total_utility(ucb) - second_weight
    if gap <= TOL:
        return ref_compute_match(conf, arrivals), {"branch": "fallback", "gap": 0.0}

    shave = gap / n_arrived
    u_prime_c = ucb.customer_values.copy()
    u_prime_p = ucb.provider_values.copy()
    for i, j in x_star.pairs:
        u_prime_c[i, j] -= shave
        u_prime_p[j, i] -= shave
    u_prime = UtilityMatrix(u_prime_c, u_prime_p)
    _, pp_c, pp_p = ref_assignment_with_duals(u_prime.joint())
    p_c = pp_c.copy()
    p_p = pp_p.copy()
    for i, j in x_star.pairs:
        p_c[i] += shave
        p_p[j] += shave

    ucb2 = expanded_upper_bounds(conf).restrict(cust, prov)
    pairs2, p2_c, p2_p = ref_assignment_with_duals(ucb2.joint())

    if set(pairs2) != set(x_star.pairs):
        outcome = _outcome_from_duals(ucb2, Matching(pairs2), p2_c, p2_p, arrivals, n_c, n_p)
        return outcome, {"branch": "expanded", "gap": gap}
    outcome = _outcome_from_duals(ucb, x_star, p_c, p_p, arrivals, n_c, n_p)
    return outcome, {"branch": "robust", "gap": gap}


# -- confidence states ---------------------------------------------------------

SHAPES = [(2, 2), (3, 3), (2, 4), (5, 3)]


def interval_state(rng, n_c, n_p, kind):
    """Unstructured sets with intervals drawn by ``kind``:

    - ``random``: uniform centres, widths up to 0.6;
    - ``collapsed``: zero width everywhere;
    - ``ties``: integer utilities in quarters, so that matchings tie often;
    - ``zero_gap``: two identical customers (equal rows), so the best and
      second-best matchings tie exactly.
    """
    conf = UnstructuredConfidence(n_c, n_p)
    if kind == "ties":
        hi_c = rng.integers(-4, 5, (n_c, n_p)) / 4.0
        hi_p = rng.integers(-4, 5, (n_p, n_c)) / 4.0
        width_c = rng.integers(0, 3, (n_c, n_p)) / 4.0
        width_p = rng.integers(0, 3, (n_p, n_c)) / 4.0
    else:
        hi_c = rng.uniform(-1.0, 1.0, (n_c, n_p))
        hi_p = rng.uniform(-1.0, 1.0, (n_p, n_c))
        width_c = rng.uniform(0.0, 0.6, (n_c, n_p))
        width_p = rng.uniform(0.0, 0.6, (n_p, n_c))
        if kind == "collapsed":
            width_c[:] = 0.0
            width_p[:] = 0.0
        elif kind == "zero_gap":
            hi_c[1] = hi_c[0]
            hi_p[:, 1] = hi_p[:, 0]
            width_c[1] = width_c[0]
            width_p[:, 1] = width_p[:, 0]
    conf.hi_c[:], conf.lo_c[:] = hi_c, hi_c - width_c
    conf.hi_p[:], conf.lo_p[:] = hi_p, hi_p - width_p
    return conf


def arrival_subsets(rng, n_c, n_p):
    yield all_arrivals(n_c, n_p)
    for _ in range(2):
        cust = np.flatnonzero(rng.random(n_c) < 0.5)
        prov = np.flatnonzero(rng.random(n_p) < 0.5)
        yield cust, prov


def cases():
    rng = np.random.default_rng(2024)
    for n_c, n_p in SHAPES:
        for kind in ("random", "collapsed", "ties", "zero_gap"):
            for _ in range(8):
                conf = interval_state(rng, n_c, n_p, kind)
                for arrivals in arrival_subsets(rng, n_c, n_p):
                    yield conf, arrivals


def learned_cases():
    """States met by the policy itself: a few hundred rounds of learning at
    interval constant 1 (as in acceptance criterion 7), iid arrivals."""
    rng = np.random.default_rng(77)
    for n_c, n_p in SHAPES:
        truth_c = rng.uniform(-1.0, 1.0, (n_c, n_p))
        truth_p = rng.uniform(-1.0, 1.0, (n_p, n_c))
        conf = UnstructuredConfidence(n_c, n_p, ConfidenceConfig(ucb_scale=1.0))
        policy = MatchUcbPrimePolicy(conf, 400)

        def feedback(matching):
            ci, pj = matching.index_arrays
            return (
                truth_c[ci, pj] + rng.standard_normal(len(ci)),
                truth_p[pj, ci] + rng.standard_normal(len(ci)),
            )

        for t in range(120):
            if t % 2:
                arrivals = all_arrivals(n_c, n_p)
            else:
                arrivals = (np.flatnonzero(rng.random(n_c) < 0.5), np.flatnonzero(rng.random(n_p) < 0.5))
            yield conf, arrivals
            policy.step(arrivals, feedback)


def assert_bitwise_equal(got, want):
    (outcome, info), (ref_outcome, ref_info) = got, want
    assert outcome.matching.pairs == ref_outcome.matching.pairs
    assert outcome.customer_transfers.tobytes() == ref_outcome.customer_transfers.tobytes()
    assert outcome.provider_transfers.tobytes() == ref_outcome.provider_transfers.tobytes()
    assert info["branch"] == ref_info["branch"]
    assert np.float64(info["gap"]).tobytes() == np.float64(ref_info["gap"]).tobytes()


@pytest.mark.parametrize("source", ["interval_states", "learned_states"])
def test_equals_two_dual_pass_version(source):
    states = cases() if source == "interval_states" else learned_cases()
    branches = {"fallback": 0, "robust": 0, "expanded": 0}
    checked = 0
    for conf, arrivals in states:
        got = compute_match_prime(conf, arrivals)
        assert_bitwise_equal(got, ref_compute_match_prime(conf, arrivals))
        branches[got[1]["branch"]] += 1
        checked += 1
    assert checked >= 300
    assert min(branches.values()) >= 10, branches


def test_one_dual_pass_per_call(monkeypatch):
    passes = []
    dual_pass = market._duals_for_matching

    def counted(*args):
        passes.append(1)
        return dual_pass(*args)

    monkeypatch.setattr(market, "_duals_for_matching", counted)
    branches = set()
    for conf, arrivals in cases():
        passes.clear()
        _, info = compute_match_prime(conf, arrivals)
        assert len(passes) == 1, info
        branches.add(info["branch"])
    assert branches == {"fallback", "robust", "expanded"}


def test_fallback_reads_upper_bounds_once(monkeypatch):
    # Fresh sets tie every matching, so the call falls back; it plays the
    # optimistic outcome from the bounds it read for the gap, and on full
    # arrivals it reads them in place, without a copy.
    calls = []
    ucb_matrix = UnstructuredConfidence.ucb_matrix

    def counted(self):
        calls.append(1)
        return ucb_matrix(self)

    monkeypatch.setattr(UnstructuredConfidence, "ucb_matrix", counted)
    conf = UnstructuredConfidence(3, 3)
    outcome, info = compute_match_prime(conf, all_arrivals(3, 3))
    assert info == {"branch": "fallback", "gap": 0.0}
    assert len(calls) == 0
    assert len(outcome.matching.pairs) == 3
