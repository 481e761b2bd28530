"""The round's fast paths equal, to the last bit, the versions they replace.

``ref_duals_for_matching`` and ``ref_compute_match_ntu`` below are verbatim
copies of the dual pass and the NTU selection as they were when every matrix
and matching of a round went through the checked constructors. The tests
compare output bytes, signed zeros included, and the certificate's errors.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import trace_digest
from smbandits import environment as env
from smbandits.confidence import ConfidenceConfig, UnstructuredConfidence
from smbandits.errors import UncertifiedDuals
from smbandits.market import Matching, _duals_for_matching, _positive_assignment
from smbandits.policies import all_arrivals, compute_match, compute_match_ntu

# -- references ----------------------------------------------------------------

_DUAL_RTOL = 1e-9


def ref_duals_for_matching(w: np.ndarray, ci: np.ndarray, pj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_c, n_p = w.shape
    p_c = np.zeros(n_c)
    p_p = np.zeros(n_p)
    k = len(ci)
    if not k:
        return p_c, p_p

    wk = w[ci, pj]

    # Start from the upper bounds x_k <= w_k (p_p >= 0) and x_k <= w_k - w[i, j_k]
    # over unmatched customers i; the lower bounds are left to the certificate.
    x = wk.copy()
    if k < n_c:
        free_c = np.ones(n_c, dtype=bool)
        free_c[ci] = False
        x -= w[free_c][:, pj].max(axis=0)

    # Cross constraints x_k - x_l >= w[i_k, j_l] - w_l become edges k -> l of
    # weight -(w[i_k, j_l] - w_l) in a shortest-path relaxation from there.
    edge = -(w[ci][:, pj] - wk[None, :])
    np.fill_diagonal(edge, np.inf)
    for _ in range(k):
        new_x = np.minimum(x, np.min(x[:, None] + edge, axis=0))
        if (new_x == x).all():
            break
        x = new_x

    # Certificate: p >= 0, p_i + p_j >= w_ij, equality on matched pairs. The
    # provider prices w_k - x_k are nonnegative by construction, as x <= w_k.
    p_c[ci] = x
    p_p[pj] = wk - x
    slack = p_c[:, None] + p_p[None, :] - w
    tol = _DUAL_RTOL * w.max()
    if x.min() < -tol or slack.min() < -tol or slack[ci, pj].max() > tol:
        raise UncertifiedDuals(f"no dual prices certify the matching to tolerance {tol:.3g}")
    # Within that tolerance, customer prices round to the sign constraint.
    np.maximum(p_c, 0.0, out=p_c)
    return p_c, p_p


def ref_compute_match_ntu(conf, arrivals) -> Matching:
    cust, prov = arrivals
    ucb = conf.ucb_matrix()
    u_c = ucb.customer_values[np.ix_(cust, prov)]
    u_p = ucb.provider_values[np.ix_(prov, cust)]
    n_c, n_p = len(cust), len(prov)

    pref_lists = []
    for i in range(n_c):
        order = sorted(range(n_p), key=lambda j: (-u_c[i, j], j))
        pref_lists.append([j for j in order if u_c[i, j] >= 0.0])
    next_choice = [0] * n_c
    holder: dict[int, int] = {}
    free = list(range(n_c))
    while free:
        i = free.pop(0)
        while next_choice[i] < len(pref_lists[i]):
            j = pref_lists[i][next_choice[i]]
            next_choice[i] += 1
            if u_p[j, i] < 0.0:
                continue
            current = holder.get(j)
            if current is None:
                holder[j] = i
                break
            if u_p[j, i] > u_p[j, current]:
                holder[j] = i
                free.insert(0, current)
                break
        # Exhausted list: customer stays unmatched.
    return Matching([(int(cust[i]), int(prov[j])) for j, i in holder.items()])


# -- inputs --------------------------------------------------------------------


def joints(rng):
    """Joint weights: random, tie-heavy integer (with -0.0 entries from
    rounding), rectangular both ways, and the hard family's 4x360 truth under
    assorted upper bounds."""
    for n_c, n_p in [(1, 1), (2, 2), (3, 3), (2, 5), (5, 2), (4, 4), (6, 3), (12, 12), (12, 40), (40, 12)]:
        for _ in range(12):
            yield rng.uniform(-1.0, 1.0, (n_c, n_p)) + rng.uniform(-1.0, 1.0, (n_p, n_c)).T
            yield np.round(rng.uniform(-2.0, 2.0, (n_c, n_p))) + np.round(rng.uniform(-2.0, 2.0, (n_p, n_c))).T
            yield np.full((n_c, n_p), 2.0)
    truth = env.gen_hard_instance(4, 1000, seed=3).truth
    for _ in range(12):
        width = rng.choice([0.0, 0.25, 0.5], truth.customer_values.shape)
        yield truth.customer_values + width + truth.provider_values.T


def interval_state(rng, n_c, n_p, kind):
    conf = UnstructuredConfidence(n_c, n_p)
    if kind == "ties":
        hi_c = rng.integers(-4, 5, (n_c, n_p)) / 4.0
        hi_p = rng.integers(-4, 5, (n_p, n_c)) / 4.0
    elif kind == "fresh":
        hi_c = np.ones((n_c, n_p))
        hi_p = np.ones((n_p, n_c))
    else:
        hi_c = rng.uniform(-1.0, 1.0, (n_c, n_p))
        hi_p = rng.uniform(-1.0, 1.0, (n_p, n_c))
    conf.hi_c, conf.lo_c = hi_c, hi_c - 0.5
    conf.hi_p, conf.lo_p = hi_p, hi_p - 0.5
    return conf


def arrival_sets(rng, n_c, n_p):
    """All agents, iid halves (empty sides included), and the same agents in
    scrambled order, as a ``fixed`` schedule may list them."""
    yield all_arrivals(n_c, n_p)
    yield np.arange(0), np.arange(n_p)
    yield np.arange(n_c), np.arange(0)
    for _ in range(3):
        cust = np.flatnonzero(rng.random(n_c) < 0.5)
        prov = np.flatnonzero(rng.random(n_p) < 0.5)
        yield cust, prov
        yield rng.permutation(cust), rng.permutation(prov)
    yield rng.permutation(n_c), rng.permutation(n_p)


def states():
    rng = np.random.default_rng(606)
    for n_c, n_p in [(1, 1), (2, 2), (3, 3), (2, 5), (5, 3), (8, 8), (4, 30)]:
        for kind in ("random", "ties", "fresh"):
            for _ in range(4):
                conf = interval_state(rng, n_c, n_p, kind)
                for arrivals in arrival_sets(rng, n_c, n_p):
                    yield conf, arrivals


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# -- the dual pass -------------------------------------------------------------


def test_duals_equal_reference_on_solver_output():
    rng = np.random.default_rng(41)
    checked = free = 0
    for joint in joints(rng):
        w, rows, cols = _positive_assignment(joint)
        assert_same_bytes(_duals_for_matching(w, rows, cols), ref_duals_for_matching(w, rows, cols))
        checked += 1
        free += len(rows) < w.shape[0]
    assert checked >= 370 and free >= 100


def test_duals_equal_reference_on_negative_zero_weights():
    # Weights given directly, -0.0 entries included: the certificate's
    # outcome and every output byte agree, also where it fails.
    rng = np.random.default_rng(43)
    outcomes = {"certified": 0, "uncertified": 0}
    for n_c, n_p in [(2, 2), (3, 3), (3, 5), (5, 3), (8, 8)]:
        for _ in range(60):
            w = np.round(rng.uniform(0.0, 2.0, (n_c, n_p)))
            w[rng.random((n_c, n_p)) < 0.4] = -0.0
            rows, cols = linear_sum_assignment(w, maximize=True)
            if rng.random() < 0.3:
                cols = rng.permutation(cols)  # usually not optimal
            try:
                want = ref_duals_for_matching(w, rows, cols)
            except UncertifiedDuals as exc:
                with pytest.raises(UncertifiedDuals) as got:
                    _duals_for_matching(w, rows, cols)
                assert str(got.value) == str(exc)
                outcomes["uncertified"] += 1
                continue
            assert_same_bytes(_duals_for_matching(w, rows, cols), want)
            outcomes["certified"] += 1
    assert min(outcomes.values()) >= 20, outcomes


@pytest.mark.parametrize(
    "w, ci, pj",
    [
        (np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([0, 1]), np.array([0, 1])),
        (np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([0, 1]), np.array([1, 0])),
        (np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0]), np.array([0])),
    ],
    ids=["optimal", "swapped", "positive_edge_left_unmatched"],
)
def test_dual_certificate_cases_equal_reference(w, ci, pj):
    try:
        want = ref_duals_for_matching(w, ci, pj)
    except UncertifiedDuals as exc:
        with pytest.raises(UncertifiedDuals) as got:
            _duals_for_matching(w, ci, pj)
        assert str(got.value) == str(exc)
        return
    assert_same_bytes(_duals_for_matching(w, ci, pj), want)


# -- NTU selection -------------------------------------------------------------


def test_ntu_selection_equals_reference():
    checked = matched = 0
    for conf, arrivals in states():
        got = compute_match_ntu(conf, arrivals)
        want = ref_compute_match_ntu(conf, arrivals)
        assert got.pairs == want.pairs
        assert all(type(a) is int for pair in got.pairs for a in pair)
        checked += 1
        matched += bool(got.pairs)
    assert checked >= 800 and matched >= 400, (checked, matched)


# -- sorted pairs under any arrival order --------------------------------------


def assert_sorted_disjoint(matching: Matching):
    customers = [i for i, _ in matching.pairs]
    providers = [j for _, j in matching.pairs]
    assert customers == sorted(set(customers))
    assert len(set(providers)) == len(providers)
    assert all(type(a) is int for pair in matching.pairs for a in pair)


def test_matchings_stay_sorted_on_any_arrival_order():
    for conf, arrivals in states():
        assert_sorted_disjoint(compute_match(conf, arrivals).matching)
        assert_sorted_disjoint(compute_match_ntu(conf, arrivals))


# Customers and providers in scrambled order, full and partial, and empty sides.
UNSORTED_SCHEDULE = (
    ((2, 0), (1, 2, 0)),
    ((1,), (0, 2)),
    ((2, 1, 0), (2, 0, 1)),
    ((), (1,)),
    ((0, 2), ()),
)

SORTED_SCHEDULE = tuple((tuple(sorted(c)), tuple(sorted(p))) for c, p in UNSORTED_SCHEDULE)

# sha256 of the seven trace columns and of every scored outcome's pairs and
# transfer bytes, recorded once schedule entries were sorted where they enter.
UNSORTED_SCHEDULE_DIGESTS = {
    "match_ucb": "c02ceb2deb5c2f4fa5d0344713b87f12218dc872a47e724ea6ab21e8e56ff0e4",
    "match_ucb_prime": "f75d3a774bbde3dcd2e436fc02f45ce7f19813ed30f828b1b78fd16911a5a706",
    "match_ntu_ucb": "5b8c93c01745701c402bda8af837de5f6a0aedd982a621a32235ffd0bc102915",
    "revenue_frictions": "025258d131d8b9650683386548a464f747224e9909c39609ade35d1e2fe06ec1",
}


def schedule_trace(kind: str, schedule: tuple):
    arrival = env.ArrivalSpec(kind="fixed", schedule=schedule)
    instance = env.gen_instance("unstructured", 3, 3, seed=5, arrival=arrival)
    scale = 1.0 if kind == "match_ucb_prime" else 8.0
    spec = env.PolicySpec(kind, ConfidenceConfig(ucb_scale=scale))
    return env.run(instance, spec, 150, record_outcomes=True)


@pytest.mark.parametrize("kind", sorted(UNSORTED_SCHEDULE_DIGESTS))
def test_unsorted_schedule_plays_its_sorted_twin(kind):
    # A schedule entry is a set of agents: listing it in another order must
    # not change a single matching, transfer or trace bit.
    assert trace_digest(schedule_trace(kind, UNSORTED_SCHEDULE)) == trace_digest(
        schedule_trace(kind, SORTED_SCHEDULE)
    )


@pytest.mark.parametrize("kind", sorted(UNSORTED_SCHEDULE_DIGESTS))
def test_unsorted_fixed_schedule(kind):
    trace = schedule_trace(kind, UNSORTED_SCHEDULE)
    for outcome in trace.outcomes:
        assert_sorted_disjoint(outcome.matching)
    assert trace_digest(trace) == UNSORTED_SCHEDULE_DIGESTS[kind]
