"""The matching table picks what the assignment solver picks, to the last bit.

``compute_match_prime`` reads the best, second-best and doubled-width
matchings of small arrival submarkets off a table of every matching, and
defers to the solver and Murty's branching when table weights lie within a
float-error band of each other. Setting the table's cell cap to zero forces
the solver path everywhere; every outcome, branch, gap and trace below is
compared with that path bit for bit.
"""

from collections import Counter

import numpy as np
import pytest

from conftest import trace_digest
from test_match_prime_exact import assert_bitwise_equal, interval_state
from smbandits import environment as env
from smbandits import market
from smbandits import policies as pol
from smbandits.confidence import ConfidenceConfig, UnstructuredConfidence
from smbandits.market import heaviest_matchings

SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 1), (3, 4), (4, 4), (2, 8)]


def arrival_subsets(rng, n_c, n_p):
    """All agents, each side alone (the other empty), and iid halves."""
    everyone = pol.all_arrivals(n_c, n_p)
    yield everyone
    yield everyone[0], np.arange(0)
    yield np.arange(0), everyone[1]
    for _ in range(3):
        yield np.flatnonzero(rng.random(n_c) < 0.5), np.flatnonzero(rng.random(n_p) < 0.5)


def interval_states():
    rng = np.random.default_rng(510)
    for n_c, n_p in SHAPES:
        for kind in ("random", "collapsed", "ties", "zero_gap"):
            for _ in range(6):
                conf = interval_state(rng, n_c, n_p, kind)
                for arrivals in arrival_subsets(rng, n_c, n_p):
                    yield kind, conf, arrivals


def learned_states():
    """States met while learning at interval constant 1, alternating all
    agents and iid halves as arrivals."""
    rng = np.random.default_rng(511)
    for n_c, n_p in SHAPES:
        truth_c = rng.uniform(-1.0, 1.0, (n_c, n_p))
        truth_p = rng.uniform(-1.0, 1.0, (n_p, n_c))
        conf = UnstructuredConfidence(n_c, n_p, ConfidenceConfig(ucb_scale=1.0))
        policy = pol.MatchUcbPrimePolicy(conf, 400)

        def feedback(matching):
            ci, pj = matching.index_arrays
            return (
                truth_c[ci, pj] + rng.standard_normal(len(ci)),
                truth_p[pj, ci] + rng.standard_normal(len(ci)),
            )

        for t in range(100):
            if t % 2:
                arrivals = pol.all_arrivals(n_c, n_p)
            else:
                arrivals = (np.flatnonzero(rng.random(n_c) < 0.5), np.flatnonzero(rng.random(n_p) < 0.5))
            yield "learned", conf, arrivals
            policy.step(arrivals, feedback)


def counting(monkeypatch, counts, name):
    original = getattr(pol, name)

    def counted(*args):
        counts[name] += 1
        return original(*args)

    monkeypatch.setattr(pol, name, counted)


@pytest.mark.parametrize("source", ["interval_states", "learned_states"])
def test_table_equals_solver_path(monkeypatch, source):
    states = interval_states() if source == "interval_states" else learned_states()
    branches = Counter()
    deferred = Counter()  # per state kind: calls that reached the solver path
    checked = Counter()
    for kind, conf, arrivals in states:
        counts = Counter()
        with monkeypatch.context() as patch:
            counting(patch, counts, "second_best_matching")
            counting(patch, counts, "assignment_pairs")
            got = pol.compute_match_prime(conf, arrivals)
        with monkeypatch.context() as patch:
            patch.setattr(market, "_TABLE_MAX_CELLS", 0)
            want = pol.compute_match_prime(conf, arrivals)
        assert_bitwise_equal(got, want)
        branches[got[1]["branch"]] += 1
        checked[kind] += 1
        deferred[kind] += counts["assignment_pairs"] > 0
        # Murty's branching runs only on deferred calls, never beside the table.
        assert counts["second_best_matching"] <= counts["assignment_pairs"]
    assert sum(checked.values()) >= 400
    assert min(branches[b] for b in ("fallback", "robust", "expanded")) >= 10, branches
    if source == "interval_states":
        # Quarter-integer bounds tie often: the band sends those calls to the
        # solver. Continuous bounds almost never need it.
        assert deferred["ties"] >= 10, deferred
        assert deferred["random"] <= checked["random"] // 20, deferred
    else:
        assert deferred["learned"] <= checked["learned"] // 20, deferred


IID_HALF = env.ArrivalSpec(kind="iid_subset", probability=0.5)

TRACE_CELLS = {
    "2x2": (2, 2, 1.0, env.ArrivalSpec()),
    "3x3": (3, 3, 1.0, env.ArrivalSpec()),
    "3x3_constant_8": (3, 3, 8.0, env.ArrivalSpec()),
    "4x4": (4, 4, 1.0, env.ArrivalSpec()),
    "iid_3x3": (3, 3, 1.0, IID_HALF),
    "iid_4x4": (4, 4, 1.0, IID_HALF),
}


@pytest.mark.parametrize("cell", sorted(TRACE_CELLS))
def test_traces_equal_solver_path(monkeypatch, cell):
    n_c, n_p, constant, arrival = TRACE_CELLS[cell]
    spec = env.PolicySpec("match_ucb_prime", ConfidenceConfig(ucb_scale=constant))
    for seed in (0, 1):
        instance = env.gen_instance("unstructured", n_c, n_p, seed, arrival=arrival)
        table = env.run(instance, spec, 250, record_outcomes=True)
        with monkeypatch.context() as patch:
            patch.setattr(market, "_TABLE_MAX_CELLS", 0)
            solver = env.run(instance, spec, 250, record_outcomes=True)
        assert trace_digest(table) == trace_digest(solver)
        for key in ("branch", "gap"):
            assert table.info[key].tobytes() == solver.info[key].tobytes()


def test_table_sizes_and_cap():
    assert [len(market._matching_table(n, n)[0]) for n in (1, 2, 3, 4)] == [2, 7, 34, 209]
    matchings, incidence = market._matching_table(2, 3)
    assert len(set(matchings)) == len(matchings) == incidence.shape[0] == 13
    assert incidence.shape[1] == 6 and incidence.sum() == sum(len(m) for m in matchings)
    rng = np.random.default_rng(5)
    assert heaviest_matchings(rng.uniform(-1, 1, (4, 4)), 3) is not None
    assert heaviest_matchings(rng.uniform(-1, 1, (1, market._TABLE_MAX_CELLS + 1)), 3) is None
    # A 1x1 market has two matchings; the third place is padded.
    (best, second, third), (w1, w2, w3), _ = heaviest_matchings(np.array([[0.5]]), 3)
    assert (best.pairs, second.pairs, third) == (((0, 0),), (), None)
    assert (w1, w2, w3) == (0.5, 0.0, -np.inf)
