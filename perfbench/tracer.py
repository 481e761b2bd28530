"""Outside-in span tracer for the smbandits layers.

Each public function is replaced, for the length of a ``with`` block, by a
wrapper at the module or class attribute where its caller looks it up. A
wrapper records one span (name, start, end, parent) plus one optional number
read from the arguments or the return value. Spans are kept in flat arrays in
memory and written out when the traced run ends.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from smbandits import cli, confidence, environment, instability, market, policies

_NAN = math.nan


def _cells(matrix) -> float:
    return float(np.shape(matrix)[0] * np.shape(matrix)[1])


def _market_cells(u, *_rest) -> float:
    return float(u.num_customers * u.num_providers)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.value = array("d")
        self.labels: Counter = Counter()  # (span name, label) -> count
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, measure=None):
        """``fn`` recording a span per call; ``measure(args, result)`` gives its number."""
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter_ns
        name_id, parent, start_ns, end_ns, value = self.name_id, self.parent, self.start_ns, self.end_ns, self.value

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            value.append(_NAN)
            start_ns.append(0)
            end_ns.append(0)
            stack.append(idx)
            start_ns[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end_ns[idx] = clock()
                stack.pop()
            if measure is not None:
                value[idx] = measure(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced lookup site; restore the originals on exit."""
        tracer = self
        original_step = policies.Policy.__dict__["step"]
        feedback_name = "environment.feedback"

        def step(policy, arrivals, feedback):
            return original_step(policy, arrivals, tracer.wrap(feedback_name, feedback))

        def prime_info(args, result):
            _, info = result
            tracer.labels[("policies.compute_match_prime", info["branch"])] += 1
            return float(info["gap"])

        sites = [
            (environment, "run", "environment.run", None),
            (policies.Policy, "step", "policies.step", None),
            (policies, "compute_match", "policies.compute_match", None),
            (policies, "compute_match_prime", "policies.compute_match_prime", prime_info),
            (policies, "compute_match_ntu", "policies.compute_match_ntu", None),
            (confidence.ConfidenceSets, "update", "confidence.update", lambda a, r: float(len(a[1].pairs))),
            (confidence.ConfidenceSets, "ucb_matrix", "confidence.ucb_matrix", None),
            (confidence.ConfidenceSets, "contains", "confidence.contains", lambda a, r: float(r)),
            (confidence.ConfidenceSets, "width_sum", "confidence.width_sum", None),
            (policies, "assignment_with_duals", "market.assignment_with_duals", None),
            (instability, "assignment_with_duals", "market.assignment_with_duals", None),
            (policies, "assignment_pairs", "market.assignment_pairs", lambda a, r: _cells(a[0])),
            (market, "assignment_pairs", "market.assignment_pairs", lambda a, r: _cells(a[0])),
            (policies, "second_best_matching", "market.second_best_matching", None),
            (environment, "is_stable_tu", "market.is_stable_tu", None),
            (environment, "is_stable_ntu", "market.is_stable_ntu", None),
            (market, "linear_sum_assignment", "market.lsa", lambda a, r: _cells(a[0])),
            (
                environment,
                "subset_instability_value",
                "instability.subset_instability_value",
                lambda a, r: _market_cells(*a),
            ),
            (environment, "ntu_subset_instability", "instability.ntu_subset_instability", None),
            (cli, "ntu_subset_instability", "instability.ntu_subset_instability", None),
            (cli, "subset_instability", "instability.subset_instability", lambda a, r: _market_cells(*a)),
            (instability, "subset_instability", "instability.subset_instability", lambda a, r: _market_cells(*a)),
            (cli, "utility_difference", "instability.utility_difference", None),
            (instability, "linear_sum_assignment", "instability.lsa", lambda a, r: _cells(a[0])),
            (cli, "main", "cli.main", None),
        ]
        saved = []
        try:
            for owner, attr, name, measure in sites:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                fn = step if (owner, attr) == (policies.Policy, "step") else original
                setattr(owner, attr, self.wrap(name, fn, measure))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        # Copies, so that the arrays stay free to grow.
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start_ns": np.array(self.start_ns, dtype=np.int64),
            "end_ns": np.array(self.end_ns, dtype=np.int64),
            "value": np.array(self.value, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanSummary:
    """Per-name calls, busy time, self time, and values of recorded spans."""

    def __init__(self, tracer: Tracer) -> None:
        a = tracer.arrays()
        self.names = tracer.names
        self.labels = tracer.labels
        self.name_id = a["name_id"]
        self.parent = a["parent"]
        self.value = a["value"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64) / 1e9
        child = np.zeros(dur.size)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], dur[has_parent])
        self.dur = dur
        self.self_time = dur - child

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name_id.size, dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def busy_s(self, name: str) -> float:
        return float(self.dur[self._mask(name)].sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def values(self, name: str) -> np.ndarray:
        return self.value[self._mask(name)]

    def value_sum(self, name: str) -> float:
        return float(np.nansum(self.values(name)))

    def value_mean(self, name: str) -> float:
        v = self.values(name)
        return float(np.nanmean(v)) if v.size else 0.0

    def descendants_per_call(self, ancestor: str, child: str) -> float:
        """Mean number of ``child`` spans nested (at any depth) in each ``ancestor`` span."""
        calls = self.calls(ancestor)
        if not calls:
            return 0.0
        anc_id = self.names.index(ancestor)
        cur = self.parent[self._mask(child)]
        found = np.zeros(cur.size, dtype=bool)
        while (cur >= 0).any():
            live = cur >= 0
            found[live] |= self.name_id[cur[live]] == anc_id
            cur = np.where(live, self.parent[np.maximum(cur, 0)], -1)
        return float(found.sum()) / calls
