"""Machine-speed calibration of benchmark timings.

The benchmark shares a host whose speed drifts: a fixed loop runs in fast
and slow phases (up to 1.6 times longer in a slow one), the phases switch
within tens of milliseconds, their mix drifts over seconds, and CPU time
tracks wall time throughout, so the drift is the host's, not scheduling.
Every timed operation is therefore followed by probes. ``probe()`` is a
fixed task that never changes with the program: JSON round trips and small
objects, 3x3 and 40x40 scipy assignments, 12x12 array work. Probing after
an operation lasts ``PROBE_SHARE`` of the operation's own time, and is at
least one probe. An operation's calibrated time is its wall time times
``REFERENCE_PROBE_S`` divided by the time-weighted mean probe time around it
(see ``speeds``): its time on a host that runs the probe in
``REFERENCE_PROBE_S``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

# A typical probe time on a 2-core x86-64 Linux box (Python 3.11.7, numpy
# 2.4.6, scipy 1.17.1). It only sets the scale of calibrated times.
REFERENCE_PROBE_S = 8.0e-4
# Probing after an operation lasts this share of the operation's wall time.
PROBE_SHARE = 0.02

_rng = np.random.default_rng(20210819)
_SMALL = [_rng.random((3, 3)) for _ in range(16)]
_MEDIUM = [_rng.random((12, 12)) for _ in range(4)]
_LARGE = _rng.random((40, 40))
_DOC = {
    "matching": [[i, i + 1] for i in range(12)],
    "customer_transfers": _rng.random(12).tolist(),
    "provider_transfers": _rng.random(12).tolist(),
    "ntu": False,
}


@dataclass
class _Agent:
    value: float
    pair: tuple[int, int]


def _interpreter() -> float:
    """JSON round trips, small objects, sorting and formatting."""
    acc = 0.0
    for _ in range(6):
        doc = json.loads(json.dumps(_DOC))
        agents = [_Agent(x, (i, i + 1)) for i, x in enumerate(doc["customer_transfers"])]
        agents.sort(key=lambda a: a.value)
        acc += len({a.pair for a in agents}) + len(f"{acc:.6f} {agents[0].value!r}")
    return acc


def _small_assignments() -> float:
    """3x3 assignments with reductions and a dict, as one small round does."""
    acc = 0.0
    for m in _SMALL:
        rows, cols = linear_sum_assignment(m, maximize=True)
        acc += float(m[rows, cols].sum()) + float((m.max(axis=0) - m.min(axis=1)).sum())
        table = {}
        for i in range(24):
            table[(i, i + 1)] = i * acc
        acc += sum(table.values()) * 1e-9
    rows, cols = linear_sum_assignment(_LARGE)
    return acc + float(_LARGE[rows, cols].sum())


def _array_work() -> float:
    """12x12 array arithmetic, sorting, a solve and an assignment."""
    acc = 0.0
    for m in _MEDIUM:
        u = m + m.T
        acc += float(np.sqrt(np.maximum(u - 0.5, 0.0)).sum())
        acc += float(u.flat[np.argsort(u, axis=None)[:10]].sum())
        rows, cols = linear_sum_assignment(u, maximize=True)
        acc += float(u[rows, cols].sum())
        acc += float(np.linalg.solve(u + 12.0 * np.eye(12), m[:, 0]).sum())
    return acc


def probe() -> float:
    """Run the fixed calibration task once and return its wall seconds."""
    started = time.perf_counter()
    _interpreter()
    _small_assignments()
    _array_work()
    return time.perf_counter() - started


def warm_up() -> None:
    for _ in range(5):
        probe()


def probe_for(seconds: float) -> list[float]:
    """Times of back-to-back probes filling about ``seconds``; at least one."""
    probes = [probe()]
    while sum(probes) < seconds:
        probes.append(probe())
    return probes


def speeds(
    op_start: np.ndarray, op_end: np.ndarray, group_start: list[float], groups: list[list[float]]
) -> np.ndarray:
    """Time-weighted mean probe time over the stretch of the run around each operation.

    ``groups[0]`` holds the probes run before the first operation and
    ``groups[i + 1]`` those run right after operation ``i``; group ``k``
    starts at ``group_start[k]``. Operation ``i`` is read from the probes
    that ran within one operation-length of it on either side, and at least
    from the two groups before it and the two after it. The host switches
    between fast and slow phases within tens of milliseconds, so a long
    operation spans many of them, and only a window that widens with the
    operation samples the same mix. A probe of group ``i + 1`` stands for
    an equal share of operation ``i``'s time, so that short operations,
    each followed by a whole probe, do not outweigh long ones. Probe times
    above twice the run's median are clipped, so that one interrupted probe
    does not stand for a whole window.
    """
    sizes = [len(g) for g in groups]
    p = np.concatenate([np.asarray(g, dtype=np.float64) for g in groups])
    ends = np.concatenate([start + np.cumsum(g) for start, g in zip(group_start, groups)])
    mid = ends - p / 2
    p = np.minimum(p, 2.0 * np.median(p))
    spans = np.concatenate([[sum(groups[0])], op_end - op_start])
    w = np.repeat(spans / sizes, sizes)
    wsum = np.concatenate([[0.0], np.cumsum(w)])
    wpsum = np.concatenate([[0.0], np.cumsum(w * p)])
    first = np.cumsum([0] + sizes)  # first[k]: index of group k's first probe; first[-1] = p.size
    n_groups = len(groups)
    out = np.empty(len(op_start))
    for i, (start, end) in enumerate(zip(op_start, op_end)):
        span = end - start
        lo = min(int(np.searchsorted(mid, start - span)), first[max(0, i - 1)])
        hi = max(int(np.searchsorted(mid, end + span, side="right")), first[min(i + 3, n_groups)])
        out[i] = (wpsum[hi] - wpsum[lo]) / (wsum[hi] - wsum[lo])
    return out


def scale(probe_s: float | np.ndarray) -> float | np.ndarray:
    """Factor that turns wall seconds into calibrated seconds."""
    return REFERENCE_PROBE_S / probe_s
