"""Closed-loop benchmark of smbandits: simulated rounds and ``score`` commands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small_square --seed 1 --seconds 15 --trace 0

One client in one process drives the public API: each replica (``run``) or
score command (``cli.main(["score", ...])``) starts after the previous one
returns. The inputs are generated from ``--seed`` before timing starts. Each
operation's wall time is calibrated against a fixed probe run next to it
(``calibrate.py``), which takes out the host's drift in speed. Every
output is checked; a replica or command that raises, exits non-zero or fails
a check counts as failed. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, and its per-layer
metrics with ``--trace 1``, taken from a separate traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
SETUP_PROBE_S = 0.15  # probing before and after each set-up sample
CHECK_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CHECK_TOL * max(1.0, abs(a), abs(b))


class Stats:
    """Timings and failure counts of one pass over the workload.

    Every operation is followed by a group of calibration probes;
    ``probes[0]`` is taken before the first operation.
    """

    def __init__(self, workload) -> None:
        self.cells = [cell.name for cell in workload.cells]
        self.op_name: list[str] = []  # cell name, or "score"
        self.op_start: list[float] = []
        self.op_end: list[float] = []
        self.op_wall: list[float] = []  # wall seconds; nan for a failed operation
        self.op_rounds: list[int] = []
        self.probe_start: list[float] = []
        self.probes: list[list[float]] = []
        self.score_tu = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.stable_rounds = 0
        self.rounds = 0
        self.cycles = 0
        self.wall = 0.0

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(note)

    def probe(self, seconds: float) -> None:
        self.probe_start.append(time.perf_counter())
        self.probes.append(calibrate.probe_for(seconds))

    def record(self, name: str, start: float, wall: float, rounds: int = 0) -> None:
        """Record an operation that started at ``start``; ``wall`` is nan if it failed."""
        self.op_name.append(name)
        self.op_start.append(start)
        self.op_end.append(time.perf_counter())
        self.op_wall.append(wall)
        self.op_rounds.append(rounds)
        self.probe((self.op_end[-1] - start) * calibrate.PROBE_SHARE)

    def timings(self, calibrated: bool = True) -> "Timings":
        wall = np.asarray(self.op_wall, dtype=np.float64)
        if calibrated:
            start, end = np.array(self.op_start), np.array(self.op_end)
            wall = wall * calibrate.scale(calibrate.speeds(start, end, self.probe_start, self.probes))
        return Timings(self, wall)


class Timings:
    """Per-cell replica seconds and rounds, and score latencies, of one pass."""

    def __init__(self, stats: Stats, wall: np.ndarray) -> None:
        names = np.asarray(stats.op_name)
        rounds = np.asarray(stats.op_rounds)
        ok = ~np.isnan(wall)
        self.cell_wall = {c: float(wall[ok & (names == c)].sum()) for c in stats.cells}
        self.cell_rounds = {c: int(rounds[ok & (names == c)].sum()) for c in stats.cells}
        self.score_ms = (wall[ok & (names == "score")] * 1e3).tolist()

    def cell_us_per_round(self) -> dict[str, float]:
        return {c: self.cell_wall[c] / r * 1e6 for c, r in self.cell_rounds.items() if r}

    @property
    def replica_wall(self) -> float:
        return sum(self.cell_wall.values())

    @property
    def total_wall(self) -> float:
        return self.replica_wall + sum(self.score_ms) / 1e3


def _check_replica(trace, cell, reference: float | None, rtol: float) -> str | None:
    inst = trace.instability
    if inst.shape != (cell.horizon,) or not (np.isfinite(inst).all() and np.isfinite(trace.certified_bound).all()):
        return "trace has the wrong length or non-finite entries"
    over = trace.containment & (inst > trace.certified_bound + CHECK_TOL)
    if over.any():
        return f"instability above the certified bound on {int(over.sum())} containment rounds"
    if reference is not None:
        final = float(trace.cum_regret[-1])
        if abs(final - reference) > rtol * max(1.0, abs(reference)):
            return f"final cumulative regret {final!r} differs from the reference {reference!r}"
    return None


class ScoreChecks:
    """Checks of one score command's output.

    The brute-force oracles run once per small enough input, before timing;
    later commands compare against their values and against the first score
    of the same input.
    """

    def __init__(self, inputs) -> None:
        from smbandits.instability import (
            ntu_subset_instability_bruteforce,
            subset_instability_bruteforce,
        )
        from smbandits.market import Matching, MarketOutcome

        self.oracle: dict[str, float] = {}
        self.first: dict[str, float] = {}
        for score in (score for scores in inputs.score_sets for score in scores):
            n_c, n_p = score.truth.num_customers, score.truth.num_providers
            matching = Matching(score.matching)
            if score.kind.ntu and max(n_c, n_p) <= 6:
                self.oracle[score.outcome_path] = ntu_subset_instability_bruteforce(score.truth, matching)
            elif not score.kind.ntu and n_c + n_p <= 12:
                outcome = MarketOutcome(matching, score.customer_transfers, score.provider_transfers)
                self.oracle[score.outcome_path] = subset_instability_bruteforce(score.truth, outcome)

    def check(self, payload: dict, score) -> str | None:
        value = float(payload["instability"])
        if value < -CHECK_TOL:
            return f"negative instability {value!r}"
        subsidies = sum(payload["subsidies_customers"]) + sum(payload["subsidies_providers"])
        if not _close(subsidies, value):
            return f"subsidies sum to {subsidies!r}, instability is {value!r}"
        if not score.kind.ntu:
            if not (_close(payload["subsidy_total"], value) and _close(payload["max_coalition_unhappiness"], value)):
                return "instability, subsidy_total and max_coalition_unhappiness differ"
            if payload["utility_difference"] > value + CHECK_TOL * max(1.0, abs(value)):
                return "utility_difference exceeds instability"
        oracle = self.oracle.get(score.outcome_path)
        if oracle is not None and not _close(oracle, value):
            return f"instability {value!r} disagrees with the brute-force oracle {oracle!r}"
        first = self.first.setdefault(score.outcome_path, value)
        if value != first:
            return f"instability {value!r} differs from the first score of the same input {first!r}"
        return None


def run_pass(inputs, stop, stats: Stats, checks: ScoreChecks) -> None:
    """Run whole cycles until ``stop(stats)`` holds."""
    import workloads
    from smbandits import cli
    from smbandits import environment as env

    specs = {cell.name: cell.spec() for cell in inputs.workload.cells}
    references = workloads.REFERENCE_REGRET[inputs.workload.name]
    clock = time.perf_counter
    calibrate.warm_up()
    stats.probe(0.0)
    started = clock()
    while True:
        pool_index = stats.cycles % len(inputs.cycles)
        for cell, instance in inputs.cycles[pool_index]:
            stats.attempted += 1
            t0 = clock()
            try:
                trace = env.run(instance, specs[cell.name], cell.horizon)
            except Exception as exc:  # a failed operation is counted, not fatal
                stats.record(cell.name, t0, math.nan)
                stats.fail(f"{cell.name}: {type(exc).__name__}: {exc}")
                continue
            stats.record(cell.name, t0, clock() - t0, cell.horizon)
            stats.rounds += cell.horizon
            stats.stable_rounds += int(trace.stable_truth.sum())
            reference = references.get(cell.name) if pool_index == 0 else None
            note = _check_replica(trace, cell, reference, workloads.REFERENCE_RTOL)
            if note:
                stats.fail(f"{cell.name} seed {instance.seed}: {note}")
        for score in inputs.score_sets[stats.cycles % len(inputs.score_sets)]:
            stats.attempted += 1
            argv = ["score", "--instance", score.instance_path, "--outcome", score.outcome_path]
            out = io.StringIO()
            t0 = clock()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                elapsed = clock() - t0
                if code != 0:
                    raise RuntimeError(f"score exited with {code}")
                note = checks.check(json.loads(out.getvalue()), score)
            except Exception as exc:  # a failed operation is counted, not fatal
                stats.record("score", t0, math.nan)
                stats.fail(f"{score.kind.name}: {type(exc).__name__}: {exc}")
                continue
            stats.record("score", t0, elapsed)
            stats.score_tu += not score.kind.ntu
            if note:
                stats.fail(f"{score.kind.name} {score.outcome_path}: {note}")
        stats.cycles += 1
        stats.wall = clock() - started
        if stop(stats):
            return


def _setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times (import plus input generation) measured in fresh interpreters.

    Returns the calibrated and the wall seconds of each sample. A sample is
    calibrated by probes this process runs just before and just after it; a
    fresh interpreter's own probes track its import time less well.
    """
    calibrate.warm_up()
    calibrated, wall = [], []
    for k in range(SETUP_SAMPLES):
        out_dir = WORK / f"setup-{os.getpid()}-{k}"
        before = calibrate.probe_for(SETUP_PROBE_S)
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(out_dir)],
                capture_output=True,
                text=True,
                timeout=SETUP_TIMEOUT_S,
                check=True,
                cwd=ROOT,
            )
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        after = calibrate.probe_for(SETUP_PROBE_S)
        seconds = float(done.stdout.strip().splitlines()[-1])
        wall.append(seconds)
        calibrated.append(seconds * calibrate.scale(statistics.median(before + after)))
    return calibrated, wall


def _pin_to_one_cpu() -> None:
    """Keep this process and its set-up children on one CPU of those allowed.

    The host's CPUs drift in speed independently; calibration probes only
    describe the operations around them if both run on the same CPU.
    """
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(timings: Timings, setup: list[float]) -> dict[str, float]:
    per_cell = timings.cell_us_per_round().values()
    rounds = sum(timings.cell_rounds.values())
    score_wall = sum(timings.score_ms) / 1e3
    return {
        "rounds_per_s": rounds / timings.replica_wall if timings.replica_wall else 0.0,
        "cell_us_per_round_max": max(per_cell, default=0.0),
        "scores_per_s": len(timings.score_ms) / score_wall if score_wall else 0.0,
        "score_ms_p50": _percentile(timings.score_ms, 50),
        "score_ms_p90": _percentile(timings.score_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }


def per_layer(spans, untraced: Stats, traced: Stats, all_cells: list[str]) -> dict[str, float]:
    s = spans
    m: dict[str, float] = {}
    for name, stats in (
        ("environment.run", ("self_s",)),
        ("environment.feedback", ("calls", "busy_s")),
        ("policies.step", ("self_s",)),
        ("policies.compute_match", ("calls", "busy_s", "self_s")),
        ("policies.compute_match_prime", ("calls", "busy_s", "self_s")),
        ("policies.compute_match_ntu", ("calls", "busy_s", "self_s")),
        ("confidence.update", ("calls", "busy_s")),
        ("confidence.ucb_matrix", ("busy_s",)),
        ("confidence.contains", ("busy_s",)),
        ("confidence.width_sum", ("busy_s",)),
        ("market.assignment_with_duals", ("calls", "busy_s", "self_s")),
        ("market.assignment_pairs", ("calls", "busy_s")),
        ("market.second_best_matching", ("calls", "self_s")),
        ("market.is_stable_tu", ("busy_s",)),
        ("market.is_stable_ntu", ("busy_s",)),
        ("market.lsa", ("calls", "busy_s")),
        ("instability.subset_instability_value", ("calls", "busy_s", "self_s")),
        ("instability.ntu_subset_instability", ("calls", "busy_s")),
        ("instability.subset_instability", ("busy_s",)),
        ("instability.utility_difference", ("busy_s",)),
        ("instability.lsa", ("calls", "busy_s")),
        ("cli.main", ("calls", "self_s")),
    ):
        for stat in stats:
            m[f"{name}.{stat}"] = float(getattr(s, stat)(name))

    untimed, timed = untraced.timings(), traced.timings()
    per_cell = untimed.cell_us_per_round()
    for cell in all_cells:
        m[f"environment.run.us_per_round.{cell}"] = per_cell.get(cell, 0.0)
    m["environment.run.stable_truth_frac"] = traced.stable_rounds / traced.rounds if traced.rounds else 0.0

    prime = "policies.compute_match_prime"
    prime_calls = s.calls(prime)
    for branch in ("fallback", "robust", "expanded"):
        m[f"{prime}.branch_{branch}_frac"] = s.labels[(prime, branch)] / prime_calls if prime_calls else 0.0
    gaps = [g for g in s.values(prime) if g > 0.0]
    m[f"{prime}.gap_p10"] = _percentile(gaps, 10)
    m[f"{prime}.gap_p50"] = _percentile(gaps, 50)
    m[f"{prime}.gap_p90"] = _percentile(gaps, 90)

    m["confidence.update.pairs_per_call"] = s.value_mean("confidence.update")
    m["confidence.contains.true_frac"] = s.value_mean("confidence.contains")

    m["market.second_best_matching.solves_per_call"] = s.descendants_per_call(
        "market.second_best_matching", "market.lsa"
    )
    for layer, useful in (
        ("market", ("market.assignment_pairs",)),
        ("instability", ("instability.subset_instability_value", "instability.subset_instability")),
    ):
        cells = s.value_sum(f"{layer}.lsa")
        m[f"{layer}.lsa.cells"] = cells
        m[f"{layer}.lsa.useful_frac"] = (
            sum(s.value_sum(name) for name in useful) / cells if cells else 0.0
        )
    # Counted per TU score command; NTU commands do not call subset_instability.
    m["cli.score.subset_instability_per_call"] = (
        s.calls("instability.subset_instability") / traced.score_tu if traced.score_tu else 0.0
    )
    m["trace.overhead_frac"] = timed.total_wall / untimed.total_wall - 1.0
    m["trace.spans"] = float(s.name_id.size)
    return m


def _declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "smbandits" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a checkout holding src/smbandits and BENCHMARK.json ({ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = _declared_metrics(bool(args.trace))

    _pin_to_one_cpu()
    WORK.mkdir(exist_ok=True)
    setup, setup_wall = ([], []) if args.trace else _setup_seconds(args.workload, args.seed)
    input_dir = WORK / f"inputs-{os.getpid()}"
    try:
        inputs = workloads.build(args.workload, args.seed, input_dir)
        checks = ScoreChecks(inputs)
        if args.trace:
            import tracer

            untraced = Stats(inputs.workload)
            run_pass(inputs, lambda st: st.wall >= args.seconds / 2, untraced, checks)
            traced = Stats(inputs.workload)
            spans = tracer.Tracer()
            with spans.installed():
                run_pass(inputs, lambda st: st.cycles >= untraced.cycles, traced, checks)
            spans.save(WORK / f"spans-{args.workload}.npz")
            all_cells = sorted({c.name for w in workloads.WORKLOADS.values() for c in w.cells})
            metrics = per_layer(tracer.SpanSummary(spans), untraced, traced, all_cells)
            passes = (untraced, traced)
        else:
            stats = Stats(inputs.workload)

            def finished(st: Stats) -> bool:
                # At least 100 score samples, so that 10 lie beyond p90.
                return st.wall >= args.seconds and st.op_name.count("score") >= 100

            run_pass(inputs, finished, stats, checks)
            metrics = end_to_end(stats.timings(), setup)
            wall_metrics = end_to_end(stats.timings(calibrated=False), setup_wall)
            passes = (stats,)
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)

    if set(metrics) != set(declared):
        print(
            f"error: metrics differ from BENCHMARK.json: missing {sorted(set(declared) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(declared))}",
            file=sys.stderr,
        )
        return 1
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    timings = passes[0].timings()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cycles": [p.cycles for p in passes],
        "score_samples": len(timings.score_ms),
        "failed_frac": failed / attempted,
        "cell_us_per_round": timings.cell_us_per_round(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "probe_ms": [float(np.percentile(np.concatenate(passes[0].probes), q)) * 1e3 for q in (0, 50, 100)],
        "setup_s_samples": setup,
        "wall_setup_s_samples": setup_wall,
        "failures": [note for p in passes for note in p.failures],
        "environment": _environment(),
    }
    if not args.trace:
        info["wall_metrics"] = {k: v for k, v in wall_metrics.items() if k != "peak_rss_mb"}
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
