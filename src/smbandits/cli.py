"""Command-line entry point: run experiments, score outcomes, verify properties.

``run`` executes a config and writes a trace CSV (seed-major, round-minor)
plus a summary JSON; ``score`` evaluates one outcome file against one
instance file; ``verify`` replays the randomized property suite and exits
non-zero on any violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import environment as env
from .config import load_config, load_score
from .errors import ConfigError, InvalidOutcome, SmbError
from .instability import (
    ntu_subset_instability,
    ntu_subset_instability_bruteforce,
    subset_instability,
    subset_instability_bruteforce,
    utility_difference,
)
from .market import (
    Matching,
    MarketOutcome,
    UtilityMatrix,
    is_stable_ntu,
    is_stable_tu,
    max_weight_matching_with_duals,
    stable_outcome_from_duals,
)

CSV_COLUMNS = ("round", "seed", "instability", "cum_regret", "width_sum", "revenue", "bound_only")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trace_csv(path: Path, traces: dict[int, env.RegretTrace]) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for seed in sorted(traces):
        trace = traces[seed]
        columns = (trace.instability, trace.cum_regret, trace.width_sum, trace.revenue)
        for t in range(trace.horizon):
            values = ",".join(_fmt(column[t]) for column in columns)
            lines.append(f"{t + 1},{seed},{values},{int(trace.bound_only[t])}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_run(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads: must be at least 1, got {args.threads}")
    config = load_config(args.config)
    out_dir = Path(args.out)
    paths = [out_dir / f"{config.name}_{part}" for part in ("trace.csv", "summary.json")]
    # Made before any replica runs; an OSError here or in a write (--out names a file, say) is an input error.
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from exc
    traces = env.sweep([config], threads=args.threads)[config.name]
    summary = {**env.summarize(traces), "name": config.name, "horizon": config.horizon, "policy": config.policy.kind}
    try:
        write_trace_csv(paths[0], traces)
        paths[1].write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from exc
    for path in paths:
        print(f"wrote {path}")
    return 0


@functools.cache
def _list_encoder(separator: str):
    return json.JSONEncoder(separators=(separator, ": ")).encode


def _indented(value, pad: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` at indent ``pad``. A list whose first item is not a
    list must hold scalars only; it goes through a C encoder cached per indent, which ``indent`` would
    bypass. Any other list holds the ``[i, j]`` int pairs of ``blocking_pairs``, written directly."""
    if not (isinstance(value, (dict, list)) and value):
        return json.dumps(value)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        body = sep.join(f"{encode_basestring_ascii(k)}: {_indented(v, inner)}" for k, v in sorted(value.items()))
        return f"{{\n{inner}{body}\n{pad}}}"
    if isinstance(value[0], list):
        body = sep.join([f"[\n{inner}  {i},\n{inner}  {j}\n{inner}]" for i, j in value])
    else:
        body = _list_encoder(sep)(value)[1:-1]
    return f"[\n{inner}{body}\n{pad}]"


def cmd_score(args: argparse.Namespace) -> int:
    truth, outcome, ntu = load_score(args.instance, args.outcome)
    if ntu:
        report = ntu_subset_instability(truth, outcome.matching)
        payload = {
            "ntu": True,
            "instability": report.value,
            "subsidies_customers": report.subsidies_customers.tolist(),
            "subsidies_providers": report.subsidies_providers.tolist(),
        }
    else:
        # One report carries all three faces: the value is the maximum
        # coalition unhappiness, the witness its coalition, and the subsidies
        # the minimum stabilizing ones.
        try:
            report = subset_instability(truth, outcome)
        except InvalidOutcome as exc:  # transfers that are not zero-sum, named by the file they came from
            raise ConfigError(f"{args.outcome}: customer_transfers, provider_transfers: {exc}") from exc
        wc, wp = report.witness_subset
        witness = sorted([f"C{i}" for i in wc.tolist()] + [f"P{j}" for j in wp.tolist()])
        payload = {
            "ntu": False,
            "instability": report.value,
            "utility_difference": utility_difference(truth, outcome),
            "subsidy_total": report.subsidy_total(),
            "subsidies_customers": report.subsidies_customers.tolist(),
            "subsidies_providers": report.subsidies_providers.tolist(),
            "max_coalition_unhappiness": report.value,
            "coalition": witness,
            "witness_subset": witness,
            "blocking_pairs": [[i, j] for i, j in zip(*(side.tolist() for side in report.blocking_pairs))],
        }
    print(_indented(payload, ""))
    return 0


def _verify_properties(seed: int, cases: int) -> list[str]:
    """Randomized cross-checks of the core identities; returns failure notes."""
    rng = np.random.default_rng(seed)
    failures: list[str] = []

    def record(cond: bool, note: str) -> None:
        if not cond:
            failures.append(note)

    for case in range(cases):
        n_c = int(rng.integers(1, 5))
        n_p = int(rng.integers(1, 5))
        u = UtilityMatrix(rng.uniform(-1, 1, (n_c, n_p)), rng.uniform(-1, 1, (n_p, n_c)))
        match, duals = max_weight_matching_with_duals(u)
        gap = float(duals[0].sum() + duals[1].sum()) - match.total_utility(u)
        record(abs(gap) < 1e-9, f"case {case}: duality gap {gap:.2e}")
        reconstructed = stable_outcome_from_duals(u, match, duals)
        record(is_stable_tu(u, reconstructed, 0.0), f"case {case}: reconstructed outcome unstable")

        k = int(rng.integers(0, min(n_c, n_p) + 1))
        ci = rng.permutation(n_c)[:k]
        pj = rng.permutation(n_p)[:k]
        m = Matching(list(zip(ci.tolist(), pj.tolist())))
        tau_c = np.zeros(n_c)
        tau_p = np.zeros(n_p)
        for i, j in m.pairs:
            x = float(rng.uniform(-1, 1))
            tau_c[i] = x
            tau_p[j] = -x
        out = MarketOutcome(m, tau_c, tau_p)
        report = subset_instability(u, out)
        brute = subset_instability_bruteforce(u, out)
        record(abs(report.value - brute) < 1e-9, f"case {case}: dual reduction {report.value} != brute {brute}")
        record(
            abs(report.subsidy_total() - report.value) < 1e-9,
            f"case {case}: subsidy total {report.subsidy_total()} != value {report.value}",
        )
        record(
            utility_difference(u, out) <= report.value + 1e-9,
            f"case {case}: utility difference exceeds instability",
        )
        record(
            (report.value <= 1e-9) == is_stable_tu(u, out, 0.0),
            f"case {case}: zero-instability/stability mismatch",
        )

        # Lipschitz robustness of the metric in the utilities.
        delta_c = rng.uniform(-0.1, 0.1, (n_c, n_p))
        delta_p = rng.uniform(-0.1, 0.1, (n_p, n_c))
        perturbed = UtilityMatrix(u.customer_values + delta_c, u.provider_values + delta_p)
        change = abs(subset_instability(perturbed, out).value - report.value)
        bound = 2.0 * (np.abs(delta_c).max(axis=1).sum() + np.abs(delta_p).max(axis=1).sum())
        record(change <= bound + 1e-9, f"case {case}: Lipschitz bound violated")

        # NTU metric: exact solver vs candidate-grid oracle, zero iff stable.
        ntu_report = ntu_subset_instability(u, m)
        ntu_oracle = ntu_subset_instability_bruteforce(u, m)
        record(
            abs(ntu_report.value - ntu_oracle) < 1e-9,
            f"case {case}: NTU exact {ntu_report.value} != oracle {ntu_oracle}",
        )
        record(
            (ntu_report.value <= 1e-9) == is_stable_ntu(u, m),
            f"case {case}: NTU zero-instability/stability mismatch",
        )

    # Short bandit run: certificate and determinism.
    instance = env.gen_instance("unstructured", 3, 3, seed=seed)
    spec = env.PolicySpec("match_ucb")
    trace_a = env.run(instance, spec, 300)
    trace_b = env.run(instance, spec, 300)
    record(
        bool(np.array_equal(trace_a.instability, trace_b.instability)),
        "replayed run is not bit-identical",
    )
    mask = trace_a.containment
    record(
        bool((trace_a.instability[mask] <= trace_a.width_sum[mask] + 1e-9).all()),
        "width certificate violated on a containment round",
    )
    return failures


def cmd_verify(args: argparse.Namespace) -> int:
    if args.cases < 0:
        raise ConfigError(f"--cases: must be at least 0, got {args.cases}")
    if args.seed < 0:
        raise ConfigError(f"--seed: must be at least 0, got {args.seed}")
    failures = _verify_properties(args.seed, args.cases)
    if failures:
        for note in failures:
            print(f"FAIL {note}", file=sys.stderr)
        print(f"verify: {len(failures)} violations", file=sys.stderr)
        return 1
    print(f"verify: all checks passed ({args.cases} randomized cases)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    ``main`` call: ``parse_args`` leaves it unchanged and returns a fresh
    namespace. Its ``commands`` maps each command to the command's own parser."""
    parser = argparse.ArgumentParser(
        prog="smbandits",
        description="Matching-market bandit simulator: run experiments, score outcomes, verify invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run",
        help="execute an experiment config",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "config keys (schema_version=1):\n"
            "  class: unstructured|typed|linear   customers, providers: ints\n"
            "  num_types (default 3), dim (default 3), horizon, seeds: [ints]\n"
            "  policy.kind: match_ucb|match_typed_ucb|match_lin_ucb|match_ucb_prime|\n"
            "               match_ntu_ucb|etc|revenue_frictions\n"
            "  policy knobs, an error for a kind that does not read them: ucb_scale (8.0):\n"
            "    every kind but match_lin_ucb; lin_beta_d_coeff (4.0), lin_beta_log_coeff\n"
            "    (8.0), lin_ridge (1.0): match_lin_ucb; epsilon (0.3): revenue_frictions;\n"
            "    etc_pulls_per_pair (default ceil((T/|A|)^(2/3) log^(1/3)(|A|T))): etc\n"
            "  arrival.kind: all (default)|iid_subset (p)|fixed (schedule)\n"
            "  noise.kind: gaussian (sigma, default 1.0)|bernoulli (truth in [0, 1])\n"
            "  truth: fixed value matrices\n"
        ),
    )
    p_run.add_argument("--config", required=True, help="path to a JSON experiment config")
    p_run.add_argument("--threads", type=int, default=1, help="parallel replicas, at least 1")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_score = sub.add_parser("score", help="score an outcome file against an instance file")
    p_score.add_argument("--instance", required=True, help="instance snapshot JSON")
    p_score.add_argument("--outcome", required=True, help="outcome JSON")
    p_score.set_defaults(func=cmd_score)

    p_verify = sub.add_parser("verify", help="run the randomized property suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--cases", type=int, default=200, help="randomized cases, at least 0")
    p_verify.set_defaults(func=cmd_verify)

    parser.commands = {"run": p_run, "score": p_score, "verify": p_verify}
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # A command's own parser reads its words once; any other argv, or words left over, takes the full parser.
    command = parser.commands.get(argv[0]) if argv else None
    args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0])) if command else (None, [])
    if args is None or rest:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SmbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
