import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smbandits
from conftest import tu_markets_and_outcomes
from smbandits.cli import _indented, build_parser, main
from smbandits.confidence import LinearConfidence
from smbandits.config import load_config, parse_config
from smbandits.environment import sweep
from smbandits.errors import ConfigError, SmbError
from smbandits.instability import ntu_subset_instability, subset_instability, utility_difference
from smbandits.market import Matching, MarketOutcome, UtilityMatrix

FIG1_INSTANCE = {
    "customer_values": [[9.0, 12.0]],
    "provider_values": [[-5.0], [-10.0]],
}
FIG1_OUTCOME = {
    "matching": [[0, 1]],
    "customer_transfers": [-11.0],
    "provider_transfers": [0.0, 11.0],
}
SQUARE_INSTANCE = {
    "customer_values": [[1.0, 0.5], [0.2, 0.8]],
    "provider_values": [[0.3, 0.6], [0.9, 0.1]],
}
GOLDEN = Path(__file__).parent / "golden"


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def base_config(**overrides):
    cfg = {
        "schema_version": 1,
        "name": "cell",
        "class": "unstructured",
        "customers": 2,
        "providers": 2,
        "horizon": 40,
        "seeds": [0, 1],
        "policy": {"kind": "match_ucb", "ucb_scale": 2.0},
    }
    cfg.update(overrides)
    return cfg


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = parse_config(base_config())
        assert cfg.policy.kind == "match_ucb"
        assert cfg.policy.confidence.ucb_scale == 2.0
        assert cfg.seeds == (0, 1)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(base_config(extra=1))
        with pytest.raises(ConfigError, match="policy"):
            parse_config(base_config(policy={"kind": "match_ucb", "alpha": 2}))

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(base_config(seeds=[]))

    def test_schema_version_required(self):
        cfg = base_config()
        del cfg["schema_version"]
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(cfg)

    def test_policy_class_compatibility(self):
        with pytest.raises(ConfigError, match="typed"):
            parse_config(base_config(policy={"kind": "match_typed_ucb"}))

    def test_fixed_truth_shape_checked(self):
        cfg = base_config(truth={"customer_values": [[0.1]], "provider_values": [[0.2]]})
        with pytest.raises(ConfigError, match="truth"):
            parse_config(cfg)

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"schema_version": 1,\n  "oops"\n}', encoding="utf-8")
        with pytest.raises(ConfigError, match=r":\d+:\d+"):
            load_config(str(p))

    @pytest.mark.parametrize(
        "overrides, key_path",
        [
            (
                {"arrival": {"kind": "fixed", "schedule": [[[0], [1]], [[0, 2], [1]]]}},
                r"config\.arrival\.schedule\[1\]\[0\]: agent 2 is not an index in \[0, 2\)",
            ),
            (
                {"arrival": {"kind": "fixed", "schedule": [[[0, 1], [1, 1]]]}},
                r"config\.arrival\.schedule\[0\]\[1\]",
            ),
            ({"noise": {"kind": "bernoulli"}}, r"config\.noise\.kind"),
            (
                {
                    "noise": {"kind": "bernoulli"},
                    "truth": {
                        "customer_values": [[0.5, -0.1], [0.2, 0.3]],
                        "provider_values": [[0.1, 0.2], [0.3, 0.4]],
                    },
                },
                r"config\.noise\.kind",
            ),
            ({"policy": {"kind": "etc", "etc_pulls_per_pair": -1}}, r"config\.policy\.etc_pulls_per_pair"),
            ({"policy": {"kind": "match_ucb", "ucb_scale": float("nan")}}, r"config\.policy\.ucb_scale"),
            ({"noise": {"kind": "gaussian", "sigma": float("inf")}}, r"config\.noise\.sigma"),
            (
                {"class": "linear", "policy": {"kind": "match_lin_ucb", "lin_ridge": 0}},
                r"config\.policy\.lin_ridge: must be at least",
            ),
            (
                {"class": "linear", "policy": {"kind": "match_lin_ucb", "lin_beta_log_coeff": -1.0}},
                r"config\.policy\.lin_beta_log_coeff: must be nonnegative",
            ),
            ({"policy": {"kind": "revenue_frictions", "epsilon": float("inf")}}, r"config\.policy\.epsilon"),
            ({"policy": {"kind": "revenue_frictions", "epsilon": 1e308}}, r"config\.policy\.epsilon"),
            ({"policy": {"kind": "match_lin_ucb"}}, r"config\.class: match_lin_ucb needs class=linear"),
            # A key the policy kind never reads would change nothing.
            (
                {"class": "linear", "policy": {"kind": "match_lin_ucb", "ucb_scale": 0.001}},
                r"config\.policy\.ucb_scale: policy kind match_lin_ucb does not read this key",
            ),
            (
                {"policy": {"kind": "match_ucb", "lin_ridge": 0.5}},
                r"config\.policy\.lin_ridge: policy kind match_ucb does not read this key",
            ),
            (
                {"policy": {"kind": "match_ucb", "epsilon": 0.2}},
                r"config\.policy\.epsilon: policy kind match_ucb does not read this key",
            ),
            (
                {"policy": {"kind": "match_ucb", "etc_pulls_per_pair": 3}},
                r"config\.policy\.etc_pulls_per_pair: policy kind match_ucb does not read this key",
            ),
            (
                {"policy": {"kind": "etc", "epsilon": 0.2}},
                r"config\.policy\.epsilon: policy kind etc does not read this key",
            ),
            # The policy kind picks the NTU metric and the eps judgement.
            ({"ntu": True}, r"config: unknown keys \['ntu'\]"),
            ({"stability_eps": 0.3}, r"config: unknown keys \['stability_eps'\]"),
            # JSON booleans are not numbers, although Python reads them as 0 and 1.
            ({"customers": True}, r"config\.customers"),
            ({"horizon": True}, r"config\.horizon"),
            ({"seeds": [True, False]}, r"config\.seeds"),
            # The random streams key on a seed's low 64 bits: 0 and 2**64 are one replica.
            ({"seeds": [0, 0]}, r"config\.seeds: entries must be distinct"),
            ({"seeds": [0, 2**64]}, r"config\.seeds: entries must lie in"),
            ({"seeds": [-1]}, r"config\.seeds: entries must lie in"),
            ({"schema_version": True}, r"config\.schema_version"),
            ({"policy": {"kind": "match_ucb", "ucb_scale": True}}, r"config\.policy\.ucb_scale"),
            ({"policy": {"kind": "etc", "etc_pulls_per_pair": False}}, r"config\.policy\.etc_pulls_per_pair"),
            ({"noise": {"kind": "gaussian", "sigma": True}}, r"config\.noise\.sigma"),
            (
                {"class": "typed", "num_types": 0, "policy": {"kind": "match_typed_ucb"}},
                r"config\.num_types",
            ),
            ({"class": "linear", "dim": 0, "policy": {"kind": "match_lin_ucb"}}, r"config\.dim"),
            (
                {"truth": {"customer_values": [[True, 0.5], [0.2, 0.3]], "provider_values": [[0.1, 0.2], [0.3, 0.4]]}},
                r"config\.truth\.customer_values",
            ),
            # The confidence sets are clipped to [-1, 1]: a truth entry of 1.5 is never contained.
            (
                {"truth": {"customer_values": [[1.5, 0.5], [0.2, 0.3]], "provider_values": [[0.1, 0.2], [0.3, 0.4]]}},
                r"config\.truth\.customer_values: entries must lie in \[-1, 1\]",
            ),
            (
                {"truth": {"customer_values": [[0.5, 0.5], [0.2, 0.3]], "provider_values": [[0.1, 0.2], [-1.25, 0.4]]}},
                r"config\.truth\.provider_values: entries must lie in \[-1, 1\]",
            ),
            # Both sides of a pair at 1e308 once parsed and then overflowed the solver mid-run.
            (
                {
                    "truth": {
                        "customer_values": [[1e308, 0.5], [0.2, 0.3]],
                        "provider_values": [[1e308, 0.2], [0.3, 0.4]],
                    }
                },
                r"config\.truth\.customer_values",
            ),
        ],
        ids=[
            "schedule_out_of_range",
            "schedule_repeated",
            "bernoulli_generated",
            "bernoulli_negative_truth",
            "etc_negative_pulls",
            "ucb_scale_nan",
            "sigma_infinite",
            "lin_ridge_zero",
            "lin_beta_negative",
            "epsilon_infinite",
            "epsilon_overflowing",
            "linear_sets_need_linear_class",
            "ucb_scale_on_linear_sets",
            "lin_ridge_on_unstructured_sets",
            "epsilon_on_match_ucb",
            "etc_pulls_on_match_ucb",
            "epsilon_on_etc",
            "ntu_key",
            "stability_eps_key",
            "customers_bool",
            "horizon_bool",
            "seeds_bool",
            "seeds_repeated",
            "seeds_beyond_64_bits",
            "seeds_negative",
            "schema_version_bool",
            "ucb_scale_bool",
            "etc_pulls_bool",
            "sigma_bool",
            "num_types_zero",
            "dim_zero",
            "truth_bool",
            "truth_above_one",
            "truth_below_minus_one",
            "truth_overflowing",
        ],
    )
    def test_rejected_at_parse_time_with_key_path(self, overrides, key_path):
        with pytest.raises(ConfigError, match=key_path):
            parse_config(base_config(**overrides))

    def test_bernoulli_with_unit_interval_truth_accepted(self):
        truth = {"customer_values": [[0.5, 0.1], [0.2, 0.3]], "provider_values": [[0.1, 0.2], [0.3, 1.0]]}
        cell = parse_config(base_config(noise={"kind": "bernoulli"}, truth=truth))
        assert cell.noise.kind == "bernoulli" and cell.truth is not None


class TestRunCommand:
    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        cfg = write_json(tmp_path / "cfg.json", base_config(horizon=10))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--threads", str(threads), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --threads: must be at least 1, got {threads}\n"
        assert not out.exists()

    def test_writes_csv_and_summary(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", base_config(horizon=30))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "cell_trace.csv").read_text().splitlines()
        assert rows[0] == "round,seed,instability,cum_regret,width_sum,revenue,bound_only"
        assert len(rows) == 1 + 30 * 2
        summary = json.loads((out / "cell_summary.json").read_text())
        assert summary["replicas"] == 2
        # Round diagnostics over both replicas' 60 rounds.
        traces = sweep([load_config(cfg)])["cell"].values()
        assert summary["containment_rate"] == sum(t.containment.sum() for t in traces) / 60
        assert summary["stable_truth_rate"] == sum(t.stable_truth.sum() for t in traces) / 60
        assert summary["bound_only_rounds"] == 0
        assert summary["reused_round_frac"] == sum(t.reused_rounds for t in traces) / 60
        assert 0 < summary["reused_round_frac"] < 1
        assert "branch_counts" not in summary and "gap_p50" not in summary

    def test_prime_summary_reports_branches_and_gaps(self, tmp_path):
        policy = {"kind": "match_ucb_prime", "ucb_scale": 1.0}
        cfg = write_json(tmp_path / "cfg.json", base_config(horizon=50, policy=policy))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "cell_summary.json").read_text())
        traces = sweep([load_config(cfg)])["cell"].values()
        branch = np.concatenate([t.info["branch"] for t in traces])
        gap = np.concatenate([t.info["gap"] for t in traces])
        counts = summary["branch_counts"]
        assert counts == {b: int((branch == b).sum()) for b in ("fallback", "robust", "expanded")}
        assert sum(counts.values()) == 100 and min(counts.values()) > 0
        played = gap[branch != "fallback"]
        assert played.min() > 0
        for q in (10, 50, 90):
            assert summary[f"gap_p{q}"] == np.percentile(played, q)
        rows = (out / "cell_trace.csv").read_text().splitlines()
        assert rows[0] == "round,seed,instability,cum_regret,width_sum,revenue,bound_only"
        assert len(rows) == 1 + 50 * 2

    def test_summary_counts_bound_only_rounds(self, tmp_path):
        # Nine customers exceed the exact NTU solver, so every round records a bound.
        cfg = base_config(customers=9, providers=9, horizon=5, policy={"kind": "match_ntu_ucb"})
        out = tmp_path / "out"
        assert main(["run", "--config", str(write_json(tmp_path / "cfg.json", cfg)), "--out", str(out)]) == 0
        summary = json.loads((out / "cell_summary.json").read_text())
        assert summary["bound_only_rounds"] == 10
        assert summary["reused_round_frac"] == 8 / 10

    def test_csv_is_byte_stable(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", base_config(horizon=25))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "cell_trace.csv").read_bytes() == (out2 / "cell_trace.csv").read_bytes()

    def test_rows_are_seed_major(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", base_config(horizon=10))
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        rows = [line.split(",") for line in (out / "cell_trace.csv").read_text().splitlines()[1:]]
        seeds = [int(r[1]) for r in rows]
        rounds = [int(r[0]) for r in rows]
        assert seeds == sorted(seeds)
        assert rounds[:10] == list(range(1, 11))

    def test_golden_trace_unchanged(self, tmp_path):
        # Schema regression gate: the committed golden file must be
        # reproduced byte-for-byte. Regenerate it deliberately if the trace
        # format or the numerics are intentionally changed.
        cfg = write_json(
            tmp_path / "cfg.json",
            base_config(name="golden", horizon=20, policy={"kind": "match_ucb", "ucb_scale": 2.0}),
        )
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out)])
        golden = Path(__file__).parent / "golden" / "golden_trace.csv"
        assert (out / "golden_trace.csv").read_bytes() == golden.read_bytes()

    def test_golden_ntu_trace_unchanged(self, tmp_path):
        # The committed NTU config of the CI console-script step: 3x3
        # match_ntu_ucb on iid arrivals, whose rounds are judged in blocks.
        golden = Path(__file__).parent / "golden"
        main(["run", "--config", str(golden / "ntu_iid_config.json"), "--out", str(tmp_path)])
        assert (tmp_path / "ntu_iid_trace.csv").read_bytes() == (golden / "ntu_iid_trace.csv").read_bytes()

    def test_golden_replay_trace_unchanged(self, tmp_path):
        # The committed config of the CI console-script step: 3x3 match_ucb on all arrivals, whose clipped rounds
        # replay the last one and are played in one pass.
        golden = Path(__file__).parent / "golden"
        main(["run", "--config", str(golden / "ucb_replay_config.json"), "--out", str(tmp_path)])
        assert (tmp_path / "ucb_replay_trace.csv").read_bytes() == (golden / "ucb_replay_trace.csv").read_bytes()

    def test_fig1_fixture_full_csv_shape(self, tmp_path):
        cfg = base_config(
            name="fig1",
            customers=1,
            providers=2,
            horizon=500,
            seeds=list(range(20)),
            policy={"kind": "match_ucb", "ucb_scale": 0.5},
            noise={"kind": "gaussian", "sigma": 0.0833333333333333},
            truth={
                "customer_values": [[0.75, 1.0]],
                "provider_values": [[-5.0 / 12.0], [-10.0 / 12.0]],
            },
        )
        path = write_json(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "fig1_trace.csv").read_text().splitlines()
        assert len(rows) == 1 + 500 * 20

    def test_fixed_truth_config_runs(self, tmp_path):
        cfg = base_config(
            customers=1,
            providers=2,
            horizon=20,
            truth={
                "customer_values": [[0.75, 1.0]],
                "provider_values": [[-5.0 / 12.0], [-10.0 / 12.0]],
            },
        )
        path = write_json(tmp_path / "cfg.json", cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", base_config(seeds=[]))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("below", ["", "sub"], ids=["a_file", "below_a_file"])
    def test_out_at_a_file_exits_two_before_any_replica(self, tmp_path, capsys, monkeypatch, below):
        cfg = write_json(tmp_path / "cfg.json", base_config(horizon=10))
        (tmp_path / "file").write_text("kept\n")
        replicas = []
        monkeypatch.setattr(smbandits.environment, "run", lambda *args, **kwargs: replicas.append(args))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "file" / below)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out: ") and err.count("\n") == 1
        assert replicas == [] and (tmp_path / "file").read_text() == "kept\n"

    def test_out_that_cannot_take_the_trace_exits_two(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", base_config(horizon=10))
        (tmp_path / "out" / "cell_trace.csv").mkdir(parents=True)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out: ") and err.count("\n") == 1


class TestScoreCommand:
    def test_golden_example(self, tmp_path, capsys):
        inst = write_json(tmp_path / "inst.json", FIG1_INSTANCE)
        outc = write_json(tmp_path / "outc.json", FIG1_OUTCOME)
        assert main(["score", "--instance", str(inst), "--outcome", str(outc)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["instability"] == 3.0
        assert data["utility_difference"] == 2.0
        assert data["subsidy_total"] == 3.0
        assert data["coalition"] == ["C0", "P0"]

    def test_stable_outcome_scores_zero(self, tmp_path, capsys):
        outc = {
            "matching": [[0, 0]],
            "customer_transfers": [-6.0],
            "provider_transfers": [6.0, 0.0],
        }
        inst = write_json(tmp_path / "inst.json", FIG1_INSTANCE)
        outp = write_json(tmp_path / "outc.json", outc)
        main(["score", "--instance", str(inst), "--outcome", str(outp)])
        data = json.loads(capsys.readouterr().out)
        assert data["instability"] == 0.0
        assert data["coalition"] == []

    def test_witness_in_string_order_on_both_sides(self, tmp_path, capsys):
        # The pair (i, i + 1 mod 12) is worth 2 and every other pair -2; nobody
        # is matched, so all twelve pairs block and every agent is in the witness.
        shift = np.roll(np.eye(12), 1, axis=1)
        cv = 2.0 * shift - 1.0
        inst = write_json(tmp_path / "inst.json", {"customer_values": cv.tolist(), "provider_values": cv.T.tolist()})
        outc = write_json(tmp_path / "outc.json", {"matching": []})
        assert main(["score", "--instance", str(inst), "--outcome", str(outc)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["instability"] == 24.0
        order = ["0", "1", "10", "11", "2", "3", "4", "5", "6", "7", "8", "9"]
        assert data["coalition"] == data["witness_subset"] == [f"C{k}" for k in order] + [f"P{k}" for k in order]
        assert data["blocking_pairs"] == [[i, (i + 1) % 12] for i in range(12)]

    def test_ntu_outcome(self, tmp_path, capsys):
        inst = write_json(
            tmp_path / "inst.json",
            {"customer_values": [[0.1, 0.2]], "provider_values": [[1.0], [0.5]]},
        )
        outc = write_json(tmp_path / "outc.json", {"matching": [[0, 0]], "ntu": True})
        main(["score", "--instance", str(inst), "--outcome", str(outc)])
        data = json.loads(capsys.readouterr().out)
        assert data["ntu"] is True
        assert data["instability"] == pytest.approx(0.1)

    def test_random_scores_match_bruteforce(self, tmp_path, capsys):
        rng = np.random.default_rng(33)
        from smbandits.instability import subset_instability_bruteforce
        from smbandits.market import Matching, MarketOutcome, UtilityMatrix

        u = UtilityMatrix(rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, (3, 2)))
        outcome = MarketOutcome(Matching([(0, 2)]), np.array([0.4, 0.0]), np.array([0.0, 0.0, -0.4]))
        inst = write_json(
            tmp_path / "inst.json",
            {"customer_values": u.customer_values.tolist(), "provider_values": u.provider_values.tolist()},
        )
        outc = write_json(
            tmp_path / "outc.json",
            {
                "matching": [[0, 2]],
                "customer_transfers": [0.4, 0.0],
                "provider_transfers": [0.0, 0.0, -0.4],
            },
        )
        main(["score", "--instance", str(inst), "--outcome", str(outc)])
        data = json.loads(capsys.readouterr().out)
        assert data["instability"] == pytest.approx(subset_instability_bruteforce(u, outcome), abs=1e-9)

    def test_malformed_outcome_rejected(self, tmp_path, capsys):
        inst = write_json(tmp_path / "inst.json", FIG1_INSTANCE)
        outc = write_json(tmp_path / "outc.json", {"matching": [[0, 7]]})
        assert main(["score", "--instance", str(inst), "--outcome", str(outc)]) == 2

    @pytest.mark.parametrize(
        "outcome, key",
        [
            ({"matching": [[0, 1]], "customer_transfers": ["a", 0]}, "customer_transfers"),
            ({"matching": [[0, 1]], "customer_transfers": [float("nan"), 0]}, "customer_transfers"),
            ({"matching": [[0, 1]], "provider_transfers": [0, float("inf")]}, "provider_transfers"),
            ({"matching": [[0, 1]], "customer_transfers": [None, 0]}, "customer_transfers"),
            ({"matching": [[0, 1]], "provider_transfers": [False, -1.5]}, "provider_transfers"),
            ({"matching": [[0, 1]], "customer_transfers": [True, 0]}, "customer_transfers"),
            ({"matching": [[0, 1]], "ntu": "false"}, "ntu"),
            ({"matching": [[0.9, 1]]}, "matching[0][0]"),
            ({"matching": [[True, 1]]}, "matching[0][0]"),
            ({"matching": [[0, "1"]]}, "matching[0][1]"),
            ({"matching": 5}, "matching"),
            (
                {"matching": [[0, 1]], "customer_transfers": [1e300, 0], "provider_transfers": [0, -1e300]},
                "customer_transfers",
            ),
        ],
        ids=[
            "transfer_string",
            "transfer_nan",
            "transfer_infinity",
            "transfer_null",
            "transfer_bool",
            "transfer_bool_int",
            "ntu_string",
            "index_float",
            "index_bool",
            "index_string",
            "matching_not_list",
            "transfer_beyond_bound",
        ],
    )
    def test_malformed_outcome_names_key(self, tmp_path, capsys, outcome, key):
        inst = write_json(tmp_path / "inst.json", SQUARE_INSTANCE)
        outc = write_json(tmp_path / "outc.json", outcome)
        assert main(["score", "--instance", str(inst), "--outcome", str(outc)]) == 2
        err = capsys.readouterr().err
        assert f"outc.json: {key}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "outcome, message",
        [
            (
                {"matching": [[0, 1]], "customer_transfers": [0.5, 0], "provider_transfers": [0, 0.25]},
                "transfers of pair (0,1) are not zero-sum",
            ),
            (
                {"matching": [[0, 1]], "customer_transfers": [0, 0.5], "provider_transfers": [0, 0]},
                "unmatched customer 1 has nonzero transfer",
            ),
            (
                {"matching": [[0, 1]], "customer_transfers": [0, 0], "provider_transfers": [-0.5, 0]},
                "unmatched provider 0 has nonzero transfer",
            ),
        ],
        ids=["pair", "unmatched_customer", "unmatched_provider"],
    )
    def test_transfers_not_zero_sum_name_file_and_keys(self, tmp_path, capsys, outcome, message):
        inst = write_json(tmp_path / "inst.json", SQUARE_INSTANCE)
        outc = write_json(tmp_path / "outc.json", outcome)
        assert main(["score", "--instance", str(inst), "--outcome", str(outc)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {outc}: customer_transfers, provider_transfers: {message}\n"

    @pytest.mark.parametrize(
        "transfers, key",
        [
            ({"customer_transfers": [5.0, 0, -5.0], "provider_transfers": [0, 0, 0]}, "customer_transfers"),
            ({"provider_transfers": [0, 1e-300, 0]}, "provider_transfers"),
        ],
        ids=["customer", "provider"],
    )
    def test_ntu_outcome_with_transfers_rejected(self, tmp_path, capsys, transfers, key):
        # NTU scoring has no transfers to read, so a nonzero one would be dropped without a word.
        outc = write_json(tmp_path / "outc.json", {"matching": [[0, 1], [2, 0]], "ntu": True, **transfers})
        assert main(["score", "--instance", str(GOLDEN / "score_ntu_instance.json"), "--outcome", str(outc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {outc}: {key}: ") and captured.err.count("\n") == 1

    def test_ntu_outcome_with_zero_transfers_accepted(self, tmp_path, capsys):
        golden = json.loads((GOLDEN / "score_ntu_outcome.json").read_text())
        zeros = {"customer_transfers": [0, -0.0, 0.0], "provider_transfers": [-0.0, 0, 0]}
        outc = write_json(tmp_path / "outc.json", {**golden, **zeros})
        assert main(["score", "--instance", str(GOLDEN / "score_ntu_instance.json"), "--outcome", str(outc)]) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / "score_ntu_stdout.json").read_bytes()

    @pytest.mark.parametrize(
        "instance, key",
        [
            ({**SQUARE_INSTANCE, "customer_values": [["a", 0.5], [0.2, 0.8]]}, "customer_values"),
            ({**SQUARE_INSTANCE, "provider_values": {"a": 1}}, "provider_values"),
            ({**SQUARE_INSTANCE, "provider_values": [[0.3, 0.6]]}, "provider_values"),
            ([1, 2], "expected a JSON object"),
            ({**SQUARE_INSTANCE, "customer_values": [[True, 0.5], [0.2, 0.8]]}, "customer_values"),
            ({**SQUARE_INSTANCE, "provider_values": [[0.3, 0.6], [0.9, False]]}, "provider_values"),
            # The matched pair (0, 1) at 1e308 on both sides: its joint weight overflows to inf.
            (
                {"customer_values": [[1.0, 1e308], [0.2, 0.8]], "provider_values": [[0.3, 0.6], [1e308, 0.1]]},
                "customer_values",
            ),
            ({**SQUARE_INSTANCE, "provider_values": [[0.3, 0.6], [0.9, -1e291]]}, "provider_values"),
        ],
        ids=[
            "value_string",
            "values_not_list",
            "shape_mismatch",
            "not_object",
            "value_bool",
            "value_bool_false",
            "values_overflowing",
            "value_beyond_bound",
        ],
    )
    def test_malformed_instance_names_key(self, tmp_path, capsys, instance, key):
        inst = write_json(tmp_path / "inst.json", instance)
        outc = write_json(tmp_path / "outc.json", {"matching": [[0, 1]]})
        assert main(["score", "--instance", str(inst), "--outcome", str(outc)]) == 2
        err = capsys.readouterr().err
        assert f"inst.json: {key}" in err
        assert "Traceback" not in err

    def test_boolean_outside_values_accepted(self, tmp_path, capsys):
        # A true token elsewhere in the file sends the values through the
        # type walk, which finds numbers only.
        outc = write_json(tmp_path / "outc.json", {"matching": [[0, 1]]})
        printed = []
        for name, instance in (("plain", SQUARE_INSTANCE), ("flagged", {**SQUARE_INSTANCE, "note": True})):
            inst = write_json(tmp_path / f"{name}.json", instance)
            assert main(["score", "--instance", str(inst), "--outcome", str(outc)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_wide_integer_value_scores_as_float(self, tmp_path, capsys):
        # json reads 10**20 as an int beyond 64 bits, which numpy holds as an object.
        outc = write_json(tmp_path / "outc.json", {"matching": [[0, 1]]})
        printed = []
        for name, value in (("integer", 10**20), ("float", 1e20)):
            instance = {**SQUARE_INSTANCE, "customer_values": [[1.0, value], [0.2, 0.8]]}
            inst = write_json(tmp_path / f"{name}.json", instance)
            assert main(["score", "--instance", str(inst), "--outcome", str(outc)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    @pytest.mark.parametrize("kind", ["tu", "ntu"])
    def test_stdout_matches_golden(self, capsys, kind):
        # The golden files hold json.dumps(report, indent=2, sort_keys=True)
        # of a 4x360 hard-family outcome with a blocking pair and of a 3x3
        # NTU outcome with a -0.0 subsidy.
        inst, outc = (str(GOLDEN / f"score_{kind}_{part}.json") for part in ("instance", "outcome"))
        assert main(["score", "--instance", inst, "--outcome", outc]) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / f"score_{kind}_stdout.json").read_bytes()

    def test_accepts_generated_instance_snapshot(self, tmp_path, capsys):
        from smbandits.environment import gen_instance

        inst = gen_instance("typed", 3, 3, seed=8, num_types=2)
        path = write_json(tmp_path / "inst.json", inst.snapshot())
        outc = write_json(
            tmp_path / "outc.json",
            {"matching": [[0, 0]], "customer_transfers": [0.1, 0, 0], "provider_transfers": [-0.1, 0, 0]},
        )
        assert main(["score", "--instance", str(path), "--outcome", str(outc)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["instability"] >= 0.0


# Files that JSON cannot decode: a byte that is not UTF-8, arrays nested past
# the recursion limit, and an integer of more digits than Python converts.
UNDECODABLE = {
    "not_utf8": b'{"customer_values": [[1.0]], "provider_values": [[\xff]]}',
    "nested_deep": b"[" * 100_000,
    "huge_integer": b'{"schema_version": ' + b"7" * 5000 + b"}",
}


class TestUndecodableFiles:
    @pytest.mark.parametrize("kind", sorted(UNDECODABLE))
    @pytest.mark.parametrize("role", ["instance", "outcome", "config"])
    def test_exit_two_with_one_error_line(self, tmp_path, capsys, kind, role):
        bad = tmp_path / f"{kind}.json"
        bad.write_bytes(UNDECODABLE[kind])
        inst = write_json(tmp_path / "inst.json", FIG1_INSTANCE)
        outc = write_json(tmp_path / "outc.json", FIG1_OUTCOME)
        argv = {
            "instance": ["score", "--instance", str(bad), "--outcome", str(outc)],
            "outcome": ["score", "--instance", str(inst), "--outcome", str(bad)],
            "config": ["run", "--config", str(bad), "--out", str(tmp_path / "out")],
        }[role]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ") and captured.err.count("\n") == 1

    def test_module_invocation_prints_no_traceback(self, tmp_path):
        bad = tmp_path / "not_utf8.json"
        bad.write_bytes(UNDECODABLE["not_utf8"])
        proc = run_module(["score", "--instance", str(bad), "--outcome", str(bad)])
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith("error: ") and b"Traceback" not in proc.stderr


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        assert main(["verify", "--cases", "30", "--seed", "1"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_verify_fails_on_a_wrong_linear_update(self, monkeypatch, capsys):
        # An update that leaves the providers' inverses as they were; every other check of verify still passes.
        apply = LinearConfidence._apply

        def customers_only(self, *args):
            providers = self.V_inv[self.num_customers :].copy()
            apply(self, *args)
            self.V_inv[self.num_customers :] = providers

        monkeypatch.setattr(LinearConfidence, "_apply", customers_only)
        assert main(["verify", "--cases", "3"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "verify: 3 violations"
        assert all("kept linear inverse off a fresh inverse" in line for line in err[:-1])

    def test_negative_cases_rejected(self, capsys):
        assert main(["verify", "--cases", "-5"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --cases: must be at least 0, got -5\n")

    def test_negative_seed_rejected(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --seed: must be at least 0, got -1\n")


_NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.integers(),
)
_STRINGS = st.one_of(st.text(), st.sampled_from(['"', "\\", 'a"b\\c', "é", "\u2028", "😀", "\x00"]))
_TU_REPORTS = st.fixed_dictionaries(
    {
        "ntu": st.just(False),
        "instability": _NUMBERS,
        "utility_difference": _NUMBERS,
        "subsidy_total": _NUMBERS,
        "max_coalition_unhappiness": _NUMBERS,
        "subsidies_customers": st.lists(_NUMBERS),
        "subsidies_providers": st.lists(_NUMBERS),
        "coalition": st.lists(_STRINGS),
        "witness_subset": st.lists(_STRINGS),
        "blocking_pairs": st.lists(st.lists(st.integers(0, 10**6), min_size=2, max_size=2)),
    }
)
_NTU_REPORTS = st.fixed_dictionaries(
    {
        "ntu": st.just(True),
        "instability": _NUMBERS,
        "subsidies_customers": st.lists(_NUMBERS),
        "subsidies_providers": st.lists(_NUMBERS),
    }
)
# Keys that need escaping and sort by code point.
_OBJECTS = st.dictionaries(_STRINGS, st.one_of(_NUMBERS, _STRINGS, st.booleans(), st.none(), st.lists(_NUMBERS)))


class TestReportWriter:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.one_of(_TU_REPORTS, _NTU_REPORTS, _OBJECTS))
    def test_matches_indented_dumps(self, payload):
        assert _indented(payload, "") == json.dumps(payload, indent=2, sort_keys=True)


def run_module(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m smbandits.cli`` in a child that imports the package this
    process imported."""
    src = str(Path(smbandits.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "smbandits.cli", *argv],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestEntryPoint:
    def test_module_invocation(self):
        assert run_module(["verify", "--cases", "5"]).returncode == 0


class TestParserReuse:
    def test_parser_built_once_across_calls(self, tmp_path, capsys):
        inst = write_json(tmp_path / "inst.json", FIG1_INSTANCE)
        outc = write_json(tmp_path / "outc.json", FIG1_OUTCOME)
        build_parser.cache_clear()
        for _ in range(3):
            assert main(["score", "--instance", str(inst), "--outcome", str(outc)]) == 0
        with pytest.raises(SystemExit):
            main(["score", "--instance", str(inst)])
        assert main(["verify", "--cases", "2"]) == 0
        info = build_parser.cache_info()
        assert (info.misses, info.currsize) == (1, 1)

    def test_in_process_calls_match_module_invocation(self, tmp_path, capsys):
        # One process runs a failed parse, a run and two scores on the same
        # parser; each call must print what a fresh interpreter prints.
        cfg = write_json(tmp_path / "cfg.json", base_config(horizon=5))
        tu_inst = write_json(tmp_path / "tu_inst.json", FIG1_INSTANCE)
        tu_outc = write_json(tmp_path / "tu_outc.json", FIG1_OUTCOME)
        ntu_inst = write_json(tmp_path / "ntu_inst.json", SQUARE_INSTANCE)
        ntu_outc = write_json(tmp_path / "ntu_outc.json", {"matching": [[0, 1]], "ntu": True})
        commands = [
            ["score", "--instance", str(tu_inst)],
            ["run", "--config", str(cfg), "--out", str(tmp_path / "out")],
            ["score", "--instance", str(tu_inst), "--outcome", str(tu_outc)],
            ["score", "--instance", str(ntu_inst), "--outcome", str(ntu_outc)],
        ]
        in_process = []
        for argv in commands:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out.encode(), captured.err.encode()))
        assert [code for code, _, _ in in_process] == [2, 0, 0, 0]
        for argv, (code, out, err) in zip(commands, in_process):
            proc = run_module(argv)
            assert proc.returncode == code
            assert proc.stdout == out
            if code == 2:
                assert proc.stderr == err


def full_parser_main(argv: list[str]) -> int:
    """``main`` with every argv read by the full parser, as a reference."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SmbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def exit_and_output(call, argv, capsys) -> tuple[object, str, str]:
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArgvLikeFullParser:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["--help"],
            ["bogus"],
            ["score", "-h"],
            ["score"],
            ["score", "--instance", "a"],
            ["score", "--instance", "a", "--outcome", "b", "--bogus"],
            ["score", "--inst", "a", "--out", "b"],
            ["score", "--instance=a", "--outcome=b"],
            ["run", "-h"],
            ["verify", "--cases", "x"],
        ],
        ids=lambda argv: " ".join(argv) or "no words",
    )
    def test_exit_code_and_output(self, tmp_path, monkeypatch, capsys, argv):
        # Files a and b do not exist, so an argv that parses ends in score's error line, which names the path.
        monkeypatch.chdir(tmp_path)
        expected = exit_and_output(full_parser_main, argv, capsys)
        assert exit_and_output(main, argv, capsys) == expected
        monkeypatch.setattr(sys, "argv", ["smbandits", *argv])
        assert exit_and_output(lambda _: main(None), None, capsys) == expected


def expected_report(u: UtilityMatrix, outcome: MarketOutcome, ntu: bool) -> dict:
    """The report of ``score``, from the metrics called directly."""
    if ntu:
        report = ntu_subset_instability(u, outcome.matching)
        return {
            "ntu": True,
            "instability": report.value,
            "subsidies_customers": report.subsidies_customers.tolist(),
            "subsidies_providers": report.subsidies_providers.tolist(),
        }
    report = subset_instability(u, outcome)
    wc, wp = report.witness_subset
    witness = sorted([f"C{i}" for i in wc.tolist()] + [f"P{j}" for j in wp.tolist()])
    return {
        "ntu": False,
        "instability": report.value,
        "utility_difference": utility_difference(u, outcome),
        "subsidy_total": report.subsidy_total(),
        "subsidies_customers": report.subsidies_customers.tolist(),
        "subsidies_providers": report.subsidies_providers.tolist(),
        "max_coalition_unhappiness": report.value,
        "coalition": witness,
        "witness_subset": witness,
        "blocking_pairs": [[int(i), int(j)] for i, j in zip(*report.blocking_pairs)],
    }


def score_stdout(directory: Path, u: UtilityMatrix, outcome: MarketOutcome, ntu: bool) -> str:
    inst = write_json(
        directory / "inst.json",
        {"customer_values": u.customer_values.tolist(), "provider_values": u.provider_values.tolist()},
    )
    fields = {"matching": [list(pair) for pair in outcome.matching.pairs]}
    if ntu:
        fields["ntu"] = True
    else:
        fields["customer_transfers"] = outcome.customer_transfers.tolist()
        fields["provider_transfers"] = outcome.provider_transfers.tolist()
    outc = write_json(directory / "outc.json", fields)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["score", "--instance", str(inst), "--outcome", str(outc)]) == 0
    return out.getvalue()


class TestReportThroughMain:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(tu_markets_and_outcomes(), st.booleans())
    def test_stdout_is_dumps_of_the_metrics(self, tmp_path_factory, case, ntu):
        u, outcome = case
        stdout = score_stdout(tmp_path_factory.mktemp("score"), u, outcome, ntu)
        assert stdout == json.dumps(expected_report(u, outcome, ntu), indent=2, sort_keys=True) + "\n"

    def test_hard_family_4x360(self, tmp_path):
        # The committed TU golden inputs: a 4x360 hard-family market and an outcome with a blocking pair.
        inst = json.loads((GOLDEN / "score_tu_instance.json").read_text())
        outc = json.loads((GOLDEN / "score_tu_outcome.json").read_text())
        u = UtilityMatrix(np.array(inst["customer_values"]), np.array(inst["provider_values"]))
        outcome = MarketOutcome(
            Matching(outc["matching"]), np.array(outc["customer_transfers"]), np.array(outc["provider_transfers"])
        )
        assert u.customer_values.shape == (4, 360)
        expected = expected_report(u, outcome, False)
        assert expected["blocking_pairs"]
        assert score_stdout(tmp_path, u, outcome, False) == json.dumps(expected, indent=2, sort_keys=True) + "\n"
