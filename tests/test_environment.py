import concurrent.futures
import math

import numpy as np
import pytest

from smbandits.confidence import ConfidenceConfig, UnstructuredConfidence
from smbandits.environment import (
    ArrivalSpec,
    MarketInstance,
    POLICY_KINDS,
    NoiseSpec,
    PolicySpec,
    SweepCell,
    UnstructuredClass,
    _draws,
    gen_hard_instance,
    gen_instance,
    run,
    stream_rng,
    summarize,
    sweep,
)
from smbandits.errors import ConfigError
from smbandits.instability import subset_instability_value
from smbandits.market import Matching, UtilityMatrix
from smbandits.policies import MatchUcbPolicy


class OracleSpec:
    """Policy spec whose confidence sets start collapsed to the truth."""

    kind = "match_ucb"

    def build(self, instance, horizon):
        conf = UnstructuredConfidence(instance.num_customers, instance.num_providers)
        conf.collapse_to(instance.truth)
        policy = MatchUcbPolicy(conf, horizon)
        policy._learn = lambda *a, **k: None  # keep the sets collapsed
        return policy


class TestGenInstance:
    def test_seed_repeat_identical(self):
        a = gen_instance("unstructured", 4, 5, seed=99)
        b = gen_instance("unstructured", 4, 5, seed=99)
        assert np.array_equal(a.truth.customer_values, b.truth.customer_values)
        assert np.array_equal(a.truth.provider_values, b.truth.provider_values)

    def test_entries_in_unit_range(self):
        for klass in ("unstructured", "typed", "linear"):
            inst = gen_instance(klass, 6, 6, seed=5)
            assert np.abs(inst.truth.customer_values).max() <= 1.0
            assert np.abs(inst.truth.provider_values).max() <= 1.0

    def test_single_type_makes_identical_rows(self):
        inst = gen_instance("typed", 4, 3, seed=1, num_types=1)
        cv = inst.truth.customer_values
        assert np.allclose(cv, cv[0])
        pv = inst.truth.provider_values
        assert np.allclose(pv, pv[0])

    def test_linear_dim1_is_rank_one(self):
        inst = gen_instance("linear", 4, 4, seed=2, dim=1)
        cv = inst.truth.customer_values
        # Rank one: every 2x2 minor vanishes.
        for i1 in range(4):
            for i2 in range(i1 + 1, 4):
                for j1 in range(4):
                    for j2 in range(j1 + 1, 4):
                        minor = cv[i1, j1] * cv[i2, j2] - cv[i1, j2] * cv[i2, j1]
                        assert abs(minor) < 1e-12

    def test_typed_consistency_with_type_table(self):
        inst = gen_instance("typed", 5, 5, seed=3, num_types=3)
        spec = inst.klass
        for i in range(5):
            for j in range(5):
                assert inst.truth.customer_values[i, j] == spec.type_values[spec.customer_types[i], spec.provider_types[j]]

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigError):
            gen_instance("unstructured", 0, 3, seed=1)


class TestHardInstance:
    def test_shape_and_values(self):
        inst = gen_hard_instance(2, 100, seed=3)
        expected_providers = 10 * 2 * math.ceil(math.log(200))
        assert inst.num_providers == expected_providers
        assert (inst.truth.provider_values == 0).all()
        assert inst.noise.kind == "bernoulli"

    def test_block_structure(self):
        K = 3
        inst = gen_hard_instance(K, 500, seed=4)
        block = max(1, math.ceil(math.log(K)))
        rho = math.sqrt(K / 500.0)
        for row in inst.truth.customer_values:
            high = row > 0.5
            assert high.sum() == block
            assert np.allclose(row[high], 0.5 + rho)
            assert np.allclose(row[~high], 0.5)
            start = int(np.flatnonzero(high)[0])
            assert start % block == 0

    def test_rho_guard(self):
        with pytest.raises(ConfigError):
            gen_hard_instance(2, 100, seed=0, rho=0.9)
        with pytest.raises(ConfigError):
            gen_hard_instance(1, 100, seed=0)


class TestPolicyKinds:
    @pytest.mark.parametrize("kind", sorted(POLICY_KINDS))
    def test_build_follows_the_table(self, kind):
        policy_cls, sets = POLICY_KINDS[kind]
        # Typed and linear sets need an instance of the class of that name.
        inst = gen_instance(sets.mode, 3, 3, seed=0)
        policy = PolicySpec(kind).build(inst, 10)
        assert type(policy) is policy_cls and type(policy.conf) is sets

    @pytest.mark.parametrize("kind", ["match_typed_ucb", "match_lin_ucb"])
    def test_structured_sets_need_their_class(self, kind):
        with pytest.raises(ConfigError, match="requires a"):
            PolicySpec(kind).build(gen_instance("unstructured", 2, 2, seed=0), 10)

    def test_unknown_kind_rejected(self):
        # The spec checks its kind as it is made.
        with pytest.raises(ConfigError, match="^kind: "):
            PolicySpec("match_nothing")


class TestRunLoop:
    def test_oracle_policy_zero_instability(self):
        inst = gen_instance("unstructured", 3, 3, seed=12)
        trace = run(inst, OracleSpec(), 100)
        assert np.allclose(trace.instability, 0.0, atol=1e-9)
        assert trace.stable_truth.all()

    def test_determinism(self):
        inst = gen_instance("unstructured", 3, 3, seed=13)
        spec = PolicySpec("match_ucb", ConfidenceConfig(ucb_scale=2.0))
        a = run(inst, spec, 150)
        b = run(inst, spec, 150)
        assert np.array_equal(a.instability, b.instability)
        assert np.array_equal(a.width_sum, b.width_sum)
        assert np.array_equal(a.containment, b.containment)

    def test_scoring_matches_recomputation_from_outcomes(self):
        inst = gen_instance("unstructured", 3, 3, seed=14)
        spec = PolicySpec("match_ucb", ConfidenceConfig(ucb_scale=2.0))
        trace = run(inst, spec, 120, record_outcomes=True)
        for t in (0, 17, 63, 119):
            again = subset_instability_value(inst.truth, trace.outcomes[t])
            assert trace.instability[t] == pytest.approx(again, abs=1e-9)

    def test_fig1_fixture_converges_to_efficient_pair(self):
        # The three-agent example run at unit scale: utilities divided by 12
        # and feedback noise scaled along with them. The efficient pair must
        # hold in at least 95% of the last 100 rounds on average over seeds.
        truth = UtilityMatrix(np.array([[9.0, 12.0]]) / 12.0, np.array([[-5.0], [-10.0]]) / 12.0)
        fracs = []
        for seed in range(20):
            inst = MarketInstance(truth, UnstructuredClass(), ArrivalSpec(), NoiseSpec(sigma=1.0 / 12.0), seed)
            trace = run(inst, PolicySpec("match_ucb", ConfidenceConfig(ucb_scale=0.5)), 500, record_outcomes=True)
            fracs.append(np.mean([o.matching.pairs == ((0, 0),) for o in trace.outcomes[-100:]]))
        assert np.mean(fracs) >= 0.95

    def test_certificate_on_containment_rounds(self):
        inst = gen_instance("unstructured", 3, 3, seed=15)
        trace = run(inst, PolicySpec("match_ucb"), 400)
        mask = trace.containment
        assert mask.any()
        assert (trace.instability[mask] <= trace.width_sum[mask] + 1e-9).all()

    def test_ntu_scoring_uses_bound_above_guard(self):
        inst = gen_instance("unstructured", 9, 3, seed=16)
        trace = run(inst, PolicySpec("match_ntu_ucb", ConfidenceConfig(ucb_scale=2.0)), 30)
        assert trace.bound_only.all()
        assert (trace.instability == trace.certified_bound).all()

    def test_ntu_exact_scoring_below_guard(self):
        inst = gen_instance("unstructured", 3, 3, seed=17)
        trace = run(inst, PolicySpec("match_ntu_ucb", ConfidenceConfig(ucb_scale=2.0)), 50)
        assert not trace.bound_only.any()

    def test_ntu_exact_scoring_at_guard(self):
        # Eight customers is the largest market the exact NTU solver takes.
        inst = gen_instance("unstructured", 8, 3, seed=16)
        trace = run(inst, PolicySpec("match_ntu_ucb", ConfidenceConfig(ucb_scale=2.0)), 20)
        assert not trace.bound_only.any()

    def test_iid_arrivals_differ_by_round_but_not_by_replay(self):
        arrival = ArrivalSpec(kind="iid_subset", probability=0.6)
        inst = gen_instance("unstructured", 4, 4, seed=18, arrival=arrival)
        a = run(inst, PolicySpec("match_ucb"), 60)
        b = run(inst, PolicySpec("match_ucb"), 60)
        assert np.array_equal(a.instability, b.instability)

    def test_fixed_schedule_cycles(self):
        schedule = (((0,), (1,)), ((1,), (0,)))
        arrival = ArrivalSpec(kind="fixed", schedule=schedule)
        inst = gen_instance("unstructured", 2, 2, seed=19, arrival=arrival)
        trace = run(inst, OracleSpec(), 10, record_outcomes=True)
        for t, outcome in enumerate(trace.outcomes):
            for i, j in outcome.matching.pairs:
                assert (i,) == schedule[t % 2][0] and (j,) == schedule[t % 2][1]


def observe(truth, matching, noise, rng):
    """One round's feedback on ``matching``, drawn at the buffer positions of its sets and split into the customer
    and the provider side, as ``run`` splits it."""
    values = np.concatenate((truth.customer_values, truth.provider_values), axis=None)
    conf = UnstructuredConfidence(truth.num_customers, truth.num_providers)
    draws = _draws(values, conf._positions(matching), noise, rng)
    return draws[0::2], draws[1::2]


class TestNoise:
    def test_gaussian_mean_converges(self):
        truth = UtilityMatrix(np.array([[0.37]]), np.array([[-0.21]]))
        rng = stream_rng(5, 2)
        m = Matching([(0, 0)])
        n = 4000
        vals_c = [
            observe(truth, m, NoiseSpec(), rng)[0][0]
            for _ in range(n)
        ]
        assert abs(np.mean(vals_c) - 0.37) < 3.0 / math.sqrt(n)

    def test_bernoulli_requires_unit_interval(self):
        truth = UtilityMatrix(np.array([[-0.2]]), np.array([[0.4]]))
        fails_before_round_0(MarketInstance(truth, UnstructuredClass(), ArrivalSpec(), NoiseSpec("bernoulli"), 6))

    def test_bernoulli_mean_converges(self):
        inst = gen_hard_instance(2, 100, seed=7)
        rng = stream_rng(7, 2)
        m = Matching([(0, 0)])
        vals = [float(observe(inst.truth, m, inst.noise, rng)[0][0]) for _ in range(3000)]
        assert set(vals) <= {0.0, 1.0}
        target = inst.truth.customer_values[0, 0]
        assert abs(np.mean(vals) - target) < 3.0 * 0.5 / math.sqrt(3000)


class CountingSpec:
    """A ``match_ucb`` spec that counts the policies it builds."""

    kind = "match_ucb"
    built = 0

    def build(self, instance, horizon):
        self.built += 1
        return PolicySpec(self.kind).build(instance, horizon)


def fails_before_round_0(instance, match=None):
    """Assert that ``run`` raises one ConfigError on ``instance`` before it builds the policy."""
    spec = CountingSpec()
    with pytest.raises(ConfigError, match=match):
        run(instance, spec, 20)
    assert spec.built == 0


class TestRunStartCheck:
    """``run`` checks what its rounds rely on before round 0: each case here failed during the run, or not at all."""

    @staticmethod
    def instance(arrival=ArrivalSpec(), noise=NoiseSpec(), cv=((0.5, -0.3),), pv=((0.4,), (0.6,))):
        truth = UtilityMatrix(np.array(cv), np.array(pv))
        return MarketInstance(truth, UnstructuredClass(), arrival, noise, 3)

    def test_fixed_schedule_without_entries(self):
        fails_before_round_0(self.instance(arrival=ArrivalSpec(kind="fixed")))

    def test_unknown_arrival_kind(self):
        fails_before_round_0(self.instance(arrival=ArrivalSpec(kind="poisson")))

    def test_unknown_noise_kind(self):
        fails_before_round_0(self.instance(noise=NoiseSpec(kind="laplace")))

    @pytest.mark.parametrize("sigma", [math.nan, -0.5, 1e291, math.inf])
    def test_sigma_outside_its_range(self, sigma):
        fails_before_round_0(self.instance(noise=NoiseSpec(sigma=sigma)))

    def test_utility_outside_unit_range(self):
        fails_before_round_0(self.instance(pv=((0.4,), (1.5,))))

    def test_bernoulli_utility_below_zero_at_a_pair_never_played(self):
        # Only customer 0 and provider 0 arrive, so the pair (0, 1) at -0.3 is never drawn.
        arrival = ArrivalSpec(kind="fixed", schedule=(((0,), (0,)),))
        fails_before_round_0(self.instance(arrival=arrival, noise=NoiseSpec(kind="bernoulli")))

    @pytest.mark.parametrize("p", [math.nan, 0.0, -0.5, 1.5])
    def test_iid_probability_outside_its_range(self, p):
        # A probability of NaN or 0 ran silently: no agent ever arrived.
        fails_before_round_0(gen_instance("unstructured", 3, 3, 0, arrival=ArrivalSpec("iid_subset", p)))

    @pytest.mark.parametrize(
        "entry",
        [((5,), (0,)), ((0,), (3,)), ((-1,), (1,)), ((0, 0), (1,)), ((0,), (2, 1, 2)), ((True,), (0,)), ((0.0,), (0,))],
        ids=["customer_beyond", "provider_beyond", "negative", "repeated", "repeated_provider", "bool", "float"],
    )
    def test_fixed_entry_that_is_not_distinct_indices_in_range(self, entry):
        # A 3x3 market: an index beyond it raised IndexError, a negative one InvalidOutcome, both mid-run, and a
        # repeated agent ran to the end.
        arrival = ArrivalSpec(kind="fixed", schedule=(((0, 1), (2,)), entry))
        fails_before_round_0(gen_instance("unstructured", 3, 3, 0, arrival=arrival))

    @pytest.mark.parametrize(
        "entry", [(("a", 1), (0,)), ((0,), (1,), (2,)), 5], ids=["unsortable_side", "three_sides", "not_a_pair"]
    )
    def test_fixed_entry_that_is_not_a_pair_of_sides(self, entry):
        # The sort in ArrivalSpec raised a raw TypeError or ValueError; the spec now fails as it is made.
        with pytest.raises(ConfigError, match="^arrival: "):
            ArrivalSpec(kind="fixed", schedule=(((0, 1), (2,)), entry))

    def test_iid_probability_that_is_not_a_number(self):
        # The range comparison in the run-start check raised a raw TypeError.
        fails_before_round_0(gen_instance("unstructured", 3, 3, 0, arrival=ArrivalSpec("iid_subset", "0.5")), r"^arrival\.p: ")

    def test_sigma_that_is_not_a_number(self):
        fails_before_round_0(self.instance(noise=NoiseSpec(sigma="1")), r"^noise\.sigma: ")

    def test_numpy_integer_indices_run_as_python_ones(self):
        schedules = [
            (((0, 2), (1,)), ((1,), (0, 2))),
            ((tuple(np.arange(0, 3, 2)), (np.int32(1),)), ((np.int64(1),), (0, 2))),
        ]
        instances = [gen_instance("unstructured", 3, 3, 0, arrival=ArrivalSpec("fixed", schedule=s)) for s in schedules]
        runs = [run(instance, PolicySpec("match_ucb"), 20) for instance in instances]
        for column in ("instability", "width_sum", "certified_bound", "containment", "stable_truth"):
            np.testing.assert_array_equal(getattr(runs[0], column), getattr(runs[1], column))

    def test_bounds_of_the_ranges_run(self):
        for noise, low in ((NoiseSpec(sigma=1e290), -1.0), (NoiseSpec(kind="bernoulli", sigma=0.0), 0.0)):
            trace = run(self.instance(noise=noise, cv=((low, 1.0),), pv=((1.0,), (low,))), PolicySpec("match_ucb"), 20)
            assert trace.horizon == 20


class TestLibraryInputs:
    """Inputs built in Python keep the config's rules: each case here ran, or failed with a raw error, though its
    config fails to parse."""

    @pytest.mark.parametrize("seeds", [(0, 0), (0, 2**64), (-1,)], ids=["repeated", "beyond_64_bits", "negative"])
    def test_seeds_outside_the_rule(self, seeds):
        # (0, 0) swept one replica; 0 and 2**64, and -1 and 2**64 - 1, played one replica under two names.
        spec = CountingSpec()
        with pytest.raises(ConfigError, match="^seeds: "):
            sweep([SweepCell("a", "unstructured", 2, 2, 10, spec, seeds=seeds)])
        assert spec.built == 0

    def test_seed_outside_the_range_at_run(self):
        fails_before_round_0(gen_instance("unstructured", 2, 2, -1), "^seed: ")

    @pytest.mark.parametrize("horizon", [0, -1, 2.5])
    def test_horizon_that_is_not_a_positive_integer(self, horizon):
        # Horizon 0 ran and left summarize an IndexError; -1 and 2.5 raised raw numpy errors.
        spec = CountingSpec()
        with pytest.raises(ConfigError, match="^horizon: "):
            run(gen_instance("unstructured", 2, 2, 0), spec, horizon)
        assert spec.built == 0

    @pytest.mark.parametrize(
        "make, key",
        [
            (lambda: PolicySpec("etc", etc_pulls_per_pair=-1), "etc_pulls_per_pair"),
            (lambda: PolicySpec("revenue_frictions", epsilon=math.nan), "epsilon"),
        ],
        ids=["negative_pulls", "nan_fee"],
    )
    def test_policy_knob_outside_its_range(self, make, key):
        # Negative pulls committed at round 0; a NaN fee raised a bare ValueError as the policy was built.
        with pytest.raises(ConfigError, match=f"^{key}: "):
            run(gen_instance("unstructured", 2, 2, 0), make(), 20)


class TestSweep:
    def _cells(self, horizon=40):
        spec = PolicySpec("match_ucb", ConfidenceConfig(ucb_scale=2.0))
        return [
            SweepCell("a", "unstructured", 2, 2, horizon, spec, seeds=(0, 1)),
            SweepCell("b", "typed", 3, 3, horizon, PolicySpec("match_typed_ucb"), seeds=(0,)),
            SweepCell("c", "linear", 2, 2, horizon, PolicySpec("match_lin_ucb"), seeds=(1,)),
        ]

    def test_grid_smoke_and_determinism(self):
        first = sweep(self._cells())
        second = sweep(self._cells())
        assert set(first) == {"a", "b", "c"}
        for name in first:
            for seed in first[name]:
                assert np.array_equal(first[name][seed].instability, second[name][seed].instability)

    def test_parallel_matches_serial(self):
        serial = sweep(self._cells())
        parallel = sweep(self._cells(), threads=2)
        for name in serial:
            for seed in serial[name]:
                assert np.array_equal(serial[name][seed].instability, parallel[name][seed].instability)

    def test_pool_never_larger_than_the_replicas(self, monkeypatch):
        # Under fork a pool starts all its workers at the first submit; this
        # recorder runs the jobs in this process and starts none.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        serial = sweep(self._cells())
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        for threads in (64, 4, 2):
            pooled = sweep(self._cells(), threads=threads)
            for name in serial:
                for seed in serial[name]:
                    assert np.array_equal(serial[name][seed].instability, pooled[name][seed].instability)
        assert sizes == [4, 4, 2]

    def test_round_guard(self):
        spec = PolicySpec("match_ucb")
        cells = [SweepCell("big", "unstructured", 2, 2, 30_000_000, spec, seeds=(0,))]
        with pytest.raises(ConfigError):
            sweep(cells)

    def test_summarize_fields(self):
        results = sweep(self._cells(horizon=60))
        summary = summarize(results["a"])
        assert summary["replicas"] == 2
        assert summary["final_cum_regret_mean"] > 0
        assert "log_slope_last_half" in summary

    def test_regret_grows_with_market_size(self):
        # Coarse shape check behind the size-scaling claim: larger
        # unstructured markets accumulate more instability at a fixed horizon.
        spec = PolicySpec("match_ucb")
        cells = [
            SweepCell(f"n{n}", "unstructured", n, n, 1500, spec, seeds=(0, 1, 2))
            for n in (2, 4, 8)
        ]
        results = sweep(cells)
        finals = [
            np.mean([tr.cum_regret[-1] for tr in results[f"n{n}"].values()])
            for n in (2, 4, 8)
        ]
        assert finals[0] < finals[1] < finals[2]

    def test_eps_sweep_orders_revenue(self):
        # Larger search frictions mean more fee per matched agent: final
        # cumulative revenue must increase with eps.
        finals = []
        for eps in (0.15, 0.45):
            spec = PolicySpec("revenue_frictions", ConfidenceConfig(ucb_scale=1.0), epsilon=eps)
            cell = SweepCell(f"e{eps}", "unstructured", 3, 3, 2500, spec, seeds=(0, 1, 2))
            results = sweep([cell])
            finals.append(np.mean([tr.cum_revenue[-1] for tr in results[f"e{eps}"].values()]))
        assert finals[0] < finals[1]
