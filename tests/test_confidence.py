import math

import numpy as np
import pytest

from smbandits.confidence import (
    ConfidenceConfig,
    LinearConfidence,
    TypedConfidence,
    UnstructuredConfidence,
)
from smbandits.errors import InvalidContext, ProtocolViolation
from smbandits.market import Matching, UtilityMatrix


def obs_for(matching: Matching, value: float) -> tuple[np.ndarray, np.ndarray]:
    k = len(matching.pairs)
    return np.full(k, value), np.full(k, value)


class TestInit:
    def test_fresh_widths_are_two(self):
        conf = UnstructuredConfidence(3, 4)
        assert conf.hi_c[0, 3] - conf.lo_c[0, 3] == 2.0
        assert conf.width_sum(Matching([(0, 0), (1, 1)])) == 8.0

    def test_typed_has_one_interval_per_type_pair(self):
        conf = TypedConfidence(np.array([0, 1, 2, 0, 1]), np.array([2, 1, 0, 2, 1]), num_types=3)
        assert conf.type_lo.shape == (3, 3)
        assert (conf.type_hi - conf.type_lo == 2.0).all()

    def test_linear_starts_with_no_observations(self):
        ctx = np.eye(2)
        conf = LinearConfidence(ctx, ctx)
        assert (conf.V_inv == np.eye(2)).all() and (conf.b == 0.0).all()
        assert conf.hi_c[0, 1] - conf.lo_c[0, 1] == 2.0

    def test_context_outside_ball_rejected(self):
        bad = np.array([[1.0, 0.5]])
        with pytest.raises(InvalidContext):
            LinearConfidence(bad, np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_context_rejected(self, value):
        # A NaN context would pass the norm test: nan > 1 is False.
        good = np.array([[0.5, 0.0]])
        bad = np.array([[value, 0.0]])
        with pytest.raises(InvalidContext, match="finite"):
            LinearConfidence(bad, good)
        with pytest.raises(InvalidContext, match="finite"):
            LinearConfidence(good, bad)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ucb_scale", math.nan),
            ("ucb_scale", -1.0),
            ("lin_beta_d_coeff", math.inf),
            ("lin_beta_log_coeff", -1.0),
            ("lin_ridge", 0.0),
            ("lin_ridge", 1e-308),
        ],
    )
    def test_constant_that_would_make_intervals_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ConfidenceConfig(**{field: value})


class TestUnstructuredUpdate:
    def test_single_observation_saturates(self):
        # |A| = 4, T = 100: the half-width 8 * sqrt(log 400) far exceeds the
        # [-1, 1] range, so one observation leaves the interval untouched.
        conf = UnstructuredConfidence(2, 2)
        m = Matching([(0, 0)])
        conf.update(m, obs_for(m, 0.3), horizon=100)
        assert (conf.lo_c[0, 0], conf.hi_c[0, 0]) == (-1.0, 1.0)
        assert 8.0 * math.sqrt(math.log(400)) > 2.0

    def test_many_observations_shrink_to_formula(self):
        # 10,000 identical observations of 0.5 with |A| = 4, T = 100: the
        # half-width is 8 * sqrt(log(400) / 10000) = 0.19583... exactly.
        conf = UnstructuredConfidence(2, 2)
        m = Matching([(0, 0)])
        for _ in range(10_000):
            conf.update(m, obs_for(m, 0.5), horizon=100)
        hw = 8.0 * math.sqrt(math.log(400) / 10_000)
        assert hw == pytest.approx(0.1958197465, abs=1e-9)
        lo, hi = conf.lo_c[0, 0], conf.hi_c[0, 0]
        assert lo == pytest.approx(0.5 - hw, abs=1e-12)
        assert hi == pytest.approx(0.5 + hw, abs=1e-12)

    def test_mean_outside_range_pins_to_boundary(self):
        conf = UnstructuredConfidence(1, 1, ConfidenceConfig(ucb_scale=0.01))
        m = Matching([(0, 0)])
        for _ in range(50):
            conf.update(m, obs_for(m, 5.0), horizon=10)
        lo, hi = conf.lo_c[0, 0], conf.hi_c[0, 0]
        assert lo == hi == 1.0

    def test_reward_for_unmatched_agent_rejected(self):
        conf = UnstructuredConfidence(2, 2)
        m = Matching([(0, 0)])
        r_c, r_p = obs_for(m, 0.1)
        bad = (np.append(r_c, 0.2), r_p)
        with pytest.raises(ProtocolViolation):
            conf.update(m, bad, horizon=100)

    def test_missing_reward_rejected(self):
        conf = UnstructuredConfidence(2, 2)
        m = Matching([(0, 0)])
        with pytest.raises(ProtocolViolation):
            conf.update(m, (np.array([0.1]), np.array([])), horizon=100)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_reward_rejected_before_any_change(self, value, side):
        conf = UnstructuredConfidence(2, 2)
        m = Matching([(0, 0), (1, 1)])
        conf.update(m, obs_for(m, 0.1), horizon=100)
        state = [a.copy() for a in (conf.counts, conf.mean, conf.lo_c, conf.hi_c, conf.lo_p, conf.hi_p)]
        rewards = list(obs_for(m, 0.3))
        rewards[side][1] = value
        with pytest.raises(ProtocolViolation, match="non-finite"):
            conf.update(m, tuple(rewards), horizon=100)
        after = (conf.counts, conf.mean, conf.lo_c, conf.hi_c, conf.lo_p, conf.hi_p)
        assert all(np.array_equal(a, b) for a, b in zip(state, after))

    def test_feedback_other_than_two_arrays_rejected(self):
        conf = UnstructuredConfidence(2, 2)
        m = Matching([(0, 0), (1, 1)])
        r_c, r_p = obs_for(m, 0.1)
        agent_dict = {"C0": 0.1, "P0": 0.1, "C1": 0.1, "P1": 0.1}
        for bad in (agent_dict, (r_c, r_p, r_p), np.array([0.1, 0.1]), None):
            with pytest.raises(ProtocolViolation):
                conf.update(m, bad, horizon=100)
        assert (np.asarray(conf.counts) == 0).all()


class TestTypedUpdate:
    def test_pooling_across_agents_of_same_type(self):
        conf = TypedConfidence(np.array([0, 0]), np.array([1, 1]), num_types=2)
        m = Matching([(0, 0), (1, 1)])
        conf.update(m, obs_for(m, 0.4), horizon=100)
        # Both pairs share the (0, 1) cell: two observations pooled.
        assert conf.type_counts[0, 1] == 2
        assert conf.type_counts[1, 0] == 2
        assert conf.type_mean[0, 1] == pytest.approx(0.4)
        # All four customer-side intervals are the same object of the cell.
        assert conf.hi_c[0, 0] == conf.hi_c[1, 1]

    def test_same_type_both_sides_counts_twice(self):
        conf = TypedConfidence(np.array([0]), np.array([0]), num_types=1)
        m = Matching([(0, 0)])
        conf.update(m, (np.array([0.2]), np.array([0.6])), horizon=100)
        assert conf.type_counts[0, 0] == 2
        assert conf.type_mean[0, 0] == pytest.approx(0.4)


class TestLinearUpdate:
    def test_orthogonal_design_recovers_hidden_vector(self):
        # Contexts are standard basis vectors and rewards are noiseless, so
        # the ridge estimate converges to the hidden vector coordinatewise.
        phi = np.array([0.6, -0.3])
        ctx_p = np.eye(2)
        ctx_c = np.eye(2)
        conf = LinearConfidence(ctx_c, ctx_p, ConfidenceConfig())
        horizon = 500
        for t in range(400):
            j = t % 2
            m = Matching([(0, j)])
            conf.update(m, (np.array([phi[j]]), np.array([0.0])), horizon=horizon)
        assert np.allclose(conf.V_inv[0] @ conf.b[0], phi, atol=0.01)
        widths = [conf.hi_c[0, j] - conf.lo_c[0, j] for j in range(2)]
        fresh = LinearConfidence(ctx_c, ctx_p, ConfidenceConfig())
        assert all(w < fresh.hi_c[0, j] - fresh.lo_c[0, j] for j, w in enumerate(widths))

    def test_bonus_shrinks_with_observations(self):
        rng = np.random.default_rng(11)
        ctx = np.array([[0.8, 0.1], [0.2, 0.7]])
        conf = LinearConfidence(ctx, ctx, ConfidenceConfig())
        c = ctx[1]
        slot = 0
        prev = float(c @ conf.V_inv[slot] @ c)
        m = Matching([(0, 1)])
        for _ in range(50):
            conf.update(m, (np.array([rng.normal()]), np.array([rng.normal()])), horizon=100)
            now = float(c @ conf.V_inv[slot] @ c)
            assert now <= prev + 1e-12
            prev = now

    def test_beta_formula(self):
        ctx = np.eye(3)
        conf = LinearConfidence(ctx, ctx, ConfidenceConfig())
        horizon = 1000
        expected = 4.0 * 3 * math.log(1 + horizon) + 8.0 * math.log(6 * horizon)
        assert conf.beta(horizon) == pytest.approx(expected)


class TestProjections:
    def test_ucb_matrix_is_upper_endpoints(self):
        conf = UnstructuredConfidence(2, 2)
        m = Matching([(0, 1)])
        conf.update(m, obs_for(m, 0.7), horizon=4)
        ucb = conf.ucb_matrix()
        assert ucb.customer_values[0, 1] == conf.hi_c[0, 1]
        assert ucb.provider_values[1, 0] == conf.hi_p[1, 0]

    def test_contains_truth(self):
        conf = UnstructuredConfidence(2, 2)
        truth = UtilityMatrix(np.full((2, 2), 0.5), np.full((2, 2), -0.5))
        assert conf.contains(truth)
        conf.collapse_to(truth)
        assert conf.contains(truth)
        other = UtilityMatrix(np.full((2, 2), 0.6), np.full((2, 2), -0.5))
        assert not conf.contains(other)
