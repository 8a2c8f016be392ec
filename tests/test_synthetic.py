"""Scene generator ground truth and the brute-force estimators."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmotion import (
    InvalidCorrelationError,
    ScenarioConfig,
    correlation_for,
    empirical_increment_pcc,
    generate_scene,
    generate_scenes,
    heading_vectors,
    increments_from_positions,
    sample_future_positions,
    wrap_angle,
    yaw_error_distribution,
)
from jointmotion.synthetic import CHUNK_BYTES, PATTERNS, _geometry, _psd_factor, _walk


def final_step_increments(config, count):
    """Signed increments at the last future step over sampled futures."""
    futures, yaws, current, truth = sample_future_positions(config, count)
    theta = yaws[0, :, -1]
    return increments_from_positions(futures[:, :, -1, :], current, theta), truth


def reference_futures(config, count):
    """Plain per-future, per-step walk: (futures, yaws, current).

    Each future draws its (T, N) increments, then, with heading noise,
    its (T, N) jitter from the futures stream [seed, 1]; the past walks
    the same way on the family stream [seed, 0] after the geometry.
    """
    n = config.n_agents
    factor = _psd_factor(correlation_for(config).rho)
    family = np.random.default_rng([config.seed, 0])
    base_heading, starts = _geometry(config, family)

    def walk(rng, point, first_step, steps):
        z = rng.standard_normal((steps, n))
        deltas = config.base_speed + config.noise_sigma * (z @ factor.T)
        jitter = np.zeros((steps, n))
        if config.heading_noise:
            jitter = config.heading_noise * rng.standard_normal((steps, n))
        positions, headings = [point], []
        for s in range(steps):
            h = wrap_angle(base_heading + config.curvature * (first_step + s) + jitter[s])
            point = point + deltas[s][:, None] * np.stack([np.cos(h), np.sin(h)], axis=1)
            positions.append(point)
            headings.append(h)
        return positions, headings

    current = walk(family, starts, 1, config.t_obs - 1)[0][-1]
    rng = np.random.default_rng([config.seed, 1])
    futures, yaws = [], []
    for _ in range(count):
        positions, headings = walk(rng, current, config.t_obs, config.t_fut)
        futures.append(np.stack(positions[1:], axis=1))
        yaws.append(np.stack(headings, axis=1))
    return np.stack(futures), np.stack(yaws), current


class TestConfigValidation:
    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            ScenarioConfig(pattern="swarm", n_agents=2)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            ScenarioConfig(pattern="follow", n_agents=0)
        with pytest.raises(ValueError):
            ScenarioConfig(pattern="follow", n_agents=2, base_speed=0.0)

    def test_dict_round_trip(self):
        config = ScenarioConfig(pattern="yield", n_agents=4, seed=9, target_rho=0.7)
        again = ScenarioConfig.from_dict(config.to_dict())
        assert again == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig.from_dict({"pattern": "follow", "n_agents": 2, "what": 1})

    def test_matrix_target_round_trips_as_json_lists(self):
        target = np.array([[1.0, 0.3], [0.3, 1.0]])
        payload = ScenarioConfig(pattern="follow", n_agents=2, target_rho=target).to_dict()
        assert type(payload["target_rho"]) is list
        again = ScenarioConfig.from_dict(json.loads(json.dumps(payload)))
        assert again.target_rho == target.tolist()


class TestCorrelationFor:
    def test_follow_couples_pairs_positively(self):
        config = ScenarioConfig(pattern="follow", n_agents=4, target_rho=0.9)
        rho = correlation_for(config).rho
        assert rho[0, 1] == 0.9 and rho[2, 3] == 0.9
        assert rho[0, 2] == 0.0

    def test_yield_couples_pairs_negatively(self):
        config = ScenarioConfig(pattern="yield", n_agents=2, target_rho=0.8)
        assert correlation_for(config).rho[0, 1] == -0.8

    def test_mixed_has_one_positive_one_negative_pair(self):
        config = ScenarioConfig(pattern="mixed", n_agents=5, target_rho=0.6)
        rho = correlation_for(config).rho
        assert rho[0, 1] == 0.6 and rho[2, 3] == -0.6

    def test_matrix_target_accepted_when_psd(self):
        rho = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
        config = ScenarioConfig(pattern="independent", n_agents=3, target_rho=rho.tolist())
        np.testing.assert_array_equal(correlation_for(config).rho, rho)

    def test_non_psd_matrix_rejected(self):
        rho = np.array([[1.0, -0.8, 0.0], [-0.8, 1.0, 0.8], [0.0, 0.8, 1.0]])
        with pytest.raises(InvalidCorrelationError):
            ScenarioConfig(pattern="independent", n_agents=3, target_rho=rho.tolist())

    def test_truth_is_always_psd(self):
        for pattern in ("follow", "yield", "independent", "mixed"):
            config = ScenarioConfig(pattern=pattern, n_agents=5, target_rho=0.95)
            assert correlation_for(config).is_positive_semidefinite()


class TestGeneration:
    def test_deterministic_given_seed(self):
        config = ScenarioConfig(pattern="mixed", n_agents=4, seed=17)
        a, truth_a = generate_scene(config)
        b, truth_b = generate_scene(config)
        assert np.array_equal(a.past, b.past)
        assert np.array_equal(a.future, b.future)
        assert np.array_equal(a.yaw, b.yaw)
        np.testing.assert_array_equal(truth_a.rho.rho, truth_b.rho.rho)

    def test_scene_matches_first_of_batch(self):
        config = ScenarioConfig(pattern="follow", n_agents=2, seed=5)
        single, _ = generate_scene(config)
        batch, _ = generate_scenes(config, 3)
        assert np.array_equal(single.past, batch[0].past)
        assert np.array_equal(single.future, batch[0].future)
        assert np.array_equal(single.yaw, batch[0].yaw)
        assert np.array_equal(batch[0].past, batch[1].past)
        assert not np.array_equal(batch[0].future, batch[1].future)

    def test_single_agent_degenerates_to_straight_noisy_track(self):
        config = ScenarioConfig(pattern="follow", n_agents=1, seed=2)
        scene, truth = generate_scene(config)
        assert scene.n_agents == 1
        np.testing.assert_array_equal(truth.rho.rho, [[1.0]])

    def test_truth_increment_params_are_cumulative(self):
        config = ScenarioConfig(
            pattern="independent", n_agents=2, t_fut=4, base_speed=2.0, noise_sigma=0.3
        )
        _, truth = generate_scene(config)
        np.testing.assert_allclose(truth.mu_delta[:, 0], [2.0, 4.0, 6.0, 8.0])
        np.testing.assert_allclose(truth.sigma_delta[:, 0], 0.3 * np.sqrt([1, 2, 3, 4]))
        params = truth.increment_params(2)
        np.testing.assert_allclose(params.mu, [6.0, 6.0])

    def test_straight_scene_positions_lie_on_heading_rays(self):
        config = ScenarioConfig(pattern="follow", n_agents=2, seed=8, noise_sigma=0.4)
        scene, _ = generate_scene(config)
        heading = scene.yaw[:, 0]
        displacement = scene.future - scene.current[:, None, :]
        cross = displacement[..., 1] * np.cos(heading)[:, None] - displacement[
            ..., 0
        ] * np.sin(heading)[:, None]
        np.testing.assert_allclose(cross, 0.0, atol=1e-10)

    def test_truth_sidecar_dict_round_trip(self):
        from jointmotion import SceneTruth

        config = ScenarioConfig(pattern="yield", n_agents=2, seed=3)
        _, truth = generate_scene(config)
        again = SceneTruth.from_dict(truth.to_dict())
        np.testing.assert_array_equal(truth.rho.rho, again.rho.rho)
        np.testing.assert_array_equal(truth.sigma_delta, again.sigma_delta)


def full_shape_walk(config, rng, factor, start, base_heading, first_step_index, count, steps):
    """``_walk`` with every walk's heading vectors evaluated at the full
    (count, N, steps) shape and scaled in place."""
    n = start.shape[0]
    jittered = config.heading_noise != 0.0
    z = rng.standard_normal((count, 2 if jittered else 1, steps, n))
    deltas = (z[:, 0] @ factor.T) * config.noise_sigma + config.base_speed
    index = np.arange(first_step_index, first_step_index + steps, dtype=np.float64)
    headings = base_heading + config.curvature * index[:, None]
    if jittered:
        headings = z[:, 1] * config.heading_noise + headings
    headings = np.broadcast_to(np.swapaxes(wrap_angle(headings), -1, -2), (count, n, steps))
    positions = heading_vectors(headings)
    positions *= deltas.transpose(0, 2, 1)[..., None]
    positions[:, :, :1] += start[:, None]
    np.cumsum(positions, axis=2, out=positions)
    return positions, headings


def chunk_walks(n_agents, steps, heading_noise):
    """Walks per chunk of ``_walk``'s draws."""
    depth = 2 if heading_noise else 1
    return CHUNK_BYTES // (depth * steps * n_agents * 8)


def sampling_peak_above_outputs(config, count):
    """Bytes tracemalloc sees sampling allocate at its peak beyond what it
    returns (the futures, yaws, current positions and truth)."""
    sample_future_positions(config, 1)  # first-call allocations aside
    tracemalloc.start()
    try:
        sampled = sample_future_positions(config, count)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - kept


class TestFutureStream:
    @pytest.mark.parametrize("n_agents", [1, 3, 64])
    @pytest.mark.parametrize("heading_noise", [0.0, 0.1])
    @pytest.mark.parametrize("curvature, noise_sigma", [(0.0, 0.5), (0.3, 0.5), (0.0, 0.0)])
    def test_walk_bit_equal_to_full_shape_headings(
        self, n_agents, heading_noise, curvature, noise_sigma
    ):
        # without heading noise the vectors are computed once per family,
        # with it once per walk; both are byte-equal to the reference, one
        # draw of the full shape, on either side of each chunk boundary
        config = ScenarioConfig(
            pattern="mixed", n_agents=n_agents, noise_sigma=noise_sigma,
            curvature=curvature, heading_noise=heading_noise, seed=7,
        )
        factor = _psd_factor(correlation_for(config).rho)
        base_heading, start = _geometry(config, np.random.default_rng(1))
        chunk = chunk_walks(n_agents, 12, heading_noise)
        for count in (1, 33, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
            args = (factor, start, base_heading, 4, count, 12)
            got = _walk(config, np.random.default_rng(2), *args)
            want = full_shape_walk(config, np.random.default_rng(2), *args)
            for got_array, want_array in zip(got, want):
                assert got_array.shape == want_array.shape
                assert np.ascontiguousarray(got_array).tobytes() == want_array.tobytes()

    def test_chunk_is_about_one_mebibyte_of_draws(self):
        assert [chunk_walks(64, 12, h) for h in (0.0, 0.1)] == [170, 85]
        assert chunk_walks(3, 12, 0.0) == 3640

    @pytest.mark.parametrize("heading_noise", [0.0, 0.1])
    def test_zero_futures_have_empty_full_shapes(self, heading_noise):
        config = ScenarioConfig(pattern="mixed", n_agents=5, t_fut=7, heading_noise=heading_noise)
        futures, yaws, current, _ = sample_future_positions(config, 0)
        assert (futures.shape, yaws.shape, current.shape) == ((0, 5, 7, 2), (0, 5, 7), (5, 2))
        scenes, _ = generate_scenes(config, 0)
        assert scenes == []

    @pytest.mark.parametrize("heading_noise", [0.0, 0.1])
    def test_large_family_peak_is_its_outputs_plus_a_few_chunks(self, heading_noise):
        # the large-scene shape: a full-size draw and its increments held
        # beside the outputs would add 7.7 MiB, and with heading noise 22.7
        config = ScenarioConfig(
            pattern="mixed", n_agents=64, t_fut=12, target_rho=0.8, heading_noise=heading_noise
        )
        assert sampling_peak_above_outputs(config, 1280) <= 5 * 2**20

    def test_one_chunk_family_peak_is_its_increments_plus_ufunc_buffers(self):
        # the cli-pipeline shape fits one chunk: its draw is made into the
        # positions and spent before they are written, so only the (K, T, N)
        # increments, the multiply's two 64 KiB buffers and 8 KiB for the
        # small arrays come on top
        config = ScenarioConfig(pattern="mixed", n_agents=8, t_fut=12, target_rho=0.8)
        increments = 250 * 12 * 8 * 8
        assert sampling_peak_above_outputs(config, 250) <= increments + 2**17 + 2**13

    @settings(max_examples=60, deadline=None)
    @given(
        pattern=st.sampled_from(PATTERNS),
        n_agents=st.integers(1, 8),
        t_obs=st.integers(1, 4),
        t_fut=st.integers(1, 12),
        count=st.integers(1, 20),
        curvature=st.floats(-2.0, 2.0),
        heading_noise=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_walk_matches_per_step_oracle(
        self, pattern, n_agents, t_obs, t_fut, count, curvature, heading_noise, seed
    ):
        config = ScenarioConfig(
            pattern=pattern, n_agents=n_agents, t_obs=t_obs, t_fut=t_fut, seed=seed,
            curvature=curvature, heading_noise=heading_noise,
        )
        futures, yaws, current, _ = sample_future_positions(config, count)
        want_futures, want_yaws, want_current = reference_futures(config, count)
        assert np.array_equal(futures, want_futures)
        assert np.array_equal(yaws, want_yaws)
        assert np.array_equal(current, want_current)
        if heading_noise == 0.0:
            assert not yaws.flags.writeable


class TestEmpiricalIncrementPcc:
    def test_duplicated_columns(self):
        rng = np.random.default_rng(0)
        column = rng.normal(0.0, 1.0, 500)
        rho = empirical_increment_pcc(np.stack([column, column], axis=1)).rho
        assert rho[0, 1] == 1.0

    def test_negated_column(self):
        rng = np.random.default_rng(1)
        column = rng.normal(0.0, 1.0, 500)
        rho = empirical_increment_pcc(np.stack([column, -column], axis=1)).rho
        assert rho[0, 1] == -1.0

    def test_zero_variance_column_rejected(self):
        with pytest.raises(ValueError):
            empirical_increment_pcc(np.array([[1.0, 2.0], [1.0, 3.0]]))

    def test_too_few_samples_rejected(self):
        # without the shape check, one row fails as zero variance and a
        # 1-D sample in fill_diagonal
        for samples in ([[1.0, 2.0]], [1.0, 2.0, 3.0]):
            with pytest.raises(ValueError, match=re.escape("expected (K >= 2, N) samples")):
                empirical_increment_pcc(np.array(samples))

    def test_recovers_correlation_of_gaussian_draws(self):
        rho = np.array([[1.0, 0.4, -0.3], [0.4, 1.0, 0.1], [-0.3, 0.1, 1.0]])
        rng = np.random.default_rng(2)
        k = 10_000
        samples = rng.multivariate_normal(np.zeros(3), rho, size=k)
        estimate = empirical_increment_pcc(samples).rho
        assert np.max(np.abs(estimate - rho)) < 3.0 / np.sqrt(k)

    def test_consistent_with_sampled_assembled_joint(self):
        from jointmotion import (
            CorrelationMatrix,
            IncrementParams,
            JointGaussian,
            assemble_joint,
            projected_marginals,
            sample_joint,
            tikhonov_regularize,
        )

        corr = CorrelationMatrix([[1.0, 0.6], [0.6, 1.0]])
        inc = IncrementParams(mu=[2.0, 3.0], sigma=[0.7, 1.1])
        theta = np.array([0.4, -0.9])
        current = np.array([[0.0, 0.0], [4.0, 1.0]])
        joint = assemble_joint(projected_marginals(inc, theta, current), corr, theta)
        regular = JointGaussian(joint.mean, tikhonov_regularize(joint.cov, 1e-4))
        samples = sample_joint(regular, seed=11, count=100_000)
        increments = increments_from_positions(samples.reshape(-1, 2, 2), current, theta)
        estimate = empirical_increment_pcc(increments).rho
        assert abs(estimate[0, 1] - 0.6) < 0.01


class TestPatternRecoveryWindows:
    def test_independent_pattern_pcc_near_zero(self):
        config = ScenarioConfig(pattern="independent", n_agents=2, seed=21, target_rho=0.0)
        increments, _ = final_step_increments(config, 10_000)
        rho = empirical_increment_pcc(increments).rho
        assert -0.05 < rho[0, 1] < 0.05

    def test_follow_pattern_pcc_near_target(self):
        config = ScenarioConfig(pattern="follow", n_agents=2, seed=22, target_rho=0.9)
        increments, _ = final_step_increments(config, 10_000)
        rho = empirical_increment_pcc(increments).rho
        assert 0.85 < rho[0, 1] < 0.95

    def test_yield_pattern_pcc_near_negative_target(self):
        config = ScenarioConfig(pattern="yield", n_agents=2, seed=23, target_rho=0.9)
        increments, _ = final_step_increments(config, 10_000)
        rho = empirical_increment_pcc(increments).rho
        assert -0.95 < rho[0, 1] < -0.85


class TestYawErrorDistribution:
    def test_straight_constant_velocity_has_zero_error(self):
        scenes = [
            generate_scene(
                ScenarioConfig(
                    pattern="independent", n_agents=3, t_fut=10, noise_sigma=0.0, seed=s
                )
            )[0]
            for s in range(5)
        ]
        stats = yaw_error_distribution(scenes)
        assert abs(stats.mean_deg) < 1e-9
        assert stats.std_deg < 1e-9
        assert stats.n_skipped == 0

    def test_arc_error_matches_half_swept_heading(self):
        kappa = np.deg2rad(1.5)
        config = ScenarioConfig(
            pattern="independent",
            n_agents=2,
            t_fut=12,
            noise_sigma=0.0,
            seed=4,
            curvature=kappa,
        )
        scene, _ = generate_scene(config)
        displacement = scene.future - scene.current[:, None, :]
        estimated = np.arctan2(displacement[..., 1], displacement[..., 0])
        delta = wrap_angle(scene.yaw - estimated)
        steps = np.arange(1, 13)
        expected = kappa * (steps - 1) / 2.0
        assert np.max(np.abs(np.degrees(delta - expected[None, :]))) < 0.1

    def test_small_curvature_small_mean_and_growing_std(self):
        def stats_for(curvature):
            scenes = [
                generate_scene(
                    ScenarioConfig(
                        pattern="independent",
                        n_agents=2,
                        t_fut=12,
                        noise_sigma=0.0,
                        seed=s,
                        curvature=curvature,
                    )
                )[0]
                for s in range(3)
            ]
            return yaw_error_distribution(scenes)

        small = stats_for(np.deg2rad(0.2))
        large = stats_for(np.deg2rad(1.0))
        assert abs(small.mean_deg) < 1.0
        assert small.std_deg < large.std_deg

    def test_stationary_steps_skipped_and_counted(self):
        from jointmotion import Scene

        scene = Scene(
            past=[[[0.0, 0.0], [0.0, 0.0]]],
            future=[[[0.0, 0.0], [1.0, 0.0]]],  # first step stationary
            yaw=[[0.0, 0.0]],
        )
        stats = yaw_error_distribution([scene])
        assert stats.n_skipped == 1
        assert stats.n_measured == 1

    def test_histogram_covers_plus_minus_ninety(self):
        scenes = [
            generate_scene(
                ScenarioConfig(pattern="independent", n_agents=2, t_fut=6, seed=1)
            )[0]
        ]
        stats = yaw_error_distribution(scenes)
        assert stats.histogram.shape == (36,)
        assert stats.bin_edges[0] == -90.0 and stats.bin_edges[-1] == 90.0
        assert stats.histogram.sum() == stats.n_measured
