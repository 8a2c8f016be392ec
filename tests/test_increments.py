"""Projection, sign reconstruction, joint assembly and route equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmotion import (
    CorrelationMatrix,
    IncrementParams,
    InvalidCorrelationError,
    Marginals,
    assemble_joint,
    equivalence_check,
    heading_vectors,
    pair_count,
    planar_pair_count,
    project_increments,
    projected_marginals,
    reconstruct_cross_correlations,
    scene_nll,
    JointGaussian,
    wrap_angle,
)


# headings on and between the axes, where cos or sin is 0, +-1 or has a
# signed zero
AXIS_HEADINGS = np.array([0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, np.pi / 4, -np.pi / 4])


def random_instance(rng, n):
    """Random increments, PSD correlation, headings and positions."""
    inc = IncrementParams(mu=rng.uniform(0.0, 5.0, n), sigma=rng.uniform(0.1, 2.0, n))
    root = rng.normal(0.0, 1.0, (n, n))
    gram = root @ root.T + 0.1 * np.eye(n)
    scale = np.sqrt(np.diag(gram))
    rho = gram / np.outer(scale, scale)
    np.fill_diagonal(rho, 1.0)
    corr = CorrelationMatrix(np.clip(rho, -1.0, 1.0))
    theta = rng.uniform(-np.pi + 1e-9, np.pi, n)
    current = rng.uniform(-30.0, 30.0, (n, 2))
    return inc, corr, theta, current


def dense_projection_oracle(inc, corr, theta, current):
    """Explicit rotation matrix and replicated covariance, multiplied out."""
    n = inc.n_agents
    rotation = np.diag(np.stack([np.cos(theta), np.sin(theta)], axis=1).ravel())
    sigma_delta = np.outer(inc.sigma, inc.sigma) * corr.rho
    replicated = np.kron(sigma_delta, np.ones((2, 2)))
    cov = rotation.T @ replicated @ rotation
    mean = rotation @ np.repeat(inc.mu, 2) + current.reshape(-1)
    return mean, cov


class TestHeadingVectors:
    def test_components_bitwise_equal_cos_and_sin(self):
        rng = np.random.default_rng(12)
        theta = np.concatenate([AXIS_HEADINGS, rng.uniform(-np.pi, np.pi, 5)]).reshape(3, 4)
        unit = heading_vectors(theta)
        assert unit.shape == (3, 4, 2)
        assert unit[..., 0].tobytes() == np.cos(theta).tobytes()
        assert unit[..., 1].tobytes() == np.sin(theta).tobytes()
        assert heading_vectors(0.5).shape == (2,)


class TestProjectIncrements:
    def test_single_agent_axis_aligned(self):
        inc = IncrementParams(mu=[2.0], sigma=[1.3])
        joint = project_increments(
            inc, CorrelationMatrix([[1.0]]), np.array([np.pi / 2]), np.array([[5.0, 5.0]])
        )
        np.testing.assert_allclose(joint.mean, [5.0, 7.0], atol=1e-15)
        np.testing.assert_allclose(
            joint.cov, 1.3**2 * np.array([[0.0, 0.0], [0.0, 1.0]]), atol=1e-15
        )

    def test_independent_agents_block_structure(self):
        inc = IncrementParams(mu=[1.0, 2.0], sigma=[0.5, 0.8])
        joint = project_increments(
            inc, CorrelationMatrix(np.eye(2)), np.zeros(2), np.zeros((2, 2))
        )
        expected = np.zeros((4, 4))
        expected[0, 0] = 0.25
        expected[2, 2] = 0.64
        np.testing.assert_allclose(joint.cov, expected, atol=1e-15)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            inc, corr, theta, current = random_instance(rng, n)
            joint = project_increments(inc, corr, theta, current)
            mean, cov = dense_projection_oracle(inc, corr, theta, current)
            assert np.max(np.abs(joint.cov - cov)) < 1e-12
            assert np.max(np.abs(joint.mean - mean)) < 1e-12

    def test_rank_at_most_n(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            inc, corr, theta, current = random_instance(rng, n)
            joint = project_increments(inc, corr, theta, current)
            eigvals = np.linalg.eigvalsh(joint.cov)
            assert np.all(np.abs(eigvals[:n]) < 1e-9)

    def test_dimension_mismatch(self):
        inc = IncrementParams(mu=[1.0, 2.0], sigma=[0.5, 0.8])
        with pytest.raises(ValueError):
            project_increments(inc, CorrelationMatrix(np.eye(2)), np.zeros(3), np.zeros((2, 2)))

    def test_invalid_correlation_rejected(self):
        inc = IncrementParams(mu=[1.0, 2.0], sigma=[0.5, 0.8])
        with pytest.raises(InvalidCorrelationError):
            project_increments(inc, np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2), np.zeros((2, 2)))


class TestReconstructCrossCorrelations:
    def test_both_heading_east(self):
        block = reconstruct_cross_correlations(0.8, 0.0, 0.0)
        np.testing.assert_array_equal(block, [[0.8, 0.0], [0.0, 0.0]])

    def test_shared_diagonal_heading(self):
        block = reconstruct_cross_correlations(0.8, np.pi / 4, np.pi / 4)
        np.testing.assert_array_equal(block, 0.8 * np.ones((2, 2)))

    def test_opposed_diagonal_headings(self):
        block = reconstruct_cross_correlations(-0.5, np.pi / 4, 3 * np.pi / 4)
        np.testing.assert_array_equal(block, [[0.5, -0.5], [0.5, -0.5]])

    def test_entries_never_exceed_rho_magnitude(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            rho = rng.uniform(-1.0, 1.0)
            block = reconstruct_cross_correlations(
                rho, rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)
            )
            assert np.all(np.abs(block) <= abs(rho) + 1e-15)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            reconstruct_cross_correlations(1.5, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_heading_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            reconstruct_cross_correlations(0.5, bad, 0.3)
        with pytest.raises(ValueError, match="finite"):
            reconstruct_cross_correlations(0.5, 0.3, bad)

    def test_signs_match_assembled_blocks(self):
        rng = np.random.default_rng(11)
        theta = np.concatenate([AXIS_HEADINGS, rng.uniform(-np.pi, np.pi, 5)])
        n = theta.size
        marg = nondegenerate_marginals(rng, n)
        _, corr, _, _ = random_instance(rng, n)
        cov = assemble_joint(marg, corr, theta).cov
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                block = cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                pattern = reconstruct_cross_correlations(corr.rho[i, j], theta[i], theta[j])
                assert np.array_equal(np.sign(block), np.sign(pattern))


def nondegenerate_marginals(rng, n):
    return Marginals(
        mu_x=rng.uniform(-10.0, 10.0, n),
        mu_y=rng.uniform(-10.0, 10.0, n),
        sigma_x=rng.uniform(0.2, 2.0, n),
        sigma_y=rng.uniform(0.2, 2.0, n),
        rho_xy=rng.uniform(-0.8, 0.8, n),
    )


class TestAssembleJoint:
    def test_identity_correlation_gives_block_diagonal(self):
        rng = np.random.default_rng(3)
        marg = nondegenerate_marginals(rng, 3)
        joint = assemble_joint(marg, CorrelationMatrix(np.eye(3)), rng.uniform(-3, 3, 3))
        off_block = joint.cov.copy()
        for i in range(3):
            off_block[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = 0.0
        np.testing.assert_array_equal(off_block, np.zeros((6, 6)))

    def test_independent_joint_nll_sums_marginal_nlls(self):
        rng = np.random.default_rng(4)
        marg = nondegenerate_marginals(rng, 3)
        joint = assemble_joint(marg, CorrelationMatrix(np.eye(3)), rng.uniform(-3, 3, 3))
        obs = joint.mean + rng.normal(0.0, 1.0, 6)
        total = scene_nll(joint, obs)
        per_agent = sum(
            scene_nll(
                JointGaussian(mean=[marg.mu_x[i], marg.mu_y[i]], cov=marg.block(i)),
                obs[2 * i : 2 * i + 2],
            )
            for i in range(3)
        )
        np.testing.assert_allclose(total, per_agent, rtol=1e-12)

    def test_single_agent_ignores_theta(self):
        rng = np.random.default_rng(5)
        marg = nondegenerate_marginals(rng, 1)
        a = assemble_joint(marg, CorrelationMatrix([[1.0]]), np.array([0.3]))
        b = assemble_joint(marg, CorrelationMatrix([[1.0]]), np.array([-2.0]))
        np.testing.assert_array_equal(a.cov, b.cov)
        np.testing.assert_array_equal(a.cov, marg.block(0))

    def test_diagonal_blocks_bitwise_equal_marginals(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            marg = nondegenerate_marginals(rng, n)
            inc, corr, theta, current = random_instance(rng, n)
            joint = assemble_joint(marg, corr, theta)
            for i in range(n):
                block = joint.cov[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
                assert np.array_equal(block, marg.block(i))

    def test_symmetry_and_sign_pattern(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            n = int(rng.integers(2, 6))
            marg = nondegenerate_marginals(rng, n)
            inc, corr, theta, current = random_instance(rng, n)
            if trial >= 50:
                theta = rng.choice(AXIS_HEADINGS, n)
            joint = assemble_joint(marg, corr, theta)
            assert np.array_equal(joint.cov, joint.cov.T)
            trig = np.stack([np.cos(theta), np.sin(theta)], axis=1)  # (n, 2)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    block = joint.cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                    expected_sign = np.sign(corr.rho[i, j]) * np.sign(
                        np.outer(trig[i], trig[j])
                    )
                    assert np.array_equal(np.sign(block), expected_sign)

    def test_invalid_marginal_block_rejected(self):
        with pytest.raises(ValueError):
            Marginals(mu_x=[0.0], mu_y=[0.0], sigma_x=[-1.0], sigma_y=[1.0], rho_xy=[0.0])
        with pytest.raises(ValueError):
            Marginals(mu_x=[0.0], mu_y=[0.0], sigma_x=[1.0], sigma_y=[1.0], rho_xy=[1.5])


class TestWrapAngle:
    def test_both_ends_of_the_circle_map_to_pi(self):
        for angle in (np.pi, -np.pi):
            wrapped = wrap_angle(angle)
            assert type(wrapped) is float and wrapped == np.pi
        assert wrap_angle(np.array([np.pi, -np.pi, 0.0, 1.0])).tolist() == [np.pi, np.pi, 0.0, 1.0]


class TestEquivalence:
    def test_single_agent_any_heading(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            inc, corr, theta, current = random_instance(rng, 1)
            assert equivalence_check(inc, corr, theta, current) < 1e-14

    def test_routes_agree_when_headings_match(self):
        rng = np.random.default_rng(9)
        for trial in range(250):
            n = int(rng.integers(2, 6))
            inc, corr, theta, current = random_instance(rng, n)
            if trial >= 200:
                theta = rng.choice(AXIS_HEADINGS, n)
            assert equivalence_check(inc, corr, theta, current) <= 1e-10

    def test_deviation_grows_continuously_with_heading_error(self):
        rng = np.random.default_rng(10)
        inc, corr, _, current = random_instance(rng, 3)
        theta = rng.uniform(0.45, 1.05, 3)  # keep cos/sin strictly positive under perturbation
        deviations = []
        for perturbation in (0.0, 0.1, 0.2, 0.3):
            deviations.append(
                equivalence_check(inc, corr, theta, current, approx_theta=theta + perturbation)
            )
        assert deviations[0] < 1e-14
        assert deviations[0] < deviations[1] < deviations[2] < deviations[3]

    def test_projected_marginals_are_rank_one(self):
        inc = IncrementParams(mu=[2.0], sigma=[0.9])
        marg = projected_marginals(inc, np.array([0.7]), np.array([[1.0, 2.0]]))
        block = marg.block(0)
        eigvals = np.linalg.eigvalsh(block)
        assert abs(eigvals[0]) < 1e-15
        np.testing.assert_allclose(eigvals[1], 0.81, rtol=1e-12)


# any heading in [-pi, pi], or one on an axis, where cos or sin is 0 or a signed zero
HEADINGS = st.one_of(
    st.floats(-np.pi, np.pi),
    st.sampled_from([0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi]),
)


class TestRouteProperties:
    @settings(max_examples=200, deadline=None)
    @given(theta=st.lists(HEADINGS, min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
    def test_symmetric_rank_at_most_n_and_routes_agree(self, theta, seed):
        n = len(theta)
        inc, corr, _, current = random_instance(np.random.default_rng(seed), n)
        theta = np.array(theta)
        direct = project_increments(inc, corr, theta, current)
        assembled = assemble_joint(projected_marginals(inc, theta, current), corr, theta)
        for cov in (direct.cov, assembled.cov):
            assert np.array_equal(cov, cov.T)
        # each agent moves on a line: all but N singular values vanish up to rounding
        singular = np.linalg.svd(direct.cov, compute_uv=False)
        assert np.all(singular[n:] <= 1e-12 * singular[0])
        assert equivalence_check(inc, corr, theta, current) <= (1e-14 if n == 1 else 1e-10)


class TestParameterCounting:
    def test_pairwise_storage_is_quarter_of_planar(self):
        for n in range(1, 12):
            stored = pair_count(n)
            assert stored == n * (n - 1) // 2
            assert planar_pair_count(n) == 4 * stored

    def test_direct_parameterization_stores_one_scalar_per_pair(self):
        from jointmotion import DirectRhoParams

        params = DirectRhoParams.zeros(t_fut=5, n_agents=4)
        per_step = params.vector().size // 5
        assert per_step == pair_count(4)
        assert planar_pair_count(4) == 4 * per_step


class TestCorrelationMatrix:
    def test_rejects_asymmetry(self):
        with pytest.raises(InvalidCorrelationError):
            CorrelationMatrix([[1.0, 0.5], [0.4, 1.0]])

    def test_rejects_bad_diagonal(self):
        with pytest.raises(InvalidCorrelationError):
            CorrelationMatrix([[0.9, 0.0], [0.0, 1.0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidCorrelationError):
            CorrelationMatrix([[1.0, 1.1], [1.1, 1.0]])

    def test_rejects_entry_past_one_that_symmetrizing_would_hide(self):
        # asymmetric within the 1e-12 tolerance; the mean of the pair is 1
        with pytest.raises(InvalidCorrelationError, match=r"\[-1, 1\]"):
            CorrelationMatrix([[1.0, 1.0 + 4e-13], [1.0 - 4e-13, 1.0]])

    def test_psd_probe(self):
        assert CorrelationMatrix(np.eye(3)).is_positive_semidefinite()
        saturated = np.array([[1.0, -0.9, -0.9], [-0.9, 1.0, -0.9], [-0.9, -0.9, 1.0]])
        assert not CorrelationMatrix(saturated).is_positive_semidefinite()
