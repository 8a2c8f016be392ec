"""Joint Gaussian numerics: regularization, factorization, NLL, sampling."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import jointmotion.gaussian
from jointmotion import (
    CorrelationMatrix,
    IncrementParams,
    JointGaussian,
    NotPositiveDefiniteError,
    assemble_joint,
    cholesky_factor,
    marginalize_agent,
    min_eigenvalue,
    project_increments,
    sample_joint,
    scene_nll,
    tikhonov_regularize,
    trajectory_nll,
)
from jointmotion.gaussian import symmetric_matrix

LOG_TWO_PI = np.log(2.0 * np.pi)


def random_pd_gaussian(rng, dim):
    root = rng.normal(0.0, 1.0, (dim, dim))
    cov = root @ root.T + 0.5 * np.eye(dim)
    return JointGaussian(mean=rng.normal(0.0, 5.0, dim), cov=cov)


def dense_inverse_nll(dist, observation):
    """Straight evaluation with an explicit inverse and determinant."""
    residual = observation - dist.mean
    sign, log_det = np.linalg.slogdet(dist.cov)
    assert sign > 0
    quad = residual @ np.linalg.inv(dist.cov) @ residual
    return 0.5 * (log_det + quad + dist.dim * LOG_TWO_PI)


class TestTikhonov:
    def test_zero_matrix(self):
        out = tikhonov_regularize(np.zeros((4, 4)), 1e-4)
        np.testing.assert_array_equal(out, 1e-4 * np.eye(4))

    def test_delta_zero_is_identity(self):
        rng = np.random.default_rng(0)
        cov = rng.normal(size=(6, 6))
        cov = cov + cov.T
        np.testing.assert_array_equal(tikhonov_regularize(cov, 0.0), cov)

    def test_off_diagonals_untouched(self):
        rng = np.random.default_rng(1)
        cov = rng.normal(size=(6, 6))
        cov = cov + cov.T
        out = tikhonov_regularize(cov, 0.37)
        off_diag = ~np.eye(6, dtype=bool)
        np.testing.assert_array_equal(out[off_diag], cov[off_diag])

    def test_repairs_rank_deficient_projection(self):
        inc = IncrementParams(mu=[1.0, 2.0], sigma=[0.5, 0.8])
        corr = CorrelationMatrix([[1.0, 0.6], [0.6, 1.0]])
        joint = project_increments(inc, corr, np.array([0.3, 1.1]), np.zeros((2, 2)))
        assert abs(min_eigenvalue(joint.cov)) < 1e-12
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_factor(joint.cov)
        repaired = tikhonov_regularize(joint.cov, 1e-4)
        assert min_eigenvalue(repaired) >= 1e-4 - 1e-12
        cholesky_factor(repaired)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            tikhonov_regularize(np.zeros((2, 3)), 0.1)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            tikhonov_regularize(np.eye(2), -1.0)


class TestCholesky:
    def test_identity(self):
        factor = cholesky_factor(np.eye(5))
        np.testing.assert_array_equal(factor.lower, np.eye(5))
        assert factor.log_det == 0.0

    def test_two_by_two_by_hand(self):
        factor = cholesky_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
        np.testing.assert_allclose(
            factor.lower, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(factor.log_det, np.log(8.0), rtol=1e-15)
        np.testing.assert_allclose(
            factor.lower @ factor.lower.T, [[4.0, 2.0], [2.0, 3.0]], rtol=1e-15
        )

    def test_singular_matrix_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as excinfo:
            cholesky_factor(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert excinfo.value.pivot == 1

    def test_reconstruction_on_random_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            dim = int(rng.integers(2, 12))
            root = rng.normal(0.0, 1.0, (dim, dim))
            cov = root @ root.T + 0.5 * np.eye(dim)
            factor = cholesky_factor(cov)
            rel = np.linalg.norm(factor.lower @ factor.lower.T - cov) / np.linalg.norm(cov)
            assert rel < 1e-9
            assert np.all(np.diag(factor.lower) > 0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            cholesky_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_first_pivot_failure_reports_pivot_zero(self):
        with pytest.raises(NotPositiveDefiniteError) as excinfo:
            cholesky_factor(np.array([[-1.0, 0.0], [0.0, 1.0]]))
        assert excinfo.value.pivot == 0

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a square matrix"):
            cholesky_factor(np.zeros(shape))


class TestSceneNll:
    def test_identity_cov_at_mean(self):
        dist = JointGaussian(mean=np.arange(6.0), cov=np.eye(6))
        value = scene_nll(dist, dist.mean)
        assert abs(value - 3.0 * LOG_TWO_PI) < 1e-12

    def test_unit_offset(self):
        dist = JointGaussian(mean=np.zeros(2), cov=np.eye(2))
        value = scene_nll(dist, np.array([1.0, 0.0]))
        np.testing.assert_allclose(value, 0.5 * (1.0 + 2.0 * LOG_TWO_PI), rtol=1e-15)

    def test_matches_dense_inverse_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            dim = 2 * int(rng.integers(1, 11))
            dist = random_pd_gaussian(rng, dim)
            obs = dist.mean + rng.normal(0.0, 2.0, dim)
            mine = scene_nll(dist, obs)
            oracle = dense_inverse_nll(dist, obs)
            assert abs(mine - oracle) / abs(oracle) < 1e-10

    def test_quadratic_term_vanishes_at_mean(self):
        rng = np.random.default_rng(5)
        dist = random_pd_gaussian(rng, 8)
        factor = cholesky_factor(dist.cov)
        expected = 0.5 * (factor.log_det + 8 * LOG_TWO_PI)
        np.testing.assert_allclose(scene_nll(dist, dist.mean), expected, rtol=1e-14)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        dist = random_pd_gaussian(rng, 6)
        obs = dist.mean + rng.normal(0.0, 1.0, 6)
        shift = rng.normal(0.0, 100.0, 6)
        shifted = JointGaussian(mean=dist.mean + shift, cov=dist.cov)
        np.testing.assert_allclose(
            scene_nll(dist, obs), scene_nll(shifted, obs + shift), rtol=1e-9
        )

    def test_dimension_mismatch(self):
        dist = JointGaussian(mean=np.zeros(4), cov=np.eye(4))
        with pytest.raises(ValueError):
            scene_nll(dist, np.zeros(6))

    def test_trajectory_nll_sums_in_order(self):
        rng = np.random.default_rng(7)
        dists = [random_pd_gaussian(rng, 4) for _ in range(5)]
        obs = rng.normal(0.0, 1.0, (5, 4))
        expected = 0.0
        for dist, row in zip(dists, obs):
            expected += scene_nll(dist, row)
        assert trajectory_nll(dists, obs) == expected


class TestSampling:
    def test_same_seed_identical(self):
        rng = np.random.default_rng(9)
        dist = random_pd_gaussian(rng, 6)
        a = sample_joint(dist, seed=123, count=50)
        b = sample_joint(dist, seed=123, count=50)
        np.testing.assert_array_equal(a, b)

    def test_law_of_large_numbers_mean(self):
        dist = JointGaussian(mean=np.array([1.0, -2.0, 3.0, 0.5]), cov=np.eye(4))
        count = 1_000_000
        samples = sample_joint(dist, seed=0, count=count)
        error = np.abs(samples.mean(axis=0) - dist.mean)
        assert np.all(error < 4.0 / np.sqrt(count))

    def test_sample_covariance_converges(self):
        rng = np.random.default_rng(10)
        dist = random_pd_gaussian(rng, 6)

        def frob_error(count):
            samples = sample_joint(dist, seed=4, count=count)
            emp = np.cov(samples, rowvar=False)
            return np.linalg.norm(emp - dist.cov) / np.linalg.norm(dist.cov)

        assert frob_error(1_000_000) < frob_error(10_000)

    def test_requires_positive_definite(self):
        dist = JointGaussian(mean=np.zeros(2), cov=np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            sample_joint(dist, seed=0, count=1)


class TestMarginalize:
    def test_single_agent_returns_full(self):
        rng = np.random.default_rng(12)
        dist = random_pd_gaussian(rng, 2)
        marginal = marginalize_agent(dist, 0)
        np.testing.assert_array_equal(marginal.mean, dist.mean)
        np.testing.assert_array_equal(marginal.cov, dist.cov)

    def test_recovers_marginal_block_after_assembly(self):
        from jointmotion import Marginals

        marg = Marginals(
            mu_x=[0.0, 4.0],
            mu_y=[1.0, -2.0],
            sigma_x=[0.7, 1.1],
            sigma_y=[0.4, 0.9],
            rho_xy=[0.2, -0.5],
        )
        corr = CorrelationMatrix([[1.0, 0.8], [0.8, 1.0]])
        joint = assemble_joint(marg, corr, np.array([0.1, 0.7]))
        for agent in range(2):
            marginal = marginalize_agent(joint, agent)
            np.testing.assert_array_equal(marginal.cov, marg.block(agent))
            np.testing.assert_array_equal(
                marginal.mean, [marg.mu_x[agent], marg.mu_y[agent]]
            )

    def test_block_independent_of_cross_correlation(self):
        from jointmotion import Marginals

        marg = Marginals(
            mu_x=[0.0, 4.0],
            mu_y=[1.0, -2.0],
            sigma_x=[0.7, 1.1],
            sigma_y=[0.4, 0.9],
            rho_xy=[0.2, -0.5],
        )
        theta = np.array([0.1, 0.7])
        weak = assemble_joint(marg, CorrelationMatrix([[1.0, 0.1], [0.1, 1.0]]), theta)
        strong = assemble_joint(marg, CorrelationMatrix([[1.0, 0.9], [0.9, 1.0]]), theta)
        for agent in range(2):
            np.testing.assert_array_equal(
                marginalize_agent(weak, agent).cov, marginalize_agent(strong, agent).cov
            )

    def test_index_out_of_range(self):
        dist = JointGaussian(mean=np.zeros(4), cov=np.eye(4))
        with pytest.raises(IndexError):
            marginalize_agent(dist, 2)


class TestJointGaussianInvariants:
    def test_symmetrized_on_construction(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-13  # within tolerance, asymmetric
        dist = JointGaussian(mean=np.zeros(2), cov=cov)
        np.testing.assert_array_equal(dist.cov, dist.cov.T)

    def test_asymmetry_beyond_tolerance_rejected(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-6
        with pytest.raises(ValueError):
            JointGaussian(mean=np.zeros(2), cov=cov)

    def test_dimension_consistency(self):
        with pytest.raises(ValueError):
            JointGaussian(mean=np.zeros(3), cov=np.eye(3))
        with pytest.raises(ValueError):
            JointGaussian(mean=np.zeros(4), cov=np.eye(6))


class TestOneFactorPerJoint:
    """A joint is factored once, and its NLL and draws are those of the
    route through scipy's checked triangular solve."""

    def test_factor_is_computed_once(self, monkeypatch):
        dist = random_pd_gaussian(np.random.default_rng(12), 6)
        calls = []

        def counted(cov):
            calls.append(cov)
            return cholesky_factor(cov)

        monkeypatch.setattr(jointmotion.gaussian, "cholesky_factor", counted)
        factor = dist.factor
        assert dist.factor is factor
        scene_nll(dist, dist.mean)
        trajectory_nll([dist, dist], np.zeros((2, 6)))
        sample_joint(dist, seed=0, count=3)
        assert len(calls) == 1 and calls[0] is dist.cov
        direct = cholesky_factor(dist.cov)
        assert np.array_equal(factor.lower, direct.lower)
        assert factor.log_det == direct.log_det

    @pytest.mark.parametrize("dim", [2, 6, 16])
    def test_bit_equal_to_the_scipy_route(self, dim):
        rng = np.random.default_rng(dim)
        dist = random_pd_gaussian(rng, dim)
        factor = cholesky_factor(dist.cov)
        for obs in dist.mean + rng.normal(0.0, 2.0, (5, dim)):
            white = scipy.linalg.solve_triangular(factor.lower, obs - dist.mean, lower=True)
            expected = 0.5 * (
                factor.log_det + float(white @ white) + dim * jointmotion.gaussian.LOG_TWO_PI
            )
            assert scene_nll(dist, obs) == expected
        for seed in (0, 1, 2**40):
            z = np.random.default_rng(seed).standard_normal((4, dim))
            assert np.array_equal(sample_joint(dist, seed, 4), dist.mean + z @ factor.lower.T)

    @pytest.mark.parametrize(
        "observation", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0], [1e308, 0.0]]
    )
    def test_non_finite_observation_or_residual_raises(self, observation):
        dist = JointGaussian(mean=np.array([-1e308, 0.0]), cov=np.eye(2))
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            scene_nll(dist, np.array(observation))

    def test_not_positive_definite_raises_the_same_pivot_on_every_call(self):
        cov = np.eye(4)
        cov[:2, :2] = 1.0
        dist = JointGaussian(mean=np.zeros(4), cov=cov)
        attempts = (
            lambda: dist.factor,
            lambda: scene_nll(dist, np.zeros(4)),
            lambda: sample_joint(dist, seed=0, count=1),
            lambda: dist.factor,
        )
        for attempt in attempts:
            with pytest.raises(NotPositiveDefiniteError) as excinfo:
                attempt()
            assert excinfo.value.pivot == 1


HALF_MAX = np.finfo(np.float64).max / 2


def reference_symmetric(value):
    """(S + S^T) / 2 as plain numpy computes it."""
    value = np.asarray(value, dtype=np.float64)
    with np.errstate(over="ignore"):
        return (value + value.T) / 2.0


class TestSymmetricMatrix:
    """``symmetric_matrix`` returns (S + S^T) / 2 bit for bit wherever that
    sum is finite, keeps a huge but finite entry where it is not, and warns
    about nothing."""

    HUGE = [
        [[1e308, 0.0], [0.0, 1.0]],
        [[1.0, -1.7976931348623157e308], [-1.7976931348623157e308, 1.0]],
        [[1.7976931348623157e308, 1e-13], [0.0, 5e-324]],  # asymmetric within tolerance
    ]

    @pytest.mark.parametrize("value", HUGE)
    def test_huge_but_finite_entries_stay_finite(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sym = symmetric_matrix(value)
            joint = JointGaussian(mean=np.zeros(2), cov=value)
        value = np.asarray(value)
        for result in (sym, joint.cov):
            assert np.isfinite(result).all()
            big = np.abs(value) > HALF_MAX
            np.testing.assert_array_equal(result[big], value[big])
            np.testing.assert_array_equal(result[~big], reference_symmetric(value)[~big])

    def test_huge_diagonal_factors_to_a_finite_factor(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            factor = cholesky_factor(np.diag([1.7976931348623157e308, 1.0]))
        assert np.isfinite(factor.lower).all()
        assert factor.lower[0, 0] == np.sqrt(1.7976931348623157e308)

    def test_huge_asymmetric_pair_is_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^matrix is not symmetric \(max asymmetry inf\)$"):
                symmetric_matrix([[0.0, 1e308], [-1e308, 0.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_rejected_with_the_given_class(self, bad):
        value = np.eye(3)
        value[2, 1] = bad
        with pytest.raises(KeyError, match="cov contains non-finite values"):
            symmetric_matrix(value, "cov", KeyError)

    @pytest.mark.parametrize(
        "value",
        [
            [[5e-324, 5e-324], [5e-324, 5e-324]],  # halving first would give 0
            [[1.0, 1.5e-323], [5e-324, 1.0]],
            [[1.0, -0.0], [0.0, 1.0]],
            [[HALF_MAX, 1.0], [1.0, -HALF_MAX]],
        ],
    )
    def test_edge_entries_bit_equal_to_the_plain_formula(self, value):
        assert symmetric_matrix(value).tobytes() == reference_symmetric(value).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        upper=hnp.arrays(
            np.float64,
            st.integers(1, 4).map(lambda n: (n, n)),
            elements=st.floats(-HALF_MAX, HALF_MAX) | st.sampled_from([5e-324, 1.5e-323, -0.0]),
        ),
        nudge=st.sampled_from([0.0, 5e-324, 1e-13, -5e-13]),
    )
    def test_bit_equal_to_the_plain_formula_below_overflow(self, upper, nudge):
        n = upper.shape[0]
        value = np.where(np.triu(np.ones((n, n), dtype=bool)), upper, upper.T)
        value[-1, 0] += nudge  # within the tolerance of its mirror (itself when n = 1)
        before = value.copy()
        sym = symmetric_matrix(value)
        assert sym.tobytes() == reference_symmetric(before).tobytes()
        assert not sym.flags.writeable and value.flags.writeable
        assert value.tobytes() == before.tobytes()
