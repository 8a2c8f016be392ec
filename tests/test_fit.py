"""NLL objective, analytic gradients and correlation recovery."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf

import jointmotion.fit
from jointmotion import (
    CorrelationMatrix,
    JointGaussian,
    ScenarioConfig,
    assemble_joint,
    correlation_for,
    empirical_increment_pcc,
    generate_scenes,
    heading_vectors,
    increments_from_positions,
    pair_count,
    sample_future_positions,
    scene_nll,
    tikhonov_regularize,
)
from jointmotion.fit import (
    DirectRhoParams,
    FitConfig,
    FitDataset,
    RelevanceParams,
    StepFactorizationError,
    UnitRowRhoParams,
    finite_difference_gradient,
    fit_parameters,
    grad_nll,
    gradient_check,
    make_params,
    nll_objective,
    relative_gradient_errors,
)
from jointmotion.gaussian import solve_triangular
from jointmotion.relevance import RelevanceHead
from jointmotion.scene import write_json

LOG_TWO_PI = np.log(2.0 * np.pi)


def small_dataset(
    seed=1, n_futures=64, pattern="mixed", n_agents=3, target=0.5, curvature=0.0, t_fut=4
):
    config = ScenarioConfig(
        pattern=pattern,
        n_agents=n_agents,
        t_obs=2,
        t_fut=t_fut,
        target_rho=target,
        noise_sigma=0.5,
        seed=seed,
        curvature=curvature,
    )
    return config, FitDataset.from_config(config, n_futures=n_futures)


def tiny_sigma_dataset(steps=slice(None)):
    """At delta_reg 1e-300 its objective is finite but its gradient at
    ``steps`` is not: there the whitened scatter is about 1e300, and one
    more solve overflows."""
    _, dataset = small_dataset()
    sigma = dataset.sigma_delta.copy()
    sigma[steps] = 1e-155
    return FitDataset(
        current=dataset.current,
        theta=dataset.theta,
        mu_delta=dataset.mu_delta,
        sigma_delta=sigma,
        futures=dataset.futures,
    )


def split_dataset(dataset, boundary):
    def subset(sl):
        return FitDataset(
            current=dataset.current,
            theta=dataset.theta,
            mu_delta=dataset.mu_delta,
            sigma_delta=dataset.sigma_delta,
            futures=dataset.futures[sl],
        )

    return subset(slice(0, boundary)), subset(slice(boundary, None))


class TestObjective:
    def test_matches_per_scene_loop_oracle(self):
        # curved futures and axis-aligned headings leave lateral residuals,
        # so the delta-only lateral term is exercised, not just ~1e-15 dust
        _, straight = small_dataset()
        _, curved = small_dataset(curvature=0.05)
        _, four = small_dataset(n_agents=4)
        axis_aligned = FitDataset(
            current=four.current,
            theta=np.tile([0.0, np.pi / 2, np.pi, -np.pi / 2], (four.t_fut, 1)),
            mu_delta=four.mu_delta,
            sigma_delta=four.sigma_delta,
            futures=four.futures,
        )
        _, single = small_dataset(n_agents=1)
        rng = np.random.default_rng(0)
        for dataset in (straight, curved, axis_aligned, single):
            n = dataset.n_agents
            params = DirectRhoParams(rng.uniform(-0.4, 0.4, (4, n * (n - 1) // 2)), n)
            value = nll_objective(params, dataset, 1e-4)
            rho = params.rho_matrices()
            total = 0.0
            for k in range(dataset.n_futures):
                for t in range(dataset.t_fut):
                    joint = assemble_joint(
                        dataset.marginals[t], CorrelationMatrix(rho[t]), dataset.theta[t]
                    )
                    regular = JointGaussian(joint.mean, tikhonov_regularize(joint.cov, 1e-4))
                    total += scene_nll(regular, dataset.futures[k, :, t, :].reshape(-1))
            np.testing.assert_allclose(value, total / dataset.n_futures, rtol=1e-10)

    @pytest.mark.parametrize("n_agents, curvature", [(1, 0.0), (3, 0.05), (64, 0.0)])
    def test_bit_equal_to_finishing_each_step_inside_the_loop(self, n_agents, curvature):
        # the reference finishes every step's terms before factoring the next
        _, dataset = small_dataset(n_futures=16, n_agents=n_agents, curvature=curvature)
        n, sigma, delta = n_agents, dataset.sigma_delta, 1e-4
        raw = np.random.default_rng(n).uniform(-0.1, 0.1, (dataset.t_fut, pair_count(n)))
        params = DirectRhoParams(raw, n)
        rho = params.rho_matrices()
        value, d_rho = 0.0, np.zeros_like(rho)
        for t in range(dataset.t_fut):
            cov = sigma[t][:, None] * rho[t] * sigma[t][None, :] + delta * np.eye(n)
            lower, info = dpotrf(cov, lower=1, clean=1)
            assert info == 0
            white = solve_triangular(lower, solve_triangular(lower, dataset.scatter[t]).T)
            rho_free = n * np.log(delta) + dataset.lateral_ss[t] / delta + 2 * n * LOG_TWO_PI
            log_det = 2.0 * float(np.log(lower.diagonal()).sum())
            value += 0.5 * (log_det + float(white.trace()) + float(rho_free))
            left = solve_triangular(lower, np.eye(n) - white, trans=1)
            grad_cov = solve_triangular(lower, left.T, trans=1)
            d_rho[t] = 0.5 * sigma[t][:, None] * grad_cov * sigma[t][None, :]
        iu, ju = np.triu_indices(n, k=1)
        grad = (d_rho[:, iu, ju] + d_rho[:, ju, iu]) * (1.0 - np.tanh(raw) ** 2)
        assert params.value(dataset, delta) == value
        actual_value, actual_grad = params.value_and_grad(dataset, delta)
        assert actual_value == value
        assert np.array_equal(actual_grad, grad.ravel())

    def test_identity_correlation_equals_sum_of_marginal_nlls(self):
        _, dataset = small_dataset(n_futures=1)
        params = DirectRhoParams.zeros(dataset.t_fut, dataset.n_agents)
        value = nll_objective(params, dataset, 1e-4)
        total = 0.0
        for t in range(dataset.t_fut):
            marg = dataset.marginals[t]
            for i in range(dataset.n_agents):
                block = tikhonov_regularize(marg.block(i), 1e-4)
                dist = JointGaussian(mean=[marg.mu_x[i], marg.mu_y[i]], cov=block)
                total += scene_nll(dist, dataset.futures[0, i, t, :])
        np.testing.assert_allclose(value, total, rtol=1e-10)

    def test_at_truth_matches_expected_nll_oracle(self):
        config, dataset = small_dataset(seed=9, n_futures=20_000, pattern="follow", target=0.8)
        truth_rho = correlation_for(config).rho
        params = DirectRhoParams.from_rho(truth_rho, t_fut=dataset.t_fut)
        value = nll_objective(params, dataset, 1e-4)

        # closed-form expectation: E[nll] = 0.5 (ln|C| + tr(C^-1 S_true) + 2N ln 2pi)
        expected = 0.0
        for t in range(dataset.t_fut):
            joint = assemble_joint(
                dataset.marginals[t], CorrelationMatrix(truth_rho), dataset.theta[t]
            )
            evaluated = tikhonov_regularize(joint.cov, 1e-4)
            sign, log_det = np.linalg.slogdet(evaluated)
            assert sign > 0
            expected += 0.5 * (
                log_det
                + np.trace(np.linalg.inv(evaluated) @ joint.cov)
                + 2 * dataset.n_agents * LOG_TWO_PI
            )
        per_scene = dataset.residuals.shape[0]
        spread = np.std(
            [
                sum(
                    scene_nll(
                        JointGaussian(
                            assemble_joint(
                                dataset.marginals[t],
                                CorrelationMatrix(truth_rho),
                                dataset.theta[t],
                            ).mean,
                            tikhonov_regularize(
                                assemble_joint(
                                    dataset.marginals[t],
                                    CorrelationMatrix(truth_rho),
                                    dataset.theta[t],
                                ).cov,
                                1e-4,
                            ),
                        ),
                        dataset.futures[k, :, t, :].reshape(-1),
                    )
                    for t in range(dataset.t_fut)
                )
                for k in range(0, per_scene, 400)
            ]
        )
        tolerance = 5.0 * spread / np.sqrt(dataset.n_futures)
        assert abs(value - expected) < tolerance

    def test_factorization_failure_reports_step(self):
        _, dataset = small_dataset()
        params = DirectRhoParams.zeros(dataset.t_fut, dataset.n_agents)
        with pytest.raises(StepFactorizationError) as excinfo:
            nll_objective(params, dataset, 0.0)
        assert excinfo.value.step == 0
        assert "step 0" in str(excinfo.value)

    def test_factorization_failure_names_a_later_step(self):
        _, dataset = small_dataset()
        indefinite = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
        rho = np.stack([np.eye(3), np.eye(3), indefinite, np.eye(3)])
        params = DirectRhoParams.from_rho(rho)
        for objective in (nll_objective, grad_nll):
            with pytest.raises(StepFactorizationError) as excinfo:
                objective(params, dataset, 1e-4)
            assert excinfo.value.step == 2
            assert "step 2" in str(excinfo.value)

    @pytest.mark.parametrize("step", [0, 2])
    def test_non_finite_gradient_raises_naming_step(self, step):
        dataset = tiny_sigma_dataset(steps=slice(step, None))
        params = UnitRowRhoParams.zeros(dataset.t_fut, dataset.n_agents)
        assert np.isfinite(nll_objective(params, dataset, 1e-300))
        message = f"gradient at future step {step} is not finite"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=message):
                grad_nll(params, dataset, 1e-300)


class TestLapackCalls:
    """Per objective call, one ``dpotrf`` per step and one
    ``solve_triangular`` per solve, through the names ``jointmotion.fit``
    binds: two solves per step for the value, four with the gradient."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"dpotrf": 0, "solve_triangular": 0}
        for name in counts:
            wrapped = getattr(jointmotion.fit, name)

            def counting(*args, _name=name, _wrapped=wrapped, **kwargs):
                counts[_name] += 1
                return _wrapped(*args, **kwargs)

            monkeypatch.setattr(jointmotion.fit, name, counting)
        return counts

    @pytest.mark.parametrize("make", [
        lambda t, n: DirectRhoParams(np.full((t, pair_count(n)), 0.1), n),
        lambda t, n: UnitRowRhoParams(np.full((t, pair_count(n)), 0.1), n),
        lambda t, n: RelevanceParams.initialize(feature_dim=8, seed=0),
    ], ids=["tanh", "unit-row", "relevance"])
    def test_one_factorization_per_step_and_one_call_per_solve(self, counts, make):
        _, dataset = small_dataset()
        params = make(dataset.t_fut, dataset.n_agents)
        params.value_and_grad(dataset, 1e-4)
        assert counts == {"dpotrf": dataset.t_fut, "solve_triangular": 4 * dataset.t_fut}
        params.value(dataset, 1e-4)
        assert counts == {"dpotrf": 2 * dataset.t_fut, "solve_triangular": 6 * dataset.t_fut}


class TestSolveTriangular:
    """The direct LAPACK solve shared by the fit and the joint Gaussian,
    against scipy's checked wrapper."""

    @pytest.mark.parametrize("n", [1, 3, 8, 64])
    @pytest.mark.parametrize("trans", [0, 1])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bit_equal_to_scipy_on_cholesky_factors(self, n, trans, order):
        rng = np.random.default_rng(n)
        root = rng.normal(size=(n, n))
        lower, info = dpotrf(root @ root.T + n * np.eye(n), lower=1, clean=1)
        assert info == 0
        rhs = np.asarray(rng.normal(size=(n, n)), order=order)
        expected = scipy.linalg.solve_triangular(lower, rhs, lower=True, trans=trans)
        assert np.array_equal(solve_triangular(lower, rhs, trans=trans), expected)

    @pytest.mark.parametrize("trans", [0, 1])
    def test_zero_diagonal_raises(self, trans):
        lower = np.asfortranarray([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 3.0]])
        with pytest.raises(np.linalg.LinAlgError, match="zero diagonal at index 1"):
            solve_triangular(lower, np.ones((3, 3)), trans=trans)


class TestGradients:
    def test_direct_rho_matches_finite_differences(self):
        _, straight = small_dataset()
        _, curved = small_dataset(curvature=0.05)
        rng = np.random.default_rng(3)
        for dataset, delta_reg in ((straight, 1e-4), (curved, 1e-2)):
            for _ in range(5):
                raw = rng.uniform(-0.4, 0.4, (4, 3))
                for kind in (DirectRhoParams, UnitRowRhoParams):
                    params = kind(raw, 3)
                    assert gradient_check(params, dataset, delta_reg=delta_reg) < 1e-5

    def test_relevance_head_matches_finite_differences(self):
        _, dataset = small_dataset()
        for seed in range(5):
            params = RelevanceParams.initialize(8, seed=seed)
            assert gradient_check(params, dataset, delta_reg=1e-2) < 1e-5

    def test_gradient_symmetric_for_symmetric_pairs(self):
        # two agents on the same heading with identical marginals: the
        # cross-pair derivative must be invariant to swapping the pair
        config = ScenarioConfig(
            pattern="follow", n_agents=2, t_obs=2, t_fut=3, target_rho=0.5, seed=5
        )
        dataset = FitDataset.from_config(config, n_futures=128)
        params = DirectRhoParams.zeros(3, 2)
        swapped = FitDataset(
            current=dataset.current[::-1],
            theta=dataset.theta[:, ::-1],
            mu_delta=dataset.mu_delta[:, ::-1],
            sigma_delta=dataset.sigma_delta[:, ::-1],
            futures=dataset.futures[:, ::-1],
        )
        np.testing.assert_allclose(
            grad_nll(params, dataset, 1e-4), grad_nll(params, swapped, 1e-4), rtol=1e-10
        )

    def test_quadratic_toy_gradient_error_tiny(self):
        def toy(vec):
            return float(vec @ np.array([2.0, -1.0]) + 3.0 * (vec**2).sum())

        # central differences are exact for quadratics; a moderate step
        # leaves only roundoff
        x = np.array([0.7, -1.2])
        numeric = finite_difference_gradient(toy, x, 1e-4)
        exact = np.array([2.0, -1.0]) + 6.0 * x
        assert np.max(relative_gradient_errors(exact, numeric)) < 1e-10

    def test_gradient_vanishes_at_one_parameter_minimum(self):
        from scipy.optimize import brentq

        config = ScenarioConfig(
            pattern="follow", n_agents=2, t_obs=2, t_fut=1, target_rho=0.6, seed=6
        )
        dataset = FitDataset.from_config(config, n_futures=2_000)

        def slope(z):
            return grad_nll(DirectRhoParams(np.array([[z]]), 2), dataset, 1e-4)[0]

        z_star = brentq(slope, -3.0, 3.0, xtol=1e-14)
        assert abs(slope(z_star)) < 1e-8
        objective = lambda vec: nll_objective(
            DirectRhoParams(vec.reshape(1, 1), 2), dataset, 1e-4
        )
        numeric = finite_difference_gradient(objective, np.array([z_star]), 1e-5)
        assert abs(numeric[0]) < 1e-6

    def test_larger_step_grows_truncation_error(self):
        _, dataset = small_dataset()
        rng = np.random.default_rng(8)
        params = DirectRhoParams(rng.uniform(-0.4, 0.4, (4, 3)), 3)
        fine = gradient_check(params, dataset, delta_reg=1e-1, step=1e-6)
        coarse = gradient_check(params, dataset, delta_reg=1e-1, step=1e-1)
        assert coarse > fine
        assert coarse > 1e-5


class TestUnitRowRho:
    @settings(max_examples=100, deadline=None)
    @given(
        t=st.integers(1, 6),
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_every_parameter_vector_is_a_correlation_matrix(self, t, n, seed, log_scale):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((t, n * (n - 1) // 2)) * 10.0**log_scale
        rho = UnitRowRhoParams(raw, n).rho_matrices()
        assert rho.shape == (t, n, n)
        assert np.array_equal(rho, rho.transpose(0, 2, 1))
        assert np.all(np.diagonal(rho, axis1=1, axis2=2) == 1.0)
        assert np.all(np.abs(rho) <= 1.0)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    @settings(max_examples=100, deadline=None)
    @given(t=st.integers(1, 6), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_from_rho_round_trips_positive_definite_correlations(self, t, n, seed):
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((t, n, n + 2))
        gram = features @ features.transpose(0, 2, 1)
        scale = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
        rho = gram / scale[:, :, None] / scale[:, None, :]
        params = UnitRowRhoParams.from_rho(rho)
        assert params.raw.shape == (t, n * (n - 1) // 2)
        np.testing.assert_allclose(params.rho_matrices(), rho, rtol=0.0, atol=1e-10)

    def test_zero_parameters_give_identity(self):
        params = UnitRowRhoParams.zeros(t_fut=3, n_agents=4)
        assert np.array_equal(params.rho_matrices(), np.tile(np.eye(4), (3, 1, 1)))
        assert params.raw.shape == (3, 6)

    def test_from_rho_rejects_indefinite_matrix(self):
        indefinite = np.full((3, 3), -0.6)
        np.fill_diagonal(indefinite, 1.0)
        with pytest.raises(ValueError):
            UnitRowRhoParams.from_rho(indefinite, t_fut=2)


class TestFitParameters:
    def test_default_direct_fit_uses_unit_row_map(self):
        _, dataset = small_dataset(seed=12, n_futures=100)
        params = make_params(FitConfig(), dataset)
        assert type(params) is UnitRowRhoParams
        assert params.raw.shape == (dataset.t_fut, pair_count(dataset.n_agents))

    def test_follow_at_64_agents_fits_without_escalation(self):
        # the tanh map turned this fit indefinite at iterations 17 to 20
        config = ScenarioConfig(
            pattern="follow", n_agents=64, t_obs=4, t_fut=12, target_rho=0.8, seed=0
        )
        dataset = FitDataset.from_config(config, n_futures=1_024)
        report = fit_parameters(FitConfig(max_iters=30), dataset)
        assert not report.failure_flag, report.failure_reason
        assert report.iterations_run == 30
        assert report.delta_reg_used == 1e-4

    def test_degenerate_features_end_the_fit_with_a_report(self):
        _, dataset = small_dataset(seed=11, n_futures=100)
        zero_head = RelevanceHead.unpack(np.zeros_like(RelevanceHead.initialize(8, 0).pack()), 8)
        config = FitConfig(parameterization="relevance-head", max_iters=20)
        report = fit_parameters(config, dataset, initial=RelevanceParams(zero_head))
        assert report.failure_flag
        assert report.failure_reason.startswith("non-finite objective at iteration 0")
        assert "zero norm" in report.failure_reason
        assert report.delta_reg_used == config.delta_reg  # not escalated
        assert report.iterations_run == 0
        assert np.isnan(report.final_nll)
        assert report.recovered_rho.shape == (dataset.t_fut, 3, 3)
        assert np.all(np.isnan(report.recovered_rho))

    def test_direct_recovery_smoke(self):
        config, dataset = small_dataset(seed=13, n_futures=2_000, pattern="follow", target=0.8)
        report = fit_parameters(
            FitConfig(max_iters=400, convergence_tol=1e-10), dataset
        )
        assert not report.failure_flag
        assert np.all(np.abs(report.recovered_rho[:, 0, 1] - 0.8) < 0.1)
        assert np.all(np.isfinite(report.nll_trace))

    def test_recovered_matrices_are_valid_correlations(self):
        _, dataset = small_dataset(seed=14, n_futures=500)
        report = fit_parameters(FitConfig(max_iters=150), dataset)
        for rho in report.recovered_rho:
            CorrelationMatrix(rho)  # validates symmetry, diagonal, range

    def test_ml_consistency_error_shrinks_with_data(self):
        config = ScenarioConfig(
            pattern="follow", n_agents=2, t_obs=2, t_fut=2, target_rho=0.8,
            noise_sigma=0.5, seed=15,
        )
        dataset = FitDataset.from_config(config, n_futures=10_000)
        small, _ = split_dataset(dataset, 1_000)

        def recovery_error(ds):
            report = fit_parameters(
                FitConfig(max_iters=500, convergence_tol=1e-11), ds
            )
            return np.max(np.abs(report.recovered_rho[:, 0, 1] - 0.8))

        assert recovery_error(dataset) < recovery_error(small)

    def test_single_pair_optimum_matches_empirical_pcc(self):
        config = ScenarioConfig(
            pattern="follow", n_agents=2, t_obs=2, t_fut=3, target_rho=0.7,
            noise_sigma=0.6, seed=16,
        )
        dataset = FitDataset.from_config(config, n_futures=10_000)
        report = fit_parameters(FitConfig(max_iters=600, convergence_tol=1e-11), dataset)
        for t in range(dataset.t_fut):
            increments = increments_from_positions(
                dataset.futures[:, :, t, :], dataset.current, dataset.theta[t]
            )
            empirical = empirical_increment_pcc(increments).rho[0, 1]
            assert abs(report.recovered_rho[t, 0, 1] - empirical) < 0.02

    def test_zero_delta_fails_at_first_iteration(self):
        _, dataset = small_dataset(seed=17, n_futures=200)
        report = fit_parameters(FitConfig(delta_reg=0.0, max_iters=50), dataset)
        assert report.failure_flag
        assert report.iterations_run == 0
        assert "not positive definite" in report.failure_reason
        assert report.delta_reg_used == 0.0
        assert np.isnan(report.final_nll)

    def test_zero_delta_is_not_escalated(self, monkeypatch):
        # 0 x 10 is still 0, so a retry would repeat the same failing call.
        _, dataset = small_dataset(seed=17, n_futures=200)
        deltas_tried = []
        value_and_grad = DirectRhoParams.value_and_grad

        def counted(params, data, delta_reg):
            deltas_tried.append(delta_reg)
            return value_and_grad(params, data, delta_reg)

        monkeypatch.setattr(DirectRhoParams, "value_and_grad", counted)
        report = fit_parameters(FitConfig(delta_reg=0.0, max_iters=50), dataset)
        assert deltas_tried == [0.0]
        assert report.failure_flag
        assert "escalation" not in report.failure_reason

    @pytest.mark.parametrize("parameterization", ["direct-rho", "relevance-head"])
    @pytest.mark.parametrize("delta_reg", [1e-100, 1e-320, 1e8])
    def test_unresolved_parameters_fail_instead_of_converging(self, parameterization, delta_reg):
        # the first step moves the parameters but the objective keeps
        # every bit, so "converged" would describe nothing
        _, dataset = small_dataset(seed=1, n_futures=20, pattern="follow")
        config = FitConfig(delta_reg=delta_reg, parameterization=parameterization)
        report = fit_parameters(config, dataset)
        assert report.failure_flag
        assert report.failure_reason.startswith("the objective does not resolve the parameters")
        assert report.iterations_run == 2
        assert report.nll_trace[0] == report.nll_trace[1]
        assert report.delta_reg_used == delta_reg

    @pytest.mark.parametrize("parameterization", ["direct-rho", "relevance-head"])
    def test_single_agent_still_converges_at_tiny_delta(self, parameterization):
        # N = 1 has no free correlation: the parameters never move
        _, dataset = small_dataset(seed=1, n_futures=20, pattern="follow", n_agents=1)
        config = FitConfig(delta_reg=1e-320, parameterization=parameterization)
        report = fit_parameters(config, dataset)
        assert not report.failure_flag
        assert report.iterations_run == 2

    def test_non_finite_gradient_ends_the_fit_with_a_report(self):
        config = FitConfig(delta_reg=1e-300, max_iters=3)
        with np.errstate(over="ignore", invalid="ignore"):
            report = fit_parameters(config, tiny_sigma_dataset())
        assert report.failure_flag
        assert report.failure_reason == (
            "non-finite objective at iteration 0: gradient at future step 0 is not finite"
        )
        assert report.iterations_run == 0
        assert report.delta_reg_used == 1e-300  # not escalated
        assert np.all(np.isfinite(report.recovered_rho))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gradient_overflowing_adam_ends_the_fit_with_a_report(self):
        # the gradient is finite (about 1e270) but its square is not
        config = ScenarioConfig(pattern="follow", n_agents=3, target_rho=0.5, base_speed=1e150)
        dataset = FitDataset.from_config(config, n_futures=40)
        report = fit_parameters(FitConfig(max_iters=60), dataset)
        assert report.failure_reason == "gradient too large for the optimizer at iteration 0"
        assert report.stop_reason == "failure"
        assert report.iterations_run == 1
        assert np.isfinite(report.final_nll)
        assert np.all(np.isfinite(report.recovered_rho))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gradient_overflowing_only_the_bias_corrected_moment_ends_the_fit(self):
        # the gradient is about 1.6e154: Adam's second moment 0.001 g**2 is
        # finite, but its bias correction (/ 0.001) is not, and would freeze
        # the step at zero, stopping on convergence_tol where the fit started
        config = ScenarioConfig(
            pattern="follow", n_agents=3, t_obs=2, t_fut=4, target_rho=0.5, seed=3,
            base_speed=2.5e143, noise_sigma=0.5e51, curvature=1e-17,
        )
        dataset = FitDataset.from_config(config, n_futures=8)
        report = fit_parameters(FitConfig(max_iters=20), dataset)
        assert report.failure_reason == "gradient too large for the optimizer at iteration 0"
        assert report.stop_reason == "failure"
        assert report.iterations_run == 1

    def test_infinite_objective_ends_the_fit_with_a_report(self):
        # curved futures leave lateral residuals, whose term L_t / delta
        # overflows the objective itself at delta_reg 1e-308
        config = ScenarioConfig(pattern="follow", n_agents=2, t_fut=3, curvature=0.3)
        dataset = FitDataset.from_config(config, n_futures=16)
        report = fit_parameters(FitConfig(delta_reg=1e-308), dataset)
        assert report.failure_reason == "non-finite objective at iteration 0: the objective is inf"
        assert report.stop_reason == "failure"
        assert report.iterations_run == 0
        assert np.all(np.isfinite(report.recovered_rho))

    def test_stop_reason_tells_the_iteration_cap_from_the_tolerance(self):
        _, dataset = small_dataset(seed=20, n_futures=100)
        capped = fit_parameters(FitConfig(max_iters=20), dataset)
        assert (capped.stop_reason, capped.iterations_run) == ("max_iters", 20)
        converged = fit_parameters(FitConfig(convergence_tol=1e-3), dataset)
        assert converged.stop_reason == "convergence_tol"
        assert 2 <= converged.iterations_run < 500
        # the tolerance met on the last allowed iteration still counts
        config = FitConfig(max_iters=converged.iterations_run, convergence_tol=1e-3)
        assert fit_parameters(config, dataset).stop_reason == "convergence_tol"

    def test_escalation_recovers_once_then_proceeds(self):
        _, dataset = small_dataset(seed=18, n_futures=200, n_agents=3, target=0.3)
        start = DirectRhoParams.from_rho(
            np.array([[1.0, -0.52, -0.52], [-0.52, 1.0, -0.52], [-0.52, -0.52, 1.0]]),
            t_fut=dataset.t_fut,
        )
        config = FitConfig(delta_reg=1e-2, max_iters=50)
        report = fit_parameters(config, dataset, initial=start)
        assert not report.failure_flag
        assert report.delta_reg_used == pytest.approx(1e-1)

    def test_trace_decreases_monotonically_at_small_learning_rate(self):
        config = ScenarioConfig(
            pattern="follow", n_agents=2, t_obs=2, t_fut=1, target_rho=0.6,
            noise_sigma=0.5, seed=31,
        )
        dataset = FitDataset.from_config(config, n_futures=500)
        report = fit_parameters(
            FitConfig(learning_rate=0.005, max_iters=120, convergence_tol=0.0), dataset
        )
        assert np.all(np.diff(report.nll_trace) <= 0)

    def test_relevance_head_smoke(self):
        _, dataset = small_dataset(seed=19, n_futures=2_000, pattern="follow", target=0.8)
        config = FitConfig(
            parameterization="relevance-head", learning_rate=0.03, max_iters=700,
            convergence_tol=1e-12, seed=2,
        )
        report = fit_parameters(config, dataset)
        assert not report.failure_flag
        assert np.all(np.abs(report.recovered_rho[:, 0, 1] - 0.8) < 0.15)

    def test_relevance_head_of_any_width_fits_a_sampled_dataset(self):
        # the dataset draws its latents for the head's width
        _, dataset = small_dataset(seed=21, n_futures=200)
        config = FitConfig(parameterization="relevance-head", feature_dim=16, max_iters=5)
        report = fit_parameters(config, dataset)
        assert report.stop_reason == "max_iters", report.failure_reason
        latents = dataset.latents(16)
        assert latents is dataset.latents(16)
        assert not latents.flags.writeable
        draw = np.random.default_rng(0).standard_normal((dataset.t_fut, dataset.n_agents, 16))
        assert np.array_equal(latents, draw)

    def test_report_dict_round_trips_through_json(self, tmp_path):
        import json

        _, dataset = small_dataset(seed=20, n_futures=100)
        report = fit_parameters(FitConfig(max_iters=20), dataset)
        path = tmp_path / "report.json"
        write_json(report.to_dict(), path)
        loaded = json.loads(path.read_text())
        assert loaded["iterations_run"] == report.iterations_run
        np.testing.assert_allclose(loaded["recovered_rho"], report.recovered_rho)


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            FitConfig(delta_reg=-1.0)
        with pytest.raises(ValueError):
            FitConfig(parameterization="mlp")

    def test_dict_round_trip(self):
        config = FitConfig(parameterization="relevance-head", seed=4, delta_reg=1e-3)
        assert FitConfig.from_dict(config.to_dict()) == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            FitConfig.from_dict({"moomentum": 0.9})


def assert_statistics_bit_equal_to_full_einsums(
    dataset, names=("residuals", "scatter", "lateral_ss")
):
    """The residual statistics are byte-equal to the full-product
    reference, which sums every scatter entry (both triangles) on its own."""
    k = dataset.n_futures
    means = np.stack([np.stack([m.mu_x, m.mu_y], axis=-1) for m in dataset.marginals])
    offsets = dataset.futures.transpose(0, 2, 1, 3) - means[None]
    along = heading_vectors(dataset.theta)
    residuals = np.einsum("ktnc,tnc->ktn", offsets, along)
    lateral = np.einsum("ktnc,tnc->ktn", offsets, along[..., ::-1] * [-1.0, 1.0])
    scatter = np.einsum("kta,ktb->tab", residuals, residuals) / k
    lateral_ss = np.einsum("ktn,ktn->t", lateral, lateral) / k
    reference = {"residuals": residuals, "scatter": scatter, "lateral_ss": lateral_ss}
    for name in names:
        got, want = getattr(dataset, name), reference[name]
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


def chunk_futures(n_agents, t_fut):
    """Futures per chunk of the ``FitDataset`` build."""
    return jointmotion.fit._CHUNK_BYTES // (t_fut * n_agents * 2 * 8)


def chunk_crossings(n_agents, t_fut):
    """K of exactly one chunk, of one future past it, and of several
    chunks plus a remainder."""
    chunk = chunk_futures(n_agents, t_fut)
    return [chunk, chunk + 1, 3 * chunk + 7]


class TestFitDataset:
    @pytest.mark.parametrize(
        "n_agents, n_futures",
        [(n, k) for n in (1, 2, 3, 64) for k in (1, 2, 33)]
        + [(n, k) for n in (3, 64) for k in chunk_crossings(n, 4)],
    )
    @pytest.mark.parametrize("curvature", [0.0, 0.3])
    def test_statistics_bit_equal_to_full_einsums(self, n_agents, n_futures, curvature):
        _, dataset = small_dataset(n_futures=n_futures, n_agents=n_agents, curvature=curvature)
        assert_statistics_bit_equal_to_full_einsums(dataset)

    def test_chunk_is_about_one_mebibyte_of_offsets(self):
        assert (chunk_futures(64, 12), chunk_futures(3, 12)) == (85, 1820)

    @pytest.mark.parametrize(
        "n_agents, n_futures", [(n, k) for n in (1, 3, 64) for k in chunk_crossings(n, 1)]
    )
    def test_single_step_statistics_bit_equal_to_full_einsums(self, n_agents, n_futures):
        # at T=1 einsum sums all K N squared lateral offsets in one pass; the
        # scatter is left out, since there its row-by-row sums can differ
        # from the full product's at large K
        _, dataset = small_dataset(n_futures=n_futures, n_agents=n_agents, t_fut=1)
        assert_statistics_bit_equal_to_full_einsums(dataset, ("residuals", "lateral_ss"))

    def test_build_peak_is_kept_arrays_plus_one_chunk(self):
        config = ScenarioConfig(pattern="mixed", n_agents=64, t_fut=12, target_rho=0.5)
        futures, yaws, current, truth = sample_future_positions(config, 1024)
        tracemalloc.start()
        try:
            dataset = FitDataset(current, yaws[0].T, truth.mu_delta, truth.sigma_delta, futures)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = dataset.residuals.nbytes + dataset.scatter.nbytes + dataset.lateral_ss.nbytes
        # one chunk: about 1 MiB of offsets and 0.5 MiB of lateral offsets
        assert peak - kept <= 2 * 2**20

    @pytest.mark.parametrize("n_agents", [1, 2, 3, 64])
    def test_statistics_of_zero_noise_futures_bit_equal_to_full_einsums(self, n_agents):
        # without noise the futures lie on the means up to rounding, so the
        # statistics hold exact zeros
        config = ScenarioConfig(pattern="mixed", n_agents=n_agents, t_fut=4, noise_sigma=0.0)
        futures, yaws, current, truth = sample_future_positions(config, 5)
        noiseless = FitDataset(current, yaws[0].T, truth.mu_delta, np.ones((4, n_agents)), futures)
        assert np.count_nonzero(noiseless.scatter == 0.0) > 0
        assert_statistics_bit_equal_to_full_einsums(noiseless)

    def test_statistics_from_scenes_bit_equal_to_full_einsums(self):
        config = ScenarioConfig(pattern="mixed", n_agents=5, t_fut=3, curvature=0.1, seed=26)
        scenes, truth = generate_scenes(config, 33)
        assert_statistics_bit_equal_to_full_einsums(FitDataset.from_scenes(scenes, truth))

    def test_from_scenes_matches_from_config(self):
        config = ScenarioConfig(pattern="follow", n_agents=2, t_fut=3, seed=21)
        scenes, truth = generate_scenes(config, 50)
        via_scenes = FitDataset.from_scenes(scenes, truth)
        via_config = FitDataset.from_config(config, 50)
        np.testing.assert_array_equal(via_scenes.futures, via_config.futures)
        np.testing.assert_array_equal(via_scenes.theta, via_config.theta)
        np.testing.assert_array_equal(via_scenes.scatter, via_config.scatter)

    def test_mismatched_families_rejected(self):
        config_a = ScenarioConfig(pattern="follow", n_agents=2, t_fut=3, seed=22)
        config_b = ScenarioConfig(pattern="follow", n_agents=2, t_fut=3, seed=23)
        scenes_a, truth = generate_scenes(config_a, 2)
        scenes_b, _ = generate_scenes(config_b, 2)
        with pytest.raises(ValueError):
            FitDataset.from_scenes([scenes_a[0], scenes_b[0]], truth)

    def test_requires_noisy_increments(self):
        config = ScenarioConfig(pattern="follow", n_agents=2, noise_sigma=0.0, seed=24)
        with pytest.raises(ValueError):
            FitDataset.from_config(config, 10)

    def test_requires_shared_headings(self):
        config = ScenarioConfig(pattern="follow", n_agents=2, heading_noise=0.01, seed=25)
        with pytest.raises(ValueError):
            FitDataset.from_config(config, 10)
