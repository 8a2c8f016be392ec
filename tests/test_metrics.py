"""Joint displacement metrics against brute-force loop oracles."""

import numpy as np
import pytest

from jointmotion import ModeSet, MetricResult, min_joint_ade, min_joint_fde


def loop_ade(modes, gt):
    """Scalar-loop reimplementation, kept deliberately naive."""
    m, n, t, _ = modes.shape
    best_value, best_mode = None, None
    for mode in range(m):
        total = 0.0
        for agent in range(n):
            for step in range(t):
                dx = modes[mode, agent, step, 0] - gt[agent, step, 0]
                dy = modes[mode, agent, step, 1] - gt[agent, step, 1]
                total += (dx * dx + dy * dy) ** 0.5
        value = total / (n * t)
        if best_value is None or value < best_value:
            best_value, best_mode = value, mode
    return best_value, best_mode


def loop_fde(modes, gt):
    m, n, t, _ = modes.shape
    best_value, best_mode = None, None
    for mode in range(m):
        total = 0.0
        for agent in range(n):
            dx = modes[mode, agent, t - 1, 0] - gt[agent, t - 1, 0]
            dy = modes[mode, agent, t - 1, 1] - gt[agent, t - 1, 1]
            total += (dx * dx + dy * dy) ** 0.5
        value = total / n
        if best_value is None or value < best_value:
            best_value, best_mode = value, mode
    return best_value, best_mode


class TestExactCases:
    def test_mode_equal_to_ground_truth(self):
        rng = np.random.default_rng(0)
        gt = rng.normal(0.0, 10.0, (3, 5, 2))
        modes = np.stack([gt + 1.0, gt, gt - 2.0])
        ade = min_joint_ade(modes, gt)
        fde = min_joint_fde(modes, gt)
        assert ade == MetricResult(0.0, 1)
        assert fde == MetricResult(0.0, 1)

    def test_constant_offset_gives_offset_norm(self):
        rng = np.random.default_rng(1)
        gt = rng.normal(0.0, 10.0, (4, 6, 2))
        modes = (gt + np.array([3.0, 4.0]))[None]
        assert min_joint_ade(modes, gt).value == pytest.approx(5.0, abs=1e-12)
        assert min_joint_fde(modes, gt).value == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("metric", [min_joint_ade, min_joint_fde])
    def test_nested_lists_score_as_their_arrays(self, metric):
        rng = np.random.default_rng(3)
        gt = rng.normal(0.0, 5.0, (3, 4, 2))
        modes = rng.normal(0.0, 5.0, (2, 3, 4, 2))
        assert metric(modes.tolist(), gt.tolist()) == metric(modes, gt)

    def test_single_step_identity(self):
        rng = np.random.default_rng(2)
        gt = rng.normal(0.0, 5.0, (3, 1, 2))
        modes = rng.normal(0.0, 5.0, (4, 3, 1, 2))
        ade = min_joint_ade(modes, gt)
        fde = min_joint_fde(modes, gt)
        assert ade.value == fde.value
        assert ade.argmin_mode == fde.argmin_mode


class TestOracles:
    def test_matches_loop_oracles(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            t = int(rng.integers(1, 8))
            gt = rng.normal(0.0, 10.0, (n, t, 2))
            modes = rng.normal(0.0, 10.0, (6, n, t, 2))
            ade = min_joint_ade(modes, gt)
            fde = min_joint_fde(modes, gt)
            oracle_ade, oracle_ade_mode = loop_ade(modes, gt)
            oracle_fde, oracle_fde_mode = loop_fde(modes, gt)
            assert abs(ade.value - oracle_ade) < 1e-12
            assert abs(fde.value - oracle_fde) < 1e-12
            assert ade.argmin_mode == oracle_ade_mode
            assert fde.argmin_mode == oracle_fde_mode

    def test_accepts_mode_set_objects(self):
        rng = np.random.default_rng(4)
        gt = rng.normal(0.0, 5.0, (2, 3, 2))
        raw = rng.normal(0.0, 5.0, (3, 2, 3, 2))
        wrapped = ModeSet(modes=raw)
        assert min_joint_ade(wrapped, gt) == min_joint_ade(raw, gt)


class TestProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        gt = rng.normal(0.0, 10.0, (4, 5, 2))
        modes = rng.normal(0.0, 10.0, (6, 4, 5, 2))
        perm = rng.permutation(4)
        assert min_joint_ade(modes, gt).value == pytest.approx(
            min_joint_ade(modes[:, perm], gt[perm]).value, abs=1e-14
        )
        assert min_joint_fde(modes, gt).value == pytest.approx(
            min_joint_fde(modes[:, perm], gt[perm]).value, abs=1e-14
        )

    def test_adding_a_mode_never_increases(self):
        rng = np.random.default_rng(6)
        gt = rng.normal(0.0, 10.0, (3, 4, 2))
        modes = rng.normal(0.0, 10.0, (5, 3, 4, 2))
        extra = rng.normal(0.0, 10.0, (1, 3, 4, 2))
        grown = np.concatenate([modes, extra])
        assert min_joint_ade(grown, gt).value <= min_joint_ade(modes, gt).value
        assert min_joint_fde(grown, gt).value <= min_joint_fde(modes, gt).value

    def test_min_is_joint_not_per_agent(self):
        # mode 0 is perfect for agent 0, mode 1 perfect for agent 1; the
        # joint minimum is worse than a per-agent mode choice would be
        gt = np.zeros((2, 1, 2))
        modes = np.zeros((2, 2, 1, 2))
        modes[0, 1] = 10.0  # mode 0 ruins agent 1
        modes[1, 0] = 10.0  # mode 1 ruins agent 0
        result = min_joint_ade(modes, gt)
        assert result.value == pytest.approx(np.hypot(10.0, 10.0) / 2)
        per_agent_best = 0.0
        assert result.value > per_agent_best

    def test_ties_break_to_lowest_mode_index(self):
        gt = np.zeros((1, 2, 2))
        modes = np.ones((3, 1, 2, 2))
        assert min_joint_ade(modes, gt).argmin_mode == 0
        assert min_joint_fde(modes, gt).argmin_mode == 0


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            min_joint_ade(np.zeros((2, 2, 3, 2)), np.zeros((2, 4, 2)))
        with pytest.raises(ValueError):
            min_joint_fde(np.zeros((2, 2, 3, 1)), np.zeros((2, 3, 2)))

    @pytest.mark.parametrize("metric", [min_joint_ade, min_joint_fde])
    def test_overflowing_modes_rejected(self, metric):
        gt = np.zeros((3, 3, 2))
        modes = np.stack([np.full((3, 3, 2), 1e308), np.full((3, 3, 2), -1e308)])
        with np.errstate(all="raise"):  # no floating-point warning escapes
            with pytest.raises(ValueError, match="inf"):
                metric(modes, gt)

    @pytest.mark.parametrize("metric", [min_joint_ade, min_joint_fde])
    def test_one_finite_mode_still_scores(self, metric):
        gt = np.zeros((3, 3, 2))
        modes = np.stack([np.full((3, 3, 2), 1e308), np.full((3, 3, 2), 3.0)])
        with np.errstate(all="raise"):
            result = metric(modes, gt)
        assert result == MetricResult(value=float(np.hypot(3.0, 3.0)), argmin_mode=1)
