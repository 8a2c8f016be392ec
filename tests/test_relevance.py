"""Attention head, cosine similarity and their gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmotion import DegenerateFeatureError, RelevanceHead, min_eigenvalue
from jointmotion.fit import finite_difference_gradient, relative_gradient_errors
from jointmotion.relevance import cosine_gram, relevance_backward, relevance_forward_cached


def transformed(features, head):
    """The head's output rows: attention over agents, then the transform."""
    _, cache = relevance_forward_cached(features, head)
    return cache["out"]


def cosine_rho(features):
    rho, _, _ = cosine_gram(np.asarray(features, dtype=np.float64))
    return rho


class TestHeadParameters:
    def test_seeded_init_is_deterministic_and_bounded(self):
        a = RelevanceHead.initialize(8, seed=3)
        b = RelevanceHead.initialize(8, seed=3)
        np.testing.assert_array_equal(a.pack(), b.pack())
        bound = 1.0 / np.sqrt(8)
        assert np.max(np.abs(a.pack())) <= bound

    def test_pack_unpack_round_trip(self):
        head = RelevanceHead.initialize(6, seed=0)
        again = RelevanceHead.unpack(head.pack(), 6)
        np.testing.assert_array_equal(head.pack(), again.pack())

    def test_fields_are_stored_as_float64_arrays(self):
        # lists and integer arrays are converted; float64 arrays are kept as given
        head = RelevanceHead.initialize(2, seed=0)
        again = RelevanceHead(
            head.w_query.tolist(), np.eye(2, dtype=np.int64), head.w_value, head.w_hidden,
            head.b_hidden.tolist(), head.w_out, head.b_out,
        )
        for name in ("w_query", "w_key", "b_hidden"):
            value = getattr(again, name)
            assert type(value) is np.ndarray and value.dtype == np.float64
        np.testing.assert_array_equal(again.w_key, np.eye(2))
        np.testing.assert_array_equal(again.w_query, head.w_query)
        assert again.w_value is head.w_value and again.b_out is head.b_out

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RelevanceHead(
                w_query=np.eye(3),
                w_key=np.eye(3),
                w_value=np.eye(4),
                w_hidden=np.eye(3),
                b_hidden=np.zeros(3),
                w_out=np.eye(3),
                b_out=np.zeros(3),
            )


class TestAttentionForward:
    def test_single_agent_reduces_to_transform_of_value(self):
        head = RelevanceHead.initialize(4, seed=2)
        features = np.random.default_rng(0).standard_normal((1, 4))
        out = transformed(features, head)
        mixed = features @ head.w_value  # softmax over one key is exactly 1
        expected = np.tanh(mixed @ head.w_hidden + head.b_hidden) @ head.w_out + head.b_out
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_identical_rows_give_identical_outputs(self):
        head = RelevanceHead.initialize(6, seed=3)
        row = np.random.default_rng(1).standard_normal(6)
        out = transformed(np.tile(row, (4, 1)), head)
        for i in range(1, 4):
            np.testing.assert_array_equal(out[0], out[i])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        head = RelevanceHead.initialize(8, seed=4)
        features = rng.standard_normal((5, 8))
        perm = rng.permutation(5)
        out = transformed(features, head)
        out_permuted = transformed(features[perm], head)
        np.testing.assert_allclose(out_permuted, out[perm], rtol=1e-12, atol=1e-14)

    def test_shape_mismatch(self):
        head = RelevanceHead.initialize(4, seed=0)
        with pytest.raises(ValueError):
            transformed(np.zeros((2, 5)), head)


class TestCosineRelevance:
    def test_equal_rows_give_plus_one(self):
        rho = cosine_rho(np.array([[1.0, 2.0], [2.0, 4.0]]))
        np.testing.assert_allclose(rho[0, 1], 1.0)

    def test_orthogonal_rows_give_zero(self):
        rho = cosine_rho(np.array([[1.0, 0.0], [0.0, 3.0]]))
        assert rho[0, 1] == 0.0

    def test_antipodal_rows_give_minus_one(self):
        rho = cosine_rho(np.array([[1.0, 1.0], [-2.0, -2.0]]))
        np.testing.assert_allclose(rho[0, 1], -1.0)

    def test_zero_norm_row_raises(self):
        with pytest.raises(DegenerateFeatureError):
            cosine_rho([[1.0, 0.0], [0.0, 0.0]])

    def test_output_is_valid_correlation_matrix(self):
        # what CorrelationMatrix checks; unclipped, |rho| may pass 1 by rounding
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            rho = cosine_rho(rng.standard_normal((n, 5)))
            assert rho.shape == (n, n)
            assert np.max(np.abs(rho - rho.T)) <= 1e-12
            assert np.all(np.diagonal(rho) == 1.0)
            assert np.max(np.abs(rho)) <= 1.0 + 1e-15
            assert min_eigenvalue(rho) >= -1e-9

    def test_invariant_to_positive_row_rescaling(self):
        rng = np.random.default_rng(4)
        features = rng.standard_normal((4, 6))
        scaled = features * rng.uniform(0.1, 10.0, (4, 1))
        np.testing.assert_allclose(
            cosine_rho(features), cosine_rho(scaled), atol=1e-14
        )


class TestPipeline:
    def test_permutation_conjugates_relevance(self):
        rng = np.random.default_rng(5)
        head = RelevanceHead.initialize(8, seed=6)
        features = rng.standard_normal((5, 8))
        perm = rng.permutation(5)
        rho, _ = relevance_forward_cached(features, head)
        rho_permuted, _ = relevance_forward_cached(features[perm], head)
        np.testing.assert_allclose(rho_permuted, rho[np.ix_(perm, perm)], atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        n, d = 4, 8
        features = rng.standard_normal((n, d))
        weights = rng.standard_normal((n, n))
        np.fill_diagonal(weights, 0.0)
        head = RelevanceHead.initialize(d, seed=7)

        def loss(vector):
            rho, _ = relevance_forward_cached(features, RelevanceHead.unpack(vector, d))
            return float(np.sum(weights * rho))

        rho, cache = relevance_forward_cached(features, head)
        analytic = relevance_backward(cache, weights, head)
        numeric = finite_difference_gradient(loss, head.pack(), 1e-6)
        assert np.max(relative_gradient_errors(analytic, numeric)) < 1e-7


class TestStackedSteps:
    @settings(max_examples=80, deadline=None)
    @given(
        t=st.integers(1, 12),
        n=st.integers(1, 8),
        d=st.integers(1, 16),
        head_seed=st.integers(0, 2**32 - 1),
        data_seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-3.0, 3.0),
    )
    def test_stack_matches_per_step_calls(self, t, n, d, head_seed, data_seed, log_scale):
        rng = np.random.default_rng(data_seed)
        head = RelevanceHead.initialize(d, seed=head_seed)
        latents = rng.standard_normal((t, n, d)) * 10.0**log_scale
        d_rho = rng.standard_normal((t, n, n))

        rho, cache = relevance_forward_cached(latents, head)
        steps = [relevance_forward_cached(latents[s], head) for s in range(t)]
        assert np.array_equal(rho, np.stack([rho_s for rho_s, _ in steps]))

        # the per-step packs added up in step order, as a loop over steps would
        total = np.zeros(head.pack().size)
        for s, (_, cache_s) in enumerate(steps):
            total += relevance_backward(cache_s, d_rho[s], head)
        stacked = relevance_backward(cache, d_rho, head)
        assert np.array_equal(stacked, total)

        diagonal = np.arange(n)
        other_diagonal = d_rho.copy()
        other_diagonal[:, diagonal, diagonal] = rng.standard_normal((t, n)) * 1e3
        assert np.array_equal(relevance_backward(cache, other_diagonal, head), stacked)
