"""Attention head, cosine similarity and their gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmotion import DegenerateFeatureError, RelevanceHead, min_eigenvalue
from jointmotion.fit import finite_difference_gradient, relative_gradient_errors
from jointmotion.relevance import (
    cosine_gram,
    cosine_gram_backward,
    relevance_backward,
    relevance_forward_cached,
)


def transformed(features, head):
    """The head's output rows: attention over agents, then the transform."""
    _, cache = relevance_forward_cached(features, head)
    return cache["out"]


def cosine_rho(features):
    rho, _, _ = cosine_gram(np.asarray(features, dtype=np.float64))
    return rho


# Reference copies of the relevance kernels as first written, out of place
# and through numpy's wrappers; the library's in-place versions must give
# the same bytes.


def reference_cosine_gram(features):
    norms = np.linalg.norm(features, axis=-1)
    zero = np.argwhere(norms == 0.0)
    if zero.size:
        raise DegenerateFeatureError(f"feature row {zero[0, -1]} has zero norm")
    unit = features / norms[..., None]
    rho = unit @ unit.mT
    diagonal = np.arange(rho.shape[-1])
    rho[..., diagonal, diagonal] = 1.0
    return rho, norms, unit


def reference_cosine_gram_backward(d_rho, unit, norms):
    d_rho = np.array(d_rho, dtype=np.float64)
    diagonal = np.arange(d_rho.shape[-1])
    d_rho[..., diagonal, diagonal] = 0.0
    d_unit = (d_rho + d_rho.mT) @ unit
    return (d_unit - np.sum(d_unit * unit, axis=-1, keepdims=True) * unit) / norms[..., None]


def reference_forward(features, head):
    d = head.feature_dim
    q = features @ head.w_query
    k = features @ head.w_key
    v = features @ head.w_value
    scores = (q @ k.mT) / np.sqrt(d)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    attn = weights / weights.sum(axis=-1, keepdims=True)
    mixed = attn @ v
    hidden = np.tanh(mixed @ head.w_hidden + head.b_hidden)
    out = hidden @ head.w_out + head.b_out
    rho, norms, unit = reference_cosine_gram(out)
    cache = dict(features=features, q=q, k=k, v=v, attn=attn, mixed=mixed, hidden=hidden,
                 out=out, norms=norms, unit=unit)
    return rho, cache


def reference_backward(cache, d_rho, head):
    features = cache["features"]
    d = features.shape[-1]
    d_out = reference_cosine_gram_backward(d_rho, cache["unit"], cache["norms"])
    hidden = cache["hidden"]
    d_w_out = hidden.mT @ d_out
    d_b_out = d_out.sum(axis=-2)
    d_hidden = d_out @ head.w_out.T
    d_pre = d_hidden * (1.0 - hidden * hidden)
    d_w_hidden = cache["mixed"].mT @ d_pre
    d_b_hidden = d_pre.sum(axis=-2)
    d_mixed = d_pre @ head.w_hidden.T
    attn = cache["attn"]
    d_attn = d_mixed @ cache["v"].mT
    d_v = attn.mT @ d_mixed
    d_scores = attn * (d_attn - np.sum(d_attn * attn, axis=-1, keepdims=True))
    scale = 1.0 / np.sqrt(d)
    d_q = d_scores @ cache["k"] * scale
    d_k = d_scores.mT @ cache["q"] * scale
    grads = (features.mT @ d_q, features.mT @ d_k, features.mT @ d_v,
             d_w_hidden, d_b_hidden, d_w_out, d_b_out)
    if features.ndim == 2:
        return np.concatenate([g.ravel() for g in grads])
    steps = np.concatenate([g.reshape(len(g), -1) for g in grads], axis=1)
    return np.add.reduce(steps, axis=0, initial=0.0)


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("zero_rows, named", [([(2, 1)], 1), ([(1, 3), (2, 0)], 3)])
    def test_zero_row_in_a_later_step_is_named_by_its_row(self, zero_rows, named):
        # the first zero row in step-major order, by its index within its step
        features = np.random.default_rng(8).standard_normal((3, 4, 2))
        for step, row in zero_rows:
            features[step, row] = 0.0
        with pytest.raises(DegenerateFeatureError) as reference:
            reference_cosine_gram(features)
        message = f"feature row {named} has zero norm"
        assert str(reference.value) == message
        with pytest.raises(DegenerateFeatureError, match=f"^{message}$"):
            cosine_gram(features)

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


class TestBitIdenticalToReference:
    """The in-place kernels give the reference copies' bytes, at the fits'
    sizes and at widths and scales the fits do not reach."""

    SIZES = [(t, n) for t in (1, 12) for n in (1, 2, 3, 8, 64)]

    @pytest.mark.parametrize("t, n", SIZES)
    @pytest.mark.parametrize("d", [1, 8])
    def test_cosine_gram_and_its_backward(self, t, n, d):
        rng = np.random.default_rng(100 * t + n + d)
        for features in (rng.standard_normal((t, n, d)), rng.standard_normal((n, d)) * 1e150):
            rho, norms, unit = cosine_gram(features)
            want = reference_cosine_gram(features)
            for got_part, want_part in zip((rho, norms, unit), want):
                assert_same_bytes(got_part, want_part)
            d_rho = rng.standard_normal(rho.shape)
            kept = d_rho.copy()
            # a Fortran-ordered gradient too: the copy changes its layout
            for given in (d_rho, np.asfortranarray(d_rho)):
                got = cosine_gram_backward(given, unit, norms)
                assert_same_bytes(got, reference_cosine_gram_backward(given, unit, norms))
            assert_same_bytes(d_rho, kept)  # the caller's array is left alone

    @pytest.mark.parametrize("t, n", SIZES)
    @pytest.mark.parametrize("d", [1, 8])
    def test_head_forward_and_backward(self, t, n, d):
        rng = np.random.default_rng(1000 * t + n + d)
        head = RelevanceHead.initialize(d, seed=n)
        for features in (rng.standard_normal((t, n, d)), rng.standard_normal((n, d)) * 30.0):
            rho, cache = relevance_forward_cached(features, head)
            want_rho, want_cache = reference_forward(features, head)
            assert_same_bytes(rho, want_rho)
            assert sorted(cache) == sorted(want_cache)
            for name in cache:
                assert_same_bytes(cache[name], want_cache[name])
            d_rho = rng.standard_normal(rho.shape)
            assert_same_bytes(
                relevance_backward(cache, d_rho, head), reference_backward(want_cache, d_rho, head)
            )
