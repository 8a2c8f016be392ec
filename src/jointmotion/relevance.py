"""Relevance head: maps per-agent latent features to a correlation matrix.

A single-head scaled dot-product attention layer over the N agents is
followed by a two-layer feature transform; pairwise cosine similarity of
the resulting rows yields a correlation matrix (symmetric, unit diagonal,
positive semidefinite) by construction, since cosine similarities form
the Gram matrix of unit vectors. Nothing clips it, so an entry may pass
+-1 by a rounding error.

The transform nonlinearity is tanh. A smooth activation keeps the
analytic gradients verifiable against central finite differences at
tight tolerances, which a kinked activation cannot guarantee.

Forward passes are pure given the parameters; the fitter owns the
parameters during optimization (single writer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .scene import real_array


class DegenerateFeatureError(ValueError):
    """A feature row has zero norm and admits no cosine similarity."""


@dataclass
class RelevanceHead:
    """Parameters of the attention + transform head.

    ``w_query``, ``w_key``, ``w_value`` are the (d, d) attention
    projections; ``w_hidden``/``b_hidden`` and ``w_out``/``b_out`` are
    the two affine transform layers.
    """

    w_query: np.ndarray
    w_key: np.ndarray
    w_value: np.ndarray
    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray

    def __post_init__(self):
        # Every Adam iterate of a head fit passes here with the float64
        # arrays :meth:`unpack` sliced, so those are only shape-checked.
        d = np.shape(self.w_query)[0]
        for name in self.__dataclass_fields__:
            arr = getattr(self, name)
            if type(arr) is not np.ndarray or arr.dtype != np.float64:
                arr = real_array(arr, name)
                setattr(self, name, arr)
            expected = (d,) if name.startswith("b_") else (d, d)
            if arr.shape != expected:
                raise ValueError(f"{name}: expected shape {expected}, got {arr.shape}")

    @property
    def feature_dim(self) -> int:
        return self.w_query.shape[0]

    @classmethod
    def initialize(cls, feature_dim: int, seed: int) -> "RelevanceHead":
        """Seeded uniform init in [-1/sqrt(d), 1/sqrt(d)] (PCG64)."""
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(feature_dim)

        def draw(shape):
            return rng.uniform(-bound, bound, size=shape)

        d = feature_dim
        return cls(
            w_query=draw((d, d)),
            w_key=draw((d, d)),
            w_value=draw((d, d)),
            w_hidden=draw((d, d)),
            b_hidden=draw((d,)),
            w_out=draw((d, d)),
            b_out=draw((d,)),
        )

    def pack(self) -> np.ndarray:
        """Flatten all parameters into one vector (fixed field order)."""
        return np.concatenate([getattr(self, f.name).ravel() for f in fields(self)])

    @classmethod
    def unpack(cls, vector: np.ndarray, feature_dim: int) -> "RelevanceHead":
        """Inverse of :meth:`pack`."""
        vector = real_array(vector, "vector")
        d = feature_dim
        square = d * d
        if vector.shape != (5 * square + 2 * d,):
            raise ValueError(f"parameter vector has wrong length {vector.shape}")
        # the four attention and hidden (d, d) matrices, then b_hidden, w_out, b_out
        hidden_end = 4 * square + d
        return cls(
            *vector[: 4 * square].reshape(4, d, d),
            vector[4 * square : hidden_end],
            vector[hidden_end : hidden_end + square].reshape(d, d),
            vector[hidden_end + square :],
        )


def cosine_gram(features: np.ndarray):
    """Cosine similarity of the rows, with unit diagonal, and the row norms
    and unit rows it is built from. Works on (N, d) or a (T, N, d) stack.

    The Gram matrix of unit rows is a correlation matrix by construction
    (symmetric, unit diagonal, positive semidefinite). Both fits get their
    correlations from this map: the relevance head from its output rows,
    the direct fit from the rows of a unit-diagonal lower-triangular matrix.

    The norms are ``np.linalg.norm``'s for real rows, the square root of
    the summed squares, without its wrapper; the zero rows are searched
    for only when there is one, and the diagonal is set through a strided
    view of the fresh product. So the results are bit-identical to the
    wrapper's and the indexed assignment's.
    """
    features = real_array(features, "features")
    norms = np.sqrt(np.add.reduce(features * features, axis=-1))
    if not norms.all():
        zero = np.argwhere(norms == 0.0)
        raise DegenerateFeatureError(f"feature row {zero[0, -1]} has zero norm")
    unit = features / norms[..., None]
    rho = unit @ unit.mT
    n = rho.shape[-1]
    rho.reshape(rho.shape[:-2] + (n * n,))[..., :: n + 1] = 1.0
    return rho, norms, unit


def cosine_gram_backward(d_rho: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient with respect to the rows given to :func:`cosine_gram`.

    ``d_rho`` is the loss gradient with respect to its ``rho``, with every
    entry treated as independent; the diagonal is ignored (it is pinned
    to 1). ``unit`` and ``norms`` are the ones :func:`cosine_gram` returned.

    ``d_rho`` is copied once, so the caller's array is never changed; the
    projection (d_unit - <d_unit, unit> unit) / norms is then finished in
    place in the product's own buffer, with the same operations in the
    same order as the out-of-place expression.
    """
    d_rho = np.array(real_array(d_rho, "d_rho"), order="C")
    unit, norms = real_array(unit, "unit"), real_array(norms, "norms")
    n = d_rho.shape[-1]
    d_rho.reshape(d_rho.shape[:-2] + (n * n,))[..., :: n + 1] = 0.0
    d_unit = (d_rho + d_rho.mT) @ unit
    along = d_unit * unit
    np.multiply(np.add.reduce(along, axis=-1, keepdims=True), unit, out=along)
    d_unit -= along
    d_unit /= norms[..., None]
    return d_unit


def relevance_forward_cached(features: np.ndarray, head: RelevanceHead):
    """Forward pass keeping intermediates for :func:`relevance_backward`.

    ``features`` is one step's (N, d) latents or a (T, N, d) stack of
    steps, each step attending only over its own agents. Returns (rho,
    cache) where ``rho`` is the raw (N, N) similarity matrix with unit
    diagonal, or the (T, N, N) stack of them.
    """
    features = real_array(features, "features")
    d = head.feature_dim
    if features.ndim not in (2, 3) or features.shape[-1] != d:
        raise ValueError(f"features: expected (N, {d}) or (T, N, {d}), got {features.shape}")
    if not np.isfinite(features).all():
        raise ValueError("features contain non-finite values")
    q = features @ head.w_query
    k = features @ head.w_key
    v = features @ head.w_value
    # each step below writes into the previous one's fresh buffer
    attn = q @ k.mT
    attn /= math.sqrt(d)
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= np.add.reduce(attn, axis=-1, keepdims=True)
    mixed = attn @ v
    hidden = mixed @ head.w_hidden
    hidden += head.b_hidden
    np.tanh(hidden, out=hidden)
    out = hidden @ head.w_out
    out += head.b_out
    rho, norms, unit = cosine_gram(out)
    cache = {
        "features": features,
        "q": q,
        "k": k,
        "v": v,
        "attn": attn,
        "mixed": mixed,
        "hidden": hidden,
        "out": out,
        "norms": norms,
        "unit": unit,
    }
    return rho, cache


def relevance_backward(cache: dict, d_rho: np.ndarray, head: RelevanceHead) -> np.ndarray:
    """Gradient of a scalar loss with respect to all head parameters,
    packed in :meth:`RelevanceHead.pack` order.

    ``d_rho`` is the loss gradient with respect to the similarity
    matrix, shaped like the ``rho`` of the forward pass; its diagonal is
    ignored (the diagonal is pinned to 1). For a stack the per-step
    gradients are added in step order, so the result is bit-identical to
    summing single-step calls one after the other from zero.
    """
    features = cache["features"]
    d = features.shape[-1]
    d_out = cosine_gram_backward(d_rho, cache["unit"], cache["norms"])

    hidden = cache["hidden"]
    d_w_out = hidden.mT @ d_out
    d_b_out = np.add.reduce(d_out, axis=-2)
    # d_pre = d_hidden * (1 - hidden^2), finished in d_hidden's buffer
    d_pre = d_out @ head.w_out.T
    slope = hidden * hidden
    np.subtract(1.0, slope, out=slope)
    d_pre *= slope
    d_w_hidden = cache["mixed"].mT @ d_pre
    d_b_hidden = np.add.reduce(d_pre, axis=-2)
    d_mixed = d_pre @ head.w_hidden.T

    attn = cache["attn"]
    v = cache["v"]
    # d_scores = attn * (d_attn - <d_attn, attn>), finished in d_attn's buffer
    d_scores = d_mixed @ v.mT
    d_v = attn.mT @ d_mixed
    d_scores -= np.add.reduce(d_scores * attn, axis=-1, keepdims=True)
    d_scores *= attn
    scale = 1.0 / math.sqrt(d)
    d_q = d_scores @ cache["k"]
    d_q *= scale
    d_k = d_scores.mT @ cache["q"]
    d_k *= scale

    grads = (
        features.mT @ d_q,
        features.mT @ d_k,
        features.mT @ d_v,
        d_w_hidden,
        d_b_hidden,
        d_w_out,
        d_b_out,
    )
    if features.ndim == 2:
        return np.concatenate([g.ravel() for g in grads])
    # Reduced as packed (T, P) rows, numpy adds the steps in order; a
    # width-1 field (d = 1) reduced on its own would be summed pairwise.
    steps = np.concatenate([g.reshape(len(g), -1) for g in grads], axis=1)
    return np.add.reduce(steps, axis=0, initial=0.0)
