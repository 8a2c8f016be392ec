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
        d = np.asarray(self.w_query).shape[0]
        for field in fields(self):
            arr = np.asarray(getattr(self, field.name), dtype=np.float64)
            expected = (d,) if field.name.startswith("b_") else (d, d)
            if arr.shape != expected:
                raise ValueError(f"{field.name}: expected shape {expected}, got {arr.shape}")
            setattr(self, field.name, arr)

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
        vector = np.asarray(vector, dtype=np.float64)
        d = feature_dim
        shapes = [(d, d), (d, d), (d, d), (d, d), (d,), (d, d), (d,)]
        if vector.shape != (sum(math.prod(s) for s in shapes),):
            raise ValueError(f"parameter vector has wrong length {vector.shape}")
        parts = []
        offset = 0
        for shape in shapes:
            size = math.prod(shape)
            parts.append(vector[offset : offset + size].reshape(shape))
            offset += size
        return cls(*parts)


def cosine_gram(features: np.ndarray):
    """Cosine similarity of the rows, with unit diagonal, and the row norms
    and unit rows it is built from. Works on (N, d) or a (T, N, d) stack.

    The Gram matrix of unit rows is a correlation matrix by construction
    (symmetric, unit diagonal, positive semidefinite). Both fits get their
    correlations from this map: the relevance head from its output rows,
    the direct fit from the rows of a unit-diagonal lower-triangular matrix.
    """
    norms = np.linalg.norm(features, axis=-1)
    zero = np.argwhere(norms == 0.0)
    if zero.size:
        raise DegenerateFeatureError(f"feature row {zero[0, -1]} has zero norm")
    unit = features / norms[..., None]
    rho = unit @ unit.mT
    diagonal = np.arange(rho.shape[-1])
    rho[..., diagonal, diagonal] = 1.0
    return rho, norms, unit


def cosine_gram_backward(d_rho: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient with respect to the rows given to :func:`cosine_gram`.

    ``d_rho`` is the loss gradient with respect to its ``rho``, with every
    entry treated as independent; the diagonal is ignored (it is pinned
    to 1). ``unit`` and ``norms`` are the ones :func:`cosine_gram` returned.
    """
    d_rho = np.array(d_rho, dtype=np.float64)
    diagonal = np.arange(d_rho.shape[-1])
    d_rho[..., diagonal, diagonal] = 0.0
    d_unit = (d_rho + d_rho.mT) @ unit
    return (d_unit - np.sum(d_unit * unit, axis=-1, keepdims=True) * unit) / norms[..., None]


def relevance_forward_cached(features: np.ndarray, head: RelevanceHead):
    """Forward pass keeping intermediates for :func:`relevance_backward`.

    ``features`` is one step's (N, d) latents or a (T, N, d) stack of
    steps, each step attending only over its own agents. Returns (rho,
    cache) where ``rho`` is the raw (N, N) similarity matrix with unit
    diagonal, or the (T, N, N) stack of them.
    """
    features = np.asarray(features, dtype=np.float64)
    d = head.feature_dim
    if features.ndim not in (2, 3) or features.shape[-1] != d:
        raise ValueError(f"features: expected (N, {d}) or (T, N, {d}), got {features.shape}")
    if not np.all(np.isfinite(features)):
        raise ValueError("features contain non-finite values")
    q = features @ head.w_query
    k = features @ head.w_key
    v = features @ head.w_value
    scores = (q @ k.mT) / np.sqrt(d)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    attn = weights / weights.sum(axis=-1, keepdims=True)
    mixed = attn @ v
    pre = mixed @ head.w_hidden + head.b_hidden
    hidden = np.tanh(pre)
    out = hidden @ head.w_out + head.b_out
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
    d_b_out = d_out.sum(axis=-2)
    d_hidden = d_out @ head.w_out.T
    d_pre = d_hidden * (1.0 - hidden * hidden)
    d_w_hidden = cache["mixed"].mT @ d_pre
    d_b_hidden = d_pre.sum(axis=-2)
    d_mixed = d_pre @ head.w_hidden.T

    attn = cache["attn"]
    v = cache["v"]
    d_attn = d_mixed @ v.mT
    d_v = attn.mT @ d_mixed
    d_scores = attn * (d_attn - np.sum(d_attn * attn, axis=-1, keepdims=True))
    scale = 1.0 / np.sqrt(d)
    d_q = d_scores @ cache["k"] * scale
    d_k = d_scores.mT @ cache["q"] * scale

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
